"""Engine integration: certificates at compile time, elision at dispatch.

The soundness cross-check lives here too: on a certified program the
runtime sentinel (when forced on) must never record a hazard, and
``static_certificate_violations`` must stay zero -- a nonzero value is
a hard test failure anywhere in the suite.
"""

from repro.engine import Engine, EngineConfig, make_job
from repro.engine.metrics import COUNTERS


def _dtw_job(index=0):
    return make_job(
        "dtw",
        {"a": [1, 5, 9, 2 + index], "b": [2, 4, 8, 3]},
    )


def _bsw_job():
    return make_job("bsw", {"query": "ACGTACGT", "target": "ACGGTACT"})


class TestCertificateAttachment:
    def test_compile_attaches_certificate(self):
        with Engine() as engine:
            engine.submit(_dtw_job())
            assert engine.drain()[0].ok
            compiled = next(iter(engine.cache._entries.values()))
            assert compiled.certificate is not None
            assert compiled.certificate["sentinel_free"]
            assert engine.metrics.counter("static_programs_certified") == 1

    def test_uncertified_kernel_counted(self):
        with Engine() as engine:
            engine.submit(_bsw_job())
            assert engine.drain()[0].ok
            assert engine.metrics.counter("static_programs_uncertified") == 1
            assert engine.metrics.counter("static_programs_certified") == 0


class TestElision:
    def test_certified_kernel_skips_observation(self):
        with Engine(EngineConfig(sentinels=True)) as engine:
            for index in range(4):
                engine.submit(_dtw_job(index))
            assert all(r.ok for r in engine.drain())
            counters = engine.snapshot()["counters"]
            assert counters["static_sentinel_elisions"] == 4
            assert counters["static_certificate_violations"] == 0
            assert counters["sentinel_values_observed"] == 0

    def test_uncertified_kernel_keeps_sentinels(self):
        with Engine(EngineConfig(sentinels=True)) as engine:
            engine.submit(_bsw_job())
            assert engine.drain()[0].ok
            assert engine.metrics.counter("static_sentinel_elisions") == 0
            assert engine.metrics.counter("sentinel_values_observed") > 0

    def test_elision_can_be_disabled(self):
        config = EngineConfig(sentinels=True, elide_sentinels=False)
        with Engine(config) as engine:
            engine.submit(_dtw_job())
            assert engine.drain()[0].ok
            assert engine.metrics.counter("static_sentinel_elisions") == 0
            assert engine.metrics.counter("sentinel_values_observed") > 0

    def test_certified_program_never_trips_the_forced_sentinel(self):
        # Soundness: force observation on a certified program; every
        # hazard counter and the violation audit must stay zero.
        config = EngineConfig(sentinels=True, elide_sentinels=False)
        with Engine(config) as engine:
            for index in range(8):
                engine.submit(_dtw_job(index))
            assert all(r.ok for r in engine.drain())
            counters = engine.snapshot()["counters"]
            assert counters["sentinel_int32_overflows"] == 0
            assert counters["sentinel_lane_saturations"] == 0
            assert counters["sentinel_underflows"] == 0
            assert (
                engine.metrics.counter("static_certificate_violations") == 0
            )

    def test_snapshot_exports_static_block(self):
        with Engine(EngineConfig(sentinels=True)) as engine:
            engine.submit(_dtw_job())
            engine.drain()
            snapshot = engine.snapshot()
            assert "static" not in snapshot  # counters only, exported once
            for name in COUNTERS["static"]:
                assert name in snapshot["counters"]
