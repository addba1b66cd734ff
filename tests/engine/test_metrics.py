"""Histogram internals and the counter registry's contract.

Every counter is declared once, in :data:`repro.engine.metrics.COUNTERS`,
and exported once.  The drift tests are deliberately grep-shaped and run
both ways: every declared name has a real ``incr`` site in the source
tree, and every literal ``incr`` name is declared -- so neither a renamed
counter nor a typo at a bump site can silently decouple the dashboards
from the code.  The export test renders an engine, a server and a
two-shard router and checks each counter appears exactly once, as a
counter.
"""

import asyncio
import re
from pathlib import Path

import pytest

from repro.engine.metrics import COUNTERS, Histogram
from repro.guard.sentinels import SENTINEL_FIELDS
from repro.serve.admission import REJECT_BACKPRESSURE, REJECT_DRAINING, REJECT_QUOTA

SRC_ROOT = Path(__file__).resolve().parents[2] / "src" / "repro"


def _linear_bucket(bounds, value):
    for index, bound in enumerate(bounds):
        if value <= bound:
            return index
    return len(bounds)


class TestHistogramObserve:
    def test_bisect_matches_linear_scan(self):
        bounds = (0.001, 0.01, 0.1, 1.0, 10.0)
        values = [0.0005, 0.005, 0.05, 0.5, 5.0, 50.0, -1.0]
        # Values exactly on a bound must land in that bound's bucket
        # (value <= bound semantics).
        values += list(bounds)
        reference = [0] * (len(bounds) + 1)
        histogram = Histogram(bounds=bounds)
        for value in values:
            reference[_linear_bucket(bounds, value)] += 1
            histogram.observe(value)
        assert histogram.counts == reference
        assert histogram.count == len(values)

    def test_tracks_sum_min_max(self):
        histogram = Histogram(bounds=(1.0,))
        for value in (0.5, 2.0, 3.5):
            histogram.observe(value)
        assert histogram.total == pytest.approx(6.0)
        assert histogram.minimum == 0.5
        assert histogram.maximum == 3.5


class TestHistogramQuantile:
    def test_quantiles_are_monotone_and_clamped(self):
        histogram = Histogram(bounds=(0.01, 0.1, 1.0))
        for value in (0.004, 0.05, 0.06, 0.5, 0.7, 3.0):
            histogram.observe(value)
        p50 = histogram.quantile(0.5)
        p95 = histogram.quantile(0.95)
        p99 = histogram.quantile(0.99)
        assert histogram.minimum <= p50 <= p95 <= p99 <= histogram.maximum

    def test_quantile_of_empty_histogram_is_zero(self):
        assert Histogram(bounds=(1.0,)).quantile(0.5) == 0.0

    def test_single_bucket_median_interpolates(self):
        histogram = Histogram(bounds=(10.0,))
        for _ in range(10):
            histogram.observe(8.0)
        # All mass in (0, 10]; interpolation puts the median mid-bucket,
        # clamped into the observed [8, 8] range.
        assert histogram.quantile(0.5) == 8.0


def _source_blob():
    return "\n".join(
        path.read_text() for path in sorted(SRC_ROOT.rglob("*.py"))
    )


def _declared():
    return [name for names in COUNTERS.values() for name in names]


def _bumped():
    """Every counter name an ``incr`` site in ``src/`` can bump: the
    literal ones, plus those of the two f-string sites while each site
    is still in the source."""
    blob = _source_blob()
    names = set(re.findall(r"incr\(\s*[\"']([A-Za-z0-9_]+)[\"']", blob))
    if re.search(r"incr\(\s*f[\"']sentinel_\{name\}[\"']", blob):
        names |= {f"sentinel_{field}" for field in SENTINEL_FIELDS}
    if re.search(r"incr\(\s*f[\"']serve_rejected_\{", blob):
        reasons = (REJECT_DRAINING, REJECT_BACKPRESSURE, REJECT_QUOTA)
        names |= {
            f"serve_rejected_{reason.replace('-exceeded', '')}"
            for reason in reasons
        }
    return names


def _without_incr_site(family):
    bumped = _bumped()
    return [name for name in COUNTERS[family] if name not in bumped]


def _unprefixed(family):
    # The family prefix is the dashboards' namespace contract.
    return [n for n in COUNTERS[family] if not n.startswith(f"{family}_")]


class TestCounterSchemaDrift:
    """The table and the ``incr`` sites agree, in both directions."""

    def test_every_declared_counter_has_an_incr_site(self):
        bumped = _bumped()
        assert [name for name in _declared() if name not in bumped] == []

    def test_every_incr_site_names_a_declared_counter(self):
        assert sorted(_bumped() - set(_declared())) == []

    def test_reliability_counters_have_incr_sites(self):
        assert _without_incr_site("reliability") == []

    def test_opt_counters_have_incr_sites(self):
        assert _without_incr_site("opt") == []

    def test_durable_counters_have_incr_sites(self):
        assert _without_incr_site("durable") == []

    def test_durable_counters_all_prefixed(self):
        assert _unprefixed("durable") == []

    def test_static_counters_have_incr_sites(self):
        assert _without_incr_site("static") == []

    def test_static_counters_all_prefixed(self):
        assert _unprefixed("static") == []

    def test_slo_counters_have_incr_sites(self):
        assert _without_incr_site("slo") == []

    def test_slo_counters_all_prefixed(self):
        assert _unprefixed("slo") == []

    def test_tenant_counters_have_incr_sites(self):
        assert _without_incr_site("tenant") == []

    def test_tenant_counters_all_prefixed(self):
        assert _unprefixed("tenant") == []

    def test_flight_counters_have_incr_sites(self):
        assert _without_incr_site("flight") == []

    def test_flight_counters_all_prefixed(self):
        assert _unprefixed("flight") == []

    def test_sentinel_counters_mirror_guard_fields(self):
        # Sentinel counters are folded dynamically via one f-string
        # site; the family must track SENTINEL_FIELDS exactly.
        service = (SRC_ROOT / "engine" / "service.py").read_text()
        assert re.search(r"incr\(\s*f[\"']sentinel_\{name\}[\"']", service)
        assert tuple(f"sentinel_{field}" for field in SENTINEL_FIELDS) == (
            COUNTERS["sentinel"]
        )

    def test_schemas_are_disjoint_and_unique(self):
        names = _declared()
        assert len(names) == len(set(names)) == 94
        # A family's name is its counters' prefix (the dashboards'
        # namespace contract), except the two unprefixed engine rows.
        for family, members in COUNTERS.items():
            if family not in ("engine", "reliability"):
                assert all(name.startswith(f"{family}_") for name in members)


# ----------------------------------------------------------------------
# exported once

LCS = {"x": "ACGTACGT", "y": "ACGGTA"}

#: The snapshot sections that used to repeat counters as gauges.
RETIRED_SECTIONS = ("reliability", "sentinels", "optimization", "durability", "static")


def _served_engine_snapshot(tmp_path):
    """One LCS job through a real ``gendp-serve`` over an inline engine."""
    from repro.engine import Engine, EngineConfig
    from repro.serve import ServeClient
    from repro.serve.server import GendpServer, ServeConfig

    sock = str(tmp_path / "gendp.sock")

    async def scenario(engine):
        server = GendpServer(engine, ServeConfig(unix_socket=sock))
        await server.start()
        try:
            async with await ServeClient.connect(unix_socket=sock) as client:
                response = await client.submit("lcs", LCS, tenant="a")
                assert response["ok"], response
        finally:
            await server.stop()

    with Engine(EngineConfig()) as engine:
        asyncio.run(asyncio.wait_for(scenario(engine), timeout=60))
        return engine.snapshot()


def _routed_snapshot(tmp_path):
    """One LCS job through a two-shard router."""
    from repro.cluster import ClusterConfig, ClusterRouter, SimClock
    from repro.engine import EngineConfig, make_job

    config = ClusterConfig(shards=2, engine=EngineConfig(workers=0))
    with ClusterRouter(config, clock=SimClock()) as router:
        router.submit(make_job("lcs", LCS))
        router.drain()
        return router.snapshot()


@pytest.mark.parametrize(
    "run, families, expected",
    [
        (
            _served_engine_snapshot,
            ("engine", "reliability", "sentinel", "opt", "durable", "static", "serve"),
            # One served LCS job; every counter not listed is zero.
            {
                "jobs_submitted": 1,
                "jobs_completed": 1,
                "batches_total": 1,
                "inline_batches": 1,
                "static_programs_certified": 1,
                "serve_connections": 1,
                "serve_requests": 1,
                "serve_admitted": 1,
                "serve_dispatches": 1,
                "serve_responses": 1,
            },
        ),
        (
            _routed_snapshot,
            ("cluster", "durable"),
            {
                "cluster_shards_joined": 2,
                "cluster_jobs_routed": 1,
                "cluster_drain_rounds": 1,
            },
        ),
    ],
    ids=["engine+server", "router"],
)
def test_every_counter_is_exported_once_as_a_counter(
    tmp_path, run, families, expected
):
    from repro.obs.export import prometheus_text
    from repro.obs.promcheck import check_exposition

    snapshot = run(tmp_path)
    text = prometheus_text(snapshot)
    assert check_exposition(text) == []
    kinds = dict(re.findall(r"^# TYPE (\S+) (\S+)$", text, re.M))
    samples = re.findall(r"^(\S+) (\S+)$", text, re.M)
    declared = {name for family in families for name in COUNTERS[family]}
    assert not set(RETIRED_SECTIONS) & set(snapshot)
    for name in declared:
        # The exporter's counter name; a name already ending in _total
        # keeps one suffix.
        metric = f"gendp_{name}" if name.endswith("_total") else f"gendp_{name}_total"
        assert kinds[metric] == "counter"
        assert [v for m, v in samples if m == metric] == [str(expected.get(name, 0))]
        # No snapshot section repeats it as a gauge.
        assert [s for s in snapshot if f"gendp_{s}_{name}" in kinds] == [], name
