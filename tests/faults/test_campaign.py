"""The campaign driver's own pieces: the id-keyed ledger, the loop's
shed/restart/replay bookkeeping on a scripted target, and the shared
report serialization.  Real targets are covered by the scenario suites
and ``test_golden_campaigns.py``."""

import json
from collections import Counter
from dataclasses import dataclass, field, fields
from types import SimpleNamespace

import pytest

from repro.engine import BackpressureError, make_job
from repro.engine.jobs import JobResult
from repro.engine.metrics import MetricsRegistry
from repro.faults import CampaignReport, Ledger, drive
from repro.faults.campaign import (
    CanonicalReport,
    JsonReport,
    config_block,
    counter_fields,
)

LCS = {"x": "ACGT", "y": "AGT"}


def envelope(job_id, ok=True, error=None, value=None, backend="inline"):
    return JobResult(
        job_id=job_id, kernel="lcs", ok=ok, error=error, value=value, backend=backend
    )


def accepted(ledger, *job_ids):
    for job_id in job_ids:
        ledger.accepted[job_id] = SimpleNamespace(job_id=job_id, payload=LCS)


class TestLedger:
    def test_balanced_ledger_closes(self):
        ledger = Ledger()
        accepted(ledger, 1, 2)
        ledger.fold([envelope(1), envelope(2, ok=False, error="RuntimeError: x")])
        assert ledger.closes
        assert (ledger.lost, ledger.ok, ledger.failed) == (0, 1, 1)
        assert ledger.failures_by_error() == {"RuntimeError": 1}

    def test_duplicated_id_is_counted_and_first_wins(self):
        ledger = Ledger()
        accepted(ledger, 1)
        ledger.fold([envelope(1, ok=False, error="first"), envelope(1)])
        assert ledger.duplicate_envelopes == 1
        assert ledger.envelopes[1].error == "first"
        assert not ledger.closes

    def test_foreign_id_cannot_cancel_a_lost_job(self):
        ledger = Ledger()
        accepted(ledger, 1, 2)
        ledger.fold([envelope(1), envelope(99)])
        # Two accepted, two envelopes -- a count-subtracting ledger
        # would call this balanced.
        assert len(ledger.envelopes) == len(ledger.accepted) == 2
        assert (ledger.lost, ledger.unaccepted) == (1, 1)
        assert not ledger.closes

    def test_replayed_id_supersedes_only_a_failed_envelope_once(self):
        ledger = Ledger()
        accepted(ledger, 1, 2)
        ledger.fold([envelope(1, ok=False, error="compile-failed"), envelope(2)])
        ledger.supersede([SimpleNamespace(job_id=1), SimpleNamespace(job_id=2)])
        ledger.fold([envelope(1), envelope(2)])
        assert ledger.envelopes[1].ok  # the failed envelope was replaced
        assert ledger.duplicate_envelopes == 1  # an ok one never is
        ledger.fold([envelope(1)])  # and the replay licence is spent
        assert ledger.duplicate_envelopes == 2

    def test_audit_flags_wrong_values_and_skips_what_it_cannot_check(self):
        ledger = Ledger()
        accepted(ledger, 1, 2, 3, 4)
        ledger.fold(
            [
                envelope(1, value={"length": 3}),
                envelope(2, value={"length": 4}),  # LCS(ACGT, AGT) is 3
                envelope(3, value={"length": 4}, backend="reference"),
                envelope(4, ok=False, error="RuntimeError: x"),
                envelope(99, value={"length": 4}),  # unaccepted: no payload
            ]
        )
        assert ledger.corruption_escapes() == 1


class ScriptedTarget:
    """Engine-shaped fake: a bounded queue and an in-memory 'journal'
    (the set of accepted-but-unfinished ids) shared across generations."""

    def __init__(self, disk, refuse=()):
        self.disk, self.refuse = disk, dict(refuse)
        self.queue, self.metrics, self.dead_letters = [], MetricsRegistry(), []
        self.journal = SimpleNamespace(
            crash=lambda: None,
            compact=lambda: self.metrics.incr("compactions"),
            load_state=lambda: (
                SimpleNamespace(orphans=lambda: sorted(disk["open"])),
                {},
            ),
        )

    def submit(self, job):
        if job.job_id in self.refuse:
            raise self.refuse[job.job_id]
        self.queue.append(job)
        self.disk["open"][job.job_id] = job
        self.metrics.incr("submitted")
        return job

    def drain(self):
        results = [envelope(job.job_id) for job in self.queue]
        for job in self.queue:
            self.disk["open"].pop(job.job_id)
        self.queue = []
        return results

    def recover(self):
        self.queue = list(self.disk["open"].values())
        return SimpleNamespace(drained=[])

    def replay_dead_letters(self):
        return []

    def close(self):
        self.disk["closed"] += 1


def scripted(jobs, **drive_options):
    disk = {"open": {}, "closed": 0}
    refuse = drive_options.pop("refuse", {})
    ledger, closed_at_finish = drive(
        lambda: ScriptedTarget(disk, refuse),
        jobs,
        4,
        finish=lambda target: disk["closed"],
        **drive_options,
    )
    assert closed_at_finish == len(ledger.recoveries)  # finish saw it open
    assert disk["closed"] == len(ledger.recoveries) + 1  # the driver closed it
    return ledger


class TestDrive:
    def test_both_shed_classes_are_counted_not_lost(self):
        jobs = [make_job("lcs", LCS) for _ in range(8)]
        refuse = {
            jobs[1].job_id: BackpressureError("full"),
            jobs[2].job_id: OSError("torn accept write"),
        }
        ledger = scripted(jobs, refuse=refuse)
        assert (ledger.shed_backpressure, ledger.shed_write_faults) == (1, 1)
        assert len(ledger.accepted) == 6 and ledger.closes

    def test_crash_coin_restarts_and_sums_counters_across_generations(self):
        jobs = [make_job("lcs", LCS) for _ in range(12)]
        ledger = scripted(jobs, seed=3, crash_rate=1.0)
        assert ledger.crashes == len(ledger.recoveries) == 3
        assert ledger.closes and len(ledger.envelopes) == 12
        assert ledger.counters["submitted"] == 12  # four registries, one sum

    def test_compaction_counts_surviving_chunks_only(self):
        jobs = [make_job("lcs", LCS) for _ in range(12)]
        ledger = scripted(jobs, compact_every=2)
        assert ledger.counters["compactions"] == 1  # after chunks 2 of 3

    def test_burst_chunks_clone_without_fault_markers(self):
        jobs = [make_job("lcs", dict(LCS, _inject_fail=True)) for _ in range(4)]
        ledger = scripted(jobs, burst_factor_for=lambda chunk: 2)
        payloads = [job.payload for job in ledger.accepted.values()]
        assert len(payloads) == 8 and ledger.closes
        assert sum("_inject_fail" in payload for payload in payloads) == 4


@dataclass
class _Report(CanonicalReport):
    DERIVED = ("ratio", "survived")

    config: dict
    routed: int = 0
    writes_healed: int = 0
    seconds: float = 0.0
    states: dict = field(default_factory=dict)

    @property
    def ratio(self):
        return 1 / 3

    @property
    def survived(self):
        return True


class TestReports:
    def test_to_dict_is_fields_then_derived_sorted_and_rounded(self):
        report = _Report(config={"b": 1, "a": 0.1234567}, seconds=0.12345678,
                         states={"y": "dead", "x": "active"})
        document = report.to_dict()
        assert list(document) == [
            "config", "routed", "writes_healed", "seconds", "states", "ratio", "survived"
        ]
        assert document["seconds"] == 0.123457 and document["ratio"] == 0.333333
        assert list(document["states"]) == ["x", "y"]
        assert document["config"]["a"] == 0.1234567  # echoes are not rounded
        assert report.to_json() == (
            json.dumps(document, indent=2, sort_keys=True) + "\n"
        )

    def test_every_campaign_report_shares_the_serializer(self):
        from repro.cluster import ClusterReport
        from repro.durable import RecoveryCampaignReport
        from repro.guard import GuardReport

        for cls in (CampaignReport, ClusterReport, RecoveryCampaignReport, GuardReport):
            assert cls.to_json is JsonReport.to_json
        assert not issubclass(GuardReport, CanonicalReport)  # its own to_dict

    def test_counter_fields_feeds_only_the_named_fields(self):
        counters = Counter(cluster_jobs_routed=7, cluster_drain_rounds=3, other=9)
        assert counter_fields(counters, ("routed", "drain_rounds"), "cluster") == {
            "routed": 7,
            "drain_rounds": 3,
        }
        assert counter_fields(counters, ("stolen",), "cluster") == {"stolen": 0}
        with pytest.raises(KeyError):  # no counter of the family feeds it
            counter_fields(counters, ("other",), "cluster")
        with pytest.raises(KeyError):  # two would: cluster_jobs_ and orphans_
            counter_fields(counters, ("resubmitted",), "cluster", "durable")

    def test_config_block_echoes_only_the_declared_fields_plus_fixed(self):
        from repro.cluster import ClusterChaosConfig

        config = ClusterChaosConfig(jobs=8, kills=((2, 1),))
        block = config_block(config, ("jobs", "kills", "kernels"), settle_rounds=16)
        assert block == {
            "jobs": 8,
            "kills": [[2, 1]],
            "kernels": list(config.kernels),
            "settle_rounds": 16,
        }

    def test_every_echoed_and_counted_name_is_a_real_field(self):
        from repro.cluster import chaos as cluster
        from repro.durable import campaign as durable
        from repro.faults import chaos as engine

        for module, config, report in (
            (engine, engine.ChaosConfig, engine.CampaignReport),
            (durable, durable.RecoveryChaosConfig, durable.RecoveryCampaignReport),
            (cluster, cluster.ClusterChaosConfig, cluster.ClusterReport),
        ):
            assert set(module._ECHOED) <= {spec.name for spec in fields(config)}
            assert set(module._COUNTED) <= {spec.name for spec in fields(report)}
