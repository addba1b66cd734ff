"""Chaos campaigns: the ISSUE's acceptance scenario plus config/report
plumbing.  The big campaign runs twice (determinism check), so this
module is the slowest engine test file by design."""

import json

import pytest

from repro.faults import CampaignReport, ChaosConfig, run_campaign
from repro.faults.chaos import DEFAULT_KERNELS, synthesize_stream


class TestChaosConfig:
    def test_defaults_are_valid(self):
        config = ChaosConfig()
        assert config.jobs == 200
        assert config.plan().enabled

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            ChaosConfig(jobs=0)
        with pytest.raises(ValueError):
            ChaosConfig(kernels=())
        with pytest.raises(ValueError):
            ChaosConfig(chunk_jobs=0)
        with pytest.raises(ValueError):
            ChaosConfig(replay_rounds=-1)

    def test_rejects_bad_rates_eagerly(self):
        # FaultPlan validation must fire at ChaosConfig construction,
        # not first use, so the CLI can turn it into a parser error.
        with pytest.raises(ValueError):
            ChaosConfig(crash_rate=1.5)
        with pytest.raises(ValueError):
            ChaosConfig(crash_rate=0.6, corrupt_rate=0.6)

    def test_hang_outlasts_the_batch_timeout_window(self):
        config = ChaosConfig(job_timeout_s=0.2, batch_capacity=4)
        assert config.plan().hang_delay_s > 0.2 * 4


class TestStream:
    def test_deterministic_and_round_robin(self):
        config = ChaosConfig(jobs=12, kernels=("lcs", "dtw"))
        stream = synthesize_stream(config)
        assert stream == synthesize_stream(config)
        assert [kernel for kernel, _ in stream[:4]] == ["lcs", "dtw"] * 2

    def test_covers_default_kernels(self):
        stream = synthesize_stream(ChaosConfig(jobs=8))
        assert {kernel for kernel, _ in stream} == set(DEFAULT_KERNELS)

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError):
            synthesize_stream(ChaosConfig(jobs=4, kernels=("nope",)))


class TestReport:
    def test_survival_criteria(self):
        report = CampaignReport(config={})
        assert report.survived
        assert not CampaignReport(config={}, lost=1).survived
        assert not CampaignReport(config={}, corruption_escapes=1).survived

    def test_degraded_fraction_guards_zero_batches(self):
        assert CampaignReport(config={}).degraded_fraction == 0.0

    def test_to_dict_is_json_able_and_render_reads(self):
        report = CampaignReport(
            config={"seed": 9}, submitted=10, envelopes=10, ok=9, failed=1,
            injected={"crash": 2}, failures_by_error={"injected": 1},
            quarantined=["bsw"], batches_total=4, degraded_batches=1,
        )
        json.dumps(report.to_dict())
        text = report.render()
        assert "SURVIVED" in text
        assert "crash=2" in text
        assert "bsw" in text


class TestCampaign:
    def test_inline_campaign_survives(self):
        # workers=0: crash/hang markers are inert (worker-only), so this
        # exercises corruption catching + compile faults + dead letters
        # on the always-available floor.
        config = ChaosConfig(jobs=24, seed=9, workers=0)
        report = run_campaign(config)
        assert report.survived
        assert report.lost == 0
        assert report.submitted == 24

    def test_acceptance_campaign_is_deterministic_and_survives(self):
        # The ISSUE's acceptance scenario: >= 200 jobs, crashes + hangs
        # + corruption + compile failures all drawn, 100% sampling,
        # zero lost jobs, zero escapes, byte-identical reports.
        config = ChaosConfig(jobs=200, seed=9)
        first = run_campaign(config)
        second = run_campaign(config)

        assert first.to_dict() == second.to_dict()
        assert first.survived
        assert first.lost == 0
        assert first.corruption_escapes == 0
        assert first.submitted == 200 and first.envelopes == 200
        # Seed 9 draws every fault class (chosen for exactly that).
        assert set(first.injected) == {"crash", "hang", "corrupt", "fail"}
        assert first.compile_failed_batches > 0
        # The guard caught corruptions before the audit did; once a
        # kernel is quarantined its later corrupt jobs run on the
        # reference path, where the marker is inert -- so mismatches
        # can undercount injections without any escape.
        assert first.validation_mismatches > 0
        assert first.validation_checked > 0
        assert len(first.quarantined) > 0
        # Dead letters were parked and replayed, none left behind.
        assert first.dead_letters > 0
        assert first.dead_letter_backlog == 0

    def test_hang_only_campaign_charges_only_the_hung_jobs(self):
        # Nothing but hangs, one worker: every batch queued behind a
        # hung job waits out its timeout window in the ring.  Only the
        # three batches that hold one of the three hung jobs may degrade (1 try + 1
        # retry + inline each) -- the same figures whichever batches
        # happened to be waiting, so the report is run-to-run identical.
        config = ChaosConfig(
            jobs=96, seed=4, hang_rate=0.04, crash_rate=0.0, corrupt_rate=0.0,
            fail_rate=0.0, compile_fail_rate=0.0, validate_fraction=0.0,
        )
        first = run_campaign(config)
        second = run_campaign(config)
        assert first.to_dict() == second.to_dict()
        assert first.survived
        assert first.injected == {"hang": 3}
        assert first.degraded_batches == 3
        assert first.batch_retries == 6

    def test_burst_campaign_sheds_by_backpressure(self):
        config = ChaosConfig(jobs=96, seed=9, burst_every=2)
        first = run_campaign(config)
        second = run_campaign(config)
        assert first.to_dict() == second.to_dict()
        assert first.survived
        assert first.rejected > 0  # the burst overflow was shed, not lost
        assert first.submitted + first.rejected > 96
