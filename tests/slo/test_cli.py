"""The gendp-slo / gendp-trace --replay front ends.

CI gates on exit codes, so the codes are the contract under test: a
burning replay fails ``gendp-slo check`` and healthy inputs exit zero.
"""

import json

import pytest

from repro.cli import slo_main, trace_main
from repro.slo.flight import FlightRecorder


def _synth(tmp_path, name="replay.jsonl", **flags):
    path = str(tmp_path / name)
    argv = ["synth", "--out", path]
    for flag, value in flags.items():
        argv += [f"--{flag.replace('_', '-')}", str(value)]
    assert slo_main(argv) == 0
    return path


class TestSloCheck:
    def test_burning_replay_exits_nonzero(self, tmp_path, capsys):
        path = _synth(tmp_path, mode="burn")
        assert slo_main(["check", "--replay", path]) == 1
        out = capsys.readouterr().out
        assert "BURN" in out

    def test_healthy_replay_exits_zero(self, tmp_path, capsys):
        path = _synth(tmp_path, mode="healthy")
        assert slo_main(["check", "--replay", path]) == 0
        out = capsys.readouterr().out
        assert "OK" in out

    def test_fail_on_none_reports_without_gating(self, tmp_path):
        path = _synth(tmp_path, mode="burn")
        assert slo_main(["check", "--replay", path, "--fail-on", "none"]) == 0

    def test_json_output_is_machine_readable(self, tmp_path, capsys):
        path = _synth(tmp_path, mode="burn")
        capsys.readouterr()  # drop synth's own status line
        slo_main(["check", "--replay", path, "--json"])
        status = json.loads(capsys.readouterr().out)
        assert status["burning"] is True
        names = {doc["name"] for doc in status["objectives"]}
        assert "job-latency" in names

    def test_requires_exactly_one_source(self, tmp_path):
        path = _synth(tmp_path)
        with pytest.raises(SystemExit):
            slo_main(["check"])
        with pytest.raises(SystemExit):
            slo_main(
                ["check", "--replay", path, "--metrics", "metrics.json"]
            )

    def test_metrics_snapshot_source(self, tmp_path, capsys):
        # A finished run's cumulative snapshot: 50 failures out of 50
        # burns the availability objective.
        snapshot = {
            "counters": {"jobs_completed": 0, "jobs_failed": 50},
            "histograms": {},
        }
        path = tmp_path / "metrics.json"
        path.write_text(json.dumps(snapshot))
        assert slo_main(["check", "--metrics", str(path)]) == 1
        assert "job-availability" in capsys.readouterr().out


class TestSloReportAndSynth:
    def test_report_renders_all_objectives(self, tmp_path, capsys):
        path = _synth(tmp_path, mode="healthy")
        assert slo_main(["report", "--replay", path]) == 0
        out = capsys.readouterr().out
        assert "job-latency" in out
        assert "job-availability" in out

    def test_synth_is_deterministic_across_invocations(self, tmp_path):
        first = _synth(tmp_path, name="a.jsonl")
        second = _synth(tmp_path, name="b.jsonl")
        with open(first) as fa, open(second) as fb:
            assert fa.read() == fb.read()

    def test_watch_counts_polls_and_reports_burn(self, tmp_path, capsys):
        snapshot = {
            "counters": {"jobs_completed": 0, "jobs_failed": 50},
            "histograms": {},
        }
        path = tmp_path / "metrics.json"
        path.write_text(json.dumps(snapshot))
        code = slo_main(
            ["watch", str(path), "--count", "3", "--interval", "0"]
        )
        # Same snapshot every poll: cumulative deltas are zero after
        # the first, so nothing ever burns.
        assert code == 0
        assert "job-availability" in capsys.readouterr().out


class TestTraceReplay:
    def test_replay_converts_a_blackbox_to_a_valid_trace(
        self, tmp_path, capsys
    ):
        recorder = FlightRecorder(dir_path=str(tmp_path))
        recorder.note("milestone", label="start")
        recorder.record_span("batch", "engine", 1.0, 2.0, {"kernel": "bsw"})
        box = recorder.trip("dlq-push", kernel="bsw")
        out = str(tmp_path / "trace.json")
        assert trace_main(["--replay", box, "--out", out]) == 0
        from repro.obs.trace import validate_chrome_trace

        document = json.loads(open(out).read())
        assert validate_chrome_trace(document) == []
        assert document["otherData"]["blackbox_reason"] == "dlq-push"
        assert "dlq-push" in capsys.readouterr().out

    def test_replay_rejects_non_blackbox_input(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{}")
        with pytest.raises(SystemExit):
            trace_main(
                ["--replay", str(path), "--out", str(tmp_path / "o.json")]
            )
