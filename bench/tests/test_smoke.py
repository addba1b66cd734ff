"""The benchmark's plumbing at 1/20 scale: schema, names, hygiene.

Run with ``python3 -m pytest bench/tests`` from the repo root (these
are not part of the tier-1 ``tests/`` tree).
"""

import ctypes
import json
import os
import re
import subprocess
import sys

import pytest

from bench import spec

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run_bench(*arguments):
    return subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), *arguments],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )


def command_lines():
    """The command line of every live process."""
    lines = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/cmdline", "rb") as handle:
                    lines.append(handle.read().replace(b"\0", b" ").decode("utf-8", "replace"))
            except OSError:
                pass
    return lines


def test_benchmark_json_is_the_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        assert json.load(handle) == spec.benchmark_json()


def test_names_units_and_limits():
    document = spec.benchmark_json()
    names = [w["name"] for w in document["workloads"]]
    names += [m["name"] for m in document["end_to_end"] + document["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(
        UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
        for metric in document["end_to_end"] + document["per_layer"]
    )
    assert 2 <= len(document["workloads"]) <= 8
    assert 1 <= len(document["end_to_end"]) <= 16
    assert 1 <= len(document["per_layer"]) <= 128
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in document["workloads"])
    assert all(0 <= m["bound"] <= 0.25 for m in document["end_to_end"])
    setup = [m for m in document["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("bench") / "smoke-results.json")
    segments_before = set(os.listdir("/dev/shm"))
    finished = run_bench("--smoke", "--traced", "--out", out)
    assert finished.returncode == 0, finished.stdout + finished.stderr
    with open(out, encoding="utf-8") as handle:
        return json.load(handle), out, segments_before


def test_smoke_reports_exactly_the_declared_metrics(smoke):
    document, _, _ = smoke
    (run,) = document["runs"]
    assert list(run) == list(spec.WORKLOADS)
    for name, result in run.items():
        assert list(result["end_to_end"]) == spec.end_to_end_names(), name
        assert list(result["per_layer"]) == spec.per_layer_names(), name
        values = list(result["end_to_end"].values()) + list(result["per_layer"].values())
        assert all(isinstance(value, (int, float)) for value in values), name
        assert all(value > 0 for value in result["end_to_end"].values()), name
        # Exact counts that move between passes count as failures.
        assert result["failed"] == 0, name
        assert result["passes"] >= 3 and result["attempted"] >= 1, name


def test_smoke_records_the_host(smoke):
    document, _, _ = smoke
    host = document["environment"]
    assert {"nproc", "loadavg_start", "python", "commit", "calibration"} <= set(host)
    assert host["calibration"]["quartile_spread_share"] >= 0


def test_smoke_leaves_nothing_behind(smoke):
    _, out, segments_before = smoke
    assert set(os.listdir("/dev/shm")) <= segments_before
    # Forked shm workers share the benchmark's command line (which
    # names the result file); the server's names its run directory.
    marker = os.path.join("bench", "out", "run-")
    assert not [line for line in command_lines() if out in line or marker in line]
    assert not [
        entry for entry in os.listdir(os.path.join(ROOT, "bench", "out"))
        if entry.startswith("run-")
    ]


def children_of_this_process():
    found = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as handle:
                    stat = handle.read()
            except OSError:
                continue
            if int(stat[stat.rfind(")") + 2 :].split()[1]) == os.getpid():
                found.append(stat)
    return found


@pytest.mark.parametrize("workload", ["cluster_durable", "serve_small_mixed"])
def test_no_process_outlives_a_run(workload):
    # As a subreaper this process inherits whatever the run orphans
    # (multiprocessing's resource tracker used to outlive its parent),
    # so the instant the run returns it can see what is left.
    ctypes.CDLL(None).prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    finished = run_bench(
        "--workload", workload, "--seed", "7", "--seconds", "0.5",
        "--trace", "0", "--smoke",
    )
    assert finished.returncode == 0, finished.stderr
    assert children_of_this_process() == []


@pytest.mark.parametrize("trace", ["0", "1"])
def test_contract_line(trace):
    finished = run_bench(
        "--workload", "dpax_tiles", "--seed", "7", "--seconds", "0.5",
        "--trace", trace, "--smoke",
    )
    assert finished.returncode == 0, finished.stderr
    line = json.loads(finished.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    expected = spec.per_layer_names() if trace == "1" else spec.end_to_end_names()
    assert list(line["metrics"]) == expected
    assert all(
        set(metric) == {"value", "unit"} and metric["unit"] == spec.unit_of(name)
        for name, metric in line["metrics"].items()
    )
