"""The checker checks itself: a wrong output must fail the run."""

import json

import pytest

from bench.compare import verdict
from bench.tests.test_smoke import run_bench


@pytest.mark.parametrize(
    "workload, inject",
    [
        # One job carries the documented ``_inject_corrupt`` payload
        # key: the engine bit-flips its result behind an ok envelope.
        ("engine_inline_large", "corrupt-job"),
        # One simulated tile is compared with a deliberately wrong
        # expected score.
        ("dpax_tiles", "wrong-expected"),
    ],
)
def test_a_wrong_output_fails_the_run(workload, inject):
    finished = run_bench(
        "--workload", workload, "--seconds", "0.3", "--smoke", "--inject", inject
    )
    assert finished.returncode != 0
    line = json.loads(finished.stdout.strip().splitlines()[-1])
    assert line["correct"] is False
    assert line["failed"] > 0 and line["failed"] / line["attempted"] > 0


def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5]
    assert verdict(steady, [103.0, 104.0, 102.0, 103.5], 0.10, "lower")[0] == "ok"
    assert verdict(steady, [120.0, 121.0, 119.0, 120.5], 0.10, "lower")[0] == "regressed"
    assert verdict(steady, [80.0, 81.0, 79.0, 80.5], 0.10, "higher")[0] == "regressed"
    noisy = [100.0, 140.0, 70.0, 120.0]
    assert verdict(noisy, [110.0, 150.0, 75.0, 125.0], 0.10, "lower")[0] == "unresolved"
    # Wide spread, but every run of B beats every run of A.
    assert verdict(noisy, [50.0, 60.0, 40.0, 55.0], 0.10, "lower")[0] == "ok"
    # Exact counts: any worsening regresses, however small.
    assert verdict([22.0, 22.0], [22.0, 22.0], 0.0, "lower")[0] == "ok"
    assert verdict([22.0, 22.0], [21.0, 21.0], 0.0, "lower")[0] == "ok"
    assert verdict([22.0, 22.0], [23.0, 23.0], 0.0, "lower")[0] == "regressed"
