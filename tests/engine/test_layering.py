"""An engine compile loads neither the fuzzer nor the chaos drivers.

The serving path compiles, verifies and certifies a program; none of
that needs the differential-fuzz harness (:mod:`repro.guard.diff`) or
the fault-injection campaigns (:mod:`repro.faults`).  Each case runs in
a fresh interpreter so what other tests imported cannot hide a leak.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.kernels.chain import DEFAULT_AVG_SEED_WEIGHT

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"

PROBE = """
import json, sys
from repro.engine import Engine, EngineConfig, Job

kernel, payload, optimize = sys.argv[1], json.loads(sys.argv[2]), sys.argv[3] == "1"
with Engine(EngineConfig(workers=0, optimize_programs=optimize)) as engine:
    engine.submit(Job(job_id=0, kernel=kernel, payload=payload))
    (result,) = engine.drain()
assert result.ok, result.error
print(json.dumps(sorted(
    name for name in sys.modules
    if name == "repro.guard.diff" or name.startswith("repro.faults")
)))
"""

W = DEFAULT_AVG_SEED_WEIGHT

CASES = {
    "bsw": ({"query": "ACGTAC", "target": "ACGAAC"}, False),
    "chain": ({"anchors": [[1, 1, W], [9, 8, W], [20, 22, W]], "n": 25}, True),
}


@pytest.mark.parametrize("kernel", sorted(CASES))
def test_engine_compile_stays_off_the_fuzzer(kernel):
    payload, optimize = CASES[kernel]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, kernel, json.dumps(payload), str(int(optimize))],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == []
