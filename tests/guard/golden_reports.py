"""Generator for ``golden_reports.json``: the kernel-table reports.

``gendp-lint``, ``gendp-analyze --format json`` and ``gendp-guard
--json`` (seed 7) each walk every differential-fuzz kernel's compiled
programs.  A clean guard report shows a case's payload only through
its sentinel counts, which are zero for most kernels, so the seed-7
payloads the campaign fuzzes are pinned too: every generator's random
draw order.  The file was written at the last commit where the guard,
the linter and the analyzer reached those kernels through per-kernel
ladders; the one kernel table in :mod:`repro.guard.diff` must
reproduce all four byte for byte.  Regenerate (only when a report
deliberately changes) with::

    PYTHONPATH=src python -m tests.guard.golden_reports
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import pathlib
from typing import Callable, Dict, List, Optional

from repro.cli import analyze_main, guard_main, lint_main
from repro.guard.campaign import GuardConfig
from repro.guard.diff import DIFF_KERNELS, generate_payload

GOLDEN_PATH = pathlib.Path(__file__).with_name("golden_reports.json")


def _stdout(main: Callable[[Optional[List[str]]], int], *argv: str) -> str:
    """*main*'s stdout; a nonzero exit is an error, not a report."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        status = main(list(argv))
    if status != 0:
        raise RuntimeError(f"{main.__name__} exited {status}")
    return buffer.getvalue()


def _payloads() -> str:
    config = GuardConfig()
    cases = {
        kernel: [
            generate_payload(kernel, config.seed, index)
            for index in range(config.jobs_per_kernel)
        ]
        for kernel in DIFF_KERNELS
    }
    return json.dumps(cases, sort_keys=True) + "\n"


CASES: Dict[str, Callable[[], str]] = {
    "lint": lambda: _stdout(lint_main),
    "analyze": lambda: _stdout(analyze_main, "--format", "json"),
    "guard": lambda: _stdout(guard_main, "--json"),
    "guard_payloads": _payloads,
}


def digest(text: str) -> str:
    return hashlib.sha1(text.encode()).hexdigest()


def generate() -> Dict[str, str]:
    return {name: run() for name, run in CASES.items()}


if __name__ == "__main__":
    golden = generate()
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    for name, text in golden.items():
        print(name, digest(text))
