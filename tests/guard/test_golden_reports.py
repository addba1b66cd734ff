"""The lint, analyze and guard reports and the guard's seed-7 payloads
are identical to the golden file.

``golden_reports.json`` was generated before the fuzzed kernels became
one table (see :mod:`tests.guard.golden_reports`); a difference here is
a change in what a report says, not a flaky test.
"""

import json

import pytest

from tests.guard.golden_reports import CASES, GOLDEN_PATH, digest

GOLDEN = json.loads(GOLDEN_PATH.read_text())

#: sha1 of each stdout as first pinned: the file itself cannot drift.
DIGESTS = {
    "lint": "b22ebec54c6f529e586a1ac54e323de8144d295d",
    "analyze": "7bc2f375eb36e20e750975bdd26d8ddae4fa5f36",
    "guard": "ec48e42c89bbec763a1fdfc74eb313dc2aaea18c",
    "guard_payloads": "2aa8690ce5668cb8e185d3bf24898837f6294884",
}


def test_same_cases():
    assert sorted(GOLDEN) == sorted(CASES) == sorted(DIGESTS)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_file_holds_the_pinned_digest(name):
    assert digest(GOLDEN[name]) == DIGESTS[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_identical(name):
    assert CASES[name]() == GOLDEN[name]
