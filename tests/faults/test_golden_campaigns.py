"""Every seeded campaign report is identical to the golden file.

``golden_campaigns.json`` was generated before the engine, recovery and
cluster campaigns were folded onto one driver (see
:mod:`tests.faults.golden_campaigns`); a difference here is a change in
campaign behaviour, not a flaky test.
"""

import json

import pytest

from tests.faults.golden_campaigns import CASES, GOLDEN_PATH, generate

GOLDEN = json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def regenerated():
    return generate()


def test_same_cases(regenerated):
    assert sorted(regenerated) == sorted(GOLDEN) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_report_identical(regenerated, name):
    assert regenerated[name] == GOLDEN[name]


def test_heavy_disk_faults_survive_under_read_back():
    # R4: 10 % torn writes and 10 % bit flips.  Read-back heals every
    # bad write before it returns (the unverified mode that lost 3
    # accepted jobs on this seed is gone), so nothing bad reaches disk.
    assert GOLDEN["R4"]["survived"] is True
    assert GOLDEN["R4"]["lost"] == 0
    assert GOLDEN["R4"]["corrupt_frames"] == 0
    assert GOLDEN["R4"]["writes_healed"] > 0
