"""Shared fixtures for the test suite."""

import random

import pytest

from repro.seq.alphabet import random_sequence


@pytest.fixture
def rng():
    """A deterministically seeded RNG per test."""
    return random.Random(0xC0FFEE)


@pytest.fixture
def dna_pair(rng):
    """A (query, target) pair of related DNA sequences."""
    from repro.seq.mutate import MutationProfile, Mutator

    template = random_sequence(40, rng)
    mutator = Mutator(MutationProfile.illumina(), rng)
    return mutator.mutate(template), template


@pytest.fixture
def every_batch_on_the_ring(monkeypatch):
    """Send every shm batch to the workers, small ones too: for tests
    of the ring itself, whose jobs sit under ``INLINE_MAX_BIN``
    (``tests/serve/test_inline_small.py`` tests the routing)."""
    from repro.serve import transport

    monkeypatch.setattr(transport, "INLINE_MAX_BIN", -1)
