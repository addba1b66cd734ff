"""Dead-letter queue: bounded parking, overflow accounting, replay hand-off."""

import pytest

from repro.engine import DeadLetter, DeadLetterQueue, make_job
from repro.engine.metrics import MetricsRegistry


def _job():
    return make_job("lcs", {"x": "ACGT", "y": "AC"})


class TestParking:
    def test_fifo_and_copies(self):
        dlq = DeadLetterQueue(capacity=4)
        first, second = _job(), _job()
        assert dlq.push(first, "boom")
        assert dlq.push(second, "bust", attempts=3)
        letters = dlq.letters()
        assert [l.job.job_id for l in letters] == [first.job_id, second.job_id]
        assert letters[1].attempts == 3
        letters.clear()  # mutating the copy must not touch the queue
        assert len(dlq) == 2

    def test_overflow_drops_newest(self):
        dlq = DeadLetterQueue(capacity=1)
        assert dlq.push(_job(), "first")
        assert not dlq.push(_job(), "second")
        assert len(dlq) == 1
        assert dlq.letters()[0].error == "first"

    def test_zero_capacity_parks_nothing(self):
        dlq = DeadLetterQueue(capacity=0)
        assert not dlq.push(_job(), "boom")
        assert len(dlq) == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            DeadLetterQueue(capacity=-1)


class TestOverflowPolicies:
    def test_drop_newest_counts_each_refusal(self):
        metrics = MetricsRegistry()
        dlq = DeadLetterQueue(capacity=1, metrics=metrics)
        dlq.push(_job(), "kept")
        dlq.push(_job(), "refused")
        dlq.push(_job(), "refused")
        counters = metrics.snapshot()["counters"]
        assert counters["dead_letters_dropped"] == 2

    def test_zero_capacity_counts_every_letter(self):
        metrics = MetricsRegistry()
        dlq = DeadLetterQueue(capacity=0, metrics=metrics)
        dlq.push(_job(), "boom")
        dlq.push(_job(), "boom")
        assert metrics.snapshot()["counters"]["dead_letters_dropped"] == 2

    def test_no_metrics_registry_is_fine(self):
        dlq = DeadLetterQueue(capacity=0)
        assert not dlq.push(_job(), "boom")  # no AttributeError


class TestReplayHandoff:
    def test_drain_empties_the_queue(self):
        dlq = DeadLetterQueue()
        dlq.push(_job(), "boom")
        letters = dlq.drain()
        assert len(letters) == 1
        assert len(dlq) == 0
        assert dlq.drain() == []

    def test_extend_puts_letters_back(self):
        dlq = DeadLetterQueue()
        dlq.push(_job(), "boom")
        leftovers = dlq.drain()[0:]
        dlq.extend(leftovers)
        assert len(dlq) == 1
        assert isinstance(dlq.letters()[0], DeadLetter)

    def test_replay_resubmits_in_order_and_counts(self):
        metrics = MetricsRegistry()
        dlq = DeadLetterQueue(metrics=metrics)
        jobs = [_job(), _job()]
        for job in jobs:
            dlq.push(job, "boom")
        assert dlq.replay(lambda job: job) == jobs
        assert len(dlq) == 0
        assert metrics.snapshot()["counters"]["dead_letters_replayed"] == 2

    def test_a_refused_resubmit_reparks_it_and_the_rest(self):
        dlq = DeadLetterQueue()
        jobs = [_job(), _job(), _job()]
        for job in jobs:
            dlq.push(job, "boom")

        def submit(job):
            if job is jobs[1]:
                raise RuntimeError("queue full")
            return job

        assert dlq.replay(submit) == jobs[:1]
        assert [letter.job for letter in dlq.letters()] == jobs[1:]

    def test_clear(self):
        dlq = DeadLetterQueue()
        dlq.push(_job(), "boom")
        dlq.clear()
        assert len(dlq) == 0
