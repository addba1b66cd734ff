"""Batch packing: interconnect modes, size bins, capacity, priority."""

from repro.datapath import INTEGER_ARRAYS
from repro.engine.batcher import (
    MODE_ARRAYS,
    MODE_CHAIN,
    Batcher,
    mode_for,
    size_bin,
)
from repro.engine.jobs import make_job


def _bsw_job(length=8, priority=0):
    return make_job(
        "bsw",
        {"query": "ACGT" * (length // 4), "target": "ACGT" * (length // 4)},
        priority=priority,
    )


def _chain_job(count=8):
    anchors = [[10 * (i + 1), 10 * (i + 1), 19] for i in range(count)]
    return make_job("chain", {"anchors": anchors})


class TestModes:
    def test_2d_kernels_use_independent_arrays(self):
        for kernel in ("bsw", "pairhmm", "lcs", "dtw"):
            assert mode_for(kernel) == MODE_ARRAYS

    def test_1d_kernels_use_concatenated_chain(self):
        assert mode_for("chain") == MODE_CHAIN

    def test_modes_assigned_on_batches(self):
        batches = Batcher().pack([_bsw_job(), _chain_job()])
        modes = {batch.kernel: batch.mode for batch in batches}
        assert modes == {"bsw": MODE_ARRAYS, "chain": MODE_CHAIN}


class TestPacking:
    def test_default_capacity_is_the_tile(self):
        assert Batcher().capacity == INTEGER_ARRAYS

    def test_same_kernel_same_bin_share_a_batch(self):
        batches = Batcher().pack([_bsw_job(), _bsw_job()])
        assert len(batches) == 1
        assert len(batches[0].jobs) == 2
        assert batches[0].occupancy == 2 / INTEGER_ARRAYS

    def test_capacity_splits_batches(self):
        jobs = [_bsw_job() for _ in range(5)]
        batches = Batcher(capacity=2).pack(jobs)
        assert [len(batch.jobs) for batch in batches] == [2, 2, 1]
        assert all(batch.kernel == "bsw" for batch in batches)

    def test_size_bins_separate_small_from_large(self):
        small = _bsw_job(length=4)  # 16 cells
        large = _bsw_job(length=32)  # 1024 cells
        batches = Batcher().pack([small, large])
        assert len(batches) == 2
        assert {batch.size_bin for batch in batches} == {
            size_bin(16),
            size_bin(1024),
        }

    def test_kernels_never_mix(self):
        batches = Batcher().pack([_bsw_job(), _chain_job(), _bsw_job()])
        for batch in batches:
            assert len({job.kernel for job in batch.jobs}) == 1


class TestPriority:
    def test_high_priority_jobs_fill_the_first_batch(self):
        low = [_bsw_job(priority=0) for _ in range(2)]
        high = [_bsw_job(priority=5) for _ in range(2)]
        batches = Batcher(capacity=2).pack(low + high)
        assert [job.job_id for job in batches[0].jobs] == [
            job.job_id for job in high
        ]
        assert [job.job_id for job in batches[1].jobs] == [
            job.job_id for job in low
        ]

    def test_ties_preserve_submission_order(self):
        jobs = [_bsw_job() for _ in range(3)]
        packed = Batcher().pack(jobs)[0].jobs
        assert [job.job_id for job in packed] == [job.job_id for job in jobs]


class TestSizeBin:
    def test_power_of_two_buckets(self):
        assert size_bin(0) == 0
        assert size_bin(1) == 0
        assert size_bin(2) == 1
        assert size_bin(16) == 4
        assert size_bin(17) == 5
