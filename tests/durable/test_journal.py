"""The write-ahead journal: framing, crash consistency, compaction.

These tests exercise the journal in isolation -- no engine on top.
Crash models used throughout:

- ``Journal.crash()``: ``kill -9``.  The handle drops without a sync,
  but everything ``append`` returned for is in the page cache and the
  next reader sees it (``buffering=0`` writes go straight to the OS).
- ``Journal.simulate_power_loss()``: crash *plus* truncation to the
  last honestly synced byte -- what a real power cut does to bytes a
  lying disk claimed were durable.
"""

import json
import os
import struct
import zlib

import pytest

from repro.durable.journal import (
    MAGIC,
    DurabilityConfig,
    Journal,
    JournalState,
    JournalWriteError,
    encode_frame,
    load_journal_state,
    scan_segment,
)
from repro.engine.metrics import MetricsRegistry
from repro.faults.disk import DiskFaultPlan


def make_journal(tmp_path, metrics=None, **overrides):
    defaults = dict(dir_path=str(tmp_path / "wal"), fsync="never")
    defaults.update(overrides)
    return Journal(DurabilityConfig(**defaults), metrics=metrics)


class TestConfig:
    def test_rejects_bad_policy_interval_and_segment_size(self):
        with pytest.raises(ValueError):
            DurabilityConfig(dir_path="x", fsync="sometimes")
        with pytest.raises(ValueError):
            DurabilityConfig(dir_path="x", segment_bytes=16)
        with pytest.raises(ValueError):
            DurabilityConfig(dir_path="")


class TestFraming:
    def test_frame_round_trips_through_a_segment_scan(self, tmp_path):
        journal = make_journal(tmp_path)
        journal.append("accept", job_id=1, kernel="bsw", payload={"a": 1})
        journal.append("complete", job_id=1, ok=True)
        journal.close()
        scan = scan_segment(journal.segment_paths()[0])
        assert [r["t"] for r in scan.records] == ["accept", "complete"]
        assert scan.records[0]["payload"] == {"a": 1}
        assert scan.corrupt_frames == 0

    def test_seq_is_monotonic_and_returned(self, tmp_path):
        journal = make_journal(tmp_path)
        seqs = [
            journal.append("accept", job_id=i, kernel="bsw")
            for i in range(5)
        ]
        journal.close()
        assert seqs == [0, 1, 2, 3, 4]

    def test_frame_encoding_is_canonical(self):
        frame = encode_frame({"b": 2, "a": 1})
        header = struct.Struct("<2sII")
        magic, length, crc = header.unpack_from(frame, 0)
        payload = frame[header.size :]
        assert magic == MAGIC
        assert length == len(payload)
        assert crc == zlib.crc32(payload)
        # sort_keys + tight separators: byte-stable frames.
        assert payload == b'{"a":1,"b":2}'

    def test_unknown_record_type_is_rejected(self, tmp_path):
        journal = make_journal(tmp_path)
        with pytest.raises(ValueError):
            journal.append("gossip", job_id=1)
        journal.close()

    def test_closed_journal_refuses_appends(self, tmp_path):
        from repro.durable.journal import JournalError

        journal = make_journal(tmp_path)
        journal.close()
        with pytest.raises(JournalError):
            journal.append("accept", job_id=1)


class TestCrashConsistency:
    def test_kill_9_loses_nothing_append_returned_for(self, tmp_path):
        journal = make_journal(tmp_path)
        for index in range(10):
            journal.append("accept", job_id=index, kernel="bsw")
        journal.crash()  # no sync on the way out
        state, issues = load_journal_state(str(tmp_path / "wal"))
        assert len(state.accepted) == 10
        assert issues["corrupt_frames"] == 0

    def test_torn_tail_is_truncated_at_first_corrupt_frame(self, tmp_path):
        journal = make_journal(tmp_path)
        for index in range(5):
            journal.append("accept", job_id=index, kernel="bsw")
        journal.crash()
        path = sorted((tmp_path / "wal").glob("journal-*.seg"))[0]
        blob = path.read_bytes()
        # Tear the last frame mid-payload.
        path.write_bytes(blob[:-7])
        state, issues = load_journal_state(str(tmp_path / "wal"))
        assert len(state.accepted) == 4
        assert issues["corrupt_frames"] == 1
        assert issues["skipped_bytes"] > 0

    def test_reopen_repairs_the_torn_tail_and_continues(self, tmp_path):
        journal = make_journal(tmp_path)
        for index in range(5):
            journal.append("accept", job_id=index, kernel="bsw")
        journal.crash()
        path = sorted((tmp_path / "wal").glob("journal-*.seg"))[0]
        path.write_bytes(path.read_bytes()[:-7])
        # A fresh journal adopts the tail, truncates the torn frame,
        # and appends land cleanly after the valid prefix.
        journal = make_journal(tmp_path)
        journal.append("accept", job_id=99, kernel="bsw")
        journal.close()
        state, issues = load_journal_state(str(tmp_path / "wal"))
        # Job 4's frame was the torn one: truncated out, so the crash
        # lost it (its caller never got an acceptance either -- torn
        # means the write never completed).  Everything else survives
        # and new appends continue from the repaired tail.
        assert set(state.accepted) == {"0", "1", "2", "3", "99"}
        assert state.max_seq == 4
        assert issues["corrupt_frames"] == 0  # the repair removed it

    def test_bit_flip_in_the_final_segment_costs_one_record(self, tmp_path):
        journal = make_journal(tmp_path)
        for index in range(10):
            journal.append("accept", job_id=index, kernel="bsw")
        journal.close()
        path = journal.segment_paths()[0]
        blob = bytearray(open(path, "rb").read())
        # XOR one payload byte of the third frame.
        offset = 0
        for _ in range(2):
            _magic, length, _crc = struct.unpack_from("<2sII", blob, offset)
            offset += 10 + length
        blob[offset + 10 + 3] ^= 0xFF
        open(path, "wb").write(bytes(blob))

        state, issues = load_journal_state(str(tmp_path / "wal"))
        assert len(state.accepted) == 9
        assert "2" not in state.accepted
        assert issues["corrupt_frames"] == 1
        # Reopening keeps every valid frame behind the flip: nothing is
        # truncated, the skip is counted, appends continue after it.
        metrics = MetricsRegistry()
        journal = make_journal(tmp_path, metrics=metrics)
        assert os.path.getsize(path) == len(blob)
        assert metrics.counter("durable_truncated_bytes") == 0
        assert metrics.counter("durable_corrupt_frames") >= 1
        assert len(journal.load_state()[0].accepted) == 9
        journal.append("accept", job_id=10, kernel="bsw")
        state, issues = journal.load_state()
        journal.close()
        assert len(state.accepted) == 10
        assert state.max_seq == 10
        assert issues["corrupt_frames"] == 1

    def test_reopen_counts_a_torn_tail_as_truncated_bytes(self, tmp_path):
        journal = make_journal(tmp_path)
        for index in range(5):
            journal.append("accept", job_id=index, kernel="bsw")
        journal.crash()
        path = journal.segment_paths()[0]
        whole = os.path.getsize(path)
        last_frame = len(
            encode_frame({"seq": 4, "t": "accept", "job_id": 4, "kernel": "bsw"})
        )
        with open(path, "r+b") as handle:
            handle.truncate(whole - 7)
        metrics = MetricsRegistry()
        make_journal(tmp_path, metrics=metrics).close()
        assert os.path.getsize(path) == whole - last_frame
        assert metrics.counter("durable_truncated_bytes") == last_frame - 7
        assert metrics.counter("durable_corrupt_frames") == 0

    def test_a_flip_then_a_torn_tail_skips_one_and_truncates_the_other(
        self, tmp_path
    ):
        journal = make_journal(tmp_path)
        for index in range(6):
            journal.append("accept", job_id=index, kernel="bsw")
        journal.crash()
        path = journal.segment_paths()[0]
        blob = bytearray(open(path, "rb").read()[:-7])
        blob[12] ^= 0xFF  # first frame's payload
        open(path, "wb").write(bytes(blob))
        metrics = MetricsRegistry()
        journal = make_journal(tmp_path, metrics=metrics)
        state, issues = journal.load_state()
        journal.close()
        assert set(state.accepted) == {"1", "2", "3", "4"}
        assert issues["corrupt_frames"] == 1
        assert metrics.counter("durable_corrupt_frames") == 1
        assert metrics.counter("durable_truncated_bytes") > 0

    def test_non_final_segments_resync_past_a_flipped_bit(self, tmp_path):
        journal = make_journal(tmp_path, segment_bytes=256)
        for index in range(20):
            journal.append("accept", job_id=index, kernel="bsw")
        journal.close()
        segments = sorted((tmp_path / "wal").glob("journal-*.seg"))
        assert len(segments) > 2
        # Corrupt one byte inside the *first* segment's first payload.
        blob = bytearray(segments[0].read_bytes())
        blob[12] ^= 0xFF
        segments[0].write_bytes(bytes(blob))
        state, issues = load_journal_state(str(tmp_path / "wal"))
        # One record lost to the flip; the rest of the segment resyncs.
        assert len(state.accepted) == 19
        assert issues["corrupt_frames"] == 1

    def test_power_loss_respects_fsync_policy(self, tmp_path):
        # fsync=always: nothing is lost even to power loss.
        journal = make_journal(tmp_path, fsync="always")
        for index in range(5):
            journal.append("accept", job_id=index, kernel="bsw")
        journal.simulate_power_loss()
        state, _issues = load_journal_state(str(tmp_path / "wal"))
        assert len(state.accepted) == 5

    def test_power_loss_with_fsync_never_loses_the_unsynced_tail(
        self, tmp_path
    ):
        journal = make_journal(tmp_path, fsync="never")
        for index in range(5):
            journal.append("accept", job_id=index, kernel="bsw")
        journal.simulate_power_loss()
        state, _issues = load_journal_state(str(tmp_path / "wal"))
        # Nothing was ever synced: the whole tail evaporates.
        assert len(state.accepted) == 0

    def test_explicit_sync_bounds_power_loss(self, tmp_path):
        journal = make_journal(tmp_path, fsync="never")
        for index in range(3):
            journal.append("accept", job_id=index, kernel="bsw")
        journal.sync()
        for index in range(3, 6):
            journal.append("accept", job_id=index, kernel="bsw")
        journal.simulate_power_loss()
        state, _issues = load_journal_state(str(tmp_path / "wal"))
        assert set(state.accepted) == {"0", "1", "2"}


class TestSegments:
    def test_appends_roll_to_new_segments_at_the_size_bound(self, tmp_path):
        journal = make_journal(tmp_path, segment_bytes=256)
        for index in range(30):
            journal.append("accept", job_id=index, kernel="bsw")
        journal.close()
        segments = journal.segment_paths()
        assert len(segments) > 1
        assert all(
            os.path.getsize(path) <= 256 + 128 for path in segments
        )
        state, _issues = load_journal_state(str(tmp_path / "wal"))
        assert len(state.accepted) == 30


class TestVerifyHealing:
    def test_bitflips_are_healed_by_readback(self, tmp_path):
        metrics = MetricsRegistry()
        plan = DiskFaultPlan(seed=0, bitflip_rate=0.4)
        journal = make_journal(tmp_path, metrics=metrics, disk_faults=plan)
        for index in range(40):
            journal.append("accept", job_id=index, kernel="bsw")
        journal.close()
        state, issues = load_journal_state(str(tmp_path / "wal"))
        assert len(state.accepted) == 40  # nothing lost
        assert issues["corrupt_frames"] == 0  # nothing bad on disk
        assert metrics.counter("durable_writes_healed") > 0

    def test_torn_writes_are_healed_by_readback(self, tmp_path):
        metrics = MetricsRegistry()
        plan = DiskFaultPlan(seed=1, torn_rate=0.4)
        journal = make_journal(tmp_path, metrics=metrics, disk_faults=plan)
        for index in range(40):
            journal.append("accept", job_id=index, kernel="bsw")
        journal.close()
        state, issues = load_journal_state(str(tmp_path / "wal"))
        assert len(state.accepted) == 40
        assert issues["corrupt_frames"] == 0
        assert metrics.counter("durable_writes_healed") > 0

    def test_exhausted_retries_raise_with_a_clean_tail(self, tmp_path):
        metrics = MetricsRegistry()
        # Every write tears: read-back rejects each attempt and the
        # append gives up without leaving a partial frame behind.
        plan = DiskFaultPlan(torn_rate=1.0)
        journal = make_journal(tmp_path, metrics=metrics, disk_faults=plan)
        with pytest.raises(JournalWriteError):
            journal.append("accept", job_id=0, kernel="bsw")
        assert metrics.counter("durable_writes_healed") > 0
        journal.close()
        state, issues = load_journal_state(str(tmp_path / "wal"))
        assert state.accepted == {}
        assert issues["corrupt_frames"] == 0

    def test_enospc_propagates_and_leaves_the_journal_intact(self, tmp_path):
        plan = DiskFaultPlan(enospc_after_bytes=300)
        journal = make_journal(tmp_path, disk_faults=plan)
        written = 0
        with pytest.raises(OSError):
            for index in range(100):
                journal.append("accept", job_id=index, kernel="bsw")
                written += 1
        journal.close()
        state, issues = load_journal_state(str(tmp_path / "wal"))
        assert len(state.accepted) == written
        assert issues["corrupt_frames"] == 0


class TestCompaction:
    def test_compaction_folds_segments_into_a_snapshot(self, tmp_path):
        journal = make_journal(tmp_path, segment_bytes=512)
        for index in range(20):
            journal.append(
                "accept", job_id=index, kernel="bsw", payload={"n": index}
            )
            journal.append("complete", job_id=index, ok=True)
        stats = journal.compact()
        assert stats["segments_removed"] >= 1
        assert os.path.exists(journal.snapshot_path)
        # The fold sees everything exactly once.
        state, issues = load_journal_state(str(tmp_path / "wal"))
        assert len(state.accepted) == 20
        assert len(state.completed) == 20
        assert state.duplicate_completions == 0
        assert issues["snapshot_loaded"] == 1
        journal.close()

    def test_appends_after_compaction_fold_on_top(self, tmp_path):
        journal = make_journal(tmp_path)
        journal.append("accept", job_id=0, kernel="bsw", payload={})
        journal.compact()
        journal.append("complete", job_id=0, ok=True)
        journal.append("accept", job_id=1, kernel="bsw", payload={})
        journal.close()
        state, _issues = load_journal_state(str(tmp_path / "wal"))
        assert state.terminal("0")
        assert [r["job_id"] for r in state.orphans()] == [1]

    def test_compaction_shed_payloads_for_completed_jobs(self, tmp_path):
        journal = make_journal(tmp_path)
        journal.append(
            "accept", job_id=0, kernel="bsw", payload={"big": "x" * 100}
        )
        journal.append("complete", job_id=0, ok=True)
        journal.append(
            "accept", job_id=1, kernel="bsw", payload={"keep": "me"}
        )
        journal.compact()
        journal.close()
        document = json.loads(
            (tmp_path / "wal" / "snapshot.json").read_text()
        )
        accepted = document["state"]["accepted"]
        assert "payload" not in accepted["0"]  # done: spec not needed
        assert accepted["1"]["payload"] == {"keep": "me"}  # orphan: kept

    def test_corrupt_snapshot_is_skipped_not_fatal(self, tmp_path):
        journal = make_journal(tmp_path)
        journal.append("accept", job_id=0, kernel="bsw")
        journal.compact()
        journal.append("accept", job_id=1, kernel="bsw")
        journal.close()
        (tmp_path / "wal" / "snapshot.json").write_text("{not json")
        state, issues = load_journal_state(str(tmp_path / "wal"))
        assert issues["snapshot_corrupt"] == 1
        # Post-snapshot records still fold.
        assert "1" in state.accepted


class TestStateFold:
    def test_duplicate_completions_are_audited_not_merged(self):
        state = JournalState()
        state.apply({"seq": 0, "t": "accept", "job_id": 1})
        state.apply({"seq": 1, "t": "complete", "job_id": 1, "ok": True})
        state.apply({"seq": 2, "t": "complete", "job_id": 1, "ok": True})
        assert state.duplicate_completions == 1
        assert len(state.completed) == 1

    def test_orphans_come_back_in_accept_order(self):
        state = JournalState()
        for seq, job_id in ((0, 7), (1, 3), (2, 9)):
            state.apply(
                {"seq": seq, "t": "accept", "job_id": job_id, "kernel": "bsw"}
            )
        state.apply({"seq": 3, "t": "complete", "job_id": 3, "ok": True})
        assert [r["job_id"] for r in state.orphans()] == [7, 9]

    def test_round_trips_through_dict(self):
        state = JournalState()
        state.apply({"seq": 0, "t": "accept", "job_id": 1, "kernel": "bsw"})
        state.apply({"seq": 1, "t": "dead_letter", "job_id": 1, "error": "x"})
        clone = JournalState.from_dict(state.to_dict())
        assert clone.terminal("1")
        assert clone.max_seq == state.max_seq

    def test_a_reaccept_reopens_a_terminal_id(self):
        state = JournalState()
        state.apply({"seq": 0, "t": "accept", "job_id": 1, "payload": {"a": 1}})
        state.apply({"seq": 1, "t": "dead_letter", "job_id": 1, "error": "x"})
        state.apply({"seq": 2, "t": "complete", "job_id": 1, "ok": False})
        state.apply({"seq": 3, "t": "accept", "job_id": 1, "payload": {"a": 2}})
        assert not state.terminal("1")
        assert [r["seq"] for r in state.orphans()] == [3]
        state.apply({"seq": 4, "t": "complete", "job_id": 1, "ok": True})
        assert state.duplicate_completions == 0
        assert state.completed["1"]["ok"] and not state.dead
        # A second accept of a still-open id keeps the first record.
        state.apply({"seq": 5, "t": "accept", "job_id": 2})
        state.apply({"seq": 6, "t": "accept", "job_id": 2})
        assert state.accepted["2"]["seq"] == 5


class _Job:
    job_id, kernel, priority = 7, "lcs", 2
    payload = {"x": "AC", "_trace": {"trace_id": "t"}, "_sentinels": True}


class TestRecordWriters:
    def test_each_writer_counts_its_record(self, tmp_path):
        metrics = MetricsRegistry("durable")
        journal = make_journal(tmp_path, metrics=metrics)
        journal.accept(_Job())
        assert journal.attempt(7)
        assert journal.dead_letter(7, "boom", 2)
        assert journal.complete(7, False, "boom")
        journal.close()
        records = scan_segment(journal.segment_paths()[0]).records
        assert records == [
            {"seq": 0, "t": "accept", "job_id": 7, "kernel": "lcs",
             "payload": {"x": "AC"}, "priority": 2},
            {"seq": 1, "t": "attempt", "job_id": 7},
            {"seq": 2, "t": "dead_letter", "job_id": 7, "error": "boom",
             "attempts": 2},
            {"seq": 3, "t": "complete", "job_id": 7, "ok": False,
             "error": "boom"},
        ]
        counters = metrics.snapshot()["counters"]
        for name in ("accepts", "attempts", "dead_letters", "completions"):
            assert counters[f"durable_{name}_logged"] == 1
        assert counters["durable_write_errors"] == 0

    def test_extra_fields_override_and_values_are_kept(self, tmp_path):
        journal = make_journal(tmp_path)
        journal.accept(_Job(), job_id="req-1", tenant="t1")
        journal.complete("req-1", True, value={"ok": True})
        journal.close()
        accept, complete = scan_segment(journal.segment_paths()[0]).records
        assert (accept["job_id"], accept["tenant"]) == ("req-1", "t1")
        assert complete == {"seq": 1, "t": "complete", "job_id": "req-1",
                            "ok": True, "value": {"ok": True}}

    def test_a_failed_accept_raises_and_the_rest_return_false(self, tmp_path):
        metrics = MetricsRegistry("durable")
        plan = DiskFaultPlan(torn_rate=1.0)
        journal = make_journal(tmp_path, metrics=metrics, disk_faults=plan)
        with pytest.raises(JournalWriteError):
            journal.accept(_Job())
        assert journal.attempt(7) is False
        assert journal.complete(7, True) is False
        assert journal.dead_letter(7, "boom", 1) is False
        counters = metrics.snapshot()["counters"]
        assert counters["durable_write_errors"] == 4
        assert counters["durable_accepts_logged"] == 0
        assert counters["durable_completions_logged"] == 0
        journal.close()
