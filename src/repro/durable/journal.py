"""The write-ahead job journal: CRC32-framed records in segments.

One :class:`Journal` owns a directory of fixed-size append-only
segment files plus an optional ``snapshot.json``.  Every record is one
frame::

    MAGIC (2B) | payload length (4B LE) | CRC32 (4B LE) | JSON payload

Records carry a monotonically increasing ``seq`` and a type ``t`` from
:data:`RECORD_TYPES` -- ``accept`` before a job enters the queue (an
un-journaled job is *not* accepted), ``attempt`` at dispatch,
``complete`` when the envelope is folded, and ``dead_letter`` when a
failed job is parked for replay.  Each type has one writer method
(:meth:`Journal.accept`, :meth:`~Journal.attempt`,
:meth:`~Journal.complete`, :meth:`~Journal.dead_letter`), the only code
that knows the record schema: the engine, the cluster router and
``gendp-serve`` all write through them.

Crash consistency rests on three rules:

1. **Append-only frames.**  A crash mid-write leaves a torn frame at
   the tail of the last segment and nothing else.  The reader
   *resyncs* past a corrupt frame (a silent media fault) to the next
   valid one in every segment, so one flipped bit costs one record;
   only bytes that no valid frame follows are a torn tail, and
   re-opening the journal truncates exactly those.
2. **Read-back on every write.**  Each frame is read back and compared
   after the write; a torn or bit-flipped frame inside a *surviving*
   process is truncated back out and rewritten, and only an exhausted
   retry budget raises -- with the tail still parseable for every
   later append.
3. **Atomic snapshots.**  Compaction folds all records into one state
   snapshot written with the tmp + ``os.replace`` idiom (the same
   pattern :mod:`repro.guard.campaign` uses for checkpoints), then
   deletes the folded segments; a torn snapshot write leaves the old
   snapshot (or none) plus the still-intact segments.

Fsync policy is configurable: ``always`` syncs every append (accepts
are crash-proof the moment ``submit`` returns), ``interval`` syncs at
most every :data:`FSYNC_INTERVAL_S` seconds (the production default:
process crashes lose nothing because the page cache survives, only
power loss can cost the last interval), ``never`` leaves syncing to
the OS.  Segment rolls always sync, so completed segments are stable.

Disk faults (:class:`repro.faults.disk.DiskFaultPlan`) plug into the
write path for chaos testing; read-back catches torn writes and silent
bit flips and *heals* them at write time (truncate + rewrite) instead
of letting them surface as lost records at recovery.
"""

from __future__ import annotations

import json
import os
import struct
import time
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

#: Frame magic: two bytes that never appear at a frame boundary by
#: accident often enough to matter once the CRC also has to match.
MAGIC = b"\xd7\x1e"

#: Frame header: magic (2s) + payload length (I) + CRC32 (I), LE.
_HEADER = struct.Struct("<2sII")

#: Largest payload a frame may carry; anything bigger at read time is
#: treated as corruption (a flipped length byte must not allocate GiB).
MAX_PAYLOAD_BYTES = 16 * 1024 * 1024

#: Record types the journal knows how to fold.
RECORD_TYPES = ("accept", "attempt", "complete", "dead_letter")

#: Payload keys a process stamps on a job for itself (trace
#: correlation ids, sentinel arming); an ``accept`` record never
#: carries them, so a replay in a later process starts clean.
EPHEMERAL_PAYLOAD_KEYS = ("_trace", "_sentinels")

#: Valid fsync policies.
FSYNC_POLICIES = ("always", "interval", "never")

#: Minimum seconds between syncs under the ``interval`` policy.
FSYNC_INTERVAL_S = 0.05

SEGMENT_PREFIX = "journal-"
SEGMENT_SUFFIX = ".seg"
SNAPSHOT_NAME = "snapshot.json"
SNAPSHOT_VERSION = 1


class JournalError(RuntimeError):
    """The journal is unusable (closed, missing, malformed config)."""


class JournalWriteError(JournalError):
    """An append could not be made durable (and was truncated out)."""


@dataclass(frozen=True)
class DurabilityConfig:
    """Knobs for a :class:`Journal` (``EngineConfig.durability``)."""

    #: Directory holding segments + snapshot (created on demand).
    dir_path: str
    #: ``always`` / ``interval`` / ``never``.
    fsync: str = "interval"
    #: Roll to a new segment once the active one reaches this size.
    segment_bytes: int = 1 << 20
    #: Optional :class:`repro.faults.disk.DiskFaultPlan` for chaos.
    disk_faults: Optional[object] = None

    def __post_init__(self) -> None:
        if not self.dir_path:
            raise ValueError("dir_path must be a directory path")
        if self.fsync not in FSYNC_POLICIES:
            raise ValueError(
                f"fsync must be one of {FSYNC_POLICIES}, got {self.fsync!r}"
            )
        if self.segment_bytes < 256:
            raise ValueError("segment_bytes must be at least 256")


# ----------------------------------------------------------------------
# frame codec


def encode_frame(record: Dict[str, Any]) -> bytes:
    """Serialize *record* as one CRC32-framed journal frame."""
    payload = json.dumps(
        record, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    return _HEADER.pack(MAGIC, len(payload), zlib.crc32(payload)) + payload


def _decode_at(blob: bytes, offset: int) -> Tuple[Optional[Dict], int]:
    """Try to decode one frame at *offset*; ``(record, end_offset)``.

    Returns ``(None, offset)`` when the bytes at *offset* are not a
    complete, CRC-valid frame.
    """
    end = offset + _HEADER.size
    if end > len(blob):
        return None, offset
    magic, length, crc = _HEADER.unpack_from(blob, offset)
    if magic != MAGIC or length > MAX_PAYLOAD_BYTES:
        return None, offset
    if end + length > len(blob):
        return None, offset
    payload = blob[end : end + length]
    if zlib.crc32(payload) != crc:
        return None, offset
    try:
        record = json.loads(payload.decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        return None, offset
    if not isinstance(record, dict):
        return None, offset
    return record, end + length


@dataclass
class SegmentScan:
    """What one segment file held."""

    path: str
    records: List[Dict[str, Any]] = field(default_factory=list)
    #: Corrupt runs encountered (1 per good->bad transition).
    corrupt_frames: int = 0
    #: Bytes discarded (resync skips and the tail).
    skipped_bytes: int = 0
    #: End of the last valid frame: where a repair truncates the file.
    valid_bytes: int = 0
    #: Bytes after the last valid frame -- a torn write when this is
    #: the final segment (part of ``skipped_bytes`` and, when non-zero,
    #: one of ``corrupt_frames``).
    tail_bytes: int = 0


def scan_segment(path: str) -> SegmentScan:
    """Read every recoverable frame out of one segment.

    A corrupt frame is skipped by resyncing on the next ``MAGIC``, so
    one flipped bit costs one record, not the rest of the file; what
    follows the last valid frame is reported as ``tail_bytes``.
    """
    with open(path, "rb") as handle:
        blob = handle.read()
    scan = SegmentScan(path=path)
    offset = 0
    in_bad_run = False
    while offset < len(blob):
        record, end = _decode_at(blob, offset)
        if record is not None:
            scan.records.append(record)
            offset = end
            scan.valid_bytes = end
            in_bad_run = False
            continue
        if not in_bad_run:
            scan.corrupt_frames += 1
            in_bad_run = True
        resync = blob.find(MAGIC, offset + 1)
        if resync < 0:
            scan.skipped_bytes += len(blob) - offset
            break
        scan.skipped_bytes += resync - offset
        offset = resync
    scan.tail_bytes = len(blob) - scan.valid_bytes
    return scan


# ----------------------------------------------------------------------
# folded state


class JournalState:
    """The journal folded down to per-job outcomes.

    Keys are stringified job ids (ints for the engine and cluster
    tiers, request dedupe keys for the serve tier).  Folding is
    idempotent and order-tolerant: duplicate ``accept``/``dead_letter``
    records collapse, and a second ``complete`` for an id is counted
    in :attr:`duplicate_completions` -- the audit counter that must
    stay zero when recovery's dedupe works.  An ``accept`` for an id
    that already has a terminal record is a re-admission (a replayed
    dead letter): it reopens the id, so the replay's own terminal
    record is the id's first.
    """

    def __init__(self) -> None:
        self.accepted: Dict[str, Dict[str, Any]] = {}
        self.completed: Dict[str, Dict[str, Any]] = {}
        self.dead: Dict[str, Dict[str, Any]] = {}
        self.attempts: Dict[str, int] = {}
        self.duplicate_completions = 0
        self.replayed_records = 0
        self.max_seq = -1

    def apply(self, record: Dict[str, Any]) -> None:
        rtype = record.get("t")
        key = str(record.get("job_id"))
        seq = record.get("seq")
        if isinstance(seq, int):
            self.max_seq = max(self.max_seq, seq)
        self.replayed_records += 1
        if rtype == "accept":
            if self.terminal(key):
                # The new record replaces the old one, whose payload
                # compaction may have shed.
                self.completed.pop(key, None)
                self.dead.pop(key, None)
                self.accepted[key] = record
            else:
                self.accepted.setdefault(key, record)
        elif rtype == "attempt":
            self.attempts[key] = self.attempts.get(key, 0) + 1
        elif rtype == "complete":
            if key in self.completed:
                self.duplicate_completions += 1
            else:
                self.completed[key] = record
        elif rtype == "dead_letter":
            self.dead.setdefault(key, record)

    def orphans(self) -> List[Dict[str, Any]]:
        """Accepted jobs with no terminal record, in accept order."""
        pending = [
            record
            for key, record in self.accepted.items()
            if key not in self.completed and key not in self.dead
        ]
        return sorted(pending, key=lambda record: record.get("seq", 0))

    def terminal(self, key: str) -> bool:
        key = str(key)
        return key in self.completed or key in self.dead

    # -- snapshot codec ------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Snapshot-ready form; completed jobs shed their payloads."""
        accepted: Dict[str, Dict[str, Any]] = {}
        for key, record in self.accepted.items():
            if key in self.completed and key not in self.dead:
                slim = {
                    k: v for k, v in record.items() if k != "payload"
                }
                accepted[key] = slim
            else:
                accepted[key] = record
        return {
            "accepted": accepted,
            "completed": self.completed,
            "dead": self.dead,
            "attempts": self.attempts,
            "duplicate_completions": self.duplicate_completions,
            "max_seq": self.max_seq,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "JournalState":
        state = cls()
        state.accepted = dict(data.get("accepted", {}))
        state.completed = dict(data.get("completed", {}))
        state.dead = dict(data.get("dead", {}))
        state.attempts = {
            key: int(value)
            for key, value in dict(data.get("attempts", {})).items()
        }
        state.duplicate_completions = int(
            data.get("duplicate_completions", 0)
        )
        state.max_seq = int(data.get("max_seq", -1))
        return state


# ----------------------------------------------------------------------
# the journal


class Journal:
    """Append-only segmented WAL with snapshot compaction.

    Pass the owner's :class:`repro.engine.metrics.MetricsRegistry` as
    *metrics* and the journal keeps the ``durable_*`` write-path
    counters itself (records appended, syncs, healed writes,
    compactions); the replay-path counters are the recovery module's
    job (:func:`repro.durable.recovery.recover_engine`).
    """

    def __init__(
        self,
        config: DurabilityConfig,
        metrics: Optional[object] = None,
    ):
        self.config = config
        self.metrics = metrics
        self._closed = False
        self._fh: Optional[Any] = None
        self._segment_path: Optional[str] = None
        self._segment_index = 0
        self._pos = 0
        self._synced_bytes = 0
        self._bytes_written = 0
        self._write_index = 0
        self._sync_index = 0
        self._last_sync = time.monotonic()
        self._next_seq = 0
        os.makedirs(config.dir_path, exist_ok=True)
        self._open_for_append()

    # -- layout --------------------------------------------------------

    @property
    def dir_path(self) -> str:
        return self.config.dir_path

    def segment_paths(self) -> List[str]:
        """Existing segment files, oldest first."""
        try:
            names = sorted(
                name
                for name in os.listdir(self.config.dir_path)
                if name.startswith(SEGMENT_PREFIX)
                and name.endswith(SEGMENT_SUFFIX)
            )
        except FileNotFoundError:
            return []
        return [
            os.path.join(self.config.dir_path, name) for name in names
        ]

    def _segment_name(self, index: int) -> str:
        return os.path.join(
            self.config.dir_path,
            f"{SEGMENT_PREFIX}{index:08d}{SEGMENT_SUFFIX}",
        )

    @property
    def snapshot_path(self) -> str:
        return os.path.join(self.config.dir_path, SNAPSHOT_NAME)

    # -- open / close --------------------------------------------------

    def _open_for_append(self) -> None:
        """Adopt the existing tail (repairing a torn one) or start fresh.

        A truncated torn tail counts as ``durable_truncated_bytes``;
        corrupt frames the journal still holds (valid frames follow
        them, so they are skipped, not cut) as ``durable_corrupt_frames``.
        """
        state, issues = load_journal_state(
            self.config.dir_path, repair=True
        )
        self._next_seq = state.max_seq + 1
        if issues["truncated_bytes"]:
            self._incr("durable_truncated_bytes", issues["truncated_bytes"])
        if issues["corrupt_frames"]:
            self._incr("durable_corrupt_frames", issues["corrupt_frames"])
        segments = self.segment_paths()
        if segments:
            tail = segments[-1]
            self._segment_index = int(
                os.path.basename(tail)[
                    len(SEGMENT_PREFIX) : -len(SEGMENT_SUFFIX)
                ]
            )
            self._segment_path = tail
            self._pos = os.path.getsize(tail)
        else:
            self._segment_index += 1
            self._segment_path = self._segment_name(self._segment_index)
            self._pos = 0
        # buffering=0: write() goes straight to the OS, so a SIGKILL
        # loses nothing that append() already returned for (the page
        # cache outlives the process; only power loss needs fsync).
        self._fh = open(self._segment_path, "a+b", buffering=0)
        self._synced_bytes = self._pos

    def close(self) -> None:
        """Sync and close; safe to call twice."""
        if self._closed:
            return
        if self._fh is not None:
            try:
                os.fsync(self._fh.fileno())
                self._synced_bytes = self._pos
            except OSError:
                pass
            self._fh.close()
            self._fh = None
        self._closed = True

    def crash(self) -> None:
        """Test/chaos hook: drop the handle without syncing.

        Models ``kill -9``: everything ``append`` returned for is
        still in the page cache (readable by the next process), but
        nothing extra is made durable on the way out.
        """
        if self._fh is not None:
            self._fh.close()
            self._fh = None
        self._closed = True

    def simulate_power_loss(self) -> None:
        """Test/chaos hook: crash *and* lose everything unsynced.

        Truncates the active segment back to the last honestly synced
        byte, which is how a short (lying) fsync turns into real data
        loss.  Completed segments are safe -- rolls always sync.
        """
        path, synced = self._segment_path, self._synced_bytes
        self.crash()
        if path is not None and os.path.exists(path):
            with open(path, "r+b") as handle:
                handle.truncate(synced)

    # -- write path ----------------------------------------------------

    def append(self, rtype: str, **fields: Any) -> int:
        """Write one record; returns its ``seq``.

        Torn and bit-flipped writes are detected by read-back and
        healed (truncate + retry); only an exhausted retry budget
        raises :class:`JournalWriteError`, and ``OSError(ENOSPC)``
        propagates.  On any raise the record is *not* in the journal.
        """
        if self._closed or self._fh is None:
            raise JournalError("journal is closed")
        if rtype not in RECORD_TYPES:
            raise ValueError(
                f"record type must be one of {RECORD_TYPES}, got {rtype!r}"
            )
        record = {"seq": self._next_seq, "t": rtype, **fields}
        frame = encode_frame(record)
        if self._pos and self._pos + len(frame) > self.config.segment_bytes:
            self._roll()
        plan = self.config.disk_faults
        faulted = plan is not None and getattr(plan, "enabled", False)
        for _attempt in range(6):
            start = self._pos
            if faulted:
                plan.check_space(self._bytes_written, len(frame))
                kind = plan.fault_for_write(self._write_index)
            else:
                kind = None
            index = self._write_index
            self._write_index += 1
            if kind == "torn":
                data = frame[: plan.torn_length(index, len(frame))]
            elif kind == "bitflip":
                data = plan.flip(index, frame)
            else:
                data = frame
            self._fh.write(data)
            self._pos += len(data)
            self._bytes_written += len(data)
            if self._verify(start, frame):
                break
            # The frame on disk is not the frame we meant to write
            # (bit flip, short write): truncate it out and try again.
            self._repair(start)
            self._incr("durable_writes_healed")
        else:
            raise JournalWriteError(
                f"could not persist an intact frame for seq {record['seq']}"
            )
        self._next_seq += 1
        self._incr("durable_records_appended")
        self._maybe_sync()
        return record["seq"]

    # -- record writers ------------------------------------------------

    def accept(self, job: Any, **extra: Any) -> None:
        """Journal *job*'s admission.

        Write-ahead: the caller admits the job only once this returns,
        so a failed write counts ``durable_write_errors`` and raises.
        The payload loses its :data:`EPHEMERAL_PAYLOAD_KEYS`; *extra*
        adds fields or overrides them (the serve tier keys a request
        by its dedupe id and records the tenant).
        """
        payload = job.payload
        if any(key in payload for key in EPHEMERAL_PAYLOAD_KEYS):
            payload = {
                key: value
                for key, value in payload.items()
                if key not in EPHEMERAL_PAYLOAD_KEYS
            }
        fields = {
            "job_id": job.job_id,
            "kernel": job.kernel,
            "payload": payload,
            "priority": job.priority,
            **extra,
        }
        try:
            self.append("accept", **fields)
        except Exception:
            self._incr("durable_write_errors")
            raise
        self._incr("durable_accepts_logged")

    def attempt(self, job_id: Any) -> bool:
        """Journal a dispatch (forensic: it tells a post-mortem which
        orphans died mid-execution); False when the write failed."""
        logged = self._tolerated("attempt", job_id=job_id)
        if logged:
            self._incr("durable_attempts_logged")
        return logged

    def complete(
        self,
        job_id: Any,
        ok: bool,
        error: Optional[str] = None,
        value: Any = None,
    ) -> bool:
        """Journal a terminal envelope; False when the write failed.

        A lost ``complete`` re-executes the job at the next recovery
        (at-least-once underneath), and recovery's dedupe still folds
        it to one terminal record per id.
        """
        fields: Dict[str, Any] = {"job_id": job_id, "ok": ok}
        if error is not None:
            fields["error"] = error
        if value is not None:
            fields["value"] = value
        logged = self._tolerated("complete", **fields)
        if logged:
            self._incr("durable_completions_logged")
        return logged

    def dead_letter(self, job_id: Any, error: str, attempts: int) -> bool:
        """Journal a DLQ park; False when the write failed."""
        logged = self._tolerated(
            "dead_letter", job_id=job_id, error=error, attempts=attempts
        )
        if logged:
            self._incr("durable_dead_letters_logged")
        return logged

    def _tolerated(self, rtype: str, **fields: Any) -> bool:
        """Append a record whose loss the caller survives; a failed
        write is counted, not raised."""
        try:
            self.append(rtype, **fields)
        except Exception:
            self._incr("durable_write_errors")
            return False
        return True

    def _incr(self, name: str, amount: int = 1) -> None:
        if self.metrics is not None:
            self.metrics.incr(name, amount)

    def _verify(self, start: int, frame: bytes) -> bool:
        try:
            on_disk = os.pread(self._fh.fileno(), len(frame), start)
        except OSError:
            return False
        return on_disk == frame

    def _repair(self, start: int) -> None:
        """Truncate a bad partial frame back out of the tail."""
        try:
            self._fh.truncate(start)
            self._pos = start
            self._synced_bytes = min(self._synced_bytes, start)
        except OSError:
            # Can't even truncate: abandon this segment for a fresh
            # one so later appends land after a clean boundary.
            self._roll(sync=False)

    def _roll(self, sync: bool = True) -> None:
        """Start a new segment; the finished one is synced (stable)."""
        if self._fh is not None:
            if sync:
                try:
                    os.fsync(self._fh.fileno())
                except OSError:
                    pass
            self._fh.close()
        self._segment_index += 1
        self._segment_path = self._segment_name(self._segment_index)
        self._fh = open(self._segment_path, "a+b", buffering=0)
        self._pos = 0
        self._synced_bytes = 0

    def sync(self) -> None:
        """Force an fsync of the active segment."""
        self._do_sync()

    def _maybe_sync(self) -> None:
        policy = self.config.fsync
        if policy == "always":
            self._do_sync()
        elif policy == "interval":
            now = time.monotonic()
            if now - self._last_sync >= FSYNC_INTERVAL_S:
                self._do_sync()

    def _do_sync(self) -> None:
        if self._fh is None:
            return
        self._last_sync = time.monotonic()
        index = self._sync_index
        self._sync_index += 1
        self._incr("durable_syncs")
        plan = self.config.disk_faults
        if plan is not None and getattr(plan, "enabled", False):
            if plan.fsync_lies(index):
                return  # the disk said yes and did nothing
        try:
            os.fsync(self._fh.fileno())
        except OSError:
            return
        self._synced_bytes = self._pos

    # -- read path -----------------------------------------------------

    def load_state(self) -> Tuple[JournalState, Dict[str, int]]:
        """Fold snapshot + all segments into a :class:`JournalState`."""
        return load_journal_state(self.config.dir_path, repair=False)

    # -- compaction ----------------------------------------------------

    def compact(self) -> Dict[str, int]:
        """Fold everything into an atomic snapshot; drop the segments.

        The snapshot is written tmp + ``os.replace`` (fsynced before
        the rename), segments are deleted only after the replace, and
        appends continue in a fresh segment with ``seq`` unbroken -- a
        crash at any point leaves either the old segments or the new
        snapshot, never neither.
        """
        if self._closed:
            raise JournalError("journal is closed")
        state, issues = self.load_state()
        document = {
            "version": SNAPSHOT_VERSION,
            "max_seq": max(state.max_seq, self._next_seq - 1),
            "state": state.to_dict(),
        }
        tmp_path = self.snapshot_path + ".tmp"
        with open(tmp_path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, sort_keys=True)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, self.snapshot_path)
        if self._fh is not None:
            self._fh.close()
            self._fh = None
        removed = 0
        for path in self.segment_paths():
            os.unlink(path)
            removed += 1
        self._segment_index += 1
        self._segment_path = self._segment_name(self._segment_index)
        self._fh = open(self._segment_path, "a+b", buffering=0)
        self._pos = 0
        self._synced_bytes = 0
        self._incr("durable_compactions")
        return {
            "segments_removed": removed,
            "records_folded": state.replayed_records,
            "snapshot_jobs": len(state.accepted),
            "corrupt_frames": issues["corrupt_frames"],
        }


# ----------------------------------------------------------------------
# directory-level reader (works without a live Journal)


def load_journal_state(
    dir_path: str, repair: bool = False
) -> Tuple[JournalState, Dict[str, int]]:
    """Fold ``snapshot.json`` + every segment under *dir_path*.

    With *repair* on, the final segment's torn tail (bytes no valid
    frame follows) is truncated on disk (what :class:`Journal` does
    before appending) and reported as ``truncated_bytes`` instead of
    as a corrupt frame: it is gone.  Returns ``(state, issues)`` where
    issues counts ``segments``, ``corrupt_frames``, ``skipped_bytes``
    and ``truncated_bytes``; a missing or corrupt snapshot is skipped
    (``snapshot_corrupt``) rather than fatal -- the segments it
    summarized are gone, but the journal stays readable.
    """
    state = JournalState()
    issues = {
        "segments": 0,
        "corrupt_frames": 0,
        "skipped_bytes": 0,
        "truncated_bytes": 0,
        "snapshot_corrupt": 0,
        "snapshot_loaded": 0,
    }
    snapshot_path = os.path.join(dir_path, SNAPSHOT_NAME)
    if os.path.exists(snapshot_path):
        try:
            with open(snapshot_path, "r", encoding="utf-8") as handle:
                document = json.load(handle)
            state = JournalState.from_dict(document["state"])
            state.max_seq = max(state.max_seq, int(document["max_seq"]))
            issues["snapshot_loaded"] = 1
        except (ValueError, KeyError, TypeError, OSError):
            state = JournalState()
            issues["snapshot_corrupt"] = 1
    snapshot_seq = state.max_seq
    try:
        names = sorted(
            name
            for name in os.listdir(dir_path)
            if name.startswith(SEGMENT_PREFIX)
            and name.endswith(SEGMENT_SUFFIX)
        )
    except FileNotFoundError:
        names = []
    paths = [os.path.join(dir_path, name) for name in names]
    issues["segments"] = len(paths)
    for position, path in enumerate(paths):
        scan = scan_segment(path)
        if repair and scan.tail_bytes and position == len(paths) - 1:
            # A torn write: cut off, so counted as gone, not as corrupt.
            with open(path, "r+b") as handle:
                handle.truncate(scan.valid_bytes)
            issues["truncated_bytes"] += scan.tail_bytes
            scan.corrupt_frames -= 1
            scan.skipped_bytes -= scan.tail_bytes
        issues["corrupt_frames"] += scan.corrupt_frames
        issues["skipped_bytes"] += scan.skipped_bytes
        for record in scan.records:
            seq = record.get("seq")
            if isinstance(seq, int) and seq <= snapshot_seq:
                continue  # already folded into the snapshot
            state.apply(record)
    return state, issues
