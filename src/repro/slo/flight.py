"""The flight recorder: a bounded black box for crash forensics.

A :class:`FlightRecorder` keeps the last ``capacity`` interesting
things that happened in this process -- spans (tapped off
:class:`repro.obs.trace.TraceRecorder` with a head-sampling knob),
instant notes from the reliability machinery, log records, and
counter deltas -- and writes the whole ring plus trigger context as a
self-contained JSON **black box** when something goes wrong: a DLQ
push, a breaker trip, a sentinel firing, a drain fault, a shard kill,
a journal recovery, or an SLO burn.

Dumps are meant to be diffable across runs of a *seeded* campaign, so
entries carry no pids, tids, or host names, and every wall-clock
derived field is confined to a fixed, documented set
(:func:`canonical_blackbox` strips them; the determinism test asserts
byte-identical canonical dumps).  Filenames are sequence-numbered, not
timestamped, for the same reason.  ``max_dumps`` caps disk use: a
crash loop writes its first N boxes and then counts suppressions
instead of filling the disk.

``gendp-trace --replay box.json`` rebuilds a Chrome trace from a
black box (:func:`blackbox_to_chrome_trace`), so the existing trace
tooling opens post-mortems too.
"""

from __future__ import annotations

import json
import logging
import os
import threading
import time
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.engine.metrics import MetricsRegistry
from repro.obs.logs import get_logger

_LOG = get_logger("repro.slo.flight")

#: Wall-clock-derived fields :func:`canonical_blackbox` removes: the
#: dump stamp, per-entry clock readings, and span timing args.  The
#: determinism contract is "byte-identical modulo exactly this set".
WALL_CLOCK_DOC_FIELDS: Tuple[str, ...] = ("wall_clock_unix", "clock_s")
WALL_CLOCK_ENTRY_FIELDS: Tuple[str, ...] = ("t",)
WALL_CLOCK_ARG_FIELDS: Tuple[str, ...] = (
    "start",
    "end",
    "duration_s",
    "queue_wait_s",
    "compile_s",
    "execute_s",
    "elapsed_s",
    "peer",
)

#: Black-box document version (bump on schema changes).
BLACKBOX_VERSION = 1


class FlightRecorder:
    """Bounded in-memory ring with black-box dumps on trips."""

    def __init__(
        self,
        capacity: int = 512,
        dir_path: Optional[str] = None,
        max_dumps: int = 8,
        clock: Optional[Any] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        #: Default dump directory (``dump`` may override per call);
        #: None keeps the recorder in-memory-only until a caller
        #: supplies one (the recovery path dumps beside the journal).
        self.dir_path = dir_path
        self.max_dumps = max_dumps
        self.clock = clock if clock is not None else time.monotonic
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.metrics.register("flight")
        self._entries: Deque[Dict[str, Any]] = deque(maxlen=capacity)
        self._seq = 0
        self._dump_seq = 0
        self._dropped = 0
        self._last_counters: Dict[str, int] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # recording

    def _append(self, kind: str, name: str, args: Dict[str, Any]) -> None:
        with self._lock:
            if len(self._entries) == self.capacity:
                self._dropped += 1
            entry = {
                "seq": self._seq,
                "t": float(self.clock()),
                "kind": kind,
                "name": name,
                "args": args,
            }
            self._seq += 1
            self._entries.append(entry)
        self.metrics.incr("flight_entries_recorded")

    def note(self, name: str, **args: Any) -> None:
        """Record one instant note (reliability events, milestones)."""
        self._append(
            "note", name, {k: v for k, v in args.items() if v is not None}
        )

    def record_span(
        self,
        name: str,
        cat: str,
        start: float,
        end: float,
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Record one span tapped off a tracer.

        Deliberately drops pid/tid (nondeterministic across runs) and
        folds timing into args where the canonical strip finds it.
        """
        span_args = dict(args or {})
        span_args["start"] = start
        span_args["end"] = end
        self._append("span", name, {"cat": cat, **span_args})

    def record_log(self, record: logging.LogRecord) -> None:
        """Fold one log record (see :meth:`attach_log_handler`)."""
        self._append(
            "log",
            record.name,
            {"level": record.levelname, "message": record.getMessage()},
        )

    def note_counters(self, counters: Dict[str, int]) -> None:
        """Record the delta of *counters* against the last fold.

        Only changed counters land in the ring, so periodic folds of a
        big registry cost one small entry.
        """
        delta: Dict[str, int] = {}
        with self._lock:
            for name, value in sorted(counters.items()):
                value = int(value)
                if value != self._last_counters.get(name, 0):
                    delta[name] = value - self._last_counters.get(name, 0)
                    self._last_counters[name] = value
        if delta:
            self._append("counters", "delta", delta)

    def attach_log_handler(
        self, logger_name: str = "repro", level: int = logging.WARNING
    ) -> logging.Handler:
        """Tap warnings+ from *logger_name* into the ring; returns the
        handler so callers can detach it."""
        recorder = self

        class _FlightHandler(logging.Handler):
            def emit(self, record: logging.LogRecord) -> None:
                try:
                    recorder.record_log(record)
                except Exception:  # never let forensics break logging
                    pass

        handler = _FlightHandler(level=level)
        logging.getLogger(logger_name).addHandler(handler)
        return handler

    # ------------------------------------------------------------------
    # introspection

    def entries(self) -> List[Dict[str, Any]]:
        with self._lock:
            return [dict(entry) for entry in self._entries]

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def dropped(self) -> int:
        return self._dropped

    @property
    def dumps_written(self) -> int:
        return self._dump_seq

    # ------------------------------------------------------------------
    # dumping

    def blackbox(self, reason: str, **context: Any) -> Dict[str, Any]:
        """The black-box document for a trip, without writing it."""
        with self._lock:
            entries = [dict(entry) for entry in self._entries]
            dropped = self._dropped
        return {
            "kind": "gendp-blackbox",
            "version": BLACKBOX_VERSION,
            "reason": reason,
            "context": {
                key: value
                for key, value in sorted(context.items())
                if value is not None
            },
            "entries": entries,
            "entries_dropped": dropped,
            "clock_s": float(self.clock()),
            "wall_clock_unix": time.time(),
        }

    def trip(self, reason: str, **context: Any) -> Optional[str]:
        """Record a trigger and dump the black box if a directory is
        configured; returns the dump path (None when suppressed or
        in-memory-only)."""
        self.metrics.incr("flight_trips")
        self.note(f"trip:{reason}", **context)
        if self.dir_path is None:
            return None
        return self.dump(reason, **context)

    def dump(
        self, reason: str, dir_path: Optional[str] = None, **context: Any
    ) -> Optional[str]:
        """Write the black box to disk; returns the path.

        Honors ``max_dumps`` (suppressed trips are counted, never
        raised) and never lets a forensics failure propagate into the
        path that tripped it.
        """
        target_dir = dir_path or self.dir_path
        if target_dir is None:
            return None
        with self._lock:
            if self._dump_seq >= self.max_dumps:
                suppress = True
            else:
                suppress = False
                self._dump_seq += 1
                seq = self._dump_seq
        if suppress:
            self.metrics.incr("flight_dumps_suppressed")
            return None
        document = self.blackbox(reason, **context)
        document["dump_seq"] = seq
        safe_reason = "".join(
            ch if ch.isalnum() or ch == "-" else "-" for ch in reason
        )
        path = os.path.join(
            target_dir, f"blackbox-{seq:03d}-{safe_reason}.json"
        )
        try:
            os.makedirs(target_dir, exist_ok=True)
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(
                    document, handle, indent=2, sort_keys=True, default=str
                )
                handle.write("\n")
        except OSError as error:
            _LOG.warning(
                "black-box dump failed",
                extra={"path": path, "error": str(error)},
            )
            return None
        self.metrics.incr("flight_dumps_written")
        _LOG.info(
            "black box written", extra={"path": path, "reason": reason}
        )
        return path


# ----------------------------------------------------------------------
# post-mortem helpers


def canonical_blackbox(document: Dict[str, Any]) -> Dict[str, Any]:
    """*document* minus every wall-clock-derived field.

    Two dumps from identical seeded runs are byte-identical after this
    strip (``json.dumps(..., sort_keys=True)`` both sides) -- the
    determinism contract the chaos tests pin.
    """
    canonical = {
        key: value
        for key, value in document.items()
        if key not in WALL_CLOCK_DOC_FIELDS
    }
    entries = []
    for entry in canonical.get("entries", []):
        entry = {
            key: value
            for key, value in entry.items()
            if key not in WALL_CLOCK_ENTRY_FIELDS
        }
        args = entry.get("args")
        if isinstance(args, dict):
            entry["args"] = {
                key: value
                for key, value in args.items()
                if key not in WALL_CLOCK_ARG_FIELDS
            }
        entries.append(entry)
    canonical["entries"] = entries
    return canonical


def load_blackbox(path: str) -> Dict[str, Any]:
    """Read and schema-check one black-box file."""
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    if (
        not isinstance(document, dict)
        or document.get("kind") != "gendp-blackbox"
    ):
        raise ValueError(f"{path} is not a gendp black box")
    return document


def blackbox_to_chrome_trace(document: Dict[str, Any]) -> Dict[str, Any]:
    """Rebuild a Chrome trace from a black box (``gendp-trace
    --replay``).

    Span entries become complete events; notes, logs and counter
    deltas become instants.  Entries carry no pid/tid by design, so
    everything lands on one synthetic track (pid 0 / tid 0) -- a
    post-mortem timeline, not a concurrency picture.
    """
    entries = document.get("entries", [])
    origin = None
    for entry in entries:
        args = entry.get("args") or {}
        t = args.get("start", entry.get("t"))
        if isinstance(t, (int, float)):
            origin = t if origin is None else min(origin, t)
    origin = origin or 0.0
    events: List[Dict[str, Any]] = []
    for entry in entries:
        args = dict(entry.get("args") or {})
        kind = entry.get("kind", "note")
        cat = args.pop("cat", kind)
        start = args.pop("start", None)
        end = args.pop("end", None)
        if kind == "span" and isinstance(start, (int, float)):
            event: Dict[str, Any] = {
                "name": str(entry.get("name", "span")),
                "cat": str(cat),
                "ph": "X",
                "ts": (float(start) - origin) * 1e6,
                "dur": max(0.0, (float(end or start) - float(start)) * 1e6),
                "pid": 0,
                "tid": 0,
                "args": args,
            }
        else:
            t = entry.get("t", origin)
            t = t if isinstance(t, (int, float)) else origin
            event = {
                "name": f"{kind}:{entry.get('name', '')}",
                "cat": str(cat),
                "ph": "i",
                "s": "t",
                "ts": max(0.0, (float(t) - origin) * 1e6),
                "pid": 0,
                "tid": 0,
                "args": args,
            }
        events.append(event)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "blackbox_reason": document.get("reason"),
            "blackbox_version": document.get("version"),
            "entries_dropped": document.get("entries_dropped", 0),
        },
    }
