"""Spans around calls into each layer, recorded from outside ``src/``.

``install()`` replaces the functions in :data:`TARGETS` with plain
``functools.wraps`` wrappers and returns a :class:`Recorder`;
``Recorder.remove()`` puts the originals back.  A span is ``[name,
start, end, parent, tag]`` on ``time.perf_counter()``, which is
CLOCK_MONOTONIC on Linux and therefore comparable between the
benchmark and a server subprocess it traced.  Spans stay in memory
until ``dump()``.  Self time is a span's duration minus its direct
children's.

Spans inside the program (ROADMAP item 2) are a later issue; until
then this table is the list of layer boundaries.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

_FIRST_ARG = 0  # tag a span with its first positional argument (a kernel name)
_SELF = -1  # tag a method's span with id(self): which engine a call was on

#: (module, attribute path, span name, tag argument index or None).
#: ``Journal._do_sync`` is private, but it is the one place the journal
#: fsyncs: the interval policy never goes through the public ``sync()``.
TARGETS: Tuple[Tuple[str, str, str, Optional[int]], ...] = (
    ("repro.engine.service", "Engine.submit", "engine.service.submit", _SELF),
    ("repro.engine.service", "Engine.drain", "engine.service.drain", _SELF),
    ("repro.engine.service", "Engine.recover", "engine.service.recover", None),
    ("repro.cluster.router", "ClusterRouter.submit", "cluster.router.submit", None),
    ("repro.cluster.router", "ClusterRouter.drain", "cluster.router.drain", None),
    ("repro.cluster.router", "ClusterRouter.recover", "cluster.router.recover", None),
    ("repro.cluster.hashring", "HashRing.route", "cluster.hashring.route", None),
    ("repro.cluster.hashring", "HashRing.route_n", "cluster.hashring.route", None),
    ("repro.engine.batcher", "Batcher.pack", "engine.batcher.pack", None),
    ("repro.engine.cache", "ProgramCache.get_or_compile", "engine.cache.get_or_compile", None),
    ("repro.engine.runners", "build_dfg", "dfg.build", _FIRST_ARG),
    ("repro.dpmap.codegen", "compile_cell", "dpmap.compile_cell", None),
    ("repro.opt.passes", "PassPipeline.run", "opt.pipeline", None),
    ("repro.guard.verifier", "check_program", "guard.verifier.check", None),
    ("repro.static.certify", "compiled_certificate", "static.certify", _FIRST_ARG),
    ("repro.serve.warm", "specialize_cell", "serve.warm.specialize", None),
    ("repro.engine.runners", "run_job", "engine.runners.run_job", _FIRST_ARG),
    ("repro.engine.runners", "reference_result", "engine.validation.reference", _FIRST_ARG),
    ("repro.engine.executor", "InlineExecutor.run_batches", "engine.executor.run_batches", None),
    ("repro.serve.transport", "ShmExecutor.run_batches", "serve.transport.run_batches", None),
    ("repro.serve.layout", "encode_payload", "serve.layout.encode_payload", _FIRST_ARG),
    ("repro.serve.layout", "decode_payload", "serve.layout.decode_payload", None),
    ("repro.serve.layout", "encode_result", "serve.layout.encode_result", None),
    ("repro.serve.layout", "decode_result", "serve.layout.decode_result", None),
    ("repro.durable.journal", "Journal.append", "durable.journal.append", None),
    ("repro.durable.journal", "Journal._do_sync", "durable.journal.sync", None),
    ("repro.durable.journal", "load_journal_state", "durable.recovery.load_state", None),
    ("repro.serve.admission", "AdmissionController.check", "serve.admission.check", None),
    ("repro.slo.accounting", "TenantLedger.record_result", "slo.accounting.record_result", None),
    ("repro.mapping.wavefront2d", "build_wavefront_programs", "mapping.build", None),
    ("repro.mapping.sliding1d", "build_chain_programs", "mapping.build", None),
    ("repro.mapping.wavefront2d", "run_wavefront", "mapping.run_wavefront", None),
    ("repro.mapping.sliding1d", "run_chain", "mapping.run_chain", None),
    ("repro.mapping.longrange", "run_poa_row_dp", "mapping.run_poa_row_dp", None),
    ("repro.dpax.machine", "DPAxMachine.run", "dpax.machine.run", None),
)

Span = List[Any]  # [name, start, end, parent span or None, tag]


class Recorder:
    """In-memory span store with one open-span stack per thread."""

    def __init__(self) -> None:
        self.enabled = True
        self.spans: List[Span] = []
        self._local = threading.local()
        self._undo: List[Callable[[], None]] = []
        # Forked shm workers inherit the wrappers; their spans could
        # never be collected, so a child records nothing.
        os.register_at_fork(after_in_child=self._disable)

    def _disable(self) -> None:
        self.enabled = False

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, tag: Any = None) -> Span:
        stack = self._stack()
        span = [name, time.perf_counter(), 0.0, stack[-1] if stack else None, tag]
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span[2] = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def add(self, name: str, start: float, end: float, tag: Any = None) -> None:
        """Record a finished span that nests under nothing (a client's
        request: many overlap on one thread, so they cannot stack)."""
        self.spans.append([name, start, end, None, tag])

    def wrap(self, name: str, function: Callable, tag_index: Optional[int]) -> Callable:
        @functools.wraps(function)
        def shim(*args, **kwargs):
            if not self.enabled:
                return function(*args, **kwargs)
            tag = None
            if tag_index == _SELF:
                tag = id(args[0])
            elif tag_index is not None and len(args) > tag_index:
                tag = args[tag_index] if isinstance(args[tag_index], str) else None
            span = self.open(name, tag)
            try:
                return function(*args, **kwargs)
            finally:
                self.close(span)

        return shim

    def remove(self) -> None:
        while self._undo:
            self._undo.pop()()
        self.enabled = False

    def rows(self) -> List[List[Any]]:
        """Spans as JSON rows ``[name, start, end, parent index, tag]``."""
        index = {id(span): position for position, span in enumerate(self.spans)}
        return [
            [name, start, end, index.get(id(parent)) if parent is not None else None, tag]
            for name, start, end, parent, tag in self.spans
        ]

    def dump(self, path: str, **extra: Any) -> None:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.rows(), **extra}, handle)


def _holders(original: Any, attribute: str) -> List[Tuple[Any, str]]:
    """Every loaded repro/bench module that bound *original* under
    *attribute* (``from x import f`` copies the binding)."""
    holders = []
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith(("repro", "bench")):
            continue
        if module.__dict__.get(attribute) is original:
            holders.append((module, attribute))
    return holders


def install(targets: Sequence[Tuple[str, str, str, Optional[int]]] = TARGETS) -> Recorder:
    recorder = Recorder()
    for module_name, path, span_name, tag_index in targets:
        module = importlib.import_module(module_name)
        owner: Any = module
        *parents, attribute = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        original = owner.__dict__[attribute] if parents else getattr(owner, attribute)
        shim = recorder.wrap(span_name, original, tag_index)
        holders = [(owner, attribute)]
        if not parents:
            holders = _holders(original, attribute) or holders
        for holder, name in holders:
            setattr(holder, name, shim)
            recorder._undo.append(
                functools.partial(setattr, holder, name, original)
            )
    return recorder


# ----------------------------------------------------------------------
# analysis over rows (as dumped: parents are indices)


class Stat(NamedTuple):
    count: int
    total_s: float
    self_s: float


def within(rows: Iterable[List[Any]], windows: Sequence[Tuple[float, float]]) -> List[List[Any]]:
    """Rows whose start falls inside one of *windows*; parents that fall
    outside are cut loose (their index no longer resolves)."""
    rows = list(rows)
    kept = {
        position
        for position, row in enumerate(rows)
        if any(low <= row[1] < high for low, high in windows)
    }
    renumber = {old: new for new, old in enumerate(sorted(kept))}
    return [
        [name, start, end, renumber.get(parent), tag]
        for position, (name, start, end, parent, tag) in enumerate(rows)
        if position in kept
    ]


def aggregate(rows: Sequence[List[Any]], by_tag: bool = False) -> Dict[Any, Stat]:
    """Per span name (or ``(name, tag)``): calls, total and self time."""
    child_time = [0.0] * len(rows)
    for name, start, end, parent, tag in rows:
        if parent is not None:
            child_time[parent] += end - start
    totals: Dict[Any, List[float]] = {}
    for position, (name, start, end, parent, tag) in enumerate(rows):
        key = (name, tag) if by_tag else name
        entry = totals.setdefault(key, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += end - start
        entry[2] += end - start - child_time[position]
    return {key: Stat(int(c), t, s) for key, (c, t, s) in totals.items()}


def under(rows: Sequence[List[Any]], ancestor: str, tag: Any, name: str) -> float:
    """Seconds of *name* spans that descend from an *ancestor* span
    tagged *tag*."""
    total = 0.0
    for row in rows:
        if row[0] != name:
            continue
        parent = row[3]
        while parent is not None:
            if rows[parent][0] == ancestor and rows[parent][4] == tag:
                total += row[2] - row[1]
                break
            parent = rows[parent][3]
    return total
