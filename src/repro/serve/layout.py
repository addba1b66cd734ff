"""Fixed-slot SoA layouts for the shared-memory transport.

Job and result rings are two shared-memory segments each: an ``int64``
header plane (one row of :data:`JOB_FIELDS` / :data:`RESULT_FIELDS`
words per slot) and a ``uint8`` data plane (one fixed-capacity byte
region per slot).  The codec here translates between the engine's
plain payload/result dicts and those planes **without pickling** for
the structured fast path.  It is one generic codec over the kernel
table (:data:`repro.engine.kernels.KERNELS`), so a new row rides the
fast path with nothing added here:

- a job's body is its row's operand ``keys`` in order, side by side
  (structure-of-arrays: the lengths live in the header's LEN_A/LEN_B
  words, the bytes in the data plane), each in its codec's slot form
  -- ASCII bytes (DNA), an ``int64`` run (DTW's signals) or an
  ``int64`` ``(n, 3)`` run (Chain's anchors); the row's one optional
  int key (Chain's window) rides the AUX word, -1 meaning absent;
- a result's body is its row's ``results`` schema: the list fields as
  ``int64`` runs of one common length (LEN_A; 1 when there are none),
  then each scalar field as one ``int64``/``float64`` word, then the
  ``cells`` word.

:func:`job_body_bytes` / :func:`result_body_bytes` read a body's size
back from its header words, for the transport's byte accounting.

Payloads or results the fast path cannot express exactly -- extra
keys, non-ASCII sequences, sentinel/trace side-channels riding on the
result -- fall back to a pickled blob in the same slot
(:data:`FMT_PICKLE`), so the transport is *complete* even though the
hot kernels never pay for pickle.  Fault-injection markers
(:mod:`repro.faults`) are header bits, not payload keys, so chaos
campaigns ride the fast path too.

Int runs (DTW's signals, Chain's anchors and result lists) are packed
with :mod:`struct` when every element is an exact ``int``; anything
else takes a checked numpy conversion, which decides the same bytes
or the fallback.  Everything here is pure functions over
``memoryview``/numpy slices; the ring state machine lives in
:mod:`repro.serve.ring`.

numpy loads with the ring: :meth:`repro.serve.ring.ServeSegments.create`
calls :func:`load_numpy` before the transport forks its workers, so
they inherit the import, and a server whose jobs all run inline never
loads it.  A codec call made without a ring loads it at first use.
"""

from __future__ import annotations

import json
import pickle
import struct
from itertools import chain
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, NamedTuple, Optional, Tuple

from repro.engine.kernels import KERNELS, EngineKernel

if TYPE_CHECKING:
    import numpy as np

#: Engine kernels the SoA fast path encodes: row order, from 1 (id 0
#: is reserved).
KERNEL_IDS: Dict[str, int] = {name: index for index, name in enumerate(KERNELS, 1)}
KERNEL_NAMES: Dict[int, str] = {index: name for name, index in KERNEL_IDS.items()}

#: Slot states (header STATE word).  The lifecycle is
#: claim -> fill -> publish (READY) -> claim (RUNNING) -> publish
#: (DONE) -> reclaim (FREE, generation bumped).
FREE = 0
READY = 1
RUNNING = 2
DONE = 3

#: Body formats.
FMT_SOA = 0
FMT_PICKLE = 1

#: Job-header flag bits (fault markers + side channels).
FLAG_FAIL = 1  # _inject_fail: raise inside the runner
FLAG_EXIT = 2  # _inject_exit: kill the worker process
FLAG_CORRUPT = 4  # _inject_corrupt: bit-flip the result
FLAG_SENTINELS = 8  # _sentinels: arm numerical sentinels
FLAG_TRACE = 16  # _trace: correlation ids ride behind the payload
#: The payload keys the first four stand for (``True`` when set).
_FLAG_KEYS = (
    ("_inject_fail", FLAG_FAIL),
    ("_inject_exit", FLAG_EXIT),
    ("_inject_corrupt", FLAG_CORRUPT),
    ("_sentinels", FLAG_SENTINELS),
)

#: Job slot header words.
(
    J_STATE,
    J_GEN,
    J_JOB_ID,
    J_KERNEL,
    J_PROGRAM,
    J_FORMAT,
    J_LEN_A,
    J_LEN_B,
    J_AUX,
    J_FLAGS,
    J_DELAY_US,
    J_WORKER,
    J_TRACE_LEN,
) = range(13)
JOB_FIELDS = 13

#: Result slot header words.
(
    R_STATE,
    R_GEN,
    R_JOB_ID,
    R_OK,
    R_KERNEL,
    R_FORMAT,
    R_LEN_A,
    R_LEN_B,
    R_WORKER,
) = range(9)
RESULT_FIELDS = 9

_INT64 = "<i8"


def load_numpy() -> Any:
    """numpy, for the codec: imported by the first call."""
    import numpy

    return numpy


#: Payload keys outside the operands that never force the pickle
#: fallback: flag bits, the delay word, and ``_trace`` behind the body.
_SIDE_KEYS = frozenset(key for key, _ in _FLAG_KEYS) | {"_inject_delay_s", "_trace"}


class SlotOverflowError(ValueError):
    """The encoded payload/result does not fit one slot's byte region."""


class _SlotCodec(NamedTuple):
    """What the fast path reads of one kernel row, derived once."""

    #: Operand keys, counted in LEN_A then LEN_B.
    keys: Tuple[str, ...]
    #: The row codec's slot form (``Codec.slot_columns``) and the bytes
    #: one counted element of it takes.
    columns: int
    width: int
    #: The optional int key riding the AUX word, if the row has one.
    window: Optional[str]
    #: Keys a payload body may have and still ride the fast path.
    payload_keys: frozenset
    #: Result list fields (int64 runs), then the scalar words
    #: (``cells`` last), their exact types and how they pack.
    runs: Tuple[str, ...]
    words: Tuple[str, ...]
    word_types: Tuple[type, ...]
    packer: struct.Struct
    result_keys: frozenset


def _slot_codec(row: EngineKernel) -> _SlotCodec:
    # A row with more operands or optional keys than the header has
    # words for simply rides pickled: those keys are not in
    # *payload_keys*.
    keys = row.keys[:2]
    window = next(iter(row.optional), None)
    columns = row.codec.slot_columns
    runs = tuple(name for name, kind in row.results if kind is list)
    scalars = tuple((name, kind) for name, kind in row.results if kind is not list)
    words = tuple(name for name, _ in scalars) + ("cells",)
    word_types = tuple(kind for _, kind in scalars) + (int,)
    return _SlotCodec(
        keys=keys,
        columns=columns,
        width=8 * columns if columns else 1,
        window=window,
        payload_keys=frozenset(keys if window is None else keys + (window,)),
        runs=runs,
        words=words,
        word_types=word_types,
        packer=struct.Struct(
            "<" + "".join("d" if kind is float else "q" for kind in word_types)
        ),
        result_keys=frozenset(runs) | frozenset(words),
    )


_CODECS: Dict[int, _SlotCodec] = {
    KERNEL_IDS[name]: _slot_codec(row) for name, row in KERNELS.items()
}


_EXACT_INT = frozenset((int,))
_ROW_TYPES = frozenset((list, tuple))


def _int_run(values: Any, columns: int) -> Optional[Tuple[int, bytes]]:
    """``values`` as ``(rows, little-endian int64 bytes)`` of
    *columns*-wide rows (1: a flat run), or None if unexpressible."""
    if not isinstance(values, (list, tuple)):
        return None
    flat = values if columns == 1 else _flat_rows(values, columns)
    if flat and _EXACT_INT.issuperset(map(type, flat)):
        try:
            return len(values), struct.pack(f"<{len(flat)}q", *flat)
        except struct.error:
            pass  # beyond int64: the checked path says no
    array = _int_array(values, columns)
    return None if array is None else (array.shape[0], array.tobytes())


def _flat_rows(rows: Any, columns: int) -> Optional[list]:
    """List/tuple *rows* of *columns* elements each, flattened."""
    if _ROW_TYPES.issuperset(map(type, rows)) and set(map(len, rows)) == {columns}:
        return list(chain.from_iterable(rows))
    return None


def _int_array(values: Any, columns: int) -> Optional[np.ndarray]:
    """The checked numpy path of :func:`_int_run`."""
    try:
        # Two-step with an equality check: a direct int64 cast would
        # silently truncate floats, making the transport lossy.
        np = load_numpy()
        exact = np.asarray(values)
        array = exact.astype(_INT64)
        if not np.array_equal(array, exact):
            return None
    except (TypeError, ValueError, OverflowError):
        return None
    if array.shape[1:] != ((columns,) if columns > 1 else ()):
        return None
    return array


def _flags_for(payload: Dict[str, Any]) -> Tuple[int, int]:
    """(flag bits, delay in microseconds) from the fault markers."""
    flags = 0
    for key, bit in _FLAG_KEYS:
        if payload.get(key):
            flags |= bit
    delay_us = int(round(float(payload.get("_inject_delay_s") or 0.0) * 1e6))
    return flags, delay_us


def _write(region: Any, raw: bytes) -> None:
    """Store a whole body (one copy into shared memory)."""
    if len(raw) > len(region):
        raise SlotOverflowError(
            f"encoded body needs {len(raw)} bytes; slot holds {len(region)}"
        )
    memoryview(region)[: len(raw)] = raw


def encode_payload(
    kernel: str, payload: Dict[str, Any], region: np.ndarray
) -> Dict[int, int]:
    """Encode *payload* into *region*; returns header words to store.

    The returned dict maps job-header field index -> value (state,
    generation, ids and program words are the ring's business, not the
    codec's).  Raises :class:`SlotOverflowError` when the body does not
    fit, which callers treat as "this job cannot ride the ring".
    """
    side = not _SIDE_KEYS.isdisjoint(payload)
    flags, delay_us = _flags_for(payload) if side else (0, 0)
    kernel_id = KERNEL_IDS.get(kernel, 0)
    header: Dict[int, int] = {
        J_KERNEL: kernel_id,
        J_FLAGS: flags,
        J_DELAY_US: delay_us,
        J_LEN_A: 0,
        J_LEN_B: 0,
        J_AUX: 0,
        J_TRACE_LEN: 0,
    }
    trace_raw = b""
    trace = payload.get("_trace")
    if trace is not None:
        try:
            trace_raw = json.dumps(trace, sort_keys=True).encode("utf-8")
            header[J_TRACE_LEN] = len(trace_raw)
            flags |= FLAG_TRACE
            header[J_FLAGS] = flags
        except (TypeError, ValueError):
            trace_raw = b""  # unserializable trace -> pickle fallback below

    body = payload
    if side:
        body = {key: value for key, value in payload.items() if key not in _SIDE_KEYS}
    codec = _CODECS.get(kernel_id)
    soa = None if codec is None else _encode_operands(codec, body, header)
    if soa is None or (trace is not None and not trace_raw):
        raw = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        # Markers and trace ride inside the pickle: every other word is 0.
        header = dict.fromkeys(header, 0)
        header.update({J_KERNEL: kernel_id, J_FORMAT: FMT_PICKLE, J_LEN_A: len(raw)})
        _write(region, raw)
        return header
    header[J_FORMAT] = FMT_SOA
    _write(region, b"".join(soa) + trace_raw)
    return header


def _encode_operands(
    codec: _SlotCodec, body: Dict[str, Any], header: Dict[int, int]
) -> Optional[List[bytes]]:
    """The operands' byte runs (counts and window into *header*), or
    None to fall back."""
    if not body.keys() <= codec.payload_keys:
        return None
    runs = []
    for field, key in zip((J_LEN_A, J_LEN_B), codec.keys):
        value = body.get(key)
        if codec.columns:
            run = _int_run(value, codec.columns)
            if run is None:
                return None
            header[field], raw = run
        else:
            if not isinstance(value, str) or not value.isascii():
                return None
            raw = value.encode("ascii")
            header[field] = len(raw)
        runs.append(raw)
    if codec.window is not None:
        header[J_AUX] = -1  # absent
        if codec.window in body:
            window = body[codec.window]
            # Only what the AUX word holds losslessly.
            if type(window) is not int or not 0 <= window < 1 << 63:
                return None
            header[J_AUX] = window
    return runs


def decode_payload(header: np.ndarray, region: np.ndarray) -> Dict[str, Any]:
    """Rebuild the payload dict a job slot carries."""
    words = header.tolist()  # one read of the header row, not one per word
    if words[J_FORMAT] == FMT_PICKLE:
        return pickle.loads(region[: words[J_LEN_A]].tobytes())
    codec = _CODECS.get(words[J_KERNEL])
    if codec is None:
        raise ValueError(f"job slot carries unknown kernel id {words[J_KERNEL]}")
    counts = (words[J_LEN_A], words[J_LEN_B])
    body_end = codec.width * sum(counts)
    raw = region[: body_end + words[J_TRACE_LEN]].tobytes()  # one copy out of shm
    payload: Dict[str, Any] = {}
    start, columns = 0, codec.columns
    for key, count in zip(codec.keys, counts):
        if columns == 1:
            payload[key] = list(struct.unpack_from(f"<{count}q", raw, start))
        elif columns:  # rows: numpy's reshape beats slicing a tuple
            values = load_numpy().frombuffer(raw, _INT64, count * columns, start)
            payload[key] = values.reshape(count, columns).tolist()
        else:
            payload[key] = raw[start : start + count].decode("ascii")
        start += count * codec.width
    if codec.window is not None and words[J_AUX] >= 0:
        payload[codec.window] = words[J_AUX]

    flags = words[J_FLAGS]
    for key, bit in _FLAG_KEYS if flags else ():
        if flags & bit:
            payload[key] = True
    if words[J_DELAY_US]:
        payload["_inject_delay_s"] = words[J_DELAY_US] / 1e6
    if flags & FLAG_TRACE and words[J_TRACE_LEN]:
        payload["_trace"] = json.loads(raw[body_end:].decode("utf-8"))
    return payload


def job_body_bytes(words: Mapping[int, int]) -> int:
    """Bytes a job body occupies in its slot, from its header words."""
    length = int(words[J_LEN_A])
    if int(words[J_FORMAT]) == FMT_PICKLE:
        return length
    codec = _CODECS[int(words[J_KERNEL])]
    return codec.width * (length + int(words[J_LEN_B])) + int(words[J_TRACE_LEN])


# ----------------------------------------------------------------------
# results


def encode_result(
    kernel: str,
    ok: bool,
    value: Optional[Dict[str, Any]],
    error: Optional[str],
    region: np.ndarray,
) -> Dict[int, int]:
    """Encode one job outcome into a result slot's byte region."""
    kernel_id = KERNEL_IDS.get(kernel, 0)
    header: Dict[int, int] = {
        R_OK: 1 if ok else 0,
        R_KERNEL: kernel_id,
        R_LEN_B: 0,
    }
    if not ok:
        raw = (error or "unknown").encode("utf-8")
        header[R_FORMAT] = FMT_SOA
        header[R_LEN_A] = len(raw)
        _write(region, raw)
        return header
    codec = _CODECS.get(kernel_id)
    soa = None if codec is None else _encode_result_body(codec, value, header)
    if soa is None:
        raw = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        header[R_FORMAT] = FMT_PICKLE
        header[R_LEN_A] = len(raw)
        _write(region, raw)
        return header
    header[R_FORMAT] = FMT_SOA
    _write(region, b"".join(soa))
    return header


def _encode_result_body(
    codec: _SlotCodec, value: Optional[Dict[str, Any]], header: Dict[int, int]
) -> Optional[List[bytes]]:
    """The result's list runs then its packed words, or None to fall back."""
    if not isinstance(value, dict) or value.keys() != codec.result_keys:
        return None
    runs = []
    for key in codec.runs:
        run = _int_run(value[key], 1)
        if run is None:
            return None
        runs.append(run[1])
    if len(set(map(len, runs))) > 1:  # one LEN_A for every run
        return None
    words = [value[key] for key in codec.words]
    # Exact types: a bool (or any subclass) would not decode as itself.
    if tuple(map(type, words)) != codec.word_types:
        return None
    try:
        packed = codec.packer.pack(*words)
    except struct.error:  # beyond int64
        return None
    header[R_LEN_A] = len(runs[0]) // 8 if runs else 1
    return runs + [packed]


def decode_result(
    header: np.ndarray, region: np.ndarray
) -> Tuple[bool, Optional[Dict[str, Any]], Optional[str]]:
    """Rebuild ``(ok, value, error)`` from a result slot."""
    words = header.tolist()
    len_a = words[R_LEN_A]
    if not words[R_OK]:
        return False, None, region[:len_a].tobytes().decode("utf-8")
    if words[R_FORMAT] == FMT_PICKLE:
        return True, pickle.loads(region[:len_a].tobytes()), None
    codec = _CODECS.get(words[R_KERNEL])
    if codec is None:
        raise ValueError(f"result slot carries unknown kernel id {words[R_KERNEL]}")
    value: Dict[str, Any] = {}
    offset, nbytes = 0, len_a * 8
    for key in codec.runs:
        value[key] = list(struct.unpack_from(f"<{len_a}q", region, offset))
        offset += nbytes
    value.update(zip(codec.words, codec.packer.unpack_from(region, offset)))
    return True, value, None


def result_body_bytes(header: Mapping[int, int]) -> int:
    """Bytes a result body occupies in its slot, from its header words."""
    length = int(header[R_LEN_A])
    if int(header[R_FORMAT]) == FMT_PICKLE or not int(header[R_OK]):
        return length
    codec = _CODECS[int(header[R_KERNEL])]
    return 8 * len(codec.runs) * length + codec.packer.size
