"""SoA slot codecs: payload/result roundtrips for every kernel.

The contract under test: ``decode(encode(x)) == x`` exactly -- the
transport must be invisible.  Fast-path payloads ride structure-of-
arrays byte runs (FMT_SOA); anything the fast path cannot express
exactly falls back to pickle in the same slot (FMT_PICKLE), and fault
markers travel as header bits, never payload keys.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.cache import compile_program
from repro.engine.kernels import KERNELS
from repro.engine.runners import build_dfg, run_job
from repro.serve import layout
from repro.serve.layout import (
    FMT_PICKLE,
    FMT_SOA,
    J_AUX,
    J_FLAGS,
    J_FORMAT,
    JOB_FIELDS,
    R_FORMAT,
    RESULT_FIELDS,
    SlotOverflowError,
    decode_payload,
    decode_result,
    encode_payload,
    encode_result,
    job_body_bytes,
    result_body_bytes,
)
from tests.serve.golden_wire import (
    GOLDEN_PATH,
    payload_cases,
    result_cases,
    wire_records,
    written,
)

SLOT_BYTES = 4096


def _roundtrip_payload(kernel, payload, slot_bytes=SLOT_BYTES):
    region = np.zeros(slot_bytes, dtype=np.uint8)
    words = encode_payload(kernel, payload, region)
    header = np.zeros(JOB_FIELDS, dtype=np.int64)
    for index, value in words.items():
        header[index] = value
    return decode_payload(header, region), header


def _roundtrip_result(kernel, ok, value, error, slot_bytes=SLOT_BYTES):
    region = np.zeros(slot_bytes, dtype=np.uint8)
    words = encode_result(kernel, ok, value, error, region)
    header = np.zeros(RESULT_FIELDS, dtype=np.int64)
    for index, word in words.items():
        header[index] = word
    return decode_result(header, region), header


PAYLOADS = {
    "bsw": {"query": "ACGTACGT", "target": "ACGTTT"},
    "pairhmm": {"read": "ACGT", "haplotype": "AACGTT"},
    "lcs": {"x": "GATTACA", "y": "TACATACA"},
    "dtw": {"a": [3, 1, 4, 1, 5], "b": [2, 7, 1, 8]},
    "chain": {"anchors": [[1, 2, 3], [10, 12, 5], [40, 44, 9]]},
}


@pytest.mark.parametrize("kernel", sorted(PAYLOADS))
def test_payload_roundtrip_soa(kernel):
    decoded, header = _roundtrip_payload(kernel, PAYLOADS[kernel])
    assert decoded == PAYLOADS[kernel]
    assert header[J_FORMAT] == FMT_SOA


def test_chain_window_rides_aux_word():
    payload = {"anchors": [[1, 1, 1], [2, 2, 2]], "n": 7}
    decoded, header = _roundtrip_payload("chain", payload)
    assert decoded == payload
    assert header[J_AUX] == 7
    # Absent window decodes as absent, not zero.
    decoded, header = _roundtrip_payload("chain", {"anchors": [[1, 1, 1]]})
    assert "n" not in decoded
    assert header[J_AUX] == -1


def test_fault_markers_are_header_bits_not_body_bytes():
    payload = dict(
        PAYLOADS["bsw"],
        _inject_fail=True,
        _inject_corrupt=True,
        _inject_delay_s=0.25,
        _sentinels=True,
    )
    decoded, header = _roundtrip_payload("bsw", payload)
    assert header[J_FORMAT] == FMT_SOA  # markers did not force pickle
    assert header[J_FLAGS] != 0
    assert decoded["_inject_fail"] is True
    assert decoded["_inject_corrupt"] is True
    assert decoded["_sentinels"] is True
    assert decoded["_inject_delay_s"] == pytest.approx(0.25)
    for key in ("query", "target"):
        assert decoded[key] == payload[key]


def test_trace_ids_ride_behind_the_body():
    trace = {"trace_id": "abc123", "job_id": 42, "tenant": "alpha"}
    payload = dict(PAYLOADS["lcs"], _trace=trace)
    decoded, header = _roundtrip_payload("lcs", payload)
    assert header[J_FORMAT] == FMT_SOA
    assert decoded["_trace"] == trace
    assert decoded["x"] == payload["x"]


@pytest.mark.parametrize(
    "kernel, payload",
    [
        ("bsw", {"query": "ACGT", "target": "ACGT", "extra": 1}),
        ("bsw", {"query": "ACGTé", "target": "ACGT"}),  # non-ASCII
        ("dtw", {"a": [1.5, 2.5], "b": [1, 2]}),  # floats
        ("chain", {"anchors": [[1, 2], [3, 4]]}),  # not triples
        # Windows the AUX word cannot carry losslessly (-1 is "absent").
        ("chain", {"anchors": [[1, 2, 3]], "n": -1}),
        ("chain", {"anchors": [[1, 2, 3]], "n": True}),
        ("chain", {"anchors": [[1, 2, 3]], "n": 1 << 63}),
    ],
)
def test_inexpressible_payloads_fall_back_to_pickle(kernel, payload):
    decoded, header = _roundtrip_payload(kernel, payload)
    assert header[J_FORMAT] == FMT_PICKLE
    assert decoded == payload


def test_oversized_payload_raises_slot_overflow():
    payload = {"query": "A" * 9000, "target": "C" * 9000}
    with pytest.raises(SlotOverflowError):
        _roundtrip_payload("bsw", payload, slot_bytes=256)


RESULTS = {
    "bsw": {"score": 17, "cells": 48},
    "pairhmm": {"log10_likelihood": -3.25, "cells": 24},
    "lcs": {"length": 5, "cells": 56},
    "dtw": {"distance": 12, "cells": 20},
    "chain": {
        "scores": [3, 8, 11],
        "parents": [-1, 0, 1],
        "best_index": 2,
        "best_score": 11,
        "cells": 9,
    },
}


@pytest.mark.parametrize("kernel", sorted(RESULTS))
def test_result_roundtrip_soa(kernel):
    (ok, value, error), header = _roundtrip_result(
        kernel, True, RESULTS[kernel], None
    )
    assert ok and error is None
    assert value == RESULTS[kernel]
    assert header[3] == 1  # R_OK


def test_error_results_roundtrip():
    (ok, value, error), _ = _roundtrip_result(
        "bsw", False, None, "RuntimeError: injected job failure"
    )
    assert not ok and value is None
    assert error == "RuntimeError: injected job failure"


def test_result_side_channels_fall_back_to_pickle():
    value = dict(RESULTS["bsw"], _trace_spans=[{"name": "job:run"}])
    (ok, decoded, _), header = _roundtrip_result("bsw", True, value, None)
    assert ok
    assert header[5] == FMT_PICKLE  # R_FORMAT
    assert decoded == value


def test_every_kernel_row_has_a_codec_case():
    assert set(PAYLOADS) == set(RESULTS) == set(KERNELS)


def test_wire_format_matches_the_golden_fixture():
    """Header words and body bytes of every case, as first written by
    the per-kernel codecs the generic one replaced."""
    golden = json.loads(GOLDEN_PATH.read_text())
    assert wire_records(PAYLOADS, RESULTS) == golden


def _header(words, fields):
    header = np.zeros(fields, dtype=np.int64)
    for index, word in words.items():
        header[index] = word
    return header


PICKLED_PAYLOADS = {
    "extra-key": ("bsw", dict(PAYLOADS["bsw"], extra=1)),
    "extra-key+trace": ("dtw", dict(PAYLOADS["dtw"], extra=1, _trace={"job_id": 1})),
}
PICKLED_RESULTS = {
    "side-channel": ("bsw", True, dict(RESULTS["bsw"], _trace_spans=[{}]), None),
}


@pytest.mark.parametrize(
    "case", sorted(payload_cases(PAYLOADS)) + sorted(PICKLED_PAYLOADS)
)
def test_job_body_bytes_is_the_written_extent(case):
    kernel, payload = {**payload_cases(PAYLOADS), **PICKLED_PAYLOADS}[case]
    record = written(lambda region: encode_payload(kernel, payload, region))
    words = dict(record["words"])
    assert (words[J_FORMAT] == FMT_PICKLE) == (case in PICKLED_PAYLOADS)
    assert job_body_bytes(words) == len(record["body"]) // 2
    assert job_body_bytes(_header(words, JOB_FIELDS)) == len(record["body"]) // 2


@pytest.mark.parametrize("case", sorted(result_cases(RESULTS)) + sorted(PICKLED_RESULTS))
def test_result_body_bytes_is_the_written_extent(case):
    kernel, ok, value, error = {**result_cases(RESULTS), **PICKLED_RESULTS}[case]
    record = written(lambda region: encode_result(kernel, ok, value, error, region))
    words = dict(record["words"])
    assert (words[R_FORMAT] == FMT_PICKLE) == (case in PICKLED_RESULTS)
    assert result_body_bytes(_header(words, RESULT_FIELDS)) == len(record["body"]) // 2


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_engine_results_ride_the_fast_path(kernel):
    """A row's ``results`` schema is what its jobs return: a drift would
    silently pickle every result."""
    payload = PAYLOADS[kernel]
    if kernel == "chain":  # the compiled program folds in weight 19
        payload = {"anchors": [[x, y, 19] for x, y, _ in payload["anchors"]]}
    value = run_job(kernel, compile_program(kernel, 2, build_dfg(kernel)), payload)
    (ok, decoded, _), header = _roundtrip_result(kernel, True, value, None)
    assert header[R_FORMAT] == FMT_SOA
    assert decoded == value


def _checked(values, columns):
    """The numpy path's answer, in :func:`layout._int_run`'s shape."""
    array = layout._int_array(values, columns)
    return None if array is None else (array.shape[0], array.tobytes())


_INTS = st.integers(min_value=-(1 << 64), max_value=1 << 64)
_ELEMENTS = st.one_of(
    _INTS,
    st.booleans(),
    st.floats(min_value=-1e18, max_value=1e18),
    st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1).map(np.int64),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_ELEMENTS, max_size=12))
def test_struct_int_runs_match_the_checked_numpy_path(values):
    """The ``struct`` fast path writes the bytes numpy would, and says
    no exactly where it does (bools, floats, numpy ints, beyond int64)."""
    with np.errstate(invalid="ignore"):  # numpy casting a huge float
        assert layout._int_run(values, 1) == _checked(values, 1)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.lists(_INTS, min_size=3, max_size=3),
            st.tuples(_INTS, _INTS, _INTS),
            st.lists(st.one_of(_INTS, st.booleans()), min_size=2, max_size=4),
        ),
        max_size=8,
    )
)
def test_struct_anchor_rows_match_the_checked_numpy_path(rows):
    with np.errstate(invalid="ignore"):
        assert layout._int_run(rows, 3) == _checked(rows, 3)
