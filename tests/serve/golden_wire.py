"""Generator for ``golden_wire.json``: the shm slot wire format, pinned.

For each case, the header words a codec returns and the exact bytes it
writes into the slot's data region, as hex.  The written extent is
found without trusting any size function: the case is encoded into a
zeroed and into a 0xFF-filled region, and the bytes both agree on from
offset 0 are the ones the codec wrote.  Pickled bodies are left out
(their bytes belong to the Python version, not to this layout).
Regenerate (only for a deliberate change of the wire format) with::

    PYTHONPATH=src python -m tests.serve.golden_wire
"""

from __future__ import annotations

import json
import pathlib
from typing import Any, Callable, Dict, Mapping

import numpy as np

from repro.serve.layout import encode_payload, encode_result

GOLDEN_PATH = pathlib.Path(__file__).with_name("golden_wire.json")

_REGION_BYTES = 4096


def written(encode: Callable[[np.ndarray], Dict[int, int]]) -> Dict[str, Any]:
    """Header words and written body bytes of one ``encode(region)``."""
    regions = []
    words: Dict[int, int] = {}
    for fill in (0x00, 0xFF):
        region = np.full(_REGION_BYTES, fill, dtype=np.uint8)
        words = encode(region)
        regions.append(region)
    agree = regions[0] == regions[1]
    extent = int(np.argmin(agree)) if not agree.all() else _REGION_BYTES
    return {
        "words": [[int(index), int(value)] for index, value in sorted(words.items())],
        "body": regions[0][:extent].tobytes().hex(),
    }


def payload_cases(payloads: Mapping[str, Dict[str, Any]]) -> Dict[str, tuple]:
    cases = {kernel: (kernel, payload) for kernel, payload in payloads.items()}
    cases["chain+window"] = ("chain", dict(payloads["chain"], n=7))
    cases["bsw+markers+trace"] = (
        "bsw",
        dict(
            payloads["bsw"],
            _inject_fail=True,
            _inject_corrupt=True,
            _inject_delay_s=0.25,
            _sentinels=True,
            _trace={"trace_id": "abc123", "job_id": 42, "tenant": "alpha"},
        ),
    )
    cases["dtw+trace"] = ("dtw", dict(payloads["dtw"], _trace={"job_id": 7}))
    return cases


def result_cases(results: Mapping[str, Dict[str, Any]]) -> Dict[str, tuple]:
    cases = {kernel: (kernel, True, value, None) for kernel, value in results.items()}
    cases["chain-empty"] = (
        "chain",
        True,
        {"scores": [], "parents": [], "best_index": 0, "best_score": 0, "cells": 0},
        None,
    )
    cases["error"] = ("bsw", False, None, "RuntimeError: injected job failure")
    return cases


def wire_records(
    payloads: Mapping[str, Dict[str, Any]], results: Mapping[str, Dict[str, Any]]
) -> Dict[str, Dict[str, Any]]:
    """``"payload/<case>"`` / ``"result/<case>"`` -> :func:`written`."""
    records: Dict[str, Dict[str, Any]] = {}
    for name, (kernel, payload) in payload_cases(payloads).items():
        records[f"payload/{name}"] = written(
            lambda region: encode_payload(kernel, payload, region)
        )
    for name, (kernel, ok, value, error) in result_cases(results).items():
        records[f"result/{name}"] = written(
            lambda region: encode_result(kernel, ok, value, error, region)
        )
    return records


def main() -> int:
    from tests.serve.test_layout import PAYLOADS, RESULTS

    records = wire_records(PAYLOADS, RESULTS)
    lines = [
        f"  {json.dumps(name)}: {json.dumps(record, sort_keys=True)}"
        for name, record in sorted(records.items())
    ]
    GOLDEN_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
