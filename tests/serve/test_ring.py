"""Shared-memory rings: geometry, slot lifecycle, program table.

These tests drive the ring primitives single-process (create + attach
in the same interpreter); the multi-process protocol on top is covered
by ``test_backends.py``.
"""

import ast
import os
import pathlib

import pytest

import repro
from repro.engine.cache import compile_program
from repro.engine.runners import build_dfg
from repro.serve.layout import FREE, J_GEN, J_JOB_ID, J_STATE, READY, RUNNING
from repro.serve.ring import (
    RingCapacityError,
    RingGeometry,
    ServeSegments,
)


@pytest.fixture
def segments():
    geometry = RingGeometry(
        slots=4,
        slot_bytes=4096,
        result_slot_bytes=4096,
        max_programs=2,
        program_bytes=1 << 20,
    )
    segs = ServeSegments.create(geometry)
    try:
        yield segs
    finally:
        segs.close()


@pytest.mark.parametrize(
    "kwargs",
    [
        {"slots": 0},
        {"slot_bytes": 8},
        {"result_slot_bytes": 8},
        {"max_programs": 0},
    ],
)
def test_geometry_rejects_degenerate_shapes(kwargs):
    with pytest.raises(ValueError):
        RingGeometry(**kwargs)


def test_fresh_rings_are_all_free(segments):
    """Nothing zero-fills a new segment: the kernel hands it out
    zeroed, which is every slot FREE and an empty program table, seen
    from the owner and from an attached view."""
    attached = ServeSegments.attach(segments.geometry, segments.names)
    try:
        for view in (segments, attached):
            planes = (
                *view.jobs.rows,
                *view.jobs.regions,
                *view.results.rows,
                *view.results.regions,
                view.programs._table,
                view.programs._blob,
            )
            assert all(plane.tobytes() == bytes(plane.nbytes) for plane in planes)
            assert view.jobs.find_state(FREE) == [0, 1, 2, 3]
            assert view.results.find_state(FREE) == [0, 1, 2, 3]
            assert view.programs.count == 0
    finally:
        attached.close()


def _rss_shmem_kb():
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("RssShmem:"):
                return int(line.split()[1])
    pytest.skip("no RssShmem line in /proc/self/status")


@pytest.mark.skipif(
    not os.path.exists("/proc/self/status"), reason="needs /proc"
)
def test_create_leaves_segments_unresident():
    """Creating the default 8 MiB of segments maps no page of them."""
    before = _rss_shmem_kb()
    segs = ServeSegments.create(RingGeometry())
    try:
        assert _rss_shmem_kb() - before < 1024
    finally:
        segs.close()


def test_publish_and_state_scan(segments):
    index = segments.jobs.first(FREE)
    segments.jobs.publish(index, {J_STATE: READY, J_JOB_ID: 77})
    assert segments.jobs.find_state(READY) == [index]
    assert segments.jobs.first(READY) == index
    assert segments.jobs.rows[index][J_JOB_ID] == 77
    assert index not in segments.jobs.find_state(FREE)


def test_first_free_exhausts_then_none(segments):
    for expected in range(4):
        index = segments.jobs.first(FREE)
        assert index == expected
        segments.jobs.publish(index, {J_STATE: READY})
    assert segments.jobs.first(FREE) is None  # ring full -> backpressure


def test_slot_wraparound_bumps_generation(segments):
    """A reclaimed slot is reused with a higher generation, so late
    results for the old occupant are recognizably stale."""
    ring = segments.jobs
    for round_number in range(3):
        index = ring.first(FREE)
        assert index == 0  # always reusing the same slot
        ring.publish(index, {J_GEN: round_number, J_JOB_ID: round_number})
        # Simulate worker claim + parent reclaim (generation first,
        # state last, exactly as the transport does it).
        ring.rows[index][J_STATE] = RUNNING
        ring.rows[index][J_GEN] = round_number + 1
        ring.rows[index][J_STATE] = FREE
    assert ring.rows[0][J_GEN] == 3


def test_attach_sees_creators_writes(segments):
    attached = ServeSegments.attach(segments.geometry, segments.names)
    try:
        index = segments.jobs.first(FREE)
        segments.jobs.publish(index, {J_STATE: READY, J_JOB_ID: 123})
        assert attached.jobs.find_state(READY) == [index]
        assert attached.jobs.rows[index][J_JOB_ID] == 123
        # And the other direction: attacher writes, creator reads.
        attached.jobs.rows[index][J_STATE] = RUNNING
        assert segments.jobs.find_state(RUNNING) == [index]
    finally:
        attached.close()


def test_program_table_roundtrip_and_capacity(segments):
    compiled = compile_program("lcs", 2, build_dfg("lcs"))
    program_id, blob_bytes = segments.programs.append(compiled)
    assert program_id == 0 and blob_bytes > 0
    loaded = segments.programs.load(program_id)
    assert loaded.program_hash == compiled.program_hash
    assert loaded.instructions == compiled.instructions

    other = compile_program("dtw", 2, build_dfg("dtw"))
    segments.programs.append(other)
    with pytest.raises(RingCapacityError):  # max_programs=2
        segments.programs.append(compiled)


def test_program_table_load_unknown_id(segments):
    assert segments.programs.load(99) is None


#: The per-job path: each function here runs once (or more) per job.
PER_JOB_FUNCTIONS = {
    "repro/serve/workers.py": (
        "worker_main",
        "_claim_job",
        "_run_slot",
        "_post_result",
    ),
    "repro/serve/transport.py": (
        "ShmExecutor.run_batches",
        "ShmExecutor._publish",
        "ShmExecutor._collect",
        "ShmExecutor._release_slot",
    ),
}


def _functions(tree):
    """``name`` / ``Class.name`` -> def node, for a module's top level."""
    found = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found[node.name] = node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    found[f"{node.name}.{item.name}"] = item
    return found


@pytest.mark.parametrize("path", sorted(PER_JOB_FUNCTIONS))
def test_per_job_path_is_numpy_free(path):
    """Ring words and regions are memoryviews: the worker loop, its
    claim helpers and the parent's publish/collect name no numpy."""
    source = pathlib.Path(repro.__file__).parent.parent / path
    functions = _functions(ast.parse(source.read_text(encoding="utf-8")))
    for name in PER_JOB_FUNCTIONS[path]:
        assert name in functions, f"{path} has no {name}"
        for node in ast.walk(functions[name]):
            names = []
            if isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [alias.name for alias in node.names]
                names += [node.module or ""] if isinstance(node, ast.ImportFrom) else []
            for used in names:
                root = used.split(".")[0]
                assert root not in ("np", "numpy"), (
                    f"{name} in {path} uses {used} (line {node.lineno})"
                )
