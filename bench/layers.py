"""Per-layer metrics of one traced run.

Three sources, in order of preference: the spans ``bench/trace.py``
recorded around each layer's public functions (times), the program's
own counters differenced over the timed passes (counts), and small
in-process probes for code that only ever runs inside shm worker
processes, where no span can be collected (specialized cell functions,
slot encode/decode).  A layer that did not run in a workload reports
0 for it -- which is also the check that a workload bypasses what it
claims to bypass.
"""

from __future__ import annotations

import bisect
import os
import statistics
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.engine.cache import compile_program
from repro.engine.runners import build_dfg, match_table_for, payload_cells, run_job
from repro.opt import contract_for, default_pipeline
from repro.perfmodel.throughput import DEFAULT_CYCLES_PER_CELL
from repro.serve import TransportConfig
from repro.serve.layout import (
    FMT_PICKLE,
    J_FORMAT,
    JOB_FIELDS,
    RESULT_FIELDS,
    decode_payload,
    decode_result,
    encode_payload,
    encode_result,
)
from repro.serve.warm import specialize_cell

from bench import trace
from bench.harness import Measurement, quantile
from bench.spec import ENGINE_KERNELS, SIM_KERNELS, per_layer_names
from bench.workloads import TILE_PES, JobWorkload

#: Jobs per kernel a probe times (the first ones of the workload).
_PROBE_JOBS = 3


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# ----------------------------------------------------------------------
# probes


def compile_programs(optimized: bool) -> Dict[str, Any]:
    """Each engine kernel compiled through the engine's public seam."""
    return {
        kernel: compile_program(
            kernel,
            2,
            build_dfg(kernel),
            default_pipeline(contract_for(kernel)) if optimized else None,
        )
        for kernel in ENGINE_KERNELS
    }


def _by_kernel(specs: Sequence[Tuple[str, Dict[str, Any]]]) -> Dict[str, List[Dict[str, Any]]]:
    grouped: Dict[str, List[Dict[str, Any]]] = {kernel: [] for kernel in ENGINE_KERNELS}
    for kernel, payload in specs:
        if len(grouped[kernel]) < _PROBE_JOBS:
            grouped[kernel].append(payload)
    return grouped


def cell_probe(specs, programs, specialized: bool) -> Dict[str, float]:
    """ns per DP cell of ``run_job`` on the workload's own payloads,
    with the interpreter or with the workers' specialized cell: the
    median of three timed sweeps after one untimed one."""
    measured = {}
    for kernel, payloads in _by_kernel(specs).items():
        compiled = programs[kernel]
        cell = (
            specialize_cell(compiled, match_table_for(kernel)) if specialized else None
        )
        cells = sum(payload_cells(kernel, payload) for payload in payloads)
        sweeps = []
        for _ in range(4):
            started = time.perf_counter()
            for payload in payloads:
                run_job(kernel, compiled, payload, cell)
            sweeps.append(time.perf_counter() - started)
        measured[kernel] = _ratio(statistics.median(sweeps[1:]) * 1e9, cells)
    return measured


def specialize_probe(programs) -> float:
    """Mean ms to specialize one program (a worker does it once)."""
    started = time.perf_counter()
    for kernel, compiled in programs.items():
        specialize_cell(compiled, match_table_for(kernel))
    return (time.perf_counter() - started) * 1e3 / len(programs)


def layout_probe(specs, programs) -> Dict[str, float]:
    """us per job of the slot codec, both directions, plus how many of
    the probed payloads fell back to pickle."""
    geometry = TransportConfig()
    job_region = np.zeros(geometry.slot_bytes, dtype=np.uint8)
    result_region = np.zeros(geometry.result_slot_bytes, dtype=np.uint8)
    spent = {"encode": 0.0, "decode": 0.0, "result": 0.0}
    jobs = fallbacks = 0
    for kernel, payloads in _by_kernel(specs).items():
        for payload in payloads:
            value = run_job(kernel, programs[kernel], payload)
            job_header = np.zeros(JOB_FIELDS, dtype=np.int64)
            result_header = np.zeros(RESULT_FIELDS, dtype=np.int64)
            t0 = time.perf_counter()
            words = encode_payload(kernel, payload, job_region)
            t1 = time.perf_counter()
            for field, word in words.items():
                job_header[field] = word
            t2 = time.perf_counter()
            decode_payload(job_header, job_region)
            t3 = time.perf_counter()
            words = encode_result(kernel, True, value, None, result_region)
            for field, word in words.items():
                result_header[field] = word
            decode_result(result_header, result_region)
            t4 = time.perf_counter()
            spent["encode"] += t1 - t0
            spent["decode"] += t3 - t2
            spent["result"] += t4 - t3
            fallbacks += int(job_header[J_FORMAT]) == FMT_PICKLE
            jobs += 1
    measured = {name: _ratio(seconds * 1e6, jobs) for name, seconds in spent.items()}
    measured["fallbacks"] = float(fallbacks)
    return measured


# ----------------------------------------------------------------------
# spans


def _mean_us(stats: Dict[str, trace.Stat], name: str) -> float:
    stat = stats.get(name)
    return _ratio(stat.total_s * 1e6, stat.count) if stat else 0.0


def _total(stats: Dict[str, trace.Stat], name: str) -> float:
    return stats[name].total_s if name in stats else 0.0


def _self(stats: Dict[str, trace.Stat], name: str) -> float:
    return stats[name].self_s if name in stats else 0.0


def _count(stats: Dict[str, trace.Stat], name: str) -> int:
    return stats[name].count if name in stats else 0


def _merge(*aggregates: Dict[str, trace.Stat]) -> Dict[str, trace.Stat]:
    merged: Dict[str, trace.Stat] = {}
    for aggregate in aggregates:
        for name, stat in aggregate.items():
            old = merged.get(name, trace.Stat(0, 0.0, 0.0))
            merged[name] = trace.Stat(
                old.count + stat.count,
                old.total_s + stat.total_s,
                old.self_s + stat.self_s,
            )
    return merged


def _queue_waits(rows: Sequence[List[Any]]) -> List[float]:
    """Seconds from each ``Engine.submit`` returning to the start of
    the next drain of the same engine."""
    drains: Dict[Any, List[float]] = {}
    for name, start, end, parent, tag in rows:
        if name == "engine.service.drain":
            drains.setdefault(tag, []).append(start)
    for starts in drains.values():
        starts.sort()
    waits = []
    for name, start, end, parent, tag in rows:
        if name != "engine.service.submit" or tag not in drains:
            continue
        position = bisect.bisect_left(drains[tag], end)
        if position < len(drains[tag]):
            waits.append(drains[tag][position] - end)
    return waits


def _front_end_self(requests: Sequence[List[Any]], engine_rows: Sequence[List[Any]]) -> List[float]:
    """Each client request's duration minus the part of it during
    which the server's engine was inside ``submit`` or ``drain``."""
    busy = sorted(
        (start, end)
        for name, start, end, parent, tag in engine_rows
        if name in ("engine.service.drain", "engine.service.submit")
        and parent is None
    )
    starts = [start for start, _ in busy]
    selfs = []
    for name, low, high, parent, tag in requests:
        position = max(0, bisect.bisect_right(starts, low) - 1)
        inside = 0.0
        while position < len(busy) and busy[position][0] < high:
            inside += max(0.0, min(high, busy[position][1]) - max(low, busy[position][0]))
            position += 1
        selfs.append(high - low - inside)
    return selfs


# ----------------------------------------------------------------------


def _sampled_counters(samples: Sequence[Sequence[Any]], when: float) -> Dict[str, float]:
    """The server's last counter sample taken before *when*."""
    latest: Dict[str, float] = {}
    for stamp, counters in samples:
        if stamp > when:
            break
        latest = counters
    return latest


def derive(
    workload: Any,
    m: Measurement,
    traced: List[int],
    rows: List[List[Any]],
    server: Optional[Dict[str, Any]],
    failed_share: float,
) -> Dict[str, float]:
    """Every per-layer metric of spec.PER_LAYER for one workload.

    *m* is one run whose passes with an index in *traced* ran with the
    recorder on and whose other passes ran with it off: spans come from
    the former, caller-side latencies from the latter, counters and
    CPU from both (they cannot be split by pass).
    """
    name = workload.name
    values = {metric: 0.0 for metric in per_layer_names()}
    quiet_passes = [p for i, p in enumerate(m.passes) if i not in traced]
    windows = [m.windows[i] for i in traced]
    traced_wall = sum(m.pass_s[i] for i in traced)
    wall = sum(m.pass_s)
    passes = len(m.passes)
    is_jobs = isinstance(workload, JobWorkload)
    jobs = (len(workload.specs) if is_jobs else len(SIM_KERNELS)) * len(traced)
    uses_shm = workload.workers_per_executor > 0

    timed = trace.within(rows, windows)
    stats = trace.aggregate(timed)
    before, after = m.counters
    if server is not None:
        server_timed = trace.within(server["spans"], windows)
        stats = _merge(stats, trace.aggregate(server_timed))
        samples = server["counter_samples"]
        before = {**_sampled_counters(samples, m.windows[0][0]), **before}
        after = {**_sampled_counters(samples, m.windows[-1][1]), **after}
    else:
        server_timed = []

    def delta(counter: str) -> float:
        return after.get(counter, 0.0) - before.get(counter, 0.0)

    def per_pass(counter: str) -> float:
        return _ratio(delta(counter), passes)

    values["failed_share"] = failed_share
    pooled = [lat for p in quiet_passes for lat in p.latencies]
    values["latency_p90_ms"] = quantile(pooled, 0.90) * 1e3
    # Each traced pass against the untraced passes on either side of
    # it: neighbours see the same host, so its drift cancels.
    values["bench.trace_overhead_share"] = (
        statistics.median(
            m.pass_s[i] / statistics.fmean(m.pass_s[i - 1 : i + 2 : 2])
            for i in traced
        )
        - 1.0
    )

    # --- serve front-end ------------------------------------------------
    if name == "serve_small_mixed":
        values["serve.client.latency_p99_ms"] = quantile(pooled, 0.99) * 1e3
        values["serve.client.samples"] = float(len(pooled))
        requests = [row for row in timed if row[0] == "serve.client.request"]
        selfs = _front_end_self(requests, server_timed)
        values["serve.server.self_ms_p50"] = statistics.median(selfs) * 1e3 if selfs else 0.0
        values["serve.server.drain_batch_size_mean"] = _ratio(
            delta("serve_admitted"), delta("serve_dispatches")
        )
        values["serve.server.admitted"] = per_pass("serve_admitted")
        values["serve.server.rejected"] = sum(
            delta(f"serve_rejected_{reason}")
            for reason in ("draining", "backpressure", "quota")
        )
        values["serve.admission.check_us"] = _mean_us(stats, "serve.admission.check")
        values["slo.accounting.record_us"] = _mean_us(stats, "slo.accounting.record_result")

    # --- engine -----------------------------------------------------------
    if is_jobs:
        values["engine.service.submit_us_per_job"] = _ratio(
            _self(stats, "engine.service.submit") * 1e6,
            _count(stats, "engine.service.submit"),
        )
        values["engine.service.drain_self_ms_per_job"] = _ratio(
            _self(stats, "engine.service.drain") * 1e3, jobs
        )
        waits = _queue_waits(server_timed or timed)
        values["engine.service.queue_wait_ms_p50"] = (
            statistics.median(waits) * 1e3 if waits else 0.0
        )
        values["engine.batcher.pack_us_per_job"] = _ratio(
            _total(stats, "engine.batcher.pack") * 1e6, jobs
        )
        values["engine.batcher.batches"] = per_pass("batches_total")
        values["engine.batcher.occupancy_mean"] = _ratio(
            delta("occupancy.sum"), delta("occupancy.count")
        )
        for counter in ("hits", "misses", "compiles"):
            values[f"engine.cache.{counter}"] = per_pass(f"cache.{counter}")
        values["engine.cache.lookup_us"] = _ratio(
            _self(stats, "engine.cache.get_or_compile") * 1e6,
            _count(stats, "engine.cache.get_or_compile"),
        )
        values["dfg.build_ms"] = _mean_us(stats, "dfg.build") / 1e3
        values["dpmap.compile_cell_ms"] = _mean_us(stats, "dpmap.compile_cell") / 1e3
        values["opt.pipeline_ms"] = _mean_us(stats, "opt.pipeline") / 1e3
        values["opt.instructions_eliminated"] = per_pass("opt_instructions_eliminated")
        values["guard.verifier.check_ms"] = _mean_us(stats, "guard.verifier.check") / 1e3
        values["guard.verifier.rejections"] = delta("verifier_rejections")
        values["static.certify_ms"] = _mean_us(stats, "static.certify") / 1e3
        values["static.programs_certified"] = per_pass("static_programs_certified")

        programs = compile_programs(optimized=name == "compile_cold")
        for kernel, compiled in programs.items():
            values[f"dpmap.bundles.{kernel}"] = float(len(compiled.instructions))
        if uses_shm:
            values["serve.warm.specialize_ms"] = specialize_probe(programs)
            for kernel, ns in cell_probe(workload.specs, programs, True).items():
                values[f"serve.warm.ns_per_cell.{kernel}"] = ns
            codec = layout_probe(workload.specs, programs)
            values["serve.layout.encode_us_per_job"] = codec["encode"]
            values["serve.layout.decode_us_per_job"] = codec["decode"]
            values["serve.layout.result_us_per_job"] = codec["result"]
            values["serve.layout.pickle_fallbacks"] = codec["fallbacks"]
        else:
            for kernel, ns in cell_probe(workload.specs, programs, False).items():
                values[f"engine.runners.ns_per_cell.{kernel}"] = ns
        values["engine.runners.busy_share"] = _ratio(
            _total(stats, "engine.runners.run_job"), traced_wall
        )
        values["engine.runners.cells"] = float(workload.cells)
        values["engine.executor.run_batches_self_ms_per_batch"] = _ratio(
            _self(stats, "engine.executor.run_batches") * 1e3, delta("inline_batches")
        )
        values["engine.validation.sampled"] = per_pass("validation_checked")
        values["engine.validation.reference_ms_per_job"] = (
            _mean_us(stats, "engine.validation.reference") / 1e3
        )
        values["engine.validation.mismatches"] = delta("validation_mismatches")

    # --- shm transport and workers -------------------------------------
    if uses_shm:
        in_batches = _total(stats, "serve.transport.run_batches")
        values["serve.transport.run_batches_ms_per_batch"] = _ratio(
            in_batches * 1e3, delta("parallel_batches") + delta("degraded_batches")
        )
        values["serve.transport.bytes_per_job"] = _ratio(
            delta("transport_bytes"), delta("jobs_completed")
        )
        values["serve.transport.degraded_batches"] = delta("degraded_batches")
        # Workers are the leaves of the tree: not this process, not the server.
        front = {os.getpid(), workload.server_pid}
        worker_cpu = sum(
            cpu for pid, cpu in m.cpu_by_pid.items() if pid not in front
        )
        # Worker CPU is known for the whole run only; the traced passes
        # are charged their share of it by wall time.
        values["serve.transport.wait_share"] = max(
            0.0,
            1.0
            - _ratio(
                worker_cpu * _ratio(traced_wall, wall),
                in_batches * workload.workers_per_executor,
            ),
        )
        values["serve.workers.cpu_share"] = _ratio(worker_cpu, wall)
        values["serve.workers.respawns"] = float(len(m.new_pids))

    # --- cluster and journal --------------------------------------------
    if name == "cluster_durable":
        values["cluster.router.submit_us_per_job"] = _ratio(
            _self(stats, "cluster.router.submit") * 1e6,
            _count(stats, "cluster.router.submit"),
        )
        values["cluster.router.drain_self_ms_per_round"] = _ratio(
            _self(stats, "cluster.router.drain") * 1e3,
            _count(stats, "cluster.router.drain"),
        )
        values["cluster.router.rounds"] = per_pass("cluster_drain_rounds")
        values["cluster.router.jobs_routed"] = per_pass("cluster_jobs_routed")
        values["cluster.router.jobs_stolen"] = delta("cluster_jobs_stolen")
        values["cluster.router.jobs_resubmitted"] = delta("cluster_jobs_resubmitted")
        shard_jobs = [delta(key) for key in after if key.startswith("shard.")]
        values["cluster.router.shard_imbalance"] = _ratio(
            max(shard_jobs), statistics.fmean(shard_jobs)
        )
        values["cluster.hashring.route_us"] = _mean_us(stats, "cluster.hashring.route")
        values["durable.journal.append_us_per_record"] = _ratio(
            _self(stats, "durable.journal.append") * 1e6,
            _count(stats, "durable.journal.append"),
        )
        values["durable.journal.sync_ms_per_pass"] = _ratio(
            _total(stats, "durable.journal.sync") * 1e3, len(traced)
        )
        values["durable.journal.records"] = per_pass("durable_records_appended")
        values["durable.journal.fsyncs"] = per_pass("durable_syncs")
        done = m.after
        values["durable.journal.bytes_per_job"] = _ratio(
            done["journal_bytes"], done["recovered_accepted"]
        )
        values["recover_s"] = done["recover_s"]
        values["durable.recovery.replayed_records"] = done["replayed_records"]
        values["durable.recovery.records_per_s"] = _ratio(
            done["replayed_records"], done["recover_s"]
        )
        recovery = trace.aggregate(trace.within(rows, [m.finish_window]))
        values["durable.recovery.load_state_ms"] = (
            _mean_us(recovery, "durable.recovery.load_state") / 1e3
        )

    # --- compile chain ----------------------------------------------------
    if name == "compile_cold":
        values["cold_compile_ms"] = statistics.median(pooled) * 1e3
        values["bundles_total"] = sum(
            count
            for key, count in m.passes[0].counts.items()
            if key.startswith("bundles.")
        )

    # --- simulator ----------------------------------------------------------
    if name == "dpax_tiles":
        counts = m.passes[0].counts
        host = {
            kernel: statistics.median(p.latencies[index] for p in quiet_passes)
            for index, kernel in enumerate(SIM_KERNELS)
        }
        per_cell = {}
        for kernel in SIM_KERNELS:
            cycles, cells = counts[f"cycles.{kernel}"], counts[f"cells.{kernel}"]
            per_cell[kernel] = cycles * TILE_PES[kernel] / cells
            values[f"dpax.host_us_per_cycle.{kernel}"] = host[kernel] * 1e6 / cycles
            values[f"dpax.cycles_per_cell.{kernel}"] = per_cell[kernel]
            values[f"perfmodel.error_share.{kernel}"] = (
                abs(per_cell[kernel] - DEFAULT_CYCLES_PER_CELL[kernel])
                / DEFAULT_CYCLES_PER_CELL[kernel]
            )
            built = trace.under(timed, "dpax.tile", kernel, "mapping.build")
            if kernel == "poa":  # its programs come straight from DPMap
                built = trace.under(timed, "dpax.tile", kernel, "dpmap.compile_cell")
            values[f"mapping.build_ms.{kernel}"] = _ratio(built * 1e3, len(traced))
        values["sim_cycles_per_host_s"] = sum(
            counts[f"cycles.{kernel}"] for kernel in SIM_KERNELS
        ) / sum(host.values())
        values["sim_cycles_per_cell"] = statistics.geometric_mean(per_cell.values())
        profiled = [k for k in SIM_KERNELS if f"profiled_s.{k}" in m.after]
        for kernel in profiled:
            values[f"dpax.compute_occupancy.{kernel}"] = m.after[f"occupancy.{kernel}"]
        values["dpax.profile_overhead_share"] = (
            _ratio(
                sum(m.after[f"profiled_s.{k}"] for k in profiled),
                sum(host[k] for k in profiled),
            )
            - 1.0
        )
    return values


def design_checks(
    workload: Any, values: Dict[str, float], m: Measurement,
    traced: List[int], rows: Sequence[List[Any]],
) -> Dict[str, float]:
    """The shares the issue's acceptance criteria ask the traced run to
    confirm (printed by a full run, quoted in the README)."""
    name = workload.name
    checks: Dict[str, float] = {}
    if name == "engine_inline_large":
        checks["engine.runners.busy_share"] = values["engine.runners.busy_share"]
    if name == "serve_small_mixed":
        cell_s = sum(
            payload_cells(kernel, payload)
            * values[f"serve.warm.ns_per_cell.{kernel}"]
            * 1e-9
            for kernel, payload in workload.specs
        )
        checks["cell_execution_share_of_cpu"] = _ratio(
            cell_s, statistics.median(m.pass_cpu_s)
        )
        checks["cell_execution_share_of_latency"] = _ratio(
            cell_s / len(workload.specs),
            statistics.median(statistics.median(p.latencies) for p in m.passes),
        )
    if name == "compile_cold":
        stats = trace.aggregate(trace.within(rows, [m.windows[i] for i in traced]))
        chain = sum(
            _total(stats, span)
            for span in (
                "dfg.build", "dpmap.compile_cell", "opt.pipeline",
                "guard.verifier.check", "static.certify",
            )
        )
        latency = sum(lat for i in traced for lat in m.passes[i].latencies)
        checks["compile_chain_share_of_cold_latency"] = _ratio(chain, latency)
    return checks
