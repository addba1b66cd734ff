"""The benchmark's names: workloads, metrics, bounds, predictions.

Everything else in ``bench/`` reads its names from here, and
``BENCHMARK.json`` at the repo root is :func:`benchmark_json` written
out (``bench/tests/test_smoke.py`` pins the two together).  The
driver's contract allows ``BENCHMARK.json`` only a fixed set of keys,
so what the issue also wanted machine-readable -- the default seed,
which workload a workload-specific figure belongs to, and which
end-to-end metric each layer metric is predicted to move -- lives in
the tables below instead.
"""

from __future__ import annotations

import json
from typing import Dict, List, NamedTuple, Optional, Tuple

DEFAULT_SEED = 20230617  # ISCA'23, the paper's venue
RUN_SECONDS = 15
COMMAND = ["python3", "bench/run.py"]
PATHS = ["bench"]

ENGINE_KERNELS = ("bsw", "pairhmm", "lcs", "dtw", "chain")
SIM_KERNELS = ("bsw", "pairhmm", "chain", "poa")

#: name -> one-line reason (the ``why`` of BENCHMARK.json).
WORKLOADS: Dict[str, str] = {
    "serve_small_mixed": (
        "client to gendp-serve subprocess over shm workers with small mixed "
        "jobs: per-request overhead dominates, cell execution is a minority"
    ),
    "engine_inline_large": (
        "in-process inline engine on 64x64 tables: nearly all time is "
        "engine.runners sweeping cells, serve/cluster/journal do nothing"
    ),
    "cluster_durable": (
        "two-shard ClusterRouter with a journal and sampled validation, then "
        "recovery over that journal: routing, journal writes and replay"
    ),
    "compile_cold": (
        "a fresh optimizing engine per iteration so every lookup misses: DFG, "
        "DPMap, opt passes, verifier and certifier are all the work"
    ),
    "dpax_tiles": (
        "cycle-level DPAx simulation of BSW, PairHMM, Chain and POA tiles: the "
        "only workload in repro.dpax and repro.mapping, host speed per cycle"
    ),
}


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float
    definition: str


#: Every workload reports every one of these (the driver's contract),
#: so each is defined in terms of the workload's own *operation*: one
#: request (serve), one submit_many+drain chunk (engine, cluster), one
#: first job on a cold engine (compile_cold), one tile (dpax_tiles).
#: A *job* is a DP task; compile_cold and dpax_tiles have one per
#: operation.
END_TO_END: Tuple[EndToEnd, ...] = (
    EndToEnd(
        "setup_s", "s", "lower", 0.25,
        "median of the fresh set-ups of one run (5 to 40, more of them the "
        "shorter they are), net of their steal share: spawn, warm compile, "
        "first answered operation",
    ),
    EndToEnd(
        "jobs_per_s", "jobs/s", "higher", 0.25,
        "jobs answered ok per second of a pass net of hypervisor steal; "
        "the median over the timed passes",
    ),
    EndToEnd(
        "cell_updates_per_s", "cells/s", "higher", 0.25,
        "DP cells of those jobs per second (the paper's CUPS, through the "
        "software stack), same median",
    ),
    EndToEnd(
        "latency_p50_ms", "ms", "lower", 0.25,
        "median caller-side wall time of one operation within a pass, net "
        "of the pass's steal share; the median over the timed passes",
    ),
    EndToEnd(
        "cpu_ms_per_job", "ms", "lower", 0.25,
        "user+sys CPU of the benchmark's whole process tree during a pass, "
        "per job, same median",
    ),
    EndToEnd(
        "peak_rss_mb", "MB", "lower", 0.10,
        "sum of peak resident sets over the process tree after the last pass",
    ),
)


class Layer(NamedTuple):
    name: str
    unit: str
    better: str
    #: ``metric @ workload`` pairs this is predicted to move.
    moves: Tuple[str, ...]


def _per(prefix: str, names, unit: str, better: str, moves) -> List[Layer]:
    return [Layer(f"{prefix}.{name}", unit, better, tuple(moves)) for name in names]


_SMALL = ("jobs_per_s @ serve_small_mixed", "jobs_per_s @ cluster_durable")

PER_LAYER: Tuple[Layer, ...] = tuple(
    [
        # Workload-specific figures the issue listed as end-to-end.  The
        # contract makes every workload report every end-to-end metric,
        # so these live here, under their issue names, with the bounds
        # compare.py applies in WORKLOAD_BOUNDS below.
        Layer("failed_share", "ratio", "lower", ()),
        Layer("latency_p90_ms", "ms", "lower", ()),
        Layer("recover_s", "s", "lower", ()),
        Layer("cold_compile_ms", "ms", "lower", ()),
        Layer("bundles_total", "count", "lower", ()),
        Layer("sim_cycles_per_host_s", "cycles/s", "higher", ()),
        Layer("sim_cycles_per_cell", "cycles", "lower", ()),
        Layer("serve.client.latency_p99_ms", "ms", "lower", ()),
        Layer("serve.client.samples", "count", "higher", ()),
        Layer("serve.server.self_ms_p50", "ms", "lower",
              ("latency_p50_ms @ serve_small_mixed",)),
        Layer("serve.server.drain_batch_size_mean", "jobs", "higher",
              ("jobs_per_s @ serve_small_mixed",
               "latency_p90_ms @ serve_small_mixed")),
        Layer("serve.server.admitted", "count", "higher", ()),
        Layer("serve.server.rejected", "count", "lower", ()),
        Layer("serve.admission.check_us", "us", "lower",
              ("latency_p50_ms @ serve_small_mixed",)),
        Layer("slo.accounting.record_us", "us", "lower",
              ("cpu_ms_per_job @ serve_small_mixed",)),
        Layer("engine.service.submit_us_per_job", "us", "lower", _SMALL),
        Layer("engine.service.drain_self_ms_per_job", "ms", "lower", _SMALL),
        Layer("engine.service.queue_wait_ms_p50", "ms", "lower",
              ("latency_p50_ms @ serve_small_mixed",)),
        Layer("engine.batcher.pack_us_per_job", "us", "lower", _SMALL),
        Layer("engine.batcher.batches", "count", "lower", _SMALL),
        Layer("engine.batcher.occupancy_mean", "ratio", "higher", _SMALL),
        Layer("engine.cache.hits", "count", "higher", _SMALL),
        Layer("engine.cache.misses", "count", "lower",
              ("latency_p50_ms @ compile_cold",)),
        Layer("engine.cache.compiles", "count", "lower",
              ("latency_p50_ms @ compile_cold",)),
        Layer("engine.cache.lookup_us", "us", "lower", _SMALL),
        Layer("dfg.build_ms", "ms", "lower", ("latency_p50_ms @ compile_cold",)),
        Layer("dpmap.compile_cell_ms", "ms", "lower",
              ("latency_p50_ms @ compile_cold",)),
    ]
    + _per("dpmap.bundles", ENGINE_KERNELS, "count", "lower",
           ("cell_updates_per_s @ engine_inline_large",))
    + [
        Layer("opt.pipeline_ms", "ms", "lower", ("latency_p50_ms @ compile_cold",)),
        Layer("opt.instructions_eliminated", "count", "higher",
              ("cell_updates_per_s @ engine_inline_large",)),
        Layer("guard.verifier.check_ms", "ms", "lower",
              ("latency_p50_ms @ compile_cold",)),
        Layer("guard.verifier.rejections", "count", "lower", ()),
        Layer("static.certify_ms", "ms", "lower",
              ("latency_p50_ms @ compile_cold",)),
        Layer("static.programs_certified", "count", "higher", ()),
        Layer("serve.warm.specialize_ms", "ms", "lower",
              ("setup_s @ serve_small_mixed",)),
    ]
    + _per("serve.warm.ns_per_cell", ENGINE_KERNELS, "ns", "lower",
           _SMALL + ("cpu_ms_per_job @ serve_small_mixed",))
    + _per("engine.runners.ns_per_cell", ENGINE_KERNELS, "ns", "lower",
           ("cell_updates_per_s @ engine_inline_large",
            "cpu_ms_per_job @ engine_inline_large"))
    + [
        Layer("engine.runners.busy_share", "ratio", "higher",
              ("cell_updates_per_s @ engine_inline_large",)),
        Layer("engine.runners.cells", "count", "higher", ()),
        Layer("engine.executor.run_batches_self_ms_per_batch", "ms", "lower",
              ("cell_updates_per_s @ engine_inline_large",)),
        Layer("engine.validation.sampled", "count", "lower",
              ("jobs_per_s @ cluster_durable",)),
        Layer("engine.validation.reference_ms_per_job", "ms", "lower",
              ("jobs_per_s @ cluster_durable",)),
        Layer("engine.validation.mismatches", "count", "lower", ()),
        Layer("serve.transport.run_batches_ms_per_batch", "ms", "lower",
              _SMALL + ("latency_p50_ms @ serve_small_mixed",)),
        Layer("serve.transport.bytes_per_job", "bytes", "lower", _SMALL),
        Layer("serve.transport.degraded_batches", "count", "lower", ()),
        Layer("serve.transport.wait_share", "ratio", "lower", _SMALL),
        Layer("serve.layout.encode_us_per_job", "us", "lower",
              ("cpu_ms_per_job @ serve_small_mixed",
               "cpu_ms_per_job @ cluster_durable")),
        Layer("serve.layout.decode_us_per_job", "us", "lower",
              ("cpu_ms_per_job @ serve_small_mixed",
               "cpu_ms_per_job @ cluster_durable")),
        Layer("serve.layout.result_us_per_job", "us", "lower",
              ("cpu_ms_per_job @ serve_small_mixed",
               "cpu_ms_per_job @ cluster_durable")),
        Layer("serve.layout.pickle_fallbacks", "count", "lower", ()),
        Layer("serve.workers.cpu_share", "ratio", "higher",
              ("jobs_per_s @ serve_small_mixed",)),
        Layer("serve.workers.respawns", "count", "lower", ()),
        Layer("cluster.router.submit_us_per_job", "us", "lower",
              ("jobs_per_s @ cluster_durable",)),
        Layer("cluster.router.drain_self_ms_per_round", "ms", "lower",
              ("jobs_per_s @ cluster_durable",)),
        Layer("cluster.router.rounds", "count", "lower", ()),
        Layer("cluster.router.jobs_routed", "count", "higher", ()),
        Layer("cluster.router.jobs_stolen", "count", "lower", ()),
        Layer("cluster.router.jobs_resubmitted", "count", "lower", ()),
        Layer("cluster.router.shard_imbalance", "ratio", "lower",
              ("jobs_per_s @ cluster_durable",)),
        Layer("cluster.hashring.route_us", "us", "lower",
              ("jobs_per_s @ cluster_durable",)),
        Layer("durable.journal.append_us_per_record", "us", "lower",
              ("jobs_per_s @ cluster_durable",)),
        Layer("durable.journal.sync_ms_per_pass", "ms", "lower",
              ("jobs_per_s @ cluster_durable",)),
        Layer("durable.journal.records", "count", "lower", ()),
        Layer("durable.journal.bytes_per_job", "bytes", "lower",
              ("jobs_per_s @ cluster_durable", "recover_s @ cluster_durable")),
        Layer("durable.journal.fsyncs", "count", "lower",
              ("jobs_per_s @ cluster_durable",)),
        Layer("durable.recovery.replayed_records", "count", "lower", ()),
        Layer("durable.recovery.records_per_s", "1/s", "higher",
              ("recover_s @ cluster_durable",)),
        Layer("durable.recovery.load_state_ms", "ms", "lower",
              ("recover_s @ cluster_durable",)),
    ]
    + _per("mapping.build_ms", SIM_KERNELS, "ms", "lower",
           ("jobs_per_s @ dpax_tiles",))
    + _per("dpax.host_us_per_cycle", SIM_KERNELS, "us", "lower",
           ("sim_cycles_per_host_s @ dpax_tiles", "jobs_per_s @ dpax_tiles"))
    + _per("dpax.cycles_per_cell", SIM_KERNELS, "cycles", "lower",
           ("sim_cycles_per_cell @ dpax_tiles",))
    # run_poa_row_dp has no profiling switch, so no occupancy for poa.
    + _per("dpax.compute_occupancy", SIM_KERNELS[:3], "ratio", "higher", ())
    + [Layer("dpax.profile_overhead_share", "ratio", "lower", ())]
    + _per("perfmodel.error_share", SIM_KERNELS, "ratio", "lower", ())
    + [Layer("bench.trace_overhead_share", "ratio", "lower", ())]
)

#: Bounds ``compare.py`` applies to the workload-specific layer figures
#: (``(metric, workload) -> share``); 0 means exact.  The driver does
#: not gate these, the repo's own comparisons do.
WORKLOAD_BOUNDS: Dict[Tuple[str, str], float] = {
    ("latency_p90_ms", "serve_small_mixed"): 0.25,
    ("recover_s", "cluster_durable"): 0.25,
    ("cold_compile_ms", "compile_cold"): 0.25,
    ("bundles_total", "compile_cold"): 0.0,
    ("sim_cycles_per_host_s", "dpax_tiles"): 0.25,
    ("sim_cycles_per_cell", "dpax_tiles"): 0.0,
    **{("failed_share", workload): 0.0 for workload in WORKLOADS},
}


def end_to_end_names() -> List[str]:
    return [metric.name for metric in END_TO_END]


def per_layer_names() -> List[str]:
    return [layer.name for layer in PER_LAYER]


def unit_of(name: str) -> str:
    for metric in END_TO_END + PER_LAYER:
        if metric.name == name:
            return metric.unit
    raise KeyError(name)


def direction_of(name: str) -> str:
    for metric in END_TO_END + PER_LAYER:
        if metric.name == name:
            return metric.better
    raise KeyError(name)


def bound_for(name: str, workload: str) -> Optional[float]:
    """The regression bound of *name* on *workload*, None if ungated."""
    for metric in END_TO_END:
        if metric.name == name:
            return metric.bound
    return WORKLOAD_BOUNDS.get((name, workload))


def benchmark_json() -> Dict[str, object]:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": why} for name, why in WORKLOADS.items()
        ],
        "end_to_end": [
            {
                "name": metric.name,
                "unit": metric.unit,
                "better": metric.better,
                "bound": metric.bound,
            }
            for metric in END_TO_END
        ],
        "per_layer": [
            {"name": layer.name, "unit": layer.unit, "better": layer.better}
            for layer in PER_LAYER
        ],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
