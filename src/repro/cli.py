"""Command-line tools: compile, simulate and report.

Console scripts (installed by ``pip install -e .``):

- ``gendp-compile <kernel>`` -- run DPMap on a kernel's objective
  function and print the emitted VLIW program with its mapping
  statistics (optionally at a different reduction-tree depth).
- ``gendp-simulate <kernel>`` -- run the kernel on the cycle-level
  simulator with a random workload and report cycles/cell plus the
  projected MCUPS (cell-exactness against the reference kernels is
  checked by ``tests/mapping``, not here).
- ``gendp-report`` -- regenerate the evaluation's summary tables
  (Figure 10, Tables 2/11/12) in one shot.
- ``gendp-batch`` -- run a job stream through the batched execution
  engine (:mod:`repro.engine`) and print a throughput/metrics report;
  jobs come from a JSON spec file or a synthetic mixed workload.
  Streams are processed in chunks, so SIGINT/SIGTERM drain the chunk
  in flight and report what completed instead of dropping it.
- ``gendp-chaos`` -- run a seeded fault-injection campaign
  (:mod:`repro.faults`) against the engine and report survival
  metrics: jobs lost, corruption escapes, degraded fraction.
- ``gendp-recover`` -- operate on a write-ahead job journal
  (:mod:`repro.durable`): ``inspect`` folds and prints its state,
  ``verify`` checks the exactly-once invariants (exit 0 iff clean),
  ``compact`` folds segments into an atomic snapshot, ``replay``
  finishes a crashed run's orphans in a fresh engine, and ``chaos``
  runs a seeded crash/recovery campaign with injected disk faults.
  ``gendp-batch --journal DIR`` writes such a journal; restarting
  with ``--recover`` picks up where the crash left off.
- ``gendp-lint`` -- run the optimizer's report-only analyses
  (:mod:`repro.opt.lint`) over the compiled kernel programs and print
  structured diagnostics; fails only at error severity by default.
- ``gendp-analyze`` -- run the abstract-interpretation framework
  (:mod:`repro.static`) over the compiled kernel programs: value-range
  certification (which programs are provably sentinel-free and why the
  others are not), register-file pressure, and PE-array wavefront
  send/recv protocol analysis; text or ``--format json`` output.
- ``gendp-trace`` -- run a job stream through the engine with a
  :class:`~repro.obs.trace.TraceRecorder` attached and write the
  Chrome-trace JSON (open it in Perfetto or ``chrome://tracing``);
  ``--replay BLACKBOX`` instead converts a flight-recorder black-box
  dump (:mod:`repro.slo.flight`) into the same viewable format.
- ``gendp-metrics`` -- render a saved metrics snapshot as Prometheus
  text or JSON (``render``), or serve a live/saved snapshot over a
  stdlib HTTP scrape endpoint (``serve``; ``--slo`` attaches the
  burn-rate evaluator and a ``/slo`` endpoint).
- ``gendp-slo`` -- evaluate SLO burn rates (:mod:`repro.slo`) over a
  saved snapshot, a replayed snapshot stream, or a live scrape
  endpoint: ``check`` gates CI (``--fail-on burn``), ``report``
  prints the full objective/window state, ``watch`` polls live, and
  ``synth`` writes deterministic replay fixtures.
- ``gendp-serve`` -- run the asyncio serving tier
  (:mod:`repro.serve`): newline-delimited JSON over TCP or a Unix
  socket, per-tenant quotas, priority classes, backpressure, and
  graceful drain on SIGINT/SIGTERM; the engine underneath can use the
  shared-memory warm-worker transport (``--transport shm``) or a
  sharded cluster (``--shards N``).
- ``gendp-cluster`` -- run a seeded cluster chaos campaign
  (:mod:`repro.cluster`): N engine shards behind the consistent-hash
  router, with deterministic shard kills/hangs/partitions and an
  exactly-once survival report.

All of them are thin shells over the library; they exist so a user can
poke the framework without writing Python.
"""

from __future__ import annotations

import argparse
import random
import signal
import sys
from typing import List, Optional, Tuple

from repro.dfg.kernels import KERNEL_DFGS

SIMULATABLE = ("bsw", "pairhmm", "lcs", "dtw", "chain", "poa", "bellman_ford")


def _pipe_safe(main):
    """Exit quietly when stdout/stderr close early (``gendp-report | head``).

    A BrokenPipeError can surface from either stream (argparse and
    warnings write to stderr), and flushing during cleanup can raise it
    again; every step is therefore individually guarded, and the exit
    goes through ``os._exit`` so no interpreter-shutdown flush of the
    dead pipe can traceback after us.
    """

    def wrapped(argv: Optional[List[str]] = None) -> int:
        try:
            return main(argv)
        except BrokenPipeError:
            import os

            for stream in (sys.stdout, sys.stderr):
                try:
                    stream.flush()
                except Exception:
                    pass
                try:
                    stream.close()
                except Exception:
                    pass
            os._exit(0)

    return wrapped


def _kernel_list(text: str) -> Tuple[str, ...]:
    """``--kernels a,b,c`` -> ``("a", "b", "c")`` (argparse ``type=``)."""
    return tuple(k.strip() for k in text.split(",") if k.strip())


def _reject_unknown_kernels(parser, kernels, known) -> None:
    unknown = [k for k in kernels or () if k not in known]
    if unknown:
        parser.error(f"unknown kernels {unknown}; choose from {list(known)}")


def _emit_report(report, args, label: str, ok: bool) -> int:
    """The shared tail of the campaign front-ends: write ``--report-out``
    (where the command has it), print canonical JSON or the rendered
    summary, and turn the verdict into the exit code."""
    report_out = getattr(args, "report_out", None)
    if report_out:
        with open(report_out, "w", encoding="utf-8") as handle:
            handle.write(report.to_json())
        print(f"wrote {label} report to {report_out}")
    if args.json:
        sys.stdout.write(report.to_json())
    else:
        print(report.render())
    return 0 if ok else 1


# ----------------------------------------------------------------------
# gendp-compile


@_pipe_safe
def compile_main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="gendp-compile",
        description="Map a DP objective function onto GenDP compute units.",
    )
    parser.add_argument("kernel", choices=sorted(KERNEL_DFGS))
    parser.add_argument(
        "--levels",
        type=int,
        default=2,
        choices=(1, 2, 3),
        help="reduction-tree depth (2 = the hardware; 1/3 = Table 2 study)",
    )
    parser.add_argument(
        "--stats-only", action="store_true", help="skip the instruction listing"
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print the optimizer's before/after cost model (2-level only)",
    )
    args = parser.parse_args(argv)
    if args.stats and args.levels != 2:
        parser.error("--stats requires --levels 2 (the only depth with codegen)")

    dfg = KERNEL_DFGS[args.kernel]()
    if args.levels == 2:
        from repro.dpmap.codegen import compile_cell

        program = compile_cell(dfg)
        stats = program.mapping.stats
    else:
        from repro.dpmap.mapper import run_dpmap

        program = None
        stats = run_dpmap(dfg, levels=args.levels).stats

    print(f"kernel            : {args.kernel}")
    print(f"operators         : {dfg.operator_count()}")
    print(f"tree depth        : {args.levels}")
    print(f"CU subgraphs      : {stats.component_count}")
    print(f"VLIW bundles/cell : {stats.instructions_per_cell}")
    print(f"RF accesses/cell  : {stats.rf_accesses}")
    print(f"CU utilization    : {stats.cu_utilization:.1%}")
    if args.stats and program is not None:
        from repro.opt import contract_for, cost_of, default_pipeline

        outcome = default_pipeline(contract_for(args.kernel)).run(program)
        before, after = cost_of(program), cost_of(outcome.program)
        print()
        print("optimizer cost model (before -> after):")
        print(f"  bundles/cell    : {before.instructions} -> {after.instructions}")
        print(f"  ways            : {before.ways} -> {after.ways}")
        print(f"  ALU ops         : {before.alu_ops} -> {after.alu_ops}")
        print(f"  RF reads        : {before.rf_reads} -> {after.rf_reads}")
        print(f"  RF writes       : {before.rf_writes} -> {after.rf_writes}")
        print(f"  registers       : {before.register_count} -> {after.register_count}")
        print(f"  peak live regs  : {before.peak_live} -> {after.peak_live}")
        print(f"  critical path   : {before.critical_path} -> {after.critical_path}")
        program = outcome.program
    if program is not None and not args.stats_only:
        print()
        print("compute program:")
        for index, bundle in enumerate(program.instructions):
            print(f"  [{index}] {bundle.text()}")
    return 0


# ----------------------------------------------------------------------
# gendp-simulate


@_pipe_safe
def simulate_main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="gendp-simulate",
        description="Run a kernel on the cycle-level DPAx simulator.",
    )
    parser.add_argument("kernel", choices=SIMULATABLE)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    from repro.perfmodel.throughput import measure_cycles_per_cell
    from repro.dpax.machine import CLOCK_HZ

    cycles_per_cell = measure_cycles_per_cell(args.kernel, seed=args.seed)
    mcups = 64 * CLOCK_HZ / cycles_per_cell / 1e6
    print(f"kernel              : {args.kernel}")
    print(f"cycles/cell (per PE): {cycles_per_cell:.1f}")
    print(f"projected MCUPS     : {mcups:,.0f} (64 PEs @ 2 GHz, 1 lane)")
    print("validation          : see tests/mapping (cell-exact vs reference)")
    return 0


# ----------------------------------------------------------------------
# gendp-report


@_pipe_safe
def report_main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="gendp-report",
        description="Regenerate the evaluation's summary tables.",
    )
    parser.parse_args(argv)

    from repro.analysis.isa_comparison import average_reduction, isa_comparison
    from repro.analysis.report import render_table
    from repro.analysis.speedups import headline_speedups, speedup_rollup
    from repro.analysis.utilization import vliw_utilization
    from repro.perfmodel.scaling import tile_scaling_study

    kernels = {k: KERNEL_DFGS[k]() for k in ("bsw", "pairhmm", "poa", "chain")}

    rows = speedup_rollup()
    print(
        render_table(
            "Figure 10(a): normalized throughput (MCUPS/mm^2)",
            ["kernel", "CPU", "GPU", "GenDP", "vs CPU", "vs GPU"],
            [
                [
                    k,
                    r.cpu_norm_mcups_mm2,
                    r.gpu_mcups_mm2,
                    r.gendp_norm_mcups_mm2,
                    f"{r.speedup_vs_cpu:.0f}x",
                    f"{r.speedup_vs_gpu:.0f}x",
                ]
                for k, r in rows.items()
            ],
        )
    )
    headlines = headline_speedups(rows)
    print(
        f"\nheadlines: {headlines['speedup_vs_cpu_per_mm2']:.0f}x vs CPU, "
        f"{headlines['speedup_vs_gpu_per_mm2']:.0f}x vs GPU, "
        f"{headlines['throughput_per_watt_vs_gpu']:.1f}x per Watt "
        f"(paper: 132x / 157.8x / 15.1x)\n"
    )

    utils = vliw_utilization(kernels)
    print(
        render_table(
            "Table 11: VLIW utilization",
            ["kernel", "utilization"],
            [[k, f"{v:.1%}"] for k, v in utils.items()],
        )
    )
    print()

    reductions = average_reduction(isa_comparison(kernels))
    print(
        f"Figure 10(d): instruction reduction {reductions['riscv64']:.1f}x vs "
        f"riscv64, {reductions['x86_64']:.1f}x vs x86-64 (paper: 8.1x / 4.0x)"
    )
    print()

    study = tile_scaling_study(tiles=64)
    print(
        f"Table 12: 64 tiles = {study.total_area_mm2:.1f} mm^2, "
        f"{study.raw_gcups:.0f} GCUPS raw, {study.speedup:.2f}x the A100 "
        f"(paper: 44.3 mm^2, 297.5 GCUPS, 6.17x)"
    )
    return 0


# ----------------------------------------------------------------------
# gendp-batch


def _synthesize_jobs(kernels: List[str], count: int, seed: int) -> List:
    """A mixed job stream shaped like the paper's workloads."""
    import random

    from repro.engine.jobs import make_job
    from repro.seq.alphabet import random_sequence

    rng = random.Random(seed)
    pools = {}
    per_kernel = count // len(kernels) + 1
    for kernel in kernels:
        payloads = []
        if kernel == "bsw":
            from repro.workloads.reads import generate_bsw_workload

            workload = generate_bsw_workload(
                count=per_kernel, query_length=32, target_length=24, seed=seed
            )
            payloads = [
                {"query": pair.query, "target": pair.target}
                for pair in workload.pairs
            ]
        elif kernel == "pairhmm":
            from repro.workloads.haplotypes import generate_pairhmm_workload

            workload = generate_pairhmm_workload(
                regions=per_kernel // 4 + 1,
                reads_per_region=2,
                haplotypes_per_region=2,
                read_length=24,
                haplotype_length=16,
                seed=seed,
            )
            payloads = [
                {"read": pair.read, "haplotype": pair.haplotype}
                for pair in workload.pairs
            ]
        elif kernel == "chain":
            from repro.workloads.anchors import generate_chain_workload

            workload = generate_chain_workload(
                tasks=per_kernel, anchors_per_task=48, seed=seed
            )
            payloads = [
                {"anchors": [[a.x, a.y, a.w] for a in task.anchors]}
                for task in workload.tasks
            ]
        elif kernel == "lcs":
            payloads = [
                {"x": random_sequence(24, rng), "y": random_sequence(16, rng)}
                for _ in range(per_kernel)
            ]
        elif kernel == "dtw":
            payloads = [
                {
                    "a": [rng.randint(0, 50) for _ in range(24)],
                    "b": [rng.randint(0, 50) for _ in range(16)],
                }
                for _ in range(per_kernel)
            ]
        else:
            raise SystemExit(f"gendp-batch cannot synthesize kernel {kernel!r}")
        pools[kernel] = payloads

    jobs = []
    index = 0
    while len(jobs) < count:
        kernel = kernels[index % len(kernels)]
        pool = pools[kernel]
        if pool:
            jobs.append(make_job(kernel, pool.pop(0)))
        index += 1
    return jobs


def _load_spec_jobs(path: str) -> List:
    """Jobs from a JSON spec: {"jobs": [{"kernel", "payload", ...}]}."""
    import json

    from repro.engine.jobs import make_job

    from repro.engine.jobs import JobValidationError

    try:
        with open(path, "r", encoding="utf-8") as handle:
            spec = json.load(handle)
    except OSError as error:
        raise SystemExit(f"cannot read spec {path!r}: {error}")
    except json.JSONDecodeError as error:
        raise SystemExit(f"spec {path!r} is not valid JSON: {error}")
    jobs = []
    for index, entry in enumerate(spec.get("jobs", [])):
        try:
            jobs.append(
                make_job(
                    entry["kernel"],
                    entry["payload"],
                    priority=int(entry.get("priority", 0)),
                    deadline_s=entry.get("deadline_s"),
                )
            )
        except (KeyError, TypeError, JobValidationError) as error:
            raise SystemExit(f"spec {path!r} job #{index}: {error}")
    if not jobs:
        raise SystemExit(f"spec {path!r} contains no jobs")
    return jobs


class _ShutdownFlag:
    """Latches the first SIGINT/SIGTERM so a drain can finish cleanly."""

    def __init__(self) -> None:
        self.signum: Optional[int] = None

    def trip(self, signum, frame) -> None:  # signal-handler signature
        self.signum = signum

    @property
    def tripped(self) -> bool:
        return self.signum is not None


class _graceful_shutdown:
    """Install SIGINT/SIGTERM latches for the duration of a stream.

    Works as a context manager; restores the previous handlers on the
    way out.  Installation failures (non-main thread, exotic runtimes)
    are tolerated -- the flag then simply never trips.
    """

    def __init__(self) -> None:
        self.flag = _ShutdownFlag()
        self._previous: dict = {}

    def __enter__(self) -> _ShutdownFlag:
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                self._previous[signum] = signal.signal(signum, self.flag.trip)
            except (ValueError, OSError):
                pass
        return self.flag

    def __exit__(self, *exc_info) -> None:
        for signum, handler in self._previous.items():
            try:
                signal.signal(signum, handler)
            except (ValueError, OSError):
                pass


@_pipe_safe
def batch_main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="gendp-batch",
        description="Run a job stream through the batched execution engine.",
    )
    parser.add_argument(
        "--jobs", type=int, default=50, help="synthetic job count"
    )
    parser.add_argument(
        "--kernels",
        type=_kernel_list,
        default="bsw,chain,pairhmm",
        help="comma-separated engine kernels for the synthetic stream",
    )
    parser.add_argument(
        "--spec", help="JSON job-spec file (overrides --jobs/--kernels)"
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=4,
        help="worker processes (0 = in-process execution)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--cache-size", type=int, default=32)
    parser.add_argument("--timeout", type=float, default=30.0)
    parser.add_argument(
        "--chunk",
        type=int,
        default=256,
        help="jobs per drain (the SIGINT/SIGTERM and --fail-fast grain)",
    )
    parser.add_argument(
        "--fail-fast",
        action="store_true",
        help="stop submitting after the first chunk containing a failure",
    )
    parser.add_argument(
        "--no-validate",
        action="store_true",
        help="skip the reference-kernel validation pass",
    )
    parser.add_argument(
        "--json", action="store_true", help="dump the metrics snapshot as JSON"
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help=(
            "write the final metrics snapshot (with derived histogram "
            "quantiles) as JSON to PATH"
        ),
    )
    parser.add_argument(
        "--journal",
        metavar="DIR",
        default=None,
        help=(
            "write-ahead journal directory: jobs are journaled before "
            "execution so a killed run can be finished with --recover"
        ),
    )
    parser.add_argument(
        "--fsync",
        choices=("always", "interval", "never"),
        default="interval",
        help="journal fsync policy (with --journal)",
    )
    parser.add_argument(
        "--recover",
        action="store_true",
        help=(
            "replay the journal before submitting: completed jobs are "
            "deduplicated, orphans of the crashed run re-execute"
        ),
    )
    args = parser.parse_args(argv)
    if args.workers < 0:
        parser.error("--workers must be non-negative")
    if args.jobs < 0:
        parser.error("--jobs must be non-negative")
    if args.chunk <= 0:
        parser.error("--chunk must be positive")
    if args.recover and not args.journal:
        parser.error("--recover requires --journal")

    import time as _time

    from repro.analysis.report import render_table
    from repro.engine import Engine, EngineConfig
    from repro.engine.runners import matches_reference, payload_cells

    if args.spec:
        jobs = _load_spec_jobs(args.spec)
    else:
        if not args.kernels:
            raise SystemExit("--kernels must name at least one kernel")
        jobs = _synthesize_jobs(args.kernels, args.jobs, args.seed)
    by_id = {job.job_id: job for job in jobs}

    durability = None
    if args.journal:
        from repro.durable import DurabilityConfig

        durability = DurabilityConfig(
            dir_path=args.journal, fsync=args.fsync
        )

    config = EngineConfig(
        max_queue=max(len(jobs), 1),
        cache_capacity=args.cache_size,
        workers=args.workers,
        job_timeout_s=args.timeout,
        durability=durability,
    )
    results: list = []
    recovery = None
    failed_fast = False
    started = _time.perf_counter()
    with Engine(config) as engine, _graceful_shutdown() as shutdown:
        if args.recover:
            recovery = engine.recover()
            results.extend(recovery.drained)
            results.extend(engine.drain())
        for start in range(0, len(jobs), args.chunk):
            if shutdown.tripped:
                break
            engine.submit_many(jobs[start : start + args.chunk])
            chunk_results = engine.drain()
            results.extend(chunk_results)
            if args.fail_fast and any(not r.ok for r in chunk_results):
                failed_fast = True
                break
        snapshot = engine.snapshot()
    elapsed = _time.perf_counter() - started
    interrupted = shutdown.signum

    if args.metrics_out:
        from repro.obs.export import snapshot_json

        with open(args.metrics_out, "w", encoding="utf-8") as handle:
            handle.write(snapshot_json(snapshot))
            handle.write("\n")

    validated = failed = foreign = 0
    per_kernel: dict = {}
    total_cells = 0
    for result in results:
        # Recovered orphans belong to the *crashed* run's stream, so
        # they have no job spec here -- count the envelope, skip the
        # cell accounting and the reference validation.
        job = by_id.get(result.job_id)
        row = per_kernel.setdefault(result.kernel, {"jobs": 0, "ok": 0, "valid": 0})
        row["jobs"] += 1
        if job is not None:
            total_cells += payload_cells(job.kernel, job.payload)
        else:
            foreign += 1
        if not result.ok:
            failed += 1
            continue
        row["ok"] += 1
        if args.no_validate or job is None:
            continue
        if matches_reference(result.kernel, result.value, job.payload):
            row["valid"] += 1
            validated += 1

    if args.json:
        import json

        snapshot["wall_seconds"] = elapsed
        snapshot["jobs_drained"] = len(results)
        if interrupted is not None:
            snapshot["interrupted_by_signal"] = interrupted
        if recovery is not None:
            snapshot["recovery"] = recovery.to_dict()
        print(json.dumps(snapshot, indent=2, default=str))
    else:
        print(
            render_table(
                "gendp-batch: job stream summary",
                ["kernel", "jobs", "ok", "validated"],
                [
                    [kernel, row["jobs"], row["ok"],
                     "-" if args.no_validate else row["valid"]]
                    for kernel, row in sorted(per_kernel.items())
                ],
            )
        )
        cache = snapshot["cache"]
        counters = snapshot["counters"]
        print()
        if interrupted is not None:
            print(
                f"shutdown            : signal {interrupted}, drained "
                f"{len(results)}/{len(jobs)} jobs before exit"
            )
        if failed_fast:
            print(
                f"fail-fast           : stopped after {len(results)}/"
                f"{len(jobs)} jobs (first failing chunk)"
            )
        if recovery is not None:
            print(
                f"recovery            : {recovery.replayed_records} "
                f"records replayed, {recovery.orphans_resubmitted} "
                f"orphans re-executed, {recovery.completions_deduped} "
                f"completions deduplicated"
            )
        print(f"jobs/sec            : {len(results) / elapsed:,.1f}")
        print(f"cells/sec           : {total_cells / elapsed:,.0f}")
        print(f"DPMap compiles      : {cache['compiles']}")
        print(f"cache hit rate      : {cache['hit_rate']:.1%}")
        print(
            f"batches             : {counters.get('batches_total', 0)} "
            f"({counters.get('parallel_batches', 0)} parallel, "
            f"{counters.get('inline_batches', 0)} inline)"
        )
        print(
            f"degraded batches    : {counters.get('degraded_batches', 0)} "
            f"({counters.get('batch_retries', 0)} retries, "
            f"{counters.get('dead_letters', 0)} dead letters)"
        )
        print(
            "mean batch occupancy: "
            f"{snapshot['derived']['mean_batch_occupancy']:.1%}"
        )
        queue_wait = snapshot["histograms"].get("queue_wait_s")
        if queue_wait:
            print(f"mean queue wait     : {queue_wait['mean'] * 1e3:.2f} ms")
        execute = snapshot["histograms"].get("execute_s")
        if execute:
            print(f"mean batch execute  : {execute['mean'] * 1e3:.2f} ms")
        if not args.no_validate:
            checkable = len(results) - failed - foreign
            verdict = "PASS" if validated == checkable and not failed else "FAIL"
            print(f"validation          : {validated}/{checkable} vs reference kernels [{verdict}]")

    if interrupted is not None:
        return 128 + interrupted
    if failed or (not args.no_validate and validated + foreign != len(results)):
        return 1
    return 0


# ----------------------------------------------------------------------
# gendp-chaos


@_pipe_safe
def chaos_main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="gendp-chaos",
        description=(
            "Run a seeded fault-injection campaign against the execution "
            "engine and report survival metrics."
        ),
    )
    parser.add_argument("--jobs", type=int, default=200, help="campaign size")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--kernels",
        type=_kernel_list,
        default="bsw,lcs,dtw,chain",
        help="comma-separated engine kernels for the stream",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes (0 disables the worker-only fault classes)",
    )
    parser.add_argument("--chunk", type=int, default=48, help="jobs per drain")
    parser.add_argument("--timeout", type=float, default=0.15)
    parser.add_argument("--crash-rate", type=float, default=0.03)
    parser.add_argument("--hang-rate", type=float, default=0.01)
    parser.add_argument("--corrupt-rate", type=float, default=0.05)
    parser.add_argument("--fail-rate", type=float, default=0.02)
    parser.add_argument("--compile-fail-rate", type=float, default=0.10)
    parser.add_argument(
        "--validate-fraction",
        type=float,
        default=1.0,
        help="fraction of ok results re-checked against the oracle",
    )
    parser.add_argument(
        "--burst-every",
        type=int,
        default=0,
        help="every Nth chunk submits a queue-pressure burst (0 = off)",
    )
    parser.add_argument(
        "--no-replay",
        action="store_true",
        help="skip the dead-letter replay rounds",
    )
    parser.add_argument(
        "--json", action="store_true", help="dump the campaign report as JSON"
    )
    args = parser.parse_args(argv)

    from repro.faults import ChaosConfig, run_campaign

    try:
        config = ChaosConfig(
            jobs=args.jobs,
            seed=args.seed,
            kernels=args.kernels,
            workers=args.workers,
            chunk_jobs=args.chunk,
            job_timeout_s=args.timeout,
            crash_rate=args.crash_rate,
            hang_rate=args.hang_rate,
            corrupt_rate=args.corrupt_rate,
            fail_rate=args.fail_rate,
            compile_fail_rate=args.compile_fail_rate,
            validate_fraction=args.validate_fraction,
            replay_rounds=0 if args.no_replay else 2,
            burst_every=args.burst_every,
        )
    except ValueError as error:
        parser.error(str(error))

    report = run_campaign(config)
    return _emit_report(report, args, "chaos", report.survived)


# ----------------------------------------------------------------------
# gendp-recover


def _journal_summary(dir_path: str):
    """Fold *dir_path*'s journal read-only -> (state, summary dict)."""
    from repro.durable import load_journal_state

    state, issues = load_journal_state(dir_path)
    summary = {
        "segments": issues["segments"],
        "snapshot_loaded": issues["snapshot_loaded"],
        "snapshot_corrupt": issues["snapshot_corrupt"],
        "records_replayed": state.replayed_records,
        "max_seq": state.max_seq,
        "accepted": len(state.accepted),
        "completed": len(state.completed),
        "dead_lettered": len(state.dead),
        "orphans": len(state.orphans()),
        "duplicate_completions": state.duplicate_completions,
        "corrupt_frames": issues["corrupt_frames"],
        "skipped_bytes": issues["skipped_bytes"],
    }
    return state, summary


def _print_summary(summary: dict) -> None:
    width = max(len(key) for key in summary)
    for key, value in summary.items():
        print(f"  {key:<{width}} : {value}")


@_pipe_safe
def recover_main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="gendp-recover",
        description=(
            "Operate on a write-ahead job journal (repro.durable): "
            "inspect or verify its folded state, compact it into an "
            "atomic snapshot, replay a crashed run's orphans, or run "
            "a seeded crash/recovery chaos campaign."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    inspect = sub.add_parser(
        "inspect", help="fold the journal and print its state"
    )
    inspect.add_argument("journal", metavar="DIR")
    inspect.add_argument("--json", action="store_true")

    verify = sub.add_parser(
        "verify",
        help="exit nonzero unless the exactly-once invariants hold",
    )
    verify.add_argument("journal", metavar="DIR")
    verify.add_argument(
        "--strict",
        action="store_true",
        help=(
            "also fail on orphans, corrupt frames and a corrupt "
            "snapshot (a healthy *finished* run has none of them)"
        ),
    )
    verify.add_argument("--json", action="store_true")

    compact = sub.add_parser(
        "compact", help="fold the segments into an atomic snapshot"
    )
    compact.add_argument("journal", metavar="DIR")

    replay = sub.add_parser(
        "replay",
        help="recover into a fresh engine and finish the orphans",
    )
    replay.add_argument("journal", metavar="DIR")
    replay.add_argument(
        "--workers", type=int, default=0, help="worker processes"
    )
    replay.add_argument("--timeout", type=float, default=30.0)
    replay.add_argument("--json", action="store_true")

    chaos = sub.add_parser(
        "chaos",
        help=(
            "seeded crash/recovery campaign with injected disk "
            "faults (journal in a temp dir)"
        ),
    )
    chaos.add_argument("--jobs", type=int, default=120)
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument(
        "--kernels",
        type=_kernel_list,
        default="bsw,lcs,dtw,chain",
        help="comma-separated engine kernels for the stream",
    )
    chaos.add_argument("--chunk", type=int, default=24, help="jobs per drain")
    chaos.add_argument("--crash-rate", type=float, default=0.25)
    chaos.add_argument("--torn-rate", type=float, default=0.05)
    chaos.add_argument("--bitflip-rate", type=float, default=0.05)
    chaos.add_argument("--short-fsync-rate", type=float, default=0.0)
    chaos.add_argument("--fail-rate", type=float, default=0.0)
    chaos.add_argument(
        "--fsync", choices=("always", "interval", "never"), default="interval"
    )
    chaos.add_argument(
        "--compact-every",
        type=int,
        default=0,
        help="compact after every Nth surviving chunk (0 = off)",
    )
    chaos.add_argument(
        "--report-out",
        metavar="PATH",
        default=None,
        help="write the canonical JSON report (byte-identical per seed)",
    )
    chaos.add_argument("--json", action="store_true")

    args = parser.parse_args(argv)
    import json as _json
    import os as _os

    if args.command == "chaos":
        from repro.durable import RecoveryChaosConfig, run_recovery_campaign

        try:
            config = RecoveryChaosConfig(
                jobs=args.jobs,
                seed=args.seed,
                kernels=args.kernels,
                chunk_jobs=args.chunk,
                crash_rate=args.crash_rate,
                torn_rate=args.torn_rate,
                bitflip_rate=args.bitflip_rate,
                short_fsync_rate=args.short_fsync_rate,
                fail_rate=args.fail_rate,
                fsync=args.fsync,
                compact_every=args.compact_every,
            )
        except ValueError as error:
            parser.error(str(error))
        report = run_recovery_campaign(config)
        return _emit_report(report, args, "recovery", report.survived)

    if not _os.path.isdir(args.journal):
        parser.error(f"{args.journal!r} is not a journal directory")

    if args.command == "inspect":
        _state, summary = _journal_summary(args.journal)
        if args.json:
            print(_json.dumps(summary, indent=2, sort_keys=True))
        else:
            print(f"gendp-recover: journal state for {args.journal}")
            _print_summary(summary)
        return 0

    if args.command == "verify":
        _state, summary = _journal_summary(args.journal)
        problems = []
        if summary["duplicate_completions"]:
            problems.append(
                f"{summary['duplicate_completions']} duplicate "
                f"completion record(s) -- exactly-once violated"
            )
        if args.strict:
            if summary["orphans"]:
                problems.append(
                    f"{summary['orphans']} orphan(s) -- accepted jobs "
                    f"without a terminal record"
                )
            if summary["corrupt_frames"]:
                problems.append(
                    f"{summary['corrupt_frames']} corrupt frame run(s) "
                    f"({summary['skipped_bytes']} bytes discarded)"
                )
            if summary["snapshot_corrupt"]:
                problems.append("snapshot is corrupt")
        if args.json:
            document = dict(summary, problems=problems, ok=not problems)
            print(_json.dumps(document, indent=2, sort_keys=True))
        else:
            print(f"gendp-recover: verifying {args.journal}")
            _print_summary(summary)
            for problem in problems:
                print(f"  FAIL: {problem}")
            print(f"  verdict: {'FAIL' if problems else 'OK'}")
        return 1 if problems else 0

    if args.command == "compact":
        import glob as _glob

        from repro.durable import DurabilityConfig, Journal

        pattern = _os.path.join(args.journal, "journal-*.seg")
        before = len(_glob.glob(pattern))
        journal = Journal(DurabilityConfig(dir_path=args.journal))
        try:
            journal.compact()
        finally:
            journal.close()
        after = len(_glob.glob(pattern))
        print(
            f"compacted {args.journal}: {before} segment(s) -> "
            f"snapshot + {after} fresh segment(s)"
        )
        return 0

    # replay: recover into a fresh engine and drain the orphans.
    from repro.durable import DurabilityConfig
    from repro.engine import Engine, EngineConfig

    _state, summary = _journal_summary(args.journal)
    config = EngineConfig(
        max_queue=max(summary["orphans"], 1),
        workers=args.workers,
        job_timeout_s=args.timeout,
        durability=DurabilityConfig(dir_path=args.journal),
    )
    with Engine(config) as engine:
        report = engine.recover()
        drained = list(report.drained)
        drained.extend(engine.drain())
    ok = sum(1 for result in drained if result.ok)
    if args.json:
        document = report.to_dict()
        document["drained_ok"] = ok
        document["drained_failed"] = len(drained) - ok
        print(_json.dumps(document, indent=2, sort_keys=True))
    else:
        print(f"gendp-recover: replayed {args.journal}")
        _print_summary(report.to_dict())
        print(
            f"  drained {len(drained)} envelope(s) "
            f"({ok} ok, {len(drained) - ok} failed)"
        )
    return 0 if report.duplicate_completions == 0 else 1


# ----------------------------------------------------------------------
# gendp-guard


@_pipe_safe
def guard_main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="gendp-guard",
        description=(
            "Differential-fuzz the compiled kernels against their "
            "reference implementations, with static program "
            "verification and numerical sentinels.  Exit 0 iff clean."
        ),
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--jobs-per-kernel",
        type=int,
        default=25,
        help="differential cases per kernel",
    )
    parser.add_argument(
        "--kernels",
        type=_kernel_list,
        default=None,
        help="comma-separated kernel subset (default: all six)",
    )
    parser.add_argument(
        "--probes-per-cell",
        type=int,
        default=3,
        help="random verify_program probes per cell program",
    )
    parser.add_argument(
        "--checkpoint",
        default=None,
        help=(
            "JSON checkpoint path; an interrupted campaign re-run with "
            "the same config resumes from it"
        ),
    )
    parser.add_argument(
        "--checkpoint-every",
        type=int,
        default=10,
        help="cases between checkpoint writes",
    )
    parser.add_argument(
        "--max-cases",
        type=int,
        default=None,
        help="stop after N differential cases this run (for testing resume)",
    )
    parser.add_argument(
        "--json", action="store_true", help="dump the campaign report as JSON"
    )
    args = parser.parse_args(argv)

    from repro.guard import DIFF_KERNELS, GuardConfig, run_guard_campaign

    kernels = args.kernels or DIFF_KERNELS
    _reject_unknown_kernels(parser, kernels, DIFF_KERNELS)
    if args.jobs_per_kernel <= 0:
        parser.error("--jobs-per-kernel must be positive")

    config = GuardConfig(
        seed=args.seed,
        jobs_per_kernel=args.jobs_per_kernel,
        kernels=kernels,
        probes_per_cell=args.probes_per_cell,
        checkpoint_every=args.checkpoint_every,
    )
    report = run_guard_campaign(
        config, checkpoint_path=args.checkpoint, max_cases=args.max_cases
    )
    # A partial run by request passes; the verdict comes from the finish.
    partial = args.max_cases is not None and report.total_cases < (
        len(kernels) * args.jobs_per_kernel
    )
    return _emit_report(report, args, "guard", partial or report.clean)


# ----------------------------------------------------------------------
# gendp-lint


@_pipe_safe
def lint_main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="gendp-lint",
        description=(
            "Run the optimizer's report-only analyses over the compiled "
            "kernel programs.  Exit 0 unless a finding reaches the "
            "--fail-on severity (default: error)."
        ),
    )
    parser.add_argument(
        "--kernels",
        type=_kernel_list,
        default=None,
        help="comma-separated kernel subset (default: all six)",
    )
    parser.add_argument(
        "--fail-on",
        choices=("info", "warning", "error"),
        default="error",
        help="lowest severity that fails the run",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="dump the report as JSON (same as --format json)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report rendering (default: text)",
    )
    args = parser.parse_args(argv)

    from repro.diagnostics import Severity
    from repro.guard.diff import DIFF_KERNELS
    from repro.opt import run_lint

    kernels = args.kernels or None
    _reject_unknown_kernels(parser, kernels, DIFF_KERNELS)

    report = run_lint(kernels)
    if args.json or args.format == "json":
        import json

        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.render())
    return report.exit_code(Severity.from_label(args.fail_on))


# ----------------------------------------------------------------------
# gendp-analyze


@_pipe_safe
def analyze_main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="gendp-analyze",
        description=(
            "Run the abstract-interpretation framework over the compiled "
            "kernel programs: value-range certification (which kernels "
            "are provably sentinel-free), RF pressure, and wavefront "
            "send/recv protocol analysis.  Exit 0 unless a diagnostic "
            "reaches the --fail-on severity (default: error)."
        ),
    )
    parser.add_argument(
        "--kernels",
        type=_kernel_list,
        default=None,
        help="comma-separated kernel subset (default: all six)",
    )
    parser.add_argument(
        "--fail-on",
        choices=("info", "warning", "error"),
        default="error",
        help="lowest severity that fails the run",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report rendering (default: text)",
    )
    parser.add_argument(
        "--no-wavefront",
        action="store_true",
        help="skip the PE-array wavefront protocol analyses",
    )
    args = parser.parse_args(argv)

    from repro.diagnostics import Severity
    from repro.guard.diff import DIFF_KERNELS
    from repro.static import run_analysis

    kernels = args.kernels or None
    _reject_unknown_kernels(parser, kernels, DIFF_KERNELS)

    report = run_analysis(kernels, include_wavefront=not args.no_wavefront)
    if args.format == "json":
        import json

        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.render())
    return report.exit_code(Severity.from_label(args.fail_on))


# ----------------------------------------------------------------------
# gendp-trace


def _trace_replay(blackbox_path: str, out_path: str) -> int:
    """``gendp-trace --replay``: black-box dump -> Chrome trace."""
    import json

    from repro.obs.trace import validate_chrome_trace
    from repro.slo.flight import blackbox_to_chrome_trace, load_blackbox

    try:
        document = load_blackbox(blackbox_path)
    except (OSError, ValueError) as error:
        raise SystemExit(f"cannot replay {blackbox_path!r}: {error}")
    trace = blackbox_to_chrome_trace(document)
    problems = validate_chrome_trace(trace)
    if problems:
        for problem in problems:
            print(f"trace schema violation: {problem}", file=sys.stderr)
        return 1
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(trace, handle, indent=2, sort_keys=True)
        handle.write("\n")
    entries = document.get("entries", [])
    kinds: dict = {}
    for entry in entries:
        kinds[entry.get("kind", "?")] = kinds.get(entry.get("kind", "?"), 0) + 1
    print(f"black box    : {blackbox_path}")
    print(f"reason       : {document.get('reason')}")
    print(f"entries      : {len(entries)} "
          f"({', '.join(f'{k}={v}' for k, v in sorted(kinds.items()))})")
    print(f"events       : {len(trace['traceEvents'])}")
    print(f"trace written: {out_path}")
    return 0


@_pipe_safe
def trace_main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="gendp-trace",
        description=(
            "Run a job stream through the execution engine with tracing "
            "attached and write the Chrome-trace JSON (Perfetto / "
            "chrome://tracing).  With --replay, convert a flight-recorder "
            "black-box dump into the same viewable format instead."
        ),
    )
    parser.add_argument(
        "--replay",
        metavar="BLACKBOX",
        default=None,
        help=(
            "convert a black-box JSON dump (written on crash/DLQ/"
            "SLO-burn trips) to Chrome-trace instead of running jobs"
        ),
    )
    parser.add_argument(
        "--jobs", type=int, default=24, help="synthetic job count"
    )
    parser.add_argument(
        "--kernels",
        type=_kernel_list,
        default="bsw",
        help="comma-separated engine kernels for the synthetic stream",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--workers",
        type=int,
        default=0,
        help="worker processes (0 = in-process execution)",
    )
    parser.add_argument(
        "--validate-fraction",
        type=float,
        default=0.0,
        help="fraction of ok results re-checked (adds job:validate spans)",
    )
    parser.add_argument(
        "--out",
        default="gendp-trace.json",
        metavar="PATH",
        help="Chrome-trace output path",
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="also write the metrics snapshot (with quantiles) as JSON",
    )
    parser.add_argument(
        "--log-json",
        action="store_true",
        help="emit structured JSON logs (with trace_id) to stderr",
    )
    args = parser.parse_args(argv)
    if args.jobs <= 0:
        parser.error("--jobs must be positive")
    if args.workers < 0:
        parser.error("--workers must be non-negative")
    if not 0.0 <= args.validate_fraction <= 1.0:
        parser.error("--validate-fraction must be in [0, 1]")

    if args.replay:
        return _trace_replay(args.replay, args.out)

    from repro.engine import Engine, EngineConfig
    from repro.obs.logs import configure_json_logging
    from repro.obs.trace import TraceRecorder, validate_chrome_trace

    if args.log_json:
        configure_json_logging()

    if not args.kernels:
        raise SystemExit("--kernels must name at least one kernel")
    jobs = _synthesize_jobs(args.kernels, args.jobs, args.seed)

    tracer = TraceRecorder()
    config = EngineConfig(
        max_queue=max(len(jobs), 1),
        workers=args.workers,
        validate_fraction=args.validate_fraction,
    )
    with Engine(config, tracer=tracer) as engine:
        engine.submit_many(jobs)
        results = engine.drain()
        snapshot = engine.snapshot()

    document = tracer.to_chrome_trace()
    problems = validate_chrome_trace(document)
    if problems:
        for problem in problems:
            print(f"trace schema violation: {problem}", file=sys.stderr)
        return 1
    tracer.write(args.out)
    if args.metrics_out:
        from repro.obs.export import snapshot_json

        with open(args.metrics_out, "w", encoding="utf-8") as handle:
            handle.write(snapshot_json(snapshot))
            handle.write("\n")

    ok = sum(1 for result in results if result.ok)
    span_names = sorted({span.name for span in tracer.spans()})
    print(f"trace id     : {tracer.trace_id}")
    print(f"jobs         : {ok}/{len(results)} ok")
    print(f"events       : {len(document['traceEvents'])} "
          f"({tracer.dropped} dropped)")
    print(f"span names   : {', '.join(span_names)}")
    print(f"trace written: {args.out}")
    if args.metrics_out:
        print(f"metrics      : {args.metrics_out}")
    return 0 if ok == len(results) else 1


# ----------------------------------------------------------------------
# gendp-metrics


def _load_snapshot(path: str) -> dict:
    import json

    try:
        with open(path, "r", encoding="utf-8") as handle:
            snapshot = json.load(handle)
    except OSError as error:
        raise SystemExit(f"cannot read snapshot {path!r}: {error}")
    except json.JSONDecodeError as error:
        raise SystemExit(f"snapshot {path!r} is not valid JSON: {error}")
    if not isinstance(snapshot, dict):
        raise SystemExit(f"snapshot {path!r} must be a JSON object")
    return snapshot


def _demo_snapshot(seed: int = 0) -> dict:
    """A small live engine run, for ``gendp-metrics serve --demo``."""
    from repro.engine import Engine, EngineConfig

    jobs = _synthesize_jobs(["bsw", "lcs"], 8, seed)
    with Engine(EngineConfig(max_queue=len(jobs))) as engine:
        engine.submit_many(jobs)
        engine.drain()
        return engine.snapshot()


@_pipe_safe
def metrics_main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="gendp-metrics",
        description=(
            "Render or serve engine metrics snapshots (Prometheus text "
            "or JSON with derived quantiles)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    render = sub.add_parser(
        "render", help="convert a saved snapshot to an exposition format"
    )
    render.add_argument(
        "--snapshot", required=True, metavar="PATH", help="saved snapshot JSON"
    )
    render.add_argument(
        "--format",
        choices=("prometheus", "json"),
        default="prometheus",
        help="output format",
    )
    render.add_argument(
        "--namespace", default="gendp", help="metric name prefix"
    )

    serve = sub.add_parser(
        "serve", help="serve a snapshot over an HTTP scrape endpoint"
    )
    serve.add_argument(
        "--snapshot", metavar="PATH", help="saved snapshot JSON to serve"
    )
    serve.add_argument(
        "--demo",
        action="store_true",
        help="serve the snapshot of a small live engine run",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=9101, help="0 binds an ephemeral port"
    )
    serve.add_argument(
        "--duration",
        type=float,
        default=None,
        help="seconds to serve before exiting (default: until interrupted)",
    )
    serve.add_argument("--namespace", default="gendp")
    serve.add_argument(
        "--slo",
        action="store_true",
        help=(
            "attach the burn-rate evaluator: every scrape advances the "
            "SLO windows, /metrics gains gendp_slo_* series and /slo "
            "serves the full status document"
        ),
    )
    args = parser.parse_args(argv)

    from repro.obs.export import prometheus_text, snapshot_json

    if args.command == "render":
        snapshot = _load_snapshot(args.snapshot)
        if args.format == "prometheus":
            sys.stdout.write(prometheus_text(snapshot, namespace=args.namespace))
        else:
            print(snapshot_json(snapshot))
        return 0

    # serve
    if bool(args.snapshot) == bool(args.demo):
        parser.error("serve needs exactly one of --snapshot or --demo")
    if args.snapshot:
        snapshot = _load_snapshot(args.snapshot)
    else:
        snapshot = _demo_snapshot()

    import time as _time

    from repro.obs.server import MetricsServer

    slo_engine = None
    if args.slo:
        from repro.slo import SLOEngine

        slo_engine = SLOEngine()
    server = MetricsServer(
        lambda: snapshot,
        host=args.host,
        port=args.port,
        namespace=args.namespace,
        slo=slo_engine,
    )
    with server:
        endpoints = "/metrics.json" + (" and /slo" if args.slo else "")
        print(f"serving metrics on {server.url}/metrics (and {endpoints})")
        try:
            if args.duration is not None:
                _time.sleep(args.duration)
            else:
                while True:
                    _time.sleep(3600)
        except KeyboardInterrupt:
            pass
    return 0


# ----------------------------------------------------------------------
# gendp-cluster


@_pipe_safe
def cluster_main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="gendp-cluster",
        description=(
            "Run a seeded chaos campaign against a sharded engine "
            "cluster (consistent-hash routing, health-aware failover) "
            "and report exactly-once survival metrics."
        ),
    )
    parser.add_argument("--jobs", type=int, default=200, help="campaign size")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--kernels",
        type=_kernel_list,
        default="bsw,lcs,dtw,chain",
        help="comma-separated engine kernels for the stream",
    )
    parser.add_argument(
        "--shards", type=int, default=4, help="initial shard count"
    )
    parser.add_argument("--chunk", type=int, default=48, help="jobs per round")
    parser.add_argument(
        "--kill",
        action="append",
        default=[],
        metavar="ROUND:SHARD",
        help="schedule a shard kill (repeatable), e.g. --kill 2:1",
    )
    parser.add_argument("--kill-rate", type=float, default=0.0)
    parser.add_argument("--hang-rate", type=float, default=0.0)
    parser.add_argument("--partition-rate", type=float, default=0.0)
    parser.add_argument(
        "--partition-rounds",
        type=int,
        default=2,
        help="rounds a partitioned shard stays unreachable",
    )
    parser.add_argument(
        "--validate-fraction",
        type=float,
        default=1.0,
        help="fraction of ok results re-checked against the oracle",
    )
    parser.add_argument(
        "--report-out",
        metavar="PATH",
        default=None,
        help="write the canonical JSON report (byte-identical per seed)",
    )
    parser.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help="write a Chrome-trace JSON of the campaign",
    )
    parser.add_argument(
        "--json", action="store_true", help="dump the report as JSON"
    )
    args = parser.parse_args(argv)

    from repro.cluster import ClusterChaosConfig, run_cluster_campaign

    if args.shards < 1:
        parser.error("--shards must be positive")
    # Validate every kill schedule up front: a malformed spec should
    # fail here with a usage message, not as a KeyError three rounds
    # into the campaign.
    kills = []
    for spec in args.kill:
        round_str, sep, shard_str = spec.partition(":")
        try:
            if not sep:
                raise ValueError(spec)
            round_index = int(round_str)
            shard_index = int(shard_str)
        except ValueError:
            parser.error(
                f"bad --kill {spec!r}: want ROUND:SHARD with integer "
                f"fields, e.g. --kill 2:1"
            )
        if round_index < 0:
            parser.error(f"bad --kill {spec!r}: round must be non-negative")
        if not 0 <= shard_index < args.shards:
            parser.error(
                f"bad --kill {spec!r}: shard ordinal out of range for "
                f"--shards {args.shards} (valid: 0..{args.shards - 1})"
            )
        kills.append((round_index, shard_index))
    try:
        config = ClusterChaosConfig(
            jobs=args.jobs,
            seed=args.seed,
            kernels=args.kernels,
            shards=args.shards,
            chunk_jobs=args.chunk,
            kills=tuple(kills),
            kill_rate=args.kill_rate,
            hang_rate=args.hang_rate,
            partition_rate=args.partition_rate,
            partition_rounds=args.partition_rounds,
            validate_fraction=args.validate_fraction,
        )
    except ValueError as error:
        parser.error(str(error))

    tracer = None
    if args.trace_out:
        from repro.obs.trace import TraceRecorder

        tracer = TraceRecorder()
    report = run_cluster_campaign(config, tracer=tracer)
    if tracer is not None:
        tracer.write(args.trace_out)
        print(f"wrote cluster trace to {args.trace_out}")
    return _emit_report(report, args, "cluster", report.survived)


# ----------------------------------------------------------------------
# gendp-serve


@_pipe_safe
def serve_main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="gendp-serve",
        description=(
            "Serve DP jobs over newline-delimited JSON (TCP or Unix "
            "socket) with admission control, per-tenant quotas, "
            "priority classes and graceful drain."
        ),
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=8787, help="0 binds an ephemeral port"
    )
    parser.add_argument(
        "--unix-socket",
        metavar="PATH",
        default=None,
        help="serve on a Unix socket instead of TCP",
    )
    parser.add_argument(
        "--transport",
        choices=("inline", "shm"),
        default="shm",
        help="engine execution backend (default: shared-memory rings)",
    )
    parser.add_argument(
        "--workers", type=int, default=2, help="warm workers (shm)"
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=0,
        help=(
            "dispatch through a sharded cluster of N engines with "
            "health-aware routing and failover (0 = single engine)"
        ),
    )
    parser.add_argument(
        "--warm-kernels",
        default="bsw",
        help="comma-separated kernels to pre-compile at startup ('' = none)",
    )
    parser.add_argument(
        "--max-pending", type=int, default=256, help="backpressure ceiling"
    )
    parser.add_argument(
        "--max-batch", type=int, default=64, help="jobs per engine drain"
    )
    parser.add_argument(
        "--quota-rate",
        type=float,
        default=200.0,
        help="default tenant tokens/second",
    )
    parser.add_argument(
        "--quota-burst", type=float, default=100.0, help="default tenant burst"
    )
    parser.add_argument(
        "--tenant-quota",
        action="append",
        default=[],
        metavar="TENANT=RATE:BURST",
        help="per-tenant override (repeatable)",
    )
    parser.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help="write a Chrome-trace JSON of the serving session on exit",
    )
    parser.add_argument(
        "--journal-dir",
        metavar="DIR",
        default=None,
        help=(
            "request-level write-ahead journal: submits carrying a "
            "dedupe_id survive a server restart and resends are "
            "answered without re-execution"
        ),
    )
    parser.add_argument(
        "--journal-fsync",
        choices=("always", "interval", "never"),
        default="interval",
        help="journal fsync policy (with --journal-dir)",
    )
    parser.add_argument(
        "--no-recover",
        action="store_true",
        help="skip the journal replay at startup (with --journal-dir)",
    )
    parser.add_argument(
        "--duration",
        type=float,
        default=None,
        help="seconds to serve before draining (default: until signalled)",
    )
    args = parser.parse_args(argv)
    if args.no_recover and not args.journal_dir:
        parser.error("--no-recover requires --journal-dir")

    overrides = {}
    for spec in args.tenant_quota:
        try:
            tenant, limits = spec.split("=", 1)
            rate, burst = limits.split(":", 1)
            overrides[tenant] = (float(rate), float(burst))
        except ValueError:
            parser.error(f"bad --tenant-quota {spec!r} (want TENANT=RATE:BURST)")

    import asyncio

    from repro.engine import Engine, EngineConfig
    from repro.obs.trace import TraceRecorder
    from repro.serve import TransportConfig
    from repro.serve.server import GendpServer, ServeConfig

    warm = tuple(k for k in args.warm_kernels.split(",") if k)
    transport = TransportConfig(
        backend=args.transport,
        workers=max(1, args.workers),
        warm_kernels=warm,
    )
    try:
        serve_config = ServeConfig(
            host=args.host,
            port=args.port,
            unix_socket=args.unix_socket,
            max_pending=args.max_pending,
            max_batch=args.max_batch,
            default_rate=args.quota_rate,
            default_burst=args.quota_burst,
            tenant_quotas=overrides,
            journal_dir=args.journal_dir,
            journal_fsync=args.journal_fsync,
            recover_on_start=not args.no_recover,
        )
    except ValueError as error:
        parser.error(str(error))
    tracer = TraceRecorder() if args.trace_out else None

    engine_config = EngineConfig(
        max_queue=args.max_pending, transport=transport
    )

    def _front_door():
        if args.shards > 0:
            from repro.cluster import ClusterConfig, ClusterRouter

            return ClusterRouter(
                ClusterConfig(shards=args.shards, engine=engine_config),
                tracer=tracer,
            )
        return Engine(engine_config, tracer=tracer)

    async def _serve() -> None:
        with _front_door() as engine:
            server = GendpServer(engine, serve_config)
            await server.start()
            server.install_signal_handlers()
            print(f"gendp-serve listening on {server.endpoint}", flush=True)
            if args.duration is not None:
                loop = asyncio.get_running_loop()
                loop.call_later(args.duration, server.request_shutdown)
            await server.serve_forever()

    asyncio.run(_serve())
    if tracer is not None and args.trace_out:
        tracer.write(args.trace_out)
        print(f"wrote serve trace to {args.trace_out}")
    return 0


# ----------------------------------------------------------------------
# gendp-slo


def _load_replay_stream(path: str) -> List[dict]:
    """Parse a replay JSONL file of ``{"t": seconds, "snapshot": {...}}``."""
    import json

    records: List[dict] = []
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for number, line in enumerate(handle, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as error:
                    raise SystemExit(f"replay {path!r} line {number}: {error}")
                if not isinstance(record, dict) or "snapshot" not in record:
                    raise SystemExit(
                        f"replay {path!r} line {number}: want "
                        '{"t": seconds, "snapshot": {...}}'
                    )
                records.append(record)
    except OSError as error:
        raise SystemExit(f"cannot read replay {path!r}: {error}")
    if not records:
        raise SystemExit(f"replay {path!r} contains no records")
    return records


def _fetch_snapshot(source: str) -> dict:
    """A metrics snapshot from a file path or an HTTP scrape URL."""
    if source.startswith(("http://", "https://")):
        import json
        from urllib.request import urlopen

        try:
            with urlopen(source, timeout=10.0) as response:
                return json.loads(response.read().decode("utf-8"))
        except Exception as error:
            raise SystemExit(f"cannot scrape {source!r}: {error}")
    return _load_snapshot(source)


def _slo_render(status: dict) -> str:
    """The human rendering of :meth:`SLOEngine.status`."""
    lines = [
        f"gendp-slo: {len(status['objectives'])} objective(s), "
        f"{status['evaluations']} evaluation(s)"
    ]
    for doc in status["objectives"]:
        verdict = "BURNING" if doc["burning"] else "ok"
        windows = []
        for window in doc["windows"]:
            burn = window["burn_long"]
            shown = "-" if burn is None else f"{burn:.1f}"
            windows.append(
                f"{window['window']} {shown}/{window['max_burn']:g}"
            )
        events = doc.get("events")
        seen = f" ({events['good']}/{events['total']} good)" if events else ""
        lines.append(
            f"  {doc['name']:<18} target {doc['target']:.3f}  "
            f"{verdict:<8} burn: {', '.join(windows)}{seen}"
        )
    if status["alerts"]:
        lines.append("alert sequence:")
        for alert in status["alerts"]:
            lines.append(
                f"  t={alert['at']:<8g} {alert['state']:<8} "
                f"{alert['objective']}/{alert['window']} "
                f"(long {alert['burn_long']:.1f}, "
                f"probe {alert['burn_probe']:.1f})"
            )
    lines.append(f"verdict: {'BURN' if status['burning'] else 'OK'}")
    return "\n".join(lines)


@_pipe_safe
def slo_main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="gendp-slo",
        description=(
            "Evaluate SLO burn rates (multi-window multi-burn-rate, "
            "Google-SRE style) over saved snapshots, replayed snapshot "
            "streams, or a live scrape endpoint."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def _add_source(command) -> None:
        command.add_argument(
            "--metrics",
            metavar="PATH",
            default=None,
            help=(
                "saved snapshot JSON; its cumulative totals are "
                "measured from a zero origin"
            ),
        )
        command.add_argument(
            "--replay",
            metavar="PATH",
            default=None,
            help='replay JSONL of {"t": seconds, "snapshot": {...}}',
        )

    check = sub.add_parser(
        "check", help="evaluate once and gate on the verdict (CI)"
    )
    _add_source(check)
    check.add_argument(
        "--fail-on",
        choices=("burn", "none"),
        default="burn",
        help="exit nonzero when any objective burns (default: burn)",
    )
    check.add_argument("--json", action="store_true")

    report = sub.add_parser(
        "report", help="print the full objective/window state"
    )
    _add_source(report)
    report.add_argument("--json", action="store_true")

    watch = sub.add_parser(
        "watch", help="poll a live snapshot source and print transitions"
    )
    watch.add_argument(
        "source",
        metavar="URL_OR_PATH",
        help="metrics.json scrape URL or snapshot file to poll",
    )
    watch.add_argument("--interval", type=float, default=5.0)
    watch.add_argument(
        "--count", type=int, default=0, help="polls before exiting (0 = forever)"
    )

    synth = sub.add_parser(
        "synth", help="write a deterministic replay fixture (JSONL)"
    )
    synth.add_argument("--out", required=True, metavar="PATH")
    synth.add_argument(
        "--mode",
        choices=("burn", "healthy"),
        default="burn",
        help="healthy ticks then a hard burn, or healthy-only",
    )
    synth.add_argument("--healthy-ticks", type=int, default=6)
    synth.add_argument("--burn-ticks", type=int, default=6)
    synth.add_argument("--tick", type=float, default=10.0)
    synth.add_argument("--events-per-tick", type=int, default=50)

    args = parser.parse_args(argv)
    import json as _json

    from repro.slo import SLOEngine

    if args.command == "synth":
        from repro.slo import synthesize_burn_replay

        try:
            records = synthesize_burn_replay(
                healthy_ticks=args.healthy_ticks,
                burn_ticks=args.burn_ticks,
                tick_s=args.tick,
                events_per_tick=args.events_per_tick,
                mode=args.mode,
            )
        except ValueError as error:
            parser.error(str(error))
        with open(args.out, "w", encoding="utf-8") as handle:
            for record in records:
                handle.write(_json.dumps(record, sort_keys=True) + "\n")
        print(f"wrote {len(records)} replay tick(s) to {args.out} "
              f"(mode: {args.mode})")
        return 0

    if args.command == "watch":
        import time as _time

        engine = SLOEngine()
        polls = 0
        try:
            while True:
                snapshot = _fetch_snapshot(args.source)
                for alert in engine.observe(snapshot):
                    print(
                        f"{alert.state.upper():<9} {alert.objective}/"
                        f"{alert.window} (long {alert.burn_long:.1f}, "
                        f"probe {alert.burn_probe:.1f})",
                        flush=True,
                    )
                polls += 1
                if args.count and polls >= args.count:
                    break
                _time.sleep(args.interval)
        except KeyboardInterrupt:
            pass
        print(_slo_render(engine.status()))
        return 1 if engine.burning else 0

    # check / report: one deterministic evaluation pass.
    if bool(args.metrics) == bool(args.replay):
        parser.error(f"{args.command} needs exactly one of --metrics or --replay")
    engine = SLOEngine()
    if args.replay:
        for record in _load_replay_stream(args.replay):
            engine.observe(record["snapshot"], at=float(record.get("t", 0.0)))
    else:
        # A single saved snapshot holds one finished run's cumulative
        # totals; difference it against a zero origin one probe apart
        # so both windows of every rule see the run's events.
        snapshot = _fetch_snapshot(args.metrics)
        probe = min(window.probe_s for window in engine.windows)
        engine.observe({"counters": {}, "histograms": {}}, at=0.0)
        engine.observe(snapshot, at=probe)

    status = engine.status()
    if args.json:
        print(_json.dumps(status, indent=2, sort_keys=True))
    else:
        print(_slo_render(status))
    if args.command == "check" and args.fail_on == "burn" and engine.burning:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(report_main())
