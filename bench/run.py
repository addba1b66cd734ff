"""The repo benchmark: one command, every metric by name with its unit.

Two ways in (bench/README.md has the details):

``python3 bench/run.py --workload W --seed N --seconds S --trace 0|1``
    one run of one workload; the last line of stdout is one JSON
    object ``{"correct", "attempted", "failed", "metrics"}`` holding
    every end-to-end metric (``--trace 0``) or every per-layer metric
    (``--trace 1``) of ``BENCHMARK.json``.

``python3 bench/run.py [--traced] [--smoke] [--runs N] [--out FILE]``
    every workload, a table on stdout and a result file for
    ``bench/compare.py``; ``--traced`` adds the per-layer run and
    writes ``bench/out/trace-<workload>.json``.

Exit status is 1 when any output disagrees with the reference kernels
(or any job errored, was rejected or timed out), 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from typing import Any, Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# The script directory would shadow the stdlib ``trace`` module; the
# repo root (for ``bench.*``) and ``src`` (for ``repro.*``) replace it.
sys.path[0] = ROOT
sys.path.insert(1, os.path.join(ROOT, "src"))

if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
    # The benchmark measures this checkout's program, never an
    # installed copy: without the source there is nothing to run.
    sys.exit(f"bench/run.py: no program to measure, {ROOT}/src/repro is missing")

from bench import harness, layers, spec, trace  # noqa: E402
from bench.workloads import WORKLOAD_CLASSES  # noqa: E402

OUT_DIR = os.path.join("bench", "out")
SMOKE_SCALE = 1 / 20
SMOKE_SECONDS = 0.5


def _failed(workload, measurement: harness.Measurement) -> Tuple[int, int]:
    """(attempted, failed) over the timed passes.  The warm-up pass is
    checked against the reference kernels; a timed pass must repeat it
    exactly, so every timed output is checked through it."""
    reference = measurement.warmup.outputs
    bad = workload.failures(reference)
    attempted = failed = 0
    for timed in measurement.passes:
        attempted += len(timed.outputs)
        failed += sum(
            1
            for index, output in enumerate(timed.outputs)
            if index in bad or output != reference[index]
        )
        if timed.counts != measurement.warmup.counts:
            failed = max(failed, 1)  # an exact count moved between passes
    return attempted, failed


def end_to_end(m: harness.Measurement, failed: int) -> Dict[str, float]:
    jobs = len(m.passes[0].outputs)
    ok_share = 1.0 - failed / (jobs * len(m.passes))
    # Wall times are net of steal (harness.steal_seconds): a pass by
    # subtraction, an operation or a set-up by its phase's share -- most
    # are shorter than the 10 ms tick steal is counted in.
    per_pass = {
        "jobs_per_s": [jobs * ok_share / s for s in m.pass_net_s],
        "cell_updates_per_s": [
            timed.cells * ok_share / s for timed, s in zip(m.passes, m.pass_net_s)
        ],
        "latency_p50_ms": [
            statistics.median(timed.latencies) * 1e3 * net / wall
            for timed, net, wall in zip(m.passes, m.pass_net_s, m.pass_s)
        ],
        "cpu_ms_per_job": [cpu * 1e3 / jobs for cpu in m.pass_cpu_s],
    }
    values = {
        "setup_s": statistics.median(m.setup_s)
        * (1.0 - m.setup_steal_s / sum(m.setup_s))
    }
    for name, series in per_pass.items():
        values[name] = statistics.median(series)
    values["peak_rss_mb"] = m.peak_rss_mb
    return values


def run_workload(
    name: str, seed: int, seconds: float, scale: float,
    untraced: bool = True, traced: bool = False, inject: Optional[str] = None,
) -> Dict[str, Any]:
    """One run of one workload: the untraced measurement, the traced
    one, or one after the other."""
    run_dir = os.path.join(OUT_DIR, f"run-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    try:
        workload = WORKLOAD_CLASSES[name](seed, scale, run_dir, inject)
        if scale < 1:
            # smoke checks plumbing, not set-up time
            workload.setups, workload.setup_budget_s = 2, 0.0
        result: Dict[str, Any] = {"attempted": 0, "failed": 0}
        if untraced:
            measured = harness.measure(workload, seconds)
            attempted, failed = _failed(workload, measured)
            result.update(_summary(measured, attempted, failed))
            result["end_to_end"] = end_to_end(measured, failed)
        if traced:
            layer_run = _traced(workload, seconds)
            for key in ("attempted", "failed"):
                result[key] += layer_run.pop(key)
            for key, value in layer_run.items():
                result.setdefault(key, value)  # the untraced summary stays
        return result
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _summary(m: harness.Measurement, attempted: int, failed: int) -> Dict[str, Any]:
    return {
        "attempted": attempted,
        "failed": failed,
        "passes": len(m.passes),
        "pass_s_quartiles": harness.quartiles(m.pass_s),
        "steal_share": sum(m.pass_steal_s) / sum(m.pass_s),
        "latency_samples": sum(len(p.latencies) for p in m.passes),
    }


def _traced(workload, seconds: float) -> Dict[str, Any]:
    """The per-layer run: shims installed throughout, the recorder on
    for every second pass.  Neighbouring passes see the same host, so
    traced-vs-untraced compares like with like."""
    recorder = trace.install()
    recorder.enabled = False
    workload.recorder = recorder

    def before_pass(index: Optional[int]) -> None:
        recorder.enabled = index is None or index % 2 == 1
        workload.set_tracing(recorder.enabled)

    try:
        m = harness.measure(
            workload, seconds, before_pass, min_passes=2 * harness.MIN_PASSES
        )
    finally:
        recorder.remove()
        workload.recorder = None
    traced = list(range(1, len(m.passes), 2))
    attempted, failed = _failed(workload, m)
    rows = recorder.rows()
    server = None
    if workload.server_trace_path is not None:
        with open(workload.server_trace_path, encoding="utf-8") as handle:
            server = json.load(handle)
    values = layers.derive(workload, m, traced, rows, server, failed / attempted)
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"trace-{workload.name}.json"), "w", encoding="utf-8") as handle:
        json.dump(
            {
                "workload": workload.name,
                "row": ["name", "start", "end", "parent", "tag"],
                "traced_pass_windows": [m.windows[i] for i in traced],
                "spans": rows,
                "server_spans": server["spans"] if server else [],
            },
            handle,
        )
    return {
        **_summary(m, attempted, failed),
        "per_layer": values,
        "design_checks": layers.design_checks(
            workload, values, m, traced, (server["spans"] if server else []) + rows
        ),
    }


# ----------------------------------------------------------------------
# the two front ends


def contract_run(args) -> int:
    traced = args.trace == 1
    scale = SMOKE_SCALE if args.smoke else 1.0
    result = run_workload(
        args.workload, args.seed, args.seconds, scale,
        untraced=not traced, traced=traced, inject=args.inject,
    )
    names = result["per_layer"] if traced else result["end_to_end"]
    print(
        f"{args.workload}: {result['passes']} passes, "
        f"{result['latency_samples']} latency samples, "
        f"{result['failed']}/{result['attempted']} failed, "
        f"steal {result['steal_share']:.1%}"
        + "".join(
            f", {check} {value:.3f}"
            for check, value in result.get("design_checks", {}).items()
        ),
        file=sys.stderr,
    )
    if args.detail:
        with open(args.detail, "w", encoding="utf-8") as handle:
            json.dump(result, handle)
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    name: {"value": value, "unit": spec.unit_of(name)}
                    for name, value in names.items()
                },
            }
        )
    )
    return 0 if result["failed"] == 0 else 1


def full_run(args) -> int:
    """Every workload, each run in a fresh process in the driver's own
    form, so a number here is measured exactly as the driver measures
    it (and one workload's heap never shows in the next one's RSS)."""
    seconds = SMOKE_SECONDS if args.smoke else args.seconds
    runs: List[Dict[str, Any]] = []
    any_failed = False
    host = harness.environment(ROOT)
    print(
        f"# nproc={host['nproc']} load={host['loadavg_start']:.2f} "
        f"python={host['python']} commit={host['commit'][:12]} "
        f"calibration spread={host['calibration']['quartile_spread_share']:.1%}"
    )
    os.makedirs(OUT_DIR, exist_ok=True)
    detail = os.path.join(OUT_DIR, f"detail-{os.getpid()}.json")
    for run_index in range(args.runs):
        run: Dict[str, Any] = {}
        for name in spec.WORKLOADS:
            result: Dict[str, Any] = {"attempted": 0, "failed": 0}
            for trace_flag in ("0", "1") if args.traced else ("0",):
                command = [
                    sys.executable, os.path.abspath(__file__),
                    "--workload", name, "--seed", str(args.seed),
                    "--seconds", str(seconds), "--trace", trace_flag,
                    "--detail", detail,
                ]
                command += ["--smoke"] if args.smoke else []
                command += ["--inject", args.inject] if args.inject else []
                try:
                    subprocess.run(command, stdout=subprocess.DEVNULL, timeout=180)
                    with open(detail, encoding="utf-8") as handle:
                        part = json.load(handle)
                finally:
                    if os.path.exists(detail):
                        os.unlink(detail)
                for key in ("attempted", "failed"):
                    result[key] += part.pop(key)
                for key, value in part.items():
                    result.setdefault(key, value)  # the untraced summary stays
            run[name] = result
            any_failed |= bool(result["failed"])
            _print_workload(name, run_index, result)
        runs.append(run)
    document = {
        "environment": host,
        "seed": args.seed,
        "seconds": seconds,
        "smoke": args.smoke,
        "traced": args.traced,
        "runs": runs,
    }
    out = args.out or os.path.join(OUT_DIR, "results.json")
    os.makedirs(os.path.dirname(out) or ".", exist_ok=True)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1)
    print(f"# wrote {out}")
    return 1 if any_failed else 0


def _print_workload(name: str, run_index: int, result: Dict[str, Any]) -> None:
    low, mid, high = result["pass_s_quartiles"]
    print(
        f"\n== {name} (run {run_index + 1}): {result['passes']} passes, "
        f"pass {mid:.3f} s [{low:.3f}-{high:.3f}], "
        f"{result['latency_samples']} latency samples, "
        f"failed_share {result['failed'] / result['attempted']:.4f}"
    )
    for metric, value in result["end_to_end"].items():
        print(f"  {metric:<44} {value:>14.4f} {spec.unit_of(metric)}")
    for metric, value in result.get("per_layer", {}).items():
        print(f"  {metric:<44} {value:>14.4f} {spec.unit_of(metric)}")
    for check, value in result.get("design_checks", {}).items():
        print(f"  check: {check:<37} {value:>14.4f} ratio")


def _terminate(signum, frame) -> None:
    # Unwind through the ``finally`` blocks that stop the server and
    # workers and remove the run directory.
    raise KeyboardInterrupt


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=float(spec.RUN_SECONDS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true",
                        help="all-workloads mode: add the per-layer run")
    parser.add_argument("--smoke", action="store_true",
                        help="about 1/20 of the work; checks plumbing, not speed")
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--out", help="result file (default bench/out/results.json)")
    parser.add_argument("--detail", help=argparse.SUPPRESS)  # full_run's channel
    parser.add_argument("--inject", choices=("corrupt-job", "wrong-expected"),
                        help="checker self-test: make one output wrong on purpose")
    args = parser.parse_args(argv)
    os.chdir(ROOT)  # socket and journal paths are relative: short and inside
    signal.signal(signal.SIGTERM, _terminate)
    harness.adopt_orphans()
    harness.pin_to_one_cpu()
    try:
        return contract_run(args) if args.workload else full_run(args)
    finally:
        harness.stop_descendants()


if __name__ == "__main__":
    sys.exit(main())
