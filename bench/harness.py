"""The run protocol shared by every workload.

A *pass* is a workload's fixed, seeded operation list.  A run is:
fresh set-ups (timed, all but the last torn down again) -> one untimed
warm-up pass -> whole passes until the time budget is spent and at
least ``MIN_PASSES`` are done -> tear down -> check every output
against the reference kernels -> stop and reap every process started.

This benchmark's home is a 2-vCPU VM on a shared host whose speed
swings by up to 2x with its neighbours.  Two things keep a run steady
there: the whole process tree is pinned to one CPU
(:func:`pin_to_one_cpu`) and pass times are taken net of hypervisor
steal (:func:`steal_seconds`).  Every per-pass figure is reported as
the median over the run's passes; the quartiles are printed beside it.
"""

from __future__ import annotations

import ctypes
import math
import os
import platform
import signal
import statistics
import subprocess
import time
from dataclasses import dataclass, field
from multiprocessing import resource_tracker
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

MIN_PASSES = 3
MAX_SETUPS = 40
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


@dataclass
class PassResult:
    """What one pass did, as the caller saw it."""

    #: Operation latencies in seconds (see spec.END_TO_END).
    latencies: List[float]
    #: One comparable output per job, in the workload's fixed order; an
    #: errored, rejected or timed-out job is an ``{"error": ...}`` dict.
    outputs: List[Any]
    #: DP cells of the jobs attempted.
    cells: int
    #: Workload-specific exact counts that must repeat on every pass.
    counts: Dict[str, float] = field(default_factory=dict)


@dataclass
class Measurement:
    setup_s: List[float]
    #: Steal (see :func:`steal_seconds`) during all the set-ups together.
    setup_steal_s: float
    passes: List[PassResult]
    warmup: PassResult
    #: (start, end) of each timed pass on time.perf_counter().
    windows: List[Tuple[float, float]]
    #: (start, end) of ``finish()``.
    finish_window: Tuple[float, float]
    #: Seconds of each timed pass the hypervisor ran someone else on
    #: the pinned CPU (see :func:`steal_seconds`).
    pass_steal_s: List[float]
    #: CPU seconds of the whole process tree in each timed pass.
    pass_cpu_s: List[float]
    #: CPU seconds each process of the tree spent in the timed passes.
    cpu_by_pid: Dict[int, float]
    #: Processes that joined the tree during the timed passes.
    new_pids: Set[int]
    peak_rss_mb: float
    #: Workload counters at the start and end of the timed passes.
    counters: Tuple[Dict[str, float], Dict[str, float]]
    #: Whatever the workload's ``finish()`` measured after the passes.
    after: Dict[str, float]

    @property
    def pass_s(self) -> List[float]:
        return [end - start for start, end in self.windows]

    @property
    def pass_net_s(self) -> List[float]:
        """Pass seconds net of steal: what the pass would have taken
        had the host not lent the CPU to a neighbour meanwhile."""
        return [wall - stolen for wall, stolen in zip(self.pass_s, self.pass_steal_s)]


class Workload:
    """Interface the five workloads implement (see workloads.py)."""

    name = ""
    #: Fresh set-ups per run: at least ``setups``, then more until
    #: ``setup_budget_s`` is spent or ``MAX_SETUPS`` are done (a 10 ms
    #: set-up needs many samples for a steady median; a 1 s one cannot
    #: afford them).  ``setup_s`` is their median.
    setups = 5
    setup_budget_s = 2.0
    #: shm workers behind each executor (0: no shm transport at all).
    workers_per_executor = 0
    #: A server subprocess between this process and the workers, and
    #: where its traced variant leaves its spans.
    server_pid: Optional[int] = None
    server_trace_path: Optional[str] = None
    #: The span recorder of a traced run (run.py sets it).
    recorder: Any = None

    def setup(self) -> None:
        """Bring a fresh system up through its first answered operation."""
        raise NotImplementedError

    def teardown(self) -> None:
        """Release everything ``setup`` made; safe to call twice."""
        raise NotImplementedError

    def run_pass(self) -> PassResult:
        raise NotImplementedError

    def failures(self, outputs: Sequence[Any]) -> Set[int]:
        """Indexes of one pass's outputs that disagree with the
        reference kernels (or are error envelopes)."""
        raise NotImplementedError

    def counters(self) -> Dict[str, float]:
        """Cumulative layer counts (traced runs difference them)."""
        return {}

    def finish(self) -> Dict[str, float]:
        """Measure what must follow the passes (cluster: recovery)."""
        return {}

    def set_tracing(self, enabled: bool) -> None:
        """Switch recording in processes other than this one."""


def flatten_engine(snapshots: Sequence[Dict[str, Any]]) -> Dict[str, float]:
    """Sum the counters, cache stats and occupancy histogram of engine
    snapshots into one flat cumulative dict."""
    flat: Dict[str, float] = {}

    def add(key: str, value: float) -> None:
        flat[key] = flat.get(key, 0.0) + value

    for snap in snapshots:
        for name, value in snap.get("counters", {}).items():
            add(name, value)
        for name in ("hits", "misses", "compiles"):
            add(f"cache.{name}", snap.get("cache", {}).get(name, 0))
        occupancy = snap.get("histograms", {}).get("batch_occupancy")
        if occupancy:
            add("occupancy.count", occupancy["count"])
            add("occupancy.sum", occupancy["sum"])
    return flat


# ----------------------------------------------------------------------
# process tree accounting (/proc: the server's shm workers are
# grandchildren, which getrusage never folds in while they live)


def _stat_fields(pid: int) -> Optional[List[str]]:
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            data = handle.read().decode("ascii", "replace")
    except OSError:
        return None
    # comm may contain spaces and parentheses; fields resume after ")".
    return data[data.rfind(")") + 2 :].split()


def process_tree(root: Optional[int] = None) -> List[int]:
    """*root* (default: this process) and all its live descendants."""
    root = os.getpid() if root is None else root
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        fields = _stat_fields(int(entry))
        if fields is not None:
            children.setdefault(int(fields[1]), []).append(int(entry))
    tree, frontier = [], [root]
    while frontier:
        pid = frontier.pop()
        tree.append(pid)
        frontier.extend(children.get(pid, ()))
    return tree


def cpu_seconds(pids: Sequence[int]) -> Dict[int, float]:
    """user+sys CPU seconds of each live pid."""
    usage = {}
    for pid in pids:
        fields = _stat_fields(pid)
        if fields is not None:
            usage[pid] = (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS
    return usage


def peak_rss_mb(pids: Sequence[int]) -> float:
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


def pin_to_one_cpu() -> int:
    """Confine this process, and through inheritance every process it
    starts, to one CPU; returns which.

    On the shared 2-vCPU host this benchmark lives on, a wake-up that
    crosses vCPUs waits for the hypervisor to schedule the other vCPU:
    the multi-process workloads (client, server and shm workers handing
    small jobs to one another) swung 3x between runs unpinned and about
    10 % pinned, at the same best-case throughput -- their hand-offs are
    serial anyway.  Pinned, a run measures the CPU the whole process
    tree spends per job, which is what a change to the program moves.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def steal_seconds() -> float:
    """Seconds so far that the CPU this process is pinned to was ready
    to run this guest while the hypervisor ran another (the ``steal``
    column of /proc/stat, 10 ms ticks); 0.0 when not pinned to one CPU.

    Pinned, everything the benchmark starts shares that CPU, so steal
    on it is time taken from the run as a whole.  In this host's noisy
    spells it reached a quarter of a pass and tracked wall minus CPU
    time of a busy loop to within 20 ms a second.
    """
    cpus = os.sched_getaffinity(0)
    if len(cpus) != 1:
        return 0.0
    label = f"cpu{next(iter(cpus))}"
    with open("/proc/stat", "r", encoding="ascii") as handle:
        for line in handle:
            fields = line.split()
            if fields[0] == label:
                return int(fields[8]) / _CLOCK_TICKS if len(fields) > 8 else 0.0
    return 0.0


def adopt_orphans() -> None:
    """Make this process the reaper of its whole tree (Linux
    PR_SET_CHILD_SUBREAPER): a grandchild whose parent dies -- a killed
    server's shm worker, say -- becomes our child, so
    :func:`stop_descendants` can wait for it."""
    try:
        ctypes.CDLL(None).prctl(36, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass  # not Linux: orphans go to init as usual


def stop_descendants(grace_s: float = 5.0) -> None:
    """Return only when no process this one started is left.

    A teardown ends the processes it knows; whatever is alive after it
    leaked (an interrupt between a worker's spawn and its owner's
    assignment, say) and is killed here.  The exception is
    multiprocessing's resource tracker, started by the first shm
    segment or semaphore: it ignores SIGTERM and exits once every copy
    of its pipe is closed -- without this, *after* its parent has gone
    -- and on its way out unlinks the segments a killed owner left in
    /dev/shm, so it gets *grace_s* to do that.  Every child is reaped.
    """
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    spared = {getattr(tracker, "_pid", None)}
    pipe = getattr(tracker, "_fd", None)
    if pipe is not None:
        os.close(pipe)
        tracker._fd = None
    deadline = time.monotonic() + grace_s
    while True:
        for pid in process_tree()[1:]:
            if pid not in spared:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        try:
            while os.waitpid(-1, os.WNOHANG)[0]:
                pass
        except ChildProcessError:
            return  # no child left
        if time.monotonic() > deadline:
            spared = set()
        time.sleep(0.01)


# ----------------------------------------------------------------------
# host record


def calibration_spin(seconds: float = 1.0, slices: int = 10) -> Dict[str, float]:
    """Count loop iterations in *slices* equal time slices; a noisy
    host shows as a wide spread between the slices."""
    counts = []
    for _ in range(slices):
        deadline = time.perf_counter() + seconds / slices
        count = 0
        while time.perf_counter() < deadline:
            count += 1
        counts.append(count)
    median = statistics.median(counts)
    low, _, high = statistics.quantiles(counts, n=4)
    return {
        "iterations_per_slice_median": median,
        "quartile_spread_share": (high - low) / median if median else 0.0,
    }


def environment(root: str) -> Dict[str, Any]:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root, capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"  # no git, or a checkout that is not a repository
    return {
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg()[0],
        "python": platform.python_version(),
        "commit": commit,
        "calibration": calibration_spin(),
    }


# ----------------------------------------------------------------------
# the run


def measure(
    workload: Workload,
    seconds: float,
    before_pass: Optional[Callable[[Optional[int]], None]] = None,
    min_passes: int = MIN_PASSES,
) -> Measurement:
    """One run of *workload*; *before_pass* is called with the index of
    each timed pass just before it starts, and with None before
    ``finish()`` (a traced run switches its recorder there: on for
    every second pass and for the finish)."""
    setup_s: List[float] = []
    setup_steal_s = 0.0
    try:
        setups_started = time.perf_counter()
        while True:
            stolen = steal_seconds()
            started = time.perf_counter()
            workload.setup()
            setup_s.append(time.perf_counter() - started)
            setup_steal_s += steal_seconds() - stolen
            spent = time.perf_counter() - setups_started
            if len(setup_s) >= workload.setups and (
                spent >= workload.setup_budget_s or len(setup_s) >= MAX_SETUPS
            ):
                break
            workload.teardown()
        warmup = workload.run_pass()

        tree = process_tree()
        others = [pid for pid in tree if pid != os.getpid()]

        def tree_cpu() -> float:
            # process_time() has ns resolution; /proc counts 10 ms ticks.
            return time.process_time() + sum(cpu_seconds(others).values())

        cpu_before = cpu_seconds(tree)
        counters_before = workload.counters()
        passes: List[PassResult] = []
        windows: List[Tuple[float, float]] = []
        pass_steal_s: List[float] = []
        pass_cpu_s: List[float] = []
        budget_start = time.perf_counter()
        while (
            len(passes) < min_passes
            or time.perf_counter() - budget_start < seconds
        ):
            if before_pass is not None:
                before_pass(len(passes))
            cpu_started = tree_cpu()
            stolen = steal_seconds()
            started = time.perf_counter()
            passes.append(workload.run_pass())
            windows.append((started, time.perf_counter()))
            pass_steal_s.append(steal_seconds() - stolen)
            pass_cpu_s.append(tree_cpu() - cpu_started)
        counters_after = workload.counters()
        cpu_after = cpu_seconds(tree)
        tree_after = process_tree()
        rss = peak_rss_mb(tree_after)
        if before_pass is not None:
            before_pass(None)
        started = time.perf_counter()
        after = workload.finish()
        finish_window = (started, time.perf_counter())
    finally:
        workload.teardown()
    return Measurement(
        setup_s=setup_s,
        setup_steal_s=setup_steal_s,
        passes=passes,
        warmup=warmup,
        windows=windows,
        finish_window=finish_window,
        pass_steal_s=pass_steal_s,
        pass_cpu_s=pass_cpu_s,
        cpu_by_pid={
            pid: cpu_after[pid] - cpu_before[pid]
            for pid in cpu_before
            if pid in cpu_after
        },
        new_pids=set(tree_after) - set(tree),
        peak_rss_mb=rss,
        counters=(counters_before, counters_after),
        after=after,
    )


def quantile(values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile (no interpolation past the sample)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, mid, high = statistics.quantiles(values, n=4)
    return low, mid, high
