"""The five workloads (see spec.WORKLOADS for why each exists).

Sizes are what a 2-core box turns round in about a second per pass, so
a 12 s run holds many passes and its median pass is steady.  ``scale``
shrinks a pass for ``--smoke`` (1/20) without changing its shape.
Production defaults (flush interval, poll interval, max batch, ring
sizes) are left alone; only tenant quotas are lifted, because the
default 200 jobs/s bucket would otherwise be the thing measured.
"""

from __future__ import annotations

import asyncio
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Sequence, Set

from repro.cluster import ClusterConfig, ClusterRouter
from repro.durable.journal import DurabilityConfig
from repro.engine import Engine, EngineConfig, make_job
from repro.engine.cache import compile_program
from repro.engine.runners import build_dfg, matches_reference, payload_cells
from repro.kernels.base import AlignmentMode
from repro.kernels.chain_fixed import chain_reordered_fixed
from repro.kernels.pairhmm import LOG_FRACTION_BITS, log_sum_lookup, pairhmm_forward
from repro.kernels.poa import graph_dp_tables
from repro.kernels.sw import align
from repro.mapping.kernels2d import (
    bsw_wavefront_spec,
    pairhmm_boundary_for_length,
    pairhmm_wavefront_spec,
)
from repro.mapping.longrange import run_poa_row_dp
from repro.mapping.sliding1d import run_chain
from repro.mapping.wavefront2d import run_wavefront
from repro.opt import contract_for, default_pipeline
from repro.seq.alphabet import encode
from repro.serve import ServeClient, TransportConfig

from bench import inputs
from bench.harness import PassResult, Workload, flatten_engine
from bench.spec import ENGINE_KERNELS, SIM_KERNELS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Quotas high enough never to bind (see module docstring).
_QUOTA = "1000000000"

_CHAIN_PES = 8
#: PEs sharing a tile's cells: cycles/cell is normalised per PE, as in
#: results/simulator_throughput.txt.
TILE_PES = {"bsw": 4, "pairhmm": 4, "chain": _CHAIN_PES, "poa": 1}
#: PairHMM runs in a fixed-point log domain on the simulator too.
_PAIRHMM_TOLERANCE = 0.05


def _scaled(count: int, scale: float) -> int:
    return max(1, int(round(count * scale)))


class JobWorkload(Workload):
    """Shared by the workloads whose operations are engine jobs."""

    def __init__(self, specs: List[inputs.JobSpec], inject: Optional[str]):
        self.specs = specs
        if inject == "corrupt-job":
            kernel, payload = specs[0]
            self.specs = [(kernel, dict(payload, _inject_corrupt=True))] + specs[1:]
        self.cells = sum(payload_cells(k, p) for k, p in self.specs)

    def failures(self, outputs: Sequence[Any]) -> Set[int]:
        bad = set()
        for index, ((kernel, payload), value) in enumerate(zip(self.specs, outputs)):
            try:
                ok = "error" not in value and matches_reference(kernel, value, payload)
            except (KeyError, TypeError):
                ok = False
            if not ok:
                bad.add(index)
        return bad


def _value(result: Any) -> Any:
    """A comparable output from a JobResult."""
    return result.value if result.ok else {"error": result.error}


# ----------------------------------------------------------------------


class ServeSmallMixed(JobWorkload):
    name = "serve_small_mixed"
    workers_per_executor = 2
    CONNECTIONS = 2
    OUTSTANDING = 16
    TENANTS = ("tenant-a", "tenant-b", "tenant-c")

    def __init__(self, seed: int, scale: float, run_dir: str, inject: Optional[str] = None):
        super().__init__(
            inputs.mixed_jobs(seed, _scaled(240, scale), inputs.SMALL), inject
        )
        self.first = inputs.minimal_jobs(seed)
        self.socket = os.path.join(run_dir, "serve.sock")
        self.server_trace_path = os.path.join(run_dir, "server-trace.json")
        self.server: Optional[subprocess.Popen] = None
        self.loop: Optional[asyncio.AbstractEventLoop] = None
        self.clients: List[ServeClient] = []

    def _server_command(self) -> List[str]:
        arguments = [
            "--unix-socket", self.socket,
            "--transport", "shm",
            "--workers", str(self.workers_per_executor),
            "--warm-kernels", ",".join(ENGINE_KERNELS),
            "--quota-rate", _QUOTA,
            "--quota-burst", _QUOTA,
        ]
        if self.recorder is not None:
            launcher = os.path.join(ROOT, "bench", "serve_traced.py")
            return [sys.executable, launcher, self.server_trace_path] + arguments
        entry = "import sys; from repro.cli import serve_main; sys.exit(serve_main(sys.argv[1:]))"
        return [sys.executable, "-c", entry] + arguments

    def setup(self) -> None:
        environment = dict(os.environ)
        environment["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(ROOT, "src"), ROOT, environment.get("PYTHONPATH", "")]
        ).rstrip(os.pathsep)
        self.server = subprocess.Popen(
            self._server_command(),
            env=environment,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            start_new_session=True,  # a Ctrl-C reaches it through teardown only
        )
        self.server_pid = self.server.pid
        self.loop = asyncio.new_event_loop()
        self.loop.run_until_complete(self._connect())

    async def _connect(self) -> None:
        deadline = time.monotonic() + 30.0
        while True:
            try:
                client = await ServeClient.connect(unix_socket=self.socket)
                break
            except OSError:
                if self.server.poll() is not None:
                    raise RuntimeError("gendp-serve exited during start-up")
                if time.monotonic() > deadline:
                    raise RuntimeError("gendp-serve did not come up in 30 s")
                await asyncio.sleep(0.02)
        self.clients = [client]
        while len(self.clients) < self.CONNECTIONS:
            self.clients.append(await ServeClient.connect(unix_socket=self.socket))
        await client.ping()
        for kernel, payload in self.first:
            response = await client.submit(kernel, payload, tenant=self.TENANTS[0])
            if not response.get("ok"):
                raise RuntimeError(f"first {kernel} job failed: {response}")

    def teardown(self) -> None:
        try:
            if self.loop is not None:
                self.loop.run_until_complete(self._disconnect())
                self.loop.close()
        finally:
            self.loop = None
            self.clients = []
            server, self.server = self.server, None
            if server is not None:
                _stop(server)
            if os.path.exists(self.socket):
                os.unlink(self.socket)

    async def _disconnect(self) -> None:
        for client in self.clients:
            await client.close()

    def run_pass(self) -> PassResult:
        return self.loop.run_until_complete(self._pass())

    async def _pass(self) -> PassResult:
        latencies: List[float] = [0.0] * len(self.specs)
        outputs: List[Any] = [None] * len(self.specs)

        async def lane(client: ServeClient, indexes) -> None:
            for index in indexes:
                kernel, payload = self.specs[index]
                tenant = self.TENANTS[index % len(self.TENANTS)]
                started = time.perf_counter()
                try:
                    response = await asyncio.wait_for(
                        client.submit(kernel, payload, tenant=tenant), timeout=30.0
                    )
                except (asyncio.TimeoutError, ConnectionError, OSError) as error:
                    response = {"ok": False, "error": type(error).__name__}
                ended = time.perf_counter()
                latencies[index] = ended - started
                if self.recorder is not None:
                    self.recorder.add("serve.client.request", started, ended, kernel)
                if response.get("ok"):
                    outputs[index] = response["value"]
                else:
                    outputs[index] = {"error": response.get("error")}

        lanes = []
        for position, client in enumerate(self.clients):
            # One shared iterator per connection: each of its lanes
            # takes the next request as soon as its previous one is
            # answered (a closed loop of OUTSTANDING per connection).
            shared = iter(range(position, len(self.specs), len(self.clients)))
            lanes.extend(lane(client, shared) for _ in range(self.OUTSTANDING))
        await asyncio.gather(*lanes)
        return PassResult(latencies=latencies, outputs=outputs, cells=self.cells)

    def set_tracing(self, enabled: bool) -> None:
        """Switch the traced server's recorder (see serve_traced.py)."""
        self.server.send_signal(signal.SIGUSR1 if enabled else signal.SIGUSR2)
        time.sleep(0.01)  # the server handles it between two bytecodes

    def counters(self) -> Dict[str, float]:
        stats = self.loop.run_until_complete(self.clients[0].stats())
        flat = {name: float(value) for name, value in stats.get("counters", {}).items()}
        flat["now"] = time.perf_counter()
        return flat


def _stop(process: subprocess.Popen) -> None:
    """terminate, wait with a timeout, then kill -- the server and the
    shm workers in its session."""
    if process.poll() is None:
        process.terminate()
        try:
            process.wait(timeout=15)
        except subprocess.TimeoutExpired:
            pass
    try:
        os.killpg(process.pid, signal.SIGKILL)  # stragglers of its session
    except (ProcessLookupError, PermissionError):
        pass
    process.wait()


# ----------------------------------------------------------------------


class EngineInlineLarge(JobWorkload):
    name = "engine_inline_large"
    #: One job of each kernel: every chunk costs the same, so the
    #: latency pool is one population.
    CHUNK = len(ENGINE_KERNELS)

    def __init__(self, seed: int, scale: float, run_dir: str, inject: Optional[str] = None):
        # Smoke shrinks the tables, not the chunk shape.
        specs = (
            inputs.mixed_jobs(seed, 2, inputs.LARGE)
            if scale >= 1
            else inputs.mixed_jobs(seed, 1, inputs.SMALL)
        )
        super().__init__(specs, inject)
        self.first = inputs.minimal_jobs(seed)
        self.engine: Optional[Engine] = None

    def setup(self) -> None:
        self.engine = Engine(EngineConfig(workers=0))
        self.engine.submit_many([make_job(k, p) for k, p in self.first])
        if not all(result.ok for result in self.engine.drain()):
            raise RuntimeError("first drain failed")

    def teardown(self) -> None:
        engine, self.engine = self.engine, None
        if engine is not None:
            engine.close()

    def run_pass(self) -> PassResult:
        return _chunked_pass(self, self.engine, self.engine.drain)

    def counters(self) -> Dict[str, float]:
        return flatten_engine([self.engine.snapshot()])


def _chunked_pass(workload: JobWorkload, front, drain) -> PassResult:
    latencies: List[float] = []
    outputs: List[Any] = []
    for start in range(0, len(workload.specs), workload.CHUNK):
        chunk = workload.specs[start : start + workload.CHUNK]
        jobs = [make_job(kernel, payload) for kernel, payload in chunk]
        started = time.perf_counter()
        try:
            front.submit_many(jobs)
            by_id = {result.job_id: result for result in drain()}
            lost = "lost in drain"
        except Exception as error:  # a refused chunk fails all its jobs
            by_id = {}
            lost = f"{type(error).__name__}: {error}"
        latencies.append(time.perf_counter() - started)
        for job in jobs:
            result = by_id.get(job.job_id)
            outputs.append(_value(result) if result is not None else {"error": lost})
    return PassResult(latencies=latencies, outputs=outputs, cells=workload.cells)


# ----------------------------------------------------------------------


class ClusterDurable(JobWorkload):
    name = "cluster_durable"
    workers_per_executor = 1
    CHUNK = 64
    RECOVERIES = 3

    def __init__(self, seed: int, scale: float, run_dir: str, inject: Optional[str] = None):
        # Whole chunks, each 64 interleaved jobs (12-13 per kernel).
        chunks = _scaled(15, scale)
        specs = inputs.mixed_jobs(seed, -(-chunks * self.CHUNK // 5), inputs.SMALL)
        super().__init__(specs[: chunks * self.CHUNK], inject)
        self.first = inputs.minimal_jobs(seed)
        self.run_dir = run_dir
        self.journal_dir = ""
        self.generation = 0
        self.router: Optional[ClusterRouter] = None

    def _config(self, transport: Optional[TransportConfig]) -> ClusterConfig:
        return ClusterConfig(
            shards=2,
            engine=EngineConfig(transport=transport, validate_fraction=0.1),
            durability=DurabilityConfig(dir_path=self.journal_dir, fsync="interval"),
        )

    def setup(self) -> None:
        self.generation += 1
        self.journal_dir = os.path.join(self.run_dir, f"journal-{self.generation}")
        self.router = ClusterRouter(
            self._config(
                TransportConfig(
                    backend="shm",
                    workers=self.workers_per_executor,
                    warm_kernels=ENGINE_KERNELS,
                )
            )
        )
        self.router.submit_many([make_job(k, p) for k, p in self.first])
        if not all(result.ok for result in self.router.drain_until_settled()):
            raise RuntimeError("first drain failed")

    def teardown(self) -> None:
        router, self.router = self.router, None
        if router is not None:
            router.close()
        shutil.rmtree(self.journal_dir, ignore_errors=True)

    def run_pass(self) -> PassResult:
        return _chunked_pass(self, self.router, self.router.drain_until_settled)

    def counters(self) -> Dict[str, float]:
        shards = self.router.shards
        engines = [shard.engine.snapshot() for shard in shards.values()]
        flat = flatten_engine(engines + [self.router.metrics.snapshot()])
        for shard_id, snap in zip(shards, engines):
            flat[f"shard.{shard_id}.jobs"] = snap["counters"].get("jobs_completed", 0)
        return flat

    def finish(self) -> Dict[str, float]:
        """Close the serving router, then time ``recover()`` on fresh
        routers over the journal it wrote (inline shards: the replay is
        what is timed, not worker spawn)."""
        self.router.close()
        self.router = None
        journal_bytes = sum(
            os.path.getsize(os.path.join(self.journal_dir, name))
            for name in os.listdir(self.journal_dir)
            if os.path.isfile(os.path.join(self.journal_dir, name))
        )
        seconds, report = [], None
        for _ in range(self.RECOVERIES):
            with ClusterRouter(self._config(None)) as fresh:
                started = time.perf_counter()
                report = fresh.recover()
                seconds.append(time.perf_counter() - started)
        return {
            "recover_s": statistics.median(seconds),
            "replayed_records": report.replayed_records,
            "recovered_accepted": report.accepted,
            "recovered_orphans": report.orphans,
            "journal_bytes": journal_bytes,
        }


# ----------------------------------------------------------------------


class CompileCold(JobWorkload):
    name = "compile_cold"

    def __init__(self, seed: int, scale: float, run_dir: str, inject: Optional[str] = None):
        self.iterations = _scaled(40, scale)
        super().__init__(inputs.minimal_jobs(seed) * self.iterations, inject)
        self.minimal = self.specs[: len(ENGINE_KERNELS)]
        self.bundles: Dict[str, int] = {}
        self.totals: List[Dict[str, Any]] = []

    def _iteration(self, latencies: List[float], outputs: List[Any]) -> None:
        with Engine(EngineConfig(optimize_programs=True)) as engine:
            for kernel, payload in self.minimal:
                job = make_job(kernel, payload)
                started = time.perf_counter()
                engine.submit(job)
                results = engine.drain()
                latencies.append(time.perf_counter() - started)
                outputs.append(_value(results[0]))
            if self.recorder is not None:
                self.totals.append(engine.snapshot())

    def setup(self) -> None:
        self._iteration([], [])
        # The bundle counts are a property of the compiler, not of a
        # run: one optimizing compile per kernel through the public
        # seam the engine itself calls.
        self.bundles = {
            kernel: len(
                compile_program(
                    kernel, 2, build_dfg(kernel), default_pipeline(contract_for(kernel))
                ).instructions
            )
            for kernel in ENGINE_KERNELS
        }

    def teardown(self) -> None:
        pass

    def run_pass(self) -> PassResult:
        latencies: List[float] = []
        outputs: List[Any] = []
        for _ in range(self.iterations):
            self._iteration(latencies, outputs)
        counts = {f"bundles.{k}": float(v) for k, v in self.bundles.items()}
        return PassResult(latencies, outputs, self.cells, counts)

    def counters(self) -> Dict[str, float]:
        return flatten_engine(self.totals)


# ----------------------------------------------------------------------


class DpaxTiles(Workload):
    name = "dpax_tiles"

    def __init__(self, seed: int, scale: float, run_dir: str, inject: Optional[str] = None):
        # Smoke shrinks the streamed dimension, not the tile count.
        stream = 64 if scale >= 1 else 16
        self.tiles = inputs.tiles(
            seed,
            stream=stream,
            anchors=_scaled(120, max(scale, 0.2)),
            poa_bases=32 if scale >= 1 else 12,
        )
        self.first = inputs.tiles(seed + 1, stream=16, anchors=16, poa_bases=8)
        self.inject = inject
        self.expected: List[Any] = []
        self.specs: Dict[str, Any] = {}

    def setup(self) -> None:
        self.specs = {
            "bsw": bsw_wavefront_spec(),
            "pairhmm": pairhmm_boundary_for_length(pairhmm_wavefront_spec(), 16),
        }
        t = self.tiles
        chain = chain_reordered_fixed(t.anchors, n=_CHAIN_PES)
        h_table, _, _ = graph_dp_tables(t.poa_graph, t.poa_query)
        self.expected = [
            align(t.bsw_query, t.bsw_target, mode=AlignmentMode.LOCAL).score,
            pairhmm_forward(t.hmm_read, t.hmm_haplotype),
            (chain.scores, chain.parents),
            [row[1:] for row in h_table],
        ]
        if self.inject == "wrong-expected":
            self.expected[0] += 1
        for kernel in SIM_KERNELS:
            self._run(kernel, self.first)

    def teardown(self) -> None:
        pass

    def _run(self, kernel: str, t: inputs.Tiles, profile: bool = False):
        if kernel == "bsw":
            return run_wavefront(
                self.specs["bsw"], target=encode(t.bsw_target),
                stream=encode(t.bsw_query), profile=profile,
            )
        if kernel == "pairhmm":
            return run_wavefront(
                self.specs["pairhmm"], target=encode(t.hmm_haplotype),
                stream=encode(t.hmm_read), profile=profile,
            )
        if kernel == "chain":
            return run_chain(t.anchors, total_pes=_CHAIN_PES, profile=profile)
        return run_poa_row_dp(t.poa_graph, t.poa_query)

    @staticmethod
    def _output(kernel: str, run: Any) -> Any:
        if not run.finished:
            return {"error": "cycle cap hit"}
        if kernel == "bsw":
            return max(run.epilogue_series("hmax"))
        if kernel == "pairhmm":
            total = -(1 << 20)
            for values in (v for p in run.epilogue_values for v in p):
                total = log_sum_lookup(
                    total, log_sum_lookup(values["m_up"], values["i_up"])
                )
            return (total / (1 << LOG_FRACTION_BITS)) * math.log10(2)
        if kernel == "chain":
            return (run.result.scores, run.result.parents)
        return run.h

    def run_pass(self) -> PassResult:
        latencies, outputs, counts, cells = [], [], {}, 0
        for kernel in SIM_KERNELS:
            span = self.recorder.open("dpax.tile", kernel) if self.recorder else None
            started = time.perf_counter()
            run = self._run(kernel, self.tiles)
            latencies.append(time.perf_counter() - started)
            if span is not None:
                self.recorder.close(span)
            outputs.append(self._output(kernel, run))
            counts[f"cycles.{kernel}"] = float(run.cycles)
            counts[f"cells.{kernel}"] = float(run.cells)
            cells += run.cells
        return PassResult(latencies, outputs, cells, counts)

    def failures(self, outputs: Sequence[Any]) -> Set[int]:
        bad = set()
        for index, (kernel, got, want) in enumerate(zip(SIM_KERNELS, outputs, self.expected)):
            if isinstance(got, dict):
                ok = False
            elif kernel == "pairhmm":
                ok = abs(got - want) <= _PAIRHMM_TOLERANCE
            elif kernel == "chain":
                ok = (list(got[0]), list(got[1])) == (list(want[0]), list(want[1]))
            else:
                ok = got == want
            if not ok:
                bad.add(index)
        return bad

    def finish(self) -> Dict[str, float]:
        """Traced runs only: one profiled run of each tile that can be
        profiled, for occupancy and the profiler's own cost."""
        if self.recorder is None:
            return {}
        measured: Dict[str, float] = {}
        for kernel in ("bsw", "pairhmm", "chain"):
            started = time.perf_counter()
            run = self._run(kernel, self.tiles, profile=True)
            measured[f"profiled_s.{kernel}"] = time.perf_counter() - started
            measured[f"occupancy.{kernel}"] = run.profile.bundles / (
                run.cycles * TILE_PES[kernel]
            )
        return measured


WORKLOAD_CLASSES = {
    cls.name: cls
    for cls in (ServeSmallMixed, EngineInlineLarge, ClusterDurable, CompileCold, DpaxTiles)
}
