"""``gendp-serve``: the asyncio newline-delimited-JSON serving tier.

Stdlib only, mirroring the :class:`repro.obs.server.MetricsServer`
idiom: a thin network front door over the engine, with the policy --
admission control, queue-depth backpressure, priority classes,
per-tenant token buckets, graceful drain -- in plain objects that the
tests drive directly.

Protocol: one JSON object per line, both directions, over TCP or a
Unix socket.  Requests:

- ``{"op": "ping"}`` -- liveness, answers ``{"ok": true, "op": "pong"}``;
- ``{"op": "submit", "kernel": ..., "payload": {...}, "tenant": ...,
  "priority": "high|normal|low", "id": ...}`` -- one job; the response
  carries the job's result (or the admission rejection) and echoes
  ``id``;
- ``{"op": "batch", "tenant": ..., "jobs": [{kernel, payload,
  priority}, ...]}`` -- many jobs in one round trip; per-job admission,
  one ``results`` array back;
- ``{"op": "stats"}`` -- serving counters + queue depth.

A job is validated before it is admitted: a malformed one -- including
one whose payload names an engine-private ``_``-prefixed key, such as
a fault-injection marker -- gets ``{"ok": false, "error": "bad job:
..."}`` (in its slot of a batch) and costs its tenant no quota token
and no ledger submission.

Dispatch: admitted jobs land on an asyncio queue; a single dispatcher
task takes everything already queued, then keeps the batch open while
requests keep arriving -- it closes after :data:`GATHER_GAP_S` without
an arrival, at ``max_batch``, or :data:`FLUSH_INTERVAL_S` after its
first job, whichever comes first.  So batch size follows load: a lone
request is sent within a millisecond, a closed loop of clients refills
the batch while the previous drain's answers go out.  The dispatcher
submits to the engine and runs the **synchronous** drain in the default
executor so the event loop keeps accepting while DP tables sweep; a
drain that raises answers its batch with error envelopes and the
dispatcher carries on.  The
engine under the server is typically configured with the
shared-memory transport (:mod:`repro.serve.transport`), making the
whole path: socket -> admission -> ring -> warm worker -> ring ->
socket, with the only pickling on rejected fast-path payloads.

Observability: ``serve:accept`` / ``serve:admit`` / ``serve:dispatch``
spans land in the engine's tracer when one is attached, every log
record a request's handler emits carries its ``trace_id`` and
``tenant`` (one :func:`repro.obs.logs.log_context` per request) and a
dispatch's records its ``trace_id``, and the ``serve``
family of :data:`repro.engine.metrics.COUNTERS` lives in the engine's
metrics registry so the existing Prometheus exporters pick it up
unchanged.

Graceful drain: SIGINT/SIGTERM (or :meth:`GendpServer.request_shutdown`)
stops admission (``draining`` rejections), lets in-flight work
complete up to :data:`DRAIN_TIMEOUT_S`, then closes the listener.
"""

from __future__ import annotations

import asyncio
import json
import signal
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from dataclasses import replace

from repro.engine import Engine, make_job
from repro.engine.jobs import JobValidationError
from repro.obs.logs import get_logger, log_context
from repro.serve.admission import (
    AdmissionController,
    priority_for,
)
from repro.serve.lines import LineWriter
from repro.serve.quota import TenantQuotas
from repro.slo.accounting import TenantLedger

_LOG = get_logger("repro.serve.server")

#: Tenant used when a request names none.
DEFAULT_TENANT = "default"

#: Longest a batch stays open after its first job arrives.
FLUSH_INTERVAL_S = 0.01
#: A batch closes once no request has arrived for this long.
GATHER_GAP_S = 0.001
#: Seconds a drain waits for in-flight work before closing anyway.
DRAIN_TIMEOUT_S = 10.0


@dataclass(frozen=True)
class ServeConfig:
    """``gendp-serve`` tuning knobs."""

    host: str = "127.0.0.1"
    #: TCP port (0 = ephemeral); ignored when ``unix_socket`` is set.
    port: int = 0
    #: Path to serve a Unix socket on instead of TCP.
    unix_socket: Optional[str] = None
    #: Admitted-but-unanswered request ceiling (backpressure past it).
    max_pending: int = 256
    #: Jobs the dispatcher packs into one engine drain.
    max_batch: int = 64
    #: Token-bucket defaults (tokens/second, burst) for unnamed tenants.
    default_rate: float = 200.0
    default_burst: float = 100.0
    #: Per-tenant ``(rate, burst)`` overrides.
    tenant_quotas: Mapping[str, Tuple[float, float]] = field(
        default_factory=dict
    )
    #: Directory for the request-level write-ahead journal
    #: (:mod:`repro.durable`).  When set, ``submit`` requests carrying
    #: a ``dedupe_id`` are journaled before execution and their
    #: results after it, so a crashed server finishes accepted work at
    #: restart and a reconnecting client's resend is answered from the
    #: journal instead of re-executing.  None disables journaling.
    journal_dir: Optional[str] = None
    #: Fsync policy for the request journal.
    journal_fsync: str = "interval"
    #: Replay the request journal in :meth:`GendpServer.start`.
    recover_on_start: bool = True

    def __post_init__(self) -> None:
        if self.max_pending <= 0:
            raise ValueError("max_pending must be positive")
        if self.max_batch <= 0:
            raise ValueError("max_batch must be positive")
        # A bucket is built lazily at a tenant's first request; an
        # impossible quota must fail here, not on every request.
        quotas = [("default", self.default_rate, self.default_burst)]
        quotas += [(t, r, b) for t, (r, b) in self.tenant_quotas.items()]
        for tenant, rate, burst in quotas:
            if not (rate > 0 and burst > 0):
                raise ValueError(
                    f"quota {tenant}={rate}:{burst} needs a positive "
                    "rate and burst"
                )


class GendpServer:
    """The asyncio serving front-end over one :class:`Engine`.

    Anything engine-shaped works -- in particular a
    :class:`repro.cluster.ClusterRouter` (``gendp-serve --shards N``)
    slots in unchanged: per-shard admission happens inside the
    router's ring walk, stats gain a ``shards`` topology map, and
    result payloads carry the producing shard.
    """

    def __init__(
        self,
        engine: Engine,
        config: Optional[ServeConfig] = None,
        tracer: Optional[object] = None,
        ledger: Optional[TenantLedger] = None,
    ):
        self.engine = engine
        self.config = config or ServeConfig()
        #: Per-tenant usage ledger (always on -- folding a counter per
        #: request is cheap, and billing data that starts at tenant
        #: zero is worth far more than the branch it saves).
        self.ledger = ledger if ledger is not None else TenantLedger()
        # Default to the engine's tracer so serve spans and engine
        # spans land in one timeline.
        self.tracer = tracer if tracer is not None else engine.tracer
        self.quotas = TenantQuotas(
            default_rate=self.config.default_rate,
            default_burst=self.config.default_burst,
            overrides=self.config.tenant_quotas,
        )
        self.admission = AdmissionController(
            self.quotas, self.config.max_pending
        )
        self._queue: asyncio.Queue = asyncio.Queue()
        self._pending = 0
        self._draining = False
        self._server: Optional[asyncio.AbstractServer] = None
        self._conn_writers: set = set()
        self._dispatcher_task: Optional[asyncio.Task] = None
        self._done = asyncio.Event()
        self._idle = asyncio.Event()
        self._idle.set()
        #: Request-level WAL (None without ``config.journal_dir``);
        #: keyed by client ``dedupe_id`` strings, result payloads
        #: recorded so deduplicated resends answer without re-running.
        self.journal = None
        self._completed_requests: Dict[str, Dict[str, Any]] = {}
        if self.config.journal_dir:
            from repro.durable.journal import DurabilityConfig, Journal

            self.journal = Journal(
                DurabilityConfig(
                    dir_path=self.config.journal_dir,
                    fsync=self.config.journal_fsync,
                ),
                metrics=self.engine.metrics,
            )
        self.engine.metrics.register("serve")

    # ------------------------------------------------------------------
    # lifecycle

    async def start(self) -> "GendpServer":
        if self._server is not None:
            return self
        if self.journal is not None and self.config.recover_on_start:
            # Finish what a crashed predecessor accepted before taking
            # new connections: orphaned requests re-execute, completed
            # ones seed the dedupe cache.  Engine drains are sync, so
            # keep the (not yet serving) loop responsive via executor.
            recovered = await asyncio.get_running_loop().run_in_executor(
                None, self._recover_requests
            )
            if recovered:
                _LOG.info(
                    "request journal replayed",
                    extra={"recovered": recovered},
                )
        if self.config.unix_socket:
            self._server = await asyncio.start_unix_server(
                self._handle_connection, path=self.config.unix_socket
            )
        else:
            self._server = await asyncio.start_server(
                self._handle_connection, self.config.host, self.config.port
            )
        self._dispatcher_task = asyncio.create_task(
            self._dispatcher(), name="gendp-serve-dispatcher"
        )
        _LOG.info("gendp-serve listening", extra={"endpoint": self.endpoint})
        return self

    @property
    def endpoint(self) -> str:
        if self.config.unix_socket:
            return f"unix:{self.config.unix_socket}"
        return f"tcp:{self.config.host}:{self.port}"

    @property
    def port(self) -> int:
        if self._server is None or self.config.unix_socket:
            return self.config.port
        return self._server.sockets[0].getsockname()[1]

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def pending(self) -> int:
        return self._pending

    def install_signal_handlers(self) -> None:
        """Graceful drain on SIGINT/SIGTERM (call from the loop thread)."""
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, self.request_shutdown)
            except (NotImplementedError, RuntimeError):
                pass  # platforms without loop signal support

    def request_shutdown(self) -> None:
        """Stop admitting; finish in-flight work; then close and stop."""
        if self._draining:
            return
        self._draining = True
        _LOG.info("gendp-serve draining", extra={"pending": self._pending})
        asyncio.get_running_loop().create_task(self._finish())

    async def _finish(self) -> None:
        try:
            await asyncio.wait_for(
                self._idle.wait(), timeout=DRAIN_TIMEOUT_S
            )
        except asyncio.TimeoutError:
            _LOG.warning(
                "drain timeout; closing with work in flight",
                extra={"pending": self._pending},
            )
        await self.stop()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Sever open connections too: a stopped server must look dead to
        # its clients (their pending requests fail fast and reconnect
        # logic can kick in) rather than leaving zombie handlers that
        # still answer on a listener that no longer exists.
        for writer in list(self._conn_writers):
            try:
                writer.close()
            except Exception:
                pass
        self._conn_writers.clear()
        if self._dispatcher_task is not None:
            self._dispatcher_task.cancel()
            try:
                await self._dispatcher_task
            except asyncio.CancelledError:
                pass
            self._dispatcher_task = None
        if self.journal is not None:
            self.journal.close()
        self._done.set()

    async def serve_forever(self) -> None:
        """Block until a drain (signal or explicit) completes."""
        await self.start()
        await self._done.wait()

    # ------------------------------------------------------------------
    # connections

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        if self._server is None:
            # stop() ran between the accept and this task getting
            # scheduled: the dispatcher is gone, so serving this
            # connection would admit requests nobody will ever answer.
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass
            return
        self.engine.metrics.incr("serve_connections")
        peer = writer.get_extra_info("peername") or writer.get_extra_info(
            "sockname"
        )
        if self.tracer is not None:
            self.tracer.event("serve:accept", cat="serve", peer=str(peer))
        responses = LineWriter(writer)
        tasks: Set[asyncio.Task] = set()

        def finished(task: asyncio.Task) -> None:
            tasks.discard(task)
            if not task.cancelled():
                task.exception()  # read: what escapes is a vanished peer

        self._conn_writers.add(writer)
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                if not line.strip():
                    continue
                task = asyncio.create_task(self._handle_line(line, responses))
                tasks.add(task)
                task.add_done_callback(finished)
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
        except (
            ConnectionResetError,
            asyncio.IncompleteReadError,
            asyncio.CancelledError,  # server close cancels handlers
        ):
            pass
        finally:
            self._conn_writers.discard(writer)
            responses.flush()
            try:
                writer.close()
                await writer.wait_closed()
            except (Exception, asyncio.CancelledError):
                pass  # server close cancels the wait; nothing to flush

    async def _respond(
        self, responses: LineWriter, response: Dict[str, Any]
    ) -> int:
        data = (json.dumps(response, default=str) + "\n").encode("utf-8")
        await responses.send(data)
        self.engine.metrics.incr("serve_responses")
        return len(data)

    async def _handle_line(self, line: bytes, responses: LineWriter) -> None:
        self.engine.metrics.incr("serve_requests")
        try:
            request = json.loads(line.decode("utf-8"))
            if not isinstance(request, dict):
                raise ValueError("request must be a JSON object")
        except (ValueError, UnicodeDecodeError) as error:
            self.engine.metrics.incr("serve_errors")
            await self._respond(
                responses, {"ok": False, "error": f"bad request: {error}"}
            )
            return
        request_id = request.get("id")
        tenant = str(request.get("tenant") or DEFAULT_TENANT)
        trace_id = (
            self.tracer.trace_id if self.tracer is not None else None
        )
        with log_context(trace_id=trace_id, tenant=tenant):
            try:
                op = str(request.get("op") or "submit")
                if op == "ping":
                    response: Dict[str, Any] = {
                        "ok": True,
                        "op": "pong",
                        "draining": self._draining,
                    }
                elif op == "stats":
                    response = self._stats()
                elif op == "submit":
                    response = await self._submit_one(request, tenant)
                elif op == "batch":
                    response = await self._submit_batch(request, tenant)
                else:
                    self.engine.metrics.incr("serve_errors")
                    response = {"ok": False, "error": f"unknown op {op!r}"}
            except Exception as error:  # request-level isolation
                self.engine.metrics.incr("serve_errors")
                response = {
                    "ok": False,
                    "error": f"{type(error).__name__}: {error}",
                }
            if request_id is not None:
                response["id"] = request_id
            if trace_id is not None:
                response.setdefault("trace_id", trace_id)
            sent = await self._respond(responses, response)
            # Transport accounting: the tenant pays for the NDJSON
            # bytes both ways -- exact, no apportionment needed.
            self.ledger.record_transport(tenant, len(line) + sent)

    def _stats(self) -> Dict[str, Any]:
        stats = {
            "ok": True,
            "op": "stats",
            "draining": self._draining,
            "pending": self._pending,
            "endpoint": self.endpoint,
            "counters": self.engine.metrics.family("serve"),
            "tenants": self.ledger.snapshot_section(),
        }
        # A cluster behind the server reports its shard topology too.
        shard_states = getattr(self.engine, "shard_states", None)
        if callable(shard_states):
            stats["shards"] = shard_states()
        return stats

    # ------------------------------------------------------------------
    # submission

    def _admit(self, tenant: str) -> Optional[Dict[str, Any]]:
        """None when admitted; the rejection response otherwise."""
        decision = self.admission.check(
            tenant, self._pending, self._draining
        )
        if self.tracer is not None:
            self.tracer.event(
                "serve:admit",
                cat="serve",
                tenant=tenant,
                admitted=decision.admitted,
                reason=decision.reason,
            )
        self.ledger.record_admission(
            tenant, decision.admitted, decision.reason
        )
        if decision.admitted:
            self.engine.metrics.incr("serve_admitted")
            return None
        self.engine.metrics.incr(
            f"serve_rejected_{decision.reason.replace('-exceeded', '')}"
        )
        _LOG.info(
            "request rejected",
            extra={"tenant": tenant, "reason": decision.reason},
        )
        return {"ok": False, "rejected": True, "error": decision.reason}

    def _build_job(self, spec: Any, tenant: str):
        """The validated :class:`Job` for *spec*; raises
        :class:`JobValidationError` for anything malformed."""
        if not isinstance(spec, Mapping):
            raise JobValidationError("a job must be a JSON object")
        payload = spec.get("payload") or {}
        for key in payload if isinstance(payload, Mapping) else ():
            # Engine-private keys (fault markers, ``_trace``...) are the
            # server's to stamp, never a network client's.
            if str(key).startswith("_"):
                raise JobValidationError(f"payload key {key!r} is engine-private")
        job = make_job(
            str(spec.get("kernel")),
            dict(payload) if isinstance(payload, Mapping) else payload,
            priority=priority_for(spec.get("priority")),
            deadline_s=spec.get("deadline_s"),
        )
        if self.tracer is not None:
            # Tenant + trace ids ride to the workers inside the payload
            # (Engine.submit would add trace/job ids; adding tenant here
            # correlates worker spans back to the paying tenant too).
            job = replace(
                job,
                payload=dict(
                    job.payload,
                    _trace={
                        "trace_id": self.tracer.trace_id,
                        "job_id": job.job_id,
                        "tenant": tenant,
                    },
                ),
            )
        return job

    def _enqueue(self, job, tenant: str) -> asyncio.Future:
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending += 1
        self._idle.clear()
        self._queue.put_nowait((job, tenant, future))  # unbounded queue
        return future

    def _result_payload(self, result) -> Dict[str, Any]:
        payload = {
            "ok": result.ok,
            "job_id": result.job_id,
            "kernel": result.kernel,
            "value": result.value,
            "error": result.error,
            "backend": result.backend,
            "attempts": result.attempts,
        }
        shard = getattr(result, "shard", None)
        if shard is not None:
            payload["shard"] = shard
        return payload

    def _bad_job(self, error: JobValidationError) -> Dict[str, Any]:
        self.engine.metrics.incr("serve_errors")
        return {"ok": False, "error": f"bad job: {error}"}

    async def _submit_one(
        self, request: Mapping[str, Any], tenant: str
    ) -> Dict[str, Any]:
        try:
            job = self._build_job(request, tenant)
        except JobValidationError as error:
            return self._bad_job(error)
        rejection = self._admit(tenant)
        if rejection is not None:
            return rejection
        dedupe_id = request.get("dedupe_id")
        if dedupe_id is not None and self.journal is not None:
            dedupe_id = str(dedupe_id)
            cached = self._completed_requests.get(dedupe_id)
            if cached is not None:
                # A reconnecting client's resend: the journal already
                # holds the answer; never execute the same request twice.
                self.engine.metrics.incr("serve_deduped")
                return dict(cached, deduped=True)
        if dedupe_id is not None and self.journal is not None:
            # Write-ahead: an un-journaled request is refused, so a
            # crash can never lose a request the client believes is in.
            try:
                self.journal.accept(job, job_id=dedupe_id, tenant=tenant)
                self.engine.metrics.incr("serve_journaled")
            except Exception as error:
                self.engine.metrics.incr("serve_errors")
                return {
                    "ok": False,
                    "rejected": True,
                    "error": f"journal write failed: {error}",
                }
        future = self._enqueue(job, tenant)
        payload = self._result_payload(await future)
        if dedupe_id is not None and self.journal is not None:
            self._journal_request_complete(dedupe_id, payload)
        return payload

    def _journal_request_complete(
        self, dedupe_id: str, payload: Dict[str, Any]
    ) -> None:
        """Record a request's answer and cache it for resends -- only
        once journaled: an unrecorded request re-executes at the next
        recovery, which is safe (dedupe only promises at-most-once
        *per journaled completion*)."""
        if self.journal.complete(
            dedupe_id, bool(payload.get("ok")), value=payload
        ):
            self._completed_requests[dedupe_id] = dict(payload)

    def _recover_requests(self) -> int:
        """Sync startup replay of the request journal.

        Completed requests seed the dedupe cache; orphans (accepted
        before a crash, never answered) re-execute through the engine
        and their results are journaled, so the client's eventual
        resend gets the answer without re-running.
        """
        from repro.engine.jobs import make_job as build

        state, _issues = self.journal.load_state()
        self.engine.metrics.incr("durable_recoveries")
        for key, record in state.completed.items():
            value = record.get("value")
            if isinstance(value, dict):
                self._completed_requests[str(key)] = value
        pending = []
        for record in state.orphans():
            try:
                job = build(
                    str(record["kernel"]),
                    dict(record.get("payload") or {}),
                    priority=int(record.get("priority", 0)),
                )
                self.engine.submit(job)
            except Exception:
                _LOG.warning(
                    "unrecoverable journaled request",
                    extra={"dedupe_id": str(record.get("job_id"))},
                )
                continue
            tenant = str(record.get("tenant") or DEFAULT_TENANT)
            pending.append((str(record.get("job_id")), tenant, job))
        if not pending:
            return 0
        drain = getattr(self.engine, "drain_until_settled", self.engine.drain)
        by_id = {result.job_id: result for result in drain()}
        recovered = 0
        for dedupe_id, tenant, job in pending:
            result = by_id.get(job.job_id)
            if result is None:
                continue
            # Recovered work is billed to its original tenant too --
            # the crash does not comp the job.
            self.ledger.record_result(tenant, job, result)
            self._journal_request_complete(
                dedupe_id, self._result_payload(result)
            )
            self.engine.metrics.incr("serve_recovered")
            recovered += 1
        return recovered

    async def _submit_batch(
        self, request: Mapping[str, Any], tenant: str
    ) -> Dict[str, Any]:
        specs = request.get("jobs")
        if not isinstance(specs, list) or not specs:
            self.engine.metrics.incr("serve_errors")
            return {"ok": False, "error": "batch needs a non-empty jobs array"}
        entries: List[Dict[str, Any]] = []
        futures: List[Tuple[int, asyncio.Future]] = []
        for index, spec in enumerate(specs):
            try:
                job = self._build_job(spec, tenant)
            except JobValidationError as error:
                entries.append(self._bad_job(error))
                continue
            rejection = self._admit(tenant)
            if rejection is not None:
                entries.append(rejection)
                continue
            futures.append((index, self._enqueue(job, tenant)))
            entries.append({})  # placeholder, filled below
        for index, future in futures:
            entries[index] = self._result_payload(await future)
        return {
            "ok": all(entry.get("ok") for entry in entries),
            "op": "batch",
            "results": entries,
        }

    # ------------------------------------------------------------------
    # dispatch

    async def _dispatcher(self) -> None:
        """Single consumer: gather a batch, drain, resolve futures."""
        loop = asyncio.get_running_loop()
        while True:
            batch = [await self._queue.get()]
            opened = loop.time()
            closed = await self._gather(loop, batch, opened + FLUSH_INTERVAL_S)
            gather_ms = (loop.time() - opened) * 1e3
            await self._dispatch(loop, batch, closed, gather_ms)

    async def _gather(self, loop, batch: List[Tuple], deadline: float) -> str:
        """Grow *batch* until arrivals pause; returns why it closed.

        Whatever is already queued joins at once; after that the batch
        waits at most :data:`GATHER_GAP_S` for each next arrival and
        closes at ``max_batch`` (``full``), after a quiet gap (``gap``)
        or :data:`FLUSH_INTERVAL_S` after its first job (``deadline``).
        Every wait is on the queue itself, so an idle server sleeps.
        """
        queue, limit = self._queue, self.config.max_batch
        while True:
            while len(batch) < limit and not queue.empty():
                batch.append(queue.get_nowait())
            if len(batch) >= limit:
                return "full"
            left = deadline - loop.time()
            if left <= 0:
                return "deadline"
            try:
                batch.append(
                    await asyncio.wait_for(queue.get(), min(GATHER_GAP_S, left))
                )
            except asyncio.TimeoutError:
                return "gap" if left > GATHER_GAP_S else "deadline"

    async def _dispatch(
        self, loop, batch: List[Tuple], closed: str, gather_ms: float
    ) -> None:
        self.engine.metrics.incr("serve_dispatches")
        trace_id = self.tracer.trace_id if self.tracer is not None else None
        start = self.tracer.now() if self.tracer is not None else 0.0
        tenants = sorted({tenant for _, tenant, _ in batch})
        with log_context(trace_id=trace_id):
            accepted: List[Tuple[Any, str, asyncio.Future]] = []
            for job, tenant, future in batch:
                try:
                    self.engine.submit(job)
                    accepted.append((job, tenant, future))
                except Exception as error:  # incl. BackpressureError
                    result = _ErrorResult(job, f"{type(error).__name__}: {error}")
                    self.ledger.record_result(tenant, job, result)
                    self._resolve(future, result)
            if accepted:
                # The drain is synchronous engine code; the default
                # executor keeps the loop accepting while tables sweep.
                # A cluster settles over multiple rounds (failover,
                # partition healing), so prefer its settling drain.
                drain = getattr(
                    self.engine, "drain_until_settled", self.engine.drain
                )
                lost = "lost in drain"
                try:
                    results = await loop.run_in_executor(None, drain)
                except Exception as error:
                    # The engine's own drain is crash-safe; anything
                    # else behind the server may not be.  Answer this
                    # batch with error envelopes and keep dispatching.
                    lost = f"drain-fault: {type(error).__name__}: {error}"
                    _LOG.error(
                        "dispatch drain fault",
                        extra={"error": lost, "jobs": len(accepted)},
                    )
                    results = []
                by_id = {result.job_id: result for result in results}
                for job, tenant, future in accepted:
                    result = by_id.get(job.job_id)
                    if result is None:
                        result = _ErrorResult(job, lost)
                    self.ledger.record_result(tenant, job, result)
                    self._resolve(future, result)
        if self.tracer is not None:
            self.tracer.add_span(
                "serve:dispatch",
                start,
                self.tracer.now(),
                cat="serve",
                jobs=len(batch),
                tenants=",".join(tenants),
                closed=closed,
                gather_ms=round(gather_ms, 3),
            )

    def _resolve(self, future: asyncio.Future, result) -> None:
        self._pending -= 1
        if self._pending <= 0:
            self._idle.set()
        if not future.done():
            future.set_result(result)


class _ErrorResult:
    """A JobResult-shaped envelope for jobs that never reached a drain."""

    def __init__(self, job, error: str):
        self.ok = False
        self.job_id = job.job_id
        self.kernel = job.kernel
        self.value = None
        self.error = error
        self.backend = "none"
        self.attempts = 0
