"""Async ndjson client helpers for ``gendp-serve``.

Thin by design: the protocol is one JSON object per line in each
direction, so a client is a reader/writer pair plus a request counter.
These helpers exist so the tests, the CI smoke job, and interactive
use all speak the protocol the same way instead of each hand-rolling
``json.dumps(...) + "\\n"``.

Responses are returned as plain dicts -- admission rejections come
back as ``{"ok": False, "rejected": True, "error": "<reason>"}``
rather than raising, because a rejection is an expected protocol
outcome the caller usually branches on (back off, drop, retry).

Transient transport failures are a different matter: a server restart
mid-stream drops the connection and every in-flight waiter fails with
:class:`ConnectionError`.  Pass a :class:`ReconnectPolicy` to
``connect()`` and :meth:`ServeClient.request` will redial the same
endpoint with bounded, *seeded* exponential backoff and resend the
request on the fresh connection.  The retry is at-least-once -- only
requests whose response never arrived are resent -- which matches the
idempotent ops (``ping``/``stats``) and the serving tier's
exactly-one-envelope-per-job accounting for submits.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.faults.plan import unit_draw
from repro.serve.lines import LineWriter

#: Errors worth redialing through: the transport died underneath us.
_TRANSIENT_ERRORS = (ConnectionError, OSError, asyncio.IncompleteReadError)


@dataclass(frozen=True)
class ReconnectPolicy:
    """Bounded, seeded exponential backoff for client redials."""

    #: Redial attempts per failed request before the error propagates.
    max_attempts: int = 3
    #: First backoff delay; doubles each attempt.
    base_backoff_s: float = 0.05
    #: Backoff ceiling.
    max_backoff_s: float = 1.0
    #: Seeds the jitter -- two clients with the same seed back off
    #: identically (reproducible reconnect storms in tests).
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.base_backoff_s < 0 or self.max_backoff_s < 0:
            raise ValueError("backoff delays must be non-negative")

    def backoff_s(self, attempt: int) -> float:
        """Delay before redial *attempt* (0-based), jittered by seed."""
        base = min(self.max_backoff_s, self.base_backoff_s * (2 ** attempt))
        jitter = 0.5 + 0.5 * unit_draw(self.seed, "reconnect", attempt)
        return base * jitter


class ServeClient:
    """One connection to a ``gendp-serve`` endpoint.

    Requests are sent with monotonically increasing ``id`` fields and
    responses are matched back by id, so a single connection may have
    many requests in flight (the server handles lines concurrently).
    """

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        endpoint: Optional[Tuple[str, int, Optional[str]]] = None,
        reconnect: Optional[ReconnectPolicy] = None,
    ):
        self._reader = reader
        self._writer = writer
        self._lines = LineWriter(writer)
        self._endpoint = endpoint
        self._reconnect_policy = reconnect
        self._next_id = 0
        self._waiters: Dict[int, asyncio.Future] = {}
        self._reader_task: Optional[asyncio.Task] = None
        #: Successful redials performed so far (observable in tests).
        self.reconnects = 0

    # ------------------------------------------------------------------
    # connection management

    @staticmethod
    async def _open(
        host: str, port: int, unix_socket: Optional[str]
    ) -> Tuple[asyncio.StreamReader, asyncio.StreamWriter]:
        if unix_socket:
            return await asyncio.open_unix_connection(unix_socket)
        return await asyncio.open_connection(host, port)

    @classmethod
    async def connect(
        cls,
        host: str = "127.0.0.1",
        port: int = 0,
        unix_socket: Optional[str] = None,
        reconnect: Optional[ReconnectPolicy] = None,
    ) -> "ServeClient":
        reader, writer = await cls._open(host, port, unix_socket)
        client = cls(
            reader,
            writer,
            endpoint=(host, port, unix_socket),
            reconnect=reconnect,
        )
        client._reader_task = asyncio.create_task(client._read_loop())
        return client

    async def _redial(self) -> None:
        """Replace the dead connection with a fresh one (same endpoint)."""
        if self._endpoint is None:
            raise ConnectionError("client has no endpoint to redial")
        if self._reader_task is not None:
            self._reader_task.cancel()
            try:
                await self._reader_task
            except (asyncio.CancelledError, *_TRANSIENT_ERRORS):
                pass  # the loop died with the transport; expected here
            self._reader_task = None
        try:
            self._writer.close()
            await self._writer.wait_closed()
        except Exception:
            pass  # the old transport is already broken
        host, port, unix_socket = self._endpoint
        self._reader, self._writer = await self._open(host, port, unix_socket)
        self._lines = LineWriter(self._writer)
        self._reader_task = asyncio.create_task(self._read_loop())
        self.reconnects += 1

    async def close(self) -> None:
        if self._reader_task is not None:
            self._reader_task.cancel()
            try:
                await self._reader_task
            except (asyncio.CancelledError, *_TRANSIENT_ERRORS):
                pass  # a dead transport is not an error when closing
            self._reader_task = None
        try:
            self._writer.close()
            await self._writer.wait_closed()
        except Exception:
            pass
        for waiter in self._waiters.values():
            if not waiter.done():
                waiter.set_exception(ConnectionError("client closed"))
        self._waiters.clear()

    async def __aenter__(self) -> "ServeClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # ------------------------------------------------------------------
    # protocol

    async def _read_loop(self) -> None:
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    break
                try:
                    response = json.loads(line.decode("utf-8"))
                except (ValueError, UnicodeDecodeError):
                    continue
                waiter = self._waiters.pop(response.get("id"), None)
                if waiter is not None and not waiter.done():
                    waiter.set_result(response)
        except (ConnectionResetError, asyncio.CancelledError):
            raise
        finally:
            for waiter in list(self._waiters.values()):
                if not waiter.done():
                    waiter.set_exception(ConnectionError("server closed"))
            self._waiters.clear()

    async def request(self, body: Dict[str, Any]) -> Dict[str, Any]:
        """Send one request object; await its matched response.

        With a :class:`ReconnectPolicy` attached, a transient transport
        failure (reset, refused redial window, server restart) redials
        the endpoint with seeded backoff and resends this request on
        the new connection; the error propagates once the attempt
        budget is spent.
        """
        policy = self._reconnect_policy
        attempts = policy.max_attempts if policy is not None else 0
        for attempt in range(attempts + 1):
            try:
                return await self._request_once(body)
            except _TRANSIENT_ERRORS:
                if attempt >= attempts:
                    raise
                await asyncio.sleep(policy.backoff_s(attempt))
                try:
                    await self._redial()
                except _TRANSIENT_ERRORS:
                    continue  # endpoint still down; next attempt redials
        raise ConnectionError("unreachable")  # pragma: no cover

    async def _request_once(self, body: Dict[str, Any]) -> Dict[str, Any]:
        # A finished read loop means the transport is already dead: a
        # waiter registered now would never be resolved (the loop's
        # cleanup ran before we got here), so fail fast instead.
        if self._reader_task is None or self._reader_task.done():
            raise ConnectionError("connection lost")
        self._next_id += 1
        request_id = self._next_id
        body = dict(body, id=request_id)
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._waiters[request_id] = future
        try:
            await self._lines.send((json.dumps(body) + "\n").encode("utf-8"))
        except Exception:
            # the caller gets the write error; the waiter must not linger
            # for close() to fail later with nobody left to retrieve it
            self._waiters.pop(request_id, None)
            if future.done():
                future.exception()  # retrieved: no destructor warning
            raise
        return await future

    # ------------------------------------------------------------------
    # convenience ops

    async def ping(self) -> Dict[str, Any]:
        return await self.request({"op": "ping"})

    async def stats(self) -> Dict[str, Any]:
        return await self.request({"op": "stats"})

    async def submit(
        self,
        kernel: str,
        payload: Dict[str, Any],
        tenant: Optional[str] = None,
        priority: Optional[str] = None,
        dedupe_id: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Submit one job.

        *dedupe_id* is the exactly-once handle for journaled servers
        (``ServeConfig.journal_dir``): a resend after a reconnect --
        including against a restarted server -- with the same id is
        answered from the journal instead of re-executing.
        """
        body: Dict[str, Any] = {
            "op": "submit",
            "kernel": kernel,
            "payload": payload,
        }
        if tenant is not None:
            body["tenant"] = tenant
        if priority is not None:
            body["priority"] = priority
        if dedupe_id is not None:
            body["dedupe_id"] = str(dedupe_id)
        return await self.request(body)

    async def submit_batch(
        self,
        jobs: Sequence[Dict[str, Any]],
        tenant: Optional[str] = None,
    ) -> Dict[str, Any]:
        body: Dict[str, Any] = {"op": "batch", "jobs": list(jobs)}
        if tenant is not None:
            body["tenant"] = tenant
        return await self.request(body)

