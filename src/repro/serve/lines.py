"""Coalesced newline-delimited writes for both ends of ``gendp-serve``.

Client and server each answer many concurrent requests over one
connection.  A write (and a ``drain()``) per line costs a ``send``
syscall and a peer wake-up per line; :class:`LineWriter` instead queues
every line written in one event-loop turn and hands them to the
transport as one write at the end of that turn.  Backpressure is kept:
a line queued while the transport holds more than its high-water mark
waits in ``drain()``, so a peer that stops reading still pushes back on
the writers.
"""

from __future__ import annotations

import asyncio
from typing import List


class LineWriter:
    """One connection's outgoing lines, coalesced per loop turn."""

    def __init__(self, writer: asyncio.StreamWriter):
        self._writer = writer
        self._high_water = writer.transport.get_write_buffer_limits()[1]
        self._lines: List[bytes] = []

    async def send(self, data: bytes) -> None:
        if not self._lines:
            asyncio.get_running_loop().call_soon(self.flush)
        self._lines.append(data)
        if self._writer.transport.get_write_buffer_size() > self._high_water:
            await self._writer.drain()

    def flush(self) -> None:
        """Write what is queued now (a no-op when nothing is)."""
        if self._lines:
            data, self._lines = b"".join(self._lines), []
            if not self._writer.is_closing():
                self._writer.write(data)
