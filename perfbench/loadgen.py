"""Asyncio HTTP/1.1 load generator: one connection per lane, open or closed loop.

A :class:`Lane` is one client connection slot.  It sends requests with a
``Content-Length``, reuses the connection while responses allow it and
reconnects after a ``Connection: close``, so a server that starts
keeping connections alive shows its gain without any edit here.
Requests on a lane are sequential: in an open loop a request whose turn
comes while the lane is still busy goes out late, and that lateness is
recorded and counted into its latency (timed from its due time).
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple


class RequestFailed(Exception):
    """Connection error, timeout, malformed response or non-200 status."""


@dataclass
class Lane:
    host: str
    port: int
    timeout: float = 5.0
    requests: int = 0
    _reader: Optional[asyncio.StreamReader] = field(default=None, repr=False)
    _writer: Optional[asyncio.StreamWriter] = field(default=None, repr=False)

    async def request(self, method: str, target: str, body: bytes = b"") -> bytes:
        """Send one request; return the body of a 200, else raise RequestFailed."""
        self.requests += 1
        try:
            status, payload = await asyncio.wait_for(
                self._exchange(method, target, body), self.timeout
            )
        except (OSError, EOFError, asyncio.IncompleteReadError, asyncio.TimeoutError, ValueError) as exc:
            self.close()
            raise RequestFailed(f"{method} {target}: {exc!r}") from exc
        if status != 200:
            raise RequestFailed(f"{method} {target}: status {status}")
        return payload

    async def _exchange(self, method: str, target: str, body: bytes) -> Tuple[int, bytes]:
        if self._writer is None:
            self._reader, self._writer = await asyncio.open_connection(self.host, self.port)
        reader, writer = self._reader, self._writer
        assert reader is not None
        head = (
            f"{method} {target} HTTP/1.1\r\nHost: {self.host}\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode("latin-1")
        writer.write(head + body)
        await writer.drain()
        status_line = await reader.readline()
        parts = status_line.split()
        if len(parts) < 2:
            raise EOFError("no status line")
        status = int(parts[1])
        length = 0
        close = False
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            key = name.strip().lower()
            if key == "content-length":
                length = int(value.strip())
            elif key == "connection" and value.strip().lower() == "close":
                close = True
        payload = await reader.readexactly(length) if length else b""
        if close:
            self.close()
        return status, payload

    def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
        self._reader = self._writer = None


@dataclass
class Sent:
    """One open-loop request's timing (loop clock, seconds)."""

    tag: str
    due: float
    sent: float
    done: float
    ok: bool
    payload: bytes = b""

    @property
    def latency(self) -> float:
        return self.done - self.due


async def sleep_until(due: float) -> None:
    loop = asyncio.get_running_loop()
    while True:
        delay = due - loop.time()
        if delay <= 0:
            return
        await asyncio.sleep(delay)


async def open_loop(
    lane: Lane,
    schedule: Sequence[Tuple[float, str, str, bytes, str]],
    out: List[Sent],
) -> None:
    """Send ``(due, method, target, body, tag)`` entries on their schedule.

    The lane is sequential, so an entry whose due time passes while the
    previous request is in flight is sent as soon as the lane frees up.
    """
    loop = asyncio.get_running_loop()
    for due, method, target, body, tag in schedule:
        await sleep_until(due)
        sent = loop.time()
        try:
            payload = await lane.request(method, target, body)
            ok = True
        except RequestFailed:
            payload, ok = b"", False
        out.append(Sent(tag, due, sent, loop.time(), ok, payload))
