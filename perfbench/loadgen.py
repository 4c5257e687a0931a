"""Open-loop HTTP/1.1 load from one asyncio thread.

Requests are sent on a fixed schedule whether or not earlier responses
have arrived: request ``i`` is due at ``t0 + i / rate`` and goes out on
connection ``i % k``, pipelined behind whatever that connection still
has in flight (the server answers each connection in order). Latency is
timed from the due time, so a stall also charges the requests queued
behind it; how late the generator itself sent each request is recorded
too, so a step where the generator rather than the server fell behind
can be recognised and set aside.
"""

from __future__ import annotations

import asyncio
import gc
import time
from dataclasses import dataclass, field


def request_bytes(method: str, path: str, body: bytes = b"") -> bytes:
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
    )
    return head.encode("latin-1") + body


class Connection:
    """One keep-alive connection with in-order response framing."""

    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer

    @classmethod
    async def open(cls, host: str, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer)

    async def read_response(self) -> tuple[int, bytes]:
        head = await self.reader.readuntil(b"\r\n\r\n")
        status = int(head[9:12])
        lowered = head.lower()
        start = lowered.index(b"content-length:") + len(b"content-length:")
        length = int(lowered[start:lowered.index(b"\r\n", start)])
        return status, await self.reader.readexactly(length)

    async def exchange(self, data: bytes) -> tuple[int, bytes]:
        """Send one request and wait for its response (outside a schedule)."""
        self.writer.write(data)
        return await self.read_response()

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


@dataclass
class Outcome:
    """Per-request times (``perf_counter`` seconds) of one schedule."""

    t0: float
    due: list
    sent: list
    done: list
    status: list
    body: list
    received: int = 0
    broken: bool = False  # a connection failed or the schedule timed out
    notes: list = field(default_factory=list)


async def _send(conns, payloads, out: Outcome, spin: bool) -> None:
    k, n, i = len(conns), len(payloads), 0
    while i < n:
        now = time.perf_counter()
        wait = out.due[i] - now
        if wait > 0:
            await asyncio.sleep(0 if spin else wait)
            continue
        j = i
        chunks = [[] for _ in range(k)]
        while j < n and out.due[j] <= now:
            chunks[j % k].append(payloads[j])
            j += 1
        for conn, chunk in zip(conns, chunks):
            if chunk:
                conn.writer.write(b"".join(chunk))
        stamp = time.perf_counter()
        for index in range(i, j):
            out.sent[index] = stamp
        i = j
        await asyncio.sleep(0)
    while spin and out.received < n:
        await asyncio.sleep(0)


async def _receive(conn, indices, out: Outcome) -> None:
    for index in indices:
        status, body = await conn.read_response()
        out.done[index] = time.perf_counter()
        out.status[index] = status
        out.body[index] = body
        out.received += 1


async def run_schedule(conns, payloads, rate: float, grace: float,
                       spin: bool = False) -> Outcome:
    """Send ``payloads`` at ``rate`` per second; wait at most ``grace``
    seconds past the last due time for the responses.

    With ``spin`` the loop polls instead of sleeping until every response
    is in: timer granularity then adds no lateness, and an idle CPU never
    has to be woken. Spin only on a CPU of the generator's own.
    Unanswered requests keep ``status`` ``None``. When the outcome is
    ``broken`` the connections are out of step and must be reopened.
    """
    # A collection pause in the generator would read as server latency.
    gc.collect()
    gc.disable()
    n, k = len(payloads), len(conns)
    t0 = time.perf_counter() + 0.005
    out = Outcome(
        t0=t0,
        due=[t0 + i / rate for i in range(n)],
        sent=[None] * n,
        done=[None] * n,
        status=[None] * n,
        body=[None] * n,
    )
    tasks = [asyncio.ensure_future(_send(conns, payloads, out, spin))]
    tasks += [
        asyncio.ensure_future(_receive(conns[c], range(c, n, k), out))
        for c in range(k)
    ]
    try:
        await asyncio.wait_for(asyncio.gather(*tasks), timeout=n / rate + grace)
    except asyncio.TimeoutError:
        out.broken = True
        out.notes.append("responses still missing after the grace period")
    except (ConnectionError, asyncio.IncompleteReadError, ValueError) as exc:
        out.broken = True
        out.notes.append(f"connection failed: {type(exc).__name__}: {exc}")
    finally:
        gc.enable()
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
    return out
