"""Load generator for the served workloads: one thread, asyncio, 2 connections.

Request lines are encoded before a phase starts; during it the generator
only writes bytes and reads replies.  An open-loop connection sends each
request when it is due, whether or not earlier replies have come back
(requests are pipelined); a closed-loop connection sends its next request
when the previous reply arrives.  Every request records when it was due,
sent and answered on ``time.perf_counter()``.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

#: Seconds to wait for outstanding replies once a phase's sending ends.
DRAIN_TIMEOUT_S = 30.0


def matrix_json(bits: np.ndarray) -> bytes:
    """A binary matrix as a JSON list of lists, spelled as ``json.dumps`` does."""
    n, m = bits.shape
    cells = np.empty((n, m, 3), dtype=np.uint8)
    cells[:, :, 0] = bits + ord("0")
    cells[:, :, 1] = ord(",")
    cells[:, :, 2] = ord(" ")
    rows = cells.reshape(n, 3 * m)[:, :-2]
    return b"[" + b", ".join(b"[" + row.tobytes() + b"]" for row in rows) + b"]"


def search_body(query: np.ndarray, k: int) -> bytes:
    """A ``search`` request line without its opening brace and ``id``."""
    return b'"op": "search", "queries": ' + matrix_json(query[None, :]) + b', "k": %d}\n' % k


def append_body(profiles: np.ndarray) -> bytes:
    """An ``append`` request line without its opening brace and ``id``."""
    return b'"op": "append", "profiles": ' + matrix_json(profiles) + b"}\n"


@dataclass
class Request:
    rid: int
    kind: str  # "search" | "append"
    item: int  # query or append-batch index
    conn: int
    phase: str
    due: float = 0.0
    sent: float = 0.0
    recv: float = 0.0
    reply: dict[str, Any] | None = None
    acked_at_send: int = 0


@dataclass
class Plan:
    """What one connection sends in one phase."""

    kind: str
    closed: bool = False
    #: Open loop: due offsets (seconds from phase start) and item indices.
    due: list[float] = field(default_factory=list)
    items: list[int] = field(default_factory=list)


class LoadGen:
    """Drives phases over persistent connections to one server."""

    def __init__(self, bodies: dict[str, list[bytes]]) -> None:
        self.bodies = bodies
        self.requests: list[Request] = []
        self.ack_times: list[float] = []
        self.inflight = 0
        self.inflight_max = 0
        self._next_rid = 1
        self._pending: dict[int, tuple[Request, asyncio.Future[None]]] = {}
        self._conns: list[tuple[asyncio.StreamReader, asyncio.StreamWriter]] = []
        self._readers: list[asyncio.Task[None]] = []

    async def connect(self, host: str, port: int, n: int = 2) -> None:
        for i in range(n):
            reader, writer = await asyncio.open_connection(host, port, limit=1 << 26)
            self._conns.append((reader, writer))
            self._readers.append(asyncio.create_task(self._read(i, reader)))

    async def close(self) -> None:
        for _, writer in self._conns:
            writer.close()
        for task in self._readers:
            task.cancel()
        await asyncio.gather(*self._readers, return_exceptions=True)
        for _, writer in self._conns:
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read(self, conn: int, reader: asyncio.StreamReader) -> None:
        while True:
            line = await reader.readline()
            now = time.perf_counter()
            if not line:
                return
            reply = json.loads(line)
            entry = self._pending.pop(reply.get("id"), None)
            if entry is None:
                continue
            request, done = entry
            request.recv = now
            request.reply = reply
            self.inflight -= 1
            if request.kind == "append" and reply.get("ok"):
                self.ack_times.append(now)
            if not done.done():
                done.set_result(None)

    def _send(self, conn: int, kind: str, item: int, phase: str,
              due: float) -> tuple[Request, asyncio.Future[None]]:
        rid = self._next_rid
        self._next_rid += 1
        request = Request(rid=rid, kind=kind, item=item, conn=conn, phase=phase, due=due,
                          acked_at_send=len(self.ack_times))
        done: asyncio.Future[None] = asyncio.get_running_loop().create_future()
        self._pending[rid] = (request, done)
        self.requests.append(request)
        writer = self._conns[conn][1]
        writer.write(b'{"id": %d, ' % rid + self.bodies[kind][item])
        request.sent = time.perf_counter()
        self.inflight += 1
        self.inflight_max = max(self.inflight_max, self.inflight)
        return request, done

    async def call(self, conn: int, kind: str, item: int, phase: str = "setup") -> Request:
        """One request, awaited (set-up and warm-up calls)."""
        request, done = self._send(conn, kind, item, phase, time.perf_counter())
        await asyncio.wait_for(done, DRAIN_TIMEOUT_S)
        return request

    async def _open(self, conn: int, plan: Plan, phase: str, t0: float) -> list[asyncio.Future[None]]:
        futures = []
        writer = self._conns[conn][1]
        for offset, item in zip(plan.due, plan.items):
            due = t0 + offset
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            futures.append(self._send(conn, plan.kind, item, phase, due)[1])
            if writer.transport.get_write_buffer_size() > 1 << 20:
                await writer.drain()
        return futures

    async def _closed(self, conn: int, plan: Plan, phase: str, t0: float, duration: float,
                      cursor: list[int]) -> list[asyncio.Future[None]]:
        futures = []
        n_items = len(self.bodies[plan.kind])
        while time.perf_counter() < t0 + duration:
            item = cursor[0] % n_items
            cursor[0] += 1
            done = self._send(conn, plan.kind, item, phase, time.perf_counter())[1]
            futures.append(done)
            try:
                await asyncio.wait_for(asyncio.shield(done), DRAIN_TIMEOUT_S)
            except asyncio.TimeoutError:
                break
        return futures

    async def phase(self, name: str, plans: dict[int, Plan], duration: float,
                    cursor: list[int]) -> tuple[float, float]:
        """Run one phase; returns its ``(start, end)`` on the shared clock."""
        t0 = time.perf_counter() + 0.01
        tasks = [
            self._closed(conn, plan, name, t0, duration, cursor) if plan.closed
            else self._open(conn, plan, name, t0)
            for conn, plan in plans.items()
        ]
        sent = await asyncio.gather(*tasks)
        pending = [f for futures in sent for f in futures if not f.done()]
        if pending:
            await asyncio.wait(pending, timeout=DRAIN_TIMEOUT_S)
        return t0, time.perf_counter()


def poisson_due(rng: np.random.Generator, rate: float, duration: float) -> list[float]:
    """Arrival offsets of a Poisson process of ``rate`` per second over ``duration``."""
    gaps = rng.exponential(1.0 / rate, size=int(rate * duration * 2) + 16)
    due = np.cumsum(gaps)
    return due[due < duration].tolist()


def periodic_due(rate: float, duration: float) -> list[float]:
    """Arrival offsets every ``1 / rate`` seconds over ``duration``."""
    return [(i + 0.5) / rate for i in range(int(rate * duration))]
