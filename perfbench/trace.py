"""The benchmark's own span recorder and the wrappers that feed it.

Spans are recorded around public calls into each layer, from the
benchmark's files only: :func:`instrument` patches the program's
classes and module attributes at the names their callers resolve.  A
span is ``(id, parent, name, start, end, thread, rid, attrs)``; times are
``time.perf_counter()`` seconds, which on Linux is the system-wide
monotonic clock, so spans from the server process and the load generator
share one timeline.  Spans stay in memory and are written out once, at
the end of the run.

Self time is a span's duration minus the part of it that its child spans
cover.  Children are the spans opened inside it on the same thread, plus
kernel spans on engine worker threads, which are adopted by the
innermost ``parallel`` span that contains them in time.
"""

from __future__ import annotations

import contextvars
import functools
import json
import os
import re
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator

#: Layer of each span name (the part before the first dot).
KERNEL_LAYER = "kernels"

#: Wire request id of the request being dispatched (server event loop).
CURRENT_RID: contextvars.ContextVar[int | None] = contextvars.ContextVar("rid", default=None)

_RID_RE = re.compile(rb'"id":\s*(\d+)')


class Recorder:
    """In-memory span store; thread-safe, nested per thread."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._tls = threading.local()
        self._next = 1
        self.spans: list[list[Any]] = []

    def _new_id(self) -> int:
        with self._lock:
            sid = self._next
            self._next += 1
        return sid

    def _stack(self) -> list[int]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    @contextmanager
    def span(self, name: str, rid: int | None = None, **attrs: Any) -> Iterator[dict[str, Any]]:
        """Time the body as one span nested under this thread's open span."""
        stack = self._stack()
        sid = self._new_id()
        parent = stack[-1] if stack else None
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            stack.pop()
            self._append(sid, parent, name, start, end, rid, attrs)

    def record(self, name: str, start: float, end: float, rid: int | None = None, **attrs: Any) -> None:
        """Record a finished interval that has no parent (async code)."""
        self._append(self._new_id(), None, name, start, end, rid, attrs)

    def _append(self, sid: int, parent: int | None, name: str, start: float, end: float,
                rid: int | None, attrs: dict[str, Any]) -> None:
        row = [sid, parent, name, start, end, threading.current_thread().name, rid, attrs]
        with self._lock:
            self.spans.append(row)

    def dump(self, path: str) -> None:
        with self._lock:
            rows = list(self.spans)
        with open(path, "w") as fh:
            json.dump(rows, fh)


def load_spans(path: str) -> list[list[Any]]:
    with open(path) as fh:
        return json.load(fh)


# -- wrapping ------------------------------------------------------------------


def _wrap_sync(rec: Recorder, fn: Callable[..., Any], name: str,
               attrs: Callable[..., dict[str, Any]] | None) -> Callable[..., Any]:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        extra = attrs(*args, **kwargs) if attrs is not None else {}
        with rec.span(name, **extra):
            return fn(*args, **kwargs)

    return wrapper


def patch(rec: Recorder, owner: Any, attr: str, name: str,
          attrs: Callable[..., dict[str, Any]] | None = None) -> None:
    """Replace ``owner.attr`` with a span-recording wrapper (once)."""
    fn = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if fn is None or getattr(fn, "_perfbench", False):
        return
    wrapped = _wrap_sync(rec, fn, name, attrs)
    wrapped._perfbench = True  # type: ignore[attr-defined]
    setattr(owner, attr, wrapped)


def _panel_attrs(*args: Any, **_: Any) -> dict[str, Any]:
    """Operand sizes of a kernel call: ``(a, b, ...)`` or ``(self, a, b, ...)``."""
    arrays = [x for x in args[:3] if hasattr(x, "shape") and getattr(x, "ndim", 0) == 2][:2]
    if len(arrays) < 2:
        return {}
    a, b = arrays
    m, n, k = int(a.shape[0]), int(b.shape[0]), int(a.shape[1])
    return {"rows": m, "bytes": int(a.nbytes + b.nbytes + 8 * m * n)}


def _pack_attrs(self: Any, bits: Any, *_: Any, **__: Any) -> dict[str, Any]:
    return {"bytes_in": int(getattr(bits, "nbytes", 0))}


def instrument(rec: Recorder, serving: bool) -> None:
    """Wrap every layer's public entry points with spans.

    Must run before the program builds its objects: the batcher keeps a
    bound reference to the service's batch callback.
    """
    import repro.core.framework as framework
    import repro.core.ldops as ldops
    import repro.gpu.executor as executor
    import repro.kernels as kernels
    import repro.parallel.engine as engine
    from repro.io_stream import prefetch

    fw = framework.SNPComparisonFramework
    patch(rec, fw, "pack", "pack", _pack_attrs)
    patch(rec, fw, "run", "framework.run")
    patch(rec, fw, "run_packed", "framework.run_packed")
    patch(rec, engine.ParallelEngine, "run", "parallel.run")
    for mod in (engine, executor):
        for driver in ("bit_gemm_backend", "bit_gemm_blocked", "bit_gemm_fast", "bit_gemm_reference"):
            if hasattr(mod, driver):
                patch(rec, mod, driver, f"kernels.{driver}", _panel_attrs)
    for method in ("_compute_shard_gemm", "_compute_shard_blocked"):
        patch(rec, engine.ParallelEngine, method, f"kernels.{method.strip('_')}", _shard_attrs)
    for backend in kernels.registered_backends():
        patch(rec, type(backend), "bit_gemm_panel", "kernels.panel", _panel_attrs)
    for cls in (ldops.LDPruner, ldops.LDClumper):
        patch(rec, cls, "add_chunk", f"ldops.{cls.__name__}.add_chunk")
        patch(rec, cls, "finalize", f"ldops.{cls.__name__}.finalize")
    _instrument_stream(rec, prefetch.ChunkStream)
    if serving:
        _instrument_serving(rec)


def _shard_attrs(self: Any, shard: Any, a: Any, b: Any, *_: Any, **__: Any) -> dict[str, Any]:
    m0, m1 = shard.m_range
    n0, n1 = shard.n_range
    m, n = m1 - m0, n1 - n0
    return {"rows": int(m), "bytes": int((m + n) * a.shape[1] * a.itemsize + 8 * m * n)}


def _instrument_stream(rec: Recorder, stream_cls: type) -> None:
    """Time each ``next()`` the consumer makes on a chunk stream."""
    original = stream_cls.__iter__
    if getattr(original, "_perfbench", False):
        return

    def __iter__(self: Any) -> Iterator[Any]:
        inner = original(self)
        while True:
            with rec.span("io_stream.next"):
                try:
                    item = next(inner)
                except StopIteration:
                    return
            yield item

    __iter__._perfbench = True  # type: ignore[attr-defined]
    stream_cls.__iter__ = __iter__


def _instrument_serving(rec: Recorder) -> None:
    import repro.serve.index as index
    import repro.serve.server as server
    import repro.serve.service as service

    svc = service.IdentityService
    patch(rec, svc, "_run_panel", "service.fold")
    patch(rec, index.ProfileIndex, "append", "index.append")
    write = index.write_snpbin

    @functools.wraps(write)
    def write_snpbin(path: Any, *args: Any, **kwargs: Any) -> Any:
        with rec.span("io_stream.write") as attrs:
            rows = write(path, *args, **kwargs)
            attrs["bytes"] = os.path.getsize(path)
        return rows

    index.write_snpbin = write_snpbin

    # rid of every admitted request, keyed by the request object's id().
    rids: dict[int, int | None] = {}
    validate = svc._validate

    @functools.wraps(validate)
    def _validate(self: Any, *args: Any, **kwargs: Any) -> Any:
        request = validate(self, *args, **kwargs)
        rids[id(request)] = CURRENT_RID.get()
        return request

    execute = svc._execute_batch

    @functools.wraps(execute)
    def _execute_batch(self: Any, requests: Any) -> Any:
        start = time.perf_counter()
        with rec.span("service.batch", requests=len(requests), segments=self.index.n_segments):
            outcomes = execute(self, requests)
        end = time.perf_counter()
        for request in requests:
            rid = rids.pop(id(request), None)
            rec.record("batcher.wait", request.admitted_at, start, rid=rid)
            rec.record("service.request", start, end, rid=rid)
        return outcomes

    svc._validate = _validate
    svc._execute_batch = _execute_batch

    srv = server.IdentityServer
    dispatch = srv._dispatch
    send = srv._send

    async def _dispatch(self: Any, line: bytes) -> Any:
        match = _RID_RE.search(line, 0, 64)
        rid = int(match.group(1)) if match else None
        token = CURRENT_RID.set(rid)
        start = time.perf_counter()
        try:
            return await dispatch(self, line)
        finally:
            rec.record("server.dispatch", start, time.perf_counter(), rid=rid)
            CURRENT_RID.reset(token)

    async def _send(self: Any, writer: Any, payload: dict[str, Any]) -> None:
        start = time.perf_counter()
        try:
            await send(self, writer, payload)
        finally:
            rec.record("server.send", start, time.perf_counter(), rid=payload.get("id"))

    srv._dispatch = _dispatch
    srv._send = _send


# -- analysis ------------------------------------------------------------------


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def union_within(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    return _union([(max(s, lo), min(e, hi)) for s, e in intervals if e > lo and s < hi])


def _union(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        elif e > cur_e:
            cur_e = e
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans: list[list[Any]]) -> dict[int, float]:
    """Self time of every span: duration minus its children's coverage."""
    by_id = {row[0]: row for row in spans}
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    parallel = [row for row in spans if row[2] == "parallel.run"]
    for row in spans:
        sid, parent, name, start, end = row[:5]
        if parent is not None and parent in by_id:
            children[parent].append((start, end))
        elif layer_of(name) == KERNEL_LAYER and parallel:
            # A kernel on an engine worker thread: adopt it into the
            # innermost parallel run that contains it.
            holders = [p for p in parallel if p[3] <= start and end <= p[4] and p[5] != row[5]]
            if holders:
                holder = max(holders, key=lambda p: p[3])
                children[holder[0]].append((start, end))
    return {row[0]: (row[4] - row[3]) - _union(children.get(row[0], [])) for row in spans}


def top_level_busy(spans: list[list[Any]], layer: str) -> float:
    """Summed duration of a layer's spans not nested in the same layer."""
    by_id = {row[0]: row for row in spans}
    total = 0.0
    for row in spans:
        if layer_of(row[2]) != layer:
            continue
        parent = by_id.get(row[1])
        nested = False
        while parent is not None:
            if layer_of(parent[2]) == layer:
                nested = True
                break
            parent = by_id.get(parent[1])
        if not nested:
            total += row[4] - row[3]
    return total
