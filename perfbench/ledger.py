"""Per-layer metrics from a traced run: the layer ledger.

Layers are the first component of a span name (``kernels.panel`` belongs
to ``kernels``).  A layer's time in the ledger is the self time of its
spans inside the timed window; for the served workloads the ledger also
charges each request's wait in the load generator (``loadgen``), the
server's connection and wire work (``server``: time from the request
being sent to its reply being written, minus the service time) and its
wait for a batch (``batcher``).  A ``*.share`` metric is that layer's
time divided by the sum over all layers.

``trace.unattributed_frac`` is the share of wall time no span covers:
for an offline workload, timed wall time outside every span on the main
thread; for a served workload, the part of each request's latency (from
when it was due to when its reply was read) that lies outside the
generator's lateness, the wait on its connection and the server's
dispatch and send spans, summed over requests.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any

import numpy as np

from perfbench import trace

#: (name, unit) of every per-layer metric, in report order.
PER_LAYER: list[tuple[str, str]] = [
    ("loadgen.late_p99_ms", "ms"), ("loadgen.inflight_max", "count"),
    ("server.overhead_p50_ms", "ms"), ("server.overhead_p99_ms", "ms"),
    ("batcher.wait_p50_ms", "ms"), ("batcher.wait_p99_ms", "ms"),
    ("batcher.requests_per_batch", "count"), ("batcher.shed", "count"),
    ("service.batch_p50_ms", "ms"), ("service.fold_self_s", "s"),
    ("service.fold_share", "frac"), ("service.segments_per_batch", "count"),
    ("index.append_p50_ms", "ms"), ("index.seals", "count"), ("index.segments_end", "count"),
    ("io_stream.bytes_written", "B"), ("io_stream.bytes_read", "B"), ("io_stream.wait_s", "s"),
    ("pack.calls", "count"), ("pack.busy_s", "s"), ("pack.mb_in", "MB"), ("pack.share", "frac"),
    ("framework.calls", "count"), ("framework.self_ms_per_call", "ms"),
    ("parallel.busy_s", "s"), ("parallel.self_s", "s"), ("parallel.shards", "count"),
    ("kernels.calls", "count"), ("kernels.busy_s", "s"), ("kernels.share", "frac"),
    ("kernels.word_ops", "count"), ("kernels.gwordops_per_s", "Gword/s"),
    ("kernels.ceiling_gwordops", "Gword/s"), ("kernels.ceiling_frac", "frac"),
    ("kernels.rows_per_call", "count"), ("kernels.mb_moved_computed", "MB"),
    ("ld.stats_s", "s"), ("ldops.self_s", "s"), ("ldops.share", "frac"),
    ("ldops.pairs_tested", "count"),
    ("trace.unattributed_frac", "frac"), ("trace.overhead_frac", "frac"),
]

#: Intervals recorded once per served request; charged per request, not
#: summed as spans, because they overlap the batch their request joined.
PER_REQUEST = {"server.dispatch", "server.send", "batcher.wait", "service.request"}

#: Largest unattributed share of wall time a traced run may report.
MAX_UNATTRIBUTED = 0.10


def pct(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def _counter_delta(marks: list[Any], name: str) -> float:
    if len(marks) < 2:
        return 0.0
    return float(marks[-1][1].get(name, 0)) - float(marks[0][1].get(name, 0))


def _in_window(spans: list[list[Any]], window: tuple[float, float]) -> list[list[Any]]:
    lo, hi = window
    return [row for row in spans if lo <= row[3] <= hi]


def _serve_requests(requests: list[Any], spans: list[list[Any]]) -> dict[str, Any]:
    """Per-request attribution of served latency (see the module docstring)."""
    by_rid: dict[tuple[str, Any], list[Any]] = {}
    appends_by_start: list[list[Any]] = sorted(
        (row for row in spans if row[2] == "index.append"), key=lambda r: r[3])
    for row in spans:
        if row[6] is not None:
            by_rid[(row[2], row[6])] = row
    late, gap_server, waits, overhead, unattributed, latency = [], 0.0, [], [], 0.0, 0.0
    append_starts = [r[3] for r in appends_by_start]
    for req in requests:
        if req.reply is None:
            continue
        total = req.recv - req.due
        latency += total
        late.append(req.sent - req.due)
        dispatch = by_rid.get(("server.dispatch", req.rid))
        send = by_rid.get(("server.send", req.rid))
        if dispatch is None or send is None:
            unattributed += total - (req.sent - req.due)
            continue
        served = (send[4] - req.sent)
        inner = 0.0
        if req.kind == "search":
            wait = by_rid.get(("batcher.wait", req.rid))
            service = by_rid.get(("service.request", req.rid))
            if wait is not None and service is not None:
                waits.append(wait[4] - wait[3])
                inner = service[4] - wait[3]
                overhead.append((req.recv - req.sent) - inner)
        else:
            i = int(np.searchsorted(append_starts, dispatch[3]))
            if i < len(appends_by_start) and appends_by_start[i][4] <= dispatch[4]:
                inner = appends_by_start[i][4] - appends_by_start[i][3]
        gap_server += served - inner - (send[3] - dispatch[4])
        unattributed += (req.recv - send[4]) + (send[3] - dispatch[4])
    return {
        "late": late, "server_s": gap_server, "waits": waits, "overhead": overhead,
        "unattributed_s": unattributed, "latency_s": latency,
    }


def compute(spans: list[list[Any]], window: tuple[float, float], marks: list[Any],
            ceiling: float, requests: list[Any] | None = None,
            stream: dict[str, float] | None = None,
            jobs: list[list[float]] | None = None) -> tuple[dict[str, float], dict[str, float]]:
    """Return ``(per-layer metrics, ledger seconds by layer)``.

    ``requests`` are the load generator's requests (served workloads);
    ``jobs`` are the ``[start, end, ...]`` of each timed job (offline).
    """
    selfs = trace.self_times(spans)
    by_id = {r[0]: r for r in spans}

    def nested(row: list[Any], layer: str) -> bool:
        parent = by_id.get(row[1])
        while parent is not None:
            if trace.layer_of(parent[2]) == layer:
                return True
            parent = by_id.get(parent[1])
        return False

    inside = _in_window(spans, window)
    ledger: dict[str, float] = defaultdict(float)
    for row in inside:
        if row[2] not in PER_REQUEST:
            ledger[trace.layer_of(row[2])] += selfs[row[0]]

    def named(prefix: str) -> list[list[Any]]:
        return [r for r in inside if r[2] == prefix or r[2].startswith(prefix + ".")]

    m: dict[str, float] = {name: 0.0 for name, _ in PER_LAYER}
    if requests is not None:
        served = _serve_requests(requests, inside)
        ledger["loadgen"] = float(sum(served["late"]))
        ledger["server"] = served["server_s"]
        ledger["batcher"] = float(sum(served["waits"]))
        m["loadgen.late_p99_ms"] = pct(served["late"], 99) * 1e3
        m["server.overhead_p50_ms"] = pct(served["overhead"], 50) * 1e3
        m["server.overhead_p99_ms"] = pct(served["overhead"], 99) * 1e3
        m["batcher.wait_p50_ms"] = pct(served["waits"], 50) * 1e3
        m["batcher.wait_p99_ms"] = pct(served["waits"], 99) * 1e3
        latency = served["latency_s"]
        m["trace.unattributed_frac"] = served["unattributed_s"] / latency if latency else 1.0
    elif jobs:
        main = [(r[3], r[4]) for r in inside if r[5] == "MainThread" and r[1] is None]
        busy = sum(job[1] - job[0] for job in jobs)
        covered = sum(trace.union_within(main, job[0], job[1]) for job in jobs)
        m["trace.unattributed_frac"] = max(0.0, busy - covered) / busy if busy else 1.0

    batches = [r for r in inside if r[2] == "service.batch"]
    if batches:
        m["batcher.requests_per_batch"] = float(np.mean([r[7]["requests"] for r in batches]))
        m["service.batch_p50_ms"] = pct([r[4] - r[3] for r in batches], 50) * 1e3
        m["service.segments_per_batch"] = float(np.mean([r[7]["segments"] for r in batches]))
        m["index.segments_end"] = float(batches[-1][7]["segments"])
    m["batcher.shed"] = _counter_delta(marks, "serve.shed")
    m["service.fold_self_s"] = sum(selfs[r[0]] for r in named("service.fold"))
    appends = named("index.append")
    m["index.append_p50_ms"] = pct([r[4] - r[3] for r in appends], 50) * 1e3
    writes = named("io_stream.write")
    m["index.seals"] = float(len(writes))
    m["io_stream.bytes_written"] = float(sum(r[7].get("bytes", 0) for r in writes))
    if stream is not None:
        m["io_stream.bytes_read"] = float(stream["bytes_read"])
    m["io_stream.wait_s"] = sum(r[4] - r[3] for r in named("io_stream.next"))

    packs = named("pack")
    m["pack.calls"] = float(len(packs))
    m["pack.busy_s"] = trace.top_level_busy(packs, "pack")
    m["pack.mb_in"] = sum(r[7].get("bytes_in", 0) for r in packs) / 1e6
    fw = [r for r in named("framework") if not nested(r, "framework")]
    m["framework.calls"] = float(len(fw))
    if fw:
        m["framework.self_ms_per_call"] = ledger.get("framework", 0.0) / len(fw) * 1e3
    par = named("parallel")
    m["parallel.busy_s"] = sum(r[4] - r[3] for r in par)
    m["parallel.self_s"] = sum(selfs[r[0]] for r in par)
    m["parallel.shards"] = _counter_delta(marks, "shards.executed")
    kernels = [r for r in named("kernels") if not nested(r, "kernels")]
    m["kernels.calls"] = float(len(kernels))
    m["kernels.busy_s"] = sum(r[4] - r[3] for r in kernels)
    m["kernels.word_ops"] = _counter_delta(marks, "gemm.popc_word_ops")
    if m["kernels.busy_s"] > 0:
        m["kernels.gwordops_per_s"] = m["kernels.word_ops"] / m["kernels.busy_s"] / 1e9
    m["kernels.ceiling_gwordops"] = ceiling
    if ceiling > 0:
        m["kernels.ceiling_frac"] = m["kernels.gwordops_per_s"] / ceiling
    if kernels:
        m["kernels.rows_per_call"] = float(np.mean([r[7].get("rows", 0) for r in kernels]))
    m["kernels.mb_moved_computed"] = sum(r[7].get("bytes", 0) for r in kernels) / 1e6
    m["ld.stats_s"] = sum(r[4] - r[3] for r in named("ld.stats"))
    m["ldops.self_s"] = ledger.get("ldops", 0.0)
    m["ldops.pairs_tested"] = _counter_delta(marks, "ldops.pairs_tested")

    total = sum(ledger.values())
    if total > 0:
        m["service.fold_share"] = m["service.fold_self_s"] / total
        m["pack.share"] = ledger.get("pack", 0.0) / total
        m["kernels.share"] = ledger.get("kernels", 0.0) / total
        m["ldops.share"] = ledger.get("ldops", 0.0) / total
    return m, dict(ledger)

