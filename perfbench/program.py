"""The program under test, in a process of its own.

Run by ``run.py``; one invocation is one set-up of one workload::

    program.py serve      --data DB.npy --work DIR [--trace 1]
    program.py offline-ld --data TABLE.npy --work DIR [--trace 1]
    program.py ld-stream  --data SITES.npy --scores S.npy --work DIR [--trace 1]

``serve`` shards the database into ``DIR/index`` with the program's own
writer and then runs ``repro.cli serve`` on an ephemeral port until it
receives SIGINT; SIGUSR1 marks the start and end of a timed phase.  The
offline modes make their first, untimed call, print ``ready`` and wait on
stdin for ``go SECONDS`` (run the timed loop) or ``quit``.

On exit the process writes ``DIR/result.json`` (peak RSS, counter
snapshots at the marks, per-job times) and, when traced,
``DIR/spans.json``; offline outputs go to ``DIR/outputs.npz``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import resource
import signal
import sys
import time
from pathlib import Path
from typing import Any, Callable

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import trace  # noqa: E402

WINDOW = 256
R2 = 0.2
CHUNK_ROWS = 1024
WARMUP_SITES = 2 * CHUNK_ROWS
#: Rows per shard of the starting index, and rows of appends per sealed shard.
SHARD_ROWS = 4096
SEAL_ROWS = 2048


class ProcessState:
    """What one program process records about itself."""

    def __init__(self, work: Path, traced: bool, serving: bool) -> None:
        self.work = work
        self.rec: trace.Recorder | None = None
        self.marks: list[tuple[float, dict[str, Any]]] = []
        self.jobs: list[list[float]] = []
        self.extra: dict[str, Any] = {}
        from repro.observability.tracer import Tracer, set_tracer

        self.tracer = Tracer() if traced else None
        if traced:
            set_tracer(self.tracer)
            self.rec = trace.Recorder()
            trace.instrument(self.rec, serving=serving)

    def mark(self, *_: Any) -> None:
        counters = self.tracer.counters.snapshot() if self.tracer is not None else {}
        self.marks.append((time.perf_counter(), dict(counters)))

    def span(self, name: str) -> Any:
        return contextlib.nullcontext() if self.rec is None else self.rec.span(name)

    def finish(self) -> None:
        result = {
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "marks": self.marks,
            "jobs": self.jobs,
            **self.extra,
        }
        (self.work / "result.json").write_text(json.dumps(result))
        if self.rec is not None:
            self.rec.dump(str(self.work / "spans.json"))


def serve(args: argparse.Namespace, state: ProcessState) -> None:
    from repro.cli import main as cli_main
    from repro.gpu.arch import get_gpu
    from repro.serve import ProfileIndex

    profiles = np.load(args.data)
    index_dir = state.work / "index"
    ProfileIndex.build(index_dir, profiles, shard_rows=SHARD_ROWS,
                       word_bits=get_gpu("Titan V").word_bits).close()
    del profiles
    signal.signal(signal.SIGUSR1, state.mark)
    code = cli_main(["serve", "--index", str(index_dir), "--port", "0", "--top-k", "5",
                     "--shard-rows", str(SEAL_ROWS)])
    if code:
        raise SystemExit(code)


def _timed_loop(state: ProcessState, job: Callable[[], list[float]]) -> None:
    """Wait for ``go SECONDS``; then run ``job`` until the time is spent."""
    print("ready", flush=True)
    command = sys.stdin.readline().split()
    if not command or command[0] != "go":
        return
    seconds = float(command[1])
    state.mark()
    end = time.perf_counter() + seconds
    while True:
        state.jobs.append(job())
        last = state.jobs[-1][1] - state.jobs[-1][0]
        # Start another job only if at least half of it fits in the time left.
        if time.perf_counter() + 0.5 * last >= end:
            break
    state.mark()


def _digest(*arrays: np.ndarray) -> str:
    h = hashlib.sha1()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def offline_ld(args: argparse.Namespace, state: ProcessState) -> None:
    from repro import linkage_disequilibrium

    table = np.load(args.data)
    digests: list[str] = []
    first: dict[str, np.ndarray] = {}

    def call() -> tuple[np.ndarray, np.ndarray]:
        with state.span("ld.call"):
            result = linkage_disequilibrium(table, workers=2)
            with state.span("ld.stats"):
                r2 = result.r_squared
        return result.counts, r2

    call()

    def job() -> list[float]:
        t0 = time.perf_counter()
        counts, r2 = call()
        t1 = time.perf_counter()
        digests.append(_digest(counts, r2))
        if not first:
            first.update(counts=counts, r2=r2)
        return [t0, t1]

    _timed_loop(state, job)
    if first:
        np.savez(state.work / "outputs.npz", **first)
    state.extra["digests"] = digests


def ld_stream(args: argparse.Namespace, state: ProcessState) -> None:
    from repro.core.ldops import ld_clump, ld_prune
    from repro.io_stream import open_source
    from repro.io_stream.format import write_snpbin

    sites = np.load(args.data)
    scores = np.load(args.scores)
    path = state.work / "sites.snpbin"
    warm = state.work / "warmup.snpbin"
    write_snpbin(path, sites)
    write_snpbin(warm, sites[:WARMUP_SITES])
    del sites
    stream = {"bytes_read": 0}
    digests: list[str] = []
    first: dict[str, np.ndarray] = {}

    def passes(source_path: Path, n_scores: int) -> tuple[np.ndarray, np.ndarray, float]:
        source = open_source(source_path)
        try:
            with state.span("ldops.ld_prune"):
                pruned = ld_prune(source, WINDOW, R2, chunk_rows=CHUNK_ROWS)
        finally:
            source.close()
        t_mid = time.perf_counter()
        source = open_source(source_path)
        try:
            with state.span("ldops.ld_clump"):
                clumped = ld_clump(source, scores[:n_scores], WINDOW, R2, chunk_rows=CHUNK_ROWS)
        finally:
            source.close()
        for result in (pruned, clumped):
            if result.stream_stats is not None:
                stream["bytes_read"] += result.stream_stats.bytes_read
        return pruned.kept, clumped.assignment, t_mid

    passes(warm, WARMUP_SITES)

    def job() -> list[float]:
        t0 = time.perf_counter()
        kept, assignment, t_mid = passes(path, scores.shape[0])
        t1 = time.perf_counter()
        digests.append(_digest(kept, assignment))
        if not first:
            first.update(kept=kept, assignment=assignment)
        return [t0, t1, t_mid]

    stream["bytes_read"] = 0
    _timed_loop(state, job)
    if first:
        np.savez(state.work / "outputs.npz", **first)
    state.extra["digests"] = digests
    state.extra["stream"] = stream


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("serve", "offline-ld", "ld-stream"))
    parser.add_argument("--data", required=True)
    parser.add_argument("--scores")
    parser.add_argument("--work", required=True)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()
    state = ProcessState(Path(args.work), bool(args.trace), serving=args.mode == "serve")
    {"serve": serve, "offline-ld": offline_ld, "ld-stream": ld_stream}[args.mode](args, state)
    state.finish()


if __name__ == "__main__":
    main()
