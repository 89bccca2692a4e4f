"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload serve-search --seed 1 --seconds 10 --trace 0

Workloads: ``serve-search``, ``serve-ingest``, ``offline-ld`` and
``ld-stream`` (see perfbench/README.md).  With ``--trace 0`` the last line
of standard output is a JSON object with the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of a traced run.  Inputs
come from ``--seed`` alone.  Every output is checked against an
independent reference; a wrong answer counts as a failed operation.

Scratch files go under ``.perfbench/`` at the repository root and are
removed at the end, apart from ``.perfbench/results/``, which keeps the
full result of each run: environment record, every metric and the layer
ledger.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import envinfo, inputs, ledger, loadgen, refs, trace  # noqa: E402
from perfbench.probe import ceiling_gwordops  # noqa: E402

#: (name, unit) of every end-to-end metric; see README.md for each workload's meaning.
END_TO_END = [
    ("setup_s", "s"), ("peak_rss_mb", "MB"), ("ok_frac", "frac"), ("slo_frac", "frac"),
    ("work_per_s", "1/s"),
]

SETUP_REPEATS = 3
START_TIMEOUT_S = 600.0

# Served workloads.
DB_ROWS, SITES, TOP_K, QUERY_POOL = 20_000, 1024, 5, 256
APPEND_ROWS = 128
SEARCH_RATE = {"serve-search": 20.0, "serve-ingest": 6.0}
APPEND_RATE = 2.0
OPEN_SHARE = 0.85
SEARCH_SLO_S = 0.250
#: Acks read this soon after a search reply may still precede it: one
#: event loop reading two sockets cannot order arrivals more finely.
ACK_SLACK_S = 0.002

# Offline workloads.
LD_SAMPLES, LD_SITES = 4096, 2048
LD_SLO_S = 3.0
STREAM_SITES, STREAM_SAMPLES = 8192, 1024
STREAM_SLO_S = 15.0


class Program:
    """One program process (``program.py``) with a fresh cache directory."""

    def __init__(self, run_dir: Path, tag: str, mode: str, args: list[str], traced: bool) -> None:
        self.work = run_dir / tag
        self.work.mkdir(parents=True)
        self._stderr = open(self.work / "stderr.log", "wb")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(ROOT / "perfbench" / "program.py"), mode, "--work", str(self.work),
             "--trace", str(int(traced)), *args],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self._stderr,
            env=envinfo.child_env(self.work / "cache"), cwd=ROOT,
        )
        self._buf = b""

    def read_until(self, token: bytes, timeout: float) -> bytes:
        """Block until a stdout line containing ``token``; return that line."""
        deadline = time.perf_counter() + timeout
        assert self.proc.stdout is not None
        fd = self.proc.stdout.fileno()
        while True:
            while b"\n" in self._buf:
                line, self._buf = self._buf.split(b"\n", 1)
                if token in line:
                    return line
            left = deadline - time.perf_counter()
            if left <= 0:
                raise RuntimeError(f"program did not print {token!r} in {timeout:.0f} s")
            ready, _, _ = select.select([fd], [], [], left)
            if ready:
                chunk = os.read(fd, 65536)
                if not chunk:
                    raise RuntimeError(f"program exited before printing {token!r}: {self.stderr()}")
                self._buf += chunk

    def send(self, line: str) -> None:
        assert self.proc.stdin is not None
        self.proc.stdin.write(line.encode() + b"\n")
        self.proc.stdin.flush()

    def signal(self, sig: int) -> None:
        self.proc.send_signal(sig)

    def finish(self, timeout: float, interrupt: bool = False) -> dict[str, Any]:
        """Wait for the process to end; return its ``result.json``."""
        if interrupt and self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
            raise RuntimeError(f"program did not exit within {timeout:.0f} s")
        finally:
            self._stderr.close()
        path = self.work / "result.json"
        if self.proc.returncode != 0 or not path.exists():
            raise RuntimeError(f"program failed ({self.proc.returncode}): {self.stderr()}")
        result = json.loads(path.read_text())
        spans = self.work / "spans.json"
        result["spans"] = trace.load_spans(str(spans)) if spans.exists() else []
        return result

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        if not self._stderr.closed:
            self._stderr.close()

    def stderr(self) -> str:
        try:
            return (self.work / "stderr.log").read_text()[-2000:]
        except OSError:
            return ""


class Run:
    """State shared by one invocation: arguments, scratch dir, live processes."""

    def __init__(self, args: argparse.Namespace, run_dir: Path) -> None:
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = float(args.seconds)
        self.traced = bool(args.trace)
        self.run_dir = run_dir
        self.rng = np.random.default_rng(args.seed)
        self.programs: list[Program] = []
        self.ceiling = 0.0
        self._tags = 0

    def program(self, mode: str, args: list[str], traced: bool) -> Program:
        self._tags += 1
        prog = Program(self.run_dir, f"p{self._tags}", mode, args, traced)
        self.programs.append(prog)
        return prog

    def close(self) -> None:
        for prog in self.programs:
            prog.kill()


def percentile_ms(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) * 1e3 if values else 0.0


# -- served workloads ------------------------------------------------------------


async def _serve_measure(run: Run, data: Path, bodies: dict[str, list[bytes]], ingest: bool,
                         traced: bool, repeats: int, seconds: float, sched_seed: int) -> dict[str, Any]:
    """Set the server up ``repeats`` times; drive the timed phases on the last."""
    setups: list[float] = []
    rng = np.random.default_rng(sched_seed)
    open_s, closed_s = seconds * OPEN_SHARE, seconds * (1 - OPEN_SHARE)
    rate = SEARCH_RATE[run.workload]
    for rep in range(repeats):
        prog = run.program("serve", ["--data", str(data)], traced)
        line = prog.read_until(b"listening on", START_TIMEOUT_S)
        host, port = line.split()[2].decode().rsplit(":", 1)
        gen = loadgen.LoadGen(bodies)
        await gen.connect(host, int(port), 2)
        await gen.call(0, "ping", 0)
        await gen.call(0, "search", 0)
        if ingest:
            await gen.call(1, "append", 0)
        setups.append(time.perf_counter() - prog.started)
        if rep < repeats - 1:
            await gen.close()
            prog.finish(60, interrupt=True)
            continue
        search_due = loadgen.poisson_due(rng, rate, open_s)
        search_items = rng.integers(0, QUERY_POOL, size=len(search_due)).tolist()
        if ingest:
            append_due = loadgen.periodic_due(APPEND_RATE, open_s)
            first = 1 + len(append_due)
            append_due2 = loadgen.periodic_due(APPEND_RATE, closed_s)
            open_plans = {0: loadgen.Plan("search", due=search_due, items=search_items),
                          1: loadgen.Plan("append", due=append_due, items=list(range(1, first)))}
            closed_plans = {0: loadgen.Plan("search", closed=True),
                            1: loadgen.Plan("append", due=append_due2,
                                            items=list(range(first, first + len(append_due2))))}
        else:
            open_plans = {c: loadgen.Plan("search", due=search_due[c::2], items=search_items[c::2])
                          for c in (0, 1)}
            closed_plans = {c: loadgen.Plan("search", closed=True) for c in (0, 1)}
        prog.signal(signal.SIGUSR1)
        await asyncio.sleep(0.05)
        cursor = [0]
        t_open = await gen.phase("open", open_plans, open_s, cursor)
        t_closed = await gen.phase("closed", closed_plans, closed_s, cursor)
        await asyncio.sleep(0.05)
        prog.signal(signal.SIGUSR1)
        await asyncio.sleep(0.05)
        await gen.close()
        result = prog.finish(60, interrupt=True)
        return {"setups": setups, "gen": gen, "result": result, "open": t_open,
                "closed": (t_closed[0], t_closed[0] + closed_s)}
    raise AssertionError("unreachable")


def _check_serve(measure: dict[str, Any], expected: Any, ingest: bool) -> dict[int, bool]:
    """Whether each timed request's reply is correct, by rid."""
    gen = measure["gen"]
    acks = sorted(gen.ack_times)
    ok: dict[int, bool] = {}
    for req in gen.requests:
        if req.phase == "setup":
            continue
        reply = req.reply
        if reply is None or not reply.get("ok"):
            ok[req.rid] = False
        elif req.kind == "append":
            start = DB_ROWS + APPEND_ROWS * req.item
            ok[req.rid] = reply.get("start") == start and reply.get("stop") == start + APPEND_ROWS
        else:
            got = reply["matches"][0]
            if not ingest:
                ok[req.rid] = got == expected[req.item]
            else:
                hi = int(np.searchsorted(acks, req.recv + ACK_SLACK_S, side="right"))
                ok[req.rid] = any(got == expected(req.item, DB_ROWS + APPEND_ROWS * j)
                                  for j in range(req.acked_at_send, hi + 1))
    return ok


def _serve_metrics(measure: dict[str, Any], ok: dict[int, bool]) -> tuple[dict[str, float], dict[str, float]]:
    gen = measure["gen"]
    timed = [r for r in gen.requests if r.phase != "setup"]
    searches = [r for r in timed if r.kind == "search" and r.phase == "open"]
    answered = [r.recv - r.due for r in searches if r.reply is not None]
    closed = [r for r in timed if r.kind == "search" and r.phase == "closed"]
    completed = [r.recv - r.sent for r in closed if ok[r.rid]]
    # Little's law over the closed-loop connections, with the median round
    # trip so that a burst of host contention does not swing the figure.
    n_conns = len({r.conn for r in closed})
    appends = [r.recv - r.due for r in timed if r.kind == "append" and r.reply is not None]
    in_slo = [r for r in searches if ok[r.rid] and r.recv - r.due <= SEARCH_SLO_S]
    n_ok = sum(ok[r.rid] for r in timed)
    e2e = {
        "setup_s": statistics.median(measure["setups"]),
        "peak_rss_mb": measure["result"]["peak_rss_mb"],
        "ok_frac": n_ok / len(timed),
        "slo_frac": len(in_slo) / len(searches),
        "p50_ms": percentile_ms(answered, 50),
        "work_per_s": n_conns / statistics.median(completed) if completed else 0.0,
    }
    detail = {
        "search_p50_ms": e2e["p50_ms"], "search_p90_ms": percentile_ms(answered, 90),
        "search_p99_ms": percentile_ms(answered, 99),
        "search_slo_frac": e2e["slo_frac"], "search_sat_rps": e2e["work_per_s"],
        "append_p50_ms": percentile_ms(appends, 50), "append_p90_ms": percentile_ms(appends, 90),
        "failed_frac": 1 - e2e["ok_frac"], "open_loop_searches": len(searches),
        "closed_loop_searches": len(completed), "appends": len(appends),
    }
    return e2e, detail


def serve_workload(run: Run, ingest: bool) -> dict[str, Any]:
    rng = run.rng
    db, freqs = inputs.forensic_database(rng, DB_ROWS, SITES)
    queries = inputs.forensic_queries(rng, db, freqs, QUERY_POOL)
    n_appends = int(APPEND_RATE * run.seconds * 3) + 16 if ingest else 0
    appends = (rng.random((n_appends * APPEND_ROWS, SITES)) < freqs).astype(np.uint8)
    data = run.run_dir / "db.npy"
    np.save(data, db)
    bodies = {
        "ping": [b'"op": "ping"}\n'],
        "search": [loadgen.search_body(q, TOP_K) for q in queries],
        "append": [loadgen.append_body(appends[i * APPEND_ROWS:(i + 1) * APPEND_ROWS])
                   for i in range(n_appends)],
    }
    sched_seed = int(rng.integers(2**31))
    measures = []
    if run.traced:
        half = run.seconds / 2
        for traced in (False, True):
            measures.append(asyncio.run(_serve_measure(
                run, data, bodies, ingest, traced, 1, half, sched_seed)))
    else:
        measures.append(asyncio.run(_serve_measure(
            run, data, bodies, ingest, False, SETUP_REPEATS, run.seconds, sched_seed)))

    # References, outside the timed phases.
    if ingest:
        full = np.vstack([db, appends])
        distances = refs.hamming(queries, full)

        def expected(item: int, rows: int) -> list[list[int]]:
            return refs.topk(distances[item, :rows], TOP_K)
    else:
        distances = refs.hamming(queries, db)
        expected = [refs.topk(distances[i], TOP_K) for i in range(QUERY_POOL)]  # type: ignore[assignment]

    out: dict[str, Any] = {"attempted": 0, "failed": 0}
    for i, measure in enumerate(measures):
        ok = _check_serve(measure, expected, ingest)
        out["attempted"] += len(ok)
        out["failed"] += sum(not v for v in ok.values())
        e2e, detail = _serve_metrics(measure, ok)
        if i == len(measures) - 1:
            out.update(e2e=e2e, detail=detail)
        else:
            out["untraced_e2e"] = e2e
    if run.traced:
        measure = measures[-1]
        result = measure["result"]
        marks = result["marks"]
        timed = [r for r in measure["gen"].requests if r.phase != "setup"]
        out["layers"], out["ledger"] = ledger.compute(
            result["spans"], (marks[0][0], marks[-1][0]), marks, run.ceiling, requests=timed)
        out["layers"]["loadgen.inflight_max"] = float(measure["gen"].inflight_max)
    return out


# -- offline workloads -----------------------------------------------------------


def _offline_measure(run: Run, mode: str, args: list[str], traced: bool, repeats: int,
                     seconds: float) -> dict[str, Any]:
    setups = []
    for rep in range(repeats):
        prog = run.program(mode, args, traced)
        prog.read_until(b"ready", START_TIMEOUT_S)
        setups.append(time.perf_counter() - prog.started)
        if rep < repeats - 1:
            prog.send("quit")
            prog.finish(60)
            continue
        prog.send(f"go {seconds}")
        result = prog.finish(seconds + 150)
        outputs = dict(np.load(prog.work / "outputs.npz"))
        return {"setups": setups, "result": result, "outputs": outputs}
    raise AssertionError("unreachable")


def offline_workload(run: Run, mode: str) -> dict[str, Any]:
    rng = run.rng
    if mode == "offline-ld":
        table = inputs.ld_block_table(rng, LD_SAMPLES, LD_SITES)
        data = run.run_dir / "table.npy"
        np.save(data, table)
        args = ["--data", str(data)]
        work = LD_SITES * (LD_SITES + 1) / 2  # unordered site pairs per call
        slo = LD_SLO_S
    else:
        sites = np.ascontiguousarray(inputs.ld_block_table(rng, STREAM_SAMPLES, STREAM_SITES).T)
        scores = rng.random(STREAM_SITES)
        data = run.run_dir / "sites.npy"
        np.save(data, sites)
        np.save(run.run_dir / "scores.npy", scores)
        args = ["--data", str(data), "--scores", str(run.run_dir / "scores.npy")]
        work = 2 * STREAM_SITES  # sites through ld_prune plus sites through ld_clump
        slo = STREAM_SLO_S

    measures = []
    if run.traced:
        for traced in (False, True):
            measures.append(_offline_measure(run, mode, args, traced, 1, run.seconds / 2))
    else:
        measures.append(_offline_measure(run, mode, args, False, SETUP_REPEATS, run.seconds))

    # References, outside the timed phases.
    if mode == "offline-ld":
        counts = refs.ld_counts(table)
        r2 = refs.r_squared(counts, LD_SAMPLES)

        def correct(outputs: dict[str, np.ndarray]) -> bool:
            return (np.array_equal(outputs["counts"], counts)
                    and np.allclose(outputs["r2"], r2, rtol=1e-9, atol=1e-12))
    else:
        kept = refs.prune(sites, 256, 0.2)
        assignment = refs.clump(sites, scores, 256, 0.2)

        def correct(outputs: dict[str, np.ndarray]) -> bool:
            return (np.array_equal(outputs["kept"], kept)
                    and np.array_equal(outputs["assignment"], assignment))

    out: dict[str, Any] = {"attempted": 0, "failed": 0}
    for i, measure in enumerate(measures):
        result = measure["result"]
        digests = result["digests"]
        first_ok = correct(measure["outputs"])
        ok = [first_ok and d == digests[0] for d in digests]
        durations = [job[1] - job[0] for job in result["jobs"]]
        out["attempted"] += len(ok)
        out["failed"] += sum(not v for v in ok)
        median = statistics.median(durations)
        e2e = {
            "setup_s": statistics.median(measure["setups"]),
            "peak_rss_mb": result["peak_rss_mb"],
            "ok_frac": sum(ok) / len(ok),
            "slo_frac": sum(v and d <= slo for v, d in zip(ok, durations)) / len(ok),
            "p50_ms": median * 1e3,
            "work_per_s": work / median,
        }
        detail: dict[str, float] = {"jobs": len(durations), "failed_frac": 1 - e2e["ok_frac"],
                                    "p50_ms": e2e["p50_ms"], "p90_ms": percentile_ms(durations, 90)}
        if mode == "offline-ld":
            detail["ld_pairs_per_s"] = e2e["work_per_s"]
        else:
            detail["prune_sites_per_s"] = STREAM_SITES / statistics.median(
                job[2] - job[0] for job in result["jobs"])
            detail["clump_sites_per_s"] = STREAM_SITES / statistics.median(
                job[1] - job[2] for job in result["jobs"])
        if i == len(measures) - 1:
            out.update(e2e=e2e, detail=detail)
        else:
            out["untraced_e2e"] = e2e
    if run.traced:
        result = measures[-1]["result"]
        marks = result["marks"]
        out["layers"], out["ledger"] = ledger.compute(
            result["spans"], (marks[0][0], marks[-1][0]), marks, run.ceiling,
            stream=result.get("stream"), jobs=result["jobs"])
    return out


WORKLOADS = {
    "serve-search": lambda run: serve_workload(run, ingest=False),
    "serve-ingest": lambda run: serve_workload(run, ingest=True),
    "offline-ld": lambda run: offline_workload(run, "offline-ld"),
    "ld-stream": lambda run: offline_workload(run, "ld-stream"),
}


def _report(run: Run, out: dict[str, Any], env: dict[str, Any]) -> dict[str, Any]:
    correct = out["failed"] == 0
    if run.traced:
        layers = out["layers"]
        untraced = out["untraced_e2e"]["p50_ms"]
        layers["trace.overhead_frac"] = out["e2e"]["p50_ms"] / untraced - 1 if untraced else 0.0
        if layers["trace.unattributed_frac"] > ledger.MAX_UNATTRIBUTED:
            print(f"trace: {layers['trace.unattributed_frac']:.1%} of wall time is unattributed "
                  f"(limit {ledger.MAX_UNATTRIBUTED:.0%})", file=sys.stderr)
            correct = False
        metrics = {name: {"value": float(layers[name]), "unit": unit} for name, unit in ledger.PER_LAYER}
    else:
        metrics = {name: {"value": float(out["e2e"][name]), "unit": unit} for name, unit in END_TO_END}
    detail = {"workload": run.workload, "seed": run.seed, "seconds": run.seconds,
              "trace": int(run.traced), "environment": env, "end_to_end": out["e2e"],
              "detail": out["detail"], "layers": out.get("layers"), "ledger": out.get("ledger")}
    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{run.workload}-seed{run.seed}-trace{int(run.traced)}.json").write_text(
        json.dumps(detail, indent=1, default=str))
    print("environment:", json.dumps(env, default=str))
    for name, value in sorted(out["detail"].items()):
        print(f"{name:32s} {value:14.4f}")
    if out.get("ledger"):
        print("ledger (s):", ", ".join(f"{k}={v:.3f}" for k, v in
                                       sorted(out["ledger"].items(), key=lambda kv: -kv[1])))
    for name, entry in metrics.items():
        print(f"{name:32s} {entry['value']:14.4f} {entry['unit']}")
    return {"correct": correct, "attempted": int(out["attempted"]), "failed": int(out["failed"]),
            "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    run_dir = ROOT / ".perfbench" / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    run = Run(args, run_dir)
    try:
        env = envinfo.record(ROOT)
        run.ceiling = ceiling_gwordops(run_dir) if run.traced else 0.0
        out = WORKLOADS[args.workload](run)
        result = _report(run, out, env)
    finally:
        run.close()
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
