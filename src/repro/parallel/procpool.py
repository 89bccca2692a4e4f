"""Process-level shard execution with shared-memory packed panels.

The thread pool in :mod:`repro.parallel.engine` scales until the
Python-side orchestration (shard dispatch, NumPy
dispatch overhead) serializes on the GIL -- with the compiled
``cnative``/``numba`` backends the kernels themselves are fast enough
that this ceiling arrives at a handful of cores.
:class:`ProcessShardExecutor` is the next tier: the same
:class:`~repro.parallel.plan.ShardPlan` shards, executed by a pool of
worker *processes*, each running the identical
:func:`~repro.parallel.engine.execute_shard` retry/quarantine/verify
ladder -- one registered backend panel per shard -- the inline and
threaded paths use.

**Backend identity.**  Each worker resolves the run's backend by name
in its own registry and compares its implementation identity
(:func:`~repro.kernels.backend_identity`: class, version,
availability) with the parent's.  A mismatch -- the name unknown or
unavailable in the worker, or bound to a different implementation --
raises :class:`~repro.errors.ConfigurationError` in the parent: a
requested backend is honoured or rejected, never silently replaced.

**Operand transport is zero-copy where it can be.**  Packed operands
are published once per run:

* file-backed operands (``.snpbin`` memmaps from
  :class:`~repro.io_stream.format.PackedDatasetReader`, including
  contiguous row slices) are described by ``(path, offset, shape,
  dtype)`` and re-mapped read-only in each worker via
  :func:`~repro.io_stream.format.map_packed_words` -- no bytes cross
  the pipe;
* in-memory operands are copied once into
  :mod:`multiprocessing.shared_memory` segments that every worker
  attaches; self-comparisons publish a single segment for both sides.

The int64 output C lives in one preallocated shared segment; every
shard writes its disjoint block (and, in Gram mode, its transpose
mirror slot) directly, so results need no per-shard pickling either.

**Scheduling and worker loss.**  Shards go through one shared task
queue (dynamic load balancing, like the thread pool).  A worker sends
a durable ``claim`` message before computing a shard and a ``done``
message -- carrying the :class:`~repro.parallel.engine.ShardProfile`,
the shard's observability-counter delta, and any injector events --
after.  The parent merges counter deltas into its own tracer, so the
deterministic counters the regression gate compares are identical to a
threaded run's.  When a worker process dies, the parent re-enqueues
its claimed-but-unfinished shards onto the survivors (block writes are
idempotent: a re-executed shard overwrites the same disjoint slots),
and counts :data:`~repro.observability.counters.WORKERS_LOST`.  An
injected ``worker-lost@N`` fault is decided by the parent, not by a
worker: the run's dispatch ordinal ``N`` task is marked, and whichever
worker dequeues it dies after flushing its claim -- so the schedule is
deterministic however the workers race for tasks (the parent records
the fired event when it marks the task).  A genuine crash surfaces as
a ``worker-lost`` event carrying the worker id in the run's
:class:`~repro.resilience.report.ResilienceReport`.  A genuine crash
can additionally swallow a task the worker dequeued before its claim
reached the parent; after a death, a stall of the result queue
triggers a redispatch of every shard neither finished nor claimed by a
live worker, so the run recovers instead of hanging.  Only a completed
``done`` message merges counters -- and only the first per shard -- so
re-execution and redispatch never double-count.  Runs on one executor
are serialized behind a run lock: the pool's single result queue
admits one consumer at a time, and concurrent ``engine.run`` calls on
a shared engine queue up rather than stealing each other's messages.

**Start method.**  Workers use the ``spawn`` start method by default
(portable to macOS/Windows semantics, safe with compiled backends and
the parent's threads); ``REPRO_MP_START`` selects ``fork``/
``forkserver`` where supported.  Shared-memory segments are unlinked
by the parent at the end of every run and workers attach without
resource-tracker registration (``track=False`` on Python 3.13+, an
explicit unregister before that), so no segment outlives its run --
the worker-loss chaos test asserts exactly that.

See ``docs/DISTRIBUTED.md`` for the executor-tier overview.
"""

from __future__ import annotations

import os
import pickle
import queue as queue_mod
import threading
import time
from dataclasses import dataclass, field
from multiprocessing import get_context, resource_tracker, shared_memory
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.blis.blocking import BlockingPlan
from repro.blis.gemm import same_operand
from repro.blis.microkernel import ComparisonOp, get_microkernel
from repro.errors import ConfigurationError, ShardExecutionError
from repro.io_stream.format import map_packed_words, packed_words_ref
from repro.kernels import backend_identity, get_backend
from repro.observability.counters import WORKERS_LOST, CounterRegistry
from repro.observability.tracer import get_tracer
from repro.parallel.plan import Shard, ShardPlan
from repro.resilience.faults import (
    NULL_INJECTOR,
    FaultInjector,
    FaultPlan,
    FiredFault,
)
from repro.resilience.retry import RetryPolicy
from repro.resilience.runtime import ResilienceContext
from repro.util.validation import check_workers

if TYPE_CHECKING:
    from multiprocessing.context import BaseContext
    from multiprocessing.process import BaseProcess

    from repro.parallel.engine import ShardProfile

__all__ = [
    "REPRO_MP_START_ENV",
    "OperandRef",
    "ProcessRunResult",
    "ProcessShardExecutor",
]

#: Environment variable selecting the multiprocessing start method for
#: worker processes (``spawn`` -- the portable default -- ``fork`` or
#: ``forkserver``).  CI pins ``spawn`` explicitly so the macOS/Windows
#: semantics are what every leg exercises.
REPRO_MP_START_ENV = "REPRO_MP_START"

_DEFAULT_START_METHOD = "spawn"

#: Seconds the parent waits on the result queue before checking worker
#: liveness (worker-loss detection latency is bounded by this).
_POLL_SECONDS = 0.05

#: Exit code a worker uses when an injected ``worker-lost`` fault kills
#: it (the parent distinguishes the injected death -- already recorded
#: as a fired fault when the task was marked -- from a genuine crash).
_KILLED_EXIT_CODE = 86

#: Seconds of result-queue silence after a worker death before the
#: parent re-enqueues every shard that is neither completed nor claimed
#: by a live worker.  A genuine crash between ``task_q.get()`` and the
#: claim reaching the parent swallows a shard without a trace; once the
#: survivors drain the queue and go quiet, this redispatch recovers it
#: (duplicate executions are safe: block writes are idempotent and only
#: the first ``done`` per shard merges counters).
_STALL_TIMEOUT = 1.0

#: Run states one worker keeps attached at a time.  Each state holds
#: shared-memory attachments, so the cache is small; an evicted state
#: is rebuilt from the next task's embedded run spec if needed.
_WORKER_STATE_CACHE = 4


def _resolve_start_method() -> str:
    """The start method worker processes launch under."""
    name = os.environ.get(REPRO_MP_START_ENV, "").strip() or _DEFAULT_START_METHOD
    if name not in ("spawn", "fork", "forkserver"):
        raise ConfigurationError(
            f"{REPRO_MP_START_ENV}: unknown start method {name!r} "
            f"(valid: spawn, fork, forkserver)"
        )
    return name


def _attach_shm(name: str) -> shared_memory.SharedMemory:
    """Attach an existing segment without resource-tracker registration.

    Before Python 3.13 a child that merely *attaches* a segment
    registers it with the resource tracker -- and spawned workers share
    the *parent's* tracker process, so the duplicate registration (and
    any attempt to unregister it afterwards) corrupts the tracker's
    book-keeping for a segment the parent still owns.  ``track=False``
    (3.13+) or suppressing registration around the attach keeps
    ownership where it belongs: the parent creates, the parent unlinks.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: no track parameter
        original_register = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None  # type: ignore[assignment]
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original_register


@dataclass(frozen=True)
class OperandRef:
    """How one packed operand reaches the workers.

    ``kind="mmap"``: ``name`` is a file path; workers map ``shape``
    words of ``dtype`` read-only at byte ``offset`` (zero-copy, no
    operand bytes ever cross the task pipe).  ``kind="shm"``: ``name``
    is a :mod:`multiprocessing.shared_memory` segment the parent
    filled once; workers attach and wrap it.
    """

    kind: str  # "mmap" | "shm"
    name: str
    shape: tuple[int, int]
    dtype: str
    offset: int = 0


@dataclass
class ProcessRunResult:
    """What one process-pool dispatch produced (parent side)."""

    c: np.ndarray
    profiles: list["ShardProfile"]
    worker_events: tuple[FiredFault, ...]
    workers_lost: int


# -- worker side -----------------------------------------------------------------


class _RunState:
    """One run's attachments and execution context inside a worker."""

    def __init__(self, spec: dict[str, Any]) -> None:
        from repro.observability.tracer import Tracer, set_tracer

        # A fresh per-run tracer: counters feed the per-shard deltas
        # shipped back to the parent, and re-installing per run bounds
        # span accumulation over a long-lived pool.
        self.tracer = Tracer()
        set_tracer(self.tracer)
        self.backend = get_backend(spec["backend"])
        if backend_identity(self.backend) != spec["backend_identity"]:
            raise ConfigurationError(
                f"process worker: backend {spec['backend']!r} is "
                f"{backend_identity(self.backend)} here but "
                f"{spec['backend_identity']} in the parent"
            )
        self._shm: list[shared_memory.SharedMemory] = []
        self.a = self._attach_operand(spec["a"])
        b_ref = spec["b"]
        self.b = self.a if b_ref is None else self._attach_operand(b_ref)
        c_shm = _attach_shm(spec["c_name"])
        self._shm.append(c_shm)
        self.c: np.ndarray | None = np.ndarray(
            tuple(spec["c_shape"]), dtype=np.int64, buffer=c_shm.buf
        )
        self.op: ComparisonOp = get_microkernel(spec["op"]).op
        self.k: int = spec["k"]
        fault_spec = spec["fault_spec"]
        injector: FaultInjector | Any = NULL_INJECTOR
        if fault_spec:
            injector = FaultInjector(
                FaultPlan.from_spec(fault_spec, slow_delay_s=spec["slow_delay_s"])
            )
        self.injector = injector
        policy_fields: dict[str, Any] = spec["policy"]
        self.res = ResilienceContext(
            injector=injector,
            policy=RetryPolicy(**policy_fields),
            verify_sample=spec["verify_sample"],
            verify_seed=spec["verify_seed"],
        )

    def _attach_operand(self, ref: OperandRef) -> np.ndarray:
        if ref.kind == "mmap":
            return map_packed_words(ref.name, ref.offset, ref.shape, ref.dtype)
        shm = _attach_shm(ref.name)
        self._shm.append(shm)
        return np.ndarray(ref.shape, dtype=np.dtype(ref.dtype), buffer=shm.buf)

    def execute(self, shard: Shard) -> "ShardProfile":
        from repro.parallel.engine import execute_shard

        assert self.c is not None
        return execute_shard(
            self.backend, shard, self.a, self.b, self.op, self.k, self.c,
            self.res,
        )

    def close(self) -> None:
        # Views must drop before the buffers close.
        self.a = self.b = np.zeros((0, 0), dtype=np.uint64)
        self.c = None
        for shm in self._shm:
            try:
                shm.close()
            except BufferError:  # pragma: no cover - lingering view
                pass
        self._shm = []


def _worker_main(worker_id: int, task_q: Any, result_q: Any) -> None:
    """Worker process loop: claim, execute, report; die on command."""
    states: dict[int, _RunState] = {}
    order: list[int] = []
    while True:
        msg = task_q.get()
        if msg[0] == "stop":
            break
        _, run_id, shard, spec, doomed = msg
        # The claim must be durable before any work (or injected
        # death): the parent re-enqueues claimed-but-unfinished shards
        # of a dead worker, so an unflushed claim would strand a shard.
        result_q.put(("claim", worker_id, run_id, shard.shard_id))
        if doomed:
            # Injected worker loss (the parent marked this task): flush
            # the queue feeder so the claim reaches the parent, then
            # die like a crash.
            result_q.close()
            result_q.join_thread()
            os._exit(_KILLED_EXIT_CODE)
        try:
            state = states.get(run_id)
            if state is None:
                state = _RunState(spec)
                states[run_id] = state
                order.append(run_id)
                while len(order) > _WORKER_STATE_CACHE:
                    states.pop(order.pop(0)).close()
            before = state.tracer.counters.snapshot()
            events_before = state.injector.n_fired()
            profile = state.execute(shard)
            delta = CounterRegistry.diff(
                before, state.tracer.counters.snapshot()
            )
            events = tuple(state.injector.fired()[events_before:])
            result_q.put(
                ("done", worker_id, run_id, shard.shard_id, profile, delta,
                 events)
            )
        except BaseException as exc:  # noqa: BLE001 - shipped to parent
            payload: bytes | None
            try:
                payload = pickle.dumps(exc)
            except Exception:
                payload = None
            result_q.put(
                ("error", worker_id, run_id, shard.shard_id, payload,
                 f"{type(exc).__name__}: {exc}")
            )
    for state in states.values():
        state.close()


# -- parent side -----------------------------------------------------------------


class ProcessShardExecutor:
    """A persistent pool of shard-worker processes.

    One executor is owned by one :class:`~repro.parallel.engine.ParallelEngine`
    and reused across runs, so the (spawn-method) process startup cost
    is paid once, not per GEMM.  ``execute`` publishes the operands,
    dispatches every shard of a :class:`~repro.parallel.plan.ShardPlan`,
    merges worker counter deltas into the parent tracer, and returns
    the filled output with per-shard profiles.  Dead workers are
    respawned at the start of the *next* run; within a run their shards
    fail over to the survivors.
    """

    def __init__(self, workers: int) -> None:
        check_workers("ProcessShardExecutor: workers", workers)
        self.workers = workers
        self._ctx: "BaseContext | None" = None
        self._procs: dict[int, "BaseProcess"] = {}
        self._task_q: Any = None
        self._result_q: Any = None
        self._run_counter = 0
        self._lock = threading.Lock()

    # -- pool lifecycle --------------------------------------------------------

    def _context(self) -> "BaseContext":
        if self._ctx is None:
            self._ctx = get_context(_resolve_start_method())
        return self._ctx

    def _ensure_workers(self) -> None:
        ctx = self._context()
        if self._task_q is None:
            self._task_q = ctx.Queue()
            self._result_q = ctx.Queue()
        for worker_id in range(self.workers):
            proc = self._procs.get(worker_id)
            if proc is not None and proc.is_alive():
                continue
            if proc is not None:
                proc.join(timeout=1.0)
            proc = ctx.Process(
                target=_worker_main,
                args=(worker_id, self._task_q, self._result_q),
                name=f"repro-shard-proc-{worker_id}",
                daemon=True,
            )
            proc.start()
            self._procs[worker_id] = proc

    def shutdown(self) -> None:
        """Stop every worker and release the queues."""
        with self._lock:
            if not self._procs:
                return
            for _ in self._procs:
                try:
                    self._task_q.put(("stop",))
                except Exception:  # pragma: no cover - queue already dead
                    break
            for proc in self._procs.values():
                proc.join(timeout=5.0)
                if proc.is_alive():  # pragma: no cover - hung worker
                    proc.terminate()
                    proc.join(timeout=1.0)
            self._procs = {}
            for q in (self._task_q, self._result_q):
                if q is not None:
                    q.close()
                    q.cancel_join_thread()
            self._task_q = self._result_q = None

    @property
    def alive_workers(self) -> int:
        return sum(1 for p in self._procs.values() if p.is_alive())

    # -- operand publication ---------------------------------------------------

    def _publish_operand(
        self, arr: np.ndarray, handles: list[shared_memory.SharedMemory]
    ) -> OperandRef:
        ref = packed_words_ref(arr)
        if ref is not None:
            path, offset, shape, dtype = ref
            return OperandRef(
                kind="mmap", name=path, shape=shape, dtype=dtype, offset=offset
            )
        contiguous = np.ascontiguousarray(arr)
        shm = shared_memory.SharedMemory(
            create=True, size=max(1, contiguous.nbytes)
        )
        handles.append(shm)
        view: np.ndarray = np.ndarray(
            contiguous.shape, dtype=contiguous.dtype, buffer=shm.buf
        )
        view[:] = contiguous
        del view
        return OperandRef(
            kind="shm",
            name=shm.name,
            shape=(int(arr.shape[0]), int(arr.shape[1])),
            dtype=contiguous.dtype.str,
        )

    # -- dispatch --------------------------------------------------------------

    def execute(
        self,
        a: np.ndarray,
        b: np.ndarray,
        op: ComparisonOp,
        plan: BlockingPlan,
        shard_plan: ShardPlan,
        backend_name: str,
        res: ResilienceContext,
    ) -> ProcessRunResult:
        """Run every shard of ``shard_plan`` across the worker pool.

        Runs are serialized: the pool has one shared result queue, and
        a second concurrent consumer would steal (and discard as stale)
        the first run's claim/done messages, hanging both.  Concurrent
        callers -- :func:`~repro.parallel.engine.get_engine` shares
        engines process-wide, and pipelined serving dispatches batches
        concurrently -- queue up on the run lock instead.
        """
        with self._lock:
            self._ensure_workers()
            self._run_counter += 1
            run_id = self._run_counter
            handles: list[shared_memory.SharedMemory] = []
            try:
                return self._execute_locked(
                    run_id, handles, a, b, op, plan, shard_plan,
                    backend_name, res,
                )
            finally:
                for shm in handles:
                    try:
                        shm.close()
                        shm.unlink()
                    except FileNotFoundError:  # pragma: no cover
                        pass

    def _build_spec(
        self,
        run_id: int,
        a: np.ndarray,
        b: np.ndarray,
        op: ComparisonOp,
        plan: BlockingPlan,
        backend_name: str,
        res: ResilienceContext,
        handles: list[shared_memory.SharedMemory],
    ) -> tuple[dict[str, Any], np.ndarray]:
        ref_a = self._publish_operand(a, handles)
        ref_b = None if same_operand(a, b) else self._publish_operand(b, handles)
        c_shm = shared_memory.SharedMemory(
            create=True, size=max(1, plan.m * plan.n * 8)
        )
        handles.append(c_shm)
        c_view: np.ndarray = np.ndarray(
            (plan.m, plan.n), dtype=np.int64, buffer=c_shm.buf
        )
        c_view[:] = 0
        injector = res.injector
        fault_spec = (
            injector.plan.to_spec()
            if isinstance(injector, FaultInjector) and injector.plan.specs
            else None
        )
        slow_delay_s = (
            injector.plan.slow_delay_s
            if isinstance(injector, FaultInjector)
            else 0.0
        )
        policy = res.policy
        spec: dict[str, Any] = {
            "run_id": run_id,
            "a": ref_a,
            "b": ref_b,
            "c_name": c_shm.name,
            "c_shape": (plan.m, plan.n),
            "op": op.value,
            "k": plan.k,
            "backend": backend_name,
            "backend_identity": backend_identity(get_backend(backend_name)),
            "fault_spec": fault_spec,
            "slow_delay_s": slow_delay_s,
            "policy": {
                "max_attempts": policy.max_attempts,
                "base_delay_s": policy.base_delay_s,
                "multiplier": policy.multiplier,
                "max_delay_s": policy.max_delay_s,
                "jitter": policy.jitter,
                "seed": policy.seed,
                "quarantine": policy.quarantine,
            },
            "verify_sample": res.verify_sample,
            "verify_seed": res.verify_seed,
        }
        return spec, c_view

    def _execute_locked(
        self,
        run_id: int,
        handles: list[shared_memory.SharedMemory],
        a: np.ndarray,
        b: np.ndarray,
        op: ComparisonOp,
        plan: BlockingPlan,
        shard_plan: ShardPlan,
        backend_name: str,
        res: ResilienceContext,
    ) -> ProcessRunResult:
        spec, c_view = self._build_spec(
            run_id, a, b, op, plan, backend_name, res, handles,
        )
        shards = {shard.shard_id: shard for shard in shard_plan.shards}
        # Injected worker loss is decided here, per dispatch ordinal:
        # the queue is FIFO, so a marked task is always dequeued during
        # this run, and whichever worker dequeues it dies.
        for shard in shard_plan.shards:
            doomed = res.injector.mark_worker_loss()
            self._task_q.put(("shard", run_id, shard, spec, doomed))

        obs = get_tracer()
        profiles: dict[int, "ShardProfile"] = {}
        claims: dict[int, int] = {}
        dead: set[int] = set()
        events: list[FiredFault] = []
        workers_lost = 0
        # Armed by reap() on each death: if the result queue then stays
        # silent past the deadline, shards a dying worker swallowed
        # before its claim reached the parent are redispatched.
        stall_deadline: float | None = None

        def reap() -> int:
            """Detect dead workers; fail their claimed shards over."""
            nonlocal stall_deadline
            lost = 0
            for worker_id, proc in self._procs.items():
                if worker_id in dead or proc.is_alive():
                    continue
                dead.add(worker_id)
                lost += 1
                if proc.exitcode != _KILLED_EXIT_CODE:
                    # A genuine crash: a loss, not an injection.  An
                    # injected death's event was recorded when its task
                    # was marked.
                    events.append(
                        FiredFault(
                            kind="worker-lost", target=worker_id,
                            attempt=0, site="procpool",
                        )
                    )
                obs.counters.add(WORKERS_LOST)
            for shard_id, worker_id in list(claims.items()):
                if shard_id in profiles or worker_id not in dead:
                    continue
                del claims[shard_id]
                self._task_q.put(("shard", run_id, shards[shard_id], spec, False))
            if len(dead) >= len(self._procs):
                raise ShardExecutionError(
                    f"process executor: all {len(self._procs)} worker "
                    f"processes were lost",
                    shard_id=-1,
                )
            if lost:
                stall_deadline = time.monotonic() + _STALL_TIMEOUT
            return lost

        while len(profiles) < len(shards):
            try:
                msg = self._result_q.get(timeout=_POLL_SECONDS)
            except queue_mod.Empty:
                workers_lost += reap()
                if (
                    stall_deadline is not None
                    and time.monotonic() >= stall_deadline
                ):
                    # A worker died and the queue has gone quiet, yet
                    # shards are still outstanding: any shard neither
                    # finished nor claimed by a live worker may have
                    # been swallowed by the dying worker before its
                    # claim got out.  Redispatch them all -- a shard
                    # that was merely still queued runs twice, which is
                    # harmless (idempotent writes, first ``done`` wins).
                    stall_deadline = None
                    for shard_id, shard in shards.items():
                        if shard_id in profiles or shard_id in claims:
                            continue
                        self._task_q.put(("shard", run_id, shard, spec, False))
                continue
            kind = msg[0]
            if msg[2] != run_id:
                continue  # stale message from an aborted earlier run
            if kind == "claim":
                _, worker_id, _, shard_id = msg
                if shard_id in profiles:
                    continue
                claims[shard_id] = worker_id
                if worker_id in dead:
                    # The claim outlived its worker; fail over now.
                    del claims[shard_id]
                    self._task_q.put(("shard", run_id, shards[shard_id], spec, False))
            elif kind == "done":
                _, worker_id, _, shard_id, profile, delta, shard_events = msg
                if shard_id in profiles:
                    continue  # re-executed shard already reported
                profiles[shard_id] = profile
                claims.pop(shard_id, None)
                for name, value in delta.items():
                    obs.counters.add(name, value)
                events.extend(shard_events)
            elif kind == "error":
                _, worker_id, _, shard_id, payload, message = msg
                if payload is not None:
                    try:
                        raise pickle.loads(payload)
                    except ShardExecutionError:
                        raise
                    except Exception as exc:
                        if isinstance(exc, (pickle.UnpicklingError, EOFError)):
                            pass  # fall through to the generic raise
                        else:
                            raise
                raise ShardExecutionError(
                    f"shard {shard_id} failed in worker process "
                    f"{worker_id}: {message}",
                    shard_id=shard_id,
                )

        c = np.array(c_view, copy=True)
        del c_view
        ordered = [profiles[shard_id] for shard_id in sorted(profiles)]
        return ProcessRunResult(
            c=c,
            profiles=ordered,
            worker_events=tuple(events),
            workers_lost=workers_lost,
        )
