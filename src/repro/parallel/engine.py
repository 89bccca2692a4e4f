"""The one compute path: every bit-GEMM is shard plan x backend panel.

:meth:`ParallelEngine.run` is how the package computes
``C[i, j] = sum_k POPC(op(A[i, k], B[j, k]))`` -- the framework, the
simulated-device executor, streaming, LD prune/clump, serving and the
CPU baseline all reach compute through it.  One run is one loop:

1. **Shard plan.**  Serial runs (``workers == 1``, or problems below
   the crossover) compute one full shard.  Sharded runs partition C
   with :class:`~repro.parallel.plan.ShardPlan`: the full plan, or for
   Gram products the triangular plan.
2. **Backend panel.**  Every shard's block is one call to a registered
   kernel backend's ``bit_gemm_panel`` (:mod:`repro.kernels`).
   ``backend="auto"`` resolves once per run through
   :func:`repro.kernels.resolve_backend_name`: ``REPRO_BACKEND``, then
   the tuning record's measured winner, then the size rule (``numpy``
   word-walk for small problems, ``blas`` identity GEMM above
   :data:`~repro.kernels.AUTO_WORD_WALK_MAX_OPS`).  An explicit backend
   is honoured or rejected with :class:`~repro.errors.ConfigurationError`,
   never replaced.
3. **Thread pool.**  Shards run inline (serial runs) or on the
   engine's thread pool: the NumPy/BLAS and compiled kernels release
   the GIL, so shards overlap.

Every shard writes its disjoint block of the shared output, so the
partial-``gamma`` reduction is race-free by construction, and inline
and pooled runs execute shards through the same :func:`execute_shard`
retry/quarantine/verify ladder -- results are bit-exact across worker
counts and the deterministic counters match.

**Gram mode.**  When both operands are the *same* packed matrix
(``same_operand``) and the op is symmetric, ``C == C.T`` and sharded
runs use the triangular plan
(:meth:`~repro.parallel.plan.ShardPlan.triangular`): only diagonal and
upper-triangular shards are computed; each off-diagonal shard also
reflects its block into the transpose slot (``mirror=True``, counted by
:data:`SHARDS_MIRRORED`).  :data:`GEMM_WORD_OPS` records only
*computed* word-ops, so Gram runs show roughly ``(g + 1) / (2 g)`` of
the full count.  Serial Gram runs compute the one full shard: a single
full panel measured faster than the triangular plan run inline.

Per-shard timing surfaces as :class:`ShardProfile` records (the
host-side analogue of :class:`repro.gpu.executor.KernelProfile`)
inside a :class:`ParallelReport`.
"""

from __future__ import annotations

import math
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.blis.blocking import BlockingPlan
from repro.blis.gemm import HOST_BLOCKING, bit_gemm_reference, same_operand
from repro.blis.microkernel import ComparisonOp
from repro.errors import (
    PackingError,
    ReproError,
    ShardExecutionError,
)
from repro.kernels import (
    DEFAULT_BACKEND_NAME,
    KernelBackend,
    check_panel_operands,
    env_backend_name,
    get_backend,
    resolve_backend_name,
)
from repro.observability.counters import (
    GEMM_CALLS,
    GEMM_WORD_OPS,
    HOST_ENGINE_SECONDS,
    SHARD_RETRIES,
    SHARDS_EXECUTED,
    SHARDS_MIRRORED,
    SHARDS_QUARANTINED,
    TILES_VERIFIED,
    VERIFY_MISMATCHES,
)
from repro.observability.report import MetricsReport
from repro.observability.tracer import get_tracer
from repro.parallel.plan import TRIANGULAR_MIN_BANDS, Shard, ShardPlan
from repro.resilience.report import ResilienceReport
from repro.resilience.retry import Disposition, classify
from repro.resilience.runtime import ResilienceContext, get_resilience
from repro.util.validation import check_workers

if TYPE_CHECKING:
    from repro.parallel.tuner import TuningRecord

__all__ = [
    "PARALLEL_CROSSOVER_OPS",
    "ShardProfile",
    "ParallelReport",
    "ParallelEngine",
    "bit_gemm_parallel",
    "execute_shard",
    "get_engine",
]

#: Problems below this many packed-word operations run serially: pool
#: dispatch costs more than it saves on small tables.
PARALLEL_CROSSOVER_OPS = 1 << 21


def _gram_blocking(plan: BlockingPlan) -> BlockingPlan:
    """Pick the blocking a symmetric (Gram) run should shard with.

    Device-derived plans favour column-spanning ``n_r`` (one core row
    covers a whole column band), which inflates ``lcm(m_r, n_r)`` to
    the full extent and collapses the triangular decomposition to a
    single full-compute band.  The host walk has no such constraint:
    when the engine's default host blocking bands more finely than the
    given plan, substitute it.  Extents are preserved, the result is
    bit-exact for any valid blocking, and simulated device timing is
    unaffected (it is priced off the kernel's own plan upstream).
    """
    given_unit = math.lcm(plan.m_r, plan.n_r)
    host_unit = math.lcm(HOST_BLOCKING["m_r"], HOST_BLOCKING["n_r"])
    if given_unit <= host_unit:
        return plan
    given_bands = max(1, plan.m // given_unit)
    host_bands = max(1, plan.m // host_unit)
    if given_bands >= min(TRIANGULAR_MIN_BANDS, host_bands):
        return plan
    return BlockingPlan(m=plan.m, n=plan.n, k=plan.k, **HOST_BLOCKING)


@dataclass(frozen=True)
class ShardProfile:
    """Timing and accounting for one shard (KernelProfile analogue).

    ``mirrored`` marks Gram-mode off-diagonal shards: the block was
    computed once and additionally reflected into its transpose slot
    (the reflected word-ops are *not* in ``word_ops``).

    The resilience fields record the unhappy path: ``retries`` counts
    re-executions after retryable faults, ``quarantined`` marks a shard
    whose budget was exhausted and whose block was recomputed on the
    serial reference path, ``verified`` marks a shard the
    spot-verification guard re-checked, and ``mismatched`` marks a
    verified shard whose block disagreed with the reference (the
    reference block was adopted).
    """

    shard_id: int
    m_range: tuple[int, int]
    n_range: tuple[int, int]
    word_ops: int
    seconds: float
    mirrored: bool = False
    retries: int = 0
    quarantined: bool = False
    verified: bool = False
    mismatched: bool = False

    @property
    def throughput_word_ops(self) -> float:
        """Word-ops per second of shard wall time."""
        return self.word_ops / self.seconds if self.seconds > 0 else 0.0


@dataclass
class ParallelReport:
    """What one engine run did: backend, shard plan, per-shard records.

    ``metrics`` carries the run-scoped observability delta (counters
    plus span aggregates) when tracing was enabled; ``None`` otherwise.
    ``resilience`` carries the fault-tolerance accounting when a
    resilience context was active during the run; ``None`` otherwise.
    ``shard_plan`` is the sharded run's plan (``None`` for serial runs,
    which compute one full shard).  ``symmetric`` marks a triangular
    Gram plan.
    """

    workers: int
    used_parallel: bool
    seconds: float
    backend: str = DEFAULT_BACKEND_NAME
    shard_plan: ShardPlan | None = None
    shard_profiles: list[ShardProfile] = field(default_factory=list)
    metrics: MetricsReport | None = None
    symmetric: bool = False
    resilience: ResilienceReport | None = None

    @property
    def n_shards(self) -> int:
        return len(self.shard_profiles)

    @property
    def n_mirrored(self) -> int:
        """Shards whose transpose slot was filled by reflection."""
        return sum(1 for p in self.shard_profiles if p.mirrored)

    @property
    def n_retries(self) -> int:
        """Total shard re-executions after retryable faults."""
        return sum(p.retries for p in self.shard_profiles)

    @property
    def n_quarantined(self) -> int:
        """Shards recomputed on the serial reference path."""
        return sum(1 for p in self.shard_profiles if p.quarantined)

    @property
    def total_word_ops(self) -> int:
        return sum(p.word_ops for p in self.shard_profiles)

    @property
    def shard_seconds(self) -> float:
        """Sum of per-shard wall times (> ``seconds`` when overlapped)."""
        return sum(p.seconds for p in self.shard_profiles)

    @property
    def throughput_word_ops(self) -> float:
        return self.total_word_ops / self.seconds if self.seconds > 0 else 0.0


def _check_symmetric_run(a: np.ndarray, b: np.ndarray, op: ComparisonOp) -> None:
    """Validate an explicit ``symmetric=True`` Gram request.

    Equal-content copies are accepted alongside views -- the device
    pipeline stages operands through buffer copies, so a
    self-comparison reaches the engine as two arrays with identical
    words.  The content check is O(m*k), noise next to the GEMM.
    """
    if not op.is_symmetric:
        raise PackingError(
            f"ParallelEngine.run: symmetric=True is invalid for asymmetric "
            f"op {op.value!r}"
        )
    if not same_operand(a, b) and not (
        a.shape == b.shape and bool(np.array_equal(a, b))
    ):
        raise PackingError(
            "ParallelEngine.run: symmetric=True requires a self-comparison "
            "(operands must hold the same packed matrix)"
        )


class ParallelEngine:
    """Runs one bit-GEMM as shard plan x backend panel on a thread pool.

    Parameters
    ----------
    workers:
        Pool size.  Default: ``os.cpu_count()``.  ``1`` always computes
        one full shard inline.
    oversubscribe:
        Shards per worker the plan aims for (see :class:`ShardPlan`).
    crossover_ops:
        Problems below this many word-ops run serially.
    backend:
        Kernel-ABI backend (:mod:`repro.kernels`) whose
        ``bit_gemm_panel`` computes every shard.  ``"auto"`` resolves
        per run: the ``REPRO_BACKEND`` environment variable, the
        persisted tuning record for the problem's size class, then the
        size rule.  Word-op accounting is backend-invariant.

    One engine owns one lazily created pool; it is reused across runs
    and across callers -- :func:`get_engine` hands the same engine to
    every simulated device, so a multi-GPU run shares a single pool.
    """

    def __init__(
        self,
        workers: int | None = None,
        oversubscribe: int = 2,
        crossover_ops: int = PARALLEL_CROSSOVER_OPS,
        backend: str = "auto",
    ) -> None:
        if workers is None:
            workers = os.cpu_count() or 1
        check_workers("ParallelEngine: workers", workers)
        if backend != "auto":
            get_backend(backend)  # unknown names fail at construction
        self.workers = workers
        self.oversubscribe = oversubscribe
        self.crossover_ops = crossover_ops
        self.backend = backend
        self._pool: ThreadPoolExecutor | None = None
        self._pool_lock = threading.Lock()

    # -- pool management -------------------------------------------------------

    def _get_pool(self) -> ThreadPoolExecutor:
        with self._pool_lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.workers,
                    thread_name_prefix="repro-shard",
                )
            return self._pool

    def shutdown(self) -> None:
        """Release the pool (a later run recreates it)."""
        with self._pool_lock:
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None

    # -- entry point -----------------------------------------------------------

    def run(
        self,
        a: np.ndarray,
        b: np.ndarray,
        op: ComparisonOp | str = ComparisonOp.AND,
        plan: BlockingPlan | None = None,
        force_parallel: bool | None = None,
        symmetric: bool | None = None,
    ) -> tuple[np.ndarray, ParallelReport]:
        """Compute ``C[i, j] = sum_k POPC(op(A[i,k], B[j,k]))``.

        Returns the int64 table and a :class:`ParallelReport`.
        ``force_parallel`` overrides the crossover heuristic (tests and
        benchmarks use it); ``plan`` pins the blocking the shard plan
        derives from.  ``symmetric`` controls Gram mode: ``None``
        (default) auto-detects (same matrix on both sides + symmetric
        op), ``True`` requires and validates it, ``False`` disables it.
        """
        a, b, op = check_panel_operands(a, b, op)
        m, k = a.shape
        n = b.shape[0]
        if symmetric is None:
            symmetric = op.is_symmetric and same_operand(a, b)
        elif symmetric:
            _check_symmetric_run(a, b, op)
        if plan is None:
            plan = BlockingPlan(m=m, n=n, k=k, **HOST_BLOCKING)
        if (plan.m, plan.n, plan.k) != (m, n, k):
            raise PackingError(
                f"ParallelEngine.run: plan extents {(plan.m, plan.n, plan.k)} "
                f"do not match operands {(m, n, k)}"
            )
        total_ops = plan.total_ops()
        backend_spec = self.backend
        if backend_spec == "auto":
            backend_spec = env_backend_name() or "auto"
        tuned = (
            self._consult_tuner(op, m, n, k, a.dtype.itemsize * 8)
            if backend_spec == "auto" else None
        )
        backend_name = resolve_backend_name(
            backend_spec, total_ops, tuned.backend if tuned else None
        )
        crossover = self.crossover_ops
        if tuned is not None:
            # The record's plan preferences travel with its backend.
            symmetric = symmetric and tuned.triangular
            if tuned.crossover_ops is not None:
                crossover = tuned.crossover_ops
        use_parallel = (
            self.workers > 1 and total_ops >= crossover
            if force_parallel is None
            else force_parallel
        )
        symmetric = symmetric and use_parallel
        obs = get_tracer()
        res = get_resilience()
        counters_before = obs.counters.snapshot() if obs.enabled else None
        spans_before = obs.n_spans()
        events_before = res.injector.n_fired()
        with obs.span(
            "parallel.run", m=m, n=n, k=k, workers=self.workers
        ).set(parallel=use_parallel, symmetric=symmetric, backend=backend_name):
            c, report = self._execute(
                a, b, op, plan, use_parallel, symmetric, backend_name, res,
            )
        obs.counters.add(HOST_ENGINE_SECONDS, report.seconds)
        if obs.enabled:
            report.metrics = MetricsReport.from_delta(
                obs, counters_before, spans_before
            )
        if res.active:
            events = tuple(res.injector.fired()[events_before:])
            report.resilience = ResilienceReport(
                faults_injected=len(events),
                retries=report.n_retries,
                quarantined=report.n_quarantined,
                tiles_verified=sum(
                    1 for p in report.shard_profiles if p.verified
                ),
                verify_mismatches=sum(
                    1 for p in report.shard_profiles if p.mismatched
                ),
                events=events,
            )
        return c, report

    def _consult_tuner(
        self, op: ComparisonOp, m: int, n: int, k: int, word_bits: int
    ) -> "TuningRecord | None":
        """Best-effort lookup in the persisted host tuning cache.

        Any failure (missing, corrupt, or stale cache; import problems)
        degrades to ``None`` -- ``"auto"`` then falls back to its
        built-in size rule.  Imported lazily to avoid an import cycle
        (the tuner benchmarks through this engine).
        """
        try:
            from repro.parallel.tuner import lookup_tuned

            return lookup_tuned(op, m, n, k, word_bits, self.workers)
        except Exception:  # pragma: no cover - defensive degradation
            return None

    # -- the loop --------------------------------------------------------------

    def _execute(
        self,
        a: np.ndarray,
        b: np.ndarray,
        op: ComparisonOp,
        plan: BlockingPlan,
        use_parallel: bool,
        symmetric: bool,
        backend_name: str,
        res: ResilienceContext,
    ) -> tuple[np.ndarray, ParallelReport]:
        """Plan the shards, then run each as one backend panel."""
        # One logical GEMM however many shards execute it; per-shard
        # word-ops sum to plan.total_ops() because shards partition C
        # (Gram plans: to the computed triangle's share of it).
        get_tracer().counters.add(GEMM_CALLS)
        shard_plan: ShardPlan | None = None
        if use_parallel:
            if symmetric:
                plan = _gram_blocking(plan)
            shard_plan = ShardPlan.from_blocking(
                plan, self.workers, oversubscribe=self.oversubscribe,
                symmetric=symmetric,
            )
            shards = list(shard_plan.shards)
        else:
            shards = [Shard(0, 0, 0, (0, plan.m), (0, plan.n))]
        report = ParallelReport(
            workers=self.workers if use_parallel else 1,
            used_parallel=use_parallel,
            seconds=0.0,
            backend=backend_name,
            shard_plan=shard_plan,
            symmetric=symmetric,
        )
        start = time.perf_counter()
        backend = get_backend(backend_name)
        c = np.zeros((plan.m, plan.n), dtype=np.int64)
        if len(shards) <= 1 or self.workers == 1:
            report.shard_profiles = [
                execute_shard(backend, shard, a, b, op, plan.k, c, res)
                for shard in shards
            ]
        else:
            pool = self._get_pool()
            futures = [
                pool.submit(
                    execute_shard, backend, shard, a, b, op, plan.k, c, res
                )
                for shard in shards
            ]
            report.shard_profiles = [f.result() for f in futures]
        report.seconds = time.perf_counter() - start
        return c, report


# -- resilient shard execution -------------------------------------------------


def _reference_block(
    shard: Shard, a: np.ndarray, b: np.ndarray, op: ComparisonOp
) -> np.ndarray:
    """Serial popcount oracle for one shard's output block.

    Used for quarantine recompute and spot verification; every backend
    panel is bit-exact with it by the kernel ABI's contract.
    """
    m0, m1 = shard.m_range
    n0, n1 = shard.n_range
    return bit_gemm_reference(a[m0:m1], b[n0:n1], op)


def _compute_block(
    backend: KernelBackend,
    shard: Shard,
    a: np.ndarray,
    b: np.ndarray,
    op: ComparisonOp,
    k: int,
) -> np.ndarray:
    """One shard as one backend panel call, with exact accounting."""
    obs = get_tracer()
    obs.counters.add(SHARDS_EXECUTED)
    obs.counters.add(GEMM_WORD_OPS, shard.word_ops(k))
    m0, m1 = shard.m_range
    n0, n1 = shard.n_range
    with obs.span("parallel.shard", shard=shard.shard_id):
        return backend.bit_gemm_panel(a[m0:m1], b[n0:n1], op)


def execute_shard(
    backend: KernelBackend,
    shard: Shard,
    a: np.ndarray,
    b: np.ndarray,
    op: ComparisonOp,
    k: int,
    c: np.ndarray,
    res: ResilienceContext,
) -> ShardProfile:
    """Run one shard under the active resilience context.

    The degradation ladder (docs/RESILIENCE.md): retryable faults are
    re-attempted under the policy's backoff budget; an exhausted budget
    quarantines the shard onto the serial reference recompute
    (bit-exact) or, with quarantine disabled, raises
    :class:`~repro.errors.ShardExecutionError`.  FATAL and DEGRADE
    errors propagate unchanged.  After a successful compute, sampled
    shards are spot-verified against the reference; a mismatch (e.g. an
    injected bit flip) adopts the reference block, so corrupt tiles
    never reach the caller.  Inline and thread-pool runs both execute
    shards here.
    """
    obs = get_tracer()
    injector = res.injector
    start = time.perf_counter()
    attempt = 0
    retries = 0
    quarantined = False
    while True:
        try:
            injector.check_shard(shard.shard_id, attempt)
            block = _compute_block(backend, shard, a, b, op, k)
            block = injector.corrupt_block(block, shard.shard_id)
            break
        except ReproError as exc:
            if classify(exc) is not Disposition.RETRY:
                raise
            if attempt + 1 < res.policy.max_attempts:
                retries += 1
                obs.counters.add(SHARD_RETRIES)
                res.policy.wait(retries - 1)
                attempt += 1
                continue
            if res.policy.quarantine:
                obs.counters.add(SHARDS_QUARANTINED)
                quarantined = True
                with obs.span("resilience.quarantine", shard=shard.shard_id):
                    block = _reference_block(shard, a, b, op)
                break
            raise ShardExecutionError(
                f"shard {shard.shard_id} failed after {attempt + 1} "
                f"attempt(s): {exc}",
                shard_id=shard.shard_id,
            ) from exc
    verified = False
    mismatched = False
    if not quarantined and res.should_verify(shard.shard_id):
        verified = True
        obs.counters.add(TILES_VERIFIED)
        with obs.span("resilience.verify", shard=shard.shard_id):
            reference = _reference_block(shard, a, b, op)
        if not np.array_equal(block, reference):
            mismatched = True
            obs.counters.add(VERIFY_MISMATCHES)
            block = reference
    m0, m1 = shard.m_range
    n0, n1 = shard.n_range
    c[m0:m1, n0:n1] = block
    if shard.mirror:
        # Transpose slot is strictly below the computed band grid:
        # disjoint from every computed slot, race-free.
        mm0, mm1 = shard.mirror_m_range
        mn0, mn1 = shard.mirror_n_range
        c[mm0:mm1, mn0:mn1] = block.T
        obs.counters.add(SHARDS_MIRRORED)
    return ShardProfile(
        shard_id=shard.shard_id,
        m_range=shard.m_range,
        n_range=shard.n_range,
        word_ops=shard.word_ops(k),
        seconds=time.perf_counter() - start,
        mirrored=shard.mirror,
        retries=retries,
        quarantined=quarantined,
        verified=verified,
        mismatched=mismatched,
    )


# -- module-level conveniences ---------------------------------------------------

_ENGINES: dict[tuple[int, str], ParallelEngine] = {}
_ENGINES_LOCK = threading.Lock()


def get_engine(
    workers: int | None = None,
    backend: str = "auto",
) -> ParallelEngine:
    """Process-wide engine per (workers, backend).

    Every caller asking for the same worker count shares one pool --
    this is how the multi-GPU executor runs all simulated devices on a
    single pool instead of one per device.
    """
    if workers is None:
        workers = os.cpu_count() or 1
    # Checked before the lookup: ``True`` and ``1.0`` hash like ``1``
    # and would otherwise be handed the cached one-worker engine.
    check_workers("get_engine: workers", workers)
    key = (workers, backend)
    with _ENGINES_LOCK:
        engine = _ENGINES.get(key)
        if engine is None:
            engine = ParallelEngine(workers=workers, backend=backend)
            _ENGINES[key] = engine
        return engine


def bit_gemm_parallel(
    a: np.ndarray,
    b: np.ndarray,
    op: ComparisonOp | str = ComparisonOp.AND,
    workers: int | None = None,
    plan: BlockingPlan | None = None,
    force_parallel: bool | None = None,
    symmetric: bool | None = None,
    backend: str = "auto",
) -> np.ndarray:
    """One-shot bit-GEMM through the shared engine for ``workers``."""
    c, _ = get_engine(workers, backend).run(
        a, b, op, plan=plan, force_parallel=force_parallel, symmetric=symmetric
    )
    return c


def recommended_workers() -> int:
    """Worker count the CLI default uses: all cores, capped sanely."""
    return max(1, min(16, os.cpu_count() or 1))
