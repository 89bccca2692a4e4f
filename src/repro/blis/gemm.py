"""Popcount-GEMM drivers: ``C[i, j] = sum_k POPC(op(A[i, k], B[j, k]))``.

Two functionally identical drivers with different purposes:

* :func:`bit_gemm_reference` -- the transparent oracle: a literal
  word-broadcast evaluation (the registered ``numpy`` backend's panel).
  O(m*n*k) popcounts with an (m, n, k) temporary per row block.
* :func:`bit_gemm_blocked` -- the BLIS-structured driver: packs panels,
  iterates the five loops, calls the micro-kernel per tile.  This is
  the code path whose *structure* matches the paper's kernel; the
  ``sim`` backend runs the same walk (:func:`blocked_walk`).

Production runs do not call these directly: every bit-GEMM goes
through :class:`repro.parallel.engine.ParallelEngine`, one registered
backend panel per shard.

All drivers take *row-major packed* operands: A is ``(m, k)`` words,
B is ``(n, k)`` words (note B is stored row-per-output-column, i.e.
already "transposed" -- both SNP applications naturally produce this
layout because every entity is a packed row).
"""

from __future__ import annotations

import numpy as np

from repro.errors import PackingError
from repro.blis.blocking import BlockingPlan
from repro.blis.microkernel import ComparisonOp, MicroKernel, get_microkernel
from repro.blis.packing import pack_a_panel, pack_b_panel
from repro.observability.counters import GEMM_CALLS, GEMM_WORD_OPS
from repro.observability.tracer import get_tracer
from repro.util.bitops import popcount

__all__ = [
    "HOST_BLOCKING",
    "bit_gemm_reference",
    "bit_gemm_blocked",
    "blocked_walk",
    "same_operand",
]

#: Host-default blocking parameters: small ``lcm(m_r, n_r)`` so
#: triangular Gram shard plans can band finely.
HOST_BLOCKING = {"m_c": 32, "k_c": 256, "m_r": 4, "n_r": 64}


def same_operand(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether ``a`` and ``b`` are views of the *same* packed matrix.

    ``a is b`` plus the view case the tiled pipeline produces: a
    full-extent slice shares the data pointer, shape and strides of
    the original without being the same Python object.
    """
    if a is b:
        return True
    return (
        a.shape == b.shape
        and a.dtype == b.dtype
        and a.strides == b.strides
        and bool(a.size)
        and a.__array_interface__["data"] == b.__array_interface__["data"]
    )


def _check_operands(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(a)
    b = np.asarray(b)
    for name, arr in (("A", a), ("B", b)):
        if arr.ndim != 2:
            raise PackingError(f"bit_gemm: {name} must be 2-D packed words")
        if arr.dtype not in (np.uint8, np.uint16, np.uint32, np.uint64):
            raise PackingError(f"bit_gemm: {name} has non-word dtype {arr.dtype}")
    if a.dtype != b.dtype:
        raise PackingError(f"bit_gemm: dtype mismatch ({a.dtype} vs {b.dtype})")
    if a.shape[1] != b.shape[1]:
        raise PackingError(
            f"bit_gemm: k mismatch (A has {a.shape[1]} words, B has {b.shape[1]})"
        )
    return a, b


def bit_gemm_reference(
    a: np.ndarray,
    b: np.ndarray,
    op: ComparisonOp | str = ComparisonOp.AND,
    row_block: int = 64,
) -> np.ndarray:
    """Literal evaluation of the popcount-GEMM (test oracle).

    The loop itself lives in
    :func:`repro.kernels.numpy_backend.reference_panel` -- the
    registered ``"numpy"`` reference backend -- so the oracle tests
    race against *is* the reference backend, by construction.
    ``row_block`` bounds the size of the (rows, n, k) broadcast
    temporary.
    """
    # Lazy import: repro.kernels registers backends that reach back
    # into this module, so the module-level edge must stay one-way.
    from repro.kernels.numpy_backend import reference_panel

    a, b = _check_operands(a, b)
    kernel = get_microkernel(op)
    return reference_panel(a, b, kernel, row_block)


def bit_gemm_blocked(
    a: np.ndarray,
    b: np.ndarray,
    op: ComparisonOp | str = ComparisonOp.AND,
    plan: BlockingPlan | None = None,
) -> np.ndarray:
    """BLIS five-loop evaluation with packed panels.

    The loop nest (outside-in) is: k_c panels -> core assignments
    (m_c x n_r C tiles) -> micro-tiles -> micro-kernel.  Cores are
    iterated sequentially here (this is the functional semantics; the
    device executor overlays timing on the same walk).
    """
    a, b = _check_operands(a, b)
    kernel = get_microkernel(op)
    m, k = a.shape
    n = b.shape[0]
    if plan is None:
        plan = BlockingPlan(m=m, n=n, k=k, **HOST_BLOCKING)
    if (plan.m, plan.n, plan.k) != (m, n, k):
        raise PackingError(
            f"bit_gemm_blocked: plan extents {(plan.m, plan.n, plan.k)} do not "
            f"match operands {(m, n, k)}"
        )
    obs = get_tracer()
    obs.counters.add(GEMM_CALLS)
    obs.counters.add(GEMM_WORD_OPS, plan.total_ops())
    with obs.span("gemm.blocked", m=m, n=n, k=k):
        return blocked_walk(a, b, kernel, plan)


def blocked_walk(
    a: np.ndarray, b: np.ndarray, kernel: MicroKernel, plan: BlockingPlan
) -> np.ndarray:
    """The five-loop walk itself (validated operands, no accounting)."""
    c = np.zeros((plan.m, plan.n), dtype=np.int64)
    for k0, k1 in plan.k_panels():
        for assign in plan.core_assignments():
            if assign.is_empty:
                continue
            m0, m1 = assign.m_range
            n0, n1 = assign.n_range
            # Loop 3: walk m_c panels of A inside this core's M range,
            # packing each into the shared-memory layout.
            for pm0, pm1 in _panel_ranges(m0, m1, plan.m_c):
                a_packed = pack_a_panel(a[pm0:pm1, k0:k1], plan.m_r)
                # Loops 2/1: n_r micro-panels of B, micro-tiles of C.
                for pn0, pn1 in _panel_ranges(n0, n1, plan.n_r):
                    b_packed = pack_b_panel(b[pn0:pn1, k0:k1].T, plan.n_r)
                    _micro_update(
                        c, a_packed, b_packed, kernel.combine,
                        pm0, pm1, pn0, pn1, plan.m_r,
                    )
    return c


def _panel_ranges(start: int, stop: int, block: int) -> list[tuple[int, int]]:
    return [(s, min(s + block, stop)) for s in range(start, stop, block)]


def _micro_update(
    c: np.ndarray,
    a_packed: np.ndarray,
    b_packed: np.ndarray,
    combine,
    m0: int,
    m1: int,
    n0: int,
    n1: int,
    m_r: int,
) -> np.ndarray:
    """Rank-k_c update of C[m0:m1, n0:n1] from packed panels."""
    n_b_panels, k_len, n_r = b_packed.shape
    for pa in range(a_packed.shape[0]):
        # (k, m_r) micro-panel of A.
        a_micro = a_packed[pa]
        rows0 = m0 + pa * m_r
        rows1 = min(rows0 + m_r, m1)
        live_rows = rows1 - rows0
        if live_rows <= 0:
            continue
        for pb in range(n_b_panels):
            b_micro = b_packed[pb]  # (k, n_r)
            cols0 = n0 + pb * n_r
            cols1 = min(cols0 + n_r, n1)
            live_cols = cols1 - cols0
            if live_cols <= 0:
                continue
            # Micro-kernel: (m_r, n_r) popcount-accumulate over k.
            combined = combine(
                a_micro[:, :live_rows, None], b_micro[:, None, :live_cols]
            )
            c[rows0:rows1, cols0:cols1] += popcount(combined).sum(axis=0)
    return c
