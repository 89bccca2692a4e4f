"""BLAS backend: the popcount-GEMM as one float GEMM over unpacked bits.

The algebraic identities

    sum_k POPC(a & b)   =  <bits(a), bits(b)>
    sum_k POPC(a ^ b)   =  |a| + |b| - 2 <a, b>
    sum_k POPC(a & ~b)  =  |a| - <a, b>

turn the bit-GEMM into a dense floating-point GEMM that BLAS runs at
its own peak.  The products are exact: every dot product is an integer
bounded by ``k * word_bits``, so float32 is exact while that bound is
below 2**24 and float64 (exact to 2**53) covers everything wider.
Padding bits are zero in both operands by construction, so they add
nothing to any identity.
"""

from __future__ import annotations

import numpy as np

from repro.blis.gemm import same_operand
from repro.blis.microkernel import ComparisonOp
from repro.kernels.abi import BackendInfo, KernelBackend, check_panel_operands
from repro.util.bitops import popcount, unpack_bits

__all__ = ["BlasBackend"]

#: float32 represents every integer below 2**24 exactly.
_FLOAT32_EXACT_BITS = 1 << 24


class BlasBackend(KernelBackend):
    """Popcount identities evaluated as one BLAS GEMM per panel."""

    @property
    def info(self) -> BackendInfo:
        return BackendInfo(
            name="blas",
            kind="blas",
            version=np.__version__,
            available=True,
            compiled=False,
            tunable=True,
            description=(
                "popcount identities as one float GEMM over unpacked "
                "bits (float32 below 2**24 bits per row, else float64)"
            ),
        )

    def bit_gemm_panel(
        self,
        a: np.ndarray,
        b: np.ndarray,
        op: ComparisonOp | str = ComparisonOp.AND,
    ) -> np.ndarray:
        a, b, op = check_panel_operands(a, b, op)
        bits_per_row = a.shape[1] * a.dtype.itemsize * 8
        dtype = np.float32 if bits_per_row < _FLOAT32_EXACT_BITS else np.float64
        bits_a = unpack_bits(a).astype(dtype)
        bits_b = bits_a if same_operand(a, b) else unpack_bits(b).astype(dtype)
        dots = (bits_a @ bits_b.T).astype(np.int64)
        if op in (ComparisonOp.AND, ComparisonOp.AND_PRENEGATED):
            return dots
        pop_a = popcount(a).sum(axis=1)
        if op is ComparisonOp.XOR:
            pop_b = pop_a if same_operand(a, b) else popcount(b).sum(axis=1)
            return pop_a[:, None] + pop_b[None, :] - 2 * dots
        return pop_a[:, None] - dots  # ANDNOT
