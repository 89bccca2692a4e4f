"""Simulated-device backend: the gpu executor's tile walk as an ABI entry.

The simulated ``repro.gpu`` executor computes its functional results
with the BLIS five-loop walk (packed micro-panels, popcount
micro-kernel).  Registering that walk here makes the simulator *just
another backend* behind the kernel ABI: the registry iteration, the
conformance suite and ``--backend sim`` all reach the same tile
structure the device model prices.

It is deliberately ``tunable=False`` -- the walk exists to mirror the
device's execution shape, not to win throughput races -- and
``compiled=False``, so the bench speedup gate never applies to it.
"""

from __future__ import annotations

import numpy as np

from repro.blis.blocking import BlockingPlan
from repro.blis.gemm import HOST_BLOCKING, blocked_walk
from repro.blis.microkernel import ComparisonOp, get_microkernel
from repro.kernels.abi import BackendInfo, KernelBackend, check_panel_operands

__all__ = ["SimulatedDeviceBackend"]


class SimulatedDeviceBackend(KernelBackend):
    """The simulator's blocked tile walk, registered behind the ABI."""

    @property
    def info(self) -> BackendInfo:
        return BackendInfo(
            name="sim",
            kind="simulated",
            version="blis-walk/1",
            available=True,
            compiled=False,
            tunable=False,
            description=(
                "simulated-device BLIS tile walk (packed micro-panels, "
                "popcount micro-kernel) behind the kernel ABI"
            ),
        )

    def bit_gemm_panel(
        self,
        a: np.ndarray,
        b: np.ndarray,
        op: ComparisonOp | str = ComparisonOp.AND,
    ) -> np.ndarray:
        a, b, op = check_panel_operands(a, b, op)
        m, k = a.shape
        plan = BlockingPlan(m=m, n=b.shape[0], k=k, **HOST_BLOCKING)
        return blocked_walk(a, b, get_microkernel(op), plan)
