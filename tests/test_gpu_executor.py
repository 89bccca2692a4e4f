"""Tests for repro.gpu.executor: functional + priced kernel execution."""

import numpy as np
import pytest

from repro.blis.microkernel import ComparisonOp
from repro.errors import KernelLaunchError
from repro.gpu.arch import GTX_980, TITAN_V
from repro.gpu.executor import execute_kernel, price_kernel
from repro.gpu.kernel import KernelArgs, SnpKernel
from repro.parallel.engine import get_engine
from repro.snp.stats import identity_distances_naive, ld_counts_naive
from repro.util.bitops import pack_bits


@pytest.fixture(scope="module")
def kernel():
    return SnpKernel.compile(
        GTX_980, ComparisonOp.AND, m_c=32, m_r=4, k_c=383, n_r=384,
        grid_rows=4, grid_cols=4,
    )


@pytest.fixture(scope="module")
def operands():
    rng = np.random.default_rng(0)
    bits_a = (rng.random((30, 200)) < 0.4).astype(np.uint8)
    bits_b = (rng.random((25, 200)) < 0.4).astype(np.uint8)
    return bits_a, bits_b, pack_bits(bits_a, 32), pack_bits(bits_b, 32)


class TestFunctionalPaths:
    def test_blocked_path_correct(self, kernel, operands):
        bits_a, bits_b, pa, pb = operands
        c, profile = execute_kernel(kernel, pa, pb, engine=get_engine(1, "sim"))
        assert (c == ld_counts_naive(bits_a, bits_b)).all()
        assert profile.used_blocked_path

    def test_fast_path_correct(self, kernel, operands):
        bits_a, bits_b, pa, pb = operands
        c, profile = execute_kernel(kernel, pa, pb, engine=get_engine(1, "blas"))
        assert (c == ld_counts_naive(bits_a, bits_b)).all()
        assert not profile.used_blocked_path

    def test_paths_produce_identical_timing(self, kernel, operands):
        _, _, pa, pb = operands
        _, p1 = execute_kernel(kernel, pa, pb, engine=get_engine(1, "sim"))
        _, p2 = execute_kernel(kernel, pa, pb, engine=get_engine(1, "blas"))
        assert p1.seconds == p2.seconds
        assert p1.breakdown == p2.breakdown

    def test_xor_kernel(self, operands):
        bits_a, bits_b, pa, pb = operands
        k = SnpKernel.compile(
            TITAN_V, ComparisonOp.XOR, m_c=32, m_r=4, k_c=383, n_r=1024,
            grid_rows=1, grid_cols=80,
        )
        c, _ = execute_kernel(k, pa, pb, engine=get_engine(1))
        assert (c == identity_distances_naive(bits_a, bits_b)).all()


class TestPricing:
    def test_dry_equals_wet(self, kernel, operands):
        _, _, pa, pb = operands
        _, wet = execute_kernel(kernel, pa, pb, engine=get_engine(1))
        dry = price_kernel(kernel, KernelArgs(m=pa.shape[0], n=pb.shape[0], k=pa.shape[1]))
        assert dry.seconds == wet.seconds
        assert dry.breakdown == wet.breakdown

    def test_profile_metadata(self, kernel, operands):
        _, _, pa, pb = operands
        _, profile = execute_kernel(kernel, pa, pb, engine=get_engine(1))
        assert profile.kernel_name == "snp_and"
        assert profile.device == "GTX 980"
        assert profile.seconds > 0
        assert 0 < profile.efficiency <= 1
        assert profile.throughput_word_ops > 0


class TestValidation:
    def test_wrong_dtype_rejected(self, kernel):
        a64 = np.zeros((4, 2), dtype=np.uint64)
        with pytest.raises(KernelLaunchError, match="uint32"):
            execute_kernel(kernel, a64, a64, engine=get_engine(1))

    def test_shape_mismatch_rejected(self, kernel):
        a = np.zeros((4, 2), dtype=np.uint32)
        b = np.zeros((4, 3), dtype=np.uint32)
        with pytest.raises(KernelLaunchError):
            execute_kernel(kernel, a, b, engine=get_engine(1))

    def test_inconsistent_args_rejected(self, kernel, operands):
        _, _, pa, pb = operands
        with pytest.raises(KernelLaunchError, match="inconsistent"):
            execute_kernel(
                kernel, pa, pb, args=KernelArgs(m=1, n=1, k=1),
                engine=get_engine(1),
            )
