"""Tests for repro.core.pipeline: tiling and double buffering."""

import numpy as np
import pytest

from repro.blis.microkernel import ComparisonOp
from repro.core.packing import pack_operand
from repro.core.pipeline import plan_tiles, run_pipeline
from repro.errors import AllocationError
from repro.gpu.arch import GTX_980, GPUArchitecture, MemorySystemModel
from repro.gpu.device import Device
from repro.gpu.kernel import SnpKernel
from repro.parallel.engine import get_engine
from repro.snp.stats import ld_counts_naive
from repro.util.units import kib, mib


def tiny_memory_arch(max_alloc=mib(1), global_mem=mib(4)) -> GPUArchitecture:
    """A GTX-980-like device with toy memory limits to force tiling."""
    return GPUArchitecture(
        name="Tiny 980",
        vendor="NVIDIA",
        microarchitecture="Maxwell",
        frequency_ghz=1.367,
        n_t=32,
        n_grp_max=32,
        n_c=16,
        n_cl=4,
        alu_units=32,
        popc_units=8,
        l_fn=6,
        global_memory_bytes=global_mem,
        max_alloc_bytes=max_alloc,
        shared_memory_bytes=kib(48),
        shared_memory_banks=32,
        shared_memory_reserved_bytes=16,
        registers_per_core=64 * 1024,
        max_registers_per_thread=255,
        memory=MemorySystemModel(global_bandwidth_gbs=185.0),
    )


def make_kernel(arch, n_r=384, grid=(1, 16)):
    return SnpKernel.compile(
        arch, ComparisonOp.AND, m_c=32, m_r=4, k_c=383, n_r=n_r,
        grid_rows=grid[0], grid_cols=grid[1],
    )


@pytest.fixture
def small_problem():
    rng = np.random.default_rng(0)
    a_bits = (rng.random((16, 320)) < 0.4).astype(np.uint8)
    b_bits = (rng.random((700, 320)) < 0.4).astype(np.uint8)
    a = pack_operand(a_bits, row_multiple=4)
    b = pack_operand(b_bits, row_multiple=4)
    return a_bits, b_bits, a, b


class TestPlanTiles:
    def test_single_tile_when_fits(self, small_problem):
        _, _, a, b = small_problem
        context = Device(GTX_980).create_context()
        plan = plan_tiles(context, make_kernel(GTX_980), a, b)
        assert plan.n_tiles == 1
        assert plan.ranges == ((0, b.padded_rows),)

    def test_multiple_tiles_on_tiny_device(self, small_problem):
        _, _, a, b = small_problem
        arch = tiny_memory_arch(max_alloc=8 * 1024)
        context = Device(arch).create_context()
        plan = plan_tiles(context, make_kernel(arch), a, b)
        assert plan.n_tiles > 1
        # Tiles partition the padded database exactly.
        covered = [i for s, e in plan.ranges for i in range(s, e)]
        assert covered == list(range(b.padded_rows))

    def test_tile_respects_max_alloc(self, small_problem):
        _, _, a, b = small_problem
        arch = tiny_memory_arch(max_alloc=8 * 1024)
        context = Device(arch).create_context()
        plan = plan_tiles(context, make_kernel(arch), a, b)
        word_bytes = arch.word_bytes
        assert plan.tile_rows * b.k_words * word_bytes <= arch.max_alloc_bytes
        assert a.padded_rows * plan.tile_rows * 4 <= arch.max_alloc_bytes

    def test_impossible_problem_rejected(self):
        arch = tiny_memory_arch(max_alloc=kib(64), global_mem=kib(256))
        context = Device(arch).create_context()
        # A alone exceeds the budget.
        a = pack_operand(np.zeros((4096, 4096), dtype=np.uint8))
        b = pack_operand(np.zeros((8, 4096), dtype=np.uint8))
        with pytest.raises(AllocationError):
            plan_tiles(context, make_kernel(arch), a, b)


class TestRunPipeline:
    def test_single_tile_correct(self, small_problem):
        a_bits, b_bits, a, b = small_problem
        queue = Device(GTX_980).create_context().create_queue()
        raw, profiles, plan = run_pipeline(queue, make_kernel(GTX_980), a, b, engine=get_engine(1))
        assert plan.n_tiles == 1
        assert len(profiles) == 1
        assert (raw[:16, :700] == ld_counts_naive(a_bits, b_bits)).all()

    def test_tiled_matches_untiled(self, small_problem):
        a_bits, b_bits, a, b = small_problem
        arch = tiny_memory_arch(max_alloc=8 * 1024)
        queue = Device(arch).create_context().create_queue()
        raw, profiles, plan = run_pipeline(queue, make_kernel(arch), a, b, engine=get_engine(1))
        assert plan.n_tiles > 1
        assert len(profiles) == plan.n_tiles
        assert (raw[:16, :700] == ld_counts_naive(a_bits, b_bits)).all()

    def test_double_buffering_overlaps(self, small_problem):
        _, _, a, b = small_problem
        arch = tiny_memory_arch(max_alloc=8 * 1024)

        def total_time(double_buffering):
            queue = Device(arch).create_context().create_queue()
            run_pipeline(
                queue, make_kernel(arch), a, b, double_buffering=double_buffering,
                engine=get_engine(1),
            )
            return queue.finish()

        overlapped = total_time(True)
        serialized = total_time(False)
        assert overlapped < serialized

    def test_buffers_released(self, small_problem):
        _, _, a, b = small_problem
        context = Device(GTX_980).create_context()
        queue = context.create_queue()
        run_pipeline(queue, make_kernel(GTX_980), a, b, engine=get_engine(1))
        assert context.memory.n_live == 0
        assert context.memory.allocated_bytes == 0

    def test_mismatched_device_rejected(self, small_problem):
        _, _, a, b = small_problem
        arch = tiny_memory_arch()
        queue = Device(GTX_980).create_context().create_queue()
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            run_pipeline(queue, make_kernel(arch), a, b, engine=get_engine(1))
