"""Tests for repro.gpu.device: the OpenCL-style stack."""

import numpy as np
import pytest

from repro.blis.microkernel import ComparisonOp
from repro.errors import AllocationError, DeviceError, KernelLaunchError
from repro.gpu.arch import GTX_980, TITAN_V
from repro.gpu.device import Device, Platform
from repro.gpu.kernel import KernelArgs, SnpKernel
from repro.parallel.engine import get_engine
from repro.snp.stats import ld_counts_naive
from repro.util.bitops import pack_bits


@pytest.fixture
def stack():
    device = Device(GTX_980)
    context = device.create_context()
    return device, context, context.create_queue()


def ld_kernel(arch=GTX_980, **kw):
    defaults = dict(m_c=32, m_r=4, k_c=383, n_r=384, grid_rows=4, grid_cols=4)
    defaults.update(kw)
    return SnpKernel.compile(arch, ComparisonOp.AND, **defaults)


class TestPlatform:
    def test_enumerates_devices(self):
        platforms = Platform.get_platforms()
        assert len(platforms) == 1
        names = [d.name for d in platforms[0].get_devices()]
        assert names == ["GTX 980", "Titan V", "Vega 64"]

    def test_device_repr(self):
        assert "GTX 980" in repr(Device(GTX_980))


class TestBuffers:
    def test_read_before_write_rejected(self, stack):
        _, context, queue = stack
        buf = context.create_buffer(64)
        with pytest.raises(DeviceError, match="before any write"):
            queue.enqueue_read_buffer(buf)

    def test_use_after_release_rejected(self, stack):
        _, context, queue = stack
        buf = context.create_buffer(64)
        buf.release()
        with pytest.raises(DeviceError, match="after release"):
            queue.enqueue_write_buffer(buf, np.zeros(4, dtype=np.uint32))

    def test_double_release_rejected(self, stack):
        _, context, _ = stack
        buf = context.create_buffer(64)
        buf.release()
        with pytest.raises(DeviceError):
            buf.release()

    def test_oversized_write_rejected(self, stack):
        _, context, queue = stack
        buf = context.create_buffer(8)
        with pytest.raises(DeviceError, match="byte buffer"):
            queue.enqueue_write_buffer(buf, np.zeros(100, dtype=np.uint32))

    def test_allocation_tracked(self, stack):
        _, context, _ = stack
        before = context.memory.allocated_bytes
        buf = context.create_buffer(4096)
        assert context.memory.allocated_bytes == before + 4096
        buf.release()
        assert context.memory.allocated_bytes == before

    def test_over_allocation_rejected(self, stack):
        _, context, _ = stack
        with pytest.raises(AllocationError):
            context.create_buffer(GTX_980.max_alloc_bytes + 1)


class TestQueueScheduling:
    def test_init_overhead_delays_first_command(self, stack):
        _, context, queue = stack
        buf = context.create_buffer(64)
        ev = queue.enqueue_write_buffer(buf, np.zeros(4, dtype=np.uint32))
        assert ev.started_at >= context.ready_at
        assert context.ready_at == GTX_980.memory.init_overhead_s

    def test_same_engine_serializes(self, stack):
        _, context, queue = stack
        buf1 = context.create_buffer(4096)
        buf2 = context.create_buffer(4096)
        data = np.zeros(1024, dtype=np.uint32)
        e1 = queue.enqueue_write_buffer(buf1, data)
        e2 = queue.enqueue_write_buffer(buf2, data)
        assert e2.started_at >= e1.ended_at

    def test_wait_for_respected(self, stack):
        _, context, queue = stack
        buf = context.create_buffer(1 << 20)
        data = np.zeros(1 << 18, dtype=np.uint32)
        write = queue.enqueue_write_buffer(buf, data)
        _, read = queue.enqueue_read_buffer(buf, wait_for=[write])
        assert read.started_at >= write.ended_at

    def test_independent_engines_overlap(self, stack):
        _, context, queue = stack
        big = np.zeros(1 << 22, dtype=np.uint32)  # 16 MiB ~ 1.4 ms
        buf_a = context.create_buffer(big.nbytes)
        buf_b = context.create_buffer(big.nbytes)
        w1 = queue.enqueue_write_buffer(buf_a, big)
        # Read of A depends only on its write; a second H2D write can
        # overlap the D2H read.
        _, r1 = queue.enqueue_read_buffer(buf_a, wait_for=[w1])
        w2 = queue.enqueue_write_buffer(buf_b, big, wait_for=[w1])
        assert w2.started_at < r1.ended_at

    def test_finish_is_makespan(self, stack):
        _, context, queue = stack
        buf = context.create_buffer(4096)
        queue.enqueue_write_buffer(buf, np.zeros(1024, dtype=np.uint32))
        events_end = max(e.ended_at for e in queue.events)
        assert queue.finish() == pytest.approx(events_end)

    def test_busy_summary_keys(self, stack):
        _, _, queue = stack
        assert set(queue.busy_summary()) == {"compute", "h2d", "d2h"}


class TestKernelEnqueue:
    def test_end_to_end_correctness(self, stack):
        _, context, queue = stack
        rng = np.random.default_rng(0)
        bits = (rng.random((20, 150)) < 0.5).astype(np.uint8)
        packed = pack_bits(bits, 32)
        a = context.create_buffer(packed.nbytes)
        b = context.create_buffer(packed.nbytes)
        c = context.create_buffer(20 * 20 * 4)
        ea = queue.enqueue_write_buffer(a, packed)
        eb = queue.enqueue_write_buffer(b, packed)
        ek, profile = queue.enqueue_kernel(
            ld_kernel(), a, b, c, wait_for=[ea, eb], engine=get_engine(1)
        )
        out, er = queue.enqueue_read_buffer(c, wait_for=[ek])
        assert (out == ld_counts_naive(bits)).all()
        assert out.dtype == np.int32  # device accumulators are 32-bit
        assert ek.started_at >= max(ea.ended_at, eb.ended_at)
        assert er.started_at >= ek.ended_at
        assert profile.seconds > 0

    def test_kernel_from_other_device_rejected(self, stack):
        _, context, queue = stack
        wrong = SnpKernel.compile(
            TITAN_V, ComparisonOp.AND, m_c=32, m_r=4, k_c=383, n_r=1024,
            grid_rows=80, grid_cols=1,
        )
        a = context.create_buffer(64)
        with pytest.raises(KernelLaunchError, match="compiled for"):
            queue.enqueue_kernel(wrong, a, a, a, engine=get_engine(1))

    def test_accumulate_adds(self, stack):
        _, context, queue = stack
        bits = np.eye(8, 64, dtype=np.uint8)
        packed = pack_bits(bits, 32)
        a = context.create_buffer(packed.nbytes)
        b = context.create_buffer(packed.nbytes)
        c = context.create_buffer(8 * 8 * 4)
        queue.enqueue_write_buffer(a, packed)
        queue.enqueue_write_buffer(b, packed)
        queue.enqueue_kernel(ld_kernel(), a, b, c, engine=get_engine(1))
        queue.enqueue_kernel(
            ld_kernel(), a, b, c, accumulate=True, engine=get_engine(1)
        )
        out, _ = queue.enqueue_read_buffer(c)
        assert (out == 2 * ld_counts_naive(bits)).all()


class TestDryRun:
    def test_dry_write_matches_wet_duration(self, stack):
        _, context, queue = stack
        data = np.zeros(1 << 16, dtype=np.uint32)
        buf = context.create_buffer(data.nbytes)
        wet = queue.enqueue_write_buffer(buf, data)
        dry = queue.enqueue_write_dry(data.nbytes)
        assert dry.duration == pytest.approx(wet.duration)

    def test_dry_kernel_matches_wet(self, stack):
        _, context, queue = stack
        rng = np.random.default_rng(1)
        bits = (rng.random((16, 96)) < 0.5).astype(np.uint8)
        packed = pack_bits(bits, 32)
        a = context.create_buffer(packed.nbytes)
        b = context.create_buffer(packed.nbytes)
        c = context.create_buffer(16 * 16 * 4)
        queue.enqueue_write_buffer(a, packed)
        queue.enqueue_write_buffer(b, packed)
        _, wet = queue.enqueue_kernel(ld_kernel(), a, b, c, engine=get_engine(1))
        _, dry = queue.enqueue_kernel_dry(
            ld_kernel(), KernelArgs(m=16, n=16, k=3)
        )
        assert dry.seconds == wet.seconds
