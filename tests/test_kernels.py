"""Tests for the kernel ABI (:mod:`repro.kernels`): backend conformance,
registry resolution, engine/tuner integration, and the CLI flag."""

import os

import numpy as np
import pytest

from repro.blis.gemm import bit_gemm_reference
from repro.blis.microkernel import ComparisonOp
from repro.errors import ConfigurationError, PackingError
from repro.kernels import (
    AUTO_WORD_WALK_MAX_OPS,
    DEFAULT_BACKEND_NAME,
    OPCODES,
    REPRO_BACKEND_ENV,
    BackendInfo,
    KernelBackend,
    NumbaBackend,
    available_backends,
    backend_available,
    backend_fingerprint,
    backend_names,
    canonicalize_words,
    check_panel_operands,
    env_backend_name,
    get_backend,
    register_backend,
    registered_backends,
    resolve_backend,
    resolve_backend_name,
)
from repro.kernels.numba_backend import HAVE_NUMBA, _python_panel
from repro.observability.counters import GEMM_CALLS, GEMM_WORD_OPS
from repro.observability.tracer import Tracer, set_tracer
from repro.parallel.engine import ParallelEngine, bit_gemm_parallel
from repro.parallel.tuner import TuningCache, TuningRecord, tuning_key
from repro.util.bitops import popcount

ALL_OPS = [
    ComparisonOp.AND,
    ComparisonOp.XOR,
    ComparisonOp.ANDNOT,
    ComparisonOp.AND_PRENEGATED,
]

WORD_DTYPES = [np.uint8, np.uint16, np.uint32, np.uint64]


def make_words(m, k, dtype, seed=0):
    rng = np.random.default_rng(seed)
    info = np.iinfo(dtype)
    return rng.integers(0, int(info.max) + 1, size=(m, k), dtype=dtype)


@pytest.fixture
def clean_env(monkeypatch):
    monkeypatch.delenv(REPRO_BACKEND_ENV, raising=False)


# -- ABI conformance: every registered backend ----------------------------------


class TestBackendConformance:
    def test_registry_has_builtins(self):
        names = backend_names()
        for expected in ("numpy", "blas", "numba", "cnative", "sim"):
            assert expected in names
        assert DEFAULT_BACKEND_NAME in names

    def test_info_descriptors_are_wellformed(self):
        for backend in registered_backends():
            info = backend.info
            assert isinstance(info, BackendInfo)
            assert info.name and info.kind and info.version
            assert info.kind in ("reference", "blas", "jit", "native", "simulated")
            if not info.available:
                assert info.unavailable_reason

    def test_reference_backend_always_available(self):
        info = get_backend(DEFAULT_BACKEND_NAME).info
        assert info.available
        assert not info.compiled
        assert info.tunable

    @pytest.mark.parametrize("op", ALL_OPS)
    @pytest.mark.parametrize("dtype", WORD_DTYPES)
    def test_panel_bit_exact_vs_reference(self, op, dtype):
        a = make_words(7, 5, dtype, seed=1)
        b = make_words(9, 5, dtype, seed=2)
        expected = bit_gemm_reference(a, b, op)
        for backend in available_backends():
            got = backend.bit_gemm_panel(a, b, op)
            assert got.dtype == np.int64
            assert np.array_equal(got, expected), backend.info.name

    @pytest.mark.parametrize("shape", [(0, 4, 3), (4, 0, 3), (4, 4, 0), (0, 0, 0)])
    def test_panel_empty_extents(self, shape):
        m, n, k = shape
        a = make_words(m, k, np.uint64)
        b = make_words(n, k, np.uint64)
        for backend in available_backends():
            got = backend.bit_gemm_panel(a, b, ComparisonOp.XOR)
            assert got.shape == (m, n), backend.info.name
            assert got.dtype == np.int64

    def test_panel_ragged_tail_words(self):
        # k not a multiple of the uint64 canonicalisation width.
        for k in (1, 3, 5, 7):
            a = make_words(6, k, np.uint16, seed=k)
            b = make_words(4, k, np.uint16, seed=k + 100)
            expected = bit_gemm_reference(a, b, ComparisonOp.AND)
            for backend in available_backends():
                got = backend.bit_gemm_panel(a, b, ComparisonOp.AND)
                assert np.array_equal(got, expected), (backend.info.name, k)

    @pytest.mark.parametrize(
        "name", ["numpy", "blas", "numba", "cnative", "sim"]
    )
    def test_every_path_bit_exact_vs_reference(self, name, clean_env):
        """Backend x {serial, thread pool} x {full, Gram} x op x word dtype.

        130 rows band the triangular plan into three diagonal bands,
        so sharded Gram runs mirror off-diagonal shards.
        """
        if not backend_available(name):
            pytest.skip(f"backend {name} unavailable on this host")
        engines = {
            "serial": ParallelEngine(workers=1, backend=name),
            "thread": ParallelEngine(workers=2, backend=name),
        }
        try:
            for dtype in WORD_DTYPES:
                a = make_words(130, 2, dtype, seed=91)
                b = make_words(97, 2, dtype, seed=92)
                for op in ALL_OPS:
                    for right in (b, a):  # full, then Gram (same operand)
                        expected = bit_gemm_reference(a, right, op)
                        for mode, engine in engines.items():
                            table, report = engine.run(
                                a, right, op, force_parallel=mode != "serial"
                            )
                            case = (name, mode, dtype.__name__, op, right is a)
                            assert np.array_equal(table, expected), case
                            assert report.backend == name, case
                            gram = right is a and op.is_symmetric
                            assert report.symmetric == (
                                gram and mode != "serial"
                            ), case
        finally:
            for engine in engines.values():
                engine.shutdown()

    def test_panel_validates_operands(self):
        a = make_words(4, 3, np.uint32)
        for backend in available_backends():
            with pytest.raises(PackingError):
                backend.bit_gemm_panel(a, make_words(4, 5, np.uint32))
            with pytest.raises(PackingError):
                backend.bit_gemm_panel(a, make_words(4, 3, np.uint64))
            with pytest.raises(PackingError):
                backend.bit_gemm_panel(a.astype(np.int64), a)

    def test_pack_matches_reference_packer(self):
        rng = np.random.default_rng(3)
        bits = (rng.random((5, 70)) < 0.5).astype(np.uint8)
        reference = get_backend(DEFAULT_BACKEND_NAME).pack(bits)
        for backend in available_backends():
            assert np.array_equal(backend.pack(bits), reference)

    def test_popcount_reduce_exact(self):
        words = make_words(6, 9, np.uint64, seed=5)
        expected_total = int(popcount(words).sum())
        expected_rows = popcount(words).sum(axis=1)
        for backend in available_backends():
            assert backend.popcount_reduce(words) == expected_total
            assert np.array_equal(
                backend.popcount_reduce(words, axis=1), expected_rows
            )


# -- registry + resolution -------------------------------------------------------


class TestRegistry:
    def test_get_backend_unknown_raises_with_listing(self):
        with pytest.raises(ConfigurationError, match="registered"):
            get_backend("warp")

    def test_register_backend_duplicate_requires_replace(self):
        numpy_backend = get_backend("numpy")
        with pytest.raises(ConfigurationError):
            register_backend(numpy_backend)
        register_backend(numpy_backend, replace=True)  # restores itself

    def test_backend_available(self):
        assert backend_available("numpy")
        assert not backend_available("missing")

    def test_resolve_explicit_and_auto(self, clean_env):
        assert resolve_backend_name(None) == DEFAULT_BACKEND_NAME
        assert resolve_backend_name("auto") == DEFAULT_BACKEND_NAME
        # The size rule: the word-walk up to the limit, blas above it.
        assert resolve_backend_name("auto", AUTO_WORD_WALK_MAX_OPS) == "numpy"
        assert resolve_backend_name("auto", AUTO_WORD_WALK_MAX_OPS + 1) == "blas"
        # A tuned winner beats the size rule unless it went unavailable.
        assert resolve_backend_name("auto", 1, tuned="sim") == "sim"
        assert resolve_backend_name("auto", 1, tuned="ghost") == "numpy"
        assert resolve_backend_name("numpy") == "numpy"
        assert resolve_backend("numpy").info.name == "numpy"
        with pytest.raises(ConfigurationError):
            resolve_backend_name("nope")

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(REPRO_BACKEND_ENV, "numpy")
        assert env_backend_name() == "numpy"
        assert resolve_backend_name("auto") == "numpy"
        monkeypatch.setenv(REPRO_BACKEND_ENV, "auto")
        assert env_backend_name() is None
        monkeypatch.setenv(REPRO_BACKEND_ENV, "bogus")
        with pytest.raises(ConfigurationError):
            env_backend_name()

    def test_fingerprint_lists_tunable_backends(self):
        fp = backend_fingerprint()
        assert "numpy=" in fp
        assert "sim" not in fp  # not tunable, not fingerprinted


# -- canonicalisation ------------------------------------------------------------


class TestCanonicalize:
    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint32])
    def test_popcount_preserved(self, dtype):
        w = make_words(5, 7, dtype, seed=11)
        canon = canonicalize_words(w)
        assert canon.dtype == np.uint64
        assert int(popcount(canon).sum()) == int(popcount(w).sum())

    def test_uint64_passthrough(self):
        w = make_words(3, 4, np.uint64)
        assert canonicalize_words(w) is w or np.shares_memory(
            canonicalize_words(w), w
        )

    def test_pairwise_ops_preserved(self):
        a = make_words(4, 6, np.uint8, seed=21)
        b = make_words(3, 6, np.uint8, seed=22)
        ca, cb = canonicalize_words(a), canonicalize_words(b)
        for op in ALL_OPS:
            expected = bit_gemm_reference(a, b, op)
            got = bit_gemm_reference(ca, cb, op)
            assert np.array_equal(got, expected), op


# -- numba backend fallback ------------------------------------------------------


class TestNumbaFallback:
    def test_python_panel_matches_reference(self):
        a = canonicalize_words(make_words(5, 3, np.uint64, seed=31))
        b = canonicalize_words(make_words(6, 3, np.uint64, seed=32))
        for op, code in OPCODES.items():
            expected = bit_gemm_reference(a, b, op)
            assert np.array_equal(_python_panel(a, b, code), expected)

    def test_backend_reports_fallback_capabilities(self):
        info = get_backend("numba").info
        assert info.available  # python fallback keeps it available
        assert info.compiled == HAVE_NUMBA
        assert info.tunable == HAVE_NUMBA


# -- the serial driver: one full shard, one backend panel -----------------------


class TestBitGemmBackendDriver:
    """Serial runs are one full shard computed by one backend panel."""

    def test_matches_reference_and_counts(self, clean_env):
        a = make_words(8, 4, np.uint32, seed=41)
        b = make_words(6, 4, np.uint32, seed=42)
        expected = bit_gemm_reference(a, b, ComparisonOp.XOR)
        tracer = Tracer()
        previous = set_tracer(tracer)
        try:
            got, report = ParallelEngine(workers=1).run(a, b, ComparisonOp.XOR)
        finally:
            set_tracer(previous)
        assert np.array_equal(got, expected)
        assert report.n_shards == 1
        snapshot = tracer.counters.snapshot()
        assert snapshot[GEMM_CALLS] == 1
        assert snapshot[GEMM_WORD_OPS] == 8 * 6 * 4

    def test_unknown_backend_raises(self):
        a = make_words(2, 2, np.uint32)
        with pytest.raises(ConfigurationError):
            bit_gemm_parallel(a, a, workers=1, backend="warp")


# -- engine integration ----------------------------------------------------------


class TestEngineBackends:
    def test_ctor_validates_backend(self):
        with pytest.raises(ConfigurationError):
            ParallelEngine(workers=1, backend="warp")

    def test_env_backend_steers_auto(self, monkeypatch):
        monkeypatch.setenv(REPRO_BACKEND_ENV, DEFAULT_BACKEND_NAME)
        a = make_words(16, 4, np.uint32, seed=66)
        engine = ParallelEngine(workers=2)
        try:
            _, report = engine.run(
                a, a, ComparisonOp.XOR, force_parallel=True, symmetric=False
            )
        finally:
            engine.shutdown()
        assert report.backend == DEFAULT_BACKEND_NAME


# -- tuner integration -----------------------------------------------------------


class TestTunerBackendKeying:
    def test_tuning_key_embeds_fingerprint(self):
        key = tuning_key(ComparisonOp.AND, 64, 64, 8, 64, 2)
        assert f"|be[{backend_fingerprint()}]" in key

    def test_record_roundtrips_backend(self):
        record = TuningRecord("numba", False, None, 0.25, 6)
        assert TuningRecord.from_json(record.to_json()) == record

    def test_legacy_record_defaults_to_reference(self, tmp_path, monkeypatch,
                                                 clean_env):
        # A record in the previous file format (which also carried a
        # shard strategy) is stale: it neither raises nor pins its
        # backend, so "auto" stays on the size rule's reference pick.
        import json

        from repro.parallel import tuner as tuner_mod

        a = make_words(16, 4, np.uint32, seed=73)
        key = tuning_key(ComparisonOp.XOR, 16, 16, 4, 32, 2)
        path = tmp_path / "tuning.json"
        path.write_text(json.dumps({
            "format": "repro-host-tuning/1",
            "records": {key: {
                "strategy": "panel", "backend": "sim", "triangular": False,
                "crossover_ops": None, "best_seconds": 0.5, "candidates": 4,
            }},
        }))
        cache = TuningCache(path)
        monkeypatch.setattr(tuner_mod, "get_tuning_cache", lambda: cache)
        engine = ParallelEngine(workers=2)
        try:
            _, report = engine.run(a, a, ComparisonOp.XOR, force_parallel=True)
        finally:
            engine.shutdown()
        assert cache.lookup(key) is None
        assert "format" in cache.load_error
        assert report.backend == DEFAULT_BACKEND_NAME

    def test_cache_with_executor_records_still_loads(self, tmp_path,
                                                     monkeypatch, clean_env):
        # Caches written while the tuner also raced a process tier carry
        # an "executor" field on every record, plus a faster process
        # record under the same key with an "|exprocess" suffix.  The
        # file loads whole, lookups find the thread record, and "auto"
        # runs its backend.
        import json

        from repro.parallel import tuner as tuner_mod

        a = make_words(16, 4, np.uint32, seed=74)
        key = tuning_key(ComparisonOp.XOR, 16, 16, 4, 32, 2)
        path = tmp_path / "tuning.json"
        path.write_text(json.dumps({
            "format": "repro-host-tuning/2",
            "records": {
                key: {
                    "triangular": False, "crossover_ops": None,
                    "best_seconds": 0.5, "candidates": 4,
                    "backend": "sim", "executor": "thread",
                },
                key + "|exprocess": {
                    "triangular": True, "crossover_ops": None,
                    "best_seconds": 0.1, "candidates": 4,
                    "backend": "blas", "executor": "process",
                },
            },
        }))
        cache = TuningCache(path)
        monkeypatch.setattr(tuner_mod, "get_tuning_cache", lambda: cache)
        record = tuner_mod.lookup_tuned(ComparisonOp.XOR, 16, 16, 4, 32, 2)
        assert cache.load_error is None
        assert len(cache) == 2
        assert record == TuningRecord("sim", False, None, 0.5, 4)
        engine = ParallelEngine(workers=2)
        try:
            _, report = engine.run(a, a, ComparisonOp.XOR, force_parallel=True)
        finally:
            engine.shutdown()
        assert report.backend == "sim"

    def test_stale_backend_record_does_not_pin(self, tmp_path, monkeypatch,
                                               clean_env):
        # A tuning record naming a backend that is no longer available
        # must degrade to the reference backend, not crash or pin.
        from repro.parallel import tuner as tuner_mod

        cache = TuningCache(tmp_path / "tuning.json")
        a = make_words(16, 4, np.uint32, seed=71)
        b = make_words(24, 4, np.uint32, seed=72)
        key = tuning_key(ComparisonOp.AND, 16, 24, 4, 32, 2)
        cache.store(
            key,
            TuningRecord("ghost", False, None, 0.001, 6),
        )
        cache.save()
        monkeypatch.setattr(tuner_mod, "get_tuning_cache", lambda: cache)
        engine = ParallelEngine(workers=2)
        try:
            table, report = engine.run(
                a, b, ComparisonOp.AND, force_parallel=True
            )
        finally:
            engine.shutdown()
        assert report.backend == DEFAULT_BACKEND_NAME
        assert np.array_equal(
            table, bit_gemm_reference(a, b, ComparisonOp.AND)
        )


# -- a requested backend is honoured or rejected, never replaced -----------------

#: Counter the shadow backend bumps per panel call.
SHADOW_CALLS = "test.shadow_panel_calls"


class _ShadowBackend(KernelBackend):
    """Call-counting stand-in registered under another backend's name."""

    def __init__(self, original: KernelBackend, available: bool = True):
        self._info = original.info
        self._available = available

    @property
    def info(self) -> BackendInfo:
        info = self._info
        return BackendInfo(
            name=info.name, kind=info.kind, version=info.version,
            available=self._available, compiled=info.compiled,
            tunable=info.tunable, description="call-counting shadow",
            unavailable_reason=None if self._available else "shadowed off",
        )

    def bit_gemm_panel(self, a, b, op=ComparisonOp.AND):
        from repro.observability.tracer import get_tracer

        get_tracer().counters.add(SHADOW_CALLS)
        return bit_gemm_reference(a, b, op)


@pytest.fixture
def shadowed(clean_env):
    """Shadow the ``numba`` backend; restore the original afterwards."""
    original = get_backend("numba")

    def install(available: bool = True) -> None:
        register_backend(_ShadowBackend(original, available), replace=True)

    yield install
    register_backend(original, replace=True)


def _count_shadow_calls(run) -> float:
    tracer = Tracer()
    previous = set_tracer(tracer)
    try:
        run()
    finally:
        set_tracer(previous)
    return tracer.counters.get(SHADOW_CALLS)


class TestRequestedBackendHonoured:
    def test_serial_ld_runs_requested_backend(self, shadowed):
        from repro.core.ld import linkage_disequilibrium

        shadowed()
        mat = np.random.default_rng(95).integers(0, 2, size=(40, 24), dtype=np.uint8)
        result = []
        calls = _count_shadow_calls(
            lambda: result.append(linkage_disequilibrium(mat, backend="numba"))
        )
        assert calls >= 1
        reference = linkage_disequilibrium(mat, backend="numpy")
        assert np.array_equal(result[0].counts, reference.counts)

    def test_serial_gram_runs_requested_backend(self, shadowed):
        shadowed()
        a = make_words(40, 3, np.uint32, seed=96)
        engine = ParallelEngine(workers=1, backend="numba")
        calls = _count_shadow_calls(
            lambda: engine.run(a, a, ComparisonOp.AND, symmetric=True)
        )
        assert calls == 1

    def test_thread_gram_runs_requested_backend(self, shadowed):
        shadowed()
        a = make_words(130, 3, np.uint32, seed=97)
        engine = ParallelEngine(workers=2, backend="numba")
        try:
            reports = []
            calls = _count_shadow_calls(
                lambda: reports.append(
                    engine.run(a, a, ComparisonOp.XOR, force_parallel=True)[1]
                )
            )
        finally:
            engine.shutdown()
        assert reports[0].symmetric
        assert calls == reports[0].n_shards > 1

    @pytest.mark.parametrize("workers", [1, 2])
    def test_unavailable_backend_raises(self, shadowed, workers):
        shadowed(available=False)
        a = make_words(130, 3, np.uint32, seed=100)
        engine = ParallelEngine(workers=workers, backend="numba")
        try:
            with pytest.raises(ConfigurationError, match="unavailable"):
                engine.run(a, a, ComparisonOp.AND, force_parallel=workers > 1)
        finally:
            engine.shutdown()


# -- hypothesis property: all backends bit-exact ---------------------------------


class TestBackendProperties:
    def test_property_backends_match_reference(self):
        pytest.importorskip("hypothesis")
        from hypothesis import given, settings
        from hypothesis import strategies as st

        @settings(max_examples=40, deadline=None)
        @given(
            m=st.integers(min_value=0, max_value=9),
            n=st.integers(min_value=0, max_value=9),
            k=st.integers(min_value=0, max_value=11),
            dtype=st.sampled_from(WORD_DTYPES),
            op=st.sampled_from(ALL_OPS),
            seed=st.integers(min_value=0, max_value=2**16),
        )
        def check(m, n, k, dtype, op, seed):
            a = make_words(m, k, dtype, seed=seed)
            b = make_words(n, k, dtype, seed=seed + 1)
            expected = bit_gemm_reference(a, b, op)
            for backend in available_backends():
                got = backend.bit_gemm_panel(a, b, op)
                assert np.array_equal(got, expected), backend.info.name

        check()


# -- CLI flag --------------------------------------------------------------------


class TestCliBackendFlag:
    def test_ld_command_accepts_backend(self, tmp_path, capsys, clean_env):
        from repro.cli import main
        from repro.snp.dataset import SNPDataset
        from repro.snp.io import write_snptxt

        rng = np.random.default_rng(81)
        dataset = SNPDataset(
            matrix=rng.integers(0, 2, size=(12, 32), dtype=np.uint8)
        )
        path = tmp_path / "pop.snptxt"
        write_snptxt(path, dataset)
        assert main(
            ["ld", "--input", str(path), "--backend", "numpy"]
        ) == 0
        capsys.readouterr()

    def test_backend_choices_come_from_registry(self):
        from repro.cli import build_parser

        parser = build_parser()
        # Unknown names are rejected at argparse level.
        with pytest.raises(SystemExit):
            parser.parse_args(["ld", "--input", "x", "--backend", "warp"])


def test_module_exports_are_importable():
    import repro.kernels as kernels

    for name in kernels.__all__:
        assert hasattr(kernels, name), name
    assert isinstance(get_backend("numba"), NumbaBackend)
    assert issubclass(NumbaBackend, KernelBackend)
