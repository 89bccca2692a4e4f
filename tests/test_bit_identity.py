"""Differential bit-identity harness over the compute matrix.

Every user-facing entry point runs at ``workers`` in {1, 2, 3} on every
available registered kernel backend.  Each case must return exactly
the ``workers=1`` / ``numpy`` result, and its deterministic counters
(computed word-ops, executed and mirrored shards) must equal the
``numpy`` run's at the same worker count: the backend decides how a
panel is computed, never what or how much.

The engines' serial/parallel crossover is lowered to zero for each
case, so the small shapes here still run the sharded (and, for
self-comparisons, triangular Gram) plans at ``workers > 1``.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np
import pytest

from repro.blis.gemm import bit_gemm_reference
from repro.blis.microkernel import ComparisonOp
from repro.core.config import Algorithm
from repro.core.identity import identity_search
from repro.core.ld import linkage_disequilibrium
from repro.core.ldops import ld_clump, ld_prune
from repro.core.mixture import mixture_analysis
from repro.core.streaming import (
    StreamingIdentitySearch,
    StreamingLD,
    StreamingMixture,
)
from repro.kernels import REPRO_BACKEND_ENV, registered_backends
from repro.multigpu.executor import run_multi_gpu
from repro.multigpu.system import QUAD_GTX980
from repro.observability.counters import (
    GEMM_WORD_OPS,
    SHARDS_EXECUTED,
    SHARDS_MIRRORED,
)
from repro.observability.tracer import Tracer, set_tracer
from repro.parallel.engine import get_engine
from repro.serve import IdentityService, ProfileIndex

WORKERS = (1, 2, 3)
BACKENDS = tuple(
    be.info.name for be in registered_backends() if be.info.available
)
COUNTERS = (GEMM_WORD_OPS, SHARDS_EXECUTED, SHARDS_MIRRORED)

_RNG = np.random.default_rng(2024)
#: LD-shaped input: 72 sites (rows) over 160 observations.
SITES = (_RNG.random((72, 160)) < 0.3).astype(np.uint8)
SCORES = _RNG.random(SITES.shape[0])
#: Identity/mixture inputs over 192 sites.
QUERIES = _RNG.integers(0, 2, size=(9, 192), dtype=np.uint8)
DATABASE = _RNG.integers(0, 2, size=(150, 192), dtype=np.uint8)
DATABASE[40] = QUERIES[0]  # one exact hit, and ties in the top-k
DATABASE[41] = QUERIES[0]


def _ld(workers: int, backend: str) -> tuple[Any, ...]:
    r = linkage_disequilibrium(SITES, workers=workers, backend=backend)
    return r.counts, r.frequencies


def _identity(workers: int, backend: str) -> tuple[Any, ...]:
    r = identity_search(QUERIES, DATABASE, workers=workers, backend=backend)
    return (r.distances,)


def _mixture(workers: int, backend: str) -> tuple[Any, ...]:
    r = mixture_analysis(
        DATABASE, QUERIES[:3], workers=workers, backend=backend
    )
    return (r.scores,)


def _streaming_identity(workers: int, backend: str) -> tuple[Any, ...]:
    search = StreamingIdentitySearch(
        QUERIES, k=5, workers=workers, backend=backend
    )
    search.consume(DATABASE, chunk_rows=64)
    return (search.all_matches(),)


def _streaming_ld(workers: int, backend: str) -> tuple[Any, ...]:
    r = StreamingLD(workers=workers, backend=backend).run(SITES, chunk_rows=32)
    return r.counts, r.frequencies


def _streaming_mixture(workers: int, backend: str) -> tuple[Any, ...]:
    mixture = StreamingMixture(QUERIES[:3], workers=workers, backend=backend)
    mixture.consume(DATABASE, chunk_rows=64)
    return (mixture.result().scores,)


def _ld_prune(workers: int, backend: str) -> tuple[Any, ...]:
    r = ld_prune(
        SITES, window=20, r2=0.1, chunk_rows=24, workers=workers,
        backend=backend,
    )
    return r.kept, r.pruned, r.blocker, r.pairs_tested


def _ld_clump(workers: int, backend: str) -> tuple[Any, ...]:
    r = ld_clump(
        SITES, SCORES, window=20, r2=0.1, chunk_rows=24, workers=workers,
        backend=backend,
    )
    return r.assignment, r.clumps, r.pairs_tested


def _service(workers: int, backend: str) -> tuple[Any, ...]:
    index = ProfileIndex(n_bits=DATABASE.shape[1])
    for start in range(0, DATABASE.shape[0], 50):
        index.append(DATABASE[start : start + 50])
    with index, IdentityService(
        index, k=5, workers=workers, backend=backend
    ) as service:
        return (service.search_many([QUERIES[:4], QUERIES[4:5], QUERIES[5:]]),)


def _multi_gpu(workers: int, backend: str) -> tuple[Any, ...]:
    table, _ = run_multi_gpu(
        QUAD_GTX980, Algorithm.FASTID_IDENTITY, QUERIES, DATABASE,
        workers=workers, backend=backend,
    )
    return (table,)


_PACKED = np.random.default_rng(7).integers(
    0, 2**32, size=(70, 4), dtype=np.uint32
)


def _engine(workers: int, backend: str) -> tuple[Any, ...]:
    # The raw engine: a rectangular AND-NOT panel and a Gram self-product.
    engine = get_engine(workers, backend)
    rect, rect_report = engine.run(_PACKED[:40], _PACKED[25:], ComparisonOp.ANDNOT)
    gram, gram_report = engine.run(_PACKED, _PACKED, ComparisonOp.XOR)
    assert rect_report.backend == gram_report.backend == backend
    return rect, gram


ENTRY_POINTS: dict[str, Callable[[int, str], tuple[Any, ...]]] = {
    "ld": _ld,
    "identity": _identity,
    "mixture": _mixture,
    "streaming-identity": _streaming_identity,
    "streaming-ld": _streaming_ld,
    "streaming-mixture": _streaming_mixture,
    "ld-prune": _ld_prune,
    "ld-clump": _ld_clump,
    "service": _service,
    "multi-gpu": _multi_gpu,
    "engine": _engine,
}

_RUNS: dict[tuple[str, int, str], tuple[tuple[Any, ...], dict[str, float]]] = {}


def _run(entry: str, workers: int, backend: str) -> tuple[tuple[Any, ...], dict[str, float]]:
    """Outputs and deterministic counters of one case (memoized)."""
    key = (entry, workers, backend)
    if key not in _RUNS:
        engine = get_engine(workers, backend)
        saved = engine.crossover_ops
        engine.crossover_ops = 0
        tracer = Tracer()
        previous = set_tracer(tracer)
        try:
            outputs = ENTRY_POINTS[entry](workers, backend)
        finally:
            set_tracer(previous)
            engine.crossover_ops = saved
        _RUNS[key] = outputs, {c: tracer.counters.get(c) for c in COUNTERS}
    return _RUNS[key]


def _assert_identical(got: Any, expected: Any, case: tuple[Any, ...]) -> None:
    if isinstance(expected, np.ndarray):
        assert isinstance(got, np.ndarray), case
        assert got.dtype == expected.dtype, case
        assert np.array_equal(got, expected), case
    else:
        assert got == expected, case


@pytest.fixture(autouse=True)
def _no_backend_override(monkeypatch):
    monkeypatch.delenv(REPRO_BACKEND_ENV, raising=False)


def test_reference_engine_matches_popcount_oracle():
    rect, gram = _run("engine", 1, "numpy")[0]
    assert np.array_equal(
        rect, bit_gemm_reference(_PACKED[:40], _PACKED[25:], ComparisonOp.ANDNOT)
    )
    assert np.array_equal(
        gram, bit_gemm_reference(_PACKED, _PACKED, ComparisonOp.XOR)
    )


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("workers", WORKERS)
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_bit_identical_across_compute_matrix(entry, workers, backend):
    case = (entry, workers, backend)
    outputs, counters = _run(entry, workers, backend)
    reference, _ = _run(entry, 1, "numpy")
    assert len(outputs) == len(reference), case
    for got, expected in zip(outputs, reference):
        _assert_identical(got, expected, case)
    _, numpy_counters = _run(entry, workers, "numpy")
    assert counters == numpy_counters, case
    assert counters[GEMM_WORD_OPS] > 0, case
    if workers > 1:
        assert counters[SHARDS_EXECUTED] > 1, case
