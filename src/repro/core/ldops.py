"""Streaming LD pruning and clumping on the bit-GEMM core.

The Gram-mode engine computes the all-pairs LD matrix; this module adds
the two standard downstream consumers (ROADMAP item 4) as *streaming
operators over block-rows* of that Gram output:

* :class:`LDPruner` -- windowed greedy r^2 pruning, the semantics of
  PLINK ``--indep-pairwise <window> 1 <r^2>``: sites are scanned in
  order and a site is kept iff its r^2 against every *previously kept*
  site within the trailing window of ``window`` consecutive sites is
  at or below the threshold (first seen wins, step fixed at 1).
* :class:`LDClumper` -- index-variant clumping, the semantics of PLINK
  ``--clump`` with a site-count window: sites are ranked by a supplied
  score (higher is better, ties broken by site order); in rank order
  each unabsorbed site becomes an *index variant* and absorbs every
  unabsorbed neighbor within the window whose r^2 with it is at or
  above the threshold.

Neither operator ever materializes the full ``sites x sites`` LD
matrix.  Each consumes the streamed site-major input chunk by chunk
(the block-row decomposition :class:`~repro.core.streaming.StreamingLD`
uses) and asks the comparison framework for exactly the two count
blocks a block-row of the Gram output contributes to the active
window: the chunk's diagonal block (a self-comparison -- the
symmetric/triangular Gram machinery engages as usual) and one
rectangular block against the buffered window sites.  Resident LD
state is therefore ``O(window^2)`` regardless of panel size: at most
``window`` buffered site vectors plus the current count blocks (see
``docs/LDOPS.md`` for the precise bound and the clump bookkeeping
caveat).

Decisions are made from *exact integer joint counts* (the bit-GEMM
output), via the shared predicate :func:`r2_exceeds`:

    r^2 = (n c_ab - c_a c_b)^2 / (c_a (n - c_a) c_b (n - c_b))

evaluated as an exact integer numerator/denominator pair.  Whole count
blocks are decided at once by :func:`r2_exceeds_array`, which equals the
scalar predicate element by element, so results are bit-identical
between chunked streaming and in-memory execution for every chunk size
-- a property the tests pin down against a naive dense reference.  A
site with zero variance (monomorphic) has an undefined r^2; it is
treated as 0 (never prunes, never absorbs, never is absorbed), matching
:attr:`~repro.core.ld.LDResult.r_squared`.

Rows of the streamed source are the *sites* being pruned/clumped
(columns are samples/observations) -- the transpose of a sample-major
:class:`~repro.snp.dataset.SNPDataset` matrix, exactly like
:class:`~repro.core.streaming.StreamingLD` with ``compare="samples"``
reads its entities.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.core.config import Algorithm
from repro.core.framework import SNPComparisonFramework, framework_for
from repro.errors import DatasetError
from repro.gpu.arch import GPUArchitecture
from repro.io_stream.prefetch import ChunkStream, StreamStats
from repro.io_stream.sources import ChunkSource, as_chunk_source
from repro.observability.counters import (
    LDOPS_CLUMPS_FORMED,
    LDOPS_PAIRS_TESTED,
    LDOPS_SITES_ABSORBED,
    LDOPS_SITES_KEPT,
    LDOPS_SITES_PRUNED,
    LDOPS_SITES_SEEN,
    LDOPS_WINDOW_PEAK_SITES,
)
from repro.observability.tracer import get_tracer
from repro.util.validation import check_binary_matrix

__all__ = [
    "Clump",
    "ClumpResult",
    "LDClumper",
    "LDPruner",
    "PruneResult",
    "ld_clump",
    "ld_prune",
    "r2_exceeds",
    "r2_exceeds_array",
]


def r2_exceeds(
    c_ab: int,
    c_a: int,
    c_b: int,
    n_obs: int,
    threshold: float,
    strict: bool,
) -> bool:
    """Whether the pair's r^2 exceeds (or meets) ``threshold``.

    Evaluates ``r^2 = (n c_ab - c_a c_b)^2 / (c_a (n-c_a) c_b (n-c_b))``
    as exact Python integers (no intermediate overflow, no float
    division), comparing the integer numerator against
    ``threshold * denominator``; the only rounding is the final float
    product, applied identically on every path, so the decision is
    bit-identical regardless of how the counts were batched.

    ``strict=True`` tests ``r^2 > threshold`` (pruning); ``False``
    tests ``r^2 >= threshold`` (clump absorption).  A zero-variance
    site (``c == 0`` or ``c == n_obs``) makes the denominator 0: the
    r^2 is undefined and treated as 0, so the predicate is False.
    """
    num_root = n_obs * c_ab - c_a * c_b
    num = num_root * num_root
    den = c_a * (n_obs - c_a) * c_b * (n_obs - c_b)
    if den == 0:
        return False
    bound = threshold * den
    return num > bound if strict else num >= bound


#: Below this many observations every term of the predicate fits int64:
#: ``|n c_ab - c_a c_b| <= n^2 / 4``, so numerator and denominator are
#: both at most ``n^4 / 16 < 2^60``.
_INT64_MAX_OBS = 1 << 16


def r2_exceeds_array(
    c_ab: np.ndarray,
    c_a: np.ndarray,
    c_b: np.ndarray,
    n_obs: int,
    threshold: float,
    strict: bool,
) -> np.ndarray:
    """Elementwise :func:`r2_exceeds` over broadcast count arrays.

    Returns a boolean array equal, element by element, to the scalar
    predicate.  The counts must be those of a real panel
    (``0 <= c_ab <= min(c_a, c_b)``, ``c_a, c_b <= n_obs``), as every
    bit-GEMM output is.

    For ``n_obs < 2**16`` and a float threshold in ``[0, 1]`` the
    numerator and denominator are formed in int64 (no overflow, see
    :data:`_INT64_MAX_OBS`) and ``bound = threshold * float(den)`` is
    rounded exactly as Python rounds ``threshold * den``.  Python then
    compares the int numerator with the float bound exactly; so does
    this path, in int64 only: ``num > floor(bound)`` for ``strict`` and
    ``num >= ceil(bound)`` otherwise.  Any other input falls back to
    exact Python integers.
    """
    c_ab, c_a, c_b = np.broadcast_arrays(c_ab, c_a, c_b)
    if not (
        n_obs < _INT64_MAX_OBS
        and isinstance(threshold, float)
        and 0.0 <= threshold <= 1.0
    ):
        scalar = np.frompyfunc(
            lambda ab, a, b: r2_exceeds(
                int(ab), int(a), int(b), n_obs, threshold, strict
            ),
            3, 1,
        )
        return np.asarray(scalar(c_ab, c_a, c_b), dtype=bool)
    n = np.int64(n_obs)
    c_ab = c_ab.astype(np.int64, copy=False)
    c_a = c_a.astype(np.int64, copy=False)
    c_b = c_b.astype(np.int64, copy=False)
    num = n * c_ab - c_a * c_b
    num *= num
    den = c_a * (n - c_a)
    den *= c_b
    den *= n - c_b
    bound = den.astype(np.float64)
    bound *= threshold
    if strict:
        hit = num > np.floor(bound).astype(np.int64)
    else:
        hit = num >= np.ceil(bound).astype(np.int64)
    hit &= den != 0
    return hit


def _check_site_chunk(name: str, chunk: np.ndarray, n_sites: int | None) -> np.ndarray:
    """Validate one site-major chunk (rows = sites, columns = samples)."""
    arr = np.ascontiguousarray(check_binary_matrix(f"{name}: chunk", chunk))
    if n_sites is not None and arr.shape[1] != n_sites:
        raise DatasetError(
            f"{name}: chunk has {arr.shape[1]} observation columns, "
            f"earlier chunks had {n_sites}"
        )
    return arr


def _check_params(name: str, window: int, r2: float) -> None:
    if window < 1:
        raise DatasetError(f"{name}: window must be >= 1, got {window}")
    if not (0.0 <= r2 <= 1.0):
        raise DatasetError(f"{name}: r2 threshold must be in [0, 1], got {r2}")


@dataclass
class _ChunkHits:
    """Exact r^2 decisions for every in-window pair one chunk adds.

    ``rect[p, j]`` decides buffered row ``p`` against chunk row ``j``
    (only the first ``window - 1`` chunk rows are reachable from the
    buffer); ``band[j, e]`` decides chunk row ``j - width + e`` against
    chunk row ``j``.  Both are False outside the window.
    """

    #: Global index of each buffered row (ascending).
    buffered: np.ndarray
    #: First in-window buffered row for each reachable chunk row.
    starts: np.ndarray
    rect: np.ndarray
    band: np.ndarray
    width: int
    #: Allele count of each chunk row.
    counts: np.ndarray
    #: Number of in-window pairs the blocks cover.
    in_window: int


class _WindowGram:
    """Shared block-row machinery: buffered window sites + count blocks.

    Keeps the site vectors of the trailing window (the only input ever
    re-touched), their per-site allele counts, and computes the two
    count blocks each new chunk needs through the framework's bit-GEMM:
    the chunk's diagonal self-comparison block and the rectangle
    against the buffered rows.  Eviction keeps the buffer at most
    ``window - 1`` rows between chunks, so resident input state is
    bounded by the window, never the panel.
    """

    def __init__(self, window: int, framework: SNPComparisonFramework) -> None:
        self.window = window
        self.framework = framework
        #: Buffered site vectors (rows) still inside some future window.
        self._rows: np.ndarray | None = None
        #: Global site index of each buffered row (ascending).
        self._indices = np.empty(0, dtype=np.int64)
        #: Per-site allele count of each buffered row.
        self._counts = np.empty(0, dtype=np.int64)
        self.n_obs: int | None = None
        self.next_site = 0
        self.simulated_seconds = 0.0

    def hits(self, chunk: np.ndarray, threshold: float, strict: bool) -> _ChunkHits:
        """Count blocks for one new chunk, decided by :func:`r2_exceeds_array`.

        The predicate runs on the in-window band of the diagonal block
        and the first ``window - 1`` columns of the rectangle only, so
        transient memory is O(chunk rows x window).
        """
        assert self.n_obs is not None
        rect: np.ndarray | None = None
        rect_s = 0.0
        if self._rows is not None and len(self._indices):
            rect, report = self.framework.run(self._rows, chunk)
            rect_s = report.end_to_end_s
        diag, report = self.framework.run(chunk)
        # Accumulate only once both runs returned: a retried chunk
        # re-runs both.
        self.simulated_seconds += rect_s
        self.simulated_seconds += report.end_to_end_s
        counts = chunk.sum(axis=1, dtype=np.int64)
        n_rows = chunk.shape[0]
        n_buf = len(self._indices)
        # Buffered rows lie in [next_site - window + 1, next_site), so
        # they reach only the first window - 1 chunk rows.
        reach = min(n_rows, self.window - 1)
        starts = np.searchsorted(
            self._indices, self.next_site + np.arange(reach) - self.window + 1
        )
        rect_in = np.arange(n_buf)[:, None] >= starts
        if rect is None:
            rect_hit = rect_in
        else:
            rect_hit = r2_exceeds_array(
                rect[:, :reach], self._counts[:, None], counts[:reach],
                self.n_obs, threshold, strict,
            )
            rect_hit &= rect_in
        width = min(n_rows - 1, self.window - 1)
        local = np.arange(n_rows)[:, None]
        other = local - width + np.arange(width)
        band_in = other >= 0
        np.maximum(other, 0, out=other)
        band_hit = r2_exceeds_array(
            diag[other, local], counts[other], counts[:, None],
            self.n_obs, threshold, strict,
        )
        band_hit &= band_in
        return _ChunkHits(
            buffered=self._indices,
            starts=starts,
            rect=rect_hit,
            band=band_hit,
            width=width,
            counts=counts,
            in_window=int(rect_in.sum()) + int(band_in.sum()),
        )

    def advance(
        self, chunk: np.ndarray, counts: np.ndarray, keep_local: list[int]
    ) -> None:
        """Move past the chunk: buffer its useful rows, evict stale ones.

        ``keep_local`` lists the chunk-local rows that future sites may
        still need (kept sites for the pruner, every site for the
        clumper).  Rows whose global index has fallen out of the next
        site's window are dropped.
        """
        base = self.next_site
        self.next_site = base + chunk.shape[0]
        # The next site to arrive can only pair with indices >= horizon.
        horizon = self.next_site - self.window + 1
        keep = np.asarray(keep_local, dtype=np.int64)
        keep = keep[base + keep >= horizon]
        alive = self._indices >= horizon
        old_rows = chunk[:0] if self._rows is None else self._rows[alive]
        self._rows = np.concatenate([old_rows, chunk[keep]])
        self._indices = np.concatenate([self._indices[alive], base + keep])
        self._counts = np.concatenate([self._counts[alive], counts[keep]])


@dataclass
class PruneResult:
    """Outcome of one windowed LD pruning pass.

    Attributes
    ----------
    kept:
        Global indices of surviving sites, ascending.
    pruned:
        Global indices of removed sites, ascending.
    blocker:
        For each pruned site, the kept site whose r^2 exceeded the
        threshold (aligned with ``pruned``).
    n_sites:
        Total sites scanned.
    window / r2:
        The parameters the pass ran with.
    pairs_tested:
        Exact number of (new site, kept window site) pairs whose r^2
        was evaluated -- invariant under chunking.
    peak_window_sites:
        Largest number of kept sites simultaneously inside one window
        (including the site being decided) -- the resident-state bound
        the O(window^2) claim rests on; invariant under chunking.
    simulated_seconds:
        Simulated device time of every count block computed.
    stream_stats:
        I/O accounting when driven by :func:`ld_prune` (else ``None``).
    """

    kept: np.ndarray
    pruned: np.ndarray
    blocker: np.ndarray
    n_sites: int
    window: int
    r2: float
    pairs_tested: int
    peak_window_sites: int
    simulated_seconds: float
    stream_stats: StreamStats | None = None


class LDPruner:
    """Streaming windowed LD pruning (PLINK ``--indep-pairwise`` style).

    Feed site-major chunks in order with :meth:`add_chunk`; call
    :meth:`finalize` for the :class:`PruneResult`.  Decisions are
    greedy first-seen-wins: a new site is kept iff its r^2 with every
    previously *kept* site in the trailing ``window`` consecutive
    sites stays at or below ``r2`` (strict ``>`` prunes).  Pruned
    sites leave the window immediately -- they never veto a later
    site -- so the kept set is exactly what PLINK's step-1 greedy scan
    with order-based (rather than MAF-based) pair resolution produces.
    """

    def __init__(
        self,
        window: int,
        r2: float,
        device: str | GPUArchitecture = "Titan V",
        workers: int = 1,
        backend: str = "auto",
        framework: SNPComparisonFramework | None = None,
    ) -> None:
        _check_params("LDPruner", window, r2)
        self.window = window
        self.r2 = r2
        self.framework = framework_for(
            "LDPruner", framework, device, Algorithm.LD,
            workers=workers, backend=backend,
        )
        self._gram = _WindowGram(window, self.framework)
        self._kept: list[int] = []
        self._pruned: list[int] = []
        self._blocker: list[int] = []
        self.pairs_tested = 0
        self.peak_window_sites = 0
        self._finalized = False

    @property
    def sites_seen(self) -> int:
        return self._gram.next_site

    def add_chunk(self, chunk: np.ndarray) -> None:
        """Scan one block of site rows (global order = arrival order)."""
        if self._finalized:
            raise DatasetError("LDPruner: add_chunk after finalize")
        arr = _check_site_chunk("LDPruner.add_chunk", chunk, self._gram.n_obs)
        if arr.shape[0] == 0:
            return
        if arr.shape[1] == 0:
            raise DatasetError(
                "LDPruner.add_chunk: chunk has zero observation columns; "
                "r^2 is undefined on zero observations"
            )
        if self._gram.n_obs is None:
            self._gram.n_obs = int(arr.shape[1])
        base = self._gram.next_site
        hits = self._gram.hits(arr, self.r2, strict=True)
        n_rows = arr.shape[0]
        n_buf = len(hits.buffered)
        width = hits.width
        # A row with no hit against any in-window site is kept outright.
        hit_any = hits.band.any(axis=1)
        hit_any[: hits.rect.shape[1]] |= hits.rect.any(axis=0)
        maybe_blocked = hit_any.tolist()
        starts = hits.starts.tolist()
        # kept_ext[width + j] marks chunk row j kept; the slice
        # kept_ext[local : local + width] lines up with hits.band[local].
        kept_ext = np.zeros(width + n_rows, dtype=bool)
        # kept_before[j]: kept chunk rows below row j.
        kept_before = [0]
        keep_local: list[int] = []
        for local in range(n_rows):
            buf_window = n_buf - starts[local] if local < len(starts) else 0
            chunk_window = kept_before[local] - kept_before[max(0, local - width)]
            tested = buf_window + chunk_window
            blocked_by = -1
            if maybe_blocked[local]:
                # Test kept window sites in index order: buffered rows
                # (all kept) first, then this chunk's kept rows.
                buf_hit = hits.rect[starts[local]:, local] if buf_window else None
                if buf_hit is not None and buf_hit.any():
                    first = int(buf_hit.argmax())
                    blocked_by = int(hits.buffered[starts[local] + first])
                    tested = first + 1
                else:
                    cand = np.flatnonzero(kept_ext[local : local + width])
                    chunk_hit = hits.band[local, cand]
                    if chunk_hit.any():
                        first = int(chunk_hit.argmax())
                        blocked_by = base + local - width + int(cand[first])
                        tested = buf_window + first + 1
            self.pairs_tested += tested
            g = base + local
            if blocked_by >= 0:
                self._pruned.append(g)
                self._blocker.append(blocked_by)
                window_sites = buf_window + chunk_window
            else:
                self._kept.append(g)
                keep_local.append(local)
                kept_ext[width + local] = True
                window_sites = buf_window + chunk_window + 1
            kept_before.append(kept_before[local] + (blocked_by < 0))
            self.peak_window_sites = max(self.peak_window_sites, window_sites)
        self._gram.advance(arr, hits.counts, keep_local)

    def finalize(self) -> PruneResult:
        """Close the stream and return the result (idempotent counters)."""
        if not self._finalized:
            self._finalized = True
            counters = get_tracer().counters
            counters.add(LDOPS_SITES_SEEN, self.sites_seen)
            counters.add(LDOPS_SITES_KEPT, len(self._kept))
            counters.add(LDOPS_SITES_PRUNED, len(self._pruned))
            counters.add(LDOPS_PAIRS_TESTED, self.pairs_tested)
            counters.add(LDOPS_WINDOW_PEAK_SITES, self.peak_window_sites)
        return PruneResult(
            kept=np.array(self._kept, dtype=np.int64),
            pruned=np.array(self._pruned, dtype=np.int64),
            blocker=np.array(self._blocker, dtype=np.int64),
            n_sites=self.sites_seen,
            window=self.window,
            r2=self.r2,
            pairs_tested=self.pairs_tested,
            peak_window_sites=self.peak_window_sites,
            simulated_seconds=self._gram.simulated_seconds,
        )


@dataclass(frozen=True)
class Clump:
    """One clump: the index variant plus the sites it absorbed."""

    index_site: int
    members: tuple[int, ...]


@dataclass
class ClumpResult:
    """Outcome of one index-variant clumping pass.

    ``assignment[i]`` is the index site that absorbed site ``i`` (its
    own index for index variants).  ``clumps`` lists every clump in
    rank order of its index variant (best score first, ties by site
    order); singleton clumps (no absorbed members) are included.
    """

    clumps: list[Clump]
    assignment: np.ndarray
    n_sites: int
    window: int
    r2: float
    pairs_tested: int
    peak_window_sites: int
    simulated_seconds: float
    stream_stats: StreamStats | None = None

    @property
    def index_sites(self) -> np.ndarray:
        """Index-variant site indices in rank order."""
        return np.array([c.index_site for c in self.clumps], dtype=np.int64)


class LDClumper:
    """Streaming index-variant clumping (PLINK ``--clump`` style).

    ``scores`` supplies one score per streamed site (higher is better,
    e.g. ``-log10 p``); the array must cover every site that arrives.
    A site is an *index variant* iff no better-ranked index variant
    within the window has r^2 >= the threshold with it; otherwise it is
    absorbed by the best-ranked such index variant.  Rank is
    ``(-score, site order)`` -- ties break toward the earlier site,
    independent of batching.

    The recursion on rank is resolved incrementally: a site's status is
    settled as soon as all its window neighbors have arrived and every
    better-ranked above-threshold neighbor is itself settled, so in
    well-mixed panels pending state stays near the window size.  Each
    complete pending site counts its unsettled better-ranked neighbors;
    settling a site decrements its dependents' counts, so resolution
    costs O(edges) in total.  Only above-threshold edges are remembered
    per pending site; the site *vectors* and count blocks stay bounded
    by the window as in :class:`LDPruner`.
    """

    def __init__(
        self,
        window: int,
        r2: float,
        scores: np.ndarray,
        device: str | GPUArchitecture = "Titan V",
        workers: int = 1,
        backend: str = "auto",
        framework: SNPComparisonFramework | None = None,
    ) -> None:
        _check_params("LDClumper", window, r2)
        score_arr = np.asarray(scores, dtype=np.float64)
        if score_arr.ndim != 1:
            raise DatasetError(
                f"LDClumper: scores must be a 1-D array, got shape "
                f"{score_arr.shape}"
            )
        if not np.all(np.isfinite(score_arr)):
            raise DatasetError("LDClumper: scores must be finite")
        self.window = window
        self.r2 = r2
        self.scores = score_arr
        self.framework = framework_for(
            "LDClumper", framework, device, Algorithm.LD,
            workers=workers, backend=backend,
        )
        self._gram = _WindowGram(window, self.framework)
        #: Rank position of each site: ``(-score, site)`` order.
        order = np.lexsort((np.arange(score_arr.shape[0]), -score_arr))
        rank = np.empty_like(order)
        rank[order] = np.arange(order.shape[0])
        self._rank: list[int] = rank.tolist()
        #: Pending site -> above-threshold window neighbors (both sides).
        self._edges: dict[int, list[int]] = {}
        #: Complete pending site -> unsettled better-ranked neighbors.
        self._waiting: dict[int, int] = {}
        #: Sites below this index are complete (every neighbor arrived).
        self._complete = 0
        #: site -> absorbing index variant (== site for index variants).
        self._assignment: dict[int, int] = {}
        self.pairs_tested = 0
        self.peak_window_sites = 0
        self._finalized = False

    @property
    def sites_seen(self) -> int:
        return self._gram.next_site

    def add_chunk(self, chunk: np.ndarray) -> None:
        """Fold one block of site rows into the pending clump state."""
        if self._finalized:
            raise DatasetError("LDClumper: add_chunk after finalize")
        arr = _check_site_chunk("LDClumper.add_chunk", chunk, self._gram.n_obs)
        if arr.shape[0] == 0:
            return
        if arr.shape[1] == 0:
            raise DatasetError(
                "LDClumper.add_chunk: chunk has zero observation columns; "
                "r^2 is undefined on zero observations"
            )
        base = self._gram.next_site
        if base + arr.shape[0] > self.scores.shape[0]:
            raise DatasetError(
                f"LDClumper.add_chunk: streamed sites exceed the "
                f"{self.scores.shape[0]} supplied scores "
                f"(chunk covers sites {base}..{base + arr.shape[0] - 1})"
            )
        if self._gram.n_obs is None:
            self._gram.n_obs = int(arr.shape[1])
        hits = self._gram.hits(arr, self.r2, strict=False)
        self.pairs_tested += hits.in_window
        for g in range(base, base + arr.shape[0]):
            self._edges[g] = []
        pos, local = np.nonzero(hits.rect)
        band_local, band_e = np.nonzero(hits.band)
        earlier = np.concatenate([
            hits.buffered[pos], base + band_local - hits.width + band_e
        ])
        later = np.concatenate([base + local, base + band_local])
        # Both ends are pending: a site settles only once its whole
        # window has arrived, and these pairs are in the newest window.
        for a, b in zip(earlier.tolist(), later.tolist()):
            self._edges[a].append(b)
            self._edges[b].append(a)
        window_rows = min(base + arr.shape[0], self.window)
        self.peak_window_sites = max(self.peak_window_sites, window_rows)
        self._gram.advance(arr, hits.counts, list(range(arr.shape[0])))
        self._resolve(complete_before=self._gram.next_site - self.window + 1)

    def _resolve(self, complete_before: int) -> None:
        """Settle every pending site whose dependencies are settled.

        A site is *complete* once all potential window neighbors have
        arrived (``site + window <= next unseen site``, i.e. its index
        is below ``complete_before``).  A complete site settles when
        every better-ranked above-threshold neighbor is settled: it is
        absorbed by the best-ranked settled *index* neighbor, or
        becomes an index variant itself.
        """
        rank = self._rank
        ready: list[int] = []
        for g in range(self._complete, complete_before):
            waiting = sum(
                1 for e in self._edges[g]
                if rank[e] < rank[g] and e not in self._assignment
            )
            self._waiting[g] = waiting
            if not waiting:
                ready.append(g)
        self._complete = max(self._complete, complete_before)
        while ready:
            g = ready.pop()
            edges = self._edges.pop(g)
            del self._waiting[g]
            absorbers = [
                e for e in edges
                if rank[e] < rank[g] and self._assignment[e] == e
            ]
            self._assignment[g] = (
                min(absorbers, key=rank.__getitem__) if absorbers else g
            )
            for d in edges:
                if rank[g] < rank[d] and d in self._waiting:
                    self._waiting[d] -= 1
                    if not self._waiting[d]:
                        ready.append(d)

    def finalize(self) -> ClumpResult:
        """Close the stream, settle every site, return the result."""
        if not self._finalized:
            self._resolve(complete_before=self._gram.next_site)
            assert not self._edges, "clump resolution did not converge"
            self._finalized = True
            counters = get_tracer().counters
            n = self._gram.next_site
            n_index = sum(1 for s, a in self._assignment.items() if s == a)
            counters.add(LDOPS_SITES_SEEN, n)
            counters.add(LDOPS_CLUMPS_FORMED, n_index)
            counters.add(LDOPS_SITES_ABSORBED, n - n_index)
            counters.add(LDOPS_PAIRS_TESTED, self.pairs_tested)
            counters.add(LDOPS_WINDOW_PEAK_SITES, self.peak_window_sites)
        n = self._gram.next_site
        assignment = np.array(
            [self._assignment[g] for g in range(n)], dtype=np.int64
        )
        members: dict[int, list[int]] = {}
        for g in range(n):
            a = int(assignment[g])
            if a != g:
                members.setdefault(a, []).append(g)
        index_sites = sorted(
            (g for g in range(n) if int(assignment[g]) == g),
            key=self._rank.__getitem__,
        )
        clumps = [
            Clump(index_site=g, members=tuple(members.get(g, [])))
            for g in index_sites
        ]
        return ClumpResult(
            clumps=clumps,
            assignment=assignment,
            n_sites=n,
            window=self.window,
            r2=self.r2,
            pairs_tested=self.pairs_tested,
            peak_window_sites=self.peak_window_sites,
            simulated_seconds=self._gram.simulated_seconds,
        )


def _drive(
    operator: LDPruner | LDClumper,
    source: ChunkSource | np.ndarray | Any,
    chunk_rows: int,
    prefetch: bool,
    workload: str,
) -> StreamStats:
    """Stream a whole source through one operator (with retry + spans)."""
    # Imported here to keep module import light and avoid a cycle at
    # type-check time (streaming imports ld, which shares this package).
    from repro.core.streaming import _run_chunk

    if chunk_rows < 1:
        raise DatasetError(f"ld {workload}: chunk_rows must be >= 1")
    src = as_chunk_source(source)
    obs = get_tracer()
    stream = ChunkStream(src, chunk_rows, prefetch=prefetch)
    for index, chunk in enumerate(stream):
        with obs.span(
            "stream.chunk", workload=workload, index=index,
            rows=int(chunk.shape[0]),
        ):
            _run_chunk(lambda: operator.add_chunk(chunk))
    return stream.stats


def ld_prune(
    source: ChunkSource | np.ndarray | Any,
    window: int,
    r2: float,
    chunk_rows: int = 4096,
    prefetch: bool = True,
    device: str | GPUArchitecture = "Titan V",
    workers: int = 1,
    backend: str = "auto",
    framework: SNPComparisonFramework | None = None,
) -> PruneResult:
    """Stream a site-major source through :class:`LDPruner` once.

    ``source`` is anything
    :func:`repro.io_stream.sources.as_chunk_source` accepts; rows are
    the sites scanned in order.  Chunk boundaries never change the
    result (bit-identical kept sets for every ``chunk_rows``).
    """
    pruner = LDPruner(
        window, r2, device=device, workers=workers, backend=backend,
        framework=framework,
    )
    stats = _drive(pruner, source, chunk_rows, prefetch, "ld-prune")
    result = pruner.finalize()
    result.stream_stats = stats
    return result


def ld_clump(
    source: ChunkSource | np.ndarray | Any,
    scores: np.ndarray,
    window: int,
    r2: float,
    chunk_rows: int = 4096,
    prefetch: bool = True,
    device: str | GPUArchitecture = "Titan V",
    workers: int = 1,
    backend: str = "auto",
    framework: SNPComparisonFramework | None = None,
) -> ClumpResult:
    """Stream a site-major source through :class:`LDClumper` once.

    ``scores`` must supply one finite score per streamed site; a
    mismatch raises :class:`~repro.errors.DatasetError` (too few scores
    as soon as a chunk overruns them, too many at finalize).
    """
    clumper = LDClumper(
        window, r2, scores, device=device, workers=workers,
        backend=backend, framework=framework,
    )
    stats = _drive(clumper, source, chunk_rows, prefetch, "clump")
    if clumper.sites_seen != clumper.scores.shape[0]:
        raise DatasetError(
            f"ld_clump: {clumper.scores.shape[0]} scores supplied but the "
            f"source streamed {clumper.sites_seen} sites"
        )
    result = clumper.finalize()
    result.stream_stats = stats
    return result
