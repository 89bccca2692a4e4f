"""Independent references for checking the program's outputs.

Everything here is plain numpy and shares no code with ``repro``; it runs
outside the timed phases.
"""

from __future__ import annotations

import numpy as np


def pack64(bits: np.ndarray) -> np.ndarray:
    """Pack a binary ``(rows, sites)`` matrix into ``uint64`` words per row."""
    packed = np.packbits(bits.astype(np.uint8), axis=1)
    pad = (-packed.shape[1]) % 8
    if pad:
        packed = np.pad(packed, ((0, 0), (0, pad)))
    return np.ascontiguousarray(packed).view(np.uint64)


def hamming(queries: np.ndarray, database: np.ndarray) -> np.ndarray:
    """``(q, n)`` Hamming distances by XOR-popcount over packed words."""
    q, d = pack64(queries), pack64(database)
    out = np.empty((q.shape[0], d.shape[0]), dtype=np.int64)
    for i in range(q.shape[0]):
        out[i] = np.bitwise_count(d ^ q[i]).sum(axis=1, dtype=np.int64)
    return out


def topk(distances: np.ndarray, k: int) -> list[list[int]]:
    """Best ``k`` as ``[distance, index]``, tie-broken by distance then index."""
    order = np.argsort(distances, kind="stable")[:k]
    return [[int(distances[i]), int(i)] for i in order]


def ld_counts(table: np.ndarray) -> np.ndarray:
    """Joint minor-allele counts between sites of a ``(samples, sites)`` table."""
    # float32 is exact here: every count is an integer below 2**24.
    x = table.astype(np.float32)
    return np.rint(x.T @ x).astype(np.int64)


def r_squared(counts: np.ndarray, n_obs: int) -> np.ndarray:
    """r^2 between sites from joint counts (0 where a site is monomorphic)."""
    c = np.diag(counts).astype(np.float64)
    p = c / n_obs
    d = counts / n_obs - np.outer(p, p)
    var = p * (1 - p)
    den = np.outer(var, var)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(den > 0, d * d / den, 0.0)


def _band(sites: np.ndarray, window: int, r2: float, strict: bool) -> list[np.ndarray]:
    """For each site ``g``, the earlier sites in its window that pass the r^2 test.

    ``sites`` is site-major ``(sites, samples)``.  The test is the exact
    integer form ``(n c_ab - c_a c_b)^2 > r2 * c_a (n - c_a) c_b (n - c_b)``
    (``>=`` when not strict); monomorphic sites never pass.
    """
    n_sites, n_obs = sites.shape
    x = sites.astype(np.float64)
    c = sites.sum(axis=1, dtype=np.int64)
    out: list[np.ndarray] = []
    block = 1024
    for b0 in range(0, n_sites, block):
        b1 = min(b0 + block, n_sites)
        lo = max(0, b0 - window + 1)
        joint = np.rint(x[b0:b1] @ x[lo:b1].T).astype(np.int64)
        for g in range(b0, b1):
            s0 = max(0, g - window + 1)
            others = np.arange(s0, g)
            c_ab = joint[g - b0, s0 - lo:g - lo]
            root = n_obs * c_ab - c[others] * c[g]
            num = root * root
            den = c[others] * (n_obs - c[others]) * c[g] * (n_obs - c[g])
            bound = r2 * den.astype(np.float64)
            hit = (num > bound) if strict else (num >= bound)
            out.append(others[hit & (den > 0)])
    return out


def prune(sites: np.ndarray, window: int, r2: float) -> np.ndarray:
    """Greedy windowed pruning: keep a site iff no kept window site exceeds r^2."""
    above = _band(sites, window, r2, strict=True)
    kept = np.zeros(sites.shape[0], dtype=bool)
    for g, partners in enumerate(above):
        kept[g] = not kept[partners].any()
    return np.flatnonzero(kept)


def clump(sites: np.ndarray, scores: np.ndarray, window: int, r2: float) -> np.ndarray:
    """Index-variant clumping; returns the absorbing index site of every site."""
    n = sites.shape[0]
    earlier = _band(sites, window, r2, strict=False)
    neighbours: list[list[int]] = [list(e) for e in earlier]
    for g, partners in enumerate(earlier):
        for p in partners:
            neighbours[p].append(g)
    order = np.lexsort((np.arange(n), -scores))
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    assignment = np.full(n, -1, dtype=np.int64)
    for g in order:
        absorbers = [e for e in neighbours[g] if assignment[e] == e and rank[e] < rank[g]]
        assignment[g] = min(absorbers, key=lambda e: rank[e]) if absorbers else g
    return assignment
