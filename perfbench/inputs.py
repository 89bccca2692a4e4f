"""Seeded workload inputs, generated with plain numpy.

The models are the ones ``repro.snp.forensic`` and ``repro.snp.generator``
use (a Beta minor-allele spectrum for forensic profiles; LD blocks of
founder haplotypes with per-site re-draw noise), written out here so that a
change under ``src/`` cannot change what the benchmark feeds the program.
"""

from __future__ import annotations

import numpy as np


def forensic_database(
    rng: np.random.Generator, n_profiles: int, n_sites: int
) -> tuple[np.ndarray, np.ndarray]:
    """Return ``(profiles, frequencies)``: i.i.d. profiles, common-variant spectrum."""
    freqs = np.clip(rng.beta(1.2, 3.0, size=n_sites), 0.05, 0.5)
    profiles = (rng.random((n_profiles, n_sites)) < freqs).astype(np.uint8)
    return profiles, freqs


def forensic_queries(
    rng: np.random.Generator,
    database: np.ndarray,
    freqs: np.ndarray,
    n: int,
    member_frac: float = 0.9,
    error_rate: float = 0.01,
) -> np.ndarray:
    """``n`` single-profile queries: members with genotyping error, else unrelated."""
    n_sites = database.shape[1]
    members = rng.random(n) < member_frac
    rows = rng.integers(0, database.shape[0], size=n)
    flips = (rng.random((n, n_sites)) < error_rate).astype(np.uint8)
    unrelated = (rng.random((n, n_sites)) < freqs).astype(np.uint8)
    return np.where(members[:, None], database[rows] ^ flips, unrelated).astype(np.uint8)


def ld_block_table(
    rng: np.random.Generator,
    n_samples: int,
    n_sites: int,
    block_size: int = 16,
    founders: int = 4,
    noise: float = 0.02,
) -> np.ndarray:
    """A ``(samples, sites)`` binary table of LD blocks of founder haplotypes."""
    freqs = np.clip(np.minimum(rng.beta(0.8, 4.0, size=n_sites), 0.5), 0.02, 0.5)
    table = np.empty((n_samples, n_sites), dtype=np.uint8)
    for start in range(0, n_sites, block_size):
        stop = min(start + block_size, n_sites)
        f = freqs[start:stop]
        pool = (rng.random((founders, stop - start)) < f).astype(np.uint8)
        block = pool[rng.integers(0, founders, size=n_samples)]
        redraw = rng.random(block.shape) < noise
        fresh = (rng.random(block.shape) < f).astype(np.uint8)
        table[:, start:stop] = np.where(redraw, fresh, block)
    return table
