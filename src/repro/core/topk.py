"""The top-k decision: the ``k`` closest database rows per query.

FastID identity search (the paper's Fig. 8 workload) reduces every
query to its best few candidates.  :class:`~repro.core.streaming.\
StreamingIdentitySearch` and :class:`~repro.serve.service.IdentityService`
both fold distance tables into a :class:`BestK`, so the tie-breaking
rule and the bound on ``k`` are defined here and nowhere else:

* candidates are ordered by ``(distance, database index)`` -- among
  equal distances the row seen first in database order wins, however
  the database was split into batches or segments;
* ``k`` is an integer in ``[1, MAX_K]`` (:func:`check_k`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import DatasetError

__all__ = ["MAX_K", "Match", "BestK", "check_k"]

#: Upper bound on ``k``: beyond this the per-query best-k arrays stop
#: being small working state (and ``k`` may arrive from the network),
#: so callers should compute and store the full distance table instead.
MAX_K = 4096


@dataclass(frozen=True, order=True)
class Match:
    """One candidate: ordered by distance, then database index."""

    distance: int
    database_index: int


def check_k(name: str, k: object) -> int:
    """Validate a candidate count; returns it as a Python ``int``.

    Accepts ``int`` and NumPy integers in ``[1, MAX_K]``; ``bool``,
    floats and strings are rejected rather than coerced.
    """
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)):
        raise DatasetError(
            f"{name}: k must be an integer, got {type(k).__name__} {k!r}"
        )
    value = int(k)
    if value < 1:
        raise DatasetError(f"{name}: k={value} must be positive")
    if value > MAX_K:
        raise DatasetError(
            f"{name}: k={value} exceeds the supported maximum {MAX_K}; "
            f"retain fewer candidates or run identity_search for the "
            f"full distance table"
        )
    return value


class BestK:
    """Running best-``k`` ``(distance, index)`` pairs for each query.

    ``distance`` and ``index`` are ``(n_queries, <= k)`` int64 arrays,
    unordered within a row until :meth:`matches` sorts them.
    """

    def __init__(self, n_queries: int, k: int) -> None:
        self.k = k
        self.distance = np.empty((n_queries, 0), dtype=np.int64)
        self.index = np.empty((n_queries, 0), dtype=np.int64)

    def fold(self, distances: np.ndarray, base: int) -> None:
        """Merge a ``(n_queries, rows)`` distance block into the best-k.

        The block's rows are database rows ``base .. stop - 1`` with
        ``stop = base + rows``; every row must be folded exactly once.
        Every retained and new index is below ``stop``, so the key
        ``distance * stop + index`` orders candidates exactly as
        ``(distance, index)`` does.  Distances are Hamming distances,
        at most the site count ``n_sites``, so a key stays below
        ``(n_sites + 1) * stop`` -- roughly the number of profile bits
        folded so far -- and int64 overflow would take 2**63 bits
        (1 EiB) of streamed profiles.
        """
        block = np.asarray(distances, dtype=np.int64)
        rows = block.shape[1]
        if rows == 0:
            return
        stop = base + rows
        new_index = np.broadcast_to(np.arange(base, stop, dtype=np.int64), block.shape)
        distance = np.concatenate((self.distance, block), axis=1)
        index = np.concatenate((self.index, new_index), axis=1)
        if distance.shape[1] > self.k:
            key = distance * stop + index
            keep = np.argpartition(key, self.k - 1, axis=1)[:, : self.k]
            distance = np.take_along_axis(distance, keep, axis=1)
            index = np.take_along_axis(index, keep, axis=1)
        self.distance, self.index = distance, index

    def matches(self) -> list[list[Match]]:
        """Every query's best-k, each sorted by ``(distance, index)``."""
        order = np.lexsort((self.index, self.distance))
        distance = np.take_along_axis(self.distance, order, axis=1).tolist()
        index = np.take_along_axis(self.index, order, axis=1).tolist()
        return [
            [Match(d, i) for d, i in zip(row_d, row_i)]
            for row_d, row_i in zip(distance, index)
        ]
