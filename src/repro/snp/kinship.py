"""Relatedness analysis on top of the comparison framework.

The XOR kernel's distance table is, after normalization, the classic
**identity-by-state (IBS)** similarity used for kinship screening and
duplicate detection in population studies (and the KinLinks-style
forensic kinship tools the paper cites [4]):

    IBS(i, j)   = 1 - hamming(i, j) / n_sites
    kinship_hat = 2 * IBS - 1        (on presence/absence bitvectors)

``kinship_hat`` is a crude but monotone estimator: 1 for identical
profiles, around ``2 * E[IBS_random] - 1`` for unrelated pairs, and
intermediate for relatives -- enough to rank and threshold pairs,
which is all the screening use case needs.  The expected random-pair
IBS under site frequencies ``p`` is

    E[IBS] = mean_k [ p_k^2 + (1 - p_k)^2 ]

so z-scoring against it separates relatives from the unrelated bulk.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import Algorithm
from repro.core.framework import SNPComparisonFramework, framework_for
from repro.core.profiles import RunReport
from repro.errors import DatasetError
from repro.gpu.arch import GPUArchitecture

__all__ = ["KinshipResult", "ibs_matrix", "kinship_screen"]


@dataclass
class KinshipResult:
    """IBS/kinship tables for one sample set."""

    ibs: np.ndarray
    expected_random_ibs: float
    report: RunReport

    @property
    def kinship(self) -> np.ndarray:
        """The 2*IBS - 1 similarity estimator."""
        return 2.0 * self.ibs - 1.0

    def related_pairs(
        self, min_excess: float = 0.05
    ) -> list[tuple[int, int, float]]:
        """(i, j, ibs) for pairs exceeding random expectation by margin.

        Upper-triangle pairs only, sorted by descending IBS.
        """
        n = self.ibs.shape[0]
        threshold = self.expected_random_ibs + min_excess
        pairs = [
            (i, j, float(self.ibs[i, j]))
            for i in range(n)
            for j in range(i + 1, n)
            if self.ibs[i, j] >= threshold
        ]
        pairs.sort(key=lambda t: -t[2])
        return pairs


def ibs_matrix(
    samples: np.ndarray,
    device: str | GPUArchitecture = "Titan V",
    framework: SNPComparisonFramework | None = None,
) -> KinshipResult:
    """All-pairs IBS via the XOR kernel on the simulated GPU."""
    bits = np.asarray(samples)
    if bits.ndim != 2:
        raise DatasetError("ibs_matrix: expected a 2-D binary matrix")
    if bits.shape[1] == 0:
        raise DatasetError("ibs_matrix: zero sites carry no IBS information")
    framework = framework_for(
        "ibs_matrix", framework, device, Algorithm.FASTID_IDENTITY
    )
    distances, report = framework.run(bits, bits)
    ibs = 1.0 - distances / bits.shape[1]
    freqs = bits.mean(axis=0)
    # Unbiased random-pair IBS: the plug-in p^2 + (1-p)^2 of sample
    # frequencies overestimates by 2 p(1-p)/(n-1) per site (Var(p_hat)
    # enters both squares), which matters for small cohorts.
    n = bits.shape[0]
    plug_in = freqs**2 + (1.0 - freqs) ** 2
    if n > 1:
        plug_in = plug_in - 2.0 * freqs * (1.0 - freqs) / (n - 1)
    expected = float(np.mean(plug_in))
    return KinshipResult(ibs=ibs, expected_random_ibs=expected, report=report)


def kinship_screen(
    samples: np.ndarray,
    device: str | GPUArchitecture = "Titan V",
    min_excess: float = 0.05,
) -> list[tuple[int, int, float]]:
    """Convenience wrapper: the related pairs of :func:`ibs_matrix`."""
    return ibs_matrix(samples, device).related_pairs(min_excess)
