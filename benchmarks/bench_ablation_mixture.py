"""Ablation: mixture-analysis kernel variants (Section VI-E1).

Three ways to compute ``popcount(r & ~m)``:

1. fused AND-NOT in the kernel (free on NVIDIA's LOP3-class ALUs),
2. explicit NOT + AND (what Vega executes without fusion),
3. pre-negated database + plain AND (the paper's recommendation for
   Vega -- "mixture analysis reduces down to the same computation as
   linkage disequilibrium").

All three must agree bit-exactly; their *throughput* differs exactly
where the paper says it does.
"""

import numpy as np
import pytest

from repro.blis.microkernel import ComparisonOp
from repro.core.config import Algorithm
from repro.core.framework import SNPComparisonFramework
from repro.gpu.arch import TITAN_V, VEGA_64
from repro.gpu.cycles import peak_word_ops_per_second
from repro.snp.forensic import generate_database, make_mixture
from repro.snp.stats import mixture_scores_naive


@pytest.mark.artifact("ablation")
def bench_mixture_variants_agree(benchmark):
    """Functional equivalence of the fused and pre-negated kernels."""
    db = generate_database(400, 256, rng=0)
    refs = db.profiles[:64]
    mixtures = np.vstack(
        [make_mixture(db.profiles[i : i + 3]) for i in range(0, 30, 3)]
    )
    oracle = mixture_scores_naive(refs, mixtures)

    def run_both():
        fused = SNPComparisonFramework(
            TITAN_V, Algorithm.FASTID_MIXTURE, prenegate=False
        )
        pre = SNPComparisonFramework(
            VEGA_64, Algorithm.FASTID_MIXTURE, prenegate=True
        )
        s1, _ = fused.run(refs, mixtures)
        s2, _ = pre.run(refs, mixtures)
        return s1, s2

    s_fused, s_pre = benchmark(run_both)
    assert (s_fused == oracle).all()
    assert (s_pre == oracle).all()


@pytest.mark.artifact("ablation")
def bench_mixture_kernel_choice_per_vendor(benchmark, gpu):
    """Peak-throughput ranking of the three variants per device."""

    def peaks():
        return {
            "fused": peak_word_ops_per_second(gpu, ComparisonOp.ANDNOT),
            "prenegated": peak_word_ops_per_second(gpu, ComparisonOp.AND_PRENEGATED),
            "ld": peak_word_ops_per_second(gpu, ComparisonOp.AND),
        }

    peaks_by_variant = benchmark(peaks)
    # Pre-negation always reaches the LD rate.
    assert peaks_by_variant["prenegated"] == peaks_by_variant["ld"]
    if gpu.has_fused_andnot:
        # NVIDIA: nothing to gain from pre-negating.
        assert peaks_by_variant["fused"] == peaks_by_variant["ld"]
    else:
        # Vega: pre-negation buys back the full 3:2 ALU penalty.
        assert peaks_by_variant["fused"] == pytest.approx(
            peaks_by_variant["ld"] * 2 / 3
        )
    print(
        f"\n{gpu.name}: "
        + ", ".join(f"{k}={v / 1e9:.0f} GPOPS" for k, v in peaks_by_variant.items())
    )
