"""Re-pricing repaired score vectors against a fixed partitioning.

The mitigation loop keeps asking one question: *given the audit's worst
partitioning, how unfair is this candidate score vector?* — once for the
original scores, once per repaired vector.  Answering it through a fresh
:class:`~repro.core.unfairness.UnfairnessEvaluator` would re-digitise and
re-histogram per partition object; this module instead prices a whole
before/after pair in two vectorized passes:

* the partitioning is flattened once into a per-worker group-code array
  (like the atom table's cell codes);
* each score vector's group histograms come from **one** ``np.bincount``
  over ``code * bins + bin_index`` — O(n + k·bins), independent of how the
  partitions nest;
* the objective is scored by the engine's shared
  :func:`~repro.engine.kernels.full_objective` kernel, which is the same
  code path the search uses — so repaired-ranking prices are
  bit-comparable with audit results.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.histogram import HistogramSpec
from repro.core.partition import Partitioning
from repro.engine.kernels import full_objective
from repro.exceptions import PartitioningError
from repro.metrics.base import HistogramDistance, get_metric

__all__ = ["RepricingReport", "partition_codes", "group_pmfs", "price_repair"]


def partition_codes(partitioning: Partitioning) -> np.ndarray:
    """Flatten a partitioning into one int64 group code per worker.

    ``codes[w]`` is the position of worker ``w``'s partition in iteration
    order; the full-disjoint-cover invariant guarantees every worker gets
    exactly one code.
    """
    codes = np.empty(partitioning.population_size, dtype=np.int64)
    for group, partition in enumerate(partitioning):
        codes[partition.indices] = group
    return codes


def group_pmfs(
    bin_idx: np.ndarray, codes: np.ndarray, k: int, bins: int
) -> np.ndarray:
    """Normalised per-group score histograms in one ``bincount`` pass."""
    counts = np.bincount(codes * bins + bin_idx, minlength=k * bins)
    counts = counts.reshape(k, bins).astype(np.float64)
    return counts / counts.sum(axis=1, keepdims=True)


@dataclass(frozen=True)
class RepricingReport:
    """Unfairness of one partitioning under two score vectors.

    ``pmfs_before`` / ``pmfs_after`` are the ``(k, bins)`` group histogram
    stacks the two objective values were computed from (exposed for
    reporting: per-group distribution shift).
    """

    unfairness_before: float
    unfairness_after: float
    pmfs_before: np.ndarray
    pmfs_after: np.ndarray


def price_repair(
    partitioning: Partitioning,
    scores_before: np.ndarray,
    scores_after: np.ndarray,
    hist_spec: "HistogramSpec | None" = None,
    metric: "str | HistogramDistance" = "emd",
    weighting: str = "uniform",
) -> RepricingReport:
    """Price a repair: the partitioning's unfairness before and after.

    Semantically identical to two
    :meth:`~repro.core.unfairness.UnfairnessEvaluator.unfairness` calls on
    the same partitioning (same spec, metric and weighting), but computed
    in two vectorized histogram passes plus two kernel evaluations.
    """
    spec = hist_spec or HistogramSpec()
    metric = get_metric(metric)
    if weighting not in ("uniform", "size"):
        raise PartitioningError(
            f"weighting must be 'uniform' or 'size', got {weighting!r}"
        )
    n = partitioning.population_size
    before = np.asarray(scores_before, dtype=np.float64)
    after = np.asarray(scores_after, dtype=np.float64)
    for label, scores in (("scores_before", before), ("scores_after", after)):
        if scores.shape != (n,):
            raise PartitioningError(
                f"{label} have shape {scores.shape}, expected ({n},)"
            )
        if not np.isfinite(scores).all():
            raise PartitioningError(f"{label} contain non-finite values")
    codes = partition_codes(partitioning)
    k = partitioning.k
    pmfs_before = group_pmfs(spec.bin_indices(before), codes, k, spec.bins)
    pmfs_after = group_pmfs(spec.bin_indices(after), codes, k, spec.bins)
    weights = None
    if weighting == "size":
        weights = np.array([p.size for p in partitioning], dtype=np.float64)
    value_before, _ = full_objective(metric, pmfs_before, spec, weights)
    value_after, _ = full_objective(metric, pmfs_after, spec, weights)
    return RepricingReport(
        unfairness_before=float(value_before),
        unfairness_after=float(value_after),
        pmfs_before=pmfs_before,
        pmfs_after=pmfs_after,
    )
