"""Property tests: fused numpy kernels == scalar reference, exactly.

Hypothesis generates random pmf stacks (including zero rows, empty bins,
one-hot mass and denormal weights) and asserts the fused numpy kernels and
the mirrored scalar references produce the **same IEEE floats** — equality
is ``np.array_equal``, never approx, because the two backends share dtype
and order of operations by construction.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.histogram import HistogramSpec
from repro.engine.kernels import _REF_KERNELS, cross_matrix, pairwise_matrix
from repro.metrics import get_metric

KERNEL_METRICS = tuple(sorted(_REF_KERNELS))


def _pmf_stack(rows: list, bins: int) -> np.ndarray:
    stack = np.array(rows, dtype=np.float64).reshape(len(rows), bins)
    sums = stack.sum(axis=1, keepdims=True)
    # Normalise rows with mass; keep all-zero rows as-is (empty partitions).
    np.divide(stack, sums, out=stack, where=sums > 0)
    return stack


def _weights() -> st.SearchStrategy:
    return st.one_of(
        st.floats(
            min_value=0.0,
            max_value=1.0,
            allow_nan=False,
            allow_infinity=False,
        ),
        # Denormal / tiny weights: the scalar mirror must not flush or
        # reorder them differently from the fused reductions.
        st.sampled_from([0.0, 5e-324, 1e-308, 2.5e-310, 1e-45]),
    )


@st.composite
def pmf_stacks(draw):
    bins = draw(st.integers(min_value=1, max_value=24))
    k = draw(st.integers(min_value=1, max_value=6))
    rows = [
        draw(st.lists(_weights(), min_size=bins, max_size=bins))
        for _ in range(k)
    ]
    return _pmf_stack(rows, bins)


@pytest.mark.parametrize("name", KERNEL_METRICS)
@given(stack=pmf_stacks())
# A stack on which a per-pair pure-Python JS loop differs from the fused
# kernel in the last ulp; numpy and scalar must still agree exactly.
@example(
    stack=np.array(
        [
            [2.550927115810358e-45, 0.0, 1.0],
            [0.49999999999999506, 0.49999999999999506, 9.881312916824765e-15],
            [0.9652844478791605, 0.03471555212083958, 0.0],
        ]
    )
)
@settings(max_examples=40, deadline=None)
def test_fused_equals_scalar_reference(name: str, stack: np.ndarray) -> None:
    metric = get_metric(name)
    spec = HistogramSpec(bins=stack.shape[1])
    fused = pairwise_matrix(metric, stack, spec, kernel="numpy")
    scalar = pairwise_matrix(metric, stack, spec, kernel="scalar")
    assert np.array_equal(fused, scalar)
    cross_fused = cross_matrix(metric, stack, stack[::-1], spec, kernel="numpy")
    cross_scalar = cross_matrix(metric, stack, stack[::-1], spec, kernel="scalar")
    assert np.array_equal(cross_fused, cross_scalar)


@pytest.mark.parametrize("name", KERNEL_METRICS)
@pytest.mark.parametrize(
    "stack",
    [
        np.zeros((3, 5)),                                      # empty bins only
        np.ones((4, 1)),                                       # single-bin pmfs
        np.eye(6)[:4],                                         # all mass in one bin
        np.array([[5e-324] * 4 + [1.0 - 4 * 5e-324]] * 3),      # denormal weights
        np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]),        # duplicates + one-hot
    ],
    ids=["zero-rows", "single-bin", "one-hot", "denormal", "duplicate-onehot"],
)
def test_degenerate_pmfs_bit_identical(name: str, stack: np.ndarray) -> None:
    metric = get_metric(name)
    spec = HistogramSpec(bins=stack.shape[1])
    fused = pairwise_matrix(metric, stack, spec, kernel="numpy")
    scalar = pairwise_matrix(metric, stack, spec, kernel="scalar")
    assert np.array_equal(fused, scalar)
    assert np.array_equal(
        cross_matrix(metric, stack, stack, spec, kernel="numpy"),
        cross_matrix(metric, stack, stack, spec, kernel="scalar"),
    )


@pytest.mark.parametrize("kernel", ("numpy", "scalar"))
@pytest.mark.parametrize("name", KERNEL_METRICS)
@given(stack=pmf_stacks(), split=st.integers(min_value=0, max_value=6))
@settings(max_examples=40, deadline=None)
def test_kernels_are_exactly_symmetric(
    name: str, kernel: str, stack: np.ndarray, split: int
) -> None:
    """d(a, b) == d(b, a) bit for bit, whatever block a pair is taken in.

    The atom search slices every child's sibling tracker from one pairwise
    matrix of the family and scores all candidates in one stacked block;
    both equal the per-block values only because of this.
    """
    metric = get_metric(name)
    spec = HistogramSpec(bins=stack.shape[1])
    forward = cross_matrix(metric, stack, stack, spec, kernel=kernel)
    assert np.array_equal(forward, forward.T)
    off_diagonal = ~np.eye(stack.shape[0], dtype=bool)
    pairwise = pairwise_matrix(metric, stack, spec, kernel=kernel)
    assert np.array_equal(pairwise[off_diagonal], forward[off_diagonal])
    left, right = stack[:split], stack[split:]
    assert np.array_equal(
        cross_matrix(metric, left, right, spec, kernel=kernel),
        cross_matrix(metric, right, left, spec, kernel=kernel).T,
    )
