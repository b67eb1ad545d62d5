"""Unit and property tests for the EMD implementation.

The closed form is cross-checked against ``scipy.stats.wasserstein_distance``
and the metric axioms are verified with hypothesis.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import wasserstein_distance

from repro.core.histogram import HistogramSpec
from repro.exceptions import MetricError
from repro.metrics.base import get_metric
from repro.metrics.emd import (
    EMDDistance,
    average_pairwise_emd,
    emd,
    pairwise_emd_matrix,
    sum_pairwise_abs_differences,
)

pmf_strategy = st.lists(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=10, max_size=10
).map(lambda xs: np.array(xs) + 1e-9).map(lambda a: a / a.sum())


class TestClosedForm:
    def test_identical_histograms_have_zero_distance(self) -> None:
        p = np.array([0.5, 0.5, 0.0])
        assert emd(p, p) == 0.0

    def test_adjacent_bin_shift_costs_one_bin_width(self) -> None:
        p = np.array([1.0, 0.0, 0.0])
        q = np.array([0.0, 1.0, 0.0])
        assert emd(p, q, bin_width=0.1) == pytest.approx(0.1)

    def test_full_range_shift_costs_full_distance(self) -> None:
        # All mass in the first bin vs all in the last: EMD = (bins-1)*width.
        p = np.zeros(10)
        p[0] = 1.0
        q = np.zeros(10)
        q[9] = 1.0
        assert emd(p, q, bin_width=0.1) == pytest.approx(0.9)

    def test_table3_f6_calibration(self) -> None:
        # A gender-biased function puts males above 0.8 and females below
        # 0.2; with 10 bins the expected EMD is about 0.8 in score units —
        # the value the paper reports for balanced on f6.
        spec = HistogramSpec(bins=10)
        males = spec.normalized_histogram(np.random.default_rng(0).uniform(0.8, 1.0, 500))
        females = spec.normalized_histogram(np.random.default_rng(1).uniform(0.0, 0.2, 500))
        assert emd(males, females, spec.bin_width) == pytest.approx(0.8, abs=0.02)

    def test_shape_mismatch_rejected(self) -> None:
        with pytest.raises(MetricError, match="shapes differ"):
            emd(np.array([1.0]), np.array([0.5, 0.5]))

    @given(pmf_strategy, pmf_strategy)
    @settings(max_examples=50)
    def test_matches_scipy_wasserstein(self, p: np.ndarray, q: np.ndarray) -> None:
        # scipy computes W1 between distributions over bin-center locations.
        centers = np.arange(10, dtype=np.float64)
        ours = emd(p, q, bin_width=1.0)
        scipys = wasserstein_distance(centers, centers, p, q)
        assert ours == pytest.approx(scipys, abs=1e-9)

    @given(pmf_strategy, pmf_strategy)
    @settings(max_examples=50)
    def test_symmetry(self, p: np.ndarray, q: np.ndarray) -> None:
        assert emd(p, q) == pytest.approx(emd(q, p))

    @given(pmf_strategy, pmf_strategy, pmf_strategy)
    @settings(max_examples=50)
    def test_triangle_inequality(
        self, p: np.ndarray, q: np.ndarray, r: np.ndarray
    ) -> None:
        assert emd(p, r) <= emd(p, q) + emd(q, r) + 1e-9

    @given(pmf_strategy)
    @settings(max_examples=50)
    def test_identity_of_indiscernibles(self, p: np.ndarray) -> None:
        assert emd(p, p) == pytest.approx(0.0, abs=1e-12)

    @given(pmf_strategy, pmf_strategy)
    @settings(max_examples=50)
    def test_bounded_by_score_range(self, p: np.ndarray, q: np.ndarray) -> None:
        # With bin width 1/bins, EMD can never exceed the score range (1.0).
        assert emd(p, q, bin_width=0.1) <= 1.0 + 1e-9


class TestAggregates:
    def test_sum_pairwise_abs_differences_matches_naive(self) -> None:
        rng = np.random.default_rng(3)
        values = rng.uniform(size=17)
        naive = sum(
            abs(values[i] - values[j])
            for i in range(17)
            for j in range(i + 1, 17)
        )
        assert sum_pairwise_abs_differences(values) == pytest.approx(naive)

    def test_sum_pairwise_abs_differences_trivial_cases(self) -> None:
        assert sum_pairwise_abs_differences(np.array([])) == 0.0
        assert sum_pairwise_abs_differences(np.array([3.0])) == 0.0

    def test_pairwise_matrix_is_symmetric_with_zero_diagonal(self) -> None:
        rng = np.random.default_rng(5)
        pmfs = rng.dirichlet(np.ones(10), size=6)
        matrix = pairwise_emd_matrix(pmfs, bin_width=0.1)
        np.testing.assert_allclose(matrix, matrix.T)
        np.testing.assert_allclose(np.diag(matrix), 0.0)

    def test_average_pairwise_matches_matrix_mean(self) -> None:
        rng = np.random.default_rng(6)
        pmfs = rng.dirichlet(np.ones(10), size=9)
        matrix = pairwise_emd_matrix(pmfs, bin_width=0.1)
        k = pmfs.shape[0]
        expected = matrix[np.triu_indices(k, 1)].mean()
        assert average_pairwise_emd(pmfs, bin_width=0.1) == pytest.approx(expected)

    def test_average_pairwise_fewer_than_two_is_zero(self) -> None:
        assert average_pairwise_emd(np.ones((1, 10)) / 10) == 0.0

    def test_fast_average_scales_to_many_histograms(self) -> None:
        # The O(bins * k log k) path must agree with the naive path at k=200.
        rng = np.random.default_rng(7)
        pmfs = rng.dirichlet(np.ones(10), size=200)
        matrix = pairwise_emd_matrix(pmfs, bin_width=0.1)
        expected = matrix[np.triu_indices(200, 1)].mean()
        assert average_pairwise_emd(pmfs, bin_width=0.1) == pytest.approx(expected)


class TestMetricObject:
    def test_registered_under_emd(self) -> None:
        assert isinstance(get_metric("emd"), EMDDistance)

    def test_distance_uses_score_units(self) -> None:
        spec = HistogramSpec(bins=10)
        p = np.zeros(10)
        p[0] = 1.0
        q = np.zeros(10)
        q[9] = 1.0
        assert get_metric("emd")(p, q, spec) == pytest.approx(0.9)

    def test_rejects_unnormalised_histogram(self) -> None:
        spec = HistogramSpec(bins=3)
        with pytest.raises(MetricError, match="sum to 1"):
            get_metric("emd")(np.array([1.0, 1.0, 0.0]), np.array([1.0, 0.0, 0.0]), spec)

    def test_rejects_negative_mass(self) -> None:
        spec = HistogramSpec(bins=3)
        with pytest.raises(MetricError, match="negative"):
            get_metric("emd")(
                np.array([1.5, -0.5, 0.0]), np.array([1.0, 0.0, 0.0]), spec
            )

    def test_rejects_wrong_width(self) -> None:
        spec = HistogramSpec(bins=4)
        with pytest.raises(MetricError, match="expected"):
            get_metric("emd")(np.ones(3) / 3, np.ones(3) / 3, spec)

    def test_average_cross(self) -> None:
        spec = HistogramSpec(bins=10)
        metric = EMDDistance()
        rng = np.random.default_rng(8)
        left = rng.dirichlet(np.ones(10), size=3)
        right = rng.dirichlet(np.ones(10), size=4)
        expected = np.mean(
            [[metric.distance(p, r, spec) for r in right] for p in left]
        )
        assert metric.average_cross(left, right, spec) == pytest.approx(expected)

    def test_average_cross_empty_side_is_zero(self) -> None:
        spec = HistogramSpec(bins=10)
        metric = EMDDistance()
        assert metric.average_cross(np.zeros((0, 10)), np.ones((1, 10)) / 10, spec) == 0.0
