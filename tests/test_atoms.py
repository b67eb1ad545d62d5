"""Atom-table fast path: construction, resolution, bit-identity.

The load-bearing guarantees (see docs/performance.md):

* ``AtomTable`` row-sums equal ``HistogramSpec.histogram_from_bin_indices``
  over the matching member indices — exact int64 arithmetic, so the atom
  path and the member path produce the *same IEEE floats*, not merely close
  ones;
* every algorithm returns bit-identical results with atoms on or off;
* the engine's value cache evicts least-recently-used entries at cap and
  counts evictions;
* the scalar ``cross_matrix`` fallback deduplicates repeated histogram rows
  before paying for ``metric.distance`` calls.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.engine.engine as engine_module
from repro.core.algorithms import get_algorithm
from repro.core.attributes import (
    CategoricalAttribute,
    IntegerAttribute,
    ObservedAttribute,
)
from repro.core.histogram import HistogramSpec
from repro.core.partition import Partition
from repro.core.population import Population
from repro.core.schema import WorkerSchema
from repro.core.splitting import split_partition
from repro.engine.atoms import AtomTable
from repro.engine.engine import EvaluationEngine
from repro.engine.kernels import cross_matrix
from repro.metrics.base import HistogramDistance
from repro.obs.metrics import MetricsRegistry

SPEC = HistogramSpec(bins=8)


def _random_population(rng: np.random.Generator, n: int) -> Population:
    schema = WorkerSchema(
        protected=(
            CategoricalAttribute("a", ("x", "y")),
            CategoricalAttribute("b", ("u", "v", "w")),
            IntegerAttribute("c", 0, 9, buckets=2),
        ),
        observed=(ObservedAttribute("skill", 0.0, 1.0),),
    )
    return Population(
        schema,
        protected={
            "a": rng.integers(0, 2, size=n),
            "b": rng.integers(0, 3, size=n),
            "c": rng.integers(0, 10, size=n),
        },
        observed={"skill": rng.random(n)},
    )


def _random_split_chain(
    rng: np.random.Generator, population: Population
) -> list[Partition]:
    """Partitions reached by a random sequence of splits from the root."""
    reached = [Partition(population.all_indices())]
    frontier = list(reached)
    for _ in range(int(rng.integers(1, 4))):
        parent = frontier[int(rng.integers(len(frontier)))]
        remaining = [
            a
            for a in population.schema.protected_names
            if a not in parent.constrained_attributes()
        ]
        if not remaining:
            break
        children = split_partition(
            population, parent, remaining[int(rng.integers(len(remaining)))]
        )
        frontier.remove(parent)
        frontier.extend(children)
        reached.extend(children)
    return reached


# ------------------------------------------------------- table construction


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_atom_histograms_equal_member_bincounts(seed: int) -> None:
    """Property: for every partition reachable by splitting, the atom
    row-sum equals the member-path histogram exactly (int64 == int64)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 120))
    population = _random_population(rng, n)
    scores = rng.random(n)
    bin_idx = SPEC.bin_indices(scores)
    table = AtomTable.build(population, bin_idx, SPEC.bins)

    assert int(table.sizes.sum()) == n
    assert np.array_equal(table.histogram(np.arange(table.n_atoms)), np.bincount(bin_idx, minlength=SPEC.bins))

    for partition in _random_split_chain(rng, population):
        rows = table.resolve(partition)
        assert rows is not None, "split-reachable partitions must resolve"
        assert table.verify(partition, rows)
        expected = SPEC.histogram_from_bin_indices(bin_idx[partition.indices])
        assert np.array_equal(table.histogram(rows), expected)
        assert int(table.sizes[rows].sum()) == partition.size


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_split_rows_matches_split_partition(seed: int) -> None:
    """Grouped aggregation over atom rows yields the same children, in the
    same (ascending-code) order, as the member-array split."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(10, 120))
    population = _random_population(rng, n)
    bin_idx = SPEC.bin_indices(rng.random(n))
    table = AtomTable.build(population, bin_idx, SPEC.bins)

    for parent in _random_split_chain(rng, population):
        rows = table.resolve(parent)
        assert rows is not None
        for attribute in population.schema.protected_names:
            if attribute in parent.constrained_attributes():
                continue
            children = split_partition(population, parent, attribute)
            groups = table.group_rows([rows], attribute).groups()
            assert len(groups) == len(children)
            for group, child in zip(groups, children):
                assert np.array_equal(
                    table.histogram(group),
                    SPEC.histogram_from_bin_indices(bin_idx[child.indices]),
                )
                assert int(table.sizes[group].sum()) == child.size


def test_resolution_rejects_untrusted_partitions(small_population) -> None:
    bin_idx = SPEC.bin_indices(np.linspace(0, 1, small_population.size, endpoint=False))
    table = AtomTable.build(small_population, bin_idx, SPEC.bins)
    # Unknown attribute in the conjunction -> KeyError / None.
    with pytest.raises(KeyError):
        table.rows_for_constraints((("nope", 0),))
    assert table.resolve(Partition(np.array([0, 1]), (("nope", 0),))) is None
    # Constraints that do not describe the member set fail the size
    # cross-check: claim the whole gender=0 cell but hold one member.
    lying = Partition(np.array([0]), (("gender", 0),))
    assert table.resolve(lying) is None
    # An honest constrained partition resolves and verifies.
    honest = split_partition(
        small_population, Partition(small_population.all_indices()), "gender"
    )[0]
    rows = table.resolve(honest)
    assert rows is not None and table.verify(honest, rows)


def test_table_handles_no_protected_attributes() -> None:
    """Defensive guard: with zero protected attributes everything collapses
    into one atom.  (``WorkerSchema`` itself refuses empty protected sets,
    so the branch is exercised through a minimal stand-in.)"""

    class _Bare:
        size = 2

        class schema:
            protected_names = ()

    table = AtomTable.build(_Bare(), np.array([1, 6]), SPEC.bins)
    assert table.n_atoms == 1
    assert np.array_equal(
        table.histogram(np.array([0])),
        SPEC.histogram_from_bin_indices(np.array([1, 6])),
    )


# -------------------------------------------------------- engine atom paths


def _run(algorithm: str, population, scores, **kwargs):
    return get_algorithm(algorithm).run(population, scores, metric="emd", rng=5, **kwargs)


# The atom-vs-member bit-identity matrix moved to
# tests/parity/test_execution_parity.py (shared parity harness).


def test_atom_path_disabled_in_full_mode(small_population) -> None:
    engine = EvaluationEngine(
        small_population, np.linspace(0, 1, 12, endpoint=False), mode="full"
    )
    assert not engine.use_atoms
    assert engine.atom_rows(Partition(small_population.all_indices())) is None


def test_atom_hit_and_fallback_counters(small_population) -> None:
    metrics = MetricsRegistry()
    engine = EvaluationEngine(
        small_population, np.linspace(0, 1, 12, endpoint=False), metrics=metrics
    )
    root = Partition(small_population.all_indices())
    engine.pmf(root)
    engine.pmf(root)  # cached resolution: counted once
    engine.pmf(Partition(np.array([0, 3])))  # constraints don't cover members
    counters = metrics.as_dict()["counters"]
    assert counters["engine.atom_hits"] == 1
    assert counters["engine.atom_fallbacks"] == 1
    assert metrics.as_dict()["gauges"]["engine.atoms"] >= 1


def test_score_attribute_splits_declines_gracefully(small_population) -> None:
    engine = EvaluationEngine(small_population, np.linspace(0, 1, 12, endpoint=False))
    root = Partition(small_population.all_indices())
    constrained = split_partition(small_population, root, "gender")
    # Attribute already constrained on a partition -> member path decides.
    assert engine.score_attribute_splits(constrained, ["gender"]) is None
    assert engine.split_pmfs(constrained[0], ["gender"]) is None
    # Unknown attribute -> None (legacy path raises the canonical error).
    assert engine.score_attribute_splits([root], ["nope"]) is None
    # Atoms off -> None.
    off = EvaluationEngine(
        small_population, np.linspace(0, 1, 12, endpoint=False), use_atoms=False
    )
    assert off.score_attribute_splits([root], ["gender"]) is None
    assert off.split_pmfs(root, ["gender"]) is None


# ------------------------------------------------------------ LRU value cache


def test_value_cache_evicts_lru_and_counts(small_population, monkeypatch) -> None:
    monkeypatch.setattr(engine_module, "_CACHE_CAP", 2)
    metrics = MetricsRegistry()
    engine = EvaluationEngine(
        small_population, np.linspace(0, 1, 12, endpoint=False), metrics=metrics
    )
    root = Partition(small_population.all_indices())
    splits = {
        attr: split_partition(small_population, root, attr)
        for attr in ("gender", "country", "age")
    }
    engine.unfairness(splits["gender"])
    engine.unfairness(splits["country"])  # cache is now at cap
    assert engine.stats.cache_hits == 0
    engine.unfairness(splits["gender"])  # hit refreshes recency
    assert engine.stats.cache_hits == 1
    engine.unfairness(splits["age"])  # evicts "country" (least recent)
    counters = metrics.as_dict()["counters"]
    assert counters["engine.cache_evictions"] == 1
    assert len(engine._value_cache) == 2
    engine.unfairness(splits["gender"])  # still cached
    assert engine.stats.cache_hits == 2
    full_before = engine.stats.n_full_evaluations
    engine.unfairness(splits["country"])  # evicted: recomputed from scratch
    assert engine.stats.n_full_evaluations == full_before + 1


# --------------------------------------------- scalar cross_matrix dedup


class _CountingMetric(HistogramDistance):
    """A metric with no vectorized kernel that counts distance calls."""

    name = "counting-tv"

    def __init__(self) -> None:
        self.calls = 0

    def distance(self, p: np.ndarray, q: np.ndarray, spec: HistogramSpec) -> float:
        self.calls += 1
        return 0.5 * float(np.abs(p - q).sum())


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_cross_matrix_dedup_matches_naive_loop(seed: int) -> None:
    """The scalar fallback pays one ``distance`` call per *distinct* row
    pair and broadcasts, matching the naive full double loop exactly."""
    rng = np.random.default_rng(seed)
    base_left = rng.dirichlet(np.ones(SPEC.bins), size=int(rng.integers(1, 4)))
    base_right = rng.dirichlet(np.ones(SPEC.bins), size=int(rng.integers(1, 4)))
    left = base_left[rng.integers(0, base_left.shape[0], size=int(rng.integers(1, 9)))]
    right = base_right[rng.integers(0, base_right.shape[0], size=int(rng.integers(1, 9)))]

    metric = _CountingMetric()
    fast = cross_matrix(metric, left, right, SPEC)
    n_unique = (
        np.unique(left, axis=0).shape[0] * np.unique(right, axis=0).shape[0]
    )
    assert metric.calls == n_unique

    naive = np.array(
        [[metric.distance(p, q, SPEC) for q in right] for p in left]
    )
    assert np.array_equal(fast, naive)
