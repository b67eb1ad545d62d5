"""Streaming audits: mutation log, incremental atoms, O(Δ) re-scoring.

The load-bearing property throughout: after ANY interleaving of
add/remove/update_score mutations, a streaming re-audit is bit-identical —
same unfairness float, same groups, same true group sizes — to a fresh
batch audit of the frozen final population.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.partition import Partition, Partitioning
from repro.engine.atoms import AtomTable, decode_keys, encode_codes
from repro.engine.engine import EvaluationEngine
from repro.engine.streaming import (
    MutableAtomState,
    StreamingAuditor,
    StreamingEngine,
    proxy_population,
)
from repro.exceptions import MutationError, PartitioningError, PopulationError
from repro.marketplace.streaming import (
    Mutation,
    MutablePopulation,
    random_mutation_mix,
    read_mutation_stream,
    write_mutation_stream,
)
# Shared with the parity harness; see tests/parity/conftest.py for the
# single definitions of the store builders and table helpers.
from tests.parity.conftest import batch_audit, mutate, small_store


class TestMutablePopulationValidation:
    def test_duplicate_worker_ids_rejected_at_construction(self) -> None:
        store = small_store()
        population, scores = store.to_population()
        ids = np.zeros(population.size, dtype=np.int64)
        with pytest.raises(MutationError, match="duplicate worker ids"):
            MutablePopulation.from_population(
                population, scores, hist_spec=store.hist_spec, ids=ids
            )

    def test_non_finite_scores_rejected_at_construction(self) -> None:
        store = small_store()
        population, scores = store.to_population()
        scores = scores.copy()
        scores[3] = np.nan
        with pytest.raises(MutationError):
            MutablePopulation.from_population(
                population, scores, hist_spec=store.hist_spec
            )

    def test_add_validates_before_mutating(self) -> None:
        store = small_store()
        before = store.state_digest()
        with pytest.raises(MutationError):
            store.add(score=float("inf"), protected=self._protected(store))
        with pytest.raises(MutationError):
            store.add(score=0.5, protected={"nope": 0})
        assert store.state_digest() == before

    def test_duplicate_add_and_unknown_remove(self) -> None:
        store = small_store()
        wid = int(store.worker_ids()[0])
        with pytest.raises(MutationError):
            store.add(score=0.5, protected=self._protected(store), worker_id=wid)
        with pytest.raises(MutationError):
            store.remove(worker_id=10**9)

    def test_score_out_of_histogram_range_rejected(self) -> None:
        store = small_store()
        wid = int(store.worker_ids()[0])
        with pytest.raises(MutationError):
            store.update_score(wid, store.hist_spec.high + 1.0)

    @staticmethod
    def _protected(store: MutablePopulation) -> dict:
        values = {}
        population, _ = store.to_population()
        for attr in population.schema.protected:
            values[attr.name] = population.protected_column(attr.name)[0]
        return values

    def test_mutation_kind_payload_validation(self) -> None:
        with pytest.raises(MutationError):
            Mutation(kind="warp")
        with pytest.raises(MutationError):
            Mutation(kind="remove")  # no worker_id
        with pytest.raises(MutationError):
            Mutation(kind="update_score", worker_id=1)  # no score
        with pytest.raises(MutationError):
            Mutation(kind="add")  # no attributes
        with pytest.raises(MutationError):
            Mutation(kind="remove", worker_id=True)

    def test_numpy_integer_worker_ids_accepted(self) -> None:
        store = small_store()
        wid = store.worker_ids()[0]  # np.int64
        store.update_score(wid, 0.5)
        assert store.score_of(int(wid)) == 0.5


class TestMutationStream:
    def test_round_trip(self, tmp_path) -> None:
        store = small_store()
        mutations = random_mutation_mix(store, np.random.default_rng(5), 40)
        path = tmp_path / "mutations.jsonl"
        write_mutation_stream(path, mutations)
        loaded = read_mutation_stream(path)
        assert loaded == list(mutations)

    def test_state_round_trip_preserves_digest(self) -> None:
        store = small_store()
        mutate(store, seed=9, count=60)
        payload = store.state_payload()
        population, _ = store.to_population()
        clone = MutablePopulation.from_state_payload(
            population.schema, payload, store.hist_spec
        )
        assert clone.state_digest() == store.state_digest()
        assert clone.next_id == store.next_id
        # Replay continues identically on both copies.
        for twin in (store, clone):
            mutate(twin, seed=10, count=20)
        assert clone.state_digest() == store.state_digest()


class TestAtomStateMaintenance:
    def test_mixed_radix_round_trip(self) -> None:
        cards = (3, 4, 5)
        rng = np.random.default_rng(0)
        codes = np.column_stack(
            [rng.integers(c, size=50) for c in cards]
        ).astype(np.int64)
        keys = np.array(
            [encode_codes(row, cards) for row in codes], dtype=np.int64
        )
        assert np.array_equal(decode_keys(keys, cards), codes)

    def test_incremental_state_matches_bulk_build(self) -> None:
        store = small_store()
        state = MutableAtomState.from_store(store)
        mutate(store, seed=3, count=200)
        for applied in store.log_since(state.version):
            state.apply(applied)
        population, scores = store.to_population()
        built = AtomTable.build(
            population, store.hist_spec.bin_indices(scores), store.hist_spec.bins
        )
        table = state.materialize()
        assert np.array_equal(built.counts, table.counts)
        assert np.array_equal(built.codes, table.codes)
        assert int(table.counts.sum()) == store.size

    def test_underflow_raises(self) -> None:
        store = small_store()
        state = MutableAtomState.from_store(store)
        applied = store.log_since(0)
        assert applied == []
        wid = int(store.worker_ids()[0])
        store.remove(wid)
        (removal,) = store.log_since(0)
        state.apply(removal)
        with pytest.raises(MutationError, match="underflow"):
            state.apply(removal)


class TestProxyPopulation:
    def test_proxy_rows_are_atoms(self) -> None:
        store = small_store()
        population, scores = store.to_population()
        table = AtomTable.build(
            population, store.hist_spec.bin_indices(scores), store.hist_spec.bins
        )
        proxy = proxy_population(population.schema, table)
        assert proxy.size == table.n_atoms
        for column, name in enumerate(
            a.name for a in population.schema.protected
        ):
            assert np.array_equal(
                proxy.partition_codes(name), table.codes[:, column]
            )


class TestStreamingBitIdentity:
    # The full interleaving × algorithm × metric bit-identity matrix and
    # the size-weighting case moved to tests/parity/test_streaming_parity.py.

    def test_remove_all_but_a_few(self) -> None:
        store = small_store(seed=3, n_workers=60)
        keep = 4
        for wid in store.worker_ids()[keep:]:
            store.remove(int(wid))
        auditor = StreamingAuditor(store, seed=0)
        report = auditor.audit()
        result = batch_audit(store)
        assert report.unfairness == result.unfairness
        assert store.size == keep

    def test_empty_population_refuses_audit(self) -> None:
        store = small_store(seed=4, n_workers=10)
        for wid in store.worker_ids():
            store.remove(int(wid))
        auditor = StreamingAuditor(store, seed=0)
        with pytest.raises(MutationError):
            auditor.audit()


class TestDeltaRescoring:
    def test_update_only_delta_matches_direct_evaluation(self) -> None:
        store = small_store(seed=7)
        auditor = StreamingAuditor(store, seed=0)
        baseline = auditor.audit()
        mutate(store, seed=51, count=25, weights=(0.0, 0.0, 1.0))
        delta = auditor.rescore_delta()
        assert delta is not None and not delta.stale
        assert delta.kind == "delta"
        assert delta.population_size == store.size
        # Re-evaluate the frozen partitioning on the final population.
        population, scores = store.to_population()
        engine = EvaluationEngine(
            population, scores, hist_spec=store.hist_spec, metric="emd"
        )
        partitions = []
        for constraints in baseline.groups:
            mask = np.ones(population.size, dtype=bool)
            for name, code in constraints:
                mask &= population.partition_codes(name) == code
            partitions.append(
                Partition(np.nonzero(mask)[0], tuple(constraints))
            )
        expected = engine.unfairness(
            Partitioning(partitions, population.size)
        )
        engine.close()
        assert delta.unfairness == pytest.approx(expected, abs=1e-12)

    def test_unseen_code_combination_marks_stale(self) -> None:
        store = small_store(seed=8)
        auditor = StreamingAuditor(store, seed=0)
        auditor.audit()
        # Adds can introduce code combinations outside every frontier
        # group; keep adding until the frontier gives up.
        stale = False
        for seed in range(60, 75):
            mutate(store, seed=seed, count=10, weights=(1.0, 0.0, 0.0))
            delta = auditor.rescore_delta()
            assert delta is not None
            if delta.stale:
                stale = True
                break
        assert stale, "adds never left the audited frontier"
        # A full audit clears staleness and is again bit-identical.
        report = auditor.audit()
        result = batch_audit(store)
        assert report.unfairness == result.unfairness

    def test_delta_before_any_audit_is_none(self) -> None:
        store = small_store(seed=9)
        auditor = StreamingAuditor(store, seed=0)
        assert auditor.rescore_delta() is None


class TestStreamingEngineGuards:
    def test_full_mode_rejected(self) -> None:
        store = small_store()
        population, scores = store.to_population()
        table = AtomTable.build(
            population, store.hist_spec.bin_indices(scores), store.hist_spec.bins
        )
        proxy = proxy_population(population.schema, table)
        proxy_scores = np.full(proxy.size, store.hist_spec.low)
        with pytest.raises(PartitioningError):
            StreamingEngine(
                proxy,
                proxy_scores,
                table=table,
                hist_spec=store.hist_spec,
                mode="full",
            )

    def test_rebind_size_mismatch_rejected(self) -> None:
        store = small_store()
        population, scores = store.to_population()
        table = AtomTable.build(
            population, store.hist_spec.bin_indices(scores), store.hist_spec.bins
        )
        proxy = proxy_population(population.schema, table)
        proxy_scores = np.full(proxy.size, store.hist_spec.low)
        engine = StreamingEngine(
            proxy, proxy_scores, table=table, hist_spec=store.hist_spec
        )
        with pytest.raises(PartitioningError):
            engine.rebind(population, scores, table)


class TestSubsetDuplicateBugfix:
    def test_duplicate_subset_indices_rejected(self) -> None:
        store = small_store()
        population, _ = store.to_population()
        with pytest.raises(PopulationError, match="duplicate"):
            population.subset(np.array([0, 1, 1]))
