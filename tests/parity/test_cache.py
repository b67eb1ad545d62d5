"""Cache correctness: the content-addressed cross-job cache can make audits
cheaper but can never make them *different*.

Covers the satellite contract: digest collisions are rejected, mutation of a
monitored population invalidates exactly its entries, a SIGKILL'd daemon
replays its journal into a consistent cache-cold state, and a cache hit
reproduces the miss result byte-for-byte (digest-asserted).
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from repro.service import AuditService, ServiceConfig
from repro.service import cache as cache_mod
from repro.service.cache import (
    CachingEngineFactory,
    CrossJobCache,
    cached_audit,
    population_fingerprint,
    scores_fingerprint,
)
from repro.service.jobs import AuditJob
from repro.service.monitor import MonitorSpec

from tests.parity.conftest import (
    build_population,
    build_scores,
    run_audit,
    value_digest,
)


def _rows_digest(result: dict) -> str:
    return json.dumps(result["rows"], sort_keys=True)


# ------------------------------------------------------------------ unit level


class TestCrossJobCache:
    def test_round_trip_and_lru_eviction(self):
        cache = CrossJobCache(max_bytes=100)
        cache.put(("a",), {"v": 1}, 40)
        cache.put(("b",), {"v": 2}, 40)
        assert cache.get(("a",)) == {"v": 1}  # refresh a's recency
        cache.put(("c",), {"v": 3}, 40)  # evicts b (LRU), not a
        assert cache.get(("b",)) is None
        assert cache.get(("a",)) == {"v": 1}
        assert cache.get(("c",)) == {"v": 3}
        assert cache.evictions == 1

    def test_oversized_entry_not_admitted(self):
        cache = CrossJobCache(max_bytes=100)
        cache.put(("small",), {"v": 1}, 40)
        cache.put(("huge",), {"v": 2}, 101)
        assert cache.get(("huge",)) is None
        assert cache.get(("small",)) == {"v": 1}  # untouched

    def test_disabled_cache_never_stores(self):
        for budget in (None, 0):
            cache = CrossJobCache(max_bytes=budget)
            cache.put(("a",), {"v": 1}, 10)
            assert cache.get(("a",)) is None
            assert not cache.enabled

    def test_fingerprint_collisions_rejected(self, monkeypatch):
        """Two different key materials forced onto one digest: the lookup
        compares the full material and refuses to serve the wrong payload."""
        monkeypatch.setattr(cache_mod, "cache_key", lambda material: "constant")
        cache = CrossJobCache(max_bytes=1000)
        cache.put(("material-a",), {"v": "a"}, 10)
        assert cache.get(("material-b",)) is None  # collision → rejected
        assert cache.collisions == 1
        assert cache.get(("material-a",)) == {"v": "a"}

    def test_invalidate_owner_is_exact(self):
        cache = CrossJobCache(max_bytes=10_000)
        cache.put(("a1",), {"v": 1}, 10, owner="monitor:a")
        cache.put(("a2",), {"v": 2}, 10, owner="monitor:a")
        cache.put(("b1",), {"v": 3}, 10, owner="monitor:b")
        cache.put(("s1",), {"v": 4}, 10, owner="scenario:x")
        assert cache.invalidate_owner("monitor:a") == 2
        assert cache.get(("a1",)) is None
        assert cache.get(("a2",)) is None
        assert cache.get(("b1",)) == {"v": 3}
        assert cache.get(("s1",)) == {"v": 4}
        assert cache.invalidate_owner("monitor:a") == 0

    def test_fingerprints_track_content(self):
        population = build_population("small")
        scores = build_scores(population, 11)
        assert population_fingerprint(population) == population_fingerprint(population)
        assert scores_fingerprint(scores) == scores_fingerprint(scores)
        other = scores.copy()
        other[0] = np.nextafter(other[0], 1.0)
        assert scores_fingerprint(scores) != scores_fingerprint(other)
        subset = population.subset(np.arange(population.size - 1))
        assert population_fingerprint(population) != population_fingerprint(subset)


# ------------------------------------------------------------ engine factory


def test_warm_engine_reproduces_cold_run_bit_for_bit():
    """An audit through a warm CachingEngineFactory (atoms + value cache
    both hits) is digest-identical to the cold run that populated it."""
    population = build_population("paper300")
    scores = build_scores(population, 23)
    cache = CrossJobCache(max_bytes=64 * 1024 * 1024)
    factory = CachingEngineFactory(cache)
    cold = run_audit(population, scores, engine_factory=factory)
    assert cache.stats()["entries"] >= 1
    warm = run_audit(population, scores, engine_factory=factory)
    assert cache.hits >= 1
    # The warm run legitimately does *less work* (seeded value cache), but
    # the answer — full-precision float, groups, tie-breaks — is identical.
    assert value_digest(warm) == value_digest(cold)
    # And identical to a run that never saw a cache at all.
    plain = run_audit(population, scores)
    assert value_digest(plain) == value_digest(cold)


def test_cached_audit_memoises_exactly():
    """The full-result memo replays the stored result only when every piece
    of search-determining material matches, and the cold run it stores is
    the same answer an uncached audit produces."""
    population = build_population("small")
    scores = build_scores(population, 11)
    cache = CrossJobCache(max_bytes=16 * 1024 * 1024)
    cold = cached_audit(cache, "balanced", population, scores, rng=5)
    warm = cached_audit(cache, "balanced", population, scores, rng=5)
    assert warm is cold  # replayed, not recomputed
    assert value_digest(cold) == value_digest(run_audit(population, scores))
    # Any material change misses: different seed, metric, or scores.
    assert cached_audit(cache, "balanced", population, scores, rng=6) is not cold
    assert (
        cached_audit(cache, "balanced", population, scores, rng=5, metric="js")
        is not cold
    )
    other = scores.copy()
    other[0] = np.nextafter(other[0], 1.0)
    assert cached_audit(cache, "balanced", population, other, rng=5) is not cold
    # A live generator cannot be fingerprinted: bypasses the memo safely.
    bypass = cached_audit(
        cache, "balanced", population, scores, rng=np.random.default_rng(5)
    )
    assert bypass is not cold


# ------------------------------------------------------------- service level


@pytest.fixture()
def service(tmp_path):
    svc = AuditService(
        ServiceConfig(
            tmp_path,
            workers=1,
            port=None,
            monitor_poll_seconds=0.02,
        )
    ).start()
    yield svc
    svc.stop()


def _wait_for_audit(svc, monitor_id: str, minimum: int = 1, timeout: float = 20.0):
    deadline = time.time() + timeout
    while time.time() < deadline:
        if svc.monitor(monitor_id).audits >= minimum:
            return
        time.sleep(0.02)
    raise AssertionError(f"monitor {monitor_id} never reached {minimum} audits")


class TestServiceCache:
    def test_cache_hit_reproduces_miss_byte_for_byte(self, service):
        service.submit(AuditJob(id="cold", scenario="figure1"))
        assert service.drain(timeout=120)
        cold = service.record("cold").result
        hits_before = service.cache.hits
        service.submit(AuditJob(id="warm", scenario="figure1"))
        assert service.drain(timeout=120)
        warm = service.record("warm").result
        assert service.cache.hits > hits_before
        assert _rows_digest(warm) == _rows_digest(cold)

    def test_mutation_invalidates_exactly_its_monitor(self, service):
        for monitor_id in ("ma", "mb"):
            service.create_monitor(
                MonitorSpec(
                    id=monitor_id,
                    scenario="table1",
                    n_workers=200,
                    debounce_seconds=0.0,
                    delta_series=False,
                )
            )
            service.apply_mutations(
                monitor_id,
                [{"kind": "update_score", "worker_id": 1, "score": 0.5}],
            )
            _wait_for_audit(service, monitor_id)
        # Both monitors harvested an entry each.
        stats = service.cache.stats()
        assert stats["entries"] >= 2
        invalidated_before = service.cache.invalidated
        service.apply_mutations(
            "ma", [{"kind": "update_score", "worker_id": 2, "score": 0.9}]
        )
        assert service.cache.invalidated == invalidated_before + 1
        # mb's entry survived: the next mb audit can still hit it, and the
        # re-audit of the mutated ma is computed fresh (never stale).
        _wait_for_audit(service, "ma", minimum=2)
        series = service.monitor_series("ma")
        audits = [point for point in series if point["kind"] == "audit"]
        from tests.parity.conftest import batch_audit

        fresh = batch_audit(service.monitor("ma").store, algorithm="balanced")
        assert audits[-1]["unfairness"] == fresh.unfairness

    def test_sigkill_journal_replay_restores_cache_cold_state(self, tmp_path):
        config = ServiceConfig(
            tmp_path, workers=1, port=None, monitor_poll_seconds=0.02,
        )
        svc = AuditService(config).start()
        svc.submit(AuditJob(id="j1", scenario="figure1"))
        assert svc.drain(timeout=120)
        svc.create_monitor(
            MonitorSpec(
                id="m1",
                scenario="table1",
                n_workers=200,
                debounce_seconds=0.0,
                delta_series=False,
            )
        )
        svc.apply_mutations(
            "m1", [{"kind": "update_score", "worker_id": 1, "score": 0.4}]
        )
        _wait_for_audit(svc, "m1")
        assert svc.cache.stats()["entries"] >= 1
        # SIGKILL: abandon the daemon without stop() — no drain, no goodbye.
        # Only the journal (and snapshots) survive; close the file handle the
        # way the OS would.
        svc._shutdown.set()
        for thread in svc._threads + [svc._monitor_thread]:
            thread.join(timeout=10)
        svc.journal.close()
        revived = AuditService(config).start()
        try:
            # State is consistent (job result intact, monitor restored)...
            assert revived.record("j1").result is not None
            assert revived.monitor("m1").store.size > 0
            # ...and the cache is cold: no entry outlives the process.
            stats = revived.cache.stats()
            assert stats["entries"] == 0
            assert stats["bytes"] == 0
            assert stats["hits"] == 0
        finally:
            revived.stop()
