"""Content-addressed cross-job cache for the audit service.

Repeated audits of the same tenant redo the same expensive setup: generate
the scenario population, build the atom table, and re-derive pair scores the
previous job already paid for.  This module removes that waste without ever
risking a stale answer, by addressing every cache entry with the *content*
it was derived from:

- ``("scenario", name, n_workers)`` — the generated scenario object
  (population + scoring functions).  Scenario generation is deterministic
  given those two values, so the memo is exact.
- ``("atoms", population fp, scores fp, bin spec)`` — the
  :class:`~repro.engine.atoms.AtomTable` for one (population, scoring
  function, binning) triple.  The fingerprints hash the protected columns
  and the score vector byte-for-byte, so any change to either produces a
  different key rather than a wrong hit.
- ``("values", population fp, scores fp, bin spec, metric, weighting)`` —
  the engine's objective value cache.  Its keys are themselves
  content-addressed (sorted pmf-byte multisets), so entries transplant
  safely between engines sharing the same spec/metric/weighting.
- ``("audit", ...)`` / ``("experiment", ...)`` — full audit results
  (:func:`cached_audit`) and whole experiment payloads (the service's
  ``_execute``).  The search trajectory is a pure function of the
  population, the score vector, the bin spec, metric, weighting,
  algorithm and seed (and the execution backend, whose identity the
  result *reports*), so replaying a stored result is byte-for-byte what
  re-running the search would produce.

The kernel backend is deliberately **not** part of any key: the parity
harness (``tests/parity/``) proves every backend bit-identical, so a value
computed under one backend is byte-for-byte the value under another.

Lookups compare the full key material, not just its digest — a digest
collision is rejected (counted in ``service.cache_collisions``) instead of
served.  Eviction is LRU under a byte budget.  The cache is in-memory only:
a crash plus journal replay restores a consistent *cache-cold* daemon, so
no invalidation logic has to survive restarts.  Mutation of a monitored
population invalidates exactly that monitor's entries via the owner index
(:meth:`CrossJobCache.invalidate_owner`).

Metrics: ``service.cache_hits`` / ``service.cache_misses`` /
``service.cache_evictions`` / ``service.cache_collisions`` /
``service.cache_invalidated`` counters and ``service.cache_bytes`` /
``service.cache_entries`` gauges.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict

import numpy as np

from repro.core.histogram import HistogramSpec
from repro.engine.engine import EvaluationEngine
from repro.metrics import get_metric

__all__ = [
    "CachingEngineFactory",
    "CrossJobCache",
    "cache_key",
    "cached_audit",
    "value_cache_nbytes",
    "population_fingerprint",
    "scores_fingerprint",
    "spec_token",
]


# ------------------------------------------------------------- fingerprints


def population_fingerprint(population) -> str:
    """Content hash of the protected columns that drive partitioning.

    Two populations with equal fingerprints produce identical atom tables
    and identical partition code streams, which is exactly the reuse
    contract the cache needs.
    """
    digest = hashlib.sha256()
    digest.update(
        repr((population.size, tuple(population.schema.protected_names))).encode()
    )
    for name in population.schema.protected_names:
        codes = np.ascontiguousarray(population.partition_codes(name))
        digest.update(repr((codes.shape, str(codes.dtype))).encode())
        digest.update(codes.tobytes())
    return digest.hexdigest()


def scores_fingerprint(scores) -> str:
    """Content hash of one scoring function's output vector."""
    array = np.ascontiguousarray(np.asarray(scores, dtype=np.float64))
    digest = hashlib.sha256()
    digest.update(repr(array.shape).encode())
    digest.update(array.tobytes())
    return digest.hexdigest()


def spec_token(spec: "HistogramSpec | None") -> tuple:
    """Canonical, hashable form of a histogram spec."""
    spec = spec if spec is not None else HistogramSpec()
    return (int(spec.bins), float(spec.low), float(spec.high))


def cache_key(material: tuple) -> str:
    """Digest of one entry's full key material."""
    return hashlib.sha256(repr(material).encode()).hexdigest()


def value_cache_nbytes(values: dict) -> int:
    """Byte estimate of an exported engine value cache."""
    total = 0
    for key in values:
        total += 72  # tuple + dict-slot + float overhead
        for part in key:
            if isinstance(part, (bytes, bytearray)):
                total += len(part)
            elif isinstance(part, tuple):
                total += sum(
                    len(p) if isinstance(p, (bytes, bytearray)) else 16 for p in part
                )
            else:
                total += 16
    return total


def _scenario_nbytes(scenario) -> int:
    """Byte estimate of a memoised scenario's population."""
    population = scenario.population
    total = 256
    for name in population.schema.protected_names:
        total += int(population.partition_codes(name).nbytes)
    for name in population.schema.observed_names:
        total += int(population.observed_column(name).nbytes)
    return total


# -------------------------------------------------------------------- cache


class _Entry:
    __slots__ = ("key", "material", "payload", "nbytes", "owner")

    def __init__(self, key, material, payload, nbytes, owner):
        self.key = key
        self.material = material
        self.payload = payload
        self.nbytes = nbytes
        self.owner = owner


class CrossJobCache:
    """Thread-safe content-addressed LRU cache with a byte budget.

    Parameters
    ----------
    max_bytes:
        Total payload budget; least-recently-used entries are evicted once
        it is exceeded.  ``None`` or ``<= 0`` disables the cache entirely
        (every ``get`` misses, every ``put`` is a no-op).
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry` receiving the
        ``service.cache_*`` counters and gauges.
    """

    def __init__(self, max_bytes: "int | None" = 256 * 1024 * 1024, metrics=None):
        self.max_bytes = int(max_bytes) if max_bytes else 0
        self.metrics = metrics
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, _Entry]" = OrderedDict()
        self._owners: "dict[str, set[str]]" = {}
        self._bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.collisions = 0
        self.invalidated = 0

    @property
    def enabled(self) -> bool:
        return self.max_bytes > 0

    def _inc(self, name: str, amount: int = 1) -> None:
        if self.metrics is not None and amount:
            self.metrics.inc(name, amount)

    def _publish_gauges(self) -> None:
        if self.metrics is not None:
            self.metrics.set_gauge("service.cache_bytes", self._bytes)
            self.metrics.set_gauge("service.cache_entries", len(self._entries))

    def get(self, material: tuple):
        """Payload for ``material``, or ``None`` on miss.

        A digest hit whose stored material differs (hash collision) is
        *rejected* — counted separately and reported as a miss — so a
        collision can degrade performance but never correctness.
        """
        if not self.enabled:
            return None
        key = cache_key(material)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                self._inc("service.cache_misses")
                return None
            if entry.material != material:
                self.collisions += 1
                self.misses += 1
                self._inc("service.cache_collisions")
                self._inc("service.cache_misses")
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            self._inc("service.cache_hits")
            return entry.payload

    def put(self, material: tuple, payload, nbytes: int, owner: "str | None" = None):
        """Insert (or refresh) one entry; evicts LRU past the byte budget.

        An entry larger than the whole budget is not stored at all —
        admitting it would immediately evict everything else for a payload
        that can never be kept.
        """
        if not self.enabled:
            return
        nbytes = max(int(nbytes), 1)
        if nbytes > self.max_bytes:
            return
        key = cache_key(material)
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._bytes -= old.nbytes
                self._unindex(old)
            entry = _Entry(key, material, payload, nbytes, owner)
            self._entries[key] = entry
            self._bytes += nbytes
            if owner is not None:
                self._owners.setdefault(owner, set()).add(key)
            evicted = 0
            while self._bytes > self.max_bytes and self._entries:
                victim_key, victim = next(iter(self._entries.items()))
                if victim_key == key:
                    break
                del self._entries[victim_key]
                self._bytes -= victim.nbytes
                self._unindex(victim)
                evicted += 1
            self.evictions += evicted
            self._inc("service.cache_evictions", evicted)
            self._publish_gauges()

    def _unindex(self, entry: _Entry) -> None:
        if entry.owner is not None:
            keys = self._owners.get(entry.owner)
            if keys is not None:
                keys.discard(entry.key)
                if not keys:
                    del self._owners[entry.owner]

    def invalidate_owner(self, owner: str) -> int:
        """Drop every entry tagged with ``owner``; returns the count.

        The audit service calls this under the monitor's lock whenever a
        mutation batch lands, so an O(Δ) re-audit can never be served
        artifacts derived from the pre-mutation population.
        """
        if not self.enabled:
            return 0
        with self._lock:
            keys = self._owners.pop(owner, None)
            if not keys:
                return 0
            dropped = 0
            for key in keys:
                entry = self._entries.pop(key, None)
                if entry is not None:
                    self._bytes -= entry.nbytes
                    dropped += 1
            self.invalidated += dropped
            self._inc("service.cache_invalidated", dropped)
            self._publish_gauges()
            return dropped

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._owners.clear()
            self._bytes = 0
            self._publish_gauges()

    def stats(self) -> dict:
        with self._lock:
            return {
                "entries": len(self._entries),
                "bytes": self._bytes,
                "max_bytes": self.max_bytes,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "collisions": self.collisions,
                "invalidated": self.invalidated,
            }

    # -------------------------------------------------------- scenario memo

    def scenario(self, name: str, n_workers: "int | None", builder):
        """Memoised scenario construction (population generation dominates
        cold-job latency at scale, so this is the big warm-job win)."""
        material = ("scenario", str(name), n_workers)
        hit = self.get(material)
        if hit is not None:
            return hit["scenario"]
        scenario = builder()
        self.put(
            material,
            {"scenario": scenario},
            _scenario_nbytes(scenario),
            owner=f"scenario:{name}",
        )
        return scenario


# ---------------------------------------------------- caching engine factory


class _HarvestingEngine(EvaluationEngine):
    """Engine that donates its atom table and value cache back on close."""

    def bind_cache(self, cache, atoms_material, values_material, owner):
        self._cjc_cache = cache
        self._cjc_atoms_material = atoms_material
        self._cjc_values_material = values_material
        self._cjc_owner = owner

    def close(self) -> None:
        cache = getattr(self, "_cjc_cache", None)
        self._cjc_cache = None
        if cache is not None:
            table = getattr(self, "_atom_table", None)
            if table is not None:
                cache.put(
                    self._cjc_atoms_material,
                    {"atom_table": table},
                    int(table.nbytes()),
                    owner=self._cjc_owner,
                )
            values = self.export_value_cache()
            if values:
                cache.put(
                    self._cjc_values_material,
                    {"value_cache": values},
                    value_cache_nbytes(values),
                    owner=self._cjc_owner,
                )
        super().close()


class CachingEngineFactory:
    """Drop-in ``engine_factory`` that reuses atoms and pair scores.

    Passed to :func:`~repro.simulation.runner.run_scenario` (and through it
    to every algorithm's ``run``): each engine it builds first looks up the
    cache for an atom table and a value cache matching its exact
    (population, scores, spec[, metric, weighting]) content, and donates
    its own artifacts back when closed.  Because both lookup keys and the
    engine's internal value-cache keys are content-addressed, a hit can
    only ever reproduce what a cold engine would have computed.
    """

    def __init__(self, cache: CrossJobCache, owner: "str | None" = None):
        self.cache = cache
        self.owner = owner

    def __call__(self, population, scores, **kwargs):
        spec = kwargs.get("hist_spec")
        metric = kwargs.get("metric", "emd")
        metric_name = get_metric(metric).name if isinstance(metric, str) else metric.name
        weighting = str(kwargs.get("weighting", "uniform"))
        if not self.cache.enabled:
            return EvaluationEngine(population, scores, **kwargs)
        pop_fp = population_fingerprint(population)
        score_fp = scores_fingerprint(scores)
        token = spec_token(spec)
        atoms_material = ("atoms", pop_fp, score_fp, token)
        values_material = ("values", pop_fp, score_fp, token, metric_name, weighting)
        atoms_hit = self.cache.get(atoms_material)
        values_hit = self.cache.get(values_material)
        if atoms_hit is not None:
            kwargs.setdefault("atom_table", atoms_hit["atom_table"])
        if values_hit is not None:
            kwargs.setdefault("seed_value_cache", values_hit["value_cache"])
        engine = _HarvestingEngine(population, scores, **kwargs)
        engine.bind_cache(self.cache, atoms_material, values_material, self.owner)
        return engine


# ------------------------------------------------------------ audit memo


def _result_nbytes(result) -> int:
    """Byte estimate of a stored :class:`AlgorithmResult` (the partition
    index arrays dominate at scale); builds no member array."""
    return 2048 + sum(partition.nbytes() for partition in result.partitioning)


def cached_audit(cache: CrossJobCache, algorithm: str, population, scores, **kwargs):
    """Content-addressed memo around one full ``algorithm.run`` audit.

    The key covers everything that pins the (deterministic) search
    trajectory: population + scores fingerprints, bin spec, metric,
    weighting, algorithm name, the integer seed, and the execution
    backend (whose identity the returned result reports).  The kernel
    backend is excluded — parity-proven bit-identical.  On a miss the
    audit runs through a :class:`CachingEngineFactory` bound to the same
    cache, so even result misses warm the atom and value families.

    A non-integer ``rng`` (a live generator) cannot be fingerprinted, so
    such calls bypass the result memo and only get engine-level caching.
    """
    from repro.core.algorithms.base import get_algorithm

    owner = kwargs.pop("owner", None)
    runner = get_algorithm(algorithm)
    rng = kwargs.get("rng")
    memoisable = (
        cache.enabled
        and (rng is None or isinstance(rng, (int, np.integer)))
        and kwargs.get("fault_config") is None
        and kwargs.get("deadline") is None
    )
    if not memoisable:
        kwargs.setdefault("engine_factory", CachingEngineFactory(cache, owner=owner))
        return runner.run(population, scores, **kwargs)
    metric = kwargs.get("metric", "emd")
    metric_name = get_metric(metric).name if isinstance(metric, str) else metric.name
    material = (
        "audit",
        str(algorithm),
        population_fingerprint(population),
        scores_fingerprint(scores),
        spec_token(kwargs.get("hist_spec")),
        metric_name,
        str(kwargs.get("weighting", "uniform")),
        None if rng is None else int(rng),
        str(kwargs.get("backend") or "sequential"),
        int(kwargs.get("workers") or 1),
    )
    hit = cache.get(material)
    if hit is not None:
        return hit["result"]
    kwargs.setdefault("engine_factory", CachingEngineFactory(cache, owner=owner))
    result = runner.run(population, scores, **kwargs)
    cache.put(material, {"result": result}, _result_nbytes(result), owner=owner)
    return result
