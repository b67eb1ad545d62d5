"""Monitored populations: the streaming job type of the audit daemon.

A **monitor** is a long-lived mutable population living inside the daemon.
Clients create one from a typed :class:`MonitorSpec`, then stream
add/remove/update_score mutations at it over HTTP; the daemon folds each
accepted batch into the population's atom state (O(Δ) per batch via
:class:`~repro.engine.streaming.StreamingAuditor`), re-audits on a
debounced schedule and appends every unfairness-over-time point to the
crash-safe journal.

Intake discipline mirrors job submission exactly:

* every accepted batch is **journaled ahead of the acknowledgement** — a
  SIGKILL after the HTTP 200 can never lose applied mutations;
* a batch that fails validation mid-way journals its applied prefix and is
  rejected with ``invalid_spec`` plus the failing position — the journal
  always describes exactly the state the daemon holds;
* more unaudited mutations than ``buffer_limit`` reject with
  ``queue_full`` (the same typed backpressure taxonomy as the job queue);
* a draining daemon rejects with ``shutting_down``.

Re-audit scheduling is debounce-with-a-cap: an audit fires once the stream
has been quiet for ``debounce_seconds``, but never later than
``max_delay_seconds`` after the first unaudited mutation, and each audit
runs under the spec's cooperative deadline
(:class:`~repro.engine.deadline.Deadline`), so one huge population cannot
starve the scheduler loop.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, fields, replace
from typing import Any, Mapping

from repro.exceptions import MutationError, ServiceError
from repro.service.jobs import KNOWN_SCENARIOS

__all__ = ["MonitorSpec", "MonitoredPopulation"]

#: Removed kernel backends a journaled spec may still name, each mapped to
#: the one it now runs on.  ``fingerprint()`` covers ``backend``,
#: ``workers`` and ``kernel``, so such a spec keeps the old names (its
#: snapshot still restores).  The auditor reads neither ``backend`` nor
#: ``workers`` (every monitor audits in-process) and resolves ``kernel``
#: here.  A new monitor may name only a ``backend`` of null or
#: ``"sequential"`` and one of ``KERNEL_BACKENDS``.  Daemons that once
#: rewrote ``"numba"`` inside the spec snapshotted it under ``"numpy"``;
#: ``snapshot_fingerprints()`` accepts both.
RETIRED_KERNELS = {"numba": "numpy"}


@dataclass(frozen=True)
class MonitorSpec:
    """Everything that defines one monitored population.

    The spec is the monitor's identity: its canonical-JSON SHA-256 is the
    fingerprint that gates snapshot restore.  Initial population and scores
    are generated deterministically from ``(scenario, n_workers, seed,
    function)``, so the same spec always starts from the same state.
    """

    id: str
    scenario: str = "table1"
    function: "str | None" = None
    algorithm: str = "balanced"
    metric: str = "emd"
    weighting: str = "uniform"
    n_workers: "int | None" = None
    seed: int = 0
    backend: "str | None" = None
    workers: "int | None" = None
    debounce_seconds: float = 0.25
    max_delay_seconds: float = 2.0
    buffer_limit: int = 4096
    deadline_seconds: "float | None" = None
    delta_series: bool = True
    # Kernel backend for the distance computations; None = daemon default.
    # Bit-identical across backends, and omitted from to_dict() when unset,
    # so pre-existing spec fingerprints (which gate snapshot restore) are
    # unchanged by its introduction.  The retired "numba" backend, which
    # journals may still name, runs as "numpy" (RETIRED_KERNELS).
    kernel: "str | None" = None

    def __post_init__(self) -> None:
        if not self.id or not isinstance(self.id, str):
            raise ServiceError("monitor spec needs a non-empty string id")
        if any(ch in self.id for ch in "/\\\0 \t\n"):
            raise ServiceError(
                f"monitor id {self.id!r} must be a path-safe token"
            )
        if self.scenario not in KNOWN_SCENARIOS:
            raise ServiceError(
                f"unknown scenario {self.scenario!r}; known: {sorted(KNOWN_SCENARIOS)}"
            )
        if self.n_workers is not None and self.n_workers < 1:
            raise ServiceError(f"n_workers must be >= 1, got {self.n_workers}")
        if self.debounce_seconds < 0:
            raise ServiceError("debounce_seconds must be >= 0")
        if self.max_delay_seconds < self.debounce_seconds:
            raise ServiceError(
                "max_delay_seconds must be >= debounce_seconds "
                f"({self.max_delay_seconds} < {self.debounce_seconds})"
            )
        if self.buffer_limit < 1:
            raise ServiceError(f"buffer_limit must be >= 1, got {self.buffer_limit}")
        if self.deadline_seconds is not None and self.deadline_seconds <= 0:
            raise ServiceError("deadline_seconds must be positive")
        from repro.core.algorithms import get_algorithm
        from repro.exceptions import ReproError
        from repro.metrics.base import get_metric

        try:
            get_algorithm(self.algorithm)
            get_metric(self.metric)
        except ReproError as exc:
            raise ServiceError(str(exc)) from exc
        if self.weighting not in ("uniform", "size"):
            raise ServiceError(
                f"unknown weighting {self.weighting!r}; use 'uniform' or 'size'"
            )

    # ------------------------------------------------------------- (de)serde

    def to_dict(self) -> dict:
        payload: dict = {"id": self.id, "scenario": self.scenario}
        defaults = MonitorSpec(id=self.id, scenario=self.scenario)
        for spec_field in fields(self):
            if spec_field.name in ("id", "scenario"):
                continue
            value = getattr(self, spec_field.name)
            if value != getattr(defaults, spec_field.name):
                payload[spec_field.name] = value
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "MonitorSpec":
        known = {spec_field.name for spec_field in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ServiceError(f"unknown monitor spec field(s): {unknown}")
        if "id" not in payload:
            raise ServiceError("monitor spec needs an id")
        return cls(**dict(payload))

    def fingerprint(self) -> str:
        from repro.service.snapshot import spec_fingerprint

        return spec_fingerprint(self.to_dict())

    def snapshot_fingerprints(self) -> "set[str]":
        """Fingerprints of the specs this monitor's snapshot may carry:
        its own, and for a retired kernel the spec with it resolved."""
        kernel = RETIRED_KERNELS.get(self.kernel, self.kernel)
        return {self.fingerprint(), replace(self, kernel=kernel).fingerprint()}

    # ----------------------------------------------------------- construction

    def _config(self):
        from repro.simulation.config import PaperConfig

        if self.n_workers is not None:
            return PaperConfig(n_workers=self.n_workers)
        return PaperConfig()

    def worker_schema(self):
        """The population schema this monitor's stores are built under."""
        if self.scenario == "figure1":
            from repro.simulation.scenarios import figure1_scenario

            return figure1_scenario().population.schema
        return self._config().schema()

    def hist_spec(self):
        from repro.core.histogram import HistogramSpec
        from repro.simulation.scenarios import figure1_scenario

        if self.scenario == "figure1":
            return figure1_scenario().hist_spec
        return HistogramSpec(bins=self._config().histogram_bins)

    def build_scenario(self):
        from repro.simulation import scenarios as scenario_builders

        if self.scenario == "figure1":
            return scenario_builders.figure1_scenario()
        builder = getattr(scenario_builders, f"{self.scenario}_scenario")
        return builder(self._config())

    def build_store(self):
        """Deterministic initial :class:`MutablePopulation` for this spec."""
        from repro.marketplace.streaming import MutablePopulation

        scenario = self.build_scenario()
        name = self.function or sorted(scenario.functions)[0]
        if name not in scenario.functions:
            raise ServiceError(
                f"scenario {self.scenario!r} has no function {name!r}; "
                f"available: {sorted(scenario.functions)}"
            )
        scores = scenario.functions[name](scenario.population)
        return MutablePopulation.from_population(
            scenario.population, scores, hist_spec=scenario.hist_spec
        )


@dataclass
class MonitoredPopulation:
    """One live monitor: store + streaming auditor + unfairness series.

    All mutation and audit work runs under :attr:`lock`; the service's
    journal writes happen inside the same critical section, so the journal
    order always matches the applied order.
    """

    spec: MonitorSpec
    store: Any
    created_at: float
    series: "list[dict]" = field(default_factory=list)
    lock: threading.RLock = field(default_factory=threading.RLock)
    auditor: Any = None
    unaudited: int = 0
    first_pending_at: "float | None" = None
    last_mutation_at: "float | None" = None
    last_audit_version: "int | None" = None
    snapshot_version: "int | None" = None
    audits: int = 0
    mutations_applied: int = 0

    def ensure_auditor(self, metrics=None):
        """Lazily build the persistent :class:`StreamingAuditor`."""
        if self.auditor is None:
            from repro.engine.streaming import StreamingAuditor

            self.auditor = StreamingAuditor(
                self.store,
                algorithm=self.spec.algorithm,
                metric=self.spec.metric,
                weighting=self.spec.weighting,
                seed=self.spec.seed,
                metrics=metrics,
                kernel=RETIRED_KERNELS.get(self.spec.kernel, self.spec.kernel),
            )
        return self.auditor

    # -------------------------------------------------------------- intake

    def apply_batch(self, mutations: "list[Mapping[str, Any]]", now: float) -> dict:
        """Apply a validated prefix of ``mutations``; return batch info.

        On a mid-batch validation failure the applied prefix stays applied
        (each mutation validates *before* mutating, so the store is never
        half-mutated); the returned info carries ``error`` and the failing
        ``position``.  The caller journals whatever :meth:`batch_record`
        describes — the applied prefix — and rejects the request.
        """
        from repro.marketplace.streaming import Mutation

        base_version = self.store.version
        applied = 0
        error: "MutationError | None" = None
        position = None
        for position, payload in enumerate(mutations):
            try:
                mutation = (
                    payload
                    if isinstance(payload, Mutation)
                    else Mutation.from_dict(payload)
                )
                self.store.apply(mutation)
            except MutationError as exc:
                error = exc
                break
            applied += 1
        self.mutations_applied += applied
        if applied:
            self.unaudited += applied
            if self.first_pending_at is None:
                self.first_pending_at = now
            self.last_mutation_at = now
        info = {
            "applied": applied,
            "base_version": base_version,
            "version": self.store.version,
        }
        if error is not None:
            info["error"] = str(error)
            info["position"] = position
        return info

    def batch_record(self, info: dict, now: float) -> "dict | None":
        """The journal record for one (possibly partial) applied batch."""
        if not info["applied"]:
            return None
        applied = [
            entry.mutation.to_dict()
            for entry in self.store.log_since(info["base_version"])
            if entry.seq <= info["version"]
        ]
        return {
            "type": "mpop_mutations",
            "id": self.spec.id,
            "ts": now,
            "base_version": info["base_version"],
            "version": info["version"],
            "mutations": applied,
        }

    # ------------------------------------------------------------ scheduling

    def should_audit(self, now: float) -> bool:
        """Debounce with a staleness cap (see the module docstring)."""
        if self.unaudited <= 0:
            return False
        if self.last_mutation_at is None:
            return True
        quiet = now - self.last_mutation_at
        waiting = now - (self.first_pending_at or now)
        return (
            quiet >= self.spec.debounce_seconds
            or waiting >= self.spec.max_delay_seconds
        )

    def run_audit(self, now: float, metrics=None) -> dict:
        """Full streaming re-audit; returns the journal/series record."""
        from repro.engine.deadline import Deadline

        auditor = self.ensure_auditor(metrics=metrics)
        deadline = (
            Deadline(self.spec.deadline_seconds)
            if self.spec.deadline_seconds is not None
            else None
        )
        report = auditor.audit(deadline=deadline)
        self.unaudited = 0
        self.first_pending_at = None
        self.last_audit_version = report.version
        self.audits += 1
        return self._point(report, now)

    def run_delta(self, now: float) -> "dict | None":
        """O(k·Δ) re-score of the last audited partitioning, if possible."""
        if self.auditor is None:
            return None
        report = self.auditor.rescore_delta()
        if report is None:
            return None
        return self._point(report, now)

    def _point(self, report, now: float) -> dict:
        return {
            "type": "mpop_audit",
            "id": self.spec.id,
            "ts": now,
            "kind": report.kind,
            "version": report.version,
            "unfairness": report.unfairness,
            "population_size": report.population_size,
            "n_partitions": report.n_partitions,
            "duration_seconds": report.duration_seconds,
            "deadline_hit": report.deadline_hit,
            "stale": report.stale,
        }

    @staticmethod
    def series_point(record: dict) -> dict:
        """A journal ``mpop_audit`` record reduced to its series form."""
        return {
            key: value
            for key, value in record.items()
            if key not in ("type", "id")
        }

    # --------------------------------------------------------------- queries

    def as_dict(self) -> dict:
        with self.lock:
            return {
                "id": self.spec.id,
                "spec": self.spec.to_dict(),
                "created_at": self.created_at,
                "population_size": self.store.size,
                "version": self.store.version,
                "unaudited": self.unaudited,
                "audits": self.audits,
                "mutations_applied": self.mutations_applied,
                "series_points": len(self.series),
                "last_unfairness": (
                    self.series[-1]["unfairness"] if self.series else None
                ),
                "snapshot_version": self.snapshot_version,
            }
