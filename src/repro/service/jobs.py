"""Typed job specs (``repro.job/v2``) and their lifecycle state machine.

An :class:`AuditJob` is one unit of work the daemon accepts.  Since the
``/v1`` API the spec is **kind-discriminated**: ``kind="audit"`` runs one
search algorithm over one scenario's scoring function(s) and reports the
most unfair partitioning; ``kind="mitigate"`` runs that same audit and then
*repairs* the ranking with a registered strategy, reporting unfairness
before/after and utility loss.  Either way the spec is a plain frozen
dataclass that round-trips through JSON exactly (the journal stores it
verbatim, tagged ``repro.job/v2``; untagged v1 records deserialise as audit
jobs), and execution is deterministic given the spec — which is what lets a
SIGKILL'd daemon re-run an in-flight job and land on byte-identical
results.

The lifecycle is a small explicit state machine::

    PENDING ──▶ RUNNING ──▶ DONE
       ▲           │  ├───▶ CANCELLED   (deadline expired → partial result)
       │           │  ├───▶ FAILED      (error, retry budget left)
       └───────────┘  └───▶ QUARANTINED (poison: failed max_attempts times)
        (retry / crash recovery)

``FAILED`` is a *transient* terminal: the server re-queues a failed job
(``FAILED → PENDING``) until its attempt budget is spent, then quarantines
it so a poison job cannot crash-loop the daemon.  ``RUNNING → PENDING`` is
the crash-recovery edge: a journal replay that finds a job ``RUNNING`` with
no terminal record re-queues it.
"""

from __future__ import annotations

import re
import zlib
from dataclasses import asdict, dataclass, field
from enum import Enum
from typing import Any, Mapping

from repro.exceptions import JobStateError, ServiceError

__all__ = [
    "AuditJob",
    "JobRecord",
    "JobState",
    "JOB_SCHEMA",
    "JOB_KINDS",
    "VALID_TRANSITIONS",
    "TERMINAL_STATES",
    "KNOWN_SCENARIOS",
    "check_transition",
]

#: Job ids are path- and log-safe tokens (they name checkpoint directories).
_ID_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")

#: Scenario names a job may reference (the CLI experiment artefacts).
KNOWN_SCENARIOS = ("figure1", "table1", "table2", "table3")

#: Schema tag emitted with every serialised spec.  ``from_dict`` accepts the
#: tag (and validates it) or its absence — v1 journals predate the tag and
#: always described audit jobs.
JOB_SCHEMA = "repro.job/v2"

#: The ``kind`` discriminator's legal values.
JOB_KINDS = ("audit", "mitigate")


class JobState(str, Enum):
    """Lifecycle states of one audit job."""

    PENDING = "PENDING"
    RUNNING = "RUNNING"
    DONE = "DONE"
    FAILED = "FAILED"
    CANCELLED = "CANCELLED"
    QUARANTINED = "QUARANTINED"


#: Legal state-machine edges; anything else is a bug and raises
#: :class:`~repro.exceptions.JobStateError` instead of corrupting the table.
VALID_TRANSITIONS: "dict[JobState, frozenset[JobState]]" = {
    JobState.PENDING: frozenset({JobState.RUNNING}),
    JobState.RUNNING: frozenset(
        {
            JobState.DONE,
            JobState.FAILED,
            JobState.CANCELLED,
            JobState.QUARANTINED,
            JobState.PENDING,  # crash recovery: re-queue an in-flight job
        }
    ),
    JobState.FAILED: frozenset({JobState.PENDING, JobState.QUARANTINED}),
    JobState.DONE: frozenset(),
    JobState.CANCELLED: frozenset(),
    JobState.QUARANTINED: frozenset(),
}

#: States a job never leaves (FAILED is transient: the retry loop exits it).
TERMINAL_STATES = frozenset({JobState.DONE, JobState.CANCELLED, JobState.QUARANTINED})


def check_transition(current: JobState, new: JobState) -> None:
    """Raise :class:`JobStateError` unless ``current → new`` is a legal edge."""
    if new not in VALID_TRANSITIONS[current]:
        raise JobStateError(
            f"illegal job transition {current.value} -> {new.value}; "
            f"legal: {sorted(s.value for s in VALID_TRANSITIONS[current])}"
        )


@dataclass(frozen=True)
class AuditJob:
    """One deterministic unit of audit work.

    Attributes
    ----------
    id:
        Caller-chosen unique token (also names the job's checkpoint
        directory, so it must be path-safe).
    scenario:
        Paper artefact to audit: ``figure1`` / ``table1`` / ``table2`` /
        ``table3``.
    algorithm:
        Search algorithm registry name (``balanced``, ``beam``, ...).
    functions:
        Scoring-function subset to run (empty = every function the scenario
        defines).  One journal row per (function, algorithm) cell.
    seed:
        Run seed; with the same spec it makes results byte-identical across
        daemon restarts.
    n_workers:
        Population-size override (``None`` = the scenario's default).
    priority:
        Smaller runs first among queued jobs (ties in submission order).
    deadline_seconds:
        Per-job compute budget, started when the job begins *executing*
        (queue wait does not consume it).  An expired job stops at the next
        iteration boundary and lands in ``CANCELLED`` with its flagged
        partial rows attached.  ``None`` = unbounded.
    max_attempts:
        Total tries before a repeatedly failing job is ``QUARANTINED``.
    metric:
        Histogram distance to optimise (paper default: EMD).
    kind:
        ``"audit"`` (detect only) or ``"mitigate"`` (detect, then repair the
        ranking with ``strategy`` and report before/after).
    strategy:
        Repair strategy registry name (mitigate jobs only): ``fair_topk`` /
        ``det_rerank`` / ``quantile``.
    top_k:
        Re-rank depth for mitigate jobs (``None`` = the full population).
    min_proportion / alpha / amount:
        Strategy knobs, forwarded to
        :func:`~repro.repair.repair_ranking` (see its docstring).
    kernel:
        Kernel backend for the distance computations (``"numpy"`` /
        ``"scalar"``; ``None`` = the daemon default).  Bit-identical across
        backends, so results are unchanged whichever is selected — it is a
        cost knob, not part of the job's identity.  The retired ``"numba"``
        backend, which journals may still name, maps to ``"numpy"``.
    tenant:
        Fair-share scheduling bucket.  Jobs compete for priority only
        within their tenant; across tenants the scheduler serves queues in
        weighted stride order (see ``repro.service.scheduling``).  Absent
        in old journals → ``"default"``.
    """

    id: str
    scenario: str
    algorithm: str = "balanced"
    functions: tuple[str, ...] = ()
    seed: int = 0
    n_workers: "int | None" = None
    priority: int = 0
    deadline_seconds: "float | None" = None
    max_attempts: int = 3
    metric: str = "emd"
    kind: str = "audit"
    strategy: str = "fair_topk"
    top_k: "int | None" = None
    min_proportion: float = 0.8
    alpha: float = 0.1
    amount: float = 1.0
    kernel: "str | None" = None
    tenant: str = "default"

    def __post_init__(self) -> None:
        if not _ID_PATTERN.match(self.id):
            raise ServiceError(
                f"job id {self.id!r} must match {_ID_PATTERN.pattern}"
            )
        if not _ID_PATTERN.match(self.tenant):
            raise ServiceError(
                f"tenant {self.tenant!r} must match {_ID_PATTERN.pattern}"
            )
        if self.scenario not in KNOWN_SCENARIOS:
            raise ServiceError(
                f"unknown scenario {self.scenario!r}; choose from {KNOWN_SCENARIOS}"
            )
        if self.deadline_seconds is not None and not self.deadline_seconds > 0:
            raise ServiceError(
                f"deadline_seconds must be > 0, got {self.deadline_seconds}"
            )
        if self.max_attempts < 1:
            raise ServiceError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.n_workers is not None and self.n_workers < 1:
            raise ServiceError(f"n_workers must be >= 1, got {self.n_workers}")
        if self.kernel == "numba":
            # Retired bit-identical twin of numpy; old journals replay.
            object.__setattr__(self, "kernel", "numpy")
        if self.kernel is not None:
            from repro.engine.kernels import KERNEL_BACKENDS

            if self.kernel not in KERNEL_BACKENDS:
                raise ServiceError(
                    f"unknown kernel backend {self.kernel!r}; "
                    f"choose from {KERNEL_BACKENDS}"
                )
        if self.kind not in JOB_KINDS:
            raise ServiceError(
                f"unknown job kind {self.kind!r}; choose from {JOB_KINDS}"
            )
        if self.kind == "mitigate":
            # Lazy import: the repair registry pulls in scipy, which plain
            # audit submissions should not pay for.
            from repro.repair import available_strategies

            if self.strategy not in available_strategies():
                raise ServiceError(
                    f"unknown repair strategy {self.strategy!r}; "
                    f"choose from {available_strategies()}"
                )
            if self.top_k is not None and self.top_k < 1:
                raise ServiceError(f"top_k must be >= 1, got {self.top_k}")
            if not 0.0 < self.min_proportion <= 1.0:
                raise ServiceError(
                    f"min_proportion must be in (0, 1], got {self.min_proportion}"
                )
            if not 0.0 < self.alpha < 1.0:
                raise ServiceError(f"alpha must be in (0, 1), got {self.alpha}")
            if not 0.0 <= self.amount <= 1.0:
                raise ServiceError(f"amount must be in [0, 1], got {self.amount}")
        object.__setattr__(self, "functions", tuple(self.functions))

    # ------------------------------------------------------------- (de)serde

    def to_dict(self) -> dict:
        """JSON-safe spec (tuples become lists; exact round-trip)."""
        payload = asdict(self)
        payload["functions"] = list(self.functions)
        payload["schema"] = JOB_SCHEMA
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "AuditJob":
        """Rebuild a spec from :meth:`to_dict` output; unknown keys rejected.

        Accepts the ``repro.job/v2`` schema tag or its absence (v1 journal
        records predate the tag and are always audit jobs); any other tag is
        rejected rather than mis-parsed.
        """
        data = dict(payload)
        schema = data.pop("schema", None)
        if schema is not None and schema != JOB_SCHEMA:
            raise ServiceError(
                f"unsupported job schema {schema!r}; expected {JOB_SCHEMA!r}"
            )
        fields = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - fields
        if unknown:
            raise ServiceError(f"unknown AuditJob fields: {sorted(unknown)}")
        try:
            if "functions" in data:
                data["functions"] = tuple(data["functions"])
            return cls(**data)
        except TypeError as exc:
            raise ServiceError(f"malformed AuditJob spec: {exc}") from exc

    def cell_seed(self) -> int:
        """Deterministic per-job seed component (spread like the runner's)."""
        return zlib.crc32(f"{self.seed}:{self.scenario}:{self.algorithm}".encode())


@dataclass
class JobRecord:
    """Mutable in-memory view of one job's lifecycle (journal replay target).

    Not persisted directly — the journal stores the submit record plus every
    transition; this is what replaying them reconstructs.
    """

    job: AuditJob
    state: JobState = JobState.PENDING
    attempt: int = 0
    reason: "str | None" = None
    result: "dict | None" = None
    submitted_at: float = 0.0
    updated_at: float = 0.0
    history: list = field(default_factory=list)

    def transition(
        self,
        new: JobState,
        *,
        attempt: "int | None" = None,
        reason: "str | None" = None,
        result: "dict | None" = None,
        timestamp: float = 0.0,
    ) -> None:
        """Apply one legal state-machine edge (raises on illegal edges)."""
        check_transition(self.state, new)
        self.history.append((self.state, new, reason))
        self.state = new
        if attempt is not None:
            self.attempt = attempt
        self.reason = reason
        if result is not None:
            self.result = result
        self.updated_at = timestamp

    def as_dict(self) -> dict:
        """JSON-safe summary for the HTTP ``/jobs`` endpoint and the CLI."""
        return {
            "id": self.job.id,
            "kind": self.job.kind,
            "state": self.state.value,
            "attempt": self.attempt,
            "reason": self.reason,
            "priority": self.job.priority,
            "tenant": self.job.tenant,
            "algorithm": self.job.algorithm,
            "scenario": self.job.scenario,
            "deadline_seconds": self.job.deadline_seconds,
            "submitted_at": self.submitted_at,
            "updated_at": self.updated_at,
            "result": self.result,
        }

