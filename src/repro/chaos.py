"""Seeded fault injection for every seam: one module, one ``--chaos`` grammar.

Failure paths that are never exercised cannot be trusted, so every fault
decision here is a CRC32 draw from ``seed + stable key``
(:func:`seeded_roll`), never global randomness: one spec replays one
fault schedule on every run.  Three families, each a frozen
:class:`FaultSchedule` of rates and durations, fire where the daemon can
really fail:

* **disk** — the :class:`FaultPlane` installed over every durable write
  (:func:`write` / :func:`fsync`, used by :mod:`repro.io.atomic` and the
  job journal): ENOSPC, EIO, torn writes, failed fsync, slow I/O;
* **net** — the HTTP front end (:mod:`repro.service.http`) resets,
  truncates, stalls or closes a response after dispatch;
* **worker** — the daemon's dispatch loop stalls a job (watchdog bait) or
  poisons it (the retry → quarantine ladder).

One grammar, :meth:`ChaosConfig.parse`: ``<family>-<kind>=<rate>`` sets a
rate, ``<family>-<field>=<value>`` another field of that family, and one
``seed`` is shared by all families — e.g.
``disk-fsync=0.05,net-reset=0.02,seed=7`` (``serve --chaos``).

The module also holds the crash points: named kill switches at every
fsync/replace boundary (:data:`CRASH_POINTS`), armed through the
``REPRO_CRASH_POINT`` environment variable, at which the torture harness
in ``tests/test_crash_points.py`` kills a subprocess one at a time.
"""

from __future__ import annotations

import errno
import os
import threading
import time
import zlib
from dataclasses import dataclass, field, fields, replace
from typing import ClassVar

__all__ = [
    "CRASH_EXIT_CODE",
    "CRASH_POINTS",
    "ENV_CRASH_POINT",
    "ENV_CRASH_POINT_SKIP",
    "FAMILIES",
    "ChaosConfig",
    "CrashPointRegistry",
    "DiskFaults",
    "FaultPlane",
    "FaultSchedule",
    "NetFaults",
    "WorkerFaults",
    "active",
    "crash_point",
    "fsync",
    "install",
    "registry",
    "seeded_roll",
    "uninstall",
    "write",
]


def seeded_roll(seed: int, kind: str, key: str, rate: float) -> bool:
    """Deterministic Bernoulli draw: CRC32 of ``seed:kind:key`` vs ``rate``.

    Stable across processes and hash randomisation, so one seed drives one
    reproducible fault schedule across every seam.
    """
    if rate <= 0.0:
        return False
    token = f"{seed}:{kind}:{key}".encode()
    return (zlib.crc32(token) / 0x1_0000_0000) < rate


# ---------------------------------------------------------------- schedules


@dataclass(frozen=True)
class FaultSchedule:
    """One family's seeded fault schedule.

    Families only declare fields: a ``<kind>_rate`` probability in [0, 1]
    per fault kind and ``*_seconds`` durations (>= 0).  The seed is shared
    by every family of a spec.
    """

    #: Spec-key prefix and the stem of the ``chaos.<family>_<kind>`` counters.
    family: ClassVar[str] = ""
    #: Prefix of the roll token's kind: ``"net-"`` rolls ``{seed}:net-{kind}:{key}``.
    token: ClassVar[str] = ""

    seed: int = 0

    def __post_init__(self) -> None:
        for item in fields(self):
            name, value = item.name, getattr(self, item.name)
            if name.endswith("_rate") and not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
            if name.endswith("_seconds") and value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")

    @classmethod
    def kinds(cls) -> "tuple[str, ...]":
        """The fault kinds, in declaration order (``crash``, ``hang``, ...)."""
        return tuple(f.name[:-5] for f in fields(cls) if f.name.endswith("_rate"))

    @classmethod
    def spec_keys(cls) -> "dict[str, str]":
        """Spec key after the family prefix → field: a kind names its rate,
        any other field but the shared seed its name with dashes."""
        keys = {kind: f"{kind}_rate" for kind in cls.kinds()}
        for item in fields(cls):
            if item.name != "seed" and not item.name.endswith("_rate"):
                keys[item.name.replace("_", "-")] = item.name
        return keys

    @property
    def enabled(self) -> bool:
        """True when any fault of this family can fire."""
        return any(getattr(self, f"{kind}_rate") > 0 for kind in self.kinds())

    def roll(self, kind: str, key: str) -> bool:
        """Whether fault ``kind`` fires at ``key`` (see :func:`seeded_roll`)."""
        return seeded_roll(
            self.seed, self.token + kind, key, getattr(self, f"{kind}_rate")
        )

    def fire(self, kind: str, key: str, metrics=None) -> bool:
        """:meth:`roll`, counting a fired fault into ``metrics`` (if any) as
        ``chaos.faults_injected`` plus ``chaos.<family>_<kind>``."""
        if not self.roll(kind, key):
            return False
        if metrics is not None:
            metrics.inc("chaos.faults_injected")
            metrics.inc(f"chaos.{self.family}_{kind}")
        return True


@dataclass(frozen=True)
class DiskFaults(FaultSchedule):
    """Durable-I/O faults per write/fsync (see :class:`FaultPlane`)."""

    family: ClassVar[str] = "disk"

    enospc_rate: float = 0.0
    eio_rate: float = 0.0
    fsync_rate: float = 0.0
    torn_rate: float = 0.0
    slow_rate: float = 0.0
    slow_seconds: float = 0.01


@dataclass(frozen=True)
class NetFaults(FaultSchedule):
    """Response faults of the HTTP front end, struck *after* dispatch: the
    service has already committed, so a client that never hears its 202
    must retry into the ``duplicate_id`` guard.  Nothing here may forge an
    acknowledgement that was not journaled."""

    family: ClassVar[str] = "net"
    token: ClassVar[str] = "net-"

    reset_rate: float = 0.0  # abort the transport mid-body (RST)
    truncate_rate: float = 0.0  # full Content-Length, half the bytes
    stall_rate: float = 0.0  # sleep before responding (slow server)
    close_rate: float = 0.0  # force Connection: close (keep-alive churn)
    stall_seconds: float = 0.05


@dataclass(frozen=True)
class WorkerFaults(FaultSchedule):
    """Dispatch-loop faults: stalled workers and poison batches."""

    family: ClassVar[str] = "worker"
    token: ClassVar[str] = "worker-"

    stall_rate: float = 0.0  # worker sleeps mid-job (watchdog bait)
    poison_rate: float = 0.0  # job raises WorkerCrashError (retry ladder)
    stall_seconds: float = 0.25


#: Every family, in spec order.
FAMILIES = ("disk", "net", "worker")


@dataclass(frozen=True)
class ChaosConfig:
    """A full ``--chaos`` spec: one schedule per family, one shared seed."""

    disk: DiskFaults = field(default_factory=DiskFaults)
    net: NetFaults = field(default_factory=NetFaults)
    worker: WorkerFaults = field(default_factory=WorkerFaults)
    spec: str = ""  # the original CLI string, for health/bench reporting

    @property
    def enabled(self) -> bool:
        return any(getattr(self, family).enabled for family in FAMILIES)

    @property
    def seed(self) -> int:
        return self.disk.seed

    @classmethod
    def parse(cls, spec: str) -> "ChaosConfig":
        """Parse the ``--chaos`` grammar (see the module docstring).

        Raises :class:`ValueError` naming the offending entry on a missing
        ``=``, an unknown key, a malformed value, or a rate/duration out of
        range.
        """
        defaults = cls()
        schedules = {family: getattr(defaults, family) for family in FAMILIES}
        seed = 0
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            key, sep, raw = part.partition("=")
            key = key.strip().lower().replace("_", "-")
            try:
                if not sep:
                    raise ValueError("not key=value")
                if key == "seed":
                    seed = int(raw)
                    continue
                family, _, name = key.partition("-")
                if family not in schedules:
                    raise ValueError(f"unknown key {key!r}")
                schedule = schedules[family]
                name = schedule.spec_keys().get(name)
                if name is None:
                    raise ValueError(f"unknown key {key!r}")
                schedules[family] = replace(schedule, **{name: float(raw)})
            except ValueError as exc:
                raise ValueError(f"chaos spec entry {part!r}: {exc}") from None
        return cls(
            **{family: replace(s, seed=seed) for family, s in schedules.items()},
            spec=spec,
        )

    def describe(self) -> dict:
        """Flat summary of the daemon's seams for ``/v1/healthz`` and the
        bench payload."""
        summary: dict = {"spec": self.spec, "seed": self.seed}
        for family in FAMILIES:
            schedule = getattr(self, family)
            summary[family] = {
                kind: getattr(schedule, f"{kind}_rate") for kind in schedule.kinds()
            }
        return summary


# ---------------------------------------------------------------- disk plane


class FaultPlane:
    """One process-wide decision point for injected disk faults.

    Keys are ``<label>:<op>-<n>`` where *n* is a per-(label, op) counter —
    so the schedule is deterministic per seam (``journal``, snapshot file
    name, …) regardless of thread interleaving across seams — and each
    operation consumes a fresh key, so faults are transient: a retry (the
    daemon's degraded-mode probe loop) eventually lands.
    """

    def __init__(self, config: DiskFaults, metrics=None) -> None:
        self.config = config
        self.metrics = metrics
        self._lock = threading.Lock()
        self._ops: "dict[tuple[str, str], int]" = {}

    def _key(self, op: str, label: str) -> str:
        with self._lock:
            count = self._ops.get((label, op), 0)
            self._ops[(label, op)] = count + 1
        return f"{label}:{op}-{count}"

    def write(self, handle, data, label: str) -> None:
        """Write ``data`` (str or bytes) to ``handle``, or fail like a disk:
        ENOSPC/EIO before any byte, or a torn prefix then EIO."""
        config, metrics = self.config, self.metrics
        key = self._key("write", label)
        if config.fire("slow", key, metrics):
            time.sleep(config.slow_seconds)
        if config.fire("enospc", key, metrics):
            raise OSError(errno.ENOSPC, f"injected ENOSPC at {key!r}")
        if config.fire("eio", key, metrics):
            raise OSError(errno.EIO, f"injected EIO at {key!r}")
        if len(data) > 1 and config.fire("torn", key, metrics):
            handle.write(data[: max(1, len(data) // 2)])
            raise OSError(errno.EIO, f"injected torn write at {key!r}")
        handle.write(data)

    def fsync(self, fileno: int, label: str) -> None:
        """fsync ``fileno``, or raise ``EIO`` without any durability promise."""
        config, metrics = self.config, self.metrics
        key = self._key("fsync", label)
        if config.fire("slow", key, metrics):
            time.sleep(config.slow_seconds)
        if config.fire("fsync", key, metrics):
            raise OSError(errno.EIO, f"injected fsync failure at {key!r}")
        os.fsync(fileno)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultPlane({self.config})"


# The installed plane.  Plain attribute + GIL is enough: install/uninstall
# happen at service start/stop, reads are a single load on the hot path.
_active: "FaultPlane | None" = None


def install(plane: FaultPlane) -> None:
    """Route every durable write/fsync in this process through ``plane``."""
    global _active
    _active = plane


def uninstall() -> None:
    global _active
    _active = None


def active() -> "FaultPlane | None":
    return _active


def write(handle, data, label: str = "file") -> None:
    """``handle.write(data)`` through the installed fault plane (if any)."""
    plane = _active
    if plane is None or not plane.config.enabled:
        handle.write(data)
        return
    plane.write(handle, data, label)


def fsync(fileno: int, label: str = "file") -> None:
    """``os.fsync(fileno)`` through the installed fault plane (if any)."""
    plane = _active
    if plane is None or not plane.config.enabled:
        os.fsync(fileno)
        return
    plane.fsync(fileno, label)


# ------------------------------------------------------------- crash points

#: Exit status used by an armed crash point — distinctive, so the torture
#: harness can tell "killed at the boundary" from an ordinary crash.
CRASH_EXIT_CODE = 86

ENV_CRASH_POINT = "REPRO_CRASH_POINT"
ENV_CRASH_POINT_SKIP = "REPRO_CRASH_POINT_SKIP"

#: Every named fsync/replace boundary in the durable stores.  The torture
#: harness kills a subprocess at each one and asserts the two invariants
#: (no acknowledged job lost, no unacknowledged torn record replayed) plus
#: bit-identical re-audit results after recovery.
CRASH_POINTS = (
    "journal.append.after_write",  # record buffered, not yet durable
    "journal.sync.before_fsync",  # flushed to the OS, fsync not issued
    "journal.sync.after_fsync",  # durable, acknowledgement not yet sent
    "journal.recover.before_truncate",  # crash *during* torn-tail repair
    "journal.compact.before_replace",  # compacted file fsynced, not swapped
    "journal.compact.after_replace",  # swapped, directory entry not fsynced
    "snapshot.before_replace",
    "snapshot.after_replace",
    "checkpoint.before_replace",
    "checkpoint.after_replace",
)


class CrashPointRegistry:
    """Named kill switches at every fsync/replace boundary.

    ``hit(name)`` is a no-op counter until the process is *armed* for that
    name (environment: ``REPRO_CRASH_POINT=<name>``, optionally
    ``REPRO_CRASH_POINT_SKIP=<n>`` to survive the first *n* crossings).
    An armed hit calls ``os._exit(CRASH_EXIT_CODE)`` — no atexit handlers,
    no buffer flushes, exactly like a power cut at that instant.  ``seen``
    records crossing counts for in-process coverage assertions.
    """

    def __init__(self, environ=None) -> None:
        env = os.environ if environ is None else environ
        self._lock = threading.Lock()
        self.seen: "dict[str, int]" = {}
        self.armed = env.get(ENV_CRASH_POINT) or None
        try:
            self.skip = int(env.get(ENV_CRASH_POINT_SKIP, "0") or "0")
        except ValueError:
            self.skip = 0

    def hit(self, name: str) -> None:
        with self._lock:
            self.seen[name] = self.seen.get(name, 0) + 1
            if self.armed != name:
                return
            if self.skip > 0:
                self.skip -= 1
                return
        os._exit(CRASH_EXIT_CODE)  # pragma: no cover - kills the process


#: Process-global registry, armed from the environment at import time so a
#: subprocess can be killed at a boundary with zero code changes.
registry = CrashPointRegistry()


def crash_point(name: str) -> None:
    """Cross the named crash boundary (dies here when armed)."""
    registry.hit(name)
