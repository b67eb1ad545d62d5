"""Deterministic fault injection for the process-pool backends (chaos mode).

The robustness layer is only trustworthy if its failure paths are
*exercised*, so this module makes failure reproducible: a
:class:`FaultConfig` decides — from a seed and a stable per-dispatch key,
never from global randomness — whether a given dispatch crashes, hangs, or
returns corrupted values.  The same seed therefore produces the same fault
schedule on every run, which is what lets the test suite assert that a run
surviving injected faults is **bit-identical** to an undisturbed one.

Faults fire where a worker process can really fail: the
:class:`~repro.engine.backends.ProcessPoolBackend` (and the
:class:`~repro.engine.backends.ShardedBackend`, whose shard sums go through
the same chunk loop) ships the config to its workers and injects per
*chunk attempt*, so crashes surface as real cross-process failures
(including hard ``os._exit`` kills that break the pool) and hangs as real
stragglers.  The sequential backend refuses an enabled config.

Decisions use :func:`repro.io.faultfs.seeded_roll`, the CRC32 roll the
disk, net and worker chaos seams share.  Corruption is always *detectable*
(a non-finite value or a truncated chunk) so the validation in the pool's
chunk loop catches and repairs it.

User-facing: ``--inject-faults crash=0.3,hang=0.1,corrupt=0.05,seed=1``
turns any pool-backend CLI run into a chaos drill for validating a
deployment.
"""

from __future__ import annotations

import os
import time
import zlib
from dataclasses import dataclass, replace
from typing import Sequence

from repro.exceptions import PartitioningError, WorkerCrashError

__all__ = ["FaultConfig"]


@dataclass(frozen=True)
class FaultConfig:
    """Seeded fault schedule: what fails, how often, and how.

    Attributes
    ----------
    crash_rate / hang_rate / corrupt_rate:
        Per-dispatch probabilities in [0, 1] of raising a
        :class:`~repro.exceptions.WorkerCrashError`, sleeping
        ``hang_seconds`` (to trip the timeout machinery), or damaging the
        returned values.
    seed:
        Together with the dispatch key, fully determines every decision.
    hang_seconds:
        How long an injected hang sleeps; keep it above the retry policy's
        ``timeout_seconds`` so hangs actually look hung.
    crash_hard:
        When set, crashes in process-pool workers call ``os._exit`` —
        killing the worker and breaking the pool — instead of raising.
        Exercises the pool-rebuild path rather than per-chunk retry.
    """

    crash_rate: float = 0.0
    hang_rate: float = 0.0
    corrupt_rate: float = 0.0
    seed: int = 0
    hang_seconds: float = 30.0
    crash_hard: bool = False

    def __post_init__(self) -> None:
        for name in ("crash_rate", "hang_rate", "corrupt_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise PartitioningError(f"{name} must be in [0, 1], got {rate}")
        if self.hang_seconds <= 0:
            raise PartitioningError(
                f"hang_seconds must be positive, got {self.hang_seconds}"
            )

    @property
    def enabled(self) -> bool:
        """True when any fault can fire."""
        return (self.crash_rate + self.hang_rate + self.corrupt_rate) > 0

    # ------------------------------------------------------------- decisions

    def roll(self, kind: str, key: str) -> bool:
        """Deterministic Bernoulli draw for one (fault kind, dispatch key)
        (see :func:`~repro.io.faultfs.seeded_roll`)."""
        # Imported here: repro.io's package init reaches back into the
        # engine through the simulation runner.
        from repro.io.faultfs import seeded_roll

        return seeded_roll(self.seed, kind, key, getattr(self, f"{kind}_rate"))

    def maybe_crash_or_hang(self, key: str) -> None:
        """Apply crash/hang decisions for one dispatch (worker side).

        Order matters and is fixed: hang first (the dispatch becomes a
        straggler), then crash.  A hard crash kills the whole process.
        """
        if self.roll("hang", key):
            time.sleep(self.hang_seconds)
        if self.roll("crash", key):
            if self.crash_hard:  # pragma: no cover - kills the worker
                os._exit(3)
            raise WorkerCrashError(f"injected crash at {key!r}")

    def corrupt_values(self, values: "Sequence[float]", key: str) -> list[float]:
        """Damage a result list detectably (NaN poison or truncation)."""
        out = list(values)
        if zlib.crc32(f"{self.seed}:corrupt-mode:{key}".encode()) & 1 or not out:
            return out[:-1]
        out[len(out) // 2] = float("nan")
        return out

    # --------------------------------------------------------------- parsing

    @classmethod
    def parse(cls, spec: str) -> "FaultConfig":
        """Build a config from a CLI spec like ``crash=0.3,hang=0.1,seed=2``.

        Keys: ``crash``, ``hang``, ``corrupt`` (rates), ``seed``,
        ``hang-seconds`` (or ``hang_seconds``), ``hard`` (0/1).  Raises
        :class:`ValueError` on unknown keys or malformed values.
        """
        config = cls()
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise ValueError(f"fault spec entry {part!r} is not key=value")
            key, _, raw = part.partition("=")
            key = key.strip().lower().replace("-", "_")
            try:
                if key in ("crash", "hang", "corrupt"):
                    config = replace(config, **{f"{key}_rate": float(raw)})
                elif key == "seed":
                    config = replace(config, seed=int(raw))
                elif key == "hang_seconds":
                    config = replace(config, hang_seconds=float(raw))
                elif key == "hard":
                    config = replace(config, crash_hard=bool(int(raw)))
                else:
                    raise ValueError(f"unknown fault spec key {key!r}")
            except PartitioningError as exc:
                raise ValueError(str(exc)) from None
        return config
