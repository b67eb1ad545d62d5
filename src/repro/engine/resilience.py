"""Fault-tolerance policy for the process-pool backend.

A multi-hour table run dies with its slowest worker unless something between
the engine and the worker processes *tolerates* failure.  This module holds
the two pieces the pool's chunk loop
(:class:`~repro.engine.backends.ProcessPoolBackend`) is driven by:

* :class:`RetryPolicy` — one dataclass holding every knob: retry budget,
  per-chunk timeout, exponential backoff with jitter, and whether an
  exhausted backend degrades to the in-process path or raises a typed
  :class:`~repro.exceptions.BackendExhaustedError`.  Surfaced on the CLI as
  ``--engine-retries`` / ``--engine-timeout`` / ``--engine-retry-backoff`` /
  ``--engine-no-fallback``.
* :func:`validate_batch` — the corruption detector every accepted chunk of
  objective values passes through.

Because retries re-run the same kernels over the same inputs, a run that
survives worker crashes, stragglers or corrupt returns is bit-identical to
an undisturbed one.  The sequential backend has no worker process that
could fail, so it takes no policy.

Every retry/timeout/fallback event is counted in the engine's
:class:`~repro.obs.metrics.MetricsRegistry` (``engine.retries``,
``engine.timeouts``, ``engine.worker_crashes``, ``engine.corrupt_results``,
``engine.backend_fallbacks``) and recorded as a ``backend.retry`` trace
span, so chaos runs are observable with the :mod:`repro.obs` tooling.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.exceptions import CorruptResultError, PartitioningError

__all__ = ["RetryPolicy", "validate_batch"]


@dataclass
class RetryPolicy:
    """Every fault-tolerance knob of the process pool, in one place.

    Attributes
    ----------
    max_retries:
        Re-attempts after the first failure (0 = fail fast).  The total
        attempt count is ``max_retries + 1``.
    timeout_seconds:
        Per-chunk deadline.  ``None`` (default) disables timeouts; the
        process pool requires one when hang injection is enabled.
    backoff_seconds / backoff_multiplier / jitter:
        Delay before retry ``n`` is ``backoff_seconds * multiplier**n``
        scaled by ``1 + jitter * u`` with ``u ~ U[0, 1)``, capping thundering
        re-dispatch herds without synchronising them.
    fallback_sequential:
        When the budget is exhausted, degrade to the in-process sequential
        path (results stay bit-identical; only throughput is lost) instead
        of raising :class:`~repro.exceptions.BackendExhaustedError`.
    sleep:
        Injectable sleep for tests (defaults to :func:`time.sleep`).
    """

    max_retries: int = 3
    timeout_seconds: "float | None" = None
    backoff_seconds: float = 0.05
    backoff_multiplier: float = 2.0
    jitter: float = 0.25
    fallback_sequential: bool = True
    sleep: Callable[[float], None] = field(default=time.sleep, repr=False)

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise PartitioningError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.timeout_seconds is not None and not (
            self.timeout_seconds > 0 and math.isfinite(self.timeout_seconds)
        ):
            raise PartitioningError(
                f"timeout_seconds must be positive and finite, got {self.timeout_seconds}"
            )
        if self.backoff_seconds < 0 or self.backoff_multiplier < 1:
            raise PartitioningError(
                "backoff_seconds must be >= 0 and backoff_multiplier >= 1, got "
                f"{self.backoff_seconds}/{self.backoff_multiplier}"
            )
        if not 0 <= self.jitter <= 1:
            raise PartitioningError(f"jitter must be in [0, 1], got {self.jitter}")

    def delay(self, attempt: int, rng: "random.Random | None" = None) -> float:
        """Backoff before re-attempt ``attempt`` (0-based), jittered."""
        delay = self.backoff_seconds * self.backoff_multiplier**attempt
        if self.jitter and rng is not None:
            delay *= 1.0 + self.jitter * rng.random()
        return delay


def validate_batch(values: "Sequence[float]", expected: int) -> list[float]:
    """Check one batch/chunk result for shape and finiteness.

    Raises :class:`~repro.exceptions.CorruptResultError` on a length
    mismatch or any non-finite value; returns the values as a list
    otherwise.  The pool's chunk loop applies it to every chunk of
    objective values — they are finite non-negative floats by
    construction, so anything else is a damaged return.
    """
    if values is None or len(values) != expected:
        raise CorruptResultError(
            f"backend returned {0 if values is None else len(values)} values "
            f"for {expected} candidates"
        )
    out = []
    for value in values:
        value = float(value)
        if not math.isfinite(value):
            raise CorruptResultError(f"backend returned non-finite value {value!r}")
        out.append(value)
    return out
