"""Durable snapshots of monitored populations (``repro.snapshot/v1``).

A snapshot is one JSON file capturing everything needed to restore a
:class:`~repro.service.monitor.MonitoredPopulation` byte-identically:

* the monitor **spec** plus its ``fingerprint`` (SHA-256 of the canonical
  spec JSON) — restore refuses a snapshot taken under a different spec,
  exactly like :class:`~repro.simulation.checkpoint.CheckpointStore`
  refuses a checkpoint from a different experiment;
* the mutable population's id-ordered **state payload** at ``version``;
* the **series** of unfairness-over-time points journaled so far;
* a **digest** — SHA-256 of the canonical state — recomputed on load so a
  corrupted or hand-edited file fails loudly instead of restoring wrong
  numbers.

Writes are atomic (:func:`~repro.io.atomic.atomic_write_text`): a crash
mid-snapshot leaves the previous file intact.  A restored store continues
the mutation log at ``version``, so journal batches past the snapshot
replay on top seamlessly.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Collection, Mapping

from repro.exceptions import SnapshotError
from repro.io.atomic import atomic_write_text
from repro.io.records import canonical_json

__all__ = [
    "SNAPSHOT_SCHEMA",
    "spec_fingerprint",
    "write_snapshot",
    "load_snapshot",
    "read_snapshot_payload",
    "verify_snapshot",
    "compact_snapshot",
]

#: Format tag; bump on incompatible layout changes.
SNAPSHOT_SCHEMA = "repro.snapshot/v1"


def _write_json(path: Path, payload: dict) -> None:
    atomic_write_text(
        path,
        json.dumps(payload, sort_keys=True, separators=(",", ":")),
        crash_scope="snapshot",
    )


def spec_fingerprint(spec: Mapping[str, Any]) -> str:
    """SHA-256 over the canonical JSON of a monitor spec dict."""
    return hashlib.sha256(canonical_json(dict(spec)).encode("utf-8")).hexdigest()


def write_snapshot(
    path: "str | Path",
    spec: Mapping[str, Any],
    store,
    series: "list[dict]",
) -> dict:
    """Atomically write one snapshot; returns the payload written.

    ``store`` is a :class:`~repro.marketplace.streaming.MutablePopulation`;
    its state payload and digest are captured under the caller's lock, so
    the snapshot is a consistent point-in-time cut.
    """
    payload = {
        "schema": SNAPSHOT_SCHEMA,
        "fingerprint": spec_fingerprint(spec),
        "spec": dict(spec),
        "version": store.version,
        "state": store.state_payload(),
        "series": list(series),
        "digest": store.state_digest(),
    }
    _write_json(Path(path), payload)
    return payload


def read_snapshot_payload(path: "str | Path") -> dict:
    """Parse and schema-gate a snapshot file (no state reconstruction)."""
    path = Path(path)
    if not path.exists():
        raise SnapshotError(f"no snapshot file at {path}")
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise SnapshotError(f"unreadable snapshot {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise SnapshotError(f"snapshot {path} is not a JSON object")
    if payload.get("schema") != SNAPSHOT_SCHEMA:
        raise SnapshotError(
            f"snapshot {path} has schema {payload.get('schema')!r}; "
            f"this build reads {SNAPSHOT_SCHEMA!r}"
        )
    for field in ("spec", "version", "state", "series", "digest", "fingerprint"):
        if field not in payload:
            raise SnapshotError(f"snapshot {path} is missing field {field!r}")
    if payload.get("fingerprint") != spec_fingerprint(payload["spec"]):
        raise SnapshotError(
            f"snapshot {path} fingerprint does not match its own spec — "
            f"the file was edited after writing"
        )
    return payload


def load_snapshot(
    path: "str | Path",
    worker_schema,
    hist_spec,
    accepted_fingerprints: "Collection[str] | None" = None,
):
    """Restore ``(store, series, payload)`` from a snapshot file.

    The store's state digest is recomputed and compared against the stored
    one — restore is all-or-nothing.  When ``accepted_fingerprints`` is
    given (the live monitor's, see ``MonitorSpec.snapshot_fingerprints``),
    a snapshot taken under any other spec is refused rather than silently
    mixed in.
    """
    from repro.marketplace.streaming import MutablePopulation

    payload = read_snapshot_payload(path)
    if (
        accepted_fingerprints is not None
        and payload["fingerprint"] not in accepted_fingerprints
    ):
        raise SnapshotError(
            f"snapshot {path} was taken under a different monitor spec "
            f"(fingerprint {payload['fingerprint'][:12]}…)"
        )
    try:
        store = MutablePopulation.from_state_payload(
            worker_schema, payload["state"], hist_spec
        )
    except Exception as exc:
        raise SnapshotError(f"snapshot {path} state does not restore: {exc}") from exc
    if store.version != int(payload["version"]):
        raise SnapshotError(
            f"snapshot {path} claims version {payload['version']} but its "
            f"state payload carries version {store.version}"
        )
    digest = store.state_digest()
    if digest != payload["digest"]:
        raise SnapshotError(
            f"snapshot {path} digest mismatch: stored {payload['digest'][:12]}…, "
            f"recomputed {digest[:12]}… — refusing a corrupt restore"
        )
    series = payload["series"]
    if not isinstance(series, list):
        raise SnapshotError(f"snapshot {path} series is not a list")
    return store, list(series), payload


def verify_snapshot(path: "str | Path") -> dict:
    """Full integrity check of a snapshot file; returns a summary dict.

    Rebuilds the population from the state payload and recomputes the
    digest, so a passing verification means the file restores exactly.
    """
    from repro.service.monitor import MonitorSpec

    payload = read_snapshot_payload(path)
    try:
        spec = MonitorSpec.from_dict(payload["spec"])
    except Exception as exc:
        raise SnapshotError(f"snapshot {path} has an invalid spec: {exc}") from exc
    store, series, _ = load_snapshot(path, spec.worker_schema(), spec.hist_spec())
    return {
        "path": str(path),
        "id": spec.id,
        "version": store.version,
        "population_size": store.size,
        "series_points": len(series),
        "digest": payload["digest"],
        "fingerprint": payload["fingerprint"],
    }


def compact_snapshot(path: "str | Path", keep_series: int = 100) -> "tuple[int, int]":
    """Rewrite a snapshot keeping only the last ``keep_series`` points.

    The state payload and digest are untouched — only the unbounded part
    (the unfairness series) is trimmed.  Returns ``(bytes_before,
    bytes_after)``.  The rewrite is atomic and verified first, so a broken
    file is never "compacted" into a plausible-looking one.
    """
    if keep_series < 0:
        raise SnapshotError(f"keep_series must be >= 0, got {keep_series}")
    path = Path(path)
    verify_snapshot(path)
    payload = read_snapshot_payload(path)
    before = path.stat().st_size
    payload["series"] = payload["series"][-keep_series:] if keep_series else []
    _write_json(path, payload)
    return before, path.stat().st_size
