"""Checkpoint/resume for experiment runs.

A table2-style experiment (five algorithms x five scoring functions on
7300 workers) runs for hours; without checkpoints, one crashed worker or a
pre-empted machine throws all of it away.  :class:`CheckpointStore`
persists every completed algorithm x scoring-function *cell* to an atomic,
schema-versioned JSON file so an interrupted run resumed with
``repro-audit experiment ... --resume <dir>`` skips completed cells and —
because each cell's RNG is seeded independently from the run seed (see
:func:`~repro.simulation.runner.run_scenario`) — reproduces results
**bit-identical** to an uninterrupted run.

File layout (``<dir>/checkpoint.json``)::

    {
      "schema": "repro.checkpoint/v1",
      "fingerprint": {"scenario": ..., "seed": ..., "metric": ...,
                       "algorithms": [...], "functions": [...]},
      "cells": {
        "f1::balanced": {
          "row": {... ExperimentRow fields, engine counters included ...},
          "cell_seed": 123456789,
          "rng_state": {"bit_generator": "PCG64", "state": {...}, ...}
        }
      }
    }

* **Atomicity** — every update writes a temp file in the same directory,
  fsyncs, then ``os.replace``s it over the checkpoint, so a kill at any
  instant leaves either the old or the new file, never a torn one.
* **Schema versioning** — a file whose ``schema`` tag is unknown is
  rejected with :class:`~repro.exceptions.CheckpointError` rather than
  misread.
* **Fingerprinting** — resuming against a checkpoint recorded for a
  different scenario/seed/metric/algorithm set raises instead of silently
  merging incompatible cells.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.exceptions import CheckpointError
from repro.io.atomic import atomic_write_text, ensure_directory

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simulation.runner import ExperimentRow

__all__ = ["CheckpointStore", "CHECKPOINT_SCHEMA", "cell_key"]

#: Format tag; bump on incompatible layout changes.
CHECKPOINT_SCHEMA = "repro.checkpoint/v1"


def cell_key(function: str, algorithm: str) -> str:
    """Stable key for one table cell."""
    return f"{function}::{algorithm}"


class CheckpointStore:
    """Atomic per-cell experiment checkpoints in one directory.

    Usage (what :func:`~repro.simulation.runner.run_scenario` does)::

        store = CheckpointStore(directory)
        completed = store.begin(fingerprint, resume=True)
        for cell in cells:
            if store.cell_key(...) in completed:  # skip, reuse stored row
                continue
            ...run...
            store.record(key, row, cell_seed, rng_state)
    """

    def __init__(self, directory: "str | Path", filename: str = "checkpoint.json") -> None:
        self.directory = Path(directory)
        self.path = self.directory / filename
        self._payload: "dict[str, Any] | None" = None

    # --------------------------------------------------------------- reading

    def exists(self) -> bool:
        return self.path.exists()

    def load(self) -> dict:
        """Parse and validate the checkpoint file.

        Raises :class:`~repro.exceptions.CheckpointError` when the file is
        missing, unparseable, or carries an unknown schema version.
        """
        if not self.path.exists():
            raise CheckpointError(f"no checkpoint file at {self.path}")
        try:
            payload = json.loads(self.path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"cannot read checkpoint {self.path}: {exc}") from exc
        schema = payload.get("schema") if isinstance(payload, dict) else None
        if schema != CHECKPOINT_SCHEMA:
            raise CheckpointError(
                f"checkpoint {self.path} has schema {schema!r}; "
                f"this build reads {CHECKPOINT_SCHEMA!r}"
            )
        payload.setdefault("cells", {})
        return payload

    # --------------------------------------------------------------- writing

    def begin(self, fingerprint: dict, resume: bool = False) -> "dict[str, dict]":
        """Open the store for one run; returns the completed-cell map.

        With ``resume=True`` an existing file is validated (schema and
        fingerprint must match) and its cells are returned for skipping;
        otherwise a fresh checkpoint is written, discarding any previous
        file in the directory.
        """
        if resume and self.exists():
            payload = self.load()
            recorded = payload.get("fingerprint")
            if recorded != fingerprint:
                raise CheckpointError(
                    f"checkpoint {self.path} was recorded for a different run "
                    f"(checkpoint {recorded!r} vs requested {fingerprint!r}); "
                    "refusing to resume"
                )
            self._payload = payload
            return dict(payload["cells"])
        self._payload = {
            "schema": CHECKPOINT_SCHEMA,
            "fingerprint": fingerprint,
            "cells": {},
        }
        self._write()
        return {}

    def record(
        self,
        key: str,
        row: "ExperimentRow",
        cell_seed: int,
        rng_state: "dict | None" = None,
    ) -> None:
        """Persist one completed cell (atomic rewrite of the whole file)."""
        if self._payload is None:
            raise CheckpointError("CheckpointStore.record called before begin()")
        self._payload["cells"][key] = {
            "row": asdict(row),
            "cell_seed": int(cell_seed),
            "rng_state": rng_state,
        }
        self._write()

    def record_payload(self, key: str, payload: dict) -> None:
        """Persist one completed cell as a free-form JSON payload.

        Mitigation cells are not :class:`ExperimentRow` shaped (they carry
        before/after unfairness and utility metrics); they checkpoint as
        ``{"payload": ...}`` cells through the same atomic-rewrite path.
        """
        if self._payload is None:
            raise CheckpointError("CheckpointStore.record_payload called before begin()")
        self._payload["cells"][key] = {"payload": payload}
        self._write()

    def _write(self) -> None:
        ensure_directory(self.directory)
        atomic_write_text(
            self.path,
            json.dumps(self._payload, indent=2, sort_keys=True) + "\n",
            crash_scope="checkpoint",
        )

    @staticmethod
    def row_from_cell(cell: dict) -> "ExperimentRow":
        """Reconstruct the :class:`ExperimentRow` stored in one cell record."""
        from repro.simulation.runner import ExperimentRow

        data = dict(cell["row"])
        # Cells written while the engine had execution backends also
        # carry these two fields, which rows no longer have.
        data.pop("backend", None)
        data.pop("workers", None)
        data["attributes_used"] = tuple(data.get("attributes_used", ()))
        return ExperimentRow(**data)

    def __repr__(self) -> str:
        return f"CheckpointStore({str(self.path)!r})"
