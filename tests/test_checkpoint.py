"""Checkpoint/resume: atomicity, schema gating, and byte-identical resume.

The resume contract: kill an experiment after N cells, resume from the
checkpoint directory, and both the merged rows and the saved audit JSON are
byte-for-byte what an uninterrupted run produces.  Wall-clock runtimes would
break byte-identity, so these tests pin ``time.perf_counter`` to a constant.
"""

from __future__ import annotations

import json
import time
from dataclasses import replace

import pytest

from repro.exceptions import CheckpointError
from repro.io.serialization import save_experiment_result
from repro.simulation.checkpoint import CHECKPOINT_SCHEMA, CheckpointStore, cell_key
from repro.simulation.config import PaperConfig
from repro.simulation.runner import experiment_fingerprint, run_scenario
from repro.simulation.scenarios import table1_scenario

ALGOS = ("balanced", "unbalanced", "r-balanced")


@pytest.fixture()
def frozen_clock(monkeypatch):
    """Pin the runtime clock so ExperimentRow.runtime_seconds is 0.0."""
    monkeypatch.setattr(time, "perf_counter", lambda: 0.0)


@pytest.fixture(scope="module")
def scenario():
    return table1_scenario(PaperConfig(n_workers=60, seed=1))


class _Killed(RuntimeError):
    """Stands in for SIGKILL: aborts the run right after a record()."""


class _KillingStore(CheckpointStore):
    """Checkpoint store that dies after persisting ``survive`` cells.

    record() finishes its atomic write *before* raising, which is exactly
    the window a real kill leaves behind: the file on disk holds every
    completed cell and nothing else.
    """

    def __init__(self, directory, survive: int) -> None:
        super().__init__(directory)
        self.survive = survive
        self._written = 0

    def record(self, *args, **kwargs) -> None:
        super().record(*args, **kwargs)
        self._written += 1
        if self._written >= self.survive:
            raise _Killed(f"killed after {self._written} cells")


class TestResume:
    @pytest.mark.parametrize("killed_after", [1, 4])
    def test_resumed_run_is_byte_identical(
        self, tmp_path, scenario, frozen_clock, killed_after
    ):
        uninterrupted = run_scenario(scenario, algorithms=ALGOS, seed=3)

        with pytest.raises(_Killed):
            run_scenario(
                scenario,
                algorithms=ALGOS,
                seed=3,
                checkpoint=_KillingStore(tmp_path, survive=killed_after),
            )
        checkpoint = CheckpointStore(tmp_path)
        assert len(checkpoint.load()["cells"]) == killed_after

        resumed = run_scenario(
            scenario,
            algorithms=ALGOS,
            seed=3,
            checkpoint=CheckpointStore(tmp_path),
            resume=True,
        )
        assert resumed.rows == uninterrupted.rows

        # ...and so is the persisted audit JSON, byte for byte.
        full_json = tmp_path / "full.json"
        resumed_json = tmp_path / "resumed.json"
        save_experiment_result(uninterrupted, full_json)
        save_experiment_result(resumed, resumed_json)
        assert resumed_json.read_bytes() == full_json.read_bytes()

    def test_cells_that_name_an_execution_backend_resume(self, tmp_path, scenario):
        # Checkpoints written while the engine had execution backends carry
        # the run's backend and pool size in every row.
        fresh = run_scenario(scenario, algorithms=ALGOS, seed=3)
        run_scenario(scenario, algorithms=ALGOS, seed=3, checkpoint=tmp_path)
        path = CheckpointStore(tmp_path).path
        payload = json.loads(path.read_text())
        for cell in payload["cells"].values():
            cell["row"].update(backend="process", workers=2)
        # Leave one cell for the resumed run to compute.
        del payload["cells"][cell_key("f1", "unbalanced")]
        path.write_text(json.dumps(payload))
        resumed = run_scenario(
            scenario, algorithms=ALGOS, seed=3, checkpoint=tmp_path, resume=True
        )

        def untimed(rows):
            return [replace(row, runtime_seconds=0.0) for row in rows]

        assert untimed(resumed.rows) == untimed(fresh.rows)

    def test_resume_skips_completed_cells(self, tmp_path, scenario, frozen_clock):
        from repro.obs.metrics import MetricsRegistry

        run_scenario(
            scenario, algorithms=ALGOS, seed=3, checkpoint=CheckpointStore(tmp_path)
        )
        metrics = MetricsRegistry()
        run_scenario(
            scenario,
            algorithms=ALGOS,
            seed=3,
            checkpoint=CheckpointStore(tmp_path),
            resume=True,
            metrics=metrics,
        )
        counters = metrics.as_dict()["counters"]
        n_cells = len(ALGOS) * len(scenario.functions)
        assert counters["checkpoint.cells_skipped"] == n_cells
        assert "checkpoint.cells_written" not in counters

    def test_directory_path_accepted_directly(self, tmp_path, scenario, frozen_clock):
        first = run_scenario(
            scenario, algorithms=("balanced",), seed=3, checkpoint=tmp_path
        )
        resumed = run_scenario(
            scenario, algorithms=("balanced",), seed=3, checkpoint=tmp_path, resume=True
        )
        assert resumed.rows == first.rows

    def test_no_tmp_residue(self, tmp_path, scenario, frozen_clock):
        run_scenario(
            scenario, algorithms=("balanced",), seed=3, checkpoint=tmp_path
        )
        assert [p.name for p in tmp_path.iterdir()] == ["checkpoint.json"]

    def test_fresh_run_discards_stale_checkpoint(
        self, tmp_path, scenario, frozen_clock
    ):
        run_scenario(scenario, algorithms=ALGOS, seed=3, checkpoint=tmp_path)
        # Without resume=True the old cells must not leak into the new run.
        run_scenario(scenario, algorithms=("balanced",), seed=9, checkpoint=tmp_path)
        payload = CheckpointStore(tmp_path).load()
        assert payload["fingerprint"]["seed"] == 9
        assert set(payload["cells"]) == {
            cell_key(fn, "balanced") for fn in scenario.functions
        }


class TestRejection:
    def test_schema_version_mismatch_rejected(self, tmp_path, scenario):
        path = tmp_path / "checkpoint.json"
        path.write_text(
            json.dumps(
                {
                    "schema": "repro.checkpoint/v0",
                    "fingerprint": experiment_fingerprint(scenario, ALGOS, "emd", 3),
                    "cells": {},
                }
            )
        )
        with pytest.raises(CheckpointError, match="schema"):
            run_scenario(
                scenario, algorithms=ALGOS, seed=3, checkpoint=tmp_path, resume=True
            )

    def test_fingerprint_mismatch_rejected(self, tmp_path, scenario, frozen_clock):
        run_scenario(scenario, algorithms=ALGOS, seed=3, checkpoint=tmp_path)
        for kwargs in (
            {"algorithms": ALGOS, "seed": 4},
            {"algorithms": ("balanced",), "seed": 3},
            {"algorithms": ALGOS, "seed": 3, "metric": "jsd"},
        ):
            with pytest.raises(CheckpointError, match="refusing to resume"):
                run_scenario(scenario, checkpoint=tmp_path, resume=True, **kwargs)

    def test_unparseable_checkpoint_rejected(self, tmp_path):
        (tmp_path / "checkpoint.json").write_text("{not json")
        with pytest.raises(CheckpointError, match="cannot read"):
            CheckpointStore(tmp_path).load()

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="no checkpoint file"):
            CheckpointStore(tmp_path / "nope").load()

    def test_record_before_begin_rejected(self, tmp_path):
        with pytest.raises(CheckpointError, match="before begin"):
            CheckpointStore(tmp_path).record("k", None, 0)


class TestStoreFormat:
    def test_cells_carry_seed_and_rng_state(self, tmp_path, scenario, frozen_clock):
        run_scenario(scenario, algorithms=("r-balanced",), seed=3, checkpoint=tmp_path)
        payload = CheckpointStore(tmp_path).load()
        assert payload["schema"] == CHECKPOINT_SCHEMA
        cell = next(iter(payload["cells"].values()))
        assert isinstance(cell["cell_seed"], int)
        assert cell["rng_state"]["bit_generator"] == "PCG64"
        assert cell["row"]["algorithm"] == "r-balanced"

    def test_row_round_trip_preserves_types(self, tmp_path, scenario, frozen_clock):
        result = run_scenario(
            scenario, algorithms=("balanced",), seed=3, checkpoint=tmp_path
        )
        payload = CheckpointStore(tmp_path).load()
        key = cell_key(next(iter(scenario.functions)), "balanced")
        row = CheckpointStore.row_from_cell(payload["cells"][key])
        assert row == result.rows[0]
        assert isinstance(row.attributes_used, tuple)


class TestCheckpointCli:
    def test_experiment_flags_parse(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["experiment", "table1", "--checkpoint-dir", "ckpt"]
        )
        assert args.checkpoint_dir == "ckpt"
        assert args.resume is None
        args = build_parser().parse_args(["experiment", "table1", "--resume", "ckpt"])
        assert args.resume == "ckpt"

    def test_cli_resume_round_trip(self, tmp_path, capsys, frozen_clock):
        from repro.cli import main

        ckpt = tmp_path / "ckpt"
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        assert (
            main(
                [
                    "experiment", "figure1",
                    "--checkpoint-dir", str(ckpt),
                    "--out", str(out_a),
                ]
            )
            == 0
        )
        assert (
            main(
                ["experiment", "figure1", "--resume", str(ckpt), "--out", str(out_b)]
            )
            == 0
        )
        assert out_b.read_bytes() == out_a.read_bytes()
