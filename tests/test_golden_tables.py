"""Golden regression tests for the paper-table pipeline.

Committed JSON files under ``tests/golden/`` pin the exact output of
small-population table1/table2/table3 runs (all five paper algorithms,
fixed seeds).  Any change to the scoring kernels, search order, engine caching or
RNG plumbing that shifts a value — even in the 15th decimal — fails here
before it silently skews a full reproduction run.

Regenerate after an *intentional* behaviour change with::

    PYTHONPATH=src python tests/test_golden_tables.py --regenerate

and review the diff like any other code change.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.simulation.config import PaperConfig
from repro.simulation.runner import run_scenario
from repro.simulation.scenarios import (
    table1_scenario,
    table2_scenario,
    table3_scenario,
)

GOLDEN_DIR = Path(__file__).parent / "golden"

#: Golden cases: small enough to run in seconds, big enough to exercise
#: every algorithm's real search path.  Seeds are frozen forever.
CASES = {
    "table1_small": {
        "builder": "table1",
        "n_workers": 120,
        "population_seed": 42,
        "run_seed": 42,
    },
    "table2_small": {
        "builder": "table2",
        "n_workers": 200,
        "population_seed": 42,
        "run_seed": 42,
    },
    # The paper's headline result: the biased functions f6-f9.
    "table3_small": {
        "builder": "table3",
        "n_workers": 200,
        "population_seed": 42,
        "run_seed": 42,
    },
}

#: Absolute tolerance on objective values.  The pipeline is deterministic,
#: so this only allows for float formatting round-trip noise.
TOLERANCE = 1e-12

_BUILDERS = {
    "table1": table1_scenario,
    "table2": table2_scenario,
    "table3": table3_scenario,
}


def _run_case(spec: dict):
    builder = _BUILDERS[spec["builder"]]
    scenario = builder(
        PaperConfig(n_workers=spec["n_workers"], seed=spec["population_seed"])
    )
    return run_scenario(scenario, seed=spec["run_seed"])


def _as_golden(result) -> dict:
    """The stable subset of an experiment result (no runtimes/counters)."""
    return {
        "scenario": result.scenario,
        "rows": [
            {
                "function": row.function,
                "algorithm": row.algorithm,
                "unfairness": row.unfairness,
                "n_partitions": row.n_partitions,
                "attributes_used": list(row.attributes_used),
            }
            for row in result.rows
        ],
    }


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_table(name):
    path = GOLDEN_DIR / f"{name}.json"
    assert path.exists(), (
        f"missing golden file {path}; generate it with "
        "'PYTHONPATH=src python tests/test_golden_tables.py --regenerate'"
    )
    golden = json.loads(path.read_text())
    actual = _as_golden(_run_case(CASES[name]))
    assert actual["scenario"] == golden["scenario"]
    assert len(actual["rows"]) == len(golden["rows"])
    for got, want in zip(actual["rows"], golden["rows"]):
        cell = f"{want['function']}/{want['algorithm']}"
        assert got["function"] == want["function"], cell
        assert got["algorithm"] == want["algorithm"], cell
        assert got["unfairness"] == pytest.approx(
            want["unfairness"], abs=TOLERANCE
        ), f"unfairness drifted in {cell}"
        assert got["n_partitions"] == want["n_partitions"], cell
        assert got["attributes_used"] == want["attributes_used"], cell


def test_golden_files_cover_all_five_algorithms():
    from repro.core.algorithms import PAPER_ALGORITHMS

    for name in CASES:
        golden = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
        assert {row["algorithm"] for row in golden["rows"]} == set(PAPER_ALGORITHMS)


def _regenerate() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, spec in CASES.items():
        path = GOLDEN_DIR / f"{name}.json"
        path.write_text(
            json.dumps(_as_golden(_run_case(spec)), indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote {path}")


if __name__ == "__main__":
    import sys

    if "--regenerate" not in sys.argv:
        raise SystemExit("usage: python tests/test_golden_tables.py --regenerate")
    _regenerate()
