"""Persistence: populations to/from CSV, results and reports to JSON.

CSV files carry value *labels* (not codes) so they are human-readable and
round-trip exactly; the schema travels in a JSON sidecar (or inline dict) so
a population can be reconstructed without the generating code.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict
from pathlib import Path
from typing import Any

import numpy as np

from repro.core.attributes import (
    CategoricalAttribute,
    IntegerAttribute,
    ObservedAttribute,
)
from repro.core.population import Population
from repro.core.schema import WorkerSchema
from repro.exceptions import PopulationError, SchemaError
from repro.simulation.runner import ExperimentResult

__all__ = [
    "schema_to_dict",
    "schema_from_dict",
    "save_population",
    "load_population",
    "save_experiment_result",
    "load_experiment_rows",
    "audit_report_to_dict",
    "save_audit_report",
]


# --------------------------------------------------------------------- schema


def schema_to_dict(schema: WorkerSchema) -> dict[str, Any]:
    """JSON-serialisable description of a worker schema."""
    protected = []
    for attr in schema.protected:
        if isinstance(attr, CategoricalAttribute):
            protected.append(
                {"kind": "categorical", "name": attr.name, "values": list(attr.values)}
            )
        else:
            protected.append(
                {
                    "kind": "integer",
                    "name": attr.name,
                    "low": attr.low,
                    "high": attr.high,
                    "buckets": attr.buckets,
                }
            )
    observed = [
        {"name": attr.name, "low": attr.low, "high": attr.high}
        for attr in schema.observed
    ]
    return {"protected": protected, "observed": observed}


def schema_from_dict(data: dict[str, Any]) -> WorkerSchema:
    """Inverse of :func:`schema_to_dict`."""
    protected: list[CategoricalAttribute | IntegerAttribute] = []
    for spec in data.get("protected", []):
        kind = spec.get("kind")
        if kind == "categorical":
            protected.append(CategoricalAttribute(spec["name"], tuple(spec["values"])))
        elif kind == "integer":
            protected.append(
                IntegerAttribute(
                    spec["name"], spec["low"], spec["high"], spec.get("buckets", 5)
                )
            )
        else:
            raise SchemaError(f"unknown protected attribute kind: {kind!r}")
    observed = tuple(
        ObservedAttribute(spec["name"], spec["low"], spec["high"])
        for spec in data.get("observed", [])
    )
    return WorkerSchema(protected=tuple(protected), observed=observed)


# ----------------------------------------------------------------- population


def save_population(population: Population, csv_path: "str | Path") -> None:
    """Write a population to CSV (labels, not codes) plus a schema sidecar.

    The sidecar is ``<csv_path>.schema.json``.
    """
    csv_path = Path(csv_path)
    schema = population.schema
    with csv_path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(list(schema.protected_names) + list(schema.observed_names))
        for worker in population:
            row = [worker.protected[name] for name in schema.protected_names]
            row += [repr(worker.observed[name]) for name in schema.observed_names]
            writer.writerow(row)
    sidecar = csv_path.with_suffix(csv_path.suffix + ".schema.json")
    sidecar.write_text(json.dumps(schema_to_dict(schema), indent=2))


def load_population(
    csv_path: "str | Path", schema: WorkerSchema | None = None
) -> Population:
    """Read a population written by :func:`save_population`.

    If ``schema`` is omitted, the sidecar written alongside the CSV is used.
    """
    csv_path = Path(csv_path)
    if schema is None:
        sidecar = csv_path.with_suffix(csv_path.suffix + ".schema.json")
        if not sidecar.exists():
            raise PopulationError(
                f"no schema given and no sidecar found at {sidecar}"
            )
        schema = schema_from_dict(json.loads(sidecar.read_text()))

    with csv_path.open(newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise PopulationError(f"{csv_path} is empty") from None
        expected = list(schema.protected_names) + list(schema.observed_names)
        if header != expected:
            raise PopulationError(
                f"CSV columns {header} do not match schema columns {expected}"
            )
        raw_rows = [row for row in reader if row]

    if not raw_rows:
        raise PopulationError(f"{csv_path} contains no workers")
    columns = list(zip(*raw_rows))
    protected: dict[str, np.ndarray] = {}
    for i, attr in enumerate(schema.protected):
        values = columns[i]
        if isinstance(attr, CategoricalAttribute):
            protected[attr.name] = attr.encode(list(values))
        else:
            protected[attr.name] = np.asarray([int(v) for v in values], dtype=np.int64)
    offset = len(schema.protected)
    observed = {
        attr.name: np.asarray([float(v) for v in columns[offset + j]], dtype=np.float64)
        for j, attr in enumerate(schema.observed)
    }
    return Population(schema, protected, observed)


# -------------------------------------------------------------- audit reports


def audit_report_to_dict(report) -> dict[str, Any]:
    """JSON-serialisable summary of an :class:`~repro.core.audit.AuditReport`.

    Carries everything a downstream pipeline needs (objective, groups,
    pairwise distances, runtime) without the population itself.
    """
    partitioning = report.result.partitioning
    return {
        "algorithm": report.result.algorithm,
        "metric": report.result.metric,
        "unfairness": report.result.unfairness,
        "runtime_seconds": report.result.runtime_seconds,
        "n_evaluations": report.result.n_evaluations,
        "engine": {
            "cache_hits": report.result.cache_hits,
            "n_full_evaluations": report.result.n_full_evaluations,
            "n_incremental_evaluations": report.result.n_incremental_evaluations,
            "pair_distances_computed": report.result.pair_distances_computed,
            "pair_distances_full": report.result.pair_distances_full,
        },
        "population_size": partitioning.population_size,
        "attributes_used": list(partitioning.attributes_used()),
        "groups": [
            {
                "label": group.label,
                "size": group.size,
                "mean_score": group.mean_score,
                "median_score": group.median_score,
                "min_score": group.min_score,
                "max_score": group.max_score,
            }
            for group in report.groups
        ],
        "pairwise_distances": report.pairwise.tolist(),
    }


def save_audit_report(report, path: "str | Path") -> None:
    """Write an audit report summary to JSON."""
    Path(path).write_text(json.dumps(audit_report_to_dict(report), indent=2))


# -------------------------------------------------------------------- results


def save_experiment_result(result: ExperimentResult, path: "str | Path") -> None:
    """Write an experiment result (all table cells) to JSON."""
    payload = {
        "scenario": result.scenario,
        "rows": [asdict(row) for row in result.rows],
    }
    Path(path).write_text(json.dumps(payload, indent=2))


def load_experiment_rows(path: "str | Path") -> list[dict[str, Any]]:
    """Read back the rows written by :func:`save_experiment_result`."""
    payload = json.loads(Path(path).read_text())
    return list(payload.get("rows", []))
