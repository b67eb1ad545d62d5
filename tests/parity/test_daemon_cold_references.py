"""Every ``daemon-cold`` benchmark job replays to its recorded reference.

A benchmark run checks only the jobs it draws (250 of the 350 at the
benchmark's length, 25 in a smoke run).  This replays all 350 in process,
built as ``perfbench/daemons.py`` builds them, through the daemon's own
execution path, and compares each result with ``perfbench/references.json``
exactly.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.algorithms import PAPER_ALGORITHMS
from repro.service import AuditJob, AuditService, ServiceConfig

REFERENCES = Path(__file__).resolve().parents[2] / "perfbench" / "references.json"

#: ``perfbench/daemons.py`` ``COLD_SIZES``.
COLD_SIZES = range(150, 500)


def cold_spec(n_workers: int) -> dict:
    """``perfbench/daemons.py`` ``cold_spec``: every 25 consecutive sizes
    cover each (algorithm, function) pair once."""
    return {
        "id": f"cold-{n_workers}",
        "scenario": "table1",
        "algorithm": PAPER_ALGORITHMS[n_workers % 5],
        "functions": [f"f{1 + n_workers // 5 % 5}"],
        "n_workers": n_workers,
        "tenant": "replay",
    }


@pytest.mark.parity
def test_every_daemon_cold_job_matches_its_reference(tmp_path: Path) -> None:
    expected = json.loads(REFERENCES.read_text())["daemon-cold"]["jobs"]
    assert sorted(expected) == sorted(f"cold-{n}" for n in COLD_SIZES)
    service = AuditService(ServiceConfig(tmp_path, port=None))
    mismatched = [
        spec["id"]
        for spec in map(cold_spec, COLD_SIZES)
        if service._execute(AuditJob.from_dict(spec)) != expected[spec["id"]]
    ]
    assert mismatched == []
