"""Compare two sets of benchmark runs: parent and change.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR
    python3 perfbench/compare.py RUN_DIR

Each directory holds the run records ``run.py --record-dir`` leaves (one
JSON file per run).  For every workload and end-to-end metric it prints
each side's median and quartiles, their spread (quartile distance over
median), the metric's bound from ``BENCHMARK.json``, the change's median
relative to the parent's (positive = worse) and a verdict:

``worse``         the change's median is worse than the parent's by more
                  than the bound
``unresolved``    the parent's own spread is wider than the bound, and not
                  every change run beats every parent run
``improved``      the change's median is better by more than the parent's
                  quartile distance and the change wins at least nine
                  tenths of the runs paired by seed
``within bound``  otherwise

It also prints each side's median per-job latency (p50 and p90; no
bound, because CPU steal on a shared host moves it more than a change
would), both sides' failed-operation shares, and whether runs of the
same seed produced equal outputs across the two sides.  With one
directory it prints that set's medians and spreads only.  Exits 1 when any verdict is
``worse``, any operation failed, or outputs differ.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path) -> dict:
    """``{workload: [record, ...]}`` of the untraced runs in ``directory``."""
    runs: dict = {}
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text())
        if record.get("trace") == 0:
            runs.setdefault(record["workload"], []).append(record)
    return runs


def quartiles(values: list) -> "tuple[float, float, float]":
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: list) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0


def worse_share(parent: float, change: float, better: str) -> float:
    """How much worse ``change`` is than ``parent``, as a share of it."""
    delta = (change - parent) / parent
    return delta if better == "lower" else -delta


def verdict(parent_runs: list, change_runs: list, name: str, metric: dict) -> "tuple[str, float]":
    better, bound = metric["better"], metric["bound"]
    parent = [run["end_to_end"][name] for run in parent_runs]
    change = [run["end_to_end"][name] for run in change_runs]
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    worse = worse_share(pm, cm, better)

    def beats(a, b):
        return a < b if better == "lower" else a > b

    if worse > bound:
        return "worse", worse
    if spread(parent) > bound and not all(beats(c, p) for c in change for p in parent):
        return "unresolved", worse
    by_seed = {run["seed"]: run["end_to_end"][name] for run in parent_runs}
    pairs = [
        (by_seed[run["seed"]], run["end_to_end"][name])
        for run in change_runs
        if run["seed"] in by_seed
    ]
    wins = sum(beats(c, p) for p, c in pairs)
    if pairs and wins >= 0.9 * len(pairs) and abs(cm - pm) > (p3 - p1) and worse < 0:
        return "improved", worse
    return "within bound", worse


def latency_median(runs: list, stat: str) -> float:
    values = [run["latency_s"][stat] for run in runs if "latency_s" in run]
    return statistics.median(values) if values else float("nan")


def failed_share(runs: list) -> str:
    attempted = sum(run["result"]["attempted"] for run in runs)
    failed = sum(run["result"]["failed"] for run in runs)
    return f"{failed}/{attempted} = {failed / attempted if attempted else 0:.2%}"


def output_mismatches(parent_runs: list, change_runs: list) -> int:
    """Operations whose output differs between runs of the same seed."""
    reference: dict = {}
    for run in parent_runs:
        reference.setdefault(run["seed"], {}).update(run["outputs"])
    mismatches = 0
    for run in change_runs:
        expected = reference.get(run["seed"], {})
        mismatches += sum(
            1 for key, value in run["outputs"].items()
            if key in expected and expected[key] != value
        )
    return mismatches


def main(argv: list) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    sides = [load(Path(directory)) for directory in argv]
    parent = sides[0]
    change = sides[-1]
    status = 0
    for workload in [w["name"] for w in bench["workloads"]]:
        parent_runs = parent.get(workload, [])
        change_runs = change.get(workload, [])
        if not parent_runs or not change_runs:
            continue
        print(f"\n{workload}: {len(parent_runs)} parent runs, {len(change_runs)} change runs")
        print(
            f"  {'metric':17s} {'parent median [q1, q3]':>34s} spread "
            f"{'change median [q1, q3]':>34s} spread  bound  change  verdict"
        )
        for metric in bench["end_to_end"]:
            name = metric["name"]
            cells = []
            for runs in (parent_runs, change_runs):
                q1, median, q3 = quartiles([run["end_to_end"][name] for run in runs])
                spread_share = (q3 - q1) / median if median else 0.0
                cells.append(f"{median:11.5g} [{q1:9.5g}, {q3:9.5g}] {spread_share:6.1%}")
            if len(argv) == 1:
                print(f"  {name:17s} {cells[0]}  bound {metric['bound']:.0%}")
                continue
            outcome, worse = verdict(parent_runs, change_runs, name, metric)
            if outcome == "worse":
                status = 1
            print(
                f"  {name:17s} {cells[0]} {cells[1]} {metric['bound']:5.0%} "
                f"{worse:+7.1%}  {outcome}"
            )
        latency = "  ".join(
            f"{label} p50 {latency_median(runs, 'p50'):.5g} p90 {latency_median(runs, 'p90'):.5g}"
            for label, runs in (("parent", parent_runs), ("change", change_runs))[: len(argv)]
        )
        print(f"  latency_s, median over runs (unbounded: host steal sets it): {latency}")
        print(f"  failed operations: parent {failed_share(parent_runs)}, "
              f"change {failed_share(change_runs)}")
        if any(run["result"]["failed"] for run in parent_runs + change_runs):
            status = 1
        if len(argv) == 2:
            mismatches = output_mismatches(parent_runs, change_runs)
            print(f"  outputs of same-seed runs that differ between sides: {mismatches}")
            status = status or int(mismatches > 0)
    return status


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
