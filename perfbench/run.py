"""Benchmark of the fairness auditor's daemon, ``repro serve``.

    python3 perfbench/run.py --workload daemon-cold --seed 1 --seconds 50 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists), both in
``daemons.py``:

``daemon-hot``    cross-job-cache memo hits: the service path alone
``daemon-cold``   cache-missing searches by all five paper algorithms

Every run checks each operation's output against ``references.json`` and
counts a mismatch as a failed operation.  With ``--trace 0`` the last line
of stdout is the JSON result with every end-to-end metric; with
``--trace 1`` the workload runs once untraced and once with the
call-boundary wrappers of ``tracing.py`` installed, the tracing overhead on
each end-to-end metric is printed, and the result carries the per-layer
metrics instead, with the search-effort counts printed beside them.  Each
run also leaves a record (metrics, latency, output digests, host context)
in ``--record-dir``, which ``compare.py`` reads.

``--record-references`` rewrites this workload's entry of
``references.json`` from the run's outputs instead of checking them; run it
on the parent commit only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
REFERENCES = HERE / "references.json"
sys.path.insert(0, str(HERE))

WORKLOADS = ("daemon-hot", "daemon-cold")

#: Wrappers each workload must see called in a traced run: the layers the
#: workload exists to exercise.
EXPECTED_CALLS = {
    "daemon-hot": (
        "http.dispatch.post_jobs.calls",
        "http.dispatch.post_jobs_batch.calls",
        "http.dispatch.get_healthz.calls",
        "server.submit.calls",
        "server.submit_many.calls",
        "journal.append.calls",
        "journal.sync.calls",
        "scheduling.get_batch.calls",
        "cache.get.calls",
    ),
    "daemon-cold": (
        "algorithms.unbalanced.s",
        "algorithms.r-unbalanced.s",
        "algorithms.balanced.s",
        "algorithms.r-balanced.s",
        "algorithms.all-attributes.s",
        "splitting.worst_attribute.calls",
        "splitting.worst_attribute_local.calls",
        "engine.unfairness.calls",
        "engine.score_attribute_splits.calls",
        "engine.split_pmfs.calls",
        "incremental.score_add.calls",
        "incremental.score_add_pmfs.calls",
        "kernels.pairwise_matrix.calls",
        "kernels.cross_matrix.calls",
        "kernels.full_objective.calls",
        "atoms.build.calls",
        "context.should_stop.calls",
        "runner.run_scenario.calls",
        "checkpoint.record.calls",
        "http.dispatch.post_jobs.calls",
        "http.dispatch.get_job.calls",
        "server.submit.calls",
        "journal.append.calls",
        "journal.sync.calls",
        "scheduling.get_batch.calls",
        "cache.get.calls",
        "cache.put.calls",
    ),
}


def _proc_stat() -> list:
    with open("/proc/stat", encoding="ascii") as handle:
        return [int(value) for value in handle.readline().split()[1:]]


def cpu_probe_ms() -> float:
    """Median time of a fixed pure-Python loop, in ms.

    Taken before and after each run: the guest's CPU speed drifts by tens
    of percent with no steal recorded, and this shows by how much.
    """
    times = []
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i % 7
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1000.0


def host_context(before: list, after: list, probes: list) -> dict:
    """Steal and iowait share of all CPU time over the run, CPU probe
    times before and after it, and versions."""
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta[:8]) or 1
    return {
        "steal_share": delta[7] / total,
        "iowait_share": delta[4] / total,
        "cpu_probe_ms": probes,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
    }


def digest(value) -> str:
    encoded = json.dumps(value, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(encoded).hexdigest()[:16]


def measure(workload: str, seed: int, seconds: float, references: dict, spans=None, sizes=None):
    """One run of ``workload``; traced when ``spans`` names a span file."""
    import daemons

    OUT.mkdir(parents=True, exist_ok=True)
    expected = references.get(workload, {})
    if workload == "daemon-hot":
        return daemons.daemon_hot(seed, seconds, OUT, expected, spans)
    return daemons.daemon_cold(seed, seconds, OUT, expected, spans, sizes)


def layer_metrics(run: dict, spans: Path) -> dict:
    import daemons
    import tracing

    metrics = tracing.layer_metrics(tracing.load_spans(str(spans)), run["window"])
    metrics.update(run.get("server") or daemons.server_layer({}, {}, 0.0))
    return metrics


def record_references(workload: str, run: dict) -> None:
    references = json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}
    results = run["reference_results"] if workload == "daemon-hot" else run["outputs"]
    references[workload] = {"jobs": dict(sorted(results.items()))}
    write_references(references)


def write_references(references: dict) -> None:
    """Write ``references.json`` with one line per job, so a regenerated
    file diffs line by line."""
    blocks = []
    for workload, entry in sorted(references.items()):
        rows = ",\n".join(
            f"   {json.dumps(key)}: {json.dumps(item, sort_keys=True)}"
            for key, item in sorted(entry["jobs"].items())
        )
        blocks.append(f' {json.dumps(workload)}: {{\n  "jobs": {{\n{rows}\n  }}\n }}')
    REFERENCES.write_text("{\n" + ",\n".join(blocks) + "\n}\n")


#: Per-layer counts that depend only on the jobs run, so they repeat
#: exactly across traced runs of one commit and seed.
EFFORT_COUNTS = (
    "algorithms.evaluations",
    "algorithms.full_evaluations",
    "incremental.pair_distances_computed",
    "incremental.pair_distances_full",
    "kernels.pairs_evaluated",
    "kernels.pairs_served",
)


def _terminate(signum, frame):
    # Unwind through the ``finally`` blocks that stop the daemon, instead
    # of dying with it still running.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-dir", type=Path, default=OUT / "runs")
    parser.add_argument("--record-references", action="store_true")
    args = parser.parse_args(argv)

    missing = [
        path for path in ("src/repro/cli.py", "benchmarks/load_gen.py")
        if not (ROOT / path).is_file()
    ]
    if missing:
        print(f"perfbench: not a checkout of the repository ({missing[0]} missing)", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    references = json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}
    if args.record_references:
        references = {}

    probe_before = cpu_probe_ms()
    stat_before = _proc_stat()
    sizes = None
    if args.record_references and args.workload == "daemon-cold":
        import daemons

        sizes = list(daemons.COLD_SIZES)
    run = measure(args.workload, args.seed, args.seconds, references, sizes=sizes)
    attempted, failed = run["attempted"], run["failed"]
    layer = None
    correct = True
    if args.trace:
        spans = OUT / f"spans-{args.workload}.json"
        traced = measure(args.workload, args.seed, args.seconds, references, spans, sizes)
        attempted += traced["attempted"]
        failed += traced["failed"]
        layer = layer_metrics(traced, spans)
        print("tracing overhead (traced / untraced - 1):")
        for name, plain in run["metrics"].items():
            print(f"  {name:18s} {plain:12.6g} -> {traced['metrics'][name]:12.6g}"
                  f"  {traced['metrics'][name] / plain - 1:+.1%}")
        silent = [name for name in EXPECTED_CALLS[args.workload] if not layer[name]]
        if silent:
            print(f"wrappers that recorded no calls: {', '.join(silent)}")
            correct = False
    host = host_context(stat_before, _proc_stat(), [probe_before, cpu_probe_ms()])

    if args.record_references:
        record_references(args.workload, run)
        print(f"wrote {args.workload} references to {REFERENCES}")

    effort = {"effort": {name: layer[name] for name in EFFORT_COUNTS}} if layer else {}
    summary = {
        key: run[key]
        for key in ("setup_samples", "latency_s", "generator_lateness_s", "memo_hit_share")
        if key in run
    }
    print(json.dumps({"workload": args.workload, "seed": args.seed, **summary, **effort, "host": host}))

    if args.trace:
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        values = layer
    else:
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        values = run["metrics"]
    if set(values) != set(units):
        raise SystemExit(
            f"perfbench: metrics out of step with BENCHMARK.json: "
            f"{sorted(set(values) ^ set(units))}"
        )
    result = {
        "correct": correct and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }

    args.record_dir.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "result": result,
        "end_to_end": run["metrics"],
        "outputs": {key: digest(value) for key, value in run["outputs"].items()},
        **summary,
        **effort,
        "host": host,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
    (args.record_dir / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
