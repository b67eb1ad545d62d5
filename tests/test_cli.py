"""End-to-end tests for the command-line interface."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_a_command(self) -> None:
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_arguments(self) -> None:
        args = build_parser().parse_args(
            ["generate", "--workers", "50", "--seed", "1", "--out", "x.csv"]
        )
        assert args.command == "generate"
        assert args.workers == 50

    def test_unknown_experiment_rejected(self) -> None:
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "table9"])


class TestEngineFlagSurface:
    """The unified --engine-backend/--engine-workers/--chaos surface."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["audit", "w.csv", "--engine-backend", "process", "--engine-workers", "2"],
            ["compare", "w.csv", "--engine-backend", "process", "--engine-workers", "2"],
            ["workload", "w.csv", "t.json", "--engine-backend", "process", "--engine-workers", "2"],
            ["experiment", "table1", "--engine-backend", "process", "--engine-workers", "2"],
        ],
    )
    def test_all_four_subcommands_accept_new_flags(self, argv: list[str]) -> None:
        args = build_parser().parse_args(argv)
        assert args.engine_backend == "process"
        assert args.engine_workers == 2
        assert args.trace_out is None
        assert args.log_level is None

    def test_experiment_workers_still_means_population_size(self) -> None:
        args = build_parser().parse_args(["experiment", "table1", "--workers", "100"])
        assert args.workers == 100
        assert args.engine_workers is None

    def test_fault_injection_needs_a_pool_backend(
        self, tmp_path: Path, capsys
    ) -> None:
        csv_path = tmp_path / "workers.csv"
        main(["generate", "--workers", "30", "--seed", "5", "--out", str(csv_path)])
        capsys.readouterr()
        argv = ["audit", str(csv_path), "--function", "f6"]
        assert main([*argv, "--chaos", "engine-crash=0.3,seed=1"]) == 2
        assert "worker pool" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv,entry",
        [
            (["serve", "--workdir", "state", "--chaos", "engine-crash=1.0"],
             "engine-crash=1.0"),
            (["audit", "w.csv", "--chaos", "disk-fsync=0.1"], "disk-fsync=0.1"),
            (["serve", "--workdir", "state", "--chaos", "disk-sparks=0.1,seed=1"],
             "disk-sparks=0.1"),
            (["serve", "--workdir", "state", "--chaos", "seed=abc"], "seed=abc"),
            (["audit", "w.csv", "--chaos", "engine-crash=abc"], "engine-crash=abc"),
        ],
        ids=["engine-on-serve", "disk-on-audit", "unknown-key", "bad-seed", "bad-rate"],
    )
    def test_bad_chaos_spec_exits_2_naming_the_entry(
        self, argv: list[str], entry: str, capsys
    ) -> None:
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert repr(entry) in capsys.readouterr().err

    def test_numba_kernel_is_not_accepted(self) -> None:
        with pytest.raises(SystemExit):
            build_parser().parse_args(["audit", "w.csv", "--engine-kernel", "numba"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["audit", "w.csv", "--backend", "process"],
            ["audit", "w.csv", "--workers", "3"],
            ["compare", "w.csv", "--backend", "sequential"],
            ["compare", "w.csv", "--workers", "3"],
            ["experiment", "table1", "--backend", "process"],
            ["workload", "w.csv", "t.json", "--backend", "process"],
            ["audit", "w.csv", "--inject-faults", "crash=0.3,seed=1"],
        ],
        ids=[
            "audit-backend", "audit-workers", "compare-backend", "compare-workers",
            "experiment-backend", "workload-backend", "audit-inject-faults",
        ],
    )
    def test_removed_engine_spellings_exit_2(self, argv: list[str], capsys) -> None:
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestServeFlagSurface:
    """``serve`` takes only the engine flags the daemon reads."""

    @pytest.mark.parametrize(
        "extra",
        [
            ["--inject-faults", "crash=1.0,seed=1"],
            ["--engine-backend", "process"],
            ["--engine-workers", "2"],
            ["--trace-out", "trace.json"],
        ],
        ids=["inject-faults", "engine-backend", "engine-workers", "trace-out"],
    )
    def test_unread_engine_flags_exit_2(self, tmp_path: Path, extra) -> None:
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--workdir", str(tmp_path), "--port", "0", *extra])
        assert excinfo.value.code == 2

    def test_retry_flags_need_shard_workers(self, tmp_path: Path, capsys) -> None:
        argv = ["serve", "--workdir", str(tmp_path), "--port", "0"]
        assert main([*argv, "--engine-retries", "2"]) == 2
        assert "--shard-workers" in capsys.readouterr().err

    def test_daemon_engine_flags_parse(self) -> None:
        args = build_parser().parse_args(
            [
                "serve", "--workdir", "state", "--shard-workers", "2",
                "--engine-kernel", "scalar", "--log-level", "info",
                "--engine-retries", "4", "--engine-timeout", "5",
                "--engine-retry-backoff", "0.1", "--engine-no-fallback",
            ]
        )
        assert args.engine_kernel == "scalar"
        assert args.engine_retries == 4
        assert args.engine_no_fallback
        assert args.chaos is None


class TestTraceOut:
    def test_audit_trace_out_writes_span_tree(self, tmp_path: Path, capsys) -> None:
        csv_path = tmp_path / "workers.csv"
        main(["generate", "--workers", "60", "--seed", "7", "--out", str(csv_path)])
        capsys.readouterr()
        trace_path = tmp_path / "trace.json"
        assert (
            main(
                [
                    "audit",
                    str(csv_path),
                    "--function",
                    "f4",
                    "--algorithm",
                    "balanced",
                    "--trace-out",
                    str(trace_path),
                ]
            )
            == 0
        )
        assert "wrote trace" in capsys.readouterr().out
        payload = json.loads(trace_path.read_text())
        assert payload["schema"] == "repro.trace/v1"

        root = payload["spans"][0]
        assert root["name"] == "cli.audit"

        def names(span):
            yield span["name"]
            for child in span["children"]:
                yield from names(child)

        seen = set(names(root))
        # per-evaluation engine spans made it into the tree
        assert {"audit.search", "algorithm.balanced", "engine.unfairness"} <= seen

        # children never exceed their parent, and direct children cover most
        # of the root (leaf timings sum to the root within tolerance)
        def check(span):
            child_total = sum(c["duration_seconds"] for c in span["children"])
            assert child_total <= span["duration_seconds"] * 1.001 + 1e-9
            for child in span["children"]:
                check(child)

        check(root)
        covered = sum(c["duration_seconds"] for c in root["children"])
        assert covered >= 0.5 * root["duration_seconds"]

        # metrics snapshot travels with the trace
        counters = payload["metrics"]["counters"]
        assert counters["engine.n_evaluations"] >= 1
        assert counters["algorithm.runs"] == 1
        assert payload["breakdown"]["engine.unfairness"]["count"] >= 1


class TestGenerateAndAudit:
    def test_generate_then_audit(self, tmp_path: Path, capsys) -> None:
        csv_path = tmp_path / "workers.csv"
        assert main(["generate", "--workers", "80", "--seed", "3", "--out", str(csv_path)]) == 0
        assert csv_path.exists()
        captured = capsys.readouterr()
        assert "wrote 80 workers" in captured.out

        assert main(["audit", str(csv_path), "--function", "f6", "--algorithm", "balanced"]) == 0
        captured = capsys.readouterr()
        assert "Fairness audit" in captured.out
        assert "gender=Male" in captured.out

    def test_audit_unknown_function(self, tmp_path: Path, capsys) -> None:
        csv_path = tmp_path / "workers.csv"
        main(["generate", "--workers", "30", "--out", str(csv_path)])
        capsys.readouterr()
        assert main(["audit", str(csv_path), "--function", "f99"]) == 2
        assert "unknown function" in capsys.readouterr().err

    def test_audit_with_histograms_flag(self, tmp_path: Path, capsys) -> None:
        csv_path = tmp_path / "workers.csv"
        main(["generate", "--workers", "50", "--out", str(csv_path)])
        capsys.readouterr()
        assert main(["audit", str(csv_path), "--function", "f6", "--histograms"]) == 0
        out = capsys.readouterr().out
        assert "Score histograms:" in out
        assert "█" in out

    def test_audit_with_metric_and_bins(self, tmp_path: Path, capsys) -> None:
        csv_path = tmp_path / "workers.csv"
        main(["generate", "--workers", "40", "--out", str(csv_path)])
        capsys.readouterr()
        assert (
            main(
                [
                    "audit",
                    str(csv_path),
                    "--function",
                    "f1",
                    "--algorithm",
                    "unbalanced",
                    "--metric",
                    "tv",
                    "--bins",
                    "5",
                ]
            )
            == 0
        )
        assert "metric=tv" in capsys.readouterr().out


class TestCompareSignificanceRepair:
    @pytest.fixture()
    def population_csv(self, tmp_path: Path, capsys) -> str:
        csv_path = tmp_path / "workers.csv"
        main(["generate", "--workers", "60", "--seed", "2", "--out", str(csv_path)])
        capsys.readouterr()
        return str(csv_path)

    def test_compare_lists_all_algorithms(self, population_csv: str, capsys) -> None:
        assert main(["compare", population_csv, "--function", "f6"]) == 0
        out = capsys.readouterr().out
        for name in ("unbalanced", "balanced", "all-attributes", "beam"):
            assert name in out

    def test_compare_unknown_function(self, population_csv: str, capsys) -> None:
        assert main(["compare", population_csv, "--function", "f99"]) == 2
        assert "unknown function" in capsys.readouterr().err

    def test_significance_verdict_biased(self, population_csv: str, capsys) -> None:
        assert (
            main(
                [
                    "significance",
                    population_csv,
                    "--function",
                    "f6",
                    "--permutations",
                    "49",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "permutation test" in out
        assert "SIGNIFICANT" in out

    def test_repair_reports_before_and_after(
        self, population_csv: str, tmp_path: Path, capsys
    ) -> None:
        out_path = tmp_path / "repaired.csv"
        assert (
            main(
                [
                    "repair",
                    population_csv,
                    "--function",
                    "f6",
                    "--amount",
                    "1.0",
                    "--out",
                    str(out_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "before repair" in out
        assert "after repair" in out
        assert out_path.exists()
        header = out_path.read_text().splitlines()[0]
        assert header == "worker,original_score,repaired_score"


class TestWorkload:
    @pytest.fixture()
    def population_csv(self, tmp_path: Path, capsys) -> str:
        csv_path = tmp_path / "workers.csv"
        main(["generate", "--workers", "60", "--seed", "3", "--out", str(csv_path)])
        capsys.readouterr()
        return str(csv_path)

    def test_workload_audit_runs(self, population_csv: str, tmp_path: Path, capsys) -> None:
        import json

        tasks_path = tmp_path / "tasks.json"
        tasks_path.write_text(
            json.dumps(
                [
                    {
                        "id": "t1",
                        "title": "gig",
                        "weights": {"language_test": 1.0},
                        "positions": 2,
                    },
                    {
                        "id": "t2",
                        "weights": {"approval_rate": 1.0},
                        "requirements": {"language_test": 40.0},
                    },
                ]
            )
        )
        assert main(["workload", population_csv, str(tasks_path)]) == 0
        out = capsys.readouterr().out
        assert "workload audit over 2 tasks" in out

    def test_workload_rejects_bad_json(self, population_csv: str, tmp_path: Path, capsys) -> None:
        tasks_path = tmp_path / "tasks.json"
        tasks_path.write_text("{not json")
        assert main(["workload", population_csv, str(tasks_path)]) == 2
        assert "cannot read workload" in capsys.readouterr().err

    def test_workload_rejects_empty_list(self, population_csv: str, tmp_path: Path, capsys) -> None:
        tasks_path = tmp_path / "tasks.json"
        tasks_path.write_text("[]")
        assert main(["workload", population_csv, str(tasks_path)]) == 2
        assert "non-empty" in capsys.readouterr().err

    def test_workload_rejects_malformed_spec(
        self, population_csv: str, tmp_path: Path, capsys
    ) -> None:
        tasks_path = tmp_path / "tasks.json"
        tasks_path.write_text('[{"id": "t1"}]')
        assert main(["workload", population_csv, str(tasks_path)]) == 2
        assert "malformed task spec" in capsys.readouterr().err


class TestRepairFlagSurface:
    """The shared --strategy/--k/--min-proportion/--alpha repair group."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["mitigate", "w.csv", "--strategy", "det_rerank", "--k", "10",
             "--min-proportion", "0.9", "--alpha", "0.2", "--variant", "cons"],
            ["workload", "w.csv", "t.json", "--strategy", "det_rerank", "--k", "10",
             "--min-proportion", "0.9", "--alpha", "0.2", "--variant", "cons"],
            ["experiment", "figure1", "--strategy", "det_rerank", "--k", "10",
             "--min-proportion", "0.9", "--alpha", "0.2", "--variant", "cons"],
            ["submit", "--id", "j", "--scenario", "figure1", "--strategy", "det_rerank",
             "--k", "10", "--min-proportion", "0.9", "--alpha", "0.2",
             "--variant", "cons"],
        ],
    )
    def test_all_four_subcommands_accept_repair_flags(self, argv) -> None:
        args = build_parser().parse_args(argv)
        assert args.strategy == "det_rerank"
        assert args.top_k == 10
        assert args.min_proportion == 0.9
        assert args.alpha == 0.2
        assert args.variant == "cons"

    def test_mitigate_defaults_to_fair_topk(self) -> None:
        args = build_parser().parse_args(["mitigate", "w.csv"])
        assert args.strategy == "fair_topk"
        assert args.top_k is None
        assert args.min_proportion == 0.8
        assert args.alpha == 0.1

    def test_workload_strategy_defaults_to_off(self) -> None:
        assert build_parser().parse_args(["workload", "w.csv", "t.json"]).strategy is None

    def test_unknown_strategy_rejected(self) -> None:
        with pytest.raises(SystemExit):
            build_parser().parse_args(["mitigate", "w.csv", "--strategy", "nope"])

    def test_out_of_range_min_proportion_rejected(self) -> None:
        with pytest.raises(SystemExit):
            build_parser().parse_args(["mitigate", "w.csv", "--min-proportion", "1.5"])

    def test_submit_kind_flag(self) -> None:
        base = ["submit", "--id", "j", "--scenario", "figure1"]
        assert build_parser().parse_args([*base, "--kind", "mitigate"]).kind == "mitigate"
        assert build_parser().parse_args(base).kind == "audit"
        with pytest.raises(SystemExit):
            build_parser().parse_args([*base, "--kind", "transmogrify"])

    def test_jobs_kind_filter(self) -> None:
        args = build_parser().parse_args(["jobs", "--workdir", "w", "--kind", "mitigate"])
        assert args.kind == "mitigate"
        assert build_parser().parse_args(["jobs", "--workdir", "w"]).kind is None


class TestMitigate:
    @pytest.fixture()
    def population_csv(self, tmp_path: Path, capsys) -> str:
        csv_path = tmp_path / "workers.csv"
        main(["generate", "--workers", "80", "--seed", "9", "--out", str(csv_path)])
        capsys.readouterr()
        return str(csv_path)

    def test_mitigate_reports_before_and_after(
        self, population_csv: str, tmp_path: Path, capsys
    ) -> None:
        out_path = tmp_path / "reranked.csv"
        assert (
            main(
                [
                    "mitigate",
                    population_csv,
                    "--function",
                    "f6",
                    "--strategy",
                    "quantile",
                    "--out",
                    str(out_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "strategy: quantile" in out
        assert "unfairness before" in out
        assert "unfairness after" in out
        assert "exposure delta" in out
        assert out_path.exists()
        header = out_path.read_text().splitlines()[0]
        assert header == "rank,worker,original_score,repaired_score"

    def test_mitigate_det_rerank_variant(self, population_csv: str, capsys) -> None:
        assert (
            main(
                [
                    "mitigate",
                    population_csv,
                    "--function",
                    "f6",
                    "--strategy",
                    "det_rerank",
                    "--variant",
                    "cons",
                ]
            )
            == 0
        )
        assert "variant" in capsys.readouterr().out

    def test_mitigate_unknown_function(self, population_csv: str, capsys) -> None:
        assert main(["mitigate", population_csv, "--function", "f99"]) == 2
        assert "unknown function" in capsys.readouterr().err

    def test_workload_with_repair_strategy(
        self, population_csv: str, tmp_path: Path, capsys
    ) -> None:
        tasks_path = tmp_path / "tasks.json"
        tasks_path.write_text(
            json.dumps([{"id": "t1", "weights": {"language_test": 1.0}}])
        )
        assert (
            main(
                [
                    "workload",
                    population_csv,
                    str(tasks_path),
                    "--strategy",
                    "quantile",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "mitigation (quantile):" in out

    def test_experiment_with_mitigation_table(self, capsys) -> None:
        assert (
            main(
                [
                    "experiment",
                    "figure1",
                    "--strategy",
                    "fair_topk",
                    "--alpha",
                    "0.5",
                    "--min-proportion",
                    "1.0",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "mitigation (fair_topk" in out
        assert "ndcg@" in out


class TestExperiment:
    def test_figure1_experiment(self, capsys) -> None:
        assert main(["experiment", "figure1"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1 toy" in out
        assert "exhaustive" in out

    def test_table_experiment_scaled_down(self, tmp_path: Path, capsys) -> None:
        out_path = tmp_path / "table1.json"
        assert (
            main(
                [
                    "experiment",
                    "table1",
                    "--workers",
                    "100",
                    "--seed",
                    "4",
                    "--out",
                    str(out_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "average EMD, measured (paper)" in out
        assert "runtime (seconds, ours)" in out
        assert out_path.exists()
