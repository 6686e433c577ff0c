import math
import os
from dataclasses import replace

import pytest

from rkmpc.bench import (
    ExperimentConfig,
    ablation_sweeps,
    compare_csv,
    gnuplot_script,
    normalize_scores,
    result_header,
    results_csv,
    run_experiment,
    summary_csv,
    timing_csv,
)
from rkmpc.cli import ConfigError, build_config, main
from rkmpc.solvers import SolverConfig
from rkmpc.weights import WeightConfig


def tiny_config(**kwargs):
    solver = SolverConfig(
        n_candidates=16,
        n_oversample=32,
        horizon=3,
        alpha=0.3,
        max_iterations=3,
        weights=WeightConfig(backend="mppi", temperature=0.5),
    )
    defaults = dict(env="quadratic_bowl", variant="accel", solver=solver,
                    episode_steps=4, seeds=(0, 1))
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


class TestExperimentConfig:
    def test_unknown_variant(self):
        with pytest.raises(ValueError, match="unknown solver variant"):
            tiny_config(variant="nope")

    def test_empty_seeds(self):
        with pytest.raises(ValueError):
            tiny_config(seeds=())

    def test_unknown_env_surfaces_at_run(self):
        config = tiny_config(env="no_such_env")
        with pytest.raises(ValueError, match="unknown environment"):
            run_experiment(config)


class TestRunExperiment:
    def test_record_shapes(self):
        records = run_experiment(tiny_config())
        assert len(records) == 2
        for rec, seed in zip(records, (0, 1)):
            assert rec.seed == seed
            assert len(rec.rows) == 4
            assert rec.total_reward == pytest.approx(-sum(r.realized_cost for r in rec.rows))

    def test_results_csv_byte_identical(self):
        a = results_csv(run_experiment(tiny_config()))
        b = results_csv(run_experiment(tiny_config()))
        assert a == b

    def test_results_csv_schema(self):
        records = run_experiment(tiny_config())
        text = results_csv(records)
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(result_header(1))
        assert len(lines) == 1 + 2 * 4
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "0"
        # floats carry at most 9 significant digits
        for cell in lines[1].split(",")[3:]:
            mantissa = cell.lstrip("-").replace(".", "").split("e")[0].lstrip("0")
            assert len(mantissa) <= 9

    def test_timing_csv_separate(self):
        records = run_experiment(tiny_config())
        text = timing_csv(records)
        lines = text.strip().split("\n")
        assert lines[0] == "seed,step,wall_time"
        assert len(lines) == 1 + 2 * 4
        assert "wall_time" not in results_csv(records)

    def test_zero_deadline_rows_report_one_iteration(self):
        from dataclasses import replace

        base = tiny_config()
        config = replace(base, solver=replace(base.solver, deadline=0.0, max_iterations=50))
        records = run_experiment(config)
        for rec in records:
            for row in rec.rows:
                assert row.iterations == 1


class TestNormalizeScores:
    def test_hand_case(self):
        normalized, degenerate = normalize_scores({"a": [0.0, 5.0], "b": [10.0]})
        assert not degenerate
        assert normalized["a"] == [0.0, 0.5]
        assert normalized["b"] == [1.0]

    def test_degenerate_flag(self):
        normalized, degenerate = normalize_scores({"a": [3.0], "b": [3.0, 3.0]})
        assert degenerate
        assert normalized["a"] == [0.5]
        assert normalized["b"] == [0.5, 0.5]

    def test_needs_two_totals(self):
        with pytest.raises(ValueError):
            normalize_scores({"a": [1.0]})

    def test_compare_csv_layout(self):
        text = compare_csv({"a": [0.0, 1.0]})
        lines = text.strip().split("\n")
        assert lines[0] == "method,seed_index,normalized_score"
        assert lines[1] == "a,0,0"
        assert lines[2] == "a,1,1"


class TestAblationSweeps:
    def test_bad_param(self):
        with pytest.raises(ValueError, match="sweep parameter"):
            ablation_sweeps(tiny_config(), "horizon", [1.0])

    def test_empty_values(self):
        with pytest.raises(ValueError, match="empty sweep"):
            ablation_sweeps(tiny_config(), "kappa", [])

    def test_rows_and_summary(self):
        rows = ablation_sweeps(tiny_config(episode_steps=2), "alpha", [0.1, 0.3])
        assert [r[0] for r in rows] == [0.1, 0.3]
        for _, m, s in rows:
            assert s >= 0.0
        text = summary_csv(rows, "alpha")
        assert text.startswith("alpha,mean_total_reward,std_total_reward\n")
        assert len(text.strip().split("\n")) == 3

    def test_beta_routes_to_weights(self):
        rows = ablation_sweeps(tiny_config(episode_steps=2), "beta", [0.0, 1.0])
        assert rows[0][0] == 0.0 and rows[1][0] == 1.0


class TestBuildConfig:
    def test_defaults(self):
        config = build_config({})
        assert config.env == "quadratic_bowl"
        assert config.variant == "accel"
        assert config.solver.n_candidates == 32
        assert config.solver.n_oversample == 128
        assert config.solver.horizon == 12
        assert config.seeds == (0,)

    def test_defaults_come_from_dataclasses(self):
        assert build_config({}) == ExperimentConfig()
        config = build_config({"candidates": 10, "beta": 0.5})
        assert config.solver.n_oversample == 40
        assert config.solver.weights == WeightConfig(beta=0.5)
        assert config.solver.horizon == SolverConfig().horizon

    def test_oversample_defaults_to_four_n_in_library_and_cli(self):
        assert SolverConfig(n_candidates=200).n_oversample == 800
        assert SolverConfig(n_candidates=64).n_oversample == build_config({"candidates": 64}).solver.n_oversample == 256
        assert SolverConfig(n_candidates=64, n_oversample=100).n_oversample == 100
        assert build_config({"candidates": 64, "oversample": 100}).solver.n_oversample == 100
        assert SolverConfig().n_oversample == 128
        # a resolved value is a value: replace() keeps it rather than re-deriving it
        assert replace(SolverConfig(n_candidates=16), n_candidates=32).n_oversample == 64

    def test_deadline_ms_converted(self):
        config = build_config({"deadline_ms": 20.0})
        assert config.solver.deadline == pytest.approx(0.02)

    def test_seed_list_parsed(self):
        config = build_config({"seed": "3,5,8"})
        assert config.seeds == (3, 5, 8)

    def test_invalid_values_raise_config_error(self):
        with pytest.raises(ConfigError):
            build_config({"alpha": -1.0})
        with pytest.raises(ConfigError):
            build_config({"solver": "simplex"})
        with pytest.raises(ConfigError, match="deadline"):
            build_config({"deadline_ms": math.nan})


class TestCli:
    def run_args(self, tmp_path, extra=()):
        return [
            "run",
            "--env", "quadratic_bowl",
            "--solver", "forward",
            "--horizon", "2",
            "--candidates", "16",
            "--iterations", "2",
            "--steps", "2",
            "--seed", "0,1",
            "--output", str(tmp_path),
            *extra,
        ]

    def test_run_round_trip(self, tmp_path, capsys):
        assert main(self.run_args(tmp_path)) == 0
        out = capsys.readouterr().out
        assert "mean total reward" in out
        stem = os.path.join(tmp_path, "bench_quadratic_bowl_forward")
        assert os.path.exists(stem + "_results.csv")
        assert os.path.exists(stem + "_timing.csv")
        with open(stem + "_results.csv") as fh:
            first_run = fh.read()
        assert main(self.run_args(tmp_path)) == 0
        with open(stem + "_results.csv") as fh:
            assert fh.read() == first_run

    def test_config_file_with_flag_override(self, tmp_path, capsys, monkeypatch):
        ini = tmp_path / "exp.ini"
        ini.write_text(
            "[experiment]\nenv = quadratic_bowl\nsolver = reverse\nsteps = 2\n"
            "[solver]\nhorizon = 2\ncandidates = 16\niterations = 2\n"
            "[weights]\nlambda = 0.3\n"
        )
        configs = []
        monkeypatch.setattr("rkmpc.cli.run_experiment", lambda c: configs.append(c) or run_experiment(c))
        code = main([
            "run", "--config", str(ini), "--solver", "accel",
            "--output", str(tmp_path),
        ])
        assert code == 0
        assert os.path.exists(tmp_path / "bench_quadratic_bowl_accel_results.csv")
        assert configs[0].solver.horizon == 2
        assert configs[0].solver.weights.quantile == 0.3

    def test_config_file_unknown_key(self, tmp_path, capsys):
        ini = tmp_path / "exp.ini"
        ini.write_text("[solver]\ncanddiates = 7\n")
        code = main(["run", "--config", str(ini), "--steps", "1", "--iterations", "1", "--output", str(tmp_path)])
        assert code == 2
        assert "'canddiates' is not a flag" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, code",
        [
            ("[experiment]\nname = run%1\n", 0),
            ("horizon = 2\n[solver]\n", 2),
            ("[solver]\nhorizon = 2\nhorizon = 3\n", 2),
        ],
        ids=["percent_is_literal", "key_above_section", "duplicate_key"],
    )
    def test_config_file_read_literally_or_rejected(self, tmp_path, capsys, text, code):
        ini = tmp_path / "exp.ini"
        ini.write_text(text)
        assert main(self.run_args(tmp_path, extra=["--config", str(ini)])) == code
        if code == 0:
            assert (tmp_path / "run%1_quadratic_bowl_forward_results.csv").exists()
        else:
            assert "error:" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "nope.ini")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_value_exits_two(self, tmp_path, capsys):
        code = main(self.run_args(tmp_path, extra=["--alpha", "-0.5"]))
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_nan_kappa_exits_two(self, tmp_path, capsys):
        code = main(self.run_args(tmp_path, extra=["--kappa", "nan"]))
        assert code == 2
        assert "gamma and kappa must be >= 0" in capsys.readouterr().err

    def test_output_dir_is_flag_or_ini_then_env_then_cwd(self, tmp_path, capsys, monkeypatch):
        args = self.run_args(tmp_path)
        args = args[: args.index("--output")]
        stem = "bench_quadratic_bowl_forward_results.csv"
        monkeypatch.setenv("BENCH_OUTPUT_DIR", str(tmp_path / "env"))
        assert main(args) == 0
        assert (tmp_path / "env" / stem).exists()
        ini = tmp_path / "exp.ini"
        ini.write_text(f"[experiment]\noutput = {tmp_path / 'ini'}\n")
        assert main([*args, "--config", str(ini)]) == 0
        assert (tmp_path / "ini" / stem).exists()
        assert main([*args, "--config", str(ini), "--output", str(tmp_path / "flag")]) == 0
        assert (tmp_path / "flag" / stem).exists()
        monkeypatch.delenv("BENCH_OUTPUT_DIR")
        monkeypatch.chdir(tmp_path / "flag")
        (tmp_path / "flag" / stem).unlink()
        assert main(args) == 0
        assert (tmp_path / "flag" / stem).exists()

    def test_sweep_command(self, tmp_path, capsys):
        code = main([
            "sweep", "--env", "quadratic_bowl", "--solver", "accel",
            "--horizon", "2", "--candidates", "16", "--iterations", "2",
            "--steps", "2", "--output", str(tmp_path),
            "--param", "gamma", "--values", "0.0,0.5",
        ])
        assert code == 0
        path = tmp_path / "bench_quadratic_bowl_accel_gamma_sweep.csv"
        assert path.exists()
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "gamma,mean_total_reward,std_total_reward"
        assert len(lines) == 3

    def test_compare_command(self, tmp_path, capsys):
        code = main([
            "compare", "--env", "quadratic_bowl", "--horizon", "2",
            "--candidates", "16", "--iterations", "2", "--steps", "2",
            "--seed", "0,1", "--output", str(tmp_path),
            "--solvers", "forward,accel",
        ])
        assert code == 0
        csv_path = tmp_path / "bench_quadratic_bowl_compare.csv"
        gp_path = tmp_path / "bench_quadratic_bowl_compare.gp"
        assert csv_path.exists() and gp_path.exists()
        assert "boxplot" in gp_path.read_text()
        lines = csv_path.read_text().strip().split("\n")
        assert lines[0] == "method,seed_index,normalized_score"
        assert len(lines) == 1 + 2 * 2

    def test_gnuplot_script_references_csv(self):
        script = gnuplot_script("data.csv", "task", "plot.svg")
        assert "data.csv" in script
        assert "plot.svg" in script
