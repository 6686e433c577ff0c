import math
import os
from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest

from rkmpc.bench import (
    SWEEPABLE,
    ExperimentConfig,
    _with_param,
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
from rkmpc.cli import ConfigError, _parsers, build_config, main
from rkmpc.solvers import VARIANTS, SolverConfig
from rkmpc.weights import BACKENDS, WeightConfig


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

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"episode_steps": 0}, "episode_steps must be >= 1"),
            ({"episode_steps": 2.5}, "episode_steps must be an integer, got 2.5"),
            ({"seeds": (0.5,)}, r"seeds\[0\] must be an integer, got 0.5"),
            ({"seeds": (0, "1")}, r"seeds\[1\] must be an integer, got '1'"),
        ],
        ids=["steps_zero", "steps_float", "seed_float", "seed_str"],
    )
    def test_bad_episode_steps_or_seeds_rejected(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            tiny_config(**kwargs)

    @pytest.mark.parametrize(
        "kwargs, match",
        [({"episode_steps": True}, "episode_steps must be an integer, got True"),
         ({"seeds": (True,)}, r"seeds\[0\] must be an integer, got True")],
        ids=["steps", "seeds"],
    )
    def test_bool_episode_steps_or_seeds_rejected(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            tiny_config(**kwargs)

    def test_numpy_integer_steps_and_seeds_accepted(self):
        got = run_experiment(tiny_config(episode_steps=np.int64(2), seeds=(np.int64(1),)))
        assert results_csv(got) == results_csv(run_experiment(tiny_config(episode_steps=2, seeds=(1,))))

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

    @pytest.mark.parametrize("param", SWEEPABLE)
    def test_each_param_sets_only_its_own_field(self, param):
        base = tiny_config()  # 0.375 is no parameter's value in it
        weights = replace(base.solver.weights, beta=0.375) if param == "beta" else base.solver.weights
        solver = replace(base.solver, weights=weights, **({} if param == "beta" else {param: 0.375}))
        assert _with_param(base, param, 0.375) == replace(base, solver=solver) != base


def config_from_main(tmp_path, monkeypatch, *flags):
    """The config that `bench run` builds from `flags` (one step, one iteration)."""
    configs = []
    monkeypatch.setattr("rkmpc.cli.run_experiment", lambda c: configs.append(c) or run_experiment(c))
    assert main(["run", "--steps", "1", "--iterations", "1", "--output", str(tmp_path), *flags]) == 0
    return configs[0]


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
        config = build_config({"n_candidates": 10, "beta": 0.5})
        assert config.solver.n_oversample == 40
        assert config.solver.weights == WeightConfig(beta=0.5)
        assert config.solver.horizon == SolverConfig().horizon

    def test_oversample_defaults_to_four_n_in_library_and_cli(self):
        assert SolverConfig(n_candidates=200).n_oversample == 800
        assert SolverConfig(n_candidates=64).n_oversample == build_config({"n_candidates": 64}).solver.n_oversample == 256
        assert SolverConfig(n_candidates=64, n_oversample=100).n_oversample == 100
        assert build_config({"n_candidates": 64, "n_oversample": 100}).solver.n_oversample == 100
        assert SolverConfig().n_oversample == 128
        # a resolved value is a value: replace() keeps it rather than re-deriving it
        assert replace(SolverConfig(n_candidates=16), n_candidates=32).n_oversample == 64

    # The flags convert their values, so these two go through `main`.
    def test_deadline_ms_converted(self, tmp_path, monkeypatch):
        assert config_from_main(tmp_path, monkeypatch, "--deadline-ms", "20").solver.deadline == pytest.approx(0.02)

    def test_seed_list_parsed(self, tmp_path, monkeypatch):
        assert config_from_main(tmp_path, monkeypatch, "--seed", "3, 5,8").seeds == (3, 5, 8)

    def test_ini_values_convert_as_their_flags_do(self, tmp_path, monkeypatch):
        ini = tmp_path / "exp.ini"
        ini.write_text("[solver]\ndeadline-ms = 20\n[experiment]\nseed = 3,5\n")
        config = config_from_main(tmp_path, monkeypatch, "--config", str(ini))
        assert config.solver.deadline == pytest.approx(0.02) and config.seeds == (3, 5)

    @pytest.mark.parametrize("key, value", [("solver", SolverConfig()), ("weights", WeightConfig())])
    def test_nested_config_key_raises_config_error(self, key, value):
        with pytest.raises(ConfigError, match=f"'{key}' is a nested config"):
            build_config({key: value})

    def test_invalid_values_raise_config_error(self):
        with pytest.raises(ConfigError):
            build_config({"alpha": -1.0})
        with pytest.raises(ConfigError):
            build_config({"variant": "simplex"})
        with pytest.raises(ConfigError, match="deadline"):
            build_config({"deadline": math.nan})


CONFIGS = (ExperimentConfig, SolverConfig, WeightConfig)
# flags of `run`, `sweep` and `compare` that set no config field
NOT_SETTINGS = {"help", "config", "output", "name", "param", "values", "solvers"}


class TestSettingsFlags:
    def test_every_settings_flag_sets_a_field_of_exactly_one_config(self):
        owned = [{f.name for f in fields(cls) if not is_dataclass(f.default_factory)} for cls in CONFIGS]
        _, commands = _parsers()
        assert set(commands) == {"run", "sweep", "compare"}
        for name, command in commands.items():
            for action in command._actions:
                if action.dest not in NOT_SETTINGS:
                    owners = sum(action.dest in names for names in owned)
                    assert owners == 1, (name, action.option_strings, action.dest)

    def test_no_field_name_is_declared_twice(self):
        names = [f.name for cls in CONFIGS for f in fields(cls)]
        assert len(names) == len(set(names))

    def test_choices_and_defaults_come_from_the_named_tuples(self):
        _, commands = _parsers()
        flags = {opt: action for command in commands.values() for action in command._actions for opt in action.option_strings}
        assert flags["--backend"].choices == BACKENDS
        assert flags["--param"].choices == SWEEPABLE
        assert flags["--solvers"].default == VARIANTS


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

    def test_infinite_kappa_exits_two_naming_it(self, tmp_path, capsys):
        assert main(self.run_args(tmp_path, extra=["--kappa", "inf"])) == 2
        assert "kappa must be finite, got kappa=inf" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--gamma", "inf", "5 * gamma must be finite"),
            ("--temperature", "inf", "temperature must be > 0 and finite, got temperature=inf"),
            ("--seed", "-1", "seeds must be >= 0"),
        ],
        ids=["inf_gamma", "inf_temperature", "negative_seed"],
    )
    def test_bad_setting_exits_two_naming_it(self, tmp_path, capsys, flag, value, message):
        code = main(self.run_args(tmp_path, extra=[flag, value]))
        assert code == 2
        assert message in capsys.readouterr().err

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

    def test_sweep_reads_param_and_values_from_the_ini_file(self, tmp_path, capsys):
        # argparse checked required=True before the file's values became defaults, so this exited 2
        settings = {"env": "quadratic_bowl", "steps": "2", "iterations": "2", "horizon": "2", "candidates": "16"}
        ini = tmp_path / "sweep.ini"
        ini.write_text("[experiment]\n" + "".join(f"{k} = {v}\n" for k, v in settings.items())
                       + "param = kappa\nvalues = 0,1\n")
        flags = [f"--{k}={v}" for k, v in settings.items()]
        assert main(["sweep", "--config", str(ini), "--output", str(tmp_path / "ini")]) == 0
        assert main(["sweep", *flags, "--param", "kappa", "--values", "0,1", "--output", str(tmp_path / "flag")]) == 0
        name = "bench_quadratic_bowl_accel_kappa_sweep.csv"
        assert (tmp_path / "ini" / name).read_bytes() == (tmp_path / "flag" / name).read_bytes()

    @pytest.mark.parametrize("given, missing", [(["--values", "0,1"], "--param"), (["--param", "kappa"], "--values")])
    def test_sweep_missing_param_or_values_exits_two_naming_it(self, tmp_path, capsys, given, missing):
        code = main(["sweep", "--env", "quadratic_bowl", "--steps", "1", "--iterations", "1",
                     "--output", str(tmp_path), *given])
        assert code == 2
        assert missing in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

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

    def test_compare_warns_when_every_total_is_identical(self, tmp_path, capsys):
        code = main([
            "compare", "--env", "quadratic_bowl", "--horizon", "2",
            "--candidates", "16", "--iterations", "2", "--steps", "2",
            "--seed", "0,0", "--output", str(tmp_path), "--solvers", "accel",
        ])
        assert code == 0
        assert "warning: all totals identical; scores flagged degenerate (0.5)" in capsys.readouterr().out

    def test_gnuplot_script_references_csv(self):
        script = gnuplot_script("data.csv", "task", "plot.svg")
        assert "data.csv" in script
        assert "plot.svg" in script
