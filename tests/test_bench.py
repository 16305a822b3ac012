import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import optlab
from optlab import lr_factor, problems
from optlab.benchmark import (
    CSV_HEADER,
    ConfigError,
    RunRecord,
    RunSummary,
    emit_csv,
    parse_config,
    run_benchmark,
    summary_text,
)
from optlab.cli import EXIT_CONFIG, EXIT_DIVERGED, EXIT_IO, EXIT_OK, main


def load_records(path: str | Path) -> list[RunRecord]:
    """Inverse of emit_csv: reproduces the emitted records exactly."""
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"{path}: unexpected CSV header")
    records = []
    for line in lines[1:]:
        run, optimizer, step, eta_t, loss, accuracy, clip_ratio, mean_vhat, decay_norm = (
            line.split(",")
        )
        records.append(
            RunRecord(
                run=run,
                optimizer=optimizer,
                step=int(step),
                eta_t=float(eta_t),
                loss=float(loss),
                accuracy=None if accuracy == "" else float(accuracy),
                clip_ratio=float(clip_ratio),
                mean_vhat=float(mean_vhat),
                decay_norm=float(decay_norm),
            )
        )
    return records


def config_dict(**overrides):
    base = {
        "schema_version": 1,
        "seed": 42,
        "t_max": 50,
        "cadence": 10,
        "problem": {"name": "rosenbrock"},
        "optimizers": [{"preset": "adamw"}, {"preset": "ranger21"}],
    }
    base.update(overrides)
    return base


def parse(**overrides):
    return parse_config(json.dumps(config_dict(**overrides)))


# 10**12 x 20 float64 inputs: 160 TB, yet each array is representable
HUGE_BLOBS = {"name": "blobs_mlp", "n": 10**12, "d": 20, "classes": 4, "batch_size": 128}


class TestParseConfig:
    def test_empty_overrides_resolve_to_preset_defaults(self):
        config = parse()
        spec = config.optimizers[1]
        assert spec.preset == "ranger21"
        cfg = spec.config
        assert cfg.weight_decay == 1e-4
        assert (cfg.moments.beta0, cfg.moments.beta1, cfg.moments.beta2) == (0.9, 0.9, 0.999)
        assert cfg.beta_lookahead == 0.5
        assert cfg.moments.eps == 1e-8
        assert cfg.clip.eps == 1e-3
        assert cfg.clip.tau == 1e-2
        assert cfg.k_lookahead == 5
        assert all(
            getattr(cfg.toggles, name)
            for name in ("agc", "centralization", "pnm", "norm_loss",
                         "stable_decay", "warmup", "warmdown", "lookahead")
        )

    def test_default_eta(self):
        config = parse()
        assert config.optimizers[0].config.schedule.eta == 3e-3

    def test_warmup_default_from_t_max(self):
        config = parse(t_max=1000)
        sched = config.optimizers[1].config.schedule
        assert sched.t_warmup == 220
        assert sched.t_warmdown == 280

    def test_negative_learning_rate_rejected_with_field(self):
        with pytest.raises(ConfigError, match=r"optimizers\[0\]\.eta"):
            parse(optimizers=[{"preset": "adamw", "eta": -1.0}])

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse(optimizers=[{"preset": "adamw", "learning_rate": 0.1}])

    def test_unknown_toggle_rejected(self):
        with pytest.raises(ConfigError, match=r"toggles.*unknown key"):
            parse(optimizers=[{"preset": "ranger21", "toggles": {"bogus": True}}])

    def test_adamw_rejects_ranger_only_keys(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse(optimizers=[{"preset": "adamw", "tau": 0.5}])

    def test_missing_problem_rejected(self):
        blob = config_dict()
        del blob["problem"]
        with pytest.raises(ConfigError, match="problem"):
            parse_config(json.dumps(blob))

    def test_missing_schema_version_rejected(self):
        blob = config_dict()
        del blob["schema_version"]
        with pytest.raises(ConfigError, match="schema_version"):
            parse_config(json.dumps(blob))

    def test_bad_json_reports_position(self):
        with pytest.raises(ConfigError, match="line"):
            parse_config("{not json}")

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ConfigError, match="unique"):
            parse(optimizers=[{"preset": "adamw"}, {"preset": "adamw"}])

    @pytest.mark.parametrize("label", ["adamw, lr=1e-3", 'say "hi"', "a\rb", "a\nb"])
    def test_label_that_csv_would_quote_rejected(self, label):
        # records.csv joins its cells with bare commas: such a label would shift them
        with pytest.raises(ConfigError, match=r"^optimizers\[1\]\.label: "):
            parse(optimizers=[{"preset": "adamw"}, {"preset": "adamw", "label": label}])

    def test_same_preset_twice_with_labels(self):
        config = parse(
            optimizers=[
                {"preset": "ranger21", "label": "full"},
                {"preset": "ranger21", "label": "no_lookahead",
                 "toggles": {"lookahead": False}},
            ]
        )
        assert [s.label for s in config.optimizers] == ["full", "no_lookahead"]

    def test_null_phase_length_means_the_default(self):
        config = parse(
            t_max=1000, optimizers=[{"preset": "ranger21", "t_warmup": None, "t_warmdown": None}]
        )
        sched = config.optimizers[0].config.schedule
        assert (sched.t_warmup, sched.t_warmdown) == (220, 280)

    def test_overlap_warning(self):
        config = parse(
            t_max=10,
            optimizers=[{"preset": "ranger21", "t_warmup": 8, "t_warmdown": 8}],
        )
        assert len(config.warnings) == 1
        assert "no flat phase" in config.warnings[0]

    @pytest.mark.parametrize(
        "toggles", [{"warmup": False, "warmdown": False}, {"warmup": False}, {"warmdown": False}]
    )
    def test_no_overlap_warning_without_both_phases(self, toggles):
        config = parse(
            t_max=10,
            optimizers=[
                {"preset": "ranger21", "t_warmup": 8, "t_warmdown": 8, "toggles": toggles}
            ],
        )
        assert config.warnings == []

    def test_blobs_problem_resolved(self):
        config = parse(
            problem={
                "name": "blobs_mlp", "n": 30, "d": 4, "classes": 3,
                "batch_size": 10, "separation": 5.0, "data_seed": 3,
                "hidden": [8], "activation": "relu",
            }
        )
        problem = config.problem
        assert problem.n == 30
        assert problem.widths == (4, 8, 3)
        assert problem.activation == "relu"

    def test_blobs_problem_parse_draws_no_data(self):
        tracemalloc.start()
        try:
            config = parse(problem=HUGE_BLOBS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "data" not in vars(config.problem)
        assert peak < 2**20

    def test_unknown_problem_rejected(self):
        with pytest.raises(ConfigError, match="unknown problem"):
            parse(problem={"name": "ackley"})

    @pytest.mark.parametrize(
        "overrides,field",
        [
            ({"problem": {"name": "rosenbrock", "start": ["a", 1]}}, r"problem\.start\[0\]"),
            ({"problem": {"name": "rosenbrock", "start": [1.0]}}, r"problem\.start"),
            ({"problem": {"name": "quadratic", "spectrum": [1.0, "b"]}},
             r"problem\.spectrum\[1\]"),
            ({"problem": {"name": "quadratic", "spectrum": [1.0, 0.0]}},
             r"problem\.spectrum\[1\]"),
            ({"problem": {"name": "quadratic", "spectrum": [1.0], "start": ["a"]}},
             r"problem\.start\[0\]"),
            ({"problem": {"name": "quadratic", "spectrum": [1.0], "start": [1.0, 2.0]}},
             r"problem\.start"),
            ({"optimizers": [{"preset": "adamw", "eta": "1e400"}]}, r"optimizers\[0\]\.eta"),
            ({"optimizers": [{"preset": "ranger21", "tau": float("inf")}]},
             r"optimizers\[0\]\.tau"),
            ({"loss_threshold": float("nan")}, r"loss_threshold"),
            ({"problem": {"name": "blobs_mlp", "n": 2, "d": 2, "classes": 3, "batch_size": 1}},
             r"^problem\.n: must be >= classes = 3, got 2$"),
            ({"problem": {"name": "blobs_mlp", "n": 4, "d": 2, "classes": 2, "batch_size": 1,
                          "data_seed": -1}}, r"problem\.data_seed"),
            ({"optimizers": [{"preset": "ranger21", "eps_clipping": 0}]},
             r"^optimizers\[0\]\.eps_clipping: "),
            ({"problem": {"name": "quadratic", "spectrum": [1.0, 2.0, "x"]}},
             r"^problem\.spectrum\[2\]: expected a finite number, got 'x'$"),
            ({"problem": {"name": "quadratic", "spectrum": 3}},
             r"^problem\.spectrum: expected a list, got 3$"),
            # an r x c array names the key of its larger extent, the row's on a tie
            ({"problem": {"name": "blobs_mlp", "n": 4, "d": 2, "classes": 2, "batch_size": 1,
                          "hidden": [2**31, 2**31]}},
             "^" + re.escape(
                 "problem.hidden[1]: a 2147483648x2147483648 weight needs 36893488147419103232"
                 " bytes, more than one array can hold (9223372036854775807)") + "$"),
            ({"problem": {"name": "blobs_mlp", "n": 4, "d": 2**62, "classes": 2, "batch_size": 1,
                          "hidden": [2]}},
             "^" + re.escape(
                 "problem.d: a 2x4611686018427387904 weight needs 73786976294838206464"
                 " bytes, more than one array can hold (9223372036854775807)") + "$"),
            ({"problem": {"name": "blobs_mlp", "n": 2**31, "d": 2**31, "classes": 2,
                          "batch_size": 1, "hidden": [1]}},
             "^" + re.escape(
                 "problem.n: 2147483648x2147483648 inputs need 36893488147419103232"
                 " bytes, more than one array can hold (9223372036854775807)") + "$"),
            ({"problem": {"name": "quadratic", "spectrum": []}},
             r"^problem\.spectrum: expected a non-empty list$"),
            ({"problem": {"name": "blobs_mlp", "n": 4, "d": 2, "classes": 2, "batch_size": 1,
                          "activation": "sigmoid"}},
             r"^problem\.activation: expected one of \['relu', 'tanh'\], got 'sigmoid'$"),
            # each entry is checked for type and range before the next
            ({"problem": {"name": "blobs_mlp", "n": 4, "d": 2, "classes": 2, "batch_size": 1,
                          "hidden": [0, "a"]}},
             r"^problem\.hidden\[0\]: must be >= 1, got 0$"),
        ],
        ids=[
            "start_entry", "start_length", "spectrum_entry", "spectrum_zero",
            "quadratic_start_entry", "quadratic_start_length", "eta_overflow",
            "tau_infinity", "threshold_nan", "blobs_too_few_samples", "data_seed_negative",
            "eps_clipping_zero", "spectrum_entry_2", "spectrum_not_list", "weight_tie",
            "weight_columns", "inputs_tie", "spectrum_empty", "activation_unknown",
            "hidden_zero_then_string",
        ],
    )
    def test_malformed_value_rejected_with_field(self, overrides, field):
        # json.dumps cannot write a literal that overflows; splice it in as text
        text = json.dumps(config_dict(**overrides)).replace('"1e400"', "1e400")
        with pytest.raises(ConfigError, match=field):
            parse_config(text)


class TestRunBenchmark:
    def test_two_optimizers_share_step_grid(self):
        result = run_benchmark(parse())
        by_opt = {}
        for r in result.records:
            by_opt.setdefault(r.optimizer, []).append(r.step)
        assert set(by_opt) == {"adamw", "ranger21"}
        assert by_opt["adamw"] == by_opt["ranger21"]

    def test_cadence_counting(self):
        config = parse(t_max=100, cadence=10, optimizers=[{"preset": "adamw"}])
        result = run_benchmark(config)
        assert [r.step for r in result.records] == list(range(10, 101, 10))

    def test_final_step_always_recorded(self):
        config = parse(t_max=37, cadence=10, optimizers=[{"preset": "adamw"}])
        result = run_benchmark(config)
        assert [r.step for r in result.records] == [10, 20, 30, 37]

    def test_deterministic_records(self):
        r1 = run_benchmark(parse())
        r2 = run_benchmark(parse())
        assert r1.records == r2.records

    def test_eta_column_recomputable_from_schedule(self):
        config = parse(t_max=200, cadence=7)
        result = run_benchmark(config)
        spec = {s.label: s for s in config.optimizers}
        for r in result.records:
            sched = spec[r.optimizer].config.schedule
            toggles = spec[r.optimizer].config.toggles
            if spec[r.optimizer].preset == "adamw":
                assert r.eta_t == sched.eta
            else:
                expected = sched.eta * lr_factor(
                    r.step,
                    sched,
                    spec[r.optimizer].config.moments.beta2,
                    warmup=toggles.warmup,
                    warmdown=toggles.warmdown,
                )
                assert r.eta_t == expected

    def test_best_loss_bounds_all_records(self):
        result = run_benchmark(parse(t_max=200, cadence=5))
        for summary in result.summaries:
            losses = [r.loss for r in result.records if r.optimizer == summary.optimizer]
            assert summary.best_loss == min(losses)
            assert summary.final_loss == losses[-1]

    def test_steps_to_threshold(self):
        config = parse(t_max=300, cadence=1, loss_threshold=8.0,
                       optimizers=[{"preset": "adamw", "eta": 1e-2}])
        result = run_benchmark(config)
        s = result.summaries[0]
        assert s.steps_to_threshold is not None
        first = next(r.step for r in result.records if r.loss <= 8.0)
        assert s.steps_to_threshold == first

    def test_divergence_keeps_partial_records(self):
        config = parse(
            t_max=40, cadence=1,
            optimizers=[{"preset": "adamw", "eta": 1e30}, {"preset": "adamw",
                        "label": "sane", "eta": 1e-3}],
        )
        result = run_benchmark(config)
        diverged = next(s for s in result.summaries if s.optimizer == "adamw")
        sane = next(s for s in result.summaries if s.optimizer == "sane")
        assert diverged.diverged
        assert not sane.diverged
        assert not result.all_diverged
        diverged_records = [r for r in result.records if r.optimizer == "adamw"]
        assert 0 < len(diverged_records) < 40
        sane_records = [r for r in result.records if r.optimizer == "sane"]
        assert len(sane_records) == 40

    def test_classification_records_accuracy(self):
        config = parse(
            t_max=20, cadence=10,
            problem={"name": "blobs_mlp", "n": 40, "d": 4, "classes": 2,
                     "batch_size": 20, "separation": 6.0},
            optimizers=[{"preset": "ranger21"}],
        )
        result = run_benchmark(config)
        assert all(r.accuracy is not None for r in result.records)
        assert all(0.0 <= r.accuracy <= 1.0 for r in result.records)

    def test_analytic_records_have_no_accuracy(self):
        result = run_benchmark(parse(optimizers=[{"preset": "adamw"}]))
        assert all(r.accuracy is None for r in result.records)

    def test_quadratic_run_records_both_presets(self):
        config = parse(
            t_max=200, cadence=50, loss_threshold=1e-3,
            problem={"name": "quadratic", "spectrum": [1.0, 4.0], "start": [1.0, -2.0]},
            optimizers=[{"preset": "adamw", "eta": 0.05}, {"preset": "ranger21", "eta": 0.05}],
        )
        result = run_benchmark(config)
        for label in ("adamw", "ranger21"):
            records = [r for r in result.records if r.optimizer == label]
            assert [r.step for r in records] == [50, 100, 150, 200]
            assert all(r.accuracy is None for r in records)
        assert not result.all_diverged
        adamw = result.summaries[0]
        assert (adamw.optimizer, adamw.steps_completed) == ("adamw", 200)
        first = next(r.step for r in result.records if r.loss <= 1e-3)
        assert adamw.steps_to_threshold == first == 100

    @pytest.mark.parametrize(
        "start,steps_completed",
        # from (1, 1) the first step takes x to about -1e160 and the full-data
        # loss overflows after it; from 1e200 the first batch loss already has
        [([1.0, 1.0], 1), ([1e200, 1.0], 0)],
        ids=["full_data_loss", "batch_loss"],
    )
    def test_overflowing_loss_ends_the_run_without_a_warning(self, start, steps_completed):
        config = parse(
            t_max=5, cadence=1,
            problem={"name": "quadratic", "spectrum": [1.0, 1.0], "start": start},
            optimizers=[{"preset": "adamw", "eta": 1e160}],
        )
        result = run_benchmark(config)  # pyproject.toml makes a RuntimeWarning an error
        assert result.records == []
        assert result.summaries == [
            RunSummary("adamw", True, steps_completed, None, None, None, None)
        ]


class TestEmitCsv:
    def record(self, **overrides):
        base = dict(
            run="rosenbrock-s42", optimizer="adamw", step=10, eta_t=1e-3,
            loss=0.5, accuracy=None, clip_ratio=0.0, mean_vhat=0.25, decay_norm=1e-6,
        )
        base.update(overrides)
        return RunRecord(**base)

    def test_empty_records_give_header_only(self, tmp_path):
        path = tmp_path / "out.csv"
        emit_csv([], path)
        assert path.read_text() == (
            "run,optimizer,step,eta_t,loss,accuracy,clip_ratio,mean_vhat,decay_norm\n"
        )

    def test_single_record_two_lines(self, tmp_path):
        path = tmp_path / "out.csv"
        emit_csv([self.record()], path)
        assert len(path.read_text().splitlines()) == 2

    def test_round_trip_exact(self, tmp_path):
        records = [
            self.record(step=20, loss=1.0 / 3.0, accuracy=0.975),
            self.record(step=10, loss=2.0 / 7.0),
            self.record(optimizer="ranger21", step=10, eta_t=1.5e-6),
        ]
        path = tmp_path / "out.csv"
        emit_csv(records, path)
        loaded = load_records(path)
        assert loaded == sorted(records, key=lambda r: (r.optimizer, r.step))

    def test_rows_sorted_by_optimizer_then_step(self, tmp_path):
        records = [
            self.record(optimizer="z", step=1),
            self.record(optimizer="a", step=2),
            self.record(optimizer="a", step=1),
        ]
        path = tmp_path / "out.csv"
        emit_csv(records, path)
        keys = [(r.optimizer, r.step) for r in load_records(path)]
        assert keys == [("a", 1), ("a", 2), ("z", 1)]

    def test_benchmark_csv_byte_identical_across_runs(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(run_benchmark(parse()).records, p1)
        emit_csv(run_benchmark(parse()).records, p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestSummaryText:
    def test_mentions_divergence(self):
        config = parse(t_max=10, cadence=1, optimizers=[{"preset": "adamw", "eta": 1e30}])
        text = summary_text(run_benchmark(config))
        assert "DIVERGED" in text


class TestCli:
    def write_config(self, tmp_path, **overrides):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config_dict(**overrides)))
        return str(path)

    def test_validate_ok(self, tmp_path, capsys):
        assert main(["validate", self.write_config(tmp_path)]) == EXIT_OK
        assert "ok" in capsys.readouterr().out

    def test_validate_config_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config_dict(optimizers=[])))
        assert main(["validate", str(path)]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_missing_file_is_io_error(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.json")]) == EXIT_IO

    def test_unwritable_out_is_io_error(self, tmp_path, capsys):
        config = self.write_config(tmp_path, t_max=5, cadence=5)
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory")
        out = blocker / "sub"
        assert main(["run", config, "--out", str(out), "--quiet"]) == EXIT_IO
        assert "error" in capsys.readouterr().err

    def test_run_writes_csv_and_summary(self, tmp_path, capsys):
        config = self.write_config(tmp_path, t_max=20, cadence=5)
        out = tmp_path / "results"
        assert main(["run", config, "--out", str(out)]) == EXIT_OK
        records = load_records(out / "records.csv")
        assert records
        summary = json.loads((out / "summary.json").read_text())
        assert {s["optimizer"] for s in summary["optimizers"]} == {"adamw", "ranger21"}
        assert "records written" in capsys.readouterr().out

    def test_run_quiet(self, tmp_path, capsys):
        config = self.write_config(tmp_path, t_max=5, cadence=5)
        assert main(["run", config, "--out", str(tmp_path / "o"), "--quiet"]) == EXIT_OK
        assert capsys.readouterr().out == ""

    def test_run_seed_override_changes_run_id(self, tmp_path):
        config = self.write_config(tmp_path, t_max=5, cadence=5)
        out = tmp_path / "o"
        main(["run", config, "--out", str(out), "--seed", "7", "--quiet"])
        records = load_records(out / "records.csv")
        assert records[0].run == "rosenbrock-s7"

    def test_all_diverged_exit_code(self, tmp_path):
        config = self.write_config(
            tmp_path, t_max=10, cadence=1, optimizers=[{"preset": "adamw", "eta": 1e30}]
        )
        assert main(["run", config, "--out", str(tmp_path / "o"), "--quiet"]) == EXIT_DIVERGED

    def test_overflowing_rosenbrock_run_reports_diverged(self, tmp_path, capsys):
        # the first step takes x1 to about 1e160, whose square overflows
        config = self.write_config(
            tmp_path, t_max=5, cadence=1, optimizers=[{"preset": "adamw", "eta": 1e160}]
        )
        out = tmp_path / "o"
        assert main(["run", config, "--out", str(out)]) == EXIT_DIVERGED
        assert "adamw: DIVERGED after 1 steps" in capsys.readouterr().out
        summary = json.loads((out / "summary.json").read_text())
        assert summary["optimizers"][0]["steps_completed"] == 1

    def test_schedule_prints_curve(self, tmp_path, capsys):
        config = self.write_config(
            tmp_path, t_max=100, optimizers=[{"preset": "ranger21", "eta": 1e-3}]
        )
        assert main(["schedule", config]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "step,eta_t"
        assert len(lines) == 101
        config_obj = parse(t_max=100, optimizers=[{"preset": "ranger21", "eta": 1e-3}])
        cfg = config_obj.optimizers[0].config
        sched = cfg.schedule
        for line in lines[1:]:
            t, eta_t = line.split(",")
            assert float(eta_t) == sched.eta * lr_factor(int(t), sched, cfg.moments.beta2)

    def test_schedule_adamw_is_constant_eta(self, tmp_path, capsys):
        config = self.write_config(
            tmp_path, t_max=30, optimizers=[{"preset": "adamw", "eta": 0.0123}]
        )
        assert main(["schedule", config]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[1:] == [f"{t},{0.0123!r}" for t in range(1, 31)]

    def test_malformed_start_is_config_error(self, tmp_path, capsys):
        config = self.write_config(tmp_path, problem={"name": "rosenbrock", "start": ["a", 1]})
        assert main(["validate", config]) == EXIT_CONFIG
        assert "problem.start[0]" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides,args,field",
        [
            ({"seed": -1}, [], "top level.seed"),
            ({"problem": {"name": "blobs_mlp", "n": 4, "d": 2, "classes": 2, "batch_size": 1,
                          "data_seed": -1}}, [], "problem.data_seed"),
            ({}, ["--seed", "-5"], "--seed"),
        ],
        ids=["seed", "data_seed", "seed_flag"],
    )
    def test_negative_seed_is_config_error(self, tmp_path, capsys, overrides, args, field):
        config = self.write_config(tmp_path, t_max=5, cadence=5, **overrides)
        out = str(tmp_path / "o")
        assert main(["run", config, "--out", out, "--quiet", *args]) == EXIT_CONFIG
        assert f"config error: {field}: must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key,value,field",
        [("hidden", [2**63], "problem.hidden[0]"), ("batch_size", 2**63, "problem.batch_size")],
        ids=["hidden", "batch_size"],
    )
    def test_oversized_extent_is_config_error(self, tmp_path, capsys, key, value, field):
        # validate only: a run would allocate arrays of these extents
        problem = {"name": "blobs_mlp", "n": 4, "d": 2, "classes": 2, "batch_size": 1, key: value}
        assert main(["validate", self.write_config(tmp_path, problem=problem)]) == EXIT_CONFIG
        assert f"config error: {field}: must be <= " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "sizes,field",
        [({"hidden": [2**62], "d": 2}, "problem.hidden[0]"),
         ({"hidden": [2], "d": 2**62}, "problem.d"),
         ({"hidden": [2, 2**31, 2**31]}, "problem.hidden[2]")],
        ids=["hidden", "d", "hidden_pair"],
    )
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_oversized_weight_is_config_error(self, tmp_path, capsys, sizes, field, command):
        # each extent fits an array axis, but the weight matrix would not fit
        # one array; the check comes before the dataset or any weight exists
        problem = {"name": "blobs_mlp", "n": 4, "d": 2, "classes": 2, "batch_size": 1, **sizes}
        args = [command, self.write_config(tmp_path, t_max=5, cadence=5, problem=problem)]
        if command == "run":
            args += ["--out", str(tmp_path / "o"), "--quiet"]
        assert main(args) == EXIT_CONFIG
        assert f"config error: {field}: a " in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "sizes,field",
        [({"n": 2**62}, "problem.n"), ({"n": 10**30}, "problem.n"),
         ({"n": 16, "d": 2**59, "hidden": [1]}, "problem.d")],
        ids=["n", "n_past_int64", "d"],
    )
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_oversized_inputs_are_config_error(self, tmp_path, capsys, sizes, field, command):
        # the n x d inputs would not fit one array; the check needs no data
        problem = {"name": "blobs_mlp", "n": 4, "d": 2, "classes": 2, "batch_size": 1, **sizes}
        args = [command, self.write_config(tmp_path, t_max=5, cadence=5, problem=problem)]
        if command == "run":
            args += ["--out", str(tmp_path / "o"), "--quiet"]
        assert main(args) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"config error: {field}: " in err and " inputs need " in err
        assert not (tmp_path / "o").exists()

    def test_out_of_memory_is_one_line_config_error(self, tmp_path, capsys, monkeypatch):
        config = self.write_config(tmp_path, t_max=5, cadence=5, problem=HUGE_BLOBS)
        assert main(["validate", config]) == EXIT_OK
        message = "Unable to allocate 146. TiB for an array with shape (1000000000000, 20)"

        def refuse(*blobs):
            # what numpy raises; a real draw of this size could get the process killed
            raise MemoryError(message)

        monkeypatch.setattr(problems, "make_blobs", refuse)
        out = tmp_path / "o"
        assert main(["run", config, "--out", str(out), "--quiet"]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: out of memory: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["validate", "run", "schedule"])
    def test_config_that_is_not_utf8_is_config_error(self, tmp_path, capsys, command):
        path = tmp_path / "config.json"
        path.write_bytes(json.dumps(config_dict()).encode("ascii") + b"\xff")
        args = [command, str(path)]
        if command == "run":
            args += ["--out", str(tmp_path / "o"), "--quiet"]
        assert main(args) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == "" and not (tmp_path / "o").exists()
        assert re.fullmatch(r"config error: not valid UTF-8: .*\n", captured.err)

    def test_outputs_are_utf8_whatever_the_locale(self, tmp_path):
        # the config holds the label as UTF-8, not as a JSON escape; the run under
        # an ASCII locale prints its summary, the other is quiet
        config = tmp_path / "config.json"
        labels = [{"preset": "adamw", "label": "adamw-é"}]
        config.write_text(
            json.dumps(config_dict(t_max=10, cadence=5, optimizers=labels), ensure_ascii=False),
            encoding="utf-8",
        )
        src = str(Path(optlab.__file__).resolve().parent.parent)
        default = dict(os.environ, PYTHONPATH=src)
        ascii_locale = dict(default, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
        outputs, procs = [], []
        for env, flags in ((default, ["--quiet"]), (ascii_locale, [])):
            out = tmp_path / f"out{len(outputs)}"
            procs.append(subprocess.run(
                [sys.executable, "-m", "optlab.cli", "run", str(config), "--out", str(out),
                 *flags],
                env=env, capture_output=True,
            ))
            outputs.append([(out / name).read_bytes() for name in ("records.csv", "summary.json")])
        assert [proc.returncode for proc in procs] == [EXIT_OK, EXIT_OK], procs[-1].stderr
        assert outputs[0] == outputs[1]
        assert ",adamw-é,".encode("utf-8") in outputs[0][0]
        assert procs[0].stdout == procs[1].stderr == b""
        lines = procs[1].stdout.decode("utf-8").splitlines()
        assert lines[1].startswith("  adamw-é: final loss ")
        assert lines[-1] == f"records written to {tmp_path / 'out1' / 'records.csv'}"

    def test_overlap_warning_printed(self, tmp_path, capsys):
        config = self.write_config(
            tmp_path, t_max=10,
            optimizers=[{"preset": "ranger21", "t_warmup": 9, "t_warmdown": 9}],
        )
        assert main(["validate", config]) == EXIT_OK
        assert "warning" in capsys.readouterr().err
