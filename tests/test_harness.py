"""Tests for the experiment harness, config layering, CSV output and CLI."""

import csv
import json

import numpy as np
import pytest

from fdeval.cli import main
from fdeval.errors import InvalidInput
from fdeval.fde import OptimizerSettings, TSelectionParams
from fdeval.harness import (
    CSV_HEADER,
    ExperimentConfig,
    build_config,
    load_config_file,
    run_experiment,
    write_reports,
    _run_lqr_cell,
)

SMALL = dict(methods=("kl",), n_list=(60,), reps=2)


def test_config_validation():
    with pytest.raises(InvalidInput):
        ExperimentConfig(methods=("nope",))
    with pytest.raises(InvalidInput):
        ExperimentConfig(reps=0)
    for experiment in ("lqr", "tabular"):
        with pytest.raises(InvalidInput):
            ExperimentConfig(experiment=experiment, methods=("tvd_mc",))
    # settings that every cell reads alike are checked up front: out of
    # range, they would fail every cell or abort the sweep
    for bad in (
        dict(b_samples=0),
        dict(n_list=(60, 0)),
        dict(dpi_points=0),
        dict(experiment="tabular", dpi_points=0),
        dict(experiment="tabular", tabular_states=0),
        dict(experiment="tabular", tabular_actions=0),
        dict(experiment="tabular", tabular_gamma=0.0),
        dict(experiment="tabular", tabular_gamma=1.0),
        dict(experiment="tabular", tabular_gamma=1.5),
    ):
        with pytest.raises(InvalidInput):
            ExperimentConfig(**bad)


@pytest.mark.parametrize(
    "experiment,setting",
    [
        ("tabular", dict(sigma_rbf=2.0)),
        ("tabular", dict(sigma_lap=2.0)),
        ("tabular", dict(b_samples=4)),
        ("tabular", dict(optimizer=OptimizerSettings(max_evals=500))),
        ("lqr", dict(tabular_states=3)),
        ("lqr", dict(tabular_actions=3)),
        ("lqr", dict(tabular_gamma=0.5)),
    ],
)
def test_settings_the_experiment_never_reads_are_rejected(experiment, setting):
    with pytest.raises(InvalidInput, match="never reads"):
        ExperimentConfig(experiment=experiment, **setting)
    # the same setting is accepted by the experiment that reads it
    other = "lqr" if experiment == "tabular" else "tabular"
    ExperimentConfig(experiment=other, **setting)


def test_small_sweep_and_csv(tmp_path):
    config = ExperimentConfig(output_path=str(tmp_path / "r.csv"), **SMALL)
    reports = run_experiment(config)
    assert len(reports) == 2
    assert all(r.method == "kl" and r.n == 60 and not r.failed for r in reports)
    path = write_reports(reports, config)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == CSV_HEADER
    assert len(rows) == 3
    meta = json.loads((tmp_path / "r.csv.meta.json").read_text())
    assert meta["config"]["master_seed"] == 0
    assert meta["t_selection"]["c_divide"] == 5.0


def test_sweep_rerun_is_byte_identical(tmp_path):
    config = ExperimentConfig(output_path=str(tmp_path / "a.csv"), **SMALL)
    write_reports(run_experiment(config), config)
    config2 = ExperimentConfig(output_path=str(tmp_path / "b.csv"), **SMALL)
    write_reports(run_experiment(config2), config2)

    def strip_runtime(path):
        with open(path) as fh:
            return [row[:6] + row[7:] for row in csv.reader(fh)]

    assert strip_runtime(tmp_path / "a.csv") == strip_runtime(tmp_path / "b.csv")


def test_datasets_are_method_invariant():
    """Two methods on the same (rep, n) see identical data, so their seeds
    match and a pure-mean criterion evaluates both on the same draw."""
    c1 = ExperimentConfig(methods=("kl",), n_list=(60,), reps=1)
    c2 = ExperimentConfig(methods=("pdf_l2", "kl"), n_list=(60,), reps=1)
    r1 = run_experiment(c1)[0]
    r2 = [r for r in run_experiment(c2) if r.method == "kl"][0]
    assert r1.seed == r2.seed
    assert r1.inaccuracy == pytest.approx(r2.inaccuracy, abs=1e-12)


def test_tabular_cells_ignore_method_label():
    config = ExperimentConfig(
        experiment="tabular", methods=("kl", "energy"), n_list=(200,), reps=1,
        dpi_points=100,
    )
    reports = run_experiment(config)
    assert reports[0].inaccuracy == pytest.approx(reports[1].inaccuracy, abs=1e-12)


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(
        "[experiment]\n"
        "kind = lqr\n"
        "methods = kl, pdf_l2\n"
        "n = 60\n"
        "reps = 3\n"
        "seed = 7\n"
        "[divergence]\n"
        "sigma_rbf = 2.5\n"
        "b = 4\n"
        "[t_selection]\n"
        "c_divide = 10\n"
        "[optimizer]\n"
        "max_evals = 500\n"
    )
    loaded = load_config_file(str(cfg))
    assert loaded["methods"] == ("kl", "pdf_l2")
    assert loaded["master_seed"] == 7
    config = build_config(str(cfg), reps=9, master_seed=None)
    assert config.reps == 9  # flag wins
    assert config.master_seed == 7  # None flags fall through to the file
    assert config.sigma_rbf == 2.5
    assert config.b_samples == 4
    assert config.t_params.c_divide == 10.0
    assert config.optimizer.max_evals == 500


def test_config_file_errors(tmp_path):
    with pytest.raises(InvalidInput):
        load_config_file(str(tmp_path / "missing.ini"))
    with pytest.raises(InvalidInput):
        build_config(None, not_a_field=3)
    for body in (
        "[divergence]\nvariance_floor = 0.5\n",  # a key that nothing reads
        "[experiment]\nkind = lqr\n[extra]\n",  # a section that nothing reads
        "[optimizer]\ngradient_mode = analytic\n",  # removed: one gradient path
        "[optimizer]\nfd_step = 1e-5\n",  # removed with finite differences
        "[experiment]\nkind = tabular\n[divergence]\nsigma_rbf = 2\n",  # unread by tabular
    ):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(body)
        with pytest.raises(InvalidInput):
            build_config(str(cfg))


def test_cli_rejects_b_zero_before_running(tmp_path, capsys):
    cfg = tmp_path / "b0.ini"
    cfg.write_text("[divergence]\nb = 0\n")
    out = tmp_path / "b0.csv"
    code = main(["run-lqr", "--config", str(cfg), "--methods", "fle", "--n", "60",
                 "--reps", "1", "--out", str(out)])
    assert code == 1
    assert "b_samples" in capsys.readouterr().err
    assert not out.exists()


def test_cli_rejects_zero_dpi_points_before_running(tmp_path, capsys):
    # dpi_points = 0 used to turn every cell into a NaN row and exit 0
    cfg = tmp_path / "dpi0.ini"
    cfg.write_text("[experiment]\ndpi_points = 0\n")
    out = tmp_path / "dpi0.csv"
    code = main(["run-tabular", "--config", str(cfg), "--n", "60", "--reps", "1",
                 "--out", str(out)])
    assert code == 1
    assert "dpi_points" in capsys.readouterr().err
    assert not out.exists()


def _meta_config(csv_path):
    return json.loads(csv_path.with_name(csv_path.name + ".meta.json").read_text())["config"]


def test_cli_run_tabular_instance_flags(tmp_path, capsys):
    out = tmp_path / "tab.csv"
    code = main(["run-tabular", "--states", "1", "--actions", "2", "--gamma", "0.5",
                 "--methods", "kl", "--n", "60", "--reps", "1", "--out", str(out)])
    assert code == 0
    assert "wrote 1 rows" in capsys.readouterr().out
    meta = _meta_config(out)
    assert (meta["tabular_states"], meta["tabular_actions"], meta["tabular_gamma"]) == (1, 2, 0.5)


def test_config_file_tabular_section(tmp_path, capsys):
    cfg = tmp_path / "tab.ini"
    cfg.write_text("[tabular]\nstates = 2\nactions = 1\ngamma = 0.6\n")
    out = tmp_path / "tab.csv"
    code = main(["run-tabular", "--config", str(cfg), "--gamma", "0.5", "--methods", "kl",
                 "--n", "60", "--reps", "1", "--out", str(out)])
    assert code == 0
    meta = _meta_config(out)
    # the flag wins over the file
    assert (meta["tabular_states"], meta["tabular_actions"], meta["tabular_gamma"]) == (2, 1, 0.5)


def test_cli_rejects_tabular_section_on_lqr(tmp_path, capsys):
    cfg = tmp_path / "lqr.ini"
    cfg.write_text("[experiment]\nkind = lqr\n[tabular]\nstates = 3\n")
    out = tmp_path / "lqr.csv"
    code = main(["run-lqr", "--config", str(cfg), "--methods", "kl", "--n", "60",
                 "--reps", "1", "--out", str(out)])
    assert code == 1
    assert "tabular_states" in capsys.readouterr().err
    assert not out.exists()


def test_failure_becomes_nan_row(monkeypatch, tmp_path):
    from fdeval import harness
    from fdeval.errors import OptimizationFailure

    def boom(*args, **kwargs):
        raise OptimizationFailure("forced", iteration=1)

    monkeypatch.setattr(harness, "fde_run", boom)
    config = ExperimentConfig(output_path=str(tmp_path / "f.csv"), **SMALL)
    reports = run_experiment(config)
    assert all(r.failed and np.isnan(r.inaccuracy) for r in reports)
    path = write_reports(reports, config)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[1][5] == "nan" and rows[1][7] == "1"


def test_any_toolkit_error_fails_only_its_cell(monkeypatch):
    from fdeval import harness
    from fdeval.errors import NonConvergence

    real_fde_run = harness.fde_run

    def flaky(data, env, config):
        if config.divergence.kind == "pdf_l2":
            raise NonConvergence("forced")
        return real_fde_run(data, env, config)

    monkeypatch.setattr(harness, "fde_run", flaky)
    config = ExperimentConfig(methods=("pdf_l2", "kl"), n_list=(60,), reps=1)
    reports = {r.method: r for r in run_experiment(config)}
    assert reports["pdf_l2"].failed and np.isnan(reports["pdf_l2"].inaccuracy)
    assert not reports["kl"].failed and np.isfinite(reports["kl"].inaccuracy)


def test_too_few_records_for_t_folds_is_a_failed_row():
    # at n = 3 the rule asks for T = 5 folds, so split_dataset rejects the data
    config = ExperimentConfig(methods=("kl",), n_list=(3, 60), reps=1)
    reports = {r.n: r for r in run_experiment(config)}
    assert reports[3].failed and np.isnan(reports[3].inaccuracy)
    assert not reports[60].failed


def test_tabular_error_is_a_failed_row_not_an_abort():
    # c_divide = 0.01 asks for T = 546 folds of n = 10 records, so
    # split_dataset rejects the data before any truth solve
    config = ExperimentConfig(
        experiment="tabular", methods=("kl", "energy"), n_list=(10,), reps=1,
        t_params=TSelectionParams(c_divide=0.01),
    )
    reports = run_experiment(config)
    assert len(reports) == 2
    for r in reports:
        assert r.failed and np.isnan(r.inaccuracy) and r.t_used == 546


def test_cli_run_lqr_small(tmp_path, capsys):
    out = tmp_path / "cli.csv"
    code = main([
        "run-lqr", "--methods", "kl", "--n", "60", "--reps", "1", "--out", str(out),
    ])
    assert code == 0
    assert out.exists() and (tmp_path / "cli.csv.meta.json").exists()
    assert "wrote 1 rows" in capsys.readouterr().out


def test_cli_rejects_tvd_on_lqr(capsys):
    code = main(["run-lqr", "--methods", "tvd_mc", "--n", "60", "--reps", "1"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_cli_check_exit_codes(capsys):
    assert main(["check", "--suite", "sandwich", "--seed", "0"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is True
    assert main(["check", "--suite", "no_such_suite"]) == 1


def test_cli_truth_lqr(capsys):
    assert main(["truth-lqr"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["m3"][0][0] == pytest.approx(2.6485, abs=1e-3)
    assert payload["return_variance"] == pytest.approx(50.2513, abs=1e-3)


def test_runtime_ms_recorded():
    report = _run_lqr_cell(ExperimentConfig(**SMALL), "kl", 60, 0)
    assert report.runtime_ms > 0
    assert report.t_used >= 1
