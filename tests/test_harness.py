"""Tests for the experiment harness, config layering, CSV output and CLI."""

import csv
import dataclasses
import itertools
import json
import re
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import optimize

from fdeval import fde, harness
from fdeval.cli import main
from fdeval.envs import LQREnv
from fdeval.errors import InvalidInput
from fdeval.fde import choose_t
from fdeval.harness import (
    CSV_HEADER,
    SETTINGS,
    ExperimentConfig,
    build_config,
    load_config_file,
    run_experiment,
    write_reports,
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
        dict(experiment="tabular", tabular_states=0),
        dict(experiment="tabular", tabular_actions=0),
        dict(experiment="tabular", tabular_gamma=0.0),
        dict(experiment="tabular", tabular_gamma=1.0),
        dict(experiment="tabular", tabular_gamma=1.5),
    ):
        with pytest.raises(InvalidInput):
            ExperimentConfig(**bad)
    # a negative seed used to pass and fail in SeedSequence, outside any
    # cell; a float or bool seed is no integer either
    for seed in (-1, 1.5, True):
        with pytest.raises(InvalidInput, match="master_seed"):
            ExperimentConfig(master_seed=seed)
    # each of these used to raise a bare TypeError from a comparison
    for key, bad in (
        ("sigma_rbf", dict(sigma_rbf="1")),
        ("sigma_lap", dict(sigma_lap=b"1")),
        ("tabular_gamma", dict(experiment="tabular", tabular_gamma="0.5")),
        ("c_divide", dict(c_divide=None)),
        ("c_divide", dict(c_divide=True)),
    ):
        with pytest.raises(InvalidInput, match=key):
            ExperimentConfig(**bad)


# each float used to pass the config and abort run_experiment with a
# TypeError from inside a cell, e.g. "seed must be integer" for n = 300.5
@pytest.mark.parametrize("setting", [
    dict(reps=2.5),
    dict(reps=True),
    dict(n_list=(300.5,)),
    dict(n_list=(60, True)),
    dict(workers=1.0),
    dict(dpi_points=1.5),
    dict(b_samples=2.0),
    dict(experiment="tabular", tabular_states=2.5),
    dict(experiment="tabular", tabular_actions=np.float64(2.0)),
], ids=repr)
def test_counts_must_be_integers(setting):
    with pytest.raises(InvalidInput, match="must be an integer"):
        ExperimentConfig(**setting)


@pytest.mark.parametrize("value", [-1.0, 0.0, float("nan"), float("inf")])
@pytest.mark.parametrize("key", ["sigma_rbf", "sigma_lap"])
def test_kernel_bandwidths_must_be_positive(key, value):
    # such a bandwidth used to pass and turn every rbf or laplace cell into a
    # NaN row; an infinite one gave ok rows of the least-squares fit
    with pytest.raises(InvalidInput, match=key):
        ExperimentConfig(**{key: value})


@pytest.mark.parametrize(
    "experiment,setting",
    [
        ("tabular", dict(sigma_rbf=2.0)),
        ("tabular", dict(sigma_lap=2.0)),
        ("tabular", dict(b_samples=4)),
        ("tabular", dict(sigma_rbf=1.0)),  # present at its default: still rejected
        ("lqr", dict(tabular_states=3)),
        ("lqr", dict(tabular_actions=3)),
        ("lqr", dict(tabular_gamma=0.5)),
        ("tabular", dict(dpi_points=1000)),  # the tabular occupancy is exact
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
    assert meta["config"]["c_divide"] == 5.0
    assert meta["config"]["dpi_points"] == 1000
    assert meta["dpi_scheme"].startswith("geometric-horizon occupancy sample")


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


def test_rows_count_folds_whose_optimizer_exit_failed(tmp_path, monkeypatch):
    """The energy fit of master seed 5 at n = 300 runs first; a proxy makes its
    last fold's L-BFGS-B exit report failure.  Its row counts it, and the KL
    row, whose calls come after, counts none."""
    config = ExperimentConfig(methods=("energy", "kl"), n_list=(300,), reps=1, master_seed=5,
                              output_path=str(tmp_path / "nc.csv"))
    calls = itertools.count(1)
    last_energy_fold = choose_t(300, LQREnv.default().gamma)

    def minimize(*args, **kwargs):
        result = optimize.minimize(*args, **kwargs)
        if next(calls) == last_energy_fold:
            result.success = False
        return result

    monkeypatch.setattr(fde, "optimize", SimpleNamespace(minimize=minimize))
    reports = {r.method: r for r in run_experiment(config)}
    assert not reports["energy"].failed and reports["energy"].not_converged == 1
    assert reports["kl"].not_converged == 0
    with open(write_reports(list(reports.values()), config)) as fh:
        rows = {row["method"]: row for row in csv.DictReader(fh)}
    assert rows["energy"]["not_converged"] == str(reports["energy"].not_converged)


def test_tabular_cells_ignore_method_label():
    config = ExperimentConfig(
        experiment="tabular", methods=("kl", "energy"), n_list=(200,), reps=1,
    )
    reports = run_experiment(config)
    assert reports[0].inaccuracy == pytest.approx(reports[1].inaccuracy, abs=1e-12)
    assert [r.not_converged for r in reports] == [0, 0]  # no optimizer runs


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
    )
    loaded = load_config_file(str(cfg))
    assert loaded["methods"] == ("kl", "pdf_l2")
    assert loaded["master_seed"] == 7
    config = build_config(str(cfg), reps=9, master_seed=None)
    assert config.reps == 9  # flag wins
    assert config.master_seed == 7  # None flags fall through to the file
    assert config.sigma_rbf == 2.5
    assert config.b_samples == 4
    assert config.c_divide == 10.0


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
        "[optimizer]\nmax_evals = 500\n",  # removed: the fit's limits are constants
        "[experiment]\nkind = tabular\n[divergence]\nsigma_rbf = 2\n",  # unread by tabular
    ):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(body)
        with pytest.raises(InvalidInput):
            build_config(str(cfg))


def test_config_file_values_that_do_not_parse_are_invalid_input(tmp_path):
    for body, where in (
        ("[experiment]\nkind = tabular\n[tabular]\nstates = abc\n", r"\[tabular\] states"),
        ("[experiment]\nreps = x\n", r"\[experiment\] reps"),
        ("[experiment]\nn = 300, 1e3x\n", r"\[experiment\] n"),
        ("[t_selection]\nc_divide = five\n", r"\[t_selection\] c_divide"),
    ):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(body)
        with pytest.raises(InvalidInput, match=where):
            build_config(str(cfg))


def test_unread_setting_is_rejected_even_at_its_default(tmp_path):
    cfg = tmp_path / "lqr.ini"
    cfg.write_text("[experiment]\nkind = lqr\n[tabular]\nstates = 4\n")
    with pytest.raises(InvalidInput, match="never reads"):
        build_config(str(cfg))
    # unset, each experiment fills in the settings it reads
    lqr, tabular = ExperimentConfig(), ExperimentConfig(experiment="tabular")
    assert (lqr.sigma_rbf, lqr.sigma_lap, lqr.b_samples, lqr.dpi_points) == (1.0, 1.0, 1, 1000)
    assert lqr.tabular_states is None
    assert (tabular.tabular_states, tabular.tabular_actions, tabular.tabular_gamma) == (4, 2, 0.9)
    assert (tabular.sigma_rbf, tabular.dpi_points) == (None, None)


@pytest.mark.parametrize("flags", [["--n", "3x"], ["--reps", "x"], ["--seed", "1.5"]])
def test_cli_bad_flag_value_exits_1_without_output(tmp_path, capsys, flags):
    out = tmp_path / "bad.csv"
    code = main(["run-lqr", "--methods", "kl", "--n", "60", "--reps", "1", "--out", str(out)]
                + flags)
    assert code == 1
    assert f"error: {flags[0]}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("body", [
    "kind = lqr\n",  # no [section] line
    "[experiment]\nreps = 1\nreps = 2\n",  # a repeated key
])
def test_cli_malformed_config_file_exits_1_with_an_error_line(tmp_path, capsys, body):
    # each used to end the run with a configparser traceback
    cfg = tmp_path / "bad.ini"
    cfg.write_text(body)
    out = tmp_path / "bad.csv"
    code = main(["run-lqr", "--config", str(cfg), "--methods", "kl", "--n", "60",
                 "--reps", "1", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: config file {str(cfg)!r}")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("body", [
    "[DEFAULT]\nreps = 7\n",  # used to load as {}
    "[DEFAULT]\nreps = 7\n[experiment]\nseed = 1\n",  # used to put reps = 7 in [experiment]
])
def test_config_file_keys_under_default_are_rejected(tmp_path, capsys, body):
    cfg = tmp_path / "default.ini"
    cfg.write_text(body)
    with pytest.raises(InvalidInput, match=r"\[DEFAULT\]"):
        load_config_file(str(cfg))
    out = tmp_path / "out.csv"
    code = main(["run-lqr", "--config", str(cfg), "--methods", "kl", "--n", "60",
                 "--reps", "1", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and "[DEFAULT]" in err
    assert not out.exists()


def test_config_file_values_are_literal(tmp_path, capsys):
    # a % used to be read as interpolation and end the run with a traceback
    cfg = tmp_path / "pct.ini"
    cfg.write_text(f"[experiment]\nout = {tmp_path / 'res_%d.csv'}\n")
    code = main(["run-lqr", "--config", str(cfg), "--methods", "kl", "--n", "60",
                 "--reps", "1"])
    assert code == 0
    assert (tmp_path / "res_%d.csv").exists()


def test_readme_config_examples_load(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```ini\n(.*?)```", readme, re.S)
    assert blocks
    for i, block in enumerate(blocks):
        cfg = tmp_path / f"readme{i}.ini"
        cfg.write_text(block)
        build_config(str(cfg))
    assert re.search(r"columns\s+`([^`]*)`", readme).group(1) == ",".join(CSV_HEADER)


# base sweeps small enough to rerun once per field; each sets a setting that
# only its experiment reads, so switching the experiment alone is rejected.
# The LQR base's c_divide gives 5 folds of 12 records: a fold of at most 9
# records (the rank of the features) is fitted exactly by every divergence,
# so no bandwidth could move it.
_PERTURB_BASE = {
    "lqr": dict(methods=("rbf", "laplace", "fle"), n_list=(60,), reps=1, dpi_points=100,
                sigma_rbf=1.0, c_divide=20.0),
    "tabular": dict(methods=("kl",), n_list=(60,), reps=1,
                    tabular_states=2, tabular_actions=1, tabular_gamma=0.9),
}
_PERTURBED = dict(
    methods=("rbf", "laplace"), n_list=(70,), reps=2, master_seed=1, sigma_rbf=2.0,
    sigma_lap=2.0, b_samples=3, c_divide=4.0, workers=2,
    dpi_points=120, tabular_states=1, tabular_actions=2, tabular_gamma=0.8,
)


@pytest.mark.parametrize("experiment", ["lqr", "tabular"])
def test_every_setting_changes_the_reports_or_is_rejected(experiment, tmp_path):
    base = dict(_PERTURB_BASE[experiment], experiment=experiment,
                output_path=str(tmp_path / "base.csv"))
    perturbed = dict(_PERTURBED, experiment="tabular" if experiment == "lqr" else "lqr",
                     output_path=str(tmp_path / "moved.csv"))

    def reports(config):
        return [dataclasses.replace(r, runtime_ms=0.0) for r in run_experiment(config)]

    reference = reports(ExperimentConfig(**base))
    assert not any(r.failed for r in reference)
    for f in dataclasses.fields(ExperimentConfig):
        try:
            config = ExperimentConfig(**dict(base, **{f.name: perturbed[f.name]}))
        except InvalidInput as exc:
            assert "never reads" in str(exc), f.name
            continue
        got = reports(config)
        if f.name == "workers":
            assert got == reference
        elif f.name == "output_path":
            assert got == reference
            assert write_reports(got, config) == perturbed["output_path"]
            assert (tmp_path / "moved.csv").exists() and not (tmp_path / "base.csv").exists()
        else:
            assert got != reference, f.name


def test_cli_rejects_b_zero_before_running(tmp_path, capsys):
    cfg = tmp_path / "b0.ini"
    cfg.write_text("[divergence]\nb = 0\n")
    out = tmp_path / "b0.csv"
    code = main(["run-lqr", "--config", str(cfg), "--methods", "fle", "--n", "60",
                 "--reps", "1", "--out", str(out)])
    assert code == 1
    assert "b_samples" in capsys.readouterr().err
    assert not out.exists()


def test_cli_rejects_zero_bandwidth_before_running(tmp_path, capsys):
    cfg = tmp_path / "sigma0.ini"
    cfg.write_text("[divergence]\nsigma_rbf = 0\n")
    out = tmp_path / "sigma0.csv"
    code = main(["run-lqr", "--config", str(cfg), "--methods", "rbf", "--n", "60",
                 "--reps", "1", "--out", str(out)])
    assert code == 1
    assert "sigma_rbf" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["0", "-1", "nan"])
def test_cli_rejects_bad_c_divide_before_running(tmp_path, capsys, value):
    # c_divide = nan used to pass the config and crash the first cell's choose_t
    cfg = tmp_path / "t.ini"
    cfg.write_text(f"[t_selection]\nc_divide = {value}\n")
    out = tmp_path / "t.csv"
    code = main(["run-lqr", "--config", str(cfg), "--methods", "kl", "--n", "60",
                 "--reps", "1", "--out", str(out)])
    assert code == 1
    assert re.search(r"error: .*c_divide", capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("key", ["l", "delta", "c", "q", "alpha"])
def test_cli_rejects_removed_t_selection_constants(tmp_path, capsys, key):
    # the rule's other constants act only through one product with c_divide
    cfg = tmp_path / "t.ini"
    cfg.write_text(f"[t_selection]\nc_divide = 5\n{key} = 1\n")
    out = tmp_path / "t.csv"
    code = main(["run-lqr", "--config", str(cfg), "--methods", "kl", "--n", "60",
                 "--reps", "1", "--out", str(out)])
    assert code == 1
    assert f"error: unknown config file key [t_selection] {key}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags", [["--methods", "kl,kl"], ["--n", "60,60"]])
def test_cli_rejects_repeated_labels_or_sizes(tmp_path, capsys, flags):
    # repeats used to run as their own cells and write duplicate CSV rows
    out = tmp_path / "dup.csv"
    code = main(["run-lqr", "--methods", "kl", "--n", "60", "--reps", "1", "--out", str(out)]
                + flags)
    assert code == 1
    assert re.search(r"error: .*repeats an entry", capsys.readouterr().err)
    assert not out.exists()


def test_every_config_field_is_one_setting():
    assert set(SETTINGS) == {f.name for f in dataclasses.fields(ExperimentConfig)}


def test_cli_rejects_a_negative_seed_before_running(tmp_path, capsys):
    # it used to end in a SeedSequence ValueError traceback
    out = tmp_path / "seed.csv"
    code = main(["run-lqr", "--seed", "-1", "--methods", "kl", "--n", "60", "--reps", "1", "--out", str(out)])
    assert code == 1
    assert re.search(r"error: .*master_seed", capsys.readouterr().err)
    assert not out.exists()


def test_cli_rejects_an_unwritable_out_before_running(tmp_path, capsys, monkeypatch):
    # an --out in a missing directory used to run the whole sweep, then lose
    # every row to a FileNotFoundError traceback
    monkeypatch.setattr(harness, "_run_cell", lambda cell: pytest.fail("a cell ran"))
    for out in (tmp_path / "missing" / "rows.csv", tmp_path):
        code = main(["run-tabular", "--methods", "kl", "--n", "60", "--reps", "1", "--out", str(out)])
        assert code == 1
        assert f"error: cannot write to {str(out)!r}" in capsys.readouterr().err
    assert not (tmp_path / "missing").exists()


def test_write_reports_turns_a_failed_write_into_invalid_input(tmp_path):
    config = ExperimentConfig(output_path=str(tmp_path / "missing" / "rows.csv"))
    with pytest.raises(InvalidInput, match="cannot write the reports"):
        write_reports([], config)


def test_cli_rejects_zero_dpi_points_before_running(tmp_path, capsys):
    # dpi_points = 0 used to turn every cell into a NaN row and exit 0
    cfg = tmp_path / "dpi0.ini"
    cfg.write_text("[experiment]\ndpi_points = 0\n")
    out = tmp_path / "dpi0.csv"
    code = main(["run-lqr", "--config", str(cfg), "--methods", "kl", "--n", "60",
                 "--reps", "1", "--out", str(out)])
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
    assert meta["dpi_points"] is None
    scheme = json.loads(out.with_name(out.name + ".meta.json").read_text())["dpi_scheme"]
    assert scheme.startswith("exact discounted occupancy")


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
    assert rows[1][5] == "nan" and rows[1][7] == "1" and rows[1][8] == "0"


def test_nonfinite_score_becomes_failed_row(monkeypatch):
    monkeypatch.setattr(harness, "lqr_inaccuracy", lambda *args, **kwargs: float("nan"))
    reports = run_experiment(ExperimentConfig(**SMALL))
    assert all(r.failed and np.isnan(r.inaccuracy) and r.runtime_ms > 0 for r in reports)


def test_any_toolkit_error_fails_only_its_cell(monkeypatch):
    from fdeval.errors import NonConvergence

    real_fde_run = harness.fde_run

    def flaky(data, env, spec, t_count):
        if spec.kind == "pdf_l2":
            raise NonConvergence("forced")
        return real_fde_run(data, env, spec, t_count)

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
        c_divide=0.01,
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


def test_cli_check_rejects_a_negative_seed(capsys):
    """The seed went on to default_rng, whose ValueError escaped as a traceback."""
    assert main(["check", "--suite", "sandwich", "--seed", "-1"]) == 1
    assert "seed must be an integer >= 0" in capsys.readouterr().err


def test_cli_truth_lqr(capsys):
    assert main(["truth-lqr"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["m3"][0][0] == pytest.approx(2.6485, abs=1e-3)
    assert payload["return_variance"] == pytest.approx(50.2513, abs=1e-3)


def test_runtime_ms_covers_the_whole_cell(monkeypatch):
    """Data collection is the first stage of a cell, so a 50 ms stall there
    shows in every row, ok or failed, on both experiments."""
    for name in ("lqr_collect", "tabular_collect"):
        def slow(*args, _collect=getattr(harness, name), **kwargs):
            time.sleep(0.05)
            return _collect(*args, **kwargs)

        monkeypatch.setattr(harness, name, slow)
    # at n = 3 the rule asks for T = 5 folds, so that row fails after collection
    lqr = run_experiment(ExperimentConfig(methods=("kl",), n_list=(3, 60), reps=1))
    tabular = run_experiment(ExperimentConfig(
        experiment="tabular", methods=("kl",), n_list=(60,), reps=1,
        tabular_states=2, tabular_actions=1,
    ))
    assert [r.failed for r in lqr + tabular] == [True, False, False]
    for r in lqr + tabular:
        assert r.runtime_ms >= 50 and r.t_used >= 1
