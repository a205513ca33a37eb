import argparse
import csv
import dataclasses

import numpy as np
import pytest

from dpcl.accountant import Policy, TaskBudget, budget_lemma2
import dpcl.cli
from dpcl.cli import (
    EXIT_CONFIG,
    EXIT_NUMERIC,
    EXIT_OK,
    RunSpec,
    budget_curve_table,
    build_parser,
    cmd_budget_curve,
    cmd_run,
    main,
)
from dpcl.trainer import Mode, ProjectionRule

ARTIFACTS = ["accuracy_matrix.csv", "metrics.csv", "budget_report.csv", "run_manifest.cfg"]


def quick_spec(out, **kw):
    defaults = dict(mode="agem", tasks=3, epochs=2, sampling_rate=0.25, sigma=0.0,
                    synth_dim=8, synth_classes=3, synth_per_class=12,
                    ref_fraction=0.2, hidden="8", ref_batch=4, seed=1, out=str(out))
    defaults.update(kw)
    return RunSpec(**defaults)


def test_run_emits_all_artifacts(tmp_path):
    out = tmp_path / "run"
    assert cmd_run(quick_spec(out)) == EXIT_OK
    for name in ARTIFACTS:
        assert (out / name).exists()
    with open(out / "accuracy_matrix.csv") as f:
        rows = list(csv.reader(f))
    assert len(rows) == 4  # header + 3 tasks
    assert rows[1][2] == rows[1][3] == ""  # upper triangle empty


def test_run_deterministic_modulo_timestamp(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert cmd_run(quick_spec(a)) == EXIT_OK
    assert cmd_run(quick_spec(b)) == EXIT_OK
    for name in ARTIFACTS[:-1]:
        assert (a / name).read_bytes() == (b / name).read_bytes()
    strip = lambda p: [l for l in (p / "run_manifest.cfg").read_text().splitlines()
                       if not l.startswith(("timestamp", "out "))]
    assert strip(a) == strip(b)


BAD_INPUTS = {
    "ref_fraction_2": ["--ref-fraction", "2.0"],
    "empty_ref_split": ["--ref-fraction", "0.001"],
    "empty_train_split_batch": ["--ref-fraction", "0.999", "--batch", "10"],
    "empty_train_split": ["--ref-fraction", "0.999"],
    "no_examples": ["--synth-per-class", "0"],
    "no_classes": ["--synth-classes", "0"],
    "zero_hidden_width": ["--hidden", "0"],
    "lambda_max_0": ["--lambda-max", "0"],
    "delta_2": ["--delta", "2"],
    "negative_lca_beta": ["--lca-beta", "-1"],
    "missing_archive": ["--images", "/nonexistent", "--labels", "/nonexistent"],
    "sigma_nan": ["--sigma", "nan"],
    "clip_inf": ["--clip", "inf"],
    "synth_margin_nan": ["--synth-margin", "nan"],
    "learning_rate_inf": ["--learning-rate", "inf"],
}


@pytest.mark.parametrize("bad", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
def test_run_invalid_config_exit_code(tmp_path, capsys, bad):
    out = tmp_path / "bad"
    code = main(["run", "--tasks", "2", "--epochs", "1", "--synth-per-class", "12",
                 "--synth-classes", "3", "--synth-dim", "8", "--hidden", "8",
                 "--out", str(out), *bad])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_run_nonfinite_feature_exits_numeric(tmp_path, capsys, monkeypatch, bad):
    real = dpcl.cli.make_synthetic

    def poisoned(*args):
        base = real(*args)
        base.x[:, 0] = bad
        return base

    monkeypatch.setattr(dpcl.cli, "make_synthetic", poisoned)
    out = tmp_path / "nan"
    code = main(["run", "--mode", "dp_cl", "--tasks", "2", "--epochs", "1",
                 "--synth-per-class", "12", "--synth-classes", "3", "--synth-dim", "8",
                 "--hidden", "8", "--out", str(out)])
    assert code == EXIT_NUMERIC
    assert capsys.readouterr().err.startswith("numeric failure: ")
    assert not out.exists()


def _run_option(dest):
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return next(a for a in sub.choices["run"]._actions if a.dest == dest)


def test_run_defaults_live_in_run_spec():
    args = build_parser().parse_args(["run"])
    assert vars(args) == {"command": "run"}
    assert RunSpec(**{k: v for k, v in vars(args).items() if k != "command"}) == RunSpec()
    # every RunSpec field has a flag of the same name that round-trips its default
    argv = ["run"]
    for f in dataclasses.fields(RunSpec):
        value = getattr(RunSpec(), f.name)
        if value is not None:
            argv += [f"--{f.name.replace('_', '-')}", str(value)]
    args = build_parser().parse_args(argv)
    assert RunSpec(**{k: v for k, v in vars(args).items() if k != "command"}) == RunSpec()


def test_run_choices_come_from_enums():
    assert _run_option("mode").choices == [e.value for e in Mode]
    assert _run_option("policy").choices == [e.value for e in Policy]
    assert _run_option("projection").choices == [e.value for e in ProjectionRule]


def test_run_budget_report_matches_lemma2_composition(tmp_path):
    out = tmp_path / "dp"
    spec = quick_spec(out, mode="dp_cl", sigma=1.0, clip=0.1, delta=1e-4,
                      policy="lemma2", epochs=1)
    assert cmd_run(spec) == EXIT_OK
    with open(out / "budget_report.csv") as f:
        rows = list(csv.DictReader(f))
    budgets = [TaskBudget(int(r["task_id"]), float(r["eps_train"]), float(r["eps_ref"]))
               for r in rows]
    expected = budget_lemma2(budgets, len(budgets), delta=1e-4)
    assert float(rows[0]["total"]) == pytest.approx(expected.total, abs=1e-9)
    assert [float(r["eps_task_at_T"]) for r in rows] == pytest.approx(expected.per_task)


def test_budget_curve_constant_budgets():
    rows = budget_curve_table(1.0, 0.0, 17, seed=0)
    t, l1, l2 = rows[-1]
    assert t == 17
    assert l1 == pytest.approx(153.0, abs=1e-12)
    assert l2 == pytest.approx(33.0, abs=1e-12)


def test_budget_curve_single_task():
    rows = budget_curve_table(1.0, 0.0, 1, seed=0)
    assert rows[0][1] == rows[0][2] == pytest.approx(1.0, abs=1e-12)


def test_budget_curve_monte_carlo_bounds():
    totals1, totals2 = [], []
    for seed in range(100):
        rows = budget_curve_table(1.0, 0.02, 17, seed=seed)
        totals1.append(rows[-1][1])
        totals2.append(rows[-1][2])
    assert all(145 <= v <= 161 for v in totals1)
    assert all(31 <= v <= 35 for v in totals2)


def test_lemma1_curve_dominates_lemma2():
    rows = budget_curve_table(1.0, 0.02, 10, seed=3)
    for t, l1, l2 in rows:
        if t >= 3:
            assert l1 > l2


def test_budget_curve_rejects_bad_task_count(capsys):
    assert cmd_budget_curve(1.0, 0.0, 0, seed=0) == EXIT_CONFIG


BAD_CURVE_INPUTS = {
    "eps_mean_nan": ["--eps-mean", "nan"],
    "eps_mean_inf": ["--eps-mean", "inf"],
    "eps_std_inf": ["--eps-std", "inf"],
    "eps_std_nan": ["--eps-std", "nan"],
    "eps_std_neg_inf": ["--eps-std=-inf"],
}


@pytest.mark.parametrize("bad", BAD_CURVE_INPUTS.values(), ids=BAD_CURVE_INPUTS.keys())
def test_budget_curve_rejects_nonfinite_eps(tmp_path, capsys, bad):
    out = tmp_path / "curve.csv"
    assert main(["budget-curve", "--out", str(out), *bad]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.out == ""
    assert not out.exists()


def test_budget_curve_csv_output(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    assert cmd_budget_curve(1.0, 0.0, 5, seed=0, out=str(out)) == EXIT_OK
    with open(out) as f:
        rows = list(csv.DictReader(f))
    assert [int(r["T"]) for r in rows] == [1, 2, 3, 4, 5]
    reparsed = [(float(r["lemma1_total"]), float(r["lemma2_total"])) for r in rows]
    assert reparsed[-1] == (5 + 4 + 3 + 2 + 1, 5 + 4)


def test_main_budget_curve_cli(capsys, tmp_path):
    code = main(["budget-curve", "--eps-mean", "1", "--eps-std", "0",
                 "--tasks", "17", "--seed", "0"])
    assert code == EXIT_OK
    out_lines = capsys.readouterr().out.strip().splitlines()
    assert out_lines[0] == "T,lemma1_total,lemma2_total"
    last = out_lines[-1].split(",")
    assert last[0] == "17"
    assert float(last[1]) == pytest.approx(153.0)
    assert float(last[2]) == pytest.approx(33.0)


def test_main_run_cli(tmp_path):
    out = tmp_path / "cli_run"
    code = main(["run", "--mode", "agem", "--tasks", "2", "--epochs", "1",
                 "--sampling-rate", "0.25", "--sigma", "0",
                 "--synth-dim", "8", "--synth-classes", "3", "--synth-per-class", "10",
                 "--ref-fraction", "0.2", "--hidden", "8", "--seed", "2",
                 "--out", str(out)])
    assert code == EXIT_OK
    assert (out / "metrics.csv").exists()
