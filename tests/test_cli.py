import argparse
import csv
import dataclasses
import hashlib
import os
import subprocess
import sys
from pathlib import Path

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
from dpcl.dp import NoiseConfig
from dpcl.trainer import Mode, ProjectionRule, TrainConfig

from _oracles import write_idx_archive

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
    "lambda_max_1025": ["--lambda-max", "1025"],  # above MAX_LAMBDA; never run one that allocates
    "delta_2": ["--delta", "2"],
    "negative_lca_beta": ["--lca-beta", "-1"],
    "negative_seed": ["--seed", "-1"],
    "missing_archive": ["--images", "/nonexistent", "--labels", "/nonexistent"],
    "sigma_nan": ["--sigma", "nan"],
    "clip_inf": ["--clip", "inf"],
    "synth_margin_nan": ["--synth-margin", "nan"],
    "learning_rate_inf": ["--learning-rate", "inf"],
    "empty_test_split": ["--synth-dim", "2", "--synth-classes", "2", "--synth-per-class", "1",
                         "--ref-fraction", "0.5"],
    "dp_cl_sigma_0": ["--mode", "dp_cl", "--sigma", "0"],
    "dp_agem_sigma_0": ["--mode", "dp_agem", "--sigma", "0"],
    "test_archive_other_size": ["--images", "{dir}/img2", "--labels", "{dir}/lbl2",
                                "--test-images", "{dir}/img3", "--test-labels", "{dir}/lbl3"],
    "lone_test_images": ["--images", "{dir}/img2", "--labels", "{dir}/lbl2",
                         "--test-images", "{dir}/img2"],
    "lone_test_labels": ["--images", "{dir}/img2", "--labels", "{dir}/lbl2",
                         "--test-labels", "{dir}/lbl2"],
    "test_archive_without_images": ["--test-images", "{dir}/img2", "--test-labels", "{dir}/lbl2"],
    "labels_without_images": ["--labels", "{dir}/lbl2"],
    "test_labels_past_training_classes": ["--images", "{dir}/img2", "--labels", "{dir}/lbl2",
                                          "--test-images", "{dir}/img5",
                                          "--test-labels", "{dir}/lbl5"],
}


@pytest.mark.parametrize("bad", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
def test_run_invalid_config_exit_code(tmp_path, capsys, bad):
    # {dir} holds a 2x2-pixel archive of 12 images in 3 classes, one in 5
    # classes and a 3x3-pixel one of 6 images
    labels = np.arange(12) % 3
    write_idx_archive(tmp_path / "img2", tmp_path / "lbl2",
                      np.full((12, 2, 2), 128), labels)
    write_idx_archive(tmp_path / "img5", tmp_path / "lbl5",
                      np.full((12, 2, 2), 128), np.arange(12) % 5)
    write_idx_archive(tmp_path / "img3", tmp_path / "lbl3",
                      np.full((6, 3, 3), 128), labels[:6])
    out = tmp_path / "bad"
    code = main(["run", "--tasks", "2", "--epochs", "1", "--synth-per-class", "12",
                 "--synth-classes", "3", "--synth-dim", "8", "--hidden", "8",
                 "--out", str(out), *(arg.format(dir=tmp_path) for arg in bad)])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_run_on_zero_pixel_images_exits_config_before_training(tmp_path, capsys):
    """An archive of 300 images of 0 x 0 pixels is refused when it is
    parsed: exit 2, one error: line, and no --out directory."""
    write_idx_archive(tmp_path / "img", tmp_path / "lbl",
                      np.zeros((300, 0, 0)), np.arange(300) % 10)
    out = tmp_path / "run"
    code = main(["run", "--images", str(tmp_path / "img"), "--labels", str(tmp_path / "lbl"),
                 "--tasks", "2", "--seed", "0", "--out", str(out)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "offsets 8 and 12" in err and err.count("\n") == 1
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


def test_diverging_agem_run_exits_numeric(tmp_path, capsys):
    """At a learning rate of 1e300 the noiseless run's parameters overflow,
    and its gradient fails the same finiteness check as a private one."""
    out = tmp_path / "diverged"
    with np.errstate(all="ignore"):
        code = main(["run", "--mode", "agem", "--learning-rate", "1e300", "--tasks", "2",
                     "--seed", "0", "--out", str(out)])
    assert code == EXIT_NUMERIC
    assert capsys.readouterr().err == "numeric failure: gradient contains NaN/Inf\n"
    assert not out.exists()


@pytest.mark.parametrize("batch", ["0", "-3"])
def test_run_batch_below_one_names_the_flag(tmp_path, capsys, batch):
    out = tmp_path / "bad"
    assert main(["run", "--batch", batch, "--tasks", "2", "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err == "error: --batch must be >= 1\n"
    assert not out.exists()


def test_run_out_under_a_file_exits_config_before_training(tmp_path, capsys, monkeypatch):
    blocker = tmp_path / "file"
    blocker.write_text("keep")
    monkeypatch.setattr(dpcl.cli, "run_stream", lambda *a: pytest.fail("trained"))
    assert cmd_run(quick_spec(blocker / "run")) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: ")
    assert blocker.read_text() == "keep"


def test_run_unwritable_artifact_exits_config(tmp_path, capsys):
    out = tmp_path / "run"
    out.mkdir()
    (out / "metrics.csv").mkdir()  # a directory where a file must go
    assert cmd_run(quick_spec(out)) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: ")


def test_budget_curve_out_under_a_file_exits_config(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("keep")
    assert main(["budget-curve", "--out", str(blocker / "curve.csv")]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.out == ""
    assert blocker.read_text() == "keep"


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


def test_run_flags_are_the_run_spec_fields():
    # the fields whose default is None parse as the type that is not None
    parser = build_parser()
    args = parser.parse_args(["run", "--batch", "7", "--seed", "3", "--images", "a",
                              "--labels", "b", "--test-images", "c", "--test-labels", "d"])
    given = {k: v for k, v in vars(args).items() if k != "command"}
    assert given == {"batch": 7, "seed": 3, "images": "a", "labels": "b",
                     "test_images": "c", "test_labels": "d"}
    assert [type(v) for v in given.values()] == [int, int, str, str, str, str]
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    flags = [s for a in sub.choices["run"]._actions for s in a.option_strings
             if s not in ("-h", "--help")]
    assert flags == [f"--{f.name.replace('_', '-')}" for f in dataclasses.fields(RunSpec)]


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
    expected = budget_lemma2(budgets, len(budgets))
    assert float(rows[0]["total"]) == pytest.approx(expected.total, abs=1e-9)
    assert [float(r["eps_task_at_T"]) for r in rows] == pytest.approx(expected.per_task)


@pytest.mark.parametrize("policy", ["lemma1", "lemma2"])
@pytest.mark.parametrize("mode", ["dp_cl", "dp_agem"])
def test_budget_report_rows_add_up(tmp_path, mode, policy):
    """Each row of budget_report.csv holds what the policy charges its task:
    eps_train + eps_ref is eps_task_at_T, and the rows sum to the total.
    Every value is a float repr, 0.0 included."""
    out = tmp_path / "run"
    args = ["--mode", mode, "--policy", policy, "--tasks", "3", "--seed", "0", "--out", str(out)]
    assert main(["run", *args]) == EXIT_OK
    with open(out / "budget_report.csv") as f:
        rows = list(csv.DictReader(f))
    assert [r["task_id"] for r in rows] == ["1", "2", "3"]
    for r in rows:
        eps = {k: float(r[k]) for k in ("eps_train", "eps_ref", "eps_task_at_T", "total")}
        assert all(r[k] == repr(v) for k, v in eps.items())
        assert eps["eps_train"] + eps["eps_ref"] == eps["eps_task_at_T"]
    assert sum(float(r["eps_task_at_T"]) for r in rows) == float(rows[0]["total"])
    # lemma 1 charges reads to the block read, lemma 2 to the reading task
    no_reads = rows[-1] if policy == "lemma1" else rows[0]
    assert no_reads["eps_ref"] == "0.0"
    assert all(float(r["eps_ref"]) > 0 for r in rows if r is not no_reads)


def test_run_defaults_are_the_train_config_defaults():
    spec = RunSpec(seed=0)
    noise = NoiseConfig(sigma=spec.sigma, clip_bound=spec.clip, seed=0)
    assert noise == NoiseConfig(seed=0)
    expected = TrainConfig(noise=NoiseConfig(seed=0), seed=0)
    assert dpcl.cli._build_config(spec, 600, noise) == expected


@pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")
def test_run_at_a_sigma_whose_square_underflows_reports_infinite_epsilon(tmp_path):
    out = tmp_path / "tiny_sigma"
    assert cmd_run(quick_spec(out, mode="dp_cl", sigma=1e-200)) == EXIT_OK
    with open(out / "budget_report.csv") as f:
        rows = list(csv.DictReader(f))
    assert rows and all(row["total"] == "inf" for row in rows)
    assert all(row[k] != "nan" for row in rows for k in row)


@pytest.mark.parametrize("mode", ["agem", "dp_cl"])
def test_run_writes_the_hash_of_the_trained_params(tmp_path, monkeypatch, mode):
    calls = []  # the (stream, config) that cmd_run trains on
    real = dpcl.cli.run_stream
    monkeypatch.setattr(dpcl.cli, "run_stream", lambda *a: calls.append(a) or real(*a))
    out = tmp_path / mode
    assert cmd_run(quick_spec(out, mode=mode, sigma=0.0 if mode == "agem" else 1.0)) == EXIT_OK
    with open(out / "metrics.csv") as f:
        rows = dict(csv.reader(f))
    expected = hashlib.sha256(real(*calls[0]).net.params.tobytes()).hexdigest()
    assert rows["final_params_sha256"] == expected


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
    "negative_seed": ["--seed", "-1"],
    "eps_mean_negative": ["--eps-mean", "-1", "--tasks", "2"],
    "eps_std_negative": ["--eps-std", "-0.5"],
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


def test_run_negative_seed_is_named_before_the_stream_is_built(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(dpcl.cli, "make_synthetic", lambda *a: pytest.fail("stream built"))
    out = tmp_path / "bad"
    assert main(["run", "--tasks", "2", "--seed", "-1", "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "seed" in err
    assert not out.exists()


def recorded_seeds(monkeypatch):
    """(run seed, noise seed) of every run_stream call from the CLI."""
    seeds = []
    real = dpcl.cli.run_stream

    def recording(stream, cfg):
        seeds.append((cfg.seed, cfg.noise.seed))
        return real(stream, cfg)

    monkeypatch.setattr(dpcl.cli, "run_stream", recording)
    return seeds


PRIVATE_RUN = ["run", "--mode", "dp_cl", "--tasks", "2", "--epochs", "1", "--synth-dim", "8",
               "--synth-classes", "3", "--synth-per-class", "10", "--hidden", "8"]


def test_run_without_seed_draws_one_and_does_not_record_it(tmp_path, monkeypatch):
    seeds = recorded_seeds(monkeypatch)
    for name in ("a", "b"):
        assert main([*PRIVATE_RUN, "--out", str(tmp_path / name)]) == EXIT_OK
    assert seeds[0] != seeds[1]
    for (seed, noise_seed), name in zip(seeds, ("a", "b")):
        assert noise_seed == seed
        artifacts = "".join((tmp_path / name / f).read_text() for f in ARTIFACTS)
        assert str(seed) not in artifacts
        assert "seed = unrecorded" in (tmp_path / name / "run_manifest.cfg").read_text().splitlines()


def test_run_with_seed_uses_and_records_it(tmp_path, monkeypatch):
    seeds = recorded_seeds(monkeypatch)
    assert main([*PRIVATE_RUN, "--seed", "0", "--out", str(tmp_path / "run")]) == EXIT_OK
    assert seeds == [(0, 0)]
    assert "seed = 0" in (tmp_path / "run" / "run_manifest.cfg").read_text().splitlines()


def src_env():
    """The environment of a child process that imports dpcl from this tree."""
    src = str(Path(dpcl.cli.__file__).parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}


@pytest.mark.parametrize("flags", [["--mode", "agem", "--learning-rate", "1e300"],
                                   ["--mode", "dp_cl", "--sigma", "1e300"]],
                         ids=["agem_learning_rate", "dp_cl_sigma"])
def test_numeric_failure_is_the_only_stderr_line(tmp_path, flags):
    """numpy's overflow warnings from the diverging net do not reach stderr
    ahead of the one failure line."""
    out = tmp_path / "diverged"
    done = subprocess.run([sys.executable, "-m", "dpcl.cli", "run", *flags, "--tasks", "2",
                           "--seed", "0", "--out", str(out)],
                          capture_output=True, text=True, env=src_env(), timeout=120)
    assert done.returncode == EXIT_NUMERIC
    assert done.stderr == "numeric failure: gradient contains NaN/Inf\n"
    assert not out.exists()


@pytest.mark.parametrize("flags", [["--clip", "1e-320"], ["--mode", "dp_agem", "--clip", "1e-300"]],
                         ids=["dp_cl", "dp_agem"])
def test_zero_reference_gradients_leave_stderr_empty(tmp_path, flags):
    """At a clip bound this small every released reference gradient is zero,
    which already satisfies the constraint, so no step projects and none
    writes to stderr."""
    done = subprocess.run([sys.executable, "-m", "dpcl.cli", "run", *flags, "--tasks", "3",
                           "--seed", "0", "--out", str(tmp_path / "run")],
                          capture_output=True, text=True, env=src_env(), timeout=120)
    assert done.returncode == EXIT_OK
    assert done.stderr == ""


IMPORT_CHECK = """
import sys
import dpcl, dpcl.cli
out = sys.argv[1]
assert dpcl.cli.main(["run", "--mode", "dp_cl", "--tasks", "2", "--epochs", "1",
                      "--synth-dim", "8", "--synth-classes", "3", "--synth-per-class", "10",
                      "--hidden", "8", "--seed", "1", "--out", out]) == 0
assert dpcl.cli.main(["budget-curve", "--tasks", "3"]) == 0
print(sorted(m for m in sys.modules if m.startswith("scipy")))
"""


def test_cli_runs_without_importing_scipy(tmp_path):
    done = subprocess.run([sys.executable, "-c", IMPORT_CHECK, str(tmp_path / "run")],
                          capture_output=True, text=True, env=src_env(), timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"
    assert (tmp_path / "run" / "budget_report.csv").exists()
