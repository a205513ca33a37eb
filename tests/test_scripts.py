"""The two protocol scripts: a run left at its defaults draws an unrecorded
noise seed, an explicit --seed is used as given, bad inputs exit 2 with one
error line before anything trains, a numeric failure exits 3 with one line,
and a full-scale run is the `dpcl run` with the protocol's flags."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from dpcl.cli import main as cli_main

from _oracles import write_idx_archive

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


class _Stop(Exception):
    pass


def load_script(name):
    spec = importlib.util.spec_from_file_location(f"script_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def tiny_archives(tmp_path, n_train=120):
    """Train and test archive pairs of 4x4 images in three classes; after the
    reference split, 108 of the default 120 training examples remain for the
    script's batch of 100."""
    rng = np.random.default_rng(0)
    for prefix, n in (("train", n_train), ("t10k", 12)):
        write_idx_archive(tmp_path / f"{prefix}-images-idx3-ubyte",
                          tmp_path / f"{prefix}-labels-idx1-ubyte",
                          rng.integers(0, 256, size=(n, 4, 4)), np.arange(n) % 3)
    return ["--data-dir", str(tmp_path)]


def noise_seed(name, args, tmp_path, monkeypatch):
    """The noise seed the script hands to its private run_stream call, which
    is stopped there; a noiseless call before it returns nothing."""
    module = load_script(name)
    seeds = []

    def recorder(stream, cfg):
        if cfg.noise.sigma > 0:
            seeds.append((cfg.noise.seed, cfg.seed))
            raise _Stop

    monkeypatch.setattr(module, "run_stream", recorder)
    monkeypatch.setattr(sys, "argv", [name, *args, "--out", str(tmp_path / "out")])
    with pytest.raises(_Stop):
        module.main()
    (noise, run), = seeds
    assert noise == run
    return noise


@pytest.mark.parametrize("name", ["run_full_scale", "run_desk_scale"])
def test_script_default_seed_is_drawn_and_unrecorded(name, tmp_path, monkeypatch, capsys):
    args = tiny_archives(tmp_path) if name == "run_full_scale" else []
    first = noise_seed(name, args, tmp_path, monkeypatch)
    second = noise_seed(name, args, tmp_path, monkeypatch)
    assert first != second
    assert capsys.readouterr().out.count("seed: unrecorded") == 2


@pytest.mark.parametrize("name", ["run_full_scale", "run_desk_scale"])
def test_script_explicit_seed_is_used(name, tmp_path, monkeypatch, capsys):
    args = tiny_archives(tmp_path) if name == "run_full_scale" else []
    assert noise_seed(name, [*args, "--seed", "5"], tmp_path, monkeypatch) == 5
    assert "unrecorded" not in capsys.readouterr().out


def test_full_scale_script_runs_to_its_artifacts(tmp_path, monkeypatch, capsys):
    """The whole script on tiny archives: a two-task dp_cl run writes the
    accuracy matrix and one budget report per policy, and prints both totals;
    lemma 1's is at least lemma 2's."""
    args = tiny_archives(tmp_path)
    out = tmp_path / "out"
    monkeypatch.setattr(sys, "argv", ["run_full_scale", *args, "--tasks", "2", "--seed", "0",
                                      "--out", str(out)])
    assert load_script("run_full_scale").main() == 0
    stdout = capsys.readouterr().out
    with open(out / "dp_cl_accuracy_matrix.csv") as f:
        assert len(f.read().splitlines()) == 3  # a header and one row per task
    printed = []
    for policy in ("lemma1", "lemma2"):
        with open(out / f"dp_cl_budget_{policy}.csv") as f:
            header, *rows = f.read().splitlines()
        assert header == "task_id,eps_train,eps_ref,eps_task_at_T,total"
        assert [row.split(",")[0] for row in rows] == ["1", "2"]
        total = float(rows[0].split(",")[-1])
        assert 0 < total < float("inf")
        (line,) = [l for l in stdout.splitlines() if l.startswith(f"total epsilon ({policy}")]
        assert line == f"total epsilon ({policy}, delta=1e-4): {total:.3f}"
        printed.append(float(line.split()[-1]))
    assert printed[0] >= printed[1]


def test_full_scale_script_is_a_preset_of_dpcl_run(tmp_path, monkeypatch, capsys):
    """The script's private matrix and lemma 2 report are those of `dpcl run`
    with the protocol's flags, byte for byte."""
    args = tiny_archives(tmp_path)
    monkeypatch.setattr(sys, "argv", ["run_full_scale", *args, "--tasks", "2", "--seed", "0",
                                      "--out", str(tmp_path / "script")])
    assert load_script("run_full_scale").main() == 0
    archives = [arg for flag, stem in (("--images", "train-images-idx3"),
                                       ("--labels", "train-labels-idx1"),
                                       ("--test-images", "t10k-images-idx3"),
                                       ("--test-labels", "t10k-labels-idx1"))
                for arg in (flag, str(tmp_path / f"{stem}-ubyte"))]
    assert cli_main(["run", *archives, "--tasks", "2",
                     "--seed", "0", "--mode", "dp_cl", "--sigma", "1", "--clip", "0.1",
                     "--ref-fraction", "0.1", "--hidden", "256,256", "--learning-rate", "0.1",
                     "--batch", "100", "--ref-batch", "50", "--epochs", "1", "--delta", "1e-4",
                     "--policy", "lemma2", "--out", str(tmp_path / "cli")]) == 0
    for script_csv, cli_csv in (("dp_cl_accuracy_matrix.csv", "accuracy_matrix.csv"),
                                ("dp_cl_budget_lemma2.csv", "budget_report.csv")):
        assert (tmp_path / "script" / script_csv).read_bytes() == \
            (tmp_path / "cli" / cli_csv).read_bytes()


def test_full_scale_batch_is_clamped_to_a_small_training_split(tmp_path, monkeypatch, capsys):
    """A 100-row archive leaves 90 training rows: the batch of 100 trains at
    p = 1, as `dpcl run --batch 100` does, instead of failing."""
    args = tiny_archives(tmp_path, n_train=100)
    module = load_script("run_full_scale")
    seen, real = [], module.run_stream
    monkeypatch.setattr(module, "run_stream", lambda stream, cfg: seen.append(
        (len(stream.tasks[0][0]), cfg.sampling_rate)) or real(stream, cfg))
    out = tmp_path / "out"
    monkeypatch.setattr(sys, "argv", ["run_full_scale", *args, "--tasks", "2", "--seed", "0",
                                      "--out", str(out)])
    assert module.main() == 0
    assert seen == [(90, 1.0)]
    assert (out / "dp_cl_accuracy_matrix.csv").exists()


@pytest.mark.parametrize("sigma, code, line", [
    ("1e300", 3, "numeric failure: gradient contains NaN/Inf"),
    ("0", 2, "error: mode dp_cl releases gradients, so it needs sigma > 0"),
], ids=["diverges", "no_noise"])
def test_full_scale_failure_exits_like_dpcl_run(sigma, code, line, tmp_path, monkeypatch,
                                                capsys):
    """A sigma that overflows the net exits 3, and a private run without
    noise exits 2 before training: one line each, no traceback, no --out."""
    args = tiny_archives(tmp_path)
    out = tmp_path / "out"
    monkeypatch.setattr(sys, "argv", ["run_full_scale", *args, "--sigma", sigma,
                                      "--tasks", "2", "--seed", "0", "--out", str(out)])
    assert load_script("run_full_scale").main() == code
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", line + "\n")
    assert not out.exists()


def failed_run(name, args, monkeypatch, capsys):
    """Exit code and error lines of a script run that must stop before training."""
    module = load_script(name)
    monkeypatch.setattr(module, "run_stream", lambda *a: pytest.fail("trained"))
    monkeypatch.setattr(sys, "argv", [name, *args])
    try:
        code = module.main()
    except SystemExit as exc:  # argparse's own exit
        code = exc.code
    return code, [line for line in capsys.readouterr().err.splitlines() if "error:" in line]


@pytest.mark.parametrize("tasks", ["1", "0"])
@pytest.mark.parametrize("name", ["run_full_scale", "run_desk_scale"])
def test_script_needs_two_tasks(name, tasks, tmp_path, monkeypatch, capsys):
    args = tiny_archives(tmp_path) if name == "run_full_scale" else []
    code, errors = failed_run(name, [*args, "--tasks", tasks, "--seed", "0",
                                     "--out", str(tmp_path / "out")], monkeypatch, capsys)
    assert code == 2
    assert len(errors) == 1 and "--tasks must be at least 2" in errors[0]


def _corrupt(path):
    path.write_bytes(path.read_bytes()[:5])  # a truncated header


@pytest.mark.parametrize("damage, archive", [
    (Path.unlink, "train-images-idx3-ubyte"),
    (_corrupt, "t10k-labels-idx1-ubyte"),
], ids=["missing", "corrupt"])
def test_full_scale_bad_archive_exits_config(damage, archive, tmp_path, monkeypatch, capsys):
    args = tiny_archives(tmp_path)
    damage(tmp_path / archive)
    code, errors = failed_run("run_full_scale", [*args, "--seed", "0",
                                                 "--out", str(tmp_path / "out")],
                              monkeypatch, capsys)
    assert code == 2
    assert len(errors) == 1 and errors[0].startswith("error: ") and archive in errors[0]


def test_desk_scale_bad_seed_exits_config(tmp_path, monkeypatch, capsys):
    code, errors = failed_run("run_desk_scale", ["--seed", "-1", "--out", str(tmp_path / "out")],
                              monkeypatch, capsys)
    assert code == 2
    assert len(errors) == 1 and errors[0].startswith("error: ")


@pytest.mark.parametrize("name", ["run_full_scale", "run_desk_scale"])
def test_script_out_under_a_file_exits_config_before_training(name, tmp_path, monkeypatch,
                                                              capsys):
    args = tiny_archives(tmp_path) if name == "run_full_scale" else []
    blocker = tmp_path / "file"
    blocker.write_text("kept")
    code, errors = failed_run(name, [*args, "--seed", "0", "--out", str(blocker / "x")],
                              monkeypatch, capsys)
    assert code == 2
    assert len(errors) == 1 and errors[0].startswith("error: ") and str(blocker) in errors[0]
    assert blocker.read_text() == "kept"
