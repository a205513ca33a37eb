"""Command-line entry points: `run` trains through a task stream and emits
CSV artifacts; `budget-curve` compares cumulative privacy totals under the
two composition policies. The protocol scripts are presets over the same
setup (`prepare`), metrics (`run_metrics`) and exit path (`exits`)."""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import secrets
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np

from .accountant import Policy, TaskBudget, budget_lemma1, budget_lemma2
from .data import load_idx_archive, make_permuted_stream, make_synthetic
from .dp import NoiseConfig, rng
from .errors import ConfigError, NumericError
from .metrics import average_accuracy, forgetting, lca
from .trainer import Mode, ProjectionRule, TrainConfig, run_stream

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
_TRAIN = TrainConfig()  # the training defaults of `run` are its field defaults


@dataclass
class RunSpec:
    """Everything needed to reproduce one `run` invocation, and the only home
    of the `run` options: build_parser makes a flag of each field and passes
    on just the flags given, so the defaults are these, the training ones
    TrainConfig's. A run without a seed draws one from OS entropy and does
    not record it: whoever holds the seed can regenerate every noise draw,
    and no epsilon holds against them."""

    mode: str = _TRAIN.mode.value
    tasks: int = 5
    epochs: int = _TRAIN.epochs_per_task
    batch: int | None = None
    ref_batch: int = _TRAIN.ref_batch_size
    sampling_rate: float = _TRAIN.sampling_rate
    sigma: float = _TRAIN.noise.sigma
    clip: float = _TRAIN.noise.clip_bound
    delta: float = _TRAIN.delta
    lambda_max: int = _TRAIN.lambda_max
    policy: str = _TRAIN.policy.value
    projection: str = _TRAIN.projection_rule.value
    seed: int | None = None
    out: str = "runs/out"
    images: str | None = None
    labels: str | None = None
    test_images: str | None = None
    test_labels: str | None = None
    synth_dim: int = 64
    synth_classes: int = 10
    synth_per_class: int = 60
    synth_margin: float = 0.6
    ref_fraction: float = 0.1
    hidden: str = ",".join(map(str, _TRAIN.hidden_dims))
    lca_beta: int = _TRAIN.lca_beta
    learning_rate: float = _TRAIN.learning_rate

    def manifest_lines(self):
        values = {**vars(self), "seed": "unrecorded" if self.seed is None else self.seed}
        lines = [f"{key} = {value}" for key, value in sorted(values.items())]
        lines.append(f"timestamp = {time.strftime('%Y-%m-%dT%H:%M:%S')}")
        return lines


def _build_stream(spec: RunSpec):
    if bool(spec.test_images) != bool(spec.test_labels):
        raise ConfigError("--test-images and --test-labels go together")
    if (spec.labels or spec.test_images) and not spec.images:
        raise ConfigError("--labels and the test archive need --images")
    if spec.images:
        if not spec.labels:
            raise ConfigError("--labels is required with --images")
        base = load_idx_archive(spec.images, spec.labels)
    else:
        base = make_synthetic(spec.synth_dim, spec.synth_classes, spec.synth_per_class,
                              spec.synth_margin, spec.seed)
    test = load_idx_archive(spec.test_images, spec.test_labels) if spec.test_images else None
    return make_permuted_stream(base, spec.tasks, spec.seed,
                                ref_fraction=spec.ref_fraction, test=test)


def _build_config(spec: RunSpec, train_size: int, noise: NoiseConfig) -> TrainConfig:
    p = spec.sampling_rate
    if spec.batch is not None:
        if spec.batch < 1:
            raise ConfigError("--batch must be >= 1")
        p = min(1.0, spec.batch / train_size)
    hidden = tuple(int(h) for h in spec.hidden.split(",") if h)
    return TrainConfig(
        mode=Mode(spec.mode),
        learning_rate=spec.learning_rate,
        sampling_rate=p,
        ref_batch_size=spec.ref_batch,
        epochs_per_task=spec.epochs,
        noise=noise,
        projection_rule=ProjectionRule(spec.projection),
        hidden_dims=hidden,
        delta=spec.delta,
        policy=Policy(spec.policy),
        lambda_max=spec.lambda_max,
        lca_beta=spec.lca_beta,
        seed=spec.seed,
    )


def prepare(spec: RunSpec):
    """(seeded spec, stream, TrainConfig) of a run, built before any training;
    a spec that cannot run raises ConfigError or OSError. A spec without a
    seed gets one drawn from OS entropy, which its caller does not record."""
    run = spec if spec.seed is not None else replace(spec, seed=secrets.randbits(128))
    out = Path(run.out)
    nearest = next(p for p in (out, *out.parents) if p.exists())
    if not nearest.is_dir():  # fail now, not after training
        raise ConfigError(f"--out {out}: {nearest} is not a directory")
    try:
        # the noise config checks the seed before the stream generator sees it
        noise = NoiseConfig(sigma=run.sigma, clip_bound=run.clip, seed=run.seed)
        stream = _build_stream(run)
        return run, stream, _build_config(run, len(stream.tasks[0][0]), noise)
    except ValueError as exc:  # also a ParseError, or int()'s or numpy's on a bad value
        raise ConfigError(exc) from exc


def exits(command):
    """The one exit path of `dpcl run`, `dpcl budget-curve` and the protocol
    scripts: command returns EXIT_OK; bad input, a config that run_stream
    rejects or an unwritable output returns EXIT_CONFIG with one `error:`
    line, and a NumericError EXIT_NUMERIC with one `numeric failure:` line.
    numpy's floating-point warnings are off, so that line stands alone."""

    @functools.wraps(command)
    def run(*args, **kwargs) -> int:
        try:
            with np.errstate(all="ignore"):
                return command(*args, **kwargs)
        except (ConfigError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        except NumericError as exc:
            print(f"numeric failure: {exc}", file=sys.stderr)
            return EXIT_NUMERIC

    return run


def run_metrics(result, cfg) -> dict:
    """metrics.csv's values of a finished run: the average accuracy after each
    task, forgetting and its worst case from two tasks on, and the area under
    the learning curve."""
    matrix, t = result.matrix, result.matrix.num_tasks
    metrics = {f"avg_accuracy_after_{k}": average_accuracy(matrix, k) for k in range(1, t + 1)}
    if t >= 2:
        metrics["forgetting"], metrics["worst_case_forgetting"] = forgetting(matrix, t)
    # tasks of fewer steps have shorter curves
    metrics["lca"] = lca(result.curve, min(cfg.lca_beta, len(result.curve) - 1))
    return metrics


def summary(result, cfg) -> str:
    """The protocol scripts' one-line summary of a run of two or more tasks."""
    m = run_metrics(result, cfg)
    avg = m[f"avg_accuracy_after_{result.matrix.num_tasks}"]
    return (f"avg_acc={avg:.3f} forgetting={m['forgetting']:.3f} "
            f"worst={m['worst_case_forgetting']:.3f} lca={m['lca']:.3f}")


@exits
def cmd_run(spec: RunSpec) -> int:
    run, stream, cfg = prepare(spec)
    result = run_stream(stream, cfg)
    out = Path(run.out)
    out.mkdir(parents=True, exist_ok=True)
    result.matrix.write_csv(out / "accuracy_matrix.csv")
    with open(out / "metrics.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["metric", "value"])
        w.writerows([name, repr(value)] for name, value in run_metrics(result, cfg).items())
        w.writerow(["final_params_sha256", hashlib.sha256(result.net.params).hexdigest()])
    result.report.write_csv(out / "budget_report.csv")
    with open(out / "run_manifest.cfg", "w") as f:
        f.write("\n".join(spec.manifest_lines()) + "\n")
    print(f"wrote artifacts to {out}")
    return EXIT_OK


def budget_curve_table(eps_mean, eps_std, n_tasks, seed):
    """Rows (T, lemma1_total, lemma2_total) for T = 1..n_tasks with budgets
    drawn i.i.d. Gaussian per task."""
    if n_tasks < 1:
        raise ConfigError("number of tasks must be >= 1")
    if seed < 0:
        raise ConfigError("seed must be >= 0")
    if not (0.0 <= eps_mean < np.inf and 0.0 <= eps_std < np.inf):
        raise ConfigError("eps_mean and eps_std must be finite and >= 0")
    draws = rng(seed, 401)
    eps_train = eps_mean + eps_std * draws.standard_normal(n_tasks)
    eps_ref = eps_mean + eps_std * draws.standard_normal(n_tasks)
    budgets = [TaskBudget(i + 1, float(eps_train[i]), float(eps_ref[i]))
               for i in range(n_tasks)]
    rows = []
    for t in range(1, n_tasks + 1):
        rows.append((t, budget_lemma1(budgets, t).total, budget_lemma2(budgets, t).total))
    return rows


@exits
def cmd_budget_curve(eps_mean, eps_std, n_tasks, seed, out=None) -> int:
    rows = budget_curve_table(eps_mean, eps_std, n_tasks, seed)
    lines = [["T", "lemma1_total", "lemma2_total"]]
    lines += [[t, repr(a), repr(b)] for t, a, b in rows]
    if out:
        Path(out).parent.mkdir(parents=True, exist_ok=True)
        with open(out, "w", newline="") as f:
            csv.writer(f).writerows(lines)
    for row in lines:
        print(",".join(str(v) for v in row))
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(prog="dpcl")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="train through a task stream and emit CSVs",
                         argument_default=argparse.SUPPRESS)
    # one flag per RunSpec field; an `X | None` field parses as X, a str one needs no type
    enums = {"mode": Mode, "policy": Policy, "projection": ProjectionRule}
    for name, hint in get_type_hints(RunSpec).items():
        kind = next(t for t in get_args(hint) or (hint,) if t is not type(None))
        run.add_argument(f"--{name.replace('_', '-')}", dest=name,
                         type=None if kind is str else kind,
                         choices=[e.value for e in enums.get(name, ())] or None)

    curve = sub.add_parser("budget-curve", help="compare the two composition policies")
    curve.add_argument("--eps-mean", type=float, default=1.0, dest="eps_mean")
    curve.add_argument("--eps-std", type=float, default=0.02, dest="eps_std")
    curve.add_argument("--tasks", type=int, default=17)
    curve.add_argument("--seed", type=int, default=0)
    curve.add_argument("--out", default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return cmd_run(RunSpec(**{k: v for k, v in vars(args).items() if k != "command"}))
    return cmd_budget_curve(args.eps_mean, args.eps_std, args.tasks, args.seed, args.out)


if __name__ == "__main__":
    sys.exit(main())
