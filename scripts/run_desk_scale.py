#!/usr/bin/env python3
"""Desk-scale comparison: noiseless projected training vs the private trainer.

Runs both modes on the same 5-task permuted synthetic stream, prints the
accuracy/forgetting summary and the privacy budget totals under both
composition policies, and writes per-run artifacts under --out.
"""

import argparse
import os
import secrets
import sys

from dpcl.accountant import Policy
from dpcl.cli import EXIT_CONFIG, EXIT_OK, SETUP_ERRORS, check_out_dir
from dpcl.data import make_permuted_stream, make_synthetic
from dpcl.dp import NoiseConfig
from dpcl.metrics import average_accuracy, forgetting, lca
from dpcl.trainer import Mode, TrainConfig, run_stream


def summarize(name, result, n_tasks, lca_beta):
    acc = average_accuracy(result.matrix, n_tasks)
    f_mean, f_worst = forgetting(result.matrix, n_tasks)
    print(f"{name}: avg_acc={acc:.3f} forgetting={f_mean:.3f} "
          f"worst={f_worst:.3f} lca={lca(result.curve, lca_beta):.3f}")
    return acc


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tasks", type=int, default=5)
    parser.add_argument("--seed", type=int, default=None,
                        help="seed of the stream, the net and the noise; without it a seed "
                             "is drawn from OS entropy and not recorded")
    parser.add_argument("--out", default="runs/desk_scale")
    args = parser.parse_args()
    if args.tasks < 2:  # forgetting compares each task's accuracy with a later one
        parser.error("--tasks must be at least 2")
    if args.seed is None:  # a published default seed would let anyone regenerate the noise
        args.seed = secrets.randbits(128)
        print("seed: unrecorded (drawn from OS entropy)")

    try:
        check_out_dir(args.out)  # fail now, not after training
        base = make_synthetic(64, 5, 60, 0.8, seed=args.seed)
        stream = make_permuted_stream(base, args.tasks, seed=args.seed, ref_fraction=0.2)
        common = dict(hidden_dims=(64, 64), sampling_rate=0.2, ref_batch_size=32,
                      seed=args.seed)
        noiseless_cfg = TrainConfig(
            mode=Mode.AGEM, noise=NoiseConfig(sigma=0.0),
            learning_rate=0.1, epochs_per_task=30, **common)
        private_cfg = TrainConfig(
            mode=Mode.DP_CL, noise=NoiseConfig(sigma=1.0, clip_bound=0.1, seed=args.seed),
            learning_rate=0.02, epochs_per_task=120, **common)
    except SETUP_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    noiseless = run_stream(stream, noiseless_cfg)
    private = run_stream(stream, private_cfg)

    summarize("noiseless ", noiseless, args.tasks, 10)
    summarize("private   ", private, args.tasks, 10)

    os.makedirs(args.out, exist_ok=True)
    for name, result in (("noiseless", noiseless), ("private", private)):
        result.matrix.write_csv(os.path.join(args.out, f"{name}_accuracy_matrix.csv"))
    for policy in Policy:
        report = private.ledger.report(1e-4, policy)
        path = os.path.join(args.out, f"private_budget_{policy.value}.csv")
        report.write_csv(path, private.ledger.task_budgets(1e-4))
        print(f"private total epsilon ({policy.value}, delta=1e-4): {report.total:.3f}")
    print(f"artifacts written to {args.out}/")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
