#!/usr/bin/env python3
"""Full-scale permuted-image protocol: 17 tasks over a real image archive.

Expects the standard big-endian image/label archive pairs (train + test).
Trains a 2x256 hidden-layer network for one epoch per task with batch 100,
reference batch 50, sigma 1, clip bound 0.1, delta 1e-4. This is a long
run on CPU; use run_desk_scale.py for a quick end-to-end check.
"""

import argparse
import os
import secrets
import sys

from dpcl.accountant import Policy
from dpcl.cli import EXIT_CONFIG, EXIT_OK, SETUP_ERRORS, check_out_dir
from dpcl.data import load_idx_archive, make_permuted_stream
from dpcl.dp import NoiseConfig
from dpcl.metrics import average_accuracy, forgetting, lca
from dpcl.trainer import Mode, TrainConfig, run_stream


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--data-dir", required=True,
                        help="directory with train-images-idx3-ubyte etc.")
    parser.add_argument("--mode", choices=["agem", "dp_cl", "dp_agem"], default="dp_cl")
    parser.add_argument("--tasks", type=int, default=17)
    parser.add_argument("--sigma", type=float, default=1.0)
    parser.add_argument("--clip", type=float, default=0.1)
    parser.add_argument("--seed", type=int, default=None,
                        help="seed of the stream, the net and the noise; without it a seed "
                             "is drawn from OS entropy and not recorded")
    parser.add_argument("--out", default="runs/full_scale")
    args = parser.parse_args()
    if args.tasks < 2:  # forgetting compares each task's accuracy with a later one
        parser.error("--tasks must be at least 2")
    if args.seed is None:  # a published default seed would let anyone regenerate the noise
        args.seed = secrets.randbits(128)
        print("seed: unrecorded (drawn from OS entropy)")

    try:
        check_out_dir(args.out)  # fail now, not after training
        base = load_idx_archive(os.path.join(args.data_dir, "train-images-idx3-ubyte"),
                                os.path.join(args.data_dir, "train-labels-idx1-ubyte"))
        test = load_idx_archive(os.path.join(args.data_dir, "t10k-images-idx3-ubyte"),
                                os.path.join(args.data_dir, "t10k-labels-idx1-ubyte"))
        stream = make_permuted_stream(base, args.tasks, seed=args.seed,
                                      ref_fraction=0.1, test=test)
        n_train = len(stream.tasks[0][0])

        mode = Mode(args.mode)
        sigma = 0.0 if mode is Mode.AGEM else args.sigma
        cfg = TrainConfig(
            mode=mode, noise=NoiseConfig(sigma=sigma, clip_bound=args.clip, seed=args.seed),
            hidden_dims=(256, 256), learning_rate=0.1, sampling_rate=100 / n_train,
            ref_batch_size=50, epochs_per_task=1, delta=1e-4, seed=args.seed)
    except SETUP_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    result = run_stream(stream, cfg)

    acc = average_accuracy(result.matrix, args.tasks)
    f_mean, f_worst = forgetting(result.matrix, args.tasks)
    beta = min(cfg.lca_beta, len(result.curve) - 1)  # tasks of fewer steps have shorter curves
    print(f"{args.mode}: avg_acc={acc:.3f} forgetting={f_mean:.3f} "
          f"worst={f_worst:.3f} lca={lca(result.curve, beta):.3f}")

    os.makedirs(args.out, exist_ok=True)
    result.matrix.write_csv(os.path.join(args.out, f"{args.mode}_accuracy_matrix.csv"))
    if mode is not Mode.AGEM:
        for policy in Policy:
            report = result.ledger.report(1e-4, policy)
            report.write_csv(os.path.join(args.out, f"{args.mode}_budget_{policy.value}.csv"),
                             result.ledger.task_budgets(1e-4))
            print(f"total epsilon ({policy.value}, delta=1e-4): {report.total:.3f}")
    print(f"artifacts written to {args.out}/")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
