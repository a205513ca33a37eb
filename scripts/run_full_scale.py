#!/usr/bin/env python3
"""Full-scale permuted-image protocol: 17 tasks over a real image archive.

Expects the standard big-endian image/label archive pairs (train + test).
Trains a 2x256 hidden-layer network for one epoch per task with batch 100,
reference batch 50, sigma 1, clip bound 0.1, delta 1e-4. This is a long
run on CPU; use run_desk_scale.py for a quick end-to-end check.
"""

import argparse
from pathlib import Path

import numpy as np

from dpcl.accountant import Policy
from dpcl.cli import EXIT_OK, RunSpec, exits, prepare, summary
from dpcl.trainer import run_stream


@exits
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
        print("seed: unrecorded (drawn from OS entropy)")

    data = Path(args.data_dir)
    _, stream, cfg = prepare(RunSpec(
        mode=args.mode, tasks=args.tasks, sigma=args.sigma, clip=args.clip, seed=args.seed,
        out=args.out, images=str(data / "train-images-idx3-ubyte"),
        labels=str(data / "train-labels-idx1-ubyte"),
        test_images=str(data / "t10k-images-idx3-ubyte"),
        test_labels=str(data / "t10k-labels-idx1-ubyte"), ref_fraction=0.1,
        hidden="256,256", learning_rate=0.1, batch=100, ref_batch=50, epochs=1, delta=1e-4))
    result = run_stream(stream, cfg)
    print(f"{args.mode}: {summary(result, cfg)}")

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    result.matrix.write_csv(out / f"{args.mode}_accuracy_matrix.csv")
    if args.mode != "agem":
        delta = np.format_float_scientific(cfg.delta, trim="-", exp_digits=1)  # as "1e-4"
        for policy in Policy:
            report = result.ledger.report(cfg.delta, policy)
            report.write_csv(out / f"{args.mode}_budget_{policy.value}.csv")
            print(f"total epsilon ({policy.value}, delta={delta}): {report.total:.3f}")
    print(f"artifacts written to {args.out}/")
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
