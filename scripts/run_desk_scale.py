#!/usr/bin/env python3
"""Desk-scale comparison: noiseless projected training vs the private trainer.

Runs both modes on the same 5-task permuted synthetic stream, prints the
accuracy/forgetting summary and the privacy budget totals under both
composition policies, and writes per-run artifacts under --out.
"""

import argparse
from dataclasses import replace
from pathlib import Path

from dpcl.accountant import Policy
from dpcl.cli import EXIT_OK, RunSpec, exits, prepare, summary
from dpcl.trainer import run_stream


@exits
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
        print("seed: unrecorded (drawn from OS entropy)")

    private_spec, stream, private_cfg = prepare(RunSpec(
        mode="dp_cl", tasks=args.tasks, seed=args.seed, out=args.out, synth_dim=64,
        synth_classes=5, synth_per_class=60, synth_margin=0.8, ref_fraction=0.2,
        hidden="64,64", sampling_rate=0.2, ref_batch=32, sigma=1.0, clip=0.1,
        learning_rate=0.02, epochs=120))
    # the private run's seed, so the noiseless run trains on the same stream
    _, _, noiseless_cfg = prepare(
        replace(private_spec, mode="agem", sigma=0.0, learning_rate=0.1, epochs=30))

    noiseless = run_stream(stream, noiseless_cfg)
    private = run_stream(stream, private_cfg)

    print(f"noiseless : {summary(noiseless, noiseless_cfg)}")
    print(f"private   : {summary(private, private_cfg)}")

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, result in (("noiseless", noiseless), ("private", private)):
        result.matrix.write_csv(out / f"{name}_accuracy_matrix.csv")
    for policy in Policy:
        report = private.ledger.report(1e-4, policy)
        report.write_csv(out / f"private_budget_{policy.value}.csv")
        print(f"private total epsilon ({policy.value}, delta=1e-4): {report.total:.3f}")
    print(f"artifacts written to {args.out}/")
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
