#!/usr/bin/env python3
"""One benchmark process: build a workload's stream and config, then train on it.

run.py starts this file with the checkout's ``src`` on PYTHONPATH and the BLAS
thread count fixed in the environment. Once the stream and the config exist it
writes ``READY`` to stdout, and run.py times set-up from the spawn up to that
line. With ``--setup-only`` it then exits. Otherwise it calls ``run_stream``
until ``--seconds`` have passed, checks every result, and writes one JSON line.
With ``--trace`` it runs traced and untraced calls in turn; tracing wraps the
public functions of each ``dpcl`` module from outside, keeps spans in memory
and writes them to ``--spans`` at the end.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass

import numpy as np
import scipy

import dpcl.accountant
import dpcl.data
import dpcl.nn
import dpcl.trainer
from dpcl.accountant import Policy
from dpcl.dp import NoiseConfig
from dpcl.metrics import average_accuracy
from dpcl.trainer import Mode, TrainConfig

MARGIN = 0.8         # class-blob margin of the desk-scale acceptance run
CLIP_BOUND = 0.1
MIN_CALLS = 2        # so every run compares at least two digests


@dataclass(frozen=True)
class Workload:
    dim: int
    classes: int
    per_class: int
    tasks: int
    hidden: tuple
    mode: str
    sigma: float
    learning_rate: float
    policy: str
    epochs: int
    ref_batch: int
    ref_fraction: float = 0.2
    sampling_rate: float = 0.2
    batch_size: int = 0  # when set, sampling_rate = batch_size / |train split|


# Why each workload exists is in README.md; sizes keep one run_stream call to
# a few seconds on a 2-core machine so that a run holds several calls.
WORKLOADS = {
    # Acceptance-7 private config: tiny matrices, so the ledger dominates.
    "desk_dp_cl": Workload(64, 5, 60, 5, (64, 64), "dp_cl", 1.0, 0.02, "lemma2",
                           epochs=4, ref_batch=32),
    # Every stored block is read, clipped, noised and charged at every step.
    "desk_dp_agem": Workload(64, 5, 60, 8, (64, 64), "dp_agem", 1.0, 0.02, "lemma1",
                             epochs=1, ref_batch=32),
    # Full-scale 784-256-256-10 shape with batch about 100: nn and dp dominate.
    # A 112-example train split at p = 100/112 keeps the batch near 100 with
    # little spread, so peak memory varies little between seeds.
    "wide_dp_cl": Workload(784, 10, 21, 3, (256, 256), "dp_cl", 1.0, 0.1, "lemma2",
                           epochs=1, ref_batch=50, ref_fraction=1 / 3, batch_size=100),
    # Noiseless baseline: dp and the ledger do no work.
    "desk_agem": Workload(64, 5, 60, 5, (64, 64), "agem", 0.0, 0.1, "lemma2",
                          epochs=30, ref_batch=32),
}


def build(wl: Workload, seed: int):
    """The stream and config of one workload; every input derives from seed."""
    base = dpcl.data.make_synthetic(wl.dim, wl.classes, wl.per_class, MARGIN, seed=seed)
    stream = dpcl.data.make_permuted_stream(base, wl.tasks, seed=seed,
                                            ref_fraction=wl.ref_fraction)
    p = wl.sampling_rate
    if wl.batch_size:
        p = min(1.0, wl.batch_size / len(stream.tasks[0][0]))
    cfg = TrainConfig(
        mode=Mode(wl.mode), learning_rate=wl.learning_rate, sampling_rate=p,
        ref_batch_size=wl.ref_batch, epochs_per_task=wl.epochs,
        noise=NoiseConfig(sigma=wl.sigma, clip_bound=CLIP_BOUND, seed=seed),
        hidden_dims=wl.hidden, policy=Policy(wl.policy), seed=seed)
    return stream, cfg


def check(result, stream, cfg: TrainConfig) -> list:
    """Reasons the outputs of one run_stream call are wrong; empty if none.

    Above-chance accuracy is required of noiseless runs only: the private
    workloads stay near chance at benchmark length (see README.md).
    """
    errors = []
    t = stream.num_tasks
    lower = result.matrix.a[np.tril_indices(t)]
    if not (np.all(np.isfinite(lower)) and np.all((lower >= 0.0) & (lower <= 1.0))):
        errors.append("accuracy matrix lower triangle not fully populated within [0, 1]")
    total = result.report.total
    if not math.isfinite(total):
        errors.append(f"budget total {total!r} is not finite")
    if cfg.mode is not Mode.AGEM and cfg.noise.sigma > 0:
        if not total > 0:
            errors.append(f"private budget total {total!r} is not positive")
        expected = result.ledger.report(cfg.delta, cfg.policy).total
        if total != expected:
            errors.append(f"budget total {total!r} != ledger report {expected!r}")
    elif not errors:
        chance = 1.0 / stream.tasks[0][0].num_classes
        acc = average_accuracy(result.matrix, t)
        if not acc > chance:
            errors.append(f"final average accuracy {acc!r} not above chance {chance!r}")
    return errors


def digest(result) -> str:
    """Hash of the accuracy matrix and the budget report of one call."""
    h = hashlib.sha256(result.matrix.a.tobytes())
    h.update(repr((result.report.per_task, result.report.total)).encode())
    return h.hexdigest()[:16]


class Tracer:
    """Wraps dpcl functions from outside and records one span per call.

    A span is [name, start, end, parent index, rows, params]; rows and params
    are filled for the nn functions that take (net, batch).
    """

    SIZED = ("nn.per_example_grads", "nn.grad")

    def __init__(self):
        self.spans = []
        self._open = []
        self._saved = []

    @staticmethod
    def targets():
        acc, data, nn, tr = dpcl.accountant, dpcl.data, dpcl.nn, dpcl.trainer
        ledger = acc.PrivacyLedger
        return [
            (nn, "per_example_grads", "nn.per_example_grads"),
            (nn, "grad", "nn.grad"),
            (nn, "accuracy", "nn.accuracy"),
            # trainer binds these with `from ... import`, so wrap its names
            (tr, "clip_grad", "dp.clip_grad"),
            (tr, "add_noise", "dp.add_noise"),
            (tr, "update_eps_mem", "memory.update_eps_mem"),
            (ledger, "track_training_step", "accountant.track_training_step"),
            (ledger, "track_ref_step", "accountant.track_ref_step"),
            # MomentState.add_step looks this up as a module global
            (acc, "step_log_moment", "accountant.step_log_moment"),
            (ledger, "report", "accountant.report"),
            (ledger, "task_budgets", "accountant.report"),
            (data, "make_synthetic", "data.make_synthetic"),
            (data, "make_permuted_stream", "data.make_permuted_stream"),
            (data.Dataset, "subset", "data.Dataset.subset"),
            (tr, "project_gradient", "trainer.project_gradient"),
            (tr, "run_stream", "trainer.run_stream"),
        ]

    def install(self):
        for owner, attr, name in self.targets():
            fn = getattr(owner, attr, None)
            if fn is None:  # renamed or removed by a later change: the span reads 0
                print(f"trace: {owner.__name__}.{attr} not found; {name} untraced",
                      file=sys.stderr)
                continue
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(name, fn))

    def uninstall(self):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def _wrap(self, name, fn):
        spans, open_ = self.spans, self._open
        sized = name in self.SIZED
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, open_[-1] if open_ else -1, 0, 0]
            if sized:
                span[4], span[5] = len(args[1]), args[0].num_params
            open_.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                open_.pop()

        return traced


def layer_metrics(spans) -> tuple:
    """Per-call layer metrics for every traced run_stream call, plus the
    set-up spans' times. Counts are exact; times are seconds.

    A span's self time is its duration minus its children's; a function's
    time counts only spans whose parent has another name, so report ->
    task_budgets is counted once.
    """
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    self_s = dur[:]
    root = list(range(n))
    for i, s in enumerate(spans):
        if s[3] >= 0:
            self_s[s[3]] -= dur[i]
            root[i] = root[s[3]]
    calls = {i: {} for i, s in enumerate(spans) if s[0] == "trainer.run_stream" and s[3] < 0}
    setup = {}
    for i, (name, _, _, parent, rows, params) in enumerate(spans):
        m = calls.get(root[i])
        if m is None:
            if parent < 0:
                setup[f"{name}.s"] = setup.get(f"{name}.s", 0.0) + dur[i]
            continue
        layer = name.split(".")[0]
        m[f"layer.{layer}.s"] = m.get(f"layer.{layer}.s", 0.0) + self_s[i]
        if parent < 0 or spans[parent][0] == name:
            continue
        m[f"{name}.calls"] = m.get(f"{name}.calls", 0) + 1
        m[f"{name}.s"] = m.get(f"{name}.s", 0.0) + dur[i]
        if rows:
            m[f"{name}.rows"] = m.get(f"{name}.rows", 0) + rows
            m[f"{name}.bytes_computed"] = m.get(f"{name}.bytes_computed", 0) + rows * params * 8
    for i, m in calls.items():
        m["trainer.self_s"] = self_s[i]
        m["trainer.run_stream.s"] = dur[i]
    return list(calls.values()), setup


def run_call(stream, cfg, tracer=None):
    """One timed run_stream call, traced when a tracer is given, then its
    checks; never raises."""
    steps = cfg.steps_per_task * stream.num_tasks
    if tracer is not None:
        tracer.install()
    try:
        t0 = time.perf_counter()
        result = dpcl.trainer.run_stream(stream, cfg)
        seconds = time.perf_counter() - t0
    except Exception:
        traceback.print_exc()
        return {"error": traceback.format_exc(limit=1).strip(), "steps": steps}
    finally:
        if tracer is not None:
            tracer.uninstall()
    return {
        "seconds": seconds, "steps": steps, "digest": digest(result),
        "errors": check(result, stream, cfg),
        "avg_accuracy": average_accuracy(result.matrix, stream.num_tasks),
        "eps_total": result.report.total,
    }


def run_calls(stream, cfg, seconds):
    deadline = time.perf_counter() + seconds
    out = []
    while len(out) < MIN_CALLS or time.perf_counter() < deadline:
        out.append(run_call(stream, cfg))
    return out


def env_facts() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        blas = "unknown"
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__, "openblas": blas}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", help="file the traced run writes its spans to")
    args = ap.parse_args()

    tracer = Tracer()
    if args.trace:
        tracer.install()
    stream, cfg = build(WORKLOADS[args.workload], args.seed)
    tracer.uninstall()
    print("READY", flush=True)
    if args.setup_only:
        return

    out = {"env": env_facts()}
    if args.trace:
        # a warm-up call, then traced and untraced calls in turn, so that
        # drift in machine speed falls on both sides of the overhead
        calls = [dict(run_call(stream, cfg), traced=False)]
        deadline = time.perf_counter() + args.seconds
        while sum(c["traced"] for c in calls[1:]) < MIN_CALLS or time.perf_counter() < deadline:
            for traced in (True, False):
                calls.append(dict(run_call(stream, cfg, tracer if traced else None),
                                  traced=traced))
        out["calls"] = calls
        out["layers"], out["setup_spans"] = layer_metrics(tracer.spans)
        on, off = ([c["seconds"] for c in calls[1:] if c["traced"] is t and "seconds" in c]
                   for t in (True, False))
        if on and off:
            out["trace_overhead_s"] = statistics.median(on) - statistics.median(off)
        if args.spans:
            with open(args.spans, "w") as f:
                json.dump({"fields": ["name", "start", "end", "parent", "rows", "params"],
                           "spans": tracer.spans}, f, separators=(",", ":"))
    else:
        out["calls"] = run_calls(stream, cfg, args.seconds)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out), flush=True)


if __name__ == "__main__":
    main()
