#!/usr/bin/env python3
"""dpcl benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload desk_dp_cl --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. With --trace 0 it times set-up in several
fresh processes, trains in the middle one for --seconds and prints the
end-to-end metrics of BENCHMARK.json. With --trace 1 it runs one process that
alternates traced and untraced calls and prints the per-layer metrics. The
last line of stdout is one JSON object: correct, attempted, failed and
metrics. Results, environment facts and spans go to perfbench/results/.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
BLAS_THREADS = 1      # steadier than 2 on a shared 2-core machine, and never above nproc
SETUP_SAMPLES = 5     # processes whose set-up is timed; the median is reported
TIME_LIMIT_S = 170.0  # the whole run, children included


class BenchError(Exception):
    pass


def spawn(args, deadline):
    """Start worker.py, time its set-up up to the READY line, and return
    (setup seconds, its JSON result or None)."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(BLAS_THREADS),
               OMP_NUM_THREADS=str(BLAS_THREADS), MKL_NUM_THREADS=str(BLAS_THREADS),
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True) as p:
        killer = threading.Timer(max(0.0, deadline - time.perf_counter()), p.kill)
        killer.start()
        try:
            line = p.stdout.readline()
            setup_s = time.perf_counter() - t0
            out = p.stdout.read()
            p.wait()
        finally:
            killer.cancel()
    if line.strip() != "READY" or p.returncode != 0:
        raise BenchError(f"worker exited with {p.returncode}: {' '.join(args)}")
    last = out.strip().splitlines()[-1] if out.strip() else ""
    return setup_s, (json.loads(last) if last else None)


def source_facts():
    files = sorted((SRC / "dpcl").glob("*.py"))
    h = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        h.update(f.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = None  # checkouts without git history
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"commit": commit, "src_sha256": h.hexdigest()[:16], "src_dpcl_lines": lines}


def tally(calls):
    """(attempted, failed, per-call failure reasons). A call fails when it
    raised, failed its output check, or its digest differs from the first."""
    reasons = []
    digests = [c["digest"] for c in calls if "digest" in c]
    for i, c in enumerate(calls):
        why = [c["error"]] if "error" in c else list(c["errors"])
        if "digest" in c and c["digest"] != digests[0]:
            why.append(f"digest {c['digest']} != {digests[0]}")
        if why:
            reasons.append((i, why))
    return len(calls), len(reasons), reasons


def end_to_end(args, deadline):
    # set-up is timed before and after the measuring process, so that its
    # samples span the run as the steps_per_s samples do
    setup, main = [], None
    measure_at = SETUP_SAMPLES // 2
    for i in range(SETUP_SAMPLES):
        extra = ["--seconds", str(args.seconds)] if i == measure_at else ["--setup-only"]
        s, out = spawn(["--workload", args.workload, "--seed", str(args.seed), *extra], deadline)
        setup.append(s)
        main = out if i == measure_at else main
    ok = [c for c in main["calls"] if "seconds" in c]
    if not ok:
        raise BenchError("every run_stream call raised")
    rates = [c["steps"] / c["seconds"] for c in ok]
    metrics = {
        "steps_per_s": statistics.median(rates),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": main["peak_rss_mb"],
    }
    samples = {"steps_per_s": rates, "setup_s": setup}
    return main, main["calls"], metrics, samples


def per_layer(args, deadline, names):
    spans = RESULTS / f"{args.workload}-seed{args.seed}-spans.json"
    _, main = spawn(["--workload", args.workload, "--seed", str(args.seed),
                     "--seconds", str(args.seconds), "--trace", "--spans", str(spans)], deadline)
    calls = main["calls"]
    layers = main["layers"]
    if not layers:
        raise BenchError("no traced run_stream call completed")
    metrics, samples = {}, {}
    for name in names:
        is_count = name.endswith((".calls", ".rows", ".bytes_computed"))
        vals = [m.get(name, 0 if is_count else 0.0) for m in layers]
        if name in main["setup_spans"]:
            vals = [main["setup_spans"][name]]
        elif name == "trace.overhead_s":
            vals = [main.get("trace_overhead_s", 0.0)]
        if not is_count:
            metrics[name] = statistics.median(vals)
        else:
            metrics[name] = vals[0]
            if len(set(vals)) > 1:
                # exact counts must repeat across traced calls of one seed
                why = f"{name} differs across traced calls: {vals}"
                for c in calls:
                    if c["traced"]:
                        c.setdefault("errors", []).append(why)
        samples[name] = vals
    return main, calls, metrics, samples


def main():
    t_start = time.perf_counter()
    deadline = t_start + TIME_LIMIT_S
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "dpcl" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'dpcl'} not found; run from a checkout of the repository")

    RESULTS.mkdir(exist_ok=True)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    try:
        if args.trace:
            main_out, calls, metrics, samples = per_layer(args, deadline, list(units))
        else:
            main_out, calls, metrics, samples = end_to_end(args, deadline)
    except (BenchError, KeyError, ValueError) as e:
        sys.exit(f"error: {e}")
    attempted, failed, reasons = tally(calls)
    for i, why in reasons:
        print(f"call {i} failed: {'; '.join(why)}", file=sys.stderr)

    env = {"nproc": len(os.sched_getaffinity(0)), "blas_threads": BLAS_THREADS,
           **main_out["env"], **source_facts()}
    accs = [c["avg_accuracy"] for c in calls if "avg_accuracy" in c]
    info = {"final_avg_accuracy": accs[0] if accs else None,
            "eps_total": next((c["eps_total"] for c in calls if "eps_total" in c), None),
            "digest": next((c["digest"] for c in calls if "digest" in c), None)}
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"calls={attempted} failed={failed}")
    print("env " + json.dumps(env))
    print("outputs " + json.dumps(info))
    for name, value in metrics.items():
        print(f"  {name:40s} {value:>16.6g} {units[name]}")
    if args.trace and metrics.get("trainer.run_stream.s"):
        total = metrics["trainer.run_stream.s"]
        shares = {n[6:-2]: round(100 * v / total, 1) for n, v in metrics.items()
                  if n.startswith("layer.")}
        print("layer share % " + json.dumps(shares))

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "env": env, "outputs": info,
              "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
              "samples": samples, "calls": calls,
              "wall_s": time.perf_counter() - t_start}
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))


if __name__ == "__main__":
    main()
