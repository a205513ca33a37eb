"""Smoke-size self-test of the benchmark: python3 -m pytest perfbench -q"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import worker  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNTS = (".calls", ".rows", ".bytes_computed")


def smoke(name):
    wl = worker.WORKLOADS[name]
    return dataclasses.replace(wl, per_class=12 if wl.dim < 100 else 4, hidden=(16,),
                               epochs=min(wl.epochs, 3))


@pytest.mark.parametrize("name", sorted(worker.WORKLOADS))
def test_smoke_workload_passes_checks_and_counts_repeat(name):
    stream, cfg = worker.build(smoke(name), seed=3)
    tracer = worker.Tracer()
    calls = [worker.run_call(stream, cfg, tracer) for _ in range(2)]
    assert [c["errors"] for c in calls] == [[], []]
    assert calls[0]["digest"] == calls[1]["digest"]
    layers, setup = worker.layer_metrics(tracer.spans)
    assert len(layers) == 2 and setup == {}
    counts = [{k: v for k, v in m.items() if k.endswith(COUNTS)} for m in layers]
    assert counts[0] == counts[1]
    names = {m["name"] for m in SPEC["per_layer"]}
    assert set(layers[0]) <= names
    if cfg.mode is worker.Mode.AGEM:
        assert not any(k.startswith(("dp.", "accountant.track", "accountant.step"))
                       for k in counts[0])
    else:
        dims = [stream.tasks[0][0].feature_dim, *cfg.hidden_dims, stream.tasks[0][0].num_classes]
        params = sum((a + 1) * b for a, b in zip(dims[:-1], dims[1:]))
        assert counts[0]["accountant.step_log_moment.calls"] > 0
        assert counts[0]["nn.per_example_grads.bytes_computed"] == (
            counts[0]["nn.per_example_grads.rows"] * params * 8)


def test_setup_spans_and_self_time():
    tracer = worker.Tracer()
    tracer.install()
    try:
        stream, cfg = worker.build(smoke("desk_dp_cl"), seed=0)
    finally:
        tracer.uninstall()
    worker.run_call(stream, cfg, tracer)
    (m,), setup = worker.layer_metrics(tracer.spans)
    assert set(setup) == {"data.make_synthetic.s", "data.make_permuted_stream.s"}
    layer_total = sum(v for k, v in m.items() if k.startswith("layer."))
    assert layer_total == pytest.approx(m["trainer.run_stream.s"])
    assert 0 < m["trainer.self_s"] < m["trainer.run_stream.s"]


def test_checks_reject_bad_outputs():
    stream, cfg = worker.build(smoke("desk_dp_cl"), seed=0)
    result = worker.dpcl.trainer.run_stream(stream, cfg)
    assert worker.check(result, stream, cfg) == []
    result.report.total += 1.0
    assert any("ledger report" in e for e in worker.check(result, stream, cfg))
    result.matrix.a[1, 0] = float("nan")
    assert any("lower triangle" in e for e in worker.check(result, stream, cfg))

    stream, cfg = worker.build(smoke("desk_agem"), seed=0)
    result = worker.dpcl.trainer.run_stream(stream, cfg)
    result.matrix.a[:] = 0.0
    assert any("chance" in e for e in worker.check(result, stream, cfg))


def _run(cwd, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", "desk_agem", "--seed", "0",
           "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_every_metric(trace):
    proc = _run(ROOT, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}


def test_command_fails_without_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = _run(tmp_path, 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
