"""Tests of the benchmark itself, at reduced catalog sizes.

    python3 -m pytest perfbench -q

Each workload runs end to end on two seeds and once traced; the printed
metric names must be exactly those declared in BENCHMARK.json, and the
frozen isomorphism-invariant counts must hold for both seeds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import meter  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SWEEPS = [w for w in WORKLOADS if w != "cli_mixed"]
SEEDS = (0, 1)


def run_bench(workload, seed, trace, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "0", "--trace", str(trace)]
    if workload != "cli_mixed":
        cmd.append("--small")
    return subprocess.run(cmd, capture_output=True, cwd=cwd, timeout=600)


def result(p):
    assert p.returncode == 0, p.stderr.decode()[-2000:]
    return json.loads(p.stdout.decode().splitlines()[-1])


def declared(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_and_correctness(workload, seed):
    res = result(run_bench(workload, seed, 0))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True
    assert res["attempted"] >= 1
    assert {k: v["unit"] for k, v in res["metrics"].items()} == declared("end_to_end")
    assert all(v["value"] > 0 for v in res["metrics"].values())
    if workload != "cli_mixed":
        assert res["failed"] == 0


@pytest.fixture(scope="module")
def traced():
    return {w: result(run_bench(w, 0, 1))["metrics"] for w in WORKLOADS}


def test_per_layer_metrics_are_declared(traced):
    for workload, metrics in traced.items():
        assert {k: v["unit"] for k, v in metrics.items()} == declared("per_layer"), workload


def test_trace_confirms_the_layer_split(traced):
    calls = {w: {k[:-6]: v["value"] for k, v in m.items() if k.endswith(".calls")}
             for w, m in traced.items()}
    for workload in SWEEPS:  # the glue verb of cli_mixed validates frames too
        assert (calls[workload]["frames.check_frame"] > 0) == (workload == "glueing_join")
    for workload, c in calls.items():
        io_calls = sum(v for k, v in c.items() if k.startswith("io."))
        assert (io_calls > 0) == (workload == "cli_mixed"), workload
        assert c["cli.run"] > 0 if workload == "cli_mixed" else c["cli.run"] == 0
    assert calls["wact_roundtrip"]["lambda_product.enumerate_inverse_actions"] == 0
    assert calls["lambda_sweep"]["lambda_product.enumerate_inverse_actions"] > 0
    assert calls["wact_roundtrip"]["waction.enumerate_wactions"] > 0
    for metrics in traced.values():
        assert metrics["trace.overhead_ratio"]["value"] > 0
        assert metrics["cli.startup_ms"]["value"] > 0


@pytest.mark.parametrize("workload", SWEEPS)
def test_frozen_counts_hold_for_both_seeds(workload):
    tables = []
    for seed in SEEDS:
        sweep = workloads.SWEEPS[workload](seed, small=True)
        counts, failed = sweep.run_pass(meter.Meter())
        assert failed == 0
        assert counts == workloads.EXPECTED[workload]["small"]
        tables.append([getattr(M, "base", M).table for pair in sweep.pairs for M in pair])
    assert tables[0] != tables[1], "the seed must change the inputs"


def test_tracer_restores_every_binding():
    import wschreier.cli  # noqa: F401

    before = {(m.__name__, k): v for m in tracer._modules() for k, v in vars(m).items()}
    t = tracer.Tracer()
    t.install()
    try:
        assert t._patched
        assert workloads.W.check_hom is not before[("wschreier", "check_hom")]
    finally:
        dirty = t.restore()
    assert dirty == []
    after = {(m.__name__, k): v for m in tracer._modules() for k, v in vars(m).items()}
    assert all(after[key] is value for key, value in before.items())


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = run_bench("lambda_sweep", 0, 0, cwd=str(tmp_path))
    assert p.returncode != 0
    assert p.stdout == b""
