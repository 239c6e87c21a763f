"""Checks of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py

The digest test runs each workload's first ``min_ops`` ops on the default
seed and compares their output digest with ``pins.json``, so a change to
any answer the engine gives fails here as it fails the benchmark run.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_default_seed_digest_matches_pin(name):
    loop = run.Loop(workloads.build(name, 0), 0)
    loop.run()
    assert loop.failed == 0, loop.errors
    assert loop.digest.hexdigest() == run._pinned(name, 0)


def test_self_times_add_up_to_op_time():
    spans = tracer.Spans()

    def leaf(n):
        return sum(range(n))

    leaf_t = spans.wrap(leaf, "leaf")

    def mid():
        return leaf_t(20000) + leaf_t(30000)

    mid_t = spans.wrap(mid, "mid")
    spans.current_op[0] = 0
    spans.wrap(lambda: mid_t() + leaf_t(10), "op")()
    totals = spans.totals()
    assert {name: calls for name, (calls, _) in totals.items()} == {"leaf": 3, "mid": 1, "op": 1}
    root = spans.end[0] - spans.start[0]
    assert sum(self_s for _, self_s in totals.values()) == pytest.approx(root, rel=1e-9)
    assert all(self_s >= 0 for _, self_s in totals.values())


def test_benchmark_json_names_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wl = workloads.build("center", 0)
    tr = tracer.Tracer()
    loop = run.Loop(wl, 0, tr)
    loop.run()
    probe_names = {f"fields.{op}_ns.{k}" for op in ("mul", "inv") for k in tracer.KINDS}
    probe_names |= {f"poly.mul_ms.d{d}.{k}" for d in (8, 32, 128, 512) for k in tracer.KINDS}
    probe_names |= {f"linalg.rref_ms.{s}.{k}" for s in ("48x16", "200x45") for k in tracer.KINDS}
    layer = run.per_layer(loop, tr, dict.fromkeys(probe_names, 1.0))
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {n: u for n, (_, u) in layer.items()}
    e2e = run.end_to_end(loop, [1.0])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {n: u for n, (_, u) in e2e.items()}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_refuses_to_run_without_the_engine_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "assoc", "--seed", "1",
                          "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
