"""Fast self-tests of the benchmark itself.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
from worker import GOLDEN, ROOT, import_program  # noqa: E402

import_program()

import tracer  # noqa: E402
import workloads as wl  # noqa: E402
from pnhybrid import grid as gr  # noqa: E402
from pnhybrid import hybrid as hy  # noqa: E402


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]},
            [w["name"] for w in bench["workloads"]])


def _golden(workload):
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)[workload]


def _sourced_pass(tmp_path, golden=None, tracer_=None):
    ctx = wl.Context("sourced", wl.DEFAULT_SEED, ROOT, str(tmp_path), tracer_)
    wl.setup(ctx)
    return wl.run_pass(ctx, golden)


def test_declared_names_match_the_code():
    end_to_end, per_layer, workloads = _declared()
    assert end_to_end == run.END_TO_END
    names = set(tracer.layer_metrics([], 1.0)) | {"trace.overhead_s"}
    assert set(per_layer) == names
    assert all(per_layer[n] == run.unit_of(n) for n in names)
    assert tuple(workloads) == run.WORKLOADS == wl.WORKLOADS
    with open(GOLDEN, encoding="utf-8") as fh:
        assert set(json.load(fh)) == set(workloads)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_printed_metrics_are_declared(trace):
    out = subprocess.run(
        [sys.executable, run.__file__, "--workload", "sourced", "--seed", "5",
         "--seconds", "1", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    end_to_end, per_layer, _ = _declared()
    declared = per_layer if trace == "1" else end_to_end
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_corrupted_golden_value_fails_its_operation(tmp_path):
    golden = copy.deepcopy(_golden("sourced"))
    golden["solve_pn N=7"]["norm"] *= 1.0 + 1e-6
    results = _sourced_pass(tmp_path, golden)
    failed = {r["op"]: r["problems"] for r in results if r["problems"]}
    assert list(failed) == ["solve_pn N=7"]
    assert failed["solve_pn N=7"][0].startswith("golden norm")


def test_golden_text_comparison():
    want = "1,sobolev-2,pn,9,1,2.1485115454370822e-06,0,interval"
    near = want.replace("2.1485115454370822e-06", "2.1485115454371e-06")
    assert wl.compare_text(near, want) is None
    assert wl.compare_text(want.replace("e-06", "e-05"), want)
    assert wl.compare_text(want.replace(",9,", ",8,"), want)
    assert wl.compare_text(want.replace("interval", "diffusive"), want)
    assert wl.compare_text("error 3.550208e-04", "error 3.550207e-04") is None


def test_invariant_breach_fails_its_operation(tmp_path, monkeypatch):
    remap = hy.remap

    def leaky_remap(u, c):
        merged, zero, _ = remap(u, c)
        return merged, zero, 1e-3

    monkeypatch.setattr(hy, "remap", leaky_remap)
    monkeypatch.setattr(gr, "reality_residual", lambda field: 1.0)
    results = _sourced_pass(tmp_path, _golden("sourced"))
    problems = {r["op"]: " ".join(r["problems"]) for r in results}
    for op, text in problems.items():
        if op.startswith(("solve_pn", "run_hybrid")):
            assert "reality residual" in text
        if op.startswith("run_hybrid"):
            assert "remap residual" in text
    assert not any(wl.is_known_failure(r) for r in results)


def test_known_failure_is_recognised():
    op = "verify-bounds streaming-dt"
    assert wl.is_known_failure({"op": op, "problems": [wl.KNOWN_FAILURES[op]]})
    assert not wl.is_known_failure({"op": op, "problems": ["exit 2: other"]})
    assert not wl.is_known_failure({"op": "sweep streaming-dt", "problems": []})


def test_traced_and_untraced_outputs_are_identical(tmp_path):
    plain = _sourced_pass(tmp_path / "plain")
    t = tracer.Tracer()
    tracer.install(t)
    try:
        traced = _sourced_pass(tmp_path / "traced", tracer_=t)
    finally:
        t.restore()
    assert [r["record"] for r in traced] == [r["record"] for r in plain]
    assert hy.run_hybrid.__module__ == "pnhybrid.hybrid"
    assert not hasattr(hy.run_hybrid, "__wrapped__")
    layers = tracer.layer_metrics(t.spans, 1.0)
    assert layers["hybrid.run_hybrid.calls"] == 2
    assert layers["harness.oracle.calls"] == 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sourced", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_norm_growth_on_a_sourceless_problem_is_a_breach(tmp_path):
    ctx = wl.Context("ladder", 0, ROOT, str(tmp_path))
    ctx.norm0 = 2.0
    assert wl._norm_growth(ctx, 2.0) == []
    assert wl._norm_growth(ctx, 2.0 * (1 + 1e-9))
