"""Self-tests of the benchmark harness: python3 -m pytest perfbench

The traced-run tests start the benchmark twice per workload, so this
takes a few minutes.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, Op, Outcome, judge, load_bilrank  # noqa: E402


def test_benchmark_json_names_what_the_harness_runs_and_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        config = json.load(fh)
    # the gated workloads are a subset; the rest run by hand with the same command
    assert all(WORKLOADS[w["name"]].why == w["why"] for w in config["workloads"])
    declared = [(m["name"], m["unit"], m["better"]) for m in config["per_layer"]]
    assert declared == run.per_layer_metrics()


def test_no_unwrapped_alias_remains():
    mods = load_bilrank(os.path.join(ROOT, "src"))
    originals = {
        "theoremlab": ("rank_spectrum", "kernel_at", "isotropic_set"),
        "cli": ("rank_spectrum", "isotropic_set", "run_suite"),
        "bilrank": ("rank_spectrum", "kernel_at", "isotropic_set"),
    }
    before = {(m, f): getattr(mods[m], f) for m, names in originals.items() for f in names}
    tracer = Tracer()
    tracer.install(mods)
    try:
        assert tracer.unwrapped_aliases(mods) == []
        for (m, f), original in before.items():
            assert getattr(mods[m], f) is not original
            assert getattr(mods[m], f).__wrapped__ is original
        assert "mul" in vars(mods["gf"].Field) and not hasattr(mods["gf"].Field.mul, "__wrapped__")
    finally:
        tracer.uninstall()
    for (m, f), original in before.items():
        assert getattr(mods[m], f) is original


def test_setup_sample_leaves_the_loaded_modules_in_place():
    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    work = tempfile.mkdtemp(dir=os.path.join(ROOT, ".bench_work"))
    try:
        mods = load_bilrank(os.path.join(ROOT, "src"))
        before = {k: v for k, v in sys.modules.items() if k.startswith("bilrank")}
        seconds = run.setup_sample(WORKLOADS["analyze-ext"], 1, ROOT, os.path.join(work, "sample"))
        assert seconds > 0
        assert {k: v for k, v in sys.modules.items() if k.startswith("bilrank")} == before
        assert sys.modules["bilrank.cli"] is mods["cli"]
        assert not os.path.exists(os.path.join(work, "sample"))
    finally:
        shutil.rmtree(work)


def test_judge_separates_known_budget_exits_from_wrong_output():
    report = '{"reports": [{"theorem_id": "maximality", "verdict": "budget-exceeded"}]}'
    known = Op("m", expect_budget_exceeded=True)
    assert judge(known, Outcome(0.1, 2, report), {})[:2] == (False, False)
    assert judge(Op("x"), Outcome(0.1, 2, report), {})[:2] == (False, True)
    _, _, digest = judge(Op("x"), Outcome(0.1, 0, '{"reports": []}'), {})
    assert judge(Op("x"), Outcome(0.1, 0, '{"reports": []}'), {"x": digest})[:2] == (True, False)
    assert judge(Op("x"), Outcome(0.1, 0, '{"reports": []}'), {"x": "0" * 16})[:2] == (False, True)
    assert judge(Op("x"), Outcome(0.1, None, None, "ValueError: boom"), {})[:2] == (False, True)
    violated = '{"reports": [{"theorem_id": "t", "verdict": "violated"}]}'
    assert judge(Op("x"), Outcome(0.1, 1, violated), {})[:2] == (False, True)
    analyze = '{"q": 3, "n": 3, "dim": 2, "kind": "symmetric", "rank_counts": {"1": 4, "2": 3}}'
    assert judge(Op("x"), Outcome(0.1, 0, analyze), {})[:2] == (False, True)


def _traced_run(workload):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(ROOT, ".bench_trace", f"{workload}-s5.json")) as fh:
        trace = json.load(fh)
    return result, trace


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_runs_repeat_counts_and_match_untraced_outputs(workload):
    first, trace1 = _traced_run(workload)
    second, trace2 = _traced_run(workload)
    for result, trace in ((first, trace1), (second, trace2)):
        assert result["correct"] and result["failed"] == 0
        assert trace["unwrapped_aliases"] == []
        assert trace["digests_traced"] == trace["digests_untraced"]
    assert trace1["counts"] == trace2["counts"]
    deterministic = [n for n, _, _ in run.per_layer_metrics()
                     if n.endswith((".calls", ".items", ".steps", ".repeat_frac"))]
    assert {n: first["metrics"][n] for n in deterministic} == {n: second["metrics"][n] for n in deterministic}


def test_refuses_to_run_without_the_program():
    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    bare = tempfile.mkdtemp(dir=os.path.join(ROOT, ".bench_work"))
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "bounds-fuzz", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
