"""Regenerate the benchmark's recorded data from the current checkout.

    python3 perfbench/record.py golden
        Run one pass of every workload at the default seed and write the
        output digest of each op to golden.json.  Do this only at a commit
        whose outputs are known good: later runs count any op whose digest
        differs as failed.

    python3 perfbench/record.py baseline
        Run the benchmark as BENCHMARK.json says, on every workload (the
        gated ones first, then those run by hand) once per seed for seeds
        1 .. SEEDS end to end and once traced, print the quartile spread
        of every end-to-end metric, and write baseline.json
        anew with the medians, the per-layer numbers and the machine they
        were measured on.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import numpy  # noqa: E402

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BASELINE = os.path.join(HERE, "baseline.json")
DEFAULT_SEED = 1  # the seed whose outputs golden.json records
SEEDS = 10  # end-to-end runs per workload, seeds 1 .. SEEDS

# which per-layer metric should move which end-to-end metric, on which workload
LAYER_TABLE = [
    {"layer": "gf", "metrics": "mul_arr, add_arr, sub_arr, matmul_arr, sum_arr: calls, self_s, items",
     "moves": ["ops_per_s"], "on": {"bounds-fuzz": "prime fields", "analyze-ext": "k>1 and characteristic 2"}},
    {"layer": "linalg", "metrics": "rref, right_null_space, left_null_space: calls, self_s; "
                                   "batch_rank, code_vectors: calls, self_s, items",
     "moves": ["ops_per_s", "op_tail_ms"],
     "on": {"verify-catalogue": "rref", "bounds-fuzz": "batch_rank throughput",
            "maximality-scan": "batch_rank per-call cost"}},
    {"layer": "formcore", "metrics": "rank, left_radical, right_radical, classify, witt_census: calls, self_s",
     "moves": ["ops_per_s", "op_tail_ms"], "on": {"verify-catalogue": ""}},
    {"layer": "spanspace", "metrics": "rank_spectrum: calls, self_s, repeat_frac; kernel_at, kernel_dims_all, "
                                      "isotropic_set, radical_spread, annihilator_Au, random_subspace, "
                                      "flat_forms_for, FormSubspace: calls, self_s; charge.steps",
     "moves": ["ops_per_s", "peak_rss_mb (isotropic_set)"],
     "on": {"verify-catalogue": "", "analyze-ext": "", "bounds-fuzz": "random_subspace"}},
    {"layer": "theoremlab", "metrics": "the 11 check_* functions: calls, self_s; run_suite: total_s",
     "moves": ["ops_per_s"], "on": {"verify-catalogue": "", "maximality-scan": ""}},
    {"layer": "fileio / cli", "metrics": "read_subspace, dumps, reports_to_json: calls, self_s; "
                                         "main: self_s, total_s",
     "moves": ["op_p50_ms"], "on": {"verify-catalogue": "many small ops"}},
    {"layer": "constructions", "metrics": "build: total_s", "moves": ["setup_s"], "on": {"all": ""}},
]


def record_golden() -> None:
    golden = {}
    scratch = tempfile.mkdtemp(dir=ROOT, prefix=".golden-")
    try:
        for name, workload in WORKLOADS.items():
            mods, first, _ = run.set_up(workload, DEFAULT_SEED, ROOT, os.path.join(scratch, name))
            records = run.run_pass(workload, mods, first, {})
            if any(r.wrong for r in records):
                raise SystemExit(f"{name}: some ops fail their checks; not recording")
            golden[name] = dict(sorted((r.key, r.digest) for r in records))
            print(f"{name}: {len(records)} digests", flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    with open(run.GOLDEN, "w") as fh:
        json.dump(golden, fh, indent=0, sort_keys=True)
        fh.write("\n")


def bench(config: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = [*config["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(config["run_seconds"]), "--trace", str(trace)]
    if cmd[0] == "python3":
        cmd[0] = sys.executable
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{' '.join(cmd)} reported incorrect output:\n{proc.stderr}")
    return result


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}


def record_baseline() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        config = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    units = {m["name"]: m["unit"] for m in config["end_to_end"]}
    doc = {
        "git_sha": subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True).stdout.strip() or "unknown",
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "run_seconds": config["run_seconds"],
        "layer_table": LAYER_TABLE,
        "workloads": {},
    }
    gated = [w["name"] for w in config["workloads"]]
    for name in sorted(WORKLOADS, key=lambda n: n not in gated):
        workload = WORKLOADS[name]
        runs = []
        for seed in range(1, SEEDS + 1):
            runs.append(bench(config, name, seed, 0))
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in runs[-1]["metrics"].items()), flush=True)
        end_to_end = {}
        for metric in bounds:
            stats = summarize([r["metrics"][metric]["value"] for r in runs])
            stats["unit"] = units[metric]
            end_to_end[metric] = stats
            flag = "" if stats["spread"] <= bounds[metric] / 3 else "  <-- above bound/3"
            print(f"  {metric}: median {stats['median']:.5g}, spread {stats['spread']:.4f} "
                  f"(bound {bounds[metric]}){flag}", flush=True)
        traced = bench(config, name, DEFAULT_SEED, 1)
        with open(run.GOLDEN) as fh:
            ops_per_pass = len(json.load(fh)[name])
        doc["workloads"][name] = {
            "gated": name in gated,
            "why": workload.why,
            "op": workload.op,
            "ops_per_pass": ops_per_pass,
            "op_tail_percentile": run.tail_percentile(ops_per_pass),
            "seeds": list(range(1, SEEDS + 1)),
            "end_to_end": end_to_end,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    with open(BASELINE, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="what", required=True)
    sub.add_parser("golden")
    sub.add_parser("baseline")
    args = ap.parse_args()
    if args.what == "golden":
        record_golden()
    else:
        record_baseline()


if __name__ == "__main__":
    main()
