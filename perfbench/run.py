"""bilrank benchmark: one workload per process, closed loop, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a bilrank checkout; the program is imported from
its ``src/``.  Each op is issued only after the previous one returns, in
this single thread.  A run sets up once (fresh import, fields,
constructions, input files), then repeats whole passes over the
workload's ops until ``--seconds`` of op time have been measured.
Every op's output is checked as it returns, outside the op's timing.
Throughput is ops per second of op time.  An op's latency is its mean
over the passes, because the speed of a shared 2-core VM was seen to
drift by 15-25% within seconds; p50 and tail are taken over the distinct
ops of a pass.  ``setup_s`` is the median of ``SETUP_SAMPLES`` fresh
setups: the first one, and the rest spread evenly over the timed loop
between ops, so that they see the same drift the ops average over.

BENCHMARK.json gates ``verify-catalogue`` and ``bounds-fuzz``.
``maximality-scan`` and ``analyze-ext`` run with the same command but are
not gated.  On that VM, whole runs also moved together by up to 2x over
half an hour.  A longer run did not average this out: a 60-s run spread
about as much as a 20-s run taken next to it.  So every gated workload
adds its own chance of a false alarm.

With ``--trace 0`` the last stdout line holds the end-to-end metrics.
With ``--trace 1`` it holds the per-layer metrics: one untraced pass,
then one traced setup and pass with the layer wrappers in, then
``OVERHEAD_ROUNDS`` passes that run each op untraced and traced back to
back, from which the tracing overhead is taken (``--seconds`` is not
used).  The full trace of the first traced setup and pass goes to
``.bench_trace/<workload>-s<seed>.json``.
"""

import os

# one thread everywhere: set before numpy loads its BLAS
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from typing import NamedTuple  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import numpy  # noqa: E402,F401  (loaded before the setup clock starts)

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, Outcome, judge, load_bilrank  # noqa: E402

SETUP_SAMPLES = 32
OVERHEAD_ROUNDS = 3
GOLDEN = os.path.join(HERE, "golden.json")

# per-layer metrics reported by a traced run, as (function, stat)
FUNCTION_STATS = (
    *((f"gf.{m}", s) for m in ("mul_arr", "add_arr", "sub_arr", "matmul_arr", "sum_arr")
      for s in ("calls", "self_s", "items")),
    *((f"linalg.{f}", s) for f in ("rref", "right_null_space", "left_null_space") for s in ("calls", "self_s")),
    *((f"linalg.{f}", s) for f in ("batch_rank", "code_vectors") for s in ("calls", "self_s", "items")),
    *((f"formcore.{f}", s) for f in ("rank", "left_radical", "right_radical", "classify", "witt_census")
      for s in ("calls", "self_s")),
    ("spanspace.rank_spectrum", "calls"), ("spanspace.rank_spectrum", "self_s"),
    *((f"spanspace.{f}", s)
      for f in ("kernel_at", "kernel_dims_all", "isotropic_set", "radical_spread", "annihilator_Au",
                "random_subspace", "flat_forms_for", "FormSubspace")
      for s in ("calls", "self_s")),
    *((f"theoremlab.check_{c}", s)
      for c in ("declared", "orthogonality", "counting_identity", "kernel_bounds", "dimension_bounds",
                "spread", "radical_equality", "isotropic_partition", "witt_census_identity",
                "filtration", "maximality")
      for s in ("calls", "self_s")),
    ("theoremlab.run_suite", "total_s"),
    *((f"fileio.{f}", s) for f in ("read_subspace", "dumps", "reports_to_json") for s in ("calls", "self_s")),
    ("cli.main", "self_s"), ("cli.main", "total_s"),
    ("constructions.build", "total_s"),
)
UNITS = {"calls": "count", "items": "count", "self_s": "s", "total_s": "s"}


def per_layer_metrics():
    """(name, unit, better) of every metric a traced run reports, in order."""
    out = [(f"{key}.{stat}", UNITS[stat], "lower") for key, stat in FUNCTION_STATS]
    out.insert(out.index(("spanspace.rank_spectrum.self_s", "s", "lower")) + 1,
               ("spanspace.rank_spectrum.repeat_frac", "frac", "lower"))
    return out + [
        ("spanspace.charge.steps", "count", "lower"),
        ("trace.untraced_ops_per_s", "1/s", "higher"),
        ("trace.traced_ops_per_s", "1/s", "higher"),
        ("trace.overhead_frac", "frac", "lower"),
    ]


def repo_root() -> str:
    """The checkout the benchmark sits in; it must hold the program's source."""
    root = os.path.dirname(HERE)
    if not os.path.isfile(os.path.join(root, "src", "bilrank", "__init__.py")):
        raise SystemExit(f"error: no bilrank source under {os.path.join(root, 'src')}")
    return root


def set_up(workload, seed: int, root: str, workdir: str):
    """One fresh setup; returns (modules, the ops of one pass, seconds)."""
    os.mkdir(workdir)
    gc.collect()
    t0 = time.perf_counter()
    mods = load_bilrank(os.path.join(root, "src"))
    ops = workload.setup(mods, workdir, seed, root)
    return mods, ops, time.perf_counter() - t0


def setup_sample(workload, seed: int, root: str, workdir: str) -> float:
    """Seconds of one more fresh setup, leaving the loaded bilrank in place.

    The ops keep running on the modules of the first setup, and functions
    that import lazily look those up in ``sys.modules``, so the entries the
    fresh import replaced are put back.
    """
    loaded = {k: v for k, v in sys.modules.items() if k == "bilrank" or k.startswith("bilrank.")}
    try:
        return set_up(workload, seed, root, workdir)[2]
    finally:
        for name in [k for k in sys.modules if k == "bilrank" or k.startswith("bilrank.")]:
            del sys.modules[name]
        sys.modules.update(loaded)
        shutil.rmtree(workdir, ignore_errors=True)


def issue(workload, mods, op) -> Outcome:
    t0 = time.perf_counter()
    try:
        code, payload = workload.run(mods, op)
        return Outcome(time.perf_counter() - t0, code, payload)
    except Exception as exc:  # an op that raises is a failed op, not a crashed benchmark
        return Outcome(time.perf_counter() - t0, None, None, f"{type(exc).__name__}: {exc}")


class Record(NamedTuple):
    """One checked op: its timing and verdict, without its output."""

    key: str
    seconds: float
    ok: bool
    wrong: bool
    digest: str | None


def run_op(workload, mods, op, golden) -> Record:
    """Issue one op and check its output as it returns.

    Checking happens after the op's timing stops, and the output is then
    dropped, so neither adds to the measured time or memory.
    """
    outcome = issue(workload, mods, op)
    ok, wrong, digest = judge(op, outcome, golden)
    if wrong:
        print(f"failed op {op.key}: exit {outcome.code}, {outcome.error or 'wrong output'}", file=sys.stderr)
    return Record(op.key, outcome.seconds, ok, wrong, digest)


def run_pass(workload, mods, ops, golden, tracer=None) -> list[Record]:
    """Issue every op in order, checking each."""
    records = []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = i
        records.append(run_op(workload, mods, op, golden))
    return records


def timed_loop(workload, mods, ops, seconds, golden, sample_setup):
    """Whole passes over ``ops`` until ``seconds`` of op time have passed.

    Between ops, ``sample_setup()`` is called at every ``seconds /
    SETUP_SAMPLES`` of op time, ``SETUP_SAMPLES - 1`` times in all; its
    results are returned with the records.
    """
    records, setups, passes, busy = [], [], 0, 0.0
    every = seconds / SETUP_SAMPLES
    while not passes or busy < seconds:
        for op in ops:
            if len(setups) < SETUP_SAMPLES - 1 and busy >= every * (len(setups) + 1):
                setups.append(sample_setup())
            records.append(run_op(workload, mods, op, golden))
            busy += records[-1].seconds
        passes += 1
    while len(setups) < SETUP_SAMPLES - 1:  # the last op ran past the last sampling point
        setups.append(sample_setup())
    return records, setups, passes


def load_golden(workload) -> dict:
    with open(GOLDEN) as fh:
        return json.load(fh).get(workload.name, {})


def tail_percentile(count: int) -> float:
    """Highest percentile (to 0.1) with at least 10 of ``count`` ops beyond it."""
    return math.floor(1000 * (count - 10) / count) / 10


def end_to_end(workload, seed, root, scratch, seconds, golden):
    mods, ops, first_setup = set_up(workload, seed, root, os.path.join(scratch, "setup"))

    def sample_setup():
        return setup_sample(workload, seed, root, os.path.join(scratch, "sample"))

    gc.collect()
    records, setups, passes = timed_loop(workload, mods, ops, seconds, golden, sample_setup)
    per_op = {}
    for r in records:
        per_op.setdefault(r.key, []).append(r.seconds * 1000)
    lat_ms = sorted(statistics.fmean(v) for v in per_op.values())
    busy = sum(r.seconds for r in records)
    pct = tail_percentile(len(lat_ms))
    tail = statistics.quantiles(lat_ms, n=1000, method="inclusive")[round(pct * 10) - 1]
    print(f"{workload.name}: {len(records)} ops, {busy:.2f} s busy, {passes} passes of {len(ops)}; "
          f"op_tail_ms is p{pct} of the per-op mean latencies")
    metrics = {
        "setup_s": (statistics.median([first_setup, *setups]), "s"),
        "ops_per_s": (len(records) / busy, "1/s"),
        "op_p50_ms": (statistics.median(lat_ms), "ms"),
        "op_tail_ms": (tail, "ms"),
        "ok_frac": (sum(r.ok for r in records) / len(records), "frac"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return len(records), sum(r.wrong for r in records), True, metrics


def paired_pass(workload, mods, ops, golden):
    """Every op twice, back to back, once with a throwaway tracer installed.

    The order within the pair alternates from op to op.  Timing the same op
    milliseconds apart cancels the host's drift, which whole passes, seconds
    apart, do not.  Returns (untraced records, traced records).
    """
    plain, traced = [], []
    for i, op in enumerate(ops):
        for with_tracer in ((False, True) if i % 2 == 0 else (True, False)):
            if not with_tracer:
                plain.append(run_op(workload, mods, op, golden))
                continue
            throwaway = Tracer()
            throwaway.install(mods)
            try:
                traced.append(run_op(workload, mods, op, golden))
            finally:
                throwaway.uninstall()
    return plain, traced


def traced(workload, seed, root, scratch, golden):
    """Traced setup and pass, and the tracing overhead; returns the run's result.

    An untraced pass comes first: it warms the field tables and gives the
    digests the traced passes must match.  The traced setup and pass give
    the per-layer numbers.  Then ``OVERHEAD_ROUNDS`` paired passes give the
    tracing overhead: the op time of the traced runs over that of the
    untraced ones, less 1.
    """
    mods, ops, _ = set_up(workload, seed, root, os.path.join(scratch, "setup"))
    gc.collect()
    plain = run_pass(workload, mods, ops, golden)
    tracer = Tracer()
    tracer.install(mods)
    try:
        leftover = tracer.unwrapped_aliases(mods)
        workdir = os.path.join(scratch, "traced")
        os.mkdir(workdir)
        traced_ops = workload.setup(mods, workdir, seed, root)
        traced_passes = [run_pass(workload, mods, traced_ops, golden, tracer)]
    finally:
        tracer.uninstall()
    untraced_passes = []
    for _ in range(OVERHEAD_ROUNDS):
        gc.collect()
        untraced, with_tracer = paired_pass(workload, mods, ops, golden)
        untraced_passes.append(untraced)
        traced_passes.append(with_tracer)
    digests_plain = [r.digest for r in plain]
    digests_traced = [r.digest for r in traced_passes[0]]
    same = all([r.digest for r in p] == digests_plain for p in untraced_passes + traced_passes)
    if leftover:
        print(f"unwrapped aliases remain: {leftover}", file=sys.stderr)
    if not same:
        print("traced output digests differ from the untraced ones", file=sys.stderr)

    stats = tracer.by_function()
    values = {f"{key}.{stat}": stats.get(key, {}).get(stat, 0) for key, stat in FUNCTION_STATS}
    calls = tracer.spectrum_calls
    values["spanspace.rank_spectrum.repeat_frac"] = tracer.spectrum_repeats / calls if calls else 0.0
    values["spanspace.charge.steps"] = tracer.charge_steps
    paired = [r for p in untraced_passes for r in p], [r for p in traced_passes[1:] for r in p]
    untraced_rate, traced_rate = (len(rs) / sum(r.seconds for r in rs) for rs in paired)
    values["trace.untraced_ops_per_s"] = untraced_rate
    values["trace.traced_ops_per_s"] = traced_rate
    values["trace.overhead_frac"] = untraced_rate / traced_rate - 1
    metrics = {name: (values[name], unit) for name, unit, _ in per_layer_metrics()}

    os.makedirs(os.path.join(root, ".bench_trace"), exist_ok=True)
    path = os.path.join(root, ".bench_trace", f"{workload.name}-s{seed}.json")
    tracer.write(path, {
        "workload": workload.name,
        "seed": seed,
        "ops": [op.key for op in traced_ops],
        "unwrapped_aliases": leftover,
        "digests_untraced": digests_plain,
        "digests_traced": digests_traced,
    })
    print(f"{workload.name}: trace of {len(tracer.spans)} spans written to {os.path.relpath(path, root)}")
    everything = [plain, *untraced_passes, *traced_passes]
    attempted = sum(len(p) for p in everything)
    wrong = sum(r.wrong for p in everything for r in p)
    return attempted, wrong, same and not leftover, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = repo_root()
    workload = WORKLOADS[args.workload]
    golden = load_golden(workload)
    os.makedirs(os.path.join(root, ".bench_work"), exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=os.path.join(root, ".bench_work"))
    try:
        if args.trace:
            attempted, failed, checks, metrics = traced(workload, args.seed, root, scratch, golden)
        else:
            attempted, failed, checks, metrics = end_to_end(
                workload, args.seed, root, scratch, args.seconds, golden)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps({
        "correct": checks and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
