"""The four bilrank benchmark workloads: inputs, ops and output checks.

Each workload turns a seed into one pass of ops.  An op is either an
in-process ``cli.main`` call on an input file written at setup, or one
campaign-style fuzz trial.  The program only ever sees the generated
inputs; the seed stays with the benchmark.  Timings in comments were
measured on a 2-core x86-64 VM with Python 3.11 and numpy 2.4.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import os
import random
import sys
from dataclasses import dataclass, field

import numpy as np

from tracing import LAYERS

KINDS = ("general", "symmetric", "alternating")  # index order matches bilrank.spanspace.KINDS
VERIFY_SUITES = (
    "declared,orthogonality,counting,kernel-bounds,bounds,spread,"
    "radical-equality,isotropic-partition,witt-census,filtration"
)
EXIT_VIOLATED, EXIT_ERROR = 1, 2
FIXTURES = ("alt-spectrum-q3-n3-s1.json", "symm-rank2-distinct-radicals-q3-n3.json")
ANALYZE_KEYS = (
    "q", "n", "dim", "kind", "spectrum", "rank_counts", "constant_rank", "note",
    "distinct_left_radicals", "distinct_right_radicals", "isotropic_nonzero", "budget_error",
)
REPORT_KEYS = ("theorem_id", "verdict", "hypotheses", "witness", "details")


@dataclass
class Op:
    """One request: ``argv`` for ``cli.main``, or ``trial`` for a fuzz trial."""

    key: str
    argv: list = field(default_factory=list)
    trial: tuple = ()
    expect_budget_exceeded: bool = False


@dataclass
class Outcome:
    """What one op returned: exit code and output, or the exception it raised."""

    seconds: float
    code: int | None
    payload: object
    error: str | None = None


def load_bilrank(src: str) -> dict:
    """Import a fresh copy of bilrank from ``src``: its module caches start empty.

    Returns the package and its layer modules by name.
    """
    if src not in sys.path:
        sys.path.insert(0, src)
    for name in [m for m in sys.modules if m == "bilrank" or m.startswith("bilrank.")]:
        del sys.modules[name]
    mods = {"bilrank": importlib.import_module("bilrank")}
    mods.update({layer: importlib.import_module(f"bilrank.{layer}") for layer in LAYERS})
    if not os.path.abspath(mods["cli"].__file__).startswith(os.path.abspath(src) + os.sep):
        raise RuntimeError(f"bilrank was imported from {mods['cli'].__file__}, not {src}")
    return mods


def catalogue():
    """The desk-scale construction catalogue the test suite uses, in its order."""
    out = []
    for q in (2, 3, 4, 5):
        for n in range(3, 7):
            out.append(("alt-pencil", {"q": q, "n": n}))
            out.append(("block-symmetric", {"q": q, "n": n, "r": 1}))
        out.append(("alt-full", {"q": q, "n": 3}))
        out.append(("block-symmetric", {"q": q, "n": 4, "r": 2}))
        out.append(("alt-odd", {"q": q, "k": 3}))
        for m in (2, 3):
            if q**m <= 256:
                out.append(("trace-symmetric", {"q": q, "ext": m, "n": m + 1}))
        out.append(("column-family", {"q": q, "m": 2, "r": 1}))
        out.append(("column-family", {"q": q, "m": 3, "r": 1, "ext": 2}))
        out.append(("column-family", {"q": q, "m": 2, "r": 2}))
    out.append(("alt-odd", {"q": 2, "k": 3, "ext": 2}))
    out.append(("column-family", {"q": 2, "m": 2, "r": 2, "ext": 2}))
    return out


def member_key(name: str, params: dict) -> str:
    return name + "".join(f"-{k}{v}" for k, v in sorted(params.items()))


def campaign_dmax(q: int, n: int, kind: str, step_cap: int = 1 << 16) -> int:
    """Largest subspace dimension ``bilrank campaign`` samples at (q, n, kind)."""
    dim = {"general": n * n, "symmetric": n * (n + 1) // 2, "alternating": n * (n - 1) // 2}[kind]
    dmax = 0
    while q ** (dmax + 1) * n * n <= step_cap:
        dmax += 1
    return max(1, min(dmax, dim))


def _write_members(mods, members, workdir) -> dict:
    """Build each catalogue member and write its subspace file; key -> path."""
    cons, fileio = mods["constructions"], mods["fileio"]
    paths = {}
    for name, params in members:
        key = member_key(name, params)
        M, declared = cons.build(cons.ConstructionRequest(name, dict(params)))
        paths[key] = os.path.join(workdir, key + ".json")
        fileio.write_subspace(paths[key], M, declared)
    return paths


class Workload:
    name = ""
    why = ""
    op = ""

    def setup(self, mods, workdir: str, seed: int, root: str) -> list[Op]:
        """Build and write the inputs; return the ops of one pass."""
        raise NotImplementedError

    def run(self, mods, op: Op):
        """Issue one op; returns (exit code, output)."""
        return run_cli(mods, op)


def run_cli(mods, op: Op):
    """One in-process CLI call; returns (exit code, stdout text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = mods["cli"].main(op.argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else EXIT_ERROR
    return code, buf.getvalue()


class VerifyCatalogue(Workload):
    name = "verify-catalogue"
    op = "cli.main(['verify', f, '--json', '--suite', <every suite except maximality>]) on one catalogue member or fixture"
    why = "verify hot path: per-element rref and radicals, per-u kernel_at, rank_spectrum re-run by every checker"
    # cut so that several passes fit one run: column-family m=3 ext=2 takes about
    # 120 s at q=5, 20 s at q=4 and 3 s at q=3; the q=2 member keeps that path
    EXCLUDED = frozenset({
        "column-family-ext2-m3-q5-r1",
        "column-family-ext2-m3-q4-r1",
        "column-family-ext2-m3-q3-r1",
        "alt-pencil-n6-q5",
        "block-symmetric-n6-q5-r1",
        "alt-pencil-n6-q4",
        "block-symmetric-n6-q4-r1",
    })

    def setup(self, mods, workdir, seed, root):
        members = [m for m in catalogue() if member_key(*m) not in self.EXCLUDED]
        paths = _write_members(mods, members, workdir)
        for fx in FIXTURES:
            paths["fixture-" + fx[:-5]] = os.path.join(root, "fixtures", fx)
        ops = [Op(key, ["verify", path, "--json", "--suite", VERIFY_SUITES]) for key, path in paths.items()]
        random.Random(seed).shuffle(ops)
        return ops


class MaximalityScan(Workload):
    name = "maximality-scan"
    op = "cli.main(['verify', f, '--json', '--suite', 'maximality'] [+ '--seed', s]) on one catalogue member"
    why = "one tiny batch_rank call per extension candidate, so per-call overhead dominates, not throughput"
    # every catalogue member but the scans that take over 1.5 s each: up to 4095
    # candidates (trace-symmetric q=4 ext=2, which holds) over GF(2) to GF(5); the
    # 15624-candidate q=5 scans take 4-10 s and the 32767- and 59048-candidate 15-26 s
    SLOW = frozenset({
        "alt-pencil-n6-q2", "block-symmetric-n6-q2-r1", "alt-odd-ext2-k3-q2",
        "block-symmetric-n4-q3-r1", "trace-symmetric-ext3-n4-q3",
        "alt-pencil-n4-q4", "block-symmetric-n4-q4-r1",
        "alt-pencil-n4-q5", "block-symmetric-n3-q5-r1", "trace-symmetric-ext2-n3-q5",
    })
    # over budget for an exhaustive scan: sampled with a seed the benchmark derives
    SAMPLED = frozenset({"alt-pencil-n5-q3", "block-symmetric-n5-q3-r1"})
    # they declare maximality but are over budget and get no seed: budget-exceeded at the seed commit
    OVER_BUDGET = frozenset({"trace-symmetric-ext3-n4-q4", "trace-symmetric-ext3-n4-q5"})

    def setup(self, mods, workdir, seed, root):
        members = [m for m in catalogue() if member_key(*m) not in self.SLOW]
        paths = _write_members(mods, members, workdir)
        rng = random.Random(seed)
        ops = []
        for key, path in paths.items():
            argv = ["verify", path, "--json", "--suite", "maximality"]
            if key in self.SAMPLED:
                scan_seed = rng.randrange(1 << 30)
                key, argv = f"{key}-seed{scan_seed}", argv + ["--seed", str(scan_seed)]
            ops.append(Op(key, argv, expect_budget_exceeded=key in self.OVER_BUDGET))
        rng.shuffle(ops)
        return ops


class BoundsFuzz(Workload):
    name = "bounds-fuzz"
    op = "random_subspace(GF(q), n, d, kind, child seed) then run_suite(M, ['bounds']), drawn as bilrank campaign draws"
    why = "campaign trials: random_subspace then the bounds suite, medium rank_spectrum batches over prime fields"
    GRID = tuple((q, n, kind) for q in (3, 5) for n in (3, 4, 5) for kind in KINDS)
    # trials per grid point, 1008 per pass.  About 4 of them are constant rank
    # alternating q=5 n=5 d=4 trials, which run a radical census and are the
    # slowest class; at 2016 there are about 10, so the tail (the 10th slowest)
    # would flip between classes from seed to seed
    ROUNDS = 56

    def setup(self, mods, workdir, seed, root):
        """Trials 0 .. ROUNDS-1 at every grid point, drawn as ``bilrank campaign`` draws them."""
        for q in (3, 5):
            mods["gf"].field_for_order(q)
        ops = []
        for trial in range(self.ROUNDS):
            for q, n, kind in self.GRID:
                ss = np.random.SeedSequence([seed, q, n, KINDS.index(kind), trial])
                d = int(np.random.default_rng(ss).integers(1, campaign_dmax(q, n, kind) + 1))
                ops.append(Op(f"s{seed}-t{trial}-q{q}n{n}{kind[0]}", trial=(q, n, d, kind, ss.spawn(1)[0])))
        return ops

    def run(self, mods, op):
        q, n, d, kind, child = op.trial
        M = mods["spanspace"].random_subspace(mods["gf"].field_for_order(q), n, d, kind, child)
        reports = mods["theoremlab"].run_suite(M, selection=["bounds"])
        verdicts = {r.verdict for r in reports}
        code = EXIT_VIOLATED if "violated" in verdicts else EXIT_ERROR if "budget-exceeded" in verdicts else 0
        return code, reports


class AnalyzeExt(Workload):
    name = "analyze-ext"
    op = "cli.main(['analyze', f, '--json']) on one seeded random subspace"
    why = "extension and characteristic-2 fields; isotropic_set walks the q^n vectors of V instead of M"
    QS = (2, 4, 8, 9, 16, 25, 27)
    # a random subspace at the campaign's largest d per point; the two q=27 n=4
    # points (symmetric 1.6 s, alternating 2.8 s) would double the pass
    EXCLUDED = frozenset({(27, 4, "symmetric"), (27, 4, "alternating")})

    def setup(self, mods, workdir, seed, root):
        ops = []
        for q in self.QS:
            fld = mods["gf"].field_for_order(q)
            for n in (3, 4):
                for kind in KINDS:
                    if (q, n, kind) in self.EXCLUDED:
                        continue
                    d = campaign_dmax(q, n, kind)
                    ss = np.random.SeedSequence([seed, q, n, KINDS.index(kind)])
                    M = mods["spanspace"].random_subspace(fld, n, d, kind, ss)
                    key = f"s{seed}-q{q}-n{n}-{kind}-d{d}"
                    path = os.path.join(workdir, key + ".json")
                    mods["fileio"].write_subspace(path, M)
                    ops.append(Op(key, ["analyze", path, "--json"]))
        random.Random(seed).shuffle(ops)
        return ops


WORKLOADS = {w.name: w for w in (VerifyCatalogue(), MaximalityScan(), BoundsFuzz(), AnalyzeExt())}


# ---------------------------------------------------------------------------
# Checking outputs


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def digest_and_check(outcome: Outcome):
    """(digest, problem) for one op; problem is None when the output is sound.

    The digest covers only fields present at the seed commit, so fields a
    later change adds do not trip it while a changed verdict or witness does.
    """
    if outcome.error is not None:
        return None, f"raised {outcome.error}"
    code, payload = outcome.code, outcome.payload
    if isinstance(payload, list):  # fuzz trial: VerificationReport objects
        reports = [r.to_json() for r in payload]
    else:
        try:
            doc = json.loads(payload)
        except json.JSONDecodeError:
            return None, f"exit {code} with unparsable output"
        reports = doc.get("reports") if "reports" in doc else None
    if reports is not None:
        digest = _digest([code, [{k: r.get(k) for k in REPORT_KEYS} for r in reports]])
        if any(r.get("verdict") == "violated" for r in reports):
            return digest, "violated on an honest input"
        return digest, None
    digest = _digest([code, {k: doc[k] for k in ANALYZE_KEYS if k in doc}])
    counts = doc.get("rank_counts")
    if counts is not None and sum(counts.values()) != doc["q"] ** doc["dim"] - 1:
        return digest, f"rank counts sum to {sum(counts.values())}, not q^d - 1"
    return digest, None


def judge(op: Op, outcome: Outcome, golden: dict):
    """(ok, wrong, digest): ok counts toward ok_frac, wrong toward ``failed``.

    An op is not ok when it raises, exits 2, reports ``violated`` or
    disagrees with its golden digest.  It is wrong when it is not ok for
    any reason other than the budget-exceeded exit its member is known for.
    """
    digest, problem = digest_and_check(outcome)
    if problem is None and op.key in golden and golden[op.key] != digest:
        problem = "output digest differs from the golden digest"
    if problem is not None:
        return False, True, digest
    if outcome.code == EXIT_ERROR:
        return False, not op.expect_budget_exceeded, digest
    if op.expect_budget_exceeded:
        return False, True, digest
    return True, False, digest
