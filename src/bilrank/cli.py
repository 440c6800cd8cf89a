"""Command-line front end and campaign orchestration.

Exit codes follow one contract everywhere: 0 means every applicable
check held, 1 means a violation was witnessed, 2 means a usage, file or
budget error.  `main` is the one exit for errors: an OSError, ValueError
or BudgetExceeded out of any subcommand prints `error: ...` and exits 2.
Budgets are counted in enumeration steps, not seconds, so CI behaviour
does not depend on the machine.  Every randomized path requires an
explicit seed; there are no implicit defaults to stay reproducible.
Both seeded searches draw through one `_hunt` loop, and a campaign's
grid points come from one generator per mode, tallied by one loop.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from collections import Counter

import numpy as np

from . import constructions as cons
from . import fileio, theoremlab
from .gf import field_for_order
from .spanspace import (
    DEFAULT_BUDGET,
    KINDS,
    BudgetExceeded,
    isotropic_set,
    kind_space_dim,
    lines,
    random_subspace,
    rank_spectrum,
)
from .theoremlab import BUDGET_EXCEEDED, VIOLATED, run_suite

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_ERROR = 2


def _emit(obj, as_json: bool, out_path=None) -> None:
    if not (as_json or out_path):
        return
    text = fileio.dumps(obj)
    if as_json:
        sys.stdout.write(text)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)


def _exit_code_for(verdicts) -> int:
    verdicts = set(verdicts)
    if VIOLATED in verdicts:
        return EXIT_VIOLATED
    if BUDGET_EXCEEDED in verdicts:
        return EXIT_ERROR
    return EXIT_OK


# ---------------------------------------------------------------------------
# construct


def _construction_params(args, **grid) -> dict:
    """The grid's own parameters and whichever of --k/--ext/--m/--r were given."""
    params = dict(grid, k=args.k, ext=args.ext, m=args.m, r=args.r)
    return {key: val for key, val in params.items() if val is not None}


def cmd_construct(args) -> int:
    request = cons.ConstructionRequest(args.name, _construction_params(args, q=args.q, n=args.n))
    try:
        M, declared = cons.build(request, args.budget)
    except (cons.ConstructionError, ValueError, BudgetExceeded) as exc:
        print(f"construction failed: {exc}", file=sys.stderr)
        return EXIT_ERROR
    report = theoremlab.check_declared(M, declared, args.budget)
    log = {
        "checker": report.theorem_id,
        "verdict": report.verdict,
        "details": report.details,
    }
    if report.verdict != theoremlab.HOLDS:
        print(f"construction self-verification failed: {log}", file=sys.stderr)
        return EXIT_ERROR
    fileio.write_subspace(args.out, M, declared, log)
    summary = {
        "out": args.out,
        "dim": M.dim,
        "n": M.n,
        "kind": M.kind,
        "declared": declared,
        "self_verification": log,
    }
    if args.json:
        _emit(summary, True)
    else:
        print(f"wrote {args.out}: dim {M.dim}, n {M.n}, kind {M.kind}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# analyze


def _statistics(M, budget) -> dict:
    """What `analyze` reports on M, up to a `budget_error` if the budget runs out."""
    out = {"q": M.field.q, "n": M.n, "dim": M.dim, "kind": M.kind}
    try:
        spec = rank_spectrum(M, budget)
        out["spectrum"] = list(spec.ranks)
        out["rank_counts"] = {str(r): c for r, c in spec.counts}
        out["constant_rank"] = spec.is_constant_rank
        if M.dim == 0:
            out["note"] = "rank(M)=0 (zero subspace)"
        _, _, left, right = lines(M, budget)
        out["distinct_left_radicals"] = len(left.dims)
        out["distinct_right_radicals"] = len(right.dims)
        if M.field.p != 2 and M.kind != "general":
            out["isotropic_nonzero"] = (M.field.q - 1) * int(isotropic_set(M, budget).sum())
    except BudgetExceeded as exc:
        out["budget_error"] = str(exc)
    return out


def cmd_analyze(args) -> int:
    out = {"file": args.file, **_statistics(fileio.read_subspace(args.file).subspace, args.budget)}
    _emit(out, args.json, args.out)
    if "budget_error" in out:
        if not args.json:
            print(f"budget exceeded: {out['budget_error']}", file=sys.stderr)
        return EXIT_ERROR
    if not args.json:
        print(f"{args.file}: GF({out['q']}), n={out['n']}, dim={out['dim']}, kind={out['kind']}")
        print(f"  spectrum {out['spectrum']} counts {out['rank_counts']}")
        print(f"  radicals: {out['distinct_left_radicals']} left / {out['distinct_right_radicals']} right")
        if "isotropic_nonzero" in out:
            print(f"  isotropic nonzero vectors: {out['isotropic_nonzero']}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    loaded = fileio.read_subspace(args.file)
    reports = run_suite(
        loaded.subspace,
        selection=args.suite.split(",") if args.suite is not None else None,
        budget=args.budget,
        declared=loaded.declared,
        seed=args.seed,
        trials=args.trials,
    )
    _emit(fileio.reports_to_json(reports), args.json, args.out)
    if not args.json:
        for r in reports:
            info = r.details.get("informational")
            note = ""
            if info is not None:
                note = f"  [informational: conclusion {'holds' if info['conclusion_holds'] else 'fails'}]"
            print(f"{r.theorem_id:32s} {r.verdict}{note}")
    return _exit_code_for(r.verdict for r in reports)


# ---------------------------------------------------------------------------
# search


def _hunt(args, field, log, entropy, d, kind, accept, claims) -> dict:
    """Draw ``args.trials`` seeded random subspaces until ``accept`` holds; a budget overrun is a miss.

    ``--out`` gets a find with its ``claims`` and, as parameters, the q, n, s and seed in ``log``.
    """
    for trial, child in enumerate(np.random.SeedSequence(entropy).spawn(args.trials or 0)):
        M = random_subspace(field, args.n, d, kind, child)
        log["trials_run"] = trial + 1
        try:
            if not accept(M):
                continue
        except BudgetExceeded:
            continue
        log["found"] = True
        log["trial"] = trial
        if args.out:
            params = {key: log[key] for key in ("q", "n", "s", "seed") if key in log}
            declared = {"construction": "search:" + args.mode, "params": dict(params, trial=trial),
                        "dim": d, "kind": M.kind, **claims}
            fileio.write_subspace(args.out, M, declared)
            log["fixture"] = args.out
        break
    return log


def _search_rank2_distinct_radicals(args, budget):
    field = field_for_order(args.q)
    d = args.n - 1
    want_lines = (field.q**d - 1) // (field.q - 1)
    log = {"mode": args.mode, "q": field.q, "n": args.n, "seed": args.seed, "trials_run": 0, "found": False}
    return _hunt(
        args, field, log, [args.seed, field.q, args.n], d, "symmetric",
        lambda M: rank_spectrum(M, budget).ranks == (2,) and len(lines(M, budget)[2].dims) == want_lines,
        {"spectrum": [2], "distinct_radicals": want_lines},
    )


def _search_alt_spectrum(args, budget):
    field = field_for_order(args.q)
    n = args.n
    if n % 2 == 0:
        raise ValueError("alt-spectrum search needs odd n = 2k+1")
    k = (n - 1) // 2
    s = args.s
    if not 1 <= s <= k:
        raise ValueError(f"need 1 <= s <= k = {k}")
    target_dim = (k - s + 1) * n  # at most k * n = dim Alt(V)
    want = tuple(range(2 * s, 2 * k + 1, 2))
    log = {"mode": args.mode, "q": field.q, "n": n, "s": s, "seed": args.seed,
           "target_dim": target_dim, "target_spectrum": list(want),
           "trials_run": 0, "found": False}
    return _hunt(args, field, log, [args.seed, field.q, n, s], target_dim, "alternating",
                 lambda M: rank_spectrum(M, budget).ranks == want, {"spectrum": list(want)})


_SEARCHES = {
    "rank2-distinct-radicals": _search_rank2_distinct_radicals,
    "alt-spectrum": _search_alt_spectrum,
}


def cmd_search(args) -> int:
    log = _SEARCHES[args.mode](args, args.budget)
    _emit(log, args.json, args.log)
    if not args.json:
        print(log)
    return EXIT_OK  # a hunt that finds nothing is still a clean run


# ---------------------------------------------------------------------------
# campaign


CAMPAIGN_STEP_CAP = 1 << 16  # the sampler draws only d with q^d * n^2 within this many steps


def _campaign_dmax(q: int, n: int, kind: str) -> int:
    dmax = 0
    while q ** (dmax + 1) * n * n <= CAMPAIGN_STEP_CAP:
        dmax += 1
    return max(1, min(dmax, kind_space_dim(n, kind)))


def _construction_points(args, budget, selection, qs, ns):
    """Grid points driven by a named construction instead of the sampler: (file name, point, budget errors).

    A point whose construction or suite fails records the error and counts as one budget error.
    """
    for q in qs:
        for n in ns:
            name = f"q{q}-n{n}-{args.construction}"
            point = {"grid_point": {"q": q, "n": n, "construction": args.construction}}
            try:
                request = cons.ConstructionRequest(args.construction, _construction_params(args, q=q, n=n))
                M, declared = cons.build(request, budget)
                fileio.write_subspace(os.path.join(args.out, name + ".sub"), M, declared)
                reports = run_suite(M, selection=selection, budget=budget,
                                    declared=declared, seed=args.seed)
            except (cons.ConstructionError, ValueError, BudgetExceeded) as exc:
                yield name + ".json", dict(point, error=str(exc), violations=[]), 1
                continue
            point["verdict_counts"] = _count_verdicts(reports)
            point["violations"] = [
                {"theorem_id": r.theorem_id, "witness": r.witness}
                for r in reports
                if r.verdict == VIOLATED
            ]
            yield name + ".json", point, point["verdict_counts"].get(BUDGET_EXCEEDED, 0)


def _sampler_points(args, budget, selection, qs, ns, kinds):
    """Grid points of seeded random subspaces, ``args.trials`` per point: (file name, point, budget errors)."""
    for q in qs:
        field = field_for_order(q)
        for n in ns:
            for kind in kinds:
                dmax = _campaign_dmax(q, n, kind)
                all_reports = []
                violations = []
                for trial in range(args.trials):
                    ss = np.random.SeedSequence([args.seed, q, n, KINDS.index(kind), trial])
                    d_rng = np.random.default_rng(ss)
                    d = int(d_rng.integers(1, dmax + 1))
                    M = random_subspace(field, n, d, kind, ss.spawn(1)[0])
                    reports = run_suite(M, selection=selection, budget=budget, seed=None)
                    all_reports.extend(reports)
                    violations.extend(
                        {"trial": trial, "d": d, "theorem_id": rep.theorem_id, "witness": rep.witness}
                        for rep in reports
                        if rep.verdict == VIOLATED
                    )
                counts = _count_verdicts(all_reports)
                point = {
                    "grid_point": {"q": q, "n": n, "kind": kind},
                    "trials": args.trials,
                    "dmax": dmax,
                    "verdict_counts": counts,
                    "violations": violations,
                }
                yield f"q{q}-n{n}-{kind}.json", point, counts.get(BUDGET_EXCEEDED, 0)


def _count_verdicts(reports) -> dict:
    return dict(Counter(rep.verdict for rep in reports))


def cmd_campaign(args) -> int:
    try:
        qs = [int(v) for v in args.q.split(",")]
        ns = [int(v) for v in args.n.split(",")]
        for q in qs:
            field_for_order(q)  # raises on an order that is not a prime power
        if min(ns) < 1:
            raise ValueError(f"dimensions must be >= 1, got {min(ns)}")
    except ValueError as exc:
        print(f"error: --q/--n: {exc}", file=sys.stderr)
        return EXIT_ERROR
    kinds = args.kind.split(",") if args.kind is not None else list(KINDS)
    for kind in kinds:
        if kind not in KINDS:
            raise ValueError(f"unknown kind {kind!r}")
        # the sampler draws d >= 1, which a zero kind space cannot hold
        empty = [n for n in ns if kind_space_dim(n, kind) == 0]
        if empty and not args.construction:
            raise ValueError(f"--n {empty[0]}: the {kind} space of dimension {empty[0]} is zero, nothing to sample")
    # constructions get the full suite by default, samplers just the bounds
    default = None if args.construction else ["bounds"]
    selection = theoremlab.select_suite(args.suite.split(",") if args.suite is not None else default)
    os.makedirs(args.out, exist_ok=True)
    if args.construction:
        points = _construction_points(args, args.budget, selection, qs, ns)
    else:
        points = _sampler_points(args, args.budget, selection, qs, ns, kinds)
    summary = {"points": [], "violated_total": 0, "budget_errors": 0, "seed": args.seed}
    for name, point, budget_errors in points:
        _emit(point, False, os.path.join(args.out, name))
        summary["points"].append({"file": name, "violations": len(point["violations"])})
        summary["violated_total"] += len(point["violations"])
        summary["budget_errors"] += budget_errors
    path = os.path.join(args.out, "summary.json")
    _emit(summary, args.json, path)
    if not args.json:
        print(f"campaign: {len(summary['points'])} grid points, "
              f"{summary['violated_total']} violations, summary in {path}")
    if summary["violated_total"]:
        return EXIT_VIOLATED
    if summary["budget_errors"]:
        return EXIT_ERROR
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


@functools.cache  # built once; each lambda looks its cmd_* up at call time, so a rebinding reaches main
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="bilrank", description=__doc__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--budget", type=int)
    common.add_argument("--json", action="store_true")
    sub = ap.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", parents=[common], help="materialise a named construction to a subspace file")
    c.add_argument("--name", required=True, choices=cons.CATALOGUE)
    c.add_argument("--q", type=int, required=True, help="base field order")
    c.add_argument("--n", type=int, help="ambient dimension (where applicable)")
    c.add_argument("--k", type=int, help="odd dimension for the alternating family")
    c.add_argument("--ext", type=int, help="extension degree (trace constructions)")
    c.add_argument("--m", type=int, help="matrix size for the column family")
    c.add_argument("--r", type=int, help="rank parameter")
    c.add_argument("--out", required=True)
    c.set_defaults(func=lambda args: cmd_construct(args))

    a = sub.add_parser("analyze", parents=[common], help="dimension, spectrum and radical statistics of a file")
    a.add_argument("file")
    a.add_argument("--out")
    a.set_defaults(func=lambda args: cmd_analyze(args))

    v = sub.add_parser("verify", parents=[common], help="run the theorem suite against a subspace file")
    v.add_argument("file")
    v.add_argument("--suite", help=f"comma list from {','.join(theoremlab.SUITE_NAMES)}")
    v.add_argument("--seed", type=int, help="seed for sampled maximality scans")
    v.add_argument("--trials", type=int, help="candidates a sampled maximality scan draws (default 1000)")
    v.add_argument("--out", help="write the report file here")
    v.set_defaults(func=lambda args: cmd_verify(args))

    s = sub.add_parser("search", parents=[common], help="hunt for asserted-but-unconstructed objects")
    s.add_argument("mode", choices=tuple(_SEARCHES))
    s.add_argument("--q", type=int)
    s.add_argument("--n", type=int)
    s.add_argument("--s", type=int, default=1, help="smallest half-rank for alt-spectrum")
    s.add_argument("--seed", type=int)
    s.add_argument("--trials", type=int, help="draws per hunt (default 0)")
    s.add_argument("--out", help="write any found fixture here")
    s.add_argument("--log", help="write the search log here")
    s.set_defaults(func=lambda args: cmd_search(args))

    g = sub.add_parser("campaign", parents=[common], help="seeded fuzz grid: construct, verify, report")
    g.add_argument("--q", required=True, help="comma list of field orders")
    g.add_argument("--n", required=True, help="comma list of dimensions")
    g.add_argument("--kind", help=f"comma list from {','.join(KINDS)}")
    g.add_argument("--construction", choices=cons.CATALOGUE,
                   help="drive the grid with a named construction instead of the sampler")
    g.add_argument("--k", type=int, help="construction parameter")
    g.add_argument("--ext", type=int, help="construction parameter")
    g.add_argument("--m", type=int, help="construction parameter")
    g.add_argument("--r", type=int, help="construction parameter")
    g.add_argument("--trials", type=int, required=True)
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--suite", help="checker selection per trial (default: bounds)")
    g.add_argument("--out", required=True)
    g.set_defaults(func=lambda args: cmd_campaign(args))
    return ap


# the least value of each integer flag whose range argparse does not check, per command;
# every command takes --budget
_AT_LEAST = {
    "search": (("trials", 0), ("n", 1), ("seed", 0)),
    "campaign": (("trials", 0), ("seed", 0)),
    "verify": (("seed", 0), ("trials", 0)),
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    for flag, least in (("budget", 0), *_AT_LEAST.get(args.command, ())):
        value = getattr(args, flag)
        if value is not None and value < least:
            print(f"error: --{flag} must be >= {least}", file=sys.stderr)
            return EXIT_ERROR
    if args.command == "search" and args.seed is None:
        print("error: randomized searches require --seed", file=sys.stderr)
        return EXIT_ERROR
    if args.command == "search" and (args.q is None or args.n is None):
        print("error: this search mode requires --q and --n", file=sys.stderr)
        return EXIT_ERROR
    if args.budget is None:
        # --budget overrides BILRANK_BUDGET, which overrides the default
        env = os.environ.get("BILRANK_BUDGET")
        try:
            args.budget = int(env) if env else DEFAULT_BUDGET
        except ValueError:
            print(f"error: BILRANK_BUDGET must be an integer, got {env!r}", file=sys.stderr)
            return EXIT_ERROR
        if args.budget < 0:
            print("error: BILRANK_BUDGET must be >= 0", file=sys.stderr)
            return EXIT_ERROR
    try:
        return args.func(args)
    except (OSError, ValueError, BudgetExceeded) as exc:  # the one exit for file, usage and budget errors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
