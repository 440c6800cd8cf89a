"""CLI contract: files, exit codes, reproducibility, seeds."""

import glob
import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from conftest import catalogue_requests

from bilrank import cli, fileio, theoremlab
from bilrank import constructions as cons
from bilrank import formcore as fc
from bilrank.cli import main
from bilrank.gf import field_for_order
from bilrank.spanspace import random_subspace


def run(args):
    return main(args)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


@pytest.fixture
def trace_fixture(tmp_path):
    path = str(tmp_path / "trace.json")
    assert run(["construct", "--name", "trace-symmetric", "--q", "3", "--ext", "2",
                "--n", "3", "--out", path]) == 0
    return path


def test_construct_writes_verified_fixture(trace_fixture):
    obj = read_json(trace_fixture)
    assert obj["format"] == "bilrank-subspace"
    assert obj["kind"] == "symmetric"
    assert obj["declared"]["maximal"] is True
    assert obj["self_verification"]["verdict"] == "holds"


@pytest.mark.parametrize(
    "args",
    [
        ["--name", "alt-full", "--q", "2", "--n", "3"],
        ["--name", "alt-pencil", "--q", "5", "--n", "4"],
        ["--name", "block-symmetric", "--q", "3", "--n", "4", "--r", "2"],
        ["--name", "alt-odd", "--q", "2", "--k", "3"],
        ["--name", "column-family", "--q", "3", "--ext", "2", "--m", "3", "--r", "1"],
    ],
)
def test_construct_catalogue_and_verify_clean(tmp_path, args):
    path = str(tmp_path / "m.sub")
    assert run(["construct", *args, "--out", path]) == 0
    assert run(["verify", path]) == 0


def test_construct_alt_full_q2_has_three_basis_forms(tmp_path):
    path = str(tmp_path / "alt.json")
    assert run(["construct", "--name", "alt-full", "--q", "2", "--n", "3", "--out", path]) == 0
    assert len(read_json(path)["basis"]) == 3


def test_construct_bad_parameters_exit_2(tmp_path):
    path = str(tmp_path / "x.json")
    assert run(["construct", "--name", "block-symmetric", "--q", "3", "--n", "4",
                "--r", "3", "--out", path]) == 2
    assert not os.path.exists(path)


@pytest.mark.parametrize(
    "args, flag, value",
    [
        (["--name", "trace-symmetric", "--q", "3", "--ext", "0"], "ext", 0),
        (["--name", "trace-symmetric", "--q", "3", "--ext", "2", "--n", "0"], "n", 0),
        (["--name", "alt-odd", "--q", "3", "--k", "3", "--ext", "0"], "ext", 0),
        (["--name", "alt-odd", "--q", "3", "--k", "3", "--ext", "-1"], "ext", -1),
        (["--name", "column-family", "--q", "3", "--m", "2", "--r", "1", "--ext", "0"], "ext", 0),
        (["--name", "alt-full", "--q", "3", "--n", "0"], "n", 0),
    ],
    ids=["trace-ext-0", "trace-n-0", "odd-ext-0", "odd-ext-negative", "column-ext-0", "alt-full-n-0"],
)
def test_construct_parameter_below_one_is_named_not_defaulted(tmp_path, capsys, args, flag, value):
    path = tmp_path / "x.json"
    assert run(["construct", *args, "--out", str(path)]) == 2
    assert f"construction parameter --{flag} must be >= 1, got {value}" in capsys.readouterr().err
    assert not path.exists()


def test_construct_column_family_example(tmp_path):
    path = str(tmp_path / "cf.json")
    assert run(["construct", "--name", "column-family", "--q", "3", "--ext", "2",
                "--m", "3", "--r", "1", "--out", path]) == 0
    obj = read_json(path)
    assert obj["n"] == 6 and len(obj["basis"]) == 6


def test_analyze_reports_expected_statistics(tmp_path, capsys):
    path = str(tmp_path / "alt33.json")
    run(["construct", "--name", "alt-full", "--q", "3", "--n", "3", "--out", path])
    out_path = str(tmp_path / "analysis.json")
    assert run(["analyze", path, "--json", "--out", out_path]) == 0
    obj = read_json(out_path)
    assert obj["dim"] == 3
    assert obj["spectrum"] == [2]
    assert obj["distinct_left_radicals"] == 13
    assert obj["isotropic_nonzero"] == 26


def test_analyze_zero_subspace_note(tmp_path):
    from bilrank.gf import field_for_order
    from bilrank.spanspace import span

    path = str(tmp_path / "zero.json")
    fileio.write_subspace(path, span([], field=field_for_order(3), n=2))
    out_path = str(tmp_path / "an.json")
    assert run(["analyze", path, "--json", "--out", out_path]) == 0
    obj = read_json(out_path)
    assert obj["spectrum"] == [] and "rank(M)=0" in obj["note"]


def test_verify_and_analyze_build_no_subspace(tmp_path, capsys, monkeypatch):
    """Null spaces are read off their basis stacks: no formcore.Subspace is built per radical, A_u or M_u.

    Every suite but maximality, and `analyze`, on freshly built catalogue members (nothing stored on
    them yet) and on the committed fixtures.
    """
    built = []
    init = fc.Subspace.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(fc.Subspace, "__init__", counted)
    suites = [name for name in theoremlab.SUITE_NAMES if name != "maximality"]
    paths = sorted(glob.glob(os.path.join(os.path.dirname(__file__), "..", "fixtures", "*.json")))
    assert len(paths) == 2
    for path in paths:
        loaded = fileio.read_subspace(path)
        theoremlab.run_suite(loaded.subspace, suites, declared=loaded.declared)
    for i, req in enumerate(catalogue_requests()):
        M, declared = cons.build(req)
        paths.append(str(tmp_path / f"{i}.json"))
        fileio.write_subspace(paths[-1], M, declared)
        theoremlab.run_suite(M, suites, declared=declared)
    for path in paths:
        assert run(["analyze", path]) == 0, path
    capsys.readouterr()
    assert built == []
    fc.Subspace(field_for_order(3), 2, np.zeros((0, 2), dtype=np.int64))  # the count sees a Subspace when one is built
    assert len(built) == 1


def test_analyze_dependent_rows_named(tmp_path, capsys):
    path = str(tmp_path / "bad.json")
    obj = {
        "format": "bilrank-subspace",
        "version": 1,
        "field": {"p": 3, "k": 1, "modulus": [0, 1]},
        "n": 2,
        "basis": [
            {"n": 2, "rows": [[1, 0], [0, 1]]},
            {"n": 2, "rows": [[2, 0], [0, 2]]},
        ],
    }
    with open(path, "w") as fh:
        fh.write(fileio.dumps(obj))
    assert run(["analyze", path]) == 2
    err = capsys.readouterr().err
    assert "basis row 1 is dependent" in err


def test_analyze_malformed_json_diagnostic(tmp_path, capsys):
    path = str(tmp_path / "broken.json")
    with open(path, "w") as fh:
        fh.write('{"format": "bilrank-subspace",\n  "n": }')
    assert run(["analyze", path]) == 2
    assert "line 2" in capsys.readouterr().err


def test_missing_input_file_exit_2(tmp_path, capsys):
    assert run(["verify", str(tmp_path / "missing.json")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_directory_as_input_exit_2(tmp_path, capsys):
    assert run(["analyze", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_unwritable_report_path_exit_2(trace_fixture, tmp_path, capsys):
    assert run(["verify", trace_fixture, "--suite", "counting", "--out", str(tmp_path / "no" / "r.json")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "fields, message",
    [
        (None, "the top level must be a JSON object, not list"),
        ({"field": 3}, "the field section must be a JSON object, not int"),
        ({"basis": 5}, "basis must be a list of forms, not int"),
        ({"basis": [7]}, "basis entry 0 must be a JSON object, not int"),
        ({"basis": [{"n": 7, "rows": [[1, 0], [0, 1]]}]}, "basis entry 0: n is 7, but the file's n is 2"),
    ],
    ids=["top-level", "field", "basis", "basis-entry", "basis-entry-n-mismatch"],
)
def test_wrong_json_shape_exit_2(tmp_path, capsys, fields, message):
    obj = [] if fields is None else dict(read_json(_one_form_file(tmp_path / "ok.json")), **fields)
    path = tmp_path / "bad.json"
    path.write_text(fileio.dumps(obj))
    assert run(["analyze", str(path)]) == 2
    assert message in capsys.readouterr().err


def _one_form_file(path, n=2, entry=0, p=3, k=1, entry_n=2):
    obj = {
        "format": "bilrank-subspace",
        "version": 1,
        "field": {"p": p, "k": k, "modulus": [0, 1]},
        "n": n,
        "basis": [{"n": entry_n, "rows": [[1, entry], [0, 1]]}],
    }
    with open(path, "w") as fh:
        fh.write(fileio.dumps(obj))
    return str(path)


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"entry": 1.5}, "rows[0][1] must be an integer, got 1.5"),
        ({"entry": True}, "rows[0][1] must be an integer, got True"),
        ({"n": 2.0}, "n must be an integer, got 2.0"),
        ({"p": 3.0}, "field p must be an integer, got 3.0"),
        ({"entry": 10**30}, "basis entry 0: entries must be element codes in [0, q)"),
        ({"entry_n": 2.0}, "basis entry 0: n must be an integer, got 2.0"),
    ],
    ids=["float-entry", "bool-entry", "float-n", "float-p", "int64-overflow-entry", "float-entry-n"],
)
def test_non_integer_values_are_rejected(tmp_path, capsys, fields, message):
    path = _one_form_file(tmp_path / "m.json", **fields)
    assert run(["analyze", path]) == 2
    assert message in capsys.readouterr().err
    # the same file with integers reads fine
    assert run(["analyze", _one_form_file(tmp_path / "ok.json")]) == 0


@pytest.mark.parametrize("argv", [["verify"], ["search", "maximal", "--file"]], ids=["verify", "search-maximal"])
def test_code_past_int64_exits_2_from_verify_and_search_maximal(tmp_path, capsys, argv):
    # analyze is a row of the table above
    path = _one_form_file(tmp_path / "m.json", entry=10**30)
    assert run([*argv, path]) == 2
    assert capsys.readouterr().err == f"error: {path}: basis entry 0: entries must be element codes in [0, q)\n"


@pytest.mark.parametrize(
    "declared, message",
    [
        ("abc", "declared must be a JSON object, not str"),
        ([1, 2], "declared must be a JSON object, not list"),
        ({"spectrum": 5}, "declared spectrum must be a list of ranks, got 5"),
        ({"spectrum": [[1]]}, "declared spectrum[0] must be an integer, got [1]"),
        ({"spectrum": [2.0]}, "declared spectrum[0] must be an integer, got 2.0"),
        ({"dim": 3.0}, "declared dim must be an integer, got 3.0"),
        ({"spread_t": True}, "declared spread_t must be an integer, got True"),
        ({"kind": 3}, "declared kind must be a string, got 3"),
        ({"maximal": "no"}, "declared maximal must be true or false, got 'no'"),
    ],
    ids=["string", "list", "spectrum-int", "spectrum-nested", "spectrum-float", "dim-float", "spread-bool",
         "kind-int", "maximal-string"],
)
def test_declared_claims_of_the_wrong_type_are_rejected(trace_fixture, tmp_path, capsys, declared, message):
    obj = dict(read_json(trace_fixture), declared=declared)
    path = tmp_path / "bad.json"
    path.write_text(fileio.dumps(obj))
    assert run(["verify", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


def test_verify_suite_selection_single_report(trace_fixture, tmp_path):
    out = str(tmp_path / "rep.json")
    assert run(["verify", trace_fixture, "--suite", "counting", "--json", "--out", out]) == 0
    obj = read_json(out)
    assert len(obj["reports"]) == 1
    assert obj["reports"][0]["theorem_id"] == "counting-identity"


def test_verify_corrupted_fixture_exit_1_with_witness(trace_fixture, tmp_path):
    obj = read_json(trace_fixture)
    obj["basis"][1] = {"n": 3, "rows": [[1, 0, 0], [0, 0, 0], [0, 0, 0]]}
    bad = str(tmp_path / "bad.json")
    with open(bad, "w") as fh:
        fh.write(fileio.dumps(obj))
    rep_path = str(tmp_path / "rep.json")
    assert run(["verify", bad, "--json", "--out", rep_path]) == 1
    reports = read_json(rep_path)["reports"]
    viol = [r for r in reports if r["verdict"] == "violated"]
    assert viol and viol[0]["witness"]["kind"] == "spectrum-mismatch"


def test_verify_budget_exit_2(trace_fixture):
    assert run(["verify", trace_fixture, "--budget", "5"]) == 2


def test_budget_env_var(trace_fixture, monkeypatch):
    monkeypatch.setenv("BILRANK_BUDGET", "5")
    assert run(["verify", trace_fixture]) == 2
    monkeypatch.delenv("BILRANK_BUDGET")
    assert run(["verify", trace_fixture]) == 0


def test_reports_byte_stable(trace_fixture, tmp_path):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    run(["verify", trace_fixture, "--json", "--out", a])
    run(["verify", trace_fixture, "--json", "--out", b])
    assert open(a).read() == open(b).read()


def test_roundtrip_is_canonical(trace_fixture, tmp_path):
    loaded = fileio.read_subspace(trace_fixture)
    rewritten = str(tmp_path / "again.json")
    fileio.write_subspace(rewritten, loaded.subspace, loaded.declared, loaded.self_verification)
    assert open(rewritten).read() == open(trace_fixture).read()


# --- search ------------------------------------------------------------------


def test_search_requires_seed(capsys):
    assert run(["search", "rank2-distinct-radicals", "--q", "3", "--n", "3",
                "--trials", "10"]) == 2
    assert "--seed" in capsys.readouterr().err


def test_search_zero_trials_empty_log(tmp_path):
    log = str(tmp_path / "log.json")
    assert run(["search", "rank2-distinct-radicals", "--q", "3", "--n", "3",
                "--seed", "1", "--trials", "0", "--log", log]) == 0
    obj = read_json(log)
    assert obj["trials_run"] == 0 and obj["found"] is False


def test_search_finds_rank2_distinct_radical_fixture(tmp_path):
    fix = str(tmp_path / "found.json")
    log = str(tmp_path / "log.json")
    assert run(["search", "rank2-distinct-radicals", "--q", "3", "--n", "3",
                "--seed", "11", "--trials", "400", "--out", fix, "--log", log]) == 0
    obj = read_json(log)
    assert obj["found"] is True
    assert run(["verify", fix]) == 0
    loaded = fileio.read_subspace(fix)
    assert loaded.declared["distinct_radicals"] == 4


def test_search_maximal_confirms_trace_fixture(trace_fixture, tmp_path):
    log = str(tmp_path / "log.json")
    assert run(["search", "maximal", "--file", trace_fixture, "--log", log]) == 0
    obj = read_json(log)
    assert obj["verdict"] == "holds" and obj["details"]["mode"] == "exhaustive"


@pytest.mark.parametrize("budget, verdict, code", [(None, "violated", 1), ("10", "budget-exceeded", 2)])
def test_search_maximal_exits_by_its_verdict(tmp_path, budget, verdict, code):
    # the pencil extends to a larger constant rank 2 subspace, so a maximality claim is violated
    path = str(tmp_path / "pencil.json")
    assert run(["construct", "--name", "alt-pencil", "--q", "3", "--n", "3", "--out", path]) == 0
    obj = read_json(path)
    obj["declared"]["maximal"] = True
    with open(path, "w") as fh:
        fh.write(fileio.dumps(obj))
    log = str(tmp_path / "log.json")
    assert run(["search", "maximal", "--file", path, "--log", log, *(["--budget", budget] if budget else [])]) == code
    assert read_json(log)["verdict"] == verdict


def test_search_maximal_passes_trials_to_the_sampled_scan(tmp_path, monkeypatch, capsys):
    """--trials caps a seeded scan's draws; without it the scan draws check_maximality's default 1000, as it did."""
    monkeypatch.chdir(tmp_path)
    assert run(["construct", "--name", "alt-pencil", "--q", "3", "--n", "5", "--out", "ap.json"]) == 0
    capsys.readouterr()
    argv = ["search", "maximal", "--file", "ap.json", "--seed", "17", "--json"]
    assert run([*argv, "--trials", "3"]) == 0
    details = json.loads(capsys.readouterr().out)["details"]
    assert details["mode"] == "sampled" and details["candidates_tried"] <= 3
    # the output of the run without --trials, candidates_tried 1000, before the flag was passed through
    assert _call_digest(argv, capsys) == "cc32eeb068958ee9453e292fca412e225eddef6697c41e566aafe3fdf8427880"


def test_search_alt_spectrum_trivial_case(tmp_path):
    # n = 3, s = 1: the target is Alt(V) itself, found immediately
    fix = str(tmp_path / "alt.json")
    log = str(tmp_path / "log.json")
    assert run(["search", "alt-spectrum", "--q", "3", "--n", "3", "--s", "1",
                "--seed", "2", "--trials", "5", "--out", fix, "--log", log]) == 0
    assert read_json(log)["found"] is True
    assert run(["verify", fix]) == 0


# --- campaign ------------------------------------------------------------------


def test_campaign_grid_paths_and_determinism(tmp_path):
    out1, out2 = str(tmp_path / "c1"), str(tmp_path / "c2")
    args = ["campaign", "--q", "2,3", "--n", "2,3", "--kind", "alternating,symmetric",
            "--trials", "5", "--seed", "9"]
    assert run(args + ["--out", out1]) == 0
    assert run(args + ["--out", out2]) == 0
    names = sorted(os.listdir(out1))
    assert names == sorted(os.listdir(out2))
    assert "q2-n3-alternating.json" in names and "summary.json" in names
    for name in names:
        assert open(os.path.join(out1, name)).read() == open(os.path.join(out2, name)).read()
    summary = read_json(os.path.join(out1, "summary.json"))
    assert summary["violated_total"] == 0


def test_campaign_rejects_unknown_kind(tmp_path):
    assert run(["campaign", "--q", "3", "--n", "3", "--kind", "weird",
                "--trials", "1", "--seed", "1", "--out", str(tmp_path / "c")]) == 2


@pytest.mark.parametrize(
    "grid, message",
    [
        (["--q", "x", "--n", "3"], "'x'"),
        (["--q", "3,,5", "--n", "3"], "''"),
        (["--q", "6", "--n", "3"], "6 is not a prime power"),
        (["--q", "3", "--n", "3.5"], "'3.5'"),
    ],
)
def test_campaign_bad_grid_is_a_usage_error(tmp_path, capsys, grid, message):
    out = tmp_path / "c"
    assert run(["campaign", *grid, "--trials", "1", "--seed", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --q/--n: ") and message in err and err.count("\n") == 1
    assert not out.exists()


def _run_cli(*argv):
    """bilrank in a subprocess, with a timeout so that a stall fails instead of hanging."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    return subprocess.run([sys.executable, "-m", "bilrank.cli", *argv],
                          capture_output=True, text=True, timeout=60, env=env)


@pytest.mark.parametrize("n", ["0", "-1"])
def test_campaign_rejects_dimension_below_one(tmp_path, n):
    # in a subprocess with a timeout: --n 0 once looped forever looking for the largest d
    out = tmp_path / "c"
    proc = _run_cli("campaign", "--q", "3", "--n", n, "--trials", "1", "--seed", "1", "--out", str(out))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: --q/--n: ") and ">= 1" in proc.stderr
    assert not out.exists()


def test_campaign_rejects_a_zero_kind_space_before_any_point(tmp_path, capsys):
    # Alt(V) is zero at n = 1: the sampler has no d >= 1 to draw there
    out = tmp_path / "c"
    assert run(["campaign", "--q", "3", "--n", "2,1", "--trials", "1", "--seed", "1", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: --n 1: the alternating space of dimension 1 is zero, nothing to sample\n"
    assert not out.exists()
    # the same grid point is fine for the kinds that have forms there
    assert run(["campaign", "--q", "3", "--n", "2,1", "--kind", "general,symmetric", "--trials", "1", "--seed", "1",
                "--out", str(out)]) == 0


def test_campaign_rejects_unknown_suite(tmp_path, capsys):
    out = tmp_path / "c"
    assert run(["campaign", "--q", "3", "--n", "3", "--trials", "1", "--seed", "1",
                "--suite", "bounds,weird", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: unknown suite selection: ['weird']\n"
    assert not out.exists()


_HUNT = ["search", "rank2-distinct-radicals", "--q", "3"]
_GRID = ["campaign", "--q", "3", "--n", "3"]
_VERIFY = ["verify", os.path.join(os.path.dirname(__file__), "..", "fixtures", "alt-spectrum-q3-n3-s1.json")]


@pytest.mark.parametrize(
    "argv, message",
    [
        (_HUNT + ["--n", "3", "--seed", "1", "--trials", "-1"], "--trials must be >= 0"),
        (_GRID + ["--seed", "1", "--trials", "-2"], "--trials must be >= 0"),
        (_HUNT + ["--n", "0", "--seed", "1", "--trials", "1"], "--n must be >= 1"),
        (_HUNT + ["--n", "3", "--seed", "-1", "--trials", "1"], "--seed must be >= 0"),
        (_GRID + ["--seed", "-1", "--trials", "1"], "--seed must be >= 0"),
        (_HUNT + ["--seed", "1", "--trials", "1"], "this search mode requires --q and --n"),
        (["search", "maximal", "--seed", "1"], "this search mode requires --file"),
        # an empty selection names nothing: the same usage error as an unknown name, not the default selection
        (_VERIFY + ["--suite", ""], "unknown suite selection: ['']"),
        (_VERIFY + ["--suite", ","], "unknown suite selection: ['']"),
        (_GRID + ["--seed", "1", "--trials", "1", "--suite", ""], "unknown suite selection: ['']"),
        (_GRID + ["--seed", "1", "--trials", "1", "--kind", ""], "unknown kind ''"),
    ],
    ids=["search-trials", "campaign-trials", "search-n", "search-seed", "campaign-seed", "search-no-n",
         "search-maximal-no-file", "verify-empty-suite", "verify-comma-suite", "campaign-empty-suite",
         "campaign-empty-kind"],
)
def test_out_of_range_flag_is_named_before_any_draw(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    assert run([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


_MISSING = "no-such-subspace.json"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", _MISSING, "--budget", "-5"], "--budget must be >= 0"),
        (["analyze", _MISSING, "--budget", "-1"], "--budget must be >= 0"),
        (["construct", "--name", "alt-pencil", "--q", "3", "--n", "3", "--budget", "-1"], "--budget must be >= 0"),
        (["search", "maximal", "--file", _MISSING, "--budget", "-1"], "--budget must be >= 0"),
        (_GRID + ["--seed", "1", "--trials", "1", "--budget", "-1"], "--budget must be >= 0"),
        (["verify", _MISSING, "--suite", "maximality", "--seed", "-1"], "--seed must be >= 0"),
    ],
    ids=["verify-budget", "analyze-budget", "construct-budget", "search-budget", "campaign-budget", "verify-seed"],
)
def test_negative_budget_or_seed_is_named_before_any_file_is_read(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    assert run([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_negative_budget_env_var_is_named(monkeypatch, capsys):
    monkeypatch.setenv("BILRANK_BUDGET", "-3")
    assert run(["verify", _MISSING]) == 2
    assert capsys.readouterr().err == "error: BILRANK_BUDGET must be >= 0\n"


def test_zero_budget_is_a_budget_not_a_usage_error(trace_fixture, capsys):
    assert run(["verify", trace_fixture, "--budget", "0", "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.err == ""
    assert {r["verdict"] for r in json.loads(captured.out)["reports"]} == {"budget-exceeded"}


@pytest.mark.parametrize("p, k", [(3, 10**8), (2**61 - 1, 1)], ids=["huge-k", "huge-p"])
def test_file_field_over_the_cap_is_rejected_first(tmp_path, p, k):
    # p^k is over 2^16: rejected before the primality test and the power are computed
    proc = _run_cli("analyze", _one_form_file(tmp_path / "m.json", p=p, k=k))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and "exceeds the supported cap 65536" in proc.stderr


def test_construct_order_over_the_cap_is_rejected_first(tmp_path):
    proc = _run_cli("construct", "--name", "alt-pencil", "--q", str(2**61 - 1), "--n", "3",
                    "--out", str(tmp_path / "m.sub"))
    assert proc.returncode == 2
    assert proc.stderr == f"construction failed: field order {2**61 - 1} exceeds the supported cap 65536\n"


@pytest.mark.parametrize("n", [0, -1])
@pytest.mark.parametrize("command", ["analyze", "verify"])
def test_file_dimension_below_one_is_rejected(tmp_path, capsys, command, n):
    # an empty basis: the n check is all that stands before the numpy reshape
    path = tmp_path / "m.json"
    path.write_text(fileio.dumps({"format": "bilrank-subspace", "version": 1, "n": n, "basis": [],
                                  "field": {"p": 3, "k": 1, "modulus": [0, 1]}}))
    assert run([command, str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}: n must be >= 1, got {n}\n"


def test_construct_rejects_seed(tmp_path, capsys):
    out = tmp_path / "m.sub"
    with pytest.raises(SystemExit) as exc:
        run(["construct", "--name", "alt-pencil", "--q", "3", "--n", "3", "--seed", "1", "--out", str(out)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
    assert not out.exists()


def test_non_integer_budget_env_var_is_a_usage_error(trace_fixture, monkeypatch, capsys):
    monkeypatch.setenv("BILRANK_BUDGET", "abc")
    assert run(["analyze", trace_fixture]) == 2
    err = capsys.readouterr().err
    assert err == "error: BILRANK_BUDGET must be an integer, got 'abc'\n"


def test_campaign_construction_mode(tmp_path):
    out = str(tmp_path / "cc")
    assert run(["campaign", "--q", "2,3", "--n", "3", "--construction", "alt-pencil",
                "--trials", "1", "--seed", "3", "--out", out]) == 0
    names = sorted(os.listdir(out))
    assert "q2-n3-alt-pencil.sub" in names and "q2-n3-alt-pencil.json" in names
    point = read_json(os.path.join(out, "q3-n3-alt-pencil.json"))
    assert point["violations"] == []
    assert run(["verify", os.path.join(out, "q3-n3-alt-pencil.sub")]) == 0


# --- pinned report bytes ---------------------------------------------------------

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "..", "fixtures")

# small inputs that between them make every checker applicable at least once
PINNED_MEMBERS = (
    ("alt-full", {"q": 3, "n": 3}),
    ("alt-full", {"q": 5, "n": 2}),  # the common-radical bound
    ("alt-odd", {"q": 3, "k": 3}),
    ("alt-pencil", {"q": 3, "n": 5}),  # the alternating rn bound
    ("trace-symmetric", {"q": 3, "ext": 2, "n": 3}),  # maximality
    ("trace-symmetric", {"q": 3, "ext": 2}),  # dim M = n: isotropic partition, Witt census
    ("column-family", {"q": 3, "m": 2, "r": 1}),
    ("column-family", {"q": 3, "m": 3, "r": 1, "ext": 2}),  # radical equality
    ("block-symmetric", {"q": 3, "n": 4, "r": 2}),
    # odd characteristic, constant rank 2: the Witt census over every line of M
    ("block-symmetric", {"q": 3, "n": 5, "r": 1}),
    ("block-symmetric", {"q": 5, "n": 4, "r": 1}),
    ("trace-symmetric", {"q": 5, "ext": 2, "n": 3}),
    # characteristic 2, where alternating forms are symmetric too
    ("alt-pencil", {"q": 2, "n": 4}),
    ("alt-full", {"q": 4, "n": 3}),
    ("block-symmetric", {"q": 2, "n": 4, "r": 1}),
    ("trace-symmetric", {"q": 2, "ext": 2, "n": 3}),
)

# members verified under small budgets: their budget_errors name rank_spectrum,
# kernel-bounds, kernel_dims_all, isotropic_set and witt-census
PINNED_BUDGET_MEMBERS = (
    ("alt-pencil", {"q": 3, "n": 4}),
    ("block-symmetric", {"q": 3, "n": 4, "r": 1}),
)
PINNED_BUDGETS = (300, 500)

# members verified with a sampling seed: their ambient kind space is over the
# default budget, so maximality runs the seeded sampled scan
PINNED_SEED_MEMBERS = (("alt-pencil", {"q": 3, "n": 5}),)
PINNED_SEED = 17

# sha256 of "<exit code>\n<stdout>" of `bilrank verify FILE --json`, all suites
# (with `--budget B` for the budget members, `--seed 17` for the seed members)
PINNED_REPORT_SHA256 = {
    "fixture-alt-spectrum-q3-n3-s1.json": "c555b3d42f9900b7d85eda043e008adc2cb429b1eb95d66b1f57a92607578a92",
    "fixture-symm-rank2-distinct-radicals-q3-n3.json": "49a9a4a9018fa4ec696af0ae6e9bcf372e8ee4cda1f63a7234cb3ba05818c80b",
    "alt-full-n3-q3": "c555b3d42f9900b7d85eda043e008adc2cb429b1eb95d66b1f57a92607578a92",
    "alt-full-n2-q5": "40620e5d7a1ee4822748a6e5616d39543aa4c1b27c887db9653bb33dd12fb48d",
    "alt-odd-k3-q3": "c555b3d42f9900b7d85eda043e008adc2cb429b1eb95d66b1f57a92607578a92",
    "alt-pencil-n5-q3": "fb0c80dce559d69e900fdc4b4898e5ea6faecf14c2ccffe19d8774e0d812302d",
    "trace-symmetric-ext2-n3-q3": "0ce1718012c787da27bbf2c2a1e564af5350394270a01aaadfa6aa7ca03a94a5",
    "trace-symmetric-ext2-n3-q3-declared-1": "e503ad48516347780a1f03746657401115d05e4d3219a3b11806c8091999ce85",
    "trace-symmetric-ext2-n3-q3-declared-2-3": "b8c253a40fe0007c0610bef48c281e4ed72635a3fbcc429d4b92467ef4f8df29",
    "trace-symmetric-ext2-q3": "5d9e2a8734e6aae873a27986f1f1c8d0e3a098654d1848f1440336f438be32d2",
    "column-family-m2-q3-r1": "f93c86b9a809eaa9ae3d9e3f259fdf16bd0650a106a54f78babcf19065c3e20e",
    "column-family-ext2-m3-q3-r1": "cb1256d9071ff120cda84036ccb6485f61344c1c5be97d6ad3070a144e21628b",
    "block-symmetric-n4-q3-r2": "f50256f4cfb1cde9dca881a201829f0333397bcb407d335c47d724fa20e95943",
    "block-symmetric-n5-q3-r1": "3a2f38f905b2776c36d60247a58de68d4fe313f5d598143d639d9b3ee8f61c7c",
    "block-symmetric-n4-q5-r1": "92b39da6f807cf86f12ed33502d7c4923ee2e2d2e8cd427ad7a8f7fe2ee6a654",
    "trace-symmetric-ext2-n3-q5": "0ed3e5469bc29b0cce18003bb9138730ab6a70af0f0dfa10f790e1643e834258",
    "alt-pencil-n4-q2": "050ef91c359199f5206911c49f0233bd81e30b5fb6dc9598386d7a9afa6d5e17",
    "alt-full-n3-q4": "8395e4dedc471dc306bdcff3dd7bd0365b5ed6a2b3b1cee39a26bbba82cae3e8",
    "block-symmetric-n4-q2-r1": "050ef91c359199f5206911c49f0233bd81e30b5fb6dc9598386d7a9afa6d5e17",
    "trace-symmetric-ext2-n3-q2": "97214f994a5fad3eeaa7bf3fd99199e93df8c7a63b689d442749e34ce3e0c7f7",
    "alt-pencil-n4-q3-budget300": "52b43da88ef11d1b450f577961dabf9d3326a6f05d19e3c8f858141ee3f00653",
    "alt-pencil-n4-q3-budget500": "de8118953be637e1c0fdb71e9a18634cbc47e149d75198b278e5ed0c0383b325",
    "block-symmetric-n4-q3-r1-budget300": "52b43da88ef11d1b450f577961dabf9d3326a6f05d19e3c8f858141ee3f00653",
    "block-symmetric-n4-q3-r1-budget500": "d47671436c4ee4fc3a821d37e968df07e681a4a672d5de8ec3b5574b7ccf7a1c",
    "alt-pencil-n5-q3-seed17": "b61586fa4ffbcc2a504af0a2ea939c666f293b39c012602dcc24da45e6ab041d",
}


def _pinned_inputs(workdir):
    """(key, verify arguments) for every input whose report bytes are pinned."""
    out = [("fixture-" + os.path.basename(p), [p]) for p in sorted(glob.glob(os.path.join(FIXTURE_DIR, "*.json")))]

    def write(key, M, declared):
        path = os.path.join(workdir, key + ".json")
        fileio.write_subspace(path, M, declared)
        return path

    for name, params in PINNED_MEMBERS + PINNED_BUDGET_MEMBERS:
        M, declared = cons.build(cons.ConstructionRequest(name, dict(params)))
        key = name + "".join(f"-{k}{v}" for k, v in sorted(params.items()))
        path = write(key, M, declared)
        if (name, params) in PINNED_BUDGET_MEMBERS:
            out.extend((f"{key}-budget{b}", [path, "--budget", str(b)]) for b in PINNED_BUDGETS)
            continue
        out.append((key, [path]))
        if (name, params) in PINNED_SEED_MEMBERS:
            out.append((f"{key}-seed{PINNED_SEED}", [path, "--seed", str(PINNED_SEED)]))
        if key == "trace-symmetric-ext2-n3-q3":
            # corrupted declared spectra: a stray rank, and a missing one
            for wrong in ([1], [2, 3]):
                bad = f"{key}-declared-{'-'.join(map(str, wrong))}"
                out.append((bad, [write(bad, M, dict(declared, spectrum=wrong))]))
    return out


def test_verify_report_bytes_are_pinned(tmp_path, capsys):
    got = {}
    for key, args in _pinned_inputs(str(tmp_path)):
        code = run(["verify", *args, "--json"])
        text = f"{code}\n{capsys.readouterr().out}"
        got[key] = hashlib.sha256(text.encode()).hexdigest()
    assert got == PINNED_REPORT_SHA256


def test_every_document_the_front_end_writes_is_jsons_bytes(tmp_path, monkeypatch, capsys):
    """fileio.dumps against json.dumps(obj, indent=2, sort_keys=True) + "\\n" on each document written."""
    writer, docs = fileio.dumps, []

    def checked(obj):
        text = writer(obj)
        docs.append(text == json.dumps(obj, indent=2, sort_keys=True) + "\n")
        return text

    monkeypatch.setattr(fileio, "dumps", checked)
    work = str(tmp_path)
    calls = [["verify", *args, "--json", "--out", os.path.join(work, "report.json")]
             for _, args in _pinned_inputs(work)]
    calls += [["analyze", path, "--json"] for path in sorted(glob.glob(os.path.join(FIXTURE_DIR, "*.json")))]
    calls += [
        ["construct", "--name", "block-symmetric", "--q", "5", "--n", "4", "--r", "1",
         "--out", os.path.join(work, "made.json")],
        ["search", "rank2-distinct-radicals", "--q", "3", "--n", "3", "--seed", "1", "--trials", "20", "--json",
         "--log", os.path.join(work, "search.log"), "--out", os.path.join(work, "found.json")],
        ["campaign", "--q", "3,5", "--n", "3", "--trials", "2", "--seed", "1", "--json",
         "--out", os.path.join(work, "grid")],
        ["campaign", "--q", "3", "--n", "4", "--construction", "block-symmetric", "--r", "1", "--trials", "1",
         "--seed", "1", "--suite", "declared,witt-census,isotropic-partition", "--json",
         "--out", os.path.join(work, "grid-c")],
    ]
    for argv in calls:
        run(argv)
        capsys.readouterr()
    assert len(docs) > len(calls) and all(docs)


# sha256 of "<exit code>\n<stdout>" of `bilrank verify FILE --json` on random GF(2) subspaces
# (n, d, kind, seed) whose orthogonality scan stops at a violating radical pair
PINNED_DRAW_SHA256 = {
    (4, 4, "general", 3): "f3ad8ee586497023c1eb54b00361d0ec6b1d8bb2aff7978a06764b5719d8a178",
    (4, 3, "general", 0): "7d96ae2716470d91fed933481426648f05ba3e191853816938431945559d069b",
    (5, 3, "symmetric", 23): "460c37dd9fbd82893f19009645cffa12086b449dfde90f018640ec7a7c937675",
    (4, 2, "symmetric", 5): "25c7f610042a13a7e7a108d670566076a54508ec5db5fd066f4245b1566fba46",
}


def test_orthogonality_draw_reports_are_pinned(tmp_path, capsys):
    got = {}
    for n, d, kind, seed in PINNED_DRAW_SHA256:
        path = str(tmp_path / f"draw-n{n}-d{d}-{kind}-s{seed}.json")
        fileio.write_subspace(path, random_subspace(field_for_order(2), n, d, kind, seed))
        code = run(["verify", path, "--json"])
        got[n, d, kind, seed] = hashlib.sha256(f"{code}\n{capsys.readouterr().out}".encode()).hexdigest()
    assert got == PINNED_DRAW_SHA256


def test_main_reaches_a_rebound_command(trace_fixture, monkeypatch):
    """The parser is built once, and its subcommands still look cmd_* up at call time."""
    assert run(["verify", trace_fixture, "--suite", "declared"]) == 0
    seen = []
    monkeypatch.setattr(cli, "cmd_verify", lambda args: seen.append(args.file) or 7)
    assert run(["verify", trace_fixture, "--suite", "declared"]) == 7
    assert seen == [trace_fixture]


# --- pinned front end ------------------------------------------------------------


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _call_digest(argv, capsys):
    """sha256 of "<exit code>\n<stdout>" of one in-process CLI call."""
    code = run(argv)
    return _sha256(f"{code}\n{capsys.readouterr().out}")


def _tree_digests(root):
    """sha256 of every file under root, keyed by its path relative to root."""
    out = {}
    for folder, _, names in os.walk(root):
        for name in names:
            path = os.path.join(folder, name)
            with open(path) as fh:
                out[os.path.relpath(path, root)] = _sha256(fh.read())
    return out


# `bilrank search MODE ... --out KEY.sub --json`, run in an empty working directory
PINNED_HUNT_ARGS = {
    "rank2-found": ["rank2-distinct-radicals", "--q", "3", "--n", "3", "--seed", "11", "--trials", "400"],
    "rank2-missed": ["rank2-distinct-radicals", "--q", "3", "--n", "3", "--seed", "1", "--trials", "3"],
    "rank2-over-budget": ["rank2-distinct-radicals", "--q", "3", "--n", "3", "--seed", "11", "--trials", "5",
                          "--budget", "5"],
    "alt-found": ["alt-spectrum", "--q", "3", "--n", "3", "--s", "1", "--seed", "2", "--trials", "5"],
    "alt-missed": ["alt-spectrum", "--q", "2", "--n", "5", "--s", "2", "--seed", "1", "--trials", "3"],
}
PINNED_HUNT_SHA256 = {
    "alt-found": "00912aa9d699cb03a9f714923192c2b5186b74f2347fe2a4f228574c0c081205",
    "alt-found.sub": "283e89443161c3a07252154e51402fa04b5d4fb79ebc4e75b91f1136ed7f893d",
    "alt-missed": "fdd97ecba9fb50aa3c92dde04ebd3a2d0672fc833076f7388680dc67f85f3309",
    "rank2-found": "043d9943145a68c9dc5929eab2e1bfb6c44e82b7371fb5c875a5e512e0d531cc",
    "rank2-found.sub": "9e8ae3f82f9c5dd742209355d05bdbb742297e78e2406d4f393283d47fe7eb76",
    "rank2-missed": "18cd9d02262aa646c3bc6b0bdd731f678ed37628563477ee1ea84d499aee562a",
    "rank2-over-budget": "0532ec0961140601d5c8d9fcd8cf2b8273dd6fad1ce976c1ba0aae5150330722",
}


def test_search_output_is_pinned(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    got = {key: _call_digest(["search", *args, "--out", key + ".sub", "--json"], capsys)
           for key, args in PINNED_HUNT_ARGS.items()}
    got.update(_tree_digests("."))
    assert got == PINNED_HUNT_SHA256


# `bilrank campaign ... --out KEY --json`, run in an empty working directory
PINNED_CAMPAIGN_ARGS = {
    "sampler": ["--q", "3,5", "--n", "3,4", "--trials", "30", "--seed", "7"],
    # the n = 2 point fails: block-symmetric needs r <= n/2
    "construction": ["--q", "3", "--n", "2,4", "--construction", "block-symmetric", "--r", "2",
                     "--trials", "1", "--seed", "3"],
}
PINNED_CAMPAIGN_SHA256 = {
    "construction": "ab8dea4383fff90b164856d39003524053cdcd4bf3f1df6664d6d045371ed3a2",
    "construction/q3-n2-block-symmetric.json": "6b822d110d50f70586123d23f75a888ef5678f5e0f774a6b5f9033cecaddebbe",
    "construction/q3-n4-block-symmetric.json": "3be6ec2ae1ff4a0daa4a7a45d2c1241ae5b58941ca5340d958bdcf1281ce5d0f",
    "construction/q3-n4-block-symmetric.sub": "11c02db2542c84670764ee76640592d39421ba32b4953f2b22e2f93aaa505c67",
    "construction/summary.json": "fb7f36367b076253e92e76103adf04aee5e919fdfaad3a7fbccaa44555ae7498",
    "sampler": "7568ebc49bbf4671d68582b8f40fa1884bf7114c3f7f84633d16a6aeec1f1979",
    "sampler/q3-n3-alternating.json": "2cecf2f24c8b7dcb68443daa7cf638b770a537f9d29fb3a2a369b072e39f3255",
    "sampler/q3-n3-general.json": "5db7d4a89e6f9a316f003b28614f4fe66056b2d6f57f9e1eee3ce9dc2528fc13",
    "sampler/q3-n3-symmetric.json": "cb526f452b739021d78d306f7360e364896462c3ff5e010e7de9813adb4b1111",
    "sampler/q3-n4-alternating.json": "699b68e81caab929d995213be1b4a29c2d10a53811856a2b068aed09d7f17bc7",
    "sampler/q3-n4-general.json": "5bd1bc1acd1add4f7d87ec6d0d12adcf7ba982b94633b458433d65405a8c352b",
    "sampler/q3-n4-symmetric.json": "4418d70cec0d395bfb7f6e758c0408432c42ac781656f2cde00ad0bae5a8e9ba",
    "sampler/q5-n3-alternating.json": "a3d0f47b3dabe42823720b65d9d758396eb62907d48abb93bfcc8bf74029b8ea",
    "sampler/q5-n3-general.json": "cf1a74d1d255297b564bc17b396485a69c4b50e8bee0811297acf0a609e722d1",
    "sampler/q5-n3-symmetric.json": "49f4e51ef9754052726d7430f7ea8e0a5bd36be46f4a2065c04b3bc557bd38a0",
    "sampler/q5-n4-alternating.json": "794157b4d4d4c195baf025f345522a9bbdf7ed2eb7ead318003a07d14d6580c4",
    "sampler/q5-n4-general.json": "ea4d5d6e7b77ff15d9eb8b7e030f94fded4f3d50a0a283ee5ee32fd85504f46a",
    "sampler/q5-n4-symmetric.json": "bd3b5d66af80458f8e03822c91c3139e33773c1a9368d3bdcafb94c732b5c2da",
    "sampler/summary.json": "bf20c0ac806e15ba8ab40df31e0fe867cfc92528c53d50195f0c9b700c2cf671",
}


def test_campaign_files_are_pinned(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    got = {key: _call_digest(["campaign", *args, "--out", key, "--json"], capsys)
           for key, args in PINNED_CAMPAIGN_ARGS.items()}
    got.update(_tree_digests("."))
    assert got == PINNED_CAMPAIGN_SHA256


# `bilrank construct --name NAME ... --out NAME.sub --json`, one member per catalogue name
PINNED_CONSTRUCT_ARGS = {
    "trace-symmetric": ["--q", "3", "--ext", "2", "--n", "3"],
    "block-symmetric": ["--q", "3", "--n", "4", "--r", "2"],
    "alt-pencil": ["--q", "5", "--n", "4"],
    "alt-full": ["--q", "2", "--n", "3"],
    "alt-odd": ["--q", "2", "--k", "3", "--ext", "2"],
    "column-family": ["--q", "3", "--ext", "2", "--m", "2", "--r", "1"],
}
PINNED_CONSTRUCT_SHA256 = {
    "alt-full": "13e131c11192dbe9035695a6ef189168a99acde53fd540edf66b07ed121378ab",
    "alt-full.sub": "ced96c4598d83270bc0e9e8d81880ed03c5d7665626e86aee58d61ff1f4bb162",
    "alt-odd": "1b9f8a94dc2828c6de5983b57c19333482085c5d5b9517922e163cdc43e415d2",
    "alt-odd.sub": "86c0e1cbf087cfe183220b8e37e4330d9088083cc12574b3c565c7a8c330e077",
    "alt-pencil": "80cfa20704edd51823463ec18ac8da9a16a6aeeec038af76b73d441c4c90f2e5",
    "alt-pencil.sub": "ca5cd19b15e13c3452c05cae5e51c56201bd57c48d6aeba77881bcdb973f37ff",
    "block-symmetric": "3a621cd899a71ee04f1a25f1fbaaf6830261ac8c044109a0a662659109e3b8f4",
    "block-symmetric.sub": "50ce9116a0be533a9c7f7beccaad98327cc8119aa524f77a7abb54d040f35c0d",
    "column-family": "be0f03aebe0a4c41c3df20561b99f6746be45dbfdf0b6bab41ba8f6384f18f00",
    "column-family.sub": "460282e6d2b9e6cc54fee2e7841a6d220f0a109857652fd22fefa7de0216f2f1",
    "trace-symmetric": "dd4be324d2306056bc5490d3518fc8a3aba9501f2604b8f7dfeac2819c9643a2",
    "trace-symmetric.sub": "0fa643a973111ff18b73cf5034f11045da49821373dc73cfe29faeaa6927552d",
}


def test_construct_output_is_pinned(tmp_path, monkeypatch, capsys):
    assert tuple(PINNED_CONSTRUCT_ARGS) == cons.CATALOGUE
    monkeypatch.chdir(tmp_path)
    got = {name: _call_digest(["construct", "--name", name, *args, "--out", name + ".sub", "--json"], capsys)
           for name, args in PINNED_CONSTRUCT_ARGS.items()}
    got.update(_tree_digests("."))
    assert got == PINNED_CONSTRUCT_SHA256
