"""CLI contract: files, exit codes, reproducibility, seeds."""

import glob
import hashlib
import json
import os
import subprocess
import sys

import pytest

from bilrank import cli, fileio
from bilrank import constructions as cons
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
    ],
    ids=["top-level", "field", "basis", "basis-entry"],
)
def test_wrong_json_shape_exit_2(tmp_path, capsys, fields, message):
    obj = [] if fields is None else dict(read_json(_one_form_file(tmp_path / "ok.json")), **fields)
    path = tmp_path / "bad.json"
    path.write_text(fileio.dumps(obj))
    assert run(["analyze", str(path)]) == 2
    assert message in capsys.readouterr().err


def _one_form_file(path, n=2, entry=0, p=3):
    obj = {
        "format": "bilrank-subspace",
        "version": 1,
        "field": {"p": p, "k": 1, "modulus": [0, 1]},
        "n": n,
        "basis": [{"n": 2, "rows": [[1, entry], [0, 1]]}],
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
    ],
    ids=["float-entry", "bool-entry", "float-n", "float-p"],
)
def test_non_integer_values_are_rejected(tmp_path, capsys, fields, message):
    path = _one_form_file(tmp_path / "m.json", **fields)
    assert run(["analyze", path]) == 2
    assert message in capsys.readouterr().err
    # the same file with integers reads fine
    assert run(["analyze", _one_form_file(tmp_path / "ok.json")]) == 0


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


@pytest.mark.parametrize("n", ["0", "-1"])
def test_campaign_rejects_dimension_below_one(tmp_path, n):
    # in a subprocess with a timeout: --n 0 once looped forever looking for the largest d
    out = tmp_path / "c"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "bilrank.cli", "campaign", "--q", "3", "--n", n,
         "--trials", "1", "--seed", "1", "--out", str(out)],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: --q/--n: ") and ">= 1" in proc.stderr
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
