"""Self-describing, diffable JSON files for subspaces and reports.

One text format serves fields, subspaces and verification reports:
JSON with sorted keys and two-space indentation, so identical inputs
produce identical bytes.  Subspace files store the canonical echelon
basis, which makes write-read-write a fixed point.  Element literals
are the integer codes defined by the field encoding, and only JSON
integers are read as codes or sizes: a float or a bool is an error,
never truncated.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

from .formcore import GramForm
from .gf import Field, FieldSpec, make_field
from .spanspace import FormSubspace

FORMAT_SUBSPACE = "bilrank-subspace"
FORMAT_REPORT = "bilrank-report"
VERSION = 1


def dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def field_to_json(field: Field) -> dict:
    return {"p": field.p, "k": field.k, "modulus": list(field.spec.modulus)}


def _int(value, what: str) -> int:
    if type(value) is not int:  # a JSON true is an int to Python, but no code or size
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object, not {type(value).__name__}")
    return value


def _codes(value, what: str):
    """Nested lists of element codes, every leaf a JSON integer."""
    if not isinstance(value, list):
        return _int(value, what)
    for i, v in enumerate(value):
        if type(v) is not int:  # name only what is not a plain code: the rows, or the bad entry
            _codes(v, f"{what}[{i}]")
    return value


def field_from_json(obj) -> Field:
    _object(obj, "the field section")
    for key in ("p", "k", "modulus"):
        if key not in obj:
            raise ValueError(f"field section is missing {key!r}")
    if not isinstance(obj["modulus"], list):
        raise ValueError(f"field modulus must be a list of coefficients, got {obj['modulus']!r}")
    modulus = tuple(_int(c, f"field modulus[{i}]") for i, c in enumerate(obj["modulus"]))
    return make_field(FieldSpec(_int(obj["p"], "field p"), _int(obj["k"], "field k"), modulus))


def gram_to_json(f: GramForm) -> dict:
    return {"n": f.n, "rows": [[int(v) for v in row] for row in f.entries]}


@dataclass
class SubspaceFile:
    """A parsed subspace file: the space plus whatever it declared."""

    subspace: FormSubspace
    declared: Optional[dict]
    self_verification: Optional[dict]


def subspace_to_json(
    M: FormSubspace,
    declared: Optional[dict] = None,
    self_verification: Optional[dict] = None,
) -> dict:
    canon = M.canonical()
    obj = {
        "format": FORMAT_SUBSPACE,
        "version": VERSION,
        "field": field_to_json(M.field),
        "n": M.n,
        "kind": canon.kind,
        "basis": [gram_to_json(f) for f in canon.basis],
    }
    if declared is not None:
        obj["declared"] = declared
    if self_verification is not None:
        obj["self_verification"] = self_verification
    return obj


def write_subspace(path, M: FormSubspace, declared=None, self_verification=None) -> None:
    with open(path, "w") as fh:
        fh.write(dumps(subspace_to_json(M, declared, self_verification)))


def subspace_from_json(obj) -> SubspaceFile:
    _object(obj, "the top level")
    if obj.get("format") != FORMAT_SUBSPACE:
        raise ValueError(f"not a subspace file (format = {obj.get('format')!r})")
    for key in ("field", "n", "basis"):
        if key not in obj:
            raise ValueError(f"subspace file is missing {key!r}")
    field = field_from_json(obj["field"])
    n = _int(obj["n"], "n")
    if not isinstance(obj["basis"], list):
        raise ValueError(f"basis must be a list of forms, not {type(obj['basis']).__name__}")
    forms = []
    for i, g in enumerate(obj["basis"]):
        if "rows" not in _object(g, f"basis entry {i}"):
            raise ValueError(f"basis entry {i} is missing 'rows'")
        try:
            forms.append(GramForm(field, _codes(g["rows"], "rows")))
        except ValueError as exc:
            raise ValueError(f"basis entry {i}: {exc}") from exc
    M = FormSubspace(field, n, forms)  # raises naming any dependent row
    declared_kind = obj.get("kind")
    if declared_kind is not None and declared_kind != M.kind:
        raise ValueError(f"file says kind {declared_kind!r} but the basis is {M.kind!r}")
    return SubspaceFile(M, obj.get("declared"), obj.get("self_verification"))


def read_subspace(path) -> SubspaceFile:
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    try:
        return subspace_from_json(obj)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def reports_to_json(reports) -> dict:
    return {
        "format": FORMAT_REPORT,
        "version": VERSION,
        "reports": [r.to_json() for r in reports],
    }
