"""Self-describing, diffable JSON files for subspaces and reports.

One text format serves fields, subspaces and verification reports:
JSON with sorted keys and two-space indentation, so identical inputs
produce identical bytes.  Subspace files store the canonical echelon
basis, which makes write-read-write a fixed point.  Element literals
are the integer codes defined by the field encoding, and only JSON
integers are read as codes or sizes: a float or a bool is an error,
never truncated.  The declared claims the checkers read are held to
their types the same way: `declared` is an object, `dim` and `spread_t`
integers, `spectrum` a list of them, `kind` a string, `maximal` a bool.

`dumps` writes that text directly, without the pure-Python encoder
`json` falls back to whenever it indents.  Its contract is the bytes of
`json.dumps(obj, indent=2, sort_keys=True) + "\n"`, errors included:
strings go through json's own ASCII escaper, ints through
`int.__repr__`, keys are sorted as json sorts them (by the original
key, then converted), and floats and any other type are handed to
`json.dumps`, so NaN, Infinity and the TypeError for an unknown type
are json's.  A hypothesis entry of a report, the one four-key dict
every report repeats, is written from one template.
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


_quote = json.encoder.encode_basestring_ascii
_int_text = int.__repr__
_HYPOTHESIS_KEYS = frozenset(("name", "required", "actual", "satisfied"))
_HYPOTHESIS = '{%s"actual": %s,%s"name": %s,%s"required": %s,%s"satisfied": %s%s}'


def dumps(obj) -> str:
    """`json.dumps(obj, indent=2, sort_keys=True) + "\\n"`, byte for byte."""
    out: list[str] = []
    try:
        _write(obj, "\n", out)
    except RecursionError:  # a circular or very deep object: json's own error, or json's own bytes
        return json.dumps(obj, indent=2, sort_keys=True) + "\n"
    out.append("\n")
    return "".join(out)


def _key(key) -> str:
    """A dict key as json converts it, before quoting."""
    if isinstance(key, str):
        return key
    if isinstance(key, float) or key is True or key is False or key is None:
        return json.dumps(key)
    if isinstance(key, int):
        return _int_text(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def _write(o, nl: str, out: list) -> None:
    """Append the text of o to out, testing types in json's order; nl is a newline and o's indentation.

    Containers write their str and int items inline and recurse for the rest.
    """
    if isinstance(o, str):
        out.append(_quote(o))
    elif o is None:
        out.append("null")
    elif o is True:
        out.append("true")
    elif o is False:
        out.append("false")
    elif isinstance(o, int):
        out.append(_int_text(o))
    elif isinstance(o, (list, tuple)):
        if not o:
            out.append("[]")
            return
        inner = nl + "  "
        sep = "[" + inner
        for value in o:
            out.append(sep)
            t = type(value)
            if t is int:
                out.append(_int_text(value))
            elif t is str:
                out.append(_quote(value))
            else:
                _write(value, inner, out)
            sep = "," + inner
        out.append(nl + "]")
    elif isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        inner = nl + "  "
        if type(o) is dict and len(o) == 4 and o.keys() == _HYPOTHESIS_KEYS:
            a, n, r, s = o["actual"], o["name"], o["required"], o["satisfied"]
            if type(a) is str and type(n) is str and type(r) is str and (s is True or s is False):
                out.append(_HYPOTHESIS % (inner, _quote(a), inner, _quote(n), inner, _quote(r), inner,
                                          "true" if s else "false", nl))
                return
        sep = "{" + inner
        for key, value in sorted(o.items()):
            out.append(sep + _quote(key if type(key) is str else _key(key)) + ": ")
            t = type(value)
            if t is str:
                out.append(_quote(value))
            elif t is int:
                out.append(_int_text(value))
            else:
                _write(value, inner, out)
            sep = "," + inner
        out.append(nl + "}")
    else:  # a float as json writes it; any other type raises json's TypeError
        out.append(json.dumps(o))


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
    obj = {
        "format": FORMAT_SUBSPACE,
        "version": VERSION,
        "field": field_to_json(M.field),
        "n": M.n,
        "kind": M.kind,  # a property of the space, so the kind of the canonical basis too
        "basis": [{"n": M.n, "rows": g.tolist()} for g in M.canonical_rows().reshape(-1, M.n, M.n)],
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
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not isinstance(obj["basis"], list):
        raise ValueError(f"basis must be a list of forms, not {type(obj['basis']).__name__}")
    forms = []
    for i, g in enumerate(obj["basis"]):
        if "rows" not in _object(g, f"basis entry {i}"):
            raise ValueError(f"basis entry {i} is missing 'rows'")
        try:
            if "n" in g and _int(g["n"], "n") != n:  # the writer puts the matrix size here
                raise ValueError(f"n is {g['n']}, but the file's n is {n}")
            forms.append(GramForm(field, _codes(g["rows"], "rows")).entries)
        except ValueError as exc:
            raise ValueError(f"basis entry {i}: {exc}") from exc
        if len(forms[-1]) != n:
            raise ValueError(f"basis entry {i} lives on a different space")
    M = FormSubspace(field, n, forms)  # raises naming any dependent row
    declared_kind = obj.get("kind")
    if declared_kind is not None and declared_kind != M.kind:
        raise ValueError(f"file says kind {declared_kind!r} but the basis is {M.kind!r}")
    return SubspaceFile(M, _declared(obj.get("declared")), obj.get("self_verification"))


def _declared(value) -> Optional[dict]:
    """The declared claims, with every field the checkers read of the JSON type they read it as."""
    if value is None:
        return None
    _object(value, "declared")
    for key in ("dim", "spread_t", "distinct_radicals"):
        if key in value:
            _int(value[key], f"declared {key}")
    spectrum = value.get("spectrum", [])
    if not isinstance(spectrum, list):
        raise ValueError(f"declared spectrum must be a list of ranks, got {spectrum!r}")
    for i, r in enumerate(spectrum):
        _int(r, f"declared spectrum[{i}]")
    if "kind" in value and not isinstance(value["kind"], str):
        raise ValueError(f"declared kind must be a string, got {value['kind']!r}")
    if "maximal" in value and not isinstance(value["maximal"], bool):
        raise ValueError(f"declared maximal must be true or false, got {value['maximal']!r}")
    return value


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
