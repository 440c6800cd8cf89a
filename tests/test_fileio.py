"""The report writer against json, which shares no code with it.

`fileio.dumps` promises the bytes of `json.dumps(obj, indent=2,
sort_keys=True) + "\\n"` and json's errors.  The oracle below is that
call; the documents the CLI writes are compared in test_cli.py.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bilrank import fileio


def oracle(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def outcome(write, obj):
    """The text written, or the type and message of the error raised."""
    try:
        return write(obj)
    except Exception as exc:  # the comparison is the point: any error json raises, dumps must raise
        return type(exc), str(exc)


leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(2**80), max_value=2**80),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 1e300, -1e-300, float("nan"), float("inf"), -float("inf")]),
    st.text(),  # non-ASCII, surrogates and control characters included
    st.sampled_from(["", "\x00\x1f\x7f", "é☃\U0001f600", '"\\/\b\f\n\r\t']),
)


def containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(st.text(max_size=4), children, max_size=4),
        st.dictionaries(st.integers(), children, max_size=4),  # int keys sort numerically: {10: ..., 9: ...}
        st.dictionaries(st.sampled_from([True, False, None, 0.5, -0.0]), children, max_size=1),
        # the shape of a report's hypothesis entry, which dumps writes from a template
        st.fixed_dictionaries({
            "name": st.text(max_size=6),
            "required": st.text(max_size=6),
            "actual": st.one_of(st.text(max_size=6), st.integers()),
            "satisfied": st.one_of(st.booleans(), st.none(), st.integers(0, 1)),
        }),
    )


trees = st.recursive(leaves, containers, max_leaves=40)


@settings(max_examples=400, deadline=None)
@given(trees)
def test_dumps_matches_json_on_generated_trees(obj):
    assert fileio.dumps(obj) == oracle(obj)


@pytest.mark.parametrize(
    "obj",
    [
        {},
        [],
        (),
        [[], {}, [[]], {"a": {}}],
        {10: "ten", 9: "nine", -1: "minus one"},
        {"b": [True, False, None], "a": (1, -0.0, 1e300)},
        {"nan": float("nan"), "inf": [float("inf"), -float("inf")]},
        {"é": "\x00\n☃", "\U0001f600": "\ud800"},
        {"name": "n", "required": "r", "actual": "a", "satisfied": True},
        {"name": "n", "required": "r", "actual": 3, "satisfied": True},
        {"name": "n", "required": "r", "actual": "a", "satisfied": 1},
        {"name": "n", "required": "r", "actual": "a", "satisfied": False, "extra": 0},
        {2.5: 0, True: 1, 0: 2},  # float, bool and int keys sort together
        [{True: "t"}, {False: "f"}, {None: "n"}, {-0.0: "z"}, {float("nan"): "nan"}],
        np.float64(0.1),
        [np.float64(2.5), float("inf")],
        "top-level string",
        7,
        None,
    ],
)
def test_dumps_matches_json_on_edge_cases(obj):
    assert fileio.dumps(obj) == oracle(obj)


def _circular():
    loop = []
    loop.append(loop)
    return loop


@pytest.mark.parametrize(
    "obj",
    [
        np.int64(3),
        {"a": [1, np.int64(3)]},
        [np.arange(3)],
        {1: "one", "a": "letter"},
        {"deep": [{"x": 1, 2: "y"}]},
        {None: 1, 1: 2},
        {(1, 2): "tuple key"},
        [{1, 2}],
        {"f": object()},
        _circular(),
    ],
    ids=["int64-top", "int64-leaf", "ndarray", "mixed-keys", "mixed-keys-deep", "none-and-int-keys",
         "tuple-key", "set", "object", "circular"],
)
def test_dumps_raises_what_json_raises(obj):
    want = outcome(oracle, obj)
    assert isinstance(want, tuple)  # json refuses every one of these
    assert outcome(fileio.dumps, obj) == want
