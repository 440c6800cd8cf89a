"""The explicit subspace families used as examples and optimality witnesses.

Each constructor returns a FormSubspace together with nothing hidden:
claims about dimension, spectrum or spread structure live in the
declared-claims dict of `build`, which the file writer persists and the
verification suite re-derives from scratch.  `build` looks the name up
in the one `_BUILDERS` table, whose builders return the subspace and
its claims, and adds the name, parameters, dimension and kind.

Trace forms have one rule: `_trace_forms` reads Tr(a_s * values) off the
tower's trace table for a whole array of L-codes, `trace_compress` is the
one place an L-form becomes K-forms, and `_over_extension` applies it.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Optional

import numpy as np

from .gf import Field, Tower, field_for_order, make_tower
from .spanspace import (
    KIND_ALTERNATING,
    FormSubspace,
    full_kind_space,
    radical_spread,
    rank_spectrum,
)


class ConstructionError(RuntimeError):
    """A constructor's self-verification failed; the result is rejected."""


@dataclass(frozen=True)
class ConstructionRequest:
    name: str
    params: dict = dc_field(default_factory=dict)


def _trace_forms(tower: Tower, a, values):
    """The K-forms Tr(a_s * values), one per a_s: an (..., len(a), N, N) stack for an (..., N, N) stack of L-codes."""
    return tower.trace_arr(tower.top.mul_arr(np.reshape(a, (-1, 1, 1)), np.expand_dims(values, -3)))


def symmetric_trace(K: Field, m: int) -> FormSubspace:
    """The trace family f_z(x, y) = Tr(z * x * y) on L = GF(q^m) over K: `trace_compress` of <xy> on L^1.

    L is identified with K^m through the power basis of the canonical
    top-field generator; the returned basis is {f_b} for b running over
    that same power basis.  Every nonzero member has full rank m.
    """
    if m < 2:
        raise ValueError("the trace family needs extension degree m >= 2")
    tower = make_tower(K, m)
    return trace_compress(FormSubspace(tower.top, 1, [[[1]]]), tower)


def embed_with_radical(N: FormSubspace, n: int) -> FormSubspace:
    """Extend forms on U (dim m) by zero to V (dim n), radical gaining W.

    W is the fixed complement spanned by the last n - m coordinates; it
    lands in the radical of every nonzero element, and spectra are
    untouched.
    """
    if n < N.n:
        raise ValueError(f"target dimension {n} is smaller than the source {N.n}")
    if n == N.n:
        return N
    forms = np.zeros((N.dim, n, n), dtype=np.int64)
    forms[:, : N.n, : N.n] = N.basis_flat().reshape(-1, N.n, N.n)
    return FormSubspace(N.field, n, forms)


def block_symmetric(field: Field, n: int, r: int) -> FormSubspace:
    """All symmetric matrices [[0, A], [A^T, 0]] with A of size r x (n - r).

    Dimension r(n - r); the ranks are exactly {2s : 1 <= s <= r}.
    """
    if not 1 <= r <= n // 2:
        raise ValueError(f"need 1 <= r <= n/2, got r={r}, n={n}")
    i, j = np.divmod(np.arange(r * (n - r)), n - r)
    forms = np.zeros((len(i), n, n), dtype=np.int64)
    forms[np.arange(len(i)), i, r + j] = 1
    forms[np.arange(len(i)), r + j, i] = 1
    return FormSubspace(field, n, forms)


def alternating_pencil(field: Field, n: int) -> FormSubspace:
    """span of f_i(x, y) = x_1 y_i - x_i y_1 for i = 2..n: constant rank 2."""
    if n < 2:
        raise ValueError("the pencil needs n >= 2")
    i = np.arange(1, n)
    forms = np.zeros((n - 1, n, n), dtype=np.int64)
    forms[i - 1, 0, i] = 1
    forms[i - 1, i, 0] = field.neg(1)
    return FormSubspace(field, n, forms)


def alternating_odd_full(k: int, field: Field, budget: Optional[int] = None) -> FormSubspace:
    """Candidate k-dimensional constant rank k-1 subspace of Alt on GF(q)^k.

    Realised on L = GF(q^k) as f_a(x, y) = Tr(a (x y^q - x^q y)).  The
    formula is never trusted: dimension, spectrum and the all-lines
    spread are verified by enumeration here, and a failure rejects the
    construction.
    """
    if k <= 1 or k % 2 == 0:
        raise ValueError(f"k must be odd and > 1, got {k}")
    q = field.q
    tower = make_tower(field, k)
    top, b = tower.top, np.array(tower.power_basis())
    xy_q = top.mul_arr(b[:, None], [top.pow(x, q) for x in b])  # b_i b_j^q, and b_i^q b_j is its transpose
    forms = _trace_forms(tower, b, top.sub_arr(xy_q, xy_q.T))
    try:
        M = FormSubspace(field, k, forms)
    except ValueError as exc:
        raise ConstructionError(f"odd alternating candidate (k={k}, q={q}): {exc}") from exc
    if M.kind != KIND_ALTERNATING:
        raise ConstructionError(
            f"odd alternating candidate (k={k}, q={q}) produced kind {M.kind}"
        )
    spec = rank_spectrum(M, budget)
    if spec.ranks != (k - 1,):
        raise ConstructionError(
            f"odd alternating candidate (k={k}, q={q}) has spectrum {spec.ranks}, "
            f"expected ({k - 1},)"
        )
    spread = radical_spread(M, budget)
    expected_t = (q**k - 1) // (q - 1)
    if not (spread.t == expected_t and spread.covers and spread.pairwise_trivial):
        raise ConstructionError(
            f"odd alternating candidate (k={k}, q={q}) fails the spread census: "
            f"t={spread.t} (expected {expected_t}), covers={spread.covers}, "
            f"pairwise_trivial={spread.pairwise_trivial}"
        )
    return M


def trace_compress(M: FormSubspace, tower: Tower) -> FormSubspace:
    """Push a subspace over L = GF(q^t) down to GF(q) via the trace map.

    V becomes a q-linear space of dimension n*t (slot i of V pairs with
    the t power-basis coordinates), each element's rank multiplies by t,
    and the compressed basis {Tr(lam_a * f)} is checked for independence.
    """
    if tower.t < 2:
        raise ValueError("trace compression needs a tower of degree >= 2")
    if M.field != tower.top:
        raise ValueError("subspace must live over the tower's top field")
    top, lam, n_k = tower.top, np.array(tower.power_basis()), M.n * tower.t
    # form f at (i t + b, j t + c) takes lam_b lam_c g_f[i, j], and then one trace form per lam_a
    values = top.mul_arr(M.basis_flat().reshape(-1, M.n, 1, M.n, 1), top.mul_arr(lam[:, None, None], lam))
    return FormSubspace(tower.base, n_k, _trace_forms(tower, lam, values.reshape(-1, n_k, n_k)).reshape(-1, n_k, n_k))


def bilinear_column_family(L: Field, m: int, r: int) -> FormSubspace:
    """All m x m matrices over L whose last m - r columns vanish.

    Dimension rm over L; nonzero elements have rank 1..r.
    """
    if not 1 <= r <= m:
        raise ValueError(f"need 1 <= r <= m, got r={r}, m={m}")
    i, j = np.divmod(np.arange(m * r), r)
    forms = np.zeros((m * r, m, m), dtype=np.int64)
    forms[np.arange(m * r), i, j] = 1
    return FormSubspace(L, m, forms)


# ---------------------------------------------------------------------------
# Catalogue dispatch


def _param(params: dict, name: str, default: Optional[int] = None) -> int:
    """A construction parameter; only an absent one takes the default, and a given one must be >= 1."""
    value = params.get(name)
    if value is None:
        if default is None:
            raise ValueError(f"construction parameter --{name} is required here")
        return default
    if int(value) < 1:
        raise ValueError(f"construction parameter --{name} must be >= 1, got {value}")
    return int(value)


def _require(params: dict, *names: str) -> list[int]:
    return [_param(params, name) for name in names]


def _trace_symmetric(p: dict, budget):
    q, m = _require(p, "q", "ext")
    n = _param(p, "n", m)
    M = embed_with_radical(symmetric_trace(field_for_order(q), m), n)
    return M, {"spectrum": [m], "maximal": bool(q >= m + 1 and m <= n)}


def _block_symmetric(p: dict, budget):
    q, n, r = _require(p, "q", "n", "r")
    return block_symmetric(field_for_order(q), n, r), {"spectrum": [2 * s for s in range(1, r + 1)]}


def _alt_pencil(p: dict, budget):
    q, n = _require(p, "q", "n")
    return alternating_pencil(field_for_order(q), n), {"spectrum": [2]}


def _alt_full(p: dict, budget):
    q, n = _require(p, "q", "n")
    M = full_kind_space(field_for_order(q), n, KIND_ALTERNATING)
    return M, {"spectrum": [2 * s for s in range(1, n // 2 + 1)]}


def _over_extension(q: int, t: int, make) -> FormSubspace:
    """make(GF(q^t)), pushed down to GF(q) by `trace_compress` when t >= 2."""
    M = make(field_for_order(q**t))
    return trace_compress(M, make_tower(field_for_order(q), t)) if t >= 2 else M


def _alt_odd(p: dict, budget):
    q, k = _require(p, "q", "k")
    t = _param(p, "ext", 1)
    M = _over_extension(q, t, lambda L: alternating_odd_full(k, L, budget))
    return M, {"spectrum": [(k - 1) * t], "spread_t": (q ** (k * t) - 1) // (q**t - 1)}


def _column_family(p: dict, budget):
    q, m, r = _require(p, "q", "m", "r")
    s = _param(p, "ext", 1)
    M = _over_extension(q, s, lambda L: bilinear_column_family(L, m, r))
    return M, {"spectrum": [u * s for u in range(1, r + 1)]}


_BUILDERS = {
    "trace-symmetric": _trace_symmetric,
    "block-symmetric": _block_symmetric,
    "alt-pencil": _alt_pencil,
    "alt-full": _alt_full,
    "alt-odd": _alt_odd,
    "column-family": _column_family,
}
CATALOGUE = tuple(_BUILDERS)


def build(request: ConstructionRequest, budget: Optional[int] = None) -> tuple[FormSubspace, dict]:
    """Materialise a named construction and the claims it is sold with.

    Returns (subspace, declared) where `declared` holds the
    theory-level expectations (dimension, kind, spectrum, spread size,
    maximality) for downstream re-verification.  The declared dimension
    is the size of the built basis, which FormSubspace has checked to
    be independent.
    """
    if request.name not in _BUILDERS:
        raise ValueError(f"unknown construction {request.name!r}")
    M, claims = _BUILDERS[request.name](request.params, budget)
    params = {k: v for k, v in sorted(request.params.items()) if v is not None}
    return M, {"construction": request.name, "params": params, "dim": M.dim, "kind": M.kind, **claims}
