"""Shared fixtures: the construction catalogue used across the suite."""

from __future__ import annotations

import pytest

from bilrank import constructions as cons
from bilrank.spanspace import rank_spectrum


def catalogue_requests(qs=(2, 3, 4, 5), nmax=6):
    """Every catalogue instance at desk scale for the given field orders."""
    out = []
    for q in qs:
        for n in range(3, nmax + 1):
            out.append(cons.ConstructionRequest("alt-pencil", {"q": q, "n": n}))
            out.append(cons.ConstructionRequest("block-symmetric", {"q": q, "n": n, "r": 1}))
        out.append(cons.ConstructionRequest("alt-full", {"q": q, "n": 3}))
        out.append(cons.ConstructionRequest("block-symmetric", {"q": q, "n": 4, "r": 2}))
        out.append(cons.ConstructionRequest("alt-odd", {"q": q, "k": 3}))
        for m in (2, 3):
            if q**m <= 256:
                out.append(cons.ConstructionRequest("trace-symmetric", {"q": q, "ext": m, "n": m + 1}))
        out.append(cons.ConstructionRequest("column-family", {"q": q, "m": 2, "r": 1}))
        out.append(cons.ConstructionRequest("column-family", {"q": q, "m": 3, "r": 1, "ext": 2}))
        out.append(cons.ConstructionRequest("column-family", {"q": q, "m": 2, "r": 2}))
    out.append(cons.ConstructionRequest("alt-odd", {"q": 2, "k": 3, "ext": 2}))
    out.append(cons.ConstructionRequest("column-family", {"q": 2, "m": 2, "r": 2, "ext": 2}))
    return out


@pytest.fixture(scope="session")
def catalogue():
    """(request, subspace, declared) for the whole desk-scale catalogue."""
    built = []
    for req in catalogue_requests():
        M, declared = cons.build(req)
        built.append((req, M, declared))
    return built


@pytest.fixture(scope="session")
def constant_rank_catalogue(catalogue):
    return [
        (req, M, declared)
        for req, M, declared in catalogue
        if rank_spectrum(M).is_constant_rank
    ]
