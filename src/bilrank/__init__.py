"""Rank spectra, radicals and spreads for subspaces of bilinear forms
over small finite fields, with exhaustive theorem verification."""

from .formcore import GramForm, Subspace, evaluate, left_radical, rank, right_radical
from .gf import Field, FieldSpec, Tower, field_for_order, make_field, make_tower
from .spanspace import (
    BudgetExceeded,
    FormSubspace,
    RankSpectrum,
    enumerate_nonzero,
    isotropic_set,
    kernel_at,
    radical_spread,
    random_subspace,
    rank_spectrum,
    span,
)

__all__ = [
    "BudgetExceeded",
    "Field",
    "FieldSpec",
    "FormSubspace",
    "GramForm",
    "RankSpectrum",
    "Subspace",
    "Tower",
    "enumerate_nonzero",
    "evaluate",
    "field_for_order",
    "isotropic_set",
    "kernel_at",
    "left_radical",
    "make_field",
    "make_tower",
    "radical_spread",
    "random_subspace",
    "rank",
    "rank_spectrum",
    "right_radical",
    "span",
]

__version__ = "0.1.0"
