"""Exact arithmetic and linear algebra substrate: Z, Z/p^N, GF(p^f)."""

from .gf import GF, Zq, gf_rref, power
from .integers import hermite, smith_diagonal
from .modules import (
    ZZ,
    FinComplex,
    FinModPresentation,
    InvariantFactors,
    NonComplex,
    SubQuot,
    ZZRing,
    homology,
    homology_subquot,
    identity,
    kernel,
    mat_mul,
    member,
    negate,
    normal_form,
    preimage,
    quotient_invariants,
)
from .zmodp import ZmodRing, howell, pivot_orders, reduce_with_coefficients

__all__ = [
    "GF",
    "Zq",
    "ZZ",
    "ZZRing",
    "ZmodRing",
    "FinComplex",
    "FinModPresentation",
    "InvariantFactors",
    "NonComplex",
    "SubQuot",
    "gf_rref",
    "hermite",
    "homology",
    "homology_subquot",
    "howell",
    "identity",
    "kernel",
    "mat_mul",
    "member",
    "negate",
    "normal_form",
    "pivot_orders",
    "power",
    "preimage",
    "quotient_invariants",
    "reduce_with_coefficients",
    "smith_diagonal",
]
