"""Exact verification toolkit for binomial-sum and harmonic-number identities.

The package is layered bottom-up:

``exact``
    The exact-arithmetic errors, and the gcd of two integer polynomials
    that ``hforge eval`` uses to print a value in lowest terms.
``bivar``
    Dense bivariate polynomials in (x, s), unreduced bivariate
    fractions compared by cross-multiplication, and a factored-
    denominator accumulator for building large sums cheaply.
``special``
    Harmonic numbers, integer binomial coefficients, and the memoized
    factored-fraction builders for shifted binomials and for digamma
    differences realized as finite sums.
``dsl``
    A small expression language for stating identities: a span-carrying
    parser, static checks, one compiled form per checked tree that takes
    its arithmetic as an argument, and the exact arithmetic for it.
``catalog``
    The identity catalog, each side stated in the expression language
    (parsed on first evaluation), plus the verification engine, which
    imports its process pool when it first starts one.
``oracle``
    Numeric verification of the catalog's statements on arithmetic of
    its own: deterministic grid sampling with degree-bound certificates
    and integer-point evaluation.
``cli``
    The ``hforge`` command line front end.

Importing the package loads neither ``dsl``, ``oracle`` nor
``multiprocessing``; each is loaded on first use, ``dsl`` also by
reading an entry's ``domain``, which is derived from its statements.
"""

from .bivar import BiFrac, BiPoly, FactoredFrac, bifrac_eq, cross_difference, ffsum
from .catalog import (
    IdentityEntry,
    ParamSpec,
    eval_side,
    lookup,
    tags,
    verify,
    verify_all,
)
from .exact import ExactArithError, PoleError, ZeroDenominatorError, poly_gcd
from .report import Report, ReportRow, Witness, make_witness
from .special import binom_int, binom_neg3half, clear_memos, harmonic, harmonic_gen

__version__ = "0.1.0"

__all__ = [
    "BiFrac",
    "BiPoly",
    "ExactArithError",
    "FactoredFrac",
    "IdentityEntry",
    "ParamSpec",
    "PoleError",
    "Report",
    "ReportRow",
    "Witness",
    "ZeroDenominatorError",
    "bifrac_eq",
    "binom_int",
    "binom_neg3half",
    "clear_memos",
    "cross_difference",
    "eval_side",
    "ffsum",
    "harmonic",
    "harmonic_gen",
    "lookup",
    "make_witness",
    "poly_gcd",
    "tags",
    "verify",
    "verify_all",
    "__version__",
]
