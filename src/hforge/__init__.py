"""Exact verification toolkit for binomial-sum and harmonic-number identities.

The package is layered bottom-up:

``exact``
    Rational numbers, dense univariate polynomials in s, and reduced
    rational functions with polynomial gcd.
``bivar``
    Sparse bivariate polynomials in (x, s), unreduced bivariate
    fractions compared by cross-multiplication, and a factored-
    denominator accumulator for building large sums cheaply.
``special``
    Harmonic numbers, binomial coefficients (integer and shifted-
    symbolic), and digamma differences realized as finite sums, with
    factored-fraction builders for the symbolic ones.
``dsl``
    A small expression language for stating identities, with a
    span-carrying parser, static checks, and an exact evaluator.
``catalog``
    The identity catalog, each side stated in the expression language
    (parsed on first evaluation, so importing the package does not import
    ``dsl``), plus the verification engine.
``oracle``
    Independent numeric verification: deterministic grid sampling with
    degree-bound certificates and integer-point direct summation.
``cli``
    The ``hforge`` command line front end.
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
from .exact import (
    ExactArithError,
    Poly,
    PoleError,
    RatFunc,
    Rational,
    ZeroDenominatorError,
    poly_gcd,
    poly_lcm,
)
from .report import Report, ReportRow, Witness, make_witness
from .special import (
    binom_int,
    binom_neg3half,
    binom_shift,
    harmonic,
    harmonic_gen,
    memoization_enabled,
    psi1_diff,
    psi_diff,
    set_memoization,
)

__version__ = "0.1.0"

__all__ = [
    "BiFrac",
    "BiPoly",
    "ExactArithError",
    "FactoredFrac",
    "IdentityEntry",
    "ParamSpec",
    "Poly",
    "PoleError",
    "RatFunc",
    "Rational",
    "Report",
    "ReportRow",
    "Witness",
    "ZeroDenominatorError",
    "bifrac_eq",
    "binom_int",
    "binom_neg3half",
    "binom_shift",
    "cross_difference",
    "eval_side",
    "ffsum",
    "harmonic",
    "harmonic_gen",
    "lookup",
    "make_witness",
    "memoization_enabled",
    "poly_gcd",
    "poly_lcm",
    "psi1_diff",
    "psi_diff",
    "set_memoization",
    "tags",
    "verify",
    "verify_all",
    "__version__",
]
