"""Exact-arithmetic errors and the integer polynomial gcd.

The errors are raised by every exact layer above.  ``poly_gcd`` is the gcd
of two univariate polynomials with integer coefficients; ``hforge eval``
uses it to print an x-free value in lowest terms.  Verification never
takes a gcd: it compares fractions by cross-multiplication (see
``hforge.bivar``).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence


class ExactArithError(ArithmeticError):
    """Base class for exact-arithmetic failures."""


class ZeroDenominatorError(ExactArithError):
    """A fraction was constructed with an identically zero denominator."""


class PoleError(ExactArithError):
    """A rational function was evaluated at one of its poles."""

    def __init__(self, point: Fraction, var: str = "s"):
        super().__init__(f"evaluation at pole {var} = {point}")
        self.point = point
        self.var = var


def _primitive(u: Sequence[int]) -> list[int]:
    """``u`` without trailing zeros, divided by the gcd of its entries and
    signed so that its leading coefficient is positive."""
    u = list(u)
    while u and not u[-1]:
        u.pop()
    g = math.gcd(*u)
    if u and u[-1] < 0:
        g = -g
    return [c // g for c in u]


def _pseudo_rem(a: list[int], b: list[int]) -> list[int]:
    """Pseudo-remainder: a scalar multiple of ``a mod b`` over the integers.

    Scales by lc(b) only on steps that eliminate a nonzero coefficient, which
    keeps intermediate sizes down; the result differs from the true remainder
    by an integer unit times a power of lc(b), which the primitive reduction
    in the caller discards anyway.
    """
    db = len(b) - 1
    lead = b[-1]
    rem = list(a)
    for i in range(len(a) - 1 - db, -1, -1):
        c = rem[i + db]
        if c:
            for j in range(len(rem)):
                rem[j] *= lead
            for j in range(db + 1):
                rem[i + j] -= c * b[j]
    del rem[db:]
    return rem


def poly_gcd(p: Sequence[int], q: Sequence[int]) -> tuple[int, ...]:
    """Greatest common divisor of two integer coefficient sequences, lowest
    degree first, as a primitive polynomial with a positive leading
    coefficient.

    Conventions: ``poly_gcd(p, ()) == primitive(p)`` and
    ``poly_gcd((), ()) == ()``; trailing zeros are ignored.  Computed by a
    primitive pseudo-remainder sequence, which keeps the coefficients small.
    """
    a, b = _primitive(p), _primitive(q)
    if len(a) < len(b):
        a, b = b, a
    while b:
        if len(b) == 1:
            return (1,)
        a, b = b, _primitive(_pseudo_rem(a, b))
    return tuple(a)
