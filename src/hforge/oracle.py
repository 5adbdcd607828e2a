"""Independent numeric verification paths for the identity catalog.

Two oracles that share no evaluation code with the symbolic pipeline:

* deterministic grid sampling: both sides of an identity are computed by
  direct summation at enough positive integer points to pin down the
  cross-multiplied difference polynomial (agreement everywhere on such a
  grid proves the per-n identity);
* integer-point direct summation, where every digamma difference
  collapses to a difference of harmonic numbers and no rational-function
  value is ever constructed.

The summation loops below are a second, independent transcription of
each identity.  They intentionally bypass the catalog's evaluators and
work in plain ``Fraction`` arithmetic; nothing here calls into ``dsl``,
``bivar`` or ``exact``.

Work that does not depend on x is done once.  At a sample value s,
``_PointCtx`` keeps prefix sums of ``1/(s+j)`` and ``1/(s+j)^2`` and the
binomials ``C(s+shift, k)``, grown on demand; while memoization is on
(``special.set_memoization``), one context per integer s serves every
cell of a sweep, and ``point_memo_info`` reports its use.  The sides of
the bivariate theorems ask their context once per s-row for the x-free
coefficient list of their sum (``row``) and evaluate it by Horner's rule
at each x; those rows are dropped when the check leaves the s-row.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping

from .catalog import IdentityEntry
from .report import Report, ReportRow
from .special import (
    MemoInfo,
    binom_int,
    harmonic,
    harmonic_gen,
    memoization_enabled,
    register_memo,
)

Params = Mapping[str, int]


class _Rows:
    """The ``row`` helper of both contexts: a side's x-free coefficient
    list, built once per key and kept in ``rows`` until the check that
    owns the context drops it."""

    __slots__ = ("rows",)

    def row(self, key, build) -> list[Fraction]:
        rows = self.rows
        if key not in rows:
            rows[key] = build()
        return rows[key]


class _PointCtx(_Rows):
    """Direct-summation primitives at one exact rational point s.

    ``psi`` and ``psi1`` are differences of the prefix sums
    ``P1[j] = sum_{i<j} 1/(s+i)`` and ``P2[j] = sum_{i<j} 1/(s+i)^2``;
    ``binom(shift, k)`` extends ``C(s+shift, k-1)`` by one factor.  The
    three tables grow on demand (so s+i must be nonzero for every i below
    the largest index asked for) and hold nothing that depends on x, n or
    an identity, which is what lets one context serve every cell
(``_point_ctx``).
    """

    __slots__ = ("s", "_p1", "_p2", "_binom")

    def __init__(self, s):
        self.s = Fraction(s)
        self.rows = {}
        self._p1 = [Fraction(0)]
        self._p2 = [Fraction(0)]
        self._binom: dict[int, list[Fraction]] = {}

    def psi(self, a: int, b: int) -> Fraction:
        """psi(s+a) - psi(s+b) for a >= b >= 0, as the finite sum of 1/(s+j)."""
        p = self._p1
        while len(p) <= a:
            p.append(p[-1] + 1 / (self.s + len(p) - 1))
        return p[a] - p[b]

    def psi1(self, a: int, b: int) -> Fraction:
        """psi'(s+a) - psi'(s+b) for a >= b >= 0."""
        p = self._p2
        while len(p) <= a:
            p.append(p[-1] + 1 / (self.s + len(p) - 1) ** 2)
        return p[b] - p[a]

    def binom(self, shift: int, k: int) -> Fraction:
        """C(s+shift, k) as the falling-factorial product, one factor per k."""
        col = self._binom.get(shift)
        if col is None:
            col = self._binom[shift] = [Fraction(1)]
        while len(col) <= k:
            j = len(col)
            col.append(col[-1] * (self.s + shift - j + 1) / j)
        return col[k]


@register_memo
@functools.lru_cache(maxsize=None)
def _shared_point_ctx(s: int) -> _PointCtx:
    return _PointCtx(s)


def _point_ctx(s: int) -> _PointCtx:
    """The context at sample value s: shared by every cell while
    memoization is on, fresh for each s-row otherwise."""
    return _shared_point_ctx(s) if memoization_enabled() else _PointCtx(s)


def point_memo_info() -> MemoInfo:
    """Hit, miss and entry counts of the per-s context memo."""
    info = _shared_point_ctx.cache_info()
    return MemoInfo(hits=info.hits, misses=info.misses, size=info.currsize)


class _IntegerSCtx(_Rows):
    """Summation primitives at a nonnegative integer point s0.

    Digamma differences collapse to harmonic-number differences here, so
    this path exercises only Rational, harmonic, and binomial arithmetic.
    One context, and its rows, lives for one ``integer_s_check`` call.
    """

    __slots__ = ("s0", "s")

    def __init__(self, s0: int):
        if not isinstance(s0, int) or isinstance(s0, bool) or s0 < 0:
            raise ValueError("s0 must be a nonnegative integer")
        self.s0 = s0
        self.s = Fraction(s0)
        self.rows = {}

    def psi(self, a: int, b: int) -> Fraction:
        return harmonic(self.s0 + a - 1) - harmonic(self.s0 + b - 1)

    def psi1(self, a: int, b: int) -> Fraction:
        return -(
            harmonic_gen(self.s0 + a - 1, 2) - harmonic_gen(self.s0 + b - 1, 2)
        )

    def binom(self, shift: int, k: int) -> Fraction:
        top = self.s0 + shift
        if top >= 0:
            return binom_int(top, k)
        v = Fraction(1)
        for j in range(1, k + 1):
            v = v * (top - k + j) / j
        return v


def _horner(coeffs: list[Fraction], x: Fraction, lo: int = 0) -> Fraction:
    """sum_i coeffs[i] * x^(lo+i), by Horner's rule.

    The rule runs on integers: with ``coeffs[i] = a_i / den`` over their
    common denominator and x = p/q, step i of m adds ``a_i * q^(m-i)``, and
    only the result is reduced.
    """
    # a list, not a generator: unpacking a generator here raised the
    # oracle sweep's peak memory by about 1 MB under CPython 3.11
    den = math.lcm(*[c.denominator for c in coeffs])
    p, q = x.numerator, x.denominator
    acc, qk = 0, 1
    for c in reversed(coeffs):
        acc = acc * p + c.numerator * (den // c.denominator) * qk
        qk *= q
    return Fraction(acc * p ** lo * q, den * qk * q ** lo)


_H = harmonic


def _H2(n: int) -> Fraction:
    return harmonic_gen(n, 2)


_C = binom_int


# ---------------------------------------------------------------------------
# Per-identity direct summations.  Uniform signature (ctx, x, n, params);
# scalar identities ignore ctx and x.
# ---------------------------------------------------------------------------


def _t21_l(ctx, x, n, p):
    row = ctx.row(("t21_l", n), lambda: [ctx.binom(n, k) for k in range(n + 1)])
    return _horner(row, x)


def _t21_r(ctx, x, n, p):
    w = x / (1 + x)
    row = ctx.row(
        ("t21_r", n), lambda: [ctx.binom(k, k) / (k + 1) for k in range(n)]
    )
    return (1 + x) ** n * (1 + ctx.s * _horner(row, w, 1))


def _t22_l(ctx, x, n, p):
    row = ctx.row(
        ("t22_l", n),
        lambda: [
            ctx.binom(n, k) * ctx.psi(n + 1, n - k + 1) for k in range(1, n + 1)
        ],
    )
    return _horner(row, x, 1)


def _t22_r(ctx, x, n, p):
    w = x / (1 + x)
    row = ctx.row(
        ("t22_r", n),
        lambda: [
            ctx.binom(k, k) / (k + 1) * (1 + ctx.s * ctx.psi(k + 1, 1))
            for k in range(n)
        ],
    )
    return (1 + x) ** n * _horner(row, w, 1)


def _c23_l(ctx, x, n, p):
    return sum(
        (
            (-1) ** k * ctx.binom(n, k) * ctx.psi(n + 1, n - k + 1)
            for k in range(n + 1)
        ),
        Fraction(0),
    )


def _c23_r(ctx, x, n, p):
    return (
        Fraction((-1) ** n, n)
        * ctx.binom(n - 1, n - 1)
        * (1 + ctx.s * ctx.psi(n, 1))
    )


def _t24_l(ctx, x, n, p):
    row = ctx.row(
        ("t24_l", n),
        lambda: [
            ctx.binom(n, k)
            * (ctx.psi(n + 1, n - k + 1) ** 2 + ctx.psi1(n + 1, n - k + 1))
            for k in range(n + 1)
        ],
    )
    return _horner(row, x)


def _t24_coeff(ctx, k):
    d = ctx.psi(k + 1, 1)
    return (
        ctx.binom(k, k)
        / (k + 1)
        * (2 * d + ctx.s * (d ** 2 + ctx.psi1(k + 1, 1)))
    )


def _t24_r(ctx, x, n, p):
    w = x / (1 + x)
    row = ctx.row(("t24_r", n), lambda: [_t24_coeff(ctx, k) for k in range(n)])
    return (1 + x) ** n * _horner(row, w, 1)


def _c25_l(ctx, x, n, p):
    return sum(
        (
            (-1) ** k
            * ctx.binom(n, k)
            * (ctx.psi(n + 1, n - k + 1) ** 2 + ctx.psi1(n + 1, n - k + 1))
            for k in range(n + 1)
        ),
        Fraction(0),
    )


def _c25_r(ctx, x, n, p):
    d = ctx.psi(n, 1)
    return (
        Fraction((-1) ** n, n)
        * ctx.binom(n - 1, n - 1)
        * (2 * d + ctx.s * (d ** 2 + ctx.psi1(n, 1)))
    )


def _t26_l(ctx, x, n, p):
    return sum(
        (ctx.binom(n, k) * Fraction((-1) ** (k - 1), k) for k in range(1, n + 1)),
        Fraction(0),
    )


def _t26_coeff(ctx, n, k):
    return (-1) ** k * ctx.binom(k, k) / ((k + 1) ** 2 * _C(n, k + 1))


def _t26_r(ctx, x, n, p):
    return _H(n) + ctx.s * sum(
        (_t26_coeff(ctx, n, k) for k in range(n)), Fraction(0)
    )


def _t27_l(ctx, x, n, p):
    return sum(
        (
            Fraction((-1) ** (k - 1), k)
            * ctx.binom(n, k)
            * ctx.psi(n + 1, n - k + 1)
            for k in range(1, n + 1)
        ),
        Fraction(0),
    )


def _t27_r(ctx, x, n, p):
    first = sum((_t26_coeff(ctx, n, k) for k in range(n)), Fraction(0))
    second = sum(
        (_t26_coeff(ctx, n, k) * ctx.psi(k + 1, 1) for k in range(n)), Fraction(0)
    )
    return first + ctx.s * second


def _t28_l(ctx, x, n, p):
    return sum(
        (
            Fraction((-1) ** (k - 1), k)
            * ctx.binom(n, k)
            * (ctx.psi(n + 1, n - k + 1) ** 2 + ctx.psi1(n + 1, n - k + 1))
            for k in range(1, n + 1)
        ),
        Fraction(0),
    )


def _t28_r(ctx, x, n, p):
    first = sum(
        (_t26_coeff(ctx, n, k) * ctx.psi(k + 1, 1) for k in range(n)), Fraction(0)
    )
    second = sum(
        (
            _t26_coeff(ctx, n, k)
            * (ctx.psi(k + 1, 1) ** 2 + ctx.psi1(k + 1, 1))
            for k in range(n)
        ),
        Fraction(0),
    )
    return 2 * first + ctx.s * second


def _t29_l(ctx, x, n, p):
    return sum(
        (
            ctx.binom(n, k) * Fraction((-1) ** (k - 1), k * k)
            for k in range(1, n + 1)
        ),
        Fraction(0),
    )


def _t29_coeff(ctx, n, k):
    return (
        Fraction((-1) ** k, k + 1)
        * ctx.binom(k, k)
        * (_H(n) - _H(k))
        / ((n - k) * _C(n, k))
    )


def _t29_r(ctx, x, n, p):
    return (_H(n) ** 2 + _H2(n)) / 2 + ctx.s * sum(
        (_t29_coeff(ctx, n, k) for k in range(n)), Fraction(0)
    )


def _t210_l(ctx, x, n, p):
    return sum(
        (
            ctx.binom(n, k)
            * Fraction((-1) ** (k - 1), k * k)
            * ctx.psi(n + 1, n - k + 1)
            for k in range(1, n + 1)
        ),
        Fraction(0),
    )


def _t210_r(ctx, x, n, p):
    first = sum((_t29_coeff(ctx, n, k) for k in range(n)), Fraction(0))
    second = sum(
        (_t29_coeff(ctx, n, k) * ctx.psi(k + 1, 1) for k in range(n)), Fraction(0)
    )
    return first + ctx.s * second


def _t211_l(ctx, x, n, p):
    return sum(
        (
            ctx.binom(n, k)
            * Fraction((-1) ** (k - 1), k * k)
            * (ctx.psi(n + 1, n - k + 1) ** 2 + ctx.psi1(n + 1, n - k + 1))
            for k in range(1, n + 1)
        ),
        Fraction(0),
    )


def _t211_r(ctx, x, n, p):
    first = sum(
        (_t29_coeff(ctx, n, k) * ctx.psi(k + 1, 1) for k in range(n)), Fraction(0)
    )
    second = sum(
        (
            _t29_coeff(ctx, n, k)
            * (ctx.psi(k + 1, 1) ** 2 + ctx.psi1(k + 1, 1))
            for k in range(n)
        ),
        Fraction(0),
    )
    return 2 * first + ctx.s * second


def _i1_l(ctx, x, n, p):
    return sum(((-1) ** k * ctx.binom(n, k) for k in range(n + 1)), Fraction(0))


def _i1_r(ctx, x, n, p):
    return (-1) ** n * ctx.binom(n - 1, n)


def _i2_l(ctx, x, n, p):
    return sum(((-1) ** k * ctx.binom(0, k) for k in range(n + 1)), Fraction(0))


def _i2_r(ctx, x, n, p):
    return (-1) ** n * ctx.binom(-1, n)


def _i3_l(ctx, x, n, p):
    return sum((_C(2 * k, k) / Fraction(4 ** k) for k in range(n + 1)), Fraction(0))


def _i3_r(ctx, x, n, p):
    return Fraction(2 * n + 1, 4 ** n) * _C(2 * n, n)


def _i4_l(ctx, x, n, p):
    return sum(
        (
            _C(2 * k, k) / Fraction(4 ** k) * (2 * _H(2 * k) - _H(k))
            for k in range(1, n + 1)
        ),
        Fraction(0),
    )


def _i4_r(ctx, x, n, p):
    return (
        Fraction(2 * n + 1, 4 ** n)
        * _C(2 * n, n)
        * (2 * _H(2 * n) - _H(n) - Fraction(4 * n, 2 * n + 1))
    )


def _i5_l(ctx, x, n, p):
    return sum(
        (Fraction((-1) ** (k - 1), k) * _C(n, k) for k in range(1, n + 1)),
        Fraction(0),
    )


def _i5_r(ctx, x, n, p):
    return _H(n)


def _i6_l(ctx, x, n, p):
    return sum(
        (
            Fraction((-1) ** (k - 1), k) * _C(n, k) * _H(n - k)
            for k in range(1, n + 1)
        ),
        Fraction(0),
    )


def _i6_r(ctx, x, n, p):
    return _H(n) ** 2 + sum(
        ((-1) ** k / (k * k * _C(n, k)) for k in range(1, n + 1)), Fraction(0)
    )


def _i7_l(ctx, x, n, p):
    return sum((_C(n, k) * _H(n - k) * x ** k for k in range(n + 1)), Fraction(0))


def _i7_r(ctx, x, n, p):
    w = x / (1 + x)
    inner = sum((w ** k / k for k in range(1, n + 1)), Fraction(0))
    return (1 + x) ** n * (_H(n) - inner)


def _i8_l(ctx, x, n, p):
    return sum((_C(n, k) * _H(k) for k in range(n + 1)), Fraction(0))


def _i8_r(ctx, x, n, p):
    inner = sum((Fraction(1, k * 2 ** k) for k in range(1, n + 1)), Fraction(0))
    return 2 ** n * (_H(n) - inner)


def _i9_l(ctx, x, n, p):
    return sum(
        (
            _C(n, k) * (_H(k) ** 2 + _H2(k)) * x ** k
            for k in range(1, n + 1)
        ),
        Fraction(0),
    )


def _i9_r(ctx, x, n, p):
    inner = sum(
        ((_H(k - 1) - _H(n)) / (k * (1 + x) ** k) for k in range(1, n + 1)),
        Fraction(0),
    )
    return (1 + x) ** n * (_H(n) ** 2 + _H2(n) + 2 * inner)


def _i10_l(ctx, x, n, p):
    return sum(
        (
            (-1) ** k * _C(n, k) * (_H(k) ** 2 + _H2(k))
            for k in range(1, n + 1)
        ),
        Fraction(0),
    )


def _i10_r(ctx, x, n, p):
    return Fraction(-2, n * n)


def _i11_l(ctx, x, n, p):
    return sum(
        ((-1) ** k / (k * _C(n, k)) for k in range(1, n + 1)), Fraction(0)
    )


def _i11_r(ctx, x, n, p):
    return Fraction((-1) ** n - 1, n + 1)


def _i12_l(ctx, x, n, p):
    return sum(
        (
            Fraction((-1) ** (k - 1), k)
            * _C(n, k)
            * (_H(n - k) ** 2 + _H2(n - k))
            for k in range(1, n + 1)
        ),
        Fraction(0),
    )


def _i12_r(ctx, x, n, p):
    tail = sum(
        (
            (-1) ** k * (_H(n) - _H(k - 1)) / (k * k * _C(n, k))
            for k in range(1, n + 1)
        ),
        Fraction(0),
    )
    return _H(n) ** 3 + _H(n) * _H2(n) + 2 * tail


def _i13_l(ctx, x, n, p):
    m = p["m"]
    return sum(
        ((-1) ** k * _C(m * n, k) * _H(m * n - k) for k in range(n + 1)),
        Fraction(0),
    )


def _i13_r(ctx, x, n, p):
    m = p["m"]
    return (
        Fraction((-1) ** n, m)
        * _C(m * n, n)
        * ((m - 1) * _H((m - 1) * n) - Fraction(1, m * n))
    )


def _i15_l(ctx, x, n, p):
    return sum(
        ((-1) ** k * _H(k) / (k * _C(n, k)) for k in range(1, n + 1)), Fraction(0)
    )


def _i15_r(ctx, x, n, p):
    tail = sum(
        ((-1) ** k / (k * k * _C(n + 1, k)) for k in range(1, n + 2)), Fraction(0)
    )
    return (-1) ** n * _H(n + 1) / (n + 1) + tail


def _i16_l(ctx, x, n, p):
    # exponent k-1 is negative at k=0; write the sign as -(-1)^k
    return sum(
        (
            -((-1) ** k) * 4 ** k * _C(n, k) / _C(2 * k, k)
            for k in range(n + 1)
        ),
        Fraction(0),
    )


def _i16_r(ctx, x, n, p):
    return Fraction(1, 2 * n - 1)


def _i17_l(ctx, x, n, p):
    return sum(
        (_C(n, k) * Fraction((-1) ** (k - 1), k * k) for k in range(1, n + 1)),
        Fraction(0),
    )


def _i17_r(ctx, x, n, p):
    return (_H(n) ** 2 + _H2(n)) / 2


def _i18_l(ctx, x, n, p):
    return sum(
        ((-1) ** k * _H(n - k) / (k * _C(n, k)) for k in range(1, n + 1)),
        Fraction(0),
    )


def _i18_r(ctx, x, n, p):
    return Fraction(1 - (-1) ** n, (n + 1) ** 2) - _H(n) / (n + 1)


def _i19_l(ctx, x, n, p):
    return sum(
        (
            Fraction((-1) ** (k - 1), k * k) * _C(n, k) * _H(n - k)
            for k in range(1, n + 1)
        ),
        Fraction(0),
    )


def _i19_r(ctx, x, n, p):
    tail = sum(
        (
            (-1) ** k * (_H(n) - _H(k)) / ((k + 1) * (n - k) * _C(n, k))
            for k in range(n)
        ),
        Fraction(0),
    )
    return _H(n) * (_H(n) ** 2 + _H2(n)) / 2 - tail


def _i20_l(ctx, x, n, p):
    return sum(
        (
            Fraction((-1) ** (k - 1), k * k)
            * _C(n, k)
            * (_H(n - k) ** 2 + _H2(n - k))
            for k in range(1, n + 1)
        ),
        Fraction(0),
    )


def _i20_r(ctx, x, n, p):
    tail = sum(
        (
            (-1) ** k * (_H(n) - _H(k)) ** 2 / ((k + 1) * (n - k) * _C(n, k))
            for k in range(n)
        ),
        Fraction(0),
    )
    return (_H(n) ** 2 + _H2(n)) ** 2 / 2 - 2 * tail


def _n1_l(ctx, x, n, p):
    return sum((_C(n, k) ** 2 * _H(k) for k in range(n + 1)), Fraction(0))


def _n1_r(ctx, x, n, p):
    return _C(2 * n, n) * (2 * _H(n) - _H(2 * n))


def _n2_l(ctx, x, n, p):
    return sum(
        (
            (-1) ** k * _C(n, k) * (_H(k) - 2 * _H(2 * k))
            for k in range(n + 1)
        ),
        Fraction(0),
    )


def _n2_r_printed(ctx, x, n, p):
    return Fraction(4 ** n, n) * _C(2 * n, n) ** 2


def _n2_r_corrected(ctx, x, n, p):
    return Fraction(4 ** n) / (n * _C(2 * n, n))


def _n3_l(ctx, x, n, p):
    return sum(
        ((-1) ** k * _C(n, k) * _H(n + k) ** 2 for k in range(n + 1)), Fraction(0)
    )


def _n3_r(ctx, x, n, p):
    return (_H(n) - _H(2 * n) - Fraction(2, n)) / (n * _C(2 * n, n))


SideFn = Callable[[object, Fraction, int, Params], Fraction]

_SIDES: dict[str, tuple[SideFn, SideFn]] = {
    "THM-2.1": (_t21_l, _t21_r),
    "THM-2.2": (_t22_l, _t22_r),
    "COR-2.3": (_c23_l, _c23_r),
    "THM-2.4": (_t24_l, _t24_r),
    "COR-2.5": (_c25_l, _c25_r),
    "THM-2.6": (_t26_l, _t26_r),
    "THM-2.7": (_t27_l, _t27_r),
    "THM-2.8": (_t28_l, _t28_r),
    "THM-2.9": (_t29_l, _t29_r),
    "THM-2.10": (_t210_l, _t210_r),
    "THM-2.11": (_t211_l, _t211_r),
    "ID-1": (_i1_l, _i1_r),
    "ID-2": (_i2_l, _i2_r),
    "ID-3": (_i3_l, _i3_r),
    "ID-4": (_i4_l, _i4_r),
    "ID-5": (_i5_l, _i5_r),
    "ID-6": (_i6_l, _i6_r),
    "ID-7": (_i7_l, _i7_r),
    "ID-8": (_i8_l, _i8_r),
    "ID-9": (_i9_l, _i9_r),
    "ID-10": (_i10_l, _i10_r),
    "ID-11": (_i11_l, _i11_r),
    "ID-12": (_i12_l, _i12_r),
    "ID-13": (_i13_l, _i13_r),
    "ID-14": (_i13_l, _i13_r),
    "ID-15": (_i15_l, _i15_r),
    "ID-16": (_i16_l, _i16_r),
    "ID-17": (_i17_l, _i17_r),
    "ID-18": (_i18_l, _i18_r),
    "ID-19": (_i19_l, _i19_r),
    "ID-20": (_i20_l, _i20_r),
    "INTRO-1": (_n1_l, _n1_r),
    "INTRO-2": (_n2_l, _n2_r_corrected),
    "INTRO-3": (_n3_l, _n3_r),
}

_RHS_VARIANTS: dict[str, dict[str, SideFn]] = {
    "INTRO-2": {"printed": _n2_r_printed, "corrected": _n2_r_corrected},
}


def _sides(tag: str, variant: str | None) -> tuple[SideFn, SideFn]:
    lhs, rhs = _SIDES[tag]
    if variant is not None:
        variants = _RHS_VARIANTS.get(tag, {})
        if variant not in variants:
            raise ValueError(f"{tag} has no variant {variant!r}")
        rhs = variants[variant]
    return lhs, rhs


# ---------------------------------------------------------------------------
# Certificates and checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SampleCertificate:
    """Outcome of one deterministic sampling run."""

    id: str
    n: int
    sample_points: tuple[tuple[Fraction, Fraction], ...]
    degree_bound: tuple[int, int]
    all_equal: bool

    @property
    def point_count(self) -> int:
        return len(self.sample_points)


def degree_bound(entry: IdentityEntry, n: int) -> tuple[int, int]:
    """Safe (bound_s, bound_x) overestimates for the cross-multiplied
    difference of the two sides; monotone in n.

    Only a constant (domain Q) entry gets (0, 0) without a line of its
    own: an s- or x-dependent entry missing here raises ``ValueError``
    rather than being "proved" from a single point."""
    if n < entry.n_min:
        raise ValueError(f"n must be >= {entry.n_min} for {entry.tag}")
    tag = entry.tag
    if tag == "THM-2.1":
        return 2 * n, 2 * n
    if tag in ("THM-2.2",):
        return 3 * n + 2, 2 * n + 1
    if tag in ("THM-2.4",):
        return 5 * n + 2, 2 * n + 1
    if tag in ("COR-2.3", "THM-2.7", "THM-2.10"):
        return 3 * n + 2, 0
    if tag in ("COR-2.5", "THM-2.8", "THM-2.11"):
        return 5 * n + 2, 0
    if tag in ("THM-2.6", "THM-2.9", "ID-1", "ID-2"):
        return n + 2, 0
    if tag in ("ID-7", "ID-9"):
        return 0, 2 * n + 1
    if entry.domain == "Q":
        return 0, 0
    raise ValueError(f"no degree bound for {tag} over {entry.domain}")


def sampling_verify(
    entry: IdentityEntry,
    n: int,
    params: Params | None = None,
    variant: str | None = None,
) -> SampleCertificate:
    """Compare both sides on a positive integer grid exceeding the degree
    bound; all-equal on the full grid proves the per-n identity."""
    params = dict(params or {})
    entry.validate(n, params)
    bs, bx = degree_bound(entry, n)
    lhs_fn, rhs_fn = _sides(entry.tag, variant)
    points: list[tuple[Fraction, Fraction]] = []
    all_equal = True
    for sv in range(1, bs + 2):
        ctx = _point_ctx(sv)
        try:
            for xv in range(1, bx + 2):
                x = Fraction(xv)
                assert ctx.s > 0 and x > 0
                points.append((ctx.s, x))
                if lhs_fn(ctx, x, n, params) != rhs_fn(ctx, x, n, params):
                    all_equal = False
        finally:
            ctx.rows.clear()
    assert len(points) >= (bs + 1) * (bx + 1)
    return SampleCertificate(
        id=entry.tag,
        n=n,
        sample_points=tuple(points),
        degree_bound=(bs, bx),
        all_equal=all_equal,
    )


def integer_s_check(
    entry: IdentityEntry,
    n: int,
    s0: int,
    params: Params | None = None,
    variant: str | None = None,
) -> bool:
    """Evaluate both sides at integer s = s0 using only harmonic-number
    arithmetic; bivariate entries are compared across an x grid."""
    if "s" not in entry.domain:
        raise ValueError(f"{entry.tag} has no s dependence")
    params = dict(params or {})
    entry.validate(n, params)
    ctx = _IntegerSCtx(s0)
    lhs_fn, rhs_fn = _sides(entry.tag, variant)
    _, bx = degree_bound(entry, n)
    for xv in range(1, bx + 2):
        x = Fraction(xv)
        if lhs_fn(ctx, x, n, params) != rhs_fn(ctx, x, n, params):
            return False
    return True


# The two anchored single-m displays; the m=3 display disagrees with the
# general formula (2*H_n in place of 2*H_{2n}) and is kept to document that.
def _id14_display(n: int, m: int) -> Fraction:
    if m == 2:
        return (
            Fraction((-1) ** n, 2) * _C(2 * n, n) * (_H(n) - Fraction(1, 2 * n))
        )
    if m == 3:
        return (
            Fraction((-1) ** n, 3)
            * _C(3 * n, n)
            * (2 * _H(n) - Fraction(1, 3 * n))
        )
    raise ValueError("the displayed cases are m=2 and m=3")


def id13_family_check(n_max: int, m_set=(2, 3, 4, 5)) -> Report:
    """Direct-summation check of the m-parameterized family, plus the two
    single-m displays compared against their specializations."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    report = Report()
    for n in range(1, n_max + 1):
        for m in sorted(m_set):
            if m < 2:
                raise ValueError("parameter m must be >= 2")
            start = time.perf_counter_ns()
            params = {"m": m}
            passed = _i13_l(None, None, n, params) == _i13_r(None, None, n, params)
            elapsed = time.perf_counter_ns() - start
            report.add(
                ReportRow(
                    id="ID-13", n=n, params=params, passed=passed, elapsed_ns=elapsed
                )
            )
    for n in range(1, n_max + 1):
        for m in (2, 3):
            start = time.perf_counter_ns()
            spec = _i13_r(None, None, n, {"m": m})
            passed = _id14_display(n, m) == spec
            elapsed = time.perf_counter_ns() - start
            report.add(
                ReportRow(
                    id="ID-14",
                    n=n,
                    params={"m": m, "form": "display"},
                    passed=passed,
                    expected_fail=(m == 3),
                    elapsed_ns=elapsed,
                )
            )
    return report
