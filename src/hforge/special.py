"""Harmonic numbers, binomial coefficients, and digamma-style differences.

Everything here is finite and exact: generalized harmonic numbers are plain
partial sums, shifted binomials ``C(s+a, k)`` are degree-k polynomials in the
formal variable ``s``, and differences of digamma/trigamma values at
integer-shifted arguments collapse to finite telescoping sums

    psi(s+a) - psi(s+b)   =  sum_{j=b}^{a-1}  1/(s+j)
    psi'(s+a) - psi'(s+b) = -sum_{j=b}^{a-1}  1/(s+j)^2

so no transcendental constant is ever materialized.  The ``*_factor``
builders wrap those values as :class:`~hforge.bivar.FactoredFrac` with
the ``(s+j)`` poles kept as shared denominator factors.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction

from .bivar import FactoredFrac
from .exact import Poly, RatFunc


class HarmonicCache:
    """Append-only table of generalized harmonic numbers for r in {1, 2}.

    Reads of already-published prefixes are lock-free; extension is
    serialized by a lock, so concurrent readers and a single growing writer
    are safe.
    """

    def __init__(self):
        self._h1: list[Fraction] = [Fraction(0)]
        self._h2: list[Fraction] = [Fraction(0)]
        self._lock = threading.Lock()

    def _extend(self, n: int) -> None:
        with self._lock:
            h1, h2 = self._h1, self._h2
            for i in range(len(h1), n + 1):
                h1.append(h1[i - 1] + Fraction(1, i))
                h2.append(h2[i - 1] + Fraction(1, i * i))

    def get(self, n: int, r: int) -> Fraction:
        table = self._h1 if r == 1 else self._h2
        if n >= len(table):
            self._extend(n)
        return table[n]

    def __len__(self) -> int:
        return len(self._h1)


_cache = HarmonicCache()
_memoized = True


def set_memoization(enabled: bool) -> None:
    """Toggle the harmonic memo table (used by benchmarking)."""
    global _memoized
    _memoized = bool(enabled)


def memoization_enabled() -> bool:
    return _memoized


def harmonic(n: int) -> Fraction:
    """H_n = 1 + 1/2 + ... + 1/n, with H_0 = 0."""
    if not isinstance(n, int) or n < 0:
        raise ValueError(f"harmonic index must be a nonnegative integer, got {n!r}")
    if _memoized:
        return _cache.get(n, 1)
    return sum((Fraction(1, i) for i in range(1, n + 1)), start=Fraction(0))


def harmonic_gen(n: int, r: int) -> Fraction:
    """Generalized harmonic number H_n^(r) = sum_{i<=n} 1/i^r."""
    if not isinstance(n, int) or n < 0:
        raise ValueError(f"harmonic index must be a nonnegative integer, got {n!r}")
    if not isinstance(r, int) or r < 1:
        raise ValueError(f"harmonic order must be a positive integer, got {r!r}")
    if r == 1:
        return harmonic(n)
    if r == 2 and _memoized:
        return _cache.get(n, 2)
    return sum((Fraction(1, i ** r) for i in range(1, n + 1)), start=Fraction(0))


def binom_int(n: int, k: int) -> Fraction:
    """Integer binomial C(n, k); 0 outside the range 0 <= k <= n."""
    if not isinstance(n, int) or n < 0:
        raise ValueError(f"binomial top must be a nonnegative integer, got {n!r}")
    if not isinstance(k, int):
        raise ValueError(f"binomial bottom must be an integer, got {k!r}")
    if k < 0 or k > n:
        return Fraction(0)
    return Fraction(math.comb(n, k))


def binom_shift(a: int, k: int) -> RatFunc:
    """The shifted binomial C(s+a, k) = prod_{j=1..k} (s+a-k+j)/j.

    A polynomial of degree exactly k in s (returned as a rational function
    with denominator one).  ``a`` may be negative.
    """
    if not isinstance(a, int):
        raise ValueError(f"shift must be an integer, got {a!r}")
    if not isinstance(k, int) or k < 0:
        raise ValueError(f"binomial bottom must be a nonnegative integer, got {k!r}")
    num = Poly.one()
    for j in range(1, k + 1):
        num = num * Poly.linear(a - k + j)
    return RatFunc(num, Poly.const(math.factorial(k)))


def psi_diff(a: int, b: int) -> RatFunc:
    """psi(s+a) - psi(s+b) as the telescoping sum of 1/(s+j), j in [b, a).

    Oriented: requires a >= b >= 0.  Zero when a == b.  Every pole is a
    negative integer shift -j with b <= j < a.
    """
    _check_oriented(a, b)
    acc = RatFunc(Poly.zero())
    for j in range(b, a):
        acc = acc + RatFunc(Poly.one(), Poly.linear(j))
    return acc


def psi1_diff(a: int, b: int) -> RatFunc:
    """psi'(s+a) - psi'(s+b) = -sum_{j=b}^{a-1} 1/(s+j)^2, for a >= b >= 0."""
    _check_oriented(a, b)
    acc = RatFunc(Poly.zero())
    for j in range(b, a):
        lin = Poly.linear(j)
        acc = acc - RatFunc(Poly.one(), lin * lin)
    return acc


def binom_factor(shift: int, k: int) -> FactoredFrac:
    """C(s+shift, k) as a polynomial factor in s."""
    return FactoredFrac.from_ratfunc(binom_shift(shift, k))


def psi_factor(a: int, b: int) -> FactoredFrac:
    """psi(s+a) - psi(s+b) with the (s+j) poles kept as shared factors."""
    return FactoredFrac.from_ratfunc(psi_diff(a, b), [(j, 1) for j in range(b, a)])


def psi1_factor(a: int, b: int) -> FactoredFrac:
    """psi'(s+a) - psi'(s+b) with squared (s+j) poles kept as factors."""
    return FactoredFrac.from_ratfunc(psi1_diff(a, b), [(j, 2) for j in range(b, a)])


def _check_oriented(a: int, b: int) -> None:
    if not isinstance(a, int) or not isinstance(b, int):
        raise ValueError(f"digamma shifts must be integers, got {a!r}, {b!r}")
    if not (a >= b >= 0):
        raise ValueError(
            f"digamma difference is oriented: need a >= b >= 0, got a={a}, b={b}"
        )


def binom_neg3half(n: int) -> Fraction:
    """C(-3/2, n) in closed form: (-1)^n (2n+1)/4^n * C(2n, n)."""
    if not isinstance(n, int) or n < 0:
        raise ValueError(f"index must be a nonnegative integer, got {n!r}")
    return Fraction((-1) ** n * (2 * n + 1), 4 ** n) * binom_int(2 * n, n)
