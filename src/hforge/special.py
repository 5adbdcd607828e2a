"""Harmonic numbers, binomial coefficients, and digamma-style differences.

Everything here is finite and exact: generalized harmonic numbers are plain
partial sums, shifted binomials ``C(s+a, k)`` are degree-k polynomials in the
formal variable ``s``, and differences of digamma/trigamma values at
integer-shifted arguments collapse to finite telescoping sums

    psi(s+a) - psi(s+b)   =  sum_{j=b}^{a-1}  1/(s+j)
    psi'(s+a) - psi'(s+b) = -sum_{j=b}^{a-1}  1/(s+j)^2

so no transcendental constant is ever materialized.

The ``*_factor`` builders give those values as
:class:`~hforge.bivar.FactoredFrac` with the ``(s+j)`` poles kept as shared
denominator factors, computed on integer coefficient lists with no gcd.
``binom_factor`` multiplies out ``prod_j (s+a-k+j)`` and scales by
``1/k!``.  ``psi_factor``/``psi1_factor`` take the numerator
``sign * sum_j prod_{i != j} (s+i)^m`` from integer telescoping
``N <- N*(s+j)^m + D``, ``D <- D*(s+j)^m``, with no division.  It is
already reduced, because every pole is distinct and has a nonzero
residue.  All three builders are memoized process-wide; their values are
never mutated, so one value is shared by every cell and side that asks for
it.  Other modules register their own process-wide memos with
``register_memo`` (a ``KeyedMemo`` registers itself), and ``clear_memos``
empties them all with the harmonic table.
"""

from __future__ import annotations

import functools
import math
import threading
from fractions import Fraction
from typing import NamedTuple

from .bivar import BiPoly, FactoredFrac, times_linear


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
        if r == 1:
            table = self._h1
        elif r == 2:
            table = self._h2
        else:
            raise ValueError(f"the table holds orders 1 and 2, got r={r!r}")
        if n >= len(table):
            self._extend(n)
        return table[n]

    def __len__(self) -> int:
        return len(self._h1)


_cache = HarmonicCache()


def harmonic(n: int) -> Fraction:
    """H_n = 1 + 1/2 + ... + 1/n, with H_0 = 0."""
    if not isinstance(n, int) or n < 0:
        raise ValueError(f"harmonic index must be a nonnegative integer, got {n!r}")
    return _cache.get(n, 1)


def harmonic_gen(n: int, r: int) -> Fraction:
    """Generalized harmonic number H_n^(r) = sum_{i<=n} 1/i^r."""
    if not isinstance(n, int) or n < 0:
        raise ValueError(f"harmonic index must be a nonnegative integer, got {n!r}")
    if not isinstance(r, int) or r < 1:
        raise ValueError(f"harmonic order must be a positive integer, got {r!r}")
    if r <= 2:
        return _cache.get(n, r)
    return sum((Fraction(1, i ** r) for i in range(1, n + 1)), start=Fraction(0))


def binom_int(n: int, k: int) -> int:
    """Integer binomial C(n, k); 0 outside the range 0 <= k <= n."""
    if not isinstance(n, int) or n < 0:
        raise ValueError(f"binomial top must be a nonnegative integer, got {n!r}")
    if not isinstance(k, int):
        raise ValueError(f"binomial bottom must be an integer, got {k!r}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def binom_factor(shift: int, k: int) -> FactoredFrac:
    """C(s+shift, k) = prod_{j=1..k} (s+shift-k+j)/j, a polynomial of
    degree k in s; ``shift`` may be negative."""
    _check_binom(shift, k)
    return _binom_factor_memo(shift, k)


def psi_factor(a: int, b: int) -> FactoredFrac:
    """psi(s+a) - psi(s+b) = sum_{j=b}^{a-1} 1/(s+j), with the (s+j) poles
    kept as shared factors.  Oriented: requires a >= b >= 0; zero when
    a == b."""
    _check_oriented(a, b)
    return _psi_factor_memo(a, b, 1)


def psi1_factor(a: int, b: int) -> FactoredFrac:
    """psi'(s+a) - psi'(s+b) = -sum_{j=b}^{a-1} 1/(s+j)^2, with the squared
    (s+j) poles kept as factors, for a >= b >= 0."""
    _check_oriented(a, b)
    return _psi_factor_memo(a, b, 2)


def _binom_factor_build(shift: int, k: int) -> FactoredFrac:
    """prod_{j=1..k} (s+shift-k+j) / k!, multiplied out in integers."""
    num = (1,)
    for j in range(1, k + 1):
        num = times_linear(num, shift - k + j)
    return FactoredFrac(BiPoly.from_rows((num,), Fraction(1, math.factorial(k))))


def _psi_factor_build(a: int, b: int, m: int) -> FactoredFrac:
    """sign * sum_{j=b}^{a-1} 1/(s+j)^m, sign -1 for m == 2, in factored form."""
    num, den = (0,), (1,)  # integer coefficients in s, lowest degree first
    for j in range(b, a):
        # num/den + 1/(s+j)^m = (num*(s+j)^m + den) / (den*(s+j)^m)
        for _ in range(m):
            num = times_linear(num, j)
        num = tuple(u + v for u, v in zip(num, den + (0,) * m))
        for _ in range(m):
            den = times_linear(den, j)
    num = BiPoly.from_rows((num,), -1 if m == 2 else 1)
    return FactoredFrac.over_shifts(num, {j: m for j in range(b, a)})


_binom_factor_memo = functools.lru_cache(maxsize=None)(_binom_factor_build)
_psi_factor_memo = functools.lru_cache(maxsize=None)(_psi_factor_build)
_FACTOR_MEMOS = (_binom_factor_memo, _psi_factor_memo)
# Every memo that clear_memos empties: the factor memo and the ones other
# modules add with register_memo.
_MEMOS = list(_FACTOR_MEMOS)


def register_memo(memo):
    """Have ``clear_memos`` empty an ``lru_cache``-wrapped function too.
    Returns ``memo``; usable as a decorator."""
    _MEMOS.append(memo)
    return memo


def clear_memos() -> None:
    """Empty the harmonic table and every registered memo, so that the
    work that follows starts cold."""
    global _cache
    _cache = HarmonicCache()
    for memo in _MEMOS:
        memo.cache_clear()


class MemoInfo(NamedTuple):
    """Counts of a memo table since it was last emptied."""

    hits: int
    misses: int
    size: int


class KeyedMemo(dict):
    """A process-wide table of shared values, with hit and miss counts kept
    by its user.  Registered with ``register_memo`` on creation, so
    ``clear_memos`` empties it and its counts."""

    def __init__(self):
        super().__init__()
        self.hits = self.misses = 0
        register_memo(self)

    def cache_clear(self) -> None:
        self.clear()
        self.hits = self.misses = 0

    def info(self) -> MemoInfo:
        return MemoInfo(hits=self.hits, misses=self.misses, size=len(self))


def factor_memo_info() -> MemoInfo:
    """Hit, miss and entry counts of the factor memo, summed over CS/PSID/PSI1D."""
    infos = [builder.cache_info() for builder in _FACTOR_MEMOS]
    return MemoInfo(
        hits=sum(i.hits for i in infos),
        misses=sum(i.misses for i in infos),
        size=sum(i.currsize for i in infos),
    )


def _check_binom(a: int, k: int) -> None:
    if not isinstance(a, int):
        raise ValueError(f"shift must be an integer, got {a!r}")
    if not isinstance(k, int) or k < 0:
        raise ValueError(f"binomial bottom must be a nonnegative integer, got {k!r}")


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
