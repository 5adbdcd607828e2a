"""Independent numeric verification paths for the identity catalog.

Two oracles that evaluate the catalog's own statements, each side's
checked tree (``Side.ast``), with arithmetic of their own:

* deterministic grid sampling: both sides are computed at enough
  positive integer points to pin down the numerator of their difference
  (agreement everywhere on such a grid proves the per-n identity);
* integer-point evaluation, where every digamma difference collapses to
  a difference of harmonic numbers and no rational-function value is
  ever constructed.

The independence lies in the arithmetic: the compiled form of the tree
runs on the oracle's own rationals (``_Rat``), binomials and digammas;
nothing here calls into ``bivar``, ``exact`` or ``dsl.evaluator``.

``_Rat`` is a reduced rational with a positive denominator.  It does
``Fraction``'s arithmetic by ``Fraction``'s algorithms (Henrici's gcd
method for sums; Knuth, TAOCP vol. 2 §4.5.1) without its constructor and
operator dispatch, which is where a ``Fraction`` walk spent its time.
Integers stay ``int``; ``harmonic`` values and rational literals become
``_Rat`` at the leaf.  The sample points themselves, ``ctx.s`` and the x
grid, stay ``Fraction``, and so do the certificates.

One run evaluates a side over a cell's whole grid (``_Grid``).  A value
that depends on neither s nor x is computed once per cell, one that
depends on x alone once per x, and one free of x once per s.  A sum
shaped ``c(k) * b^e(k)`` with b x-only and consecutive exponents builds
its coefficient list once per s, brings it to one integer row over a
common denominator, and evaluates that row by Horner's rule at each x.
At a sample value s, ``_PointCtx`` keeps prefix
sums of ``1/(s+j)`` and ``1/(s+j)^2`` and the binomials ``C(s+shift, k)``,
grown on demand; one context per integer s, memoized process-wide,
serves every cell of a sweep, ``point_memo_info`` reports its use and
``special.clear_memos`` empties it.

How many points a cell needs comes from its statements: ``degree_bound``
runs the degree-and-pole analysis of ``hforge.degrees`` on both sides and
bounds the degrees in s and x of the numerator of L - R over the lcm of
their denominators.  The sides' symbols (``Side.symbols``) settle some
cells with no analysis: sides free of s and x need one point, and the x
grid of ``integer_s_check`` needs the analysis only when a side carries
x.  A denominator key that vanishes on the grid raises
``ZeroDivisionError``, as a pole met in a walk does; neither ever passes.
The analysis runs once per cell and process, whichever oracle asks.

A sampling grid (s = 1..M with M > 1, the grids of ``sampling_verify``)
also shares the sub-products of the sides (see ``dsl.compiled``) that
are free of x, in a process-wide memo keyed by source text and bindings:
each is kept as its list of values over s = 1..M.  A smaller grid reads
a prefix of that list; a larger one extends it by running the
sub-product on the tail of its grid alone.  Integer-s grids, one-point
grids and empty grids share no sub-product, so the integer-s oracle stays
independent of the sampling one.  ``grid_memo_info`` reports the memo's
use and ``special.clear_memos`` empties it.  An integer-s grid holds all
of ``INTEGER_S_POINTS``, and the last cell's four verdicts answer its
other three points (``integer_s_check``, ``integer_s_memo_info``).
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import repeat
from typing import Mapping

from .catalog import IdentityEntry, Side
from .dsl.compiled import compiled
from .report import ReportRow
from .special import (
    KeyedMemo,
    MemoInfo,
    binom_int,
    harmonic,
    harmonic_gen,
    register_memo,
)

Params = Mapping[str, int]

# The values of s at which ``verify --oracle integer-s`` checks a cell.
INTEGER_S_POINTS = (0, 1, 2, 5)


class _Rat:
    """A rational in lowest terms with a positive denominator.

    Built only by the operations below and by ``_rat``, which keep that
    form, so ``==`` compares the fields, also against an ``int`` or a
    ``Fraction``.  The other operand of an operation is a ``_Rat`` or an
    ``int``; a zero divisor raises ``ZeroDivisionError``.
    """

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: int, denominator: int = 1):
        self.numerator = numerator
        self.denominator = denominator

    def __repr__(self):
        return f"_Rat({self.numerator}, {self.denominator})"

    def __eq__(self, other):
        if isinstance(other, (_Rat, int, Fraction)):
            return (
                self.numerator == other.numerator
                and self.denominator == other.denominator
            )
        return NotImplemented

    def __neg__(self):
        return _Rat(-self.numerator, self.denominator)

    def __add__(a, b):
        if type(b) is int:
            return _Rat(a.numerator + b * a.denominator, a.denominator)
        if type(b) is _Rat:
            return _plus(a.numerator, a.denominator, b.numerator, b.denominator)
        return NotImplemented

    __radd__ = __add__

    def __sub__(a, b):
        if type(b) is int:
            return _Rat(a.numerator - b * a.denominator, a.denominator)
        if type(b) is _Rat:
            return _plus(a.numerator, a.denominator, -b.numerator, b.denominator)
        return NotImplemented

    def __rsub__(a, b):
        if type(b) is int:
            return _Rat(b * a.denominator - a.numerator, a.denominator)
        return NotImplemented

    def __mul__(a, b):
        na, da = a.numerator, a.denominator
        if type(b) is int:
            g = math.gcd(b, da)
            return _Rat(na * (b // g), da // g)
        if type(b) is not _Rat:
            return NotImplemented
        nb, db = b.numerator, b.denominator
        g1 = math.gcd(na, db)
        if g1 > 1:
            na //= g1
            db //= g1
        g2 = math.gcd(nb, da)
        if g2 > 1:
            nb //= g2
            da //= g2
        return _Rat(na * nb, da * db)

    __rmul__ = __mul__

    def __truediv__(a, b):
        if type(b) is int:
            return _quotient(a.numerator, a.denominator, b, 1)
        if type(b) is _Rat:
            return _quotient(a.numerator, a.denominator, b.numerator, b.denominator)
        return NotImplemented

    def __rtruediv__(a, b):
        if type(b) is int:
            return _quotient(b, 1, a.numerator, a.denominator)
        return NotImplemented

    def __pow__(a, e):
        if type(e) is not int:
            return NotImplemented
        if e >= 0:
            return _Rat(a.numerator**e, a.denominator**e)
        return _quotient(1, 1, a.numerator**-e, a.denominator**-e)


def _plus(na: int, da: int, nb: int, db: int) -> _Rat:
    """na/da + nb/db for reduced operands, by Henrici's method: one gcd of
    the denominators, then one of the result's numerator with it."""
    g = math.gcd(da, db)
    if g == 1:
        return _Rat(na * db + da * nb, da * db)
    s = da // g
    t = na * (db // g) + nb * s
    g2 = math.gcd(t, g)
    if g2 == 1:
        return _Rat(t, s * db)
    return _Rat(t // g2, s * (db // g2))


def _quotient(na: int, da: int, nb: int, db: int) -> _Rat:
    """(na/da) / (nb/db) for reduced operands, cross-cancelled."""
    if nb == 0:
        raise ZeroDivisionError("division by zero")
    g1 = math.gcd(na, nb)
    if g1 > 1:
        na //= g1
        nb //= g1
    g2 = math.gcd(db, da)
    if g2 > 1:
        da //= g2
        db //= g2
    n, d = na * db, nb * da
    if d < 0:
        return _Rat(-n, -d)
    return _Rat(n, d)


def _rat(value) -> _Rat:
    """An ``int`` or ``Fraction`` (or ``_Rat``) as a ``_Rat``."""
    return _Rat(value.numerator, value.denominator)


def _difference(a: Fraction, b: Fraction) -> _Rat:
    """``a - b`` as a ``_Rat``, with no intermediate ``Fraction``."""
    return _plus(a.numerator, a.denominator, -b.numerator, b.denominator)


class _PointCtx:
    """Direct-summation primitives at one exact rational point s.

    ``psi`` and ``psi1`` are differences of the prefix sums
    ``P1[j] = sum_{i<j} 1/(s+i)`` and ``P2[j] = sum_{i<j} 1/(s+i)^2``;
    ``binom(shift, k)`` extends ``C(s+shift, k-1)`` by one factor.  The
    three tables grow on demand (so s+i must be nonzero for every i below
    the largest index asked for) and hold nothing that depends on x, n or
    an identity, which is what lets one context serve every cell
    (``_point_ctx``).
    """

    __slots__ = ("s", "_s", "_p1", "_p2", "_binom")

    def __init__(self, s):
        self.s = Fraction(s)
        self._s = _rat(self.s)
        self._p1 = [_Rat(0)]
        self._p2 = [_Rat(0)]
        self._binom: dict[int, list[_Rat]] = {}

    def psi(self, a: int, b: int) -> _Rat:
        """psi(s+a) - psi(s+b) for a >= b >= 0, as the finite sum of 1/(s+j)."""
        p = self._p1
        while len(p) <= a:
            p.append(p[-1] + 1 / (self._s + len(p) - 1))
        return p[a] - p[b]

    def psi1(self, a: int, b: int) -> _Rat:
        """psi'(s+a) - psi'(s+b) for a >= b >= 0."""
        p = self._p2
        while len(p) <= a:
            p.append(p[-1] + 1 / (self._s + len(p) - 1) ** 2)
        return p[b] - p[a]

    def binom(self, shift: int, k: int) -> _Rat:
        """C(s+shift, k) as the falling-factorial product, one factor per k."""
        col = self._binom.get(shift)
        if col is None:
            col = self._binom[shift] = [_Rat(1)]
        while len(col) <= k:
            j = len(col)
            col.append(col[-1] * (self._s + shift - j + 1) / j)
        return col[k]


@register_memo
@functools.lru_cache(maxsize=None)
def _point_ctx(s: int) -> _PointCtx:
    """The context at sample value s, shared by every cell."""
    return _PointCtx(s)


def point_memo_info() -> MemoInfo:
    """Hit, miss and entry counts of the per-s context memo."""
    info = _point_ctx.cache_info()
    return MemoInfo(hits=info.hits, misses=info.misses, size=info.currsize)


# The sub-products that sampling grids share (``_Grid.shared``), each a
# list of values over s = 1..M.
_PRODUCTS = KeyedMemo()


def grid_memo_info() -> MemoInfo:
    """Hit, miss and entry counts of the sampling grids' sub-product memo."""
    return _PRODUCTS.info()


def _check_s0(s0) -> None:
    if not isinstance(s0, int) or isinstance(s0, bool) or s0 < 0:
        raise ValueError("s0 must be a nonnegative integer")


class _IntegerSCtx:
    """Summation primitives at a nonnegative integer point s0.

    Digamma differences collapse to harmonic-number differences here, so
    this path exercises only ``_Rat``, harmonic and binomial arithmetic.
    A context lives for one walk of a cell's sides, over one point or over
    all of ``INTEGER_S_POINTS`` (``integer_s_check``).
    """

    __slots__ = ("s0", "s")

    def __init__(self, s0: int):
        _check_s0(s0)
        self.s0 = s0
        self.s = Fraction(s0)

    def psi(self, a: int, b: int) -> _Rat:
        return _difference(harmonic(self.s0 + a - 1), harmonic(self.s0 + b - 1))

    def psi1(self, a: int, b: int) -> _Rat:
        return _difference(
            harmonic_gen(self.s0 + b - 1, 2), harmonic_gen(self.s0 + a - 1, 2)
        )

    def binom(self, shift: int, k: int) -> int | _Rat:
        top = self.s0 + shift
        if top >= 0:
            return binom_int(top, k)
        v = _Rat(1)
        for j in range(1, k + 1):
            v = v * (top - k + j) / j
        return v


def _horner_row(coeffs: list, lo: int, xs) -> tuple:
    """The values of sum_i coeffs[i] * x^(lo+i) at each x in xs, by
    Horner's rule.

    The rule runs on integers: the coefficients are brought to one common
    denominator, ``coeffs[i] = a_i / den``, once for the row; at x = p/q,
    step i of m adds ``a_i * q^(m-i)``, and only the result is reduced.
    """
    # a list, not a generator: unpacking a generator here raised the
    # oracle sweep's peak memory by about 1 MB under CPython 3.11
    den = math.lcm(*[c.denominator for c in coeffs])
    row = [c.numerator * (den // c.denominator) for c in reversed(coeffs)]
    out = []
    for x in xs:
        p, q = x.numerator, x.denominator
        acc, qk = 0, 1
        for a in row:
            acc = acc * p + a * qk
            qk *= q
        out.append(_quotient(acc * p**lo * q, 1, den * qk * q**lo, 1))
    return tuple(out)



# ---------------------------------------------------------------------------
# The grid arithmetic
# ---------------------------------------------------------------------------


def _div(a, b):
    if type(a) is int and type(b) is int:
        return _quotient(a, 1, b, 1)
    return a / b


def _lift(op, a, b):
    """op at every grid point.  A list runs over the s values, a tuple
    over the x values; a value that is not a list is the same at every
    s, and a scalar is the same at every x."""
    la, lb = type(a) is list, type(b) is list
    if not (la or lb):
        return _row(op, a, b)
    if tuple in (type(a[0] if la else a), type(b[0] if lb else b)):
        op = functools.partial(_row, op)
    return list(map(op, a if la else repeat(a), b if lb else repeat(b)))


def _row(op, a, b):
    """op at every x, for a and b each a scalar or a tuple over x."""
    if type(a) is tuple:
        return tuple(map(op, a, b if type(b) is tuple else repeat(b)))
    if type(b) is tuple:
        return tuple(map(op, repeat(a), b))
    return op(a, b)


def _map(fn, a):
    if type(a) is list:
        if type(a[0]) is tuple:
            return [tuple(map(fn, u)) for u in a]
        return list(map(fn, a))
    if type(a) is tuple:
        return tuple(map(fn, a))
    return fn(a)


def _scalar_call(func: str, args: list[int]):
    """The value of a builtin free of s and x (H, Hr, C); None for CS,
    PSID and PSI1D, once their arguments are checked."""
    if func == "H":
        return _rat(harmonic(*args))
    if func == "Hr":
        return _rat(harmonic_gen(*args))
    if func == "C":
        return binom_int(*args)
    a, b = args
    if func == "CS":
        if b < 0:
            raise ValueError(f"CS needs a nonnegative bottom, got {b}")
    elif func in ("PSID", "PSI1D"):
        if not a >= b >= 0:
            raise ValueError(f"{func} needs a >= b >= 0, got {a}, {b}")
    else:
        raise ValueError(f"unknown builtin {func!r}")
    return None


def _at(value, i: int, j: int):
    """The value at the grid point (s_i, x_j)."""
    if type(value) is list:
        value = value[i]
    if type(value) is tuple:
        value = value[j]
    return value


class _Grid:
    """A cell's sample grid: the contexts of its s values and its x values.

    The arithmetic of a side's compiled form (``dsl.compiled``) over the
    whole grid.  A value is a scalar (free of s and x), a tuple over the
    x values (free of s), a list over the s values of scalars (free of
    x), or a list over the s values of tuples over the x values.
    """

    __slots__ = ("ctxs", "s", "x", "_memo")

    rat = staticmethod(_rat)
    neg = functools.partial(_map, operator.neg)
    add = functools.partial(_lift, operator.add)
    sub = functools.partial(_lift, operator.sub)

    @staticmethod
    def mul(a, b):
        """A product; one by the int 1 or -1, such as a ``(-1)^k``, is the
        other operand or its negation, with no multiplication."""
        if type(a) is int and (a == 1 or a == -1):
            return b if a == 1 else _map(operator.neg, b)
        if type(b) is int and (b == 1 or b == -1):
            return a if b == 1 else _map(operator.neg, a)
        return _lift(operator.mul, a, b)

    def __init__(self, ctxs, xs, shared: bool = False):
        self.ctxs = ctxs
        self.s = [_rat(ctx.s) for ctx in ctxs]
        self.x = tuple(map(_rat, xs))
        # only a sampling grid, s = 1..M with M > 1, reuses sub-products
        self._memo = _PRODUCTS if shared and len(ctxs) > 1 else None

    def shared(self, key, run, env, of_x: bool):
        """``run(self, env)``; on a sampling grid, a sub-product free of x
        is kept as its list over s = 1..M, and a larger grid extends that
        list by running on the tail of the grid."""
        memo = self._memo
        if memo is None or of_x:
            return run(self, env)
        value = memo.get(key)
        m = len(self.ctxs)
        if value is not None and (type(value) is not list or len(value) >= m):
            memo.hits += 1
            return value[:m] if type(value) is list else value
        memo.misses += 1
        if value is None:
            value = run(self, env)
        else:
            value = value + run(_Grid(self.ctxs[len(value):], ()), env)
        memo[key] = value
        return value

    def div(self, a, b, span):
        return _lift(_div, a, b)

    def power(self, a, e: int, span):
        if e < 0:
            return _map(lambda v: _rat(v) ** e, a)
        return _map(lambda v: v ** e, a)

    def call(self, func: str, args: list[int], span):
        value = _scalar_call(func, args)
        if value is not None:
            return value
        a, b = args
        if func == "CS":
            return [ctx.binom(a, b) for ctx in self.ctxs]
        if func == "PSID":
            return [ctx.psi(a, b) for ctx in self.ctxs]
        return [ctx.psi1(a, b) for ctx in self.ctxs]

    def power_sum(self, base, terms, span):
        """By Horner's rule at each x when the base is an x-only value and
        the exponents are consecutive from a nonnegative one (the
        coefficients are free of x); term by term otherwise."""
        terms = list(terms)
        exps = [e for _, e in terms]
        lo = exps[0]
        if type(base) is not tuple or lo < 0 or exps != list(range(lo, lo + len(exps))):
            acc = 0
            for c, e in terms:
                acc = self.add(acc, self.mul(c, self.power(base, e, span)))
            return acc
        coeffs = [c for c, _ in terms]
        if all(type(c) is not list for c in coeffs):
            return _horner_row(coeffs, lo, base)
        m = len(self.ctxs)
        rows = zip(*[c if type(c) is list else [c] * m for c in coeffs])
        return [_horner_row(row, lo, base) for row in rows]


def _walk(side: Side, n: int, params: Params, ctxs=(), xs=(), shared=False):
    """The side's value at n over the grid ``ctxs`` x ``xs`` (see ``_Grid``)."""
    return compiled(side.ast)(_Grid(ctxs, xs, shared), {**params, "n": n})


def _derived(lhs: Side, rhs: Side, n: int, params: Params):
    """``degrees.cell_bound`` of a cell, with no walk when the sides'
    symbols settle it: free of s and x, the difference has degree 0 in
    both."""
    if not lhs.symbols and not rhs.symbols:
        return (0, 0), ((), ())
    # imported on first use, so that a process that only imports the
    # oracle does not compile the analysis
    from .degrees import cell_bound

    return cell_bound(lhs, rhs, n, tuple(sorted(params.items())))


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
    """(bs, bx) of the entry's sides at n, its default right side and no
    parameters: bounds on the degrees in s and in x of the numerator of
    L - R over the lcm of the two sides' denominators, derived from the
    statements (``hforge.degrees``).  Agreement on a grid of bs+1 values
    of s by bx+1 values of x proves the identity."""
    if n < entry.n_min:
        raise ValueError(f"n must be >= {entry.n_min} for {entry.tag}")
    return _derived(entry.lhs, entry.rhs, n, {})[0]


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
    rhs = entry.rhs_for(variant)
    (bs, bx), poles = _derived(entry.lhs, rhs, n, params)
    ctxs = [_point_ctx(sv) for sv in range(1, bs + 2)]
    xs = [Fraction(xv) for xv in range(1, bx + 2)]
    # the proof needs a positive grid of at least (bs+1) x (bx+1) points,
    # none of them at a pole
    if min(ctx.s for ctx in ctxs) <= 0 or min(xs) <= 0:
        raise RuntimeError(f"{entry.tag}: sample points must be positive")
    if len(ctxs) * len(xs) < (bs + 1) * (bx + 1):
        raise RuntimeError(f"{entry.tag}: sample grid below the degree bound")
    for var, at, values in zip("sx", poles, ([ctx.s for ctx in ctxs], xs)):
        hit = sorted(set(at).intersection(values))
        if hit:
            raise ZeroDivisionError(
                f"{entry.tag}: the sample grid meets the pole {var} = {hit[0]}"
            )
    lhs_v = _walk(entry.lhs, n, params, ctxs, xs, shared=True)
    rhs_v = _walk(rhs, n, params, ctxs, xs, shared=True)
    points: list[tuple[Fraction, Fraction]] = []
    all_equal = True
    for i, ctx in enumerate(ctxs):
        for j, x in enumerate(xs):
            points.append((ctx.s, x))
            if _at(lhs_v, i, j) != _at(rhs_v, i, j):
                all_equal = False
    return SampleCertificate(
        id=entry.tag,
        n=n,
        sample_points=tuple(points),
        degree_bound=(bs, bx),
        all_equal=all_equal,
    )


# The last cell walked over ``INTEGER_S_POINTS``: its entry and its verdict
# at each point, or None if the walk raised.
_CELL = KeyedMemo()


def integer_s_memo_info() -> MemoInfo:
    """Hit, miss and entry counts of the integer-s oracle's one-cell memo."""
    return _CELL.info()


def _integer_s_walk(entry: IdentityEntry, n: int, params: Params, rhs: Side, points):
    """The verdict at each s0 of ``points``, from one walk of each side
    over all of them and the x grid."""
    ctxs = [_IntegerSCtx(s0) for s0 in points]
    # only the x grid is needed here, and a side free of x has degree 0 in x
    bx = 0
    if "x" in entry.lhs.symbols | rhs.symbols:
        bx = _derived(entry.lhs, rhs, n, params)[0][1]
    xs = [Fraction(xv) for xv in range(1, bx + 2)]
    lhs_v = _walk(entry.lhs, n, params, ctxs, xs)
    rhs_v = _walk(rhs, n, params, ctxs, xs)
    return [
        all(_at(lhs_v, i, j) == _at(rhs_v, i, j) for j in range(len(xs)))
        for i in range(len(ctxs))
    ]


def integer_s_check(
    entry: IdentityEntry,
    n: int,
    s0: int,
    params: Params | None = None,
    variant: str | None = None,
) -> bool:
    """Evaluate both sides at integer s = s0 using only harmonic-number
    arithmetic; bivariate entries are compared across an x grid.

    At an s0 of ``INTEGER_S_POINTS`` one walk answers for all four points
    of the cell, and the verdicts are kept until another cell is asked
    for; the memo knows the entry by identity, not by tag.  If that walk
    raises, each point is walked alone and raises or answers for itself."""
    if "s" not in entry.domain:
        raise ValueError(f"{entry.tag} has no s dependence")
    params = dict(params or {})
    entry.validate(n, params)
    _check_s0(s0)
    rhs = entry.rhs_for(variant)
    if s0 in INTEGER_S_POINTS:
        key = (n, tuple(sorted(params.items())), variant)
        cell = _CELL.get(key)
        if cell is not None and cell[0] is entry:
            _CELL.hits += 1
        else:
            _CELL.misses += 1
            try:
                verdicts = _integer_s_walk(entry, n, params, rhs, INTEGER_S_POINTS)
            except (ArithmeticError, ValueError):
                verdicts = None
            _CELL.clear()
            cell = _CELL[key] = (entry, verdicts)
        if cell[1] is not None:
            return cell[1][INTEGER_S_POINTS.index(s0)]
    return _integer_s_walk(entry, n, params, rhs, (s0,))[0]


def _annotate_disagreement(row: ReportRow, mode: str, **where) -> ReportRow:
    params = {**row.params, "oracle_disagreement": mode, **where}
    return replace(row, params=params, passed=False, expected_fail=False)


def fold_oracle(entry: IdentityEntry, row: ReportRow, mode: str) -> ReportRow:
    """Cross-check the symbolic verdict of ``entry``'s cell in ``row``
    against the independent paths that ``mode`` names; a disagreement
    turns the row into a hard failure.  ``entry`` is the one the row
    proved, whether or not the catalog holds it."""
    params = {k: v for k, v in row.params.items() if k != "variant"}
    variant = row.params.get("variant")
    if mode in ("sampling", "both"):
        cert = sampling_verify(entry, row.n, params, variant=variant)
        if cert.all_equal != row.passed:
            return _annotate_disagreement(row, "sampling")
    if mode in ("integer-s", "both") and "s" in entry.domain:
        for s0 in INTEGER_S_POINTS:
            if integer_s_check(entry, row.n, s0, params, variant=variant) != row.passed:
                return _annotate_disagreement(row, "integer-s", oracle_s0=s0)
    return row
