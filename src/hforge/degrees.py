"""The degree-and-pole analysis that sizes the sampling oracle's grids.

The analysis is one more arithmetic (``alg``) for a side's compiled form
(``dsl.compiled``).  A value that carries s or x is ``fac * P / (den * Q)``:
fac and den are products of linear factors v + j (v is s or x, j an int),
and P and Q are polynomials known only by a bound on their degree in each
variable.  Scalars stay exact, as the grid's ints and ``_Rat``s, so a zero
is known, and an exact affine value such as ``1 + x`` becomes a key when
it is inverted.  The rules:

* ``CS(a, k)`` puts its k zeros s + a - k + 1 .. s + a in fac;
* ``PSID(a, b)`` and ``PSI1D(a, b)`` put their poles s + b .. s + a - 1 in
  den, once or twice, over a P of degree one or two below the den's;
* a product adds the keys and cancels fac against den;
* a sum takes the lcm of the dens and keeps the fac common to both.

``cell_bound`` runs both sides of a cell and bounds the numerator of
L - R over the lcm of their dens.  If L != R, that numerator is a nonzero
polynomial within these degrees, so it does not vanish at every point of a
grid of bs + 1 values of s by bx + 1 values of x (Alon, Combinatorial
Nullstellensatz, 1999, Lemma 2.1).  Agreement on such a grid, where no
side meets a pole, is a proof.  The keys of that lcm which vanish at a
positive integer are the poles that the grid must avoid.

Only the oracle uses this module, and it imports it on first use: the
analysis is not compiled in a process that never sizes a grid.  The
shared sub-products of the sides are analysed once per key, and each
cell's bound once per process, in the memos ``degrees.forms`` and
``degrees.cells`` (see ``special.memo_info``).
"""

from __future__ import annotations

import functools

from .dsl.compiled import compiled
from .oracle import _div, _Rat, _rat, _scalar_call
from .special import KeyedMemo, register_memo

# Degrees in s and in x never mix, so each variable of a value has a
# record of its own, a tuple (keys, net, p, q): ``keys`` maps j to the
# multiplicity of v + j, positive in fac and negative in den, ``net`` is
# the sum of those multiplicities, and p and q bound the degrees of P and
# Q in v.  Records and their dicts are shared and never changed.

_FREE = ({}, 0, 0, 0)  # the record of a variable that a value lacks


def _rec_mul(a, b):
    """The record of a product: multiplicities add, so a zero of one
    factor cancels a pole of the other."""
    if b is _FREE:
        return a
    if a is _FREE:
        return b
    ka, kb = a[0], b[0]
    if len(ka) < len(kb):
        ka, kb = kb, ka
    keys = dict(ka)
    for j, m in kb.items():
        m += keys.get(j, 0)
        if m:
            keys[j] = m
        else:
            del keys[j]
    return keys, a[1] + b[1], a[2] + b[2], a[3] + b[3]


def _rec_sum(a, b):
    """The record of a sum: each key keeps the smaller multiplicity of
    the two, which is the lcm of the dens and the fac common to both.
    What is left of each term, times the other's Q, goes into P."""
    if a == b and not a[3]:
        return a
    ka, kb = a[0], b[0]
    if ka == kb:
        keys, net = ka, a[1]
    else:
        keys = {}
        for j, m in ka.items():
            k = kb.get(j, 0)
            if k < m:
                m = k
            if m:
                keys[j] = m
        for j, m in kb.items():
            if m < 0 and j not in ka:
                keys[j] = m
        net = sum(keys.values())
    p = max(a[2] + a[1] + b[3], b[2] + b[1] + a[3]) - net
    return keys, net, p, a[3] + b[3]


def _rec_power(a, e: int):
    """The record of a value raised to e >= 1, or of its inverse at e = -1."""
    if a is _FREE:
        return a
    keys, net, p, q = a
    if e == -1:
        return {j: -m for j, m in keys.items()}, -net, q, p
    return {j: m * e for j, m in keys.items()}, net * e, p * e, q * e


def _numerator_degree(rec) -> int:
    """A bound on the degree of fac * P."""
    return rec[2] + sum(m for m in rec[0].values() if m > 0)


class Form:
    """A value that carries s or x, as its records in s and in x."""

    __slots__ = ("s", "x")

    def __init__(self, s, x):
        self.s = s
        self.x = x


class Lin:
    """The exact affine value c + cs*s + cx*x, cs or cx nonzero."""

    __slots__ = ("c", "cs", "cx")

    def __init__(self, c, cs, cx):
        self.c = c
        self.cs = cs
        self.cx = cx


_CONST = Form(_FREE, _FREE)  # a nonzero scalar, as a Form


def _linear(c, a):
    """The record of a*v + c, a nonzero: one key when c/a is an int."""
    j = _div(c, a)
    if j.denominator == 1:
        return {j.numerator: 1}, 1, 0, 0
    return {}, 0, 1, 0


def _as_form(v) -> Form:
    """A value other than a zero scalar as a Form."""
    t = type(v)
    if t is Form:
        return v
    if t is not Lin:
        return _CONST
    if v.cx == 0:
        return Form(_linear(v.c, v.cs), _FREE)
    if v.cs == 0:
        return Form(_FREE, _linear(v.c, v.cx))
    return Form(({}, 0, 1, 0), ({}, 0, 1, 0))


def _inverse(v) -> Form:
    v = _as_form(v)
    return Form(_rec_power(v.s, -1), _rec_power(v.x, -1))


def _scaled(v, c):
    """A Form or Lin times the scalar c."""
    if c == 0:
        return 0
    if type(v) is Lin:
        return Lin(c * v.c, c * v.cs, c * v.cx)
    return v


def _neg(a):
    t = type(a)
    if t is Form:
        return a
    if t is Lin:
        return Lin(-a.c, -a.cs, -a.cx)
    return -a


def _add(a, b):
    ta, tb = type(a), type(b)
    if ta is Form or tb is Form:
        if ta is not Form and ta is not Lin and a == 0:
            return b
        if tb is not Form and tb is not Lin and b == 0:
            return a
        a, b = _as_form(a), _as_form(b)
        return Form(_rec_sum(a.s, b.s), _rec_sum(a.x, b.x))
    if ta is Lin or tb is Lin:
        c, cs, cx = (a.c, a.cs, a.cx) if ta is Lin else (a, 0, 0)
        if tb is Lin:
            c, cs, cx = c + b.c, cs + b.cs, cx + b.cx
        else:
            c += b
        return Lin(c, cs, cx) if cs != 0 or cx != 0 else c
    return a + b


def _mul(a, b):
    ta, tb = type(a), type(b)
    if ta is int or ta is _Rat:
        if tb is int or tb is _Rat:
            return a * b
        return _scaled(b, a)
    if tb is int or tb is _Rat:
        return _scaled(a, b)
    a, b = _as_form(a), _as_form(b)
    return Form(_rec_mul(a.s, b.s), _rec_mul(a.x, b.x))


class _Degrees:
    """The analysis as the ``alg`` of a compiled form: exact scalars (int
    and ``_Rat``, as on the oracle's grid), ``Lin`` and ``Form``."""

    s = Lin(0, 1, 0)
    x = Lin(0, 0, 1)
    rat = staticmethod(_rat)
    neg = staticmethod(_neg)
    add = staticmethod(_add)
    mul = staticmethod(_mul)

    @staticmethod
    def sub(a, b):
        return _add(a, _neg(b))

    @staticmethod
    def div(a, b, span):
        if type(b) is Form or type(b) is Lin:
            return _mul(a, _inverse(b))
        if b == 0:
            raise ZeroDivisionError("division by zero")
        if type(a) is Form or type(a) is Lin:
            return _scaled(a, _div(1, b))
        return _div(a, b)

    @staticmethod
    def power(a, e: int, span):
        if type(a) is Form or type(a) is Lin:
            if e == 0:
                return 1
            if e == 1:
                return a
            v = _as_form(a) if e > 0 else _inverse(a)
            e = abs(e)
            return v if e == 1 else Form(_rec_power(v.s, e), _rec_power(v.x, e))
        if e < 0:
            return _rat(a) ** e
        return a**e

    @staticmethod
    def call(func: str, args: list[int], span):
        value = _scalar_call(func, args)
        if value is not None:
            return value
        a, b = args
        if func == "CS":
            if b == 0:
                return 1
            return Form((dict.fromkeys(range(a - b + 1, a + 1), 1), b, 0, 0), _FREE)
        if a == b:
            return 0
        m = 1 if func == "PSID" else 2
        k = a - b
        return Form((dict.fromkeys(range(b, a), -m), -m * k, m * (k - 1), 0), _FREE)

    def power_sum(self, base, terms, span):
        acc = 0
        for c, e in terms:
            acc = _add(acc, _mul(c, self.power(base, e, span)))
        return acc

    @staticmethod
    def shared(key, run, env, of_x):
        """``run(alg, env)``, analysed once per key in the process."""
        return _FORMS.lookup(key, run, _DEGREES, env)


_DEGREES = _Degrees()
# The shared sub-products of the sides (see ``dsl.compiled``), analysed.
_FORMS = KeyedMemo("degrees.forms")


def analyse(ast, n: int, params):
    """A checked tree's value at n in the analysis: a scalar, a ``Lin``
    or a ``Form``."""
    return compiled(ast)(_DEGREES, {**params, "n": n})


def numerator_degrees(value) -> tuple[int, int]:
    """Bounds on the degrees in s and in x of a value's numerator."""
    t = type(value)
    if t is Form:
        return _numerator_degree(value.s), _numerator_degree(value.x)
    if t is Lin:
        return int(value.cs != 0), int(value.cx != 0)
    return 0, 0


def poles(value) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The positive integers s and x at which a den key of the value
    vanishes."""
    if type(value) is not Form:
        return (), ()
    return tuple(
        tuple(sorted(-j for j, m in rec[0].items() if m < 0 and j < 0))
        for rec in (value.s, value.x)
    )


@register_memo("degrees.cells")
@functools.lru_cache(maxsize=None)
def cell_bound(lhs, rhs, n: int, params: tuple):
    """((bs, bx), poles) of L - R at n, for the ``catalog.Side``s lhs and
    rhs and the sorted parameter items: the degrees of its numerator over
    the lcm of the two sides' dens, and the ``poles`` of that lcm."""
    params = dict(params)
    diff = _Degrees.sub(analyse(lhs.ast, n, params), analyse(rhs.ast, n, params))
    return numerator_degrees(diff), poles(diff)
