"""The exact arithmetic of the symbolic route, and ``eval``.

``eval`` runs a tree's compiled form (``dsl.compiled``) on ``_Exact``:
integers and rationals stay int/Fraction, and a value with s or x is a
factored-denominator accumulator, so sums over ``1/(s+j)``- and
``1/(1+x)``-shaped terms keep structured denominators instead of
cross-multiplying.  The sub-products that the compiled form shares are
kept process-wide; ``product_memo_info`` reports their use and
``special.clear_memos`` empties them.  Errors carry the span of the node
at fault.
"""

from __future__ import annotations

import operator
import time
from fractions import Fraction
from typing import Iterable, Mapping, Optional

from ..bivar import BiFrac, FactoredFrac
from ..exact import ZeroDenominatorError
from ..report import Report, ReportRow, make_witness
from ..special import (
    KeyedMemo,
    MemoInfo,
    binom_factor,
    binom_int,
    harmonic,
    harmonic_gen,
    psi1_factor,
    psi_factor,
)
from .compiled import EvalError, compiled
from .nodes import Expr, Identity


class _Exact:
    """Exact arithmetic on int, Fraction and FactoredFrac: the ``alg``
    that ``eval`` runs a compiled form on (see ``dsl.compiled``)."""

    s, x = FactoredFrac.var_s(), FactoredFrac.var_x()
    neg, add, sub, mul = operator.neg, operator.add, operator.sub, operator.mul

    def rat(self, value: Fraction) -> Fraction:
        return value

    def call(self, func: str, args: list, span):
        try:
            if func == "H":
                return harmonic(*args)
            if func == "Hr":
                return harmonic_gen(*args)
            if func == "C":
                return binom_int(*args)
            if func == "CS":
                return binom_factor(*args)
            if func == "PSID":
                return psi_factor(*args)
            if func == "PSI1D":
                return psi1_factor(*args)
        except ValueError as exc:
            raise EvalError(str(exc), span) from None
        raise EvalError(f"unknown builtin {func!r}", span)

    def div(self, a, b, span):
        if isinstance(b, FactoredFrac):
            if b.is_zero():
                raise EvalError("division by an identically-zero denominator", span)
            return a * b.inverse()
        if b == 0:
            raise EvalError("division by zero", span)
        if isinstance(a, FactoredFrac):
            return a * (Fraction(1, b) if type(b) is int else 1 / b)
        return Fraction(a, b) if type(a) is int and type(b) is int else a / b

    def shared(self, key, run, env, of_x):
        """``run(self, env)``, computed once per key in the process."""
        value = _PRODUCTS.get(key)
        if value is None:
            _PRODUCTS.misses += 1
            value = _PRODUCTS[key] = run(self, env)
        else:
            _PRODUCTS.hits += 1
        return value

    def power(self, base, e: int, span):
        if isinstance(base, FactoredFrac):
            try:
                return base ** e
            except ZeroDenominatorError:
                pass
        elif e >= 0:
            return base ** e
        elif base != 0:
            return Fraction(base) ** e
        raise EvalError("zero cannot be raised to a negative power", span)

    def power_sum(self, base, terms, span):
        return sum((c * self.power(base, e, span) for c, e in terms), 0)


_EXACT = _Exact()
# The sub-products that ``dsl.compiled`` shares, by source text and bindings.
_PRODUCTS = KeyedMemo()


def product_memo_info() -> MemoInfo:
    """Hit, miss and entry counts of the shared sub-product memo."""
    return _PRODUCTS.info()


def eval(
    ast: Expr, n: int, bindings: Optional[Mapping[str, int]] = None
) -> BiFrac:
    """Evaluate a checked expression at integer n (s and x symbolic)."""
    if isinstance(ast, Identity):
        raise ValueError("evaluate one side of an identity at a time")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
    env = {"n": n}
    if bindings:
        for name, value in bindings.items():
            if name in ("n", "s", "x"):
                raise ValueError(f"binding {name!r} names a free variable")
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"binding {name!r} must be an integer")
            env[name] = value
    value = compiled(ast)(_EXACT, env)
    if isinstance(value, FactoredFrac):
        return value.to_bifrac()
    return BiFrac.from_rational(value)


def check_identity(
    lhs: Expr,
    rhs: Expr,
    n_range: Iterable[int],
    *,
    name: str = "identity",
) -> Report:
    """Cross-multiplied equality of the two sides for each n in range."""
    report = Report()
    for n in n_range:
        start = time.perf_counter_ns()
        left = eval(lhs, n)
        right = eval(rhs, n)
        passed = left == right
        elapsed = time.perf_counter_ns() - start
        witness = None if passed else make_witness(left, right)
        report.add(
            ReportRow(
                id=name,
                n=n,
                params={},
                passed=passed,
                witness=witness,
                elapsed_ns=elapsed,
            )
        )
    return report
