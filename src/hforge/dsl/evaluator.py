"""Evaluator from checked expression trees into exact bivariate values.

Integer- and rational-domain subtrees evaluate in plain int/Fraction
arithmetic; anything touching ``s`` or ``x`` evaluates through the
factored-denominator accumulator so sums over ``1/(s+j)``- and
``1/(1+x)``-shaped terms keep structured denominators instead of
cross-multiplying.  Runtime failures (division by an identically-zero
denominator, out-of-range builtin arguments) carry the source span of
the offending node.
"""

from __future__ import annotations

import time
from fractions import Fraction
from typing import Dict, Iterable, Mapping, Optional, Union

from ..bivar import BiFrac, FactoredFrac
from ..exact import ZeroDenominatorError
from ..report import Report, ReportRow, make_witness
from ..special import (
    binom_factor,
    binom_int,
    harmonic,
    harmonic_gen,
    psi1_factor,
    psi_factor,
)
from .nodes import (
    Add,
    Call,
    Div,
    Expr,
    Identity,
    IntLit,
    Mul,
    Neg,
    Pow,
    RatLit,
    Span,
    Sub,
    Sum,
    Var,
)

Value = Union[int, Fraction, FactoredFrac]
Env = Dict[str, int]


class EvalError(Exception):
    """Runtime evaluation failure, located by source span."""

    def __init__(self, message: str, span: Span):
        super().__init__(message)
        self.message = message
        self.span = span


def _scalar(v: Value) -> bool:
    return isinstance(v, (int, Fraction))


def _ev(node: Expr, env: Env) -> Value:
    if isinstance(node, IntLit):
        return node.value
    if isinstance(node, RatLit):
        return node.value
    if isinstance(node, Var):
        bound = env.get(node.name)
        if bound is not None:
            return bound
        if node.name == "s":
            return FactoredFrac.var_s()
        if node.name == "x":
            return FactoredFrac.var_x()
        raise EvalError(f"unbound variable {node.name!r}", node.span)
    if isinstance(node, Neg):
        return -_ev(node.child, env)
    if isinstance(node, Add):
        return _ev(node.left, env) + _ev(node.right, env)
    if isinstance(node, Sub):
        return _ev(node.left, env) - _ev(node.right, env)
    if isinstance(node, Mul):
        return _ev(node.left, env) * _ev(node.right, env)
    if isinstance(node, Div):
        numer = _ev(node.left, env)
        inverse = _ev_inverse(node.right, env)
        if _scalar(numer) and _scalar(inverse):
            return Fraction(numer) * Fraction(inverse)
        return numer * inverse
    if isinstance(node, Pow):
        e = _ev(node.exponent, env)
        if not isinstance(e, int):
            raise EvalError(
                "exponent did not evaluate to an integer", node.exponent.span
            )
        base = _ev(node.base, env)
        if _scalar(base):
            if e >= 0:
                return base ** e
            if base == 0:
                raise EvalError(
                    "zero cannot be raised to a negative power", node.span
                )
            return Fraction(base) ** e
        try:
            return base ** e
        except ZeroDenominatorError:
            raise EvalError(
                "zero cannot be raised to a negative power", node.span
            ) from None
    if isinstance(node, Sum):
        lo = _ev(node.lo, env)
        hi = _ev(node.hi, env)
        if not isinstance(lo, int) or not isinstance(hi, int):
            raise EvalError(
                "sum bounds did not evaluate to integers", node.span
            )
        acc: Value = 0
        inner = dict(env)
        for j in range(lo, hi + 1):
            inner[node.binder] = j
            acc = acc + _ev(node.body, inner)
        return acc
    if isinstance(node, Call):
        return _ev_call(node, env)
    raise EvalError(f"cannot evaluate {type(node).__name__}", node.span)


def _ev_inverse(node: Expr, env: Env) -> Value:
    """Evaluate 1/node, descending products and powers so denominator
    factors like (1+x)^k stay structurally shared."""
    if isinstance(node, Mul):
        return _ev_inverse(node.left, env) * _ev_inverse(node.right, env)
    if isinstance(node, Div):
        right = _ev(node.right, env)
        if _scalar(right) and right == 0 or (
            isinstance(right, FactoredFrac) and right.is_zero()
        ):
            raise EvalError("division by zero", node.right.span)
        return _ev_inverse(node.left, env) * right
    if isinstance(node, Neg):
        return -_ev_inverse(node.child, env)
    if isinstance(node, Pow):
        e = _ev(node.exponent, env)
        if not isinstance(e, int):
            raise EvalError(
                "exponent did not evaluate to an integer", node.exponent.span
            )
        if e == 0:
            return 1
        base_inv = _ev_inverse(node.base, env)
        if _scalar(base_inv):
            return Fraction(base_inv) ** e
        return base_inv ** e
    value = _ev(node, env)
    if _scalar(value):
        if value == 0:
            raise EvalError("division by zero", node.span)
        return Fraction(1) / Fraction(value)
    if value.is_zero():
        raise EvalError(
            "division by an identically-zero denominator", node.span
        )
    try:
        return value.inverse()
    except ZeroDenominatorError:
        raise EvalError(
            "division by an identically-zero denominator", node.span
        ) from None


def _int_args(node: Call, env: Env) -> list[int]:
    vals = []
    for arg in node.args:
        v = _ev(arg, env)
        if not isinstance(v, int):
            raise EvalError(
                f"argument of {node.func} did not evaluate to an integer",
                arg.span,
            )
        vals.append(v)
    return vals


def _ev_call(node: Call, env: Env) -> Value:
    args = _int_args(node, env)
    try:
        if node.func == "H":
            return harmonic(args[0])
        if node.func == "Hr":
            return harmonic_gen(args[0], args[1])
        if node.func == "C":
            return binom_int(args[0], args[1])
        if node.func == "CS":
            return binom_factor(args[0], args[1])
        if node.func == "PSID":
            return psi_factor(args[0], args[1])
        if node.func == "PSI1D":
            return psi1_factor(args[0], args[1])
    except ValueError as exc:
        raise EvalError(str(exc), node.span) from None
    raise EvalError(f"unknown builtin {node.func!r}", node.span)


def eval(
    ast: Expr, n: int, bindings: Optional[Mapping[str, int]] = None
) -> BiFrac:
    """Evaluate a checked expression at integer n (s and x symbolic)."""
    if isinstance(ast, Identity):
        raise ValueError("evaluate one side of an identity at a time")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
    env: Env = {"n": n}
    if bindings:
        for name, value in bindings.items():
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"binding {name!r} must be an integer")
            env[name] = value
    value = _ev(ast, env)
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
