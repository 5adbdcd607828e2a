"""One compiled form per checked expression tree.

``compiled(ast)`` walks the tree once and keeps on it ``run(alg, env)``.
``env`` binds ``n``, the parameters and the sum binders to ints.  ``alg``
(exact in ``dsl.evaluator``, a sample grid in ``oracle._Grid``) does all
of the arithmetic: ``s``, ``x``, ``rat(fraction)``, ``call(func, ints,
span)``, ``neg``, ``add``, ``sub``, ``mul``, ``div(a, b, span)`` (raising
on a zero b), ``power(a, e, span)`` and ``power_sum(base, terms, span)``,
the sum of ``c * base ** e`` over a nonempty iterator of ``(c, e)``.

The walk settles the rest.  ``s`` and ``x`` are ``alg``'s, other names
``env``'s.  Free names (``CS``, ``PSID`` and ``PSI1D`` use s) steer the
compile and are not kept.  A ``*``/``/`` chain applies its factors free of s and x
first, in source order, and splits a quotient only where it is not a
divisor, so every zero divisor raises (``a/(b/c)`` divides by ``b/c``).
A divisor ``b^e`` multiplies by ``(1/b)^e``, keeping b a factor of a
factored denominator, or by ``b^0`` at e = 0, so ``1/(0^0)`` is 1.  A sum
of ``c(k) * b^e(k)``, c free of x and b of the binder, is a
``power_sum``.  A non-int sum bound, exponent or builtin argument, and a
name ``env`` lacks, raise :class:`EvalError`.  There is no arithmetic
here, and no import from ``bivar``, ``exact``, ``special`` or
``dsl.evaluator``.
"""

from __future__ import annotations

from .checker import _BUILTIN_RESULT, RATFUNC
from .nodes import Add, Call, Div, IntLit, Mul, Neg, Pow, RatLit, Span, Sub, Sum, Var

_NONE = frozenset()
_OF_S = frozenset(f for f, d in _BUILTIN_RESULT.items() if d == RATFUNC)


class EvalError(Exception):
    """Runtime evaluation failure, located by source span."""

    def __init__(self, message: str, span: Span):
        super().__init__(message)
        self.message = message
        self.span = span


def compiled(ast):
    """The tree's ``run(alg, env)``, compiled on first use."""
    run = getattr(ast, "_run", None)
    if run is None:
        run = ast._run = _compile(ast)[0]
    return run


def _int(value, what: str, span: Span) -> int:
    if type(value) is not int:
        raise EvalError(f"{what} did not evaluate to an integer", span)
    return value


def _compile(node):
    """``(run, free names)`` of a subtree."""
    kind = type(node)
    if kind is IntLit:
        value = node.value
        return (lambda alg, env: value), _NONE
    if kind is RatLit:
        value = node.value
        return (lambda alg, env: alg.rat(value)), _NONE
    if kind is Var:
        return _name(node.name, node.span)
    if kind is Neg:
        child, free = _compile(node.child)
        return (lambda alg, env: alg.neg(child(alg, env))), free
    if kind is Add or kind is Sub:
        (left, lf), (right, rf) = _compile(node.left), _compile(node.right)
        if kind is Add:
            return (lambda alg, env: alg.add(left(alg, env), right(alg, env))), lf | rf
        return (lambda alg, env: alg.sub(left(alg, env), right(alg, env))), lf | rf
    if kind is Mul or kind is Div:
        return _product(node)
    if kind is Pow:
        (base, bf), (exponent, ef) = _compile(node.base), _compile(node.exponent)
        return _power(node, base, exponent), bf | ef
    if kind is Sum:
        return _sum(node)
    if kind is Call:
        return _call(node)
    raise TypeError(f"cannot compile {kind.__name__}")


def _name(name: str, span: Span):
    if name in ("s", "x"):
        return (lambda alg, env: getattr(alg, name)), frozenset((name,))

    def run(alg, env):
        try:
            return env[name]
        except KeyError:
            raise EvalError(f"unbound variable {name!r}", span) from None

    return run, frozenset((name,))


def _call(node: Call):
    func, span, what = node.func, node.span, f"argument of {node.func}"
    args = [(*_compile(arg), arg.span) for arg in node.args]
    runs = tuple((run, arg_span) for run, _, arg_span in args)
    free = frozenset(("s",) if func in _OF_S else ()).union(*(f for _, f, _ in args))

    def run(alg, env):
        return alg.call(func, [_int(arg(alg, env), what, s) for arg, s in runs], span)

    return run, free


def _power(node: Pow, base, exponent, inverted: bool = False):
    """``b^e``, or as a divisor its inverse ``(1/b)^e`` (``b^0`` at e = 0)."""
    span, base_span, exponent_span = node.span, node.base.span, node.exponent.span

    def run(alg, env):
        e = _int(exponent(alg, env), "exponent", exponent_span)
        b = base(alg, env)
        return alg.power(alg.div(1, b, base_span) if inverted and e else b, e, span)

    return run


def _factors(node, inverted: bool, out: list) -> list:
    """The factors of a product chain as (node, inverted) pairs, in order."""
    kind = type(node)
    if kind is Mul or (kind is Div and not inverted):
        _factors(node.left, inverted, out)
        _factors(node.right, inverted or kind is Div, out)
    else:
        out.append((node, inverted))
    return out


def _factor(node, inverted: bool):
    """``(free names, run, span)``: the product is multiplied by ``run``'s
    value, or divided by it when ``span`` (the divisor's) is not None."""
    if inverted and type(node) is Pow:
        (base, bf), (exponent, ef) = _compile(node.base), _compile(node.exponent)
        return bf | ef, _power(node, base, exponent, inverted=True), None
    run, free = _compile(node)
    return free, run, node.span if inverted else None


def _product(node):
    """A chain of ``*`` and ``/``, applying its factors free of s and x first."""
    chain = [_factor(f, inverted) for f, inverted in _factors(node, False, [])]
    ordered = sorted(chain, key=lambda c: "s" in c[0] or "x" in c[0])
    (_, first, first_span), rest = ordered[0], tuple(c[1:] for c in ordered[1:])

    def run(alg, env):
        acc = first(alg, env)
        if first_span is not None:
            acc = alg.div(1, acc, first_span)
        for factor, span in rest:
            v = factor(alg, env)
            acc = alg.mul(acc, v) if span is None else alg.div(acc, v, span)
        return acc

    return run, _NONE.union(*(free for free, _, _ in chain))


def _sum(node: Sum):
    (lo, lf), (hi, hf) = _compile(node.lo), _compile(node.hi)
    binder, span, body = node.binder, node.span, node.body

    def bounds(alg, env) -> range:
        bottom = _int(lo(alg, env), "sum bound", span)
        return range(bottom, _int(hi(alg, env), "sum bound", span) + 1)

    if type(body) is Mul and type(body.right) is Pow:
        power = body.right
        (coeff, cf), (base, bf), (exponent, ef) = map(
            _compile, (body.left, power.base, power.exponent)
        )
        free = cf | bf | ef
        if "x" not in cf and binder not in bf:
            exponent_span = power.exponent.span

            def terms(alg, inner, ks):
                for k in ks:
                    inner[binder] = k
                    e = _int(exponent(alg, inner), "exponent", exponent_span)
                    yield coeff(alg, inner), e

            def run(alg, env):
                ks = bounds(alg, env)
                if not ks:
                    return 0
                return alg.power_sum(base(alg, env), terms(alg, dict(env), ks), power.span)

            return run, lf | hf | (free - {binder})
        term = _power(power, base, exponent)

        def body_run(alg, env):
            return alg.mul(coeff(alg, env), term(alg, env))

    else:
        body_run, free = _compile(body)

    def run(alg, env):
        acc, inner = 0, dict(env)
        for k in bounds(alg, env):
            inner[binder] = k
            acc = alg.add(acc, body_run(alg, inner))
        return acc

    return run, lf | hf | (free - {binder})
