"""One compiled form per checked expression tree.

``compiled(ast)`` walks the tree once and keeps on it ``run(alg, env)``.
``env`` binds ``n``, the parameters and the sum binders to ints.  ``alg``
(exact in ``dsl.evaluator``, a sample grid in ``oracle._Grid``) does all
of the arithmetic: ``s``, ``x``, ``rat(fraction)``, ``call(func, ints,
span)``, ``neg``, ``add``, ``sub``, ``mul``, ``div(a, b, span)`` (raising
on a zero b), ``power(a, e, span)``, ``power_sum(base, terms, span)``,
the sum of ``c * base ** e`` over a nonempty iterator of ``(c, e)``, and
``shared(key, run, env, of_x)``, which gives ``run(alg, env)`` or a value
it kept for ``key`` (``of_x`` says whether it depends on x).

The walk settles the rest.  ``s`` and ``x`` are ``alg``'s, other names
``env``'s.  Free names (``CS``, ``PSID`` and ``PSI1D`` use s) steer the
compile and are not kept.  An integer subtree of literals, names, ``+``,
``-`` and negation is one closure, and the integer arguments of a
builtin, the bounds of a sum and an exponent of that shape are computed
by their parent's closure, with no closure of their own.

A ``*``/``/`` chain applies its factors free of s and x first, in source
order, and splits a quotient only where it is not a divisor, so every
zero divisor raises (``a/(b/c)`` divides by ``b/c``).  Then come the
factors that carry s or x, in source order; two or more of them are one
sub-product that the chain asks ``alg.shared`` for, keyed by their
source text with their divide flags and by the value of each name other
than s and x they read.  So a product such as ``CS(k,k)*PSID(k+1,1)`` is
built once for each k, whatever n, side or entry states it.  A divisor
``b^e`` multiplies by ``(1/b)^e``, keeping b a factor of a factored
denominator, or by ``b^0`` at e = 0, so ``1/(0^0)`` is 1.  A sum of
``c(k) * b^e(k)``, c free of x and b of the binder, is a ``power_sum``.
A non-int sum bound, exponent or builtin argument, and a name ``env``
lacks, raise :class:`EvalError`.  There is no arithmetic here, and no
import from ``bivar``, ``exact``, ``special`` or ``dsl.evaluator``.
"""

from __future__ import annotations

from functools import partial

from .checker import _BUILTIN_RESULT, RATFUNC
from .nodes import (
    Add,
    Call,
    Div,
    IntLit,
    Mul,
    Neg,
    Pow,
    RatLit,
    Span,
    Sub,
    Sum,
    Var,
    iter_children,
)
from .printer import pretty_print

_NONE = frozenset()
_OF_S = frozenset(f for f, d in _BUILTIN_RESULT.items() if d == RATFUNC)


class EvalError(Exception):
    """Runtime evaluation failure, located by source span."""

    def __init__(self, message: str, span: Span):
        super().__init__(message)
        self.message = message
        self.span = span

    def __reduce__(self):
        # a pool worker's error reaches the parent with its span
        return type(self), (self.message, self.span)


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
    if kind in _AFFINE_KINDS:
        form = _affine(node)
        if form is not None:
            c, terms = form
            if not terms:
                return (lambda alg, env: c), _NONE
            forms, nodes = (form,), (node,)
            return (lambda alg, env: _ints(forms, nodes, alg, env)[0]), frozenset(
                name for name, _ in terms
            )
    if kind is RatLit:
        value = node.value
        return (lambda alg, env: alg.rat(value)), _NONE
    if kind is Var:  # s or x
        name = node.name
        return (lambda alg, env: getattr(alg, name)), frozenset((name,))
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
        return _power(node)
    if kind is Sum:
        return _sum(node)
    if kind is Call:
        return _call(node)
    raise TypeError(f"cannot compile {kind.__name__}")


def _affine(node):
    """``(c, terms)`` for an integer tree of literals, names other than s
    and x, ``+``, ``-`` and negation, whose value is c plus ``a *
    env[name]`` for each ``(name, a)`` of terms; None for any other tree."""
    kind = type(node)
    if kind is IntLit:
        return node.value, ()
    if kind is Var:
        name = node.name
        return None if name in ("s", "x") else _NAME_FORMS.setdefault(name, (0, ((name, 1),)))
    if kind is Neg:
        child = _affine(node.child)
        return child and _negated(child)
    if kind is Add or kind is Sub:
        left = _affine(node.left)
        right = left and _affine(node.right)
        if not right:
            return None
        if kind is Sub:
            right = _negated(right)
        return left[0] + right[0], left[1] + right[1]
    return None


_AFFINE_KINDS = (IntLit, Var, Neg, Add, Sub)
_NAME_FORMS: dict = {}  # one form per name, shared by every tree


def _negated(form):
    c, terms = form
    return -c, tuple((name, -a) for name, a in terms)


def _ints(forms, nodes, alg, env) -> list[int]:
    """The values of the ``_affine`` forms of ``nodes`` under ``env``."""
    out = []
    try:
        for c, terms in forms:
            for name, a in terms:
                c += a * env[name]
            out.append(c)
    except KeyError:
        _unbound(nodes, env)
        raise
    return out


def _unbound(nodes, env):
    """Raise for the first name, in source order, that ``env`` lacks."""
    for node in nodes:
        if type(node) is Var and node.name not in env:
            raise EvalError(f"unbound variable {node.name!r}", node.span)
        _unbound(iter_children(node), env)


def _integers(nodes, what: str, spans):
    """``(run, free names)`` of a list of integer-context subtrees: ``run``
    gives their values as a list of ints, raising at a subtree whose value
    is not one.  When every subtree has the ``_affine`` shape, ``run``
    computes them all itself and no subtree gets a closure of its own."""
    forms = tuple(map(_affine, nodes))
    if None not in forms:
        free = frozenset(name for _, terms in forms for name, _ in terms)
        return partial(_ints, forms, nodes), free
    subtrees = [_compile(node) for node in nodes]
    runs = tuple((run, span) for (run, _), span in zip(subtrees, spans))
    free = _NONE.union(*(f for _, f in subtrees))
    return (lambda alg, env: [_int(run(alg, env), what, s) for run, s in runs]), free


def _call(node: Call):
    func, span = node.func, node.span
    args, free = _integers(node.args, f"argument of {func}", [a.span for a in node.args])
    if func in _OF_S:
        free |= {"s"}
    return (lambda alg, env: alg.call(func, args(alg, env), span)), free


def _power(node: Pow, inverted: bool = False, base=None):
    """``(run, free names)`` of ``b^e``, or as a divisor of its inverse
    ``(1/b)^e`` (``b^0`` at e = 0); ``base`` is the compiled base when
    the caller has it."""
    span, base_span = node.span, node.base.span
    base, bf = base or _compile(node.base)
    exponent, ef = _integers((node.exponent,), "exponent", (node.exponent.span,))

    def run(alg, env):
        (e,) = exponent(alg, env)
        b = base(alg, env)
        return alg.power(alg.div(1, b, base_span) if inverted and e else b, e, span)

    return run, bf | ef


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
        run, free = _power(node, inverted=True)
        return free, run, None
    run, free = _compile(node)
    return free, run, node.span if inverted else None


def _chain(chain):
    """``run`` of a product of ``(run, span)`` factors, applied in order."""
    (first, first_span), rest = chain[0], tuple(chain[1:])

    def run(alg, env):
        acc = first(alg, env)
        if first_span is not None:
            acc = alg.div(1, acc, first_span)
        for factor, span in rest:
            v = factor(alg, env)
            acc = alg.mul(acc, v) if span is None else alg.div(acc, v, span)
        return acc

    return run


def _product(node):
    """A chain of ``*`` and ``/``: its factors free of s and x first, then
    those that carry s or x, as one sub-product that ``alg.shared`` may
    reuse when there are two or more of them."""
    plain, carried = [], []
    for f, inverted in _factors(node, False, []):
        free, run, span = _factor(f, inverted)
        text = f"{'/' if inverted else '*'}({pretty_print(f)})"
        (carried if "s" in free or "x" in free else plain).append((free, run, span, text))
    free = _NONE.union(*(c[0] for c in plain + carried))
    if len(carried) < 2:
        return _chain([c[1:3] for c in plain + carried]), free
    sub = _chain([c[1:3] for c in carried])
    of = _NONE.union(*(c[0] for c in carried))
    text, of_x = "".join(c[3] for c in carried), "x" in of
    names = tuple(sorted(of - {"s", "x"}))

    def shared(alg, env):
        try:
            key = (text, *[env[name] for name in names])
        except KeyError:  # let the factors raise for the unbound name
            return sub(alg, env)
        return alg.shared(key, sub, env, of_x)

    if not plain:
        return shared, free
    rest = _chain([c[1:3] for c in plain])
    return (lambda alg, env: alg.mul(rest(alg, env), shared(alg, env))), free


def _sum(node: Sum):
    binder, span, body = node.binder, node.span, node.body
    limits, lf = _integers((node.lo, node.hi), "sum bound", (span, span))

    def bounds(alg, env) -> range:
        lo, hi = limits(alg, env)
        return range(lo, hi + 1)

    if type(body) is Mul and type(body.right) is Pow:
        power = body.right
        (coeff, cf), (base, bf) = _compile(body.left), _compile(power.base)
        if "x" not in cf and binder not in bf:
            exponent, ef = _integers((power.exponent,), "exponent", (power.exponent.span,))

            def terms(alg, inner, ks):
                for k in ks:
                    inner[binder] = k
                    (e,) = exponent(alg, inner)
                    yield coeff(alg, inner), e

            def run(alg, env):
                ks = bounds(alg, env)
                if not ks:
                    return 0
                return alg.power_sum(base(alg, env), terms(alg, dict(env), ks), power.span)

            return run, lf | ((cf | bf | ef) - {binder})
        term, tf = _power(power, base=(base, bf))

        def body_run(alg, env):
            return alg.mul(coeff(alg, env), term(alg, env))

        free = cf | tf
    else:
        body_run, free = _compile(body)

    def run(alg, env):
        acc, inner = 0, dict(env)
        for k in bounds(alg, env):
            inner[binder] = k
            acc = alg.add(acc, body_run(alg, inner))
        return acc

    return run, lf | (free - {binder})
