"""Static checks: free-variable discipline, builtin arities, and the
integer-context rules, with a value-domain annotation per node.

Domains form a chain ``integer < rational < ratfunc < bifrac`` (a value
in an earlier domain embeds in every later one); binary operators join
their operand domains.  The free variables are ``n`` and sum binders,
which are integers, ``s``, a rational-function indeterminate, ``x``, a
bivariate one, and any integer parameters the caller declares; a sum
binder may not reuse the name of ``n``, ``s``, ``x``, a parameter or a
builtin.  Arguments of the builtins, sum bounds, and exponents must be
integer-valued expressions.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Union

from .nodes import (
    Add,
    Ast,
    Call,
    Diagnostic,
    Div,
    Identity,
    IntLit,
    Mul,
    Neg,
    Node,
    Pow,
    RatLit,
    Sub,
    Sum,
    Var,
)
from .parser import NAME

INTEGER = "integer"
RATIONAL = "rational"
RATFUNC = "ratfunc"
BIFRAC = "bifrac"

_RANK = {INTEGER: 0, RATIONAL: 1, RATFUNC: 2, BIFRAC: 3}

BUILTIN_ARITY = {"H": 1, "Hr": 2, "C": 2, "CS": 2, "PSID": 2, "PSI1D": 2}

_BUILTIN_RESULT = {
    "H": RATIONAL,
    "Hr": RATIONAL,
    "C": INTEGER,
    "CS": RATFUNC,
    "PSID": RATFUNC,
    "PSI1D": RATFUNC,
}

_FREE_VARS = {"n": INTEGER, "s": RATFUNC, "x": BIFRAC}


def symbols(source: str) -> frozenset:
    """Which of s and x the statement ``source`` depends on, read off its
    names with no parse: a ``ratfunc`` name gives s, a ``bifrac`` one x.
    No sum binder or parameter may take the name of a free variable or a
    builtin, so this is exact for every statement that checks."""
    names = {**_FREE_VARS, **_BUILTIN_RESULT}
    found = {names.get(name) for name in NAME.findall(source)}
    return frozenset(v for d, v in ((RATFUNC, "s"), (BIFRAC, "x")) if d in found)


def _join(a: str, b: str) -> str:
    return a if _RANK[a] >= _RANK[b] else b


class _Checker:
    def __init__(self, free: Iterable[str]):
        self.diags: List[Diagnostic] = []
        self.free = frozenset(free)

    def error(self, message: str, span, hint: str | None = None) -> None:
        self.diags.append(Diagnostic("error", message, span, hint))

    def visit(self, node: Node, scope: Dict[str, str]) -> str:
        domain = self._compute(node, scope)
        node.domain = domain
        return domain

    def _compute(self, node: Node, scope: Dict[str, str]) -> str:
        if isinstance(node, IntLit):
            return INTEGER
        if isinstance(node, RatLit):
            return RATIONAL
        if isinstance(node, Var):
            domain = scope.get(node.name)
            if domain is None:
                self.error(
                    f"unbound variable {node.name!r}",
                    node.span,
                    hint="free variables are n, s, x (plus enclosing sum binders)",
                )
                return INTEGER
            return domain
        if isinstance(node, Neg):
            return self.visit(node.child, scope)
        if isinstance(node, (Add, Sub, Mul)):
            return _join(self.visit(node.left, scope), self.visit(node.right, scope))
        if isinstance(node, Div):
            joined = _join(
                self.visit(node.left, scope), self.visit(node.right, scope)
            )
            return _join(joined, RATIONAL)
        if isinstance(node, Pow):
            base = self.visit(node.base, scope)
            exponent = self.visit(node.exponent, scope)
            if exponent != INTEGER:
                self.error(
                    "exponent must be integer-valued", node.exponent.span
                )
            if base in (INTEGER, RATIONAL):
                # a non-literal exponent may be negative at runtime
                if isinstance(node.exponent, IntLit):
                    return base
                return _join(base, RATIONAL)
            return base
        if isinstance(node, Sum):
            if node.binder in self.free:
                message = f"sum binder {node.binder!r} shadows a free variable"
                self.error(message, node.binder_span)
            for bound in (node.lo, node.hi):
                if self.visit(bound, scope) != INTEGER:
                    self.error("sum bounds must be integer-valued", bound.span)
            inner = dict(scope)
            inner[node.binder] = INTEGER
            return self.visit(node.body, inner)
        if isinstance(node, Call):
            arity = BUILTIN_ARITY.get(node.func)
            if arity is None:
                self.error(
                    f"unknown builtin {node.func!r}",
                    node.span,
                    hint="builtins: H, Hr, C, CS, PSID, PSI1D",
                )
                for arg in node.args:
                    self.visit(arg, scope)
                return RATIONAL
            if len(node.args) != arity:
                self.error(
                    f"{node.func} takes {arity} argument(s), got {len(node.args)}",
                    node.span,
                )
            for i, arg in enumerate(node.args, 1):
                if self.visit(arg, scope) != INTEGER:
                    self.error(
                        f"argument {i} of {node.func} must be integer-valued",
                        arg.span,
                    )
            return _BUILTIN_RESULT[node.func]
        if isinstance(node, Identity):
            return _join(
                self.visit(node.lhs, scope), self.visit(node.rhs, scope)
            )
        raise TypeError(f"unknown node kind {type(node).__name__}")


def check(ast: Ast, params: Iterable[str] = ()) -> Union[Ast, List[Diagnostic]]:
    """Validate and annotate a parsed tree.

    ``params`` names extra free integer variables (such as a family
    index ``m``) that the evaluator takes from its ``bindings``.  Returns
    the same tree with every node's ``domain`` filled in, or the list of
    problems found.
    """
    scope = dict(_FREE_VARS)
    for name in params:
        if name in scope or name in BUILTIN_ARITY:
            raise ValueError(f"parameter {name!r} shadows a free variable")
        scope[name] = INTEGER
    checker = _Checker({*scope, *BUILTIN_ARITY})
    checker.visit(ast, scope)
    if checker.diags:
        return checker.diags
    return ast
