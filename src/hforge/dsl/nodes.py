"""Syntax tree and vocabulary of the identity expression language.

Every node carries a half-open source span of byte offsets (the language
is ASCII-only, so byte and character offsets coincide) and, after static
checking, a value-domain annotation.  ``Node`` declares both once, as
keyword-only fields excluded from equality and repr, so structural
comparison ignores layout; each kind declares only its own fields.

The vocabulary tables (the value domains, each builtin's arity and
result domain, each free variable's domain) live here, where both the
parser and the checker read them for their diagnostics' hints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Optional, Tuple, Union

Span = Tuple[int, int]

_NO_SPAN: Span = (0, 0)

# The value domains form a chain: a value in one embeds in every later one.
INTEGER = "integer"
RATIONAL = "rational"
RATFUNC = "ratfunc"
BIFRAC = "bifrac"

BUILTIN_ARITY = {"H": 1, "Hr": 2, "C": 2, "CS": 2, "PSID": 2, "PSI1D": 2}

_BUILTIN_RESULT = {
    "H": RATIONAL,
    "Hr": RATIONAL,
    "C": INTEGER,
    "CS": RATFUNC,
    "PSID": RATFUNC,
    "PSI1D": RATFUNC,
}

FREE_VARS = {"n": INTEGER, "s": RATFUNC, "x": BIFRAC}


@dataclass
class Diagnostic:
    """One parse- or check-time problem, located by span."""

    severity: str
    message: str
    span: Span
    hint: Optional[str] = None

    def __str__(self):
        text = f"{self.severity}: {self.message} [at {self.span[0]}..{self.span[1]}]"
        if self.hint:
            text += f" (hint: {self.hint})"
        return text


@dataclass
class Node:
    """Base class; concrete kinds are the dataclasses below.  Each takes
    its own fields by position and ``span``/``domain`` by keyword."""

    span: Span = field(default=_NO_SPAN, compare=False, repr=False, kw_only=True)
    domain: Optional[str] = field(default=None, compare=False, repr=False, kw_only=True)


@dataclass
class IntLit(Node):
    value: int


@dataclass
class RatLit(Node):
    value: Fraction


@dataclass
class Var(Node):
    name: str


@dataclass
class Neg(Node):
    child: "Expr"


@dataclass
class Add(Node):
    left: "Expr"
    right: "Expr"


@dataclass
class Sub(Node):
    left: "Expr"
    right: "Expr"


@dataclass
class Mul(Node):
    left: "Expr"
    right: "Expr"


@dataclass
class Div(Node):
    left: "Expr"
    right: "Expr"


@dataclass
class Pow(Node):
    base: "Expr"
    exponent: "Expr"


@dataclass
class Sum(Node):
    binder: str
    lo: "Expr"
    hi: "Expr"
    body: "Expr"
    binder_span: Span = field(default=_NO_SPAN, compare=False, repr=False, kw_only=True)


@dataclass
class Call(Node):
    func: str
    args: Tuple["Expr", ...]


@dataclass
class Identity(Node):
    lhs: "Expr"
    rhs: "Expr"


Expr = Union[
    IntLit, RatLit, Var, Neg, Add, Sub, Mul, Div, Pow, Sum, Call
]
Ast = Union[Expr, Identity]


def iter_children(node: Node) -> Iterator[Node]:
    if isinstance(node, Neg):
        yield node.child
    elif isinstance(node, (Add, Sub, Mul, Div)):
        yield node.left
        yield node.right
    elif isinstance(node, Pow):
        yield node.base
        yield node.exponent
    elif isinstance(node, Sum):
        yield node.lo
        yield node.hi
        yield node.body
    elif isinstance(node, Call):
        yield from node.args
    elif isinstance(node, Identity):
        yield node.lhs
        yield node.rhs


def shift_spans(node: Node, delta: int) -> None:
    """Translate every span in the tree by delta (in place)."""
    a, b = node.span
    node.span = (a + delta, b + delta)
    if isinstance(node, Sum):
        a, b = node.binder_span
        node.binder_span = (a + delta, b + delta)
    for child in iter_children(node):
        shift_spans(child, delta)
