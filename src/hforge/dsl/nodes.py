"""Syntax tree for the identity expression language.

Every node carries a half-open source span of byte offsets (the language
is ASCII-only, so byte and character offsets coincide) and, after static
checking, a value-domain annotation.  Spans and annotations are excluded
from equality so structural comparison ignores layout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Optional, Tuple, Union

Span = Tuple[int, int]

_NO_SPAN: Span = (0, 0)


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


class Node:
    """Base class; concrete kinds are the dataclasses below."""

    __slots__ = ()


@dataclass(eq=True)
class IntLit(Node):
    value: int
    span: Span = field(default=_NO_SPAN, compare=False, repr=False)
    domain: Optional[str] = field(default=None, compare=False, repr=False)


@dataclass(eq=True)
class RatLit(Node):
    value: Fraction
    span: Span = field(default=_NO_SPAN, compare=False, repr=False)
    domain: Optional[str] = field(default=None, compare=False, repr=False)


@dataclass(eq=True)
class Var(Node):
    name: str
    span: Span = field(default=_NO_SPAN, compare=False, repr=False)
    domain: Optional[str] = field(default=None, compare=False, repr=False)


@dataclass(eq=True)
class Neg(Node):
    child: "Expr"
    span: Span = field(default=_NO_SPAN, compare=False, repr=False)
    domain: Optional[str] = field(default=None, compare=False, repr=False)


@dataclass(eq=True)
class Add(Node):
    left: "Expr"
    right: "Expr"
    span: Span = field(default=_NO_SPAN, compare=False, repr=False)
    domain: Optional[str] = field(default=None, compare=False, repr=False)


@dataclass(eq=True)
class Sub(Node):
    left: "Expr"
    right: "Expr"
    span: Span = field(default=_NO_SPAN, compare=False, repr=False)
    domain: Optional[str] = field(default=None, compare=False, repr=False)


@dataclass(eq=True)
class Mul(Node):
    left: "Expr"
    right: "Expr"
    span: Span = field(default=_NO_SPAN, compare=False, repr=False)
    domain: Optional[str] = field(default=None, compare=False, repr=False)


@dataclass(eq=True)
class Div(Node):
    left: "Expr"
    right: "Expr"
    span: Span = field(default=_NO_SPAN, compare=False, repr=False)
    domain: Optional[str] = field(default=None, compare=False, repr=False)


@dataclass(eq=True)
class Pow(Node):
    base: "Expr"
    exponent: "Expr"
    span: Span = field(default=_NO_SPAN, compare=False, repr=False)
    domain: Optional[str] = field(default=None, compare=False, repr=False)


@dataclass(eq=True)
class Sum(Node):
    binder: str
    lo: "Expr"
    hi: "Expr"
    body: "Expr"
    span: Span = field(default=_NO_SPAN, compare=False, repr=False)
    domain: Optional[str] = field(default=None, compare=False, repr=False)
    binder_span: Span = field(default=_NO_SPAN, compare=False, repr=False)


@dataclass(eq=True)
class Call(Node):
    func: str
    args: Tuple["Expr", ...]
    span: Span = field(default=_NO_SPAN, compare=False, repr=False)
    domain: Optional[str] = field(default=None, compare=False, repr=False)


@dataclass(eq=True)
class Identity(Node):
    lhs: "Expr"
    rhs: "Expr"
    span: Span = field(default=_NO_SPAN, compare=False, repr=False)
    domain: Optional[str] = field(default=None, compare=False, repr=False)


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
