"""Lexer and recursive-descent parser for the identity language.

Grammar (`^` binds tightest, then unary minus, then `*` `/`, then `+`
`-`; binary operators associate left, `^` does not associate):

    identity := expr "==" expr
    expr     := term (("+"|"-") term)*
    term     := factor (("*"|"/") factor)*
    factor   := ("-")? atom ("^" atom)?
    atom     := INT | INT "/" INT | NAME | "(" expr ")"
              | NAME "(" args ")"
              | "sum" "(" NAME "=" expr ".." expr "," expr ")"

The tokens are INT, ASCII digits ``[0-9]+``; NAME, ``[A-Za-z_][A-Za-z0-9_]*``;
and the operators of ``_OPS``, longest first where one is a prefix of
another.  Space, tab, CR and LF separate tokens, and any other character
is an "unexpected character" diagnostic.  One compiled pattern, ``_TOKEN``,
states all of this, so the lexer accepts exactly this vocabulary.

An INT "/" INT pair is taken as one rational literal unless the second
INT is immediately followed by "^" (so 1/2^k keeps the conventional
reading 1/(2^k)).  Parse failures are reported as Diagnostics with spans
into the source; the functions return either the tree or the diagnostic
list, never both.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import List, NamedTuple, Union

from .nodes import (
    BUILTIN_ARITY,
    FREE_VARS,
    Add,
    Ast,
    Call,
    Diagnostic,
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


class _Token(NamedTuple):
    kind: str  # INT | NAME | OP | EOF
    text: str
    span: Span


_OPS = ("==", "..", "+", "-", "*", "/", "^", "(", ")", ",", "=")
# the NAME token, which ``checker.symbols`` scans for too
NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
# every character of a source lies in exactly one match: a token, a run
# of whitespace (WS) or one character that starts no token (BAD)
_TOKEN = re.compile(
    rf"(?P<WS>[ \t\r\n]+)|(?P<INT>[0-9]+)|(?P<NAME>{NAME.pattern})"
    rf"|(?P<OP>{'|'.join(map(re.escape, _OPS))})|(?P<BAD>.)",
    re.DOTALL,
)


def _lex(src: str) -> Union[List[_Token], List[Diagnostic]]:
    toks: List[_Token] = []
    for match in _TOKEN.finditer(src):
        kind = match.lastgroup
        if kind == "BAD":
            return [
                Diagnostic(
                    "error",
                    f"unexpected character {match.group()!r}",
                    match.span(),
                    hint="the language is ASCII: digits, names, + - * / ^ ( ) , = ..",
                )
            ]
        if kind != "WS":
            toks.append(_Token(kind, match.group(), match.span()))
    toks.append(_Token("EOF", "", (len(src), len(src))))
    return toks


class _Bail(Exception):
    pass


_BUILTIN_HINT = (
    f"builtins: {', '.join(BUILTIN_ARITY)}; free variables: {', '.join(FREE_VARS)}"
)


class _Parser:
    def __init__(self, toks: List[_Token]):
        self.toks = toks
        self.pos = 0
        self.diags: List[Diagnostic] = []

    def peek(self, ahead: int = 0) -> _Token:
        i = min(self.pos + ahead, len(self.toks) - 1)
        return self.toks[i]

    def advance(self) -> _Token:
        tok = self.toks[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def at_op(self, text: str, ahead: int = 0) -> bool:
        tok = self.peek(ahead)
        return tok.kind == "OP" and tok.text == text

    def fail(self, message: str, span: Span, hint: str | None = None):
        self.diags.append(Diagnostic("error", message, span, hint))
        raise _Bail()

    def expect_op(self, text: str, context: str):
        if not self.at_op(text):
            tok = self.peek()
            found = "end of input" if tok.kind == "EOF" else repr(tok.text)
            self.fail(f"expected {text!r} {context}, found {found}", tok.span)
        return self.advance()

    def expect_end(self):
        tok = self.peek()
        if tok.kind != "EOF":
            self.fail(f"unexpected trailing input {tok.text!r}", tok.span)

    # -- grammar ----------------------------------------------------------

    def identity(self) -> Identity:
        lhs = self.expr()
        self.expect_op("==", "between the two sides")
        rhs = self.expr()
        self.expect_end()
        return Identity(lhs, rhs, span=(lhs.span[0], rhs.span[1]))

    def whole_expr(self) -> Expr:
        node = self.expr()
        self.expect_end()
        return node

    def expr(self) -> Expr:
        node = self.term()
        while self.at_op("+") or self.at_op("-"):
            op = self.advance()
            right = self.term()
            cls = Add if op.text == "+" else Sub
            node = cls(node, right, span=(node.span[0], right.span[1]))
        return node

    def term(self) -> Expr:
        node = self.factor()
        while self.at_op("*") or self.at_op("/"):
            op = self.advance()
            right = self.factor()
            cls = Mul if op.text == "*" else Div
            node = cls(node, right, span=(node.span[0], right.span[1]))
        return node

    def factor(self) -> Expr:
        minus = None
        if self.at_op("-"):
            minus = self.advance()
        node = self.atom()
        if self.at_op("^"):
            self.advance()
            # in exponent position a "/" is term-level division, so the
            # rational-literal lexing rule is disabled: x^2/2 = (x^2)/2
            exponent = self.atom(rat_ok=False)
            if self.at_op("^"):
                self.fail(
                    "'^' is non-associative",
                    self.peek().span,
                    hint="write a^(b^c) or (a^b)^c",
                )
            node = Pow(node, exponent, span=(node.span[0], exponent.span[1]))
        if minus is not None:
            node = Neg(node, span=(minus.span[0], node.span[1]))
        return node

    def atom(self, rat_ok: bool = True) -> Expr:
        tok = self.peek()
        if tok.kind == "INT":
            self.advance()
            # rational literal: INT "/" INT not followed by "^"
            if (
                rat_ok
                and self.at_op("/")
                and self.peek(1).kind == "INT"
                and not self.at_op("^", 2)
            ):
                self.advance()
                den = self.advance()
                if int(den.text) == 0:
                    self.fail(
                        "zero denominator in rational literal",
                        (tok.span[0], den.span[1]),
                    )
                return RatLit(
                    Fraction(int(tok.text), int(den.text)),
                    span=(tok.span[0], den.span[1]),
                )
            return IntLit(int(tok.text), span=tok.span)
        if tok.kind == "NAME":
            if tok.text == "sum" and self.at_op("(", 1):
                return self.sum_form()
            if self.at_op("(", 1):
                return self.call_form()
            self.advance()
            return Var(tok.text, span=tok.span)
        if tok.kind == "OP" and tok.text == "(":
            self.advance()
            node = self.expr()
            if not self.at_op(")"):
                inner = self.peek()
                if inner.kind == "EOF":
                    self.fail(
                        f"unclosed '(' opened at offset {tok.span[0]}",
                        inner.span,
                        hint="add ')'",
                    )
                self.fail(f"expected ')', found {inner.text!r}", inner.span)
            self.advance()
            return node
        found = "end of input" if tok.kind == "EOF" else repr(tok.text)
        self.fail(f"expected a value, found {found}", tok.span, hint=_BUILTIN_HINT)
        raise AssertionError("unreachable")

    def call_form(self) -> Call:
        name = self.advance()
        self.advance()  # "("
        args: List[Expr] = []
        if not self.at_op(")"):
            args.append(self.expr())
            while True:
                if self.at_op(")"):
                    break
                if self.at_op(","):
                    self.advance()
                    args.append(self.expr())
                    continue
                tok = self.peek()
                if tok.kind == "EOF":
                    self.fail(
                        f"unclosed '(' in call to {name.text}",
                        tok.span,
                        hint="add ')'",
                    )
                self.fail(
                    f"expected ',' or ')' in call to {name.text}, found {tok.text!r}",
                    tok.span,
                )
        close = self.advance()
        return Call(name.text, tuple(args), span=(name.span[0], close.span[1]))

    def sum_form(self) -> Sum:
        head = self.advance()  # "sum"
        self.advance()  # "("
        binder = self.peek()
        if binder.kind != "NAME":
            self.fail(
                "expected a binder name after 'sum('",
                binder.span,
                hint="sum(k=lo..hi, body)",
            )
        self.advance()
        self.expect_op("=", "after the sum binder")
        lo = self.expr()
        self.expect_op("..", "in the sum range")
        hi = self.expr()
        self.expect_op(",", "after the sum range")
        body = self.expr()
        close = self.expect_op(")", "to close the sum")
        span = (head.span[0], close.span[1])
        return Sum(binder.text, lo, hi, body, span=span, binder_span=binder.span)


def _parse(source: str, rule) -> Union[Ast, List[Diagnostic]]:
    toks = _lex(source)
    if toks and isinstance(toks[0], Diagnostic):
        return toks
    parser = _Parser(toks)
    try:
        return rule(parser)
    except _Bail:
        return parser.diags


def parse(source: str) -> Union[Identity, List[Diagnostic]]:
    """Parse a full identity "LHS == RHS"."""
    return _parse(source, _Parser.identity)


def parse_expr(source: str) -> Union[Expr, List[Diagnostic]]:
    """Parse a single expression (no "==")."""
    return _parse(source, _Parser.whole_expr)
