"""Expression language for stating and checking finite-sum identities.

Pipeline: :func:`parse` (or :func:`parse_expr`) produces a span-carrying
tree or diagnostics, :func:`check` validates free variables, arities,
and integer contexts while annotating value domains, :func:`eval` runs
its compiled form into an exact bivariate fraction, and
:func:`check_identity` sweeps an identity over a range of n into a
report.  Corpus files (one named identity per line) load via
:func:`load_corpus`; :func:`pretty_print` renders trees back to source.
:func:`symbols` tells from its names which of s and x a statement uses.
"""

from .checker import BUILTIN_ARITY, check, symbols
from .corpus import CorpusEntry, CorpusIssue, load_corpus, parse_corpus
from .evaluator import EvalError, check_identity, eval
from .nodes import (
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
    Node,
    Pow,
    RatLit,
    Span,
    Sub,
    Sum,
    Var,
    iter_children,
    shift_spans,
)
from .parser import parse, parse_expr
from .printer import pretty_print

__all__ = [
    "Add",
    "Ast",
    "BUILTIN_ARITY",
    "Call",
    "CorpusEntry",
    "CorpusIssue",
    "Diagnostic",
    "Div",
    "EvalError",
    "Expr",
    "Identity",
    "IntLit",
    "Mul",
    "Neg",
    "Node",
    "Pow",
    "RatLit",
    "Span",
    "Sub",
    "Sum",
    "Var",
    "check",
    "check_identity",
    "eval",
    "iter_children",
    "load_corpus",
    "parse",
    "parse_expr",
    "parse_corpus",
    "pretty_print",
    "shift_spans",
    "symbols",
]
