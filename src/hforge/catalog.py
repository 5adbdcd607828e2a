"""Catalog of finite binomial-sum and harmonic-number identities.

Each entry states one identity under a stable tag: its two sides as
expression-language source (see :mod:`hforge.dsl`), a citation anchor,
the value domain (``Q``, ``Q(s)``, ``Q(x)``, or ``Q(s,x)``), and
parameter constraints.  A side is parsed and checked on its first
evaluation and evaluated exactly by :func:`hforge.dsl.eval`, which hands
back :class:`~hforge.bivar.BiFrac` for cross-multiplied comparison.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .bivar import BiFrac, bifrac_eq
from .report import Report, ReportRow, make_witness

# Unused here; the tracer in perfbench/spans.py patches these names in
# this module, so they stay importable from it.
from .special import (  # noqa: F401
    binom_factor,
    binom_shift,
    psi1_diff,
    psi1_factor,
    psi_diff,
    psi_factor,
)

# ---------------------------------------------------------------------------
# Entry metadata
# ---------------------------------------------------------------------------

Params = Mapping[str, int]


class Side:
    """One side of an identity, stated in the expression language.

    Calling it with ``(n, params)`` gives the side's exact value as a
    :class:`BiFrac`, with ``params`` bound to the declared integer
    parameters.  The source is parsed and checked on the first call, so
    importing the catalog does not import the language.
    """

    __slots__ = ("source", "params", "_ast")

    def __init__(self, source: str, params: tuple[str, ...] = ()):
        self.source = source
        self.params = params
        self._ast = None

    def __call__(self, n: int, params: Params | None = None) -> BiFrac:
        from . import dsl

        if self._ast is None:
            ast = dsl.parse_expr(self.source)
            if not isinstance(ast, list):
                ast = dsl.check(ast, self.params)
            if isinstance(ast, list):
                raise ValueError(f"bad statement {self.source!r}: {ast[0]}")
            self._ast = ast
        return dsl.eval(self._ast, n, params)


@dataclass(frozen=True)
class ParamSpec:
    """Descriptor for one extra integer parameter of an entry."""

    name: str
    minimum: int
    default_grid: tuple[int, ...]
    allowed: tuple[int, ...] | None = None

    def validate(self, value) -> None:
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"parameter {self.name} must be an integer")
        if value < self.minimum:
            raise ValueError(f"parameter {self.name} must be >= {self.minimum}")
        if self.allowed is not None and value not in self.allowed:
            raise ValueError(
                f"parameter {self.name} must be one of {sorted(self.allowed)}"
            )


@dataclass(frozen=True, eq=False)
class IdentityEntry:
    """One identity: tag, citation anchor, domain, and its two sides.

    ``lhs`` and ``rhs`` map ``(n, params)`` to :class:`BiFrac`.  Entries
    with alternative right sides (INTRO-2) list them in ``rhs_variants``;
    variants named in ``expected_fail_variants`` are known-bad forms kept
    for auditability.
    """

    tag: str
    anchor: str
    domain: str
    lhs: Side
    rhs: Side
    n_min: int = 1
    extra_params: tuple[ParamSpec, ...] = ()
    rhs_variants: Mapping[str, Side] = field(default_factory=dict)
    expected_fail_variants: frozenset = frozenset()
    note: str = ""

    @property
    def id(self) -> str:
        return self.tag

    def validate(self, n: int, params: Params) -> None:
        if not isinstance(n, int) or isinstance(n, bool):
            raise ValueError(f"n must be an integer for {self.tag}")
        if n < self.n_min:
            raise ValueError(f"n must be >= {self.n_min} for {self.tag}")
        specs = {sp.name: sp for sp in self.extra_params}
        for name in params:
            if name not in specs:
                raise ValueError(f"unknown parameter {name} for {self.tag}")
        for name, spec in specs.items():
            if name not in params:
                raise ValueError(f"missing parameter {name} for {self.tag}")
            spec.validate(params[name])

    def default_param_grid(self) -> tuple[dict, ...]:
        if not self.extra_params:
            return ({},)
        grids: tuple[dict, ...] = ({},)
        for spec in self.extra_params:
            grids = tuple(
                {**g, spec.name: v} for g in grids for v in spec.default_grid
            )
        return grids

    def rhs_for(self, variant: str | None) -> Side:
        if variant is None:
            return self.rhs
        if variant not in self.rhs_variants:
            raise ValueError(f"{self.tag} has no variant {variant!r}")
        return self.rhs_variants[variant]


# ---------------------------------------------------------------------------
# The catalog.  Summation ranges and groupings follow the anchored
# statements term for term; simplification is left to the comparison.
# ---------------------------------------------------------------------------


def _entry(tag, anchor, domain, lhs, rhs, **kw) -> IdentityEntry:
    names = tuple(spec.name for spec in kw.get("extra_params", ()))
    variants = {
        name: Side(source, names)
        for name, source in kw.pop("rhs_variants", {}).items()
    }
    return IdentityEntry(
        tag=tag,
        anchor=anchor,
        domain=domain,
        lhs=Side(lhs, names),
        rhs=Side(rhs, names),
        rhs_variants=variants,
        **kw,
    )


_M_GRID = (ParamSpec("m", 2, (2, 3, 4, 5)),)
_M_PAIR = (ParamSpec("m", 2, (2, 3), allowed=(2, 3)),)

# Shared by the two ID-13 entries: the general formula over the m grid.
_ID13_LHS = "sum(k=0..n, (-1)^k * C(m*n,k)*H(m*n-k))"
_ID13_RHS = "(-1)^n/m * C(m*n,n)*((m-1)*H((m-1)*n) - 1/(m*n))"

_ENTRIES: tuple[IdentityEntry, ...] = (
    _entry(
        "THM-2.1",
        'Eq. (14), "there holds the following identity"',
        "Q(s,x)",
        "sum(k=0..n, CS(n,k)*x^k)",
        "(1+x)^n * (1 + s*sum(k=0..n-1, CS(k,k)/(k+1) * (x/(1+x))^(k+1)))",
    ),
    _entry(
        "THM-2.2",
        'Eq. (16), "$\\psi(s+n+1)-\\psi(s+n-k+1)\\}x^k$"',
        "Q(s,x)",
        "sum(k=1..n, CS(n,k)*PSID(n+1,n-k+1)*x^k)",
        (
            "(1+x)^n * sum(k=0..n-1, CS(k,k)/(k+1) * (1 + s*PSID(k+1,1))"
            " * (x/(1+x))^(k+1))"
        ),
    ),
    _entry(
        "COR-2.3",
        'Eq. (17), "by taking $x=-1$"',
        "Q(s)",
        "sum(k=0..n, (-1)^k * CS(n,k)*PSID(n+1,n-k+1))",
        "(-1)^n/n * CS(n-1,n-1) * (1 + s*PSID(n,1))",
    ),
    _entry(
        "THM-2.4",
        "Eq. (18), \"$\\psi'(s+n+1)-\\psi'(s+n-k+1)$\"",
        "Q(s,x)",
        "sum(k=0..n, CS(n,k)*(PSID(n+1,n-k+1)^2 + PSI1D(n+1,n-k+1))*x^k)",
        (
            "(1+x)^n * sum(k=0..n-1, CS(k,k)/(k+1)"
            " * (2*PSID(k+1,1) + s*(PSID(k+1,1)^2 + PSI1D(k+1,1))) * (x/(1+x))^(k+1))"
        ),
    ),
    _entry(
        "COR-2.5",
        'Eq. (19), "If we write Eq. (18) at $x=-1$"',
        "Q(s)",
        "sum(k=0..n, (-1)^k * CS(n,k)*(PSID(n+1,n-k+1)^2 + PSI1D(n+1,n-k+1)))",
        "(-1)^n/n * CS(n-1,n-1) * (2*PSID(n,1) + s*(PSID(n,1)^2 + PSI1D(n,1)))",
    ),
    _entry(
        "THM-2.6",
        'Eq. (20), "$H_n+ s\\sum_{k=0}^{n-1}$"',
        "Q(s)",
        "sum(k=1..n, CS(n,k)*(-1)^(k-1)/k)",
        "H(n) + s*sum(k=0..n-1, (-1)^k * CS(k,k)/((k+1)^2 * C(n,k+1)))",
    ),
    _entry(
        "THM-2.7",
        'Eq. (23), "follows immediately from differentiating both sides of (20)"',
        "Q(s)",
        "sum(k=1..n, (-1)^(k-1)/k * CS(n,k)*PSID(n+1,n-k+1))",
        (
            "sum(k=0..n-1, (-1)^k * CS(k,k)/((k+1)^2 * C(n,k+1)))"
            " + s*sum(k=0..n-1, (-1)^k * CS(k,k)/((k+1)^2 * C(n,k+1)) * PSID(k+1,1))"
        ),
    ),
    _entry(
        "THM-2.8",
        'Eq. (24), "differentiate both sides of (23)"',
        "Q(s)",
        "sum(k=1..n, (-1)^(k-1)/k * CS(n,k)*(PSID(n+1,n-k+1)^2 + PSI1D(n+1,n-k+1)))",
        (
            "2*sum(k=0..n-1, (-1)^k * CS(k,k)/((k+1)^2 * C(n,k+1)) * PSID(k+1,1))"
            " + s*sum(k=0..n-1, (-1)^k * CS(k,k)/((k+1)^2 * C(n,k+1))"
            " * (PSID(k+1,1)^2 + PSI1D(k+1,1)))"
        ),
    ),
    _entry(
        "THM-2.9",
        'Eq. (25), "$\\frac{H_n^2+H_n^{(2)}}{2}+s\\sum$"',
        "Q(s)",
        "sum(k=1..n, CS(n,k)*(-1)^(k-1)/k^2)",
        (
            "(H(n)^2 + Hr(n,2))/2"
            " + s*sum(k=0..n-1, (-1)^k/(k+1) * CS(k,k)*(H(n)-H(k))/((n-k)*C(n,k)))"
        ),
    ),
    _entry(
        "THM-2.10",
        'Eq. (31), "differentiating both sides of the equation (25)"',
        "Q(s)",
        "sum(k=1..n, CS(n,k)*(-1)^(k-1)/k^2 * PSID(n+1,n-k+1))",
        (
            "sum(k=0..n-1, (-1)^k/(k+1) * CS(k,k)*(H(n)-H(k))/((n-k)*C(n,k)))"
            " + s*sum(k=0..n-1, (-1)^k/(k+1) * CS(k,k)*(H(n)-H(k))/((n-k)*C(n,k))"
            " * PSID(k+1,1))"
        ),
    ),
    _entry(
        "THM-2.11",
        'Eq. (32), "differentiating both sides of the equation (31)"',
        "Q(s)",
        "sum(k=1..n, CS(n,k)*(-1)^(k-1)/k^2 * (PSID(n+1,n-k+1)^2 + PSI1D(n+1,n-k+1)))",
        (
            "2*sum(k=0..n-1, (-1)^k/(k+1) * CS(k,k)*(H(n)-H(k))/((n-k)*C(n,k))"
            " * PSID(k+1,1))"
            " + s*sum(k=0..n-1, (-1)^k/(k+1) * CS(k,k)*(H(n)-H(k))/((n-k)*C(n,k))"
            " * (PSID(k+1,1)^2 + PSI1D(k+1,1)))"
        ),
    ),
    _entry(
        "ID-1",
        'Eq. (33), "$(-1)^n\\binom{s+n-1}{n}$"',
        "Q(s)",
        "sum(k=0..n, (-1)^k * CS(n,k))",
        "(-1)^n * CS(n-1,n)",
    ),
    _entry(
        "ID-2",
        'Eq. (34), "the replacement $s\\to s-n$"',
        "Q(s)",
        "sum(k=0..n, (-1)^k * CS(0,k))",
        "(-1)^n * CS(-1,n)",
        note=(
            "The anchored statement restricts integer s to s >= n; both sides "
            "are polynomials in s, so symbolic equality holds with no "
            "restriction and the side condition is informational."
        ),
    ),
    _entry(
        "ID-3",
        '§3 Identity 3, "$\\frac{2n+1}{2^{2n}}\\binom{2n}{n}$"',
        "Q",
        "sum(k=0..n, C(2*k,k)/4^k)",
        "(2*n+1)/4^n * C(2*n,n)",
    ),
    _entry(
        "ID-4",
        '§3 Identity 4, "$2H_{2n}-H_n-\\frac{4n}{2n+1}$"',
        "Q",
        "sum(k=1..n, C(2*k,k)/4^k * (2*H(2*k) - H(k)))",
        "(2*n+1)/4^n * C(2*n,n) * (2*H(2*n) - H(n) - 4*n/(2*n+1))",
    ),
    _entry(
        "ID-5",
        'Eq. (43), "originally due to Euler"',
        "Q",
        "sum(k=1..n, (-1)^(k-1)/k * C(n,k))",
        "H(n)",
    ),
    _entry(
        "ID-6",
        'Eq. (44), "$H_n^2+\\sum_{k=1}^{n}\\frac{(-1)^{k}}{k^2\\binom{n}{k}}$"',
        "Q",
        "sum(k=1..n, (-1)^(k-1)/k * C(n,k)*H(n-k))",
        "H(n)^2 + sum(k=1..n, (-1)^k/(k^2 * C(n,k)))",
    ),
    _entry(
        "ID-7",
        'Eq. (45), "$H_n-\\sum_{k=1}^{n}\\frac{1}{k}\\left(\\frac{x}{1+x}\\right)^k$"',
        "Q(x)",
        "sum(k=0..n, C(n,k)*H(n-k)*x^k)",
        "(1+x)^n * (H(n) - sum(k=1..n, 1/k * (x/(1+x))^k))",
    ),
    _entry(
        "ID-8",
        '§3 Identity 8, "$2^n\\left[H_n-\\sum_{k=1}^{n}\\frac{1}{k2^k}\\right]$"',
        "Q",
        "sum(k=0..n, C(n,k)*H(k))",
        "2^n * (H(n) - sum(k=1..n, 1/(k*2^k)))",
    ),
    _entry(
        "ID-9",
        'Eq. (48), "$H_n^2+H_n^{(2)}+2\\sum$"',
        "Q(x)",
        "sum(k=1..n, C(n,k)*(H(k)^2 + Hr(k,2))*x^k)",
        "(1+x)^n * (H(n)^2 + Hr(n,2) + 2*sum(k=1..n, (H(k-1) - H(n))/(k*(1+x)^k)))",
    ),
    _entry(
        "ID-10",
        '§3 Identity 10, "$=-\\frac{2}{n^2}$"',
        "Q",
        "sum(k=1..n, (-1)^k * C(n,k)*(H(k)^2 + Hr(k,2)))",
        "-2/n^2",
    ),
    _entry(
        "ID-11",
        'Eq. (51), "$\\frac{(-1)^n-1}{n+1}$"',
        "Q",
        "sum(k=1..n, (-1)^k/(k*C(n,k)))",
        "((-1)^n - 1)/(n+1)",
    ),
    _entry(
        "ID-12",
        '§3 Identity 12, "$H_n^3+H_nH_n^{(2)}+2\\sum$"',
        "Q",
        "sum(k=1..n, (-1)^(k-1)/k * C(n,k)*(H(n-k)^2 + Hr(n-k,2)))",
        (
            "H(n)^3 + H(n)*Hr(n,2)"
            " + 2*sum(k=1..n, (-1)^k * (H(n) - H(k-1))/(k^2 * C(n,k)))"
        ),
    ),
    _entry(
        "ID-13",
        'Eq. (53), "$(m-1)H_{(m-1)n}-\\frac{1}{mn}$"',
        "Q",
        _ID13_LHS,
        _ID13_RHS,
        extra_params=_M_GRID,
    ),
    _entry(
        "ID-14",
        '§3 Identity 14, "$H_n-\\frac{1}{2n}$"',
        "Q",
        _ID13_LHS,
        _ID13_RHS,
        extra_params=_M_PAIR,
        note=(
            "Both cases restate the anchored general formula at m=2,3.  The "
            "anchored m=3 display shows 2H_n where the general formula gives "
            "2H_{2n}; the display fails at n=1 (-8/3 vs -5/3), so the general "
            "form is used here."
        ),
    ),
    _entry(
        "ID-15",
        '§3 Identity 15, "$\\frac{(-1)^{n}H_{n+1}}{n+1}+\\sum$"',
        "Q",
        "sum(k=1..n, (-1)^k * H(k)/(k*C(n,k)))",
        "(-1)^n * H(n+1)/(n+1) + sum(k=1..n+1, (-1)^k/(k^2 * C(n+1,k)))",
    ),
    _entry(
        "ID-16",
        '§3 Identity 16, "$\\frac{1}{2n-1}$"',
        "Q",
        "sum(k=0..n, (-1)^(k-1) * 4^k * C(n,k)/C(2*k,k))",
        "1/(2*n-1)",
    ),
    _entry(
        "ID-17",
        'Eq. (61), "$\\frac{H_n^2+H_n^{(2)}}{2}$"',
        "Q",
        "sum(k=1..n, C(n,k)*(-1)^(k-1)/k^2)",
        "(H(n)^2 + Hr(n,2))/2",
    ),
    _entry(
        "ID-18",
        '§3 Identity 18, "$\\frac{1-(-1)^n}{(n+1)^2}-\\frac{H_n}{n+1}$"',
        "Q",
        "sum(k=1..n, (-1)^k * H(n-k)/(k*C(n,k)))",
        "(1 - (-1)^n)/(n+1)^2 - H(n)/(n+1)",
    ),
    _entry(
        "ID-19",
        'Eq. (65), "$\\frac{H_n\\left(H_n^2+H_n^{(2)}\\right)}{2}-\\sum$"',
        "Q",
        "sum(k=1..n, (-1)^(k-1)/k^2 * C(n,k)*H(n-k))",
        (
            "H(n)*(H(n)^2 + Hr(n,2))/2"
            " - sum(k=0..n-1, (-1)^k * (H(n) - H(k))/((k+1)*(n-k)*C(n,k)))"
        ),
    ),
    _entry(
        "ID-20",
        '§3 Identity 20, "$\\frac{\\left(H_n^2+H_n^{(2)}\\right)^2}{2}$"',
        "Q",
        "sum(k=1..n, (-1)^(k-1)/k^2 * C(n,k)*(H(n-k)^2 + Hr(n-k,2)))",
        (
            "(H(n)^2 + Hr(n,2))^2/2"
            " - 2*sum(k=0..n-1, (-1)^k * (H(n) - H(k))^2/((k+1)*(n-k)*C(n,k)))"
        ),
    ),
    _entry(
        "INTRO-1",
        '§1, "$\\binom{2n}{n}[2H_n-H_{2n}]$"',
        "Q",
        "sum(k=0..n, C(n,k)^2 * H(k))",
        "C(2*n,n)*(2*H(n) - H(2*n))",
    ),
    _entry(
        "INTRO-2",
        '§1, "$\\frac{4^n}{n}\\binom{2n}{n}^2$"',
        "Q",
        "sum(k=0..n, (-1)^k * C(n,k)*(H(k) - 2*H(2*k)))",
        "4^n/(n*C(2*n,n))",
        rhs_variants={
            "printed": "4^n/n * C(2*n,n)^2",
            "corrected": "4^n/(n*C(2*n,n))",
        },
        expected_fail_variants=frozenset({"printed"}),
        note=(
            "Variant 'printed' follows the anchored text and fails at n=1 "
            "(left 2, right 16).  Variant 'corrected' uses 4^n/(n*C(2n,n)), "
            "a derived repair that passes; it is also the default right side."
        ),
    ),
    _entry(
        "INTRO-3",
        '§1, "$H_n-H_{2n}-\\frac{2}{n}$"',
        "Q",
        "sum(k=0..n, (-1)^k * C(n,k)*H(n+k)^2)",
        "1/(n*C(2*n,n)) * (H(n) - H(2*n) - 2/n)",
    ),
)

_BY_TAG = {e.tag: e for e in _ENTRIES}


def catalog() -> list[IdentityEntry]:
    """All entries, in catalog order."""
    return list(_ENTRIES)


def lookup(tag: str) -> IdentityEntry:
    try:
        return _BY_TAG[tag]
    except KeyError:
        raise KeyError(f"unknown identity tag {tag!r}") from None


def tags() -> list[str]:
    return [e.tag for e in _ENTRIES]


# ---------------------------------------------------------------------------
# Verification engine
# ---------------------------------------------------------------------------


def eval_side(
    entry: IdentityEntry,
    side: str,
    n: int,
    params: Params | None = None,
    variant: str | None = None,
) -> BiFrac:
    """Evaluate one side of an entry after validating n and params."""
    params = dict(params or {})
    entry.validate(n, params)
    key = side.strip().lower()
    if key == "lhs":
        return entry.lhs(n, params)
    if key == "rhs":
        return entry.rhs_for(variant)(n, params)
    raise ValueError("side must be 'LHS' or 'RHS'")


def _variant_plan(
    entry: IdentityEntry, variant: str | None
) -> list[tuple[str | None, bool]]:
    if variant is not None:
        if variant not in entry.rhs_variants:
            raise ValueError(f"{entry.tag} has no variant {variant!r}")
        # Explicitly selecting a variant asks for its true verdict, so the
        # expected-fail marking is dropped.
        return [(variant, False)]
    if entry.rhs_variants:
        return [
            (name, name in entry.expected_fail_variants)
            for name in sorted(entry.rhs_variants)
        ]
    return [(None, False)]


def _run_cell(
    tag: str,
    n: int,
    params: dict,
    variant: str | None,
    expected_fail: bool,
) -> ReportRow:
    entry = lookup(tag)
    start = time.perf_counter_ns()
    lhs = entry.lhs(n, params)
    rhs = entry.rhs_for(variant)(n, params)
    passed = bifrac_eq(lhs, rhs)
    elapsed = time.perf_counter_ns() - start
    witness = None if passed else make_witness(lhs, rhs)
    row_params = dict(params)
    if variant is not None:
        row_params["variant"] = variant
    return ReportRow(
        id=tag,
        n=n,
        params=row_params,
        passed=passed,
        expected_fail=expected_fail,
        witness=witness,
        elapsed_ns=elapsed,
    )


def _cell_args(args: tuple) -> ReportRow:
    return _run_cell(*args)


def plan_cells(
    entry: IdentityEntry,
    n_range: Sequence[int],
    params_range: Sequence[Params] | None = None,
    variant: str | None = None,
) -> list[tuple]:
    """Deterministic (tag, n, params, variant, expected_fail) work list."""
    grids = (
        [dict(p) for p in params_range]
        if params_range is not None
        else list(entry.default_param_grid())
    )
    if not grids or not len(n_range):
        raise ValueError("nonempty n and parameter ranges are required")
    cells = []
    for n in n_range:
        for params in grids:
            entry.validate(n, params)
            for name, expected_fail in _variant_plan(entry, variant):
                cells.append((entry.tag, n, dict(params), name, expected_fail))
    return cells


def verify(
    entry: IdentityEntry,
    n_range: Sequence[int],
    params_range: Sequence[Params] | None = None,
    variant: str | None = None,
    workers: int = 1,
) -> Report:
    """Check one entry over a grid; failures become report rows, not errors."""
    cells = plan_cells(entry, n_range, params_range, variant)
    return _execute(cells, workers)


def verify_all(
    n_max: int,
    *,
    n_min: int = 1,
    tags: Sequence[str] | None = None,
    bivariate_cap: int = 15,
    variant: str | None = None,
    workers: int = 1,
    m_grid: Sequence[int] | None = None,
) -> Report:
    """Sweep the whole catalog (or a tag subset, in the order given) up to
    n_max, in one pool when ``workers > 1``.

    Entries over Q(s,x) are capped at ``bivariate_cap`` to bound the
    cross-multiplication cost of the two-variable comparison.  Entries
    with an ``m`` parameter run over ``m_grid`` instead of their default
    grid when it is given.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    selected = [lookup(t) for t in tags] if tags is not None else list(_ENTRIES)
    cells: list[tuple] = []
    for entry in selected:
        top = min(n_max, bivariate_cap) if entry.domain == "Q(s,x)" else n_max
        lo = max(n_min, entry.n_min)
        if top < lo:
            continue
        params_range = None
        if m_grid is not None and any(sp.name == "m" for sp in entry.extra_params):
            params_range = [{"m": v} for v in m_grid]
        cells.extend(plan_cells(entry, range(lo, top + 1), params_range, variant))
    return _execute(cells, workers)


def _execute(cells: list[tuple], workers: int) -> Report:
    report = Report()
    if workers > 1 and len(cells) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for row in pool.map(_cell_args, cells, chunksize=1):
                report.add(row)
    else:
        for cell in cells:
            report.add(_cell_args(cell))
    return report
