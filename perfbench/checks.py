"""Output checks computed apart from the program.

Nothing here compares against a stored copy of the program's output.
Each check either recomputes a value in its own plain ``Fraction`` or
integer arithmetic (the two identities printed in the paper's abstract,
the printed INTRO-2 display, point values of the returned sides), or
tests a property a proof must have (a sampling certificate covers the
full grid its degree bound asks for).  Every check returns ``None`` when
the output passes and a one-line reason when it does not, so that
:func:`self_test` can feed each one a wrong value and see it complain.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from types import SimpleNamespace

# The only cell a correct program fails: the right side of INTRO-2 as
# printed in the paper's introduction.
EXPECTED_FAIL = {("INTRO-2", "printed")}

INTEGER_S_POINTS = (0, 1, 2, 5)


def expected_pass(tag: str, variant) -> bool:
    return (tag, variant) not in EXPECTED_FAIL


def row_key(tag: str, n: int, params: dict) -> tuple:
    return (tag, n, tuple(sorted(params.items())))


def expected_rows(entries, n_max: int, bivariate_cap: int) -> set:
    """Every cell a sweep of the catalog to n_max must report."""
    keys = set()
    for e in entries:
        top = min(n_max, bivariate_cap) if e.domain == "Q(s,x)" else n_max
        for n in range(e.n_min, top + 1):
            for grid in e.default_param_grid():
                for variant in sorted(e.rhs_variants) or [None]:
                    params = dict(grid)
                    if variant is not None:
                        params["variant"] = variant
                    keys.add(row_key(e.tag, n, params))
    return keys


# ---------------------------------------------------------------------------
# Own arithmetic
# ---------------------------------------------------------------------------

_H = {1: [Fraction(0)], 2: [Fraction(0)]}


def H(n: int, r: int = 1) -> Fraction:
    table = _H[r]
    while len(table) <= n:
        i = len(table)
        table.append(table[-1] + Fraction(1, i**r))
    return table[n]


def eq44(n: int) -> tuple[Fraction, Fraction]:
    """Both sides of the abstract's first identity (Eq. 44, ID-6)."""
    lhs = sum(
        (Fraction((-1) ** (k - 1), k) * math.comb(n, k) * H(n - k) for k in range(1, n + 1)),
        Fraction(0),
    )
    rhs = H(n) ** 2 + sum(
        (Fraction((-1) ** k, k * k * math.comb(n, k)) for k in range(1, n + 1)), Fraction(0)
    )
    return lhs, rhs


def eq65(n: int) -> tuple[Fraction, Fraction]:
    """Both sides of the abstract's second identity (Eq. 65, ID-19)."""
    lhs = sum(
        (Fraction((-1) ** (k - 1), k * k) * math.comb(n, k) * H(n - k) for k in range(1, n + 1)),
        Fraction(0),
    )
    tail = sum(
        (
            (-1) ** k * (H(n) - H(k)) / ((k + 1) * (n - k) * math.comb(n, k))
            for k in range(n)
        ),
        Fraction(0),
    )
    rhs = H(n) * (H(n) ** 2 + H(n, 2)) / 2 - tail
    return lhs, rhs


ABSTRACT = {"ID-6": eq44, "ID-19": eq65}


def intro2_printed(n: int) -> tuple[Fraction, Fraction]:
    """INTRO-2's left side and the right side as printed, 4^n/n * C(2n,n)^2."""
    lhs = sum(
        ((-1) ** k * math.comb(n, k) * (H(k) - 2 * H(2 * k)) for k in range(n + 1)),
        Fraction(0),
    )
    return lhs, Fraction(4**n, n) * math.comb(2 * n, n) ** 2


def poly_value(terms: dict, s: Fraction, x: Fraction) -> Fraction:
    """Value of sum c * x^i * s^j over {(i, j): c} at rationals s and x."""
    if not terms:
        return Fraction(0)
    a, b = s.numerator, s.denominator
    c, d = x.numerator, x.denominator
    ds = max(j for _, j in terms)
    dx = max(i for i, _ in terms)
    pa = [a**j for j in range(ds + 1)]
    pb = [b**j for j in range(ds + 1)]
    pc = [c**i for i in range(dx + 1)]
    pd = [d**i for i in range(dx + 1)]
    scale = 1
    for coef in terms.values():
        scale = math.lcm(scale, coef.denominator)
    total = 0
    for (i, j), coef in terms.items():
        total += (
            coef.numerator * (scale // coef.denominator) * pa[j] * pb[ds - j] * pc[i] * pd[dx - i]
        )
    return Fraction(total, scale * pb[ds] * pd[dx])


def side_value(side, s: Fraction, x: Fraction):
    """Value of a num/den side at (s, x); None where the denominator vanishes."""
    den = poly_value(side.den.terms, s, x)
    if den == 0:
        return None
    return poly_value(side.num.terms, s, x) / den


def seeded_values(seed: int, key, sides: list):
    """Point (s, x) drawn from the seed and key, away from the poles
    s = -j and x = -1, with the value of every side there."""
    rng = random.Random(f"{seed}|{key}")
    for _ in range(8):
        s = Fraction(rng.randint(1, 60), rng.randint(1, 7))
        x = Fraction(rng.randint(1, 60), rng.randint(1, 7))
        values = [side_value(side, s, x) for side in sides]
        if all(v is not None for v in values):
            return (s, x), values
    return None, [None] * len(sides)


# ---------------------------------------------------------------------------
# Checks: None when the output passes, else a reason
# ---------------------------------------------------------------------------


def check_verdict(tag, variant, passed, expected_fail):
    want = expected_pass(tag, variant)
    if passed != want:
        return f"{tag} {variant or ''}: verdict {passed}, expected {want}"
    if expected_fail != (not want):
        return f"{tag} {variant or ''}: expected_fail flag {expected_fail}"
    return None


def check_witness(tag, n, variant, witness):
    """A failing INTRO-2 printed cell carries both sides' values at the probe."""
    if expected_pass(tag, variant):
        return None
    if witness is None:
        return f"{tag} n={n} {variant}: no witness"
    lhs, rhs = intro2_printed(n)
    if (witness["lhs_probe"], witness["rhs_probe"]) != (str(lhs), str(rhs)):
        return (
            f"{tag} n={n} {variant}: witness {witness['lhs_probe']} vs "
            f"{witness['rhs_probe']}, expected {lhs} vs {rhs}"
        )
    return None


def check_values(tag, variant, point, lhs_val, rhs_val):
    """The two sides agree at a point iff the identity is expected to hold."""
    if point is None:
        return f"{tag} {variant or ''}: no pole-free sample point"
    if (lhs_val == rhs_val) != expected_pass(tag, variant):
        return f"{tag} {variant or ''}: sides {lhs_val} and {rhs_val} at {point}"
    return None


def check_abstract(tag, n, lhs_val, rhs_val):
    """ID-6 and ID-19 against the abstract's formulas, side by side."""
    if tag not in ABSTRACT:
        return None
    want = ABSTRACT[tag](n)
    if want[0] != want[1]:
        return f"{tag} n={n}: abstract formula does not hold: {want}"
    if (lhs_val, rhs_val) != want:
        return f"{tag} n={n}: sides {lhs_val}, {rhs_val}; abstract gives {want[0]}"
    return None


def check_certificate(tag, variant, points, bound, all_equal):
    """A grid certificate needs (bs+1)(bx+1) distinct points on a grid of
    bs+1 values of s by bx+1 values of x, all away from the poles."""
    bs, bx = bound
    pts = set(points)
    svals = {p[0] for p in pts}
    xvals = {p[1] for p in pts}
    if len(pts) < (bs + 1) * (bx + 1) or len(svals) < bs + 1 or len(xvals) < bx + 1:
        return f"{tag}: {len(pts)} points for degree bound {bound}"
    if any(s <= 0 or x <= 0 for s, x in pts):
        return f"{tag}: sample point at or beyond a pole"
    if all_equal != expected_pass(tag, variant):
        return f"{tag} {variant or ''}: sampling verdict {all_equal}"
    return None


def check_integer_s(tag, variant, results):
    want = expected_pass(tag, variant)
    if len(results) != len(INTEGER_S_POINTS) or any(r != want for r in results):
        return f"{tag} {variant or ''}: integer-s verdicts {results}"
    return None


def check_rows(keys: list, expected: set):
    if len(keys) != len(expected) or set(keys) != expected:
        missing = sorted(expected - set(keys))[:3]
        extra = sorted(set(keys) - expected)[:3]
        return f"{len(keys)} rows for {len(expected)} cells; missing {missing} extra {extra}"
    return None


def check_corpus_load(names: list, issues: list, unchecked: list, tags: set):
    if issues:
        return f"corpus has {len(issues)} parse issues"
    if unchecked:
        return f"corpus lines fail the domain check: {unchecked[:3]}"
    if len(names) != 38:
        return f"corpus has {len(names)} lines, expected 38"
    covered = {name.split("[", 1)[0] for name in names}
    if covered != tags:
        return f"corpus and catalog tags differ: {sorted(covered ^ tags)}"
    return None


def check_same(what, a, b):
    if a is None or a != b:
        return f"{what}: {a} vs {b}"
    return None


# ---------------------------------------------------------------------------
# Self-test: each check must reject a deliberately wrong value
# ---------------------------------------------------------------------------


def _perturbed(side):
    terms = dict(side.num.terms)
    key = next(iter(terms))
    terms[key] = terms[key] + 1
    return SimpleNamespace(num=SimpleNamespace(terms=terms), den=side.den)


def self_test(sample: dict) -> list[str]:
    """Names of checks that accepted a wrong value (empty when none did).

    ``sample`` holds real outputs of this round: a row, a witness row, a
    pair of sides over s or x, a certificate and so on; each check is run
    on a corrupted copy.
    """
    vacuous = []

    def expect_flag(name, reason):
        if reason is None:
            vacuous.append(name)

    if "row" in sample:
        tag, variant, passed, xfail = sample["row"]
        expect_flag("verdict", check_verdict(tag, variant, not passed, xfail))
        expect_flag("verdict-flag", check_verdict(tag, variant, passed, not xfail))
    if "witness" in sample:
        n, witness = sample["witness"]
        bad = dict(witness, rhs_probe=str(Fraction(witness["rhs_probe"]) + 1))
        expect_flag("witness", check_witness("INTRO-2", n, "printed", bad))
        expect_flag("witness-missing", check_witness("INTRO-2", n, "printed", None))
    if "sides" in sample:
        tag, point, lhs, rhs = sample["sides"]
        rhs_val = side_value(rhs, *point)
        expect_flag(
            "side-values",
            check_values(tag, None, point, side_value(_perturbed(lhs), *point), rhs_val),
        )
    for tag, n in (("ID-6", 3), ("ID-19", 4)):
        lhs, rhs = ABSTRACT[tag](n)
        expect_flag(f"abstract-{tag}", check_abstract(tag, n, lhs + 1, rhs))
        expect_flag(f"abstract-{tag}-rhs", check_abstract(tag, n, lhs, rhs - Fraction(1, 7)))
    if "certificate" in sample:
        tag, points, bound, all_equal = sample["certificate"]
        expect_flag("certificate-short", check_certificate(tag, None, points[:-1], bound, all_equal))
        expect_flag("certificate-verdict", check_certificate(tag, None, points, bound, not all_equal))
    if "integer_s" in sample:
        tag, results = sample["integer_s"]
        expect_flag("integer-s", check_integer_s(tag, None, [not results[0], *results[1:]]))
    if "rows" in sample:
        keys, expected = sample["rows"]
        expect_flag("row-set", check_rows(keys[1:], expected))
    if "corpus" in sample:
        names, tags = sample["corpus"]
        expect_flag("corpus-issues", check_corpus_load(names, ["issue"], [], tags))
        expect_flag("corpus-count", check_corpus_load(names[1:], [], [], tags))
    if "same" in sample:
        what, value = sample["same"]
        expect_flag("corpus-vs-catalog", check_same(what, value, value + 1))
    return vacuous
