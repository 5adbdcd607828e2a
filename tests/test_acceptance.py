"""Top-level acceptance gate: eight checks, one visible verdict line each.

Each test prints "ACCEPTANCE-<k> <label>: PASS|FAIL" on the real stdout
so the verdicts survive output capture, then asserts.
"""

import math
import random
import re
import time
from fractions import Fraction
from pathlib import Path

import pytest

from hforge.bivar import BiFrac, BiPoly, FactoredFrac, _div_exact, bifrac_eq
from hforge.catalog import catalog as catalog_entries
from hforge.catalog import lookup, verify_all
from hforge.dsl import check, check_identity, load_corpus, parse_expr
from hforge.exact import poly_gcd
from hforge.oracle import degree_bound, integer_s_check, sampling_verify
from hforge.special import (
    binom_factor,
    binom_int,
    binom_neg3half,
    harmonic,
    psi1_factor,
    psi_factor,
)

CORPUS = Path(__file__).resolve().parent.parent / "corpus" / "paper.ids"
HALF = Fraction(1, 2)


@pytest.fixture()
def announce(capsys):
    """Verdict printer that bypasses output capture."""

    def emit(num, label, ok):
        with capsys.disabled():
            print(f"ACCEPTANCE-{num} {label}: {'PASS' if ok else 'FAIL'}")
        return ok

    return emit


@pytest.fixture(scope="module")
def full_sweep():
    start = time.time()
    report = verify_all(25)
    return report, time.time() - start


def row_key(row):
    params = {k: v for k, v in row.params.items() if k != "variant"}
    return (row.id, row.n, tuple(sorted(params.items())), row.params.get("variant"))


def test_acceptance_1_full_catalog_sweep(full_sweep, announce):
    report, elapsed = full_sweep
    unexpected = [r for r in report.rows if not r.ok]
    excused = [r for r in report.rows if r.expected_fail]
    only_known_misprint = all(
        r.id == "INTRO-2" and r.params.get("variant") == "printed" and not r.passed
        for r in excused
    ) and len(excused) == 25
    first = next(
        r for r in excused if r.n == 1
    )
    witness_ok = (
        first.witness is not None
        and first.witness.lhs_probe == "2"
        and first.witness.rhs_probe == "16"
    )
    ok = (
        not unexpected
        and only_known_misprint
        and witness_ok
        and report.total == 945
        and elapsed < 300
    )
    assert announce(1, "full catalog sweep to n=25", ok), (
        f"unexpected failures: {[(r.id, r.n, r.params) for r in unexpected][:5]}, "
        f"excused={len(excused)}, witness_ok={witness_ok}, "
        f"total={report.total}, elapsed={elapsed:.0f}s"
    )


def test_acceptance_2_spot_values(announce):
    id5 = lookup("ID-5")
    id16 = lookup("ID-16")
    ok = (
        id5.lhs(3, {}).as_constant() == Fraction(11, 6)
        and id5.rhs(3, {}).as_constant() == Fraction(11, 6)
        and lookup("ID-17").lhs(2, {}).as_constant() == Fraction(7, 4)
        and lookup("ID-17").rhs(2, {}).as_constant() == Fraction(7, 4)
        and all(
            lookup("ID-10").rhs(n, {}).as_constant() == Fraction(-2, n * n)
            for n in range(1, 26)
        )
        and all(
            lookup("ID-11").rhs(n, {}).as_constant() == Fraction((-1) ** n - 1, n + 1)
            for n in range(1, 26)
        )
        and all(
            id16.lhs(n, {}).as_constant()
            == id16.rhs(n, {}).as_constant()
            == Fraction(1, 2 * n - 1)
            for n in range(1, 26)
        )
    )
    assert announce(2, "frozen spot values", ok)


def value_at(f: FactoredFrac, s0: Fraction) -> Fraction:
    return f.to_bifrac().subst_s(s0).as_constant()


def test_acceptance_3_half_integer_reductions(announce):
    ok = True
    for k in range(0, 21):
        want = Fraction((-1) ** k, 4 ** k) * binom_int(2 * k, k)
        ok = ok and value_at(binom_factor(0, k), -HALF) == want
    for n in range(0, 21):
        ok = ok and value_at(binom_factor(-1, n), -HALF) == binom_neg3half(n)
    for k in range(1, 21):
        got = value_at(psi_factor(k, 0), HALF - k)
        ok = ok and got == harmonic(k) - 2 * harmonic(2 * k)
    for n in range(1, 21):
        got = value_at(psi_factor(n, 0), Fraction(-2 * n - 1, 2))
        want = Fraction(4 * n, 2 * n + 1) - 2 * harmonic(2 * n) + harmonic(n)
        ok = ok and got == want
    assert announce(3, "half-integer reductions", ok)


def test_acceptance_4_derivative_chains(announce):
    links = [
        ("THM-2.1", "THM-2.2"),
        ("THM-2.2", "THM-2.4"),
        ("THM-2.6", "THM-2.7"),
        ("THM-2.7", "THM-2.8"),
        ("THM-2.9", "THM-2.10"),
        ("THM-2.10", "THM-2.11"),
    ]
    ok = True
    for src, dst in links:
        a, b = lookup(src), lookup(dst)
        for n in range(1, 11):
            ok = ok and bifrac_eq(a.lhs(n, {}).deriv_s(), b.lhs(n, {}))
            ok = ok and bifrac_eq(a.rhs(n, {}).deriv_s(), b.rhs(n, {}))
    assert announce(4, "derivative chains", ok)


def test_acceptance_5_specializations(announce):
    ok = True
    for n in range(1, 16):
        for src, dst, x0 in (
            ("THM-2.2", "COR-2.3", -1),
            ("THM-2.4", "COR-2.5", -1),
            ("THM-2.1", "ID-1", -1),
            ("ID-7", "ID-8", 1),
        ):
            a, b = lookup(src), lookup(dst)
            ok = ok and bifrac_eq(a.lhs(n, {}).subst_x(x0), b.lhs(n, {}))
            ok = ok and bifrac_eq(a.rhs(n, {}).subst_x(x0), b.rhs(n, {}))
        for src, dst in (("THM-2.6", "ID-5"), ("THM-2.9", "ID-17")):
            a, b = lookup(src), lookup(dst)
            ok = ok and bifrac_eq(a.lhs(n, {}).subst_s(0), b.lhs(n, {}))
            ok = ok and bifrac_eq(a.rhs(n, {}).subst_s(0), b.rhs(n, {}))
        for m in (2, 3):
            a, b = lookup("ID-13"), lookup("ID-14")
            ok = ok and bifrac_eq(a.lhs(n, {"m": m}), b.lhs(n, {"m": m}))
            ok = ok and bifrac_eq(a.rhs(n, {"m": m}), b.rhs(n, {"m": m}))
    assert announce(5, "specialization lattice", ok)


def test_acceptance_6_oracle_equivalence(full_sweep, announce):
    report, _ = full_sweep
    verdicts = {row_key(r): r.passed for r in report.rows}
    ok = True
    for entry in catalog_entries():
        variants = sorted(entry.rhs_variants) if entry.rhs_variants else [None]
        for n in range(entry.n_min, 16):
            for params in entry.default_param_grid():
                for variant in variants:
                    key = (entry.tag, n, tuple(sorted(params.items())), variant)
                    symbolic = verdicts[key]
                    cert = sampling_verify(entry, n, params, variant)
                    bs, bx = degree_bound(entry, n)
                    ok = ok and cert.all_equal == symbolic
                    ok = ok and cert.point_count > bs * bx
                    ok = ok and cert.degree_bound == (bs, bx)
                    if "s" in entry.domain:
                        for s0 in (0, 1, 3):
                            got = integer_s_check(entry, n, s0, params, variant)
                            ok = ok and got == symbolic
    assert announce(6, "oracle equivalence", ok)


GOLDEN_DIAGNOSTICS = [
    ("H(n", False, (3, 3), "unclosed '(' in call to H"),
    ("2^(1/2)", True, (3, 6), "exponent must be integer-valued"),
    ("a^b^c", False, (3, 4), "'^' is non-associative"),
    ("H(x)", True, (2, 3), "argument 1 of H must be integer-valued"),
    ("G(2)", True, (0, 4), "unknown builtin 'G'"),
]


def test_acceptance_7_dsl_corpus(full_sweep, announce):
    report, _ = full_sweep
    verdicts = {row_key(r): r.passed for r in report.rows}
    entries, issues = load_corpus(CORPUS)
    ok = not issues and len(entries) == 38

    for entry in entries:
        match = re.fullmatch(r"(.+?)\[m=(\d+)\]", entry.name)
        tag = match.group(1) if match else entry.name
        params = (("m", int(match.group(2))),) if match else ()
        variant = "corrected" if tag == "INTRO-2" else None
        corpus_report = check_identity(
            entry.identity.lhs, entry.identity.rhs, range(1, 16), name=entry.name
        )
        for row in corpus_report.rows:
            ok = ok and row.passed
            ok = ok and row.passed == verdicts[(tag, row.n, params, variant)]

    for source, needs_check, span, message in GOLDEN_DIAGNOSTICS:
        result = parse_expr(source)
        if needs_check:
            result = check(result)
        ok = (
            ok
            and isinstance(result, list)
            and len(result) == 1
            and result[0].span == span
            and result[0].message == message
        )
    assert announce(7, "identity language corpus", ok)


def test_acceptance_8_kernel_property_suites(announce):
    rng = random.Random(20260822)

    def bipoly(max_deg=2, span=5):
        terms = {
            (rng.randint(0, max_deg), rng.randint(0, max_deg)):
                Fraction(rng.randint(-span, span), rng.randint(1, 3))
            for _ in range(rng.randint(0, 4))
        }
        return BiPoly(terms)

    def nonzero_bipoly():
        p = bipoly()
        while p.is_zero():
            p = bipoly()
        return p

    def factored():
        """A nonzero numerator over s + j, x + 1 and general factors."""
        den = []
        for _ in range(rng.randint(0, 3)):
            kind = rng.randint(0, 2)
            if kind == 0:
                f = BiPoly.s() + rng.randint(-3, 3)
            elif kind == 1:
                f = (BiPoly.x() + 1).scale(rng.choice((-2, -1, 1, 3)))
            else:
                f = nonzero_bipoly()
            den.append((f, rng.randint(1, 2)))
        return FactoredFrac(nonzero_bipoly(), den)

    def bifrac():
        terms = {
            (rng.randint(0, 2), rng.randint(0, 2)): Fraction(rng.randint(-4, 4))
            for _ in range(rng.randint(1, 3))
        }
        num = BiPoly(terms)
        den = BiPoly({(rng.randint(0, 2), rng.randint(0, 2)): Fraction(rng.randint(1, 4))})
        return BiFrac(num, den)

    def int_poly(max_deg=3, span=5):
        row = [rng.randint(-span, span) for _ in range(rng.randint(1, max_deg + 1))]
        row[-1] = row[-1] or 1
        return row

    def quotient(a, g):
        try:
            return _div_exact(a, g)
        except ValueError:
            return None

    ok = True

    # ring laws on BiPoly
    for _ in range(1000):
        p, q, r = bipoly(), bipoly(), bipoly()
        ok = ok and p + q == q + p and p * q == q * p
        ok = ok and (p + q) + r == p + (q + r) and (p * q) * r == p * (q * r)
        ok = ok and p * (q + r) == p * q + p * r
        ok = ok and p - p == 0 and p + 0 == p and p * 1 == p

    # field laws on FactoredFrac and BiFrac
    for _ in range(1000):
        f = factored()
        ok = ok and (f * f.inverse()).to_bifrac() == 1 and (f - f).is_zero()
        g = bifrac()
        if not g.is_zero():
            ok = ok and g * (1 / g) == 1
        ok = ok and g - g == 0

    # the content x primitive form is unique; the integer gcd divides both
    # operands, is symmetric, and leaves coprime cofactors
    for _ in range(1000):
        p = nonzero_bipoly()
        c = Fraction(rng.choice((-1, 1)) * rng.randint(1, 6), rng.randint(1, 6))
        q = p.scale(c)
        rebuilt = BiPoly({key: v * c for key, v in p.terms.items()})
        ok = ok and q == rebuilt and hash(q) == hash(rebuilt)
        ok = ok and q.content() == p.content() * abs(c) > 0
        ints = [v / q.content() for v in q.terms.values()]
        ok = ok and all(v.denominator == 1 for v in ints)
        ok = ok and math.gcd(*(v.numerator for v in ints)) == 1
        h, u, v = int_poly(max_deg=2), int_poly(), int_poly()
        a, b = _times(h, u), _times(h, v)
        g = poly_gcd(a, b)
        ok = ok and g == poly_gcd(b, a) and g[-1] > 0
        cofactors = [quotient(a, g), quotient(b, g)]
        ok = ok and None not in cofactors and poly_gcd(*cofactors) == (1,)
        ok = ok and quotient(g, poly_gcd(h, ())) is not None

    # cross-multiplied equality is an equivalence relation
    for _ in range(1000):
        a = bifrac()
        scale = BiPoly.const(Fraction(rng.randint(1, 5)))
        b = BiFrac(a.num * scale, a.den * scale)
        c = BiFrac(b.num * scale, b.den * scale)
        other = bifrac()
        ok = ok and bifrac_eq(a, a) and bifrac_eq(a, b) and bifrac_eq(b, a)
        ok = ok and bifrac_eq(a, c)
        ok = ok and bifrac_eq(a, other) == bifrac_eq(other, a)

    # telescoping of digamma differences, from the one-step difference
    s = FactoredFrac.var_s()
    for _ in range(1000):
        b = rng.randint(0, 6)
        c = b + rng.randint(0, 6)
        a = c + rng.randint(0, 6)
        ok = ok and _same(psi_factor(a, b), psi_factor(a, c) + psi_factor(c, b))
        ok = ok and _same(psi1_factor(a, b), psi1_factor(a, c) + psi1_factor(c, b))
        derivative = psi_factor(a, b).to_bifrac().deriv_s()
        ok = ok and bifrac_eq(derivative, psi1_factor(a, b).to_bifrac())
        ok = ok and _same(psi_factor(b + 1, b), (s + b).inverse())
        ok = ok and _same(psi1_factor(b + 1, b), -((s + b) ** -2))

    # Pascal and absorption for shifted binomials, from C(s+a, 0) = 1
    for _ in range(1000):
        a = rng.randint(-6, 6)
        k = rng.randint(1, 8)
        pascal = binom_factor(a, k) + binom_factor(a, k - 1)
        ok = ok and _same(binom_factor(a + 1, k), pascal)
        absorbed = (s + a) * Fraction(1, k) * binom_factor(a - 1, k - 1)
        ok = ok and _same(binom_factor(a, k), absorbed)
        ok = ok and binom_factor(a, 0).to_bifrac() == 1

    assert announce(8, "kernel property suites", ok)


def _same(f: FactoredFrac, g: FactoredFrac) -> bool:
    return bifrac_eq(f.to_bifrac(), g.to_bifrac())


def _times(a, b):
    """The product of two integer coefficient lists, by the definition."""
    out = [0] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] += u * v
    return out
