"""Sparse two-variable polynomials and unreduced fraction pairs."""

import math
import pickle
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hforge import bivar
from hforge.bivar import (
    BiFrac,
    BiPoly,
    FactoredFrac,
    bifrac_eq,
    cross_difference,
    ffsum,
)
from hforge.exact import PoleError, ZeroDenominatorError, poly_gcd
from hforge.special import binom_factor, psi_factor

keys = st.tuples(st.integers(0, 3), st.integers(0, 3))
coeffs = st.fractions(min_value=-6, max_value=6, max_denominator=4)
bipolys = st.dictionaries(keys, coeffs, max_size=4).map(BiPoly)


def rand_bipoly(rng, max_deg=2, span=5):
    terms = {}
    for _ in range(rng.randint(0, 4)):
        key = (rng.randint(0, max_deg), rng.randint(0, max_deg))
        terms[key] = Fraction(rng.randint(-span, span))
    return BiPoly(terms)


def rand_s_poly(rng, max_deg=3, span=5):
    row = [rng.randint(-span, span) for _ in range(rng.randint(0, max_deg + 1))]
    return BiPoly.from_rows((row,), Fraction(rng.randint(1, 4), rng.randint(1, 4)))


def rand_bifrac(rng):
    num = rand_bipoly(rng)
    den = rand_bipoly(rng)
    while den.is_zero():
        den = rand_bipoly(rng)
    return BiFrac(num, den)


class TestBiPoly:
    def test_zero_coefficients_are_dropped(self):
        assert BiPoly({(1, 0): 0, (0, 0): 2}) == BiPoly.const(2)
        assert BiPoly({}).is_zero()

    def test_builders_and_degrees(self):
        p = BiPoly.x(2) * BiPoly.s() + BiPoly.one()
        assert p.deg_x == 2 and p.deg_s == 1
        assert p.min_x() == 0 and p.min_s() == 0
        assert BiPoly.x().min_x() == 1

    def test_scalar_mixing(self):
        p = BiPoly.x() + 1
        assert 1 + BiPoly.x() == p
        assert 2 * p == p + p
        assert p - 1 == BiPoly.x()
        assert 1 - BiPoly.x() == -(BiPoly.x() - 1)

    def test_evaluation_matches_structure(self):
        p = BiPoly.x(2) * BiPoly.s() - BiPoly.const(3)
        assert p.eval(Fraction(2), Fraction(3)) == 9 * 2 - 3
        assert p.eval_x(1) == BiPoly.s() - BiPoly.const(3)
        assert p.eval_s(0) == BiPoly.const(-3)

    def test_synthetic_division_by_roots(self):
        p = BiPoly.x(2) - BiPoly.one()
        assert p.synth_div_x(1) == BiPoly.x() + BiPoly.one()
        q = (BiPoly.s() - BiPoly.one()) * (BiPoly.x() + BiPoly.s())
        assert q.synth_div_s(1) == BiPoly.x() + BiPoly.s()

    def test_synthetic_division_requires_a_root(self):
        with pytest.raises(ValueError):
            (BiPoly.x() - BiPoly.one()).synth_div_x(2)
        with pytest.raises(ValueError):
            (BiPoly.s() - BiPoly.one()).synth_div_s(0)

    def test_shift_down_divides_monomials(self):
        p = BiPoly.x(2) * BiPoly.s(3)
        assert p.shift_down(1, 2) == BiPoly.x() * BiPoly.s()

    def test_deriv_s(self):
        p = BiPoly.s(3) * BiPoly.x()
        assert p.deriv_s() == BiPoly.s(2) * BiPoly.x() * 3
        assert BiPoly.x().deriv_s().is_zero()

    def test_pow(self):
        p = BiPoly.x() + BiPoly.s()
        assert p ** 2 == p * p
        assert (p ** 0).as_constant() == 1
        with pytest.raises(ValueError):
            p ** -1


@given(bipolys, bipolys, bipolys)
@settings(max_examples=50, deadline=None)
def test_bipoly_ring_axioms(p, q, r):
    assert p + q == q + p
    assert (p + q) + r == p + (q + r)
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + BiPoly.zero() == p
    assert p * BiPoly.one() == p


class TestBiFrac:
    def test_equality_is_cross_multiplied(self):
        # (x-1)/(x^2-1) stays unreduced but equals 1/(x+1)
        a = BiFrac(BiPoly.x() - 1, BiPoly.x(2) - 1)
        b = BiFrac(BiPoly.one(), BiPoly.x() + 1)
        assert a == b
        assert bifrac_eq(a, b)
        assert cross_difference(a, b).is_zero()

    def test_equal_fractions_hash_alike(self):
        a = BiFrac(BiPoly.x() - 1, BiPoly.x(2) - 1)
        b = BiFrac(BiPoly.one(), BiPoly.x() + 1)
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        # a common factor in s and a sign moved into both parts
        g = BiPoly.s() * BiPoly.x() - 3
        c = BiFrac(-(BiPoly.x() - 1) * g, -(BiPoly.x(2) - 1) * g)
        assert c == a and hash(c) == hash(a)
        # constants hash like the numbers they equal
        assert hash(BiFrac(BiPoly.const(6), BiPoly.const(4))) == hash(Fraction(3, 2))
        assert hash(BiFrac(BiPoly.zero(), BiPoly.s())) == hash(0)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDenominatorError):
            BiFrac(BiPoly.one(), BiPoly.zero())

    def test_promotions(self):
        assert BiFrac.from_rational(Fraction(1, 2)).as_constant() == Fraction(1, 2)
        b = BiFrac(BiPoly.s() + 1, BiPoly.s())
        assert b - 1 == BiFrac(BiPoly.one(), BiPoly.s())
        assert b * BiPoly.s() == BiPoly.s() + 1
        assert Fraction(1, 2) + b == BiFrac(BiPoly.s() * 3 + 2, BiPoly.s() * 2)
        assert b.__add__("1") is NotImplemented

    def test_lowest_terms_requires_x_free(self):
        for b in (BiFrac(BiPoly.x(), BiPoly.s()), BiFrac(BiPoly.s(), BiPoly.x() + 1)):
            with pytest.raises(ValueError):
                b.lowest_terms()

    def test_subst_cancels_removable_zeros(self):
        b = BiFrac(BiPoly.x() - 1, BiPoly.x(2) - 1)
        assert b.subst_x(1).as_constant() == Fraction(1, 2)

    def test_subst_raises_at_true_poles(self):
        b = BiFrac(BiPoly.x(), BiPoly.s())
        with pytest.raises(PoleError) as exc:
            b.subst_s(0)
        assert exc.value.var == "s"
        with pytest.raises(PoleError):
            BiFrac(BiPoly.one(), BiPoly.x() + 1).subst_x(-1)

    def test_field_operations_agree_with_pointwise(self):
        rng = random.Random(41)
        pts = [(Fraction(1), Fraction(2)), (Fraction(2), Fraction(3)), (Fraction(3), Fraction(5))]
        for _ in range(40):
            a, b = rand_bifrac(rng), rand_bifrac(rng)
            for op in ("add", "sub", "mul"):
                c = {"add": a + b, "sub": a - b, "mul": a * b}[op]
                for s0, x0 in pts:
                    try:
                        want = {
                            "add": a.eval(s0, x0) + b.eval(s0, x0),
                            "sub": a.eval(s0, x0) - b.eval(s0, x0),
                            "mul": a.eval(s0, x0) * b.eval(s0, x0),
                        }[op]
                        assert c.eval(s0, x0) == want
                    except (ZeroDivisionError, PoleError):
                        continue

    def test_deriv_s_quotient_rule_pointwise(self):
        # d/ds (s/(s+x)) = x/(s+x)^2
        b = BiFrac(BiPoly.s(), BiPoly.s() + BiPoly.x())
        expect = BiFrac(BiPoly.x(), (BiPoly.s() + BiPoly.x()) ** 2)
        assert bifrac_eq(b.deriv_s(), expect)

    def test_pow_and_division(self):
        b = BiFrac(BiPoly.x(), BiPoly.s())
        assert b ** 2 == b * b
        assert bifrac_eq(b ** -1, 1 / b)
        assert bifrac_eq(b / b, BiFrac.from_rational(1))

    def test_string_form(self):
        assert str(BiFrac(BiPoly.x(), BiPoly.s()) + 1) == "(x + s) / (s)"


class TestLowestTerms:
    """``BiFrac.lowest_terms``: the display form of an x-free value."""

    def test_known_cases(self):
        s = BiPoly.s()
        cases = [
            (BiFrac(s + 1, s * 2 + 2), "1/2", "1"),
            (BiFrac(BiPoly.one(), s * 3 + 6), "1/3", "s + 2"),
            (BiFrac(s * s - 1, (s - 1) * (s + 3)), "s + 1", "s + 3"),
            (BiFrac(-s, -s - 1), "s", "s + 1"),
            (BiFrac(BiPoly.const(2), s * s * 4 - 1), "1/2", "s^2 - 1/4"),
            (BiFrac(BiPoly.zero(), s), "0", "1"),
        ]
        for value, num, den in cases:
            got = value.lowest_terms()
            assert (str(got[0]), str(got[1])) == (num, den), value

    def test_reduced_monic_and_equal_to_the_value(self):
        rng = random.Random(67)
        for _ in range(200):
            p, q, g = (rand_s_poly(rng) for _ in range(3))
            if q.is_zero() or g.is_zero():
                continue
            value = BiFrac(p * g, q * g)
            num, den = value.lowest_terms()
            assert BiFrac(num, den) == value
            assert den.terms[(0, den.deg_s)] == 1
            if not num.is_zero():
                assert poly_gcd(num._r[0], den._r[0]) == (1,)
            assert (num, den) == BiFrac(p, q).lowest_terms()


def test_bifrac_eq_is_an_equivalence_relation():
    rng = random.Random(47)
    pool = [rand_bifrac(rng) for _ in range(12)]
    # scaled copies land in the same class without reduction
    for b in pool[:6]:
        two = BiPoly.const(2)
        pool.append(BiFrac(b.num * two, b.den * two))
    for a in pool:
        assert bifrac_eq(a, a)
    for a in pool:
        for b in pool:
            assert bifrac_eq(a, b) == bifrac_eq(b, a)
            for c in pool:
                if bifrac_eq(a, b) and bifrac_eq(b, c):
                    assert bifrac_eq(a, c)


class TestFactoredFrac:
    def test_sum_keeps_factorwise_max_denominator(self):
        one_px = FactoredFrac.var_x() + 1
        a = one_px.inverse()
        b = (one_px * one_px).inverse()
        total = (a + b).to_bifrac()
        expect = BiFrac(BiPoly.x() + 2, (BiPoly.x() + 1) ** 2)
        assert bifrac_eq(total, expect)

    def test_inverse_of_product_splits_factors(self):
        f = FactoredFrac.var_s() * (FactoredFrac.var_x() + 1)
        inv = f.inverse().to_bifrac()
        assert bifrac_eq(inv, BiFrac(BiPoly.one(), BiPoly.s() * (BiPoly.x() + 1)))

    def test_inverse_keys_each_linear_factor_of_a_product(self):
        # C(s+3, 2) = (s+2)(s+3)/2 and C(s+3, 3) = (s+1)(s+2)(s+3)/6
        cs2, cs3 = binom_factor(3, 2), binom_factor(3, 3)
        assert cs2.inverse()._f == {2: 1, 3: 1}
        quotient = cs3 / cs2
        assert quotient._f == {}
        assert quotient.num == BiPoly({(0, 0): Fraction(1, 3), (0, 1): Fraction(1, 3)})
        s, x = BiPoly.s(), BiPoly.x()
        assert FactoredFrac(s * s + 1).inverse()._f == {s * s + 1: 1}
        # (x+1)^2 (s-7)^2 (s^2+x+1) s: the monomial, the x + 1, the s - 7 and
        # what is left each get a key
        f = FactoredFrac((x + 1) ** 2 * (s - 7) ** 2 * (s * s + x + 1) * s * -3)
        inv = f.inverse()
        assert {k: m for k, m in inv._f.items() if type(k) is not BiPoly} == {
            bivar.X1: 2, -7: 2, 0: 1
        }
        assert [m for k, m in inv._f.items() if type(k) is BiPoly] == [1]
        assert (f * inv).to_bifrac() == 1

    def test_inverse_rejects_zero(self):
        with pytest.raises(ZeroDenominatorError):
            FactoredFrac.from_scalar(0).inverse()

    def test_negative_pow_and_division(self):
        f = FactoredFrac.var_x() + 1
        assert bifrac_eq((f ** -2).to_bifrac(), BiFrac(BiPoly.one(), (BiPoly.x() + 1) ** 2))
        q = (FactoredFrac.var_s() / f).to_bifrac()
        assert bifrac_eq(q, BiFrac(BiPoly.s(), BiPoly.x() + 1))

    def test_ffsum_matches_sequential_addition(self):
        rng = random.Random(53)
        terms = []
        for k in range(1, 6):
            terms.append((FactoredFrac.var_s() + k).inverse())
        total = ffsum(terms).to_bifrac()
        seq = FactoredFrac.from_scalar(0)
        for t in terms:
            seq = seq + t
        assert bifrac_eq(total, seq.to_bifrac())
        # pointwise spot check at s=1: sum 1/(1+k)
        got = total.subst_x(0).subst_s(1).as_constant()
        assert got == sum(Fraction(1, 1 + k) for k in range(1, 6))

    def test_scalar_mixing(self):
        f = FactoredFrac.var_x()
        assert bifrac_eq((2 * f).to_bifrac(), (f + f).to_bifrac())
        assert bifrac_eq((f - 1).to_bifrac(), BiFrac(BiPoly.x() - 1, BiPoly.one()))


# -- the integer kernel against a plain Fraction-dict reference -------------

Ref = dict  # {(x_degree, s_degree): Fraction}, no zero values


def ref_add(a: Ref, b: Ref) -> Ref:
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + v
    return {k: v for k, v in out.items() if v}


def ref_mul(a: Ref, b: Ref) -> Ref:
    out: Ref = {}
    for (xa, sa), va in a.items():
        for (xb, sb), vb in b.items():
            k = (xa + xb, sa + sb)
            out[k] = out.get(k, 0) + va * vb
    return {k: v for k, v in out.items() if v}


def ref_pow(a: Ref, e: int) -> Ref:
    out: Ref = {(0, 0): Fraction(1)}
    for _ in range(e):
        out = ref_mul(out, a)
    return out


def ref_scale(a: Ref, c: Fraction) -> Ref:
    return {k: v * c for k, v in a.items() if v * c}


def ref_deriv_s(a: Ref) -> Ref:
    return {(i, j - 1): v * j for (i, j), v in a.items() if j}


def assert_canonical(p: BiPoly) -> None:
    if p.is_zero():
        assert (p._n, p._d, p._r) == (0, 1, ())
        return
    assert p._n > 0 and p._d > 0 and math.gcd(p._n, p._d) == 1
    assert type(p._r) is tuple and all(type(r) is tuple for r in p._r)
    assert all(type(v) is int for r in p._r for v in r)
    assert p._r[-1] and all(not r or r[-1] for r in p._r)  # no trailing zeros
    assert math.gcd(*(v for r in p._r for v in r)) == 1


def assert_matches(p: BiPoly, ref: Ref) -> None:
    assert_canonical(p)
    assert dict(p.terms) == ref
    assert all(isinstance(v, Fraction) for v in p.terms.values())


wide_coeffs = st.fractions(min_value=-40, max_value=40, max_denominator=12)
ref_polys = st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 4)), wide_coeffs, max_size=6
).map(lambda d: {k: v for k, v in d.items() if v})
scalars = st.fractions(min_value=-9, max_value=9, max_denominator=9)


@given(ref_polys, ref_polys, scalars)
@settings(max_examples=150, deadline=None)
def test_kernel_agrees_with_the_fraction_reference(a, b, c):
    p, q = BiPoly(a), BiPoly(b)
    assert_matches(p, a)
    assert_matches(p + q, ref_add(a, b))
    assert_matches(p - q, ref_add(a, ref_scale(b, Fraction(-1))))
    assert_matches(-p, ref_scale(a, Fraction(-1)))
    assert_matches(p * q, ref_mul(a, b))
    assert_matches(p.scale(c), ref_scale(a, c))
    assert_matches(p * BiPoly.const(c), ref_scale(a, c))
    assert_matches(p.deriv_s(), ref_deriv_s(a))
    for e in range(4):
        assert_matches(p ** e, ref_pow(a, e))
    shifted = p * BiPoly.x(2) * BiPoly.s(3)
    assert_matches(shifted.shift_down(2, 3), a)
    assert_matches(shifted.shift_down(1, 0), ref_mul(a, {(1, 3): Fraction(1)}))


@given(ref_polys, ref_polys, ref_polys)
@settings(max_examples=60, deadline=None)
def test_equal_polynomials_from_different_routes_hash_alike(a, b, c):
    p, q, r = BiPoly(a), BiPoly(b), BiPoly(c)
    left, right = (p + q) * r, p * r + q * r
    assert left == right and hash(left) == hash(right)
    rebuilt = BiPoly(dict(left.terms))
    assert rebuilt == left and hash(rebuilt) == hash(left)
    assert (p - p) == BiPoly.zero() and hash(p - p) == hash(BiPoly.zero())


def test_content_and_primitive_part_are_unique():
    half = BiPoly({(0, 0): Fraction(2, 4)})
    assert half == BiPoly.const(Fraction(1, 2))
    assert hash(half) == hash(BiPoly.const(Fraction(1, 2)))
    p = BiPoly({(1, 0): Fraction(-4, 3), (0, 2): Fraction(2, 9)})
    assert p.content() == Fraction(2, 9)
    assert p._r == ((0, 0, 1), (-6,))
    assert p == BiPoly.from_ints({(1, 0): -12, (0, 2): 2, (3, 3): 0}, Fraction(1, 9))
    assert BiPoly.from_ints({(0, 0): 5}, 0).is_zero()
    # sums that cancel to a multiple of two keep a primitive part
    twice_x = (BiPoly.x() + 1) + (BiPoly.x() - 1)
    assert twice_x._r == ((), (1,)) and twice_x.content() == 2


def test_terms_is_a_read_only_view():
    p = BiPoly({(1, 1): Fraction(3, 2), (0, 0): -3})
    view = p.terms
    assert dict(view) == {(1, 1): Fraction(3, 2), (0, 0): Fraction(-3)}
    with pytest.raises(TypeError):
        view[(0, 0)] = Fraction(1)
    assert p.terms == view


def test_values_survive_pickling_after_their_caches_fill():
    p = BiPoly({(1, 1): Fraction(3, 2), (0, 0): -3})
    f = FactoredFrac(p, [(BiPoly.s() + 1, 2)])
    p.terms, hash(p), str(f)
    q, g = pickle.loads(pickle.dumps((p, f)))
    assert q == p and hash(q) == hash(p) and q.terms == p.terms
    assert bifrac_eq(g.to_bifrac(), f.to_bifrac()) and g.den == f.den


class TestKeyedDenominator:
    @staticmethod
    def twin_factors(j=3):
        a = BiPoly.s() + j
        b = BiPoly.from_rows(((j, 1),))
        assert a is not b and a == b and hash(a) == hash(b)
        return a, b

    def test_equal_factors_share_one_key_on_construction(self):
        a, b = self.twin_factors()
        f = FactoredFrac(BiPoly.one(), [(a, 1), (b, 2)])
        assert list(f.den.items()) == [(a, 3)]
        assert FactoredFrac(BiPoly.one(), [(a, 1), (b, 0)]).den == {a: 1}

    def test_equal_factors_share_one_key_in_sums_and_products(self):
        a, b = self.twin_factors()
        x1 = BiPoly.x() + 1
        left = FactoredFrac(BiPoly.one(), {a: 1, x1: 1})
        right = FactoredFrac(BiPoly.s(), {b: 2})
        total = left + right
        assert list(total.den.items()) == [(a, 2), (x1, 1)]
        assert bifrac_eq(total.to_bifrac(), left.to_bifrac() + right.to_bifrac())
        prod = left * right
        assert list(prod.den.items()) == [(a, 3), (x1, 1)]
        assert bifrac_eq(prod.to_bifrac(), left.to_bifrac() * right.to_bifrac())

    def test_to_bifrac_expands_the_factors_in_order(self):
        rng = random.Random(59)
        for _ in range(30):
            factors = {}
            for _ in range(rng.randint(0, 3)):
                f = rand_bipoly(rng)
                if not f.is_constant():
                    factors[f] = factors.get(f, 0) + rng.randint(1, 3)
            num = rand_bipoly(rng)
            got = FactoredFrac(num, factors).to_bifrac()
            den = BiPoly.one()
            for f, m in factors.items():
                den = den * f ** m
            want = BiFrac(num, den)
            assert got.num == want.num and got.den == want.den

    def test_str_keeps_first_appearance_order(self):
        s2, x1, s1 = BiPoly.s() + 2, BiPoly.x() + 1, BiPoly.s() + 1
        f = FactoredFrac(BiPoly.one(), [(s2, 1), (x1, 2), (s1, 1)])
        assert str(f) == "(1) / [(s + 2) * (x + 1)^2 * (s + 1)]"
        g = f + FactoredFrac(BiPoly.one(), [(BiPoly.s(), 1), (s2, 3)])
        assert str(g).endswith("/ [(s + 2)^3 * (x + 1)^2 * (s + 1) * (s)]")
        h = FactoredFrac(BiPoly.x(), [(s1, 1)]) * f
        assert [str(k) for k in h.den] == ["s + 1", "s + 2", "x + 1"]

    def test_linear_factors_land_on_one_int_or_marker_key(self):
        s3 = BiPoly.s() + 3
        routes = [
            psi_factor(4, 3),  # 1/(s+3), built with an int key
            FactoredFrac(s3).inverse(),
            FactoredFrac(-s3).inverse(),
            FactoredFrac(BiPoly.one(), [(s3, 1)]),
            FactoredFrac(BiPoly.one(), [(s3.scale(2), 1)]),
            FactoredFrac(BiPoly.one(), [(BiPoly.from_ints({(0, 0): 3, (0, 1): 1}), 1)]),
            (FactoredFrac.var_s() + 3).inverse(),
        ]
        assert [list(f._f.items()) for f in routes] == [[(3, 1)]] * len(routes)
        total = ffsum(routes)
        assert list(total._f.items()) == [(3, 1)]
        assert bifrac_eq(total.to_bifrac(), BiFrac(BiPoly.const(Fraction(9, 2)), s3))
        x1 = FactoredFrac(BiPoly.x() + 1).inverse() * FactoredFrac(BiPoly.one(), [(s3, 2)])
        assert list(x1._f.items()) == [(bivar.X1, 1), (3, 2)]
        assert list(x1.den.items()) == [(BiPoly.x() + 1, 1), (s3, 2)]


class TestCancellation:
    """``FactoredFrac.__mul__`` divides each numerator by the other
    operand's linear denominator factors while the division is exact."""

    @staticmethod
    def uncancelled(a: FactoredFrac, b: FactoredFrac) -> BiFrac:
        return a.to_bifrac() * b.to_bifrac()

    def test_a_binomial_cancels_the_poles_of_its_digamma_difference(self):
        # C(s+3, 2) = (s+2)(s+3)/2 and psi(s+4) - psi(s+2) = 1/(s+2) + 1/(s+3)
        cs, psi = binom_factor(3, 2), psi_factor(4, 2)
        for prod in (cs * psi, psi * cs):
            assert prod._f == {}
            assert prod.num == BiPoly({(0, 0): Fraction(5, 2), (0, 1): 1})
        assert list((cs * psi_factor(5, 2))._f.items()) == [(4, 1)]

    def test_multiplicities_fall_one_division_at_a_time(self):
        s2, x1 = BiPoly.s() + 2, BiPoly.x() + 1
        den = FactoredFrac(BiPoly.s(), [(s2, 3), (x1, 2)])
        num = FactoredFrac(s2 * s2 * x1 * 7)
        prod = num * den
        assert list(prod._f.items()) == [(2, 1), (bivar.X1, 1)]
        assert prod.num == BiPoly.s().scale(7)
        assert bifrac_eq(prod.to_bifrac(), self.uncancelled(num, den))

    def test_a_division_with_a_remainder_is_refused(self):
        s3 = BiPoly.s() + 3
        # s^2 + 4s + 4 leaves the remainder 1 on division by s + 3, and
        # x^2 + x + 1 the remainder 1 on division by x + 1
        for num, key in [
            (BiPoly({(0, 2): 1, (0, 1): 4, (0, 0): 4}), 3),
            (BiPoly({(2, 0): 1, (1, 0): 1, (0, 0): 1}), bivar.X1),
            # one row divides and the other does not
            (BiPoly({(0, 1): 1, (0, 0): 3, (1, 0): 1}), 3),
        ]:
            assert bivar._div_key(num._r, key) is None
            den = FactoredFrac(BiPoly.one(), [(s3 if key == 3 else BiPoly.x() + 1, 2)])
            prod = FactoredFrac(num) * den
            assert prod.num == num and list(prod._f.items()) == [(key, 2)]
        exact = BiPoly({(0, 2): 1, (0, 1): 4, (0, 0): 3})  # (s+1)(s+3)
        assert bivar._div_key(exact._r, 3) == ((1, 1),)

    def test_values_are_shared_and_never_changed(self):
        cs, psi = binom_factor(3, 2), psi_factor(4, 2)
        before = (cs.num, dict(cs._f), psi.num, dict(psi._f))
        cs * psi
        assert (cs.num, cs._f, psi.num, psi._f) == before

    @given(
        *[st.lists(st.sampled_from([0, 1, 2, 3, 4, "x"]), max_size=4)] * 4,
        st.fractions(min_value=-5, max_value=5, max_denominator=3).filter(bool),
        st.integers(0, 2),
        st.integers(0, 2),
    )
    @settings(max_examples=200, deadline=None)
    def test_cancelled_products_equal_uncancelled_ones(self, ra, rb, da, db, c, ea, eb):
        # numerator c * prod(factors) + e: exactly divisible at e = 0
        def value(roots, den, scale, extra):
            num = BiPoly.const(scale)
            for f in roots:
                num = num * linear(f)
            return FactoredFrac(num + extra, [(linear(f), 1) for f in den])

        def linear(f):
            return BiPoly.x() + 1 if f == "x" else BiPoly.s() + f

        a, b = value(ra, da, c, ea), value(rb, db, 1 - c or 1, eb)
        got = a * b
        assert bifrac_eq(got.to_bifrac(), self.uncancelled(a, b))
        assert_canonical(got.num)
        assert all(m > 0 for m in got._f.values())


# -- the packed (Kronecker) product and comparison against the references ---

big_ints = st.integers(-(2**80), 2**80).filter(bool)
dense_keys = st.tuples(st.integers(0, 5), st.integers(0, 5))
dense_parts = st.dictionaries(dense_keys, big_ints, max_size=30)
# coefficients of one sign just below a power of two: the product
# coefficients then come as close to the slot bound as they can
edge_parts = st.builds(
    lambda d, sign: {k: sign * v for k, v in d.items()},
    st.dictionaries(
        dense_keys, st.sampled_from([127, 255, 2**63 - 1, 2**127 - 1]),
        min_size=9, max_size=30,
    ),
    st.sampled_from([-1, 1]),
)
unit_parts = st.dictionaries(
    st.tuples(st.integers(0, 6), st.integers(0, 6)), st.sampled_from([-1, 1]),
    min_size=9, max_size=40,
)
sparse_parts = st.dictionaries(
    st.tuples(st.integers(0, 60), st.integers(0, 60)), big_ints,
    min_size=9, max_size=14,
)
constant_parts = st.one_of(st.just({}), big_ints.map(lambda c: {(0, 0): c}))
packed_polys = st.builds(
    BiPoly.from_ints,
    st.one_of(dense_parts, edge_parts, unit_parts, sparse_parts, constant_parts),
    st.fractions(min_value=-7, max_value=7, max_denominator=5).filter(bool),
)


def schoolbook(p: BiPoly, q: BiPoly) -> BiPoly:
    with mock.patch.object(bivar, "PACKED_MUL_MIN_TERMS", 10**9):
        return p * q


# 2*181*180 needs all 16 bits of a 2-byte slot plus its sign bit
@example(BiPoly.from_ints({(0, 0): 181, (1, 0): 180}),
         BiPoly.from_ints({(0, 0): 181, (1, 0): 180}))
@given(packed_polys, packed_polys)
@settings(max_examples=150, deadline=None)
def test_packed_product_agrees_with_the_references(p, q):
    want = ref_mul(dict(p.terms), dict(q.terms))
    got = p * q
    assert_matches(got, want)
    assert schoolbook(p, q) == got
    with mock.patch.object(bivar, "PACKED_MUL_MIN_TERMS", 2):
        assert_matches(p * q, want)


def test_the_product_route_follows_the_operand_sizes():
    calls = []
    real = bivar._packed_mul

    def recording(ra, rb):
        calls.append((sum(map(len, ra)), sum(map(len, rb))))
        return real(ra, rb)

    low = bivar.PACKED_MUL_MIN_TERMS
    dense = BiPoly.from_ints({(i, j): i - j or 7 for i in range(20) for j in range(20)})
    at = BiPoly.from_ints({(i, 0): i + 1 for i in range(low)})
    below = BiPoly.from_ints({(i, 0): i + 1 for i in range(low - 1)})
    assert sum(map(len, at._r)) == low and sum(map(len, below._r)) == low - 1
    pairs = [(dense, BiPoly.x() + 1), (dense, below), (dense, at), (at, dense)]
    with mock.patch.object(bivar, "_packed_mul", recording):
        products = [a * b for a, b in pairs]
    # the smaller operand decides: a linear factor and fewer entries than
    # the bound stay in the schoolbook loop, whatever the size of the other
    assert calls == [(400, low), (400, low)]
    for prod, (a, b) in zip(products, pairs):
        assert prod == schoolbook(a, b)


@given(ref_polys, st.integers(-6, 30), st.integers(1, 3))
@settings(max_examples=120, deadline=None)
def test_shift_and_add_agrees_with_the_reference(a, j, m):
    p = BiPoly(a)
    s_j = {k: v for k, v in {(0, 0): Fraction(j), (0, 1): Fraction(1)}.items() if v}
    x_1 = {(0, 0): Fraction(1), (1, 0): Fraction(1)}
    assert_matches(bivar._times_factor(p, j, m), ref_mul(a, ref_pow(s_j, m)))
    assert_matches(bivar._times_factor(p, bivar.X1, m), ref_mul(a, ref_pow(x_1, m)))
    for lin, ref in ((BiPoly.s() + j, s_j), (BiPoly.x() + 1, x_1)):
        calls = []
        with mock.patch.object(bivar, "_schoolbook", lambda *r: calls.append(r)):
            got = p * lin
        assert_matches(got, ref_mul(a, ref))
        assert not calls  # one shift-and-add pass, not the general product


def off_by_one(p: BiPoly) -> BiPoly:
    """``p`` with its leading coefficient moved by one, away from zero."""
    terms = dict(p.terms)
    k = max(terms, default=(0, 0))
    c = terms.get(k, 0)
    terms[k] = c - 1 if c == -1 else c + 1
    return BiPoly(terms)


@given(packed_polys, packed_polys, bipolys, st.sampled_from(["x", "s"]))
@settings(max_examples=60, deadline=None)
def test_packed_comparison_agrees_with_the_cross_difference(p, q, r, var):
    if q.is_zero() or r.is_zero():
        return
    a = BiFrac(p * r, q * r)
    b = BiFrac(p, q)
    other = BiPoly.x() + 1 if var == "x" else BiPoly.s() + 1
    pairs = [
        (a, b, True),
        (BiFrac(p.scale(3), q.scale(3)), b, True),
        (BiFrac(off_by_one(p), q), b, False),
        (BiFrac(p * r, off_by_one(q) * r), b, p.is_zero()),
        (BiFrac(p * other, q), b, p.is_zero()),
        (BiFrac(p, q * other), b, p.is_zero()),
    ]
    if not p.is_zero():
        pairs.append((BiFrac(p.scale(2), q), b, False))  # only the content differs
    for left, right, equal in pairs:
        assert (left == right) is (right == left) is equal
        assert cross_difference(left, right).is_zero() is equal
        if equal:
            assert hash(left) == hash(right)


def test_the_slot_width_covers_both_cross_products():
    # 1 * (1+x) and (x^2 - 256x + 257) * 1 agree at x = 256, which is where
    # one-byte slots, wide enough for the left product alone, would put x
    left = BiFrac(BiPoly.one())
    right = BiFrac(BiPoly.from_ints({(2, 0): 1, (1, 0): -256, (0, 0): 257}),
                   BiPoly.x() + 1)
    assert left != right and right != left
    assert not cross_difference(left, right).is_zero()


def test_packed_comparison_of_zeros_and_large_contents():
    x1, s1 = BiPoly.x() + 1, BiPoly.s() + 1
    assert BiFrac(BiPoly.zero(), x1) == BiFrac(BiPoly.zero(), s1)
    assert BiFrac(BiPoly.zero(), x1) != BiFrac(x1, s1)
    huge = Fraction(2**70 + 1, 3**50)
    p = BiPoly.from_ints({(i, j): (-1) ** i * (2**65 + j) for i in range(4) for j in range(4)})
    a = BiFrac(p.scale(huge), x1 * s1)
    b = BiFrac((p * x1).scale(huge), x1 * x1 * s1)
    assert a == b and cross_difference(a, b).is_zero()
    c = BiFrac(p.scale(huge + Fraction(1, 3**50)), x1 * s1)
    assert a != c and not cross_difference(a, c).is_zero()
