"""Harmonic numbers, integer and shifted binomials, digamma differences,
and their factored-fraction builders."""

import random
from fractions import Fraction

import pytest

from hforge.bivar import BiFrac, bifrac_eq
from hforge.exact import Poly, RatFunc
from hforge.special import (
    HarmonicCache,
    binom_factor,
    binom_int,
    binom_neg3half,
    binom_shift,
    harmonic,
    harmonic_gen,
    memoization_enabled,
    psi1_diff,
    psi1_factor,
    psi_diff,
    psi_factor,
    set_memoization,
)

HALF = Fraction(1, 2)


class TestHarmonic:
    def test_base_cases_and_spot_values(self):
        assert harmonic(0) == 0
        assert harmonic(1) == 1
        assert harmonic(6) == Fraction(49, 20)
        assert harmonic_gen(3, 2) == Fraction(49, 36)
        assert harmonic_gen(0, 2) == 0

    def test_recurrence(self):
        for n in range(1, 60):
            assert harmonic(n) == harmonic(n - 1) + Fraction(1, n)
            assert harmonic_gen(n, 2) == harmonic_gen(n - 1, 2) + Fraction(1, n * n)

    def test_order_one_matches_plain(self):
        for n in range(0, 30):
            assert harmonic_gen(n, 1) == harmonic(n)

    def test_validation(self):
        with pytest.raises(ValueError):
            harmonic(-1)
        with pytest.raises(ValueError):
            harmonic_gen(3, 0)
        with pytest.raises(ValueError):
            harmonic(2.5)


class TestMemoization:
    def test_toggle_is_observable_and_values_agree(self):
        baseline = [harmonic(n) for n in range(20)]
        try:
            set_memoization(False)
            assert not memoization_enabled()
            assert [harmonic(n) for n in range(20)] == baseline
        finally:
            set_memoization(True)
        assert memoization_enabled()

    def test_cache_extends_on_demand(self):
        cache = HarmonicCache()
        assert cache.get(4, 1) == Fraction(25, 12)
        assert cache.get(4, 2) == 1 + Fraction(1, 4) + Fraction(1, 9) + Fraction(1, 16)
        assert len(cache) >= 5


class TestBinomInt:
    def test_values_and_range_convention(self):
        assert binom_int(5, 2) == 10
        assert binom_int(4, 0) == 1
        assert binom_int(2, 5) == 0
        assert binom_int(3, -1) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            binom_int(-1, 2)
        with pytest.raises(ValueError):
            binom_int(3, Fraction(1, 2))

    def test_pascal_on_integers(self):
        for n in range(1, 30):
            for k in range(0, n + 1):
                assert binom_int(n, k) == binom_int(n - 1, k) + binom_int(n - 1, k - 1)


class TestBinomShift:
    def test_is_polynomial_of_degree_k(self):
        for a in (-3, -1, 0, 2):
            for k in range(0, 6):
                b = binom_shift(a, k)
                assert b.is_poly()
                assert b.num.degree == k

    def test_matches_integer_binomials(self):
        for a in (-2, 0, 3):
            for k in range(0, 6):
                b = binom_shift(a, k)
                for s0 in range(k - a, k - a + 8):
                    assert b(s0) == binom_int(s0 + a, k)

    def test_generalized_values_below_the_diagonal(self):
        # C(-1, 2) = 1 and C(-2, 3) = -4 via the product form
        assert binom_shift(0, 2)(-1) == 1
        assert binom_shift(0, 3)(-2) == -4

    def test_validation(self):
        with pytest.raises(ValueError):
            binom_shift(Fraction(1, 2), 1)
        with pytest.raises(ValueError):
            binom_shift(0, -1)

    def test_pascal_as_rational_functions(self):
        for a in range(-2, 4):
            for k in range(1, 6):
                lhs = binom_shift(a + 1, k)
                rhs = binom_shift(a, k) + binom_shift(a, k - 1)
                assert lhs == rhs

    def test_absorption_as_rational_functions(self):
        s = RatFunc(Poly([0, 1]))
        for a in range(-2, 4):
            for k in range(1, 6):
                lhs = binom_shift(a, k)
                rhs = (s + a) / k * binom_shift(a - 1, k - 1)
                assert lhs == rhs


class TestPsiDifferences:
    def test_telescoping_composition(self):
        rng = random.Random(61)
        for _ in range(60):
            b = rng.randint(0, 5)
            c = b + rng.randint(0, 5)
            a = c + rng.randint(0, 5)
            assert psi_diff(a, b) == psi_diff(a, c) + psi_diff(c, b)
            assert psi1_diff(a, b) == psi1_diff(a, c) + psi1_diff(c, b)

    def test_harmonic_bridge_at_one(self):
        for a in range(0, 12):
            assert psi_diff(a, 0)(1) == harmonic(a)
            assert psi1_diff(a, 0)(1) == -harmonic_gen(a, 2)

    def test_single_step_is_one_over_shift(self):
        assert psi_diff(1, 0) == RatFunc(Poly.one(), Poly([0, 1]))
        assert psi_diff(3, 2) == RatFunc(Poly.one(), Poly([2, 1]))
        assert psi_diff(2, 2) == RatFunc(Poly.zero())

    def test_orientation_is_enforced(self):
        with pytest.raises(ValueError):
            psi_diff(1, 2)
        with pytest.raises(ValueError):
            psi_diff(-1, -2)
        with pytest.raises(ValueError):
            psi1_diff(0, 1)
        with pytest.raises(ValueError):
            psi_diff(Fraction(3, 2), 0)

    def test_derivative_links_the_two_orders(self):
        for a in range(0, 8):
            for b in range(0, a + 1):
                assert psi_diff(a, b).derivative() == psi1_diff(a, b)


class TestFactorHelpers:
    def test_binom_factor_matches_univariate(self):
        for a in (-1, 0, 2):
            for k in range(0, 5):
                got = binom_factor(a, k).to_bifrac()
                want = BiFrac.from_ratfunc(binom_shift(a, k))
                assert bifrac_eq(got, want)

    def test_psi_factors_match_univariate(self):
        for a in range(0, 6):
            got = psi_factor(a, 0).to_bifrac()
            assert bifrac_eq(got, BiFrac.from_ratfunc(psi_diff(a, 0)))
            got1 = psi1_factor(a, 0).to_bifrac()
            assert bifrac_eq(got1, BiFrac.from_ratfunc(psi1_diff(a, 0)))


class TestHalfIntegerValues:
    def test_central_binomial_form_at_minus_half(self):
        for k in range(0, 12):
            want = Fraction((-1) ** k, 4 ** k) * binom_int(2 * k, k)
            assert binom_shift(0, k)(-HALF) == want

    def test_shifted_form_at_minus_half(self):
        for n in range(0, 12):
            assert binom_shift(-1, n)(-HALF) == binom_neg3half(n)

    def test_closed_form_matches_product_definition(self):
        assert binom_neg3half(0) == 1
        assert binom_neg3half(1) == Fraction(-3, 2)
        assert binom_neg3half(2) == Fraction(15, 8)
        with pytest.raises(ValueError):
            binom_neg3half(-1)

    def test_digamma_difference_at_negative_half_shifts(self):
        # sum_{j=0}^{k-1} 1/(1/2 - k + j) collapses to odd reciprocals
        for k in range(1, 12):
            got = psi_diff(k, 0)(Fraction(1, 2) - k)
            assert got == harmonic(k) - 2 * harmonic(2 * k)

    def test_digamma_difference_below_the_pole_string(self):
        for n in range(1, 12):
            got = psi_diff(n, 0)(Fraction(-2 * n - 1, 2))
            want = Fraction(4 * n, 2 * n + 1) - 2 * harmonic(2 * n) + harmonic(n)
            assert got == want
