"""Harmonic numbers, integer and shifted binomials, digamma differences,
and their factored-fraction builders."""

import dataclasses
import random
from fractions import Fraction

import pytest

from hforge import catalog, special
from hforge.bivar import BiFrac, FactoredFrac, bifrac_eq
from hforge.catalog import verify_all
from hforge.dsl.evaluator import product_memo_info
from hforge.exact import Poly, RatFunc
from hforge.special import (
    HarmonicCache,
    binom_factor,
    binom_int,
    binom_neg3half,
    binom_shift,
    clear_memos,
    factor_memo_info,
    harmonic,
    harmonic_gen,
    psi1_diff,
    psi1_factor,
    psi_diff,
    psi_factor,
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
    def test_table_values_agree_with_a_direct_sum(self):
        clear_memos()
        for n in range(40):
            assert harmonic(n) == sum(Fraction(1, i) for i in range(1, n + 1))
            assert harmonic_gen(n, 2) == sum(
                Fraction(1, i * i) for i in range(1, n + 1)
            )

    def test_clear_memos_empties_both_tables(self):
        harmonic(30)
        psi_factor(5, 0)
        binom_factor(2, 3)
        assert factor_memo_info().size > 0 and len(special._cache) > 30
        clear_memos()
        assert factor_memo_info() == (0, 0, 0)
        assert len(special._cache) == 1

    def test_cache_extends_on_demand(self):
        cache = HarmonicCache()
        assert cache.get(4, 1) == Fraction(25, 12)
        assert cache.get(4, 2) == 1 + Fraction(1, 4) + Fraction(1, 9) + Fraction(1, 16)
        assert len(cache) >= 5

    def test_cache_holds_only_orders_one_and_two(self):
        cache = HarmonicCache()
        for r in (0, 3, -1):
            with pytest.raises(ValueError):
                cache.get(5, r)
        # order 3 comes from the direct sum, not from the order-2 table
        assert harmonic_gen(5, 3) == Fraction(256103, 216000)


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


def _same_terms(got: FactoredFrac, want: FactoredFrac) -> bool:
    # the denominator dicts compare in order, as the factor tuples they
    # replaced did
    return got.num.terms == want.num.terms and list(got.den.items()) == list(
        want.den.items()
    )


def _strip_timing(report):
    return [dataclasses.replace(row, elapsed_ns=0) for row in report.rows]


class TestDirectFactors:
    """The direct factored builders against the RatFunc route they replace."""

    def test_psi_factors_equal_the_ratfunc_route_term_for_term(self):
        for a in range(0, 27):
            for b in range(0, a + 1):
                roots = [(j, 1) for j in range(b, a)]
                want = FactoredFrac.from_ratfunc(psi_diff(a, b), roots)
                assert _same_terms(psi_factor(a, b), want), (a, b)
                roots = [(j, 2) for j in range(b, a)]
                want = FactoredFrac.from_ratfunc(psi1_diff(a, b), roots)
                assert _same_terms(psi1_factor(a, b), want), (a, b)

    def test_binom_factor_equals_the_ratfunc_route(self):
        for a in range(-4, 6):
            for k in range(0, 9):
                want = FactoredFrac.from_ratfunc(binom_shift(a, k))
                assert _same_terms(binom_factor(a, k), want), (a, k)

    def test_arguments_are_checked_before_the_memo(self):
        psi_factor(3, 1)
        binom_factor(2, 1)
        with pytest.raises(ValueError):
            psi_factor(1, 3)
        with pytest.raises(ValueError):
            psi1_factor(Fraction(3), 1)
        with pytest.raises(ValueError):
            binom_factor(Fraction(2), 1)
        with pytest.raises(ValueError):
            binom_factor(2, -1)


class TestFactorMemo:
    def test_a_repeated_sweep_adds_no_misses(self):
        # Counted over the factor memo and the shared sub-product memo: a
        # product served by the second never calls the builders again.
        clear_memos()
        verify_all(3, tags=["THM-2.11"])
        first = [factor_memo_info(), product_memo_info()]
        for info in first:
            assert info.misses > 0 and info.size == info.misses
        verify_all(3, tags=["THM-2.11"])
        second = [factor_memo_info(), product_memo_info()]
        for before, after in zip(first, second):
            assert after.misses == before.misses
            assert after.size == before.size
        assert second[1].hits > first[1].hits

    def test_sweep_rows_agree_with_memoization_off(self, monkeypatch):
        # A warm sweep against each of its cells run alone on empty memos,
        # which is what the cell would compute with no memo at all.
        cells = []
        real = catalog._run_batch

        def recording(batch, oracle):
            cells.extend(batch)
            return real(batch, oracle)

        verify_all(8)
        monkeypatch.setattr(catalog, "_run_batch", recording)
        warm = _strip_timing(verify_all(8))
        assert len(cells) == len(warm) > 0
        cold = []
        for cell in cells:
            clear_memos()
            cold.append(dataclasses.replace(catalog._run_cell(*cell), elapsed_ns=0))
        assert warm == cold

    def test_memoized_values_survive_a_full_sweep(self):
        clear_memos()
        args = [(a, b) for a in range(0, 10) for b in range(0, a + 1)]
        held = {ab: (psi_factor(*ab), psi1_factor(*ab)) for ab in args}
        verify_all(6)
        for (a, b), (psi, psi1) in held.items():
            assert psi_factor(a, b) is psi and psi1_factor(a, b) is psi1
            roots = [(j, 1) for j in range(b, a)]
            assert _same_terms(psi, FactoredFrac.from_ratfunc(psi_diff(a, b), roots))
            roots = [(j, 2) for j in range(b, a)]
            assert _same_terms(psi1, FactoredFrac.from_ratfunc(psi1_diff(a, b), roots))


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
