"""Harmonic numbers, integer and shifted binomials, digamma differences,
and their factored-fraction builders."""

import dataclasses
import functools
import random
from fractions import Fraction

import pytest

from hforge import catalog, special
from hforge.bivar import BiPoly, FactoredFrac, bifrac_eq
from hforge.catalog import verify_all
from hforge.dsl.evaluator import product_memo_info
from hforge.special import (
    HarmonicCache,
    binom_factor,
    binom_int,
    binom_neg3half,
    clear_memos,
    factor_memo_info,
    harmonic,
    harmonic_gen,
    psi1_factor,
    psi_factor,
)

HALF = Fraction(1, 2)


def at(f: FactoredFrac, s0) -> Fraction:
    """The value of an x-free factored fraction at s = s0."""
    return f.to_bifrac().subst_s(s0).as_constant()


def same(f: FactoredFrac, g: FactoredFrac) -> bool:
    return bifrac_eq(f.to_bifrac(), g.to_bifrac())


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
    """The shifted binomial C(s+a, k), built by ``binom_factor``."""

    def test_is_polynomial_of_degree_k(self):
        for a in (-3, -1, 0, 2):
            for k in range(0, 6):
                b = binom_factor(a, k)
                assert not b.den
                assert b.num.deg_x == 0 and b.num.deg_s == k

    def test_matches_integer_binomials(self):
        for a in (-2, 0, 3):
            for k in range(0, 6):
                b = binom_factor(a, k)
                for s0 in range(k - a, k - a + 8):
                    assert at(b, s0) == binom_int(s0 + a, k)

    def test_generalized_values_below_the_diagonal(self):
        # C(-1, 2) = 1 and C(-2, 3) = -4 via the product form
        assert at(binom_factor(0, 2), -1) == 1
        assert at(binom_factor(0, 3), -2) == -4

    def test_validation(self):
        with pytest.raises(ValueError):
            binom_factor(Fraction(1, 2), 1)
        with pytest.raises(ValueError):
            binom_factor(0, -1)

    def test_pascal_as_rational_functions(self):
        for a in range(-2, 4):
            for k in range(1, 6):
                lhs = binom_factor(a + 1, k)
                rhs = binom_factor(a, k) + binom_factor(a, k - 1)
                assert same(lhs, rhs)

    def test_absorption_as_rational_functions(self):
        s = FactoredFrac.var_s()
        for a in range(-2, 4):
            for k in range(1, 6):
                lhs = binom_factor(a, k)
                rhs = (s + a) * Fraction(1, k) * binom_factor(a - 1, k - 1)
                assert same(lhs, rhs)


class TestPsiDifferences:
    """psi(s+a) - psi(s+b) and psi'(s+a) - psi'(s+b), built by
    ``psi_factor`` and ``psi1_factor``."""

    def test_telescoping_composition(self):
        rng = random.Random(61)
        for _ in range(60):
            b = rng.randint(0, 5)
            c = b + rng.randint(0, 5)
            a = c + rng.randint(0, 5)
            assert same(psi_factor(a, b), psi_factor(a, c) + psi_factor(c, b))
            assert same(psi1_factor(a, b), psi1_factor(a, c) + psi1_factor(c, b))

    def test_harmonic_bridge_at_one(self):
        for a in range(0, 12):
            assert at(psi_factor(a, 0), 1) == harmonic(a)
            assert at(psi1_factor(a, 0), 1) == -harmonic_gen(a, 2)

    def test_single_step_is_one_over_shift(self):
        s = FactoredFrac.var_s()
        assert same(psi_factor(1, 0), s.inverse())
        assert same(psi_factor(3, 2), (s + 2).inverse())
        assert psi_factor(2, 2).is_zero()
        assert same(psi1_factor(3, 2), -((s + 2) ** -2))

    def test_orientation_is_enforced(self):
        with pytest.raises(ValueError):
            psi_factor(1, 2)
        with pytest.raises(ValueError):
            psi_factor(-1, -2)
        with pytest.raises(ValueError):
            psi1_factor(0, 1)
        with pytest.raises(ValueError):
            psi_factor(Fraction(3, 2), 0)

    def test_derivative_links_the_two_orders(self):
        for a in range(0, 8):
            for b in range(0, a + 1):
                got = psi_factor(a, b).to_bifrac().deriv_s()
                assert bifrac_eq(got, psi1_factor(a, b).to_bifrac())


def agrees_with(f: FactoredFrac, reference, ref_deg: int) -> bool:
    """Whether ``f`` equals the rational function that ``reference`` gives
    at each point, where that function is P/Q with deg P, deg Q <= ref_deg
    and Q has no root at a positive integer.

    With f = N/D, the polynomial N*Q - P*D has degree at most
    max(deg N, deg D) + ref_deg.  It vanishes at every point where the two
    agree, so agreement at more points than that degree proves it zero,
    that is f == P/Q.  The points s = 1, 2, ... avoid every pole here."""
    value = f.to_bifrac()
    count = max(value.num.deg_s, value.den.deg_s) + ref_deg + 1
    return all(
        value.subst_s(s0).as_constant() == reference(s0) for s0 in range(1, count + 1)
    )


@functools.lru_cache(maxsize=None)
def power_sum(a: int, b: int, m: int, s0) -> Fraction:
    """sum_{j=b}^{a-1} 1/(s0+j)^m, summed in ``Fraction`` (memoized, so the
    sums for a and a + 1 share their terms)."""
    if a == b:
        return Fraction(0)
    return power_sum(a - 1, b, m, s0) + 1 / Fraction(s0 + a - 1) ** m


def psi_definition(a: int, b: int, m: int):
    """s0 -> sign * sum_{j=b}^{a-1} 1/(s0+j)^m, sign -1 for m == 2, of
    degree at most m * (a - b) in numerator and denominator."""
    sign = -1 if m == 2 else 1
    return lambda s0: sign * power_sum(a, b, m, s0)


def binom_definition(a: int, k: int):
    """s0 -> C(s0+a, k) = prod_{j=1..k} (s0+a-k+j)/j, of degree k."""

    def value(s0):
        out = Fraction(1)
        for j in range(1, k + 1):
            out *= Fraction(s0 + a - k + j) / j
        return out

    return value


def _same_terms(got: FactoredFrac, want: FactoredFrac) -> bool:
    # the denominator dicts compare in order, as the factor tuples they
    # replaced did
    return got.num.terms == want.num.terms and list(got.den.items()) == list(
        want.den.items()
    )


def _strip_timing(report):
    return [dataclasses.replace(row, elapsed_ns=0) for row in report.rows]


class TestFactorHelpers:
    """The builders' values are univariate (free of x) and take the
    defining values at half-integer points, off the integer points that
    ``TestDirectFactors`` proves them on."""

    def test_binom_factor_matches_univariate(self):
        for a in (-1, 0, 2):
            for k in range(0, 5):
                value = binom_factor(a, k).to_bifrac()
                assert value.num.deg_x <= 0 and value.den.deg_x == 0
                for j in range(-3, 4):
                    s0 = j + HALF
                    assert value.subst_s(s0).as_constant() == binom_definition(a, k)(s0)

    def test_psi_factors_match_univariate(self):
        for a in range(0, 6):
            for m, build in ((1, psi_factor), (2, psi1_factor)):
                value = build(a, 0).to_bifrac()
                assert value.num.deg_x <= 0 and value.den.deg_x == 0
                for j in range(0, 4):
                    s0 = j + HALF
                    assert value.subst_s(s0).as_constant() == psi_definition(a, 0, m)(s0)


class TestDirectFactors:
    """The direct factored builders against their definitions, evaluated in
    plain ``Fraction``.  Each value is proved equal to its definition by the
    degree count of ``agrees_with``, and its denominator is the expected
    (s+j) factors in order; with the value and the denominator fixed, so is
    the numerator, term for term.  The builders also check their arguments
    themselves."""

    def test_psi_factors_equal_their_defining_sums_term_for_term(self):
        for a in range(0, 27):
            for b in range(0, a + 1):
                for m, build in ((1, psi_factor), (2, psi1_factor)):
                    got = build(a, b)
                    shifts = {j: m for j in range(b, a)}
                    want = FactoredFrac.over_shifts(BiPoly.one(), shifts)
                    assert list(got.den.items()) == list(want.den.items()), (a, b, m)
                    reference = psi_definition(a, b, m)
                    assert agrees_with(got, reference, m * (a - b)), (a, b, m)

    def test_binom_factor_equals_its_falling_factorial(self):
        for a in range(-4, 6):
            for k in range(0, 9):
                got = binom_factor(a, k)
                assert not got.den, (a, k)
                assert agrees_with(got, binom_definition(a, k), k), (a, k)

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
            assert _same_terms(psi, special._psi_factor_build(a, b, 1))
            assert _same_terms(psi1, special._psi_factor_build(a, b, 2))


class TestHalfIntegerValues:
    def test_central_binomial_form_at_minus_half(self):
        for k in range(0, 12):
            want = Fraction((-1) ** k, 4 ** k) * binom_int(2 * k, k)
            assert at(binom_factor(0, k), -HALF) == want

    def test_shifted_form_at_minus_half(self):
        for n in range(0, 12):
            assert at(binom_factor(-1, n), -HALF) == binom_neg3half(n)

    def test_closed_form_matches_product_definition(self):
        assert binom_neg3half(0) == 1
        assert binom_neg3half(1) == Fraction(-3, 2)
        assert binom_neg3half(2) == Fraction(15, 8)
        with pytest.raises(ValueError):
            binom_neg3half(-1)

    def test_digamma_difference_at_negative_half_shifts(self):
        # sum_{j=0}^{k-1} 1/(1/2 - k + j) collapses to odd reciprocals
        for k in range(1, 12):
            got = at(psi_factor(k, 0), Fraction(1, 2) - k)
            assert got == harmonic(k) - 2 * harmonic(2 * k)

    def test_digamma_difference_below_the_pole_string(self):
        for n in range(1, 12):
            got = at(psi_factor(n, 0), Fraction(-2 * n - 1, 2))
            want = Fraction(4 * n, 2 * n + 1) - 2 * harmonic(2 * n) + harmonic(n)
            assert got == want
