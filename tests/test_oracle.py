"""Numeric cross-checks that never touch the symbolic evaluators."""

import ast
import dataclasses
import functools
import importlib
import math
import operator
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hforge import bivar, degrees, oracle
from hforge.bivar import BiPoly, FactoredFrac
from hforge.catalog import catalog as catalog_entries
from hforge.catalog import Side, eval_side, lookup, plan_cells, tags
from hforge.dsl import check, load_corpus
from hforge.oracle import (
    SampleCertificate,
    degree_bound,
    integer_s_check,
    sampling_verify,
)
from hforge.special import clear_memos, memo_info

compiled_module = importlib.import_module("hforge.dsl.compiled")
evaluator = importlib.import_module("hforge.dsl.evaluator")

POINTS = (Fraction(1), Fraction(7), Fraction(53), Fraction(1, 3), Fraction(-5, 2))


def _falling(s, shift, k):
    v = Fraction(1)
    for j in range(1, k + 1):
        v = v * (s + shift - k + j) / j
    return v


# ints (zero and negative included) and rationals whose denominators share
# factors, so that both gcds of Henrici's method and the cross-cancelling
# of products and quotients have work to do
operands = st.one_of(
    st.integers(-12, 12),
    st.builds(
        Fraction,
        st.integers(-10**6, 10**6),
        st.sampled_from([1, 2, 3, 4, 6, 9, 12, 36, 360, 720, 1001]),
    ),
)
steps = st.lists(
    st.one_of(
        st.tuples(st.sampled_from("+-*/"), st.booleans(), operands),
        st.tuples(st.just("neg"), st.just(False), st.just(0)),
        st.tuples(st.just("**"), st.just(False), st.integers(-3, 3)),
    ),
    max_size=8,
)


def _as_oracle_value(v: Fraction):
    """What the walk holds for v: an int when whole, else a _Rat."""
    return v.numerator if v.denominator == 1 else oracle._rat(v)


def _assert_same(r, f: Fraction):
    if type(r) is oracle._Rat:
        assert r.denominator > 0 and math.gcd(r.numerator, r.denominator) == 1
    else:
        assert type(r) is int
    assert (r.numerator, r.denominator) == (f.numerator, f.denominator)
    assert r == f and f == r
    assert r != f + 1 and f + 1 != r
    if f:
        near = Fraction(f.numerator, f.denominator + 1)
        assert r != near and near != r
    if f.denominator == 1:
        assert r == f.numerator and f.numerator == r


class TestRat:
    """``_Rat`` against ``Fraction``: same values, always canonical."""

    @given(operands, steps)
    @settings(max_examples=300, deadline=None)
    def test_arithmetic_matches_fraction(self, start, ops):
        f = Fraction(start)
        r = _as_oracle_value(f)
        for op, swap, arg in ops:
            if op == "neg":
                r, f = -r, -f
            elif op == "**":
                if f == 0 and arg < 0:
                    with pytest.raises(ZeroDivisionError):
                        oracle._rat(r) ** arg
                    continue
                r, f = oracle._rat(r) ** arg, f**arg
            else:
                g = Fraction(arg)
                a, b = (_as_oracle_value(g), r) if swap else (r, _as_oracle_value(g))
                fa, fb = (g, f) if swap else (f, g)
                if op == "/" and fb == 0:
                    with pytest.raises(ZeroDivisionError):
                        oracle._div(a, b)
                    continue
                fn = {"+": operator.add, "-": operator.sub, "*": operator.mul}
                r = oracle._div(a, b) if op == "/" else fn[op](a, b)
                f = fa / fb if op == "/" else fn[op](fa, fb)
            _assert_same(r, f)

    def test_an_int_quotient_is_reduced(self):
        for a, b in [(6, -4), (-6, 4), (0, -7), (12, 3), (-5, -10)]:
            _assert_same(oracle._div(a, b), Fraction(a, b))
        with pytest.raises(ZeroDivisionError):
            oracle._div(0, 0)

    def test_a_zero_divisor_raises_in_a_regrouped_product(self):
        # the s-free factors, the zero divisor among them, are combined
        # before the s-dependent ones are applied
        grid = [oracle._PointCtx(1), oracle._PointCtx(2)]
        xs = [Fraction(1), Fraction(3)]
        for source in (
            "CS(n,1) * 2 / (n-n)",
            "0 * CS(n,1) / (n-n)",
            "CS(n,1) / ((n+1) * (n-n))",
            "x * CS(n,1) / (2*n - 2*n) * PSID(n,1)",
            "CS(n,1) / (s - 1)",
            "1/((1/(n-n))^0)",
        ):
            with pytest.raises(ZeroDivisionError):
                oracle._walk(Side(source), 2, {}, grid, xs)

    def test_a_regrouped_product_keeps_its_value(self):
        grid = [oracle._PointCtx(s) for s in (1, 2, 3)]
        xs = [Fraction(1), Fraction(2)]
        source = "2/(n+1) * CS(n,1) * x / (n*3) * PSID(n,1) / (1/(x+1)) * (-1)^n"
        got = oracle._walk(Side(source), 4, {}, grid, xs)
        for i, ctx in enumerate(grid):
            for j, x in enumerate(xs):
                psid = sum(1 / (ctx.s + t) for t in (1, 2, 3))
                want = Fraction(2, 5) * (ctx.s + 4) * x / 12 * psid * (x + 1)
                assert oracle._at(got, i, j) == want
        assert oracle._walk(Side("1/(0^0)"), 4, {}, grid, xs) == 1


class TestPointCtx:
    def test_psi_and_psi1_match_the_direct_sums(self):
        for s in POINTS:
            ctx = oracle._PointCtx(s)
            # largest a first, then every pair again: the prefix tables are
            # read both right after growing and long after
            pairs = [(a, b) for a in range(30, -1, -1) for b in range(a + 1)]
            for a, b in pairs + pairs[::-1]:
                terms = [1 / (s + j) for j in range(b, a)]
                assert ctx.psi(a, b) == sum(terms, Fraction(0)), (s, a, b)
                assert ctx.psi1(a, b) == -sum((t * t for t in terms), Fraction(0))

    def test_binom_matches_the_falling_factorial(self):
        for s in POINTS:
            ctx = oracle._PointCtx(s)
            keys = [(shift, k) for shift in range(-2, 13) for k in range(13)]
            for shift, k in keys[::-1] + keys:
                assert ctx.binom(shift, k) == _falling(s, shift, k), (s, shift, k)

    def test_horner_matches_the_direct_sum(self):
        # one row evaluated at every x at once, as _horner_sum calls it;
        # the empty row (m = 0), lo > 0 and negative x included
        coeffs = [Fraction(3, 7), Fraction(-5, 6), 0, Fraction(11, 4), -2]
        xs = (Fraction(2), Fraction(-3, 5), Fraction(7, 8), Fraction(0), Fraction(-4))
        for lo in range(3):
            for m in range(len(coeffs) + 1):
                row = [oracle._rat(c) if c else c for c in coeffs[:m]]
                got = oracle._horner_row(row, lo, tuple(map(oracle._rat, xs)))
                assert len(got) == len(xs)
                for x, value in zip(xs, got):
                    want = sum(
                        (c * x ** (lo + i) for i, c in enumerate(coeffs[:m])),
                        Fraction(0),
                    )
                    assert value == want, (lo, m, x)
                    assert math.gcd(value.numerator, value.denominator) == 1
                    assert value.denominator > 0

    @pytest.mark.parametrize("tag", tags())
    def test_each_side_equals_the_catalog_side_at_its_sample_points(self, tag):
        entry = lookup(tag)
        sides = [("lhs", None, entry.lhs)] + [
            ("rhs", v, entry.rhs_for(v)) for v in [None, *sorted(entry.rhs_variants)]
        ]
        ctxs = {}
        for n in range(entry.n_min, 7):
            for params in entry.default_param_grid():
                points = sampling_verify(entry, n, params).sample_points
                ss = sorted({s for s, _ in points})
                xs = sorted({x for _, x in points})
                assert len(points) == len(ss) * len(xs)
                # one context per s across every n and side, as the memo
                # shares them across cells
                grid = [ctxs.setdefault(s, oracle._PointCtx(s)) for s in ss]
                for name, variant, side in sides:
                    want = eval_side(entry, name, n, params, variant)
                    got = oracle._walk(side, n, params, grid, xs)
                    for i, s in enumerate(ss):
                        for j, x in enumerate(xs):
                            assert oracle._at(got, i, j) == want.eval(s, x), (
                                tag, n, params, name, variant, s, x
                            )
                    if "s" in entry.domain:
                        for s0 in (1, 2, 5):
                            got = oracle._walk(
                                side, n, params, [oracle._IntegerSCtx(s0)], xs
                            )
                            for j, x in enumerate(xs):
                                assert oracle._at(got, 0, j) == want.eval(s0, x), (
                                    tag, n, name, s0, x
                                )

    def test_builtins_outside_their_domain_are_errors(self):
        grid = [oracle._PointCtx(1)]
        for source in ("CS(n,-1)", "PSID(n,n+1)", "PSI1D(n+1,-1)"):
            with pytest.raises(ValueError):
                oracle._walk(Side(source), 2, {}, grid, [])


def _oracle_sweep(n_max):
    out = []
    for e in catalog_entries():
        for _, n, params, variant, _ in plan_cells(e, range(e.n_min, n_max + 1)):
            cert = sampling_verify(e, n, params, variant=variant)
            ints = ()
            if "s" in e.domain:
                ints = tuple(
                    integer_s_check(e, n, s0, params, variant=variant)
                    for s0 in oracle.INTEGER_S_POINTS
                )
            out.append((e.tag, n, sorted(params.items()), variant, cert, ints))
    return out


class TestPointMemo:
    def test_sweep_agrees_with_memoization_off(self):
        # Every shared context against a fresh one grown to the same
        # indices, which is what a cell would use with no memo at all.
        clear_memos()
        first = _oracle_sweep(10)
        info = memo_info()["oracle.points"]
        assert info.size > 0
        for sv in range(1, info.size + 1):
            ctx = oracle._point_ctx(sv)
            fresh = oracle._PointCtx(sv)
            fresh.psi(len(ctx._p1) - 1, 0)
            fresh.psi1(len(ctx._p2) - 1, 0)
            for shift, col in ctx._binom.items():
                fresh.binom(shift, len(col) - 1)
            assert ctx._p1 == fresh._p1 and ctx._p2 == fresh._p2, sv
            assert ctx._binom == fresh._binom, sv
        # the contexts read above were all there were
        assert memo_info()["oracle.points"].misses == info.misses
        clear_memos()
        assert _oracle_sweep(10) == first
        for *_, cert, _ in first:
            bs, bx = cert.degree_bound
            assert cert.point_count == (bs + 1) * (bx + 1)

    def test_a_repeated_sweep_adds_no_misses(self):
        clear_memos()
        _oracle_sweep(4)
        first = memo_info()["oracle.points"]
        assert first.misses > 0 and first.size == first.misses
        _oracle_sweep(4)
        second = memo_info()["oracle.points"]
        assert second.misses == first.misses and second.size == first.size
        assert second.hits > first.hits

    def test_clear_memos_empties_the_memo(self):
        clear_memos()
        for _ in range(2):
            cert = sampling_verify(lookup("THM-2.6"), 3)
            assert memo_info()["oracle.points"].size == cert.degree_bound[0] + 1
            clear_memos()
            assert memo_info()["oracle.points"] == (0, 0, 0)


class TestGridMemo:
    """Sampling grids share the x-free sub-products of their sides, each
    kept as its list over s = 1..M."""

    @staticmethod
    def grid_values(n_max, shared, fresh=False):
        """Every side of every cell with n <= n_max over its sampling grid,
        in increasing n, so that later grids extend the memo's lists."""
        out = []
        for e in catalog_entries():
            for _, n, params, variant, _ in plan_cells(e, range(e.n_min, n_max + 1)):
                bs, bx = degree_bound(e, n)
                ctxs = [oracle._point_ctx(sv) for sv in range(1, bs + 2)]
                xs = [Fraction(xv) for xv in range(1, bx + 2)]
                for side in (e.lhs, e.rhs_for(variant)):
                    if fresh:
                        clear_memos()
                    out.append(oracle._walk(side, n, params, ctxs, xs, shared))
        return out

    def test_cold_and_warm_memos_give_the_same_value_at_every_point(self):
        clear_memos()
        plain = self.grid_values(8, shared=False)
        assert memo_info()["oracle.grid"] == (0, 0, 0)
        extended = self.grid_values(8, shared=True)
        info = memo_info()["oracle.grid"]
        # smaller grids came first, so the larger ones extended the lists
        assert info.misses > info.size > 0
        warm = self.grid_values(8, shared=True)
        assert memo_info()["oracle.grid"].misses == info.misses
        cold = self.grid_values(8, shared=True, fresh=True)
        assert plain == extended == warm == cold

    def test_only_sampling_grids_of_several_points_share(self):
        clear_memos()
        entry = lookup("THM-2.8")
        sampling_verify(entry, 3)
        for s0 in oracle.INTEGER_S_POINTS:
            integer_s_check(entry, 3, s0)
        oracle._walk(entry.rhs, 3, {}, [oracle._point_ctx(1)], (), shared=True)
        info = memo_info()["oracle.grid"]
        assert info.size > 0 and info.hits == 0
        # an x-carrying product is never kept, an x-free one is
        ctxs, xs = [oracle._point_ctx(sv) for sv in (1, 2, 3)], [Fraction(1), Fraction(2)]
        oracle._walk(Side("CS(n,2)*PSID(n+1,1)*x"), 3, {}, ctxs, xs, shared=True)
        assert memo_info()["oracle.grid"] == info
        oracle._walk(Side("(CS(n,2)*PSID(n+1,1) + 1)*x"), 3, {}, ctxs, xs, shared=True)
        assert memo_info()["oracle.grid"].size == info.size + 1


class TestDegreeBound:
    def test_monotone_in_n(self):
        for e in catalog_entries():
            prev = degree_bound(e, e.n_min)
            for n in range(e.n_min + 1, e.n_min + 6):
                cur = degree_bound(e, n)
                assert cur[0] >= prev[0] and cur[1] >= prev[1]
                prev = cur

    def test_reflects_the_domain(self):
        for e in catalog_entries():
            bs, bx = degree_bound(e, 3)
            if "s" not in e.domain:
                assert bs == 0
            if "x" not in e.domain:
                assert bx == 0

    def test_rejects_n_below_minimum(self):
        with pytest.raises(ValueError):
            degree_bound(lookup("ID-5"), 0)

    def test_every_entry_has_a_bound(self):
        for e in catalog_entries():
            for n in range(e.n_min, e.n_min + 12):
                degree_bound(e, n)

    def test_an_unlisted_variable_entry_gets_a_derived_bound(self):
        # the bound comes from the statements, whatever the tag, and the
        # sampling verdict is the symbolic one
        for rhs, holds in ((None, True), ("H(n) + s", False)):
            synthetic = dataclasses.replace(lookup("THM-2.6"), tag="THM-9.9")
            if rhs is not None:
                synthetic = dataclasses.replace(synthetic, rhs=Side(rhs))
            assert degree_bound(synthetic, 3) == (3, 0)
            symbolic = eval_side(synthetic, "lhs", 3) == eval_side(synthetic, "rhs", 3)
            assert symbolic is holds
            assert sampling_verify(synthetic, 3).all_equal is holds

    def test_an_unlisted_constant_entry_needs_one_point(self):
        synthetic = dataclasses.replace(lookup("ID-5"), tag="ID-99")
        assert degree_bound(synthetic, 3) == (0, 0)


CORPUS = Path(__file__).resolve().parent.parent / "corpus" / "paper.ids"

# One statement for each builtin and for each shape of product whose
# linear factors cancel, in full or in part, and for the inverted ones.
ONE_BUILTIN = (
    "H(n) * Hr(n,2) / C(2*n,n)",
    "CS(n,2)",
    "CS(-1,n)",
    "1/CS(n,2)",
    "CS(n,3)/CS(n,2)",
    "PSID(n,1)",
    "PSID(n,0) * s",
    "1/PSID(n+1,n)",
    "PSI1D(n,1)",
    "PSID(n,1)^2",
    "CS(n,2)*PSID(n+1,n-1)",
    "CS(n,1)*PSID(n+1,n-1)",
    "CS(n,2)*PSI1D(n+1,n-1)",
    "CS(n,3)*PSID(n+1,n-1)^2",
    "CS(n-1,n-1) * (PSID(n,1)^2 + PSI1D(n,1))",
    "x/(1+x)",
    "(1+x)^n * (x/(1+x))^(n+1)",
    "1/(s+n) - 1/(x+n)",
    "s*x/(2*s+2)",
)


def _exact(ast, n: int, params=None):
    """The symbolic route's value of a checked tree at n."""
    return compiled_module.compiled(ast)(evaluator._EXACT, {**(params or {}), "n": n})


def _derived_den(form):
    """{j: m} for each derived pole (s + j)^m, and the same for x."""
    if type(form) is not degrees.Form:
        return {}, {}
    return tuple({j: -m for j, m in rec[0].items() if m < 0} for rec in (form.s, form.x))


def _divided(poly, var: str, j: int):
    """poly / (var + j), exact; raises ValueError on a remainder."""
    return poly.synth_div_s(-j) if var == "s" else poly.synth_div_x(-j)


def _assert_within_derived(ast, n: int, params=None):
    """The side's exact value times its derived den is a polynomial of at
    most its derived degrees in s and in x.

    Each factor of the exact value's den is divided out of the numerator
    times the derived den exactly, one linear factor at a time: a factor
    linear in s or x directly, any other one split into its linear factors
    by trial first.  So a pole that the derived den lacks leaves a
    remainder."""
    form = degrees.analyse(ast, n, params or {})
    if type(form) is degrees.Form:
        assert form.s[3] == form.x[3] == 0, "a side with a Q"
    value = _exact(ast, n, params)
    poly, factors = (
        (value.num, value._f) if isinstance(value, FactoredFrac) else (BiPoly.const(value), {})
    )
    den_s, den_x = _derived_den(form)
    for j, m in den_s.items():
        poly = poly * (BiPoly.s() + j) ** m
    for j, m in den_x.items():
        poly = poly * (BiPoly.x() + j) ** m
    for key, m in factors.items():
        if key is bivar.X1:
            own = [("x", 1)]
        elif type(key) is int:
            own = [("s", key)]
        else:
            own = [(var, j) for var in "sx" for j in range(-64, 65)]
        for _ in range(m):
            factor = bivar._factor(key)
            for var, j in own:
                while not factor.is_constant():
                    try:
                        factor = _divided(factor, var, j)
                    except ValueError:
                        break
                    poly = _divided(poly, var, j)
            assert factor.is_constant(), factor
    bs, bx = degrees.numerator_degrees(form)
    assert poly.deg_s <= bs and poly.deg_x <= bx, (poly.deg_s, poly.deg_x, bs, bx)


def _catalog_sides():
    """(entry, side) for every side of the catalog, each variant's too."""
    for e in catalog_entries():
        yield e, e.lhs
        for variant in sorted(e.rhs_variants) or [None]:
            yield e, e.rhs_for(variant)


class TestDerivedDegrees:
    """The degree analysis against the exact values of the statements."""

    def test_every_catalog_side_up_to_25_is_within_its_derived_degrees(self):
        for e, side in _catalog_sides():
            for n in range(e.n_min, 26):
                for params in e.default_param_grid():
                    try:
                        _assert_within_derived(side.ast, n, params)
                    except (AssertionError, ValueError) as exc:
                        raise AssertionError((e.tag, side.source, n, params)) from exc

    def test_every_corpus_side_is_within_its_derived_degrees(self):
        lines, issues = load_corpus(CORPUS)
        assert lines and not issues
        for line in lines:
            identity = check(line.identity)
            assert not isinstance(identity, list), line.name
            for n in range(1, 11):
                for side in (identity.lhs, identity.rhs):
                    try:
                        _assert_within_derived(side, n)
                    except (AssertionError, ValueError) as exc:
                        raise AssertionError((line.name, n)) from exc

    @pytest.mark.parametrize("source", ONE_BUILTIN)
    def test_one_builtin_statements_are_within_their_derived_degrees(self, source):
        for n in range(3, 9):
            _assert_within_derived(Side(source).ast, n)

    # edits of a right side that make the identity false, with new poles,
    # zeros, powers of s, a pole off the integers and a negation
    MUTATIONS = (
        "{} + PSID(n,1)",
        "{} + PSI1D(n+1,1)",
        "{} - CS(n,2)/(s+n+2)",
        "{} + s^2",
        "({}) * (s+1)",
        "({}) / (s+2)",
        "{} + 1/(2*s+1)",
        "-({})",
    )

    @pytest.mark.parametrize("mutation", MUTATIONS)
    def test_the_bound_holds_the_reduced_numerator_of_a_false_cell(self, mutation):
        entries = [e for e in catalog_entries() if e.domain == "Q(s)"]
        assert len(entries) == 10
        for e in entries:
            wrong = dataclasses.replace(e, rhs=Side(mutation.format(e.rhs.source)))
            for n in range(1, 7):
                diff = eval_side(wrong, "lhs", n) - eval_side(wrong, "rhs", n)
                num, _ = diff.lowest_terms()
                bs, bx = degree_bound(wrong, n)
                assert bx == 0 and bs >= num.deg_s, (e.tag, mutation, n)
                assert sampling_verify(wrong, n).all_equal is diff.is_zero()

    def test_every_grid_point_avoids_every_derived_pole(self):
        for e in catalog_entries():
            for _, n, params, variant, _ in plan_cells(e, range(e.n_min, 26)):
                (bs, bx), (at_s, at_x) = oracle._derived(e.lhs, e.rhs_for(variant), n, params)
                assert not set(at_s) & set(range(1, bs + 2)), (e.tag, n)
                assert not set(at_x) & set(range(1, bx + 2)), (e.tag, n)

    def test_a_pole_on_the_grid_raises(self):
        def cell(lhs, rhs):
            return dataclasses.replace(lookup("THM-2.6"), tag="POLE", lhs=Side(lhs), rhs=Side(rhs))

        # a derived pole at s = 1, x = 2, and one that cancels inside the
        # side, which the walk meets
        for lhs, rhs in (
            ("1/(s-1)", "1/(s-1)"),
            ("x/(x-2)", "x/(x-2)"),
            ("CS(-1,1)/CS(-1,1)", "1"),
        ):
            with pytest.raises(ZeroDivisionError):
                sampling_verify(cell(lhs, rhs), 2)
        # off the grid, the pole is harmless
        cert = sampling_verify(cell("1/(s-5) + s", "s + 1/(s-5)"), 2)
        assert cert.degree_bound == (2, 0) and cert.all_equal


class TestUnitProducts:
    def test_a_product_by_one_or_minus_one_equals_the_general_product(self, monkeypatch):
        # every (-1)^k statement of the catalog, over its sampling grid,
        # through the fast path and through _Rat multiplications
        sides = [(e, s) for e, s in _catalog_sides() if "(-1)^" in s.source]
        assert len(sides) > 20
        general = staticmethod(functools.partial(oracle._lift, operator.mul))
        for e, side in sides:
            for n in range(e.n_min, 8):
                for params in e.default_param_grid():
                    (bs, bx), _ = oracle._derived(e.lhs, side, n, params)
                    ctxs = [oracle._PointCtx(sv) for sv in range(1, bs + 3)]
                    xs = [Fraction(xv) for xv in range(1, bx + 3)]
                    fast = oracle._walk(side, n, params, ctxs, xs)
                    with monkeypatch.context() as m:
                        m.setattr(oracle._Grid, "mul", general)
                        slow = oracle._walk(side, n, params, ctxs, xs)
                    assert fast == slow, (e.tag, n)
                    assert _types(fast) == _types(slow), (e.tag, n)


def _types(value):
    if isinstance(value, (list, tuple)):
        return [_types(v) for v in value]
    return type(value)


class TestSamplingVerify:
    def test_certificate_shape(self):
        cert = sampling_verify(lookup("THM-2.1"), 2)
        assert isinstance(cert, SampleCertificate)
        assert cert.id == "THM-2.1" and cert.n == 2
        assert cert.all_equal
        bs, bx = cert.degree_bound
        assert cert.point_count == (bs + 1) * (bx + 1)
        assert all(s > 0 and x > 0 for s, x in cert.sample_points)

    def test_whole_catalog_agrees_at_small_n(self):
        for e in catalog_entries():
            for params in e.default_param_grid():
                cert = sampling_verify(e, max(e.n_min, 2), params)
                assert cert.all_equal, e.tag

    def test_point_grids_cover_constants_too(self):
        cert = sampling_verify(lookup("ID-5"), 4)
        assert cert.degree_bound == (0, 0)
        assert cert.point_count == 1

    def test_detects_the_misprinted_variant(self):
        good = sampling_verify(lookup("INTRO-2"), 1, variant="corrected")
        bad = sampling_verify(lookup("INTRO-2"), 1, variant="printed")
        assert good.all_equal
        assert not bad.all_equal

    def test_unknown_variant_is_an_error(self):
        with pytest.raises(ValueError):
            sampling_verify(lookup("INTRO-2"), 1, variant="imagined")
        with pytest.raises(ValueError):
            sampling_verify(lookup("ID-5"), 1, variant="printed")

    def test_param_validation_is_applied(self):
        with pytest.raises(ValueError):
            sampling_verify(lookup("ID-13"), 1, {"m": 1})
        with pytest.raises(ValueError):
            sampling_verify(lookup("ID-13"), 1)


class TestIntegerSCheck:
    def test_holds_on_shifted_entries(self):
        for tag in ("THM-2.1", "THM-2.6", "THM-2.7", "THM-2.9", "COR-2.3"):
            for s0 in (0, 1, 4):
                assert integer_s_check(lookup(tag), 2, s0)

    def test_rejects_entries_without_the_variable(self):
        # constant-domain identities have no s to pin down
        with pytest.raises(ValueError):
            integer_s_check(lookup("ID-5"), 2, 1)
        with pytest.raises(ValueError):
            integer_s_check(lookup("INTRO-2"), 1, 1)

    def test_rejects_bad_base_points(self):
        # True and 1.0 equal a point of INTEGER_S_POINTS, also once its
        # cell is in the memo
        entry = lookup("THM-2.6")
        assert integer_s_check(entry, 2, 1)
        for s0 in (-1, True, 1.0):
            with pytest.raises(ValueError):
                integer_s_check(entry, 2, s0)


def _s_cells(n_max):
    """(entry, n, params, variant) of every catalog cell over s to n_max."""
    return [
        (e, n, params, variant)
        for e in catalog_entries()
        if "s" in e.domain
        for _, n, params, variant, _ in plan_cells(e, range(e.n_min, n_max + 1))
    ]


class TestIntegerSBatch:
    """``integer_s_check`` walks a cell once over all of INTEGER_S_POINTS
    and keeps that cell's verdicts."""

    def test_batched_verdicts_and_values_equal_one_point_walks(self):
        points, xs = oracle.INTEGER_S_POINTS, [Fraction(1), Fraction(3, 2), Fraction(4)]
        cells = _s_cells(10)
        assert len(cells) == 130
        for e, n, params, variant in cells:
            rhs = e.rhs_for(variant)
            clear_memos()
            got = [integer_s_check(e, n, s0, params, variant) for s0 in points]
            for side in (e.lhs, rhs):
                ctxs = [oracle._IntegerSCtx(s0) for s0 in points]
                batch = oracle._walk(side, n, params, ctxs, xs)
                for i, ctx in enumerate(ctxs):
                    clear_memos()
                    one = oracle._walk(side, n, params, [ctx], xs)
                    for j in range(len(xs)):
                        assert oracle._at(batch, i, j) == oracle._at(one, 0, j), (e.tag, n)
            for i, s0 in enumerate(points):
                clear_memos()
                assert got[i] == oracle._integer_s_walk(e, n, params, rhs, (s0,))[0], (e.tag, n)

    def test_a_point_that_raises_in_a_batch_raises_alone(self):
        # 1/s has a pole at s = 0 and PSID(n,0) = psi(s+n) - psi(s) one too;
        # the other points answer as they would alone
        for lhs, error in (("1/s + CS(n,1)", ZeroDivisionError), ("PSID(n,0)*s", ValueError)):
            cell = dataclasses.replace(lookup("THM-2.6"), lhs=Side(lhs), rhs=Side(lhs))
            clear_memos()
            with pytest.raises(error):
                integer_s_check(cell, 3, 0)
            for s0 in (1, 2, 5):
                assert integer_s_check(cell, 3, s0)
            with pytest.raises(error):
                integer_s_check(cell, 3, 0)
            assert memo_info()["oracle.integer_s"] == (4, 1, 1)

    def test_an_entry_that_shares_a_tag_gets_its_own_verdicts(self):
        entry = lookup("THM-2.6")
        # wrong only where s*(s-2) is not zero
        wrong = dataclasses.replace(entry, rhs=Side(f"{entry.rhs.source} + s*(s-2)"))
        assert wrong.tag == entry.tag
        clear_memos()
        for s0 in oracle.INTEGER_S_POINTS:
            assert integer_s_check(entry, 3, s0)
            assert integer_s_check(wrong, 3, s0) is (s0 in (0, 2))
        # each call asked for another entry's cell than the call before
        assert memo_info()["oracle.integer_s"] == (0, 8, 1)

    def test_a_disagreement_names_its_point(self):
        from hforge.report import ReportRow

        entry = lookup("THM-2.6")
        # wrong where s*(s-1) is not zero: from s0 = 2 on
        wrong = dataclasses.replace(entry, rhs=Side(f"{entry.rhs.source} + s*(s-1)"))
        row = ReportRow(id=entry.tag, n=3, params={}, passed=True)
        got = oracle.fold_oracle(wrong, row, "integer-s")
        assert got.params == {"oracle_disagreement": "integer-s", "oracle_s0": 2}
        assert not got.passed and not got.expected_fail

    def test_a_sweep_counts_one_miss_and_three_hits_per_cell(self):
        cells = _s_cells(4)
        clear_memos()
        assert memo_info()["oracle.integer_s"] == (0, 0, 0)
        for e, n, params, variant in cells:
            for s0 in oracle.INTEGER_S_POINTS:
                integer_s_check(e, n, s0, params, variant)
        assert memo_info()["oracle.integer_s"] == (3 * len(cells), len(cells), 1)
        # a point outside INTEGER_S_POINTS is walked alone
        e, n, params, variant = cells[0]
        integer_s_check(e, n, 3, params, variant)
        assert memo_info()["oracle.integer_s"] == (3 * len(cells), len(cells), 1)
        clear_memos()
        assert memo_info()["oracle.integer_s"] == (0, 0, 0)


def test_the_anchored_id14_display_holds_at_m_2_and_fails_at_m_3():
    # the display as printed, (m-1)*H(n) where ID-14's general formula has
    # (m-1)*H((m-1)*n): the two agree at m = 2 only
    from hforge.catalog import verify

    display = "(-1)^n/m * C(m*n,n)*((m-1)*H(n) - 1/(m*n))"
    entry = dataclasses.replace(lookup("ID-14"), rhs=Side(display, ("m",)))
    report = verify(entry, range(1, 5), params_range=[{"m": 2}, {"m": 3}])
    assert [(r.n, r.params["m"], r.passed) for r in report.rows] == [
        (n, m, m == 2) for n in range(1, 5) for m in (2, 3)
    ]
    witness = report.rows[1].witness
    assert (witness.lhs_probe, witness.rhs_probe) == ("-8/3", "-5/3")
    for r in report.rows:
        assert sampling_verify(entry, r.n, r.params).all_equal is r.passed


def test_oracle_and_symbolic_engine_agree_per_cell():
    # verdict comparison on a small slice of every entry
    from hforge.catalog import verify

    for e in catalog_entries():
        for params in e.default_param_grid():
            n = max(e.n_min, 2)
            symbolic = verify(e, [n], params_range=[params]).rows[0].passed
            sampled = sampling_verify(e, n, params).all_equal
            assert symbolic == sampled, e.tag
            if "s" in e.domain:
                assert integer_s_check(e, n, 2, params) == symbolic, e.tag


def test_the_certificate_checks_survive_python_o():
    # an assert vanishes under -O, and with it the proof's preconditions
    tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
    assert not [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]


def test_a_nonpositive_sample_point_is_refused(monkeypatch):
    monkeypatch.setattr(oracle, "_point_ctx", lambda sv: oracle._PointCtx(sv - 1))
    with pytest.raises(RuntimeError, match="positive"):
        sampling_verify(lookup("THM-2.6"), 3)


def _imports(module) -> list[tuple[str, str]]:
    """(module, name) for each name a module's source imports; a plain
    ``import m`` gives (m, "")."""
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    package = module.__name__.rsplit(".", 1)[0]
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            base = package.rsplit(".", node.level - 1)[0] if node.level else ""
            source = ".".join(p for p in (base, node.module or "") if p)
            out.extend((source, a.name) for a in node.names)
        elif isinstance(node, ast.Import):
            out.extend((a.name, "") for a in node.names)
    return out


def _within(name: str, banned) -> bool:
    return any(name == b or name.startswith(b + ".") for b in banned)


def test_the_oracle_imports_nothing_from_the_symbolic_engine():
    banned = ("hforge.bivar", "hforge.exact", "hforge.dsl.evaluator")
    for module in (oracle, degrees):
        for source, name in _imports(module):
            assert not _within(source, banned), source
            assert not _within(f"{source}.{name}", banned), (source, name)


def test_only_the_compiled_form_reads_expression_trees():
    # one walker: no arithmetic dispatches on the kinds of node, and
    # the compiled form shares nothing with the symbolic engine
    kinds = {
        "Add", "Sub", "Mul", "Div", "Pow", "Neg", "Sum", "Call", "Var", "IntLit", "RatLit"
    }
    for module in (oracle, degrees, evaluator):
        for source, name in _imports(module):
            if source in ("hforge.dsl", "hforge.dsl.nodes"):
                assert name not in kinds, (module.__name__, name)
    banned = ("hforge.bivar", "hforge.exact", "hforge.special", "hforge.dsl.evaluator")
    for source, name in _imports(compiled_module):
        assert not _within(source, banned), source
        assert not _within(f"{source}.{name}", banned), (source, name)


def test_a_tree_compiles_once(monkeypatch):
    from hforge import catalog

    side = Side("sum(k=1..n, C(n,k)*x^k) / (1+x)^n")
    assert compiled_module.compiled(side.ast) is compiled_module.compiled(side.ast)
    # fresh sides for every entry, so that nothing is compiled yet
    fresh = {
        e.tag: dataclasses.replace(
            e,
            lhs=Side(e.lhs.source, e.lhs.params),
            rhs=Side(e.rhs.source, e.rhs.params),
            rhs_variants={
                k: Side(v.source, v.params) for k, v in e.rhs_variants.items()
            },
        )
        for e in catalog_entries()
    }
    monkeypatch.setattr(catalog, "_ENTRIES", list(fresh.values()))
    monkeypatch.setattr(catalog, "_BY_TAG", fresh)
    seen = []
    compile_node = compiled_module._compile
    monkeypatch.setattr(
        compiled_module, "_compile", lambda node: seen.append(node) or compile_node(node)
    )
    report = catalog.verify_all(3, oracle="both")
    assert report.total == 117 and report.all_ok()
    assert len({id(node) for node in seen}) == len(seen)
    sides = [
        e.rhs_for(v) for e in fresh.values() for v in sorted(e.rhs_variants) or [None]
    ]
    sides += [e.lhs for e in fresh.values()]
    assert {id(side.ast) for side in sides} <= {id(node) for node in seen}
