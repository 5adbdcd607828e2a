"""Numeric cross-checks that never touch the symbolic evaluators."""

import ast
import dataclasses
import importlib
import math
import operator
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hforge import oracle
from hforge.catalog import catalog as catalog_entries
from hforge.catalog import Side, eval_side, lookup, plan_cells, tags
from hforge.oracle import (
    SampleCertificate,
    degree_bound,
    grid_memo_info,
    id13_family_check,
    integer_s_check,
    point_memo_info,
    sampling_verify,
)
from hforge.special import clear_memos

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
        info = point_memo_info()
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
        assert point_memo_info().misses == info.misses
        clear_memos()
        assert _oracle_sweep(10) == first
        for *_, cert, _ in first:
            bs, bx = cert.degree_bound
            assert cert.point_count == (bs + 1) * (bx + 1)

    def test_a_repeated_sweep_adds_no_misses(self):
        clear_memos()
        _oracle_sweep(4)
        first = point_memo_info()
        assert first.misses > 0 and first.size == first.misses
        _oracle_sweep(4)
        second = point_memo_info()
        assert second.misses == first.misses and second.size == first.size
        assert second.hits > first.hits

    def test_clear_memos_empties_the_memo(self):
        clear_memos()
        for _ in range(2):
            sampling_verify(lookup("THM-2.6"), 3)
            assert point_memo_info().size == 6
            clear_memos()
            assert point_memo_info() == (0, 0, 0)


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
        assert grid_memo_info() == (0, 0, 0)
        extended = self.grid_values(8, shared=True)
        info = grid_memo_info()
        # smaller grids came first, so the larger ones extended the lists
        assert info.misses > info.size > 0
        warm = self.grid_values(8, shared=True)
        assert grid_memo_info().misses == info.misses
        cold = self.grid_values(8, shared=True, fresh=True)
        assert plain == extended == warm == cold

    def test_only_sampling_grids_of_several_points_share(self):
        clear_memos()
        entry = lookup("THM-2.8")
        sampling_verify(entry, 3)
        for s0 in oracle.INTEGER_S_POINTS:
            integer_s_check(entry, 3, s0)
        oracle._walk(entry.rhs, 3, {}, [oracle._point_ctx(1)], (), shared=True)
        info = grid_memo_info()
        assert info.size > 0 and info.hits == 0
        # an x-carrying product is never kept, an x-free one is
        ctxs, xs = [oracle._point_ctx(sv) for sv in (1, 2, 3)], [Fraction(1), Fraction(2)]
        oracle._walk(Side("CS(n,2)*PSID(n+1,1)*x"), 3, {}, ctxs, xs, shared=True)
        assert grid_memo_info() == info
        oracle._walk(Side("(CS(n,2)*PSID(n+1,1) + 1)*x"), 3, {}, ctxs, xs, shared=True)
        assert grid_memo_info().size == info.size + 1


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

    def test_an_unlisted_variable_entry_is_an_error(self):
        for domain in ("Q(s)", "Q(x)", "Q(s,x)"):
            synthetic = dataclasses.replace(
                lookup("THM-2.6"), tag="THM-9.9", domain=domain
            )
            with pytest.raises(ValueError, match="THM-9.9"):
                degree_bound(synthetic, 3)
            with pytest.raises(ValueError, match="THM-9.9"):
                sampling_verify(synthetic, 3)

    def test_an_unlisted_constant_entry_needs_one_point(self):
        synthetic = dataclasses.replace(lookup("ID-5"), tag="ID-99")
        assert degree_bound(synthetic, 3) == (0, 0)


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
        with pytest.raises(ValueError):
            integer_s_check(lookup("THM-2.6"), 2, -1)
        with pytest.raises(ValueError):
            integer_s_check(lookup("THM-2.6"), 2, True)


class TestFamilyCheck:
    def test_rows_cover_family_and_displays(self):
        report = id13_family_check(3)
        by_id = {}
        for r in report.rows:
            by_id.setdefault(r.id, []).append(r)
        assert len(by_id["ID-13"]) == 12
        assert len(by_id["ID-14"]) == 6
        assert report.all_ok()

    def test_only_the_second_display_is_marked(self):
        report = id13_family_check(4)
        marked = {(r.id, r.params.get("m")) for r in report.rows if r.expected_fail}
        assert marked == {("ID-14", 3)}
        for r in report.rows:
            if r.expected_fail:
                assert not r.passed

    def test_restricted_m_set(self):
        # m_set narrows the family rows; the two displays are always shown
        report = id13_family_check(2, m_set=(2,))
        family = [r for r in report.rows if r.id == "ID-13"]
        displays = [r for r in report.rows if r.id == "ID-14"]
        assert all(r.params["m"] == 2 for r in family)
        assert {r.params["m"] for r in displays} == {2, 3}
        assert all(r.params["form"] == "display" for r in displays)
        assert report.all_ok()

    def test_validation(self):
        with pytest.raises(ValueError):
            id13_family_check(0)
        with pytest.raises(ValueError):
            id13_family_check(2, m_set=(1, 2))


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
    for source, name in _imports(oracle):
        assert not _within(source, banned), source
        assert not _within(f"{source}.{name}", banned), (source, name)


def test_only_the_compiled_form_reads_expression_trees():
    # one walker: neither arithmetic dispatches on the kinds of node, and
    # the compiled form shares nothing with the symbolic engine
    kinds = {
        "Add", "Sub", "Mul", "Div", "Pow", "Neg", "Sum", "Call", "Var", "IntLit", "RatLit"
    }
    for module in (oracle, evaluator):
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
