"""Identity catalog: entries, evaluation, and the verification engine."""

import ast
import dataclasses
import multiprocessing
import os
import pickle
import re
import subprocess
import sys
import types
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from pathlib import Path

import pytest

from hforge import bivar
from hforge.bivar import bifrac_eq
from hforge.catalog import (
    ParamSpec,
    Side,
    eval_side,
    lookup,
    plan_cells,
    tags,
    verify,
    verify_all,
)
from hforge.catalog import catalog as catalog_entries
from hforge.dsl import check, load_corpus
from hforge.dsl import eval as dsl_eval
from hforge.dsl.evaluator import product_memo_info
from hforge.oracle import grid_memo_info, point_memo_info
from hforge.special import clear_memos, factor_memo_info

ROOT = Path(__file__).resolve().parent.parent

DOMAINS = {"Q", "Q(s)", "Q(x)", "Q(s,x)"}


def entry_map():
    return {e.tag: e for e in catalog_entries()}


def timeless(report):
    return [dataclasses.replace(r, elapsed_ns=0) for r in report.rows]


def fresh_interpreter(code):
    """The standard output of ``code`` run by a new interpreter on ``src``."""
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    return out.stdout


def pool_with_start_method(monkeypatch, method):
    """Make the catalog's pools start their workers by ``method``."""
    from hforge import catalog

    class Pool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            ctx = multiprocessing.get_context(method)
            super().__init__(*args, mp_context=ctx, **kwargs)

    monkeypatch.setattr(catalog, "ProcessPoolExecutor", Pool)


class TestCatalogShape:
    def test_thirty_four_entries_with_unique_tags(self):
        entries = catalog_entries()
        assert len(entries) == 34
        assert len({e.tag for e in entries}) == 34

    def test_every_entry_is_well_formed(self):
        for e in catalog_entries():
            assert e.domain in DOMAINS
            assert e.anchor.strip()
            assert e.n_min >= 1
            assert e.id == e.tag

    def test_the_domain_is_derived_from_the_sides(self):
        # reading it scans the statements' names and parses none of them
        entry = dataclasses.replace(lookup("THM-2.6"), rhs=Side("H(n) + s*x"))
        assert entry.domain == "Q(s,x)"
        assert entry.rhs._ast is None
        assert dataclasses.replace(entry, lhs=Side("H(n)"), rhs=Side("x")).domain == "Q(x)"
        assert lookup("THM-2.6").domain == "Q(s)"
        # a variant counts like a right side
        entry = lookup("INTRO-2")
        variants = {"printed": Side("s"), "corrected": entry.rhs}
        assert dataclasses.replace(entry, rhs_variants=variants).domain == "Q(s)"

    def test_lookup(self):
        assert lookup("ID-5").tag == "ID-5"
        with pytest.raises(KeyError):
            lookup("ID-99")
        assert tags() == [e.tag for e in catalog_entries()]

    def test_parameterized_entries(self):
        e13 = lookup("ID-13")
        assert [s.name for s in e13.extra_params] == ["m"]
        assert e13.default_param_grid() == ({"m": 2}, {"m": 3}, {"m": 4}, {"m": 5})
        e14 = lookup("ID-14")
        assert e14.default_param_grid() == ({"m": 2}, {"m": 3})
        assert lookup("ID-5").default_param_grid() == ({},)

    def test_only_one_entry_carries_variants(self):
        flagged = [e.tag for e in catalog_entries() if e.rhs_variants]
        assert flagged == ["INTRO-2"]
        e = lookup("INTRO-2")
        assert set(e.rhs_variants) == {"corrected", "printed"}
        assert e.expected_fail_variants == frozenset({"printed"})


class TestStatements:
    def test_every_side_is_expression_language_source(self):
        for e in catalog_entries():
            for side in (e.lhs, e.rhs, *e.rhs_variants.values()):
                assert isinstance(side, Side)
                assert isinstance(side.source, str) and side.source

    def test_corpus_lines_restate_their_entries(self):
        entries, issues = load_corpus(ROOT / "corpus" / "paper.ids")
        assert not issues and len(entries) == 38
        covered = set()
        for ce in entries:
            match = re.fullmatch(r"(.+?)\[m=(\d+)\]", ce.name)
            tag = match.group(1) if match else ce.name
            params = {"m": int(match.group(2))} if match else {}
            entry = lookup(tag)
            rhs = entry.rhs_for("corrected" if entry.rhs_variants else None)
            identity = check(ce.identity)
            assert not isinstance(identity, list), ce.name
            for n in range(1, 5):
                where = (ce.name, n)
                assert bifrac_eq(dsl_eval(identity.lhs, n), entry.lhs(n, params)), where
                assert bifrac_eq(dsl_eval(identity.rhs, n), rhs(n, params)), where
            covered.add(tag)
        assert covered == set(tags())

    def test_bad_statements_are_reported_on_first_use(self):
        with pytest.raises(ValueError, match="bad statement"):
            Side("H(n")(1)
        with pytest.raises(ValueError, match="unbound variable 'm'"):
            Side("m*n")(1)
        assert Side("m*n", ("m",))(2, {"m": 3}).as_constant() == 6

    def test_importing_the_package_does_not_load_the_language(self):
        code = "import sys, hforge; print('hforge.dsl' in sys.modules)"
        assert fresh_interpreter(code).strip() == "False"

    def test_only_a_pool_loads_the_pool_stack(self):
        # In a fresh interpreter, since in this one the name may be resolved.
        code = """
import dataclasses, sys, hforge
stack = ("multiprocessing", "concurrent.futures.process")
def loaded():
    return [m in sys.modules for m in stack]
def timeless(report):
    return [dataclasses.replace(r, elapsed_ns=0) for r in report.rows]
serial = hforge.verify_all(3)
print(loaded())
pooled = hforge.verify_all(3, workers=2)
print(loaded(), timeless(pooled) == timeless(serial), serial.total)
"""
        assert fresh_interpreter(code).splitlines() == ["[False, False]", "[True, True] True 117"]

    def test_importing_the_cli_loads_the_pool_stack(self):
        code = "import sys, hforge.cli; print('concurrent.futures.process' in sys.modules)"
        assert fresh_interpreter(code).strip() == "True"

    def test_importing_the_cli_does_not_load_the_oracle(self):
        code = "import sys, hforge.cli; print('hforge.oracle' in sys.modules)"
        assert fresh_interpreter(code).strip() == "False"

    def test_a_catalog_entry_pickles_as_itself(self):
        entry = lookup("THM-2.4")
        entry.lhs(2)
        assert pickle.loads(pickle.dumps(entry)) is entry

    def test_an_entry_outside_the_catalog_pickles_by_value(self):
        entry = lookup("THM-2.4")
        other = dataclasses.replace(entry, tag="THM-9.9")
        other.lhs(2)  # compiles the tree, whose closures do not pickle
        copy = pickle.loads(pickle.dumps(other))
        assert copy is not other and copy.tag == "THM-9.9"
        assert copy.lhs._ast is None
        assert (copy.lhs.source, copy.lhs.params) == (entry.lhs.source, entry.lhs.params)
        assert bifrac_eq(copy.lhs(2), entry.lhs(2))

    def test_a_copy_pickled_by_value_keeps_its_domain(self):
        other = dataclasses.replace(lookup("THM-2.1"), tag="THM-9.9")
        assert other.domain == "Q(s,x)"
        assert pickle.loads(pickle.dumps(other)).domain == "Q(s,x)"

    def test_language_does_not_import_the_catalog(self):
        for path in (ROOT / "src" / "hforge" / "dsl").glob("*.py"):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom):
                    names = [node.module or ""] + [a.name for a in node.names]
                elif isinstance(node, ast.Import):
                    names = [a.name for a in node.names]
                else:
                    continue
                assert not any("catalog" in name for name in names), path.name

    def test_submodule_is_not_shadowed_by_the_package_root(self):
        import hforge.catalog as module

        assert isinstance(module, types.ModuleType)
        assert module.catalog is catalog_entries


class TestValidation:
    def test_n_below_minimum(self):
        with pytest.raises(ValueError):
            lookup("ID-5").validate(0, {})

    def test_param_errors(self):
        e = lookup("ID-13")
        with pytest.raises(ValueError):
            e.validate(1, {})
        with pytest.raises(ValueError):
            e.validate(1, {"m": 1})
        with pytest.raises(ValueError):
            e.validate(1, {"m": 2, "q": 1})
        with pytest.raises(ValueError):
            lookup("ID-14").validate(1, {"m": 5})

    def test_param_spec_rejects_bools_and_floats(self):
        spec = ParamSpec(name="m", minimum=2, default_grid=(2,))
        with pytest.raises(ValueError):
            spec.validate(True)
        with pytest.raises(ValueError):
            spec.validate(2.0)

    def test_rhs_for_unknown_variant(self):
        with pytest.raises(ValueError):
            lookup("INTRO-2").rhs_for("misremembered")
        with pytest.raises(ValueError):
            lookup("ID-5").rhs_for("corrected")


class TestSpotValues:
    def test_constant_entries(self):
        assert eval_side(lookup("ID-5"), "lhs", 3).as_constant() == Fraction(11, 6)
        assert eval_side(lookup("ID-5"), "rhs", 3).as_constant() == Fraction(11, 6)
        assert eval_side(lookup("ID-17"), "lhs", 2).as_constant() == Fraction(7, 4)
        assert eval_side(lookup("ID-13"), "lhs", 1, {"m": 2}).as_constant() == Fraction(-1, 2)
        assert eval_side(lookup("INTRO-3"), "rhs", 1).as_constant() == Fraction(-5, 4)

    def test_rational_function_entries_at_integer_points(self):
        assert eval_side(lookup("THM-2.6"), "lhs", 2).subst_s(1).as_constant() == Fraction(3, 2)
        assert eval_side(lookup("THM-2.9"), "rhs", 2).subst_s(1).as_constant() == Fraction(9, 4)
        assert eval_side(lookup("COR-2.3"), "lhs", 2).subst_s(0).as_constant() == Fraction(1, 2)

    def test_alternative_right_sides_differ(self):
        e = lookup("INTRO-2")
        for n, want in ((1, Fraction(2)), (2, Fraction(4, 3)), (3, Fraction(16, 15))):
            assert eval_side(e, "rhs", n, variant="corrected").as_constant() == want
        assert eval_side(e, "rhs", 1, variant="printed").as_constant() == 16

    def test_eval_side_rejects_unknown_side(self):
        with pytest.raises(ValueError):
            eval_side(lookup("ID-5"), "middle", 1)


class TestVerify:
    def test_single_entry_sweep(self):
        report = verify(lookup("ID-5"), range(1, 6))
        assert report.total == 5
        assert report.all_ok()
        assert all(r.passed for r in report.rows)

    def test_plan_cells_requires_nonempty_grids(self):
        with pytest.raises(ValueError):
            plan_cells(lookup("ID-5"), range(1, 1))
        with pytest.raises(ValueError):
            plan_cells(lookup("ID-5"), range(1, 3), params_range=[])

    def test_default_variant_plan_covers_both_forms(self):
        report = verify(lookup("INTRO-2"), [1])
        kinds = {(r.params.get("variant"), r.expected_fail) for r in report.rows}
        assert kinds == {("corrected", False), ("printed", True)}
        assert report.all_ok()

    def test_explicit_variant_reports_the_true_verdict(self):
        report = verify(lookup("INTRO-2"), [1], variant="printed")
        (row,) = report.rows
        assert not row.passed and not row.expected_fail
        assert row.witness is not None
        assert row.witness.lhs_probe == "2"
        assert row.witness.rhs_probe == "16"

    def test_param_grid_override(self):
        report = verify(lookup("ID-13"), [1, 2], params_range=[{"m": 2}, {"m": 5}])
        assert report.total == 4
        assert {r.params["m"] for r in report.rows} == {2, 5}
        assert report.all_ok()

    @pytest.mark.parametrize(
        "workers, method", [(1, None), (2, "fork"), (2, "spawn")]
    )
    def test_verify_proves_the_entry_it_is_given(self, monkeypatch, workers, method):
        if method is not None:
            pool_with_start_method(monkeypatch, method)
        wrong = dataclasses.replace(lookup("ID-5"), rhs=Side("H(n) + 1"))
        report = verify(wrong, [1, 2, 3], workers=workers)
        assert [(r.id, r.n) for r in report.rows] == [("ID-5", 1), ("ID-5", 2), ("ID-5", 3)]
        assert not any(r.passed or r.expected_fail for r in report.rows)
        assert all(r.witness is not None for r in report.rows)
        assert report.rows[0].witness.rhs_probe == "2"

    def test_an_entry_outside_the_catalog_is_verified(self):
        synthetic = dataclasses.replace(lookup("ID-5"), tag="ID-99")
        report = verify(synthetic, [1, 2], workers=2)
        assert [(r.id, r.n, r.passed) for r in report.rows] == [
            ("ID-99", 1, True), ("ID-99", 2, True)
        ]

    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_parallel_rows_match_serial_rows(self, monkeypatch, method):
        pool_with_start_method(monkeypatch, method)
        serial = verify_all(4, oracle="both", workers=1)
        # forked workers inherit these filled memos, spawned ones start
        # empty; either way the rows are the serial ones
        assert factor_memo_info().size > 0 and point_memo_info().size > 0
        parallel = verify_all(4, oracle="both", workers=2)
        assert serial.total == 156 and serial.all_ok()
        assert timeless(parallel) == timeless(serial)

    def test_parallel_rows_match_serial_rows_with_a_wrong_side(self, monkeypatch):
        from hforge import catalog

        class OffByOne(Side):
            """Evaluates to one more than the statement its tree holds."""

            __slots__ = ()

            def __call__(self, n, params=None):
                return super().__call__(n, params) + 1

        entry = lookup("ID-12")
        wrong = dataclasses.replace(entry, rhs=OffByOne(entry.rhs.source))
        monkeypatch.setitem(catalog._BY_TAG, "ID-12", wrong)
        pool_with_start_method(monkeypatch, "fork")
        tags = ["ID-11", "ID-12", "THM-2.2"]
        serial = verify_all(4, tags=tags, oracle="both", workers=1)
        parallel = verify_all(4, tags=tags, oracle="both", workers=2)
        assert timeless(parallel) == timeless(serial)
        # the symbolic route sees the wrong side, the oracle the statement
        bad = [r for r in parallel.rows if not r.passed]
        assert [r.id for r in bad] == ["ID-12"] * 4
        assert all(r.params == {"oracle_disagreement": "sampling"} for r in bad)
        assert all(r.witness is not None and not r.expected_fail for r in bad)

    def test_a_sweep_sends_the_pool_a_few_batches(self, monkeypatch):
        from hforge import catalog

        submitted, sizes = [], []

        class CountingPool(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                sizes.append(kwargs["max_workers"])

            def submit(self, fn, /, *args, **kwargs):
                submitted.append(len(args[0]))
                return super().submit(fn, *args, **kwargs)

        monkeypatch.setattr(catalog, "ProcessPoolExecutor", CountingPool)
        report = verify_all(10, workers=2)
        assert report.total == 390 and report.all_ok()
        assert sizes == [2]
        assert len(submitted) <= 4 * 2 + 1 and sum(submitted) == 390
        # two cells never start more than two processes
        submitted.clear()
        assert verify_all(2, tags=["ID-1"], workers=3).total == 2
        assert sizes == [2, 2] and submitted == [1, 1]

    def test_catalog_sweep_small(self):
        report = verify_all(2)
        assert report.failed == 0
        bad = [r for r in report.rows if r.expected_fail]
        assert {(r.id, r.params.get("variant")) for r in bad} == {("INTRO-2", "printed")}

    def test_bivariate_cap_limits_two_variable_entries(self):
        report = verify_all(3, bivariate_cap=2)
        two_var = {e.tag for e in catalog_entries() if e.domain == "Q(s,x)"}
        capped = [r for r in report.rows if r.id in two_var]
        assert capped and max(r.n for r in capped) == 2
        rest = [r for r in report.rows if r.id not in two_var]
        assert max(r.n for r in rest) == 3

    def test_a_two_variable_entry_is_proved_above_the_default_cap(self):
        entry = lookup("THM-2.4")
        report = verify(entry, [20])
        assert [(r.n, r.passed) for r in report.rows] == [(20, True)]
        flipped, count = re.subn(r"\+ s\*\(", "- s*(", entry.rhs.source)
        assert count == 1
        wrong = dataclasses.replace(entry, rhs=Side(flipped))
        (row,) = verify(wrong, [20]).rows
        assert not row.passed and row.witness is not None

    def test_verify_all_takes_tags_in_order_and_an_m_grid(self):
        report = verify_all(2, tags=["ID-13", "ID-5"], m_grid=[2, 5])
        assert [(r.id, r.n, r.params.get("m")) for r in report.rows] == [
            ("ID-13", 1, 2), ("ID-13", 1, 5), ("ID-13", 2, 2), ("ID-13", 2, 5),
            ("ID-5", 1, None), ("ID-5", 2, None),
        ]
        assert report.all_ok()

    def test_verify_all_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            verify_all(0)


# Each psi-carrying entry and the derivation edge into it that
# ACCEPTANCE-4/5 checks: d/ds of the parent, or the parent at x = -1.
PSI_PARENTS = {
    "THM-2.2": ("THM-2.1", "d/ds"),
    "COR-2.3": ("THM-2.2", "x=-1"),
    "THM-2.4": ("THM-2.2", "d/ds"),
    "COR-2.5": ("THM-2.4", "x=-1"),
    "THM-2.7": ("THM-2.6", "d/ds"),
    "THM-2.8": ("THM-2.7", "d/ds"),
    "THM-2.10": ("THM-2.9", "d/ds"),
    "THM-2.11": ("THM-2.10", "d/ds"),
}

# Source rewrites, each applied to the first match in a side.
MUTATIONS = {
    "sign": (r"PSID\(", "-PSID("),
    "sum bound": (r"(sum\(k=[^.]+\.\.)([^,]+),", r"\1\2-1,"),
    "psi argument": (r"PSID\(([^,]+),", r"PSID(\1+1,"),
}


@pytest.mark.parametrize("kind", sorted(MUTATIONS))
@pytest.mark.parametrize("tag", sorted(PSI_PARENTS))
def test_a_mutated_psi_statement_fails_its_verdict_or_its_edge(tag, kind):
    entry = lookup(tag)
    parent_tag, op = PSI_PARENTS[tag]
    parent = lookup(parent_tag)
    pattern, repl = MUTATIONS[kind]

    def mutate(side):
        source, count = re.subn(pattern, repl, side.source, count=1)
        return Side(source) if count else None

    def derive(value):
        return value.deriv_s() if op == "d/ds" else value.subst_x(-1)

    lhs, rhs = mutate(entry.lhs), mutate(entry.rhs)
    placements = [(lhs, entry.rhs)] if lhs else []
    if rhs:
        placements.append((entry.lhs, rhs))
        if lhs:
            placements.append((lhs, rhs))
    assert placements
    for left, right in placements:
        caught = False
        for n in range(1, 7):
            lv, rv = left(n), right(n)
            caught = (
                not bifrac_eq(lv, rv)
                or not bifrac_eq(derive(parent.lhs(n)), lv)
                or not bifrac_eq(derive(parent.rhs(n)), rv)
            )
            if caught:
                break
        assert caught, (tag, kind, left.source, right.source)


def _every_side(n_max):
    """(label, evaluate) for both sides of every catalog cell (capped like
    ``verify_all``) and every corpus line with n <= n_max."""
    sides = []
    for entry in catalog_entries():
        tag = entry.tag
        for _, n, params, variant, _ in plan_cells(entry, range(entry.n_min, n_max + 1)):
            sides.append(((tag, n, params, "lhs"), lambda e=entry, n=n, p=params:
                          eval_side(e, "lhs", n, p)))
            sides.append(((tag, n, params, variant), lambda e=entry, n=n, p=params, v=variant:
                          eval_side(e, "rhs", n, p, v)))
    entries, issues = load_corpus(ROOT / "corpus" / "paper.ids")
    assert entries and not issues
    for ce in entries:
        identity = check(ce.identity)
        for n in range(1, n_max + 1):
            for side in (identity.lhs, identity.rhs):
                sides.append(((ce.name, n), lambda a=side, n=n: dsl_eval(a, n)))
    return sides


def test_shared_and_cancelled_sides_equal_cold_and_uncancelled_ones(monkeypatch):
    # Every side with n <= 15 three ways: served from warm memos (the
    # shared sub-products and the factors), computed on empty memos, and
    # computed with the cancellation of linear factors switched off.
    sides = _every_side(15)
    clear_memos()
    for _, evaluate in sides:
        evaluate()
    assert product_memo_info().hits > 0
    warm = [evaluate() for _, evaluate in sides]
    cold = []
    for _, evaluate in sides:
        clear_memos()
        cold.append(evaluate())
    monkeypatch.setattr(bivar, "_cancel", lambda p, factors: (p, factors))
    clear_memos()
    uncancelled = [evaluate() for _, evaluate in sides]
    monkeypatch.undo()
    clear_memos()
    reshaped = 0
    for (label, _), w, c, u in zip(sides, warm, cold, uncancelled):
        assert w == c == u, label
        reshaped += (w.num, w.den) != (u.num, u.den)
    assert reshaped  # the cancellation did change some sides' form


def test_clear_memos_empties_the_shared_product_memos():
    clear_memos()
    verify_all(3, tags=["THM-2.8", "THM-2.2"], oracle="sampling")
    assert product_memo_info().size > 0 and grid_memo_info().size > 0
    clear_memos()
    assert product_memo_info() == grid_memo_info() == (0, 0, 0)
