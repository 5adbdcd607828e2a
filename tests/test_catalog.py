"""Identity catalog: entries, evaluation, and the verification engine."""

import ast
import os
import re
import subprocess
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest

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

ROOT = Path(__file__).resolve().parent.parent

DOMAINS = {"Q", "Q(s)", "Q(x)", "Q(s,x)"}


def entry_map():
    return {e.tag: e for e in catalog_entries()}


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
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        )
        assert out.stdout.strip() == "False"

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

    def test_parallel_execution_matches_serial(self):
        serial = verify(lookup("ID-12"), range(1, 5), workers=1)
        parallel = verify(lookup("ID-12"), range(1, 5), workers=2)
        strip = lambda rep: [(r.id, r.n, r.passed) for r in rep.rows]
        assert strip(serial) == strip(parallel)

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
