"""Every name that the traced benchmark run patches still exists, and
the benchmark's probes still see what they patch.

``perfbench/spans.py`` wraps functions and methods of the ``hforge``
modules by name; a traced round fails if one of them is gone.  The file
imports only the standard library, so it is loaded by path here and its
tables are read, without installing the tracer.  The ``catalog-serial``
and ``corpus-oracle`` probes of ``perfbench/workloads.py`` replace
``catalog.bifrac_eq`` and ``dsl.evaluator.eval``, so both must be looked
up when called, not bound at import.
"""

import concurrent.futures
import importlib
import importlib.util
from pathlib import Path

import pytest

from hforge import catalog
from hforge.dsl import check, evaluator, parse

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = load_spans()


def test_every_function_span_resolves():
    missing = [
        (mod, attr)
        for mod, attr, _ in spans.FUNCTION_SPANS
        if not callable(getattr(importlib.import_module(mod), attr, None))
    ]
    assert not missing


def test_every_method_span_exists():
    missing = []
    for mod, cls_name, methods, _ in spans.METHOD_SPANS:
        cls = getattr(importlib.import_module(mod), cls_name, None)
        if not isinstance(cls, type):
            missing.append((mod, cls_name))
            continue
        missing += [(mod, cls_name, m) for m in methods if not callable(getattr(cls, m, None))]
    assert not missing


def test_every_harmonic_site_imports():
    for mod, _ in spans.HARMONIC_SITES:
        importlib.import_module(mod)


def test_the_pool_name_resolves_and_no_other():
    # spans.py wraps catalog.ProcessPoolExecutor to count pools, and probes
    # the HARMONIC_SITES names with hasattr, so the module's __getattr__
    # must answer that one name only.
    assert getattr(catalog, "ProcessPoolExecutor") is concurrent.futures.ProcessPoolExecutor
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(catalog, "no_such_name")
    assert not hasattr(catalog, "_H")


def test_a_patched_evaluator_sees_both_sides_of_every_cell(monkeypatch):
    identity = check(parse("sum(k=1..n, 1/k) == H(n)"))
    evaluate, seen = evaluator.eval, []

    def probe(ast, n, *args, **kwargs):
        seen.append((ast, n))
        return evaluate(ast, n, *args, **kwargs)

    monkeypatch.setattr(evaluator, "eval", probe)
    report = evaluator.check_identity(identity.lhs, identity.rhs, range(1, 4))
    assert report.all_ok()
    expected = [(side, n) for n in (1, 2, 3) for side in (identity.lhs, identity.rhs)]
    assert len(seen) == len(expected)
    assert all(a is b and m == n for (a, m), (b, n) in zip(seen, expected))


def test_a_patched_comparison_sees_one_pair_per_row(monkeypatch):
    compare, seen = catalog.bifrac_eq, []

    def probe(lhs, rhs):
        seen.append(compare(lhs, rhs))
        return seen[-1]

    monkeypatch.setattr(catalog, "bifrac_eq", probe)
    report = catalog.verify_all(3)
    assert seen == [row.passed for row in report.rows]
