"""Every name that the traced benchmark run patches still exists.

``perfbench/spans.py`` wraps functions and methods of the ``hforge``
modules by name; a traced round fails if one of them is gone.  The file
imports only the standard library, so it is loaded by path here and its
tables are read, without installing the tracer.
"""

import concurrent.futures
import importlib
import importlib.util
from pathlib import Path

import pytest

from hforge import catalog

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
