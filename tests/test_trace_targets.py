"""The benchmark tracer's targets must name live functions of the package.

``benchmarks/tracer.py`` wraps each ``(module, attribute)`` in ``TARGETS``;
a renamed or removed function would otherwise surface only when the traced
benchmark run fails.
"""

import importlib
import os

import pytest

BENCH_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks")


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(BENCH_DIR)
    return importlib.import_module("tracer")


def test_every_trace_target_resolves(tracer):
    assert tracer.TARGETS
    for mod_name, attr, _, _ in tracer.TARGETS:
        home = importlib.import_module(f"{tracer.PACKAGE}.{mod_name}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            owner = getattr(home, cls_name, None)
            assert owner is not None, f"{mod_name}.{cls_name} is gone"
            # The tracer replaces the method in the class's own namespace.
            assert meth in vars(owner), f"{mod_name}.{attr} is gone"
        else:
            assert callable(getattr(home, attr, None)), \
                f"{mod_name}.{attr} is gone"
