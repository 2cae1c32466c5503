"""The perfbench tracer wraps the class methods of its METHODS table by name
(``cls.__dict__[name]``): a method renamed or dropped in evl_lab would fail
every traced run with a KeyError.  The table is read from the tracer's source,
without importing or running it."""

import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _traced_methods():
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["METHODS"]:
            table = ast.literal_eval(node.value)
            return [(layer, cls, m) for layer, classes in table.items() for cls, ms in classes.items() for m in ms]
    raise AssertionError(f"{TRACER} assigns no METHODS table")


@pytest.mark.parametrize("layer, cls_name, method", _traced_methods(), ids=lambda v: v)
def test_traced_method_is_defined_on_its_class(layer, cls_name, method):
    cls = getattr(importlib.import_module(f"evl_lab.{layer}"), cls_name)
    assert method in vars(cls), f"evl_lab.{layer}.{cls_name} defines no {method}"
