"""The benchmark under perfbench/ reaches into evl_lab by name, so API that it
needs must not be dropped or renamed.  Both files are read from their source
with ``ast``, without importing or running them.

- The tracer wraps the class methods of its METHODS table by name
  (``cls.__dict__[name]``): a method renamed or dropped in evl_lab would fail
  every traced run with a KeyError.
- The workloads import evl_lab names, read attribute chains on them and pass
  keywords to them: a name or keyword that is gone would fail every run of the
  workload, not a test."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"
WORKLOADS = PERFBENCH / "workloads.py"


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


def _workload_uses():
    """(dotted evl_lab names, {(dotted name, keyword)}) that the workloads use:
    each imported name, each attribute chain read on one (also through a
    context dict entry keyed by the imported name, as ``ctx["cli"].main``),
    and each keyword passed in a call of one."""
    tree = ast.parse(WORKLOADS.read_text(encoding="utf-8"))
    imported = {
        a.asname or a.name: f"{node.module}.{a.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "evl_lab"
        for a in node.names
    }

    def dotted(expr):
        attrs = []
        while isinstance(expr, ast.Attribute):
            attrs.insert(0, expr.attr)
            expr = expr.value
        if isinstance(expr, ast.Subscript) and isinstance(expr.slice, ast.Constant):
            root = expr.slice.value
        else:
            root = getattr(expr, "id", None)
        return ".".join([imported[root], *attrs]) if root in imported else None

    names = set(imported.values())
    keywords = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and dotted(node):
            names.add(dotted(node))
        if isinstance(node, ast.Call) and dotted(node.func):
            keywords |= {(dotted(node.func), kw.arg) for kw in node.keywords if kw.arg}
    return sorted(names), sorted(keywords)


WORKLOAD_NAMES, WORKLOAD_KEYWORDS = _workload_uses()


def _resolve(name):
    parts = name.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], 2):
        if inspect.ismodule(obj) and not hasattr(obj, part):
            importlib.import_module(".".join(parts[:i]))  # a submodule
        obj = getattr(obj, part)
    return obj


def test_workload_reader_sees_the_entry_points():
    assert {
        "evl_lab.estimators.estimate_ei_bundle",
        "evl_lab.hts_rts.TargetSet.ball_of_measure",
        "evl_lab.cli.reproduce_paper_configs",
        "evl_lab.cli.ExperimentConfig.from_dict",
        "evl_lab.cli.main",
    } <= set(WORKLOAD_NAMES)
    assert ("evl_lab.estimators.estimate_ei_bundle", "rts_measure") in WORKLOAD_KEYWORDS


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_workload_name_resolves(name):
    _resolve(name)


@pytest.mark.parametrize("name, keyword", WORKLOAD_KEYWORDS, ids=lambda v: v)
def test_workload_keyword_is_a_parameter(name, keyword):
    params = inspect.signature(_resolve(name)).parameters
    assert keyword in params or any(p.kind is p.VAR_KEYWORD for p in params.values()), (name, keyword)
