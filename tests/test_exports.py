import ast
import importlib
from pathlib import Path

import pytest

import disksurgery
from disksurgery import is_primitive, parse_word, primitivity, report, scenarios, surgery, words

MODULES = (words, primitivity, surgery, scenarios, report)
LAYERBENCH = Path(__file__).resolve().parent.parent / "layerbench"


def test_public_names_listed_once():
    assert len(disksurgery.__all__) == len(set(disksurgery.__all__))


def test_star_import_binds_every_name():
    namespace = {}
    exec("from disksurgery import *", namespace)
    assert set(disksurgery.__all__) <= set(namespace)


def test_each_name_comes_from_its_module():
    # A later star import would silently shadow an earlier module's name.
    for module in MODULES:
        for name in module.__all__:
            assert getattr(disksurgery, name) is getattr(module, name), (module.__name__, name)


def tracer_hooks():
    """``HOOKS`` of the benchmark's tracer, read without importing it."""
    path = LAYERBENCH / "tracer.py"
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "HOOKS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no HOOKS assignment in {path}")


@pytest.mark.parametrize("module,attr,layer", tracer_hooks())
def test_tracer_hook_exists(module, attr, layer):
    # The tracer replaces these names in the modules' namespaces; a rename
    # would otherwise only crash traced benchmark runs.
    assert callable(getattr(importlib.import_module(f"disksurgery.{module}"), attr))


def worker_step_fields():
    """The ``auto.<name>`` attributes that ``describe`` in the benchmark's
    worker reads from each certificate step, read without importing it."""
    path = LAYERBENCH / "worker.py"
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.FunctionDef) and node.name == "describe":
            param = node.args.args[0].arg
            fields = sorted({n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)
                             and isinstance(n.value, ast.Name) and n.value.id == param})
            if fields:
                return fields
    raise AssertionError(f"no describe function reading step fields in {path}")


@pytest.mark.parametrize("field", worker_step_fields())
def test_worker_reads_exist_on_certificate_steps(field):
    # The worker records these for every step of every descent certificate,
    # so a field dropped from WhiteheadAuto would only crash benchmark runs.
    certificate = is_primitive(parse_word("x3 x4^-1 x3 x1 x4 x2 x4", 4), 4).certificate
    assert certificate
    for auto in certificate:
        getattr(auto, field)
