"""The package names the benchmark harness rebinds still exist.

``perfbench/spans.py`` replaces public functions of ``avgproc`` by name and
reads some of their arguments by name, so renaming one breaks only a traced
benchmark run. These tests load that file by path, without writing bytecode
next to it, and check each name against the package.
"""
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


spans = _load_spans()
NAMERS = spans._span_namers()


def _target(name: str):
    mod, fn = name.split(".")
    return getattr(importlib.import_module(f"avgproc.{mod}"), fn, None)


@pytest.mark.parametrize("name", sorted(set(NAMERS) | set(spans.CAPTURED)))
def test_rebound_names_exist(name):
    assert callable(_target(name)), f"avgproc.{name} is gone"


# argument names the span namers and observers read, by target
READ_ARGS = {
    **{name: ("kernel", "n_max", "mode")
       for name, namer in NAMERS.items() if namer is spans._orthant_span},
    "walks.heat_kernel": ("t", "tol"),
    "simulate.simulate": ("config",),
}


def test_orthant_passes_are_covered():
    assert {f"walks.{fn}" for fn in spans.ORTHANT_PASSES} <= set(READ_ARGS)


@pytest.mark.parametrize("name", sorted(READ_ARGS))
def test_read_arguments_exist(name):
    params = inspect.signature(_target(name)).parameters
    missing = [a for a in READ_ARGS[name] if a not in params]
    assert not missing, f"avgproc.{name} lost arguments {missing}"
