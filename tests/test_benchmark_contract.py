"""The benchmark's traced run wraps package functions by name; every
name it lists must still exist, or the traced run fails when it starts."""

import importlib.util
from pathlib import Path

import symdisc
from symdisc import cli, errors  # noqa: F401  (loads every layer module)

LAYERS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    layers = _load_layers()
    missing = [
        f"{layer}.{name}"
        for layer, names in layers.TRACED.items()
        for name in names
        if not callable(getattr(getattr(symdisc, layer, None), name, None))
    ]
    missing += [
        f"errors.{name}" for name in layers.SYMCORE_FAILURES if not hasattr(errors, name)
    ]
    assert not missing, f"benchmark names missing from symdisc: {missing}"
