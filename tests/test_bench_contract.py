"""The layer functions the benchmark's traced runs wrap must stay callable.

``bench/tracer.py`` replaces each name in ``LAYER_FUNCTIONS`` by a wrapper
at run time; a refactor that renames or removes one of them breaks every
traced run.  The module is loaded here without installing the tracer.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_tracer", Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
)
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)

LAYER_NAMES = [
    (layer, name) for layer, names in tracer.LAYER_FUNCTIONS.items() for name in names
]


def test_layer_table_is_not_empty():
    assert LAYER_NAMES


@pytest.mark.parametrize("layer, name", LAYER_NAMES)
def test_layer_function_exists(layer, name):
    module = importlib.import_module(f"dispersive_cqed.{layer}")
    assert callable(getattr(module, name, None)), f"dispersive_cqed.{layer}.{name}"
