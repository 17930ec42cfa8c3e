"""The layer functions the benchmark's traced runs wrap must stay callable.

``bench/tracer.py`` replaces each name in ``LAYER_FUNCTIONS`` by a wrapper
at run time; a refactor that renames or removes one of them breaks every
traced run, and one that stops calling it blinds the metrics it feeds.
The module is loaded here without installing the tracer.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import dispersive_cqed.lightmatter as lightmatter
import dispersive_cqed.modes as modes
from dispersive_cqed.impedance import aluminum
from dispersive_cqed.lightmatter import QubitParams, lamb_shift_report

from conftest import CALIBRATED_A, make_geometry

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


def test_reports_solve_through_the_wrapped_fixed_point_name(monkeypatch):
    # Traced runs count report solves (``modes.fixed_point_calls`` and the
    # other per-solve metrics) at this name: a cold N-mode report must make
    # N calls there and a memo hit none.  A refactor that solves around it
    # has to move the tracer's counter first.
    original, calls = modes.fixed_point_eigenfrequency, []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    # Installed under every binding, as ``Tracer.install`` does.
    for name, module in list(sys.modules.items()):
        if name.startswith("dispersive_cqed"):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    lightmatter._memoised_spectrum.cache_clear()
    geo, material, n_max = make_geometry(), aluminum(CALIBRATED_A), 12
    cold = lamb_shift_report(QubitParams(5.0, 0.0), material, geo, n_max)
    assert calls == [m.k_n for m in cold.modes]
    lamb_shift_report(QubitParams(4.2, 0.3 * geo.length), material, geo, n_max)
    assert len(calls) == n_max
