"""The library names the benchmark uses must stay there.

``bench/tracer.py`` replaces each name in ``LAYER_FUNCTIONS`` by a wrapper
at run time; a refactor that renames or removes one of them breaks every
traced run, and one that stops calling it blinds the metrics it feeds.
The module is loaded here without installing the tracer.  The workloads and
``bench/make_references.py`` call further names, some of which nothing in
the library calls, so every name the ``bench/*.py`` sources import or reach
through an imported ``dispersive_cqed`` module must resolve too.
"""

import ast
import dataclasses
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import dispersive_cqed.lightmatter as lightmatter
import dispersive_cqed.modes as modes
from dispersive_cqed.cli import RunConfig
from dispersive_cqed.impedance import aluminum
from dispersive_cqed.lightmatter import QubitParams, lamb_shift_report

from conftest import CALIBRATED_A, make_geometry

BENCH = Path(__file__).resolve().parents[1] / "bench"
_spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
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


def _library_names(path: Path) -> list[str]:
    """Dotted library names a bench source imports or reaches by attribute."""
    tree = ast.parse(path.read_text())
    names, bound = [], {}  # bound: local name -> the dispersive_cqed module it is
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "dispersive_cqed":
                    names.append(alias.name)
                    bound[alias.asname or "dispersive_cqed"] = (
                        alias.name if alias.asname else "dispersive_cqed")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("dispersive_cqed"):
            names.extend(f"{node.module}.{alias.name}" for alias in node.names)
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id in bound:
            names.append(".".join([bound[node.id], *reversed(chain)]))
    return sorted(set(names))


def _resolve(dotted: str):
    """The object a dotted name refers to: its longest importable prefix, then attributes.

    Every name starts with the importable ``dispersive_cqed``, so the loop returns.
    """
    parts = dotted.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ModuleNotFoundError:
            continue
        for part in parts[i:]:
            obj = getattr(obj, part)
        return obj


BENCH_NAMES = [(path.name, name) for path in sorted(BENCH.glob("*.py"))
               for name in _library_names(path)]


def test_bench_name_walk_finds_the_workload_calls():
    found = {name for _, name in BENCH_NAMES}
    assert {
        "dispersive_cqed.lightmatter.lamb_shift_term_branches",
        "dispersive_cqed.cc_comparator_term",
        "dispersive_cqed.secular_roots",
        "dispersive_cqed.calibrate_prefactor",
        "dispersive_cqed.cli.load_run_config",
        "dispersive_cqed.cli.bundled_geometry_configs",
        "dispersive_cqed.cli.main",
    } <= found


@pytest.mark.parametrize("source, name", BENCH_NAMES)
def test_bench_library_name_resolves(source, name):
    _resolve(name)


def test_run_config_has_the_fields_the_workloads_read():
    assert {"material", "geometry", "solver"} <= {f.name for f in dataclasses.fields(RunConfig)}


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
