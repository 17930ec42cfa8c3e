"""Shared fixtures and the finite-difference eigenfrequency oracle."""

import functools
import importlib.util
import math
import os
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from dispersive_cqed.impedance import Material, aluminum
from dispersive_cqed.lightmatter import QubitParams
from dispersive_cqed.modes import QubitLoad, ResonatorGeometry, derive_line_constants

# Prefactor that red-shifts the 6 GHz reference fundamental by 2% for the
# strongest-coupling bundled geometry (g_geom = 3e6 / m); all device-family
# tests share it so below/above-gap mode counts stay fixed.
CALIBRATED_A = 0.002291557365120274

SRC = Path(__file__).resolve().parents[1] / "src"


def child_env() -> dict:
    """This environment with the absolute ``src`` path prepended to PYTHONPATH.

    A child interpreter does not inherit pytest's ``pythonpath`` setting, so
    without it an uninstalled checkout cannot import the package.
    """
    inherited = os.environ.get("PYTHONPATH")
    path = os.pathsep.join([str(SRC), inherited]) if inherited else str(SRC)
    return {**os.environ, "PYTHONPATH": path}


@functools.cache
def golden_generator():
    """``tests/golden/make_golden.py`` loaded as a module, once per test run."""
    path = Path(__file__).resolve().parent / "golden" / "make_golden.py"
    spec = importlib.util.spec_from_file_location("make_golden", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def make_geometry(
    f0: float = 6.0,
    length: float = 0.01,
    g_geom: float = 3.0e6,
    c_series: float = 1.0e-14,
    x_q: float = 0.0,
) -> ResonatorGeometry:
    ell_m, c_per_len = derive_line_constants(f0, 50.0, length)
    return ResonatorGeometry(
        length=length,
        ell_m=ell_m,
        c_per_len=c_per_len,
        g_geom=g_geom,
        qubits=(QubitLoad(position=x_q, c_series=c_series),),
    )


@pytest.fixture
def geometry() -> ResonatorGeometry:
    return make_geometry()


@pytest.fixture
def al() -> Material:
    return aluminum(CALIBRATED_A)


@pytest.fixture
def qubit() -> QubitParams:
    return QubitParams(omega_q=5.0, x_q=0.0)


def fd_eigenfrequencies(
    geometry: ResonatorGeometry, n_points: int = 10_000, n_modes: int = 10
) -> np.ndarray:
    """Lossless eigenfrequencies (GHz) from a dense finite-difference solve.

    Discretizes flux'' = -lam * ell_m * c(x) * flux with Neumann ends on a
    uniform grid; qubit delta-capacitances add lumped weight at the nearest
    node.  Generalized symmetric problem reduced to tridiagonal standard form
    by the diagonal weight similarity.  The Neumann operator has an exact zero
    mode that roundoff can scatter anywhere below the first physical
    eigenvalue, so eigenvalues below a tenth of the unloaded fundamental are
    dropped rather than thresholded against zero.
    """
    L = geometry.length
    h = L / (n_points - 1)
    diag = np.full(n_points, 2.0 / h)
    diag[0] = diag[-1] = 1.0 / h
    off = np.full(n_points - 1, -1.0 / h)
    w = np.full(n_points, h)
    w[0] = w[-1] = h / 2.0
    b = geometry.ell_m * geometry.c_per_len * w
    for q in geometry.qubits:
        b[int(round(q.position / h))] += geometry.ell_m * q.c_series
    d = 1.0 / np.sqrt(b)
    lam = eigh_tridiagonal(
        diag * d * d, off * d[:-1] * d[1:], select="i", select_range=(0, n_modes)
    )[0]
    floor = 0.1 * (math.pi * geometry.bare_velocity / L) ** 2
    lam = lam[lam > floor][:n_modes]
    return np.sqrt(lam) / (2.0 * math.pi * 1e9)
