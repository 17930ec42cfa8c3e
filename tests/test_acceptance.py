"""End-to-end acceptance gate.

Each test exercises one contracted behavior at its stated tolerance and
prints a single PASS/FAIL summary line (visible with ``pytest -v -s`` or in
the failure report).  Reference comparisons are tolerance bands, never bit
equality: quadrature, root finding and fixed-point iteration are all
tolerance-bounded, so exact bit reproduction across platforms is not a goal.
"""

import math
import time
import warnings

import numpy as np
import pytest

from dispersive_cqed.cli import bundled_geometry_configs, load_run_config
from dispersive_cqed.elliptic import ellip_incomplete_e, ellip_incomplete_f
from dispersive_cqed.impedance import aluminum, kk_residual, niobium
from dispersive_cqed.lightmatter import (
    QubitParams,
    cc_comparator_term,
    lamb_shift_report,
    lamb_shift_term_branches,
    normalized_convergence,
)
from dispersive_cqed.mattis_bardeen import ComplexFreq, sigma_oracle, sigma_real_axis, sigma_tilde
from dispersive_cqed.modes import (
    FixedPointOptions,
    ResonatorGeometry,
    completeness_residual,
    derive_line_constants,
    dispersive_modes,
    fixed_point_eigenfrequency,
    greens_identity_residual,
    mode_function,
    resonator_modes,
)

from conftest import CALIBRATED_A, fd_eigenfrequencies, make_geometry

from dataclasses import replace


def _report(num: int, label: str, ok: bool, detail: str) -> None:
    line = f"[ACCEPTANCE {num:02d}] {label}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def _admissible(z: complex, k: complex) -> bool:
    """Straight path 0 -> z clear of the +-1, +-1/k branch points."""
    pts = [1.0, -1.0]
    if k != 0:
        pts += [1.0 / k, -1.0 / k]
    for p in pts:
        d = z
        t = (p * d.conjugate()).real / abs(d) ** 2
        if 0.0 <= t <= 1.0 and abs(p - t * d) < 1e-3 * max(1.0, abs(z)):
            return False
    return True


def test_criterion_01_elliptic_fast_path_matches_quadrature():
    t0 = time.monotonic()
    rng = np.random.default_rng(20260825)
    worst = 0.0
    checked = 0
    while checked < 200:
        z = complex(*rng.uniform(-0.9, 0.9, 2))
        k = complex(*rng.uniform(-0.6, 0.6, 2))
        if abs(z) < 0.05 or not _admissible(z, k):
            continue
        for fn in (ellip_incomplete_f, ellip_incomplete_e):
            fast = fn(z, k)
            slow = fn(z, k, method="quadrature")
            worst = max(worst, abs(fast - slow) / max(1.0, abs(slow)))
        checked += 1
    elapsed = time.monotonic() - t0
    _report(
        1,
        "incomplete elliptic integrals: closed form vs defining quadrature",
        worst <= 1e-9 and elapsed <= 10.0,
        f"worst dev {worst:.3e} (tol 1e-9) on 200 admissible points in {elapsed:.1f} s (budget 10 s)",
    )


def test_criterion_02_conductivity_closed_form_matches_oracle():
    t0 = time.monotonic()
    worst = 0.0
    for nu in (2.1, 2.5, 3.0, 4.0, 6.0, 10.0, 20.0):
        for kap in (0.0, 0.05, 0.2, 0.5):
            freq = ComplexFreq(nu, kap)
            ref = sigma_oracle(freq)
            dev = abs(sigma_tilde(freq) - ref) / abs(ref)
            worst = max(worst, dev)
    elapsed = time.monotonic() - t0
    _report(
        2,
        "complex-frequency conductivity: closed form vs quadrature oracle",
        worst <= 1e-6 and elapsed <= 60.0,
        f"worst dev {worst:.3e} (tol 1e-6) on the 7x4 grid in {elapsed:.1f} s (budget 60 s)",
    )


def test_criterion_03_real_axis_limit():
    devs = {}
    for nu in (2.5, 4.0, 10.0):
        edge = sigma_real_axis(nu)
        devs[nu] = abs(sigma_tilde(ComplexFreq(nu, 1e-8)) - edge) / abs(edge)
    normal_state = abs(sigma_real_axis(100.0).real - 1.0)
    ok = all(d <= 1e-4 for d in devs.values()) and normal_state <= 0.02
    detail = (
        ", ".join(f"nu={nu}: {d:.3e}" for nu, d in devs.items())
        + f" (tol 1e-4); sigma1(100) off by {normal_state:.3e} (tol 2e-2)"
    )
    _report(3, "closed form approaches the real-axis conductivity", ok, detail)


def test_criterion_04_kramers_kronig_residuals():
    results = {}
    for name, material in (("aluminum", aluminum(1.0)), ("niobium", niobium(1.0))):
        base = kk_residual(material, 4.0)
        doubled = kk_residual(
            material, 4.0, f_max_ghz=100.0 * material.gap_frequency, n_grid=8001
        )
        results[name] = (base, doubled / base)
    ok = all(base <= 0.02 and ratio <= 0.5 for base, ratio in results.values())
    detail = "; ".join(
        f"{name}: residual {base:.3e} (tol 2e-2), doubling ratio {ratio:.2f} (tol 0.5)"
        for name, (base, ratio) in results.items()
    )
    _report(4, "surface-impedance causality residual and its grid scaling", ok, detail)


def test_criterion_05_secular_closed_forms():
    length = 0.01
    ell_m, c_len = derive_line_constants(6.0, 50.0, length)
    bare = ResonatorGeometry(
        length=length, ell_m=ell_m, c_per_len=c_len, g_geom=3.0e6, qubits=()
    )
    k_dev = max(
        abs(m.k_n - m.n * math.pi / length) for m in resonator_modes(bare, 40)
    ) / (math.pi / length)

    loaded = make_geometry()
    one_step_dev = 0.0
    one_step_kappa = 0.0
    for m in resonator_modes(loaded, 20):
        out = fixed_point_eigenfrequency(
            m.k_n, aluminum(0.0), loaded, FixedPointOptions(max_iter=1)
        )
        one_step_dev = max(one_step_dev, abs(out.nu - m.omega_n.nu) / m.omega_n.nu)
        one_step_kappa = max(one_step_kappa, abs(out.kappa))

    interlaced = all(
        (m.n - 1) * math.pi / length < m.k_n <= m.n * math.pi / length * (1.0 + 1e-12)
        for m in resonator_modes(loaded, 50)
    )
    ok = k_dev <= 1e-12 and one_step_dev <= 1e-12 and one_step_kappa == 0.0 and interlaced
    _report(
        5,
        "secular equation: unloaded roots, one-step lossless fixed point, interlacing",
        ok,
        f"unloaded k dev {k_dev:.1e}*pi/L (tol 1e-12); one-step dev {one_step_dev:.1e} "
        f"(tol 1e-12), kappa {one_step_kappa:.1e}; interlacing {interlaced} over 50 modes",
    )


def test_criterion_06_eigenfrequencies_vs_finite_differences():
    t0 = time.monotonic()
    geometry = make_geometry()
    fd = fd_eigenfrequencies(geometry, n_points=10_000, n_modes=10)
    exact = np.array([m.omega_n.nu for m in resonator_modes(geometry, 10)])
    worst = float(np.max(np.abs(fd - exact) / exact))
    elapsed = time.monotonic() - t0
    _report(
        6,
        "first ten eigenfrequencies vs 10^4-point finite-difference eigensolve",
        worst <= 1e-4 and elapsed <= 30.0,
        f"worst rel dev {worst:.3e} (tol 1e-4) in {elapsed:.1f} s (budget 30 s)",
    )


def test_criterion_07_complex_eigenfrequency_structure():
    geometry = make_geometry()
    material = aluminum(CALIBRATED_A)
    bare = resonator_modes(geometry, 20)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        shifted = dispersive_modes(geometry, material, 20)
    below_ratio = max(
        (m.omega_n.kappa / m.omega_n.nu for m in shifted if material.reduced(m.omega_n.nu) < 2.0),
        default=0.0,
    )
    above = [m for m in shifted if material.reduced(m.omega_n.nu) >= 2.0]
    lossy = bool(above) and all(m.omega_n.kappa > 0.0 for m in above)
    red = all(s.omega_n.nu < b.omega_n.nu for s, b in zip(shifted, bare))
    ok = below_ratio <= 1e-10 and lossy and red
    _report(
        7,
        "kinetic-inductance modes: lossless below gap, lossy above, red-shifted",
        ok,
        f"max below-gap kappa/nu {below_ratio:.1e} (tol 1e-10); {len(above)} above-gap "
        f"modes all lossy {lossy}; red shift on every mode {red}",
    )


def test_criterion_08_identity_and_completeness_convergence():
    geometry = make_geometry()
    material = aluminum(CALIBRATED_A)
    modes = resonator_modes(geometry, 500)
    gi = {
        n: greens_identity_residual(0.003, 0.007, 120.0, geometry, material, modes, n_max=n)
        for n in (125, 250, 500)
    }
    gi_ok = gi[500] <= 1e-2 and gi[125] > gi[250] > gi[500]

    def gaussian(x: float) -> float:
        return math.exp(-0.5 * ((x - 0.006) / 0.001) ** 2)

    comp = {
        n: completeness_residual(geometry, resonator_modes(geometry, n), gaussian)
        for n in (50, 100, 200, 400)
    }
    comp_vals = [comp[n] for n in (50, 100, 200, 400)]
    comp_ok = all(a > b for a, b in zip(comp_vals, comp_vals[1:]))
    _report(
        8,
        "lossy Green's identity and completeness converge in mode count",
        gi_ok and comp_ok,
        f"identity residuals {gi[125]:.1e} > {gi[250]:.1e} > {gi[500]:.1e} (last tol 1e-2): {gi_ok}; "
        f"Gaussian completeness {', '.join(f'{v:.1e}' for v in comp_vals)} decreasing: {comp_ok}",
    )


def _three_mode_matrix_shift(geometry, qubit) -> float:
    """Dense-diagonalization shift (GHz) of the three-mode Rabi model."""
    scale = math.sqrt(geometry.ell_m * geometry.c_per_len * geometry.length)
    modes3 = resonator_modes(geometry, 3)
    freqs = [m.omega_n.nu for m in modes3]
    gs = [
        qubit.dipole_prefactor
        * math.sqrt(f)
        * float(mode_function(m, geometry, qubit.x_q))
        * scale
        for f, m in zip(freqs, modes3)
    ]
    n_fock = 5
    a_op = np.diag(np.sqrt(np.arange(1, n_fock)), 1)
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    idents = [np.eye(2)] + [np.eye(n_fock)] * 3

    def embed(op, slot):
        out = op if slot == 0 else idents[0]
        for i in range(1, 4):
            out = np.kron(out, op if slot == i else idents[i])
        return out

    h = qubit.omega_q * embed(np.diag([1.0, 0.0]), 0)
    for i, (f, g) in enumerate(zip(freqs, gs), start=1):
        h += f * embed(a_op.T @ a_op, i)
        h += g * embed(sx, 0) @ (embed(a_op, i) + embed(a_op.T, i))
    evals, evecs = np.linalg.eigh(h)

    def dressed(qubit_state):
        vec = np.array([1.0, 0.0]) if qubit_state == "e" else np.array([0.0, 1.0])
        vac = np.zeros(n_fock)
        vac[0] = 1.0
        for _ in range(3):
            vec = np.kron(vec, vac)
        overlaps = np.abs(evecs.T @ vec)
        return evals[int(np.argmax(overlaps))]

    return (dressed("e") - qubit.omega_q) + dressed("g")


def test_criterion_09_dispersionless_limits_recover_comparator():
    geometry = make_geometry()
    qubit = QubitParams(5.0, 0.0)
    report = lamb_shift_report(qubit, aluminum(0.0), geometry, 30)
    eq_dev = abs(report.totals.dispersion - report.totals.no_dispersion) / abs(
        report.totals.no_dispersion
    )

    kappa_dev = 0.0
    for m in resonator_modes(geometry, 10):
        m_eps = replace(m, omega_n=ComplexFreq(m.omega_n.nu, 1e-8))
        plus, minus = lamb_shift_term_branches(m_eps, qubit, aluminum(0.0), geometry)
        pair = plus + minus
        cc = cc_comparator_term(m, qubit, geometry)
        kappa_dev = max(kappa_dev, abs(pair.real - cc) / abs(cc))

    qb_small = QubitParams(5.0, 0.0, dipole_prefactor=1e-2)
    oracle = _three_mode_matrix_shift(geometry, qb_small)
    predicted = sum(cc_comparator_term(m, qb_small, geometry) for m in resonator_modes(geometry, 3)) / 1e3
    matrix_dev = abs(oracle - predicted) / abs(predicted)

    ok = eq_dev <= 1e-9 and kappa_dev <= 1e-4 and matrix_dev <= 0.01
    _report(
        9,
        "zero-impedance and small-linewidth limits recover the two-level comparator",
        ok,
        f"Z_s=0 total dev {eq_dev:.1e} (tol 1e-9); kappa=1e-8 per-mode dev {kappa_dev:.1e} "
        f"(tol 1e-4); three-mode matrix oracle dev {matrix_dev:.1e} (tol 1e-2)",
    )


def test_criterion_10_device_family_sweep():
    t0 = time.monotonic()
    reports = []
    cc_curves = []
    for path in bundled_geometry_configs():  # sorted by increasing gap width s
        run = load_run_config(path)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            report = lamb_shift_report(run.qubit, run.material, run.geometry, 2500, run.solver)
        cc_terms = np.array(
            [cc_comparator_term(m, run.qubit, run.geometry) for m in resonator_modes(run.geometry, 2500)]
        )
        reports.append(report)
        cc_curves.append(normalized_convergence(cc_terms))
    elapsed = time.monotonic() - t0

    ordering_rows = [
        abs(r.totals.below_bandgap) <= abs(r.totals.dispersion) <= abs(r.totals.no_dispersion)
        for r in reports
    ]
    ordering_ok = all(ordering_rows)

    collapse = max(
        float(np.max(np.abs(a - b))) for a in cc_curves for b in cc_curves
    )
    collapse_ok = collapse <= 1e-3

    idx = [r.convergence_index_70pct for r in reports]
    idx_by_decreasing_s = idx[::-1]
    idx_ok = all(a >= b for a, b in zip(idx_by_decreasing_s, idx_by_decreasing_s[1:]))

    disp_mags = [abs(r.totals.dispersion) for r in reports]
    strict_ok = all(a > b for a, b in zip(disp_mags, disp_mags[1:]))

    time_ok = elapsed <= 600.0
    ok = ordering_ok and collapse_ok and idx_ok and strict_ok and time_ok
    _report(
        10,
        "bundled device family: shift orderings, curve collapse, convergence trends",
        ok,
        f"per-row |below|<=|disp|<=|no-disp| {ordering_rows} -> {ordering_ok}; "
        f"comparator-curve collapse {collapse:.1e} (tol 1e-3); 70% index {idx} "
        f"non-increasing as s shrinks {idx_ok}; |disp| strictly decreasing in s {strict_ok}; "
        f"{elapsed:.0f} s (budget 600 s)",
    )
