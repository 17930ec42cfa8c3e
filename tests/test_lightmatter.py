"""Couplings, spectral density, Lamb-shift terms, report assembly."""

import math
import os
import pickle
import subprocess
import sys
import threading
import warnings
from collections import OrderedDict
from dataclasses import asdict, astuple, fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import curve_fit

import dispersive_cqed.impedance as impedance_module
import dispersive_cqed.lightmatter as lightmatter
import dispersive_cqed.modes as modes_module
from dispersive_cqed.errors import (
    AboveGapMode,
    DispersiveCqedError,
    DomainError,
    GapStraddle,
    NoConvergence,
    PoleProximity,
    QubitOnResonance,
)
from dispersive_cqed.cli import bundled_geometry_configs, load_run_config
from dispersive_cqed.impedance import (
    aluminum,
    calibrate_prefactor,
    epsilon,
    niobium,
    surface_impedance,
)
from dispersive_cqed.lightmatter import (
    QubitParams,
    cc_comparator_term,
    coupling_strength,
    lamb_shift_report,
    lamb_shift_term_branches,
    naive_cutoff,
    normalized_convergence,
    rescaled,
    spectral_density,
)
from dispersive_cqed.mattis_bardeen import ComplexFreq
from dispersive_cqed.modes import (
    FixedPointOptions,
    QubitLoad,
    dispersive_modes,
    mode_function,
    resonator_modes,
    secular_roots,
)

from conftest import CALIBRATED_A, child_env, golden_generator, make_geometry


def _amp_scale(geometry):
    return math.sqrt(geometry.ell_m * geometry.c_per_len * geometry.length)


class TestQubitParams:
    def test_validation(self):
        with pytest.raises(DomainError):
            QubitParams(-5.0, 0.0)
        with pytest.raises(DomainError):
            QubitParams(5.0, -0.001)

    @pytest.mark.parametrize("field", ["omega_q", "x_q", "dipole_prefactor"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_nonfinite_rejected(self, field, value):
        with pytest.raises(DomainError):
            QubitParams(**{"omega_q": 5.0, "x_q": 0.0, field: value})

    def test_position_beyond_line(self):
        geo = make_geometry()
        qb = QubitParams(5.0, 2 * geo.length)
        with pytest.raises(DomainError):
            coupling_strength(resonator_modes(geo, 1)[0], qb, aluminum(0.0), geo)


class TestCouplingStrength:
    def test_cc_scaling_without_dispersion(self):
        # eps = 1: g_n is exactly d sqrt(nu_n) psi_n(x_q).
        geo = make_geometry()
        qb = QubitParams(5.0, 0.0)
        lossless = aluminum(0.0)
        for m in resonator_modes(geo, 6):
            psi = mode_function(m, geo, 0.0) * _amp_scale(geo)
            expect = math.sqrt(m.omega_n.nu) * psi
            assert coupling_strength(m, qb, lossless, geo) == pytest.approx(expect, rel=1e-12)

    def test_node_gives_zero(self):
        geo = make_geometry(c_series=1e-20)  # essentially unloaded
        modes = resonator_modes(geo, 2)
        node = geo.length / 4.0  # node of cos(2 pi x / L)
        qb = QubitParams(5.0, node)
        g = coupling_strength(modes[1], qb, aluminum(0.0), geo)
        assert abs(g) < 1e-6 * abs(coupling_strength(modes[0], qb, aluminum(0.0), geo))

    def test_above_gap_mode_rejected(self):
        geo = make_geometry()
        qb = QubitParams(5.0, 0.0)
        m15 = resonator_modes(geo, 15)[-1]  # bare ~89 GHz > 87 GHz gap
        with pytest.raises(AboveGapMode):
            coupling_strength(m15, qb, aluminum(CALIBRATED_A), geo)
        # The gap exactly at the mode (reduced 2): it counts as below, where
        # the impedance is lossless, so g_n is real.
        at_edge = aluminum(CALIBRATED_A, gap_frequency=m15.omega_n.nu)
        assert surface_impedance(at_edge, m15.omega_n.nu).real == 0.0
        assert isinstance(coupling_strength(m15, qb, at_edge, geo), float)

    def test_real_root_is_the_complex_root_to_the_bit(self):
        # Below the gap eps is exactly real and above 1, so sqrt(Re eps) is
        # the real part of its complex root.
        geo = make_geometry()
        qb = QubitParams(5.0, 0.0, dipole_prefactor=1.3)
        al = aluminum(CALIBRATED_A)
        for m in dispersive_modes(geo, al, 14):
            eps = epsilon(al, geo.g_geom, geo.ell_m, m.omega_n.nu)
            psi = mode_function(m, geo, 0.0) * _amp_scale(geo)
            root = 1.3 * math.sqrt(m.omega_n.nu) * np.sqrt(complex(eps)) * psi
            assert coupling_strength(m, qb, al, geo) == root.real

    def test_dispersive_support_red_shifted(self):
        # With the kinetic-inductance medium every below-gap mode sits at a
        # lower frequency than its eps = 1 counterpart while its coupling is
        # slow-light enhanced: the g(nu) support shifts to the red.
        geo = make_geometry()
        qb = QubitParams(5.0, 0.0)
        al = aluminum(CALIBRATED_A)
        bare = resonator_modes(geo, 8)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            shifted = dispersive_modes(geo, al, 8)
        for m_bare, m_disp in zip(bare, shifted):
            assert m_disp.omega_n.nu < m_bare.omega_n.nu
            g_disp = coupling_strength(m_disp, qb, al, geo)
            g_bare = coupling_strength(m_bare, qb, aluminum(0.0), geo)
            assert g_disp > g_bare > 0.0


class TestSpectralDensity:
    def test_zero_impedance_gives_zero(self):
        geo = make_geometry()
        qb = QubitParams(5.0, 0.0)
        modes = resonator_modes(geo, 40)
        assert spectral_density(100.0, qb, modes, aluminum(0.0), geo) == 0.0

    def test_rejects_below_gap(self):
        geo = make_geometry()
        qb = QubitParams(5.0, 0.0)
        modes = resonator_modes(geo, 40)
        with pytest.raises(DomainError):
            spectral_density(40.0, qb, modes, aluminum(CALIBRATED_A), geo)

    def test_pole_proximity_propagates(self):
        geo = make_geometry()
        qb = QubitParams(5.0, 0.0)
        modes = resonator_modes(geo, 40)
        on_pole = modes[14].omega_n.nu  # bare mode above the gap
        with pytest.raises(PoleProximity):
            spectral_density(on_pole, qb, modes, aluminum(0.0), geo)

    def test_positive_above_first_lossy_mode(self):
        geo = make_geometry()
        qb = QubitParams(5.0, 0.0)
        al = aluminum(CALIBRATED_A)
        modes = resonator_modes(geo, 60)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            m15 = dispersive_modes(geo, al, 15)[-1]
        window = np.linspace(
            m15.omega_n.nu + m15.omega_n.kappa, m15.omega_n.nu + 10 * m15.omega_n.kappa, 25
        )
        assert all(spectral_density(f, qb, modes, al, geo) > 0.0 for f in window)

    @staticmethod
    def _fitted_halfwidth_ratio(a_scale, n_mode, geo, qb):
        al = aluminum(a_scale * CALIBRATED_A)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            m = dispersive_modes(geo, al, n_mode)[-1]
        modes = resonator_modes(geo, 60)
        nu0, kap0 = m.omega_n.nu, m.omega_n.kappa
        scan = np.linspace(nu0 - 3 * kap0, nu0 + 3 * kap0, 401)
        j_vals = np.array([spectral_density(f, qb, modes, al, geo) for f in scan])

        def lorentz(f, base, height, f0, hw):
            return base + height * hw**2 / ((f - f0) ** 2 + hw**2)

        p0 = (j_vals.min(), j_vals.max() - j_vals.min(), scan[np.argmax(j_vals)], kap0)
        popt, _ = curve_fit(lorentz, scan, j_vals, p0=p0)
        return abs(popt[3]) / kap0

    def test_lorentzian_width_matches_pole_at_weak_impedance(self):
        # In the weak-impedance regime the self-energy is flat across the
        # line, so the real-axis resonance is a clean Lorentzian whose
        # half-width is the pole's kappa_n.
        geo = make_geometry()
        qb = QubitParams(5.0, 0.0)
        ratio = self._fitted_halfwidth_ratio(0.03, 20, geo, qb)
        assert ratio == pytest.approx(1.0, abs=0.1)

    def test_lorentzian_width_renormalized_at_calibrated_impedance(self):
        # At the calibrated prefactor the frequency dependence of Z_s across
        # the line narrows the apparent width below kappa_n (measured ~0.7-0.8);
        # the pole location, not the real-axis line shape, carries kappa_n.
        geo = make_geometry()
        qb = QubitParams(5.0, 0.0)
        ratio = self._fitted_halfwidth_ratio(1.0, 20, geo, qb)
        assert 0.5 < ratio < 0.95


def _branch_sums(modes, qubit, material, geometry) -> np.ndarray:
    """Per-mode shift terms (MHz) as the sums of their two mirror branches."""
    pairs = [lamb_shift_term_branches(m, qubit, material, geometry) for m in modes]
    return np.array([plus + minus for plus, minus in pairs])


class TestLambShiftTerms:
    def test_below_gap_pair_sum_exactly_real(self):
        geo = make_geometry()
        qb = QubitParams(5.0, 0.0)
        al = aluminum(CALIBRATED_A)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            modes = dispersive_modes(geo, al, 10)
        for m in modes:
            plus, minus = lamb_shift_term_branches(m, qb, al, geo)
            assert (plus + minus).imag == 0.0

    def test_above_gap_pair_sum_nearly_real(self):
        # Finite kappa_n leaves a genuinely nonzero imaginary residue on the
        # pair sum, of order kappa_n / nu_n; the physical shift is Re(term).
        geo = make_geometry()
        qb = QubitParams(5.0, 0.0)
        al = aluminum(CALIBRATED_A)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            modes = dispersive_modes(geo, al, 20)
        t = _branch_sums(modes, qb, al, geo)
        lossy = [i for i, m in enumerate(modes) if m.omega_n.kappa > 0]
        for i in lossy:
            rel_imag = abs(t[i].imag) / abs(t[i])
            assert rel_imag < 3.0 * modes[i].omega_n.kappa / modes[i].omega_n.nu
            assert rel_imag > 0.0

    def test_kappa_limit_reproduces_comparator(self):
        geo = make_geometry()
        qb = QubitParams(5.0, 0.0)
        lossless = aluminum(0.0)
        for m in resonator_modes(geo, 10):
            m_eps = replace(m, omega_n=ComplexFreq(m.omega_n.nu, 1e-8))
            pair = _branch_sums([m_eps], qb, lossless, geo)[0]
            cc = cc_comparator_term(m, qb, geo)
            assert abs(pair.real - cc) / abs(cc) <= 1e-4

    def test_node_mode_contributes_nothing(self):
        geo = make_geometry(c_series=1e-20)
        qb = QubitParams(5.0, geo.length / 4.0)  # node of mode 2
        modes = resonator_modes(geo, 3)
        t = _branch_sums(modes, qb, aluminum(0.0), geo)
        assert abs(t[1]) < 1e-9 * abs(t[0])

    def test_all_terms_negative_for_detuned_qubit(self):
        geo = make_geometry()
        qb = QubitParams(5.0, 0.0)
        al = aluminum(CALIBRATED_A)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            modes = dispersive_modes(geo, al, 30)
        t = _branch_sums(modes, qb, al, geo)
        assert (t.real < 0.0).all()

    def test_on_resonance_rejected(self):
        geo = make_geometry()
        modes = resonator_modes(geo, 2)
        qb = QubitParams(modes[0].omega_n.nu, 0.0)
        with pytest.raises(QubitOnResonance):
            _branch_sums(modes, qb, aluminum(0.0), geo)


class TestComparator:
    def test_high_mode_asymptote(self):
        # omega_n >> Omega_q: the bracket tends to -2/omega_n times omega_n,
        # so the term approaches the constant -2 d^2 psi^2 (in kHz here).
        geo = make_geometry()
        qb = QubitParams(5.0, 0.0)
        m = resonator_modes(geo, 40)[-1]  # ~238 GHz
        psi_sq = (mode_function(m, geo, 0.0) * _amp_scale(geo)) ** 2
        expect = -2.0 * psi_sq * 1e3
        got = cc_comparator_term(m, qb, geo)
        assert got == pytest.approx(expect, rel=2.0 * (5.0 / m.omega_n.nu) ** 2)

    def test_symmetric_detuning_cancels(self):
        geo = make_geometry()
        qb = QubitParams(5.0, 0.0)
        m = resonator_modes(geo, 1)[0]
        eps_det = 0.01
        up = replace(m, omega_n=ComplexFreq(5.0 + eps_det, 0.0))
        dn = replace(m, omega_n=ComplexFreq(5.0 - eps_det, 0.0))
        tot = cc_comparator_term(up, qb, geo) + cc_comparator_term(dn, qb, geo)
        single = abs(cc_comparator_term(up, qb, geo))
        assert abs(tot) / single < 3.0 * eps_det

    def test_three_mode_matrix_oracle(self):
        # Dense diagonalization of the three-mode Rabi Hamiltonian (rotating
        # plus counter-rotating couplings, Fock cutoff 4).  The comparator's
        # bracket omega (1/(W-w) - 1/(W+w)) is, at second order, the shift of
        # the dressed excited state plus the counter-rotating shift of the
        # dressed ground state: compare against (E_e - Omega) + E_g.
        geo = make_geometry()
        d = 1e-2
        omega_q = 5.0
        qb = QubitParams(omega_q, 0.0, dipole_prefactor=d)
        modes3 = resonator_modes(geo, 3)
        pred_ghz = sum(cc_comparator_term(m, qb, geo) for m in modes3) / 1e3

        n_fock = 5
        freqs = [m.omega_n.nu for m in modes3]
        psis = [float(mode_function(m, geo, 0.0)) * _amp_scale(geo) for m in modes3]
        gs = [d * math.sqrt(f) * p for f, p in zip(freqs, psis)]
        a_op = np.diag(np.sqrt(np.arange(1, n_fock)), 1)
        sp = np.array([[0.0, 0.0], [1.0, 0.0]])  # |e><g| in basis (e, g)
        idents = [np.eye(2)] + [np.eye(n_fock)] * 3

        def embed(op, slot):
            out = op if slot == 0 else idents[0]
            for i in range(1, 4):
                out = np.kron(out, op if slot == i else idents[i])
            return out

        h = omega_q * embed(np.diag([1.0, 0.0]), 0)
        for i, (f, g) in enumerate(zip(freqs, gs), start=1):
            h += f * embed(a_op.T @ a_op, i)
            h += g * (embed(sp, 0) + embed(sp.T, 0)) @ (embed(a_op, i) + embed(a_op.T, i))
        evals, evecs = np.linalg.eigh(h)

        def dressed_energy(qubit_state):
            vec = np.array([1.0, 0.0]) if qubit_state == "e" else np.array([0.0, 1.0])
            for _ in range(3):
                vac = np.zeros(n_fock)
                vac[0] = 1.0
                vec = np.kron(vec, vac)
            overlaps = np.abs(evecs.T @ vec)
            assert overlaps.max() > 0.99  # adiabatic identification is unambiguous
            return evals[int(np.argmax(overlaps))]

        oracle = (dressed_energy("e") - omega_q) + dressed_energy("g")
        assert abs(oracle - pred_ghz) / abs(pred_ghz) <= 0.01


class TestReport:
    def test_zero_impedance_matches_comparator_exactly(self):
        geo = make_geometry()
        qb = QubitParams(5.0, 0.0)
        rep = lamb_shift_report(qb, aluminum(0.0), geo, 30)
        assert rep.totals.dispersion == pytest.approx(rep.totals.no_dispersion, rel=1e-9)

    def test_structure_invariants(self):
        geo = make_geometry()
        qb = QubitParams(5.0, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rep = lamb_shift_report(qb, aluminum(CALIBRATED_A), geo, 30)
        assert rep.partial_sums[-1] == pytest.approx(rep.per_mode_terms.sum(), rel=1e-12)
        assert rep.normalized_curve[-1] == pytest.approx(1.0, abs=1e-14)
        assert 1 <= rep.convergence_index_70pct <= 30
        assert rep.normalized_curve[rep.convergence_index_70pct - 1] >= 0.70

    def test_below_bandgap_is_truncated_comparator(self):
        geo = make_geometry()
        qb = QubitParams(5.0, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rep = lamb_shift_report(qb, aluminum(CALIBRATED_A), geo, 30)
        manual = sum(cc_comparator_term(m, qb, geo) for m in resonator_modes(geo, 14))
        assert rep.totals.below_bandgap == pytest.approx(manual, rel=1e-12)
        assert abs(rep.totals.below_bandgap) <= abs(rep.totals.no_dispersion)
        assert abs(rep.totals.below_bandgap) <= abs(rep.totals.dispersion)

    @settings(max_examples=8, deadline=None)
    @given(st.floats(min_value=0.5, max_value=3.0))
    def test_prefactor_invariance(self, lam):
        geo = make_geometry()
        base = lamb_shift_report(QubitParams(5.0, 0.0), aluminum(0.0), geo, 12)
        scaled = lamb_shift_report(
            QubitParams(5.0, 0.0, dipole_prefactor=lam), aluminum(0.0), geo, 12
        )
        assert scaled.totals.dispersion == pytest.approx(
            lam**2 * base.totals.dispersion, rel=1e-12
        )
        assert scaled.totals.no_dispersion == pytest.approx(
            lam**2 * base.totals.no_dispersion, rel=1e-12
        )
        np.testing.assert_allclose(
            scaled.normalized_curve, base.normalized_curve, rtol=1e-12
        )

    def test_rescaled_pins_target_and_keeps_shape(self):
        geo = make_geometry()
        qb = QubitParams(5.0, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rep = lamb_shift_report(qb, aluminum(CALIBRATED_A), geo, 20)
        out = rescaled(rep, -272.6)
        assert out.totals.no_dispersion == pytest.approx(-272.6, rel=1e-14)
        assert out.totals.dispersion / out.totals.no_dispersion == pytest.approx(
            rep.totals.dispersion / rep.totals.no_dispersion, rel=1e-13
        )
        np.testing.assert_array_equal(out.normalized_curve, rep.normalized_curve)
        assert out.convergence_index_70pct == rep.convergence_index_70pct

    def test_rescaled_refuses_a_zero_total(self):
        rep = lamb_shift_report(QubitParams(5.0, 0.0), aluminum(0.0), make_geometry(), 4)
        zero = replace(rep, totals=replace(rep.totals, no_dispersion=0.0))
        with pytest.raises(DomainError, match="no-dispersion total is zero"):
            rescaled(zero, -272.6)

    def test_domain(self):
        geo = make_geometry()
        with pytest.raises(DomainError):
            lamb_shift_report(QubitParams(5.0, 0.0), aluminum(0.0), geo, 0)

    def test_normalized_convergence_helper(self):
        curve = normalized_convergence(np.array([1.0, 2.0, 1.0]))
        np.testing.assert_allclose(curve, [0.25, 0.75, 1.0])
        with pytest.raises(DomainError):
            normalized_convergence(np.array([1.0, -1.0]))


class TestReportContents:
    """The report carries the modes, comparator and mask its callers read."""

    N = 20

    @pytest.fixture(scope="class")
    def setup(self):
        geo = make_geometry()
        qb = QubitParams(5.0, 0.0)
        al = aluminum(CALIBRATED_A)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rep = lamb_shift_report(qb, al, geo, self.N)
            shifted = dispersive_modes(geo, al, self.N)
        return geo, qb, al, rep, shifted

    def test_modes_equal_dispersive_modes(self, setup):
        _, _, _, rep, shifted = setup
        assert rep.modes == shifted

    def test_comparator_terms_and_mask_over_bare_modes(self, setup):
        geo, qb, al, rep, _ = setup
        bare = resonator_modes(geo, self.N)
        np.testing.assert_array_equal(
            rep.comparator_terms, [cc_comparator_term(m, qb, geo) for m in bare]
        )
        np.testing.assert_array_equal(
            rep.below_gap, [al.reduced(m.omega_n.nu) < 2.0 for m in bare]
        )
        assert rep.totals.no_dispersion == float(rep.comparator_terms.sum())

    def test_convergence_curves_match_the_manual_construction(self, setup):
        geo, qb, al, rep, _ = setup
        bare = resonator_modes(geo, self.N)
        cc_terms = np.array([cc_comparator_term(m, qb, geo) for m in bare])
        below = np.array([al.reduced(m.omega_n.nu) < 2.0 for m in bare])
        np.testing.assert_array_equal(rep.convergence_curve("dispersion"), rep.normalized_curve)
        np.testing.assert_array_equal(
            rep.convergence_curve("below_bandgap"),
            normalized_convergence(np.where(below, cc_terms, 0.0)),
        )
        np.testing.assert_array_equal(
            rep.convergence_curve("no_dispersion"), normalized_convergence(cc_terms)
        )

    def test_rescaled_scales_the_comparator_with_its_total(self, setup):
        _, _, _, rep, _ = setup
        out = rescaled(rep, -272.6)
        factor = -272.6 / rep.totals.no_dispersion
        assert abs(out.comparator_terms.sum() - out.totals.no_dispersion) <= 1e-12 * 272.6
        np.testing.assert_array_equal(out.comparator_terms, rep.comparator_terms * factor)
        np.testing.assert_array_equal(out.per_mode_terms, rep.per_mode_terms * factor)
        np.testing.assert_array_equal(out.partial_sums, rep.partial_sums * factor)
        assert out.modes == rep.modes
        np.testing.assert_array_equal(out.below_gap, rep.below_gap)

    def test_all_modes_above_gap(self):
        geo = make_geometry()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rep = lamb_shift_report(
                QubitParams(5.5, 0.0), aluminum(CALIBRATED_A, gap_frequency=4.0), geo, 10
            )
        assert not rep.below_gap.any()
        assert rep.totals.below_bandgap == 0.0
        with pytest.raises(DomainError):
            rep.convergence_curve("below_bandgap")
        assert np.isfinite(rep.convergence_curve("no_dispersion")).all()


def _assembly_devices():
    """Device id -> (material, geometry, n_max): the six bundled configs,
    a niobium line with every mode below the gap and a three-load line."""
    devices = {}
    for path in bundled_geometry_configs():
        run = load_run_config(path)
        devices[path.stem] = (run.material, run.geometry, 30)
    geo = make_geometry()
    f_bare = geo.bare_frequency_ghz(secular_roots(geo, 1)[0])
    devices["niobium"] = (calibrate_prefactor(niobium(), geo.g_geom, geo.ell_m, f_bare), geo, 40)
    length = geo.length
    loads = (QubitLoad(0.0, 1.0e-14), QubitLoad(0.37 * length, 2.0e-14),
             QubitLoad(0.81 * length, 5.0e-15))
    devices["three_load"] = (aluminum(CALIBRATED_A), replace(geo, qubits=loads), 30)
    return devices


class TestReportAssembly:
    """The report's terms are the public per-mode functions, to the bit."""

    DEVICES = _assembly_devices()

    @pytest.mark.parametrize("fraction", [0.0, 0.43, 1.0])
    @pytest.mark.parametrize("device", sorted(DEVICES))
    def test_terms_equal_the_public_functions(self, device, fraction):
        material, geometry, n_max = self.DEVICES[device]
        qubit = QubitParams(4.6, fraction * geometry.length, dipole_prefactor=1.7)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            report = lamb_shift_report(qubit, material, geometry, n_max)
        pairs = [lamb_shift_term_branches(m, qubit, material, geometry) for m in report.modes]
        assert list(report.per_mode_terms) == [plus + minus for plus, minus in pairs]
        bare = resonator_modes(geometry, n_max)
        assert list(report.comparator_terms) == [cc_comparator_term(m, qubit, geometry)
                                                 for m in bare]


class TestResonanceMessage:
    """A qubit on a mode raises QubitOnResonance naming the first such mode,
    dispersive modes before bare ones."""

    N = 20

    @pytest.fixture(scope="class")
    def device(self):
        geo, al = make_geometry(), aluminum(CALIBRATED_A)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            report = lamb_shift_report(QubitParams(5.0, 0.0), al, geo, self.N)
        return geo, al, report.modes, resonator_modes(geo, self.N)

    def _message(self, device, omega_q):
        geo, al, _, _ = device
        with pytest.raises(QubitOnResonance) as info:
            lamb_shift_report(QubitParams(omega_q, 0.0), al, geo, self.N)
        return str(info.value)

    @pytest.mark.parametrize("index", [0, 17])  # below and above the gap
    def test_qubit_on_a_dispersive_pole(self, device, index):
        nu = device[2][index].omega_n.nu
        omega_q = nu * (1.0 + 3e-7)
        assert self._message(device, omega_q) == (
            f"qubit at {omega_q} GHz is degenerate with a mode at {nu} GHz"
        )

    @pytest.mark.parametrize("index", [0, 17])
    def test_qubit_on_a_bare_mode_only(self, device, index):
        nu = device[3][index].omega_n.nu
        omega_q = nu * (1.0 - 3e-7)
        assert all(abs(omega_q - m.omega_n.nu) > 1e-3 for m in device[2])
        assert self._message(device, omega_q) == (
            f"qubit at {omega_q} GHz is degenerate with a mode at {nu} GHz"
        )


class TestNaiveCutoff:
    def test_reference_value(self):
        assert naive_cutoff(1e-14, 50.0) == pytest.approx(2e12, rel=1e-12)

    def test_scalings(self):
        assert naive_cutoff(2e-14, 50.0) == pytest.approx(1e12, rel=1e-12)
        assert naive_cutoff(1e-14, 100.0) == pytest.approx(1e12, rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            naive_cutoff(0.0, 50.0)
        with pytest.raises(DomainError):
            naive_cutoff(1e-14, -50.0)


def _assert_identical_reports(a, b):
    for name in ("per_mode_terms", "partial_sums", "normalized_curve", "comparator_terms",
                 "below_gap"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert a.totals == b.totals
    assert a.convergence_index_70pct == b.convergence_index_70pct
    assert a.modes == b.modes


class _Memo:
    """The spectrum memo as a container: its size, clear() and a stored spectrum."""

    def __len__(self):
        return lightmatter._memoised_spectrum.cache_info().currsize

    @staticmethod
    def clear():
        lightmatter._memoised_spectrum.cache_clear()

    @staticmethod
    def spectrum(material, geometry, n_max):
        """The stored spectrum of a device; fails if it was not stored."""
        misses = lightmatter._memoised_spectrum.cache_info().misses
        spectrum = lightmatter._modal_spectrum(material, geometry, n_max, FixedPointOptions())
        assert lightmatter._memoised_spectrum.cache_info().misses == misses
        return spectrum


class TestSpectrumMemo:
    """Reports on one device share its qubit-independent modal spectrum."""

    N = 20

    @pytest.fixture
    def memo(self):
        memo = _Memo()
        memo.clear()
        yield memo
        memo.clear()

    @pytest.fixture
    def impedance_calls(self, monkeypatch):
        calls = []
        original = impedance_module.surface_impedance

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for module in (impedance_module, modes_module):
            monkeypatch.setattr(module, "surface_impedance", counted)
        return calls

    def test_second_report_solves_nothing_and_equals_a_cold_one(self, memo, impedance_calls):
        geo, al = make_geometry(), aluminum(CALIBRATED_A)
        lamb_shift_report(QubitParams(5.0, 0.0), al, geo, self.N)
        assert len(impedance_calls) > 0
        impedance_calls.clear()
        qubit = QubitParams(4.2, 0.3 * geo.length, dipole_prefactor=1.7)
        warm = lamb_shift_report(qubit, al, geo, self.N)
        assert impedance_calls == []
        memo.clear()
        cold = lamb_shift_report(qubit, al, geo, self.N)
        assert len(impedance_calls) > 0
        _assert_identical_reports(warm, cold)

    def test_geometries_differing_only_in_g_geom_do_not_share(self, memo, impedance_calls):
        al, qubit = aluminum(CALIBRATED_A), QubitParams(5.0, 0.0)
        strong, weak = make_geometry(g_geom=3.0e6), make_geometry(g_geom=1.5e6)
        a = lamb_shift_report(qubit, al, strong, self.N)
        solved = len(impedance_calls)
        b = lamb_shift_report(qubit, al, weak, self.N)
        assert len(impedance_calls) > solved
        assert len(memo) == 2
        assert a.modes != b.modes
        memo.clear()
        _assert_identical_reports(b, lamb_shift_report(qubit, al, weak, self.N))

    def test_a_failed_solve_is_not_memoised(self, memo, impedance_calls):
        geo, al = make_geometry(), aluminum(CALIBRATED_A)
        for _ in range(2):  # the second report solves again, and fails again
            impedance_calls.clear()
            with pytest.raises(NoConvergence):
                lamb_shift_report(QubitParams(5.0, 0.0), al, geo, self.N,
                                  FixedPointOptions(max_iter=1))
            assert len(impedance_calls) > 0
            assert len(memo) == 0

    def test_mutating_a_report_leaves_the_next_one_unchanged(self, memo):
        geo, al, qubit = make_geometry(), aluminum(CALIBRATED_A), QubitParams(5.0, 0.0)
        first = lamb_shift_report(qubit, al, geo, self.N)
        modes, mask = list(first.modes), first.below_gap.copy()
        first.modes.reverse()
        first.modes.append(None)
        first.below_gap[:] = ~first.below_gap
        second = lamb_shift_report(qubit, al, geo, self.N)
        assert second.modes == modes
        np.testing.assert_array_equal(second.below_gap, mask)

    @staticmethod
    def _restarting_device():
        """The gap sits just under mode 1's bare frequency, and the red shift
        pulls the mode across it: one GapStraddle restart per solve."""
        geo = make_geometry()
        f1 = resonator_modes(geo, 1)[0].omega_n.nu
        return aluminum(CALIBRATED_A, gap_frequency=0.999 * f1), geo

    def test_restarting_solve_warns_on_every_call(self, memo, impedance_calls):
        material, geo = self._restarting_device()
        seen = []
        for omega_q in (3.0, 3.5, 3.7):
            impedance_calls.clear()
            with pytest.warns(GapStraddle) as record:
                report = lamb_shift_report(QubitParams(omega_q, 0.0), material, geo, 3)
            seen.append(([(w.category, str(w.message)) for w in record
                          if issubclass(w.category, GapStraddle)], len(impedance_calls)))
            assert len(report.restarted) == len(seen[0][0])  # the miss's warnings, as data
        assert len(memo) == 1
        # Solved once; each hit warns as the solve did, with no impedance call.
        (warned, solved), *hits = seen
        assert solved > 0 and len(warned) == 1
        assert hits == [(warned, 0)] * 2
        # Issued from the solver's module, so a filter naming it still applies,
        # on a hit and on a miss.
        for hit in (True, False):
            if not hit:
                memo.clear()
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                warnings.filterwarnings("ignore", category=GapStraddle, module="dispersive_cqed")
                lamb_shift_report(QubitParams(4.0, 0.0), material, geo, 3)
            assert caught == []
        assert len(memo) == 1

    def test_default_filters_print_a_restart_once_on_hits_as_on_solves(self, memo):
        # Under the default action a warning prints once per registry entry.
        # Four reports that each solve print the restart once, and so do one
        # solve and three hits: every restart warning comes from one line of
        # modes and is kept in that module's registry.
        material, geo = self._restarting_device()
        printed, sources = [], set()
        for solve_each in (True, False):
            memo.clear()
            modes_module.__dict__.get("__warningregistry__", {}).clear()
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("default")
                for omega_q in (3.0, 3.5, 3.7, 4.0):
                    if solve_each:
                        memo.clear()
                    lamb_shift_report(QubitParams(omega_q, 0.0), material, geo, 3)
            straddles = [w for w in caught if issubclass(w.category, GapStraddle)]
            printed.append(len(straddles))
            sources.update((w.filename, w.lineno) for w in straddles)
        assert printed == [1, 1]
        assert len(sources) == 1 and sources.pop()[0] == modes_module.__file__

    @pytest.mark.parametrize("n", [12, 13])
    def test_gap_at_a_bare_frequency_warns_alike_on_miss_and_hit(self, memo, n):
        # The gap exactly at mode n's bare frequency on gap_00p6um: the solver,
        # the impedance and the spectrum apply one rule, under which the edge
        # counts as below the gap, so the red-shifted mode never restarts.
        run = load_run_config(bundled_geometry_configs()[0])
        bare = resonator_modes(run.geometry, n)[n - 1].omega_n.nu
        material = replace(run.material, gap_frequency=bare)
        counts = []
        for _ in range(2):  # a miss, then a hit
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                report = lamb_shift_report(QubitParams(4.5, run.qubit.x_q), material,
                                           run.geometry, 13, run.solver)
            counts.append(sum(issubclass(w.category, GapStraddle) for w in caught))
        assert counts[0] == counts[1]
        assert counts[0] == len(report.restarted)
        assert report.below_gap.sum() == n  # the mode at the edge counts as below

    def test_memo_never_grows_past_its_bound(self, memo, monkeypatch):
        solved, solve = [], lightmatter._solve_spectrum

        def counted(material, geometry, n_max, options):
            solved.append(n_max)
            return solve(material, geometry, n_max, options)

        monkeypatch.setattr(lightmatter, "_solve_spectrum", counted)
        geo, qubit = make_geometry(), QubitParams(5.0, 0.0)
        bound = lightmatter._SPECTRUM_MEMO_SIZE
        # Filling past the bound (the oldest go first), then hits of the newest
        # entry, of older ones and misses interleaved: each report solves
        # exactly when an LRU that reorders on every hit lacks its device.
        model = OrderedDict()
        rng = np.random.default_rng(13)
        for n_max in list(range(1, bound + 5)) + [bound + 4, bound + 4, 5, 5, 1, 6, 5] + (
                rng.integers(1, bound + 12, 120).tolist()):
            solved.clear()
            lamb_shift_report(qubit, aluminum(0.0), geo, n_max)
            assert solved == ([] if n_max in model else [n_max])
            model[n_max] = None
            model.move_to_end(n_max)
            if len(model) > bound:
                model.popitem(last=False)
            assert len(memo) == len(model) <= bound

    @pytest.mark.filterwarnings("ignore::dispersive_cqed.errors.GapStraddle")
    def test_concurrent_reports_past_the_bound(self, memo):
        # Four threads cycle through more devices than the memo holds, so
        # hits, stores, evictions, concurrent solves and the warnings
        # of a restarting device (solved or re-issued on a hit) interleave;
        # the process's warning state must come out unaltered.  Each thread
        # puts its qubit elsewhere, so the position slots of the shared
        # spectra are replaced and read from all four.
        geo, lossless = make_geometry(), aluminum(0.0)
        restarting, _ = self._restarting_device()
        devices = [(lossless, n) for n in range(1, lightmatter._SPECTRUM_MEMO_SIZE + 9)]
        devices[3::8] = [(restarting, 3)] * 3  # every eighth device restarts
        positions = [k * geo.length / 3 for k in range(4)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", GapStraddle)
            expected = {((m, n), x): lamb_shift_report(QubitParams(5.0, x), m, geo, n).totals
                        for m, n in devices for x in positions}
        memo.clear()
        failures = []
        filters, showwarning = list(warnings.filters), warnings.showwarning

        def worker(offset):
            x_q = positions[offset]
            try:
                for i in range(60):
                    material, n = devices[(7 * i + offset) % len(devices)]
                    got = lamb_shift_report(QubitParams(5.0, x_q), material, geo, n).totals
                    if got != expected[(material, n), x_q]:
                        failures.append((n, x_q, got))
            except Exception as exc:  # reported below, in the test thread
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert failures == []
        assert len(memo) <= lightmatter._SPECTRUM_MEMO_SIZE
        assert warnings.filters == filters and warnings.showwarning is showwarning

    @staticmethod
    def _cold_reports(memo, qubits, material, geometry, n_max):
        """Each qubit's report from an empty memo."""
        cold = {}
        for qubit in qubits:
            memo.clear()
            cold[qubit] = lamb_shift_report(qubit, material, geometry, n_max)
        memo.clear()
        return cold

    @pytest.mark.parametrize("device", ["one_load", "three_load"])
    def test_scans_at_known_positions_equal_cold_reports(self, memo, device):
        # x_q at the line's start, inside a segment, exactly on a load and at
        # its end, each at two dipole scales, each scanned in omega_q.
        if device == "one_load":
            material, geo = aluminum(CALIBRATED_A), make_geometry(x_q=0.0045)
        else:
            material, geo, _ = TestReportAssembly.DEVICES["three_load"]
        load = geo.qubits[-1].position
        segment_start = geo.qubits[-2].position if len(geo.qubits) > 1 else 0.0
        positions = (0.0, 0.5 * (segment_start + load), load, geo.length)
        qubits = [QubitParams(omega_q, x_q, dipole_prefactor=d)
                  for x_q in positions for d in (1.0, 1.7) for omega_q in (4.1, 4.65, 5.3)]
        cold = self._cold_reports(memo, qubits, material, geo, self.N)
        slots = []
        for qubit in qubits:
            _assert_identical_reports(lamb_shift_report(qubit, material, geo, self.N),
                                      cold[qubit])
            assert len(memo) == 1
            spectrum = memo.spectrum(material, geo, self.N)
            slots.append(spectrum.position[0])
        # Within a scan the slot's constants are reused, not rebuilt.
        for previous, slot, qubit in zip(slots, slots[1:], qubits[1:]):
            assert slot[0] == (qubit.x_q, qubit.dipole_prefactor)
            assert (slot is previous) == (slot[0] == previous[0])

    def test_interleaved_positions_replace_the_slot_and_equal_cold_reports(self, memo):
        geo, al = make_geometry(), aluminum(CALIBRATED_A)
        xs = np.linspace(0.0, geo.length, 5).tolist()
        # Two passes over the positions: every report replaces the slot, and
        # each position comes back after others have taken it.
        qubits = [QubitParams(omega_q, x_q) for omega_q in (4.3, 5.1) for x_q in xs]
        cold = self._cold_reports(memo, qubits, al, geo, self.N)
        for qubit in qubits:
            _assert_identical_reports(lamb_shift_report(qubit, al, geo, self.N), cold[qubit])
            assert len(memo) == 1
            spectrum = memo.spectrum(al, geo, self.N)
            assert spectrum.position[0][0] == (qubit.x_q, 1.0)

    def test_terms_of_a_hit_equal_the_branch_sums(self, memo):
        geo, al = make_geometry(), aluminum(CALIBRATED_A)
        lamb_shift_report(QubitParams(5.0, 0.3 * geo.length, 1.7), al, geo, self.N)
        qubit = QubitParams(4.4, 0.3 * geo.length, 1.7)  # a hit at a known position
        report = lamb_shift_report(qubit, al, geo, self.N)
        pairs = [lamb_shift_term_branches(m, qubit, al, geo) for m in report.modes]
        assert [plus + minus for plus, minus in pairs] == list(report.per_mode_terms)


class TestMirrorSymmetry:
    """Reflecting the line (x -> L - x for the loads and the qubit) keeps the report."""

    N = 20

    @staticmethod
    def _reports(loads, x_q, n_max):
        geometry = replace(make_geometry(), qubits=tuple(loads))
        length = geometry.length
        mirrored = replace(geometry, qubits=tuple(
            QubitLoad(length - q.position, q.c_series) for q in reversed(loads)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return [lamb_shift_report(QubitParams(5.0, x), aluminum(CALIBRATED_A), line, n_max)
                    for line, x in ((geometry, x_q), (mirrored, length - x_q))]

    def _assert_mirror_invariant(self, loads, x_q):
        direct, reflected = self._reports(loads, x_q, self.N)
        for a, b in zip(astuple(direct.totals), astuple(reflected.totals)):
            assert abs(a - b) <= 1e-10 * abs(a)

    @settings(max_examples=8, deadline=None)
    @given(st.floats(min_value=0.0, max_value=1.0))
    @example(0.0)
    @example(1.0)
    def test_load_and_qubit_together(self, fraction):
        x = fraction * make_geometry().length
        self._assert_mirror_invariant([QubitLoad(x, 1.0e-14)], x)

    def test_three_load_line(self):
        length = make_geometry().length
        loads = [QubitLoad(0.0, 1.0e-14), QubitLoad(0.37 * length, 2.0e-14),
                 QubitLoad(0.81 * length, 5.0e-15)]
        self._assert_mirror_invariant(loads, loads[1].position)

    @pytest.mark.parametrize("fraction", [0.0, 0.3, 0.5])
    def test_end_load_with_the_qubit_elsewhere(self, fraction):
        # make_geometry() and the material are the gap_00p6um line, at its N_max
        x_q = fraction * make_geometry().length
        direct, reflected = self._reports([QubitLoad(0.0, 1.0e-14)], x_q, 30)
        assert [m.k_n for m in reflected.modes] == [m.k_n for m in direct.modes]
        for a, b in zip(astuple(direct.totals), astuple(reflected.totals)):
            assert abs(a - b) <= 1e-12 * abs(a)
        for name in ("per_mode_terms", "comparator_terms"):
            a, b = getattr(direct, name), getattr(reflected, name)
            assert np.max(np.abs(a - b)) <= 1e-9 * np.max(np.abs(a))


@pytest.mark.parametrize("n_max", [30, 600, 2500])
def test_loads_at_both_ends_give_finite_totals_or_a_typed_error(n_max):
    # The qubit at the first load, then at the second one (a memo hit).
    line = make_geometry()
    length, c_s = line.length, line.qubits[0].c_series
    loads = (QubitLoad(0.0, c_s), QubitLoad(0.4 * length, 2.0 * c_s), QubitLoad(length, c_s))
    for x_q in (0.0, 0.4 * length):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", GapStraddle)
            try:
                report = lamb_shift_report(QubitParams(5.0, x_q), aluminum(CALIBRATED_A),
                                           replace(line, qubits=loads), n_max)
            except DispersiveCqedError:
                return
        assert all(math.isfinite(total) for total in astuple(report.totals))


_HIT_DEVICES = ("niobium", "gap_00p6um", "three_load")  # cases of tests/golden/reports.json


def _report_setup(case_id):
    """(material, geometry, n_max, options, x_q, dipole_prefactor) of a golden report case."""
    return golden_generator().REPORT_CASES[case_id]


def _hit_spectrum(case_id):
    """The device's memoised spectrum, with its position slot set to the case's qubit."""
    material, geometry, n_max, options, x_q, dipole = _report_setup(case_id)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        lamb_shift_report(QubitParams(1e-3, x_q, dipole), material, geometry, n_max, options)
    return lightmatter._modal_spectrum(material, geometry, n_max, options)


def _hex_record(per_mode_terms, partial_sums, normalized, comparator, totals, index):
    def cplx(values):
        return [(float(v.real).hex(), float(v.imag).hex()) for v in values]

    return {"terms": cplx(per_mode_terms), "partial": cplx(partial_sums),
            "normalized": [float(v).hex() for v in normalized],
            "comparator": [float(v).hex() for v in comparator],
            "totals": [float(t).hex() for t in totals], "index": index}


def _reference_record(spectrum, geometry, qubit):
    """A report rebuilt the slow way: Python complex N+/(W - p) + N-/(W + conj(p)) per
    mode from the spectrum's poles and ``_numerators``, ``np.cumsum`` and the
    dispersionless comparator d^2 (nu psi^2 (1/(W - nu) - 1/(W + nu))) 1e3."""
    at_qubit = modes_module._eval_segments(np.array([qubit.x_q]), *spectrum.stack, geometry)
    psi = at_qubit[:, 0] * _amp_scale(geometry)
    w, d = qubit.omega_q, qubit.dipole_prefactor
    numerators = lightmatter._numerators(spectrum.poles, psi.tolist(), d)
    terms = np.array([n_plus / (w - p) + n_minus / (w + pc)
                      for (n_plus, n_minus), (p, _, pc, _) in zip(numerators, spectrum.poles)])
    partial = np.cumsum(terms)
    normalized = partial.real / partial[-1].real
    nu = spectrum.nu_bare
    comparator = d**2 * (nu * psi**2 * (1.0 / (w - nu) - 1.0 / (w + nu))) * 1e3
    totals = (partial[-1].real, comparator[spectrum.below_gap].sum(), comparator.sum())
    index = int(np.argmax(normalized >= 0.70)) + 1
    return _hex_record(terms, partial, normalized, comparator, totals, index)


def _scan_message(omega_q, spectrum):
    """The resonance error of two full array scans, dispersive then bare; None if clear."""
    for nu in (spectrum.nu, spectrum.nu_bare):
        on = np.abs(omega_q - nu) < 1e-6 * omega_q
        if on.any():
            return f"qubit at {omega_q} GHz is degenerate with a mode at {float(nu[on.argmax()])} GHz"
    return None


@st.composite
def _qubit_frequencies(draw, resonances):
    """A qubit frequency below the lowest mode, between two modes or above the highest."""
    t = draw(st.floats(min_value=0.01, max_value=0.99))
    region = draw(st.sampled_from(["below", "between", "above"]))
    if region == "below":
        return resonances[0] * t
    if region == "above":
        return resonances[-1] * (1.0 + 2.0 * t)
    i = draw(st.integers(min_value=0, max_value=len(resonances) - 2))
    return resonances[i] + t * (resonances[i + 1] - resonances[i])


class TestMemoHitDifferential:
    """A memo hit equals, bit for bit and signed zeros included, a reference
    assembled per mode in Python complex arithmetic: the float64 expression
    for the lossless modes and the slice sums change no bit."""

    @pytest.mark.parametrize("case_id", _HIT_DEVICES)
    def test_devices_cover_lossless_and_lossy_modes(self, case_id):
        spectrum = _hit_spectrum(case_id)
        lossless = sum(p.imag == 0.0 for p, _, _, _ in spectrum.poles)
        expected = {"niobium": (50, 50), "gap_00p6um": (30, 14), "three_load": (30, 14)}
        assert (len(spectrum.poles), lossless) == expected[case_id]

    @pytest.mark.parametrize("case_id", _HIT_DEVICES)
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_hit_equals_the_reference_to_the_bit(self, case_id, data):
        material, geometry, n_max, options, x_q, dipole = _report_setup(case_id)
        spectrum = _hit_spectrum(case_id)
        omega_q = data.draw(_qubit_frequencies(spectrum.resonances))
        if _scan_message(omega_q, spectrum) is not None:
            return
        qubit = QubitParams(omega_q, x_q, dipole)
        report = lamb_shift_report(qubit, material, geometry, n_max, options)
        assert lightmatter._modal_spectrum(material, geometry, n_max, options) is spectrum
        got = _hex_record(report.per_mode_terms, report.partial_sums, report.normalized_curve,
                          report.comparator_terms, astuple(report.totals),
                          report.convergence_index_70pct)
        assert got == _reference_record(spectrum, geometry, qubit)


class TestResonanceBisection:
    """The bisected resonance check refuses exactly the qubit frequencies that two
    full array scans refuse, with the same message."""

    @staticmethod
    def _probes(spectrum):
        """Every mode frequency, and a few ulps around nu (1 +- 1e-6) and
        nu / (1 -+ 1e-6), where the relative test flips."""
        probes = []
        for nu in spectrum.resonances:
            probes.append(nu)
            for edge in (nu * (1.0 + 1e-6), nu * (1.0 - 1e-6),
                         nu / (1.0 - 1e-6), nu / (1.0 + 1e-6)):
                below, above = edge, edge
                for _ in range(2):
                    below, above = np.nextafter(below, 0.0), np.nextafter(above, np.inf)
                    probes += [float(below), float(above)]
                probes.append(edge)
        return probes

    @pytest.mark.parametrize("case_id", _HIT_DEVICES)
    def test_refuses_where_the_array_scans_refuse(self, case_id):
        material, geometry, n_max, options, x_q, dipole = _report_setup(case_id)
        spectrum = _hit_spectrum(case_id)
        outcomes = set()
        for omega_q in self._probes(spectrum):
            expected = _scan_message(omega_q, spectrum)
            outcomes.add(expected is None)
            qubit = QubitParams(omega_q, x_q, dipole)
            if expected is None:
                lamb_shift_report(qubit, material, geometry, n_max, options)
                continue
            with pytest.raises(QubitOnResonance) as info:
                lamb_shift_report(qubit, material, geometry, n_max, options)
            assert str(info.value) == expected
        assert outcomes == {True, False}  # both sides of the edge were probed


class TestMemoKeyHash:
    """The memo key's configs hash as plain frozen dataclasses: equal configs
    hash equal, a copy hashes its new fields, and a pickled key still finds
    its entry in another process."""

    @staticmethod
    def _configs():
        return (aluminum(CALIBRATED_A), make_geometry(x_q=0.004), FixedPointOptions(tol=1e-11))

    def test_cached_hash_equals_a_fresh_objects_hash(self):
        for config, fresh in zip(self._configs(), self._configs()):
            first = hash(config)
            assert hash(config) == first == hash(fresh)
            assert config == fresh
            assert "_hash" not in repr(config)
            assert [f.name for f in fields(config)] == list(asdict(config))

    def test_replace_hashes_the_new_value(self):
        material, geometry, options = self._configs()
        for config in (material, geometry, options):
            hash(config)  # cached before the copies are made
        changed = (replace(material, impedance_prefactor=2.0 * CALIBRATED_A),
                   replace(geometry, g_geom=1.5e6), replace(options, max_iter=17))
        built = (aluminum(2.0 * CALIBRATED_A),
                 make_geometry(x_q=0.004, g_geom=1.5e6), FixedPointOptions(tol=1e-11, max_iter=17))
        for new, fresh, old in zip(changed, built, (material, geometry, options)):
            assert new == fresh and new != old
            assert hash(new) == hash(fresh)

    def test_pickled_key_finds_an_entry_built_under_another_hash_seed(self):
        material, geometry, options = self._configs()
        key = (material, geometry, 3, options)
        hash(key)  # caches each config's hash in this process
        seed = os.environ.get("PYTHONHASHSEED", "")
        child_seed = str(int(seed) + 1) if seed.isdigit() else "1"
        script = (
            "import pickle, sys\n"
            "from dataclasses import replace\n"
            "from dispersive_cqed import lightmatter\n"
            "material, geometry, n_max, options = pickle.loads(sys.stdin.buffer.read())\n"
            "built = (replace(material), replace(geometry), replace(options))\n"
            "lightmatter.lamb_shift_report(lightmatter.QubitParams(5.0, 0.0),\n"
            "                              built[0], built[1], n_max, built[2])\n"
            "memo = lightmatter._memoised_spectrum\n"
            "hits = memo.cache_info().hits\n"
            "lightmatter._modal_spectrum(material, geometry, n_max, options)\n"
            "print(hash(material.name), memo.cache_info().hits == hits + 1,\n"
            "      memo.cache_info().currsize)\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], input=pickle.dumps(key),
                              capture_output=True, env={**child_env(), "PYTHONHASHSEED": child_seed},
                              timeout=120)
        assert proc.returncode == 0, proc.stderr.decode()
        name_hash, found, entries = proc.stdout.decode().split()
        assert int(name_hash) != hash(material.name)  # the child salts str hashes otherwise
        assert (found, entries) == ("True", "1")
