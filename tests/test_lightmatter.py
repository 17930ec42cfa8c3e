"""Couplings, spectral density, Lamb-shift terms, report assembly."""

import math
import sys
import threading
import warnings
from collections import OrderedDict
from dataclasses import astuple, replace

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
    DomainError,
    GapStraddle,
    PoleProximity,
    QubitOnResonance,
)
from dispersive_cqed.impedance import aluminum
from dispersive_cqed.lightmatter import (
    QubitParams,
    cc_comparator_term,
    coupling_strength,
    lamb_shift_report,
    lamb_shift_term_branches,
    lamb_shift_terms,
    naive_cutoff,
    normalized_convergence,
    rescaled,
    spectral_density,
)
from dispersive_cqed.mattis_bardeen import ComplexFreq
from dispersive_cqed.modes import (
    QubitLoad,
    dispersive_modes,
    mode_function,
    resonator_modes,
)

from conftest import CALIBRATED_A, make_geometry


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
        t = lamb_shift_terms(modes, qb, al, geo)
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
            pair = lamb_shift_terms([m_eps], qb, lossless, geo)[0]
            cc = cc_comparator_term(m, qb, geo)
            assert abs(pair.real - cc) / abs(cc) <= 1e-4

    def test_node_mode_contributes_nothing(self):
        geo = make_geometry(c_series=1e-20)
        qb = QubitParams(5.0, geo.length / 4.0)  # node of mode 2
        modes = resonator_modes(geo, 3)
        t = lamb_shift_terms(modes, qb, aluminum(0.0), geo)
        assert abs(t[1]) < 1e-9 * abs(t[0])

    def test_all_terms_negative_for_detuned_qubit(self):
        geo = make_geometry()
        qb = QubitParams(5.0, 0.0)
        al = aluminum(CALIBRATED_A)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            modes = dispersive_modes(geo, al, 30)
        t = lamb_shift_terms(modes, qb, al, geo)
        assert (t.real < 0.0).all()

    def test_on_resonance_rejected(self):
        geo = make_geometry()
        modes = resonator_modes(geo, 2)
        qb = QubitParams(modes[0].omega_n.nu, 0.0)
        with pytest.raises(QubitOnResonance):
            lamb_shift_terms(modes, qb, aluminum(0.0), geo)


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
        curves = rep.convergence_curves()
        assert list(curves) == ["dispersion", "below_bandgap", "no_dispersion"]
        np.testing.assert_array_equal(curves["dispersion"], rep.normalized_curve)
        np.testing.assert_array_equal(
            curves["below_bandgap"], normalized_convergence(np.where(below, cc_terms, 0.0))
        )
        np.testing.assert_array_equal(
            curves["no_dispersion"], normalized_convergence(cc_terms)
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
            rep.convergence_curves()


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


class TestSpectrumMemo:
    """Reports on one device share its qubit-independent modal spectrum."""

    N = 20

    @pytest.fixture
    def memo(self, monkeypatch):
        spectra = OrderedDict()
        monkeypatch.setattr(lightmatter, "_spectra", spectra)
        return spectra

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

    def test_restarting_solve_warns_on_every_call(self, memo):
        # The gap sits just under mode 1's bare frequency, and the red shift
        # pulls the mode across it: one GapStraddle restart per solve.
        geo = make_geometry()
        f1 = resonator_modes(geo, 1)[0].omega_n.nu
        material = aluminum(CALIBRATED_A, gap_frequency=0.999 * f1)
        for omega_q in (3.0, 3.5):
            with pytest.warns(GapStraddle):
                lamb_shift_report(QubitParams(omega_q, 0.0), material, geo, 3)
        assert len(memo) == 0
        # Re-issued from the solver's module, so a filter naming it still applies.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            warnings.filterwarnings("ignore", category=GapStraddle, module="dispersive_cqed")
            lamb_shift_report(QubitParams(4.0, 0.0), material, geo, 3)
        assert caught == []

    def test_memo_never_grows_past_its_bound(self, memo):
        geo, qubit = make_geometry(), QubitParams(5.0, 0.0)
        bound = lightmatter._SPECTRUM_MEMO_SIZE
        for n_max in range(1, bound + 5):
            lamb_shift_report(qubit, aluminum(0.0), geo, n_max)
            assert len(memo) <= bound
        assert [key[2] for key in memo] == list(range(5, bound + 5))  # oldest went first

    def test_concurrent_reports_past_the_bound(self, memo):
        # Four threads cycle through more devices than the memo holds, so
        # hits, stores, evictions and the warning capture of solves interleave;
        # overlapping captures would leave the process's warning state altered.
        geo, material = make_geometry(), aluminum(0.0)
        sizes = range(1, lightmatter._SPECTRUM_MEMO_SIZE + 9)
        expected = {n: lamb_shift_report(QubitParams(5.0, 0.0), material, geo, n).totals
                    for n in sizes}
        memo.clear()
        failures = []
        filters, showwarning = list(warnings.filters), warnings.showwarning

        def worker(offset):
            try:
                for i in range(60):
                    n = sizes[(7 * i + offset) % len(sizes)]
                    got = lamb_shift_report(QubitParams(5.0, 0.0), material, geo, n).totals
                    if got != expected[n]:
                        failures.append((n, got))
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


class TestMirrorSymmetry:
    """Reflecting the line (x -> L - x for the loads and the qubit) keeps the totals."""

    N = 20

    def _totals(self, loads, x_q):
        geometry = replace(make_geometry(), qubits=tuple(loads))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            report = lamb_shift_report(
                QubitParams(5.0, x_q), aluminum(CALIBRATED_A), geometry, self.N
            )
        return astuple(report.totals)

    def _assert_mirror_invariant(self, loads, x_q):
        length = make_geometry().length
        mirrored = [QubitLoad(length - q.position, q.c_series) for q in reversed(loads)]
        direct, reflected = self._totals(loads, x_q), self._totals(mirrored, length - x_q)
        for a, b in zip(direct, reflected):
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
