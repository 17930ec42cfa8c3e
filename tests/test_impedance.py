"""Surface impedance, refractive index, dispersion-relation check, calibration."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dispersive_cqed.errors import DomainError, GridTooCoarse
from dispersive_cqed.impedance import (
    LimitRegime,
    Material,
    aluminum,
    calibrate_prefactor,
    epsilon,
    kk_parts,
    kk_residual,
    niobium,
    surface_impedance,
)
from dispersive_cqed.mattis_bardeen import sigma_real_axis
from dispersive_cqed.modes import derive_line_constants

from conftest import CALIBRATED_A

ELL_M, C_LEN = derive_line_constants(6.0, 50.0, 0.01)


class TestMaterial:
    def test_reduced_frequency_mapping(self):
        al = aluminum()
        assert al.reduced(87.0) == 2.0  # gap edge
        assert al.reduced(43.5 + 8.7j) == pytest.approx(1.0 + 0.2j, rel=1e-15)

    def test_presets(self):
        al = aluminum()
        assert al.limit_regime is LimitRegime.EXTREME_ANOMALOUS
        assert al.from_defaults and al.name == "aluminum"
        nb = niobium()
        assert nb.limit_regime is LimitRegime.DIRTY
        assert nb.gap_frequency == pytest.approx(725.0)

    def test_regime_powers(self):
        assert LimitRegime.EXTREME_ANOMALOUS.power == 3
        assert LimitRegime.DIRTY.power == 2

    def test_validation(self):
        with pytest.raises(DomainError):
            Material(-1.0, LimitRegime.DIRTY, 1.0)
        with pytest.raises(DomainError):
            Material(float("nan"), LimitRegime.DIRTY, 1.0)
        with pytest.raises(DomainError):
            Material(87.0, LimitRegime.DIRTY, -0.5)
        with pytest.raises(DomainError):
            Material(87.0, "dirty", 1.0)


class TestSurfaceImpedance:
    def test_below_gap_exactly_lossless(self):
        z = surface_impedance(aluminum(1.0), 43.5)  # reduced frequency 1
        assert z.real == 0.0
        assert z.imag == pytest.approx(0.6984484525171, rel=1e-10)

    def test_low_frequency_niobium_is_finite_and_lossless(self):
        # 0.3 GHz is reduced frequency 8.3e-4 for niobium; the former
        # kernel quadrature raised SingularInterior below about 1.5e-3.
        z = surface_impedance(niobium(), 0.3)
        assert np.isfinite(z.imag) and z.imag > 0.0
        assert z.real == 0.0

    @settings(max_examples=40, deadline=None)
    @given(st.floats(min_value=1.0, max_value=86.0))
    def test_below_gap_lossless_and_linear_in_prefactor(self, f):
        z1 = surface_impedance(aluminum(1.0), f)
        assert z1.real == 0.0 and z1.imag > 0.0
        z2 = surface_impedance(aluminum(2.5), f)
        assert z2 == pytest.approx(2.5 * z1, rel=1e-13)

    def test_above_gap_composition(self):
        # Independent reconstruction from the real-axis conductivity.
        z = surface_impedance(aluminum(1.0), 174.0)  # reduced frequency 4
        sig = sigma_real_axis(4.0)
        assert z == pytest.approx((4j) * (4j * sig) ** (-1.0 / 3.0), rel=1e-12)
        assert z == pytest.approx(1.170949532490 + 2.582225912071j, rel=1e-11)

    def test_regime_exponent_ratio(self):
        # Same conductivity, different fractional power: the regimes differ by
        # exactly (i nu sigma)^(1/6).
        dirty_al = Material(87.0, LimitRegime.DIRTY, 1.0)
        z_ea = surface_impedance(aluminum(1.0), 174.0)
        z_d = surface_impedance(dirty_al, 174.0)
        assert z_ea / z_d == pytest.approx((4j * sigma_real_axis(4.0)) ** (1.0 / 6.0), rel=1e-12)

    def test_above_gap_resistive_and_inductive(self):
        for f in (90.0, 174.0, 500.0, 4000.0):
            z = surface_impedance(aluminum(1.0), f)
            assert z.real > 0.0 and z.imag > 0.0

    def test_complex_frequency_continuation(self):
        z0 = surface_impedance(aluminum(1.0), 174.0)
        z1 = surface_impedance(aluminum(1.0), 174.0 + 1.0j)
        assert z1 != z0
        assert abs(z1 - z0) / abs(z0) < 0.05
        # Roundoff-sized negative imaginary parts are snapped to the axis.
        assert surface_impedance(aluminum(1.0), 174.0 - 1e-13j) == z0

    def test_rejected_frequencies(self):
        al = aluminum(1.0)
        with pytest.raises(DomainError):
            surface_impedance(al, 174.0 - 1.0j)  # growing-mode half plane
        with pytest.raises(DomainError):
            surface_impedance(al, 40.0 + 1.0j)  # complex below gap
        with pytest.raises(DomainError):
            surface_impedance(al, 0.0)
        with pytest.raises(DomainError):
            surface_impedance(al, -5.0)

    @pytest.mark.parametrize("f_ghz", [5.0, 174.0, -5.0, 174.0 + 1.0j, 40.0 + 1.0j])
    def test_lossless_film_is_zero_before_any_frequency_check(self, f_ghz):
        # The ideal film is defined here alone: even a frequency the lossy
        # branches refuse (negative, complex below the gap) gives exactly 0j.
        z = surface_impedance(aluminum(0.0), f_ghz)
        assert type(z) is complex and z == 0j

    def test_high_frequency_power_law(self):
        # sigma -> sigma_n, so |Z_s| approaches A nu^(1 - 1/q).
        for mat, expo in ((aluminum(1.0), 2.0 / 3.0), (niobium(1.0), 0.5)):
            f_grid = np.geomspace(50.0 * mat.gap_frequency, 500.0 * mat.gap_frequency, 8)
            scaled = [
                abs(surface_impedance(mat, float(f))) / mat.reduced(f) ** expo for f in f_grid
            ]
            assert max(scaled) / min(scaled) - 1.0 < 0.05


class TestEpsilon:
    def test_zero_impedance_is_unity(self):
        for f_ghz in (5.0, 6.0, 174.0):  # below and above the gap
            eps = epsilon(aluminum(0.0), 3.0e6, ELL_M, f_ghz)
            assert eps == 1.0 + 0.0j

    @pytest.mark.parametrize("prefactor, f_ghz", [(0.0, 6.0), (CALIBRATED_A, 5.88),
                                                  (CALIBRATED_A, 174.0)])
    def test_returns_a_complex_number(self, prefactor, f_ghz):
        assert type(epsilon(aluminum(prefactor), 3.0e6, ELL_M, f_ghz)) is complex

    def test_below_gap_real_and_slowing(self):
        eps = epsilon(aluminum(CALIBRATED_A), 3.0e6, ELL_M, 5.88)
        assert eps.imag == 0.0
        assert eps.real == pytest.approx(1.0412328196585, rel=1e-12)

    def test_above_gap_lossy_sign(self):
        eps = epsilon(aluminum(CALIBRATED_A), 3.0e6, ELL_M, 174.0)
        assert eps.imag < 0.0
        assert eps == pytest.approx(1.0389698153663 - 0.0176714542562j, rel=1e-11)

    def test_matches_manual_composition(self):
        g = 3.0e6
        z = surface_impedance(aluminum(CALIBRATED_A), 174.0)
        omega = 2.0 * np.pi * 1e9 * 174.0
        manual = 1.0 + g * z / (1j * omega * ELL_M)
        assert epsilon(aluminum(CALIBRATED_A), g, ELL_M, 174.0) == pytest.approx(
            manual, rel=1e-13
        )

    def test_domain(self):
        with pytest.raises(DomainError):
            epsilon(aluminum(1.0), -1.0, ELL_M, 6.0)
        with pytest.raises(DomainError):
            epsilon(aluminum(1.0), 3.0e6, 0.0, 6.0)
        for prefactor in (0.0, 1.0):  # epsilon divides by omega, lossless or not
            with pytest.raises(DomainError):
                epsilon(aluminum(prefactor), 3.0e6, ELL_M, 0.0)


class TestKramersKronig:
    def test_residual_small_on_default_grid(self):
        # Contract bound is 2%; the regression bound guards the measured
        # ~3e-4 level against quiet quadrature regressions.
        r_al = kk_residual(aluminum(0.0023), 10.0)
        assert r_al < 0.02
        assert r_al < 2e-3
        r_nb = kk_residual(niobium(0.004), 100.0)
        assert r_nb < 0.02
        assert r_nb < 2e-3

    def test_below_gap_probe_on_grid_node(self):
        # 43.5 GHz lands exactly on a node of the default grid; the excised
        # principal value machinery is bypassed below the gap.
        assert kk_residual(aluminum(0.0023), 43.5) < 0.02

    @pytest.mark.parametrize(
        "probe, lhs_hex",
        [
            (95.0, "0x1.4ff4f6a2e5479p+0"),
            (108.75, "0x1.54ab74338ee80p+0"),
            (150.0, "0x1.1eb4ddab67ae0p+0"),
            (300.0, "0x1.84ba28d7f0bb7p-1"),
            (2000.0, "0x1.861878c70f505p-2"),
        ],
    )
    def test_above_gap_principal_value_is_frozen(self, probe, lhs_hex):
        # Frozen from a per-cell running-sum trapezoid: the cells must still be
        # added one by one in grid order (np.sum pairs them and moves the
        # last bits).
        lhs, _ = kk_parts(aluminum(CALIBRATED_A), probe)
        assert lhs == float.fromhex(lhs_hex)

    def test_doubling_grid_extent_halves_residual(self):
        r1 = kk_residual(aluminum(0.0023), 10.0)
        r2 = kk_residual(aluminum(0.0023), 10.0, f_max_ghz=100.0 * 87.0, n_grid=8001)
        assert r2 / r1 <= 0.5

    def test_scale_invariance(self):
        r1 = kk_residual(aluminum(0.0023), 10.0, n_grid=1001)
        r2 = kk_residual(aluminum(23.0), 10.0, n_grid=1001)
        assert r2 == pytest.approx(r1, rel=1e-9)

    def test_lossless_material_is_trivially_consistent(self):
        lossless = aluminum(0.0)
        assert kk_parts(lossless, 10.0) == (0.0, 0.0)
        assert kk_residual(lossless, 10.0) == 0.0

    def test_grid_validation(self):
        al = aluminum(0.0023)
        with pytest.raises(DomainError):
            kk_residual(al, -1.0)
        for n_grid, f_max in ((15, None), (8, 5000.0), (4001, math.nan), (4001, math.inf)):
            with pytest.raises(DomainError):
                kk_residual(al, 10.0, f_max_ghz=f_max, n_grid=n_grid)
        assert all(map(math.isfinite, kk_parts(al, 10.0, n_grid=16)))  # the smallest grid

    def test_grid_too_coarse_paths(self):
        al = aluminum(0.0023)
        with pytest.raises(GridTooCoarse):
            kk_residual(al, 10.0, f_max_ghz=10.0 * 87.0)  # short extent
        with pytest.raises(GridTooCoarse):
            kk_residual(al, 4349.0)  # probe within two cells of the grid edge
        with pytest.raises(GridTooCoarse):
            # Just above the gap edge: the two-cell excision window straddles
            # the Re Z_s kink on the default ~1.1 GHz spacing.
            kk_residual(al, 87.435)


class TestCalibration:
    def test_round_trip_of_bundled_prefactor(self):
        cal = calibrate_prefactor(aluminum(1.0), 3.0e6, ELL_M, 6.0, 0.02)
        assert cal.impedance_prefactor == pytest.approx(CALIBRATED_A, rel=1e-12)
        # Scalar dispersion f = f0 / sqrt(eps(f)) holds at the shifted target.
        eps = epsilon(cal, 3.0e6, ELL_M, 0.98 * 6.0)
        assert eps.real == pytest.approx(1.0 / 0.98**2, rel=1e-12)

    def test_independent_of_starting_prefactor(self):
        a = calibrate_prefactor(aluminum(1.0), 3.0e6, ELL_M, 6.0, 0.02)
        b = calibrate_prefactor(aluminum(123.0), 3.0e6, ELL_M, 6.0, 0.02)
        assert a.impedance_prefactor == pytest.approx(b.impedance_prefactor, rel=1e-14)

    def test_domain(self):
        with pytest.raises(DomainError):
            calibrate_prefactor(aluminum(1.0), 3.0e6, ELL_M, 6.0, 0.0)
        with pytest.raises(DomainError):
            calibrate_prefactor(aluminum(1.0), 3.0e6, ELL_M, 6.0, 0.5)
        with pytest.raises(DomainError):
            # Shift target would land above the pair-breaking edge.
            calibrate_prefactor(aluminum(1.0), 3.0e6, ELL_M, 100.0, 0.02)
        # A target exactly at the edge (reduced 2) counts as below it.
        edge = aluminum(1.0, gap_frequency=(1.0 - 0.02) * 100.0)
        assert calibrate_prefactor(edge, 3.0e6, ELL_M, 100.0, 0.02).impedance_prefactor > 0.0
