"""Secular roots, mode functions, dispersion fixed point, Green's function."""

import bisect
import itertools
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson
from scipy.linalg import solve_banded

from dispersive_cqed.cli import bundled_geometry_configs, load_run_config
from dispersive_cqed.errors import (
    DispersiveCqedError,
    DomainError,
    GapStraddle,
    NoConvergence,
    PoleProximity,
)
from dispersive_cqed.impedance import aluminum, epsilon, surface_impedance
from dispersive_cqed.mattis_bardeen import ComplexFreq
from dispersive_cqed.modes import (
    FixedPointOptions,
    Mode,
    QubitLoad,
    ResonatorGeometry,
    _bare_stack,
    _eval_segments,
    _segment_breaks,
    _simpson,
    _stack,
    completeness_residual,
    derive_line_constants,
    dispersive_modes,
    fixed_point_eigenfrequency,
    greens_function,
    greens_identity_residual,
    mode_function,
    resonator_modes,
    secular_roots,
    secular_value,
    zero_mode_amplitude,
)

from conftest import CALIBRATED_A, fd_eigenfrequencies, make_geometry

ELL_M, C_LEN = derive_line_constants(6.0, 50.0, 0.01)
L = 0.01


def bare_geometry(**kwargs):
    return ResonatorGeometry(L, ELL_M, C_LEN, kwargs.pop("g_geom", 0.0), kwargs.pop("qubits", ()))


class TestGeometry:
    def test_validation(self):
        with pytest.raises(DomainError):
            ResonatorGeometry(-1.0, ELL_M, C_LEN, 0.0)
        with pytest.raises(DomainError):
            ResonatorGeometry(L, ELL_M, C_LEN, -2.0)
        with pytest.raises(DomainError):
            ResonatorGeometry(L, ELL_M, C_LEN, 0.0, (QubitLoad(2 * L, 1e-14),))
        with pytest.raises(DomainError):
            ResonatorGeometry(L, ELL_M, C_LEN, 0.0, (QubitLoad(0.0, 0.0),))
        with pytest.raises(DomainError):
            # positions must be strictly increasing
            ResonatorGeometry(
                L, ELL_M, C_LEN, 0.0, (QubitLoad(0.004, 1e-14), QubitLoad(0.004, 1e-14))
            )

    def test_derived_line_constants_round_trip(self):
        ell, c = derive_line_constants(6.0, 50.0, 0.01)
        assert math.sqrt(ell / c) == pytest.approx(50.0, rel=1e-13)
        assert 1.0 / math.sqrt(ell * c) == pytest.approx(2 * 0.01 * 6.0e9, rel=1e-13)
        with pytest.raises(DomainError):
            derive_line_constants(-6.0)

    def test_mode_index_validation(self):
        with pytest.raises(DomainError):
            Mode(0, 1.0, ComplexFreq(1.0, 0.0), 1.0, ((1.0, 0.0),))


class TestSecular:
    def test_unloaded_roots_are_harmonics(self):
        ks = secular_roots(bare_geometry(), 10)
        for n, k in enumerate(ks, 1):
            assert abs(k - n * math.pi / L) <= 1e-12 * math.pi / L

    def test_end_loaded_reduction(self):
        # Load at x = 0: the condition collapses to tan(kL) = -k C_s / c.
        geo = bare_geometry(qubits=(QubitLoad(0.0, 1e-14),))
        for k in secular_roots(geo, 6):
            assert math.tan(k * L) == pytest.approx(-k * 1e-14 / C_LEN, rel=1e-8)

    def test_first_root_red_shifted(self):
        c_series = 5e-3 * C_LEN * L  # C_s/(cL) = 5e-3
        geo = bare_geometry(qubits=(QubitLoad(0.0, c_series),))
        k1 = secular_roots(geo, 1)[0]
        assert k1 * L < math.pi

    def test_closed_form_matches_transfer_matrix(self):
        # The two-qubit transfer-matrix path with one vanishingly small load
        # must reproduce the single-qubit closed form.
        single = bare_geometry(qubits=(QubitLoad(0.004, 1e-14),))
        double = bare_geometry(qubits=(QubitLoad(0.004, 1e-14), QubitLoad(0.009, 1e-30)))
        k = np.linspace(0.3 * math.pi / L, 8 * math.pi / L, 257)
        np.testing.assert_allclose(
            secular_value(k, single), secular_value(k, double), rtol=1e-9, atol=1e-12
        )

    @settings(max_examples=25, deadline=None)
    @given(
        st.floats(min_value=1e-16, max_value=1e-12),
        st.floats(min_value=0.0, max_value=L),
    )
    def test_interlacing(self, c_series, x_q):
        geo = bare_geometry(qubits=(QubitLoad(x_q, c_series),))
        ks = secular_roots(geo, 12)
        for n, k in enumerate(ks, 1):
            assert (n - 1) * math.pi / L < k <= n * math.pi / L * (1.0 + 1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            secular_roots(bare_geometry(), 0)
        with pytest.raises(DomainError):
            secular_value(-1.0, bare_geometry())


class TestModeFunctions:
    def test_unloaded_modes_are_cosines(self):
        geo = bare_geometry()
        modes = resonator_modes(geo, 4)
        x = np.linspace(0.0, L, 101)
        amp = math.sqrt(2.0 / (ELL_M * C_LEN * L))
        for m in modes:
            expect = amp * np.cos(m.n * math.pi * x / L)
            got = mode_function(m, geo, x)
            sign = 1.0 if got[0] * expect[0] > 0 else -1.0
            np.testing.assert_allclose(sign * got, expect, rtol=1e-10, atol=1e-9 * amp)

    def test_orthonormality_with_delta_weight(self):
        # Gram matrix of the first 50 modes under int ell_m c(x) Psi_m Psi_n,
        # with the lumped capacitor terms included.
        geo = make_geometry()
        modes = resonator_modes(geo, 50)
        x = np.linspace(0.0, L, 90_001)
        psi = np.vstack([mode_function(m, geo, x) for m in modes])
        gram = ELL_M * C_LEN * simpson(psi[:, None, :] * psi[None, :, :], x=x, axis=-1)
        for q in geo.qubits:
            amp = np.array([mode_function(m, geo, q.position) for m in modes])
            gram += ELL_M * q.c_series * np.outer(amp, amp)
        np.testing.assert_allclose(gram, np.eye(50), atol=1e-9)

    def test_continuity_and_derivative_jump(self):
        x_q, c_series = 0.0043, 2e-14
        geo = bare_geometry(qubits=(QubitLoad(x_q, c_series),))
        for m in resonator_modes(geo, 5):
            k = m.k_n
            (p0, q0), (p1, q1) = m.segment_amplitudes
            left = m.norm * (p0 * math.cos(k * x_q) + q0 * math.sin(k * x_q))
            right = m.norm * (p1 * math.cos(k * x_q) + q1 * math.sin(k * x_q))
            assert right == pytest.approx(left, rel=1e-12)
            d_left = m.norm * k * (-p0 * math.sin(k * x_q) + q0 * math.cos(k * x_q))
            d_right = m.norm * k * (-p1 * math.sin(k * x_q) + q1 * math.cos(k * x_q))
            jump = -(k**2) * (c_series / C_LEN) * left
            assert d_right - d_left == pytest.approx(jump, rel=1e-10)

    def test_domain(self):
        geo = bare_geometry()
        m = resonator_modes(geo, 1)[0]
        with pytest.raises(DomainError):
            mode_function(m, geo, -0.1 * L)

    def test_zero_mode_amplitude(self):
        geo = make_geometry()
        total = ELL_M * (C_LEN * L + sum(q.c_series for q in geo.qubits))
        assert zero_mode_amplitude(geo) == pytest.approx(1.0 / math.sqrt(total), rel=1e-14)


# Loads at the Neumann end, inside the line and at the far end.
THREE_LOADS = ResonatorGeometry(
    L, ELL_M, C_LEN, 0.0, (QubitLoad(0.0, 1e-14), QubitLoad(0.0041, 2e-14), QubitLoad(L, 5e-15))
)
THREE_LOAD_MODES = resonator_modes(THREE_LOADS, 12)


def _psi_reference(mode, geometry, x):
    """norm (P cos kx + Q sin kx) in pure math, on the segment bisect finds for x."""
    interior = [q.position for q in geometry.qubits if 0.0 < q.position < geometry.length]
    p, q = mode.segment_amplitudes[bisect.bisect_right(interior, x)]
    return mode.norm * (p * math.cos(mode.k_n * x) + q * math.sin(mode.k_n * x))


class TestModeKernel:
    """The batched Psi kernel against a scalar pure-math evaluation."""

    SCALE = max(m.norm * math.hypot(p, q) for m in THREE_LOAD_MODES for p, q in m.segment_amplitudes)

    def _check(self, xs):
        xs = np.asarray(xs, dtype=float)
        batched = _eval_segments(xs, *_stack(THREE_LOAD_MODES), THREE_LOADS)
        assert batched.shape == (len(THREE_LOAD_MODES), xs.size)
        for i, m in enumerate(THREE_LOAD_MODES):
            ref = np.array([_psi_reference(m, THREE_LOADS, x) for x in xs.tolist()])
            np.testing.assert_allclose(batched[i], ref, rtol=0.0, atol=1e-14 * self.SCALE)
            np.testing.assert_allclose(mode_function(m, THREE_LOADS, xs), ref, rtol=0.0,
                                       atol=1e-14 * self.SCALE)
            for x, r in zip(xs.tolist(), ref.tolist()):
                got = mode_function(m, THREE_LOADS, x)
                assert type(got) is float
                assert abs(got - r) <= 1e-14 * self.SCALE

    def test_breaks_and_ends(self):
        self._check([0.0, 0.0041, L])

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(0.0, L, exclude_min=True, exclude_max=True), min_size=1, max_size=16))
    def test_interior_points(self, xs):
        self._check(xs)

    def test_shape_and_domain(self):
        m = THREE_LOAD_MODES[3]
        grid = np.linspace(0.0, L, 12).reshape(3, 4)
        assert mode_function(m, THREE_LOADS, grid).shape == (3, 4)
        for x in (-1e-12, L * (1.0 + 1e-12)):
            with pytest.raises(DomainError):
                mode_function(m, THREE_LOADS, x)
        with pytest.raises(DomainError):
            _eval_segments(np.array([0.5 * L, 1.5 * L]), *_stack(THREE_LOAD_MODES), THREE_LOADS)


def _raw_segments(k, geometry):
    """Un-normalized (P, Q) per segment of one mode: the per-mode build the
    array builder replaced, kept verbatim as its oracle."""
    c = geometry.c_per_len
    p, q = 1.0, 0.0
    segments = []
    for load in geometry.qubits:
        xq, ctilde = load.position, load.c_series / c
        if xq == 0.0:
            q = q - k * ctilde * p
            continue
        if xq == geometry.length:
            continue
        segments.append((p, q))
        psi = p * math.cos(k * xq) + q * math.sin(k * xq)
        p = p + k * ctilde * psi * math.sin(k * xq)
        q = q - k * ctilde * psi * math.cos(k * xq)
    segments.append((p, q))
    return segments


def _segment_square_integral(p, q, k, a, b):
    """Exact integral of (P cos kx + Q sin kx)^2 over [a, b]."""
    s = (p * p + q * q) * 0.5 * (b - a)
    s += (p * p - q * q) * (math.sin(2 * k * b) - math.sin(2 * k * a)) / (4 * k)
    s += p * q * (math.cos(2 * k * a) - math.cos(2 * k * b)) / (2 * k)
    return s


def _normalization(k, geometry, segments):
    breaks = _segment_breaks(geometry)
    total = 0.0
    for (p, q), a, b in zip(segments, breaks[:-1], breaks[1:]):
        total += geometry.c_per_len * _segment_square_integral(p, q, k, a, b)
    positions = np.array([load.position for load in geometry.qubits])
    at_loads = _eval_segments(positions, np.array([k]), np.ones(1), np.array([segments]), geometry)
    for load, psi in zip(geometry.qubits, at_loads[0].tolist()):
        total += load.c_series * psi * psi
    total *= geometry.ell_m
    return 1.0 / math.sqrt(total)


def _hex(values):
    return [float(v).hex() for v in values]


BARE_LINES = {
    **{path.stem: load_run_config(path).geometry for path in bundled_geometry_configs()},
    "three_loads": THREE_LOADS,
    "two_interior": bare_geometry(qubits=(QubitLoad(0.3 * L, 1e-14), QubitLoad(0.7 * L, 2e-14))),
    "unloaded": bare_geometry(),
}


class TestBareStack:
    """The one array builder of the bare modes against the per-mode build, bit for bit."""

    @pytest.mark.parametrize("n_max", [600, 2500])
    @pytest.mark.parametrize("line", sorted(BARE_LINES))
    def test_stack_equals_the_per_mode_build(self, line, n_max):
        geometry = BARE_LINES[line]
        k, norm, amplitudes = _bare_stack(geometry, n_max)
        assert k.dtype == norm.dtype == amplitudes.dtype == np.float64
        assert amplitudes.shape == (n_max, _segment_breaks(geometry).size - 1, 2)
        assert _hex(k) == _hex(secular_roots(geometry, n_max))
        want_norm, want_amplitudes = [], []
        for k_n in k:
            segments = _raw_segments(k_n, geometry)
            want_norm.append(_normalization(k_n, geometry, segments))
            want_amplitudes.extend(v for pq in segments for v in pq)
        assert _hex(norm) == _hex(want_norm)
        assert _hex(amplitudes.ravel()) == _hex(want_amplitudes)
        modes = resonator_modes(geometry, n_max)
        assert _hex(m.k_n for m in modes) == _hex(k)
        assert _hex(m.norm for m in modes) == _hex(norm)
        assert _hex(m.omega_n.nu for m in modes) == _hex(
            geometry.bare_frequency_ghz(k_n) for k_n in k)
        assert all(m.omega_n.kappa == 0.0 for m in modes)
        assert [m.n for m in modes] == list(range(1, n_max + 1))
        assert _hex(v for m in modes for pq in m.segment_amplitudes for v in pq) == _hex(
            amplitudes.ravel())

    def test_numpy_sin_cos_equal_math(self):
        # The stack is bit-identical to the per-mode build only if numpy's
        # sin and cos round as the math module's do, on every argument k x
        # and 2 k x that the deepest lines (N = 2,500) reach.
        top = 2.0 * secular_roots(make_geometry(), 2500)[-1] * L
        x = np.linspace(0.0, 1.01 * top, 200_001)
        xs = x.tolist()
        assert _hex(np.sin(x)) == _hex(map(math.sin, xs))
        assert _hex(np.cos(x)) == _hex(map(math.cos, xs))


class TestSimpson:
    """The composite Simpson helper against scipy's as the oracle."""

    @pytest.mark.parametrize("n_grid", [4097, 16 * 400 + 1])
    def test_matches_scipy(self, n_grid):
        x = np.linspace(0.0, L, n_grid)
        real = np.exp(-0.5 * ((x - 0.006) / 0.001) ** 2) * (1.0 + 0.5 * np.cos(37.0 * x / L))
        cplx = real * np.exp(3j * x / L) + 0.2j * np.sin(11.0 * x / L) ** 2
        for y in (real, cplx):
            np.testing.assert_allclose(_simpson(y, x), simpson(y, x=x), rtol=1e-13)


class TestFixedPoint:
    @pytest.mark.parametrize("field, value", [
        ("tol", 0.0), ("tol", -1e-10), ("tol", math.nan), ("tol", math.inf),
        ("max_iter", 0), ("max_iter", -3),
    ])
    def test_options_validated_on_construction(self, field, value):
        with pytest.raises(DomainError):
            FixedPointOptions(**{field: value})

    def test_options_accept_their_range_ends(self):
        FixedPointOptions(tol=1e-300, max_iter=1)

    def test_lossless_is_exact_bare_frequency(self):
        # Z_s = 0j comes from surface_impedance itself, above the gap too.
        geo = make_geometry()
        for m in resonator_modes(geo, 60):
            om = fixed_point_eigenfrequency(m.k_n, aluminum(0.0), geo)
            assert (om.nu, om.kappa) == (m.omega_n.nu, 0.0)

    def test_below_gap_real_and_red_shifted(self):
        geo = make_geometry()
        al = aluminum(CALIBRATED_A)
        for m in dispersive_modes(geo, al, 8):
            assert m.omega_n.kappa == 0.0
            assert m.omega_n.nu < geo.bare_frequency_ghz(m.k_n)

    def test_above_gap_lossy_and_kappa_grows_with_impedance(self):
        geo = make_geometry()
        k20 = secular_roots(geo, 20)[-1]  # bare 120 GHz, above the 87 GHz gap
        om1 = fixed_point_eigenfrequency(k20, aluminum(CALIBRATED_A), geo)
        om2 = fixed_point_eigenfrequency(k20, aluminum(2 * CALIBRATED_A), geo)
        assert om1.kappa > 0.0
        assert om2.kappa > om1.kappa

    def test_seed_independence(self):
        geo = make_geometry()
        al = aluminum(CALIBRATED_A)
        for k in (secular_roots(geo, 1)[0], secular_roots(geo, 20)[-1]):
            ref = fixed_point_eigenfrequency(k, al, geo)
            ref_c = complex(ref.nu, ref.kappa)
            for fac in (0.95, 1.05):
                om = fixed_point_eigenfrequency(
                    k, al, geo, seed_ghz=fac * geo.bare_frequency_ghz(k)
                )
                assert abs(complex(om.nu, om.kappa) - ref_c) / abs(ref_c) <= 1e-8

    def test_gap_straddle_warning_then_settles(self):
        # A bare frequency just above the pair-breaking edge gets pulled
        # below it by the kinetic-inductance red shift: one crossing, one
        # warning, and a real (lossless) fixed point on the far side.
        geo = make_geometry()
        k = 2 * math.pi * 87.3e9 / geo.bare_velocity
        with pytest.warns(GapStraddle):
            om = fixed_point_eigenfrequency(k, aluminum(CALIBRATED_A), geo)
        assert om.nu < 87.0
        assert om.kappa == 0.0

    def test_red_shifted_but_still_above_gap(self):
        geo = make_geometry()
        k = 2 * math.pi * 90.0e9 / geo.bare_velocity
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", GapStraddle)
            om = fixed_point_eigenfrequency(k, aluminum(CALIBRATED_A), geo)
        assert 87.0 < om.nu < 90.0
        assert om.kappa > 0.0

    def test_no_convergence_carries_history(self):
        geo = make_geometry()
        k20 = secular_roots(geo, 20)[-1]
        with pytest.raises(NoConvergence) as exc:
            fixed_point_eigenfrequency(
                k20, aluminum(CALIBRATED_A), geo, FixedPointOptions(max_iter=2)
            )
        assert len(exc.value.residual_history) > 0

    @pytest.mark.parametrize("max_iter", [1, 2, 5, 12])
    def test_one_impedance_call_per_iteration(self, monkeypatch, max_iter):
        # Residual and Picard target share one rhs evaluation.
        import dispersive_cqed.modes as modes_module

        calls = []
        original = modes_module.surface_impedance

        def counted(material, frequency_ghz):
            calls.append(frequency_ghz)
            return original(material, frequency_ghz)

        monkeypatch.setattr(modes_module, "surface_impedance", counted)
        geo = make_geometry()
        k20 = secular_roots(geo, 20)[-1]
        with pytest.raises(NoConvergence) as exc:
            fixed_point_eigenfrequency(
                k20, aluminum(CALIBRATED_A), geo, FixedPointOptions(max_iter=max_iter)
            )
        assert len(calls) == len(exc.value.residual_history) == max_iter

    def test_seed_domain(self):
        geo = make_geometry()
        with pytest.raises(DomainError):
            fixed_point_eigenfrequency(
                secular_roots(geo, 1)[0], aluminum(0.0), geo, seed_ghz=-6.0
            )


class TestNearGap:
    """Fixed points with the gap edge placed next to a bare mode frequency."""

    def test_every_solve_returns_a_root_or_a_typed_error(self):
        # 624 solves on gap_00p6um: the gap at (1 +- d) times the bare
        # frequency of modes 1, 6, 15 and 26 for d = 0 and 25 offsets d in
        # [1e-7, 1e-1], at 0.1x, 1x and 10x the calibrated prefactor.  A solve
        # restarts at most once, so it warned exactly where its root and its
        # bare frequency lie on opposite sides of the gap by
        # Material.above_gap: the rule by which the modal spectrum repeats the
        # warnings on a memo hit.
        run = load_run_config(bundled_geometry_configs()[0])
        geo, base = run.geometry, run.material
        ks = secular_roots(geo, 26)
        options = FixedPointOptions()
        solved = straddles = 0
        for n, scale, sign, d in itertools.product(
            (1, 6, 15, 26), (0.1, 1.0, 10.0), (-1.0, 1.0),
            [0.0, *np.geomspace(1e-7, 1e-1, 25)],
        ):
            k = ks[n - 1]
            material = replace(
                base,
                impedance_prefactor=scale * base.impedance_prefactor,
                gap_frequency=geo.bare_frequency_ghz(k) * (1.0 + sign * d),
            )
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", GapStraddle)
                try:
                    om = fixed_point_eigenfrequency(k, material, geo, options)
                except DispersiveCqedError:
                    continue
                finally:
                    warned = sum(issubclass(w.category, GapStraddle) for w in caught)
                    straddles += warned
            solved += 1
            above = material.above_gap(om.nu)
            assert warned == (above != material.above_gap(geo.bare_frequency_ghz(k)))
            assert math.isfinite(om.nu) and math.isfinite(om.kappa)
            if not above:
                assert om.kappa == 0.0
            # rhs re-evaluated from the surface impedance and the dispersion
            # relation written out here; the GHz round trip of the root moves
            # the residual by roundoff only.
            omega = complex(om.nu, om.kappa) * 2.0 * math.pi * 1e9
            z_s = surface_impedance(material, complex(om.nu, om.kappa))
            rhs = (k * k + 1j * geo.g_geom * omega * geo.c_per_len * z_s) / (
                geo.ell_m * geo.c_per_len
            )
            assert abs(omega * omega - rhs) / abs(omega) ** 2 <= options.tol + 1e-14
        assert solved > 0
        assert straddles > 0

    @pytest.mark.parametrize("side", [0.99, 1.01])
    def test_iterate_refused_by_the_impedance_is_no_convergence(self, side):
        # At 10x the calibrated prefactor rhs < 0 at mode 1's bare frequency,
        # so the Picard target is imaginary and the next iterate lies off the
        # real axis below the gap, where the surface impedance is undefined.
        run = load_run_config(bundled_geometry_configs()[0])
        geo, base = run.geometry, run.material
        k = secular_roots(geo, 1)[0]
        material = replace(base, impedance_prefactor=10.0 * base.impedance_prefactor,
                           gap_frequency=side * geo.bare_frequency_ghz(k))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", GapStraddle)
            with pytest.raises(NoConvergence, match="left the domain") as info:
                fixed_point_eigenfrequency(k, material, geo)
        assert info.value.residual_history
        assert isinstance(info.value.__cause__, DomainError)

    def test_iterate_refused_right_after_a_restart_keeps_the_history(self, monkeypatch):
        # The red shift pulls mode 1 across a gap just under its bare
        # frequency; the impedance then refuses the restart point, so the
        # only residuals are those from before the restart.
        import dispersive_cqed.modes as modes_module

        original = modes_module.surface_impedance
        calls = []

        def refuses_after_restart(material, frequency_ghz):
            if caught:
                raise DomainError("refused")
            calls.append(frequency_ghz)
            return original(material, frequency_ghz)

        monkeypatch.setattr(modes_module, "surface_impedance", refuses_after_restart)
        geo = make_geometry()
        k = secular_roots(geo, 1)[0]
        material = aluminum(CALIBRATED_A, gap_frequency=0.999 * geo.bare_frequency_ghz(k))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", GapStraddle)
            with pytest.raises(NoConvergence, match="left the domain") as info:
                fixed_point_eigenfrequency(k, material, geo)
        assert [w.category for w in caught] == [GapStraddle]
        assert len(info.value.residual_history) == len(calls) > 0

    @pytest.mark.parametrize("n", [16, 20, 30])
    def test_restart_toward_the_above_gap_side(self, n):
        # Iterates from the bare frequency only ever cross the gap downward;
        # a seed below the gap for an above-gap root is what restarts from
        # just above the edge.  The root must not depend on the way there.
        run = load_run_config(bundled_geometry_configs()[0])
        k = secular_roots(run.geometry, n)[-1]
        ref = fixed_point_eigenfrequency(k, run.material, run.geometry)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", GapStraddle)
            om = fixed_point_eigenfrequency(k, run.material, run.geometry, seed_ghz=86.0)
        assert [w.category for w in caught] == [GapStraddle]
        assert run.material.above_gap(ref.nu) and not run.material.above_gap(86.0)
        root, ref_c = complex(om.nu, om.kappa), complex(ref.nu, ref.kappa)
        assert abs(root - ref_c) / abs(ref_c) <= 1e-9

    def test_seed_refused_by_the_impedance_is_a_domain_error(self):
        geo = make_geometry()
        k = secular_roots(geo, 1)[0]
        with pytest.raises(DomainError, match="real frequencies only"):
            fixed_point_eigenfrequency(k, aluminum(CALIBRATED_A), geo, seed_ghz=5.0 + 1.0j)


def fd_greens_oracle(geometry, omega_ghz, j_src, n=10_000):
    """Columns of the lossless Helmholtz resolvent by a dense linear solve.

    Weak-form (hat-function) discretization of G'' + omega^2 ell_m c(x) G =
    delta(x - x_src) with Neumann ends and the lumped C_s mass at the qubit
    nodes; mirrors the discretization of :func:`conftest.fd_eigenfrequencies`.
    """
    h = geometry.length / (n - 1)
    omega = 2 * math.pi * 1e9 * omega_ghz
    main = np.full(n, 2.0 / h)
    main[0] = main[-1] = 1.0 / h
    off = np.full(n - 1, -1.0 / h)
    mass = np.full(n, h)
    mass[0] = mass[-1] = 0.5 * h
    mass *= geometry.ell_m * geometry.c_per_len
    for q in geometry.qubits:
        mass[int(round(q.position / h))] += geometry.ell_m * q.c_series
    ab = np.zeros((3, n))
    ab[0, 1:] = -off
    ab[1, :] = -main + omega**2 * mass
    ab[2, :-1] = -off
    rhs = np.zeros(n)
    rhs[j_src] = 1.0
    return solve_banded((1, 1), ab, rhs)


class TestGreensFunction:
    def test_symmetry(self):
        geo = make_geometry()
        modes = resonator_modes(geo, 40)
        al = aluminum(CALIBRATED_A)
        a = greens_function(0.002, 0.0071, 120.0, modes, al, geo)
        b = greens_function(0.0071, 0.002, 120.0, modes, al, geo)
        assert a == pytest.approx(b, rel=1e-13)

    def test_conjugation_symmetry(self):
        geo = make_geometry()
        modes = resonator_modes(geo, 40)
        al = aluminum(CALIBRATED_A)
        for om in (120.0, 120.0 + 0.3j):
            a = greens_function(0.002, 0.0071, -np.conj(om), modes, al, geo)
            b = greens_function(0.002, 0.0071, om, modes, al, geo)
            assert a == pytest.approx(np.conj(b), rel=1e-13)

    def test_lossless_real_and_pole_guard(self):
        geo = make_geometry()
        modes = resonator_modes(geo, 40)
        lossless = aluminum(0.0)
        g = greens_function(0.002, 0.0071, 20.0, modes, lossless, geo)
        assert g.imag == 0.0
        with pytest.raises(PoleProximity):
            greens_function(0.002, 0.0071, modes[3].omega_n.nu, modes, lossless, geo)

    def test_matches_dense_fd_solve(self):
        # Brute-force PDE oracle for the truncated sum: solve the lossless
        # Helmholtz problem on 10^4 points and subtract the uniform
        # zero-frequency channel psi0^2/omega^2, which belongs to the full
        # resolvent but not to the dynamical (n >= 1) mode list.
        geo = make_geometry()
        modes = resonator_modes(geo, 500)
        lossless = aluminum(0.0)
        n = 10_000
        h = geo.length / (n - 1)
        j_src = int(round(0.0071 / h))
        g_fd = fd_greens_oracle(geo, 20.0, j_src, n)
        zero_term = zero_mode_amplitude(geo) ** 2 / (2 * math.pi * 1e9 * 20.0) ** 2
        x_src = j_src * h
        for x_probe in (0.0, 0.0023, 0.005, 0.0077):
            j = int(round(x_probe / h))
            got = greens_function(j * h, x_src, 20.0, modes, lossless, geo)
            ref = g_fd[j] - zero_term
            assert abs(got - ref) / abs(ref) <= 1e-3

    def test_mode_sum_meets_the_closed_form_like_n_cubed(self):
        # The gap_00p6um line (one load C_s at x = 0, open ends) has
        # G(0, 0) = cos kL / (k sin kL + k^2 (C_s/c) cos kL), k^2 = omega^2 eps ell_m c.
        # The mode sum plus the k = 0 term Psi_0^2 / (omega^2 eps) meets it like
        # N^-3, below the gap (20, 50 GHz) and above it (120, 300 GHz).
        path = bundled_geometry_configs()[0]
        assert path.name == "gap_00p6um.yaml"
        run = load_run_config(path)
        geo, material = run.geometry, run.material
        ratio = geo.qubits[0].c_series / geo.c_per_len
        modes = {n: resonator_modes(geo, n) for n in (600, 2500)}
        for f in (20.0, 50.0, 120.0, 300.0):
            w2eps = (2 * math.pi * 1e9 * f) ** 2 * epsilon(material, geo.g_geom, geo.ell_m, f)
            k = np.sqrt(w2eps * geo.ell_m * geo.c_per_len)
            cos, sin = np.cos(k * geo.length), np.sin(k * geo.length)
            closed = cos / (k * sin + k * k * ratio * cos)
            zero_term = zero_mode_amplitude(geo) ** 2 / w2eps
            err = {n: abs(greens_function(0.0, 0.0, f, ms, material, geo) + zero_term - closed)
                   / abs(closed) for n, ms in modes.items()}
            assert err[2500] <= 2e-5
            assert err[600] / err[2500] == pytest.approx((2500 / 600) ** 3, rel=0.1)


class TestCompleteness:
    def test_eigenmode_is_reproduced(self):
        geo = make_geometry()
        modes = resonator_modes(geo, 10)
        f3 = lambda x: mode_function(modes[2], geo, x)
        assert completeness_residual(geo, modes, f3) <= 1e-10

    def test_gaussian_monotone(self):
        geo = make_geometry()
        gauss = lambda x: math.exp(-0.5 * ((x - 0.006) / 0.001) ** 2)
        residuals = [
            completeness_residual(geo, resonator_modes(geo, n), gauss) for n in (25, 50, 100)
        ]
        assert residuals[0] > residuals[1] > residuals[2]
        assert residuals[-1] <= 1e-2

    def test_constant_is_carried_by_zero_mode(self):
        geo = make_geometry()
        modes = resonator_modes(geo, 200)
        assert completeness_residual(geo, modes, lambda x: 1.0) <= 1e-3

    def test_load_point_sum_rule(self):
        # sum_{n>=0} Psi_n(0)^2, the k = 0 mode included, tends to 1/(ell_m C_s) like 1/N
        geo = make_geometry()

        def defect(n_max):
            psi = [mode_function(mode, geo, 0.0) for mode in resonator_modes(geo, n_max)]
            total = zero_mode_amplitude(geo) ** 2 + math.fsum(p * p for p in psi)
            return total * geo.ell_m * geo.qubits[0].c_series - 1.0

        d600, d2500 = defect(600), defect(2500)
        assert abs(d2500) < 0.015
        assert 2500 * d2500 == pytest.approx(600 * d600, rel=0.01)


@pytest.fixture(scope="module")
def setup():
    geo = make_geometry()
    return geo, aluminum(CALIBRATED_A), resonator_modes(geo, 400)


class TestGreensIdentity:
    def test_full_mode_list_is_exact(self, setup):
        geo, al, modes = setup
        r = greens_identity_residual(0.0023, 0.0071, 120.0, geo, al, modes)
        assert type(r) is float
        assert r <= 1e-10

    def test_truncation_tail_shrinks(self, setup):
        geo, al, modes = setup
        r = [
            greens_identity_residual(0.0023, 0.0071, 120.0, geo, al, modes, n_max=nm)
            for nm in (50, 100, 200)
        ]
        assert r[0] > r[1] > r[2]
        assert r[-1] <= 1e-2

    def test_lossless_vanishes(self, setup):
        geo, _, modes = setup
        assert greens_identity_residual(0.0023, 0.0071, 120.0, geo, aluminum(0.0), modes) == 0.0

    def test_coincident_points_give_imaginary_part(self, setup):
        # At x = x1 the right side reduces to Im G, so the identity directly
        # relates the absorbed power integral to the local density of states.
        geo, al, modes = setup
        r = greens_identity_residual(0.0023, 0.0023, 120.0, geo, al, modes)
        assert r <= 1e-10
        g = greens_function(0.0023, 0.0023, 120.0, modes, al, geo)
        assert g.imag > 0.0

    def test_domain(self, setup):
        geo, al, modes = setup
        with pytest.raises(DomainError):
            greens_identity_residual(0.0023, 0.0071, 40.0, geo, al, modes)  # below gap
        with pytest.raises(DomainError):
            greens_identity_residual(0.0023, 0.0071, 120.0, geo, al, modes, n_max=0)


class TestAgainstFdEigensolver:
    def test_end_loaded_geometry(self):
        geo = make_geometry()
        f_sec = np.array([geo.bare_frequency_ghz(k) for k in secular_roots(geo, 10)])
        f_fd = fd_eigenfrequencies(geo, 10_000, 10)
        np.testing.assert_allclose(f_sec, f_fd, rtol=1e-4)

    def test_interior_qubit(self):
        geo = bare_geometry(qubits=(QubitLoad(0.0043, 2e-14),))
        f_sec = np.array([geo.bare_frequency_ghz(k) for k in secular_roots(geo, 10)])
        f_fd = fd_eigenfrequencies(geo, 10_000, 10)
        np.testing.assert_allclose(f_sec, f_fd, rtol=1e-4)

    def test_two_symmetric_qubits(self):
        geo = bare_geometry(qubits=(QubitLoad(L / 3, 1e-14), QubitLoad(2 * L / 3, 1e-14)))
        f_sec = np.array([geo.bare_frequency_ghz(k) for k in secular_roots(geo, 10)])
        f_fd = fd_eigenfrequencies(geo, 10_000, 10)
        np.testing.assert_allclose(f_sec, f_fd, rtol=1e-4)
