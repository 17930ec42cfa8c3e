"""Elliptic-integral backend: quadrature oracle, Carlson forms, identities."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dispersive_cqed.elliptic import (
    ContourSegment,
    _branch_sign,
    _carlson,
    _complete_ke,
    _incomplete,
    carlson_rd,
    carlson_rf,
    complete_k_agm,
    contour_quadrature,
    ellip_complete_e,
    ellip_complete_k,
    ellip_incomplete_e,
    ellip_incomplete_f,
    endpoint_regularized,
)
from dispersive_cqed.errors import (
    BranchCut,
    BranchPointOnPath,
    DispersiveCqedError,
    DomainError,
    NonConvergence,
    SingularInterior,
)


def quad(f, a, b, tol=1e-12):
    val, _ = contour_quadrature(f, ContourSegment(a, b, tol=tol))
    return val


class TestContourQuadrature:
    def test_constant(self):
        assert quad(lambda z: np.ones_like(z), 0.0, 1.0) == pytest.approx(1.0)

    def test_linear_up_imaginary_axis(self):
        # antiderivative z^2/2 evaluated at i
        assert quad(lambda z: z, 0.0, 1j) == pytest.approx(-0.5)

    def test_complete_k_from_legendre_integrand(self):
        # int_0^1 dz / (sqrt(1-z^2) sqrt(1-k^2 z^2)), endpoint singularity
        # absorbed by the sine substitution, against the independent AGM value.
        k = 0.5

        def f(z):
            return 1.0 / (np.sqrt(1.0 - z * z) * np.sqrt(1.0 - k * k * z * z))

        val = quad(endpoint_regularized(f, 0.0, 1.0), -math.pi / 2, math.pi / 2)
        assert val == pytest.approx(complete_k_agm(0.5), rel=1e-11)

    def test_error_estimate_honored(self):
        val, err = contour_quadrature(
            lambda z: np.exp(z), ContourSegment(0.0, 1.0, tol=1e-10)
        )
        assert abs(val - (math.e - 1.0)) <= 10.0 * max(err, 1e-15)

    def test_budget_exhaustion_carries_best_estimate(self):
        # A 1/sqrt singularity *at* a node-free location converges; to force
        # failure use an absurdly small panel budget.
        seg = ContourSegment(0.0, 1.0, tol=1e-13, max_panels=2)

        def wiggly(z):
            return np.cos(200.0 * z.real) + 0.0j * z

        with pytest.raises(NonConvergence) as info:
            contour_quadrature(wiggly, seg)
        assert info.value.best_estimate is not None
        assert info.value.error_estimate > 0.0

    def test_interior_singularity_detected(self):
        seg = ContourSegment(-1.0, 1.0, tol=1e-10, max_panels=64)
        with pytest.raises((SingularInterior, NonConvergence)):
            contour_quadrature(lambda z: 1.0 / z, seg)

    def test_zero_length_segment_rejected(self):
        with pytest.raises(DomainError):
            ContourSegment(0.3, 0.3)

    def test_tolerance_domain(self):
        with pytest.raises(DomainError):
            ContourSegment(0.0, 1.0, tol=0.5)


class TestCarlson:
    def test_rf_equal_arguments(self):
        # R_F(x, x, x) = x^{-1/2}
        assert carlson_rf(1.0, 1.0, 1.0) == pytest.approx(1.0, rel=1e-14)
        assert carlson_rf(4.0, 4.0, 4.0) == pytest.approx(0.5, rel=1e-14)

    def test_rf_complete_k_zero_modulus(self):
        assert carlson_rf(0.0, 1.0, 1.0) == pytest.approx(math.pi / 2, rel=1e-14)

    def test_rf_complete_k_half(self):
        assert carlson_rf(0.0, 0.75, 1.0) == pytest.approx(
            complete_k_agm(0.5), rel=1e-13
        )

    def test_rf_two_zeros_rejected(self):
        with pytest.raises(DomainError):
            carlson_rf(0.0, 0.0, 1.0)

    # Principal-branch values on the negative real axis, frozen from the
    # numpy.sqrt implementation of the duplication step.  The sign of a zero
    # imaginary part selects the side of the cut (C99 csqrt), so the +0.0 and
    # -0.0 arguments give complex-conjugate values.
    SIGNED_ZERO_CASES = [
        (carlson_rf, (complex(-1.0, 0.0), 1.0, 2.0),
         1.0010773804561064 - 0.48633426751333375j),
        (carlson_rf, (0.0, complex(-1.0, 0.0), 1.0),
         1.3110287771460598 - 1.3110287771460598j),
        (carlson_rf, (0.0, complex(-1.0, -0.0), 1.0),
         1.3110287771460598 + 1.3110287771460598j),
        (carlson_rf, (complex(-0.25, -0.0), 2.0, 1.0),
         1.206444996991059 + 0.31531167583526754j),
        (carlson_rf, (complex(-3.0, 0.0), 1.0, 2.0),
         0.7422062367111932 - 0.5499964467091224j),
        (carlson_rd, (complex(-1.0, 0.0), 1.0, 2.0),
         0.5258534451050891 - 0.5659421438326727j),
        (carlson_rd, (0.0, complex(-1.0, 0.0), 1.0),
         1.0679379896673957 - 2.8651483417707837j),
        (carlson_rd, (0.0, complex(-1.0, -0.0), 1.0),
         1.0679379896673957 + 2.8651483417707837j),
        (carlson_rd, (complex(-0.25, -0.0), 2.0, 1.0),
         1.341839185466762 + 0.8170566276366448j),
        (carlson_rd, (complex(-3.0, 0.0), 1.0, 2.0),
         0.22886854366397413 - 0.4839940778705689j),
    ]

    @pytest.mark.parametrize("fn, args, frozen", SIGNED_ZERO_CASES)
    def test_signed_zero_branch_on_negative_axis(self, fn, args, frozen):
        got = fn(*args)
        assert math.copysign(1.0, got.imag) == math.copysign(1.0, frozen.imag)
        assert abs(got - frozen) <= 1e-15 * abs(frozen)

    def test_rf_homogeneity(self):
        # R_F(tx, ty, tz) = R_F(x,y,z)/sqrt(t)
        x, y, z = 0.3 + 0.2j, 1.1, 2.0 - 0.5j
        t = 3.7
        assert carlson_rf(t * x, t * y, t * z) == pytest.approx(
            carlson_rf(x, y, z) / math.sqrt(t), rel=1e-12
        )


def _from_hex(pair) -> complex:
    return complex(float.fromhex(pair[0]), float.fromhex(pair[1]))


class TestFrozenPairs:
    """R_F and R_D to the bit on triples frozen in tests/golden/carlson_pairs.json.

    The triples cover (0, kc2, 1) with kc2 -> 0, the sigma_tilde arguments of
    every bundled config, signed zeros on the negative axis and a vanishing
    argument (generator: tests/golden/make_golden.py).
    """

    ROWS = json.loads((Path(__file__).parent / "golden" / "carlson_pairs.json").read_text())

    def test_scalar_calls(self):
        assert len(self.ROWS) >= 40
        for row in self.ROWS:
            args = [_from_hex(a) for a in row["args"]]
            for fn, key in ((carlson_rf, "rf"), (carlson_rd, "rd")):
                got = fn(*args)
                assert got == _from_hex(row[key]), (fn.__name__, args)
                assert [got.real.hex(), got.imag.hex()] == row[key], (fn.__name__, args)

    def test_real_subset_as_arrays(self):
        real = [row for row in self.ROWS
                if all(_from_hex(a).imag == 0.0 and _from_hex(a).real >= 0.0 for a in row["args"])]
        assert len(real) >= 10
        x, y, z = (np.array([_from_hex(row["args"][j]).real for row in real]) for j in range(3))
        for fn, key in ((carlson_rf, "rf"), (carlson_rd, "rd")):
            got = fn(x, y, z)
            want = [_from_hex(row[key]) for row in real]
            assert all(w.imag == 0.0 for w in want)
            assert list(got) == [w.real for w in want], fn.__name__


class TestComplete:
    def test_degenerate_modulus(self):
        assert ellip_complete_k(0.0) == pytest.approx(math.pi / 2, rel=1e-14)
        assert ellip_complete_e(0.0) == pytest.approx(math.pi / 2, rel=1e-14)
        assert ellip_complete_e(1.0) == pytest.approx(1.0, rel=1e-12)

    def test_branch_cut_rejected(self):
        for k in (1.0, 1.5, -2.0):
            with pytest.raises(DomainError):
                ellip_complete_k(k)

    def test_complex_modulus_against_quadrature(self):
        # Frozen from the trigonometric defining integral (1e-13 quadrature);
        # AGM agrees to the same digits.
        k = 0.3 + 0.1j
        expected = 1.602765845454705 + 0.02583228227136122j
        assert ellip_complete_k(k) == pytest.approx(expected, rel=1e-12)
        assert complete_k_agm(k) == pytest.approx(expected, rel=1e-12)

    def test_legendre_relation(self):
        # E K' + E' K - K K' = pi/2, a joint consistency check of E and K.
        for k in (0.3, 0.7, 0.2 + 0.4j, 0.85 - 0.1j):
            kp = np.sqrt(1.0 - complex(k) ** 2)
            lhs = (
                ellip_complete_e(k) * ellip_complete_k(kp)
                + ellip_complete_e(kp) * ellip_complete_k(k)
                - ellip_complete_k(k) * ellip_complete_k(kp)
            )
            assert lhs == pytest.approx(math.pi / 2, rel=1e-10)

    @given(
        st.complex_numbers(max_magnitude=0.9, allow_nan=False, allow_infinity=False)
    )
    @settings(max_examples=60, deadline=None)
    def test_agm_and_carlson_agree(self, k):
        k2 = complex(k) ** 2
        if k2.imag == 0.0 and k2.real >= 1.0:
            return
        assert ellip_complete_k(k) == pytest.approx(complete_k_agm(k), rel=1e-11)


class TestSharedPairs:
    """The one-R_F pair helpers return exactly what the public functions do."""

    # k = 0, real and complex moduli, k near 1, and points on the cut
    # k^2 in [1, inf) that the public K rejects.
    MODULI = [0.0, 0.0j, 1e-8, 0.5, -0.7, 0.99999, 0.3 + 0.1j, 0.85 - 0.1j,
              2j, 1.0, -1.0, 1.5, -2.0]

    def test_complete_pair_equals_public(self):
        for k in self.MODULI:
            try:
                want_k = ellip_complete_k(k)
            except DomainError:
                with pytest.raises(DomainError):
                    _complete_ke(k)
                continue
            got_k, got_e = _complete_ke(k)
            assert got_k == want_k
            assert got_e == ellip_complete_e(k)

    def test_incomplete_pair_equals_public(self):
        # Includes a path whose first-kind value needs the full-quadrature
        # fallback (k = 0 with Im z^2 < 0), a terminal branch point, paths
        # through a branch point and moduli on the complete integrals' cut.
        amplitudes = [0.0, 0.3 - 0.4j, 0.6 + 0.2j, 0.5j, 0.9, 1.0, -0.4 + 0.7j]
        for k in self.MODULI:
            for z in amplitudes:
                try:
                    want = (ellip_incomplete_f(z, k), ellip_incomplete_e(z, k))
                except DispersiveCqedError as exc:
                    with pytest.raises(type(exc)):
                        _incomplete(z, k, "auto", True, True)
                    continue
                assert _incomplete(z, k, "auto", True, True) == want
                assert _incomplete(z, k, "auto", True, False) == (want[0], None)
                assert _incomplete(z, k, "auto", False, True) == (None, want[1])

    @given(st.tuples(*[st.builds(complex, st.floats(-5.0, 5.0), st.floats(-5.0, 5.0))] * 3))
    @settings(max_examples=200, deadline=None)
    def test_one_loop_pair_equals_the_single_integrals(self, args):
        # Each result is frozen where its own stopping rule fires, so the
        # pair equals R_F and R_D run alone, signed zeros included.
        try:
            want = (carlson_rf(*args), carlson_rd(*args))
        except DomainError:
            with pytest.raises(DomainError):
                _carlson(*args, True, True)
            return
        got = _carlson(*args, True, True)
        assert [(v.real.hex(), v.imag.hex()) for v in got] == [
            (v.real.hex(), v.imag.hex()) for v in want
        ]

    def test_underflowing_steps_raise_on_both_paths(self):
        # R_D(0, 1e-67, 2e-313) overflows: a duplication step divides by a
        # product that underflows to zero.  R_F at the smallest subnormal
        # steps its mean down to zero.  Scalars and arrays both raise.
        for fn, args in ((carlson_rd, (0.0, 1.033459544339372e-67, 2.2250738585e-313)),
                         (carlson_rf, (0.0, 5e-324, 5e-324))):
            with pytest.raises(DomainError, match="underflow"):
                fn(*args)
            with pytest.raises(DomainError, match="underflow"):
                fn(*(np.array([v]) for v in args))


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


class TestIncomplete:
    def test_zero_amplitude(self):
        for k in (0.0, 0.5, 0.3 - 0.2j):
            assert ellip_incomplete_f(0.0, k) == 0.0
            assert ellip_incomplete_e(0.0, k) == 0.0

    def test_tiny_amplitude(self):
        # |z|^2 underflows to zero; the path guard must still measure the
        # path, and both integrals reduce to their small-z limits -z and z.
        for z in (2.2250738585072014e-308j, 1e-200 + 1e-200j):
            for k in (0.0, 0.5, 0.3 - 0.2j):
                assert ellip_incomplete_f(z, k) == pytest.approx(-z, rel=1e-12)
                assert ellip_incomplete_e(z, k) == pytest.approx(z, rel=1e-12)

    def test_degenerate_modulus_first_kind(self):
        # k=0: the literal integrand keeps the sqrt(k^2 x^2 - 1) -> sqrt(-1)
        # = +i factor, and sqrt(x^2-1) = +-i sqrt(1-x^2) with the sign set by
        # the half-plane of x^2.  The product collapses to -+1/sqrt(1-x^2),
        # so F(z;0) = -arcsin(z) for Im(z^2) >= 0 and +arcsin(z) otherwise.
        rng = np.random.default_rng(7)
        for _ in range(20):
            z = complex(*rng.uniform(-0.7, 0.7, 2))
            sign = -1.0 if (z * z).imag >= 0.0 else 1.0
            want = sign * np.arcsin(complex(z))
            assert ellip_incomplete_f(z, 0.0) == pytest.approx(want, rel=1e-9)

    def test_degenerate_modulus_second_kind(self):
        # k=0: integrand 1/sqrt(1-x^2), antiderivative arcsin(z).
        rng = np.random.default_rng(11)
        for _ in range(20):
            z = complex(*rng.uniform(-0.7, 0.7, 2))
            assert ellip_incomplete_e(z, 0.0) == pytest.approx(
                np.arcsin(complex(z)), rel=1e-9
            )

    def test_oracle_equivalence_sample(self):
        # Fast path vs defining quadrature on a pseudo-random admissible set;
        # the full 200-point suite runs in the acceptance tests.
        rng = np.random.default_rng(2024)
        checked = 0
        while checked < 40:
            z = complex(*rng.uniform(-0.9, 0.9, 2))
            k = complex(*rng.uniform(-0.6, 0.6, 2))
            if abs(z) < 0.05 or not _admissible(z, k):
                continue
            for fn in (ellip_incomplete_f, ellip_incomplete_e):
                fast = fn(z, k)
                slow = fn(z, k, method="quadrature")
                assert abs(fast - slow) <= 1e-9 * max(1.0, abs(slow))
            checked += 1

    def test_terminal_branch_point_admissible(self):
        # z = 1 is a branch point of the first-kind integrand but the
        # singularity is integrable; quadrature and fast path must agree.
        val = ellip_incomplete_f(1.0, 0.5)
        ref = ellip_incomplete_f(1.0, 0.5, method="quadrature")
        assert val == pytest.approx(ref, rel=1e-9)

    def test_branch_point_on_path_rejected(self):
        with pytest.raises(BranchPointOnPath):
            ellip_incomplete_f(1.7, 0.5)  # path crosses x = 1
        with pytest.raises(BranchPointOnPath):
            ellip_incomplete_e(3.0, 0.5)  # path crosses x = 1 and x = 2

    @pytest.mark.parametrize("z, k", [(1.0 + 2.2e-16j, 0.0), (1.0 + 2.2e-308j, 1.0),
                                      (1.0 - 1e-10, 0.5)])
    def test_end_point_next_to_a_branch_point_refused_by_quadrature(self, z, k):
        # Within the guard's 1e-9 of a branch point but not on it, the
        # quadrature cannot resolve the integrand: it was off by 2.1e-8 at
        # (1 + 2.2e-16j, 0), and returned 1.2e291 at (1 + 2.2e-308j, 1).
        # Where a sign can be read, the Carlson form still answers.
        for fn in (ellip_incomplete_f, ellip_incomplete_e):
            with pytest.raises(BranchPointOnPath):
                fn(z, k, method="quadrature")
            if (complex(z) ** 2).imag != 0.0:
                assert math.isfinite(abs(fn(z, k)))
            else:
                with pytest.raises(BranchPointOnPath):
                    fn(z, k)

    # (modulus, branch point, |z|): end points whose open path passes a
    # branch point at a chosen distance, on the real axis and off it.
    _GRAZED = [(0.5, 1.0, 1.5), (0.8j, 1.0 / 0.8j, 2.0)]

    @staticmethod
    def _grazing_end_point(bp: complex, radius: float, distance: float) -> complex:
        """z with |z| = radius whose path 0 -> z passes bp at the signed distance."""
        return radius * bp / abs(bp) * complex(math.sqrt(1.0 - distance**2), distance)

    @pytest.mark.parametrize("distance", [1e-8, -1e-8, 1e-7, 1e-6])
    @pytest.mark.parametrize("k, bp, radius", _GRAZED)
    def test_carlson_next_to_a_branch_point_matches_quadrature(self, k, bp, radius, distance):
        # Outside the guard's 1e-9 the quadrature resolves the near-singular
        # integrand, and the Carlson form, which needs no path, agrees.
        z = self._grazing_end_point(bp, radius, distance)
        for fn in (ellip_incomplete_f, ellip_incomplete_e):
            want = fn(z, k, method="quadrature")
            assert abs(fn(z, k) - want) <= 1e-11 * abs(want)

    @pytest.mark.parametrize("k, bp, radius, distance",
                             [(*_GRAZED[0], 1e-10), (*_GRAZED[1], -1e-12)])
    def test_carlson_within_the_guard_matches_mpmath(self, k, bp, radius, distance):
        # Within 1e-9 of the open path the quadrature refuses, but the
        # Carlson form answers; a 50-digit quadrature split at the point of
        # the path nearest the branch point is the oracle.
        mpmath = pytest.importorskip("mpmath")
        z = self._grazing_end_point(bp, radius, distance)
        zm, km = mpmath.mpc(z), mpmath.mpc(k)
        integrands = (
            (ellip_incomplete_f,
             lambda x: 1 / (mpmath.sqrt(x * x - 1) * mpmath.sqrt(km * km * x * x - 1))),
            (ellip_incomplete_e, lambda x: mpmath.sqrt(1 - km * km * x * x) / mpmath.sqrt(1 - x * x)),
        )
        nearest = (complex(bp) * z.conjugate()).real / abs(z) ** 2
        with mpmath.workdps(50):
            for fn, integrand in integrands:
                with pytest.raises(BranchPointOnPath):
                    fn(z, k, method="quadrature")
                want = complex(mpmath.quad(lambda t: integrand(t * zm) * zm, [0, nearest, 1]))
                assert abs(fn(z, k) - want) <= 1e-14 * abs(want)

    def test_relation_to_legendre_form_at_unit_amplitude(self):
        # First kind in this convention vs the Legendre integrand differ by
        # the constant factor (sqrt(x^2-1) = i sqrt(1-x^2), sqrt(k^2x^2-1) =
        # i sqrt(1-k^2x^2) on (0,1)): product of two principal i's gives -1.
        k = 0.5

        def legendre(x):
            return 1.0 / (np.sqrt(1.0 - x * x) * np.sqrt(1.0 - k * k * x * x))

        leg = quad(
            endpoint_regularized(legendre, 0.0, 1.0), -math.pi / 2, math.pi / 2
        )
        ours = ellip_incomplete_f(1.0, k)
        assert ours == pytest.approx(-leg, rel=1e-9)
        # ratio frozen: the branch factor is exactly -1 on this segment
        assert ours / leg == pytest.approx(-1.0, rel=1e-9)

    def test_path_splitting(self):
        rng = np.random.default_rng(5)
        done = 0
        while done < 10:
            z = complex(*rng.uniform(-0.8, 0.8, 2))
            k = complex(*rng.uniform(-0.5, 0.5, 2))
            if abs(z) < 0.1 or not _admissible(z, k):
                continue
            whole = ellip_incomplete_f(z, k, method="quadrature")
            seg1, _ = contour_quadrature(
                lambda x, k=k: 1.0
                / (np.sqrt(x * x - 1.0) * np.sqrt(k * k * x * x - 1.0)),
                ContourSegment(0.0, z / 2.0, tol=1e-12),
            )
            seg2, _ = contour_quadrature(
                lambda x, k=k: 1.0
                / (np.sqrt(x * x - 1.0) * np.sqrt(k * k * x * x - 1.0)),
                ContourSegment(z / 2.0, z, tol=1e-12),
            )
            assert abs(whole - (seg1 + seg2)) <= 1e-11 * max(1.0, abs(whole))
            done += 1

    @given(
        st.complex_numbers(max_magnitude=0.8, allow_nan=False, allow_infinity=False),
        st.complex_numbers(max_magnitude=0.6, allow_nan=False, allow_infinity=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_conjugation_symmetry(self, z, k):
        # Schwarz reflection of the pointwise-principal integrand; holds off
        # the square-root cuts.  A path *on* a cut (x^2 or (k x)^2 real along
        # the ray) pins the principal value to one side for both the original
        # and the conjugated arguments, so those loci are excluded.
        z, k = complex(z), complex(k)
        if abs(z) < 0.05 or not _admissible(z, k) or not _admissible(z.conjugate(), k.conjugate()):
            return
        if abs((z * z).imag) < 1e-3 or abs(((k * z) ** 2).imag) < 1e-3:
            return
        for fn in (ellip_incomplete_f, ellip_incomplete_e):
            a = fn(z.conjugate(), k.conjugate())
            b = fn(z, k)
            assert a == pytest.approx(b.conjugate(), rel=1e-9, abs=1e-12)

    def test_conjugation_symmetry_complete(self):
        for k in (0.3 + 0.2j, 0.7 - 0.1j):
            assert ellip_complete_k(k.conjugate()) == pytest.approx(
                ellip_complete_k(k).conjugate(), rel=1e-12
            )
            assert ellip_complete_e(k.conjugate()) == pytest.approx(
                ellip_complete_e(k).conjugate(), rel=1e-12
            )


class TestCarlsonArrays:
    """Float64 arrays take masked duplication steps; each element is the scalar call."""

    # zeros, tiny and huge arguments, equal arguments (no step taken) and the
    # (0, p, 1) / (0, 1 - p, 1) pairs of the real-axis conductivity
    P = np.array([1e-300, 1e-26, 1e-12, 0.3, 0.5, 0.999999, 1.0 - 1e-16])
    CASES = [
        (np.zeros(7), P, np.ones(7)),
        (np.zeros(7), 1.0 - P, np.ones(7)),
        (np.array([1.0, 4.0, 2.5]), np.array([1.0, 4.0, 2.5]), np.array([1.0, 4.0, 2.5])),
        (np.array([1e-20, 3.0, 1e12, 0.0]), np.array([2.0, 1e-8, 1.0, 7.0]), 0.25),
        # steps through [DBL_MIN, 8 DBL_MIN), where cmath.sqrt rounds differently
        # from a correctly rounded root; R_D underflows there on both paths
        (np.array([0.0]), np.array([2.0500503007628048e-306]), np.array([1e-310])),
    ]

    @pytest.mark.parametrize("fn", [carlson_rf, carlson_rd])
    @pytest.mark.parametrize("x, y, z", CASES)
    def test_elementwise_equal_to_scalar(self, fn, x, y, z):
        elements = list(zip(*(a.tolist() for a in np.broadcast_arrays(x, y, z))))
        try:
            want = [fn(*element) for element in elements]
        except DomainError:
            with pytest.raises(DomainError):
                fn(x, y, z)
            return
        got = fn(x, y, z)
        assert got.dtype == np.float64 and got.shape == (len(elements),)
        for g, w in zip(got.tolist(), want):
            assert w.imag == 0.0
            assert g == w.real

    @given(st.lists(st.tuples(*[st.floats(0.0, 1e6)] * 3), min_size=1, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_random_arrays_equal_scalar(self, triples):
        x, y, z = (np.array(c) for c in zip(*triples))
        for fn in (carlson_rf, carlson_rd):
            try:
                got = fn(x, y, z)
            except DomainError:
                # some element has too many vanishing arguments; so does its scalar call
                with pytest.raises(DomainError):
                    for t in triples:
                        fn(*t)
                continue
            assert list(got) == [fn(*t).real for t in triples]

    @pytest.mark.parametrize("fn", [carlson_rf, carlson_rd])
    def test_complex_or_negative_arrays_rejected(self, fn):
        ones = np.ones(3)
        for bad in (ones + 0j, np.array([1.0, -0.5, 2.0]), np.array([1.0, np.nan, 2.0]),
                    np.array([1.0, np.inf, 2.0])):
            with pytest.raises(DomainError):
                fn(bad, ones, ones)
            with pytest.raises(DomainError):
                fn(0.0, bad, 1.0)

    def test_vanishing_arguments_rejected_per_element(self):
        with pytest.raises(DomainError):
            carlson_rf(np.array([0.0, 1.0]), np.array([0.0, 1.0]), 1.0)
        with pytest.raises(DomainError):
            carlson_rd(np.array([0.5, 1.0]), 1.0, np.array([1.0, 0.0]))
        with pytest.raises(DomainError):
            carlson_rd(np.array([0.0, 1.0]), np.array([0.0, 1.0]), 1.0)


# Components for the branch-rule property: generic values, signed zeros, and
# offsets of 1e-12 that put Im z^2 or Im k^2 z^2 just off zero, i.e. the end
# points 1 - z^2 and 1 - k^2 z^2 within about 1e-12 of the real axis.
_COMPONENT = st.one_of(
    st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 1e-12, -1e-12, 0.5, -0.5, 1.0, -1.0, 1.0 + 1e-12]),
)
_COMPLEX = st.builds(complex, _COMPONENT, _COMPONENT)


class TestBranchRule:
    """``method="auto"`` against the quadrature oracle, and what it does not do."""

    @given(_COMPLEX, _COMPLEX)
    @settings(max_examples=150, deadline=None)
    def test_auto_equals_quadrature(self, z, k):
        # Near k^2 = 1 the branch points 1 and 1/k coalesce; a path ending
        # there has a non-integrable end point and no oracle value.
        assume(abs(k * k - 1.0) > 1e-6)
        # An end point within the path guard's tolerance of a branch point,
        # but not on it, is integrated by the oracle up to the branch point
        # itself, which is accurate only to about the root of the distance.
        branch_points = [1.0, -1.0] + ([1.0 / k, -1.0 / k] if k != 0 else [])
        assume(all(z == b or abs(z - b) > 1e-9 * max(1.0, abs(z)) for b in branch_points))
        for fn in (ellip_incomplete_f, ellip_incomplete_e):
            slack = 0.0
            try:
                want = fn(z, k, method="quadrature")
            except BranchCut:
                with pytest.raises(BranchCut):
                    fn(z, k)
                continue
            except BranchPointOnPath:
                # Only quadrature needs a path: where a sign can be read the
                # Carlson form answers, elsewhere auto integrates and refuses too.
                if _branch_sign(z, k) != 0:
                    assert math.isfinite(abs(fn(z, k)))
                else:
                    with pytest.raises(BranchPointOnPath):
                        fn(z, k)
                continue
            except NonConvergence as exc:
                # an end point within 1e-12 of a branch point, or an integrand
                # whose sign flips with the rounding of a zero Im x^2: the
                # oracle's best estimate, to its own error bound
                want, slack = exc.best_estimate, 10.0 * exc.error_estimate
            except SingularInterior:
                continue  # a node landed on the singularity: no oracle value
            try:
                got = fn(z, k)
            except NonConvergence:
                assert slack > 0.0  # the same quadrature, where the rule cannot decide
                continue
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want)) + slack

    @pytest.mark.parametrize("z, k", [
        (0.3 + 1e-12j, 0.5), (0.3 - 1e-12j, 0.5), (0.6 + 0.2j, 0.5 - 1e-12j),
        (0.6 + 0.2j, 0.5 + 1e-12j), (1e-12 + 0.7j, 0.4), (-1e-12 + 0.7j, 0.4),
        (0.4 + 0.3j, 0.0), (0.4 - 0.3j, 0.0), (0.4 - 0.3j, -0.0j),
    ])
    def test_sign_flips_match_quadrature(self, z, k):
        # Both signs occur next to the lines where Im z^2 or Im k^2 z^2 vanishes.
        for fn in (ellip_incomplete_f, ellip_incomplete_e):
            want = fn(z, k, method="quadrature")
            assert abs(fn(z, k) - want) <= 1e-9 * max(1.0, abs(want))

    @pytest.mark.parametrize("z, k", [
        (0.5, 0.3), (complex(0.5, -0.0), 0.3), (0.5j, 0.3), (0.3 + 0.3j, 1.0 - 1.0j),
        (1.0, 0.5),
    ])
    def test_unreadable_sign_falls_back_to_quadrature(self, monkeypatch, z, k):
        # Im z^2 = 0, or Im k^2 z^2 = 0 with k != 0 (here k^2 z^2 = 0.36):
        # the outcome is the oracle's, bit for bit.  At (0.3+0.3j, 1-1j)
        # k^2 x^2 - 1 is real and negative along the whole path, on the cut of
        # the first-kind integrand's root, whose sign then follows the rounding
        # of Im k^2 x^2 = 0 from node to node: both methods raise BranchCut
        # before integrating a panel (the second kind is not on a cut there).
        import dispersive_cqed.elliptic as elliptic_module

        panels = []
        original = elliptic_module._gk15_panel

        def counted(*args):
            panels.append(args[1:])
            return original(*args)

        monkeypatch.setattr(elliptic_module, "_gk15_panel", counted)

        def outcome(fn, *args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except DispersiveCqedError as exc:
                return type(exc)

        for fn in (ellip_incomplete_f, ellip_incomplete_e):
            assert outcome(fn, z, k) == outcome(fn, z, k, method="quadrature")
        assert outcome(_incomplete, z, k, "auto", True, True) == outcome(
            lambda: (ellip_incomplete_f(z, k), ellip_incomplete_e(z, k))
        )
        if k != 0 and (z * z).imag != 0.0:
            panels.clear()
            for method in ("auto", "quadrature"):
                assert outcome(ellip_incomplete_f, z, k, method=method) is BranchCut
                assert outcome(_incomplete, z, k, method, True, True) is BranchCut
            assert panels == []

    @pytest.mark.parametrize("z, k", [(0.6 + 0.2j, 0.5), (0.5, 0.3), (0.4 - 0.3j, 0.0)])
    def test_one_kind_asked_evaluates_only_that_kind(self, monkeypatch, z, k):
        # A first-kind call runs no R_D and no second-kind quadrature, on the
        # Carlson path and on the quadrature fallback (Im z^2 = 0 at z = 0.5).
        import dispersive_cqed.elliptic as elliptic_module

        rd_asked = []
        original = elliptic_module._carlson

        def recorded(x, y, z_, rf, rd):
            rd_asked.append(rd)
            return original(x, y, z_, rf, rd)

        def refused(k):
            raise AssertionError("second-kind integrand built for a first-kind call")

        want = ellip_incomplete_f(z, k)
        monkeypatch.setattr(elliptic_module, "_carlson", recorded)
        monkeypatch.setattr(elliptic_module, "_defining_e_integrand", refused)
        assert ellip_incomplete_f(z, k) == want
        assert not any(rd_asked)

    def test_carlson_method_is_gone(self):
        for fn in (ellip_incomplete_f, ellip_incomplete_e):
            with pytest.raises(DomainError, match="unknown method"):
                fn(0.6 + 0.2j, 0.5, method="carlson")

    def test_sigma_tilde_makes_no_quadrature_call(self, monkeypatch):
        # Above the gap at kappa > 0 every incomplete integral is decided by
        # the rule; no contour quadrature runs (no probe, no fallback).
        import dispersive_cqed.elliptic as elliptic_module
        from dispersive_cqed.mattis_bardeen import ComplexFreq, sigma_tilde

        calls = []
        original = elliptic_module.contour_quadrature

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(elliptic_module, "contour_quadrature", counted)
        for nu, kap in ((2.5, 0.01), (4.0, 0.3), (10.0, 1e-6), (2.0001, 0.5)):
            assert math.isfinite(abs(sigma_tilde(ComplexFreq(nu, kap))))
        assert calls == []
