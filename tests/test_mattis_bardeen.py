"""Pair-breaking conductivity: closed form vs quadrature oracle, limits, moduli."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad as scipy_quad

import dispersive_cqed.elliptic as elliptic
import dispersive_cqed.mattis_bardeen as mattis_bardeen
from dispersive_cqed.elliptic import (
    complete_k_agm,
    ellip_complete_k,
    ellip_incomplete_e,
    ellip_incomplete_f,
)
from dispersive_cqed.errors import DomainError, GapSingularity
from dispersive_cqed.impedance import aluminum, surface_impedance
from dispersive_cqed.mattis_bardeen import (
    ComplexFreq,
    _sigma2_continued,
    _sigma_real_axis_grid,
    moduli,
    sigma_oracle,
    sigma_real_axis,
    sigma_tilde,
)


class TestComplexFreq:
    def test_rejects_nonpositive_nu(self):
        with pytest.raises(DomainError):
            ComplexFreq(0.0, 0.1)
        with pytest.raises(DomainError):
            ComplexFreq(-1.0)

    def test_rejects_negative_kappa(self):
        with pytest.raises(DomainError):
            ComplexFreq(3.0, -0.1)

    def test_rejects_nonfinite(self):
        with pytest.raises(DomainError):
            ComplexFreq(math.inf)


class TestModuli:
    def test_real_axis_reference_point(self):
        m = moduli(ComplexFreq(4.0, 0.0))
        assert m.k == pytest.approx(1.0 / 3.0, rel=1e-14)

    def test_modulus_vanishes_at_gap_edge(self):
        m = moduli(ComplexFreq(2.0 + 1e-3, 0.0))
        assert abs(m.k) < 3e-4

    def test_complementary_consistency(self):
        for nu, kap in ((2.5, 0.0), (4.0, 0.1), (10.0, 0.5), (2.1, 0.05)):
            m = moduli(ComplexFreq(nu, kap))
            assert abs(m.k_prime**2 + m.k**2 - 1.0) <= 1e-12

    def test_conjugation_of_defining_ratios(self):
        # k built from w = nu - i*kappa; flipping the sign of kappa in the
        # defining ratio must conjugate k.  Computed directly from the ratio
        # since ComplexFreq forbids negative kappa.
        nu, kap = 4.0, 0.1
        m = moduli(ComplexFreq(nu, kap))
        w_flipped = complex(nu, kap)  # nu - i*(-kappa)
        k_flipped = (w_flipped - 2.0) / (w_flipped + 2.0)
        assert k_flipped == pytest.approx(m.k.conjugate(), rel=1e-14)

    def test_gap_guard(self):
        with pytest.raises(GapSingularity):
            moduli(ComplexFreq(2.0 + 1e-8, 1e-9))

    def test_unit_modulus_product(self):
        m = moduli(ComplexFreq(3.0, 0.2))
        assert abs(m.k1 * m.k) == pytest.approx(1.0, rel=1e-14)


class TestRealAxis:
    def test_no_dissipation_below_gap(self):
        for nu in (0.25, 1.0, 1.9):
            assert sigma_real_axis(nu).real == 0.0

    def test_below_gap_reactive_part_vs_scipy(self):
        # Independent route: scipy adaptive quadrature of the textbook
        # below-gap kernel (E(E+nu)+1)/(sqrt(1-E^2) sqrt((E+nu)^2-1)).
        nu = 0.5

        def kernel(E):
            return (E * (E + nu) + 1.0) / (
                math.sqrt(1.0 - E * E) * math.sqrt((E + nu) ** 2 - 1.0)
            )

        want, err = scipy_quad(kernel, 1.0 - nu, 1.0, limit=200)
        want /= nu
        assert err < 1e-8
        assert -sigma_real_axis(0.5).imag == pytest.approx(want, rel=1e-9)
        # frozen value for regression
        assert -sigma_real_axis(0.5).imag == pytest.approx(6.183829024, rel=1e-9)

    def test_above_gap_value_vs_oracle(self):
        got = sigma_real_axis(4.0)
        ref = sigma_oracle(ComplexFreq(4.0, 0.0), tol=1e-11)
        assert got == pytest.approx(ref, rel=1e-9)
        assert got.real == pytest.approx(0.6719271156935, rel=1e-10)

    def test_oracle_equals_real_axis_just_above_gap(self):
        assert sigma_oracle(ComplexFreq(2.1, 0.0)) == pytest.approx(
            sigma_real_axis(2.1), rel=1e-8
        )

    def test_below_gap_closed_form_vs_kernel_quadrature(self):
        # The complete-integral sigma2 against its oracle, the below-gap
        # kernel integral, from deep below the gap up to the edge.
        grid = list(np.geomspace(0.002, 1.9, 25)) + [1.99, 1.999, 1.9999]
        for nu in grid:
            want = _sigma2_continued(complex(nu, 0.0)).real
            assert -sigma_real_axis(float(nu)).imag == pytest.approx(want, rel=1e-10)

    def test_gap_edge_exact_limit(self):
        assert sigma_real_axis(2.0) == -1j
        # both sides approach sigma = -i continuously
        for nu in (2.0 - 1e-9, 2.0 + 1e-9):
            assert sigma_real_axis(nu) == pytest.approx(-1j, abs=1e-7)

    def test_low_frequency_london_limit(self):
        # sigma2 -> pi/nu as nu -> 0; the kernel quadrature could not get here.
        for nu in (1e-4, 1e-3):
            sig = sigma_real_axis(nu)
            assert sig.real == 0.0
            assert -sig.imag * nu / math.pi == pytest.approx(1.0, abs=1e-6)

    def test_normal_state_limit(self):
        assert sigma_real_axis(100.0).real == pytest.approx(1.0, abs=0.02)

    def test_positivity_of_dissipative_part(self):
        for nu in np.linspace(2.05, 40.0, 25):
            assert sigma_real_axis(float(nu)).real >= 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            sigma_real_axis(-2.0)
        with pytest.raises(DomainError):
            sigma_real_axis(float("nan"))

    def test_grid_equals_scalar_bit_for_bit(self):
        # One array evaluation against per-point calls, across the gap: the
        # edge itself, one ulp-scale step to either side, and both far ends.
        nu = np.concatenate([
            [2.0, 2.0 + 1e-12, 2.0 - 1e-12, np.nextafter(2.0, 3.0), np.nextafter(2.0, 1.0),
             1e-4, 1e4],
            np.linspace(0.01, 6.0, 601),
            np.geomspace(2.001, 1e3, 200),
        ])
        sig1, sig2 = _sigma_real_axis_grid(nu)
        for v, s1, s2 in zip(nu, sig1, sig2):
            want = sigma_real_axis(float(v))
            assert (s1, s2) == (want.real, -want.imag)

    def test_grid_domain(self):
        for bad in ([1.0, 0.0], [3.0, -1.0], [3.0, np.nan], [np.inf]):
            with pytest.raises(DomainError):
                _sigma_real_axis_grid(np.array(bad))


class TestOracle:
    def test_requires_above_gap(self):
        with pytest.raises(DomainError):
            sigma_oracle(ComplexFreq(1.5, 0.1))

    def test_two_tolerance_self_consistency(self):
        # The oracle is its own referee: refining the tolerance must not move
        # the value.  Frozen values guard against silent regressions.
        a = sigma_oracle(ComplexFreq(6.0, 0.5), tol=1e-9)
        b = sigma_oracle(ComplexFreq(6.0, 0.5), tol=1e-11)
        assert abs(a - b) / abs(b) <= 1e-8
        assert a == pytest.approx(0.9585308404705 + 0.0511169009443j, rel=1e-9)
        a = sigma_oracle(ComplexFreq(4.0, 0.2), tol=1e-9)
        assert a == pytest.approx(0.8181042394520 - 0.0790631819884j, rel=1e-9)

    def test_dropped_tail_grows_with_linewidth(self):
        # The closed form discards a semi-infinite kernel-difference
        # correction.  It is not uniformly negligible: its relative size
        # grows monotonically with the linewidth and is already ~0.6% by
        # kappa = 1e-4.  Tests that compare the closed form against the
        # oracle rely on the *default* oracle dropping the same term.
        prev = 0.0
        for kap in (1e-4, 1e-3, 1e-2, 0.2):
            base = sigma_oracle(ComplexFreq(4.0, kap))
            with_tail = sigma_oracle(ComplexFreq(4.0, kap), include_tail=True)
            rel = abs(with_tail - base) / abs(base)
            assert rel > prev
            prev = rel
        assert prev > 1e-2  # at kappa = 0.2 the correction is ~20%

    def test_tail_restores_linear_approach_to_real_axis(self):
        # A function analytic in a half plane approaches a smooth boundary
        # value linearly in the distance to the axis.  The discarded tail is
        # exactly the sqrt(kappa) defect: with it the oracle approaches the
        # real-axis value at O(kappa), without it at O(sqrt(kappa)).
        for nu in (2.5, 4.0):
            edge = sigma_real_axis(nu)
            diffs = {}
            for kap in (1e-4, 1e-6):
                full = sigma_oracle(ComplexFreq(nu, kap), include_tail=True)
                bare = sigma_oracle(ComplexFreq(nu, kap))
                diffs[kap] = (abs(full - edge), abs(bare - edge))
            ratio_full = diffs[1e-4][0] / diffs[1e-6][0]
            ratio_bare = diffs[1e-4][1] / diffs[1e-6][1]
            assert ratio_full == pytest.approx(100.0, rel=0.05)
            assert ratio_bare == pytest.approx(10.0, rel=0.05)

    def test_tail_vanishes_on_real_axis(self):
        base = sigma_oracle(ComplexFreq(5.0, 0.0))
        with_tail = sigma_oracle(ComplexFreq(5.0, 0.0), include_tail=True)
        assert with_tail == base


class TestClosedForm:
    def test_matches_oracle_spot_checks(self):
        for nu, kap in ((2.1, 0.05), (3.0, 0.2), (6.0, 0.5), (20.0, 0.05)):
            t = sigma_tilde(ComplexFreq(nu, kap))
            o = sigma_oracle(ComplexFreq(nu, kap))
            assert abs(t - o) / abs(o) <= 1e-6

    def test_kappa_zero_collapses_to_real_axis(self):
        for nu in (2.5, 4.0, 10.0):
            assert sigma_tilde(ComplexFreq(nu, 0.0)) == sigma_real_axis(nu)

    def test_kappa_to_zero_rate(self):
        # The continuation approaches the real-axis value like sqrt(kappa):
        # the incomplete-integral corrections enter with amplitude z2 ~
        # sqrt(kappa).  Each 100x drop in kappa must shrink the gap ~10x.
        for nu in (2.5, 4.0):
            base = sigma_real_axis(nu)
            d4 = abs(sigma_tilde(ComplexFreq(nu, 1e-4)) - base) / abs(base)
            d6 = abs(sigma_tilde(ComplexFreq(nu, 1e-6)) - base) / abs(base)
            d8 = abs(sigma_tilde(ComplexFreq(nu, 1e-8)) - base) / abs(base)
            assert d6 < d4 and d8 < d6
            assert d4 / d6 == pytest.approx(10.0, rel=0.3)
            assert d6 / d8 == pytest.approx(10.0, rel=0.3)

    def test_sqrt_kappa_gap_tracks_oracle(self):
        # ... and that sqrt(kappa) gap is the continuation's own (the oracle
        # shows the identical offset), not closed-form error.
        nu, kap = 2.5, 1e-6
        t = sigma_tilde(ComplexFreq(nu, kap))
        o = sigma_oracle(ComplexFreq(nu, kap), tol=1e-11)
        assert abs(t - o) / abs(o) <= 1e-9

    def test_below_gap_continuation_reaches_real_axis(self):
        got = sigma_tilde(ComplexFreq(0.5, 0.0))
        assert got == sigma_real_axis(0.5)
        # Off the axis below the gap the closed form refuses: the film is
        # lossless there.  The oracle's continuation of the kernel integral
        # still reaches the real-axis value as kappa -> 0.
        with pytest.raises(DomainError, match="real frequencies only"):
            sigma_tilde(ComplexFreq(0.5, 1e-6))
        near = -1j * _sigma2_continued(0.5 - 1e-6j)
        assert abs(near - got) / abs(got) < 1e-3

    @pytest.mark.parametrize("nu, kap", [
        (0.5, 1e-6), (1.0, 0.3), (1.999, 1e-3), (2.0, 0.5), (2.0 - 1e-9, 1e-9),
    ])
    def test_below_gap_refusal_is_shared_with_the_impedance(self, nu, kap):
        # A 2 GHz gap makes reduced and GHz frequencies equal, so both
        # refusals name the same numbers.
        material = aluminum(1.0, gap_frequency=2.0)
        with pytest.raises(DomainError, match="real frequencies only") as closed_form:
            sigma_tilde(ComplexFreq(nu, kap))
        with pytest.raises(DomainError, match="real frequencies only") as impedance:
            surface_impedance(material, complex(nu, kap))
        assert str(closed_form.value) == str(impedance.value)

    def test_gap_guard(self):
        with pytest.raises(GapSingularity):
            sigma_tilde(ComplexFreq(2.0 + 1e-9, 1e-9))
        # On the real axis the edge window is no refusal: the real-axis
        # closed form answers up to the edge, where it is exactly -i.
        for nu in (2.0 - 1e-9, 2.0):
            assert sigma_tilde(ComplexFreq(nu, 0.0)) == sigma_real_axis(nu)

    @given(
        st.floats(min_value=2.2, max_value=15.0),
        st.floats(min_value=0.01, max_value=0.5),
    )
    @settings(max_examples=15, deadline=None)
    def test_oracle_equivalence_property(self, nu, kap):
        t = sigma_tilde(ComplexFreq(nu, kap))
        o = sigma_oracle(ComplexFreq(nu, kap))
        assert abs(t - o) / abs(o) <= 1e-6


class _ClosedFormReached(Exception):
    pass


class TestOracleIndependence:
    """Every oracle answers, to the bit, with the closed-form path made to raise."""

    CLOSED_FORMS = ("sigma_tilde", "sigma_real_axis", "_complete_pair", "_complete_ke",
                    "_incomplete")

    @staticmethod
    def _oracle_values():
        freq = ComplexFreq(3.0, 0.2)
        z, k = 0.5 + 0.3j, 0.4 + 0.1j
        return [
            sigma_oracle(freq),
            sigma_oracle(freq, include_tail=True),
            _sigma2_continued(1.2 - 0.1j),
            complete_k_agm(0.6 + 0.2j),
            ellip_incomplete_f(z, k, method="quadrature"),
            ellip_incomplete_e(z, k, method="quadrature"),
        ]

    def test_oracles_never_reach_the_closed_form(self, monkeypatch):
        def closed_form(*args, **kwargs):
            raise _ClosedFormReached

        with monkeypatch.context() as patch:
            patch.setattr(elliptic, "_carlson", closed_form)
            for name in self.CLOSED_FORMS:
                patch.setattr(mattis_bardeen, name, closed_form)
            with pytest.raises(_ClosedFormReached):  # the patch does reach the closed form
                ellip_complete_k(0.6 + 0.2j)
            fenced = self._oracle_values()
        assert fenced == self._oracle_values()
