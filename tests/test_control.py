import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hpid.control import GainSet, hpid_law
from hpid.homogeneity import WeightedSumNorm, dilation_apply, error_pair_dilation

RNG = np.random.default_rng(77)
GAINS = GainSet(-3.0, -3.0, -1.0)
UNIT = WeightedSumNorm((1.0, 1.0))

finite = st.floats(-5, 5, allow_nan=False, allow_infinity=False)


class TestGainSet:
    def test_default_gains_are_stabilizing(self):
        assert GainSet(-3.0, -3.0, -1.0).is_stabilizing()

    def test_positive_gains_are_not(self):
        g = GainSet(1.0, 1.0, 1.0)
        assert not g.is_stabilizing()
        assert g.routh_hurwitz_failures()

    def test_pivot_condition(self):
        # -kd, -ki fine but kd*kp + ki <= 0
        g = GainSet(-0.1, -0.1, -1.0)
        failures = g.routh_hurwitz_failures()
        assert any("pivot" in f for f in failures)

    def test_a_matrix_layout(self):
        A = GainSet(-3.0, -2.0, -1.0).a_matrix()
        assert np.array_equal(A, [[0.0, 1.0, 0.0], [-3.0, -2.0, 1.0], [-1.0, 0.0, 0.0]])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            GainSet(math.nan, 0.0, 0.0)


class TestHpidLaw:
    def test_mu_zero_reduces_to_pid(self):
        for _ in range(1000):
            gains = GainSet(*RNG.uniform(-5, 5, size=3))
            e, de = RNG.uniform(-5, 5, size=2)
            assert hpid_law(gains, 0.0, UNIT, 1e-9)(e, de) == (gains.kp * e + gains.kd * de, e)

    def test_hand_evaluated_static_output(self):
        # mu=0.2, unit weighted-sum norm: ||(1,0)||_d = 1, so pd = kp and integrand = e
        assert hpid_law(GAINS, 0.2, UNIT, 1e-9)(1.0, 0.0) == pytest.approx((-3.0, 1.0), abs=1e-12)

    def test_experimental_norm_state(self):
        # norm = experimental at zeta1_max = 1.5: ||(1,0)||_d = 1/1.5, so pd = kp nu^0.4 and integrand = nu^0.6
        law = hpid_law(GAINS, 0.2, WeightedSumNorm((1 / 1.5, 0.7)), 1e-9)
        assert law(1.0, 0.0) == pytest.approx((-3.0 * 1.5**-0.4, 1.5**-0.6), abs=1e-12)

    def test_origin_regularized_for_negative_mu(self):
        assert hpid_law(GAINS, -0.2, UNIT, 1e-9)(0.0, 0.0) == (0.0, 0.0)

    @settings(max_examples=300, deadline=None)
    @given(e=finite, de=finite, mu=st.floats(-0.45, 0.45))
    def test_never_nonfinite(self, e, de, mu):
        assert all(map(math.isfinite, hpid_law(GAINS, mu, UNIT, 1e-9)(e, de)))

    def test_degree_consistency_of_static_feedback(self):
        # pd(d(s) xi) = e^{(1+mu)s} pd(xi) and integrand(d(s) xi) = e^{(1+2mu)s} integrand(xi)
        mu = 0.2
        dil = error_pair_dilation(mu)
        law = hpid_law(GAINS, mu, UNIT, 1e-9)
        for _ in range(200):
            s = RNG.uniform(-3, 3)
            xi = RNG.uniform(-5, 5, size=2)
            if np.linalg.norm(xi) < 1e-3:
                continue
            scaled = law(*dilation_apply(dil, s, xi))
            for value, base, degree in zip(scaled, law(*xi), (1.0 + mu, 1.0 + 2.0 * mu)):
                expected = math.exp(degree * s) * base
                assert abs(value - expected) <= 1e-9 * max(1.0, abs(expected))

    def test_mu_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            hpid_law(GAINS, 0.5, UNIT, 1e-9)
        # named as the degree, though 1e-9 ** (3 mu) overflows there too
        with pytest.raises(ValueError, match="degree mu must lie in"):
            hpid_law(GAINS, -100.0, UNIT, 1e-9)

    @pytest.mark.parametrize("mu,floor", [(-0.45, 1e-300), (0.45, 1e300)])
    def test_floor_at_which_the_law_overflows_rejected(self, mu, floor):
        # floor ** (3 mu) past the float range: the law would raise OverflowError at its own floor
        with pytest.raises(ValueError, match=r"norm_floor \*\* \(3 mu\) overflows"):
            hpid_law(GAINS, mu, UNIT, floor)
        law = hpid_law(GAINS, mu, UNIT, 1e-200 if mu < 0 else 1e200)  # 1e-200 ** -1.35 = 1e270 is a float
        assert all(map(math.isfinite, law(0.0, 0.0)))
