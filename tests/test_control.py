import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hpid.control import GainSet, HpidState, hpid_step, reset
from hpid.homogeneity import ExperimentalNorm, WeightedSumNorm, dilation_apply, error_pair_dilation

RNG = np.random.default_rng(77)

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


class TestHpidStep:
    def test_mu_zero_reduces_to_pid(self):
        # the linear step written out: acc' = acc + e dt, u = kp e + kd de + ki acc'
        for _ in range(1000):
            gains = GainSet(*RNG.uniform(-5, 5, size=3))
            eps, deps = RNG.uniform(-5, 5, size=2)
            acc = RNG.uniform(-2, 2)
            dt = RNG.uniform(1e-4, 1e-1)
            acc_lin = acc + eps * dt
            u_lin = gains.kp * eps + gains.kd * deps + gains.ki * acc_lin
            u_hom, state = hpid_step(HpidState(gains, 0.0, integral_acc=acc), eps, deps, dt)
            assert (u_hom, state.integral_acc) == (u_lin, acc_lin)

    def test_mu_zero_rectangle_rule(self):
        # the output already includes the current sample: acc' = 1 + 1 * 0.5
        u, state = hpid_step(HpidState(GainSet(0.0, 0.0, 1.0), 0.0, integral_acc=1.0), 1.0, 0.0, 0.5)
        assert (u, state.integral_acc) == (1.5, 1.5)

    def test_hand_evaluated_static_output(self):
        # mu=0.2, unit weighted-sum norm: ||(1,0)||_d = 1, so u = kp = -3
        state = HpidState(GainSet(-3.0, -3.0, -1.0), 0.2, WeightedSumNorm((1.0, 1.0)))
        u, _ = hpid_step(state, 1.0, 0.0, 0.0)
        assert u == pytest.approx(-3.0, abs=1e-12)

    def test_origin_regularized_for_negative_mu(self):
        state = HpidState(GainSet(-3.0, -3.0, -1.0), -0.2, WeightedSumNorm((1.0, 1.0)))
        u, _ = hpid_step(state, 0.0, 0.0, 0.01)
        assert u == 0.0 and math.isfinite(u)

    def test_experimental_norm_state(self):
        state = HpidState(GainSet(-3.0, -3.0, -1.0), 0.2, ExperimentalNorm(1.0, 1.0, 0.2))
        u, _ = hpid_step(state, 1.0, 0.0, 0.0)
        assert u == pytest.approx(-3.0, abs=1e-12)

    def test_integral_sequence_is_reproducible(self):
        inputs = RNG.uniform(-1, 1, size=(200, 2))

        def run():
            state = HpidState(GainSet(-3.0, -3.0, -1.0), 0.1, WeightedSumNorm((1.0, 1.0)))
            us = []
            for eps, deps in inputs:
                u, state = hpid_step(state, eps, deps, 1e-3)
                us.append(u)
            return us, state.integral_acc

        us1, acc1 = run()
        us2, acc2 = run()
        assert us1 == us2 and acc1 == acc2  # bitwise

    @settings(max_examples=300, deadline=None)
    @given(eps=finite, deps=finite, acc=finite, mu=st.floats(-0.45, 0.45), dt=st.floats(0, 0.1))
    def test_never_nonfinite(self, eps, deps, acc, mu, dt):
        state = HpidState(GainSet(-3.0, -3.0, -1.0), mu, integral_acc=acc)
        u, new = hpid_step(state, eps, deps, dt)
        assert math.isfinite(u) and math.isfinite(new.integral_acc)

    def test_degree_consistency_of_static_feedback(self):
        # with the integral frozen, u(d(s) xi) = e^{(1+mu)s} u(xi)
        mu = 0.2
        dil = error_pair_dilation(mu)
        state = HpidState(GainSet(-3.0, -3.0, 0.0), mu, WeightedSumNorm((1.0, 1.0)))
        for _ in range(200):
            s = RNG.uniform(-3, 3)
            xi = RNG.uniform(-5, 5, size=2)
            if np.linalg.norm(xi) < 1e-3:
                continue
            u0, _ = hpid_step(state, xi[0], xi[1], 0.0)
            xs = dilation_apply(dil, s, xi)
            u1, _ = hpid_step(state, xs[0], xs[1], 0.0)
            expected = math.exp((1.0 + mu) * s) * u0
            assert abs(u1 - expected) <= 1e-9 * max(1.0, abs(expected))

    def test_mu_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            HpidState(GainSet(-3.0, -3.0, -1.0), 0.5)

    def test_rejects_nonfinite_inputs(self):
        state = HpidState(GainSet(-3.0, -3.0, -1.0), 0.1)
        with pytest.raises(ValueError):
            hpid_step(state, math.nan, 0.0, 0.01)


class TestReset:
    def test_zeroes_accumulator(self):
        state = HpidState(GainSet(-3.0, -3.0, -1.0), 0.1, integral_acc=5.0)
        assert reset(state).integral_acc == 0.0

    def test_idempotent(self):
        state = HpidState(GainSet(-3.0, -3.0, -1.0), 0.1, integral_acc=5.0)
        assert reset(reset(state)) == reset(state)

    def test_preserves_other_fields(self):
        state = HpidState(GainSet(-3.0, -3.0, -1.0), -0.3, WeightedSumNorm((2.0, 1.0)), 5.0, 1e-7)
        out = reset(state)
        assert out.mu == -0.3
        assert out.norm == WeightedSumNorm((2.0, 1.0))
        assert out.norm_floor == 1e-7
        assert out.gains == state.gains
