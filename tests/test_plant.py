from array import array

import numpy as np
import pytest

from hpid import checks
from hpid.control import GainSet, hpid_law
from hpid.homogeneity import CanonicalNorm, SymMatrix, WeightedSumNorm
from hpid.plant import (
    DisturbanceSpec,
    JointConfig,
    ReferenceSpec,
    default_six_joint_plant,
    reference_eval,
)
from hpid.sim import rk4_block

RNG = np.random.default_rng(99)
GAINS = GainSet(-3.0, -3.0, -1.0)


class TestClosedLoopField:
    """The closed loop of both plants, as the RK4 kernel sim.rk4_block integrates it."""

    @pytest.mark.parametrize("mu", [-0.2, -0.1, 0.0, 0.1, 0.2])
    def test_equilibrium(self, mu):
        # the origin is an exact fixed point of one step, the norm floor included
        norms = (WeightedSumNorm((1.0, 1.0)), CanonicalNorm(SymMatrix([[2.0, 0.3], [0.3, 1.0]])))
        for norm in norms:
            law = hpid_law(GAINS, mu, norm, 1e-9)
            out = array("d")
            rk4_block(law, GAINS.ki, lambda t: 0.0, (0.0, 0.0, 0.0), [0.0, 0.1], 0.1, out)
            assert np.array_equal(out[4:7], np.zeros(3)), type(norm).__name__

    def test_canonical_norm_variant(self):
        result = checks._check_step_homogeneity(RNG, CanonicalNorm(SymMatrix([[2.0, 0.3], [0.3, 1.0]])), samples=50)
        assert result.passed, result.line()


class TestJointRhs:
    def test_constant_disturbance_rejected_by_integral_action(self):
        # long-horizon homogeneous loop drives the error to zero despite a
        # constant disturbance; the mu = 0 twin of this loop is validated
        # against the matrix exponential in the simulation tests
        from hpid.sim import Scenario, simulate

        joint = JointConfig(
            reference=ReferenceSpec(amplitude=0.0, offset=1.0),
            disturbance=DisturbanceSpec(constant=0.3, bound=0.5),
        )
        scn = Scenario(
            controller="hpid",
            mu=-0.1,
            joints=(joint,),
            horizon=16.0,
            step=1e-3,
        )
        traj = simulate(scn)
        assert abs(traj.errors[-1, 0]) <= 1e-8


class TestReference:
    def test_constant_reference(self):
        spec = ReferenceSpec(amplitude=0.0, angular_frequency=2.0, phase=1.0, offset=0.7)
        assert reference_eval(spec, 3.0) == (0.7, 0.0)

    def test_unit_sine_at_zero(self):
        assert reference_eval(ReferenceSpec(1.0, 1.0, 0.0, 0.0), 0.0) == (0.0, 1.0)

    def test_derivatives_match_finite_differences(self):
        spec = ReferenceSpec(amplitude=0.8, angular_frequency=1.7, phase=0.3, offset=0.2)
        dt = 1e-5
        for t in np.linspace(0.0, 5.0, 40):
            p_minus, _ = reference_eval(spec, t - dt)
            p_plus, _ = reference_eval(spec, t + dt)
            assert abs((p_plus - p_minus) / (2 * dt) - reference_eval(spec, t)[1]) <= 1e-6


class TestDisturbance:
    def test_bound_holds_on_samples(self):
        spec = DisturbanceSpec(constant=0.3, amplitude=0.15, angular_frequency=2.0, phase=0.4, bound=0.5)
        ts = np.linspace(0.0, 50.0, 5000)
        values = np.array([spec.eval(t) for t in ts])
        assert np.abs(values).max() <= spec.bound

    def test_violating_config_rejected(self):
        with pytest.raises(ValueError):
            DisturbanceSpec(constant=0.4, amplitude=0.2, bound=0.5)


class TestDefaultSixJointPlant:
    def test_default_plant_shape(self):
        joints = default_six_joint_plant()
        assert len(joints) == 6
        assert all(j.disturbance.bound == 0.5 for j in joints)
