import math

import numpy as np
import pytest

from hpid.control import GainSet
from hpid.homogeneity import (
    CanonicalNorm,
    ExperimentalNorm,
    SymMatrix,
    WeightedSumNorm,
    extended_state_dilation,
    verify_field_homogeneity,
)
from hpid.plant import (
    DisturbanceSpec,
    JointConfig,
    JointPlantConfig,
    ReferenceSpec,
    closed_loop_field,
    default_six_joint_plant,
    make_closed_loop_field,
    reference_eval,
)

RNG = np.random.default_rng(99)
GAINS = GainSet(-3.0, -3.0, -1.0)


class TestClosedLoopField:
    def test_mu_zero_is_exactly_linear(self):
        A = GAINS.a_matrix()
        for _ in range(50):
            x = RNG.uniform(-5, 5, size=3)
            out = closed_loop_field(x, GAINS, 0.0, WeightedSumNorm((1.0, 1.0)))
            assert np.array_equal(out, A @ x)

    @pytest.mark.parametrize("mu", [-0.2, -0.1, 0.0, 0.1, 0.2])
    def test_equilibrium(self, mu):
        out = closed_loop_field(np.zeros(3), GAINS, mu, WeightedSumNorm((1.0, 1.0)))
        assert np.array_equal(out, np.zeros(3))

    @pytest.mark.parametrize("mu", [-0.2, -0.1, 0.0, 0.1, 0.2])
    def test_homogeneous_of_degree_mu(self, mu):
        fld = make_closed_loop_field(GAINS, mu, WeightedSumNorm((1.0, 1.0)))
        dil = extended_state_dilation(mu)
        samples = []
        while len(samples) < 200:
            s = RNG.uniform(-5, 5)
            x = RNG.uniform(-2, 2, size=3)
            if math.hypot(x[0], x[1]) < 1e-8:  # norm floor breaks scaling at the origin
                continue
            samples.append((s, x))
        report = verify_field_homogeneity(fld, dil, mu, samples)
        assert report.passed, f"mu={mu}: residual {report.max_residual:.2e}"

    def test_canonical_norm_variant(self):
        spec = CanonicalNorm(SymMatrix([[2.0, 0.3], [0.3, 1.0]]))
        fld = make_closed_loop_field(GAINS, 0.15, spec)
        dil = extended_state_dilation(0.15)
        samples = [(RNG.uniform(-2, 2), RNG.uniform(-2, 2, size=3)) for _ in range(50)]
        samples = [(s, x) for s, x in samples if math.hypot(x[0], x[1]) > 1e-6]
        assert verify_field_homogeneity(fld, dil, 0.15, samples).passed


class TestJointRhs:
    def test_constant_disturbance_rejected_by_integral_action(self):
        # long-horizon homogeneous loop drives the error to zero despite a
        # constant disturbance; the mu = 0 twin of this loop is validated
        # against the matrix exponential in the simulation tests
        from hpid.sim import Scenario, simulate

        joint = JointConfig(
            gains=GAINS,
            mu=-0.1,
            norm=WeightedSumNorm((1.0, 1.0)),
            reference=ReferenceSpec(amplitude=0.0, offset=1.0),
            disturbance=DisturbanceSpec(constant=0.3, bound=0.5),
        )
        scn = Scenario(
            plant="joints",
            controller="hpid",
            mu=-0.1,
            joint_plant=JointPlantConfig((joint,)),
            horizon=16.0,
            step=1e-3,
        )
        traj = simulate(scn)
        assert abs(traj.errors[-1, 0]) <= 1e-8


class TestReference:
    def test_constant_reference(self):
        spec = ReferenceSpec(amplitude=0.0, angular_frequency=2.0, phase=1.0, offset=0.7)
        assert reference_eval(spec, 3.0) == (0.7, 0.0, 0.0)

    def test_unit_sine_at_zero(self):
        pos, vel, acc = reference_eval(ReferenceSpec(1.0, 1.0, 0.0, 0.0), 0.0)
        assert (pos, vel, acc) == (0.0, 1.0, 0.0)

    def test_derivatives_match_finite_differences(self):
        spec = ReferenceSpec(amplitude=0.8, angular_frequency=1.7, phase=0.3, offset=0.2)
        dt = 1e-5
        for t in np.linspace(0.0, 5.0, 40):
            p_minus, v_minus, _ = reference_eval(spec, t - dt)
            p_plus, v_plus, _ = reference_eval(spec, t + dt)
            pos, vel, acc = reference_eval(spec, t)
            assert abs((p_plus - p_minus) / (2 * dt) - vel) <= 1e-6
            assert abs((v_plus - v_minus) / (2 * dt) - acc) <= 1e-6


class TestDisturbance:
    def test_bound_holds_on_samples(self):
        spec = DisturbanceSpec(constant=0.3, amplitude=0.15, angular_frequency=2.0, phase=0.4, bound=0.5)
        ts = np.linspace(0.0, 50.0, 5000)
        values = np.array([spec.eval(t) for t in ts])
        assert np.abs(values).max() <= spec.bound

    def test_violating_config_rejected(self):
        with pytest.raises(ValueError):
            DisturbanceSpec(constant=0.4, amplitude=0.2, bound=0.5)


class TestJointPlantConfig:
    def test_default_plant_shape(self):
        plant = default_six_joint_plant(mu=0.2)
        assert plant.n_joints == 6
        assert all(isinstance(j.norm, ExperimentalNorm) for j in plant.joints)
        assert all(j.disturbance.bound == 0.5 for j in plant.joints)

    def test_linear_default(self):
        plant = default_six_joint_plant()
        assert all(j.mu == 0.0 for j in plant.joints)

    def test_needs_at_least_one_joint(self):
        with pytest.raises(ValueError):
            JointPlantConfig(())

    def test_joint_mu_range(self):
        with pytest.raises(ValueError):
            JointConfig(
                gains=GAINS,
                mu=0.6,
                norm=WeightedSumNorm((1.0, 1.0)),
                reference=ReferenceSpec(),
                disturbance=DisturbanceSpec(),
            )
