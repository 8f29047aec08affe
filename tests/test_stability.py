import math

import numpy as np
import pytest
from scipy.linalg import expm

from hpid.checks import CheckResult
from hpid.control import GainSet
from hpid.homogeneity import SymMatrix
from hpid.sim import Scenario, Trajectory, simulate
from hpid.stability import (
    InfeasibleGainsError,
    certify,
    convergence_classifier,
    lyapunov_decrease_check,
    solve_lyapunov,
    solve_lyapunov_matrix,
)

GAINS = GainSet(-3.0, -3.0, -1.0)

# P for the default gains and Q = I, cross-checked against the residual and
# eigenvalue oracle below; the entries are exactly representable
P_EXPECTED = np.array(
    [
        [3.25, 0.8125, -1.9375],
        [0.8125, 0.4375, -0.5],
        [-1.9375, -0.5, 2.3125],
    ]
)


class TestSolveLyapunov:
    def test_default_gains(self):
        P = solve_lyapunov(GAINS)
        A = GAINS.a_matrix()
        residual = np.abs(P.entries @ A + A.T @ P.entries + np.eye(3)).max()
        assert residual <= 1e-9
        assert P.is_positive_definite()
        assert np.allclose(P.entries, P_EXPECTED, atol=1e-12)

    def test_unstable_gains_raise_with_diagnosis(self):
        with pytest.raises(InfeasibleGainsError) as err:
            solve_lyapunov(GainSet(1.0, 1.0, 1.0))
        assert err.value.failures

    def test_negative_identity_system(self):
        Q = SymMatrix([[2.0, 0.5], [0.5, 1.0]])
        P = solve_lyapunov_matrix(-np.eye(2), Q)
        assert np.allclose(P.entries, Q.entries / 2.0, atol=1e-14)


class TestCertify:
    def test_default_gains_certificate(self):
        cert = certify(GAINS)
        assert cert.mu_lo < 0.0 < cert.mu_hi
        # for these gains the monotonicity condition holds across the whole
        # admissible design range, so the interval caps at +-0.5
        assert cert.mu_lo == -0.5 and cert.mu_hi == 0.5
        assert cert.beta == pytest.approx(0.47651116049920766, rel=1e-9)
        assert cert.gamma == pytest.approx(0.20109355087382966, rel=1e-9)

    def test_zero_always_admissible(self):
        for gains in (GAINS, GainSet(-1.0, -2.0, -0.5), GainSet(-5.0, -4.0, -2.0)):
            cert = certify(gains)
            assert cert.admits(0.0)

    def test_invariants_recheck_independently(self):
        cert = certify(GainSet(-1.0, -2.0, -0.5))
        Pe = cert.P.entries
        A = cert.gains.a_matrix()
        # P > 0 and PA + A'P < 0
        assert np.linalg.eigvalsh(Pe).min() > 0.0
        M = Pe @ A + A.T @ Pe
        assert np.linalg.eigvalsh(0.5 * (M + M.T)).max() < 0.0
        # monotonicity margin at both endpoints and at interior points
        D = np.diag([-1.0, 0.0, 1.0])
        for mu in (cert.mu_lo, cert.mu_lo / 2, 0.0, cert.mu_hi / 2, cert.mu_hi):
            G = np.eye(3) + mu * D
            assert np.linalg.eigvalsh(Pe @ G + G.T @ Pe).min() >= 1e-8 * 0.99
        # beta/gamma recomputed from scratch
        w, V = np.linalg.eigh(Pe)
        Ph = V @ np.diag(np.sqrt(w)) @ V.T
        Pmh = V @ np.diag(1.0 / np.sqrt(w)) @ V.T
        betas = []
        for mu in (cert.mu_lo, cert.mu_hi):
            G = np.eye(3) + mu * D
            betas.append(np.linalg.eigvalsh(Ph @ G @ Pmh + Pmh @ G.T @ Ph).min())
        assert cert.beta == pytest.approx(min(betas), rel=1e-9)
        assert min(betas) > 0.0
        gamma = -np.linalg.eigvalsh(Ph @ A @ Pmh + Pmh @ A.T @ Ph).max()
        assert cert.gamma == pytest.approx(gamma, rel=1e-9)

    def test_interval_shrinks_feasibly_under_bisection(self):
        # feasibility in mu is an interval: the margin is concave in mu
        cert = certify(GainSet(-1.0, -2.0, -0.5))
        Pe, D = cert.P.entries, np.diag([-1.0, 0.0, 1.0])
        mus = np.linspace(cert.mu_lo, cert.mu_hi, 21)
        Gs = [np.eye(3) + m * D for m in mus]
        margins = [np.linalg.eigvalsh(Pe @ G + G.T @ Pe).min() for G in Gs]
        assert all(m > 0.0 for m in margins)
        # concavity implies no interior dip below the chord of the endpoints
        for i in range(1, len(mus) - 1):
            chord = margins[0] + (margins[-1] - margins[0]) * (mus[i] - mus[0]) / (mus[-1] - mus[0])
            assert margins[i] >= chord - 1e-12

    def test_infeasible_gains_propagate(self):
        with pytest.raises(InfeasibleGainsError):
            certify(GainSet(1.0, 1.0, 1.0))


@pytest.fixture(scope="module")
def cert():
    return certify(GAINS)


class TestDecreaseCheck:
    @pytest.mark.parametrize("mu", [-0.1, 0.0, 0.1])
    def test_certified_degrees_pass(self, cert, mu):
        scn = Scenario(controller="hpid" if mu else "pid", mu=mu, horizon=9.0, step=1e-3)
        report = lyapunov_decrease_check(simulate(scn), cert, mu)
        assert report.passed
        assert report.fraction >= 0.99

    def test_linear_case_against_closed_form(self, cert):
        # the mu = 0 trajectory itself is validated against expm elsewhere;
        # here the decrease holds sample-by-sample on the closed form too
        scn = Scenario(controller="pid", horizon=9.0, step=1e-3)
        traj = simulate(scn)
        A = GAINS.a_matrix()
        exact = np.array([expm(A * t) @ np.array(scn.x0) for t in traj.times[::500]])
        assert np.abs(exact - traj.states[::500]).max() <= 1e-6
        report = lyapunov_decrease_check(traj, cert, 0.0)
        assert report.passed and report.fraction == 1.0

    def test_growing_trajectory_fails(self, cert):
        scn = Scenario(controller="pid", horizon=2.0, step=1e-2)
        times = np.arange(0.0, 2.0 + 1e-9, 1e-2)
        states = np.exp(times)[:, None] * np.array([1.0, 0.5, 0.2])
        traj = Trajectory(
            times=times,
            states=states,
            controls=np.zeros((len(times), 1)),
            scenario=scn,
        )
        report = lyapunov_decrease_check(traj, cert, 0.0)
        assert not report.passed

    def test_mu_outside_interval_rejected(self, cert):
        scn = Scenario(controller="hpid", mu=0.1, horizon=1.0, step=1e-2)
        traj = simulate(scn)
        with pytest.raises(ValueError):
            lyapunov_decrease_check(traj, cert, 0.49999 if cert.mu_hi < 0.49999 else 0.1 + 1e-3)

    @pytest.mark.xfail(
        reason="FOUND in CHANGES.md: certify takes beta at the ends of the degree "
        "interval, so its rate gamma / (2 beta) overstates the decay trajectories "
        "have; this linear run passes 0.8775 of its intervals",
    )
    def test_linear_run_from_unit_error_meets_certified_rate(self, cert):
        traj = simulate(Scenario(controller="pid", x0=(1.0, 0.0, 0.0), horizon=2.0))
        assert lyapunov_decrease_check(traj, cert, 0.0).passed

    def test_verify_verdict_is_the_report_verdict(self, cert):
        # verify reports the decrease check as residual 1 - fraction against
        # tolerance 1 - pass_fraction; that verdict is report.passed for every
        # fraction ok / n of up to 20000 intervals near the pass fraction
        report = lyapunov_decrease_check(simulate(Scenario(controller="hpid", mu=0.1, horizon=2.0)), cert, 0.1)
        pass_fraction = report.pass_fraction
        assert CheckResult("", 1.0 - report.fraction, 1.0 - pass_fraction).passed == report.passed
        for n in range(1, 20001):
            for ok in range(max(0, math.floor(pass_fraction * n) - 2), min(n, math.ceil(pass_fraction * n) + 2) + 1):
                verdict = CheckResult("", 1.0 - ok / n, 1.0 - pass_fraction).passed
                assert verdict == (ok / n >= pass_fraction), (ok, n)

    def test_metadata_mismatch_rejected(self, cert):
        traj = simulate(Scenario(controller="hpid", mu=0.1, horizon=1.0, step=1e-2))
        with pytest.raises(ValueError):
            lyapunov_decrease_check(traj, cert, 0.2)  # trajectory was run at 0.1
        other = certify(GainSet(-1.0, -2.0, -0.5))
        with pytest.raises(ValueError):
            lyapunov_decrease_check(traj, other, 0.1)


class TestConvergenceClassifier:
    def test_zero_state_settles_immediately(self):
        traj = simulate(Scenario(x0=(0.0, 0.0, 0.0), horizon=1.0, step=1e-2))
        report = convergence_classifier(traj, settle_tol=1e-6)
        assert report.settle_time == 0.0
        assert report.finite_time

    def test_growing_state_never_settles(self):
        scn = Scenario(horizon=1.0, step=1e-2)
        times = np.arange(0.0, 1.0 + 1e-9, 1e-2)
        states = (1.0 + times)[:, None] * np.array([1.0, 0.0, 0.0])
        traj = Trajectory(
            times=times,
            states=states,
            controls=np.zeros((len(times), 1)),
            scenario=scn,
        )
        report = convergence_classifier(traj, settle_tol=0.5)
        assert report.settle_time is None
        assert not report.finite_time

    def test_finite_time_run_settles_before_linear(self):
        fast = simulate(Scenario(controller="hpid", mu=-0.2, horizon=12.0, step=1e-3))
        slow = simulate(Scenario(controller="pid", horizon=30.0, step=1e-3))
        r_fast = convergence_classifier(fast, settle_tol=1e-6)
        r_slow = convergence_classifier(slow, settle_tol=1e-6)
        assert r_fast.settle_time is not None and r_slow.settle_time is not None
        assert r_fast.settle_time < 0.95 * r_slow.settle_time
        assert r_fast.finite_time
