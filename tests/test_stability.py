import math
import os

import numpy as np
import pytest
from scipy.linalg import eigh, expm

from hpid import stability
from hpid.checks import CheckResult
from hpid.control import GainSet
from hpid.homogeneity import CanonicalNorm, dilation_apply, extended_state_dilation, norm_evaluator
from hpid.sim import Scenario, Trajectory, simulate
from hpid.stability import (
    CertificateError,
    InfeasibleGainsError,
    certify,
    lyapunov_decrease_check,
    solve_lyapunov,
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


class TestCertify:
    @pytest.mark.parametrize(
        "gains,message",
        [
            # residual 5.5e-5 absolute but 2.2e-21 relative to ||P|| ||A||; cond(P) = 5.0e16 is what fails
            ((-0.028758064503880257, -39730.40813056146, -22.621816254646742), "Lyapunov matrix is ill-conditioned"),
            ((-2.4322076469677656e129, -1.5085385230717475e-139, -1.9392006686074723e-289), "Lyapunov solve failed (Singular"),
            ((-1e300, -1e300, -1e300), "Lyapunov solve failed (residual nan)"),  # P overflows
            ((-1e-10, -1.0, -1e-20), "certificate constants degenerate"),  # gamma lost in rounding
            ((-1e-9, -1.0, -1e-20), "certificate constants degenerate"),
            ((-705.2024816958151, -755695128.4236317, -2.7105566962652396e-10), "Lyapunov matrix has no Cholesky factor"),
            # cond(P) above 1e15, P entries from 1.8e-8 to 8.6e7: beta and gamma would be rounding noise
            ((-951.9123634096944, -32577178.70505206, -5.522987490950954e-06), "Lyapunov matrix is ill-conditioned"),
        ],
        ids=["residual", "singular", "overflow", "square_root", "constants", "cholesky", "ill_conditioned"],
    )
    def test_numerical_failure_on_stabilizing_gains(self, gains, message):
        gains = GainSet(*gains)
        assert gains.is_stabilizing()
        with pytest.raises(CertificateError) as err:
            certify(gains)
        assert str(err.value).startswith(message)

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

    @staticmethod
    def _check_against_pencils(gains, ends):
        """certify(gains) against scipy's generalized eigensolver; counts capped and uncapped interval ends."""
        D = np.diag([-1.0, 0.0, 1.0])
        cert = certify(gains)
        P, A = cert.P.entries, gains.a_matrix()
        S = P @ D + D @ P  # P G(mu) + G(mu)' P = 2P + mu S
        for mu in (cert.mu_lo, cert.mu_hi):
            if abs(mu) == 0.5:
                ends["capped"] += 1
            else:  # the margin sits exactly at the certifier's 1e-8
                ends["uncapped"] += 1
                assert abs(np.linalg.eigvalsh(2.0 * P + mu * S).min() - 1e-8) <= 1e-12
        beta = min(eigh(2.0 * P + mu * S, P, eigvals_only=True)[0] for mu in (cert.mu_lo, cert.mu_hi))
        assert abs(cert.beta - beta) <= 1e-6 * abs(beta) + 1e-13
        gamma = -eigh(P @ A + A.T @ P, P, eigvals_only=True)[-1]
        assert cert.gamma == pytest.approx(gamma, rel=1e-12)

    def test_closed_form_against_scipy_pencils(self):
        # seeded stabilizing gains, poles log-uniform in [e^-2.5, e^2.5]: both capped and uncapped ends
        rng = np.random.default_rng(2015)
        ends = {"capped": 0, "uncapped": 0}
        for _ in range(200):
            p = np.exp(rng.uniform(-2.5, 2.5, 3))
            gains = GainSet(-float(p[0] * p[1] + p[0] * p[2] + p[1] * p[2]), -float(p.sum()), -float(p.prod()))
            self._check_against_pencils(gains, ends)
        assert min(ends.values()) > 0

    def test_stiff_gains_certify(self):
        # poles at -100: the Lyapunov residual is 5.9e-8 absolute but 3.4e-20
        # relative to ||P|| ||A||, and cond(P) = 1.0e9
        ends = {"capped": 0, "uncapped": 0}
        self._check_against_pencils(GainSet(-3e4, -300.0, -1e6), ends)
        assert ends == {"capped": 0, "uncapped": 2}

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


def _ray_trajectory(cert, mu: float, v: np.ndarray, times: np.ndarray) -> Trajectory:
    """Samples d(ln v_k) u along the ray through a u with V(u) = 1, so V reads v_k at sample k."""
    dil = extended_state_dilation(mu)
    u = np.array([1.0, 0.5, 0.2])
    u = dilation_apply(dil, -math.log(norm_evaluator(CanonicalNorm(cert.P), dil)(*u)), u)
    states = np.exp(np.outer(np.log(v), dil.weights)) * u
    scn = Scenario(controller="hpid", mu=mu, horizon=2.0, step=1e-2)
    return Trajectory(times=times, states=states, controls=np.zeros((len(v), 1)), scenario=scn)


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
        assert report.worst_interval is None and report.worst_start is None

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

    def test_mu_outside_interval_rejected(self):
        # these gains certify (-0.464, 0.417): a run at mu = 0.45 matches its
        # gains and degree, and is refused by the interval alone
        gains = GainSet(-15.0, -15.0, -5.0)
        cert = certify(gains)
        assert cert.mu_hi < 0.45
        traj = simulate(Scenario(controller="hpid", gains=gains, mu=0.45, horizon=1.0, step=1e-2))
        with pytest.raises(ValueError, match="outside the certified interval"):
            lyapunov_decrease_check(traj, cert, 0.45)

    @pytest.mark.xfail(
        reason="FOUND in CHANGES.md: certify takes beta at the ends of the degree "
        "interval, so its rate gamma / (2 beta) overstates the decay trajectories "
        "have; this linear run passes 0.8775 of its intervals",
    )
    def test_linear_run_from_unit_error_meets_certified_rate(self, cert):
        traj = simulate(Scenario(controller="pid", x0=(1.0, 0.0, 0.0), horizon=2.0))
        assert lyapunov_decrease_check(traj, cert, 0.0).passed

    def test_worst_interval_is_the_largest_excess(self, cert):
        # the run of the strict xfail above, whose live intervals miss the rate
        traj = simulate(Scenario(controller="pid", x0=(1.0, 0.0, 0.0), horizon=2.0))
        report = lyapunov_decrease_check(traj, cert, 0.0)
        norm = norm_evaluator(CanonicalNorm(cert.P), extended_state_dilation(0.0))
        V = np.array([norm(*x) for x in traj.states])
        slope = np.diff(V) / np.diff(traj.times)
        rhs = -report.rate * V[:-1]
        excess = slope - (rhs + 1e-6 + 0.05 * np.abs(rhs))  # over the check's slack-widened bound
        live = V[:-1] > 100.0 * traj.scenario.norm_floor
        assert report.fraction < report.pass_fraction
        i = report.worst_interval
        assert live[i] and excess[i] > 0.0 and excess[i] == excess[live].max()
        assert report.worst_start == traj.times[i]

    def test_worst_interval_skips_smaller_and_non_live_misses(self, cert):
        # at mu = 0 the canonical norm is 1-homogeneous, so V along the ray
        # through u is the scale v.  The bound is about -0.2 V, so the misses
        # are: interval 0 by about 1, interval 1 by about 15, interval 3 by
        # about 10 with the steepest live slope, and interval 6, from inside
        # the terminal ball, by about 100
        u = np.array([1.0, 0.5, 0.2])
        u /= norm_evaluator(CanonicalNorm(cert.P), extended_state_dilation(0.0))(*u)
        v = np.array([50.0, 49.91, 49.96, 1.0, 1.1, 0.8, 1e-8, 1.0, 0.5])
        times = 1e-2 * np.arange(len(v))
        scn = Scenario(controller="pid", horizon=2.0, step=1e-2)
        traj = Trajectory(times=times, states=np.outer(v, u), controls=np.zeros((len(v), 1)), scenario=scn)
        report = lyapunov_decrease_check(traj, cert, 0.0)
        assert (report.n_intervals, report.fraction) == (7, 4 / 7)
        assert (report.worst_interval, report.worst_start) == (1, times[1])

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

    @pytest.mark.parametrize("mu", [-0.3, 0.3])
    @pytest.mark.parametrize("factor, fraction", [(0.97, 1.0), (0.93, 0.0)])
    def test_exact_decay_inside_and_outside_the_bound(self, cert, mu, factor, fraction):
        # V(t) = (V0^{-mu} + mu rho t)^{-1/mu} solves V' = -rho V^{1+mu}, and
        # the check's bound is about -0.95 rate V^{1+mu}: rho = 0.97 rate meets
        # it on every interval, 0.93 rate misses it on every one.  V spans 100
        # to 0.01, where V^{1-mu} and V^{1+mu} differ up to 16-fold
        rho = factor * cert.decrease_rate()
        v = np.geomspace(100.0, 0.01, 1001)
        times = (v**-mu - v[0] ** -mu) / (mu * rho)  # the curve's time at each value
        report = lyapunov_decrease_check(_ray_trajectory(cert, mu, v, times), cert, mu)
        assert (report.n_intervals, report.fraction) == (1000, fraction)

    @pytest.mark.parametrize("mu", [-0.3, 0.3])
    @pytest.mark.parametrize("offset, fraction", [(-2e-7, 1.0), (2e-7, 0.0)])
    def test_slopes_within_the_absolute_slack(self, cert, mu, offset, fraction):
        # each slope sits 2e-7 below or above its bound rhs + 1e-6 + 0.05 |rhs|,
        # rhs = -rate V^{1+mu}, well inside the absolute slack of 1e-6
        rate, dt = cert.decrease_rate(), 1e-2
        v = [1.0]
        for _ in range(200):
            rhs = -rate * v[-1] ** (1.0 + mu)
            v.append(v[-1] + dt * (rhs + 1e-6 + 0.05 * abs(rhs) + offset))
        report = lyapunov_decrease_check(_ray_trajectory(cert, mu, np.array(v), dt * np.arange(201)), cert, mu)
        assert (report.n_intervals, report.fraction) == (200, fraction)

    def test_metadata_mismatch_rejected(self, cert):
        traj = simulate(Scenario(controller="hpid", mu=0.1, horizon=1.0, step=1e-2))
        with pytest.raises(ValueError):
            lyapunov_decrease_check(traj, cert, 0.2)  # trajectory was run at 0.1
        other = certify(GainSet(-1.0, -2.0, -0.5))
        with pytest.raises(ValueError):
            lyapunov_decrease_check(traj, other, 0.1)


class TestDecreaseCheckWorkers:
    """The decrease check's samples, spread over forked workers, give what one core gives."""

    @pytest.fixture(autouse=True)
    def no_child_left(self):
        yield
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_same_values_and_report_on_any_core_count(self, cert, monkeypatch):
        # a run with failing intervals, so the worst interval is compared too
        traj = simulate(Scenario(controller="pid", x0=(1.0, 0.0, 0.0), horizon=2.0))
        norm = norm_evaluator(CanonicalNorm(cert.P), extended_state_dilation(0.0))
        serial = np.array([norm(*x) for x in traj.states])
        runs = []

        def recording_map(fn, items, real=stability.fork_map):
            pids, values = zip(*real(lambda i: (os.getpid(), fn(i)), items))
            runs.append((len(set(pids)), np.array(values)))
            return list(values)

        monkeypatch.setattr(stability, "fork_map", recording_map)
        reports = []
        for cores in [{0}, {0, 1}, {0, 1, 2}]:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cores)
            reports.append(lyapunov_decrease_check(traj, cert, 0.0))
        assert [workers for workers, _ in runs] == [1, 2, 3]
        assert all(values.tobytes() == serial.tobytes() for _, values in runs)
        assert reports[0].worst_interval is not None
        assert reports[1] == reports[0] and reports[2] == reports[0]

    @pytest.mark.parametrize("bad", [(3, 4), (2, 5)], ids=["child_first", "parent_first"])
    def test_first_failing_sample_raised(self, cert, monkeypatch, bad):
        # over two workers this process solves the even samples and a child the odd
        traj = simulate(Scenario(controller="pid", horizon=1.0, step=1e-2))
        marks = {tuple(traj.states[i]): i for i in bad}

        def failing_evaluator(spec, dil, real=stability.norm_evaluator):
            norm = real(spec, dil)

            def failing(*x):
                if x in marks:
                    raise ValueError(f"sample {marks[x]}")
                return norm(*x)

            return failing

        monkeypatch.setattr(stability, "norm_evaluator", failing_evaluator)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        with pytest.raises(ValueError, match=f"^sample {min(bad)}$"):
            lyapunov_decrease_check(traj, cert, 0.0)
