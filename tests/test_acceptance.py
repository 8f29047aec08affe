"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one `ACCEPTANCE <name>: PASS/FAIL` line (straight to the
real stdout so the lines survive pytest capture) and enforces the stated
runtime budget where one applies.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.linalg import expm

from conftest import ACCEPTANCE_LINES

from hpid import cli
from hpid.control import GainSet, HpidState, hpid_step, pid_step
from hpid.fixtures import (
    HARDWARE_COMPARISON_ROWS,
    HARDWARE_L2_CONTROL,
    HARDWARE_L2_ERROR,
    HARDWARE_L2_ERROR_ALT,
)
from hpid.homogeneity import (
    CanonicalNorm,
    Dilation,
    ExperimentalNorm,
    SymMatrix,
    WeightedSumNorm,
    canonical_norm_gradient,
    dilation_apply,
    error_pair_dilation,
    extended_state_dilation,
    norm_evaluator,
    standard_dilation,
    verify_field_homogeneity,
)
from hpid.metrics import compare, iavc, itae, ivc, l2_norm, pointwise_norm
from hpid.plant import default_six_joint_plant, make_closed_loop_field
from hpid.sim import Scenario, Trajectory, scaling_symmetry_run, simulate
from hpid.stability import certify, convergence_classifier, lyapunov_decrease_check

GAINS = GainSet(-3.0, -3.0, -1.0)
RNG = np.random.default_rng(2024)


def _emit(line: str) -> None:
    print(line, flush=True)
    ACCEPTANCE_LINES.append(line)


@contextmanager
def criterion(name: str, runtime_limit: float | None = None):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        if runtime_limit is not None and elapsed >= runtime_limit:
            raise AssertionError(f"{name}: took {elapsed:.2f}s, budget {runtime_limit}s")
    except BaseException:
        _emit(f"ACCEPTANCE {name}: FAIL")
        raise
    _emit(f"ACCEPTANCE {name}: PASS ({elapsed:.2f}s)")


def test_homogeneity_algebra_suite():
    with criterion("homogeneity-algebra-suite", runtime_limit=5.0):
        dilations = [
            standard_dilation(2),
            error_pair_dilation(0.2),
            error_pair_dilation(-0.3),
            extended_state_dilation(0.1),
            Dilation((0.5, 1.0, 2.0)),
        ]
        # group law
        for dil in dilations:
            for _ in range(60):
                s, t = RNG.uniform(-5, 5, size=2)
                x = RNG.uniform(-10, 10, size=dil.n)
                once = dilation_apply(dil, s + t, x)
                twice = dilation_apply(dil, s, dilation_apply(dil, t, x))
                scale = 1.0 + max(np.linalg.norm(x), np.linalg.norm(once))
                assert np.linalg.norm(twice - once) <= 1e-10 * scale

        # norm scaling for all three variants
        mu = 0.2
        dil = error_pair_dilation(mu)
        specs = [
            WeightedSumNorm((1.0, 1.0)),
            WeightedSumNorm((2.0, 0.5)),
            CanonicalNorm(SymMatrix([[2.0, 0.3], [0.3, 1.0]])),
            ExperimentalNorm(1.5, 0.7, mu),
        ]
        for spec in specs:
            norm = norm_evaluator(spec, dil)
            for _ in range(80):
                s = RNG.uniform(-5, 5)
                x = RNG.uniform(-10, 10, size=2)
                base = norm(*x)
                scaled = norm(*dilation_apply(dil, s, x))
                assert abs(scaled - math.exp(s) * base) <= 1e-9 * math.exp(s) * (1.0 + base)

        # canonical defining-equation residual
        spec = CanonicalNorm(SymMatrix([[2.0, 0.3], [0.3, 1.0]]))
        norm = norm_evaluator(spec, dil)
        for _ in range(200):
            x = RNG.uniform(-8, 8, size=2)
            if np.linalg.norm(x) < 1e-6:
                continue
            lam = norm(*x)
            z = dilation_apply(dil, -math.log(lam), x)
            assert abs(math.sqrt(z @ spec.P.entries @ z) - 1.0) <= 1e-10

        # gradient vs central differences on 100 random points
        gspec = CanonicalNorm(SymMatrix([[1.5, 0.2], [0.2, 0.9]]))
        gdil = Dilation((2.0, 1.0))
        gnorm = norm_evaluator(gspec, gdil)
        checked = 0
        while checked < 100:
            x = RNG.uniform(-4, 4, size=2)
            if np.linalg.norm(x) < 1e-2 or min(abs(x)) < 1e-2:
                continue
            grad = canonical_norm_gradient(gspec, gdil, x)
            step = 1e-6 * float(np.linalg.norm(x))
            fd = np.zeros(2)
            for k in range(2):
                e = np.zeros(2)
                e[k] = step
                fd[k] = (gnorm(*(x + e)) - gnorm(*(x - e))) / (2 * step)
            assert np.abs(grad - fd).max() <= 1e-5 * np.abs(grad).max()
            checked += 1


def test_closed_loop_field_homogeneity():
    with criterion("closed-loop-field-homogeneity", runtime_limit=5.0):
        for mu in (-0.2, -0.1, 0.0, 0.1, 0.2):
            fld = make_closed_loop_field(GAINS, mu, WeightedSumNorm((1.0, 1.0)))
            dil = extended_state_dilation(mu)
            samples = []
            while len(samples) < 200:
                s = RNG.uniform(-5, 5)
                x = RNG.uniform(-2, 2, size=3)
                if math.hypot(x[0], x[1]) < 1e-8:
                    continue
                samples.append((s, x))
            report = verify_field_homogeneity(fld, dil, mu, samples)
            assert report.passed, f"mu={mu}: residual {report.max_residual:.3e}"


def test_mu_zero_degeneration():
    with criterion("mu-zero-degeneration"):
        for _ in range(1000):
            gains = GainSet(*RNG.uniform(-5, 5, size=3))
            eps, deps = RNG.uniform(-5, 5, size=2)
            acc = RNG.uniform(-2, 2)
            dt = RNG.uniform(1e-4, 1e-1)
            u_lin, _ = pid_step(gains, acc, eps, deps, dt)
            u_hom, _ = hpid_step(HpidState(gains, 0.0, integral_acc=acc), eps, deps, dt)
            assert abs(u_hom - u_lin) <= 1e-12 * (1.0 + abs(u_lin))
        # elementwise, not A @ x: a BLAS product may fuse multiply-adds
        kp, kd, ki = GAINS.kp, GAINS.kd, GAINS.ki
        fld = make_closed_loop_field(GAINS, 0.0, WeightedSumNorm((1.0, 1.0)))
        for _ in range(200):
            x1, x2, x3 = x = RNG.uniform(-5, 5, size=3)
            assert np.array_equal(fld(x), [x2, kp * x1 + kd * x2 + x3, ki * x1])


def test_linear_case_oracle():
    with criterion("linear-case-oracle"):
        scn = Scenario(controller="pid", gains=GAINS, x0=(1.0, 0.0, 0.3), horizon=9.0, step=1e-3)
        traj = simulate(scn)
        x0 = np.array(scn.x0)
        A = GAINS.a_matrix()
        sup = 0.0
        for i in range(0, len(traj.times), 50):
            exact = expm(A * traj.times[i]) @ x0
            sup = max(sup, float(np.abs(traj.states[i] - exact).max()))
        assert sup <= 1e-6, f"sup-norm error {sup:.3e}"


def test_theorem_reproduction_desk_scale():
    with criterion("theorem-1-desk-scale", runtime_limit=30.0):
        cert = certify(GAINS)
        assert cert.mu_lo < 0.0 < cert.mu_hi
        assert cert.beta > 0.0 and cert.gamma > 0.0
        for mu in (-0.1, 0.0, 0.1):
            scn = Scenario(
                controller="hpid" if mu else "pid", gains=GAINS, mu=mu, horizon=9.0, step=1e-3
            )
            report = lyapunov_decrease_check(simulate(scn), cert, mu)
            assert report.passed, f"mu={mu}: fraction {report.fraction:.4f}"


def test_solution_scaling_symmetry():
    with criterion("solution-scaling-symmetry"):
        for mu in (-0.1, 0.1):
            for s in (-0.5, 0.5):
                scn = Scenario(controller="hpid", gains=GAINS, mu=mu, horizon=3.0, step=1e-4)
                report = scaling_symmetry_run(scn, s)
                assert report.sup_discrepancy <= 1e-4, (
                    f"mu={mu}, s={s}: discrepancy {report.sup_discrepancy:.3e}"
                )


def test_rate_taxonomy():
    with criterion("rate-taxonomy"):
        fast = simulate(Scenario(controller="hpid", gains=GAINS, mu=-0.2, horizon=30.0, step=1e-3))
        slow = simulate(Scenario(controller="pid", gains=GAINS, horizon=30.0, step=1e-3))
        t_fast = convergence_classifier(fast, settle_tol=1e-6).settle_time
        t_exp6 = convergence_classifier(slow, settle_tol=1e-6).settle_time
        t_exp8 = convergence_classifier(slow, settle_tol=1e-8).settle_time
        assert t_fast is not None and t_exp6 is not None and t_exp8 is not None
        # ordering with at least 5% margin: finite-time beats exponential,
        # and the exponential tail needs strictly longer for a tighter ball
        assert t_fast <= 0.95 * t_exp6, f"{t_fast} vs {t_exp6}"
        assert t_exp6 <= 0.95 * t_exp8, f"{t_exp6} vs {t_exp8}"


def test_metrics_correctness():
    with criterion("metrics-correctness"):
        grid = np.arange(0.0, 9.0 + 1e-12, 1e-3)
        scn = Scenario(horizon=9.0, step=1e-3)

        def wrap(u):
            u = np.asarray(u, dtype=float)[:, None]
            states = np.zeros((len(grid), 3))
            states[:, :1] = u  # the error channel
            return Trajectory(times=grid, states=states, controls=u, scenario=scn)

        assert itae(wrap(np.ones(len(grid)))) == pytest.approx(40.5, abs=1e-6)
        assert ivc(wrap(grid.copy())) == pytest.approx(9.0, abs=1e-9)
        assert iavc(wrap(np.full(len(grid), 2.0))) == pytest.approx(18.0, abs=1e-9)

        u6 = np.random.default_rng(8).normal(size=(len(grid), 6))
        states6 = np.zeros((len(grid), 18))
        states6[:, 0::3] = u6  # the error channels
        traj6 = Trajectory(times=grid, states=states6, controls=u6, scenario=scn)
        l2 = l2_norm(traj6, "control")
        squares = np.array([pointwise_norm(traj6, "control", i) ** 2 for i in range(len(grid))])
        via_pointwise = math.sqrt(np.trapezoid(squares, grid))
        assert abs(l2 - via_pointwise) <= 1e-9 * l2


def test_qualitative_comparison_trend():
    with criterion("qualitative-comparison-trend", runtime_limit=60.0):
        pid_scn = Scenario(
            controller="pid",
            gains=GAINS,
            joint_plant=default_six_joint_plant(),
            horizon=9.0,
            step=1e-3,
            name="trend-pid",
        )
        hpid_scn = Scenario(
            controller="hpid",
            gains=GAINS,
            mu=0.2,
            norm=ExperimentalNorm(1.0, 1.0, 0.2),
            joint_plant=default_six_joint_plant(),
            horizon=9.0,
            step=1e-3,
            name="trend-hpid",
        )
        report = compare(simulate(pid_scn), simulate(hpid_scn))
        ivc_wins, iavc_wins, _ = report.hpid_win_counts()
        assert ivc_wins >= 4, f"hPID lowered IVC on only {ivc_wins}/6 joints"
        assert iavc_wins >= 4, f"hPID lowered IAVC on only {iavc_wins}/6 joints"


def test_fixture_rendering_byte_exact(tmp_path):
    with criterion("fixture-rendering"):
        cfgfile = tmp_path / "cfg"
        cfgfile.write_text("[compare fix]\nfixture = hardware\n")
        assert cli.main(["compare", "--config", str(cfgfile), "--out", str(tmp_path / "out")]) == 0
        lines = (tmp_path / "out" / "fix.csv").read_text(encoding="utf-8").splitlines()
        # all 36 table entries, rendered exactly as stored
        for j, row in enumerate(HARDWARE_COMPARISON_ROWS, start=1):
            assert f"{j}," + ",".join(row) in lines
        assert f"aggregate,l2_control,{HARDWARE_L2_CONTROL[0]},{HARDWARE_L2_CONTROL[1]},,," in lines
        assert f"aggregate,l2_error,{HARDWARE_L2_ERROR[0]},{HARDWARE_L2_ERROR[1]},,," in lines
        assert (
            f"aggregate,l2_error_alt,{HARDWARE_L2_ERROR_ALT[0]},{HARDWARE_L2_ERROR_ALT[1]},conflicting_report,,"
            in lines
        )


def test_repeat_runs_bitwise_identical(tmp_path):
    with criterion("determinism"):
        cfgfile = tmp_path / "cfg"
        cfgfile.write_text(
            "[scenario det]\nplant = joints\ncontroller = hpid\nmu = 0.2\n"
            "norm = experimental\ndist_phase = random\nseed = 42\nT = 2.0\nh = 0.001\n\n"
            "[scenario ext]\ncontroller = hpid\nmu = -0.1\nT = 2.0\nh = 0.001\n\n"
            "[compare pairing]\npid = ext\nhpid = ext\n"
        )
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            assert cli.main(["simulate", "--config", str(cfgfile), "--out", str(out)]) == 0
            assert cli.main(["compare", "--config", str(cfgfile), "--out", str(out)]) == 0
            outs.append(out)
        for name in ("det.csv", "ext.csv", "pairing.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
