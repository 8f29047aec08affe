"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one `ACCEPTANCE <name>: PASS/FAIL` line (straight to the
real stdout so the lines survive pytest capture) and enforces the stated
runtime budget where one applies.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.linalg import expm

from conftest import ACCEPTANCE_LINES

from hpid import checks, cli
from hpid.control import GainSet
from hpid.fixtures import HARDWARE_COMPARISON_ROWS
from hpid.homogeneity import CanonicalNorm, SymMatrix, WeightedSumNorm, error_pair_dilation
from hpid.metrics import channel_indices, compare
from hpid.plant import default_six_joint_plant
from hpid.sim import Scenario, Trajectory, simulate
from hpid.stability import certify

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


def _passes(result) -> None:
    assert result.passed, result.line()


def test_homogeneity_algebra_suite():
    with criterion("homogeneity-algebra-suite", runtime_limit=5.0):
        _passes(checks._check_group_law(RNG, draws=60))
        P = SymMatrix([[2.0, 0.3], [0.3, 1.0]])
        experimental = WeightedSumNorm((1 / 1.5, 0.7))  # norm = experimental at zeta1_max = 1.5, norm_gamma = 0.7
        specs = [WeightedSumNorm((1.0, 1.0)), WeightedSumNorm((2.0, 0.5)), CanonicalNorm(P), experimental]
        _passes(checks._check_norm_scaling(RNG, error_pair_dilation(0.2), specs, draws=80))
        _passes(checks._check_canonical_identity(RNG, error_pair_dilation(0.2), half_width=8.0, draws=200))


def test_closed_loop_field_homogeneity():
    with criterion("closed-loop-field-homogeneity", runtime_limit=5.0):
        _passes(checks._check_step_homogeneity(RNG, WeightedSumNorm((1.0, 1.0)), samples=200))


def test_mu_zero_degeneration():
    with criterion("mu-zero-degeneration", runtime_limit=5.0):
        _passes(checks._check_mu_zero_step(RNG, draws=1000))


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
        _passes(checks._check_lyapunov_decrease([-0.1, 0.0, 0.1]))


def test_solution_scaling_symmetry():
    # sample for sample within 1e-12 of each column's peak, on both plants;
    # h = 1e-3 is enough, since the dilated run steps e^{-mu s} h
    joints = default_six_joint_plant()
    scenarios = [Scenario(controller="hpid", mu=mu, horizon=3.0) for mu in (-0.45, -0.1, 0.1, 0.45)]
    scenarios += [Scenario(controller="hpid", mu=mu, horizon=3.0, joints=joints) for mu in (-0.3, 0.45)]
    scenarios += [
        Scenario(horizon=3.0),
        Scenario(horizon=3.0, joints=joints),
        Scenario(controller="hpid", mu=-0.45, norm_floor=1e-2),  # the floor clamps over half the samples
        Scenario(controller="hpid", mu=0.3, horizon=0.3, norm=CanonicalNorm(SymMatrix([[2.0, 0.3], [0.3, 1.0]]))),
    ]
    with criterion("solution-scaling-symmetry"):
        _passes(checks._check_scaling_symmetry([(scn, s) for scn in scenarios for s in (-3.0, 0.5, 3.0)]))


def _settle_time(traj: Trajectory, tol: float) -> float | None:
    """The first sample time after which |x| <= tol for the rest of the run, None if it never settles."""
    above = np.flatnonzero(np.linalg.norm(traj.states, axis=1) > tol)
    first = above[-1] + 1 if len(above) else 0
    return float(traj.times[first]) if first < len(traj.times) else None


def test_rate_taxonomy():
    with criterion("rate-taxonomy"):
        fast = simulate(Scenario(controller="hpid", gains=GAINS, mu=-0.2, horizon=30.0, step=1e-3))
        slow = simulate(Scenario(controller="pid", gains=GAINS, horizon=30.0, step=1e-3))
        t_fast = _settle_time(fast, 1e-6)
        t_exp6 = _settle_time(slow, 1e-6)
        t_exp8 = _settle_time(slow, 1e-8)
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

        assert channel_indices(wrap(np.ones(len(grid)))).itae[0] == pytest.approx(40.5, abs=1e-6)
        assert channel_indices(wrap(grid.copy())).ivc[0] == pytest.approx(9.0, abs=1e-9)
        assert channel_indices(wrap(np.full(len(grid), 2.0))).iavc[0] == pytest.approx(18.0, abs=1e-9)

        u6 = np.random.default_rng(8).normal(size=(len(grid), 6))
        states6 = np.zeros((len(grid), 18))
        states6[:, 0::3] = u6  # the error channels
        _passes(checks._check_metrics_identity(Trajectory(times=grid, states=states6, controls=u6, scenario=scn)))


def test_qualitative_comparison_trend():
    with criterion("qualitative-comparison-trend", runtime_limit=60.0):
        pid_scn = Scenario(
            controller="pid",
            gains=GAINS,
            joints=default_six_joint_plant(),
            horizon=9.0,
            step=1e-3,
            name="trend-pid",
        )
        hpid_scn = Scenario(
            controller="hpid",
            gains=GAINS,
            mu=0.2,
            joints=default_six_joint_plant(),
            horizon=9.0,
            step=1e-3,
            name="trend-hpid",
        )
        report = compare(simulate(pid_scn), simulate(hpid_scn))
        ivc_wins = sum(h < p for p, h in zip(report.pid.ivc, report.hpid.ivc))
        iavc_wins = sum(h < p for p, h in zip(report.pid.iavc, report.hpid.iavc))
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
        assert "aggregate,l2_control,423.933,329.459,,," in lines
        assert "aggregate,l2_error,52.2818,55.0789,,," in lines
        assert "aggregate,l2_error_alt,59.214,55.865,conflicting_report,," in lines


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
