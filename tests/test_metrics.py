import math

import numpy as np
import pytest

from hpid.metrics import compare, iavc, itae, ivc, l2_norm
from hpid.sim import Scenario, Trajectory, simulate


def _traj(times, u, e=None):
    """Synthetic trajectory carrying given control/error channels."""
    u = np.asarray(u, dtype=float)
    if u.ndim == 1:
        u = u[:, None]
    e = u.copy() if e is None else np.asarray(e, dtype=float)
    if e.ndim == 1:
        e = e[:, None]
    scn = Scenario(horizon=float(times[-1]) if times[-1] > 0 else 1.0, step=float(times[1] - times[0]))
    states = np.zeros((len(times), 3 * e.shape[1]))
    states[:, 0::3] = e  # the error channels
    return Trajectory(times=np.asarray(times, float), states=states, controls=u, scenario=scn)


GRID = np.arange(0.0, 9.0 + 1e-12, 1e-3)


class TestIvc:
    def test_constant_control(self):
        assert ivc(_traj(GRID, np.full(len(GRID), 2.5))) == 0.0

    def test_ramp(self):
        assert ivc(_traj(GRID, GRID.copy())) == pytest.approx(9.0, abs=1e-9)

    def test_sine_against_closed_form(self):
        # total variation of sin on [0, 9] is 6 - sin(9)
        val = ivc(_traj(GRID, np.sin(GRID)))
        assert val == pytest.approx(6.0 - math.sin(9.0), abs=1e-4)

    def test_needs_two_samples(self):
        scn = Scenario(horizon=1.0, step=0.1)
        single = Trajectory(
            times=np.array([0.0]),
            states=np.zeros((1, 3)),
            controls=np.zeros((1, 1)),
            scenario=scn,
        )
        with pytest.raises(ValueError):
            ivc(single)


class TestIavc:
    def test_zero(self):
        assert iavc(_traj(GRID, np.zeros(len(GRID)))) == 0.0

    def test_constant_two(self):
        assert iavc(_traj(GRID, np.full(len(GRID), 2.0))) == pytest.approx(18.0, abs=1e-9)

    def test_shifted_ramp_two_triangles(self):
        assert iavc(_traj(GRID, GRID - 4.5)) == pytest.approx(20.25, abs=1e-6)


class TestItae:
    def test_zero_error(self):
        assert itae(_traj(GRID, np.zeros(len(GRID)))) == 0.0

    def test_unit_error(self):
        assert itae(_traj(GRID, np.ones(len(GRID)))) == pytest.approx(40.5, abs=1e-6)

    def test_exponential_against_parts_integration(self):
        # integral of t e^{-t} over [0, 9] = 1 - 10 e^{-9}
        val = itae(_traj(GRID, np.exp(-GRID)))
        assert val == pytest.approx(1.0 - 10.0 * math.exp(-9.0), abs=1e-6)


class TestL2AndPointwise:
    def test_zero_signal(self):
        assert l2_norm(_traj(GRID, np.zeros((len(GRID), 6))), "control") == 0.0

    def test_six_unit_channels(self):
        traj = _traj(GRID, np.ones((len(GRID), 6)))
        assert l2_norm(traj, "control") == pytest.approx(math.sqrt(54.0), abs=1e-9)

    def test_l2_consistency_identity(self):
        rng = np.random.default_rng(3)
        u = rng.normal(size=(len(GRID), 6))
        traj = _traj(GRID, u)
        l2 = l2_norm(traj, "control")
        squares = np.array([float(np.linalg.norm(row)) ** 2 for row in traj.controls])
        via_pointwise = math.sqrt(np.trapezoid(squares, GRID))
        assert abs(l2 - via_pointwise) <= 1e-9 * l2


class TestQuadratureProperties:
    def test_additivity_over_partition(self):
        rng = np.random.default_rng(5)
        u = rng.normal(size=len(GRID)).cumsum() * 1e-2
        full = _traj(GRID, u)
        mid = len(GRID) // 2
        left = _traj(GRID[: mid + 1], u[: mid + 1])
        right = _traj(GRID[mid:], u[mid:])
        for index in (iavc, itae):
            total = index(full)
            split = index(left) + index(right)
            assert abs(total - split) <= 1e-9 * max(1.0, abs(total))
        assert abs(ivc(full) - (ivc(left) + ivc(right))) <= 1e-9

    def test_grid_refinement_stability(self):
        # halving h moves each index by at most 0.5% on smooth signals
        coarse = simulate(Scenario(controller="hpid", mu=0.1, horizon=9.0, step=1e-3))
        fine = simulate(Scenario(controller="hpid", mu=0.1, horizon=9.0, step=5e-4))
        for index in (ivc, iavc, itae):
            a, b = index(coarse), index(fine)
            assert abs(a - b) <= 5e-3 * max(abs(a), abs(b))


class TestCompare:
    def test_self_comparison_is_symmetric(self):
        traj = simulate(Scenario(horizon=2.0, step=1e-3))
        report = compare(traj, traj)
        assert report.ivc_pid == report.ivc_hpid
        assert report.iavc_pid == report.iavc_hpid
        assert report.itae_pid == report.itae_hpid
        assert report.l2_control_pid == report.l2_control_hpid

    def test_grid_mismatch_rejected(self):
        a = simulate(Scenario(horizon=2.0, step=1e-3))
        b = simulate(Scenario(horizon=2.0, step=5e-4))
        with pytest.raises(ValueError):
            compare(a, b)

    def test_win_counts(self):
        a = simulate(Scenario(horizon=2.0, step=1e-3, x0=(1.0, 0.0, 0.3)))
        b = simulate(Scenario(horizon=2.0, step=1e-3, x0=(0.5, 0.0, 0.15)))
        report = compare(a, b)
        wins = report.hpid_win_counts()
        assert all(0 <= w <= report.n_joints for w in wins)
