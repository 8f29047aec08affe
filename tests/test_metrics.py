import math
from dataclasses import replace

import numpy as np
import pytest

from hpid import cli
from hpid.metrics import channel_indices, compare, run_indices
from hpid.plant import default_six_joint_plant
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
        assert channel_indices(_traj(GRID, np.full(len(GRID), 2.5))).ivc[0] == 0.0

    def test_ramp(self):
        assert channel_indices(_traj(GRID, GRID.copy())).ivc[0] == pytest.approx(9.0, abs=1e-9)

    def test_sine_against_closed_form(self):
        # total variation of sin on [0, 9] is 6 - sin(9)
        val = channel_indices(_traj(GRID, np.sin(GRID))).ivc[0]
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
            channel_indices(single)


class TestIavc:
    def test_zero(self):
        assert channel_indices(_traj(GRID, np.zeros(len(GRID)))).iavc[0] == 0.0

    def test_constant_two(self):
        assert channel_indices(_traj(GRID, np.full(len(GRID), 2.0))).iavc[0] == pytest.approx(18.0, abs=1e-9)

    def test_shifted_ramp_two_triangles(self):
        assert channel_indices(_traj(GRID, GRID - 4.5)).iavc[0] == pytest.approx(20.25, abs=1e-6)


class TestItae:
    def test_zero_error(self):
        assert channel_indices(_traj(GRID, np.zeros(len(GRID)))).itae[0] == 0.0

    def test_unit_error(self):
        assert channel_indices(_traj(GRID, np.ones(len(GRID)))).itae[0] == pytest.approx(40.5, abs=1e-6)

    def test_exponential_against_parts_integration(self):
        # integral of t e^{-t} over [0, 9] = 1 - 10 e^{-9}
        val = channel_indices(_traj(GRID, np.exp(-GRID))).itae[0]
        assert val == pytest.approx(1.0 - 10.0 * math.exp(-9.0), abs=1e-6)


class TestL2AndPointwise:
    def test_zero_signal(self):
        assert run_indices([channel_indices(_traj(GRID, np.zeros((len(GRID), 6))))]).l2_control == 0.0

    def test_six_unit_channels(self):
        traj = _traj(GRID, np.ones((len(GRID), 6)))
        assert run_indices([channel_indices(traj)]).l2_control == pytest.approx(math.sqrt(54.0), abs=1e-9)

    def test_l2_consistency_identity(self):
        rng = np.random.default_rng(3)
        u = rng.normal(size=(len(GRID), 6))
        traj = _traj(GRID, u)
        l2 = run_indices([channel_indices(traj)]).l2_control
        squares = np.array([float(np.linalg.norm(row)) ** 2 for row in traj.controls])
        via_pointwise = math.sqrt(np.trapezoid(squares, GRID))
        assert abs(l2 - via_pointwise) <= 1e-9 * l2


class TestQuadratureProperties:
    def test_additivity_over_partition(self):
        rng = np.random.default_rng(5)
        u = rng.normal(size=len(GRID)).cumsum() * 1e-2
        full = channel_indices(_traj(GRID, u))
        mid = len(GRID) // 2
        left = channel_indices(_traj(GRID[: mid + 1], u[: mid + 1]))
        right = channel_indices(_traj(GRID[mid:], u[mid:]))
        for name in ("iavc", "itae"):
            total = getattr(full, name)[0]
            split = getattr(left, name)[0] + getattr(right, name)[0]
            assert abs(total - split) <= 1e-9 * max(1.0, abs(total))
        assert abs(full.ivc[0] - (left.ivc[0] + right.ivc[0])) <= 1e-9

    def test_grid_refinement_stability(self):
        # halving h moves each index by at most 0.5% on smooth signals
        coarse = simulate(Scenario(controller="hpid", mu=0.1, horizon=9.0, step=1e-3))
        fine = simulate(Scenario(controller="hpid", mu=0.1, horizon=9.0, step=5e-4))
        coarse, fine = channel_indices(coarse), channel_indices(fine)
        for name in ("ivc", "iavc", "itae"):
            a, b = getattr(coarse, name)[0], getattr(fine, name)[0]
            assert abs(a - b) <= 5e-3 * max(abs(a), abs(b))


class TestCompare:
    def test_self_comparison_is_symmetric(self):
        traj = simulate(Scenario(horizon=2.0, step=1e-3))
        report = compare(traj, traj)
        assert report.pid.ivc == report.hpid.ivc
        assert report.pid.iavc == report.hpid.iavc
        assert report.pid.itae == report.hpid.itae
        assert report.pid.l2_control == report.hpid.l2_control

    def test_grid_mismatch_rejected(self):
        a = simulate(Scenario(horizon=2.0, step=1e-3))
        b = simulate(Scenario(horizon=2.0, step=5e-4))
        with pytest.raises(ValueError):
            compare(a, b)

    def test_win_counts(self, tmp_path, capsys):
        # the summary counts the joints whose hPID index is strictly lower; the
        # spread amplitudes leave hPID's IVC higher on two joints, so a swapped
        # PID/hPID pairing would read 2 and 0
        joints = "plant = joints\nref_amplitude = 1, 0.1, 2, 0.05, 3, 0.5\nT = 2.0\nh = 0.001\n"
        text = (
            f"[scenario p]\n{joints}\n[scenario h]\n{joints}controller = hpid\nmu = 0.2\nnorm_coefficients = 1, 1\n\n"
            "[compare c]\npid = p\nhpid = h\n"
        )
        cfgfile = tmp_path / "cfg"
        cfgfile.write_text(text)
        assert cli.main(["compare", "--config", str(cfgfile), "--out", str(tmp_path / "out")]) == 0
        summary = capsys.readouterr().out.splitlines()[-1]
        assert summary == "summary,hpid_lower_ivc,4,hpid_lower_iavc,6,joints,6"
        cfg = cli.parse_config(text)
        report = compare(simulate(cfg.scenario("p")), simulate(cfg.scenario("h")))
        ivc_wins = sum(h < p for p, h in zip(report.pid.ivc, report.hpid.ivc))
        iavc_wins = sum(h < p for p, h in zip(report.pid.iavc, report.hpid.iavc))
        assert summary == f"summary,hpid_lower_ivc,{ivc_wins},hpid_lower_iavc,{iavc_wins},joints,{len(report.pid.ivc)}"


@pytest.mark.parametrize("cuts", [(0, 3, 6), (0, 1, 3, 4, 6), (0, 1, 2, 3, 4, 5, 6)], ids=["2", "4", "6"])
def test_indices_joined_from_joint_groups_are_the_whole_runs(cuts):
    # each group of joints is a run of its own; joined in channel order, their
    # indices and L2 norms are the whole run's bit for bit, the L2 norms being
    # the roots of the exact sums of the channels' energies
    scn = Scenario(controller="hpid", mu=0.2, horizon=1.0, step=0.01, joints=default_six_joint_plant())
    whole = run_indices([channel_indices(simulate(scn))])
    joined = run_indices([
        channel_indices(simulate(replace(scn, joints=scn.joints[lo:hi]))) for lo, hi in zip(cuts, cuts[1:])
    ])
    assert joined.layout == whole.layout == (101, 6)
    assert np.array_equal(joined.times, whole.times)
    for name in ("plant", "ivc", "iavc", "itae", "control_energy", "error_energy", "l2_control", "l2_error"):
        assert getattr(joined, name) == getattr(whole, name), name
    traj = simulate(scn)
    for l2, signal in ((whole.l2_control, traj.controls), (whole.l2_error, traj.errors)):
        assert l2 == math.sqrt(math.fsum(float(np.trapezoid(s * s, traj.times)) for s in signal.T))
