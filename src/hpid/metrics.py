"""Trajectory performance indices and the PID-vs-hPID comparison report.

Indices per channel over the run horizon (trapezoid quadrature on the
uniform grid; the control-variation index uses forward differences of the
sampled control, which makes it the total variation of the samples):

    control variation   integral of |du/dt|
    control effort      integral of |u|
    time-weighted error integral of t * |error|

plus aggregate L2 norms of the stacked control and error signals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sim import Trajectory

__all__ = ["MetricsReport", "ivc", "iavc", "itae", "l2_norm", "pointwise_norm", "compare"]


def _signal(traj: Trajectory, signal: str) -> np.ndarray:
    """The "control" or "error" samples, one column per channel."""
    if signal == "control":
        return traj.controls
    if signal == "error":
        return traj.errors
    raise ValueError(f"unknown signal {signal!r}")


def _channel(traj: Trajectory, signal: str, joint: int) -> np.ndarray:
    data = _signal(traj, signal)
    if not 0 <= joint < data.shape[1]:
        raise ValueError(f"joint index {joint} out of range for {data.shape[1]} channels")
    if len(data) < 2:
        raise ValueError("need at least two samples")
    return data[:, joint]


def ivc(traj: Trajectory, joint: int = 0) -> float:
    """Integral of |du/dt| over the horizon for one control channel."""
    u = _channel(traj, "control", joint)
    return float(np.abs(np.diff(u)).sum())


def iavc(traj: Trajectory, joint: int = 0) -> float:
    """Integral of |u| over the horizon for one control channel."""
    u = _channel(traj, "control", joint)
    return float(np.trapezoid(np.abs(u), traj.times))


def itae(traj: Trajectory, joint: int = 0) -> float:
    """Integral of t * |error| over the horizon for one error channel."""
    e = _channel(traj, "error", joint)
    return float(np.trapezoid(traj.times * np.abs(e), traj.times))


def l2_norm(traj: Trajectory, signal: str) -> float:
    """sqrt(integral of sum_j s_j^2 dt) across all channels of a signal."""
    data = _signal(traj, signal)
    if len(data) < 2:
        raise ValueError("need at least two samples")
    return float(np.sqrt(np.trapezoid((data * data).sum(axis=1), traj.times)))


def pointwise_norm(traj: Trajectory, signal: str, t_index: int) -> float:
    """Euclidean norm across channels at one sample."""
    data = _signal(traj, signal)
    if not 0 <= t_index < len(data):
        raise ValueError(f"sample index {t_index} out of range")
    return float(np.linalg.norm(data[t_index]))


@dataclass(frozen=True)
class MetricsReport:
    """Per-joint indices for two matched runs plus aggregate L2 norms."""

    ivc_pid: tuple[float, ...]
    ivc_hpid: tuple[float, ...]
    iavc_pid: tuple[float, ...]
    iavc_hpid: tuple[float, ...]
    itae_pid: tuple[float, ...]
    itae_hpid: tuple[float, ...]
    l2_control_pid: float
    l2_control_hpid: float
    l2_error_pid: float
    l2_error_hpid: float

    @property
    def n_joints(self) -> int:
        return len(self.ivc_pid)

    def hpid_win_counts(self) -> tuple[int, int, int]:
        """How many joints improved (strictly lower index) under hPID."""
        ivc_wins = sum(h < p for p, h in zip(self.ivc_pid, self.ivc_hpid))
        iavc_wins = sum(h < p for p, h in zip(self.iavc_pid, self.iavc_hpid))
        itae_wins = sum(h < p for p, h in zip(self.itae_pid, self.itae_hpid))
        return ivc_wins, iavc_wins, itae_wins


def compare(traj_pid: Trajectory, traj_hpid: Trajectory) -> MetricsReport:
    """Per-joint index table for two runs on the same plant and grid."""
    if traj_pid.controls.shape != traj_hpid.controls.shape:
        raise ValueError("runs have different channel layouts")
    if len(traj_pid.times) != len(traj_hpid.times) or not np.array_equal(traj_pid.times, traj_hpid.times):
        raise ValueError("runs were sampled on different grids")
    if traj_pid.scenario.plant != traj_hpid.scenario.plant:
        raise ValueError("runs use different plants")
    m = traj_pid.n_channels
    return MetricsReport(
        ivc_pid=tuple(ivc(traj_pid, j) for j in range(m)),
        ivc_hpid=tuple(ivc(traj_hpid, j) for j in range(m)),
        iavc_pid=tuple(iavc(traj_pid, j) for j in range(m)),
        iavc_hpid=tuple(iavc(traj_hpid, j) for j in range(m)),
        itae_pid=tuple(itae(traj_pid, j) for j in range(m)),
        itae_hpid=tuple(itae(traj_hpid, j) for j in range(m)),
        l2_control_pid=l2_norm(traj_pid, "control"),
        l2_control_hpid=l2_norm(traj_hpid, "control"),
        l2_error_pid=l2_norm(traj_pid, "error"),
        l2_error_hpid=l2_norm(traj_hpid, "error"),
    )
