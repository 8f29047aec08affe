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

__all__ = [
    "MetricsReport",
    "RunIndices",
    "ivc",
    "iavc",
    "itae",
    "l2_norm",
    "run_indices",
    "compare_indices",
    "compare",
]


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


@dataclass(frozen=True)
class RunIndices:
    """One run's per-channel indices and L2 norms, with what pairing two runs checks."""

    plant: str
    layout: tuple[int, int]  # shape of the control samples
    times: np.ndarray
    ivc: tuple[float, ...]
    iavc: tuple[float, ...]
    itae: tuple[float, ...]
    l2_control: float
    l2_error: float


def run_indices(traj: Trajectory) -> RunIndices:
    """The indices of one run, everything compare needs of it."""
    m = traj.n_channels
    return RunIndices(
        plant=traj.scenario.plant,
        layout=traj.controls.shape,
        times=traj.times,
        ivc=tuple(ivc(traj, j) for j in range(m)),
        iavc=tuple(iavc(traj, j) for j in range(m)),
        itae=tuple(itae(traj, j) for j in range(m)),
        l2_control=l2_norm(traj, "control"),
        l2_error=l2_norm(traj, "error"),
    )


def compare_indices(pid: RunIndices, hpid: RunIndices) -> MetricsReport:
    """Per-joint index table for two runs' indices on the same plant and grid."""
    if pid.layout != hpid.layout:
        raise ValueError("runs have different channel layouts")
    if len(pid.times) != len(hpid.times) or not np.array_equal(pid.times, hpid.times):
        raise ValueError("runs were sampled on different grids")
    if pid.plant != hpid.plant:
        raise ValueError("runs use different plants")
    return MetricsReport(
        ivc_pid=pid.ivc,
        ivc_hpid=hpid.ivc,
        iavc_pid=pid.iavc,
        iavc_hpid=hpid.iavc,
        itae_pid=pid.itae,
        itae_hpid=hpid.itae,
        l2_control_pid=pid.l2_control,
        l2_control_hpid=hpid.l2_control,
        l2_error_pid=pid.l2_error,
        l2_error_hpid=hpid.l2_error,
    )


def compare(traj_pid: Trajectory, traj_hpid: Trajectory) -> MetricsReport:
    """Per-joint index table for two runs on the same plant and grid."""
    return compare_indices(run_indices(traj_pid), run_indices(traj_hpid))
