"""Trajectory performance indices and the PID-vs-hPID comparison report.

Indices per channel over the run horizon (trapezoid quadrature on the
uniform grid; the control-variation index uses forward differences of the
sampled control, which makes it the total variation of the samples):

    control variation   integral of |du/dt|
    control effort      integral of |u|
    time-weighted error integral of t * |error|

plus aggregate L2 norms of the stacked control and error signals.

A `MetricsReport` is the pair of two runs' `RunIndices`, PID then hPID;
it refuses runs that differ in plant, channel layout or grid.
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


@dataclass(frozen=True)
class MetricsReport:
    """Two matched runs' indices: PID then hPID, on the same plant and grid."""

    pid: RunIndices
    hpid: RunIndices

    def __post_init__(self):
        if self.pid.layout != self.hpid.layout:
            raise ValueError("runs have different channel layouts")
        if not np.array_equal(self.pid.times, self.hpid.times):
            raise ValueError("runs were sampled on different grids")
        if self.pid.plant != self.hpid.plant:
            raise ValueError("runs use different plants")


def compare(traj_pid: Trajectory, traj_hpid: Trajectory) -> MetricsReport:
    """Per-joint index table for two runs on the same plant and grid."""
    return MetricsReport(run_indices(traj_pid), run_indices(traj_hpid))
