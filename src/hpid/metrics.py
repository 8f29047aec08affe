"""Trajectory performance indices and the PID-vs-hPID comparison report.

Indices per channel over the run horizon (trapezoid quadrature on the
uniform grid; the control-variation index uses forward differences of the
sampled control, which makes it the total variation of the samples):

    control variation   integral of |du/dt|
    control effort      integral of |u|
    time-weighted error integral of t * |error|

plus aggregate L2 norms of the stacked control and error signals.

A `MetricsReport` is the pair of two runs' `RunIndices`, PID then hPID;
it refuses runs that differ in plant, channel layout or grid.  A run's
`RunIndices` are joined from the `ChannelIndices` of its parts, so a run
made in joint groups is reduced where each group ran.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .sim import Trajectory

__all__ = [
    "ChannelIndices",
    "MetricsReport",
    "RunIndices",
    "ivc",
    "iavc",
    "itae",
    "l2_norm",
    "channel_indices",
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
    return _l2(data * data, traj.times)


def _l2(squares: np.ndarray, times: np.ndarray) -> float:
    # squares: one column of squared samples per channel
    return float(np.sqrt(np.trapezoid(squares.sum(axis=1), times)))


@dataclass(frozen=True)
class ChannelIndices:
    """Some of one run's channels: their indices, and their squared samples for the run's L2 norms."""

    plant: str
    times: np.ndarray
    ivc: tuple[float, ...]
    iavc: tuple[float, ...]
    itae: tuple[float, ...]
    control_squares: np.ndarray
    error_squares: np.ndarray


def channel_indices(traj: Trajectory) -> ChannelIndices:
    """The indices of every channel of a run, or of a part of a run such as a joint group."""
    m = traj.n_channels
    errors = traj.errors
    return ChannelIndices(
        plant=traj.scenario.plant,
        times=traj.times,
        ivc=tuple(ivc(traj, j) for j in range(m)),
        iavc=tuple(iavc(traj, j) for j in range(m)),
        itae=tuple(itae(traj, j) for j in range(m)),
        control_squares=traj.controls * traj.controls,
        error_squares=errors * errors,
    )


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


def run_indices(parts: Sequence[ChannelIndices]) -> RunIndices:
    """The indices of one run from those of its parts, in channel order: everything compare needs of it.

    The parts' squared samples are stacked into the run's columns, so the
    L2 norms are bitwise those of the whole run's channel_indices.
    """
    controls = np.hstack([part.control_squares for part in parts])
    errors = np.hstack([part.error_squares for part in parts])
    times = parts[0].times
    return RunIndices(
        plant=parts[0].plant,
        layout=controls.shape,
        times=times,
        ivc=tuple(v for part in parts for v in part.ivc),
        iavc=tuple(v for part in parts for v in part.iavc),
        itae=tuple(v for part in parts for v in part.itae),
        l2_control=_l2(controls, times),
        l2_error=_l2(errors, times),
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
    return MetricsReport(run_indices([channel_indices(traj_pid)]), run_indices([channel_indices(traj_hpid)]))
