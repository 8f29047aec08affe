"""Trajectory performance indices and the PID-vs-hPID comparison report.

`channel_indices` takes three indices of each channel over the run
horizon (trapezoid quadrature on the uniform grid; the control-variation
index uses forward differences of the sampled control, which makes it the
total variation of the samples):

    ivc    control variation     integral of |du/dt|
    iavc   control effort        integral of |u|
    itae   time-weighted error   integral of t * |error|

`run_indices` joins the `ChannelIndices` of a run's parts into its
`RunIndices`, with the L2 norms of the stacked control and error signals,
sqrt(integral of sum_j s_j^2 dt), so a run made in joint groups is reduced
where each group ran.  A `MetricsReport` is the pair of two runs'
`RunIndices`, PID then hPID; it refuses runs that differ in plant, channel
layout or grid.
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
    "channel_indices",
    "run_indices",
    "compare",
]


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
    """The indices of every channel of a run, or of a part of a run such as a joint group.

    Each index is summed over one channel's column at a time, so a channel's
    indices do not depend on the channels beside it in the run or group.
    """
    times, controls, errors = traj.times, traj.controls, traj.errors
    if len(times) < 2:
        raise ValueError("need at least two samples")
    return ChannelIndices(
        plant=traj.scenario.plant,
        times=times,
        ivc=tuple(float(np.abs(np.diff(u)).sum()) for u in controls.T),
        iavc=tuple(float(np.trapezoid(np.abs(u), times)) for u in controls.T),
        itae=tuple(float(np.trapezoid(times * np.abs(e), times)) for e in errors.T),
        control_squares=controls * controls,
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


def _l2(squares: np.ndarray, times: np.ndarray) -> float:
    # squares: one column of squared samples per channel
    return float(np.sqrt(np.trapezoid(squares.sum(axis=1), times)))


def run_indices(parts: Sequence[ChannelIndices]) -> RunIndices:
    """The indices of one run from those of its parts, in channel order: everything compare needs of it.

    The parts' squared samples are stacked into the run's columns, so the
    L2 norms are bitwise those of the whole run's channel_indices.
    """
    controls = np.hstack([part.control_squares for part in parts])
    errors = np.hstack([part.error_squares for part in parts])
    times = parts[0].times
    # two L2 floats, not the stacked squares: one record for a run and its
    # parts that kept the squares read joints_compare's peak RSS +4.8 %
    # (44.9 to 47.1 MB), so ChannelIndices and RunIndices stay apart
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
