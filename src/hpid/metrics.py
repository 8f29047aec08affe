"""Trajectory performance indices and the PID-vs-hPID comparison report.

`channel_indices` takes five indices of each channel over the run
horizon (trapezoid quadrature on the uniform grid; the control-variation
index uses forward differences of the sampled control, which makes it the
total variation of the samples):

    ivc             control variation     integral of |du/dt|
    iavc            control effort        integral of |u|
    itae            time-weighted error   integral of t * |error|
    control_energy  control energy        integral of u^2
    error_energy    error energy          integral of error^2

A run's L2 norms of control and error are the roots of the exact sums
(math.fsum) of its channels' energies, so `run_indices` joins the indices
of a run made in joint groups by concatenation, whatever the cut.  A
`MetricsReport` is the pair of two runs' `RunIndices`, PID then hPID; it
refuses runs that differ in plant, channel layout or grid.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, fields

import numpy as np

from .sim import Trajectory

__all__ = [
    "MetricsReport",
    "RunIndices",
    "channel_indices",
    "run_indices",
    "compare",
]


@dataclass(frozen=True)
class RunIndices:
    """The per-channel indices of a run, or of some of its channels such as a joint group."""

    plant: str
    times: np.ndarray
    ivc: tuple[float, ...]
    iavc: tuple[float, ...]
    itae: tuple[float, ...]
    control_energy: tuple[float, ...]
    error_energy: tuple[float, ...]

    @property
    def layout(self) -> tuple[int, int]:
        """Samples by channels, the shape of the controls."""
        return len(self.times), len(self.ivc)

    @property
    def l2_control(self) -> float:
        return math.sqrt(math.fsum(self.control_energy))

    @property
    def l2_error(self) -> float:
        return math.sqrt(math.fsum(self.error_energy))


def channel_indices(traj: Trajectory) -> RunIndices:
    """The indices of every channel of a run, or of a part of a run such as a joint group.

    Each index is summed over one channel's column at a time, so a channel's
    indices do not depend on the channels beside it in the run or group.
    """
    times, controls, errors = traj.times, traj.controls, traj.errors
    if len(times) < 2:
        raise ValueError("need at least two samples")
    return RunIndices(
        plant=traj.scenario.plant,
        times=times,
        ivc=tuple(float(np.abs(np.diff(u)).sum()) for u in controls.T),
        iavc=tuple(float(np.trapezoid(np.abs(u), times)) for u in controls.T),
        itae=tuple(float(np.trapezoid(times * np.abs(e), times)) for e in errors.T),
        control_energy=tuple(float(np.trapezoid(u * u, times)) for u in controls.T),
        error_energy=tuple(float(np.trapezoid(e * e, times)) for e in errors.T),
    )


def run_indices(parts: Sequence[RunIndices]) -> RunIndices:
    """The indices of one run from those of its parts, in channel order: everything compare needs of it."""
    # every field after plant and times holds one value per channel
    return RunIndices(
        parts[0].plant,
        parts[0].times,
        *(tuple(v for part in parts for v in getattr(part, f.name)) for f in fields(RunIndices)[2:]),
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
    return MetricsReport(channel_indices(traj_pid), channel_indices(traj_hpid))
