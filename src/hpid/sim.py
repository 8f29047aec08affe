"""Deterministic fixed-step integration of the closed-loop systems.

Classical RK4 on a uniform grid, chosen over adaptive stepping for bitwise
reproducibility and easy symmetry checks.  For nonzero degree the vector
field is continuous but not Lipschitz at the origin, so the formal fourth
order degrades in a small terminal neighbourhood; convergence tests exclude
that ball.

Both plants are closed-loop blocks of plant.closed_loop_blocks, three
states (e, de, z) each, where z is the integral action
ki * integral(nu^{3 mu} e) plus the constant it absorbed at t = 0:

* "extended": one undisturbed block from x0; the constant disturbance p
  sits in the third state, z(0) = p.
* "joints": n independent feedback-linearized joints, one block each with
  z(0) = 0, driven by its bounded disturbance waveform sampled continuously
  in time.  Every joint runs the scenario's controller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .control import GainSet, hpid_law
from .homogeneity import HomNormSpec, WeightedSumNorm, extended_state_dilation
from .plant import JointPlantConfig, closed_loop_blocks, reference_eval

__all__ = [
    "DivergenceError",
    "Scenario",
    "Trajectory",
    "ScalingReport",
    "rk4_step",
    "simulate",
    "scaling_symmetry_run",
    "DIVERGENCE_LIMIT",
]

DIVERGENCE_LIMIT = 1e9


class DivergenceError(RuntimeError):
    """State norm exceeded the divergence limit (or became non-finite)."""

    def __init__(self, time: float, detail: str = ""):
        self.time = float(time)
        msg = f"simulation diverged at t = {self.time:.6g}"
        super().__init__(msg + (f" ({detail})" if detail else ""))


@dataclass(frozen=True)
class Scenario:
    """Everything needed to reproduce one closed-loop run.

    gains, mu, norm and norm_floor define the one controller of the run; on
    the joints plant every joint runs it.  The plant is "joints" exactly
    when joint_plant is set; x0 applies to the extended plant only.
    """

    controller: str = "pid"  # "pid" | "hpid"
    gains: GainSet = GainSet(-3.0, -3.0, -1.0)
    mu: float = 0.0
    norm: HomNormSpec = WeightedSumNorm((1.0, 1.0))
    x0: tuple[float, float, float] = (1.0, 0.0, 0.3)
    horizon: float = 9.0
    step: float = 1e-3
    norm_floor: float = 1e-9
    joint_plant: JointPlantConfig | None = None
    name: str = ""

    def __post_init__(self):
        if self.controller not in ("pid", "hpid"):
            raise ValueError(f"unknown controller {self.controller!r}")
        mu = float(self.mu)
        if self.controller == "pid" and mu != 0.0:
            raise ValueError("a pid scenario must keep mu = 0")
        object.__setattr__(self, "mu", mu)
        T, h = float(self.horizon), float(self.step)
        if not (math.isfinite(T) and T > 0.0):
            raise ValueError(f"horizon must be positive, got {T}")
        if not (math.isfinite(h) and h > 0.0):
            raise ValueError(f"step must be positive, got {h}")
        if h > T / 10.0:
            raise ValueError(f"step {h} too coarse for horizon {T} (need h <= T/10)")
        if abs(round(T / h) * h - T) > 1e-9 * T:
            raise ValueError(f"step {h} does not divide horizon {T}")
        object.__setattr__(self, "horizon", T)
        object.__setattr__(self, "step", h)
        object.__setattr__(self, "norm_floor", float(self.norm_floor))
        hpid_law(self.gains, mu, self.norm, self.norm_floor)  # validates mu, floor and norm
        x0 = tuple(float(v) for v in self.x0)
        if len(x0) != 3 or not all(math.isfinite(v) for v in x0):
            raise ValueError(f"x0 must be three finite reals, got {self.x0}")
        object.__setattr__(self, "x0", x0)

    @property
    def plant(self) -> str:
        return "extended" if self.joint_plant is None else "joints"

    def n_steps(self) -> int:
        return int(round(self.horizon / self.step))


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Uniformly sampled closed-loop run: states, controls, tracking errors."""

    times: np.ndarray
    states: np.ndarray
    controls: np.ndarray
    errors: np.ndarray
    scenario: Scenario = field(repr=False)

    def __post_init__(self):
        for name in ("times", "states", "controls", "errors"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if not np.isfinite(arr).all():
                raise ValueError(f"trajectory {name} contain non-finite samples")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        n = len(self.times)
        if not (len(self.states) == len(self.controls) == len(self.errors) == n):
            raise ValueError("trajectory arrays must have equal lengths")

    @property
    def n_channels(self) -> int:
        return self.controls.shape[1]


def rk4_step(rhs: Callable[[float, np.ndarray], np.ndarray], x: np.ndarray, t: float, h: float) -> np.ndarray:
    """One classical fourth-order Runge-Kutta update of x' = rhs(t, x)."""
    k1 = rhs(t, x)
    k2 = rhs(t + 0.5 * h, x + 0.5 * h * k1)
    k3 = rhs(t + 0.5 * h, x + 0.5 * h * k2)
    k4 = rhs(t + h, x + h * k3)
    out = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not np.isfinite(out).all():
        raise DivergenceError(t, "non-finite right-hand side")
    return out


def simulate(scn: Scenario) -> Trajectory:
    """Integrate the scenario over [0, T]; deterministic for a fixed scenario.

    Both plants are closed-loop blocks (plant.closed_loop_blocks), so the
    tracking errors are every third state.  Aborts with DivergenceError once
    the state norm exceeds DIVERGENCE_LIMIT.
    """
    if scn.joint_plant is None:
        # one undisturbed block: the constant disturbance sits in z(0) = p
        y0, disturbances = list(scn.x0), [lambda t: 0.0]
    else:
        # joints start from rest at zero position: error = reference at t = 0
        y0, disturbances = [], []
        for jc in scn.joint_plant.joints:
            pos, vel, _ = reference_eval(jc.reference, 0.0)
            y0 += (pos, vel, 0.0)
            disturbances.append(jc.disturbance.eval)
    rhs, control = closed_loop_blocks(scn.gains, scn.mu, scn.norm, scn.norm_floor, disturbances, y0[2::3])
    n = scn.n_steps()
    h = scn.step
    times = np.arange(n + 1) * h
    states = np.empty((n + 1, len(y0)))
    controls = np.empty((n + 1, len(disturbances)))
    y = states[0] = np.array(y0)
    controls[0] = control(y)
    for i in range(n):
        y = rk4_step(rhs, y, times[i], h)
        if float(np.abs(y).max()) > DIVERGENCE_LIMIT:
            raise DivergenceError(times[i + 1], f"|x| > {DIVERGENCE_LIMIT:g}")
        states[i + 1] = y
        controls[i + 1] = control(y)
    return Trajectory(times=times, states=states, controls=controls, errors=states[:, 0::3].copy(), scenario=scn)


@dataclass(frozen=True)
class ScalingReport:
    """Discrepancy between a dilated run and the dilated, time-rescaled nominal."""

    s: float
    mu: float
    sup_discrepancy: float
    n_compared: int
    truncated: bool


def scaling_symmetry_run(scn: Scenario, s: float) -> ScalingReport:
    """Exercise the solution symmetry x(t, d(s) x0) = d(s) x(e^{mu s} t, x0).

    Simulates from the dilated initial state and compares against the
    nominal trajectory dilated and resampled at e^{mu s} t with linear
    interpolation.  Rescaled times beyond the horizon are dropped and
    flagged as truncation.
    """
    if scn.plant != "extended":
        raise ValueError("scaling symmetry runs on the extended system")
    mu = scn.mu
    dil = extended_state_dilation(mu)
    scales = dil.scales(s)
    dilated_x0 = tuple(float(v) for v in scales * np.array(scn.x0))
    nominal = simulate(scn)
    dilated = simulate(replace(scn, x0=dilated_x0, name=f"{scn.name}:dilated"))

    factor = math.exp(mu * s)
    times = nominal.times
    n = len(times) - 1
    tq = factor * times
    m = int(np.count_nonzero(tq <= times[-1]))  # tq is nondecreasing: a prefix is kept
    pos = tq[:m] / scn.step
    j = np.minimum(pos.astype(int), n - 1)
    frac = (pos - j)[:, None]
    x_nom = (1.0 - frac) * nominal.states[j] + frac * nominal.states[j + 1]
    diff = np.abs(dilated.states[:m] - scales * x_nom).max(axis=1)
    sup = float(diff.max(initial=0.0))
    return ScalingReport(s=float(s), mu=mu, sup_discrepancy=sup, n_compared=m, truncated=m <= n)
