"""Deterministic fixed-step integration of the closed-loop systems.

Classical RK4 on a uniform grid, chosen over adaptive stepping for bitwise
reproducibility and easy symmetry checks.  For nonzero degree the vector
field is continuous but not Lipschitz at the origin, so the formal fourth
order degrades in a small terminal neighbourhood; convergence tests exclude
that ball.

Both plants are closed-loop blocks of rk4_step, three states (e, de, z)
each, where z is the integral action ki * integral(nu^{3 mu} e) plus the
constant it absorbed at t = 0:

* "extended": one undisturbed block from x0; the constant disturbance p
  sits in the third state, z(0) = p.
* "joints": n independent feedback-linearized joints, one block each with
  z(0) = 0, driven by its bounded disturbance waveform sampled continuously
  in time.  Every joint runs the scenario's controller.

rk4_step is the one RK4 scheme and the one place the field is written: it
steps every block on local Python floats, with the block field inline, and
takes its first stage from the law value simulate computed at the accepted
state for the applied control.  Per block and step the law is evaluated
four times and the disturbance three times (once at t + h/2 for stages 2
and 3).  The IEEE operations are those of the array formulation, in the
same order, so the states and controls are bitwise those of the
numpy-array RK4 over the same field (a test compares the two).  hpid verify
checks this kernel (hpid.checks).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .control import GainSet, hpid_law
from .homogeneity import HomNormSpec, WeightedSumNorm, extended_state_dilation
from .plant import JointPlantConfig, reference_eval

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
        self.detail = detail
        msg = f"simulation diverged at t = {self.time:.6g}"
        super().__init__(msg + (f" ({detail})" if detail else ""))

    def __reduce__(self):
        # rebuilt from its arguments, not from the message: a worker process
        # sends it to the parent pickled
        return type(self), (self.time, self.detail)


@dataclass(frozen=True)
class Scenario:
    """Everything needed to reproduce one closed-loop run.

    gains, mu, norm and norm_floor define the one controller of the run; on
    the joints plant every joint runs it.  The plant is "joints" exactly
    when joint_plant is set.  x0 applies to the extended plant only: it
    defaults to (1, 0, 0.3) there and must stay None on the joints plant,
    whose joints start from rest.
    """

    controller: str = "pid"  # "pid" | "hpid"
    gains: GainSet = GainSet(-3.0, -3.0, -1.0)
    mu: float = 0.0
    norm: HomNormSpec = WeightedSumNorm((1.0, 1.0))
    x0: tuple[float, float, float] | None = None
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
        object.__setattr__(self, "horizon", float(self.horizon))
        object.__setattr__(self, "step", float(self.step))
        _check_grid(self.horizon, self.step)
        object.__setattr__(self, "norm_floor", float(self.norm_floor))
        hpid_law(self.gains, mu, self.norm, self.norm_floor)  # validates mu, floor and norm
        if self.joint_plant is not None:
            if self.x0 is not None:
                raise ValueError("x0 applies to the extended plant only; joints start from rest")
            return
        object.__setattr__(self, "x0", _initial_state(self.x0))

    @property
    def plant(self) -> str:
        return "extended" if self.joint_plant is None else "joints"

    def n_steps(self) -> int:
        return int(round(self.horizon / self.step))


def _check_grid(T: float, h: float) -> None:
    if not (math.isfinite(T) and T > 0.0):
        raise ValueError(f"horizon must be positive, got {T}")
    if not (math.isfinite(h) and h > 0.0):
        raise ValueError(f"step must be positive, got {h}")
    if h > T / 10.0:
        raise ValueError(f"step {h} too coarse for horizon {T} (need h <= T/10)")
    if abs(round(T / h) * h - T) > 1e-9 * T:
        raise ValueError(f"step {h} does not divide horizon {T}")


def _initial_state(x0) -> tuple[float, float, float]:
    state = (1.0, 0.0, 0.3) if x0 is None else tuple(float(v) for v in x0)
    if len(state) != 3 or not all(math.isfinite(v) for v in state):
        raise ValueError(f"x0 must be three finite reals, got {x0}")
    return state


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Uniformly sampled closed-loop run: states (stacked (e, de, z) blocks) and controls."""

    times: np.ndarray
    states: np.ndarray
    controls: np.ndarray
    scenario: Scenario = field(repr=False)

    def __post_init__(self):
        for name in ("times", "states", "controls"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if not np.isfinite(arr).all():
                raise ValueError(f"trajectory {name} contain non-finite samples")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if not (len(self.states) == len(self.controls) == len(self.times)):
            raise ValueError("trajectory arrays must have equal lengths")

    @property
    def errors(self) -> np.ndarray:
        """Tracking errors, one column per channel: a read-only view of the states."""
        return self.states[:, 0::3]

    @property
    def n_channels(self) -> int:
        return self.controls.shape[1]


def rk4_step(
    law: Callable[[float, float], tuple[float, float]],
    ki: float,
    disturbances: Sequence[Callable[[float], float]],
    x: list[float],
    first: Sequence[tuple[float, float]],
    t: float,
    h: float,
) -> list[float]:
    """One classical fourth-order Runge-Kutta update of the closed-loop blocks.

    x stacks the (e, de, z) blocks, each with field
    (de, pd + z - d_j(t), ki * integrand), where (pd, integrand) =
    law(e, de).  first[j] is the law value at block j of x itself, the one
    simulate computed for the applied control, so it serves as the first
    stage.  Each block's stages are local floats, d_j is evaluated once at
    t + h/2 for stages 2 and 3, and the field is written inline.  The stage
    inputs are x + (h/2) k and x + h k and the update is
    x + (h/6) (((k1 + 2 k2) + 2 k3) + k4), element by element: the same
    IEEE operations, in the same order, as the array expression.
    """
    hh = 0.5 * h
    h6 = h / 6.0
    tm, t1 = t + hh, t + h
    out = []
    for (pd, integrand), dist, k in zip(first, disturbances, range(0, len(x), 3)):
        e, de, z = x[k], x[k + 1], x[k + 2]
        dm = dist(tm)
        f1, g1 = pd + z - dist(t), ki * integrand
        e2, de2, z2 = e + hh * de, de + hh * f1, z + hh * g1
        pd, integrand = law(e2, de2)
        f2, g2 = pd + z2 - dm, ki * integrand
        e3, de3, z3 = e + hh * de2, de + hh * f2, z + hh * g2
        pd, integrand = law(e3, de3)
        f3, g3 = pd + z3 - dm, ki * integrand
        e4, de4, z4 = e + h * de3, de + h * f3, z + h * g3
        pd, integrand = law(e4, de4)
        f4, g4 = pd + z4 - dist(t1), ki * integrand
        out += (
            e + h6 * (((de + 2.0 * de2) + 2.0 * de3) + de4),
            de + h6 * (((f1 + 2.0 * f2) + 2.0 * f3) + f4),
            z + h6 * (((g1 + 2.0 * g2) + 2.0 * g3) + g4),
        )
    if not all(map(math.isfinite, out)):
        raise DivergenceError(t, "non-finite right-hand side")
    return out


def simulate(scn: Scenario) -> Trajectory:
    """Integrate the scenario over [0, T]; deterministic for a fixed scenario.

    Both plants are closed-loop blocks (see rk4_step), so the tracking
    errors are every third state (Trajectory.errors).  The state
    steps as a list of Python floats through rk4_step and each step is
    stored into the preallocated arrays.  The law is evaluated once per
    block at each accepted state: for the applied control pd + z - z(0),
    and as the next step's first stage.
    Aborts with DivergenceError once the state norm exceeds DIVERGENCE_LIMIT.
    A run depends on its scenario alone and keeps no state between calls,
    so the CLI makes a batch's runs in forked worker processes; the
    DivergenceError of a worker reaches the parent pickled.
    """
    if scn.joint_plant is None:
        # one undisturbed block: the constant disturbance sits in z(0) = p
        y0, disturbances = list(scn.x0), [lambda t: 0.0]
    else:
        # joints start from rest at zero position: error = reference at t = 0
        y0, disturbances = [], []
        for jc in scn.joint_plant.joints:
            pos, vel = reference_eval(jc.reference, 0.0)
            y0 += (pos, vel, 0.0)
            disturbances.append(jc.disturbance.eval)
    law = hpid_law(scn.gains, scn.mu, scn.norm, scn.norm_floor)
    ki, z0, blocks = scn.gains.ki, y0[2::3], range(0, len(y0), 3)
    n = scn.n_steps()
    h = scn.step
    times = np.arange(n + 1) * h
    t = times.tolist()
    states = np.empty((n + 1, len(y0)))
    controls = np.empty((n + 1, len(disturbances)))
    y = y0
    for i in range(n + 1):
        if i:
            y = rk4_step(law, ki, disturbances, y, laws, t[i - 1], h)
            if max(map(abs, y)) > DIVERGENCE_LIMIT:
                raise DivergenceError(t[i], f"|x| > {DIVERGENCE_LIMIT:g}")
        laws = [law(y[k], y[k + 1]) for k in blocks]
        states[i] = y
        controls[i] = [pd + y[k + 2] - c for (pd, _), k, c in zip(laws, blocks, z0)]
    return Trajectory(times=times, states=states, controls=controls, scenario=scn)


@dataclass(frozen=True)
class ScalingReport:
    """Discrepancy between a dilated run and the dilated, time-rescaled nominal."""

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
    return ScalingReport(sup_discrepancy=sup, n_compared=m, truncated=m <= n)
