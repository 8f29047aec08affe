"""Deterministic fixed-step integration of the closed-loop systems.

Classical RK4 on a uniform grid, chosen over adaptive stepping for bitwise
reproducibility and easy symmetry checks.  For nonzero degree the vector
field is continuous but not Lipschitz at the origin, so the formal fourth
order degrades in a small terminal neighbourhood; convergence tests exclude
that ball.

Both plants are closed-loop blocks of rk4_block, three states (e, de, z)
each, where z is the integral action ki * integral(nu^{3 mu} e) plus the
constant it absorbed at t = 0:

* "extended": one undisturbed block from x0; the constant disturbance p
  sits in the third state, z(0) = p.
* "joints": n independent feedback-linearized joints, one block each with
  z(0) = 0, driven by its bounded disturbance waveform sampled continuously
  in time.  Every joint runs the scenario's controller.

rk4_block is the one RK4 scheme and the one place the field is written: it
integrates one block over the whole grid in a single loop on local Python
floats, with the block field inline, and appends each sample to a flat
array.array that simulate copies into the trajectory's columns, so no step
makes a numpy call.  The law value at each accepted state is both the
applied control and the next step's first stage.  Per block and step the
law is evaluated four times and the disturbance three times (once at
t + h/2 for stages 2 and 3).  The IEEE operations are those of the array
formulation, in the same order, so the states and controls are bitwise
those of the numpy-array RK4 over the same field (a test compares the
two).  The law is not vectorised with numpy ufuncs: np.power and math.pow
do not agree in every last bit.  hpid verify checks this kernel
(hpid.checks).
"""

from __future__ import annotations

import math
from array import array
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
    "rk4_block",
    "simulate",
    "scaling_symmetry_run",
    "DIVERGENCE_LIMIT",
]

DIVERGENCE_LIMIT = 1e9
_NON_FINITE = "non-finite right-hand side"
_OVER_LIMIT = f"|x| > {DIVERGENCE_LIMIT:g}"


class DivergenceError(RuntimeError):
    """A state left the divergence limit (or became non-finite).

    step is the index i of the RK4 step from t[i] to t[i + 1] whose update
    diverged, and block the index of the (e, de, z) block it diverged in;
    either is None when not known.  Neither appears in the message.
    """

    def __init__(self, time: float, detail: str = "", step: int | None = None, block: int | None = None):
        self.time = float(time)
        self.detail = detail
        self.step = step
        self.block = block
        msg = f"simulation diverged at t = {self.time:.6g}"
        super().__init__(msg + (f" ({detail})" if detail else ""))

    def __reduce__(self):
        # rebuilt from its arguments, not from the message: a worker process
        # sends it to the parent pickled
        return type(self), (self.time, self.detail, self.step, self.block)


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
    if not math.isfinite(T / h):
        raise ValueError(f"step {h} too fine for horizon {T}: T/h overflows")
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


def rk4_block(
    law: Callable[[float, float], tuple[float, float]],
    ki: float,
    dist: Callable[[float], float],
    y0: Sequence[float],
    t: Sequence[float],
    h: float,
    out: array,
) -> None:
    """Classical fourth-order Runge-Kutta of one closed-loop block over the grid t.

    The block (e, de, z) has field (de, pd + z - dist(t), ki * integrand),
    where (pd, integrand) = law(e, de).  Step i goes from t[i] to t[i + 1]
    with stages at t[i], t[i] + h/2 (dist evaluated once, for stages 2
    and 3) and t[i] + h.  The stage inputs are x + (h/2) k and x + h k and
    the update is x + (h/6) (((k1 + 2 k2) + 2 k3) + k4), element by element:
    the same IEEE operations, in the same order, as the array expression.
    The law at each accepted state gives the applied control
    u = pd + z - z(0) and serves as the next step's first stage.

    out receives (e, de, z) of each accepted state, then its u: after an
    exception, len(out) // 4 samples are complete, and len(out) % 4 == 3
    exactly when the law at the next accepted state raised.  An update
    outside [-DIVERGENCE_LIMIT, DIVERGENCE_LIMIT] (NaN included) raises
    DivergenceError with step i: at t[i] if it is non-finite, else at
    t[i + 1].
    """
    hh = 0.5 * h
    h6 = h / 6.0
    lim = DIVERGENCE_LIMIT
    extend, append = out.extend, out.append
    e, de, z = y0
    z0 = z
    extend((e, de, z))
    pd, integrand = law(e, de)
    append(pd + z - z0)
    for i in range(len(t) - 1):
        ti = t[i]
        dm = dist(ti + hh)
        f1, g1 = pd + z - dist(ti), ki * integrand
        e2, de2, z2 = e + hh * de, de + hh * f1, z + hh * g1
        pd, integrand = law(e2, de2)
        f2, g2 = pd + z2 - dm, ki * integrand
        e3, de3, z3 = e + hh * de2, de + hh * f2, z + hh * g2
        pd, integrand = law(e3, de3)
        f3, g3 = pd + z3 - dm, ki * integrand
        e4, de4, z4 = e + h * de3, de + h * f3, z + h * g3
        pd, integrand = law(e4, de4)
        f4, g4 = pd + z4 - dist(ti + h), ki * integrand
        e, de, z = (
            e + h6 * (((de + 2.0 * de2) + 2.0 * de3) + de4),
            de + h6 * (((f1 + 2.0 * f2) + 2.0 * f3) + f4),
            z + h6 * (((g1 + 2.0 * g2) + 2.0 * g3) + g4),
        )
        if not (-lim <= e <= lim and -lim <= de <= lim and -lim <= z <= lim):
            if math.isfinite(e) and math.isfinite(de) and math.isfinite(z):
                raise DivergenceError(t[i + 1], _OVER_LIMIT, i)
            raise DivergenceError(ti, _NON_FINITE, i)
        extend((e, de, z))
        pd, integrand = law(e, de)
        append(pd + z - z0)


def simulate(scn: Scenario) -> Trajectory:
    """Integrate the scenario over [0, T]; deterministic for a fixed scenario.

    Both plants are closed-loop blocks, so the tracking errors are every
    third state (Trajectory.errors).  Each block runs through rk4_block
    over the whole grid, and its samples are copied into the trajectory's
    columns.  A failure raises what a loop stepping all blocks together
    would raise first: at the earliest step, an exception from a stage
    evaluation (in block order), then a non-finite update, then one over
    DIVERGENCE_LIMIT, then an exception from the law at the accepted
    state (in block order).  A block after a failing one runs only up to
    the failure's step.
    A run depends on its scenario alone and keeps no state between calls,
    so the CLI makes a batch's runs in forked worker processes; the
    DivergenceError of a worker reaches the parent pickled.
    """
    if scn.joint_plant is None:
        # one undisturbed block: the constant disturbance sits in z(0) = p
        blocks = [(scn.x0, lambda t: 0.0)]
    else:
        # joints start from rest at zero position: error = reference at t = 0
        blocks = [
            ((*reference_eval(jc.reference, 0.0), 0.0), jc.disturbance.eval) for jc in scn.joint_plant.joints
        ]
    law = hpid_law(scn.gains, scn.mu, scn.norm, scn.norm_floor)
    ki = scn.gains.ki
    n = scn.n_steps()
    h = scn.step
    times = np.arange(n + 1) * h
    t = times.tolist()
    states = np.empty((n + 1, 3 * len(blocks)))
    controls = np.empty((n + 1, len(blocks)))
    raised = None  # (sample, rank, exception): the failure a step-major loop would raise
    for j, (y0, dist) in enumerate(blocks):
        out = array("d")
        try:
            rk4_block(law, ki, dist, y0, t if raised is None else t[: raised[0] + 1], h, out)
        except DivergenceError as exc:
            exc.block = j
            failure = (exc.step + 1, 2 if exc.detail == _NON_FINITE else 3, exc)
        except Exception as exc:
            # a stage evaluation (rank 1) or the law at the accepted state (rank 4)
            failure = (len(out) // 4, 4 if len(out) % 4 else 1, exc)
        else:
            if raised is None:
                samples = np.frombuffer(out).reshape(n + 1, 4)
                states[:, 3 * j : 3 * j + 3] = samples[:, :3]
                controls[:, j] = samples[:, 3]
            continue
        if raised is None or failure[:2] < raised[:2]:
            raised = failure
    if raised is not None:
        raise raised[2]
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
