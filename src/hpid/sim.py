"""Deterministic fixed-step integration of the closed-loop systems.

Classical RK4 on a uniform grid, chosen over adaptive stepping for bitwise
reproducibility and an exact symmetry: the run of dilate(scn, s) is d(s) of
scn's, sample for sample (scaling_symmetry_run).  For nonzero degree the
vector field is continuous but not Lipschitz at the origin, so the formal
fourth order degrades in a small terminal neighbourhood; convergence tests
exclude that ball.

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

import functools
import math
import os
import sys
from array import array
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .control import GainSet, hpid_law
from .homogeneity import HomNormSpec, WeightedSumNorm
from .plant import JointConfig, _check_phase, reference_eval

__all__ = [
    "DivergenceError",
    "Scenario",
    "Trajectory",
    "rk4_block",
    "simulate",
    "dilate",
    "scaling_symmetry_run",
    "DIVERGENCE_LIMIT",
]

DIVERGENCE_LIMIT = 1e9
_NON_FINITE = "non-finite right-hand side"
_OVER_LIMIT = f"|x| > {DIVERGENCE_LIMIT:g}"


class DivergenceError(RuntimeError):
    """A state left the divergence limit (or became non-finite): every way a run fails.

    step is the index i of the RK4 step from t[i] to t[i + 1] that diverged
    (n, at t = T, for the law at the final sample), and block the index of
    the (e, de, z) block it diverged in; either is None when not known.
    Neither appears in the message.
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
    when joints is not empty, and a group of its joints, as the CLI cuts
    it, is replace(scn, joints=scn.joints[lo:hi]).  x0 applies to the
    extended plant only: it defaults to (1, 0, 0.3) there and must stay
    None on the joints plant, whose joints start from rest, and each
    joint's sinusoids keep a finite phase w t + phase over the horizon.
    """

    controller: str = "pid"  # "pid" | "hpid"
    gains: GainSet = GainSet(-3.0, -3.0, -1.0)
    mu: float = 0.0
    norm: HomNormSpec = WeightedSumNorm((1.0, 1.0))
    x0: tuple[float, float, float] | None = None
    horizon: float = 9.0
    step: float = 1e-3
    norm_floor: float = 1e-9
    joints: tuple[JointConfig, ...] = ()
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
        object.__setattr__(self, "joints", tuple(self.joints))
        _check_grid(self.horizon, self.step, len(self.joints) or 1)
        object.__setattr__(self, "norm_floor", float(self.norm_floor))
        hpid_law(self.gains, mu, self.norm, self.norm_floor)  # validates mu, floor and norm
        if self.joints:
            if self.x0 is not None:
                raise ValueError("x0 applies to the extended plant only; joints start from rest")
            for jc in self.joints:
                _check_phase(jc.reference, self.horizon)
                _check_phase(jc.disturbance, self.horizon)
            return
        object.__setattr__(self, "x0", _initial_state(self.x0))

    @property
    def plant(self) -> str:
        return "joints" if self.joints else "extended"

    def n_steps(self) -> int:
        return int(round(self.horizon / self.step))


def _check_grid(T: float, h: float, blocks: int = 1) -> None:
    """Reject a grid no run of `blocks` (e, de, z) blocks can be made on, for its arrays' size too."""
    _check_positive("horizon", T)
    _check_positive("step", h)
    if h > T / 10.0:
        raise ValueError(f"step {h} too coarse for horizon {T} (need h <= T/10)")
    if not math.isfinite(T / h):
        raise ValueError(f"step {h} too fine for horizon {T}: T/h overflows")
    if round(T / h) >= sys.maxsize:  # n + 1 samples no array can index
        raise ValueError(f"step {h} too fine for horizon {T}: T/h = {T / h:.3g} steps exceed any array")
    if abs(round(T / h) * h - T) > 1e-9 * T:
        raise ValueError(f"step {h} does not divide horizon {T}")
    # simulate's arrays, (n + 1) x (4 blocks + 1) floats, and its list of the
    # n + 1 sample times, each a Python float (24 bytes) and its reference
    need, have = (round(T / h) + 1) * ((4 * blocks + 1) * 8 + 32), _physical_memory()
    if need > have:
        raise ValueError(
            f"step {h} too fine for horizon {T}: a run of T/h = {T / h:.3g} steps needs about "
            f"{need / 2**30:.3g} GiB, more than the {have / 2**30:.3g} GiB of physical memory"
        )


def _check_positive(name: str, value: float) -> None:
    """One of a grid's T and h alone: ValueError unless it is finite and positive."""
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be positive, got {value}")


@functools.cache
def _physical_memory() -> float:
    try:
        return float(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"))
    except (AttributeError, ValueError, OSError):  # no sysconf, or no such name on this system
        return math.inf


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

    out receives (e, de, z) of each accepted state, then its u.  An update
    outside [-DIVERGENCE_LIMIT, DIVERGENCE_LIMIT] (NaN included) raises
    DivergenceError with step i: at t[i] if it is non-finite, else at
    t[i + 1].  So does an ArithmeticError of a stage of step i (the law's
    OverflowError or BracketError), as a non-finite right-hand side at t[i].
    """
    hh = 0.5 * h
    h6 = h / 6.0
    lim = DIVERGENCE_LIMIT
    extend, append = out.extend, out.append
    e, de, z = y0
    z0 = z
    try:
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
    except ArithmeticError as exc:
        step = (len(out) - 1) // 4  # the law at an accepted state is the next step's first stage
        raise DivergenceError(t[step], _NON_FINITE, step) from exc


def _first_failure(failures: Sequence[DivergenceError]) -> DivergenceError:
    """The failure a loop stepping all blocks together meets first: by step, non-finite first, then block."""
    return min(failures, key=lambda exc: (exc.step, exc.detail != _NON_FINITE, exc.block))


def simulate(scn: Scenario) -> Trajectory:
    """Integrate the scenario over [0, T]; deterministic for a fixed scenario.

    Both plants are closed-loop blocks, so the tracking errors are every
    third state (Trajectory.errors).  Each block runs through rk4_block
    over the whole grid, and its samples are copied into the trajectory's
    columns.  Of the blocks' DivergenceErrors the first (_first_failure)
    is raised; a block after a failing one runs only through the failure's
    step.  Any other exception propagates from the block that raised it.
    A run depends on its scenario alone and keeps no state between calls,
    and each block's samples depend on that block alone, so the CLI cuts a
    joints-plant run into groups of joints, each the run of the scenario
    replace(scn, joints=scn.joints[lo:hi]), spreads the groups of a batch
    over forked worker processes (workers.fork_map, which also spreads the
    samples of the Lyapunov decrease check, and so verify's), and raises
    the groups' first failure (_first_failure); the DivergenceError of a
    worker reaches the parent pickled.
    """
    if scn.joints:
        # joints start from rest at zero position: error = reference at t = 0
        blocks = [((*reference_eval(jc.reference, 0.0), 0.0), jc.disturbance.eval) for jc in scn.joints]
    else:
        # one undisturbed block: the constant disturbance sits in z(0) = p
        blocks = [(scn.x0, lambda t: 0.0)]
    law = hpid_law(scn.gains, scn.mu, scn.norm, scn.norm_floor)
    ki = scn.gains.ki
    n = scn.n_steps()
    h = scn.step
    times = np.arange(n + 1) * h
    t = times.tolist()
    states = np.empty((n + 1, 3 * len(blocks)))
    controls = np.empty((n + 1, len(blocks)))
    failures = []
    for j, (y0, dist) in enumerate(blocks):
        out = array("d")
        try:
            rk4_block(law, ki, dist, y0, t[: _first_failure(failures).step + 2] if failures else t, h, out)
        except DivergenceError as exc:
            exc.block = j
            failures.append(exc)
            continue
        if not failures:
            samples = np.frombuffer(out).reshape(n + 1, 4)
            states[:, 3 * j : 3 * j + 3] = samples[:, :3]
            controls[:, j] = samples[:, 3]
    if failures:
        raise _first_failure(failures)
    return Trajectory(times=times, states=states, controls=controls, scenario=scn)


def dilate(scn: Scenario, s: float) -> Scenario:
    """The scenario whose run is d(s) of scn's, sample for sample, d(s) = (e^{(1-mu)s}, e^s, e^{(1+mu)s}) per block.

    RK4 commutes with d(s) when the step scales: horizon and step scale by
    e^{-mu s}, norm_floor by e^s, the extended x0 by d(s), references'
    amplitude and offset by e^{(1-mu)s}, disturbances' constant, amplitude
    and bound by e^{(1+mu)s}, and angular frequencies by e^{mu s}.
    DIVERGENCE_LIMIT is not dilated: a copy can diverge where scn's run finishes.
    """
    mu = scn.mu
    pos, rate, force, fast, slow = (math.exp(w * s) for w in (1.0 - mu, 1.0, 1.0 + mu, mu, -mu))

    def scaled(spec, **factors):
        return replace(spec, **{name: f * getattr(spec, name) for name, f in factors.items()})

    joints = [
        JointConfig(
            scaled(jc.reference, amplitude=pos, offset=pos, angular_frequency=fast),
            scaled(jc.disturbance, constant=force, amplitude=force, bound=force, angular_frequency=fast),
        )
        for jc in scn.joints
    ]
    x0 = None if scn.joints else (pos * scn.x0[0], rate * scn.x0[1], force * scn.x0[2])
    grid = {"horizon": slow * scn.horizon, "step": slow * scn.step, "norm_floor": rate * scn.norm_floor}
    return replace(scn, x0=x0, joints=joints, **grid)


def _relative_gap(got: np.ndarray, want: np.ndarray) -> float:
    """Largest column gap |got - want| over the column's peak |want|; a 0 peak forgives no gap."""
    gap, peak = np.abs(got - want).max(axis=0), np.abs(want).max(axis=0)
    return float(np.divide(gap, peak, out=np.where(gap > 0.0, np.inf, 0.0), where=peak > 0.0).max())


def scaling_symmetry_run(scn: Scenario, s: float) -> float:
    """Largest gap of simulate(dilate(scn, s)) from d(s) of simulate(scn), sample for sample, per column peak."""
    nominal, dilated = simulate(scn), simulate(dilate(scn, s))
    scales = np.exp(np.array([1.0 - scn.mu, 1.0, 1.0 + scn.mu]) * s)
    states = nominal.states * np.tile(scales, nominal.controls.shape[1])
    return max(_relative_gap(dilated.states, states), _relative_gap(dilated.controls, scales[2] * nominal.controls))
