"""Plant models: the extended closed-loop field of the disturbed double
integrator, and the decentralized multi-joint tracking-error plant.

The multi-joint plant is the post-feedback-linearization error dynamics:
each joint reduces to a double integrator driven by the PID/hPID residual
and a bounded disturbance standing in for cancellation mismatch and
cross-couplings.  References are sinusoids with analytic derivatives, so
the admissible-reference consistency (d/dt pos = vel) holds exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .control import GainSet, hpid_law
from .homogeneity import ExperimentalNorm, HomNormSpec, WeightedSumNorm

__all__ = [
    "ReferenceSpec",
    "DisturbanceSpec",
    "JointConfig",
    "JointPlantConfig",
    "closed_loop_field",
    "make_closed_loop_field",
    "reference_eval",
    "default_six_joint_plant",
]


def closed_loop_field(x, gains: GainSet, mu: float, norm: HomNormSpec, norm_floor: float = 1e-9) -> np.ndarray:
    """Extended closed-loop vector field of the hPID-controlled loop.

    Returns (x2, pd + x3, ki * integrand) with (pd, integrand) the hPID law
    (control.hpid_law) at (x1, x2).  At mu = 0 the field
    is evaluated as A @ x with no norm evaluation at all, so the linear
    case is exact.
    """
    return make_closed_loop_field(gains, mu, norm, norm_floor)(np.asarray(x, dtype=float))


def make_closed_loop_field(
    gains: GainSet, mu: float, norm: HomNormSpec, norm_floor: float = 1e-9
) -> Callable[[np.ndarray], np.ndarray]:
    """Build the extended field once; the returned closure is cheap per call."""
    if mu == 0.0:
        A = gains.a_matrix()
        return lambda x: A @ x
    law = hpid_law(gains, mu, norm, norm_floor)
    ki = gains.ki

    def field(x: np.ndarray) -> np.ndarray:
        x1, x2, x3 = x
        pd, integrand = law(x1, x2)
        return np.array([x2, pd + x3, ki * integrand])

    return field


@dataclass(frozen=True)
class ReferenceSpec:
    """Sinusoidal joint reference offset + amplitude * sin(w t + phase)."""

    amplitude: float = 0.0
    angular_frequency: float = 0.0
    phase: float = 0.0
    offset: float = 0.0

    def __post_init__(self):
        for name in ("amplitude", "angular_frequency", "phase", "offset"):
            v = float(getattr(self, name))
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v}")
            object.__setattr__(self, name, v)


def reference_eval(spec: ReferenceSpec, t: float):
    """Reference position, velocity and acceleration at time t (analytic)."""
    a, w, ph = spec.amplitude, spec.angular_frequency, spec.phase
    arg = w * t + ph
    pos = spec.offset + a * math.sin(arg)
    vel = a * w * math.cos(arg)
    acc = -a * w * w * math.sin(arg)
    return pos, vel, acc


@dataclass(frozen=True)
class DisturbanceSpec:
    """Constant plus sinusoid disturbance, certified to stay within a bound.

    |constant| + |amplitude| <= bound guarantees |d(t)| <= bound for all t.
    """

    constant: float = 0.0
    amplitude: float = 0.0
    angular_frequency: float = 0.0
    phase: float = 0.0
    bound: float = 0.5

    def __post_init__(self):
        for name in ("constant", "amplitude", "angular_frequency", "phase", "bound"):
            v = float(getattr(self, name))
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v}")
            object.__setattr__(self, name, v)
        if self.bound < 0.0:
            raise ValueError(f"disturbance bound must be nonnegative, got {self.bound}")
        if abs(self.constant) + abs(self.amplitude) > self.bound + 1e-15:
            raise ValueError(
                f"|constant| + |amplitude| = {abs(self.constant) + abs(self.amplitude)} "
                f"exceeds the disturbance bound {self.bound}"
            )

    def eval(self, t: float) -> float:
        return self.constant + self.amplitude * math.sin(self.angular_frequency * t + self.phase)


@dataclass(frozen=True)
class JointConfig:
    """One joint of the decentralized plant: controller plus local signals.

    The joint starts from rest at zero position, so the initial tracking
    error equals the reference value and rate at t = 0.
    """

    gains: GainSet
    mu: float
    norm: HomNormSpec
    reference: ReferenceSpec
    disturbance: DisturbanceSpec
    norm_floor: float = 1e-9

    def __post_init__(self):
        object.__setattr__(self, "mu", float(self.mu))
        hpid_law(self.gains, self.mu, self.norm, self.norm_floor)  # validates mu, floor and norm


@dataclass(frozen=True)
class JointPlantConfig:
    joints: tuple[JointConfig, ...]

    def __post_init__(self):
        if not self.joints:
            raise ValueError("joint plant needs at least one joint")
        object.__setattr__(self, "joints", tuple(self.joints))

    @property
    def n_joints(self) -> int:
        return len(self.joints)


# Desk-scale defaults for the six-joint comparison plant.  Amplitudes,
# frequencies and offsets vary across joints; disturbance phases are spread
# so the joints are not synchronized.
_JOINT_AMPLITUDES = (1.0, 0.8, 0.6, 0.5, 0.4, 0.3)
_JOINT_FREQUENCIES = (1.0, 1.2, 0.8, 1.5, 0.6, 1.0)
_JOINT_OFFSETS = (0.5, 0.4, 0.3, 0.35, 0.25, 0.45)
_JOINT_DIST_PHASES = (0.0, 0.7, 1.4, 2.1, 2.8, 3.5)


def default_six_joint_plant(
    mu: float = 0.0,
    norm: HomNormSpec | None = None,
    gains: GainSet | None = None,
    disturbance_phases: tuple[float, ...] | None = None,
) -> JointPlantConfig:
    """The default six-joint desk plant used by the PID-vs-hPID comparison.

    mu = 0 yields the linear PID joints; a nonzero mu needs a norm spec
    (defaults to the error-pair norm with unit parameters).
    """
    gains = gains or GainSet(-3.0, -3.0, -1.0)
    if norm is None:
        norm = ExperimentalNorm(1.0, 1.0, mu) if mu != 0.0 else WeightedSumNorm((1.0, 1.0))
    phases = disturbance_phases or _JOINT_DIST_PHASES
    joints = []
    for j in range(6):
        joints.append(
            JointConfig(
                gains=gains,
                mu=mu,
                norm=norm,
                reference=ReferenceSpec(
                    amplitude=_JOINT_AMPLITUDES[j],
                    angular_frequency=_JOINT_FREQUENCIES[j],
                    phase=0.0,
                    offset=_JOINT_OFFSETS[j],
                ),
                disturbance=DisturbanceSpec(
                    constant=0.3,
                    amplitude=0.15,
                    angular_frequency=2.0,
                    phase=phases[j],
                    bound=0.5,
                ),
            )
        )
    return JointPlantConfig(tuple(joints))
