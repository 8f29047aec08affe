"""Plant models: the closed-loop blocks both plants are built from, the
extended closed-loop field of the disturbed double integrator, and the
decentralized multi-joint tracking-error plant.

closed_loop_blocks is the reference right-hand side of the blocks:
make_closed_loop_field and verify evaluate it, and sim.rk4_step writes the
same field inline in its stages, bitwise equal to it.

The multi-joint plant is the post-feedback-linearization error dynamics:
each joint reduces to a double integrator driven by the PID/hPID residual
and a bounded disturbance standing in for cancellation mismatch and
cross-couplings.  Every joint runs the scenario's one controller, so a
joint is configured by its reference and its disturbance only.  References
are sinusoids with analytic derivatives, so the admissible-reference
consistency (d/dt pos = vel) holds exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .control import GainSet, hpid_law
from .homogeneity import HomNormSpec

__all__ = [
    "ReferenceSpec",
    "DisturbanceSpec",
    "JointConfig",
    "JointPlantConfig",
    "closed_loop_blocks",
    "make_closed_loop_field",
    "reference_eval",
    "default_six_joint_plant",
]


def closed_loop_blocks(
    gains: GainSet,
    mu: float,
    norm: HomNormSpec,
    norm_floor: float,
    disturbances: Sequence[Callable[[float], float]],
) -> Callable[[float, list[float]], list[float]]:
    """Right-hand side of n closed-loop blocks (e, de, z).

    Block j follows e' = de, de' = pd + z - d_j(t), z' = ki * integrand, with
    (pd, integrand) the hPID law (control.hpid_law) at (e, de).  z is the
    integral action ki * integral(integrand) plus the constant z(0) it
    absorbed at t = 0, so the block's applied control is pd + z - z(0).
    Returns rhs(t, x) over the stacked state x of length 3n, a list of
    Python floats, as a list of floats.  sim.rk4_step writes this field
    inline in its stages; a test ties the two together bit for bit.
    """
    law = hpid_law(gains, mu, norm, norm_floor)
    ki = gains.ki

    def rhs(t: float, x: list[float]) -> list[float]:
        out = []
        for j, dist in enumerate(disturbances):
            e, de, z = x[3 * j : 3 * j + 3]
            pd, integrand = law(e, de)
            out += (de, pd + z - dist(t), ki * integrand)
        return out

    return rhs


def make_closed_loop_field(
    gains: GainSet, mu: float, norm: HomNormSpec, norm_floor: float = 1e-9
) -> Callable[[np.ndarray], np.ndarray]:
    """Extended closed-loop vector field of the hPID-controlled loop.

    The one undisturbed block of closed_loop_blocks: x maps to
    (x2, pd + x3, ki * integrand) with (pd, integrand) the hPID law at
    (x1, x2).  At mu = 0 the law evaluates no norm, so the field is the
    linear (x2, kp x1 + kd x2 + x3, ki x1) exactly.
    """
    rhs = closed_loop_blocks(gains, mu, norm, norm_floor, (lambda t: 0.0,))
    return lambda x: np.array(rhs(0.0, np.asarray(x, dtype=float).tolist()))


def _finite(name: str, value: float) -> float:
    v = float(value)
    if not math.isfinite(v):
        raise ValueError(f"{name} must be finite, got {v}")
    return v


@dataclass(frozen=True)
class ReferenceSpec:
    """Sinusoidal joint reference offset + amplitude * sin(w t + phase)."""

    amplitude: float = 0.0
    angular_frequency: float = 0.0
    phase: float = 0.0
    offset: float = 0.0

    def __post_init__(self):
        for name in ("amplitude", "angular_frequency", "phase", "offset"):
            object.__setattr__(self, name, self.check_field(name, getattr(self, name)))

    @staticmethod
    def check_field(name: str, value: float) -> float:
        """One field alone, as a float; ValueError unless it is finite."""
        return _finite(name, value)

    def position(self, t: float) -> float:
        return self.offset + self.amplitude * math.sin(self.angular_frequency * t + self.phase)


def reference_eval(spec: ReferenceSpec, t: float):
    """Reference position, velocity and acceleration at time t (analytic)."""
    a, w = spec.amplitude, spec.angular_frequency
    arg = w * t + spec.phase
    return spec.position(t), a * w * math.cos(arg), -a * w * w * math.sin(arg)


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
            object.__setattr__(self, name, self.check_field(name, getattr(self, name)))
        if abs(self.constant) + abs(self.amplitude) > self.bound + 1e-15:
            raise ValueError(
                f"|constant| + |amplitude| = {abs(self.constant) + abs(self.amplitude)} "
                f"exceeds the disturbance bound {self.bound}"
            )

    @staticmethod
    def check_field(name: str, value: float) -> float:
        """One field alone, as a float: finite, and a bound nonnegative.

        The one rule across fields, |constant| + |amplitude| <= bound, is
        left to the constructor.
        """
        v = _finite(name, value)
        if name == "bound" and v < 0.0:
            raise ValueError(f"disturbance bound must be nonnegative, got {v}")
        return v

    def eval(self, t: float) -> float:
        return self.constant + self.amplitude * math.sin(self.angular_frequency * t + self.phase)


@dataclass(frozen=True)
class JointConfig:
    """One joint of the decentralized plant: its reference and disturbance.

    The joint runs the scenario's controller.  It starts from rest at zero
    position, so the initial tracking error equals the reference value and
    rate at t = 0.
    """

    reference: ReferenceSpec
    disturbance: DisturbanceSpec


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


def default_six_joint_plant() -> JointPlantConfig:
    """The default six-joint desk plant used by the PID-vs-hPID comparison."""
    columns = zip(_JOINT_AMPLITUDES, _JOINT_FREQUENCIES, _JOINT_OFFSETS, _JOINT_DIST_PHASES)
    return JointPlantConfig(tuple(
        JointConfig(ReferenceSpec(amplitude, frequency, 0.0, offset), DisturbanceSpec(0.3, 0.15, 2.0, phase, 0.5))
        for amplitude, frequency, offset, phase in columns
    ))
