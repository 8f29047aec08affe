"""Plant models: the references and disturbances of the decentralized
multi-joint tracking-error plant.

The closed loop of both plants, n blocks (e, de, z) under the hPID law, is
written once, in sim.rk4_block.

The multi-joint plant is the post-feedback-linearization error dynamics:
each joint reduces to a double integrator driven by the PID/hPID residual
and a bounded disturbance standing in for cancellation mismatch and
cross-couplings.  Every joint runs the scenario's one controller, so a
joint is configured by its reference and its disturbance only, and the
plant is the tuple of its joints, Scenario.joints.  References are
sinusoids with analytic derivatives, so the admissible-reference
consistency (d/dt pos = vel) holds exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "ReferenceSpec",
    "DisturbanceSpec",
    "JointConfig",
    "reference_eval",
    "default_six_joint_plant",
]


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


def _check_phase(spec: ReferenceSpec | DisturbanceSpec, horizon: float) -> None:
    """ValueError unless the sinusoid's phase w t + phase is finite on [0, horizon]."""
    if not math.isfinite(abs(spec.angular_frequency) * horizon + abs(spec.phase)):
        raise ValueError(
            f"phase w t + phase overflows on [0, {horizon:g}]: angular frequency {spec.angular_frequency:g}, "
            f"phase {spec.phase:g}"
        )


def reference_eval(spec: ReferenceSpec, t: float):
    """Reference position and velocity at time t (analytic)."""
    w = spec.angular_frequency
    return spec.position(t), spec.amplitude * w * math.cos(w * t + spec.phase)


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


# Desk-scale defaults for the six-joint comparison plant.  Amplitudes,
# frequencies and offsets vary across joints; disturbance phases are spread
# so the joints are not synchronized.
_JOINT_AMPLITUDES = (1.0, 0.8, 0.6, 0.5, 0.4, 0.3)
_JOINT_FREQUENCIES = (1.0, 1.2, 0.8, 1.5, 0.6, 1.0)
_JOINT_OFFSETS = (0.5, 0.4, 0.3, 0.35, 0.25, 0.45)
_JOINT_DIST_PHASES = (0.0, 0.7, 1.4, 2.1, 2.8, 3.5)


def default_six_joint_plant() -> tuple[JointConfig, ...]:
    """The joints of the default six-joint desk plant used by the PID-vs-hPID comparison."""
    columns = zip(_JOINT_AMPLITUDES, _JOINT_FREQUENCIES, _JOINT_OFFSETS, _JOINT_DIST_PHASES)
    return tuple(
        JointConfig(ReferenceSpec(amplitude, frequency, 0.0, offset), DisturbanceSpec(0.3, 0.15, 2.0, phase, 0.5))
        for amplitude, frequency, offset, phase in columns
    )
