"""The homogeneous PID law and the gains it modulates.

The linear law is u = kp*e + kd*de + ki * integral(e).  The homogeneous
variant modulates each action by powers of a homogeneous norm nu of the
error pair (e, de):

    u = kp * nu^{2 mu} * e + kd * nu^{mu} * de + ki * integral(nu^{3 mu} e)

with degree mu in (-0.5, 0.5) and the dilation diag(e^{(1-mu)s}, e^s).
Setting mu = 0 recovers the linear PID output exactly.  For mu < 0 the norm
powers blow up at the origin, so nu is clamped from below at a configurable
floor; this bounds actuation near the set point at the cost of the idealized
finite-time law in an O(floor) neighbourhood.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .homogeneity import HomNormSpec, error_pair_dilation, norm_evaluator

__all__ = ["GainSet", "hpid_law"]


@dataclass(frozen=True)
class GainSet:
    """Signed PID gains (kp, kd, ki)."""

    kp: float
    kd: float
    ki: float

    def __post_init__(self):
        for name in ("kp", "kd", "ki"):
            object.__setattr__(self, name, self.check_field(name, getattr(self, name)))

    @staticmethod
    def check_field(name: str, value: float) -> float:
        """One gain alone, as a float; ValueError unless it is finite."""
        v = float(value)
        if not math.isfinite(v):
            raise ValueError(f"gain {name} must be finite, got {v}")
        return v

    def a_matrix(self) -> np.ndarray:
        """Closed-loop matrix of the extended linear system (mu = 0)."""
        return np.array([[0.0, 1.0, 0.0], [self.kp, self.kd, 1.0], [self.ki, 0.0, 0.0]])

    def routh_hurwitz_failures(self) -> list[str]:
        """Failed stability conditions for lambda^3 - kd lambda^2 - kp lambda - ki.

        Empty list means the closed-loop matrix is Hurwitz.
        """
        failures = []
        if not -self.kd > 0.0:
            failures.append(f"-kd > 0 (lambda^2 coefficient), got -kd = {-self.kd}")
        if not -self.ki > 0.0:
            failures.append(f"-ki > 0 (constant coefficient), got -ki = {-self.ki}")
        if not self.kd * self.kp + self.ki > 0.0:
            failures.append(f"kd*kp + ki > 0 (Routh pivot), got {self.kd * self.kp + self.ki}")
        return failures

    def is_stabilizing(self) -> bool:
        return not self.routh_hurwitz_failures()


def hpid_law(
    gains: GainSet, mu: float, norm: HomNormSpec, norm_floor: float
) -> Callable[[float, float], tuple[float, float]]:
    """The homogeneous PID law as a closure (e, de) -> (pd, integrand).

    pd = kp nu^{2 mu} e + kd nu^{mu} de is the proportional-derivative action
    and integrand = nu^{3 mu} e the rate of the integral channel, so the
    control is u = pd + ki * integral(integrand).  nu = max(||(e, de)||_d,
    norm_floor).  The norm is checked at every degree, but at mu = 0 it is
    not evaluated and the pair is the linear (kp e + kd de, e).  Every
    plant, `hpid verify` and the acceptance gate call this law; a run
    integrates the integral channel inside its RK4 step.
    """
    _check_floor(norm_floor)
    nu_of = norm_evaluator(norm, error_pair_dilation(mu))
    kp, kd = gains.kp, gains.kd
    if mu == 0.0:
        return lambda e, de: (kp * e + kd * de, e)
    two_mu, three_mu = 2.0 * mu, 3.0 * mu

    def law(e: float, de: float) -> tuple[float, float]:
        nu = nu_of(e, de)
        if nu < norm_floor:
            nu = norm_floor
        return kp * nu**two_mu * e + kd * nu**mu * de, nu**three_mu * e

    return law


def _check_floor(norm_floor: float) -> None:
    if not (math.isfinite(norm_floor) and norm_floor > 0.0):
        raise ValueError(f"norm_floor must be a positive real, got {norm_floor}")
