"""Stability certificates for the homogeneous PID upgrade.

Given stabilizing linear gains, a Lyapunov matrix P is obtained from
P A + A' P = -I, then the admissible degree interval is the set of mu
around zero where P keeps the extended dilation strictly monotone,
P G(mu) + G(mu)' P > 0 with G(mu) = I + mu diag(-1, 0, 1).  The proof
constants

    beta  = lambda_min(P^{1/2} G P^{-1/2} + P^{-1/2} G' P^{1/2})
    gamma = -lambda_max(P^{1/2} A P^{-1/2} + P^{-1/2} A' P^{1/2})

give the rate certify claims for the canonical homogeneous norm
V = ||x||_d along closed-loop trajectories, dV/dt <= -(gamma / 2 beta)
V^{1 + mu}.  It is a claim, not a guarantee: trajectories do not meet it
at every degree (the strict xfail
test_linear_run_from_unit_error_meets_certified_rate, the FOUND line on
certify in CHANGES.md; ROADMAP item 1).  The trajectory-level check
measures the fraction of sample intervals satisfying that inequality with
a small slack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .control import GainSet
from .homogeneity import CanonicalNorm, SymMatrix, extended_state_dilation, norm_evaluator
from .sim import Trajectory

__all__ = [
    "InfeasibleGainsError",
    "StabilityCertificate",
    "DecreaseReport",
    "solve_lyapunov",
    "certify",
    "lyapunov_decrease_check",
]

_DIAG_DIR = np.diag([-1.0, 0.0, 1.0])
# certify uses Q = I; a degree is admitted while P G(mu) + G(mu)' P keeps
# this eigenvalue margin, and the interval is capped at the design range
_EIG_MARGIN = 1e-8
_MU_CAP = 0.5


class InfeasibleGainsError(ValueError):
    """The gains do not make the closed-loop matrix Hurwitz."""

    def __init__(self, failures: list[str]):
        self.failures = list(failures)
        super().__init__("gains are not stabilizing: " + "; ".join(failures))


def solve_lyapunov(gains: GainSet) -> SymMatrix:
    """Lyapunov matrix P > 0 of P A + A' P = -I for the extended linear closed loop.

    Raises InfeasibleGainsError (naming the violated Routh-Hurwitz
    condition) when the gains are not stabilizing; the returned P satisfies
    ||P A + A' P + I||_max <= 1e-9.
    """
    failures = gains.routh_hurwitz_failures()
    if failures:
        raise InfeasibleGainsError(failures)
    A = gains.a_matrix()
    Q = np.eye(3)
    # the vectorized equation (I (x) A' + A' (x) I) vec(P) = -vec(Q); its
    # unique solution is symmetric, so symmetrizing strips only rounding
    M = np.kron(np.eye(3), A.T) + np.kron(A.T, np.eye(3))
    P = np.linalg.solve(M, -Q.reshape(-1)).reshape(3, 3)
    P = SymMatrix(0.5 * (P + P.T))
    resid = float(np.abs(P.entries @ A + A.T @ P.entries + Q).max())
    if resid > 1e-9 or not P.is_positive_definite():
        raise ArithmeticError(f"Lyapunov solve failed (residual {resid:.3e})")
    return P


@dataclass(frozen=True)
class StabilityCertificate:
    """Lyapunov matrix, proof constants, and the certified degree interval.

    beta is recorded at the worse interval endpoint (the smaller value,
    nearest the feasibility boundary), and gamma / (2 beta) is the decrease
    rate the certificate claims on the whole interval: the rate
    lyapunov_decrease_check tests, which trajectories do not meet at every
    degree (see the module docstring).
    """

    P: SymMatrix
    beta: float
    gamma: float
    mu_lo: float
    mu_hi: float
    gains: GainSet

    def admits(self, mu: float) -> bool:
        return self.mu_lo < mu < self.mu_hi

    def decrease_rate(self) -> float:
        return self.gamma / (2.0 * self.beta)


def _sqrt_factors(P: np.ndarray):
    w, V = np.linalg.eigh(P)
    return V @ np.diag(np.sqrt(w)) @ V.T, V @ np.diag(1.0 / np.sqrt(w)) @ V.T


def certify(gains: GainSet) -> StabilityCertificate:
    """Build a stability certificate for the hPID upgrade of linear gains.

    The degree interval is found by bisection on the eigenvalue margin of
    P G(mu) + G(mu)' P (feasible set in mu is an interval containing 0),
    capped at the design range (-0.5, 0.5).  P solves the Lyapunov equation
    with Q = I.
    """
    P = solve_lyapunov(gains)
    Pe = P.entries
    S = Pe @ _DIAG_DIR + _DIAG_DIR @ Pe

    def margin(mu: float) -> float:
        return float(np.linalg.eigvalsh(2.0 * Pe + mu * S).min())

    def endpoint(sign: float) -> float:
        cap = sign * _MU_CAP
        if margin(cap) >= _EIG_MARGIN:
            return cap
        lo, hi = 0.0, cap
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if margin(mid) >= _EIG_MARGIN:
                lo = mid
            else:
                hi = mid
        return lo

    mu_hi = endpoint(+1.0)
    mu_lo = endpoint(-1.0)

    Ph, Pmh = _sqrt_factors(Pe)

    def beta_at(mu: float) -> float:
        G = np.eye(3) + mu * _DIAG_DIR
        M = Ph @ G @ Pmh + Pmh @ G.T @ Ph
        return float(np.linalg.eigvalsh(0.5 * (M + M.T)).min())

    A = gains.a_matrix()
    MA = Ph @ A @ Pmh + Pmh @ A.T @ Ph
    gamma = -float(np.linalg.eigvalsh(0.5 * (MA + MA.T)).max())
    beta = min(beta_at(mu_lo), beta_at(mu_hi))
    if beta <= 0.0 or gamma <= 0.0:
        raise ArithmeticError(f"certificate constants degenerate (beta={beta}, gamma={gamma})")
    return StabilityCertificate(P=P, beta=beta, gamma=gamma, mu_lo=mu_lo, mu_hi=mu_hi, gains=gains)


# the decrease check's slack on dV/dt, absolute and relative to |rhs|, and
# the share of live intervals that must meet the slackened inequality
_SLACK_ABS, _SLACK_REL, _PASS_FRACTION = 1e-6, 0.05, 0.99


@dataclass(frozen=True)
class DecreaseReport:
    """Fraction of trajectory intervals satisfying the certified decay."""

    fraction: float
    passed: bool
    rate: float
    n_intervals: int
    pass_fraction: float


def lyapunov_decrease_check(traj: Trajectory, cert: StabilityCertificate, mu: float) -> DecreaseReport:
    """Check dV/dt <= -(gamma/2 beta) V^{1+mu} + slack along a trajectory.

    V is the canonical homogeneous norm induced by the certificate's P and
    the extended dilation for mu.  Discrete slopes are formed between
    adjacent samples; intervals inside a terminal ball of radius
    100 * norm_floor are excluded (slope noise dominates there).  The slack
    _SLACK_ABS + _SLACK_REL * |rhs| absorbs finite-difference slope error,
    and the check passes when a share _PASS_FRACTION of the remaining
    intervals meets it.
    """
    scn = traj.scenario
    if scn.plant != "extended":
        raise ValueError("decrease check needs an extended-system trajectory")
    if scn.gains != cert.gains:
        raise ValueError("trajectory gains do not match the certificate")
    if scn.mu != mu:
        raise ValueError(f"trajectory was generated with mu={scn.mu}, not {mu}")
    if not cert.admits(mu):
        raise ValueError(f"mu={mu} lies outside the certified interval ({cert.mu_lo}, {cert.mu_hi})")

    norm = norm_evaluator(CanonicalNorm(cert.P), extended_state_dilation(mu))
    V = np.array([norm(*x) for x in traj.states])
    rate = cert.decrease_rate()
    Vi = V[:-1]
    live = Vi > 100.0 * scn.norm_floor
    slope = np.diff(V) / np.diff(traj.times)
    rhs = -rate * Vi ** (1.0 + mu)
    total = int(np.count_nonzero(live))
    ok = int(np.count_nonzero(live & (slope <= rhs + _SLACK_ABS + _SLACK_REL * np.abs(rhs))))
    fraction = 1.0 if total == 0 else ok / total
    return DecreaseReport(
        fraction=fraction,
        passed=fraction >= _PASS_FRACTION,
        rate=rate,
        n_intervals=total,
        pass_fraction=_PASS_FRACTION,
    )
