"""Stability certificates for the homogeneous PID upgrade.

Given stabilizing linear gains, a Lyapunov matrix P is obtained from
P A + A' P = -I, then the admissible degree interval is the set of mu
around zero where P keeps the extended dilation strictly monotone,
P G(mu) + G(mu)' P > 0 with G(mu) = I + mu diag(-1, 0, 1).  The proof
constants

    beta  = lambda_min(P^{1/2} G P^{-1/2} + P^{-1/2} G' P^{1/2})
    gamma = -lambda_max(P^{1/2} A P^{-1/2} + P^{-1/2} A' P^{1/2})

bound the decay of the canonical homogeneous norm V = ||x||_d along closed
loop trajectories: dV/dt <= -(gamma / 2 beta) V^{1 + mu}.  The trajectory
level check measures the fraction of sample intervals satisfying that
inequality with a small slack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .control import GainSet
from .homogeneity import CanonicalNorm, SymMatrix, extended_state_dilation, norm_evaluator
from .sim import Trajectory

__all__ = [
    "InfeasibleGainsError",
    "StabilityCertificate",
    "DecreaseReport",
    "ConvergenceReport",
    "solve_lyapunov",
    "solve_lyapunov_matrix",
    "certify",
    "lyapunov_decrease_check",
    "convergence_classifier",
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


def solve_lyapunov_matrix(A, Q) -> SymMatrix:
    """Direct dense solve of P A + A' P = -Q for symmetric P.

    Solves the vectorized linear system; for Q = Q' the solution is
    symmetric whenever it is unique, so only rounding is symmetrized away.
    """
    A = np.asarray(A, dtype=float)
    Q = Q.entries if isinstance(Q, SymMatrix) else np.asarray(Q, dtype=float)
    n = A.shape[0]
    M = np.kron(np.eye(n), A.T) + np.kron(A.T, np.eye(n))
    vec = np.linalg.solve(M, -Q.reshape(-1))
    P = vec.reshape(n, n)
    # the exact solution is symmetric; strip the solver's rounding noise and
    # let callers gate on the equation residual
    return SymMatrix(0.5 * (P + P.T))


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
    P = solve_lyapunov_matrix(A, Q)
    resid = float(np.abs(P.entries @ A + A.T @ P.entries + Q).max())
    if resid > 1e-9 or not P.is_positive_definite():
        raise ArithmeticError(f"Lyapunov solve failed (residual {resid:.3e})")
    return P


@dataclass(frozen=True)
class StabilityCertificate:
    """Lyapunov matrix, proof constants, and the certified degree interval.

    beta is recorded at the worse interval endpoint (the smaller value,
    nearest the feasibility boundary), so gamma / (2 beta) is the strongest
    decrease rate the certificate claims on the whole interval.
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
    n_excluded: int
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
    excluded = len(Vi) - total
    fraction = 1.0 if total == 0 else ok / total
    return DecreaseReport(
        fraction=fraction,
        passed=fraction >= _PASS_FRACTION,
        rate=rate,
        n_intervals=total,
        n_excluded=excluded,
        pass_fraction=_PASS_FRACTION,
    )


@dataclass(frozen=True)
class ConvergenceReport:
    finite_time: bool
    settle_time: float | None
    tolerance: float
    horizon: float


def convergence_classifier(traj: Trajectory, settle_tol: float) -> ConvergenceReport:
    """Settle time and a finite-time verdict for a recorded trajectory.

    settle_time is the first sample time after which the Euclidean state
    norm stays at or below settle_tol for the rest of the horizon; the run
    is classified finite-time when it settles before 0.95 * T.
    """
    if not (math.isfinite(settle_tol) and settle_tol > 0.0):
        raise ValueError(f"settle_tol must be a positive real, got {settle_tol}")
    norms = np.linalg.norm(traj.states, axis=1)
    above = norms > settle_tol
    horizon = float(traj.times[-1])
    if not above.any():
        return ConvergenceReport(True, float(traj.times[0]), settle_tol, horizon)
    last_above = int(np.nonzero(above)[0][-1])
    if last_above == len(norms) - 1:
        return ConvergenceReport(False, None, settle_tol, horizon)
    settle = float(traj.times[last_above + 1])
    return ConvergenceReport(settle <= 0.95 * horizon, settle, settle_tol, horizon)
