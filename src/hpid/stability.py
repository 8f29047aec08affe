"""Stability certificates for the homogeneous PID upgrade.

Given stabilizing linear gains, a Lyapunov matrix P is obtained from
P A + A' P = -I, then the admissible degree interval is the set of mu
around zero where P keeps the extended dilation strictly monotone,
P G(mu) + G(mu)' P >= 1e-8 I with G(mu) = I + mu diag(-1, 0, 1), found
in closed form from one symmetric eigen-solve.  The proof constants,
taken in the metric of P through its Cholesky factor C C' = P,

    beta  = lambda_min(C^-1 (P G + G' P) C^-T), the smaller at the interval ends
    gamma = -lambda_max(C^-1 (P A + A' P) C^-T)

give the rate certify claims for the canonical homogeneous norm
V = ||x||_d along closed-loop trajectories, dV/dt <= -(gamma / 2 beta)
V^{1 + mu}.  It is a claim, not a guarantee: trajectories do not meet it
at every degree (the strict xfail
test_linear_run_from_unit_error_meets_certified_rate, the FOUND line on
certify in CHANGES.md; ROADMAP item 1).  The trajectory-level check
measures the fraction of sample intervals satisfying that inequality with
a small slack, and names the interval that misses it by the most.  It
solves V at every sample, and spreads those solves over the usable cores
with no setting (workers.fork_map, the forked map the CLI's simulate and
compare use), so it and hpid verify return what one core returns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .control import GainSet
from .homogeneity import CanonicalNorm, SymMatrix, extended_state_dilation, norm_evaluator
from .sim import Trajectory
from .workers import fork_map

__all__ = [
    "CertificateError",
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
# the Lyapunov residual bound, relative to ||P||_max ||A||_max, and the
# largest condition number of P whose proof constants are not rounding noise
_RESIDUAL_REL = 1e-9
_COND_MAX = 1e12


class InfeasibleGainsError(ValueError):
    """The gains do not make the closed-loop matrix Hurwitz."""

    def __init__(self, failures: list[str]):
        self.failures = list(failures)
        super().__init__("gains are not stabilizing: " + "; ".join(failures))


class CertificateError(ArithmeticError):
    """The gains are stabilizing, but their certificate is out of floating-point reach.

    The Lyapunov solve is singular, overflows or misses its residual, its
    P has no Cholesky factor in floating point, the proof constants come
    out degenerate, or P is too ill-conditioned for them to be trusted.
    """


def solve_lyapunov(gains: GainSet) -> SymMatrix:
    """Lyapunov matrix P > 0 of P A + A' P = -I for the extended linear closed loop.

    Raises InfeasibleGainsError (naming the violated Routh-Hurwitz
    condition) when the gains are not stabilizing, and CertificateError
    when no P > 0 satisfies ||P A + A' P + I||_max <= 1e-9 ||P||_max ||A||_max
    in floating point; the returned P does.
    """
    failures = gains.routh_hurwitz_failures()
    if failures:
        raise InfeasibleGainsError(failures)
    A = gains.a_matrix()
    Q = np.eye(3)
    # the vectorized equation (I (x) A' + A' (x) I) vec(P) = -vec(Q); its
    # unique solution is symmetric, so symmetrizing strips only rounding
    M = np.kron(np.eye(3), A.T) + np.kron(A.T, np.eye(3))
    with np.errstate(all="ignore"):  # an overflow shows in the residual, which is checked
        try:
            P = np.linalg.solve(M, -Q.reshape(-1)).reshape(3, 3)
        except np.linalg.LinAlgError as exc:
            raise CertificateError(f"Lyapunov solve failed ({exc})") from None
        P = 0.5 * (P + P.T)
        resid = float(np.abs(P @ A + A.T @ P + Q).max() / np.abs(P).max() / np.abs(A).max())
    # NaN fails the first test, and a residual within it leaves P finite
    if resid <= _RESIDUAL_REL:
        P = SymMatrix(P)
        if P.is_positive_definite():
            return P
    raise CertificateError(f"Lyapunov solve failed (residual {resid:.3e})")


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


def _congruent_eigvalsh(F: np.ndarray, M: np.ndarray) -> list[float]:
    """Ascending eigenvalues of F^-1 M F^-T, for a Cholesky factor F and a symmetric M."""
    X = np.linalg.solve(F, np.linalg.solve(F, M).T)
    return np.linalg.eigvalsh(0.5 * (X + X.T)).tolist()


def certify(gains: GainSet) -> StabilityCertificate:
    """Build a stability certificate for the hPID upgrade of linear gains.

    The degree interval is computed in closed form, capped at the design
    range (-0.5, 0.5): with S = P D + D P, D = diag(-1, 0, 1), and the
    Cholesky factor L L' = 2P - 1e-8 I, the monotonicity margin
    P G(mu) + G(mu)' P = 2P + mu S >= 1e-8 I holds exactly while
    1 + mu lam >= 0 for every eigenvalue lam of L^-1 S L^-T.  beta and
    gamma are taken in the metric of P, through its Cholesky factor.  P
    solves the Lyapunov equation with Q = I.  Gains that are not
    stabilizing raise InfeasibleGainsError; every numerical failure on
    stabilizing gains raises CertificateError, and so does a P whose
    condition number exceeds _COND_MAX.
    """
    P = solve_lyapunov(gains)
    Pe, A = P.entries, gains.a_matrix()
    S = Pe @ _DIAG_DIR + _DIAG_DIR @ Pe
    try:
        L, C = np.linalg.cholesky(2.0 * Pe - _EIG_MARGIN * np.eye(3)), np.linalg.cholesky(Pe)
    except np.linalg.LinAlgError as exc:  # rounding can leave an ill-conditioned P indefinite
        raise CertificateError(f"Lyapunov matrix has no Cholesky factor ({exc})") from None
    lam = _congruent_eigvalsh(L, S)
    mu_hi = -1.0 / lam[0] if lam[0] < -1.0 / _MU_CAP else _MU_CAP
    mu_lo = -1.0 / lam[-1] if lam[-1] > 1.0 / _MU_CAP else -_MU_CAP
    # C^-1 (P G(mu) + G(mu)' P) C^-T = 2I + mu C^-1 S C^-T is least at an interval end
    nu = _congruent_eigvalsh(C, S)
    beta = min(2.0 + mu_hi * nu[0], 2.0 + mu_lo * nu[-1])
    gamma = -_congruent_eigvalsh(C, Pe @ A + A.T @ Pe)[-1]
    if not (beta > 0.0 and gamma > 0.0):
        raise CertificateError(f"certificate constants degenerate (beta={beta}, gamma={gamma})")
    eig = np.linalg.eigvalsh(Pe)
    cond = float(eig[-1] / eig[0])
    if cond > _COND_MAX:
        raise CertificateError(f"Lyapunov matrix is ill-conditioned (condition number {cond:.3e})")
    return StabilityCertificate(P=P, beta=beta, gamma=gamma, mu_lo=mu_lo, mu_hi=mu_hi, gains=gains)


# the decrease check's slack on dV/dt, absolute and relative to |rhs|, and
# the share of live intervals that must meet the slackened inequality
_SLACK_ABS, _SLACK_REL, _PASS_FRACTION = 1e-6, 0.05, 0.99


@dataclass(frozen=True)
class DecreaseReport:
    """Fraction of trajectory intervals satisfying the certified decay.

    worst_interval is the index i of the live interval [t_i, t_{i+1}] whose
    slope exceeds its slack-widened bound the most, and worst_start its
    start time t_i; both are None when no live interval fails.
    """

    fraction: float
    passed: bool
    rate: float
    n_intervals: int
    pass_fraction: float
    worst_interval: int | None
    worst_start: float | None


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
    # each sample is solved on its own; a forked worker's share of the
    # states is a view of its copy of this process, so only values travel
    V = np.array(fork_map(lambda x: norm(*x), traj.states))
    rate = cert.decrease_rate()
    Vi = V[:-1]
    live = Vi > 100.0 * scn.norm_floor
    slope = np.diff(V) / np.diff(traj.times)
    rhs = -rate * Vi ** (1.0 + mu)
    bound = rhs + _SLACK_ABS + _SLACK_REL * np.abs(rhs)
    meets = slope <= bound
    total = int(np.count_nonzero(live))
    ok = int(np.count_nonzero(live & meets))
    fraction = 1.0 if total == 0 else ok / total
    failing = live & ~meets
    worst = int(np.argmax(np.where(failing, slope - bound, -np.inf))) if failing.any() else None
    return DecreaseReport(
        fraction=fraction,
        passed=fraction >= _PASS_FRACTION,
        rate=rate,
        n_intervals=total,
        pass_fraction=_PASS_FRACTION,
        worst_interval=worst,
        worst_start=None if worst is None else float(traj.times[worst]),
    )
