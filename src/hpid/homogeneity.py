"""Weighted dilations and the homogeneous norms built on them.

A weighted dilation is the one-parameter matrix group

    d(s) = diag(e^{r_1 s}, ..., e^{r_n s}),   r_i > 0,

with diagonal generator G = diag(r_1, ..., r_n).  Two kinds of
d-homogeneous norm (functions satisfying ||d(s) x|| = e^s ||x||) are
provided:

* a weighted power sum  c1 |e|^{1/r} + c2 |de|  on the (error,
  error-rate) plane under the dilation diag(e^{r s}, e^s); the paper's
  experimental norm |e|^{1/(1-mu)} / zeta1_max + gamma |de| is this sum
  with c1 = 1/zeta1_max and c2 = gamma,
* the canonical norm: the unique lambda > 0 solving
  ||d(-ln lambda) x||_P = 1 for a weighted Euclidean norm
  ||z||_P = sqrt(z' P z), found by bracketed bisection plus Newton polish.

norm_evaluator is the one place a norm is evaluated: it checks the
spec/dilation pairing once and returns the point -> norm closure, on the
two-dimensional error pair for both kinds and on any dimension for the
canonical norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "BracketError",
    "Dilation",
    "SymMatrix",
    "WeightedSumNorm",
    "CanonicalNorm",
    "HomNormSpec",
    "error_pair_dilation",
    "extended_state_dilation",
    "dilation_apply",
    "check_strict_monotonicity",
    "canonical_norm_gradient",
    "norm_evaluator",
]


class BracketError(ArithmeticError):
    """The canonical-norm root bracket could not be established.

    Raised for pathological inputs (overflow-scale vectors, non-finite
    entries) where the defining equation cannot be solved reliably.
    """


@dataclass(frozen=True)
class Dilation:
    """Weighted dilation d(s) = diag(e^{r_i s}) with positive weights r_i."""

    weights: tuple[float, ...]

    def __post_init__(self):
        ws = tuple(float(w) for w in self.weights)
        if not ws:
            raise ValueError("dilation needs at least one weight")
        if not all(math.isfinite(w) and w > 0.0 for w in ws):
            raise ValueError(f"dilation weights must be finite and positive, got {ws}")
        object.__setattr__(self, "weights", ws)

    @property
    def n(self) -> int:
        return len(self.weights)

    def generator(self) -> np.ndarray:
        """G = diag(r_1, ..., r_n); anti-Hurwitz because all r_i > 0."""
        return np.diag(self.weights)

    def scales(self, s: float) -> np.ndarray:
        """Diagonal of d(s), i.e. the component-wise factors e^{r_i s}."""
        return np.exp(np.asarray(self.weights) * float(s))


def error_pair_dilation(mu: float) -> Dilation:
    """Dilation diag(e^{(1-mu)s}, e^s) on the (error, error-rate) plane."""
    _check_degree(mu)
    return Dilation((1.0 - float(mu), 1.0))


def extended_state_dilation(mu: float) -> Dilation:
    """Dilation diag(e^{(1-mu)s}, e^s, e^{(1+mu)s}) for the extended closed loop."""
    _check_degree(mu)
    return Dilation((1.0 - float(mu), 1.0, 1.0 + float(mu)))


def _check_degree(mu: float) -> None:
    if not (math.isfinite(mu) and -0.5 < mu < 0.5):
        raise ValueError(f"degree mu must lie in (-0.5, 0.5), got {mu}")


def dilation_apply(dil: Dilation, s: float, x) -> np.ndarray:
    """Component-wise e^{r_i s} x_i.

    The group law d(s) d(t) = d(s+t) holds up to floating rounding.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (dil.n,):
        raise ValueError(f"expected vector of dimension {dil.n}, got shape {x.shape}")
    return dil.scales(s) * x


_PD_MARGIN = 1e-10  # eigenvalue margin above which a symmetric matrix is positive definite


class SymMatrix:
    """A validated symmetric real matrix (dense, small n).

    Symmetry is required to 1e-12 relative at construction; positive
    definiteness is checked on demand, never assumed.
    """

    __slots__ = ("entries",)

    def __init__(self, entries):
        a = np.array(entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        if not np.isfinite(a).all():
            raise ValueError("matrix entries must be finite")
        scale = max(1.0, float(np.abs(a).max()))
        if float(np.abs(a - a.T).max()) > 1e-12 * scale:
            raise ValueError("matrix is not symmetric to 1e-12 relative")
        a = 0.5 * (a + a.T)
        a.flags.writeable = False
        self.entries = a

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def is_positive_definite(self) -> bool:
        return float(np.linalg.eigvalsh(self.entries).min()) > _PD_MARGIN

    def __eq__(self, other) -> bool:
        if not isinstance(other, SymMatrix):
            return NotImplemented
        return np.array_equal(self.entries, other.entries)

    def __hash__(self) -> int:
        # + 0.0 turns -0.0 into 0.0, which __eq__ already treats as equal
        return hash((self.entries + 0.0).tobytes())

    def __repr__(self) -> str:
        return f"SymMatrix({self.entries.tolist()!r})"


@dataclass(frozen=True)
class WeightedSumNorm:
    """||(e, de)||_d = c1 |e|^{1/r} + c2 |de| with positive coefficients (c1, c2)."""

    coefficients: tuple[float, float]

    def __post_init__(self):
        cs = tuple(float(c) for c in self.coefficients)
        if len(cs) != 2:
            raise ValueError(f"weighted-sum norm needs exactly two coefficients, got {len(cs)}")
        if not all(math.isfinite(c) and c > 0.0 for c in cs):
            raise ValueError(f"coefficients must be finite and positive, got {cs}")
        object.__setattr__(self, "coefficients", cs)


@dataclass(frozen=True)
class CanonicalNorm:
    """Canonical d-homogeneous norm induced by ||z||_P = sqrt(z' P z).

    Requires P > 0 and P G + G' P > 0 (strict monotonicity of the dilation
    with respect to the weighted Euclidean norm); both are checked when the
    norm is evaluated.
    """

    P: SymMatrix

    def __post_init__(self):
        if not isinstance(self.P, SymMatrix):
            object.__setattr__(self, "P", SymMatrix(self.P))


HomNormSpec = WeightedSumNorm | CanonicalNorm


def check_strict_monotonicity(dil: Dilation, P) -> bool:
    """True iff P > 0 and P G + G' P > 0, each by an eigenvalue margin above _PD_MARGIN."""
    P = P if isinstance(P, SymMatrix) else SymMatrix(P)
    if P.n != dil.n:
        raise ValueError(f"dimension mismatch: P is {P.n}x{P.n}, dilation is {dil.n}-dimensional")
    if not P.is_positive_definite():
        return False
    G = dil.generator()
    M = P.entries @ G + G.T @ P.entries
    return float(np.linalg.eigvalsh(0.5 * (M + M.T)).min()) > _PD_MARGIN


def _p_norm(P: np.ndarray, z: np.ndarray) -> float:
    return math.sqrt(float(z @ P @ z))


CANONICAL_TOLERANCE = 1e-12  # the defining-equation residual Newton polish reaches


def _canonical_core(P: np.ndarray, w: np.ndarray, x: np.ndarray) -> float:
    """The unique lambda > 0 with ||d(-ln lambda) x||_P = 1 (0 at the origin).

    The map lambda -> ||d(-ln lambda) x||_P is strictly decreasing for a
    strictly monotone dilation (vetted by the caller), so the root is found
    by doubling/halving bracket expansion from lambda_0 = ||x||_P, bisection
    to 1e-12 relative, and safeguarded Newton polish down to the residual
    CANONICAL_TOLERANCE.
    """
    with np.errstate(over="ignore"):  # overflow-scale x is reported, not warned
        nx = _p_norm(P, x)
    if not math.isfinite(nx):
        raise BracketError(f"cannot evaluate canonical norm: ||x||_P = {nx}")
    if nx < 1e-300:
        return 0.0

    def resid(lam: float) -> float:
        return _p_norm(P, x * lam ** (-w)) - 1.0

    lo = hi = nx
    f0 = resid(nx)
    if f0 > 0.0:  # norm still above one: grow lambda
        for _ in range(2100):
            hi *= 2.0
            if not math.isfinite(hi):
                raise BracketError("bracket expansion overflowed")
            if resid(hi) <= 0.0:
                break
            lo = hi
        else:
            raise BracketError("no sign change found while expanding the bracket upward")
    elif f0 < 0.0:
        for _ in range(2100):
            lo *= 0.5
            if lo == 0.0:
                raise BracketError("bracket expansion underflowed")
            if resid(lo) >= 0.0:
                break
            hi = lo
        else:
            raise BracketError("no sign change found while expanding the bracket downward")

    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if resid(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12 * lo:
            break
    lam = 0.5 * (lo + hi)

    # Newton polish; dF/dlambda = -z'PGz / (lambda ||z||_P) < 0 by monotonicity
    for _ in range(30):
        z = x * lam ** (-w)
        nz = _p_norm(P, z)
        if abs(nz - 1.0) <= CANONICAL_TOLERANCE:
            break
        Pz = P @ z
        deriv = -float(Pz @ (w * z)) / (lam * nz)
        step = (nz - 1.0) / deriv
        cand = lam - step
        lam = cand if lo <= cand <= hi else 0.5 * (lo + hi)
    else:
        raise BracketError("canonical norm did not reach the requested residual tolerance")
    return lam


def canonical_norm_gradient(spec: CanonicalNorm, dil: Dilation, x) -> np.ndarray:
    """Gradient row of the canonical norm at x != 0.

    With lambda = ||x||_d and z = d(-ln lambda) x the gradient is

        lambda * z' P d(-ln lambda) / (z' P G z),

    which matches central finite differences of the canonical norm away
    from degenerate points.
    """
    x = np.asarray(x, dtype=float)
    lam = norm_evaluator(spec, dil)(*x)
    if lam == 0.0:
        raise ValueError("canonical-norm gradient is undefined at the origin")
    w = np.asarray(dil.weights)
    scales = lam ** (-w)
    z = x * scales
    Pz = spec.P.entries @ z
    denom = float(Pz @ (w * z))
    return lam * (Pz * scales) / denom


def norm_evaluator(spec: HomNormSpec, dil: Dilation) -> Callable[..., float]:
    """The point -> norm closure of spec under dil.

    Validates the spec/dilation pairing once so per-step controller and
    vector-field evaluations stay cheap.  The canonical closure takes the
    dil.n coordinates of a point; the weighted-sum closure takes the error
    pair (e, de) and needs a dilation with weights (r, 1).
    """
    if isinstance(spec, CanonicalNorm):
        if not check_strict_monotonicity(dil, spec.P):
            raise ValueError("P must make the dilation strictly monotone (P > 0, PG + G'P > 0)")
        P, w, n = spec.P.entries, np.asarray(dil.weights), dil.n

        def canonical(*x: float) -> float:
            if len(x) != n:
                raise ValueError(f"expected {n} coordinates, got {len(x)}")
            return _canonical_core(P, w, np.array(x))

        return canonical
    if isinstance(spec, WeightedSumNorm):
        if dil.n != 2 or dil.weights[1] != 1.0:
            raise ValueError(f"the weighted-sum norm needs error-pair dilation weights (r, 1), got {dil.weights}")
        (c1, c2), inv_r = spec.coefficients, 1.0 / dil.weights[0]
        return lambda e, de: c1 * abs(e) ** inv_r + c2 * abs(de)
    raise TypeError(f"unknown norm spec {type(spec).__name__}")
