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
  ||z||_P = sqrt(z' P z), found by bisection on ln lambda inside a bracket
  read off ||x||_P, the extreme eigenvalues of P and the extreme weights.

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
    return math.sqrt(abs(float(z @ P @ z)))  # abs: z'Pz can overflow to -inf beside a finite term


CANONICAL_TOLERANCE = 1e-12  # the defining-equation residual every returned lambda meets
_LN_LAMBDA_RANGE = (-708.0, 709.0)  # inside ln of the normal floats: a lambda beyond is reported


def _canonical_core(P: np.ndarray, w: np.ndarray, x: np.ndarray, half_ln_cond: float, w_min: float, w_max: float) -> float:
    """The unique lambda > 0 with ||d(-ln lambda) x||_P = 1 (0 at the origin).

    s -> ||d(-s) x||_P is strictly decreasing for a strictly monotone
    dilation (vetted by the caller).  As sqrt(lambda_min(P)) |z| <= ||z||_P
    <= sqrt(lambda_max(P)) |z|, its root s = ln lambda lies, for either sign,
    between min(a / w_min, a / w_max) and max(b / w_min, b / w_max), where
    a, b = ln ||x||_P -+ half_ln_cond = ln ||x||_P -+ ln(lambda_max / lambda_min) / 2.
    Bisection on s stops at half of CANONICAL_TOLERANCE; the other half is
    left to the rounding between s and lambda.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # overflow-scale x is reported, not warned
        nx = _p_norm(P, x)
        if not math.isfinite(nx):
            raise BracketError(f"cannot evaluate canonical norm: ||x||_P = {nx}")
        if nx < 1e-300:
            return 0.0
        a, b = math.log(nx) - half_ln_cond, math.log(nx) + half_ln_cond
        lo = max(min(a / w_min, a / w_max), _LN_LAMBDA_RANGE[0])
        hi = min(max(b / w_min, b / w_max), _LN_LAMBDA_RANGE[1])
        for _ in range(200):
            s = 0.5 * (lo + hi)
            r = _p_norm(P, x * np.exp(-s * w)) - 1.0
            if abs(r) <= 0.5 * CANONICAL_TOLERANCE:
                return math.exp(s)
            if r <= 0.0:
                hi = s
            else:  # NaN too: 0 * inf, where exp(-s w) overflows at an s far below the root
                lo = s
    raise BracketError("canonical norm did not reach the requested residual tolerance")


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
        eig = np.linalg.eigvalsh(P)
        bracket = (0.5 * math.log(eig[-1] / eig[0]), min(dil.weights), max(dil.weights))

        def canonical(*x: float) -> float:
            if len(x) != n:
                raise ValueError(f"expected {n} coordinates, got {len(x)}")
            return _canonical_core(P, w, np.array(x), *bracket)

        return canonical
    if isinstance(spec, WeightedSumNorm):
        if dil.n != 2 or dil.weights[1] != 1.0:
            raise ValueError(f"the weighted-sum norm needs error-pair dilation weights (r, 1), got {dil.weights}")
        (c1, c2), inv_r = spec.coefficients, 1.0 / dil.weights[0]
        return lambda e, de: c1 * abs(e) ** inv_r + c2 * abs(de)
    raise TypeError(f"unknown norm spec {type(spec).__name__}")
