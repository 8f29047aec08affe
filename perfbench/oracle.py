"""Reference computations that the benchmark checks hpid's outputs against.

Nothing here imports hpid.  Each formula is written from the model's
definition, not from the program's code path:

* the linear loops (PID on both plants) are solved exactly by the matrix
  exponential; the joints plant's reference and disturbance sinusoids are
  carried as a linear exosystem, so the whole forced loop is one linear ODE;
* the homogeneous loops are integrated here by classical RK4 at half the
  program's step, with the norms evaluated by this module's own formulas
  (the canonical norm by bisection in log-space);
* comparison indices are recomputed from the trajectory CSVs;
* certificates are checked through the Lyapunov equation and the dilation
  monotonicity condition they claim.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np


# ---------------------------------------------------------------------------
# files


def read_table(path: Path, header: list[str]) -> np.ndarray:
    """Numeric CSV body after checking the exact header row and LF endings."""
    raw = Path(path).read_bytes()
    if b"\r" in raw or not raw.endswith(b"\n"):
        raise AssertionError(f"{path.name}: expected LF line endings and a final newline")
    text = raw.decode("utf-8")
    first, _, body = text.partition("\n")
    if first.split(",") != header:
        raise AssertionError(f"{path.name}: header {first!r} differs from {','.join(header)!r}")
    rows = [[float(v) for v in line.split(",")] for line in body.splitlines()]
    data = np.array(rows, dtype=float)
    if data.ndim != 2 or data.shape[1] != len(header):
        raise AssertionError(f"{path.name}: ragged rows")
    return data


def close(name: str, got, want, tol: float) -> None:
    """Raise when max |got - want| / (1 + |want|) exceeds tol."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        raise AssertionError(f"{name}: shape {got.shape} differs from {want.shape}")
    err = np.abs(got - want) / (1.0 + np.abs(want))
    worst = float(err.max()) if err.size else 0.0
    if not worst <= tol:
        raise AssertionError(f"{name}: deviation {worst:.3e} exceeds {tol:.1e}")


# ---------------------------------------------------------------------------
# linear loops


def expm(M: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring of a truncated Taylor series."""
    M = np.asarray(M, dtype=float)
    norm = float(np.abs(M).sum(axis=-1).max())
    k = max(0, math.ceil(math.log2(norm)) + 1) if norm > 0.5 else 0
    A = M / 2.0**k
    E = np.eye(M.shape[-1]) + np.zeros_like(M)
    term = E.copy()
    for n in range(1, 26):
        term = term @ A / n
        E = E + term
    for _ in range(k):
        E = E @ E
    return E


def propagate(E: np.ndarray, z0: np.ndarray, n: int) -> np.ndarray:
    """Samples z_i = E^i z0 for i = 0..n; E and z0 may carry a leading batch axis."""
    out = np.empty((n + 1,) + z0.shape)
    out[0] = z0
    z = z0
    for i in range(n):
        z = (E @ z[..., None])[..., 0]
        out[i + 1] = z
    return out


def extended_pid(gains, x0, n: int, h: float) -> np.ndarray:
    """Exact states (n+1, 3) of the linear extended loop x' = A x.

    A = [[0, 1, 0], [kp, kd, 1], [ki, 0, 0]]; the constant disturbance sits
    in the integral channel x3.
    """
    kp, kd, ki = gains
    A = np.array([[0.0, 1.0, 0.0], [kp, kd, 1.0], [ki, 0.0, 0.0]])
    return propagate(expm(A * h), np.asarray(x0, dtype=float), n)


def joints_pid(joints: list[dict], n: int, h: float) -> dict[str, np.ndarray]:
    """Exact q, u, eps (each (n+1, joints)) of linear PID joints with sinusoid forcing.

    Per joint the state [e, de, acc, 1, sin_d, cos_d, sin_r, cos_r] obeys
    e' = de, de' = kp e + kd de + ki acc - (c + a sin_d), acc' = e, with
    the disturbance and reference phases rotating at their frequencies.
    """
    m = len(joints)
    M = np.zeros((m, 8, 8))
    Z0 = np.zeros((m, 8))
    for j, jc in enumerate(joints):
        kp, kd, ki = jc["gains"]
        wd, wr = jc["dist_frequency"], jc["ref_frequency"]
        M[j, 0, 1] = 1.0
        M[j, 1, :5] = (kp, kd, ki, -jc["dist_constant"], -jc["dist_amplitude"])
        M[j, 2, 0] = 1.0
        M[j, 4, 5], M[j, 5, 4] = wd, -wd
        M[j, 6, 7], M[j, 7, 6] = wr, -wr
        amp, ph = jc["ref_amplitude"], jc["ref_phase"]
        # the joint starts at rest at zero position: error = reference at t = 0
        Z0[j] = (jc["ref_offset"] + amp * math.sin(ph), amp * wr * math.cos(ph), 0.0, 1.0,
                 math.sin(jc["dist_phase"]), math.cos(jc["dist_phase"]), math.sin(ph), math.cos(ph))
    Z = propagate(expm(M * h), Z0, n)  # (n+1, m, 8)
    gains = np.array([jc["gains"] for jc in joints])
    eps = Z[:, :, 0]
    u = gains[:, 0] * eps + gains[:, 1] * Z[:, :, 1] + gains[:, 2] * Z[:, :, 2]
    offset = np.array([jc["ref_offset"] for jc in joints])
    amp = np.array([jc["ref_amplitude"] for jc in joints])
    q = offset + amp * Z[:, :, 6] - eps
    return {"q": q, "u": u, "eps": eps}


# ---------------------------------------------------------------------------
# homogeneous norms


def power_norm(c1, c2, mu, a, b):
    """c1 |a|^{1/(1-mu)} + c2 |b|: the weighted-sum and experimental error-pair norms."""
    return c1 * np.abs(a) ** (1.0 / (1.0 - mu)) + c2 * np.abs(b)


def canonical_norm(P: np.ndarray, w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Canonical homogeneous norm of each row of x by bisection on s = ln(lambda).

    lambda solves ||diag(lambda^-w) x||_P = 1; the left side falls strictly
    in lambda, so a sign bracket in s is widened by doubling and halved
    until it collapses to float resolution.  Rows at the origin give 0.
    P, w and x may carry a leading batch axis matching x's rows.
    """
    x = np.asarray(x, dtype=float)
    P = np.broadcast_to(P, x.shape[:-1] + P.shape[-2:])
    w = np.broadcast_to(w, x.shape)

    def excess(s):  # ||z||_P^2 - 1 at lambda = e^s
        z = x * np.exp(-w * s[..., None])
        return np.einsum("...i,...ij,...j->...", z, P, z) - 1.0

    zero = ~np.any(x != 0.0, axis=-1)
    nx2 = np.einsum("...i,...ij,...j->...", x, P, x)
    centre = 0.5 * np.log(np.where(zero, 1.0, nx2))
    lo, hi = centre - 1.0, centre + 1.0
    width = np.ones_like(centre)
    for _ in range(200):
        short = (excess(lo) < 0.0) & ~zero
        if not short.any():
            break
        lo = np.where(short, lo - width, lo)
        width = np.where(short, 2.0 * width, width)
    width = np.ones_like(centre)
    for _ in range(200):
        short = (excess(hi) > 0.0) & ~zero
        if not short.any():
            break
        hi = np.where(short, hi + width, hi)
        width = np.where(short, 2.0 * width, width)
    for _ in range(80):  # 80 halvings take any bracket found above to float resolution
        mid = 0.5 * (lo + hi)
        above = excess(mid) > 0.0
        lo = np.where(above, mid, lo)
        hi = np.where(above, hi, mid)
    return np.where(zero, 0.0, np.exp(0.5 * (lo + hi)))


class PairNorm:
    """Error-pair norm nu(a, b) for a batch of scenarios, each with its own spec.

    spec is a dict with kind 'weighted_sum' (coefficients), 'experimental'
    (zeta1_max, norm_gamma) or 'canonical' (norm_p, a 2x2 list).
    """

    def __init__(self, specs: list[dict], mus: np.ndarray):
        self.mus = np.asarray(mus, dtype=float)
        canonical = {s["kind"] == "canonical" for s in specs}
        if len(canonical) != 1:
            raise ValueError("a batch mixes canonical and power-sum norms")
        if canonical.pop():
            self.P = np.array([s["norm_p"] for s in specs], dtype=float)
            self.w = np.stack([1.0 - self.mus, np.ones_like(self.mus)], axis=-1)
        else:
            self.c1 = np.array([s["coefficients"][0] if s["kind"] == "weighted_sum" else 1.0 / s["zeta1_max"]
                                for s in specs])
            self.c2 = np.array([s["coefficients"][1] if s["kind"] == "weighted_sum" else s["norm_gamma"]
                                for s in specs])
            self.P = None

    def __call__(self, a, b):
        if self.P is not None:
            return canonical_norm(self.P, self.w, np.stack([a, b], axis=-1))
        return power_norm(self.c1, self.c2, self.mus, a, b)


# ---------------------------------------------------------------------------
# homogeneous loops


def rk4(field, y0: np.ndarray, n: int, h: float) -> np.ndarray:
    """States at t = i h (i = 0..n), integrated by classical RK4 at step h/2."""
    k = h / 2.0
    out = np.empty((n + 1,) + y0.shape)
    out[0] = y0
    y = y0
    for i in range(n):
        for j in range(2):
            t = i * h + j * k
            k1 = field(t, y)
            k2 = field(t + 0.5 * k, y + 0.5 * k * k1)
            k3 = field(t + 0.5 * k, y + 0.5 * k * k2)
            k4 = field(t + k, y + k * k3)
            y = y + (k / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[i + 1] = y
    return out


def hpid_terms(gains: np.ndarray, mus: np.ndarray, floors: np.ndarray, norm: PairNorm, e, de):
    """(kp nu^{2mu} e + kd nu^mu de, nu^{3mu}) with nu clamped at the floor."""
    nu = np.maximum(norm(e, de), floors)
    return gains[..., 0] * nu ** (2.0 * mus) * e + gains[..., 1] * nu**mus * de, nu ** (3.0 * mus)


def extended_field(gains: np.ndarray, mus, floors, norm: PairNorm, x: np.ndarray) -> np.ndarray:
    """x1' = x2, x2' = kp nu^{2mu} x1 + kd nu^mu x2 + x3, x3' = ki nu^{3mu} x1 on rows of x.

    At mu = 0 every norm power is exactly 1, so this is the linear PID field.
    """
    pd, integ = hpid_terms(gains, mus, floors, norm, x[..., 0], x[..., 1])
    return np.stack([x[..., 1], pd + x[..., 2], gains[..., 2] * integ * x[..., 0]], axis=-1)


def extended_hpid(gains, mus, floors, norm: PairNorm, x0, n: int, h: float) -> np.ndarray:
    """States (n+1, B, 3) of B extended hPID loops sharing one grid."""
    gains = np.asarray(gains, dtype=float)
    return rk4(lambda t, x: extended_field(gains, mus, floors, norm, x), np.asarray(x0, dtype=float), n, h)


def extended_control(gains, mu, floor, norm: PairNorm, X: np.ndarray, p: float) -> np.ndarray:
    """Applied control u = kp nu^{2mu} x1 + kd nu^mu x2 + x3 - p along states X (N, 3).

    The disturbance p sits in the integral channel, whose rate is u + p.
    """
    g = np.asarray(gains, dtype=float)
    pd, _ = hpid_terms(g, mu, floor, norm, X[:, 0], X[:, 1])
    return pd + X[:, 2] - p


def joints_hpid(joints: list[dict], norm: PairNorm, n: int, h: float) -> dict[str, np.ndarray]:
    """q, u, eps (each (n+1, J)) of J hPID joints, possibly from several scenarios.

    Per joint: e' = de, de' = u - d(t), acc' = nu^{3mu} e, with
    u = kp nu^{2mu} e + kd nu^mu de + ki acc and d(t) = c + a sin(w t + phase).
    """
    gains = np.array([jc["gains"] for jc in joints])
    mus = np.array([jc["mu"] for jc in joints])
    floors = np.array([jc["norm_floor"] for jc in joints])
    dc = np.array([jc["dist_constant"] for jc in joints])
    da = np.array([jc["dist_amplitude"] for jc in joints])
    dw = np.array([jc["dist_frequency"] for jc in joints])
    dp = np.array([jc["dist_phase"] for jc in joints])

    def field(t, y):
        e, de, acc = y[:, 0], y[:, 1], y[:, 2]
        pd, integ = hpid_terms(gains, mus, floors, norm, e, de)
        u = pd + gains[:, 2] * acc
        return np.stack([de, u - (dc + da * np.sin(dw * t + dp)), integ * e], axis=-1)

    amp = np.array([jc["ref_amplitude"] for jc in joints])
    rw = np.array([jc["ref_frequency"] for jc in joints])
    rp = np.array([jc["ref_phase"] for jc in joints])
    off = np.array([jc["ref_offset"] for jc in joints])
    y0 = np.stack([off + amp * np.sin(rp), amp * rw * np.cos(rp), np.zeros(len(joints))], axis=-1)
    Y = rk4(field, y0, n, h)
    eps = Y[:, :, 0]
    pd, _ = hpid_terms(gains, mus, floors, norm, eps, Y[:, :, 1])
    t = (np.arange(n + 1) * h)[:, None]
    return {"q": off + amp * np.sin(rw * t + rp) - eps, "u": pd + gains[:, 2] * Y[:, :, 2], "eps": eps}


def hermite(h: float, X: np.ndarray, dX: np.ndarray, tq: np.ndarray) -> np.ndarray:
    """Cubic Hermite interpolation at times tq of samples X (derivatives dX) at t = i h."""
    pos = tq / h
    i = np.minimum(pos.astype(int), len(X) - 2)
    s = (pos - i)[:, None]
    h00 = 2 * s**3 - 3 * s**2 + 1
    h10 = s**3 - 2 * s**2 + s
    h01 = -2 * s**3 + 3 * s**2
    h11 = s**3 - s**2
    return h00 * X[i] + h10 * h * dX[i] + h01 * X[i + 1] + h11 * h * dX[i + 1]


# ---------------------------------------------------------------------------
# comparison indices


def trapezoid(y: np.ndarray, t: np.ndarray) -> np.ndarray:
    dt = np.diff(t)[:, None] if y.ndim == 2 else np.diff(t)
    return (0.5 * dt * (y[1:] + y[:-1])).sum(axis=0)


def comparison_indices(t, u_pid, e_pid, u_hpid, e_hpid) -> dict[str, np.ndarray]:
    """IVC, IAVC, ITAE per joint and the stacked L2 norms, for both runs."""
    out = {}
    for tag, u, e in (("PID", u_pid, e_pid), ("HPID", u_hpid, e_hpid)):
        out[f"IVC_{tag}"] = np.abs(np.diff(u, axis=0)).sum(axis=0)
        out[f"IAVC_{tag}"] = trapezoid(np.abs(u), t)
        out[f"ITAE_{tag}"] = trapezoid(t[:, None] * np.abs(e), t)
        out[f"l2_control_{tag}"] = math.sqrt(float(trapezoid((u * u).sum(axis=1), t)))
        out[f"l2_error_{tag}"] = math.sqrt(float(trapezoid((e * e).sum(axis=1), t)))
    return out


# ---------------------------------------------------------------------------
# certificates


def certificate_defects(gains, P: np.ndarray, beta: float, gamma: float, mu_lo: float, mu_hi: float) -> list[str]:
    """Everything a certificate claims that fails to hold; empty when sound.

    Claims: P A + A' P = -I to 1e-9, P > 0, P G(mu) + G(mu)' P >= 0 for
    mu inside (mu_lo, mu_hi) with G(mu) = diag(1 - mu, 1, 1 + mu), and the
    constants: with P A + A' P = -I, gamma = 1 / lambda_max(P); beta is the
    smallest eigenvalue of P^-1 (P G + G' P) over the two interval ends.
    """
    kp, kd, ki = gains
    A = np.array([[0.0, 1.0, 0.0], [kp, kd, 1.0], [ki, 0.0, 0.0]])
    defects = []
    resid = float(np.abs(P @ A + A.T @ P + np.eye(3)).max())
    if not resid <= 1e-9:
        defects.append(f"Lyapunov residual {resid:.3e} > 1e-9")
    eig = np.linalg.eigvalsh(0.5 * (P + P.T))
    if not eig.min() > 0.0:
        defects.append(f"P not positive definite (min eigenvalue {eig.min():.3e})")
    if not (-0.5 <= mu_lo < 0.0 < mu_hi <= 0.5):
        defects.append(f"degree interval ({mu_lo}, {mu_hi}) is not around 0 inside [-0.5, 0.5]")

    def monotone(mu):
        G = np.diag([1.0 - mu, 1.0, 1.0 + mu])
        return np.linalg.eigvalsh(P @ G + G.T @ P).min()

    for mu in np.linspace(mu_lo, mu_hi, 11)[1:-1]:
        if not monotone(mu) >= 0.0:
            defects.append(f"monotonicity margin {monotone(mu):.3e} < 0 at mu = {mu:.6g}")
    if not abs(gamma - 1.0 / eig.max()) <= 1e-9 * gamma:
        defects.append(f"gamma {gamma!r} differs from 1/lambda_max(P) = {1.0 / eig.max()!r}")
    Pinv = np.linalg.inv(P)
    want_beta = min(
        np.linalg.eigvals(Pinv @ (P @ G + G @ P)).real.min()
        for G in (np.diag([1.0 - m, 1.0, 1.0 + m]) for m in (mu_lo, mu_hi))
    )
    # beta sits where the margin meets the certifier's 1e-8 target, so it can be
    # that small itself: compare to a relative 1e-6 plus an absolute 1e-13
    if not abs(beta - want_beta) <= 1e-6 * abs(want_beta) + 1e-13:
        defects.append(f"beta {beta!r} differs from {want_beta!r}")
    return defects


def decrease_fraction(P: np.ndarray, mu: float, rate: float, times: np.ndarray, X: np.ndarray,
                      floor: float) -> tuple[float, int]:
    """Share of sample intervals with dV/dt <= -rate V^{1+mu} + slack, and their count.

    V is the canonical norm of the extended state for P and the weights
    (1 - mu, 1, 1 + mu); intervals starting with V <= floor are left out.
    The slack is the decrease check's default, 1e-6 + 0.05 |rate V^{1+mu}|.
    """
    slack_abs, slack_rel = 1e-6, 0.05
    V = canonical_norm(P, np.array([1.0 - mu, 1.0, 1.0 + mu]), X)
    keep = V[:-1] > floor
    slope = np.diff(V) / np.diff(times)
    bound = -rate * V[:-1] ** (1.0 + mu)
    ok = slope <= bound + slack_abs + slack_rel * np.abs(bound)
    n = int(keep.sum())
    return (1.0 if n == 0 else float((ok & keep).sum()) / n), n
