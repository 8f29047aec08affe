"""The invariant suite behind `hpid verify` and the acceptance gate.

Each check exercises one library invariant on seeded random inputs and
reports the measured residual against its tolerance.  A check takes its
inputs as arguments: sample counts, and where its two callers differ, the
norms, dilation and sampling box.  `run_all` states verify's
inputs once, sized so a deployment can re-verify the numerics in seconds;
tests/test_acceptance.py calls the same checks with larger or wider inputs
and asserts that each passes.  Residuals are maxima that keep a NaN, so a
NaN never reads as a pass.

The two closed-loop checks take one step of sim.rk4_block, the kernel
where the field every run integrates is written: a fault that keeps the
field's degree passes the homogeneity check and fails the mu = 0 one, which
also drives the block with a sinusoid disturbance.

The checks stay private because the benchmark's tracer times every public
function of this module and reports `run_all`'s self time: public checks
would be timed on their own and move their cost out of that figure.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

from . import homogeneity as hg
from .control import GainSet, hpid_law
from .metrics import channel_indices
from .plant import default_six_joint_plant
from .sim import Scenario, Trajectory, rk4_block, scaling_symmetry_run, simulate
from .stability import certify, lyapunov_decrease_check

__all__ = ["CheckResult", "run_all"]

_GAINS = GainSet(-3.0, -3.0, -1.0)


@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float
    tolerance: float
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f"  ({self.detail})" if self.detail else ""
        return f"{status}  {self.name}: residual {self.residual:.3e} vs tolerance {self.tolerance:.1e}{extra}"


def _worst(residuals) -> float:
    """The largest residual, NaN if any is NaN, 0 for none."""
    return float(np.max(residuals, initial=0.0))


_SAMPLE_DILATIONS = (
    hg.Dilation((1.0, 1.0)),
    hg.error_pair_dilation(0.2),
    hg.error_pair_dilation(-0.3),
    hg.extended_state_dilation(0.1),
    hg.Dilation((0.5, 1.0, 2.0)),
)
_CANONICAL_P = hg.SymMatrix([[2.0, 0.3], [0.3, 1.0]])
_VERIFY_NORMS = (
    hg.WeightedSumNorm((1.0, 2.0)),
    hg.CanonicalNorm(_CANONICAL_P),
    hg.WeightedSumNorm((1 / 1.5, 0.7)),  # norm = experimental at zeta1_max = 1.5, norm_gamma = 0.7
)


def _check_group_law(rng: np.random.Generator, draws: int) -> CheckResult:
    residuals = []
    for dil in _SAMPLE_DILATIONS:
        for _ in range(draws):
            s, t = rng.uniform(-5, 5, size=2)
            x = rng.uniform(-10, 10, size=dil.n)
            once = hg.dilation_apply(dil, s + t, x)
            twice = hg.dilation_apply(dil, s, hg.dilation_apply(dil, t, x))
            scale = 1.0 + max(float(np.linalg.norm(x)), float(np.linalg.norm(once)))
            residuals.append(float(np.linalg.norm(twice - once)) / scale)
    return CheckResult("dilation group law", _worst(residuals), 1e-10)


def _check_norm_scaling(rng: np.random.Generator, dil: hg.Dilation, specs, draws: int) -> CheckResult:
    residuals = []
    for spec in specs:
        norm = hg.norm_evaluator(spec, dil)
        for _ in range(draws):
            s = rng.uniform(-5, 5)
            x = rng.uniform(-10, 10, size=2)
            base = norm(*x.tolist())
            scaled = norm(*hg.dilation_apply(dil, s, x).tolist())
            residuals.append(abs(scaled - math.exp(s) * base) / (math.exp(s) * (1.0 + base)))
    return CheckResult("homogeneous norm scaling", _worst(residuals), 1e-9)


def _check_canonical_identity(
    rng: np.random.Generator, dil: hg.Dilation, half_width: float, draws: int
) -> CheckResult:
    """||d(-ln N(x)) x||_P = 1 for the canonical norm N, on draws from the box."""
    norm = hg.norm_evaluator(hg.CanonicalNorm(_CANONICAL_P), dil)
    residuals = []
    for _ in range(draws):
        x = rng.uniform(-half_width, half_width, size=2)
        if np.linalg.norm(x) < 1e-6:
            continue
        z = hg.dilation_apply(dil, -math.log(norm(*x)), x)
        residuals.append(abs(math.sqrt(z @ _CANONICAL_P.entries @ z) - 1.0))
    return CheckResult("canonical norm defining identity", _worst(residuals), hg.CANONICAL_TOLERANCE)


def _step_at(law, ki: float, x: list[float], h: float, dist=lambda t: 0.0) -> list[float]:
    """The state after one step of rk4_block from x on the grid [0, h], undisturbed by default."""
    out = array("d")
    rk4_block(law, ki, dist, x, [0.0, h], h, out)
    return out[4:7].tolist()


def _check_step_homogeneity(rng: np.random.Generator, norm: hg.HomNormSpec, samples: int) -> CheckResult:
    """step(d(s) x, e^{-mu s} h) = d(s) step(x, h) at each degree mu, for the undisturbed block.

    A field of degree mu has f(d(s) x) = e^{mu s} d(s) f(x), so every RK4
    stage, and with it the step, commutes with d(s) at the step e^{-mu s} h:
    the identity is exact for any h.  h = 1, because a smaller step scales a
    field defect down by h.  A draw with |(x1, x2)| < 1e-8 is skipped, since
    the norm floor breaks the scaling at the origin.
    """
    residuals = []
    for mu in (-0.2, -0.1, 0.0, 0.1, 0.2):
        law = hpid_law(_GAINS, mu, norm, 1e-9)
        dil = hg.extended_state_dilation(mu)
        checked = 0
        while checked < samples:
            s = rng.uniform(-5, 5)
            x = rng.uniform(-2, 2, size=3)
            if math.hypot(x[0], x[1]) < 1e-8:
                continue
            checked += 1
            lhs = np.array(_step_at(law, _GAINS.ki, hg.dilation_apply(dil, s, x).tolist(), math.exp(-mu * s)))
            rhs = hg.dilation_apply(dil, s, _step_at(law, _GAINS.ki, x.tolist(), 1.0))
            residuals.append(float(np.linalg.norm(lhs - rhs)) / max(1.0, float(np.linalg.norm(rhs))))
    return CheckResult("closed-loop RK4 step homogeneity", _worst(residuals), 1e-9)


def _check_mu_zero_step(rng: np.random.Generator, draws: int) -> CheckResult:
    """At mu = 0 a kernel step is RK4 on the rows of A = GainSet.a_matrix() plus the forcing, bit for bit.

    The forcing is -d(t) in the error-rate row, d a sinusoid, evaluated at
    t, twice at t + h/2 and at t + h.  The reference sums each row element
    by element, left to right, not as a BLAS product, which may fuse
    multiply-adds, and forms the stages and the update in the kernel's
    order.  Every draw takes fresh gains, a fresh step h in [1e-3, 0.5] and
    a fresh disturbance.
    """
    residuals = []
    for _ in range(draws):
        gains = GainSet(*rng.uniform(-5, 5, size=3))
        x = rng.uniform(-5, 5, size=3).tolist()
        h = rng.uniform(1e-3, 0.5)
        amplitude, frequency, phase = rng.uniform((-1.0, 0.0, 0.0), (1.0, 10.0, 2.0 * math.pi)).tolist()
        rows = gains.a_matrix().tolist()

        def dist(t: float) -> float:
            return amplitude * math.sin(frequency * t + phase)

        def forced(y: list[float], t: float) -> list[float]:
            k = [row[0] * y[0] + row[1] * y[1] + row[2] * y[2] for row in rows]
            k[1] -= dist(t)
            return k

        k1 = forced(x, 0.0)
        k2 = forced([a + 0.5 * h * b for a, b in zip(x, k1)], 0.0 + 0.5 * h)
        k3 = forced([a + 0.5 * h * b for a, b in zip(x, k2)], 0.0 + 0.5 * h)
        k4 = forced([a + h * b for a, b in zip(x, k3)], 0.0 + h)
        rk4 = [a + h / 6.0 * (((b + 2.0 * c) + 2.0 * d) + e) for a, b, c, d, e in zip(x, k1, k2, k3, k4)]
        step = _step_at(hpid_law(gains, 0.0, hg.WeightedSumNorm((1.0, 1.0)), 1e-9), gains.ki, x, h, dist)
        residuals.append(float(np.abs(np.subtract(step, rk4)).max()))
    return CheckResult("RK4 step at mu = 0 equals RK4 on the linear rows", _worst(residuals), 0.0)


def _check_scaling_symmetry(cases, step: float) -> CheckResult:
    """x(t, d(s) x0) = d(s) x(e^{mu s} t, x0) over 3 s, for each (mu, s) in cases."""
    reports = [
        scaling_symmetry_run(Scenario(controller="hpid", mu=mu, horizon=3.0, step=step), s)
        for mu, s in cases
    ]
    compared = sum(r.n_compared for r in reports)
    detail = f"{compared} samples" + (", truncated" if any(r.truncated for r in reports) else "")
    return CheckResult("solution scaling symmetry", _worst([r.sup_discrepancy for r in reports]), 1e-4, detail)


def _check_lyapunov_decrease(mus) -> CheckResult:
    """The certificate's decrease along the default 9 s run at each degree."""
    cert = certify(_GAINS)
    reports = [
        lyapunov_decrease_check(simulate(Scenario(controller="hpid" if mu else "pid", mu=mu)), cert, mu)
        for mu in mus
    ]
    # 1 - f is exact for f in [0.5, 1] (Sterbenz), and a fraction below 0.5
    # leaves a residual above 0.5, so this verdict is every report.passed
    residual, tolerance = _worst([1.0 - r.fraction for r in reports]), 1.0 - reports[0].pass_fraction
    return CheckResult("Lyapunov decrease along trajectory", residual, tolerance, f"decrease rate {reports[0].rate:.4f}")


def _check_metrics_identity(traj: Trajectory) -> CheckResult:
    """The L2 norm of the controls, as compare takes it, equals the trapezoid of their squared pointwise norms."""
    l2 = channel_indices(traj).l2_control
    squares = np.array([float(np.linalg.norm(row)) ** 2 for row in traj.controls])
    via_pointwise = math.sqrt(float(np.trapezoid(squares, traj.times)))
    return CheckResult("pointwise/L2 norm consistency", abs(l2 - via_pointwise) / max(1e-12, l2), 1e-9)


def run_all(seed: int = 0) -> list[CheckResult]:
    """Run every check at verify's inputs; deterministic for a fixed seed.

    Each check that draws has its own stream, a child of SeedSequence(seed)
    spawned in the order below, so adding, removing or resizing a check
    moves no other check's inputs.
    """
    group, scaling, canonical, step, mu_zero = map(np.random.default_rng, np.random.SeedSequence(seed).spawn(5))
    return [
        _check_group_law(group, draws=60),
        _check_norm_scaling(scaling, hg.error_pair_dilation(0.2), _VERIFY_NORMS, draws=80),
        _check_canonical_identity(canonical, hg.error_pair_dilation(-0.2), half_width=5.0, draws=200),
        _check_step_homogeneity(step, hg.WeightedSumNorm((1.0, 1.0)), samples=40),
        _check_mu_zero_step(mu_zero, draws=300),
        _check_scaling_symmetry([(0.1, 0.5)], step=1e-3),
        _check_lyapunov_decrease([0.1]),
        _check_metrics_identity(simulate(Scenario(horizon=2.0, joints=default_six_joint_plant()))),
    ]
