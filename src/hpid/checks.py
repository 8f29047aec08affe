"""Runtime verification suite behind the `verify` subcommand.

Each check exercises one library invariant on randomized but seeded inputs
and reports the measured residual against its tolerance.  The suite is the
same set of properties the test suite pins down, packaged so a deployment
can re-verify the numerics in seconds.

`break_norm=True` swaps a deliberately non-homogeneous norm into the
scaling check; it exists as a negative control so the suite can be shown to
actually fail when an invariant is violated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import homogeneity as hg
from .control import GainSet, HpidState, hpid_step, pid_step
from .metrics import l2_norm, pointwise_norm
from .plant import make_closed_loop_field
from .sim import Scenario, scaling_symmetry_run, simulate
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


_SAMPLE_DILATIONS = (
    hg.standard_dilation(2),
    hg.error_pair_dilation(0.2),
    hg.error_pair_dilation(-0.3),
    hg.extended_state_dilation(0.1),
    hg.Dilation((0.5, 1.0, 2.0)),
)


def _check_group_law(rng: np.random.Generator) -> CheckResult:
    worst = 0.0
    for dil in _SAMPLE_DILATIONS:
        for _ in range(60):
            s, t = rng.uniform(-5, 5, size=2)
            x = rng.uniform(-10, 10, size=dil.n)
            once = hg.dilation_apply(dil, s + t, x)
            twice = hg.dilation_apply(dil, s, hg.dilation_apply(dil, t, x))
            scale = 1.0 + max(float(np.linalg.norm(x)), float(np.linalg.norm(once)))
            worst = max(worst, float(np.linalg.norm(twice - once)) / scale)
    return CheckResult("dilation group law", worst, 1e-10)


def _norm_variants(mu: float):
    dil = hg.error_pair_dilation(mu)
    yield hg.WeightedSumNorm((1.0, 2.0)), dil
    yield hg.CanonicalNorm(hg.SymMatrix([[2.0, 0.3], [0.3, 1.0]])), dil
    yield hg.ExperimentalNorm(1.5, 0.7, mu), dil


def _check_norm_scaling(rng: np.random.Generator, break_norm: bool = False) -> CheckResult:
    worst = 0.0
    mu = 0.2
    for spec, dil in _norm_variants(mu):
        norm = hg.norm_evaluator(spec, dil)
        for _ in range(80):
            s = rng.uniform(-5, 5)
            x = rng.uniform(-10, 10, size=2)
            base = norm(*x.tolist())
            scaled = norm(*hg.dilation_apply(dil, s, x).tolist())
            if break_norm:
                scaled += 0.01 * abs(x[0])  # wrong weight: destroys e^s scaling
            err = abs(scaled - math.exp(s) * base) / (math.exp(s) * (1.0 + base))
            worst = max(worst, err)
    return CheckResult("homogeneous norm scaling", worst, 1e-9)


def _check_canonical_identity(rng: np.random.Generator) -> CheckResult:
    spec = hg.CanonicalNorm(hg.SymMatrix([[2.0, 0.3], [0.3, 1.0]]))
    dil = hg.error_pair_dilation(-0.2)
    norm = hg.norm_evaluator(spec, dil)
    worst = 0.0
    for _ in range(200):
        x = rng.uniform(-5, 5, size=2)
        if np.linalg.norm(x) < 1e-6:
            continue
        lam = norm(*x)
        z = hg.dilation_apply(dil, -math.log(lam), x)
        worst = max(worst, abs(math.sqrt(z @ spec.P.entries @ z) - 1.0))
    return CheckResult("canonical norm defining identity", worst, 1e-10)


def _check_gradient(rng: np.random.Generator) -> CheckResult:
    spec = hg.CanonicalNorm(hg.SymMatrix([[1.5, 0.2], [0.2, 0.9]]))
    dil = hg.error_pair_dilation(0.15)
    norm = hg.norm_evaluator(spec, dil)
    worst = 0.0
    for _ in range(100):
        x = rng.uniform(-4, 4, size=2)
        nx = float(np.linalg.norm(x))
        if nx < 1e-3:
            continue
        grad = hg.canonical_norm_gradient(spec, dil, x)
        step = 1e-6 * nx
        fd = np.zeros(2)
        for k in range(2):
            e = np.zeros(2)
            e[k] = step
            fd[k] = (norm(*(x + e)) - norm(*(x - e))) / (2 * step)
        worst = max(worst, float(np.abs(grad - fd).max()) / max(1e-12, float(np.abs(grad).max())))
    return CheckResult("canonical norm gradient vs finite differences", worst, 1e-5)


def _check_field_homogeneity(rng: np.random.Generator) -> CheckResult:
    worst = 0.0
    for mu in (-0.2, -0.1, 0.0, 0.1, 0.2):
        fld = make_closed_loop_field(_GAINS, mu, hg.WeightedSumNorm((1.0, 1.0)))
        dil = hg.extended_state_dilation(mu)
        samples = []
        while len(samples) < 40:
            s = rng.uniform(-5, 5)
            x = rng.uniform(-2, 2, size=3)
            if math.hypot(x[0], x[1]) < 1e-8:
                continue
            samples.append((s, x))
        report = hg.verify_field_homogeneity(fld, dil, mu, samples)
        worst = max(worst, report.max_residual)
    return CheckResult("closed-loop field homogeneity", worst, 1e-9)


def _check_mu_zero_equivalence(rng: np.random.Generator) -> CheckResult:
    worst = 0.0
    for _ in range(300):
        gains = GainSet(*rng.uniform(-5, 5, size=3))
        eps, deps = rng.uniform(-5, 5, size=2)
        acc = rng.uniform(-2, 2)
        dt = rng.uniform(1e-4, 1e-1)
        u_lin, _ = pid_step(gains, acc, eps, deps, dt)
        state = HpidState(gains, 0.0, integral_acc=acc)
        u_hom, _ = hpid_step(state, eps, deps, dt)
        worst = max(worst, abs(u_hom - u_lin) / (1.0 + abs(u_lin)))
    return CheckResult("hPID reduces to PID at mu = 0", worst, 1e-12)


def _check_scaling_symmetry() -> CheckResult:
    scn = Scenario(controller="hpid", mu=0.1, horizon=3.0, step=1e-3, name="verify-scaling")
    report = scaling_symmetry_run(scn, 0.5)
    detail = f"{report.n_compared} samples" + (", truncated" if report.truncated else "")
    return CheckResult("solution scaling symmetry", report.sup_discrepancy, 1e-4, detail)


def _check_lyapunov_decrease() -> CheckResult:
    cert = certify(_GAINS)
    scn = Scenario(controller="hpid", mu=0.1, horizon=9.0, step=1e-3, name="verify-decrease")
    report = lyapunov_decrease_check(simulate(scn), cert, 0.1)
    # 1 - f is exact for f in [0.5, 1] (Sterbenz), and a fraction below 0.5
    # leaves a residual above 0.5, so this verdict is report.passed
    residual, tolerance = 1.0 - report.fraction, 1.0 - report.pass_fraction
    return CheckResult("Lyapunov decrease along trajectory", residual, tolerance, f"decrease rate {report.rate:.4f}")


def _check_metrics_identity() -> CheckResult:
    scn = Scenario(horizon=2.0, step=1e-3, name="verify-metrics")
    traj = simulate(scn)
    l2 = l2_norm(traj, "control")
    squares = np.array([pointwise_norm(traj, "control", i) ** 2 for i in range(len(traj.times))])
    via_pointwise = math.sqrt(float(np.trapezoid(squares, traj.times)))
    err = abs(l2 - via_pointwise) / max(1e-12, l2)
    return CheckResult("pointwise/L2 norm consistency", err, 1e-9)


def run_all(seed: int = 0, break_norm: bool = False) -> list[CheckResult]:
    """Run every verification check; deterministic for a fixed seed."""
    rng = np.random.default_rng(seed)
    return [
        _check_group_law(rng),
        _check_norm_scaling(rng, break_norm=break_norm),
        _check_canonical_identity(rng),
        _check_gradient(rng),
        _check_field_homogeneity(rng),
        _check_mu_zero_equivalence(rng),
        _check_scaling_symmetry(),
        _check_lyapunov_decrease(),
        _check_metrics_identity(),
    ]
