"""Negative controls for the checks of `hpid verify`.

Each kernel fault is written into the source of `sim.rk4_block`, and the
faulty kernel takes the real one's place where the checks call it, at
verify's sample counts.  The metrics fault replaces `channel_indices`
where the consistency line calls it, on the run `run_all` gives that line.
"""

import inspect
import math
from dataclasses import replace

import numpy as np
import pytest

from hpid import checks, metrics, sim
from hpid.homogeneity import WeightedSumNorm


def _kernel_checks(monkeypatch, old: str, new: str) -> tuple[checks.CheckResult, checks.CheckResult]:
    source = inspect.getsource(sim.rk4_block)
    assert source.count(old) == 1
    namespace = dict(vars(sim))
    exec(source.replace(old, new), namespace)
    monkeypatch.setattr(checks, "rk4_block", namespace["rk4_block"])
    rng = np.random.default_rng(0)
    return (
        checks._check_step_homogeneity(rng, WeightedSumNorm((1.0, 1.0)), samples=40),
        checks._check_mu_zero_step(rng, draws=300),
    )


@pytest.mark.parametrize(
    "old,new",
    [
        ("pd + z - dist(ti)", "pd - z - dist(ti)"),
        ("pd + z3", "pd + z2"),
        # the undisturbed homogeneity line cannot see it; the forced mu = 0 line can
        ("pd + z2 - dm", "pd + z2 - dist(ti)"),
    ],
    ids=["stage-1-flips-z", "stage-3-reads-z2", "stage-2-reads-dist-t"],
)
def test_homogeneous_fault_fails_the_mu_zero_line(monkeypatch, old, new):
    homogeneity, mu_zero = _kernel_checks(monkeypatch, old, new)
    assert homogeneity.passed  # the faulty field keeps its degree: only the linear oracle sees it
    assert not mu_zero.passed


def test_inhomogeneous_fault_fails_the_step_homogeneity_line(monkeypatch):
    homogeneity, _ = _kernel_checks(monkeypatch, "de + hh * f1", "de + hh * g1")
    assert not homogeneity.passed


def test_nan_residual_after_a_finite_one_fails():
    # a running max(worst, r) would return the finite residual and pass
    assert not checks.CheckResult("nan", checks._worst([0.0, math.nan]), 1e-9).passed


def test_wrong_channel_sum_fails_the_consistency_line(monkeypatch):
    # (sum_j |u_j|)^2 for sum_j u_j^2 agrees with the pointwise norm on a
    # one-channel run; verify's line must run where the channels can disagree
    def l1_squared_channel_indices(traj):
        energy = float(np.trapezoid(np.abs(traj.controls).sum(axis=1) ** 2, traj.times))
        return replace(metrics.channel_indices(traj), control_energy=(energy,))

    monkeypatch.setattr(checks, "channel_indices", l1_squared_channel_indices)
    # the other checks are stubbed out, so run_all makes only this line's run
    for name in vars(checks).copy():
        if name.startswith("_check_") and name != "_check_metrics_identity":
            monkeypatch.setattr(checks, name, lambda *args, **kwargs: None)
    [consistency] = [result for result in checks.run_all(0) if result is not None]
    assert consistency.name == "pointwise/L2 norm consistency"
    assert not consistency.passed, consistency.line()


def test_each_check_draws_from_its_own_stream(monkeypatch):
    # a check that draws more moves no other check's inputs
    for name in ("_check_scaling_symmetry", "_check_lyapunov_decrease", "_check_metrics_identity"):
        monkeypatch.setattr(checks, name, lambda *args, **kwargs: None)
    before = checks.run_all(0)
    group_law = checks._check_group_law
    monkeypatch.setattr(checks, "_check_group_law", lambda rng, draws: group_law(rng, draws=2 * draws))
    after = checks.run_all(0)
    assert [r.residual for r in after[1:5]] == [r.residual for r in before[1:5]]
