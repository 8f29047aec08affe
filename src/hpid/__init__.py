"""Homogeneous PID control toolkit.

Dilation-group algebra and homogeneous norms, the homogeneous PID law and
its discrete step, the disturbed double-integrator and decentralized joint
plants, Lyapunov stability certificates for the homogeneous upgrade of a
linear PID, a deterministic RK4 simulation harness, and the performance
indices used to compare the two controllers.
"""

from .control import GainSet, HpidState, hpid_law, hpid_step, reset
from .homogeneity import (
    BracketError,
    CanonicalNorm,
    Dilation,
    ExperimentalNorm,
    HomNormSpec,
    SymMatrix,
    WeightedSumNorm,
    canonical_norm_gradient,
    check_strict_monotonicity,
    dilation_apply,
    error_pair_dilation,
    extended_state_dilation,
    norm_evaluator,
    standard_dilation,
    verify_field_homogeneity,
)
from .metrics import MetricsReport, compare, iavc, itae, ivc, l2_norm, pointwise_norm
from .plant import (
    DisturbanceSpec,
    JointConfig,
    JointPlantConfig,
    ReferenceSpec,
    default_six_joint_plant,
    make_closed_loop_field,
    reference_eval,
)
from .sim import DivergenceError, Scenario, Trajectory, rk4_step, scaling_symmetry_run, simulate
from .stability import (
    InfeasibleGainsError,
    StabilityCertificate,
    certify,
    convergence_classifier,
    lyapunov_decrease_check,
    solve_lyapunov,
    solve_lyapunov_matrix,
)

__version__ = "0.1.0"
