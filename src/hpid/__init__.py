"""Homogeneous PID control toolkit.

Dilation-group algebra and homogeneous norms, the homogeneous PID law, the
disturbed double-integrator and decentralized joint plants, Lyapunov
stability certificates for the homogeneous upgrade of a linear PID, a
deterministic RK4 simulation harness, and the performance indices used to
compare the two controllers.
"""

from .control import GainSet, hpid_law
from .homogeneity import (
    BracketError,
    CanonicalNorm,
    Dilation,
    HomNormSpec,
    SymMatrix,
    WeightedSumNorm,
    check_strict_monotonicity,
    dilation_apply,
    error_pair_dilation,
    extended_state_dilation,
    norm_evaluator,
)
from .metrics import MetricsReport, channel_indices, compare
from .plant import (
    DisturbanceSpec,
    JointConfig,
    ReferenceSpec,
    default_six_joint_plant,
    reference_eval,
)
from .sim import DivergenceError, Scenario, Trajectory, dilate, rk4_block, scaling_symmetry_run, simulate
from .stability import (
    CertificateError,
    InfeasibleGainsError,
    StabilityCertificate,
    certify,
    lyapunov_decrease_check,
    solve_lyapunov,
)

__version__ = "0.1.0"
