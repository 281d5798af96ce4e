"""flatgate: smooth single-pulse qubit gate synthesis on SU(2).

Plans one smooth control pulse steering dq/dt = (u1 e1 + u2 e2) q from the
identity to an arbitrary target gate, verifies it by Runge-Kutta
propagation, and compares it against the classical three-pulse baseline.
"""
from .errors import (
    FlatGateError,
    GridTooCoarse,
    IdentityTarget,
    InvalidPropagationInput,
    MonotonicityViolation,
    NotSpecialUnitary,
    NotTangent,
    SectionSingularity,
    SingularFlatCurve,
    StepTooLarge,
    WindingNonzero,
)
from .quat import (
    ImagQuaternion,
    Quaternion,
    SU2Matrix,
    UnitQuaternion,
    conj,
    exp_pure,
    from_su2,
    mul,
    rotate_vector,
    to_su2,
)
from .flat import (
    FlatPoint,
    LiftInversion,
    LiftSamplePath,
    body_velocity,
    flat_point,
    group_action,
    invert_lift,
    section,
    unwrap_phase,
)
from .planner import (
    CubicPair,
    Plan,
    PulseSchedule,
    TargetDecomposition,
    boundary_data,
    check_alpha_monotone,
    decompose_target,
    hermite_cubic,
    rotate_controls,
    smoothstep,
    synthesize,
)
from .propagator import (
    DetuningSweep,
    PropagationResult,
    detuning_sweep,
    fidelity,
    propagate,
    propagate_piecewise_exact,
)
from .zyz import EulerE1E2E1, euler_decompose, zyz_schedule

__version__ = "0.1.0"
