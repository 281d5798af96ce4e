"""Exception types shared across the package."""


class FlatGateError(Exception):
    """Base class for domain errors. The CLI maps these to exit code 1."""


class NotSpecialUnitary(FlatGateError):
    """Matrix is not special unitary within tolerance."""


class SectionSingularity(FlatGateError):
    """Requested a local section at the antipodal point of its chart."""


class NotTangent(FlatGateError):
    """Supplied derivative is not tangent to the unit-quaternion sphere."""


class SingularFlatCurve(FlatGateError):
    """The flat-output curve has a stationary point (z = 0); inversion is void there."""


class GridTooCoarse(FlatGateError):
    """Successive phase samples jump too far for reliable unwrapping."""


class IdentityTarget(FlatGateError):
    """The identity gate is excluded from planning; skip the pulse instead."""


class MonotonicityViolation(FlatGateError):
    """alpha(s) is not strictly increasing on (0, 1); upstream data is invalid."""


class WindingNonzero(FlatGateError):
    """The planned z(s) loop winds around the origin; the plan is invalid."""


class StepTooLarge(FlatGateError):
    """Integrator step exceeds the schedule sample spacing."""


class InvalidPropagationInput(FlatGateError, ValueError):
    """Propagator input is out of its domain: an empty batch or detuning
    list, mismatched grids, a bad step, a non-finite detuning or controls
    so large that the steps overflow."""
