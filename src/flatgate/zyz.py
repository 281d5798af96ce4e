"""Classical three-pulse baseline: factor the target into sequential
axis rotations exp(c e1) exp(b e2) exp(a e1) and play them as three
equal-duration constant pulses.

This is the comparison oracle for the smooth single-pulse planner.  The
constant segments make exact propagation a product of three exponentials;
they also mean the baseline violates u(0) = u(T) = 0 by design.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from . import quat
from .quat import ImagQuaternion, UnitQuaternion
from .schedule import INTERP_PCONST, PulseSchedule, check_duration

GIMBAL_TOL = 1e-9


@dataclass(frozen=True)
class EulerE1E2E1:
    """Angles with target = exp(c e1) * exp(b e2) * exp(a e1), b in [0, pi].

    The first pulse applied is a (the dynamics multiplies on the left, so
    the rightmost factor acts first).
    """

    a: float
    b: float
    c: float

    def reconstruct(self) -> UnitQuaternion:
        out = quat.mul(quat.exp_pure(ImagQuaternion(self.c, 0.0, 0.0)),
                       quat.exp_pure(ImagQuaternion(0.0, self.b, 0.0)))
        return quat.mul(out, quat.exp_pure(ImagQuaternion(self.a, 0.0, 0.0)))


def euler_decompose(qbar: UnitQuaternion) -> EulerE1E2E1:
    """Factor any unit quaternion as exp(c e1) exp(b e2) exp(a e1).

    With p = a + c and m = c - a the components read
    (w, x, y, z) = (cos b cos p, cos b sin p, sin b cos m, sin b sin m).
    The sign of cos b follows the sign of w, so the identity maps to
    (0, 0, 0) and -1 maps to (0, pi, 0).  Wherever one of p, m is free
    (sin b = 0 or cos b = 0) the convention a := 0 resolves it.
    """
    sin_b = math.hypot(qbar.y, qbar.z)
    rho = math.hypot(qbar.w, qbar.x)
    sgn = 1.0 if qbar.w >= 0.0 else -1.0
    b = math.atan2(sin_b, sgn * rho)
    if sin_b <= GIMBAL_TOL:
        # b ~ 0: target = exp(p e1); b ~ pi: target = -exp(p e1)
        return EulerE1E2E1(0.0, b, math.atan2(sgn * qbar.x, sgn * qbar.w) + 0.0)
    if rho <= GIMBAL_TOL:
        # cos b ~ 0: a + c is free
        return EulerE1E2E1(0.0, b, math.atan2(qbar.z, qbar.y))
    p = math.atan2(sgn * qbar.x, sgn * qbar.w)
    m = math.atan2(qbar.z, qbar.y)
    return EulerE1E2E1(0.5 * (p - m) + 0.0, b, 0.5 * (p + m) + 0.0)


def zyz_schedule(angles: EulerE1E2E1, big_t: float) -> PulseSchedule:
    """Three equal thirds of [0, T]: pulse areas a (on e1), b (on e2),
    c (on e1), at constant amplitudes 3*angle/T.  Zero angles give zero
    segments."""
    big_t = check_duration(big_t)
    amp = 3.0 / big_t
    return PulseSchedule(big_t, [amp * angles.a, 0.0, amp * angles.c, amp * angles.c],
                         [0.0, amp * angles.b, 0.0, 0.0], target=angles.reconstruct(),
                         interpolation=INTERP_PCONST)
