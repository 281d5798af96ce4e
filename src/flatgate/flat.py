"""Flat output of the two-channel qubit dynamics dq/dt = (u1 e1 + u2 e2) q.

The output space (orbits of left multiplication by exp(phi*e1)) is realized
concretely as the unit sphere of imaginary quaternions through

    flat_point(q) = q* e1 q.

This realization is invariant under the left subgroup action, faithful, and
equivariant under group_action(g, y) = g* y g.  invert_lift() reconstructs
states and controls from a sampled lift Y(s) with analytic derivatives; the
four reconstruction branches differ by a left factor e1**n and the sign of
the second control.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridTooCoarse, NotTangent, SectionSingularity, SingularFlatCurve
from . import quat
from .quat import ImagQuaternion, Quaternion, UnitQuaternion
from .schedule import take_number

FLAT_UNIT_TOL = 1e-9
TANGENT_TOL = 1e-9
SINGULAR_Z_TOL = 1e-12
UNWRAP_MAX_JUMP = math.pi / 2


@dataclass(frozen=True)
class FlatPoint:
    """Point on the flat-output sphere: unit imaginary quaternion."""

    v: ImagQuaternion

    def __post_init__(self):
        if abs(self.v.norm() - 1.0) > FLAT_UNIT_TOL:
            raise ValueError(f"flat point must be unit, |v| = {self.v.norm()!r}")

    def as_array(self) -> np.ndarray:
        return self.v.as_array()


def flat_point(q: UnitQuaternion) -> FlatPoint:
    """Output map q -> q* e1 q.

    Two states have the same flat point iff they differ by a left factor
    exp(phi*e1).
    """
    r = quat.rotate_vector(q, quat.IM_E1)
    return FlatPoint(ImagQuaternion(r.x, r.y, r.z))


def group_action(g: UnitQuaternion, y: FlatPoint) -> FlatPoint:
    """Right-translation action on outputs: y -> g* y g.

    Satisfies group_action(g, flat_point(q)) == flat_point(q * g).
    """
    r = quat.rotate_vector(g, y.v)
    return FlatPoint(r)


def section(y: FlatPoint) -> UnitQuaternion:
    """Smooth local right inverse of flat_point around e1.

    Returns the axis-angle rotation carrying e1 to y (axis e1 x y, angle
    arccos<e1, y>), expressed as a unit quaternion Y with flat_point(Y) = y.
    No global section exists; points within angle 1e-9 of -e1 are rejected.
    """
    c = max(-1.0, min(1.0, y.v.x))
    ang = math.acos(c)
    if ang <= 1e-9:
        return quat.ONE
    if math.pi - ang <= 1e-9:
        raise SectionSingularity("section chart is singular at -e1; re-chart")
    # e1 x y in (x, y, z) components; |axis| = sin(ang)
    ax, ay, az = 0.0, -y.v.z, y.v.y
    s = math.hypot(ay, az)
    # conjugation by exp(-(ang/2) * axis) carries e1 onto y
    half = -0.5 * ang
    return quat.exp_pure(ImagQuaternion(0.0, ay / s * half, az / s * half))


def body_velocity(y: UnitQuaternion, ydot: Quaternion) -> ImagQuaternion:
    """The body velocity ydot * y*, whose components (x, y, z) are the rates
    (w1, w2, w3) about e1, e2, e3; ydot must be tangent at y."""
    v = quat.mul(ydot, quat.conj(y))
    if abs(v.w) > TANGENT_TOL:
        raise NotTangent(f"Re(ydot y*) = {v.w!r} exceeds {TANGENT_TOL}")
    return v.imag()


def unwrap_phase(zs, theta0: float) -> np.ndarray:
    """Continuous argument along a sampled complex path.

    Starts at theta0 (which must agree with arg(zs[0]) modulo 2*pi) and
    accumulates wrapped increments.  Raises SingularFlatCurve when a sample
    sits at the origin and GridTooCoarse when successive arguments jump by
    pi/2 or more.
    """
    z = np.asarray(zs, dtype=complex)
    mags = np.abs(z)
    if np.any(mags <= SINGULAR_Z_TOL):
        i = int(np.argmax(mags <= SINGULAR_Z_TOL))
        raise SingularFlatCurve(f"|z| = {mags[i]!r} at sample {i}")
    raw = np.angle(z)
    start_err = abs(_wrap_pi(raw[0] - theta0))
    if start_err > 1e-9:
        raise ValueError(f"theta0 off arg(z[0]) by {start_err!r} (mod 2 pi)")
    d = _wrap_pi(np.diff(raw))
    if d.size and np.max(np.abs(d)) >= UNWRAP_MAX_JUMP:
        i = int(np.argmax(np.abs(d) >= UNWRAP_MAX_JUMP))
        raise GridTooCoarse(f"phase jump {d[i]!r} between samples {i} and {i + 1}")
    return np.concatenate(([theta0], np.cumsum(d) + theta0))


def _wrap_pi(x):
    """Wrap to (-pi, pi]."""
    return x - 2.0 * np.pi * np.ceil((x - np.pi) / (2.0 * np.pi))


@dataclass(frozen=True)
class LiftSamplePath:
    """Sampled lift Y(s) with analytic first and second derivatives.

    s is a uniform, strictly increasing grid in [0, 1]; rows of y are unit
    quaternions and yd must be tangent (Re(yd y*) = 0 within 1e-9).  Every
    value is read by take_number and must be finite, else ValueError.
    Derivatives come in closed form from the caller; this module never
    differentiates numerically.
    """

    s: np.ndarray
    y: np.ndarray
    yd: np.ndarray
    ydd: np.ndarray

    def __post_init__(self):
        # new arrays, so that the caller's cannot change a frozen path
        s, y, yd, ydd = (np.asarray(take_number(getattr(self, name), name, ndim=ndim))
                         for name, ndim in (("s", 1), ("y", 2), ("yd", 2), ("ydd", 2)))
        m = s.shape[0] if s.ndim == 1 else 0
        if m < 2 or y.shape != (m, 4) or yd.shape != (m, 4) or ydd.shape != (m, 4):
            raise ValueError("inconsistent path shapes")
        # a NaN passes every comparison below
        if not all(np.isfinite(a).all() for a in (s, y, yd, ydd)):
            raise ValueError("path values must be finite")
        ds = np.diff(s)
        if np.any(ds <= 0.0):
            raise ValueError("grid must be strictly increasing")
        if s[0] < -1e-12 or s[-1] > 1.0 + 1e-12 or np.max(np.abs(ds - ds[0])) > 1e-9:
            raise ValueError("grid must be uniform in [0, 1]")
        norms = np.linalg.norm(y, axis=1)
        if np.max(np.abs(norms - 1.0)) > FLAT_UNIT_TOL:
            raise ValueError("lift samples must be unit quaternions")
        radial = np.einsum("ij,ij->i", yd, y)
        if np.max(np.abs(radial)) > TANGENT_TOL:
            raise NotTangent("yd is not tangent to the unit sphere")
        for name, a in (("s", s), ("y", y), ("yd", yd), ("ydd", ydd)):
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    @property
    def ds(self) -> float:
        return float(self.s[1] - self.s[0])


def lift_controls(w1, w2, w3, w2d, w3d):
    """Branch-0 controls (u1, u2) from the lift's body rates and the
    derivatives of w2, w3: u2 = |z| and u1 = w1 + theta'/2, with theta the
    continuous argument of z = w2 - i*w3.  Requires z != 0."""
    mag2 = w2 * w2 + w3 * w3
    return w1 + (w3 * w2d - w2 * w3d) / (2.0 * mag2), np.sqrt(mag2)


@dataclass(frozen=True)
class LiftInversion:
    """States and controls reconstructed from a lift along one branch."""

    branch: int
    s: np.ndarray
    states: np.ndarray       # (m, 4) unit rows
    u1: np.ndarray
    u2: np.ndarray
    theta: np.ndarray


def invert_lift(path: LiftSamplePath, branch: int) -> LiftInversion:
    """Recover state and controls from a lift, branch in {0, 1, 2, 3}.

    q = e1**branch * exp((theta/2) e1) * Y with theta the continuous
    argument of z = w2 - i*w3 (principal value at s[0]); u1 carries the
    phase-rate correction and u2 = (-1)**branch * |z|.  Requires z != 0
    everywhere on the grid.
    """
    branch = take_number(branch, "branch", int)
    if branch not in (0, 1, 2, 3):
        raise ValueError(f"branch must be in 0..3, got {branch!r}")
    yc = quat.qconj_arr(path.y)
    v = quat.qmul_arr(path.yd, yc)         # Re(Y' Y*) = 0: LiftSamplePath checks it
    w1, w2, w3 = v[:, 1], v[:, 2], v[:, 3]
    # (Y' Y*)' = Y'' Y* + Y' (Y')*
    vd = quat.qmul_arr(path.ydd, yc) + quat.qmul_arr(path.yd, quat.qconj_arr(path.yd))
    w2d, w3d = vd[:, 2], vd[:, 3]

    z = w2 - 1j * w3
    theta = unwrap_phase(z, math.atan2(-w3[0], w2[0]))

    half = 0.5 * theta
    k = np.zeros_like(path.y)
    k[:, 0] = np.cos(half)
    k[:, 1] = np.sin(half)
    states = quat.qmul_arr(k, path.y)
    if branch % 2 == 1:
        states = quat.qmul_arr(np.array([0.0, 1.0, 0.0, 0.0]), states)
    if branch >= 2:
        states = -states

    u1, u2 = lift_controls(w1, w2, w3, w2d, w3d)
    return LiftInversion(branch, path.s, states, u1, ((-1.0) ** branch) * u2, theta)
