"""Quaternion algebra and the SU(2) bridge.

All quaternions are scalar-first: q = w + x*e1 + y*e2 + z*e3 with
e1*e2 = e3, e2*e3 = e1, e3*e1 = e2 and e_k**2 = -1.  Unit quaternions are
identified with SU(2) through e_k = -i*sigma_k, which makes the map
q -> U one-to-one (no sign ambiguity).

The array kernels read a quaternion as the complex pair
(A, B) = (w + i z, x + i y), q = A + B e1, with e3 as the imaginary unit;
then to_su2 gives U = [[conj(A), -i conj(B)], [-i B, A]], unit pairs are
SU(2), and the complex amplitude u1 + i u2 of a drive is the B part of its
generator u1 e1 + u2 e2 + delta_r e3.  pmul is the one Hamilton product
and pexp the one exponential, of a pure generator given as its pair
(i delta_r, v); qmul_arr applies pmul to (w, x, y, z) rows, and the scalar
mul and exp_pure are pmul and pexp on one row.

Sign convention for conjugation rotations: rotate_vector(q, v) = q* v q,
so rotate_vector(exp_pure((pi/4) e3), e1) = -e2 (a rotation by -pi/2
about e3 when read as an ordinary 3-vector rotation).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotSpecialUnitary

UNIT_RENORM_TOL = 1e-6    # larger deviations are rejected, not hidden
SMALL_ANGLE = 1e-8        # series switch in pexp
SU2_TOL = 1e-9


@dataclass(frozen=True)
class Quaternion:
    """General quaternion, scalar-first (w, x, y, z)."""

    w: float
    x: float
    y: float
    z: float

    def __post_init__(self):
        object.__setattr__(self, "w", float(self.w))
        object.__setattr__(self, "x", float(self.x))
        object.__setattr__(self, "y", float(self.y))
        object.__setattr__(self, "z", float(self.z))

    def norm(self) -> float:
        return math.sqrt(self.w * self.w + self.x * self.x
                         + self.y * self.y + self.z * self.z)

    def imag(self) -> "ImagQuaternion":
        return ImagQuaternion(self.x, self.y, self.z)

    def as_array(self) -> np.ndarray:
        return np.array([self.w, self.x, self.y, self.z])

    def __neg__(self):
        return type(self)(-self.w, -self.x, -self.y, -self.z)


@dataclass(frozen=True)
class UnitQuaternion(Quaternion):
    """Quaternion with q q* = 1; renormalized on construction.

    Norm deviations below 1e-6 are silently renormalized; anything larger
    is rejected so that integrator bugs stay visible.
    """

    def __post_init__(self):
        super().__post_init__()
        n = self.norm()
        if not abs(n - 1.0) < UNIT_RENORM_TOL:     # also rejects a NaN norm
            raise ValueError(f"not a unit quaternion: |q| = {n!r}")
        if n != 1.0:
            object.__setattr__(self, "w", self.w / n)
            object.__setattr__(self, "x", self.x / n)
            object.__setattr__(self, "y", self.y / n)
            object.__setattr__(self, "z", self.z / n)


@dataclass(frozen=True)
class ImagQuaternion:
    """Pure imaginary quaternion x*e1 + y*e2 + z*e3 (scalar part zero)."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        object.__setattr__(self, "x", float(self.x))
        object.__setattr__(self, "y", float(self.y))
        object.__setattr__(self, "z", float(self.z))

    def norm(self) -> float:
        return math.hypot(self.x, self.y, self.z)

    def as_quaternion(self) -> Quaternion:
        return Quaternion(0.0, self.x, self.y, self.z)

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])

    def __neg__(self):
        return ImagQuaternion(-self.x, -self.y, -self.z)


ONE = UnitQuaternion(1.0, 0.0, 0.0, 0.0)
E1 = UnitQuaternion(0.0, 1.0, 0.0, 0.0)
E2 = UnitQuaternion(0.0, 0.0, 1.0, 0.0)
E3 = UnitQuaternion(0.0, 0.0, 0.0, 1.0)
IM_E1 = ImagQuaternion(1.0, 0.0, 0.0)


def mul(a: Quaternion, b: Quaternion) -> Quaternion:
    """Hamilton product a*b, pmul on one row.  Unit inputs give a unit
    result; an overflowing product has inf components, without a warning."""
    with np.errstate(all="ignore"):
        (pa,), (pb,) = pmul(np.array([complex(a.w, a.z)]), np.array([complex(a.x, a.y)]),
                            np.array([complex(b.w, b.z)]), np.array([complex(b.x, b.y)]))
    if isinstance(a, UnitQuaternion) and isinstance(b, UnitQuaternion):
        return UnitQuaternion(pa.real, pb.real, pb.imag, pa.imag)
    return Quaternion(pa.real, pb.real, pb.imag, pa.imag)


def conj(q: Quaternion) -> Quaternion:
    """Quaternion conjugate q* (negates the imaginary part)."""
    return type(q)(q.w, -q.x, -q.y, -q.z)


def exp_pure(v: ImagQuaternion) -> UnitQuaternion:
    """exp(v) = cos|v| + (v/|v|) sin|v| for pure imaginary v, pexp on one
    row; a non-finite v raises ValueError, as its result is not unit."""
    with np.errstate(all="ignore"):
        (a,), (b,) = pexp(np.array([complex(0.0, v.z)]), np.array([complex(v.x, v.y)]))
    return UnitQuaternion(a.real, b.real, b.imag, a.imag)


def rotate_vector(q: UnitQuaternion, v: ImagQuaternion) -> ImagQuaternion:
    """Conjugation q* v q; preserves |v|. See the module note on its sign."""
    r = mul(mul(conj(q), v.as_quaternion()), q)
    return ImagQuaternion(r.x, r.y, r.z)


@dataclass(frozen=True)
class SU2Matrix:
    """2x2 complex matrix, unitary with determinant 1."""

    m: np.ndarray

    def __post_init__(self):
        m = np.array(self.m, dtype=complex)
        if m.shape != (2, 2):
            raise ValueError("SU2Matrix needs a 2x2 matrix")
        # unitary entries have modulus at most 1, so bounding them first
        # keeps the products below finite; NaN fails every test
        if not (np.max(np.abs(m)) <= 1.0 + SU2_TOL
                and np.max(np.abs(m.conj().T @ m - np.eye(2))) <= SU2_TOL):
            raise NotSpecialUnitary("matrix is not unitary")
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        if not abs(det - 1.0) <= SU2_TOL:
            raise NotSpecialUnitary(f"determinant is {det}, not 1")
        m.flags.writeable = False
        object.__setattr__(self, "m", m)


def to_su2(q: UnitQuaternion) -> SU2Matrix:
    """U = w - x*i*sigma1 - y*i*sigma2 - z*i*sigma3."""
    return SU2Matrix(np.array([
        [q.w - 1j * q.z, -q.y - 1j * q.x],
        [q.y - 1j * q.x, q.w + 1j * q.z],
    ]))


def from_su2(u: SU2Matrix) -> UnitQuaternion:
    """Inverse of to_su2; exact on its image (no sign flip)."""
    m = u.m
    return UnitQuaternion(m[0, 0].real, -m[0, 1].imag,
                          -m[0, 1].real, -m[0, 0].imag)


# Array kernels for vectorized paths.  Rows are scalar-first (w, x, y, z),
# pairs (A, B) as in the module note; since e1 c = conj(c) e1 for every
# c = a + b e3, the Hamilton product of pairs is complex arithmetic.

def pmul(a1: np.ndarray, b1: np.ndarray, a2: np.ndarray,
         b2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Product of the pairs (a1, b1) and (a2, b2), the Hamilton product of
    a1 + b1 e1 and a2 + b2 e1: (a1 a2 - b1 conj(b2), a1 b2 + b1 conj(a2)).

    A complex product rounds differently with its factors swapped, and numpy
    reuses a large temporary right operand as the output by swapping the
    factors; each temporary is therefore the left factor, so every result
    is the same bits at any array size."""
    return a1 * a2 - b2.conj() * b1, a1 * b2 + a2.conj() * b1


def pexp(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """exp of the pure generators (a, b) = (i z, x + i y): (cos phi + a s, b s)
    with phi = |(x, y, z)| and s = sin(phi)/phi, or its series 1 - phi^2/6
    below SMALL_ANGLE, far below the series error, to avoid 0/0.  Callers set
    numpy's error state: phi^2 overflows past ~1e154, and phi = inf gives NaN."""
    phi = np.hypot(np.abs(b), a.imag)
    s = 1.0 - phi * phi / 6.0
    np.divide(np.sin(phi), phi, out=s, where=phi >= SMALL_ANGLE)
    return np.cos(phi) + a * s, b * s


def row_pair(q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pairs (A, B) = (w + i z, x + i y) of (..., 4) rows."""
    p = np.ascontiguousarray(np.asarray(q, dtype=float)[..., [0, 3, 1, 2]]).view(complex)
    return p[..., 0], p[..., 1]


def pair_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(..., 4) rows (w, x, y, z) of the pairs (a, b) = (w + i z, x + i y)."""
    out = np.empty(np.broadcast_shapes(np.shape(a), np.shape(b)) + (4,))
    out[..., 0], out[..., 3] = np.real(a), np.imag(a)
    out[..., 1], out[..., 2] = np.real(b), np.imag(b)
    return out


def qmul_arr(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product on (..., 4) arrays, through the pair product."""
    return pair_rows(*pmul(*row_pair(a), *row_pair(b)))


def qconj_arr(a: np.ndarray) -> np.ndarray:
    """Conjugate on (..., 4) arrays."""
    out = a.copy()
    out[..., 1:] = -out[..., 1:]
    return out


def random_unit(rng: np.random.Generator, n: int | None = None) -> np.ndarray:
    """Uniform random unit quaternions, shape (4,) or (n, 4)."""
    v = rng.normal(size=4 if n is None else (n, 4))
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def as_unit(row) -> UnitQuaternion:
    """Build a UnitQuaternion from a length-4 array row."""
    return UnitQuaternion(row[0], row[1], row[2], row[3])
