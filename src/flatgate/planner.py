"""Single-pulse planner: steer the qubit from the identity to an arbitrary
target gate with one smooth control pulse.

Pipeline, all in closed form:

1. decompose_target      target angles (eta_bar, alpha_bar, beta_bar,
                         lambda_bar); the eta_bar rotation removes the e1
                         component, the lambda_bar offset keeps
                         sin(alpha)cos(alpha) away from zero at the ends.
2. hermite cubics        alpha(s), beta(s) of degree <= 3 matching eight
                         endpoint conditions exactly.
3. check_alpha_monotone  analytic proof obligation alpha' > 0 on (0, 1)
                         plus its closed-form minimum on a fixed open grid.
4. check_winding         terminal phase theta(1) of z(s) = w2 - i*w3 (below)
                         from its end values; plan_controls returns the
                         checked Plan, whose controls(s) are rotated back by
                         eta_bar.
5. sample_plan           s = smoothstep(t) with vanishing endpoint
                         derivatives; the controls at s, scaled by ds/dt,
                         vanish at 0 and T and are written as a "cubic"
                         schedule with min |z| over the sampled s.  The
                         clock depends only on (T, n, k) and is kept as the
                         powers 1, x, x^2, x^3 of x = s - 1/2 and ds/dt:
                         the last CLOCK_CACHE_SIZE clocks of at most
                         CLOCK_CACHE_MAX_N intervals are kept as read-only
                         arrays and shared by every target.  Plan.controls
                         takes alpha, alpha', alpha''/2, beta'/2 and
                         beta''/4 from one matrix product (np.dot) of the
                         target's 5 x 4 coefficient table with those
                         powers, and sin(2 alpha), cos(2 alpha) from one
                         t = tan(alpha) as 2t / (1 + t^2) and (1 - t^2) /
                         (1 + t^2), np.tan costing a fraction of np.sin
                         and np.cos together.  It writes u1 and u2 into one
                         (2, n + 1) array, which sample_plan scales by
                         ds/dt in place and hands to the schedule, which
                         copies its rows.

Step 4 in closed form.  The lift Y = cos(alpha) + sin(alpha)(cos(beta) e2
+ sin(beta) e3) has body rates w1 = beta' sin(alpha)^2 and

    z = w2 - i*w3 = exp(-i*beta) (alpha' - i*q),   q = beta' sin(2 alpha) / 2.

On alpha' >= 0 the point (alpha', -q) stays in the closed right half plane,
so theta = atan2(-q, alpha') - beta is the continuous phase of z, read at
the ends alone for theta(1), and the controls u2 = |z| = sqrt(alpha'^2 +
q^2), u1 = w1 + theta'/2 need no unwrap and no trig of beta (Plan.controls).
The endpoint conditions give alpha' = a cos(b), q = -a sin(b) and beta = b
at s = 0 and 1 (a = alpha_bar > 0, |b| <= pi/2), so theta(0) = theta(1) = 0
and |z| = a there; with alpha' > 0 in between (step 3) a planner curve can
neither wind around 0 nor reach it, and those checks remain only as guards.

The sampled control steers dq/dt = (u1 e1 + u2 e2) q from q(0) = 1 to
q(T) = target.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import IdentityTarget, MonotonicityViolation, SingularFlatCurve, WindingNonzero
from .flat import SINGULAR_Z_TOL, LiftSamplePath
from .quat import UnitQuaternion
from .schedule import INTERP_CUBIC, MAX_SAMPLES, PulseSchedule, check_duration, take_number

# min|z| over s is about dist(target, 1) / sqrt(2), so every target beyond
# this distance clears the SINGULAR_Z_TOL guard of Plan.controls.
IDENTITY_TOL = 2.0 * SINGULAR_Z_TOL
ETA_DEGENERATE_SQ = 1e-24        # q1^2 + q2^2 below this: eta_bar := 0
ALPHA_GRID = 1024                # open grid i / (ALPHA_GRID + 1) for the alpha' > 0 confirmation
WINDING_TOL = 1e-6
# The smallest power of two whose cubic-interpolation floor keeps the
# reference scenario (e3, T = 2, k = 1) within 1e-9: 512 intervals give
# 3.6e-10 at h = T/8192 and 4.0e-10 at the default step h = T/512, while 256
# give 5.7e-9.  A linear read of 512 intervals leaves 2.2e-5, of 8192 8.6e-8.
DEFAULT_SAMPLES = 512
MIN_SAMPLES = 64
# Largest clock order whose smoothstep stays within 1e-9 of the exact
# polynomial: the alternating coefficients cancel in floating point, and
# the error grows about tenfold per order (k = 9 is off by 1.3e-9, k = 20
# by O(1)).
MAX_WARP_ORDER = 8
# Clocks kept for reuse: a few (T, n, k) cover a session or a compile run,
# and the cap on n bounds what is retained (8 clocks of 5 rows, the four
# powers and ds/dt, of at most 2**15 + 1 floats, 10.5 MB); larger clocks are
# built per call.
CLOCK_CACHE_SIZE = 8
CLOCK_CACHE_MAX_N = 2 ** 15
# Columns per block of Plan.controls: its temporaries stay at ~10 rows of
# the block, and a grid of at most this many columns is one block.
CONTROL_BLOCK = 2 ** 14


@dataclass(frozen=True)
class TargetDecomposition:
    """Angles normalizing a target gate.

    eta_bar in [0, 2*pi) rotates the e1/e2 components onto the e2 axis;
    alpha_bar in (0, pi] and beta_bar in [-pi/2, pi/2] place the rotated
    target at cos(a) + sin(a)(cos(b) e2 + sin(b) e3); lambda_bar offsets
    the alpha ramp.
    """

    eta_bar: float
    alpha_bar: float
    beta_bar: float
    lambda_bar: float

    def reconstruct(self) -> UnitQuaternion:
        """Rebuild the original target from the four angles."""
        a, b = self.alpha_bar, self.beta_bar
        # the eta_bar-normalized target (zero e1 component), renormalized
        p = UnitQuaternion(math.cos(a), 0.0, math.sin(a) * math.cos(b),
                           math.sin(a) * math.sin(b))
        se, ce = math.sin(self.eta_bar), math.cos(self.eta_bar)
        return UnitQuaternion(p.w, p.y * se, p.y * ce, p.z)


def decompose_target(qbar: UnitQuaternion) -> TargetDecomposition:
    """Normalize a target gate; the identity is rejected."""
    dist = math.sqrt((qbar.w - 1.0) ** 2 + qbar.x ** 2 + qbar.y ** 2 + qbar.z ** 2)
    if dist <= IDENTITY_TOL:
        raise IdentityTarget("target is the identity; no pulse to plan")
    r2 = qbar.x * qbar.x + qbar.y * qbar.y
    eta = 0.0 if r2 < ETA_DEGENERATE_SQ else math.atan2(qbar.x, qbar.y) % (2.0 * math.pi)
    r = math.sqrt(r2)
    # atan2 keeps alpha_bar > 0 where acos(w) would round w == 1.0 to 0
    alpha = math.atan2(math.hypot(r, qbar.z), qbar.w)
    # at alpha = pi both r and q3 vanish and atan2(0, 0) = 0 picks beta = 0
    beta = math.atan2(qbar.z, r)
    return TargetDecomposition(eta, alpha, beta, start_offset(alpha))


def start_offset(alpha_bar: float) -> float:
    """Initial alpha offset keeping |sin(a)cos(a)| away from 0 at both ends."""
    if math.pi / 4 <= alpha_bar <= 3 * math.pi / 4:
        lam = -alpha_bar / 2.0
    else:
        lam = math.pi / 4 - alpha_bar / 2.0
    assert abs(math.sin(lam) * math.cos(lam)) >= 0.17
    assert abs(math.sin(lam + alpha_bar) * math.cos(lam + alpha_bar)) >= 0.17
    return lam


def boundary_data(dec: TargetDecomposition) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Endpoint conditions, alpha ramping by alpha_bar and beta closing a
    loop: hermite_cubic's arguments (p0, p1, d0, d1) for alpha, then beta."""
    a, b, lam = dec.alpha_bar, dec.beta_bar, dec.lambda_bar
    da = a * math.cos(b)
    db0 = -a * math.sin(b) / (math.sin(lam) * math.cos(lam))
    db1 = -a * math.sin(b) / (math.sin(lam + a) * math.cos(lam + a))
    return (lam, lam + a, da, da), (b, b, db0, db1)


def hermite_cubic(p0: float, p1: float, d0: float, d1: float) -> tuple[float, ...]:
    """Coefficients (c0, c1, c2, c3) of the cubic matching value and slope
    at s = 0 and s = 1."""
    return (p0, d0, 3.0 * (p1 - p0) - 2.0 * d0 - d1, 2.0 * (p0 - p1) + d0 + d1)


@dataclass(frozen=True)
class CubicPair:
    """The two boundary-value cubics with their derivative closed forms."""

    ca: tuple[float, ...]     # alpha coefficients, ascending powers
    cb: tuple[float, ...]     # beta coefficients
    delta: float              # alpha_bar * (1 - cos(beta_bar))

    @classmethod
    def from_decomposition(cls, dec: TargetDecomposition) -> "CubicPair":
        alpha, beta = boundary_data(dec)
        return cls(hermite_cubic(*alpha), hermite_cubic(*beta),
                   dec.alpha_bar * (1.0 - math.cos(dec.beta_bar)))

    def alpha(self, s):
        c = self.ca
        return c[0] + s * (c[1] + s * (c[2] + s * c[3]))

    def dalpha(self, s):
        c = self.ca
        return c[1] + s * (2.0 * c[2] + s * 3.0 * c[3])

    def ddalpha(self, s):
        c = self.ca
        return 2.0 * c[2] + s * 6.0 * c[3]

    def beta(self, s):
        c = self.cb
        return c[0] + s * (c[1] + s * (c[2] + s * c[3]))

    def dbeta(self, s):
        c = self.cb
        return c[1] + s * (2.0 * c[2] + s * 3.0 * c[3])

    def ddbeta(self, s):
        c = self.cb
        return 2.0 * c[2] + s * 6.0 * c[3]


def check_alpha_monotone(c: CubicPair) -> float:
    """Verify alpha' > 0 on (0, 1); returns the grid minimum as a witness.

    Analytically alpha'(s) = -6*delta*s*(s - 1) + alpha'(0) with
    delta >= 0, so positivity needs delta > 0 with alpha'(0) >= 0, or
    delta = 0 with alpha'(0) > 0.  The open grid s_i = i / (ALPHA_GRID + 1)
    confirms; the quadratic alpha' has its grid minimum at an end of the
    grid or, if convex, next to its vertex, and only those are evaluated.
    """
    ca = c.ca
    d0 = ca[1]
    ok = (c.delta > 0.0 and d0 >= 0.0) or (c.delta == 0.0 and d0 > 0.0)
    if not ok:
        raise MonotonicityViolation(
            f"alpha'(0) = {d0!r}, delta = {c.delta!r}: alpha is not increasing")
    step = 1.0 / (ALPHA_GRID + 1)          # s_i = i * step, as np.linspace has it
    points = [1, ALPHA_GRID]
    vertex = -ca[2] / (3.0 * ca[3]) * (ALPHA_GRID + 1) if ca[3] > 0.0 else 0.0
    if 1.0 < vertex < ALPHA_GRID:
        points += [math.floor(vertex), math.floor(vertex) + 1]
    grid_min = min(c.dalpha(i * step) for i in points)
    if grid_min <= 0.0:
        raise MonotonicityViolation(f"grid min alpha' = {grid_min!r}")
    return grid_min


def lift_path(c: CubicPair, m: int) -> LiftSamplePath:
    """The planner's lift Y(s) on an m-point grid with exact derivatives.

    Y = cos(al) + sin(al)(cos(be) e2 + sin(be) e3); the first and second
    derivatives follow by differentiating the closed form, so downstream
    consistency checks see no numerical-differentiation noise.
    """
    s = np.linspace(0.0, 1.0, m)
    al, be = c.alpha(s), c.beta(s)
    da, db = c.dalpha(s), c.dbeta(s)
    dda, ddb = c.ddalpha(s), c.ddbeta(s)
    sa, ca_, sb, cb = np.sin(al), np.cos(al), np.sin(be), np.cos(be)
    y = np.stack([ca_, np.zeros_like(s), sa * cb, sa * sb], axis=1)
    # m-direction (cos be, sin be) and its orthogonal n-direction
    m2, m3 = cb, sb
    n2, n3 = -sb, cb
    cm = da * ca_                      # coefficient of m in Y'
    cn = db * sa                       # coefficient of n in Y'
    yd = np.stack([-da * sa, np.zeros_like(s), cm * m2 + cn * n2, cm * m3 + cn * n3], axis=1)
    cw = -ca_ * da * da - sa * dda
    cm2 = dda * ca_ - sa * da * da - sa * db * db
    cn2 = 2.0 * ca_ * da * db + sa * ddb
    ydd = np.stack([cw, np.zeros_like(s), cm2 * m2 + cn2 * n2, cm2 * m3 + cn2 * n3], axis=1)
    return LiftSamplePath(s, y, yd, ydd)


@dataclass(frozen=True)
class Plan:
    """One target planned in virtual time s, with the scalar witnesses that
    proved it usable: the grid minimum of alpha' and the terminal phase
    theta(1) of z; controls(s) gives the third, min |z| over s."""

    target: UnitQuaternion
    dec: TargetDecomposition
    cubics: CubicPair
    alpha_grid_min: float
    theta1: float

    def controls(self, s):
        """Controls (u1, u2) at virtual times s, rotated back by eta_bar onto
        the original target, and min |z| over s: u2 = |z| and u1 = w1 +
        theta'/2 = ((q alpha'' - alpha' q') / |z|^2 - beta' cos(2 alpha)) / 2,
        by sample_plan's arithmetic (step 5 of the module docstring): one
        contraction for the cubics and their derivatives, one tan for sin
        and cos of 2 alpha; u1 and u2 are the rows of one array.  s is read
        by take_number and must lie in [0, 1] within 1e-9, the error a
        smoothstep clock may carry (MAX_WARP_ORDER), else ValueError;
        raises SingularFlatCurve for min |z| <= SINGULAR_Z_TOL."""
        s = np.asarray(take_number(s, "s", ndim=1))
        # a NaN fails both comparisons
        if not (np.all(s >= -1e-9) and np.all(s <= 1.0 + 1e-9)):
            raise ValueError("s must be finite and lie in [0, 1]")
        u, min_abs_z = self._controls(_power_basis(s))
        return u[0], u[1], min_abs_z

    def _controls(self, basis: np.ndarray):
        """controls(s) from the _power_basis of an s already in [0, 1], as
        u, one (2, m) array of the rows u1 and u2, and min |z|.

        The cubics and their derivatives are one contraction of a 5 x 4
        table with the basis, in powers of x = s - 1/2: about the middle
        the terms cancel less than in powers of s (controls within 2.7e-15
        of max |u| of the lift inversion's, against 3.8e-15).  np.dot takes
        the contraction to BLAS, 3x faster than np.einsum, but a column's
        bits depend on the column count, so sample_plan and controls(s)
        share this one path and its blocks of CONTROL_BLOCK columns."""
        (a0, a1, a2, a3), (b0, b1, b2, b3) = (_centred(c) for c in (self.cubics.ca,
                                                                    self.cubics.cb))
        ce, se = math.cos(self.dec.eta_bar), math.sin(self.dec.eta_bar)
        # alpha, beta'/2, beta''/4, alpha''/2, alpha' in ascending powers of
        # x, then the rotation by eta_bar
        coef = np.array([a0, a1, a2, a3, 0.5 * b1, b2, 1.5 * b3, 0.0,
                         0.5 * b2, 1.5 * b3, 0.0, 0.0, a2, 3.0 * a3, 0.0, 0.0,
                         a1, 2.0 * a2, 3.0 * a3, 0.0, ce, se, -se, ce])
        table, rotation = coef[:20].reshape(5, 4), coef[20:].reshape(2, 2)
        m = basis.shape[1]
        if m <= CONTROL_BLOCK:
            return _block_controls(table, rotation, basis)
        u = np.empty((2, m))
        min_abs_z = math.inf
        for lo in range(0, m, CONTROL_BLOCK):
            u[:, lo:lo + CONTROL_BLOCK], z = _block_controls(
                table, rotation, basis[:, lo:lo + CONTROL_BLOCK])
            min_abs_z = min(min_abs_z, z)
        return u, min_abs_z


def _centred(c: tuple[float, ...]) -> tuple[float, ...]:
    """The coefficients of the cubic c in ascending powers of s - 1/2."""
    c0, c1, c2, c3 = c
    return (c0 + 0.5 * (c1 + 0.5 * (c2 + 0.5 * c3)), c1 + c2 + 0.75 * c3, c2 + 1.5 * c3, c3)


def _power_basis(s: np.ndarray) -> np.ndarray:
    """The rows 1, x, x^2, x^3 of x = s - 1/2 for a float array s, as one
    (4, m) array."""
    basis = np.empty((4, s.shape[0]))
    basis[0] = 1.0
    x = np.subtract(s, 0.5, out=basis[1])
    np.multiply(x, x, out=basis[2])
    np.multiply(basis[2], x, out=basis[3])
    return basis


def _sin_cos_twice(al: np.ndarray, cs: np.ndarray, den: np.ndarray):
    """sin(2 al) into al and cos(2 al) into cs, from the one tangent t =
    tan(al) as 2t / (1 + t^2) and (1 - t^2) / (1 + t^2); den is scratch.
    |tan| of a double stays below 1.7e16, so t^2 cannot overflow."""
    t = np.tan(al, al)
    np.multiply(t, t, den)
    np.subtract(1.0, den, cs)
    np.add(den, 1.0, den)
    np.add(t, t, t)
    np.divide(t, den, t)
    np.divide(cs, den, cs)
    return t, cs


def _block_controls(table: np.ndarray, rotation: np.ndarray,
                    basis: np.ndarray) -> tuple[np.ndarray, float]:
    """Plan._controls on one block of columns: the (2, m) controls and the
    block's min |z|; raises SingularFlatCurve for min |z| <= SINGULAR_Z_TOL.

    With A = alpha'' / 2, B = beta' / 2 and C = beta'' / 4, the rows of one
    contraction with alpha and alpha', q = B sin(2 alpha), q'/2 = C sin(2
    alpha) + alpha' B cos(2 alpha), |z|^2 = alpha'^2 + q^2, and the
    unrotated controls are a = (A q - alpha' q'/2) / |z|^2 - B cos(2 alpha)
    and b = |z|.  Every step writes into one workspace w, row by row: numpy
    spends about as long setting up a call on 513 samples as computing it,
    and a broadcast product over two rows costs more than two products."""
    w = np.empty((9, basis.shape[1]))
    np.dot(table, basis, out=w[:5])
    al, b_, c_, a_, da, x, y, q, h = w          # alpha, B, C, A, alpha', scratch
    sn, cs = _sin_cos_twice(al, y, x)
    np.multiply(b_, sn, q)
    np.multiply(c_, sn, h)
    bc = np.multiply(b_, cs, b_)                # B cos(2 alpha)
    np.multiply(da, bc, x)
    np.add(h, x, h)                             # q'/2
    mag2 = np.multiply(da, da, x)
    np.multiply(q, q, y)
    np.add(mag2, y, mag2)                       # |z|^2
    min_abs_z = math.sqrt(float(np.minimum.reduce(mag2)))
    if min_abs_z <= SINGULAR_Z_TOL:
        raise SingularFlatCurve(f"min |z| = {min_abs_z!r} at the sampled s")
    a = np.multiply(a_, q, a_)
    np.multiply(da, h, da)
    np.subtract(a, da, a)
    np.divide(a, mag2, a)
    np.subtract(a, bc, a)
    np.sqrt(mag2, da)                           # b = |z|, the row after a
    return np.dot(rotation, w[3:5]), min_abs_z


def check_winding(c: CubicPair) -> float:
    """Terminal phase theta(1) of z relative to s = 0, from the end values
    of theta = atan2(-q, alpha') - beta, which is continuous while alpha' > 0
    (check_alpha_monotone); raises WindingNonzero above WINDING_TOL."""
    theta0, theta1 = (
        math.atan2(-0.5 * c.dbeta(s) * math.sin(2.0 * c.alpha(s)), c.dalpha(s))
        - c.beta(s) for s in (0.0, 1.0))
    theta1 -= theta0
    if abs(theta1) > WINDING_TOL:
        raise WindingNonzero(f"theta(1) = {theta1!r}; z winds around 0")
    return theta1


def smoothstep(t, big_t: float, k: int = 1):
    """Polynomial clock s(t) on [0, T] with s(0) = 0, s(T) = 1 and the
    first k derivatives vanishing at both ends; returns (s, ds/dt).

    k = 1 is the cubic 3(t/T)^2 - 2(t/T)^3; higher k raises the endpoint
    flatness (degree 2k + 1), up to MAX_WARP_ORDER.
    """
    big_t = check_duration(big_t)
    k = take_number(k, "warp order", int)
    if k < 1:
        raise ValueError("warp order must be at least 1")
    if k > MAX_WARP_ORDER:
        raise ValueError(f"warp order must be at most {MAX_WARP_ORDER}")
    u = np.asarray(take_number(t, "t", ndim=1)) / big_t
    # a NaN fails both comparisons
    if not (np.all(u >= -1e-12) and np.all(u <= 1.0 + 1e-12)):
        raise ValueError("t must lie in [0, T]")
    ck = math.factorial(2 * k + 1) // (math.factorial(k) ** 2)
    s = np.zeros_like(u)
    for j in range(k, -1, -1):
        # the integer coefficient of u^(k+1+j)
        num, den = ck * math.comb(k, j) * (-1) ** j, k + j + 1
        assert num % den == 0
        s *= u
        s += num // den
    s *= u ** (k + 1)
    ds = ((1.0 - u) * u) ** k * ck / big_t
    if np.ndim(t) == 0:
        return float(s), float(ds)
    return s, ds


def plan_controls(qbar: UnitQuaternion) -> Plan:
    """Plan qbar once: decomposition, cubics and their validity checks."""
    dec = decompose_target(qbar)
    cubics = CubicPair.from_decomposition(dec)
    return Plan(qbar, dec, cubics, check_alpha_monotone(cubics), check_winding(cubics))


def _sample_grid(big_t: float, n: int) -> np.ndarray:
    big_t = check_duration(big_t)
    n = take_number(n, "sample interval count", int)
    if n < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} sample intervals")
    if n > MAX_SAMPLES:
        raise ValueError(f"need at most {MAX_SAMPLES} sample intervals")
    return np.linspace(0.0, big_t, n + 1)


def _new_clock(big_t: float, n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    s, sd = smoothstep(_sample_grid(big_t, n), big_t, k)
    return _power_basis(s), sd


@functools.lru_cache(maxsize=CLOCK_CACHE_SIZE)
def _cached_clock(big_t: float, n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    basis, sd = _new_clock(big_t, n, k)
    basis.flags.writeable = sd.flags.writeable = False
    return basis, sd


def _clock(big_t: float, n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The _power_basis of s(t), one (4, n + 1) array, and ds/dt on n
    uniform intervals of [0, T], for T, n and k as
    sample_plan took them, before the cache sees them: shared read-only
    arrays for n <= CLOCK_CACHE_MAX_N, fresh ones above."""
    if n > CLOCK_CACHE_MAX_N:
        return _new_clock(big_t, n, k)
    return _cached_clock(big_t, n, k)


def sample_plan(plan: Plan, big_t: float, n: int = DEFAULT_SAMPLES,
                k: int = 1) -> PulseSchedule:
    """Sample a plan on n uniform intervals of [0, T] (n + 1 samples)
    through the order-k clock warp, giving controls of class C^(k-1) that
    vanish exactly at both ends."""
    big_t, n = check_duration(big_t), take_number(n, "sample interval count", int)
    k = take_number(k, "warp order", int)
    basis, sd = _clock(big_t, n, k)
    u, min_abs_z = plan._controls(basis)
    del basis
    u *= sd
    # sd vanishes identically at both ends; pin the exact zeros
    u[:, ::n] = 0.0
    return PulseSchedule(big_t, u[0], u[1], target=plan.target, interpolation=INTERP_CUBIC,
                         warp_order=k, eta_bar=plan.dec.eta_bar, min_abs_z=min_abs_z)


def synthesize(qbar: UnitQuaternion, big_t: float, n: int = DEFAULT_SAMPLES,
               k: int = 1) -> PulseSchedule:
    """Full pipeline: one smooth pulse steering 1 -> qbar over [0, T];
    see sample_plan for n and k."""
    return sample_plan(plan_controls(qbar), big_t, n, k)


def rotate_controls(sched: PulseSchedule, eta: float) -> PulseSchedule:
    """Rotate the control pair by eta; steers to the eta-rotated target.

    If (u1, u2) steers 1 -> q then (cos(eta) u1 - sin(eta) u2,
    sin(eta) u1 + cos(eta) u2) steers 1 -> the target with its (q1, q2)
    components rotated by eta.
    """
    eta = take_number(eta, "eta")
    ce, se = math.cos(eta), math.sin(eta)
    u1 = ce * sched.u1 - se * sched.u2
    u2 = se * sched.u1 + ce * sched.u2
    p = sched.target
    target = UnitQuaternion(p.w, ce * p.x - se * p.y, se * p.x + ce * p.y, p.z)
    return PulseSchedule(sched.duration, u1, u2, target=target,
                         interpolation=sched.interpolation,
                         warp_order=sched.warp_order, eta_bar=None,
                         min_abs_z=sched.min_abs_z)
