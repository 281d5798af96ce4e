"""Numerical propagation of dq/dt = (u1 e1 + u2 e2 + delta_r e3) q.

Classical fourth-order Runge-Kutta. Because the dynamics is linear in q
and left-multiplies it by a pure quaternion, one RK4 step is left
multiplication by a single quaternion m. Every stage generator
a = (0, u1, u2, delta_r) is pure, so a^2 = -|a|^2, and m is a closed-form
polynomial in the stage values with no Hamilton product at all; for a
constant generator it is the degree-4 Taylor polynomial of exp(h a).
Steps are multiplied in chunks of 256: a recorded run applies each chunk
as one log-depth prefix product, a terminal-only run as one pairwise tree
product (c - 1 Hamilton products for c steps).  The steps of several whole
chunks are built at once, in one block of at most 4096 rows x steps, and
each chunk of the block is multiplied as its own row, so a single schedule
costs a few dozen array calls per block instead of per chunk, while the
association, and so every bit of the result, stays that of chunk-by-chunk
propagation.  Desk-scale sweeps and thousand-target verification runs stay
fast without any compiled extension.  The quaternion norm is
multiplicative, so |m q| = |m| for unit q: normalizing each reported state
equals renormalizing after every step, and the drift audit is exactly
max_j ||m_j| - 1|.

Controls between samples are read according to the schedule's declared
interpolation: "cubic" and "linear" evaluate every RK4 stage on the
interpolant, "pconst" holds one value per step (taken from the segment
containing the step midpoint), so steps aligned with segment boundaries
integrate each constant segment exactly up to the RK4 truncation of the
exponential.  The cubic read is the local 4-point Lagrange cubic on
samples i-1..i+2 (one-sided 0..3 and N-3..N on the end intervals; Keys,
IEEE Trans. ASSP 29(6), 1981), whose O(spacing^4) floor lets a cubic
schedule step at its own spacing: each stage endpoint is then a sample and
each midpoint (-1, 9, 9, -1)/16 of its neighbours.  Without an explicit
step, cubic schedules step at their spacing and the others at
T / DEFAULT_STEP_DIVISOR.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidPropagationInput, StepTooLarge
from . import quat
from .quat import ImagQuaternion, UnitQuaternion
from .schedule import INTERP_CUBIC, INTERP_PCONST, PulseSchedule

DEFAULT_STEP_DIVISOR = 8192
_STEP_CHUNK = 256
_BLOCK_CELLS = 16 * _STEP_CHUNK   # rows x steps built at once; 16 or more rows get one chunk per block
_MAX_STEPS = 2 ** 22          # a 128 MB recorded trajectory; larger counts are input errors


@dataclass(frozen=True)
class PropagationResult:
    """Terminal state plus the integrator's own audit trail."""

    final: UnitQuaternion
    t: np.ndarray
    states: np.ndarray           # (n_steps + 1, 4), unit rows
    max_norm_drift: float        # worst ||m_j| - 1| over the step multipliers


@dataclass(frozen=True)
class DetuningSweep:
    """Fidelity against a fixed target across detuning offsets."""

    delta_r: np.ndarray
    fidelity: np.ndarray

    def rows(self):
        return list(zip(self.delta_r.tolist(), self.fidelity.tolist()))


def fidelity(p: UnitQuaternion, q: UnitQuaternion) -> float:
    """Four-component inner product; 1 is an exact SU(2) match and -1 is
    the antipode -q, which is a different gate and is not folded."""
    return p.w * q.w + p.x * q.x + p.y * q.y + p.z * q.z


def _resolve_steps(sched: PulseSchedule, h: float | None) -> tuple[int, float]:
    big_t = sched.duration
    if h is None:
        h = sched.spacing if sched.interpolation == INTERP_CUBIC else big_t / DEFAULT_STEP_DIVISOR
    if h <= 0.0:
        raise InvalidPropagationInput("step must be positive")
    if np.isnan(h):
        raise InvalidPropagationInput("step must be finite")
    if h > sched.spacing * (1.0 + 1e-12):
        raise StepTooLarge(
            f"step {h!r} exceeds the sample spacing {sched.spacing!r}")
    if big_t / h > _MAX_STEPS:
        raise InvalidPropagationInput(f"step {h!r} needs more than {_MAX_STEPS} steps")
    n = max(1, round(big_t / h))
    return n, big_t / n


def _stage_values(us, sched: PulseSchedule, h: float, first: int,
                  count: int) -> list[np.ndarray]:
    """Each sample-row array in `us` (b, N + 1) read at the `count` RK4
    stage times (first + i) h/2, clamped to T, on the interpolant `sched`
    declares; all rows are gathered from one index computation.  Linear
    reads the line through samples i, i + 1 of the interval containing a
    stage; cubic the Lagrange cubic through samples j..j + 3,
    j = clip(i - 1, 0, N - 3), whose weights at integer and half-integer
    positions are exact."""
    half_steps = first + np.arange(count)
    cubic = sched.interpolation == INTERP_CUBIC
    if cubic:
        # h / spacing is exactly 1 at the default step, so stage endpoints
        # land on samples and midpoints halfway between
        pos = np.minimum(half_steps * (0.5 * h / sched.spacing), sched.n_intervals)
    else:
        tau = half_steps * (0.5 * h)
        np.minimum(tau, sched.duration, out=tau)
        pos = tau / sched.spacing
    last = sched.n_intervals - 1
    idx = np.clip(np.floor(pos).astype(int), 0, last)
    if not cubic:
        frac = pos - idx
        return [u[:, idx] * (1.0 - frac) + u[:, idx + 1] * frac for u in us]
    j = np.clip(idx - 1, 0, last - 2)
    x0 = pos - j
    x1, x2, x3 = x0 - 1.0, x0 - 2.0, x0 - 3.0
    w = np.stack((x1 * x2 * x3 / -6.0, x0 * x2 * x3 / 2.0,
                  x0 * x1 * x3 / -2.0, x0 * x1 * x2 / 6.0))
    stencil = j + np.arange(4)[:, None]
    return [np.einsum("bkl,kl->bl", u[:, stencil], w) for u in us]


def _rk4_steps(x0, xm, x1, y0, ym, y1, dr, h: float) -> np.ndarray:
    """RK4 step multipliers m = 1 + h/6 (k1 + 2k2 + 2k3 + k4) as (b, c, 4)
    rows, from the stage values of the generators a = (0, x, y, dr) at the
    step start, midpoint and end: (b, c) arrays, or (1, c) rows that
    broadcast against a (b, 1) detuning column.

    With am^2 = -N, N = |am|^2, the stages expand to k2 = am + h/2 am a0,
    k3 = am - hN/2 - (h^2 N/4) a0 and k4 = a1 + h a1 am - (h^2 N/2) a1
    - (h^3 N/4) a1 a0; the products of pure quaternions reduce to dot and
    cross products of the stage values, whose e3 parts share dr.
    """
    sx, sy, dx, dy = x0 + x1, y0 + y1, x1 - x0, y1 - y0
    dd = dr * dr
    nm = xm * xm + ym * ym + dd
    g = (0.5 * h * h) * nm
    f = (0.25 * h ** 3) * nm
    hf = (h - f) * dr
    m = np.empty(np.broadcast_shapes(x0.shape, dr.shape) + (4,))
    m[..., 0] = f * (x1 * x0 + y1 * y0 + dd) - h * (xm * sx + ym * sy + 2.0 * dd + nm)
    m[..., 1] = (1.0 - g) * sx + 4.0 * xm + hf * dy
    m[..., 2] = (1.0 - g) * sy + 4.0 * ym - hf * dx
    m[..., 3] = (6.0 - 2.0 * g) * dr + h * (ym * dx - xm * dy) - f * (x1 * y0 - y1 * x0)
    m *= h / 6.0
    m[..., 0] += 1.0
    return m


def _norm4(a: np.ndarray) -> np.ndarray:
    """Norms of quaternion rows (..., 4): np.linalg.norm's additions in its
    order, so bit-identical, at a fifth of its cost on (64, 256, 4) rows."""
    return np.sqrt(a[..., 0] ** 2 + a[..., 1] ** 2 + a[..., 2] ** 2 + a[..., 3] ** 2)


def _prefix_product(m: np.ndarray) -> np.ndarray:
    """Ordered products m_j ... m_1 m_0 along axis 1 of (b, c, 4) rows,
    by log-depth doubling (Blelloch, CMU-CS-90-190, 1990)."""
    p = m.copy()
    d = 1
    while d < p.shape[1]:
        p[:, d:] = quat.qmul_arr(p[:, d:], p[:, :-d])
        d *= 2
    return p


def _tree_product(m: np.ndarray) -> np.ndarray:
    """Ordered product m_{c-1} ... m_1 m_0 of (b, c, 4) rows as (b, 1, 4):
    c - 1 pairwise products in ceil(log2 c) levels, an odd last row carried."""
    while m.shape[1] > 1:
        p = quat.qmul_arr(m[:, 1::2], m[:, 0:-1:2])
        m = np.concatenate([p, m[:, -1:]], axis=1) if m.shape[1] % 2 else p
    return m


def _propagate_rows(u1: np.ndarray, u2: np.ndarray, sched: PulseSchedule,
                    delta_r, h: float, n: int, start: np.ndarray,
                    record: bool):
    """Propagate b systems in lockstep on the grid and interpolation of
    `sched`; returns (finals, drifts, states), states only if `record`,
    which also picks each chunk's product: prefix if recording, else tree.

    Each block builds the step multipliers of k whole chunks (the most
    with b k _STEP_CHUNK <= _BLOCK_CELLS, at least one; a final partial
    chunk is a block of its own) with one stage read and one _rk4_steps
    call, multiplies each chunk as one of b k rows, then folds the chunk
    products into the running state in order, normalizing after each
    chunk: the same products, in the same association, as one chunk at a
    time."""
    dr = np.asarray(delta_r, dtype=float).reshape(-1, 1)
    b = max(u1.shape[0], dr.shape[0])
    if {u1.shape[0], dr.shape[0]} - {1, b}:
        raise InvalidPropagationInput(
            "delta_r needs one value or one per control row")
    if not np.all(np.isfinite(dr)):
        raise InvalidPropagationInput("delta_r must be finite")
    q = start
    states = np.empty((n + 1, 4)) if record else None
    if record:
        states[0] = q[0]
    drift = np.zeros(b)
    per_block = max(1, _BLOCK_CELLS // (b * _STEP_CHUNK))
    done = 0
    while done < n:
        c = min(_STEP_CHUNK, n - done)
        k = max(1, min(per_block, (n - done) // _STEP_CHUNK))
        if sched.interpolation == INTERP_PCONST:
            mid = (done + np.arange(k * c) + 0.5) * h
            seg = np.clip((mid / sched.spacing).astype(int), 0, u1.shape[1] - 2)
            x, y = u1[:, seg], u2[:, seg]
            m = _rk4_steps(x, x, x, y, y, y, dr, h)
        else:
            x, y = _stage_values((u1, u2), sched, h, 2 * done, 2 * k * c + 1)
            m = _rk4_steps(x[:, 0:-1:2], x[:, 1::2], x[:, 2::2],
                           y[:, 0:-1:2], y[:, 1::2], y[:, 2::2], dr, h)
        np.maximum(drift, np.max(np.abs(_norm4(m) - 1.0), axis=1), out=drift)
        m = m.reshape(b * k, c, 4)
        p = (_prefix_product(m) if record else _tree_product(m)).reshape(b, k, -1, 4)
        for j in range(k):
            qs = quat.qmul_arr(p[:, j], q[:, None])
            qs /= _norm4(qs)[..., None]
            if record:
                states[done + 1:done + c + 1] = qs[0]
            q = qs[:, -1]
            done += c
    return q, drift, states


def propagate(sched: PulseSchedule, delta_r: float = 0.0,
              h: float | None = None, start: UnitQuaternion = quat.ONE,
              ) -> PropagationResult:
    """Integrate one schedule from `start` (default: the identity)."""
    n, h = _resolve_steps(sched, h)
    finals, drift, states = _propagate_rows(
        sched.u1[None, :], sched.u2[None, :], sched, delta_r, h, n,
        start.as_array()[None, :], record=True)
    t = np.arange(n + 1) * h
    return PropagationResult(quat.as_unit(finals[0]), t, states, float(drift[0]))


def propagate_final_batch(scheds: list[PulseSchedule], delta_r: float = 0.0,
                          h: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Terminal states for many schedules sharing one time grid.

    Returns (finals (b, 4), max_norm_drift (b,)).  Used for bulk
    verification where per-step trajectories are not needed.
    """
    if len(scheds) == 0:
        raise InvalidPropagationInput("empty batch")
    first = scheds[0]
    for s in scheds[1:]:
        if s.t.shape != first.t.shape or not np.array_equal(s.t, first.t) \
                or s.interpolation != first.interpolation:
            raise InvalidPropagationInput(
                "batch schedules must share grid and interpolation")
    n, h = _resolve_steps(first, h)
    u1 = np.stack([s.u1 for s in scheds])
    u2 = np.stack([s.u2 for s in scheds])
    start = np.tile(quat.ONE.as_array(), (len(scheds), 1))
    finals, drifts, _ = _propagate_rows(u1, u2, first, delta_r, h, n, start,
                                        record=False)
    return finals, drifts


def detuning_sweep(sched: PulseSchedule, delta_r_list, target: UnitQuaternion,
                   h: float | None = None) -> DetuningSweep:
    """Terminal fidelity against `target` for each detuning offset."""
    dr = np.atleast_1d(np.asarray(delta_r_list, dtype=float))
    if dr.size == 0:
        raise InvalidPropagationInput("empty detuning list")
    n, h = _resolve_steps(sched, h)
    start = np.tile(quat.ONE.as_array(), (dr.size, 1))
    finals, _, _ = _propagate_rows(sched.u1[None, :], sched.u2[None, :], sched,
                                   dr, h, n, start, record=False)
    fid = finals @ target.as_array()
    return DetuningSweep(dr, fid)


def propagate_piecewise_exact(sched: PulseSchedule, delta_r: float = 0.0,
                              start: UnitQuaternion = quat.ONE) -> UnitQuaternion:
    """Exact propagation of a piecewise-constant schedule: the ordered
    product of one exponential per interval."""
    if sched.interpolation != INTERP_PCONST:
        raise InvalidPropagationInput(
            "exact propagation needs a piecewise-constant schedule")
    q = start
    dt = sched.spacing
    for i in range(sched.n_intervals):
        v = ImagQuaternion(sched.u1[i] * dt, sched.u2[i] * dt, delta_r * dt)
        q = quat.mul(quat.exp_pure(v), q)
    return q


def ode_residual(states: np.ndarray, u1: np.ndarray, u2: np.ndarray,
                 dt: float, delta_r: float = 0.0) -> float:
    """Max central-difference residual of the dynamics on a uniform grid.

    For trajectories that truly solve the equation this is O(dt^2); a sign
    error or mismatched control shows up as O(1).
    """
    states = np.asarray(states, dtype=float)
    qd = (states[2:] - states[:-2]) / (2.0 * dt)
    a = np.zeros((len(states) - 2, 4))
    a[:, 1], a[:, 2], a[:, 3] = u1[1:-1], u2[1:-1], delta_r
    rhs = quat.qmul_arr(a, states[1:-1])
    return float(np.max(np.linalg.norm(qd - rhs, axis=1)))
