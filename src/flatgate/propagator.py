"""Numerical propagation of dq/dt = (u1 e1 + u2 e2 + delta_r e3) q.

Classical fourth-order Runge-Kutta. Because the dynamics is linear in q
and left-multiplies it by a pure quaternion, one RK4 step is left
multiplication by a single quaternion m built from the stage generators
with the Hamilton product. Steps are built in vectorized chunks; a recorded
run applies each chunk as one log-depth prefix product, a terminal-only run
as one pairwise tree product (c - 1 Hamilton products for c steps), so
desk-scale sweeps and thousand-target verification runs stay fast without
any compiled extension. The quaternion norm is multiplicative, so |m q| = |m| for unit
q: normalizing each reported state equals renormalizing after every step,
and the drift audit is exactly max_j ||m_j| - 1|.

Controls between samples are read according to the schedule's declared
interpolation: "linear" evaluates every RK4 stage on the interpolant,
"pconst" holds one value per step (taken from the segment containing the
step midpoint), so steps aligned with segment boundaries integrate each
constant segment exactly up to the RK4 truncation of the exponential.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import StepTooLarge
from . import quat
from .quat import ImagQuaternion, UnitQuaternion
from .schedule import INTERP_PCONST, PulseSchedule

DEFAULT_STEP_DIVISOR = 8192
_STEP_CHUNK = 256
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
        h = big_t / DEFAULT_STEP_DIVISOR
    if h <= 0.0:
        raise ValueError("step must be positive")
    if np.isnan(h):
        raise ValueError("step must be finite")
    if h > sched.spacing * (1.0 + 1e-12):
        raise StepTooLarge(
            f"step {h!r} exceeds the sample spacing {sched.spacing!r}")
    if big_t / h > _MAX_STEPS:
        raise ValueError(f"step {h!r} needs more than {_MAX_STEPS} steps")
    n = max(1, round(big_t / h))
    return n, big_t / n


def _stage_values(u: np.ndarray, spacing: float, tau: np.ndarray) -> np.ndarray:
    """Linear interpolation of sample rows u (b, n_samples) at times tau."""
    pos = tau / spacing
    idx = np.clip(np.floor(pos).astype(int), 0, u.shape[1] - 2)
    frac = pos - idx
    return u[:, idx] * (1.0 - frac) + u[:, idx + 1] * frac


def _generators(s1: np.ndarray, s2: np.ndarray, dr: np.ndarray) -> np.ndarray:
    """Pure quaternions (0, u1, u2, delta_r) as (b, c, 4) rows."""
    a = np.zeros(s1.shape + (4,))
    a[..., 1] = s1
    a[..., 2] = s2
    a[..., 3] = dr[:, None]
    return a


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
    which also picks each chunk's product: prefix if recording, else tree."""
    b = u1.shape[0]
    dr = np.broadcast_to(np.asarray(delta_r, dtype=float), (b,))
    if not np.all(np.isfinite(dr)):
        raise ValueError("delta_r must be finite")
    q = start
    states = np.empty((n + 1, 4)) if record else None
    if record:
        states[0] = q[0]
    drift = np.zeros(b)
    done = 0
    while done < n:
        c = min(_STEP_CHUNK, n - done)
        if sched.interpolation == INTERP_PCONST:
            mid = (done + np.arange(c) + 0.5) * h
            seg = np.clip((mid / sched.spacing).astype(int), 0, u1.shape[1] - 2)
            a0 = am = a1 = _generators(u1[:, seg], u2[:, seg], dr)
        else:
            tau = (2 * done + np.arange(2 * c + 1)) * (0.5 * h)
            np.minimum(tau, sched.duration, out=tau)
            a = _generators(_stage_values(u1, sched.spacing, tau),
                            _stage_values(u2, sched.spacing, tau), dr)
            a0, am, a1 = a[:, 0:-1:2], a[:, 1::2], a[:, 2::2]
        k2 = am + (0.5 * h) * quat.qmul_arr(am, a0)
        k3 = am + (0.5 * h) * quat.qmul_arr(am, k2)
        k4 = a1 + h * quat.qmul_arr(a1, k3)
        m = (h / 6.0) * (a0 + 2.0 * k2 + 2.0 * k3 + k4)
        m[..., 0] += 1.0
        norms = np.linalg.norm(m, axis=-1)
        np.maximum(drift, np.max(np.abs(norms - 1.0), axis=1), out=drift)
        p = _prefix_product(m) if record else _tree_product(m)
        qs = quat.qmul_arr(p, q[:, None])
        qs /= np.linalg.norm(qs, axis=-1, keepdims=True)
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
        raise ValueError("empty batch")
    first = scheds[0]
    for s in scheds[1:]:
        if s.t.shape != first.t.shape or not np.array_equal(s.t, first.t) \
                or s.interpolation != first.interpolation:
            raise ValueError("batch schedules must share grid and interpolation")
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
        raise ValueError("empty detuning list")
    n, h = _resolve_steps(sched, h)
    u1 = np.broadcast_to(sched.u1, (dr.size, sched.u1.size))
    u2 = np.broadcast_to(sched.u2, (dr.size, sched.u2.size))
    start = np.tile(quat.ONE.as_array(), (dr.size, 1))
    finals, _, _ = _propagate_rows(u1, u2, sched, dr, h, n, start, record=False)
    fid = finals @ target.as_array()
    return DetuningSweep(dr, fid)


def propagate_piecewise_exact(sched: PulseSchedule, delta_r: float = 0.0,
                              start: UnitQuaternion = quat.ONE) -> UnitQuaternion:
    """Exact propagation of a piecewise-constant schedule: the ordered
    product of one exponential per interval."""
    if sched.interpolation != INTERP_PCONST:
        raise ValueError("exact propagation needs a piecewise-constant schedule")
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
    w, x, y, z = (states[1:-1, i] for i in range(4))
    a1, a2 = u1[1:-1], u2[1:-1]
    rhs = np.stack([
        -a1 * x - a2 * y - delta_r * z,
        a1 * w + a2 * z - delta_r * y,
        -a1 * z + a2 * w + delta_r * x,
        a1 * y - a2 * x + delta_r * w,
    ], axis=1)
    return float(np.max(np.linalg.norm(qd - rhs, axis=1)))
