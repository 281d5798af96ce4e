"""Numerical propagation of dq/dt = (u1 e1 + u2 e2 + delta_r e3) q.

Classical fourth-order Runge-Kutta. Because the dynamics is linear in q
and left-multiplies it by a pure quaternion, one RK4 step is left
multiplication by a single quaternion m. Every stage generator
a = (0, u1, u2, delta_r) is pure, so a^2 = -|a|^2, and m is a closed-form
polynomial in the stage values with no Hamilton product at all; for a
constant generator it is the degree-4 Taylor polynomial of exp(h a).
Steps and states are complex pairs (A, B) = (w + i z, x + i y), q = A + B e1
(see quat): the generator is the pair (i delta_r, v) with v = u1 + i u2 the
complex amplitude of the drive, so the controls are read as one complex row
and every product is a few complex array operations.  Rows (w, x, y, z)
are formed only for recorded states and finals.  When every detuning of a
block of rows is zero, as on resonance, the steps are built without the
dr terms; they would add exact zeros.  Controls large enough to overflow a
step (|u| beyond ~1e154) raise InvalidPropagationInput rather than
propagate NaN.
Steps are multiplied in chunks of 256: a recorded run applies each chunk
as one log-depth prefix product, a terminal-only run as one pairwise tree
product (c - 1 pair products for c steps).  The steps of several whole
chunks are built at once, in one block of at most 4096 rows x steps, and
each chunk of the block is multiplied as its own row, so a single schedule
costs a few dozen array calls per block instead of per chunk, while the
association, and so every bit of the result, stays that of chunk-by-chunk
propagation.  Batches are propagated 64 rows at a time, so memory stays
bounded at any batch size.  Desk-scale sweeps and thousand-target
verification runs stay fast without any compiled extension.  The
quaternion norm is multiplicative, so |m q| = |m| for unit q: normalizing
each reported state equals renormalizing after every step, and the drift
audit is exactly max_j ||m_j| - 1|.

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
step, cubic schedules step at their spacing and the others take N
ceil(DEFAULT_STEP_DIVISOR / N) steps, whole steps per sample interval.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidPropagationInput, StepTooLarge
from . import quat
from .quat import ImagQuaternion, UnitQuaternion
from .schedule import INTERP_CUBIC, INTERP_PCONST, MAX_SAMPLES, PulseSchedule

DEFAULT_STEP_DIVISOR = 8192
_STEP_CHUNK = 256
_BLOCK_CELLS = 16 * _STEP_CHUNK   # rows x steps built at once; 16 or more rows get one chunk per block
_ROW_BLOCK = 64               # batch rows propagated at once


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
        h = sched.spacing / (1 if sched.interpolation == INTERP_CUBIC
                             else math.ceil(DEFAULT_STEP_DIVISOR / sched.n_intervals))
    if h <= 0.0:
        raise InvalidPropagationInput("step must be positive")
    if np.isnan(h):
        raise InvalidPropagationInput("step must be finite")
    if h > sched.spacing * (1.0 + 1e-12):
        raise StepTooLarge(
            f"step {h!r} exceeds the sample spacing {sched.spacing!r}")
    if big_t / h > MAX_SAMPLES:
        raise InvalidPropagationInput(f"step {h!r} needs more than {MAX_SAMPLES} steps")
    n = max(1, round(big_t / h))
    return n, big_t / n


def _control_rows(scheds: list[PulseSchedule]) -> np.ndarray:
    """The complex amplitudes v = u1 + i u2 of the schedules as (b, N + 1)
    rows, written in place with no real stacks beside them."""
    v = np.empty((len(scheds), scheds[0].u1.shape[0]), dtype=complex)
    for row, s in zip(v, scheds):
        row.real, row.imag = s.u1, s.u2
    return v


def _stage_values(v: np.ndarray, sched: PulseSchedule, h: float,
                  half_steps: np.ndarray) -> np.ndarray:
    """The complex sample rows `v` (b, N + 1) read at the RK4 stage times
    i h/2, i in `half_steps`, clamped to T, on the interpolant `sched`
    declares, as (b, len(half_steps)); all rows are gathered from one index
    computation.  Linear reads the line through samples i, i + 1 of the
    interval containing a stage; cubic the Lagrange cubic through samples
    j..j + 3, j = clip(i - 1, 0, N - 3), whose weights at integer and
    half-integer positions are exact.  The weights are real and act on the
    real and imaginary parts alike."""
    cubic = sched.interpolation == INTERP_CUBIC
    if cubic:
        # h / spacing is exactly 1 at the default step, so stage endpoints
        # land on samples and midpoints halfway between
        pos = np.minimum(half_steps * (0.5 * h / sched.spacing), sched.n_intervals)
    else:
        pos = np.minimum(half_steps * (0.5 * h), sched.duration) / sched.spacing
    last = sched.n_intervals - 1
    idx = np.clip(np.floor(pos).astype(int), 0, last)
    if not cubic:
        frac = pos - idx
        return v[:, idx] * (1.0 - frac) + v[:, idx + 1] * frac
    j = np.clip(idx - 1, 0, last - 2)
    x0 = pos - j
    x1, x2, x3 = x0 - 1.0, x0 - 2.0, x0 - 3.0
    w = np.stack((x1 * x2 * x3 / -6.0, x0 * x2 * x3 / 2.0,
                  x0 * x1 * x3 / -2.0, x0 * x1 * x2 / 6.0))
    stencil = j + np.arange(4)[:, None]
    # one real contraction over interleaved (real, imaginary) parts
    return np.einsum("bkl,kl->bl", np.take(v, stencil, axis=1).view(float),
                     np.repeat(w, 2, axis=1)).view(complex)


def _rk4_steps(v0, vm, v1, dr, h: float) -> tuple[np.ndarray, np.ndarray]:
    """RK4 step multipliers m = 1 + h/6 (k1 + 2k2 + 2k3 + k4) as pairs
    (MA, MB) of (b, c) arrays, from the complex stage values v of the
    generators a = (i dr, v) at the step start, midpoint and end: (b, c)
    arrays, or (1, c) rows that broadcast against a (b, 1) detuning column.

    With am^2 = -N, N = |am|^2, the stages expand to k2 = am + h/2 am a0,
    k3 = am - hN/2 - (h^2 N/4) a0 and k4 = a1 + h a1 am - (h^2 N/2) a1
    - (h^3 N/4) a1 a0; the products of generators reduce to products
    v conj(v') of the amplitudes, whose e3 parts share dr.  With s = v0 + v1
    and d = v1 - v0:
      MA = 1 + h/6 (f (v1 conj(v0) + dr^2) - h (vm conj(v0) + v1 conj(vm)
           + 2 dr^2 + N) + i (6 - 2g) dr),
      MB = h/6 ((1 - g) s + 4 vm - i (h - f) dr d),
    where g = h^2 N / 2 and f = h^3 N / 4.  With every dr zero the dr terms
    are left out: the same expressions less their exact zeros.
    """
    detuned = dr.any()
    if not detuned and dr.shape[0] > v0.shape[0]:
        # one control row for b undetuned systems
        v0, vm, v1 = (np.broadcast_to(x, (dr.shape[0], x.shape[1])) for x in (v0, vm, v1))
    nm = vm.real * vm.real + vm.imag * vm.imag
    if detuned:
        dd = dr * dr
        nm = nm + dd
    g = (0.5 * h * h) * nm
    # a numpy power, the same value as h ** 3, overflows to inf where a float
    # power raises OverflowError; _propagate_rows rejects the result
    f = (0.25 * np.float64(h) ** 3) * nm
    c0 = v0.conj()
    # temporaries stay left factors of complex products (see quat.pmul)
    if detuned:
        ma = f * (v1 * c0 + dd) - h * (vm * c0 + vm.conj() * v1 + (2.0 * dd + nm))
        ma.imag += (6.0 - 2.0 * g) * dr
    else:
        ma = f * (v1 * c0) - h * (vm * c0 + vm.conj() * v1 + nm)
    ma *= h / 6.0
    ma.real += 1.0
    mb = (1.0 - g) * (v0 + v1) + 4.0 * vm
    if detuned:
        mb += ((h - f) * dr) * (-1j * (v1 - v0))
    mb *= h / 6.0
    return ma, mb


def _norm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Norms of pairs, summed as w^2 + x^2 + y^2 + z^2 (np.linalg.norm's
    order on the rows) at a fraction of its cost."""
    return np.sqrt(a.real ** 2 + b.real ** 2 + b.imag ** 2 + a.imag ** 2)


def _normalize(a: np.ndarray, b: np.ndarray) -> None:
    """Divide contiguous pairs by their norms in place, part by part."""
    n = _norm(a, b)[..., None]
    for p in (a, b):
        p.view(float).reshape(p.shape + (2,))[...] /= n


def _prefix_product(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ordered products m_j ... m_1 m_0 along axis 1 of (b, c) pairs, by
    log-depth doubling (Blelloch, CMU-CS-90-190, 1990)."""
    a, b = a.copy(), b.copy()
    d = 1
    while d < a.shape[1]:
        a[:, d:], b[:, d:] = quat.pmul(a[:, d:], b[:, d:], a[:, :-d], b[:, :-d])
        d *= 2
    return a, b


def _tree_product(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ordered product m_{c-1} ... m_1 m_0 of (b, c) pairs as (b, 1) pairs:
    c - 1 pairwise products in ceil(log2 c) levels, an odd last one carried."""
    while a.shape[1] > 1:
        pa, pb = quat.pmul(a[:, 1::2], b[:, 1::2], a[:, 0:-1:2], b[:, 0:-1:2])
        if a.shape[1] % 2:
            pa = np.concatenate([pa, a[:, -1:]], axis=1)
            pb = np.concatenate([pb, b[:, -1:]], axis=1)
        a, b = pa, pb
    return a, b


def _propagate_rows(v: np.ndarray, sched: PulseSchedule, delta_r, h: float,
                    n: int, start: np.ndarray, record: bool):
    """Propagate b systems from the one start row (w, x, y, z) in lockstep
    on the grid and interpolation of `sched`, for the complex control rows
    `v` (b or 1, N + 1) and the detunings `delta_r` (one, or one per row);
    returns (finals (b, 4), drifts (b,), states), states only if `record`
    (of row 0), which also picks each chunk's product: prefix if
    recording, else tree.  Rows are taken _ROW_BLOCK at a time, so the
    working set does not grow with b."""
    dr = np.asarray(delta_r, dtype=float).reshape(-1, 1)
    b = max(v.shape[0], dr.shape[0])
    if {v.shape[0], dr.shape[0]} - {1, b}:
        raise InvalidPropagationInput(
            "delta_r needs one value or one per control row")
    if not np.all(np.isfinite(dr)):
        raise InvalidPropagationInput("delta_r must be finite")
    states = np.empty((n + 1, 4)) if record else None
    if record:
        states[0] = start
    pair = quat.row_pair(start)
    finals, drifts = np.empty((b, 4)), np.empty(b)
    # controls past ~1e154 overflow |v|^2, and steps past ~1e102 overflow
    # h^3; either shows as a non-finite multiplier norm, so a drift or a
    # state that is not finite
    with np.errstate(all="ignore"):
        for lo in range(0, b, _ROW_BLOCK):
            rows = slice(lo, lo + _ROW_BLOCK)
            qa, qb, drifts[rows] = _propagate_block(
                v[rows] if v.shape[0] > 1 else v, dr[rows] if dr.shape[0] > 1 else dr,
                sched, h, n, pair, states)
            finals[rows] = quat.pair_rows(qa, qb)
    if not (np.isfinite(drifts).all() and np.isfinite(finals).all()
            and (states is None or np.isfinite(states).all())):
        raise InvalidPropagationInput(
            "the RK4 steps overflow: the controls or the step are too large")
    return finals, drifts, states


def _propagate_block(v, dr, sched: PulseSchedule, h: float, n: int, start,
                     states):
    """One block of at most _ROW_BLOCK rows from the start pair; returns the
    final pairs and the drifts, and fills `states` with row 0's states
    unless it is None.

    Each step block builds the step multipliers of k whole chunks (the
    most with b k _STEP_CHUNK <= _BLOCK_CELLS, at least one; a final
    partial chunk is a block of its own) with one stage read and one
    _rk4_steps call, multiplies each chunk as one of b k rows, then folds
    the chunk products into the running state in order, normalizing after
    each chunk: the same products, in the same association, as one chunk
    at a time."""
    record = states is not None
    b = max(v.shape[0], dr.shape[0])
    qa, qb = np.full(b, start[0]), np.full(b, start[1])
    drift = np.zeros(b)
    per_block = max(1, _BLOCK_CELLS // (b * _STEP_CHUNK))
    done = 0
    while done < n:
        c = min(_STEP_CHUNK, n - done)
        k = max(1, min(per_block, (n - done) // _STEP_CHUNK))
        if sched.interpolation == INTERP_PCONST:
            mid = (done + np.arange(k * c) + 0.5) * h
            seg = np.clip((mid / sched.spacing).astype(int), 0, v.shape[1] - 2)
            x = v[:, seg]
            ma, mb = _rk4_steps(x, x, x, dr, h)
        else:
            # step ends, then midpoints: unit-stride rows for _rk4_steps
            kc = k * c
            ends = 2 * (done + np.arange(kc + 1))
            x = _stage_values(v, sched, h, np.concatenate([ends, ends[:-1] + 1]))
            ma, mb = _rk4_steps(x[:, :kc], x[:, kc + 1:], x[:, 1:kc + 1], dr, h)
        np.maximum(drift, np.max(np.abs(_norm(ma, mb) - 1.0), axis=1), out=drift)
        ma, mb = ma.reshape(b * k, c), mb.reshape(b * k, c)
        pa, pb = _prefix_product(ma, mb) if record else _tree_product(ma, mb)
        pa, pb = pa.reshape(b, k, -1), pb.reshape(b, k, -1)
        for j in range(k):
            sa, sb = quat.pmul(pa[:, j], pb[:, j], qa[:, None], qb[:, None])
            _normalize(sa, sb)
            if record:
                states[done + 1:done + c + 1] = quat.pair_rows(sa[0], sb[0])
            qa, qb = sa[:, -1], sb[:, -1]
            done += c
    return qa, qb, drift


def propagate(sched: PulseSchedule, delta_r: float = 0.0,
              h: float | None = None, start: UnitQuaternion = quat.ONE,
              ) -> PropagationResult:
    """Integrate one schedule from `start` (default: the identity)."""
    n, h = _resolve_steps(sched, h)
    finals, drift, states = _propagate_rows(
        _control_rows([sched]), sched, delta_r, h, n, start.as_array(), record=True)
    t = np.arange(n + 1) * h
    return PropagationResult(quat.as_unit(finals[0]), t, states, float(drift[0]))


def propagate_final_batch(scheds: list[PulseSchedule], delta_r=0.0,
                          h: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Terminal states for many schedules sharing one time grid, at one
    detuning or one per row (one schedule at b detunings gives b rows).

    Returns (finals (b, 4), max_norm_drift (b,)).  Used for bulk
    verification where per-step trajectories are not needed.
    """
    if len(scheds) == 0:
        raise InvalidPropagationInput("empty batch")
    first = scheds[0]
    grid = (first.duration, first.n_intervals, first.interpolation)
    for s in scheds[1:]:
        if (s.duration, s.n_intervals, s.interpolation) != grid:
            raise InvalidPropagationInput(
                "batch schedules must share grid and interpolation")
    n, h = _resolve_steps(first, h)
    finals, drifts, _ = _propagate_rows(_control_rows(scheds), first, delta_r, h, n,
                                        quat.ONE.as_array(), record=False)
    return finals, drifts


def detuning_sweep(sched: PulseSchedule, delta_r_list, target: UnitQuaternion,
                   h: float | None = None) -> DetuningSweep:
    """Terminal fidelity against `target` for each detuning offset."""
    dr = np.atleast_1d(np.asarray(delta_r_list, dtype=float))
    if dr.size == 0:
        raise InvalidPropagationInput("empty detuning list")
    finals, _ = propagate_final_batch([sched], dr, h)
    return DetuningSweep(dr, finals @ target.as_array())


def propagate_piecewise_exact(sched: PulseSchedule,
                              delta_r: float = 0.0) -> UnitQuaternion:
    """Exact propagation of a piecewise-constant schedule from the identity:
    the ordered product of one exponential per interval.  A non-finite
    delta_r or generator times dt raises InvalidPropagationInput."""
    if sched.interpolation != INTERP_PCONST:
        raise InvalidPropagationInput(
            "exact propagation needs a piecewise-constant schedule")
    if not math.isfinite(delta_r):
        raise InvalidPropagationInput("delta_r must be finite")
    q = quat.ONE
    dt = sched.spacing
    # products of Python floats overflow to inf without a numpy warning
    for u1, u2 in zip(sched.u1[:-1].tolist(), sched.u2[:-1].tolist()):
        v = ImagQuaternion(u1 * dt, u2 * dt, float(delta_r) * dt)
        if not math.isfinite(v.norm()):
            raise InvalidPropagationInput("generator times dt is not finite")
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
