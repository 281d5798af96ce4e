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
chunks are built at once, in one block of b rows x k chunks (k the most
with b k 256 <= 4096, at least one: up to 4096 cells for 16 rows or fewer,
b x 256 above, 16,384 for 64 rows), and each chunk of the block is
multiplied as its own row, so a single schedule costs a few dozen array
calls per block instead of per chunk, while the association, and so every
bit of the result, stays that of chunk-by-chunk propagation.  Batches are
propagated 64 rows at a time, control rows included, so memory does not
grow with the batch.  Desk-scale sweeps and thousand-target verification
runs stay fast without any compiled extension.  The quaternion norm is
multiplicative, so |m q| = |m| for unit q: normalizing each reported state
equals renormalizing after every step, and the drift audit is exactly
max_j ||m_j| - 1|, taken at each row's largest and smallest |m_j|^2.

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

Stepped at h = spacing / r, with r = 1, 2 or 4, every cubic stage sits at
one of the 2r phases p / 2r of its sample interval, and each phase is read
as one 4-tap sum over contiguous slices of the control rows, with weights
from one table per propagation, whose one-sided rows serve the end
intervals and the end point.  The sums are the gather's own, bit for bit.
Any other step gathers a 4-sample stencil per stage, as do linear reads;
from r = 8 the per-phase sums, 2r of them per block, cost more than the
gather, except on a single row, where the gather's fixed cost per stage
dominates: one row is read by phase at r = 8 and 16 too.  A batch at r = 8
or 16 gathers, but its stages still sit at exact phases, so every block of
steps over intervals 1..N - 3 reads the same weights on stencils shifted by
its first interval: they are built once per propagation, from the first
such block of each length, and dropped with it.  Every other block, step
and linear read computes its stencils and weights per block.
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
# steps per sample interval at which cubic stages are read by phase; from 8
# on the gather of _stage_values is faster, but for a single row
_PHASE_STEPS = (1, 2, 4)
_PHASE_STEPS_ONE_ROW = (1, 2, 4, 8, 16)


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


def _lagrange_weights(x0: np.ndarray) -> np.ndarray:
    """Weights (4, ...) of the Lagrange cubic through nodes 0, 1, 2, 3 at
    the positions x0."""
    x1, x2, x3 = x0 - 1.0, x0 - 2.0, x0 - 3.0
    return np.stack((x1 * x2 * x3 / -6.0, x0 * x2 * x3 / 2.0,
                     x0 * x1 * x3 / -2.0, x0 * x1 * x2 / 6.0))


def _stage_values(v: np.ndarray, sched: PulseSchedule, h: float,
                  half_steps: np.ndarray) -> np.ndarray:
    """The complex sample rows `v` (b, N + 1) read at the RK4 stage times
    i h/2, i in `half_steps`, clamped to T, on the interpolant `sched`
    declares, as (b, len(half_steps)); all rows are gathered from one index
    computation.  Linear reads the line through samples i, i + 1 of the
    interval containing a stage; cubic the Lagrange cubic of _cubic_stencils.
    The weights are real and act on the real and imaginary parts alike."""
    if sched.interpolation == INTERP_CUBIC:
        return _gather(v, *_cubic_stencils(sched, h, half_steps))
    pos = np.minimum(half_steps * (0.5 * h), sched.duration) / sched.spacing
    idx = np.clip(np.floor(pos).astype(int), 0, sched.n_intervals - 1)
    frac = pos - idx
    return v[:, idx] * (1.0 - frac) + v[:, idx + 1] * frac


def _cubic_stencils(sched: PulseSchedule, h: float,
                    half_steps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The cubic reads at the stage times i h/2 of _stage_values: the (4, L)
    samples j..j + 3 of each, j = clip(i - 1, 0, N - 3) for the interval i
    containing it, and the (4, 2L) Lagrange weights there, each twice, for
    the real and the imaginary part; the weights at integer and
    half-integer positions are exact."""
    # h / spacing is exactly 1 at the default step, so stage endpoints
    # land on samples and midpoints halfway between
    pos = np.minimum(half_steps * (0.5 * h / sched.spacing), sched.n_intervals)
    last = sched.n_intervals - 1
    j = np.clip(np.clip(np.floor(pos).astype(int), 0, last) - 1, 0, last - 2)
    return j + np.arange(4)[:, None], np.repeat(_lagrange_weights(pos - j), 2, axis=1)


def _gather(v: np.ndarray, stencils: np.ndarray, w2: np.ndarray) -> np.ndarray:
    """The sums over k of v[:, stencils[k]] times the weights w2[k] of
    _cubic_stencils: one real contraction over interleaved parts."""
    return np.einsum("bkl,kl->bl", np.take(v, stencils, axis=1).view(float),
                     w2).view(complex)


def _exact_steps(sched: PulseSchedule, h: float, n: int) -> int:
    """r if a cubic schedule is stepped r times per sample interval, r in
    _PHASE_STEPS_ONE_ROW, with h / spacing exactly 1 / r, else 0: every
    stage then sits at a position x0 = q / 2r of its stencil, q = 0..6r,
    exactly."""
    r, rest = divmod(n, sched.n_intervals)
    if (sched.interpolation != INTERP_CUBIC or rest or r not in _PHASE_STEPS_ONE_ROW
            or 0.5 * h / sched.spacing != 0.5 / r):
        return 0
    return r


def _phase_table(sched: PulseSchedule, h: float, n: int, rows: int) -> list | None:
    """The stage weights of a cubic schedule stepped at _exact_steps r, with
    r in _PHASE_STEPS unless `rows` is 1: row q of the (6r + 1, 4) table
    holds the weights _stage_values computes at x0 = q / 2r.  None for every
    other schedule and step."""
    r = _exact_steps(sched, h, n)
    if not r or (rows > 1 and r not in _PHASE_STEPS):
        return None
    return _lagrange_weights(np.arange(6 * r + 1) / (2 * r)).T.tolist()


def _gathered_stages(v: np.ndarray, sched: PulseSchedule, h: float, r: int,
                     repeats: dict, done: int, kc: int) -> np.ndarray:
    """The (b, 2 kc + 1) step ends then midpoints of steps done..done + kc - 1
    by gather, bit for bit those of _stage_values.

    With r, the _exact_steps of the propagation (0 for none), a block of
    whole intervals i0..i1 - 1 (i0 = done / r, i1 = (done + kc) / r) with
    1 <= i0 and i1 <= N - 2 reads every stage on its centred stencil, at the
    same positions within its intervals as any other such block of kc steps:
    the same weights on stencils shifted by i0.  The first such block keeps
    its stencils, less its i0, and its weights in repeats[kc], a dict the
    propagation owns, and the others gather with them."""
    i0 = done // r if r else 0
    repeat = i0 >= 1 and (done + kc) // r <= sched.n_intervals - 2
    if not (repeat and kc in repeats):
        ends = 2 * (done + np.arange(kc + 1))
        half_steps = np.concatenate([ends, ends[:-1] + 1])
        if not repeat:
            return _stage_values(v, sched, h, half_steps)
        stencils, w2 = _cubic_stencils(sched, h, half_steps)
        repeats[kc] = stencils - i0, w2
    stencils, w2 = repeats[kc]
    return _gather(v, stencils + i0, w2)


def _phase_stages(v: np.ndarray, table: list, done: int, kc: int) -> np.ndarray:
    """The cubic stage values of steps done..done + kc - 1, both whole
    multiples of r, read by phase with the weights of _phase_table: the
    (b, 2 kc + 1) step ends then midpoints of _stage_values, bit for bit.

    Half-step phase p of interval i reads samples j..j + 3,
    j = clip(i - 1, 0, N - 3), with table row 2r (i - j) + p; the end point
    T is phase 2r of interval N - 1.  One phase of a run of intervals with
    the same i - j (the first interval, the inner ones, the last) is one sum
    over contiguous slices of the control rows."""
    two_r = (len(table) - 1) // 3
    r = two_r // 2
    b, last = v.shape[0], v.shape[1] - 2
    m, i0 = kc // r, done // r
    x = np.empty((b, 2 * kc + 1), dtype=complex)
    ends, mids = x[:, :kc].reshape(b, m, r), x[:, kc + 1:].reshape(b, m, r)
    vf = v.view(float)
    cuts = sorted({i0, i0 + m} | {i for i in (1, last) if i0 < i < i0 + m})
    for lo, hi in zip(cuts, cuts[1:]):
        j = min(max(lo - 1, 0), last - 2)
        for p in range(two_r):
            _taps(vf, j, table[two_r * (lo - j) + p],
                  (mids if p % 2 else ends)[:, lo - i0:hi - i0, p // 2])
    i = min(i0 + m, last)
    j = min(max(i - 1, 0), last - 2)
    _taps(vf, j, table[two_r * (i0 + m - j)], x[:, kc:kc + 1])
    return x


def _taps(vf: np.ndarray, j: int, w: list, out: np.ndarray) -> None:
    """out (b, m), complex = sum over k of w[k] times the m complex samples
    from j + k of the float rows vf: real sums, taps in order and from +0,
    as einsum sums them.  A tap of zero weight only adds a zero (the
    controls are finite), so it is left out."""
    m = out.shape[1]
    taps = [(vf[:, 2 * (j + k):2 * (j + k + m)], wk) for k, wk in enumerate(w) if wk]
    acc = np.multiply(*taps[0])
    for tap, wk in taps[1:]:
        acc += tap * wk
    np.add(acc.view(complex), 0.0, out=out)


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
        mb = (1.0 - g) * (v0 + v1) + 4.0 * vm
        mb += ((h - f) * dr) * (-1j * (v1 - v0))
    else:
        # the operations above less their dr terms, in place
        ma = v1 * c0
        ma *= f
        t = vm * c0
        t += vm.conj() * v1
        t += nm
        t *= h
        ma -= t
        mb = v0 + v1
        np.subtract(1.0, g, out=g)
        mb *= g
        mb += 4.0 * vm
    ma *= h / 6.0
    ma.real += 1.0
    mb *= h / 6.0
    return ma, mb


def _norm2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared norms of pairs, summed as w^2 + x^2 + y^2 + z^2
    (np.linalg.norm's order on the rows) at a fraction of its cost."""
    return a.real ** 2 + b.real ** 2 + b.imag ** 2 + a.imag ** 2


def _normalize(a: np.ndarray, b: np.ndarray) -> None:
    """Divide contiguous pairs by their norms in place, part by part."""
    n = np.sqrt(_norm2(a, b))[..., None]
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


def _propagate_rows(scheds: list[PulseSchedule], delta_r, h: float, n: int,
                    start: np.ndarray, record: bool):
    """Propagate b systems from the one start row (w, x, y, z) in lockstep
    on the grid and interpolation of scheds[0], for the schedules `scheds`
    (b, or one for all rows) and the detunings `delta_r` (one, or one per
    row); returns (finals (b, 4), drifts (b,), states), states only if
    `record` (of row 0), which also picks each chunk's product: prefix if
    recording, else tree.  Rows, their control rows included, are taken
    _ROW_BLOCK at a time, so the working set does not grow with b."""
    dr = np.asarray(delta_r, dtype=float).reshape(-1, 1)
    b = max(len(scheds), dr.shape[0])
    if {len(scheds), dr.shape[0]} - {1, b}:
        raise InvalidPropagationInput(
            "delta_r needs one value or one per control row")
    if not np.all(np.isfinite(dr)):
        raise InvalidPropagationInput("delta_r must be finite")
    states = np.empty((n + 1, 4)) if record else None
    if record:
        states[0] = start
    pair = quat.row_pair(start)
    table = _phase_table(scheds[0], h, n, b)
    # the repeated gather blocks live as long as this propagation, no longer
    r, repeats = _exact_steps(scheds[0], h, n), {}

    def read(v, done, kc):
        if table is not None:
            return _phase_stages(v, table, done, kc)
        return _gathered_stages(v, scheds[0], h, r, repeats, done, kc)

    finals, drifts = np.empty((b, 4)), np.empty(b)
    # controls past ~1e154 overflow |v|^2, and steps past ~1e102 overflow
    # h^3; either shows as a non-finite multiplier norm, so a drift or a
    # state that is not finite
    with np.errstate(all="ignore"):
        for lo in range(0, b, _ROW_BLOCK):
            rows = slice(lo, lo + _ROW_BLOCK)
            qa, qb, drifts[rows] = _propagate_block(
                _control_rows(scheds[rows] if len(scheds) > 1 else scheds),
                dr[rows] if dr.shape[0] > 1 else dr, scheds[0], read, h, n, pair,
                states)
            finals[rows] = quat.pair_rows(qa, qb)
    if not (np.isfinite(drifts).all() and np.isfinite(finals).all()
            and (states is None or np.isfinite(states).all())):
        raise InvalidPropagationInput(
            "the RK4 steps overflow: the controls or the step are too large")
    return finals, drifts, states


def _propagate_block(v, dr, sched: PulseSchedule, read, h: float, n: int, start,
                     states):
    """One block of at most _ROW_BLOCK rows from the start pair; returns the
    final pairs and the drifts, and fills `states` with row 0's states
    unless it is None.  Cubic and linear stages come from `read(v, done,
    kc)`, the propagation's stage read: by phase with its _phase_table, else
    by _gathered_stages.

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
            x = read(v, done, kc)
            ma, mb = _rk4_steps(x[:, :kc], x[:, kc + 1:], x[:, 1:kc + 1], dr, h)
        # sqrt is monotone and |x - 1| falls, then rises, so a row's largest
        # ||m| - 1| is at its largest or smallest squared norm
        sq = _norm2(ma, mb)
        ext = np.sqrt(np.stack((sq.max(axis=1), sq.min(axis=1))))
        np.maximum(drift, np.abs(ext - 1.0).max(axis=0), out=drift)
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
        [sched], delta_r, h, n, start.as_array(), record=True)
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
    finals, drifts, _ = _propagate_rows(scheds, delta_r, h, n, quat.ONE.as_array(),
                                        record=False)
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
