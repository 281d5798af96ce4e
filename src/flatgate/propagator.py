"""Numerical propagation of dq/dt = (u1 e1 + u2 e2 + delta_r e3) q.

Classical fourth-order Runge-Kutta, and the exact exponential for held
("pconst") controls. Because the dynamics is linear in q and
left-multiplies it by a pure quaternion, one RK4 step is left
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
step (|u| beyond ~1e154 for RK4, h |u| beyond the float range for a held
step) raise InvalidPropagationInput rather than propagate NaN.
Steps are multiplied in chunks of 256: a recorded run applies each chunk
as one log-depth prefix product, a terminal-only run as one pairwise tree
product (c - 1 pair products for c steps).  The steps of several whole
chunks are built at once, in one block of b rows x k chunks (k the most
with b k 256 <= 4096, at least one: up to 4096 cells for 16 rows or fewer,
b x 256 above, 16,384 for 64 rows), and each chunk of the block is
multiplied as its own row, so a single schedule costs a few dozen array
calls per block instead of per chunk, while the association, and so every
bit of the result, stays that of chunk-by-chunk propagation.  Batches are
propagated 64 rows at a time, and each row block reads its controls
through a window of sample columns, copied from the schedules' u1 and u2
for the most whole step blocks that read 512 sample intervals (at least
one block).  Each propagation builds all its step blocks in one
workspace, allocated once and shared by its row blocks: the control
window, the stage values, the step multipliers, and one scratch region
for the intermediates of the RK4 step and the drift audit, and of the
stage read, which runs before the multipliers are written and so takes
their buffers too, each written with out= in the operations, operand
order and association of the expression it stands for, so with the same
bits.  Its
size follows from the row block and the block shape, so memory grows
neither with the batch nor with N (~2.1 MB for 64 rows, where whole
control rows of 2^18 intervals hold 268 MB), and no block allocates an
array of its own size: allocated per block, those arrays were returned to
the system and faulted back in, ~2,100 minor page faults per 64-row batch
of 8192 steps.  Only the chunk products, held steps' exponentials, the
weights of inexact cubic steps and the terms of linear reads still
allocate per block.
Desk-scale sweeps and thousand-target verification runs stay fast
without any compiled extension.  The quaternion norm is
multiplicative, so |m q| = |m| for unit q: normalizing each reported state
equals renormalizing after every step, and the drift audit is exactly
max_j ||m_j| - 1|, taken at each row's largest and smallest |m_j|^2.

Controls between samples are read according to the schedule's declared
interpolation: "cubic" and "linear" evaluate every RK4 stage on the
interpolant; "pconst" holds one value per step (taken from the segment
containing the step midpoint), and its step multiplier is the exponential
exp(h (i delta_r, v)) itself (quat.pexp), not RK4's polynomial, so steps
aligned with segment boundaries propagate each held segment exactly, to
rounding, at any step; propagate_piecewise_exact takes one step per
segment.  The cubic read is the local 4-point Lagrange cubic on samples
i-1..i+2 (one-sided 0..3 and N-3..N on the end intervals; Keys, IEEE
Trans. ASSP 29(6), 1981), whose O(spacing^4) floor lets a cubic schedule
step at its own spacing: each stage endpoint is then a sample and each
midpoint (-1, 9, 9, -1)/16 of its neighbours.  Without an explicit step,
cubic schedules step at their spacing and the others take N
ceil(DEFAULT_STEP_DIVISOR / N) steps, whole steps per sample interval.

One step rule per propagation, _step_maker, is chosen from the
interpolation alone: the exponential for pconst, RK4 for the others.  For
these, one reader per propagation, _stage_reader, reads every block's
stages in two halves, the step ends and then the midpoints, each into its
slice of the workspace's stage buffer.  A linear half reads the line
through the two samples of each stage's interval; a cubic half gathers a
4-sample stencil per stage with its Lagrange weights.  A cubic schedule
stepped r times per sample interval, with h / spacing exactly 1 / r, puts
every stage at one of the 2r phases p / 2r of its interval, and its
weights are a row of one table per propagation, the Lagrange weights at
x0 = q / 2r, whose one-sided rows serve the end intervals and the end
point.  Its stencils and table rows are found by integer arithmetic on
the half-step index, and every block of steps over intervals 1..N - 3
reads the same weights on stencils shifted by its first interval, kept
once per propagation from the first such block of each length.  Every
other cubic step evaluates its stencils and weights per half at the
stages' positions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidPropagationInput, StepTooLarge
from . import quat
from .quat import UnitQuaternion
from .schedule import INTERP_CUBIC, INTERP_PCONST, MAX_SAMPLES, PulseSchedule, take_number

DEFAULT_STEP_DIVISOR = 8192
_STEP_CHUNK = 256
_BLOCK_CELLS = 16 * _STEP_CHUNK   # rows x steps built at once; 16 or more rows get one chunk per block
_ROW_BLOCK = 64               # batch rows propagated at once
_WINDOW_SAMPLES = 2 * _STEP_CHUNK  # control samples a window holds, unless one step block reads more
_EXACT_STEPS = (1, 2, 4, 8, 16)   # steps per sample interval read at exact phases


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


def _detunings(delta_r, one: bool = False) -> np.ndarray:
    """delta_r (one value if `one`) as a non-empty finite float vector."""
    dr = np.reshape(take_number(delta_r, "delta_r", ndim=0 if one else 1,
                                error=InvalidPropagationInput), -1)
    if dr.size == 0:
        raise InvalidPropagationInput("empty detuning list")
    if not np.isfinite(dr).all():
        raise InvalidPropagationInput("delta_r must be finite")
    return dr


def _resolve_steps(sched: PulseSchedule, h: float | None) -> tuple[int, float]:
    big_t = sched.duration
    if h is None:
        h = sched.spacing / (1 if sched.interpolation == INTERP_CUBIC
                             else math.ceil(DEFAULT_STEP_DIVISOR / sched.n_intervals))
    else:
        h = take_number(h, "step", error=InvalidPropagationInput)
    if h <= 0.0:
        raise InvalidPropagationInput("step must be positive")
    if h > sched.spacing * (1.0 + 1e-12):
        raise StepTooLarge(
            f"step {h!r} exceeds the sample spacing {sched.spacing!r}")
    if math.isnan(h):
        raise InvalidPropagationInput("step must be finite")
    if big_t / h > MAX_SAMPLES:
        raise InvalidPropagationInput(f"step {h!r} needs more than {MAX_SAMPLES} steps")
    n = max(1, round(big_t / h))
    return n, big_t / n


def _control_rows(scheds: list[PulseSchedule], cols: slice = slice(None),
                  out: np.ndarray | None = None) -> np.ndarray:
    """The complex amplitudes v = u1 + i u2 of the schedules at the sample
    columns `cols` (all N + 1 by default) as (b, len) rows, written in place
    with no real stacks beside them, into the flat complex buffer `out` if
    given (see _carve)."""
    shape = (len(scheds), scheds[0].u1[cols].shape[0])
    v = np.empty(shape, dtype=complex) if out is None else _carve(out, shape)
    vr, vi = v.real, v.imag
    for i, s in enumerate(scheds):
        vr[i], vi[i] = s.u1[cols], s.u2[cols]
    return v


def _window(sched: PulseSchedule, h: float, done: int, end: int) -> slice:
    """The sample columns that any stage read of steps done..end - 1 takes:
    the stencils j..j + 3, j = clip(i - 1, 0, N - 3), of the intervals i
    from the one holding the time done h to the one holding end h, widened
    by one interval at each end for the rounding of a read's positions."""
    x, big_n = h / sched.spacing, sched.n_intervals
    return slice(max(0, min(math.floor(done * x) - 2, big_n - 3)),
                 min(math.floor(end * x) + 4, big_n + 1))


def _lagrange_weights(x0: np.ndarray) -> np.ndarray:
    """Weights (4, ...) of the Lagrange cubic through nodes 0, 1, 2, 3 at
    the positions x0."""
    x1, x2, x3 = x0 - 1.0, x0 - 2.0, x0 - 3.0
    return np.stack((x1 * x2 * x3 / -6.0, x0 * x2 * x3 / 2.0,
                     x0 * x1 * x3 / -2.0, x0 * x1 * x2 / 6.0))


def _stencil_start(i, big_n: int):
    """The first sample j = clip(i - 1, 0, N - 3) of the cubic stencil of
    each interval i >= 0 of big_n, i = N meaning the end point T: every
    cubic read takes samples j..j + 3."""
    return np.clip(np.minimum(i, big_n - 1) - 1, 0, big_n - 3)


def _gather(v: np.ndarray, stencils: np.ndarray, w2: np.ndarray,
            out: np.ndarray, taken: np.ndarray) -> None:
    """The sums over k of v[:, stencils[k]] times the (4, 2L) weights w2[k],
    each twice, for the real and the imaginary part: one real contraction
    over interleaved parts, into the (b, 2L) floats `out` through the
    (b, 4, L) complex `taken`.  Every stencil lies in v by construction;
    mode "clip" lets np.take write into `taken` itself, where "raise" would
    fill a copy of it."""
    np.einsum("bkl,kl->bl", np.take(v, stencils, axis=1, out=taken, mode="clip").view(float),
              w2, out=out)


def _step_maker(sched: PulseSchedule, h: float, n: int):
    """The step rule of one propagation on `sched`, n steps of h, chosen
    from the interpolation alone: steps(v, first, done, kc, dr, ws) gives
    the multipliers (MA, MB), each (b, kc), of steps done..done + kc - 1 from
    the complex control rows v, whose column 0 is sample `first` (a _window
    of the steps or more), at the (b, 1) or (1, 1) detunings dr, in the
    _Workspace ws (a pconst step allocates its own).  A pconst step
    holds the segment containing its midpoint and is its exponential
    (quat.pexp); every other step is _rk4_steps on the _stage_reader."""
    if sched.interpolation == INTERP_PCONST:
        big_n = sched.n_intervals

        def steps(v, first, done, kc, dr, ws):
            mid = (done + np.arange(kc) + 0.5) * h
            x = v[:, np.clip((mid / sched.spacing).astype(int), 0, big_n - 1) - first]
            return quat.pexp(1j * (h * dr), h * x)
        return steps
    read = _stage_reader(sched, h, n)
    return lambda v, first, done, kc, dr, ws: _rk4_steps(*read(v, first, done, kc, ws), dr, h, ws)


def _exact_steps(sched: PulseSchedule, h: float, n: int) -> int:
    """r if the n steps of h on `sched` read a cubic at exactly r in
    _EXACT_STEPS steps per sample interval, so that every stage sits at a
    position x0 = q / 2r, q = 0..6r, of its stencil, exactly; else 0."""
    r, rest = divmod(n, sched.n_intervals)
    exact = (sched.interpolation == INTERP_CUBIC and not rest
             and r in _EXACT_STEPS and 0.5 * h / sched.spacing == 0.5 / r)
    return r if exact else 0


def _stage_reader(sched: PulseSchedule, h: float, n: int):
    """The stage read of one cubic or linear propagation on `sched`, n steps
    of h, by the rule of the module docstring: read(v, first, done, kc, ws)
    gives the stage values (v0, vm, v1), each (b, kc), of steps
    done..done + kc - 1 from the complex control rows v, whose column 0 is
    sample `first` (a _window of the steps or more), as _rk4_steps takes
    them, as views of the _Workspace ws's stage buffer.  At the exact
    ratios the reader holds one table of Lagrange weights, evaluated once
    per propagation; the repeated gather blocks live in the reader too,
    keyed by kc, and so no longer than the propagation."""
    big_n, cubic = sched.n_intervals, sched.interpolation == INTERP_CUBIC
    r = _exact_steps(sched, h, n)
    # the table's weights, each twice, for the real and the imaginary part
    w2 = (np.repeat(_lagrange_weights(np.arange(6 * r + 1) / (2 * r))[:, :, None], 2, axis=2)
          if r else None)
    repeats = {}

    def half_steps(done, kc):
        # the step ends and the midpoints, read into unit-stride rows for
        # _rk4_steps
        ends = 2 * (done + np.arange(kc + 1))
        return ends, ends[:-1] + 1

    def stencils(p, shift, at=None, w=None):
        # the cubic reads at the half steps p: the (4, L) samples j..j + 3
        # of each, j the _stencil_start of its interval, shifted by `shift`
        # into the ints `at` if given, and the (4, 2L) weights there, each
        # twice: at an exact ratio table rows q = p - 2r j, into the (4, L, 2)
        # floats `w` if given (np.take, as w2[:, q] is ~15 times slower),
        # else the Lagrange weights at the stages' positions
        if r:
            j = _stencil_start(p // (2 * r), big_n)
        else:
            pos = np.minimum(p * (0.5 * h / sched.spacing), big_n)
            j = _stencil_start(np.floor(pos).astype(int), big_n)
        return (np.add(j, np.arange(4)[:, None] + shift, out=at),
                np.take(w2, p - 2 * r * j, axis=1, out=w, mode="clip").reshape(4, -1) if r
                else np.repeat(_lagrange_weights(pos - j), 2, axis=1))

    def read(v, first, done, kc, ws):
        b = v.shape[0]
        x = _carve(ws.stages, (b, 2 * kc + 1))
        # at an exact ratio, whole intervals i0..i1 - 1, every stage on its
        # centred stencil: the weights of any other such block of kc steps,
        # on stencils shifted by i0
        i0 = done // r if r else 0
        inner = r and done >= r and (done + kc) // r <= big_n - 2
        if inner and kc not in repeats:
            repeats[kc] = [stencils(p, -i0) for p in half_steps(done, kc)]
        halves = repeats[kc] if inner else half_steps(done, kc)
        # the step ends, then the midpoints, each into its slice of the
        # stages; a cubic half is gathered in the workspace's spare region
        for half, out in zip(halves, (x[:, :kc + 1], x[:, kc + 1:])):
            if not cubic:
                # the line through samples i, i + 1 of each stage's interval
                pos = np.minimum(half * (0.5 * h), sched.duration) / sched.spacing
                idx = np.clip(np.floor(pos).astype(int), 0, big_n - 1)
                frac = pos - idx
                idx -= first
                np.add(v[:, idx] * (1.0 - frac), v[:, idx + 1] * frac, out=out)
                continue
            size = out.shape[1]
            taken = _carve(ws.spare, (b, 4, size))
            at = _carve(ws.spare[4 * b * size:].view(np.intp), (4, size))
            if inner:
                at, w = np.add(half[0], i0 - first, out=at), half[1]
            else:
                at, w = stencils(half, -first, at, _carve(
                    ws.spare[(4 * b + 2) * size:].view(float), (4, size, 2)))
            _gather(v, at, w, out.view(float), taken)
        return x[:, :kc], x[:, kc + 1:], x[:, 1:kc + 1]
    return read


def _rk4_steps(v0, vm, v1, dr, h: float, ws: _Workspace) -> tuple[np.ndarray, np.ndarray]:
    """RK4 step multipliers m = 1 + h/6 (k1 + 2k2 + 2k3 + k4) as pairs
    (MA, MB) of (b, c) arrays, from the complex stage values v of the
    generators a = (i dr, v) at the step start, midpoint and end: (b, c)
    arrays, or (1, c) rows that broadcast against a (b, 1) detuning column.

    With am^2 = -N, N = |am|^2, the stages expand to k2 = am + h/2 am a0,
    k3 = am - hN/2 - (h^2 N/4) a0 and k4 = a1 + h a1 am - (h^2 N/2) a1
    - (h^3 N/4) a1 a0; the products of generators reduce to products
    v conj(v') of the amplitudes, whose e3 parts share dr.  With s = v0 + v1
    and d = v1 - v0:
      MA = 1 + h/6 ((v1 conj(v0) + dr^2) f - (vm conj(v0) + conj(vm) v1
           + 2 dr^2 + N) h + i (6 - 2g) dr),
      MB = h/6 (s (1 - g) + 4 vm + (h - f) dr (-i d)),
    where g = h^2 N / 2 and f = h^3 N / 4.  One sequence computes both; the
    dr terms are added only where a row block has a nonzero detuning.  MA and
    MB are views of the _Workspace ws's multiplier buffers, and every
    intermediate is written into its scratch: the same operations, operands
    and order as the expressions, so the same bits.
    """
    detuned = dr.any()
    shape = (max(v0.shape[0], dr.shape[0]), v0.shape[1])
    ma, mb = _carve(ws.ma, shape), _carve(ws.mb, shape)
    # one complex and three float arrays of scratch: each buffer takes the
    # next value once its last reader is done, and mb holds a temporary
    # before its own value
    t = _carve(ws.scratch, shape)
    nm, g, f = _carve(ws.scratch[math.prod(shape):].view(float), (3,) + shape)
    np.multiply(vm.real, vm.real, out=nm)
    nm += np.multiply(vm.imag, vm.imag, out=g)
    if detuned:
        dd = dr * dr
        nm += dd
    np.multiply(0.5 * h * h, nm, out=g)
    # a numpy power, the same value as h ** 3, overflows to inf where a float
    # power raises OverflowError; _propagate_rows rejects the result
    np.multiply(0.25 * np.float64(h) ** 3, nm, out=f)
    c0 = np.conjugate(v0, out=t)
    # temporaries stay left factors of complex products (see quat.pmul)
    np.multiply(v1, c0, out=ma)
    if detuned:
        ma += dd
    ma *= f
    np.multiply(vm, c0, out=t)
    t += np.multiply(np.conjugate(vm, out=mb), v1, out=mb)
    t += np.add(2.0 * dd, nm, out=nm) if detuned else nm
    t *= h
    ma -= t
    if detuned:
        ma.imag += np.multiply(np.subtract(6.0, np.multiply(2.0, g, out=nm), out=nm), dr, out=nm)
    np.add(v0, v1, out=mb)
    np.subtract(1.0, g, out=g)
    mb *= g
    mb += np.multiply(4.0, vm, out=t)
    if detuned:
        np.multiply(np.subtract(h, f, out=f), dr, out=f)
        mb += np.multiply(f, np.multiply(-1j, np.subtract(v1, v0, out=t), out=t), out=t)
    ma *= h / 6.0
    ma.real += 1.0
    mb *= h / 6.0
    return ma, mb


def _norm2(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None,
           tmp: np.ndarray | None = None) -> np.ndarray:
    """Squared norms of pairs, summed as w^2 + x^2 + y^2 + z^2
    (np.linalg.norm's order on the rows) at a fraction of its cost, in the
    float arrays `out` and `tmp` of the pairs' shape if given."""
    sq = np.square(a.real, out=out)
    for part in (b.real, b.imag, a.imag):
        sq += np.square(part, out=tmp)
    return sq


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


def _block_steps(rows: int, sched: PulseSchedule, h: float) -> tuple[int, int]:
    """The steps of one step block of `rows` rows, the most whole chunks with
    rows x steps <= _BLOCK_CELLS (at least one), and of one control window,
    the most whole blocks that read _WINDOW_SAMPLES sample intervals (at
    least one)."""
    block = max(1, _BLOCK_CELLS // (rows * _STEP_CHUNK)) * _STEP_CHUNK
    return block, max(1, int(_WINDOW_SAMPLES * sched.spacing / h) // block) * block


def _carve(flat: np.ndarray, shape: tuple) -> np.ndarray:
    """The leading cells of the flat buffer `flat` as a contiguous array of
    `shape`."""
    return flat[:math.prod(shape)].reshape(shape)


class _Workspace:
    """One propagation's working set, carved from one allocation and shared
    by its row blocks: the control `window`, the `stages`, the multipliers
    `ma` and `mb`, and a `scratch` that _rk4_steps and the drift audit take
    in turn from its start, so that it stays in cache (one complex and
    three float multiplier-sized arrays).  The stage read is done before
    the multipliers are written, and takes the multipliers and the scratch
    as one `spare` region for the samples, stencils and weights of half a
    cubic gather, which the scratch is extended to hold.  Sized for
    step blocks of `rows` x `steps` and windows of `cols` columns."""

    def __init__(self, rows: int, steps: int, cols: int):
        cells = rows * steps
        scratch = max(-(-5 * cells // 2), (4 * rows + 6) * (steps + 1) - 2 * cells)
        sizes = np.cumsum([rows * cols, 2 * cells + rows, cells, cells])
        buf = np.empty(sizes[-1] + scratch, dtype=complex)
        self.window, self.stages, self.ma, self.mb, self.scratch = np.split(buf, sizes)
        self.spare = buf[sizes[1]:]

    @classmethod
    def of(cls, rows: int, sched: PulseSchedule, h: float, n: int) -> _Workspace:
        """The workspace of n steps of h on `sched`'s grid in row blocks of at
        most `rows` rows, sized by their step blocks and windows cut to the n
        steps, never by the batch or N; a smaller last row block needs no
        more of any buffer.  A window reads at most floor(span h / spacing)
        + 7 columns, one more for the rounding of its ends."""
        block, span = _block_steps(rows, sched, h)
        block = min(block, -(-n // _STEP_CHUNK) * _STEP_CHUNK)
        cols = min(sched.n_intervals + 1, math.floor(min(span, n) * h / sched.spacing) + 8)
        return cls(rows, block, cols)


def _propagate_rows(scheds: list[PulseSchedule], dr: np.ndarray, h: float, n: int,
                    start: np.ndarray, record: bool):
    """Propagate b systems from the one start row (w, x, y, z) in lockstep
    on the grid and interpolation of scheds[0], for the schedules `scheds`
    (b, or one for all rows) and the detunings `dr` of _detunings (one, or
    one per row); returns (finals (b, 4), drifts (b,), states), states only
    if `record` (of row 0), which also picks each chunk's product: prefix if
    recording, else tree.  Rows are taken _ROW_BLOCK at a time, each block
    reads its control rows one window of sample columns at a time, and all
    blocks are built in one _Workspace, so the working set grows neither
    with b nor with N."""
    dr = dr[:, None]
    b = max(len(scheds), len(dr))
    if {len(scheds), len(dr)} - {1, b}:
        raise InvalidPropagationInput("delta_r needs one value or one per control row")
    states = np.empty((n + 1, 4)) if record else None
    if record:
        states[0] = start
    pair = quat.row_pair(start)
    steps = _step_maker(scheds[0], h, n)
    ws = _Workspace.of(min(b, _ROW_BLOCK), scheds[0], h, n)
    finals, drifts = np.empty((b, 4)), np.empty(b)
    # controls past ~1e154 overflow |v|^2, steps past ~1e102 overflow h^3,
    # and a held step whose angle h |v| overflows is NaN after quat.pexp;
    # each shows as a non-finite multiplier norm, so a drift or
    # a state that is not finite
    with np.errstate(all="ignore"):
        for lo in range(0, b, _ROW_BLOCK):
            rows = slice(lo, lo + _ROW_BLOCK)
            qa, qb, drifts[rows] = _propagate_block(
                scheds[rows] if len(scheds) > 1 else scheds,
                dr[rows] if dr.shape[0] > 1 else dr, steps, h, n, pair, states, ws)
            finals[rows] = quat.pair_rows(qa, qb)
    if not (np.isfinite(drifts).all() and np.isfinite(finals).all()
            and (states is None or np.isfinite(states).all())):
        raise InvalidPropagationInput(
            "the steps overflow: the controls or the step are too large")
    return finals, drifts, states


def _propagate_block(scheds, dr, steps, h: float, n: int, start, states, ws: _Workspace):
    """One block of at most _ROW_BLOCK rows from the start pair; returns the
    final pairs and the drifts, and fills `states` with row 0's states
    unless it is None.  The step multipliers come from the propagation's
    _step_maker `steps`.

    Each step block builds the step multipliers of k whole chunks (the
    most with b k _STEP_CHUNK <= _BLOCK_CELLS, at least one; a final
    partial chunk is a block of its own) with one `steps` call, multiplies
    each chunk as one of b k rows, then folds the chunk products into the
    running state in order, normalizing after each chunk: the same
    products, in the same association, as one chunk at a time.  The steps
    read control rows of the _window columns of the most whole step blocks
    that read _WINDOW_SAMPLES sample intervals, at least one block: the same
    samples, so the same bits, as from whole rows, at one row slice per
    window.  The window, the stage values, the multipliers and the
    intermediates of the stage read, the step and the drift audit are views
    of the propagation's _Workspace ws, overwritten block after block; only
    the chunk products, a pconst block's exponentials, an inexact cubic
    step's weights and a linear read's terms are allocated per block."""
    record = states is not None
    b = max(len(scheds), dr.shape[0])
    qa, qb = np.full(b, start[0]), np.full(b, start[1])
    drift = np.zeros(b)
    block, span = _block_steps(b, scheds[0], h)
    per_block = block // _STEP_CHUNK
    done = end = 0
    while done < n:
        c = min(_STEP_CHUNK, n - done)
        k = max(1, min(per_block, (n - done) // _STEP_CHUNK))
        if done + k * c > end:
            end = min(n, done + span)
            cols = _window(scheds[0], h, done, end)
            v = _control_rows(scheds, cols, ws.window)
        ma, mb = steps(v, cols.start, done, k * c, dr, ws)
        # sqrt is monotone and |x - 1| falls, then rises, so a row's largest
        # ||m| - 1| is at its largest or smallest squared norm
        sq = _norm2(ma, mb, *_carve(ws.scratch.view(float), (2,) + ma.shape))
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
    """Integrate one schedule from `start` (default: the identity) at one
    detuning; an explicit step h runs n = round(T/h) steps of T/n, the grid t holds."""
    if not isinstance(start, UnitQuaternion):
        raise InvalidPropagationInput(f"start must be a UnitQuaternion, not {type(start).__name__}")
    n, h = _resolve_steps(sched, h)
    finals, drift, states = _propagate_rows(
        [sched], _detunings(delta_r, one=True), h, n, start.as_array(), record=True)
    t = np.arange(n + 1) * h
    return PropagationResult(quat.as_unit(finals[0]), t, states, float(drift[0]))


def propagate_final_batch(scheds: list[PulseSchedule], delta_r=0.0,
                          h: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Terminal states for many schedules sharing one time grid, at one
    detuning or one per row (one schedule at b detunings gives b rows).

    Returns (finals (b, 4), max_norm_drift (b,)), for bulk verification
    without trajectories; an explicit step h is rounded as in propagate.
    """
    if len(scheds) == 0:
        raise InvalidPropagationInput("empty batch")
    if len({(s.duration, s.n_intervals, s.interpolation) for s in scheds}) > 1:
        raise InvalidPropagationInput("batch schedules must share grid and interpolation")
    n, h = _resolve_steps(scheds[0], h)
    finals, drifts, _ = _propagate_rows(scheds, _detunings(delta_r), h, n,
                                        quat.ONE.as_array(), record=False)
    return finals, drifts


def detuning_sweep(sched: PulseSchedule, delta_r_list, target: UnitQuaternion,
                   h: float | None = None) -> DetuningSweep:
    """Terminal fidelity against `target` per detuning; h rounds as in propagate."""
    if not isinstance(target, UnitQuaternion):
        raise InvalidPropagationInput(f"target must be a UnitQuaternion, not {type(target).__name__}")
    dr = _detunings(delta_r_list)
    finals, _ = propagate_final_batch([sched], dr, h)
    return DetuningSweep(dr, finals @ target.as_array())


def propagate_piecewise_exact(sched: PulseSchedule,
                              delta_r: float = 0.0) -> UnitQuaternion:
    """Exact propagation of a piecewise-constant schedule from the identity:
    the ordered product of one exponential per interval, as N steps of the
    spacing on the batched kernel.  A non-finite delta_r, or a segment whose
    generator times dt overflows, raises InvalidPropagationInput."""
    if sched.interpolation != INTERP_PCONST:
        raise InvalidPropagationInput(
            "exact propagation needs a piecewise-constant schedule")
    finals, _, _ = _propagate_rows([sched], _detunings(delta_r, one=True), sched.spacing,
                                   sched.n_intervals, quat.ONE.as_array(), record=False)
    return quat.as_unit(finals[0])
