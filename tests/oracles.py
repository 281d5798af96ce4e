"""Reference implementations the tests check the planner against.

rates_arrays evaluates the lift's body rates w1, w2, w3 and the
derivatives of w2, w3 with sin and cos of both alpha and beta.  Passed
through flat.lift_controls and unwrap_phase it gives, by the general route,
the controls and the phase of z = w2 - i*w3 that the planner writes in
closed form from alpha and beta' alone.  closed_form_phase is that closed
phase on the whole Z_GRID s grid, as the planner once evaluated it for every
target; the planner's scalar witnesses are pinned to it.

sampled_controls and sampled_plan are Plan.controls and sample_plan's
arithmetic as they were written with one CubicPair evaluation per factor
(s * 3.0 and s * 6.0 made twice) and np.sin, np.cos of 2 alpha; synthesize
must stay within rounding of them.  tangent_controls and tangent_plan are
the same controls by the planner's present arithmetic, written plainly:
the cubics and their derivatives as one matrix product of a 5 x 4 table in
powers of s - 1/2 with those powers, per block of planner.CONTROL_BLOCK
columns, sin and cos of 2 alpha from tan(alpha), and the rotation by eta_bar
as one more matrix product; synthesize must match them byte for byte.
unwarped_schedule samples a plan in virtual time, without the clock.

chunked_rows is the pair kernel one 256-step chunk at a time, as it was
before steps were built in blocks of whole chunks, reading the stages in
time order, with np.linalg.norm on (w, x, y, z) rows for the drift audit
and the state normalization.  Every stage value is computed here; cubic
ones by one gather per chunk, through verbatim copies of the propagator's
_lagrange_weights, _cubic_stencils and _gather, so that a changed weight
in the package does not change the reference too.  Its RK4 steps are
_rk4_steps as it was before the propagator built them in a workspace: each
expression allocates its own result.  A held (pconst) step is
the exponential of its segment's generator, quat.pexp.  Propagation of all
three interpolations must match it bit for bit.

row_kernel is the propagation kernel as it was on real (w, x, y, z) rows,
before steps and states became complex pairs: its own Hamilton product,
two real stage reads, the real closed-form RK4 step and, for held
segments, the real exponential (cos phi, sin(phi)/phi (x, y, z)).  Public
outputs must match it to rounding.

piecewise_exact is exact propagation of a piecewise-constant schedule as
it was before it ran on the batched kernel: one scalar exponential per
segment (math.hypot, sin and cos), multiplied into the state one segment at
a time by the 16-term Hamilton product and renormalized as UnitQuaternion
does.  The kernel's tree association must stay within 1e-13 of it.

per_value_csv is the CSV text of one format(v, ".17g") call per value,
which the CLI's block writer must match byte for byte.  pow10_rows is the
writer's table of 10**k built one row at a time, each row's 120 bits from
its own power of ten (a division for k < 0), which cli._pow10_table must
match bit for bit.

ode_residual is the central-difference residual of the dynamics on a
recorded trajectory, the check of a propagator or a lift inversion that
needs no reference solution.
"""
import math

import numpy as np

from flatgate import quat
from flatgate.flat import lift_controls, unwrap_phase
from flatgate.planner import CONTROL_BLOCK, DEFAULT_SAMPLES, plan_controls, smoothstep
from flatgate.propagator import _STEP_CHUNK, _prefix_product, _tree_product
from flatgate.quat import UnitQuaternion, pair_rows, pmul, row_pair
from flatgate.schedule import INTERP_CUBIC, INTERP_PCONST, PulseSchedule

Z_GRID = 2048                    # the s grid of the phase oracles


def rates_arrays(c, s):
    """Body rates of the lift and the derivatives of w2, w3, all closed form."""
    s = np.asarray(s, dtype=float)
    al, be = c.alpha(s), c.beta(s)
    da, db = c.dalpha(s), c.dbeta(s)
    dda, ddb = c.ddalpha(s), c.ddbeta(s)
    sa, ca_, sb, cb = np.sin(al), np.cos(al), np.sin(be), np.cos(be)
    # q = db * sin(al) cos(al); w2 - i w3 = exp(-i be)(da - i q)
    q = db * sa * ca_
    qd = ddb * sa * ca_ + da * db * (ca_ * ca_ - sa * sa)
    w1 = db * sa * sa
    w2 = da * cb - q * sb
    w3 = da * sb + q * cb
    w2d = dda * cb - da * db * sb - qd * sb - q * db * cb
    w3d = dda * sb + da * db * cb + qd * cb - q * db * sb
    return w1, w2, w3, w2d, w3d


def oracle_controls(plan, s):
    """lift_controls of the rates, rotated back by eta_bar."""
    a, b = lift_controls(*rates_arrays(plan.cubics, s))
    ce, se = math.cos(plan.dec.eta_bar), math.sin(plan.dec.eta_bar)
    return ce * a + se * b, -se * a + ce * b


def oracle_phase(c):
    """Unwrapped phase of z on the Z_GRID s grid and the grid min of |z|."""
    _, w2, w3, _, _ = rates_arrays(c, np.linspace(0.0, 1.0, Z_GRID))
    z = w2 - 1j * w3
    return unwrap_phase(z, 0.0), float(np.min(np.abs(z)))


def closed_form_phase(c):
    """theta = atan2(-q, alpha') - beta on the Z_GRID s grid, relative to
    s = 0, and the grid min of |z| = sqrt(alpha'^2 + q^2), with
    q = beta' sin(2 alpha) / 2."""
    s = np.linspace(0.0, 1.0, Z_GRID)
    da = c.dalpha(s)
    q = 0.5 * c.dbeta(s) * np.sin(2.0 * c.alpha(s))
    theta = np.arctan2(-q, da) - c.beta(s)
    theta -= theta[0]
    return theta, float(np.sqrt(np.min(da * da + q * q)))


def sampled_controls(plan, s):
    """(u1, u2, min |z|) of plan at the virtual times s, one cubic
    evaluation per factor."""
    c, s = plan.cubics, np.asarray(s, dtype=float)
    two_al = 2.0 * c.alpha(s)
    sn, cs = np.sin(two_al), np.cos(two_al)
    da, db = c.dalpha(s), c.dbeta(s)
    q = 0.5 * db * sn
    qd = c.ddbeta(s) * 0.5 * sn + da * db * cs
    mag2 = da * da + q * q
    min_abs_z = math.sqrt(float(np.min(mag2)))
    a = 0.5 * ((c.ddalpha(s) * q - qd * da) / mag2 - cs * db)
    b = np.sqrt(mag2)
    ce, se = math.cos(plan.dec.eta_bar), math.sin(plan.dec.eta_bar)
    return a * ce + b * se, a * -se + b * ce, min_abs_z


def sampled_plan(plan, big_t, n, k):
    """(u1, u2, min |z|) of plan on n uniform intervals of [0, T] through
    the order-k clock."""
    s, sd = smoothstep(np.linspace(0.0, big_t, n + 1), big_t, k)
    u1, u2, min_abs_z = sampled_controls(plan, s)
    u1 *= sd
    u2 *= sd
    u1[0] = u1[-1] = 0.0
    u2[0] = u2[-1] = 0.0
    return u1, u2, min_abs_z


def centred(c):
    """Coefficients of the cubic c in powers of s - 1/2: its value and
    derivatives at 1/2 over k!."""
    c0, c1, c2, c3 = c
    return (c0 + 0.5 * (c1 + 0.5 * (c2 + 0.5 * c3)), c1 + c2 + 0.75 * c3, c2 + 1.5 * c3, c3)


def tangent_controls(plan, s):
    """(u1, u2, min |z|) of plan at the virtual times s by the tangent route."""
    (a0, a1, a2, a3), (b0, b1, b2, b3) = centred(plan.cubics.ca), centred(plan.cubics.cb)
    table = np.array([[a0, a1, a2, a3],                   # alpha
                      [0.5 * b1, b2, 1.5 * b3, 0.0],      # beta' / 2
                      [0.5 * b2, 1.5 * b3, 0.0, 0.0],     # beta'' / 4
                      [a2, 3.0 * a3, 0.0, 0.0],           # alpha'' / 2
                      [a1, 2.0 * a2, 3.0 * a3, 0.0]])     # alpha'
    ce, se = math.cos(plan.dec.eta_bar), math.sin(plan.dec.eta_bar)
    rotation = np.array([[ce, se], [-se, ce]])
    x = np.asarray(s, dtype=float) - 0.5
    powers = np.stack([np.ones_like(x), x, x * x, x * x * x])
    blocks, min_abs_z = [], math.inf
    for lo in range(0, x.shape[0], CONTROL_BLOCK):
        al, half_db, quarter_ddb, half_dda, da = table @ powers[:, lo:lo + CONTROL_BLOCK]
        t = np.tan(al)
        sn = (t + t) / (t * t + 1.0)
        cs = (1.0 - t * t) / (t * t + 1.0)
        q = half_db * sn
        bc = half_db * cs
        half_dq = quarter_ddb * sn + da * bc
        mag2 = da * da + q * q
        min_abs_z = min(min_abs_z, math.sqrt(float(np.min(mag2))))
        a = (half_dda * q - da * half_dq) / mag2 - bc
        blocks.append(rotation @ np.stack([a, np.sqrt(mag2)]))
    u1, u2 = np.concatenate(blocks, axis=1)
    return u1, u2, min_abs_z


def tangent_plan(plan, big_t, n, k):
    """tangent_controls of plan on n uniform intervals of [0, T] through the
    order-k clock, as sampled_plan has them."""
    s, sd = smoothstep(np.linspace(0.0, big_t, n + 1), big_t, k)
    u1, u2, min_abs_z = tangent_controls(plan, s)
    u1 = u1 * sd
    u2 = u2 * sd
    u1[0] = u1[-1] = 0.0
    u2[0] = u2[-1] = 0.0
    return u1, u2, min_abs_z


def unwarped_schedule(qbar, n=DEFAULT_SAMPLES):
    """The plan of qbar sampled directly in virtual time on [0, 1] (no clock
    warp, endpoint controls nonzero), to check reparameterization
    invariance."""
    plan = plan_controls(qbar)
    u1, u2, min_abs_z = plan.controls(np.linspace(0.0, 1.0, n + 1))
    return PulseSchedule(1.0, u1, u2, target=qbar, interpolation=INTERP_CUBIC,
                         warp_order=None, eta_bar=plan.dec.eta_bar, min_abs_z=min_abs_z)


def chunked_rows(v, sched, delta_r, h, n, start, record):
    """(finals, drifts, states) of b systems in lockstep from the start row,
    chunk by chunk, for complex control rows v."""
    dr = np.asarray(delta_r, dtype=float).reshape(-1, 1)
    b = max(v.shape[0], dr.shape[0])
    qa, qb = (np.full(b, p) for p in row_pair(start))
    states = np.empty((n + 1, 4)) if record else None
    if record:
        states[0] = start
    drift = np.zeros(b)
    done = 0
    while done < n:
        c = min(_STEP_CHUNK, n - done)
        if sched.interpolation == INTERP_PCONST:
            mid = (done + np.arange(c) + 0.5) * h
            seg = np.clip((mid / sched.spacing).astype(int), 0, v.shape[1] - 2)
            ma, mb = quat.pexp(1j * (h * dr), h * v[:, seg])
        else:
            if sched.interpolation == INTERP_CUBIC:
                x = _gather(v, *_cubic_stencils(sched, h, 2 * done + np.arange(2 * c + 1)))
            else:
                x = _linear_stages(v, sched, h, done, c)
            ma, mb = _rk4_steps(x[:, 0:-1:2], x[:, 1::2], x[:, 2::2], dr, h)
        norms = np.linalg.norm(pair_rows(ma, mb), axis=-1)
        np.maximum(drift, np.max(np.abs(norms - 1.0), axis=1), out=drift)
        pa, pb = _prefix_product(ma, mb) if record else _tree_product(ma, mb)
        qs = pair_rows(*pmul(pa, pb, qa[:, None], qb[:, None]))
        qs /= np.linalg.norm(qs, axis=-1, keepdims=True)
        if record:
            states[done + 1:done + c + 1] = qs[0]
        qa, qb = row_pair(qs[:, -1])
        done += c
    return pair_rows(qa, qb), drift, states


def _rk4_steps(v0, vm, v1, dr, h):
    """propagator._rk4_steps with fresh arrays for every intermediate."""
    detuned = dr.any()
    if not detuned and dr.shape[0] > v0.shape[0]:
        # one control row for b undetuned systems
        v0, vm, v1 = (np.broadcast_to(x, (dr.shape[0], x.shape[1])) for x in (v0, vm, v1))
    nm = vm.real * vm.real + vm.imag * vm.imag
    if detuned:
        dd = dr * dr
        nm = nm + dd
    g = (0.5 * h * h) * nm
    f = (0.25 * np.float64(h) ** 3) * nm
    c0 = v0.conj()
    # temporaries stay left factors of complex products (see quat.pmul)
    if detuned:
        ma = f * (v1 * c0 + dd) - h * (vm * c0 + vm.conj() * v1 + (2.0 * dd + nm))
        ma.imag += (6.0 - 2.0 * g) * dr
        mb = (1.0 - g) * (v0 + v1) + 4.0 * vm
        mb += ((h - f) * dr) * (-1j * (v1 - v0))
    else:
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


def _lagrange_weights(x0: np.ndarray) -> np.ndarray:
    """Weights (4, ...) of the Lagrange cubic through nodes 0, 1, 2, 3 at
    the positions x0."""
    x1, x2, x3 = x0 - 1.0, x0 - 2.0, x0 - 3.0
    return np.stack((x1 * x2 * x3 / -6.0, x0 * x2 * x3 / 2.0,
                     x0 * x1 * x3 / -2.0, x0 * x1 * x2 / 6.0))


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


def _linear_stages(v, sched, h, done, c):
    """Linear reads of v at the 2c + 1 stage times of one chunk."""
    tau = (2 * done + np.arange(2 * c + 1)) * (0.5 * h)
    np.minimum(tau, sched.duration, out=tau)
    pos = tau / sched.spacing
    idx = np.clip(np.floor(pos).astype(int), 0, v.shape[1] - 2)
    frac = pos - idx
    return v[:, idx] * (1.0 - frac) + v[:, idx + 1] * frac


def qmul_rows(a, b):
    """Hamilton product on (..., 4) rows, component by component."""
    aw, ax, ay, az = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    bw, bx, by, bz = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    return np.stack([
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    ], axis=-1)


def _row_stages(us, sched, h, done, c):
    """Reads of each real row array in `us` at the 2c + 1 stage times of one
    chunk, on the declared interpolant."""
    half_steps = 2 * done + np.arange(2 * c + 1)
    cubic = sched.interpolation == INTERP_CUBIC
    if cubic:
        pos = np.minimum(half_steps * (0.5 * h / sched.spacing), sched.n_intervals)
    else:
        pos = np.minimum(half_steps * (0.5 * h), sched.duration) / sched.spacing
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


def _row_steps(x0, xm, x1, y0, ym, y1, dr, h):
    """RK4 step multipliers as (b, c, 4) rows from real stage values."""
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


def _row_exp(x, y, z):
    """exp of the pure generators (0, x, y, z) as (..., 4) rows; np.sinc
    takes sin(phi)/phi to 1 at phi = 0."""
    x, y, z = np.broadcast_arrays(x, y, z)
    phi = np.sqrt(x * x + y * y + z * z)
    s = np.sinc(phi / np.pi)
    return np.stack([np.cos(phi), s * x, s * y, s * z], axis=-1)


def row_kernel(u1, u2, sched, delta_r, h, n, start, record):
    """(finals, drifts, states) of b systems from the start row, on real
    (w, x, y, z) rows, chunk by chunk."""
    dr = np.asarray(delta_r, dtype=float).reshape(-1, 1)
    b = max(u1.shape[0], dr.shape[0])
    q = np.tile(start, (b, 1))
    states = np.empty((n + 1, 4)) if record else None
    if record:
        states[0] = start
    drift = np.zeros(b)
    done = 0
    while done < n:
        c = min(_STEP_CHUNK, n - done)
        if sched.interpolation == INTERP_PCONST:
            mid = (done + np.arange(c) + 0.5) * h
            seg = np.clip((mid / sched.spacing).astype(int), 0, u1.shape[1] - 2)
            m = _row_exp(h * u1[:, seg], h * u2[:, seg], h * dr)
        else:
            x, y = _row_stages((u1, u2), sched, h, done, c)
            m = _row_steps(x[:, 0:-1:2], x[:, 1::2], x[:, 2::2],
                           y[:, 0:-1:2], y[:, 1::2], y[:, 2::2], dr, h)
        np.maximum(drift, np.max(np.abs(np.linalg.norm(m, axis=-1) - 1.0), axis=1),
                   out=drift)
        p = m.copy()
        d = 1
        while record and d < c:
            p[:, d:] = qmul_rows(p[:, d:], p[:, :-d])
            d *= 2
        while not record and p.shape[1] > 1:
            t = qmul_rows(p[:, 1::2], p[:, 0:-1:2])
            p = np.concatenate([t, p[:, -1:]], axis=1) if p.shape[1] % 2 else t
        qs = qmul_rows(p, q[:, None])
        qs /= np.linalg.norm(qs, axis=-1, keepdims=True)
        if record:
            states[done + 1:done + c + 1] = qs[0]
        q = qs[:, -1]
        done += c
    return q, drift, states


def per_value_csv(header, columns):
    """The CSV lines, as bytes, of one format(v, ".17g") call per value."""
    rows = (",".join(format(float(v), ".17g") for v in r) for r in zip(*columns))
    return [f"{line}\n".encode() for line in (header, *rows)]


def pow10_rows(k_min, k_max, split):
    """(hi, hh, hl, lo, p) of cli._pow10_table, row by row."""
    rows = []
    for k in range(k_min, k_max + 1):
        shift = 0 if k >= 0 else 120 + 4 * -k          # 10**-k < 2**(4 * -k)
        y = 10 ** k if k >= 0 else (1 << shift) // 10 ** -k
        b = y.bit_length()
        y = y >> (b - 120) if b > 120 else y << (120 - b)
        rows.append((y >> 67, float(y & (2 ** 67 - 1)), b - shift))
    hi, lo, p = zip(*rows)
    hi = np.ldexp(np.array(hi, dtype=float), -53)
    c = split * hi
    hh = c - (c - hi)
    return hi, hh, hi - hh, np.ldexp(np.array(lo), -120), np.array(p)


def piecewise_exact(sched, delta_r=0.0):
    """The ordered product of one exponential per interval of a "pconst"
    schedule, from the identity, one segment at a time."""
    q = UnitQuaternion(1.0, 0.0, 0.0, 0.0)
    dt = sched.spacing
    for u1, u2 in zip(sched.u1[:-1].tolist(), sched.u2[:-1].tolist()):
        x, y, z = u1 * dt, u2 * dt, delta_r * dt
        phi = math.hypot(x, y, z)
        s = 1.0 - phi * phi / 6.0 if phi < 1e-8 else math.sin(phi) / phi
        e = UnitQuaternion(math.cos(phi), x * s, y * s, z * s)
        q = UnitQuaternion(e.w * q.w - e.x * q.x - e.y * q.y - e.z * q.z,
                           e.w * q.x + e.x * q.w + e.y * q.z - e.z * q.y,
                           e.w * q.y - e.x * q.z + e.y * q.w + e.z * q.x,
                           e.w * q.z + e.x * q.y - e.y * q.x + e.z * q.w)
    return q


def ode_residual(states, u1, u2, dt, delta_r=0.0):
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
