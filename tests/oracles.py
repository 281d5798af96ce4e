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
(s * 3.0 and s * 6.0 made twice); synthesize must match them byte for
byte.  unwarped_schedule samples a plan in virtual time, without the clock.

chunked_rows is the pair kernel one 256-step chunk at a time, as it was
before steps were built in blocks of whole chunks, reading the stages in
time order, with np.linalg.norm on (w, x, y, z) rows for the drift audit
and the state normalization.  Linear and pconst stage values are computed
here; cubic ones by one _stage_values call per chunk.  Propagation of all
three interpolations must match it bit for bit.

row_kernel is the propagation kernel as it was on real (w, x, y, z) rows,
before steps and states became complex pairs: its own Hamilton product,
two real stage reads and the real closed-form step.  Public outputs must
match it to rounding.

per_value_csv is the CSV text of one format(v, ".17g") call per value,
which the CLI's block writer must match byte for byte.
"""
import math

import numpy as np

from flatgate import quat
from flatgate.flat import lift_controls, unwrap_phase
from flatgate.planner import DEFAULT_SAMPLES, plan_controls, smoothstep
from flatgate.propagator import (
    _STEP_CHUNK, _prefix_product, _rk4_steps, _stage_values, _tree_product)
from flatgate.quat import pair_rows, pmul, row_pair
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
            x = v[:, seg]
            ma, mb = _rk4_steps(x, x, x, dr, h)
        else:
            if sched.interpolation == INTERP_CUBIC:
                x = _stage_values(v, sched, h, 2 * done + np.arange(2 * c + 1))
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
            x, y = u1[:, seg], u2[:, seg]
            m = _row_steps(x, x, x, y, y, y, dr, h)
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
