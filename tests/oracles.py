"""Reference implementations the tests check the planner against.

rates_arrays evaluates the lift's body rates w1, w2, w3 and the
derivatives of w2, w3 with sin and cos of both alpha and beta.  Passed
through flat.lift_controls and unwrap_phase it gives, by the general route,
the controls and the phase of z = w2 - i*w3 that the planner writes in
closed form from alpha and beta' alone.

chunked_rows is the propagation kernel one 256-step chunk at a time, as it
was before steps were built in blocks of whole chunks, with np.linalg.norm
for the drift audit and the state normalization.  Linear and pconst stage
values are computed here; cubic ones by one _stage_values call per chunk.
Propagation of all three interpolations must match it bit for bit.
"""
import math

import numpy as np

from flatgate import quat
from flatgate.flat import lift_controls, unwrap_phase
from flatgate.planner import Z_GRID
from flatgate.propagator import (
    _STEP_CHUNK, _prefix_product, _rk4_steps, _stage_values, _tree_product)
from flatgate.schedule import INTERP_CUBIC, INTERP_PCONST


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


def chunked_rows(u1, u2, sched, delta_r, h, n, start, record):
    """(finals, drifts, states) of b systems in lockstep, chunk by chunk."""
    dr = np.asarray(delta_r, dtype=float).reshape(-1, 1)
    b = max(u1.shape[0], dr.shape[0])
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
            x, y = u1[:, seg], u2[:, seg]
            m = _rk4_steps(x, x, x, y, y, y, dr, h)
        else:
            if sched.interpolation == INTERP_CUBIC:
                x, y = _stage_values((u1, u2), sched, h, 2 * done, 2 * c + 1)
            else:
                x, y = _linear_stages(u1, u2, sched, h, done, c)
            m = _rk4_steps(x[:, 0:-1:2], x[:, 1::2], x[:, 2::2],
                           y[:, 0:-1:2], y[:, 1::2], y[:, 2::2], dr, h)
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


def _linear_stages(u1, u2, sched, h, done, c):
    """Linear reads of u1, u2 at the 2c + 1 stage times of one chunk."""
    tau = (2 * done + np.arange(2 * c + 1)) * (0.5 * h)
    np.minimum(tau, sched.duration, out=tau)
    pos = tau / sched.spacing
    idx = np.clip(np.floor(pos).astype(int), 0, u1.shape[1] - 2)
    frac = pos - idx
    return [u[:, idx] * (1.0 - frac) + u[:, idx + 1] * frac for u in (u1, u2)]
