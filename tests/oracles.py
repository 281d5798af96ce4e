"""Reference implementations the tests check the planner against.

rates_arrays evaluates the lift's body rates w1, w2, w3 and the
derivatives of w2, w3 with sin and cos of both alpha and beta.  Passed
through flat.lift_controls and unwrap_phase it gives, by the general route,
the controls and the phase of z = w2 - i*w3 that the planner writes in
closed form from alpha and beta' alone.
"""
import math

import numpy as np

from flatgate.flat import lift_controls, unwrap_phase
from flatgate.planner import Z_GRID


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
