"""Built-in invariant suites for `flatgate selftest`.

Each suite returns (name, passed, detail).  These are condensed versions
of the package's test suite, runnable without pytest in a deployed
environment.
"""
from __future__ import annotations

import math

import numpy as np

from . import planner, propagator, zyz
from . import quat
from .flat import flat_point, group_action
from .quat import ImagQuaternion
from .schedule import INTERP_PCONST, PulseSchedule


def _suite_quaternion_identities():
    rng = np.random.default_rng(11)
    bad = 0.0
    e = [quat.E1, quat.E2, quat.E3]
    cyc = {(0, 1): quat.E3, (1, 2): quat.E1, (2, 0): quat.E2}
    for (i, j), k in cyc.items():
        bad = max(bad, np.max(np.abs(quat.mul(e[i], e[j]).as_array() - k.as_array())))
    for _ in range(200):
        a = quat.as_unit(quat.random_unit(rng))
        b = quat.as_unit(quat.random_unit(rng))
        bad = max(bad, abs(quat.mul(a, quat.conj(a)).w - 1.0))
        ua = quat.to_su2(a).m
        ub = quat.to_su2(b).m
        uab = quat.to_su2(quat.mul(a, b)).m
        bad = max(bad, float(np.max(np.abs(uab - ua @ ub))))
        phi = rng.uniform(-6, 6)
        lhs = quat.mul(quat.exp_pure(ImagQuaternion(phi, 0, 0)), quat.E2)
        rhs = quat.mul(quat.E2, quat.exp_pure(ImagQuaternion(-phi, 0, 0)))
        bad = max(bad, float(np.max(np.abs(lhs.as_array() - rhs.as_array()))))
    return bad <= 1e-12, f"max deviation {bad:.2e}"


def _suite_flat_output_algebra():
    rng = np.random.default_rng(12)
    bad = 0.0
    for _ in range(200):
        q = quat.as_unit(quat.random_unit(rng))
        g = quat.as_unit(quat.random_unit(rng))
        k = quat.exp_pure(ImagQuaternion(rng.uniform(-7, 7), 0, 0))
        bad = max(bad, float(np.max(np.abs(
            flat_point(quat.mul(k, q)).as_array() - flat_point(q).as_array()))))
        bad = max(bad, float(np.max(np.abs(
            flat_point(quat.mul(q, g)).as_array()
            - group_action(g, flat_point(q)).as_array()))))
    return bad <= 1e-12, f"max deviation {bad:.2e}"


def _suite_planner_steering():
    rng = np.random.default_rng(13)
    scheds, targets = [], []
    while len(scheds) < 10:
        v = quat.random_unit(rng)
        if np.linalg.norm(v - [1.0, 0, 0, 0]) <= 1e-3:
            continue
        t = quat.as_unit(v)
        targets.append(t)
        scheds.append(planner.synthesize(t, 1.0, 1024, 1))
    finals, _ = propagator.propagate_final_batch(scheds, h=1.0 / 4096)
    fids = np.einsum("ij,ij->i", finals, np.array([t.as_array() for t in targets]))
    return bool(np.min(fids) >= 1.0 - 1e-6), f"min fidelity {np.min(fids):.12f}"


def _suite_two_pulse_oracle():
    half = math.pi / 2
    sched = PulseSchedule(2.0, np.array([0.0, half, half]),
                          np.array([half, 0.0, 0.0]),
                          target=quat.E3, interpolation=INTERP_PCONST)
    e_exact = np.linalg.norm(
        propagator.propagate_piecewise_exact(sched).as_array() - [0, 0, 0, 1])
    e_stepped = np.linalg.norm(
        propagator.propagate(sched, h=2.0 / 8192).final.as_array() - [0, 0, 0, 1])
    return e_exact <= 1e-12 and e_stepped <= 1e-9, \
        f"exact {e_exact:.2e}, stepped {e_stepped:.2e}"


def _suite_zyz_exactness():
    rng = np.random.default_rng(14)
    bad = 0.0
    for _ in range(25):
        t = quat.as_unit(quat.random_unit(rng))
        ang = zyz.euler_decompose(t)
        bad = max(bad, float(np.max(np.abs(ang.reconstruct().as_array() - t.as_array()))))
        final = propagator.propagate_piecewise_exact(zyz.zyz_schedule(ang, 1.5))
        bad = max(bad, float(np.max(np.abs(final.as_array() - t.as_array()))))
    return bad <= 1e-12, f"max deviation {bad:.2e}"


def _suite_reference_scenario():
    sched = planner.synthesize(quat.E3, 2.0, k=1)
    ends_zero = sched.u1[0] == 0.0 and sched.u2[0] == 0.0 \
        and sched.u1[-1] == 0.0 and sched.u2[-1] == 0.0
    peak = max(sched.max_amplitudes())
    fid = propagator.fidelity(
        propagator.propagate(sched, h=2.0 / 8192).final, quat.E3)
    ok = ends_zero and 1.1 <= peak <= 2.1 and fid >= 1.0 - 1e-6
    return ok, f"fidelity {fid:.12f}, peak {peak:.3f}, exact zero ends {ends_zero}"


def run_all():
    suites = [
        ("quaternion-identities", _suite_quaternion_identities),
        ("flat-output-algebra", _suite_flat_output_algebra),
        ("planner-steering", _suite_planner_steering),
        ("two-pulse-oracle", _suite_two_pulse_oracle),
        ("zyz-exactness", _suite_zyz_exactness),
        ("reference-scenario", _suite_reference_scenario),
    ]
    out = []
    for name, fn in suites:
        try:
            ok, detail = fn()
        except Exception as exc:
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        out.append((name, ok, detail))
    return out
