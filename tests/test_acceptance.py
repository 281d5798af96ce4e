"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and measured values.
"""
import itertools
import json
import math
import time

import numpy as np
import pytest

from flatgate import cli, planner, propagator, quat, zyz
from flatgate.errors import IdentityTarget
from flatgate.flat import LiftSamplePath, flat_point, invert_lift
from flatgate.planner import (
    CubicPair,
    check_alpha_monotone,
    decompose_target,
    rotate_controls,
    synthesize,
)
from flatgate.propagator import (
    detuning_sweep,
    fidelity,
    propagate,
    propagate_final_batch,
    propagate_piecewise_exact,
)
from flatgate.quat import E1, E3, ONE, ImagQuaternion, UnitQuaternion, exp_pure, mul
from flatgate.schedule import INTERP_PCONST, PulseSchedule
from oracles import closed_form_phase, ode_residual, rates_arrays

PI = math.pi
MINUS_ONE = UnitQuaternion(-1.0, 0.0, 0.0, 0.0)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def random_target(rng) -> UnitQuaternion:
    while True:
        v = quat.random_unit(rng)
        if np.linalg.norm(v - [1.0, 0, 0, 0]) > 1e-3:
            return quat.as_unit(v)


def test_criterion_01_reference_scenario(tmp_path, capsys):
    out = tmp_path / "plan.csv"
    traj = tmp_path / "traj.csv"
    t0 = time.perf_counter()
    assert cli.main(["plan", "--gate", "Z", "--T", "2", "--k", "1",
                     "--out", str(out)]) == 0
    assert cli.main(["simulate", str(out), "--h", str(2.0 / 8192),
                     "--delta-r", "0", "--out", str(traj)]) == 0
    elapsed = time.perf_counter() - t0
    capsys.readouterr()

    sched = cli.read_schedule(str(out))
    res = propagate(sched, delta_r=0.0, h=2.0 / 8192)
    dist = float(np.linalg.norm(res.final.as_array() - [0, 0, 0, 1]))
    fid = fidelity(res.final, E3)
    ends_exact = (sched.u1[0] == 0.0 and sched.u2[0] == 0.0
                  and sched.u1[-1] == 0.0 and sched.u2[-1] == 0.0)
    peak = float(np.max(np.maximum(np.abs(sched.u1), np.abs(sched.u2))))
    ok = (dist <= 1e-6 and fid >= 1.0 - 1e-6 and ends_exact
          and 1.1 <= peak <= 2.1 and elapsed < 1.0)
    with capsys.disabled():
        report(1, ok, f"|q(T) - e3| = {dist:.2e}, fidelity = {fid:.12f}, "
                      f"exact zero ends = {ends_exact}, max|u| = {peak:.3f}, "
                      f"runtime = {elapsed:.2f} s")


def test_criterion_02_zyz_two_pulse_oracle(capsys):
    half = PI / 2
    sched = PulseSchedule(2.0, np.array([0.0, half, half]),
                          np.array([half, 0.0, 0.0]),
                          target=E3, interpolation=INTERP_PCONST)
    e_stepped = float(np.linalg.norm(
        propagate(sched, h=2.0 / 8192).final.as_array() - [0, 0, 0, 1]))
    e_exact = float(np.linalg.norm(
        propagate_piecewise_exact(sched).as_array() - [0, 0, 0, 1]))
    ok = e_stepped <= 1e-9 and e_exact <= 1e-12
    with capsys.disabled():
        report(2, ok, f"stepped error = {e_stepped:.2e}, exact error = {e_exact:.2e}")


def test_criterion_03_random_target_steering(capsys):
    rng = np.random.default_rng(2718281828)
    t0 = time.perf_counter()
    targets = [random_target(rng) for _ in range(1000)]
    scheds = [synthesize(t, 1.0, 4096, 1) for t in targets]
    finals, _ = propagate_final_batch(scheds, h=1.0 / 8192)
    elapsed = time.perf_counter() - t0
    tarr = np.array([t.as_array() for t in targets])
    fids = np.einsum("ij,ij->i", finals, tarr)
    dists = np.linalg.norm(finals - tarr, axis=1)
    ok = bool(np.min(fids) >= 1.0 - 1e-6 and np.max(dists) <= 1e-6
              and elapsed < 60.0)
    with capsys.disabled():
        report(3, ok, f"1000 targets: min fidelity = {np.min(fids):.12f}, "
                      f"worst |q(T) - target| = {np.max(dists):.2e}, "
                      f"runtime = {elapsed:.1f} s")


def _poly_lift(seed: int, m: int) -> LiftSamplePath:
    """Random degree-4 quaternion polynomial, normalized to the unit sphere,
    with exact first and second derivatives."""
    rng = np.random.default_rng(seed)
    c = rng.normal(size=(5, 4)) * 0.35
    c[0] = quat.random_unit(rng)
    s = np.linspace(0.0, 1.0, m)
    powers = s[:, None] ** np.arange(5)[None, :]
    p = powers @ c
    dp = powers[:, :4] @ (c[1:] * np.arange(1, 5)[:, None])
    ddp = powers[:, :3] @ (c[2:] * (np.arange(2, 5) * np.arange(1, 4))[:, None])
    n2 = np.einsum("ij,ij->i", p, p)
    n2d = 2.0 * np.einsum("ij,ij->i", p, dp)
    n2dd = 2.0 * (np.einsum("ij,ij->i", dp, dp) + np.einsum("ij,ij->i", p, ddp))
    f = n2 ** -0.5
    fd = -0.5 * n2 ** -1.5 * n2d
    fdd = 0.75 * n2 ** -2.5 * n2d ** 2 - 0.5 * n2 ** -1.5 * n2dd
    y = p * f[:, None]
    yd = dp * f[:, None] + p * fd[:, None]
    ydd = ddp * f[:, None] + 2.0 * dp * fd[:, None] + p * fdd[:, None]
    return LiftSamplePath(s, y, yd, ydd)


def _lift_is_usable(path: LiftSamplePath) -> bool:
    v = quat.qmul_arr(path.yd, quat.qconj_arr(path.y))
    return bool(np.min(np.hypot(v[:, 2], v[:, 3])) > 0.05)


def test_criterion_04_four_branch_suite(capsys):
    n_paths = 0
    worst_order = math.inf
    worst_h_err = 0.0
    for seed in itertools.count(1):
        probe = _poly_lift(seed, 513)
        if not _lift_is_usable(probe):
            continue
        n_paths += 1
        for branch in range(4):
            res = {}
            for m in (513, 1025):
                path = _poly_lift(seed, m) if m != 513 else probe
                inv = invert_lift(path, branch)
                res[m] = ode_residual(inv.states, inv.u1, inv.u2, path.ds)
                e1row = np.array([0.0, 1.0, 0.0, 0.0])
                yc = quat.qconj_arr(inv.states)
                hq = quat.qmul_arr(quat.qmul_arr(yc, e1row), inv.states)
                yc2 = quat.qconj_arr(path.y)
                hy = quat.qmul_arr(quat.qmul_arr(yc2, e1row), path.y)
                worst_h_err = max(worst_h_err, float(np.max(np.abs(hq - hy))))
            worst_order = min(worst_order, math.log2(res[513] / res[1025]))
        if n_paths == 20:
            break
    ok = worst_order >= 1.8 and worst_h_err <= 1e-9
    with capsys.disabled():
        report(4, ok, f"20 paths x 4 branches: min residual order = "
                      f"{worst_order:.2f}, max |h(q) - h(Y)| = {worst_h_err:.2e}")


def test_criterion_05_flat_output_algebra(capsys):
    rng = np.random.default_rng(31415926)
    worst_inv = worst_eq = worst_comm = 0.0
    for _ in range(1000):
        q = quat.as_unit(quat.random_unit(rng))
        g = quat.as_unit(quat.random_unit(rng))
        k = exp_pure(ImagQuaternion(rng.uniform(-7, 7), 0.0, 0.0))
        worst_inv = max(worst_inv, float(np.max(np.abs(
            flat_point(mul(k, q)).as_array() - flat_point(q).as_array()))))
        worst_eq = max(worst_eq, float(np.max(np.abs(
            flat_point(mul(q, g)).as_array()
            - quat.rotate_vector(g, flat_point(q).v).as_array()))))
        p = mul(k, q)
        w = mul(p, quat.conj(q))
        worst_comm = max(worst_comm, float(np.max(np.abs(
            mul(w, E1).as_array() - mul(E1, w).as_array()))))
    ok = worst_inv <= 1e-12 and worst_eq <= 1e-12 and worst_comm <= 1e-9
    with capsys.disabled():
        report(5, ok, f"1000 samples: K-invariance {worst_inv:.2e}, "
                      f"equivariance {worst_eq:.2e}, faithfulness {worst_comm:.2e}")


def test_criterion_06_planner_validity_analytics(capsys):
    rng = np.random.default_rng(16180339)
    worst_z = worst_theta = 0.0
    min_grid_alpha = math.inf
    for _ in range(1000):
        dec = decompose_target(random_target(rng))
        cubics = CubicPair.from_decomposition(dec)
        min_grid_alpha = min(min_grid_alpha, check_alpha_monotone(cubics))
        _, w2, w3, _, _ = rates_arrays(cubics, np.array([0.0, 1.0]))
        worst_z = max(worst_z, float(np.max(np.abs(w2 - 1j * w3 - dec.alpha_bar))))
        theta, _ = closed_form_phase(cubics)
        worst_theta = max(worst_theta, abs(theta[-1]))
    ok = (min_grid_alpha > 0.0 and worst_z <= 1e-10 and worst_theta <= 1e-9)
    with capsys.disabled():
        report(6, ok, f"1000 decompositions: min grid alpha' = "
                      f"{min_grid_alpha:.2e}, max |z(ends) - alpha_bar| = "
                      f"{worst_z:.2e}, max |theta(1)| = {worst_theta:.2e}")


def test_criterion_07_integrator_order(capsys):
    sched = synthesize(E3, 2.0, 256, 1)
    ref = propagate(sched, h=2.0 / 8192).final.as_array()
    errs = {n: float(np.linalg.norm(propagate(sched, h=2.0 / n).final.as_array() - ref))
            for n in (256, 512, 1024)}
    r1 = errs[256] / errs[512]
    r2 = errs[512] / errs[1024]
    ok = 12.0 <= r1 <= 20.0 and 12.0 <= r2 <= 20.0
    with capsys.disabled():
        report(7, ok, f"halving ratios = {r1:.2f}, {r2:.2f} "
                      f"(errors {errs[256]:.2e} -> {errs[1024]:.2e})")


def test_criterion_08_degenerate_targets(capsys):
    sched = synthesize(MINUS_ONE, 1.0)
    fid = fidelity(propagate(sched, h=1.0 / 8192).final, MINUS_ONE)
    rejected = False
    try:
        synthesize(ONE, 1.0)
    except IdentityTarget:
        rejected = True
    ok = fid >= 1.0 - 1e-8 and rejected
    with capsys.disabled():
        report(8, ok, f"minus-one fidelity = {fid:.12f}, "
                      f"identity rejected = {rejected}")


def test_criterion_09_control_rotation_symmetry(capsys):
    rng = np.random.default_rng(14142135)
    scheds, targets = [], []
    for _ in range(100):
        t = random_target(rng)
        eta = float(rng.uniform(0.0, 2.0 * PI))
        rot = rotate_controls(synthesize(t, 1.0, 4096, 1), eta)
        scheds.append(rot)
        targets.append(rot.target)
    finals, _ = propagate_final_batch(scheds, h=1.0 / 8192)
    fids = np.einsum("ij,ij->i", finals, np.array([t.as_array() for t in targets]))
    ok = bool(np.min(fids) >= 1.0 - 1e-6)
    with capsys.disabled():
        report(9, ok, f"100 rotated pairs: min fidelity = {np.min(fids):.12f}")


def test_criterion_10_detuning_sweep(tmp_path, capsys):
    sched = synthesize(E3, 2.0, k=1)
    sweep = detuning_sweep(sched, np.linspace(-0.5, 0.5, 5), E3, h=2.0 / 8192)
    fid_at_zero = float(sweep.fidelity[np.where(sweep.delta_r == 0.0)[0][0]])
    plain = fidelity(propagate(sched, h=2.0 / 8192).final, E3)
    diff = abs(fid_at_zero - plain)
    recorded = ", ".join(f"{d:+.2f}: {f:.6f}" for d, f in sweep.rows())
    ok = diff <= 1e-10
    with capsys.disabled():
        report(10, ok, f"on-resonance column off by {diff:.2e}; recorded ({recorded})")
