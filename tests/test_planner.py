import dataclasses
import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from flatgate import planner, quat
from flatgate.errors import (IdentityTarget, MonotonicityViolation, SingularFlatCurve,
                             WindingNonzero)
from flatgate.flat import body_velocity, invert_lift
from flatgate.planner import (
    ALPHA_GRID,
    DEFAULT_SAMPLES,
    IDENTITY_TOL,
    MAX_SAMPLES,
    MAX_WARP_ORDER,
    WINDING_TOL,
    CubicPair,
    boundary_data,
    check_alpha_monotone,
    check_winding,
    decompose_target,
    hermite_cubic,
    lift_path,
    plan_controls,
    rotate_controls,
    sample_plan,
    smoothstep,
    start_offset,
    synthesize,
)
from flatgate.quat import E1, E2, E3, ONE, Quaternion, UnitQuaternion
from flatgate.schedule import MIN_DURATION
from flatgate.zyz import euler_decompose, zyz_schedule
from oracles import (closed_form_phase, oracle_controls, oracle_phase, rates_arrays,
                     sampled_plan, unwarped_schedule)

MINUS_ONE = UnitQuaternion(-1.0, 0.0, 0.0, 0.0)
PI = math.pi


def rand_target(rng):
    while True:
        v = quat.random_unit(rng)
        if np.linalg.norm(v - [1.0, 0, 0, 0]) > 1e-3:
            return quat.as_unit(v)


def edge_targets():
    """Near +-1 down to 1e-9 along each axis, gimbal e1/e3 mixes, +-e1,
    e2, +-e3 and -1."""
    out = [E1, UnitQuaternion(0.0, -1.0, 0.0, 0.0), E2, E3,
           UnitQuaternion(0.0, 0.0, 0.0, -1.0), MINUS_ONE]
    h = math.sqrt(0.5)
    out += [UnitQuaternion(0.0, h, 0.0, h), UnitQuaternion(0.0, h, 0.0, -h),
            UnitQuaternion(h, h, 0.0, 0.0), UnitQuaternion(h, 0.0, 0.0, h)]
    for th in np.geomspace(1e-9, 1e-3, 7):
        for axis in np.eye(3):
            for w in (1.0, -1.0):
                v = np.concatenate([[w * math.cos(th)], math.sin(th) * axis])
                out.append(UnitQuaternion(*v))
    return out


# ---------------------------------------------------------- decompose_target

def test_decompose_e3():
    d = decompose_target(E3)
    assert d.eta_bar == 0.0
    assert d.alpha_bar == pytest.approx(PI / 2, abs=1e-15)
    assert d.beta_bar == pytest.approx(PI / 2, abs=1e-15)
    assert d.lambda_bar == pytest.approx(-PI / 4, abs=1e-15)


def test_decompose_e1():
    d = decompose_target(E1)
    assert d.eta_bar == pytest.approx(PI / 2, abs=1e-15)
    assert d.alpha_bar == pytest.approx(PI / 2, abs=1e-15)
    assert d.beta_bar == 0.0
    assert d.lambda_bar == pytest.approx(-PI / 4, abs=1e-15)


def test_decompose_minus_one():
    d = decompose_target(MINUS_ONE)
    assert d.eta_bar == 0.0
    assert d.alpha_bar == pytest.approx(PI, abs=1e-15)
    assert d.beta_bar == 0.0
    assert d.lambda_bar == pytest.approx(-PI / 4, abs=1e-15)


def test_identity_rejected():
    with pytest.raises(IdentityTarget):
        decompose_target(ONE)
    with pytest.raises(IdentityTarget):
        decompose_target(UnitQuaternion(1.0, 1e-13, 0.0, 0.0))


def test_near_identity_targets_plan_and_steer():
    # every target beyond the identity cutoff plans, also where w rounds
    # to 1.0, and steers to within its own scale
    from flatgate.propagator import propagate
    rng = np.random.default_rng(30)
    axes = [np.eye(3)[i] for i in range(3)] + [rng.normal(size=3)]
    for th in np.geomspace(IDENTITY_TOL * (1.0 + 1e-6), 1e-3, 13):
        for a in axes:
            v = np.concatenate([[math.cos(th)], math.sin(th) * a / np.linalg.norm(a)])
            t = UnitQuaternion(*v)
            sched = sample_plan(plan_controls(t), 1.0, 256, 1)
            assert sched.min_abs_z > 0.5 * th
            final = propagate(sched, h=1.0 / 256).final
            assert np.linalg.norm(final.as_array() - v) <= 1e-4 * th + 1e-11


def test_reconstruction_round_trip():
    rng = np.random.default_rng(20)
    for _ in range(1000):
        t = rand_target(rng)
        back = decompose_target(t).reconstruct()
        assert np.max(np.abs(back.as_array() - t.as_array())) <= 1e-12


def test_angle_ranges():
    rng = np.random.default_rng(21)
    for _ in range(300):
        d = decompose_target(rand_target(rng))
        assert 0.0 <= d.eta_bar < 2 * PI
        assert 0.0 < d.alpha_bar <= PI
        assert -PI / 2 <= d.beta_bar <= PI / 2


# -------------------------------------------------------------- start_offset

def test_start_offset_cases():
    assert start_offset(PI / 2) == pytest.approx(-PI / 4, abs=1e-15)
    assert start_offset(PI / 8) == pytest.approx(3 * PI / 16, abs=1e-15)
    assert start_offset(PI) == pytest.approx(-PI / 4, abs=1e-15)


def test_start_offset_margin():
    for a in np.linspace(1e-6, PI, 4001):
        lam = start_offset(float(a))
        assert abs(math.sin(lam) * math.cos(lam)) >= 0.17
        assert abs(math.sin(lam + a) * math.cos(lam + a)) >= 0.17


# ------------------------------------------------------------- boundary_data

def test_boundary_data_e3():
    (alpha0, alpha1, dalpha0, dalpha1), (beta0, beta1, dbeta0, dbeta1) = \
        boundary_data(decompose_target(E3))
    assert alpha0 == pytest.approx(-PI / 4, abs=1e-15)
    assert alpha1 == pytest.approx(PI / 4, abs=1e-15)
    assert abs(dalpha0) <= 1e-15 and abs(dalpha1) <= 1e-15
    assert beta0 == beta1 == pytest.approx(PI / 2, abs=1e-15)
    assert dbeta0 == pytest.approx(PI, abs=1e-12)
    assert dbeta1 == pytest.approx(-PI, abs=1e-12)


def test_boundary_data_minus_one():
    (alpha0, alpha1, dalpha0, dalpha1), (beta0, beta1, dbeta0, dbeta1) = \
        boundary_data(decompose_target(MINUS_ONE))
    assert alpha0 == pytest.approx(-PI / 4, abs=1e-15)
    assert alpha1 == pytest.approx(3 * PI / 4, abs=1e-15)
    assert dalpha0 == pytest.approx(PI, abs=1e-15)
    assert dalpha1 == pytest.approx(PI, abs=1e-15)
    assert beta0 == beta1 == 0.0
    assert dbeta0 == 0.0 and dbeta1 == 0.0


def test_flat_beta_targets_have_constant_beta():
    rng = np.random.default_rng(22)
    for _ in range(50):
        # targets with no e3 component have beta_bar = 0
        w, x, y = rng.normal(size=3)
        n = math.sqrt(w * w + x * x + y * y)
        t = UnitQuaternion(w / n, x / n, y / n, 0.0)
        if abs(t.w - 1.0) < 1e-3:
            continue
        _, (_, _, dbeta0, dbeta1) = boundary_data(decompose_target(t))
        assert dbeta0 == 0.0 and dbeta1 == 0.0


# ------------------------------------------------------------- hermite_cubic

def test_hermite_smoothstep():
    assert np.array_equal(hermite_cubic(0.0, 1.0, 0.0, 0.0), [0.0, 0.0, 3.0, -2.0])


def test_hermite_beta_cubic_for_e3():
    c = np.array(hermite_cubic(PI / 2, PI / 2, PI, -PI))
    assert np.max(np.abs(c - [PI / 2, PI, -PI, 0.0])) <= 1e-15


def test_hermite_zero():
    assert np.array_equal(hermite_cubic(0.0, 0.0, 0.0, 0.0), [0.0, 0.0, 0.0, 0.0])


def test_hermite_endpoint_exactness():
    rng = np.random.default_rng(23)
    for _ in range(200):
        p0, p1, d0, d1 = rng.normal(size=4) * 3
        c = np.array(hermite_cubic(p0, p1, d0, d1))
        assert c[0] == p0 and c[1] == d0
        scale = max(1.0, np.max(np.abs(c)))
        assert abs(c.sum() - p1) <= 1e-13 * scale
        assert abs(c[1] + 2 * c[2] + 3 * c[3] - d1) <= 1e-13 * scale


# ----------------------------------------------------- check_alpha_monotone

def test_alpha_monotone_e3():
    c = CubicPair.from_decomposition(decompose_target(E3))
    assert check_alpha_monotone(c) > 0.0
    s = np.linspace(0, 1, 101)
    assert np.max(np.abs(c.dalpha(s) - 3 * PI * s * (1 - s))) <= 1e-12


def test_alpha_monotone_minus_one():
    c = CubicPair.from_decomposition(decompose_target(MINUS_ONE))
    assert check_alpha_monotone(c) > 0.0
    s = np.linspace(0, 1, 101)
    assert np.max(np.abs(c.dalpha(s) - PI)) <= 1e-15


def test_alpha_monotone_rejects_degenerate():
    c = CubicPair(np.zeros(4), np.zeros(4), 0.0)
    with pytest.raises(MonotonicityViolation):
        check_alpha_monotone(c)


# ------------------------------------------------------------------- rates

def test_rates_endpoint_value():
    c = CubicPair.from_decomposition(decompose_target(E3))
    _, w2, w3, _, _ = rates_arrays(c, 0.0)
    z0 = complex(w2, -w3)
    assert abs(z0) == pytest.approx(PI / 2, abs=1e-12)
    assert abs(np.angle(z0)) <= 1e-12


def test_rates_constant_beta_case():
    d = decompose_target(MINUS_ONE)
    c = CubicPair.from_decomposition(d)
    s = np.array([0.0, 0.3, 0.7, 1.0])
    w1, w2, w3, _, _ = rates_arrays(c, s)
    assert np.all(w1 == 0.0)
    expect = complex(math.cos(-d.beta_bar), math.sin(-d.beta_bar)) * c.dalpha(s)
    assert np.max(np.abs(w2 - 1j * w3 - expect)) <= 1e-12


def test_rates_match_body_velocity_of_lift():
    # cross-module oracle: closed-form rates vs quaternion products
    rng = np.random.default_rng(24)
    for _ in range(20):
        c = CubicPair.from_decomposition(decompose_target(rand_target(rng)))
        path = lift_path(c, 33)
        got = np.stack(rates_arrays(c, path.s)[:3], axis=1)
        for i in range(33):
            w = body_velocity(quat.as_unit(path.y[i]),
                              Quaternion(*path.yd[i]))
            assert np.max(np.abs([w.x, w.y, w.z] - got[i])) <= 1e-10


def test_rate_derivatives_match_finite_differences():
    rng = np.random.default_rng(25)
    for _ in range(10):
        c = CubicPair.from_decomposition(decompose_target(rand_target(rng)))
        s = np.linspace(0.05, 0.95, 91)
        eps = 1e-6
        _, w2p, w3p, _, _ = rates_arrays(c, s + eps)
        _, w2m, w3m, _, _ = rates_arrays(c, s - eps)
        _, _, _, w2d, w3d = rates_arrays(c, s)
        assert np.max(np.abs((w2p - w2m) / (2 * eps) - w2d)) <= 1e-6
        assert np.max(np.abs((w3p - w3m) / (2 * eps) - w3d)) <= 1e-6


# ------------------------------------------------------------- controls_in_s

def test_s_controls_minus_one():
    plan = plan_controls(MINUS_ONE)
    u1, u2, _ = plan.controls(np.linspace(0, 1, 65))
    assert np.max(np.abs(u1)) <= 1e-12
    assert np.max(np.abs(u2 - PI)) <= 1e-12


def test_s_controls_e3_endpoints():
    plan = plan_controls(E3)
    _, u2, _ = plan.controls(np.array([0.0, 1.0]))
    assert np.max(np.abs(u2 - PI / 2)) <= 1e-12
    # the unwrapped argument of z closes the loop at zero
    assert abs(plan.theta1) <= 1e-9


def test_s_controls_never_vanish():
    rng = np.random.default_rng(26)
    s = np.linspace(0, 1, 257)
    for _ in range(50):
        plan = plan_controls(rand_target(rng))
        _, w2, w3, _, _ = rates_arrays(plan.cubics, s)
        assert np.min(np.hypot(w2, w3)) > 0.0
        assert sample_plan(plan, 1.0, 256, 1).min_abs_z > 0.0


def test_plan_controls_match_lift_inversion():
    # cross-module oracle: the planner's closed-form controls vs the
    # quaternion-product inversion of its own lift, rotated by eta_bar
    rng = np.random.default_rng(29)
    for _ in range(20):
        plan = plan_controls(rand_target(rng))
        inv = invert_lift(lift_path(plan.cubics, 129), 0)
        ce, se = math.cos(plan.dec.eta_bar), math.sin(plan.dec.eta_bar)
        u1, u2, _ = plan.controls(inv.s)
        assert np.max(np.abs(u1 - (ce * inv.u1 + se * inv.u2))) <= 1e-12
        assert np.max(np.abs(u2 - (-se * inv.u1 + ce * inv.u2))) <= 1e-12


def test_closed_form_phase_matches_unwrapped_oracle():
    # theta and min|z| from atan2(-q, alpha') - beta against the unwrapped
    # phase of w2 - i*w3 from the full body rates
    rng = np.random.default_rng(31)
    for t in [rand_target(rng) for _ in range(200)] + edge_targets():
        c = CubicPair.from_decomposition(decompose_target(t))
        theta, min_abs_z = closed_form_phase(c)
        ref_theta, ref_min = oracle_phase(c)
        assert theta[0] == 0.0
        assert np.max(np.abs(theta - ref_theta)) <= 1e-14
        assert abs(min_abs_z - ref_min) <= 1e-14


def rounding_target():
    """beta_bar near pi/2 where alpha'(1) = alpha_bar cos(beta_bar) ~ 5e-16
    evaluates to -1.2e-15."""
    a, r = 1.2, 5e-16
    return UnitQuaternion(math.cos(a), 0.0, r, math.sqrt(math.sin(a) ** 2 - r * r))


def witness_targets(seed):
    """Haar targets, the edge set, targets just beyond the identity cutoff,
    beta_bar = +-pi/2 and the endpoint-rounding target."""
    rng = np.random.default_rng(seed)
    th = IDENTITY_TOL * (1.0 + 1e-6)
    near = [UnitQuaternion(*np.concatenate([[math.cos(th)], math.sin(th) * axis]))
            for axis in np.eye(3)]
    a = 1.2
    gimbal = [UnitQuaternion(math.cos(a), 0.0, 0.0, sgn * math.sin(a)) for sgn in (1.0, -1.0)]
    return ([rand_target(rng) for _ in range(200)] + edge_targets() + near + gimbal
            + [rounding_target()])


def test_theta1_witness_matches_the_grid_phase():
    # the end-value theta(1) against the last point of the 2048-point phase
    for t in witness_targets(33):
        plan = plan_controls(t)
        theta, _ = closed_form_phase(plan.cubics)
        assert abs(plan.theta1 - theta[-1]) <= 1e-15


def _alpha_grid_min(c):
    return float(np.min(c.dalpha(np.linspace(0.0, 1.0, ALPHA_GRID + 2)[1:-1])))


def test_alpha_grid_witness_equals_the_full_grid_minimum():
    for t in witness_targets(34):
        plan = plan_controls(t)
        assert plan.alpha_grid_min == _alpha_grid_min(plan.cubics)


def test_alpha_grid_witness_of_convex_quadratics():
    # alpha' = c1 + 2 c2 s + 3 c3 s^2 with c3 > 0: the grid minimum lies next
    # to the vertex, which is put anywhere on and around the grid
    rng = np.random.default_rng(35)
    beta = np.zeros(4)
    for _ in range(300):
        vertex, curv = rng.uniform(-0.2, 1.2), rng.uniform(1e-3, 10.0)
        c3 = curv / 3.0
        c2 = -vertex * curv / 2.0
        c1 = curv * vertex ** 2 / 2.0 + rng.uniform(1e-3, 1.0)
        c = CubicPair(np.array([0.0, c1, c2, c3]), beta, 1.0)
        assert check_alpha_monotone(c) == _alpha_grid_min(c)


def test_closed_form_controls_match_lift_controls_on_warped_grids():
    rng = np.random.default_rng(32)
    t = np.linspace(0.0, 1.0, 8193)
    targets = [rand_target(rng) for _ in range(60)] + edge_targets()
    for i, target in enumerate(targets):
        plan = plan_controls(target)
        s, _ = smoothstep(t, 1.0, 1 + i % 3)
        u1, u2, _ = plan.controls(s)
        r1, r2 = oracle_controls(plan, s)
        scale = max(np.max(np.abs(r1)), np.max(np.abs(r2)))
        assert np.max(np.abs(u1 - r1)) <= 1e-14 * scale
        assert np.max(np.abs(u2 - r2)) <= 1e-14 * scale


def test_sampled_min_abs_z_matches_the_oracle():
    # the schedule's min |z| is the minimum over its own sampled s, which
    # include both ends; the 513 warped samples read at most 1e-4 above the
    # 2048-point grid minimum (the grid resolves the dip better) and 1e-5
    # below it (the dip falls between grid points)
    for i, t in enumerate(witness_targets(36)):
        k = 1 + i % MAX_WARP_ORDER
        plan = plan_controls(t)
        sched = sample_plan(plan, 1.5, DEFAULT_SAMPLES, k)
        s, _ = smoothstep(sched.t, 1.5, k)
        _, w2, w3, _, _ = rates_arrays(plan.cubics, s)
        ref = float(np.min(np.hypot(w2, w3)))
        assert abs(sched.min_abs_z - ref) <= 1e-14 * ref
        _, grid_min = oracle_phase(plan.cubics)
        assert (1.0 - 1e-5) * grid_min <= sched.min_abs_z <= (1.0 + 1e-4) * grid_min
        assert sched.min_abs_z <= decompose_target(t).alpha_bar * (1.0 + 1e-15)


def test_branch_guard_rejects_decreasing_alpha():
    # alpha' = 1 - 6s turns negative with beta' = 1 keeping z away from 0:
    # atan2(-q, alpha') would leave its branch
    c = CubicPair(np.array([0.0, 1.0, -3.0, 0.0]), np.array([0.0, 1.0, 0.0, 0.0]), 0.0)
    with pytest.raises(MonotonicityViolation, match="grid min"):
        check_alpha_monotone(c)


def test_endpoint_slope_rounding_below_zero_still_plans():
    # beta_bar near pi/2: alpha'(1) = alpha_bar cos(beta_bar) ~ 5e-16
    # evaluates to -1.2e-15; that is rounding, not a branch change
    plan = plan_controls(rounding_target())
    assert plan.cubics.dalpha(1.0) < 0.0
    ref_theta, ref_min = oracle_phase(plan.cubics)
    assert abs(plan.theta1 - ref_theta[-1]) <= 1e-14
    assert plan.alpha_grid_min > 0.0
    # 2047 intervals sample the 2048 points of the oracle's grid
    sched = unwarped_schedule(rounding_target(), 2047)
    assert abs(sched.min_abs_z - ref_min) <= 1e-14


def test_singular_curve_is_rejected():
    # constant alpha and beta: z vanishes everywhere; the guard fires
    # before the division by |z|^2 could warn
    c = CubicPair(np.array([0.3, 0.0, 0.0, 0.0]), np.zeros(4), 0.0)
    plan = dataclasses.replace(plan_controls(E3), cubics=c)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularFlatCurve):
            plan.controls(np.linspace(0.0, 1.0, 65))
        with pytest.raises(SingularFlatCurve):
            sample_plan(plan, 1.0, 256, 1)


def test_winding_check_fires_on_looping_curve():
    # alpha' = 1 with a full 2*pi beta loop winds z around the origin
    c = CubicPair(np.array([0.0, 1.0, 0.0, 0.0]),
                  np.array([0.0, 2 * PI, 0.0, 0.0]), 0.0)
    assert check_alpha_monotone(c) > 0.0
    with pytest.raises(WindingNonzero):
        check_winding(c)
    assert abs(check_winding(CubicPair.from_decomposition(decompose_target(E3)))) <= WINDING_TOL


# ---------------------------------------------------------------- smoothstep

def test_smoothstep_midpoint_k1():
    s, ds = smoothstep(1.0, 2.0, 1)
    assert s == pytest.approx(0.5, abs=1e-15)
    assert ds == pytest.approx(3.0 / 4.0, abs=1e-15)


def test_smoothstep_matches_reference_cubic():
    t = np.linspace(0.0, 2.0, 101)
    s, ds = smoothstep(t, 2.0, 1)
    u = t / 2.0
    assert np.max(np.abs(s - (3 * u ** 2 - 2 * u ** 3))) <= 1e-15
    assert np.max(np.abs(ds - (6 * u * (1 - u)) / 2.0)) <= 1e-15


def test_smoothstep_endpoints_exact():
    for k in (1, 2, 3, 4):
        s0, d0 = smoothstep(0.0, 1.7, k)
        s1, d1 = smoothstep(1.7, 1.7, k)
        assert (s0, d0) == (0.0, 0.0)
        assert (s1, d1) == (1.0, 0.0)


def test_smoothstep_midpoint_symmetry():
    for k in (1, 2, 3):
        s, _ = smoothstep(0.5, 1.0, k)
        assert s == pytest.approx(0.5, abs=1e-15)


def test_smoothstep_strictly_increasing():
    t = np.linspace(0, 1, 257)
    for k in (1, 2, 3):
        s, ds = smoothstep(t, 1.0, k)
        assert np.all(np.diff(s) > 0)
        assert np.all(ds[1:-1] > 0)


def _boundary_value_clock(k):
    """Exact-rational oracle: the unique degree 2k+1 polynomial with
    p(0) = 0, p(1) = 1 and derivatives 1..k vanishing at both ends,
    found by solving the defining linear system over Fractions."""
    from fractions import Fraction
    dim = 2 * k + 2
    rows = []
    rhs = []

    def falling(j, n):
        out = 1
        for i in range(n):
            out *= j - i
        return out

    for n in range(0, k + 1):            # conditions at u = 0
        rows.append([Fraction(falling(j, n)) if j == n else Fraction(0)
                     for j in range(dim)])
        rhs.append(Fraction(0))
    for n in range(0, k + 1):            # conditions at u = 1
        rows.append([Fraction(falling(j, n)) for j in range(dim)])
        rhs.append(Fraction(1) if n == 0 else Fraction(0))
    for col in range(dim):               # Gaussian elimination
        piv = next(r for r in range(col, dim) if rows[r][col] != 0)
        rows[col], rows[piv] = rows[piv], rows[col]
        rhs[col], rhs[piv] = rhs[piv], rhs[col]
        inv = 1 / rows[col][col]
        rows[col] = [v * inv for v in rows[col]]
        rhs[col] *= inv
        for r in range(dim):
            if r != col and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
                rhs[r] -= f * rhs[col]
    return rhs                           # coefficients, ascending powers


def test_smoothstep_matches_boundary_value_oracle():
    for k in (1, 2, 3, 4):
        coeffs = _boundary_value_clock(k)
        u = np.linspace(0.0, 1.0, 97)
        expect = sum(float(c) * u ** j for j, c in enumerate(coeffs))
        got, _ = smoothstep(u, 1.0, k)
        assert np.max(np.abs(got - expect)) <= 1e-13


def test_warped_controls_flatten_at_endpoints_with_order():
    # for warp order k the first k - 1 control derivatives vanish at the
    # ends; the one-sided difference quotient must shrink with the grid
    for k in (2, 3):
        slopes = {}
        for n in (512, 1024):
            sched = synthesize(E3, 1.0, n, k)
            slopes[n] = max(abs(sched.u1[1] - sched.u1[0]),
                            abs(sched.u2[1] - sched.u2[0])) / sched.spacing
        assert slopes[1024] <= 0.75 * slopes[512]


def test_smoothstep_accurate_up_to_max_warp_order():
    # the bound is where cancellation in the coefficients reaches 1e-9
    coeffs = _boundary_value_clock(MAX_WARP_ORDER)
    u = np.linspace(0.0, 1.0, 1025)
    expect = sum(float(c) * u ** j for j, c in enumerate(coeffs))
    got, _ = smoothstep(u, 1.0, MAX_WARP_ORDER)
    assert np.max(np.abs(got - expect)) <= 1e-9


def test_smoothstep_rejects_bad_args():
    with pytest.raises(ValueError):
        smoothstep(0.5, 1.0, 0)
    with pytest.raises(ValueError):
        smoothstep(0.5, 1.0, MAX_WARP_ORDER + 1)
    with pytest.raises(ValueError):
        smoothstep(0.5, -1.0, 1)
    with pytest.raises(ValueError):
        smoothstep(2.0, 1.0, 1)


# ---------------------------------------------------------------- synthesize

def test_synthesize_minus_one_is_a_scaled_constant_pulse():
    sched = synthesize(MINUS_ONE, 1.0, 1024, 1)
    _, ds = smoothstep(sched.t, 1.0, 1)
    assert np.max(np.abs(sched.u1)) <= 1e-12
    assert np.max(np.abs(sched.u2 - PI * ds)) <= 1e-12


def test_synthesize_endpoint_controls_exactly_zero():
    rng = np.random.default_rng(27)
    for _ in range(10):
        sched = synthesize(rand_target(rng), 1.0, 128, int(rng.integers(1, 4)))
        assert sched.u1[0] == 0.0 and sched.u1[-1] == 0.0
        assert sched.u2[0] == 0.0 and sched.u2[-1] == 0.0


def test_synthesize_validates_arguments():
    with pytest.raises(ValueError):
        synthesize(E3, 0.0)
    with pytest.raises(ValueError):
        synthesize(E3, 1.0, 32)
    with pytest.raises(IdentityTarget):
        synthesize(ONE, 1.0)
    with pytest.raises(ValueError, match="at most"):
        synthesize(E3, 1.0, MAX_SAMPLES + 1)
    # k = 25 missed the target by 7.5e-2; k = 200 gave all-NaN controls
    for k in (25, 200):
        with pytest.raises(ValueError, match="warp order"):
            synthesize(E3, 1.0, 8192, k)


def test_unwarped_schedule_shares_the_s_profile():
    sched = unwarped_schedule(E3, 256)
    u1, u2, _ = plan_controls(E3).controls(np.linspace(0, 1, 257))
    assert np.max(np.abs(sched.u1 - u1)) <= 1e-12
    assert np.max(np.abs(sched.u2 - u2)) <= 1e-12


def test_synthesize_steers_to_e2():
    from flatgate.propagator import propagate
    sched = synthesize(E2, 1.0, 32768, 1)
    final = propagate(sched, h=1.0 / 32768).final
    assert np.linalg.norm(final.as_array() - [0, 0, 1, 0]) <= 1e-8


def test_warp_orders_reach_the_same_target():
    # the s-path is fixed; k only reshapes the clock
    from flatgate.propagator import propagate
    rng = np.random.default_rng(28)
    for _ in range(3):
        t = rand_target(rng)
        for k in (1, 2):
            final = propagate(synthesize(t, 1.0, 8192, k), h=1.0 / 8192).final
            assert np.linalg.norm(final.as_array() - t.as_array()) <= 1e-6


def test_rotate_controls_round_trip():
    sched = synthesize(E3, 1.0, 128, 1)
    back = rotate_controls(rotate_controls(sched, 0.9), -0.9)
    assert np.max(np.abs(back.u1 - sched.u1)) <= 1e-12
    assert np.max(np.abs(back.u2 - sched.u2)) <= 1e-12
    assert np.max(np.abs(back.target.as_array() - sched.target.as_array())) <= 1e-12


def test_default_samples_is_the_smallest_power_of_two_within_1e9():
    # the reference scenario (e3, T = 2, k = 1) at h = T/8192 and at the
    # default step, the schedule's own spacing
    from flatgate.propagator import propagate

    def errors(n):
        sched = synthesize(E3, 2.0, n, 1)
        return [float(np.linalg.norm(propagate(sched, h=h).final.as_array() - [0, 0, 0, 1]))
                for h in (2.0 / 8192, None)]
    assert max(errors(DEFAULT_SAMPLES)) <= 1e-9
    assert min(errors(DEFAULT_SAMPLES // 2)) > 1e-9


def test_sample_plan_peak_memory():
    # at most 12 float arrays of n + 1 samples alive at once, the result's
    # three included
    n = 2 ** 18
    plan = plan_controls(E3)
    for k in (1, MAX_WARP_ORDER):
        tracemalloc.start()
        try:
            sample_plan(plan, 1.0, n, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12 * 8 * (n + 1)


@pytest.mark.parametrize("k", [1, MAX_WARP_ORDER])
def test_sample_plan_peak_is_ten_arrays(k):
    # Plan.controls frees each temporary after its last use, and numpy
    # reuses expression temporaries in place: 10 float arrays of n + 1
    # samples at the peak, 15 if the temporaries lived to the return
    n = 2 ** 20
    plan = plan_controls(E3)
    tracemalloc.start()
    try:
        sample_plan(plan, 2.0, n, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10.5 * 8 * (n + 1)


# ---------------------------------------------------------------- shared clock

def test_sample_plan_cold_and_warm_clock_are_bit_identical():
    plan = plan_controls(rand_target(np.random.default_rng(29)))
    for big_t, n, k in ((1.0, 512, 1), (2.0, 4096, 3), (0.7, 64, MAX_WARP_ORDER)):
        planner._cached_clock.cache_clear()
        cold = sample_plan(plan, big_t, n, k)
        warm = sample_plan(plan, big_t, n, k)
        assert planner._cached_clock.cache_info().hits == 1
        t = planner._sample_grid(big_t, n)
        s, sd = smoothstep(t, big_t, k)
        u1, u2, _ = plan.controls(s)
        u1, u2 = u1 * sd, u2 * sd
        u1[0] = u1[-1] = u2[0] = u2[-1] = 0.0
        for got in (cold, warm):
            assert [a.tobytes() for a in (got.t, got.u1, got.u2)] \
                == [a.tobytes() for a in (t, u1, u2)]


@pytest.mark.parametrize("n", [64, 512, 1000, 4096, 2 ** 17])
def test_synthesize_equals_the_one_evaluation_per_factor_oracle(n):
    # Plan.controls makes s * 3.0 and s * 6.0 once for alpha and beta and
    # keeps every product's factors and association, so not one bit moves;
    # 2**17 intervals take the per-call clock, the others the cached one
    rng = np.random.default_rng(38)
    near_identity = UnitQuaternion(math.cos(1e-9), 0.0, 0.0, math.sin(1e-9))
    haar = [rand_target(rng) for _ in range(3 if n > planner.CLOCK_CACHE_MAX_N else 12)]
    for t in haar + [E1, E3, MINUS_ONE, near_identity]:
        plan = plan_controls(t)
        for k in range(1, MAX_WARP_ORDER + 1):
            big_t = (1.0, 0.7)[k % 2]
            got = synthesize(t, big_t, n, k)
            want = sampled_plan(plan, big_t, n, k)
            assert [got.u1.tobytes(), got.u2.tobytes(), np.float64(got.min_abs_z).tobytes()] \
                == [want[0].tobytes(), want[1].tobytes(), np.float64(want[2]).tobytes()]


def test_cached_clock_is_read_only_and_bounded():
    planner._cached_clock.cache_clear()
    for a in planner._clock(1.0, 512, 2):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[1] = 0.0
    for big_t in np.linspace(0.5, 3.0, 3 * planner.CLOCK_CACHE_SIZE):
        planner._clock(float(big_t), 128, 1)
    assert planner._cached_clock.cache_info().currsize == planner.CLOCK_CACHE_SIZE
    # above the cap a clock is built per call, writeable and never cached
    before = planner._cached_clock.cache_info()
    s, sd = planner._clock(1.0, planner.CLOCK_CACHE_MAX_N + 1, 1)
    assert s.flags.writeable and sd.flags.writeable
    assert planner._cached_clock.cache_info() == before


def test_large_clock_is_not_retained():
    plan = plan_controls(E3)
    n = 2 ** 18
    sample_plan(plan, 1.0, n, 1)              # imports and caches settle
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        sample_plan(plan, 1.25, n, 2)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # one float array of n + 1 samples would be 2 MB
    assert retained < 8 * (n + 1) // 16


@pytest.mark.parametrize("big_t", [math.nan, math.inf, -math.inf, 0.0, -1.0, 5e-324, 1e-310,
                                   sys.float_info.min, 0.5 * MIN_DURATION])
def test_bad_durations_are_refused_before_any_arithmetic(big_t):
    info = planner._cached_clock.cache_info()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (lambda: planner._sample_grid(big_t, 512),
                     lambda: smoothstep(0.0, big_t, 1),
                     lambda: synthesize(E3, big_t, k=MAX_WARP_ORDER),
                     lambda: zyz_schedule(euler_decompose(E3), big_t)):
            with pytest.raises(ValueError, match="positive and finite, at least"):
                call()
    assert planner._cached_clock.cache_info().currsize == info.currsize


def test_shortest_duration_plans_every_warp_order_without_warnings():
    # controls ~ 1/T stay finite at the bound, at the largest warp order too
    rng = np.random.default_rng(37)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k in range(1, MAX_WARP_ORDER + 1):
            for t in [rand_target(rng) for _ in range(5)] + [E3, MINUS_ONE]:
                sched = synthesize(t, MIN_DURATION, DEFAULT_SAMPLES, k)
                assert np.all(np.isfinite(sched.u1)) and np.all(np.isfinite(sched.u2))
