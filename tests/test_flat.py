import math
import warnings

import numpy as np
import pytest

from flatgate import quat
from flatgate.errors import GridTooCoarse, NotTangent, SectionSingularity, SingularFlatCurve
from flatgate.flat import (
    FlatPoint,
    LiftSamplePath,
    body_velocity,
    flat_point,
    group_action,
    invert_lift,
    section,
    unwrap_phase,
)
from flatgate.quat import E1, E2, E3, ONE, ImagQuaternion, Quaternion, mul, exp_pure


def rand_unit(rng):
    return quat.as_unit(quat.random_unit(rng))


def k_factor(rng):
    return exp_pure(ImagQuaternion(rng.uniform(-7, 7), 0.0, 0.0))


# ---------------------------------------------------------------- flat_point

def test_flat_point_examples():
    assert np.array_equal(flat_point(ONE).as_array(), [1, 0, 0])
    # q = e2: conj(e2) e1 e2 = -e1
    assert np.max(np.abs(flat_point(E2).as_array() - [-1, 0, 0])) <= 1e-15
    with pytest.raises(ValueError, match="must be unit"):
        FlatPoint(ImagQuaternion(0.5, 0.0, 0.0))


def test_left_subgroup_invariance():
    rng = np.random.default_rng(10)
    for _ in range(100):
        q = rand_unit(rng)
        k = k_factor(rng)
        d = flat_point(mul(k, q)).as_array() - flat_point(q).as_array()
        assert np.max(np.abs(d)) <= 1e-12


def test_equivariance():
    rng = np.random.default_rng(11)
    for _ in range(100):
        q, g = rand_unit(rng), rand_unit(rng)
        lhs = flat_point(mul(q, g)).as_array()
        rhs = group_action(g, flat_point(q)).as_array()
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_group_action_examples():
    rng = np.random.default_rng(12)
    y = flat_point(rand_unit(rng))
    assert np.array_equal(group_action(ONE, y).as_array(), y.as_array())
    g1, g2 = rand_unit(rng), rand_unit(rng)
    lhs = group_action(g2, group_action(g1, y)).as_array()
    rhs = group_action(mul(g1, g2), y).as_array()
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_faithfulness_on_orbit_pairs():
    # states with equal flat points differ by a left factor commuting with e1
    rng = np.random.default_rng(13)
    for _ in range(100):
        q = rand_unit(rng)
        p = mul(k_factor(rng), q)
        assert np.max(np.abs(flat_point(p).as_array() - flat_point(q).as_array())) <= 1e-12
        w = mul(p, quat.conj(q))
        comm = mul(w, E1).as_array() - mul(E1, w).as_array()
        assert np.max(np.abs(comm)) <= 1e-9


# ------------------------------------------------------------------- section

def test_section_examples():
    assert np.array_equal(section(FlatPoint(ImagQuaternion(1, 0, 0))).as_array(),
                          [1, 0, 0, 0])
    y = FlatPoint(ImagQuaternion(0, 1, 0))
    s = section(y)
    assert np.max(np.abs(flat_point(s).as_array() - [0, 1, 0])) <= 1e-15


def test_section_right_inverse_on_random_points():
    rng = np.random.default_rng(14)
    n = 0
    while n < 100:
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        if v[0] < -1.0 + 1e-6:
            continue
        n += 1
        y = FlatPoint(ImagQuaternion(*v))
        assert np.max(np.abs(flat_point(section(y)).as_array() - v)) <= 1e-9


def test_section_singularity():
    with pytest.raises(SectionSingularity):
        section(FlatPoint(ImagQuaternion(-1, 0, 0)))


# ------------------------------------------------------------- body_velocity

def test_body_velocity_constant_rotation():
    rng = np.random.default_rng(15)
    t = rng.uniform(0, 6)
    y = exp_pure(ImagQuaternion(0, t, 0))
    yd = mul(E2, y)
    w = body_velocity(y, Quaternion(*yd.as_array()))
    assert np.max(np.abs([w.x, w.y - 1.0, w.z])) <= 1e-12


def test_body_velocity_at_identity():
    w = body_velocity(ONE, Quaternion(0, 3, 0, 4))
    assert (w.x, w.y, w.z) == (3.0, 0.0, 4.0)


def test_body_velocity_recovers_left_rate():
    rng = np.random.default_rng(16)
    for _ in range(50):
        y = rand_unit(rng)
        v = ImagQuaternion(*rng.normal(size=3))
        yd = mul(v.as_quaternion(), y)
        w = body_velocity(y, yd)
        assert np.max(np.abs(np.array([w.x, w.y, w.z]) - v.as_array())) <= 1e-12


def test_body_velocity_rejects_non_tangent():
    with pytest.raises(NotTangent):
        body_velocity(ONE, Quaternion(1.0, 0, 0, 0))


# -------------------------------------------------------------- unwrap_phase

def test_unwrap_constant():
    out = unwrap_phase(np.ones(64, dtype=complex), 0.0)
    assert np.array_equal(out, np.zeros(64))


def test_unwrap_full_turn():
    s = np.linspace(0.0, 1.0, 1000)
    theta = unwrap_phase(np.exp(2j * np.pi * s), 0.0)
    assert theta[-1] == pytest.approx(2 * math.pi, abs=1e-9)


def test_unwrap_respects_offset_branch():
    s = np.linspace(0.0, 1.0, 1000)
    theta = unwrap_phase(np.exp(2j * np.pi * s), 2 * math.pi)
    assert theta[0] == 2 * math.pi
    assert theta[-1] == pytest.approx(4 * math.pi, abs=1e-9)


def test_unwrap_rejects_zero():
    with pytest.raises(SingularFlatCurve):
        unwrap_phase(np.array([1.0, 0.0, 1.0], dtype=complex), 0.0)


def test_unwrap_rejects_coarse_grid():
    with pytest.raises(GridTooCoarse):
        unwrap_phase(np.exp(2j * np.pi * np.linspace(0, 1, 4)), 0.0)


def test_unwrap_rejects_incompatible_start():
    with pytest.raises(ValueError):
        unwrap_phase(np.ones(8, dtype=complex), 1.0)


# --------------------------------------------------------------- invert_lift

def _rotation_lift(axis, m=257):
    """Y(s) = exp(s * e_axis) with closed-form derivatives."""
    s = np.linspace(0.0, 1.0, m)
    y = np.zeros((m, 4))
    y[:, 0] = np.cos(s)
    y[:, axis] = np.sin(s)
    yd = np.zeros((m, 4))
    yd[:, 0] = -np.sin(s)
    yd[:, axis] = np.cos(s)
    return LiftSamplePath(s, y, yd, -y)


def test_invert_e2_rotation_is_its_own_lift():
    path = _rotation_lift(2)
    inv = invert_lift(path, 0)
    assert np.max(np.abs(inv.states - path.y)) <= 1e-12
    assert np.max(np.abs(inv.u1)) <= 1e-12
    assert np.max(np.abs(inv.u2 - 1.0)) <= 1e-12
    assert np.max(np.abs(inv.theta)) <= 1e-12


def test_invert_e3_rotation_shifts_by_quarter_turn():
    path = _rotation_lift(3)
    inv = invert_lift(path, 0)
    # expected q(s) = exp(-(pi/4) e1) * exp(s e3), built by quaternion products
    shift = exp_pure(ImagQuaternion(-math.pi / 4, 0, 0))
    expect = np.array([
        mul(shift, quat.as_unit(path.y[i])).as_array() for i in range(path.s.size)
    ])
    assert np.max(np.abs(inv.states - expect)) <= 1e-12
    assert np.max(np.abs(inv.u1)) <= 1e-12
    assert np.max(np.abs(inv.u2 - 1.0)) <= 1e-12
    assert np.max(np.abs(inv.theta + math.pi / 2)) <= 1e-12


def test_branches_differ_by_left_factor_and_control_sign():
    path = _rotation_lift(3)
    base = invert_lift(path, 0)
    e1row = np.array([0.0, 1.0, 0.0, 0.0])
    for n in range(4):
        inv = invert_lift(path, n)
        assert np.array_equal(inv.u1, base.u1)
        assert np.array_equal(inv.u2, ((-1.0) ** n) * base.u2)
        expect = base.states
        if n % 2 == 1:
            expect = quat.qmul_arr(e1row, expect)
        if n >= 2:
            expect = -expect
        assert np.max(np.abs(inv.states - expect)) <= 1e-15


def test_branch_states_stay_in_the_lift_orbit():
    path = _rotation_lift(3)
    for n in range(4):
        inv = invert_lift(path, n)
        for i in range(0, path.s.size, 16):
            a = flat_point(quat.as_unit(inv.states[i])).as_array()
            b = flat_point(quat.as_unit(path.y[i])).as_array()
            assert np.max(np.abs(a - b)) <= 1e-9


def test_invert_rejects_bad_branch():
    with pytest.raises(ValueError):
        invert_lift(_rotation_lift(2), 4)
    # True once ran as branch 1
    for branch in (True, False, np.True_, 1.0, "1"):
        with pytest.raises(ValueError, match="integer"):
            invert_lift(_rotation_lift(2), branch)


def test_invert_rejects_stationary_curve():
    # Y = exp(s e1) moves only along the fiber: z = 0 everywhere
    with pytest.raises(SingularFlatCurve):
        invert_lift(_rotation_lift(1), 0)


def test_lift_path_validation():
    m = 65
    s = np.linspace(0, 1, m)
    y = np.zeros((m, 4))
    y[:, 0] = np.cos(s)
    y[:, 2] = np.sin(s)
    yd = np.zeros((m, 4))
    yd[:, 0] = -np.sin(s)
    yd[:, 2] = np.cos(s)
    with pytest.raises(ValueError, match="shapes"):
        LiftSamplePath(s, y[:-1], yd, -y)          # one sample short
    with pytest.raises(ValueError, match="strictly increasing"):
        LiftSamplePath(s[::-1], y, yd, -y)         # decreasing grid
    with pytest.raises(ValueError):
        LiftSamplePath(s ** 2, y, yd, -y)          # non-uniform grid
    with pytest.raises(ValueError):
        LiftSamplePath(s, 1.01 * y, yd, -y)        # non-unit samples
    with pytest.raises(NotTangent):
        LiftSamplePath(s, y, y, -y)                # radial derivative
    # each passed every check (a NaN fails no comparison), or was cast to
    # float, a complex one behind a ComplexWarning
    for bad in (np.nan, np.inf, -np.inf):
        for i in range(4):
            args = [s.copy(), y.copy(), yd.copy(), -y]
            args[i][m // 2] = bad
            with pytest.raises(ValueError, match="finite"):
                LiftSamplePath(*args)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for i in range(4):
            for cast in (lambda a: a + 0j, lambda a: a.astype(str), lambda a: a != 0,
                         lambda a: a.tolist()[:-1] + [a[-1] != 0]):
                args = [s, y, yd, -y]
                args[i] = cast(args[i])
                with pytest.raises(ValueError, match="real number"):
                    LiftSamplePath(*args)
    with pytest.raises(ValueError, match="ragged"):
        LiftSamplePath(s, y.tolist()[:-1] + [[1.0, 0.0, 0.0]], yd, -y)
