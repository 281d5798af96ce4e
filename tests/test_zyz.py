import math

import numpy as np
import pytest

from flatgate import quat
from flatgate.cli import NAMED_GATES
from flatgate.propagator import (detuning_sweep, fidelity, propagate,
                                 propagate_final_batch, propagate_piecewise_exact)
from flatgate.quat import E1, E3, ONE, UnitQuaternion
from flatgate.schedule import INTERP_PCONST, PulseSchedule
from flatgate.zyz import EulerE1E2E1, euler_decompose, zyz_schedule
from oracles import piecewise_exact

MINUS_ONE = UnitQuaternion(-1.0, 0.0, 0.0, 0.0)
PI = math.pi


def test_decompose_e3():
    ang = euler_decompose(E3)
    assert (ang.a, ang.b, ang.c) == (0.0, pytest.approx(PI / 2), pytest.approx(PI / 2))


def test_decompose_identity():
    ang = euler_decompose(ONE)
    assert (ang.a, ang.b, ang.c) == (0.0, 0.0, 0.0)


def test_decompose_minus_one_uses_middle_axis():
    ang = euler_decompose(MINUS_ONE)
    assert ang.a == 0.0
    assert ang.b == pytest.approx(PI, abs=1e-15)
    assert abs(ang.c) <= 1e-15


def test_decompose_e1_folds_into_last_pulse():
    ang = euler_decompose(E1)
    assert ang.a == 0.0 and ang.b == 0.0
    assert ang.c == pytest.approx(PI / 2, abs=1e-15)


def test_random_reconstruction():
    rng = np.random.default_rng(30)
    for _ in range(100):
        t = quat.as_unit(quat.random_unit(rng))
        ang = euler_decompose(t)
        assert 0.0 <= ang.b <= PI
        err = np.max(np.abs(ang.reconstruct().as_array() - t.as_array()))
        assert err <= 1e-12


def test_schedule_matches_reference_two_pulse_areas():
    # e3 over T = 2: zero first segment, then areas pi/2 on e2 and pi/2 on e1
    sched = zyz_schedule(euler_decompose(E3), 2.0)
    assert np.array_equal(sched.t, [0.0, 2.0 / 3.0, 4.0 / 3.0, 2.0])
    third = 2.0 / 3.0
    amp = 3.0 * (PI / 2) / 2.0
    assert sched.u1[0] == 0.0 and sched.u2[0] == 0.0
    assert sched.u2[1] == pytest.approx(amp) and sched.u1[1] == 0.0
    assert sched.u1[2] == pytest.approx(amp) and sched.u2[2] == 0.0
    assert sched.u2[1] * third == pytest.approx(PI / 2)
    assert sched.u1[2] * third == pytest.approx(PI / 2)


def test_identity_gives_all_zero_schedule():
    sched = zyz_schedule(euler_decompose(ONE), 1.0)
    assert np.max(np.abs(sched.u1)) == 0.0
    assert np.max(np.abs(sched.u2)) == 0.0


def test_exact_propagation_recovers_target():
    rng = np.random.default_rng(31)
    for _ in range(50):
        t = quat.as_unit(quat.random_unit(rng))
        sched = zyz_schedule(euler_decompose(t), 1.0)
        final = propagate_piecewise_exact(sched)
        assert np.max(np.abs(final.as_array() - t.as_array())) <= 1e-12


def test_held_schedules_are_exact_at_every_aligned_step():
    # a held step is the exponential of its segment's generator, so every
    # step that divides the segments reaches the exact product: one step per
    # segment, two, or the default step; RK4 on held values missed by ~1 at
    # one step per segment.  70 detunings make two row blocks
    rng = np.random.default_rng(32)
    scheds = [zyz_schedule(euler_decompose(quat.as_unit(quat.random_unit(rng))), 2.0)
              for _ in range(3)]
    scheds.append(PulseSchedule(2.0, *rng.normal(scale=3.0, size=(2, 65)), target=ONE,
                                interpolation=INTERP_PCONST))
    drs = np.linspace(-1.0, 1.0, 70)
    for sched in scheds:
        exact = np.array([piecewise_exact(sched, dr).as_array() for dr in drs])
        for h in (sched.spacing, sched.spacing / 2, None):
            for dr in (0.0, 0.45):
                res = propagate(sched, delta_r=dr, h=h)
                one = piecewise_exact(sched, dr).as_array()
                assert np.max(np.abs(res.final.as_array() - one)) <= 1e-13
                assert np.max(np.abs(res.states[-1] - one)) <= 1e-13
            finals, _ = propagate_final_batch([sched] * 70, delta_r=drs, h=h)
            assert np.max(np.abs(finals - exact)) <= 1e-13
            sweep = detuning_sweep(sched, drs, sched.target, h=h)
            assert np.max(np.abs(sweep.fidelity - exact @ sched.target.as_array())) <= 1e-13


def test_rk4_tracks_exact_propagation():
    t = quat.as_unit(quat.random_unit(np.random.default_rng(33)))
    sched = zyz_schedule(euler_decompose(t), 2.0)
    exact = propagate_piecewise_exact(sched)
    rk4 = propagate(sched, h=2.0 / (3 * 2048)).final
    assert fidelity(exact, rk4) >= 1.0 - 1e-12


@pytest.mark.parametrize("gate", sorted(NAMED_GATES))
def test_default_step_matches_exact_propagation(gate):
    # the default step divides each third of T into whole steps, each the
    # exponential of its held segment
    target = NAMED_GATES[gate]
    sched = zyz_schedule(euler_decompose(target), 2.0)
    exact = propagate_piecewise_exact(sched).as_array()
    finals, _ = propagate_final_batch([sched])
    assert np.max(np.abs(finals[0] - exact)) <= 1e-13
    assert np.max(np.abs(propagate(sched).final.as_array() - exact)) <= 1e-13


def test_zyz_schedule_rejects_bad_duration():
    with pytest.raises(ValueError):
        zyz_schedule(EulerE1E2E1(0.0, PI / 2, 0.0), 0.0)
