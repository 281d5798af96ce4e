import math

import numpy as np
import pytest

from flatgate import quat
from flatgate.errors import StepTooLarge
from flatgate.planner import synthesize, unwarped_schedule
from flatgate.propagator import (
    _MAX_STEPS,
    _prefix_product,
    _tree_product,
    detuning_sweep,
    fidelity,
    ode_residual,
    propagate,
    propagate_final_batch,
    propagate_piecewise_exact,
)
from flatgate.quat import E3, ONE, ImagQuaternion, UnitQuaternion, exp_pure, mul
from flatgate.schedule import INTERP_PCONST, PulseSchedule

PI = math.pi


def pconst(t, u1, u2, target=ONE):
    return PulseSchedule(np.asarray(t, float), np.asarray(u1, float),
                         np.asarray(u2, float), target=target,
                         interpolation=INTERP_PCONST)


def two_pulse_reference():
    half = PI / 2
    return pconst([0.0, 1.0, 2.0], [0.0, half, half], [half, 0.0, 0.0], target=E3)


def test_zero_schedule_stays_at_identity():
    sched = pconst([0.0, 0.5, 1.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0])
    res = propagate(sched, h=1.0 / 64)
    assert np.max(np.abs(res.final.as_array() - [1, 0, 0, 0])) <= 1e-15


def test_two_pulse_reference_reaches_e3():
    res = propagate(two_pulse_reference(), h=2.0 / 8192)
    assert np.linalg.norm(res.final.as_array() - [0, 0, 0, 1]) <= 1e-10


def test_constant_first_channel_is_a_rotation_about_e1():
    w, big_t = 0.7, 1.3
    sched = pconst([0.0, big_t / 2, big_t], [w, w, w], [0.0, 0.0, 0.0])
    res = propagate(sched, h=big_t / 1024)
    expect = exp_pure(ImagQuaternion(w * big_t, 0.0, 0.0)).as_array()
    assert np.max(np.abs(res.final.as_array() - expect)) <= 1e-12


def test_fidelity_examples():
    rng = np.random.default_rng(41)
    q = quat.as_unit(quat.random_unit(rng))
    assert fidelity(q, q) == pytest.approx(1.0, abs=1e-15)
    assert fidelity(ONE, E3) == 0.0
    assert fidelity(q, UnitQuaternion(*(-q.as_array()))) == pytest.approx(-1.0, abs=1e-15)


def test_norm_drift_is_negligible():
    sched = synthesize(E3, 2.0, 2048, 1)
    res = propagate(sched, h=2.0 / 8192)
    assert res.max_norm_drift <= 1e-12
    assert np.max(np.abs(np.linalg.norm(res.states, axis=1) - 1.0)) <= 1e-9


def test_step_too_large_rejected():
    sched = synthesize(E3, 1.0, 128, 1)
    with pytest.raises(StepTooLarge):
        propagate(sched, h=1.0 / 64)


def test_step_count_cap_rejected_before_allocation():
    sched = pconst([0.0, 0.5, 1.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="steps"):
        propagate(sched, h=1e-12)
    with pytest.raises(ValueError, match="steps"):
        propagate_final_batch([sched], h=1.0 / (_MAX_STEPS + 1))
    with pytest.raises(ValueError, match="steps"):
        detuning_sweep(sched, [0.0], E3, h=1e-12)


def test_non_finite_schedule_rejected():
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            pconst([0.0, 0.5, 1.0], [0.0, bad, 0.0], [0.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="finite"):
            pconst([0.0, 0.5, 1.0], [0.0, 0.0, 0.0], [0.0, 0.0, bad])
        with pytest.raises(ValueError, match="finite"):
            pconst([0.0, bad, 1.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0])


def test_non_finite_detuning_and_step_rejected():
    sched = synthesize(E3, 1.0, 128, 1)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="delta_r must be finite"):
            propagate(sched, delta_r=bad)
        with pytest.raises(ValueError, match="delta_r must be finite"):
            propagate_final_batch([sched, sched], delta_r=[0.0, bad])
        with pytest.raises(ValueError, match="delta_r must be finite"):
            detuning_sweep(sched, [0.0, bad], E3)
    with pytest.raises(ValueError, match="step must be finite"):
        propagate_final_batch([sched], h=math.nan)
    with pytest.raises(ValueError, match="step must be finite"):
        propagate(sched, h=math.nan)
    with pytest.raises(StepTooLarge):
        propagate_final_batch([sched], h=math.inf)


def test_tree_product_matches_last_prefix_row():
    rng = np.random.default_rng(44)
    for c in (1, 2, 3, 7, 255, 256):
        m = quat.random_unit(rng, 3 * c).reshape(3, c, 4)
        tree = _tree_product(m)
        assert tree.shape == (3, 1, 4)
        assert np.max(np.abs(tree - _prefix_product(m)[:, -1:])) <= 1e-14


def test_terminal_and_recorded_finals_agree_with_odd_chunk_remainder():
    # 999 steps leave a last chunk of 231, an odd count for the tree
    rng = np.random.default_rng(45)
    linear = synthesize(quat.as_unit(quat.random_unit(rng)), 1.0, 512, 1)
    piecewise = pconst([0.0, 1 / 3, 2 / 3, 1.0], [0.4, -0.7, 1.1, 0.0],
                       [-0.3, 0.9, 0.2, 0.0])
    for sched in (linear, piecewise):
        finals, drifts = propagate_final_batch([sched], delta_r=0.25, h=1.0 / 999)
        res = propagate(sched, delta_r=0.25, h=1.0 / 999)
        assert np.max(np.abs(finals[0] - res.final.as_array())) <= 1e-14
        assert drifts[0] == res.max_norm_drift


def test_batch_propagation_per_row_detuning_matches_single():
    rng = np.random.default_rng(46)
    scheds = [synthesize(quat.as_unit(quat.random_unit(rng)), 1.0, 512, 1)
              for _ in range(3)]
    drs = [0.0, 0.3, -1.2]
    finals, _ = propagate_final_batch(scheds, delta_r=drs, h=1.0 / 1024)
    for s, dr, f in zip(scheds, drs, finals):
        single, _ = propagate_final_batch([s], delta_r=dr, h=1.0 / 1024)
        assert np.max(np.abs(f - single[0])) <= 1e-14


def test_right_invariance():
    rng = np.random.default_rng(42)
    sched = synthesize(E3, 1.0, 1024, 1)
    from_one = propagate(sched, h=1.0 / 2048).final
    for _ in range(5):
        g = quat.as_unit(quat.random_unit(rng))
        shifted = propagate(sched, h=1.0 / 2048, start=g).final
        expect = mul(from_one, g)
        assert np.max(np.abs(shifted.as_array() - expect.as_array())) <= 1e-9


def test_time_reparameterization_invariance():
    n = 65536
    warped = synthesize(E3, 2.0, n, 1)
    flat_clock = unwarped_schedule(E3, n)
    fa = propagate(warped, h=2.0 / n).final.as_array()
    fb = propagate(flat_clock, h=1.0 / n).final.as_array()
    assert np.linalg.norm(fa - fb) <= 1e-8


def test_batch_propagation_matches_single():
    rng = np.random.default_rng(43)
    targets = [quat.as_unit(quat.random_unit(rng)) for _ in range(4)]
    scheds = [synthesize(t, 1.0, 512, 1) for t in targets]
    finals, drifts = propagate_final_batch(scheds, h=1.0 / 1024)
    for i, s in enumerate(scheds):
        single = propagate(s, h=1.0 / 1024).final.as_array()
        assert np.max(np.abs(finals[i] - single)) <= 1e-14
    assert np.all(drifts <= 1e-12)


def test_batch_propagation_rejects_empty_batch():
    with pytest.raises(ValueError, match="empty batch"):
        propagate_final_batch([])


def test_detuning_sweep_zero_matches_plain_propagation():
    sched = synthesize(E3, 2.0, 1024, 1)
    sweep = detuning_sweep(sched, [0.0], E3, h=2.0 / 2048)
    plain = fidelity(propagate(sched, h=2.0 / 2048).final, E3)
    assert sweep.delta_r.shape == (1,)
    assert abs(sweep.fidelity[0] - plain) <= 1e-14


def test_detuning_sweep_degrades_away_from_resonance():
    sched = synthesize(E3, 2.0, 1024, 1)
    sweep = detuning_sweep(sched, [0.0, 0.5, 5.0], E3, h=2.0 / 2048)
    assert sweep.fidelity[0] >= 1.0 - 1e-8
    assert sweep.fidelity[1] < 1.0 - 1e-4
    assert sweep.fidelity[2] < 0.9
    assert np.all(np.abs(sweep.fidelity) <= 1.0 + 1e-12)


def test_detuning_sweep_rejects_empty_list():
    sched = synthesize(E3, 1.0, 128, 1)
    with pytest.raises(ValueError):
        detuning_sweep(sched, [], E3)


def test_detuned_propagation_matches_exact_exponential():
    # constant controls + constant detuning admit one exact exponential
    w1, w2, dr, big_t = 0.4, -0.3, 0.25, 1.0
    sched = pconst([0.0, 0.5, 1.0], [w1, w1, w1], [w2, w2, w2])
    res = propagate(sched, delta_r=dr, h=big_t / 2048)
    expect = exp_pure(ImagQuaternion(w1 * big_t, w2 * big_t, dr * big_t))
    assert np.max(np.abs(res.final.as_array() - expect.as_array())) <= 1e-12
    exact = propagate_piecewise_exact(sched, delta_r=dr)
    assert np.max(np.abs(exact.as_array() - expect.as_array())) <= 1e-15


def test_detuned_three_segment_propagation_matches_exact_with_chunk_remainder():
    # 999 steps = three aligned segments of 333, and not a multiple of the
    # step chunk, so the last chunk is partial
    sched = pconst([0.0, 1 / 3, 2 / 3, 1.0], [0.4, -0.7, 1.1, 0.0],
                   [-0.3, 0.9, 0.2, 0.0])
    res = propagate(sched, delta_r=0.25, h=1.0 / 999)
    exact = propagate_piecewise_exact(sched, delta_r=0.25)
    assert res.states.shape == (1000, 4)
    assert np.max(np.abs(res.final.as_array() - exact.as_array())) <= 1e-13


def test_piecewise_exact_requires_pconst():
    sched = synthesize(E3, 1.0, 128, 1)
    with pytest.raises(ValueError):
        propagate_piecewise_exact(sched)


def test_ode_residual_second_order_on_exact_trajectory():
    residuals = {}
    for m in (256, 512):
        t = np.linspace(0.0, 1.0, m + 1)
        states = np.stack([np.cos(t), np.zeros_like(t), np.sin(t), np.zeros_like(t)], axis=1)
        residuals[m] = ode_residual(states, np.zeros(m + 1), np.ones(m + 1), t[1] - t[0])
    order = math.log2(residuals[256] / residuals[512])
    assert residuals[512] < 1e-4
    assert order >= 1.9


def test_recorded_detuned_trajectory_solves_the_ode():
    residuals = {}
    for n in (1024, 2048):
        sched = synthesize(E3, 1.0, n, 1)
        res = propagate(sched, delta_r=0.3, h=sched.spacing)
        residuals[n] = ode_residual(res.states, sched.u1, sched.u2,
                                    sched.spacing, 0.3)
    order = math.log2(residuals[1024] / residuals[2048])
    assert residuals[2048] < 1e-4
    assert order >= 1.9


def test_ode_residual_flags_sign_error():
    t = np.linspace(0.0, 1.0, 257)
    states = np.stack([np.cos(t), np.zeros_like(t), np.sin(t), np.zeros_like(t)], axis=1)
    bad = ode_residual(states, np.zeros(257), -np.ones(257), t[1] - t[0])
    assert bad >= 0.5


def test_trajectory_time_grid():
    sched = synthesize(E3, 1.0, 128, 1)
    res = propagate(sched, h=1.0 / 128)
    assert res.t.shape == (129,)
    assert res.states.shape == (129, 4)
    assert res.t[0] == 0.0
    assert res.t[-1] == pytest.approx(1.0, abs=1e-12)
