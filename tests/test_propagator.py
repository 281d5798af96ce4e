import collections
import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from flatgate import propagator, quat
from flatgate.errors import FlatGateError, InvalidPropagationInput, StepTooLarge
from flatgate.planner import synthesize
from flatgate.propagator import (
    _BLOCK_CELLS,
    _ROW_BLOCK,
    DEFAULT_STEP_DIVISOR,
    _STEP_CHUNK,
    _Workspace,
    _control_rows,
    _prefix_product,
    _rk4_steps,
    _stage_reader,
    _tree_product,
    detuning_sweep,
    fidelity,
    propagate,
    propagate_final_batch,
    propagate_piecewise_exact,
)
from flatgate.quat import (
    E1, E2, E3, ONE, ImagQuaternion, Quaternion, UnitQuaternion, exp_pure, mul, pair_rows,
    qmul_arr, row_pair)
from flatgate.schedule import (
    INTERP_CUBIC, INTERP_LINEAR, INTERP_PCONST, MAX_SAMPLES, PulseSchedule)
from flatgate.zyz import euler_decompose, zyz_schedule
import oracles
from oracles import chunked_rows, ode_residual, piecewise_exact, row_kernel, unwarped_schedule

PI = math.pi


def pconst(big_t, u1, u2, target=ONE):
    return PulseSchedule(big_t, np.asarray(u1, float),
                         np.asarray(u2, float), target=target,
                         interpolation=INTERP_PCONST)


def two_pulse_reference():
    half = PI / 2
    return pconst(2.0, [0.0, half, half], [half, 0.0, 0.0], target=E3)


def test_zero_schedule_stays_at_identity():
    sched = pconst(1.0, [0.0, 0.0, 0.0], [0.0, 0.0, 0.0])
    res = propagate(sched, h=1.0 / 64)
    assert np.max(np.abs(res.final.as_array() - [1, 0, 0, 0])) <= 1e-15


def test_two_pulse_reference_reaches_e3():
    res = propagate(two_pulse_reference(), h=2.0 / 8192)
    assert np.linalg.norm(res.final.as_array() - [0, 0, 0, 1]) <= 1e-10


def test_constant_first_channel_is_a_rotation_about_e1():
    w, big_t = 0.7, 1.3
    sched = pconst(big_t, [w, w, w], [0.0, 0.0, 0.0])
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


def reinterpolated(sched, interpolation):
    return PulseSchedule(sched.duration, sched.u1, sched.u2, target=sched.target,
                         interpolation=interpolation)


def test_step_too_large_rejected():
    planned = synthesize(E3, 1.0, 128, 1)
    for interpolation in (INTERP_CUBIC, INTERP_LINEAR, INTERP_PCONST):
        sched = reinterpolated(planned, interpolation)
        with pytest.raises(StepTooLarge):
            propagate(sched, h=1.0 / 64)
        with pytest.raises(StepTooLarge):
            propagate_final_batch([sched], h=sched.spacing * (1.0 + 1e-9))
        assert len(propagate(sched, h=sched.spacing).t) == 129


def test_default_step_follows_the_interpolation():
    sched = synthesize(E3, 2.0, 256, 1)
    assert sched.interpolation == INTERP_CUBIC
    assert np.array_equal(propagate(sched).t, propagate(sched, h=sched.spacing).t)
    assert len(propagate(sched).t) == 257
    finals, _ = propagate_final_batch([sched])
    assert np.array_equal(finals, propagate_final_batch([sched], h=sched.spacing)[0])
    for interpolation in (INTERP_LINEAR, INTERP_PCONST):
        other = reinterpolated(sched, interpolation)
        assert len(propagate(other).t) == DEFAULT_STEP_DIVISOR + 1


@pytest.mark.parametrize("interpolation", [INTERP_LINEAR, INTERP_PCONST])
def test_default_step_takes_whole_steps_per_sample_interval(interpolation):
    # the fewest whole steps per interval that make at least 8192: 10000
    # intervals step at their spacing, 3 take 2731 steps each
    for n, steps in ((10000, 10000), (3, 3 * 2731), (384, 384 * 22)):
        u = np.linspace(0.0, 1.0, n + 1)
        t = propagate(PulseSchedule(2.0, u, u, target=ONE, interpolation=interpolation)).t
        assert len(t) == steps + 1 and t[-1] == 2.0


@pytest.mark.parametrize("u1, u2", [(np.zeros(4), np.zeros(5)), (np.zeros(1), np.zeros(1)),
                                    (0.0, 0.0)], ids=["unequal", "one-sample", "scalars"])
def test_schedule_controls_are_equal_rows_of_two_samples_or_more(u1, u2):
    with pytest.raises(ValueError, match="1-d arrays of equal length"):
        PulseSchedule(1.0, u1, u2, target=ONE, interpolation=INTERP_LINEAR)


def test_cubic_schedule_needs_four_samples():
    u = np.zeros(3)
    with pytest.raises(ValueError, match="four samples"):
        PulseSchedule(1.0, u, u, target=ONE, interpolation=INTERP_CUBIC)
    PulseSchedule(1.0, u, u, target=ONE, interpolation=INTERP_LINEAR)
    u = np.zeros(4)
    PulseSchedule(1.0, u, u, target=ONE, interpolation=INTERP_CUBIC)


def test_schedule_interpolation_has_no_default():
    # a schedule that leaves out its interpolation is refused, not read linearly
    u = np.zeros(4)
    with pytest.raises(TypeError, match="interpolation"):
        PulseSchedule(1.0, u, u, target=ONE)


def test_schedule_target_is_a_unit_quaternion():
    # target=None was once accepted, and writing the schedule then failed
    # with an AttributeError
    u = np.zeros(4)
    for target in (None, Quaternion(1.0, 0.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0)):
        with pytest.raises(ValueError, match="target must be a UnitQuaternion"):
            PulseSchedule(1.0, u, u, target=target, interpolation=INTERP_CUBIC)


def reader_stages(sched, h, n):
    """The propagator's stage reads of one schedule's n steps of h at the
    times i h/2, i = 0..2n, in time order."""
    v0, vm, v1 = _stage_reader(sched, h, n)(_control_rows([sched]), 0, 0, n, _Workspace(1, n, 0))
    x = np.empty(2 * n + 1, dtype=complex)
    x[0:-1:2], x[1::2], x[-1] = v0[0], vm[0], v1[0, -1]
    return x


def test_cubic_stencil_reproduces_cubic_controls():
    # the 4-point Lagrange cubic is exact on cubics, end intervals included
    big_t, n = 1.3, 16
    t = np.linspace(0.0, big_t, n + 1)
    p1 = np.polynomial.Polynomial([0.7, -1.1, 0.4, -0.9])
    p2 = np.polynomial.Polynomial([-0.2, 0.5, 1.3, 0.6])
    sched = PulseSchedule(big_t, p1(t), p2(t), target=ONE, interpolation=INTERP_CUBIC)
    # 1, 2 and 16 steps per interval read the weights from a table, 3 at
    # the stages' positions
    for r in (1, 2, 3, 16):
        h = sched.spacing / r
        v = reader_stages(sched, h, n * r)
        tau = np.minimum(np.arange(2 * n * r + 1) * (0.5 * h), big_t)
        assert np.max(np.abs(v.real - p1(tau))) <= 1e-14
        assert np.max(np.abs(v.imag - p2(tau))) <= 1e-14


def test_cubic_stage_points_at_the_spacing():
    rng = np.random.default_rng(50)
    n = 12
    u1, u2 = rng.standard_normal((2, n + 1))
    sched = PulseSchedule(0.9, u1, u2, target=ONE, interpolation=INTERP_CUBIC)
    x = reader_stages(sched, sched.spacing, n)
    for u, v in ((u1, x.real), (u2, x.imag)):
        assert np.array_equal(v[::2], u)           # stage endpoints: the samples
        mid = (-u[:-3] + 9.0 * u[1:-2] + 9.0 * u[2:-1] - u[3:]) / 16.0
        assert np.max(np.abs(v[3:-3:2] - mid)) <= 1e-15
        first = (5.0 * u[0] + 15.0 * u[1] - 5.0 * u[2] + u[3]) / 16.0
        last = (u[-4] - 5.0 * u[-3] + 15.0 * u[-2] + 5.0 * u[-1]) / 16.0
        assert abs(v[1] - first) <= 1e-15 and abs(v[-2] - last) <= 1e-15


@pytest.mark.parametrize("interpolation", [INTERP_LINEAR, INTERP_PCONST])
def test_linear_and_pconst_match_the_earlier_kernel_bit_for_bit(interpolation):
    rng = np.random.default_rng(51)
    scheds = [reinterpolated(synthesize(quat.as_unit(quat.random_unit(rng)), 1.0, 384,
                                        1 + i % 3), interpolation) for i in range(5)]
    v, one = _control_rows(scheds), ONE.as_array()
    for h in (None, 1.0 / 384, 1.0 / 999):
        # by default, 22 whole steps per interval: the fewest making 8192 in all
        n = round(1.0 / h) if h else 384 * 22
        for dr in (0.0, [0.0, 0.3, -1.2, 0.7, 2.0]):
            finals, drifts = propagate_final_batch(scheds, delta_r=dr, h=h)
            ref_f, ref_d, _ = chunked_rows(v, scheds[0], dr, 1.0 / n, n, one,
                                           record=False)
            assert np.array_equal(finals, ref_f) and np.array_equal(drifts, ref_d)
        res = propagate(scheds[1], delta_r=0.3, h=h)
        ref_f, ref_d, ref_s = chunked_rows(v[1:2], scheds[1], 0.3, 1.0 / n, n, one,
                                           record=True)
        assert np.array_equal(res.states, ref_s)
        assert res.final == quat.as_unit(ref_f[0])
        assert res.max_norm_drift == ref_d[0]


@pytest.mark.parametrize("interpolation", [INTERP_CUBIC, INTERP_LINEAR, INTERP_PCONST])
def test_single_schedule_blocks_match_the_chunked_kernel_bit_for_bit(interpolation):
    # one schedule's blocks hold _BLOCK_CELLS steps: three blocks and a partial chunk
    n = 3 * _BLOCK_CELLS + 37
    target = quat.as_unit(quat.random_unit(np.random.default_rng(52)))
    sched = reinterpolated(synthesize(target, 1.0, 512, 2), interpolation)
    v, one = _control_rows([sched]), ONE.as_array()
    for dr in (0.0, 0.3):
        res = propagate(sched, delta_r=dr, h=1.0 / n)
        ref_f, ref_d, ref_s = chunked_rows(v, sched, dr, 1.0 / n, n, one, record=True)
        assert np.array_equal(res.states, ref_s)
        assert res.final == quat.as_unit(ref_f[0])
        assert res.max_norm_drift == ref_d[0]
        finals, drifts = propagate_final_batch([sched], delta_r=dr, h=1.0 / n)
        ref_f, ref_d, _ = chunked_rows(v, sched, dr, 1.0 / n, n, one, record=False)
        assert np.array_equal(finals, ref_f) and np.array_equal(drifts, ref_d)


def count_reads(monkeypatch) -> collections.Counter:
    """Counts, by name, the calls into the propagator's gathers, Lagrange
    weights, gather stencil starts and RK4 step blocks from now on."""
    calls = collections.Counter()
    for name in ("_gather", "_lagrange_weights", "_stencil_start", "_rk4_steps"):
        def counted(*args, _read=getattr(propagator, name), _name=name):
            calls[_name] += 1
            return _read(*args)
        monkeypatch.setattr(propagator, name, counted)
    return calls


def read_kind(calls) -> str:
    """Which stage read the counted calls of one propagation ran: a cubic
    read gathers twice per step block, the step ends and then the
    midpoints, with the weights of one table per propagation or evaluated
    per gather; a linear read neither gathers nor evaluates weights."""
    blocks = calls["_rk4_steps"]
    kinds = {(0, 0): "linear", (2 * blocks, 1): "table gather",
             (2 * blocks, 2 * blocks): "per gather"}
    return kinds.get((calls["_gather"], calls["_lagrange_weights"]), "?") if blocks else "none"


def oracle_stages(v, sched, h, done, kc):
    """(v0, vm, v1) of steps done..done + kc - 1 read from the complex
    rows v by tests/oracles, in time order: one cubic gather, or the
    linear expression."""
    if sched.interpolation == INTERP_CUBIC:
        x = oracles._gather(v, *oracles._cubic_stencils(sched, h, 2 * done + np.arange(2 * kc + 1)))
    else:
        x = oracles._linear_stages(v, sched, h, done, kc)
    return x[:, 0:-1:2], x[:, 1::2], x[:, 2::2]


@pytest.mark.parametrize("interpolation", [INTERP_CUBIC, INTERP_LINEAR, INTERP_PCONST])
@pytest.mark.parametrize("steps_per_interval", [1, 2, 4, 8, 16, 32, 3, 2.5])
def test_stage_reader_selects_the_read_by_interpolation_step_and_rows(
        interpolation, steps_per_interval, monkeypatch):
    # pconst reads segment values.  A cubic schedule at exactly r = 1, 2,
    # 4, 8 or 16 steps per interval gathers with weights from the
    # propagation's table, on any rows; every other cubic step gathers with
    # weights evaluated per gather, and a linear read gathers nothing.
    # rows counts the propagated rows, so one control row at 2, 31 or 64
    # detunings reads as that many rows.  At N = 300 a single row at r = 8
    # has no block inside intervals 1..N - 3 to repeat, and still reads
    # its weights from the table.
    rng = np.random.default_rng(59)
    big_n = 300
    scheds = [PulseSchedule(1.0, *rng.standard_normal((2, big_n + 1)), target=ONE,
                            interpolation=interpolation) for _ in range(64)]
    n = round(steps_per_interval * big_n)
    cubic, r = interpolation == INTERP_CUBIC, steps_per_interval
    calls = count_reads(monkeypatch)
    for rows in (1, 2, 31, 64):
        expected = ("none" if interpolation == INTERP_PCONST
                    else "linear" if not cubic
                    else "table gather" if r in (1, 2, 4, 8, 16) else "per gather")
        runs = [lambda: propagate_final_batch(scheds[:rows], h=1.0 / n),
                lambda: propagate_final_batch(scheds[:1], delta_r=np.linspace(-1.0, 1.0, rows),
                                              h=1.0 / n)]
        if rows == 1:
            runs.append(lambda: propagate(scheds[0], delta_r=0.3, h=1.0 / n))
        for run in runs:
            calls.clear()
            run()
            assert read_kind(calls) == expected


@pytest.mark.parametrize("steps_per_interval", [1, 2, 4, 3, 2.5, 8, 16])
@pytest.mark.parametrize("n_intervals", [3, 5, 300])
def test_phase_read_matches_the_gather_byte_for_byte(n_intervals, steps_per_interval,
                                                     monkeypatch):
    # 1, 2, 4, 8 and 16 steps per sample interval put every stage at an
    # exact phase of its interval and gather the stages with weights from
    # the propagation's table, on all 150 control rows, on 2 and on the last
    # alone, the others with weights evaluated per gather; small N puts the
    # first and last intervals and the end point in every block.  tobytes,
    # as array_equal takes -0 for +0.
    rng = np.random.default_rng(56)
    big_t, big_n = 1.3, n_intervals
    scheds = [PulseSchedule(big_t, *rng.standard_normal((2, big_n + 1)), target=ONE,
                            interpolation=INTERP_CUBIC) for _ in range(149)]
    # u2 = -0 makes zero stage values of both signs, which must match too
    scheds.append(PulseSchedule(big_t, rng.standard_normal(big_n + 1),
                                np.full(big_n + 1, -0.0), target=ONE,
                                interpolation=INTERP_CUBIC))
    n = round(steps_per_interval * big_n)
    h = big_t / n
    v, one = _control_rows(scheds), ONE.as_array()
    gathered = oracle_stages(v, scheds[0], h, 0, n)
    calls = count_reads(monkeypatch)
    for rows in (slice(None), slice(148, None), slice(149, None)):     # 150, 2 and 1
        calls.clear()
        stages = _stage_reader(scheds[0], h, n)(v[rows], 0, 0, n, _Workspace(150, n, 0))
        assert calls["_gather"] == 2
        assert calls["_lagrange_weights"] == (1 if steps_per_interval in (1, 2, 4, 8, 16) else 2)
        for x, ref in zip(stages, gathered):
            assert x.tobytes() == ref[rows].tobytes()
    drs = rng.uniform(-1.0, 1.0, 150)
    for rows in (slice(86, None), slice(None)):          # 64 and 150 rows
        for dr in (0.0, drs[rows]):
            finals, drifts = propagate_final_batch(scheds[rows], delta_r=dr, h=h)
            ref_f, ref_d, _ = chunked_rows(v[rows], scheds[0], dr, h, n, one, record=False)
            assert finals.tobytes() == ref_f.tobytes() and drifts.tobytes() == ref_d.tobytes()
    for i, dr in ((0, 0.0), (0, 0.3), (149, 0.0)):
        res = propagate(scheds[i], delta_r=dr, h=h)
        ref_f, ref_d, ref_s = chunked_rows(v[i:i + 1], scheds[i], dr, h, n, one, record=True)
        assert res.states.tobytes() == ref_s.tobytes()
        assert res.final == quat.as_unit(ref_f[0])
        assert np.float64(res.max_norm_drift).tobytes() == ref_d.tobytes()


@pytest.mark.parametrize("steps_per_interval", [1, 2, 4, 8, 16, 32, 3])
@pytest.mark.parametrize("n_intervals", [49, 50, 65, 66, 300, 770])
def test_repeated_gather_blocks_match_the_chunked_kernel_byte_for_byte(
        n_intervals, steps_per_interval, monkeypatch):
    # at 1, 2, 4, 8 and 16 steps per interval every block gathers its step
    # ends, then its midpoints, with weights from one table per
    # propagation, and each block of intervals 1..N - 3 with one set of
    # stencils and weights, built once per propagation; 32 and 3 compute
    # stencils and weights for every gather afresh.  A block of 256 steps
    # spans 16 intervals at r = 16 and 32 at r = 8, so N = 50 and 66 end
    # the last repeated block at N - 2 and N = 49 and 65 one short of it,
    # next to the one-sided first and last stencils; N = 770 repeats a
    # block at every ratio, and no n here is a multiple of 256: the last
    # chunk is partial
    rng = np.random.default_rng(58)
    big_t, big_n = 1.1, n_intervals
    scheds = [PulseSchedule(big_t, *rng.standard_normal((2, big_n + 1)), target=ONE,
                            interpolation=INTERP_CUBIC) for _ in range(64)]
    n = steps_per_interval * big_n
    h = big_t / n
    v, one = _control_rows(scheds), ONE.as_array()
    chunks = [(done, min(_STEP_CHUNK, n - done)) for done in range(0, n, _STEP_CHUNK)]
    gathered = [oracle_stages(v, scheds[0], h, done, kc) for done, kc in chunks]
    calls = count_reads(monkeypatch)
    read, ws = _stage_reader(scheds[0], h, n), _Workspace(64, _STEP_CHUNK, 0)
    for (done, kc), refs in zip(chunks, gathered):
        for x, ref in zip(read(v, 0, done, kc, ws), refs):
            assert x.tobytes() == ref.tobytes()
    # every block gathers twice, with the weights of one table at the
    # exact ratios and evaluated per gather at the others
    exact = steps_per_interval in (1, 2, 4, 8, 16)
    gathers = 2 * len(chunks)
    assert calls["_gather"] == gathers
    assert calls["_lagrange_weights"] == (1 if exact else gathers)
    # a block of intervals 1..N - 3 after the first of its length reads the
    # kept stencils and finds no stencil starts, where any other finds one
    # per gather: two such blocks of 256 steps need (N - 2) r >= 3 * 256
    assert (calls["_stencil_start"] < gathers) == (
        exact and 3 * _STEP_CHUNK <= (big_n - 2) * steps_per_interval)
    drs = rng.uniform(-1.0, 1.0, 64)
    for rows in (slice(59, None), slice(33, None), slice(None)):    # 5, 31 and 64 rows
        for dr in (0.0, drs[rows]):
            finals, drifts = propagate_final_batch(scheds[rows], delta_r=dr, h=h)
            ref_f, ref_d, _ = chunked_rows(v[rows], scheds[0], dr, h, n, one, record=False)
            assert finals.tobytes() == ref_f.tobytes() and drifts.tobytes() == ref_d.tobytes()


@pytest.mark.parametrize("steps_per_interval", [1, 2, 4, 8, 16])
@pytest.mark.parametrize("n_intervals", [300, 1000])
def test_exact_ratio_weights_are_computed_once_per_propagation(
        n_intervals, steps_per_interval, monkeypatch):
    # a cubic schedule stepped exactly r times per interval evaluates its
    # Lagrange weights once, as one table, however many step blocks it
    # spans (one _rk4_steps call and two gathers each; 64 rows take one
    # chunk per block, so 2 blocks at N = 300, r = 1 and 3 to 63
    # elsewhere), recorded or not, on any rows
    rng = np.random.default_rng(61)
    big_t, big_n, r = 1.2, n_intervals, steps_per_interval
    scheds = [PulseSchedule(big_t, *rng.standard_normal((2, big_n + 1)), target=ONE,
                            interpolation=INTERP_CUBIC) for _ in range(64)]
    n = r * big_n
    h = big_t / n
    calls = count_reads(monkeypatch)
    runs = [lambda: propagate(scheds[0], delta_r=0.3, h=h)]
    runs += [lambda rows=rows: propagate_final_batch(scheds[:rows], h=h) for rows in (1, 31, 64)]
    for run in runs:
        calls.clear()
        run()
        assert read_kind(calls) == "table gather"
    assert calls["_rk4_steps"] == -(-n // _STEP_CHUNK)
    if r < 8:
        return
    # one recorded row, resonant and detuned, to the last partial chunk
    assert n % _STEP_CHUNK
    monkeypatch.undo()
    v, one = _control_rows(scheds[:1]), ONE.as_array()
    for dr in (0.0, -0.7):
        res = propagate(scheds[0], delta_r=dr, h=h)
        ref_f, ref_d, ref_s = chunked_rows(v, scheds[0], dr, h, n, one, record=True)
        assert res.states.tobytes() == ref_s.tobytes()
        assert res.final == quat.as_unit(ref_f[0])
        assert np.float64(res.max_norm_drift).tobytes() == ref_d.tobytes()


@pytest.mark.parametrize("window", [1, None], ids=["block", "default"])
@pytest.mark.parametrize("interpolation, steps_per_interval", [
    (INTERP_CUBIC, 1), (INTERP_CUBIC, 2), (INTERP_CUBIC, 3), (INTERP_CUBIC, 8),
    (INTERP_CUBIC, 16), (INTERP_LINEAR, 3), (INTERP_PCONST, 2)])
def test_control_windows_match_the_chunked_kernel_byte_for_byte(
        interpolation, steps_per_interval, window, monkeypatch):
    # the control rows are copied one window of sample columns at a time:
    # one window per step block ("block") or the most whole blocks within
    # _WINDOW_SAMPLES intervals; consecutive windows overlap by the stencils
    # their edge cuts.  At least 4500 steps, never a multiple of 256, give
    # one row two or more 4096-step blocks and 5 rows six or more 768-step
    # ones, and at least 600 intervals more than one default window
    rng = np.random.default_rng(60)
    big_n = max(-(-4500 // steps_per_interval), 600)
    big_t = 1.7
    scheds = [PulseSchedule(big_t, *rng.standard_normal((2, big_n + 1)), target=ONE,
                            interpolation=interpolation) for _ in range(70)]
    n = steps_per_interval * big_n
    h = big_t / n
    v, one = _control_rows(scheds), ONE.as_array()
    if window is not None:
        monkeypatch.setattr(propagator, "_WINDOW_SAMPLES", window)
    windows = []

    def control_rows(rows, cols=slice(None), out=None):
        windows.append((cols.start, cols.stop))
        return _control_rows(rows, cols, out)
    monkeypatch.setattr(propagator, "_control_rows", control_rows)
    drs = rng.uniform(-1.0, 1.0, 70)
    for count, detuned in ((5, False), (31, True), (64, False), (70, True)):
        rows = slice(70 - count, None)
        dr = drs[rows] if detuned else 0.0
        windows.clear()
        finals, drifts = propagate_final_batch(scheds[rows], delta_r=dr, h=h)
        ref_f, ref_d, _ = chunked_rows(v[rows], scheds[0], dr, h, n, one, record=False)
        assert finals.tobytes() == ref_f.tobytes() and drifts.tobytes() == ref_d.tobytes()
        # each window after the first of a row block starts inside the last
        assert len(windows) >= 2 and windows[-1][1] == big_n + 1
        for (lo0, hi0), (lo1, _) in zip(windows, windows[1:]):
            assert lo1 == 0 or lo0 < lo1 < hi0
    for i, dr in ((0, 0.0), (69, 0.4)):
        windows.clear()
        res = propagate(scheds[i], delta_r=dr, h=h)
        ref_f, ref_d, ref_s = chunked_rows(v[i:i + 1], scheds[i], dr, h, n, one, record=True)
        assert res.states.tobytes() == ref_s.tobytes()
        assert res.final == quat.as_unit(ref_f[0])
        assert np.float64(res.max_norm_drift).tobytes() == ref_d.tobytes()
        assert len(windows) >= 2


@pytest.mark.parametrize("interpolation, steps_per_interval", [
    (INTERP_CUBIC, 1), (INTERP_CUBIC, 2), (INTERP_CUBIC, 16), (INTERP_CUBIC, 2.5),
    (INTERP_LINEAR, 3), (INTERP_PCONST, 2)])
def test_workspace_blocks_match_the_chunked_kernel_byte_for_byte(
        interpolation, steps_per_interval):
    # every step block of a propagation is built in its one workspace: 1 to
    # 16 rows take several chunks per block, 17 to 64 one, and 65 rows two
    # row blocks, the last of one row; no n is a multiple of 256, so the
    # last chunk is partial.  tobytes, as array_equal takes -0 for +0
    rng = np.random.default_rng(62)
    big_t, big_n = 1.4, 300
    scheds = [PulseSchedule(big_t, *rng.standard_normal((2, big_n + 1)), target=ONE,
                            interpolation=interpolation) for _ in range(65)]
    n = round(steps_per_interval * big_n)
    assert n % _STEP_CHUNK
    h = big_t / n
    v, one = _control_rows(scheds), ONE.as_array()
    drs = rng.uniform(-1.0, 1.0, 65)
    for rows in (1, 16, 17, 31, 64, 65):
        for dr in (0.0, drs[:rows]):
            finals, drifts = propagate_final_batch(scheds[:rows], delta_r=dr, h=h)
            ref_f, ref_d, _ = chunked_rows(v[:rows], scheds[0], dr, h, n, one, record=False)
            assert finals.tobytes() == ref_f.tobytes() and drifts.tobytes() == ref_d.tobytes()
    for dr in (0.0, 0.6):
        res = propagate(scheds[7], delta_r=dr, h=h)
        ref_f, ref_d, ref_s = chunked_rows(v[7:8], scheds[7], dr, h, n, one, record=True)
        assert res.states.tobytes() == ref_s.tobytes()
        assert res.final == quat.as_unit(ref_f[0])
        assert np.float64(res.max_norm_drift).tobytes() == ref_d.tobytes()


def test_no_propagation_carries_results_into_the_next():
    # a steer-sized propagation, a small one on another grid, then the first
    # again: each builds its blocks in a workspace of its own, so the third
    # equals the first bit for bit
    rng = np.random.default_rng(63)
    big = [synthesize(quat.as_unit(q), 1.0, 4096, 1) for q in quat.random_unit(rng, 64)]
    small = [PulseSchedule(1.0, *rng.standard_normal((2, 301)), target=ONE,
                           interpolation=INTERP_CUBIC) for _ in range(5)]
    drs = rng.uniform(-1.0, 1.0, 64)
    first = propagate_final_batch(big, delta_r=drs, h=1.0 / 8192)
    propagate_final_batch(small, delta_r=drs[:5], h=1.0 / 4800)
    again = propagate_final_batch(big, delta_r=drs, h=1.0 / 8192)
    for a, b in zip(first, again):
        assert a.tobytes() == b.tobytes()


def test_batch_memory_does_not_grow_with_the_sample_count():
    # the control rows are read through a window of sample columns per few
    # step blocks, never copied whole: 64 rows of 2**16 intervals once took
    # a 67 MB copy
    rng = np.random.default_rng(61)
    peaks = []
    for big_n in (2 ** 12, 2 ** 16):
        sched = synthesize(quat.as_unit(quat.random_unit(rng)), 1.0, big_n, 1)
        tracemalloc.start()
        try:
            propagate_final_batch([sched] * 64)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.25 * peaks[0]
    # exact propagation runs on the same kernel: its loop of one Python
    # exponential per segment once held every segment's controls as floats.
    # One row at 2**12 is a single step block, whose peak lacks the previous
    # block that every later block overlaps, so the comparison starts at 2**14
    peaks = []
    for big_n in (2 ** 14, 2 ** 18):
        sched = pconst(1.0, *rng.normal(size=(2, big_n + 1)))
        tracemalloc.start()
        try:
            propagate_piecewise_exact(sched)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.25 * peaks[0], peaks


def test_batch_memory_does_not_grow_with_the_batch():
    # control rows too are built one row block at a time
    rng = np.random.default_rng(57)
    eight = [synthesize(quat.as_unit(quat.random_unit(rng)), 1.0, 4096, 1) for _ in range(8)]
    peaks = []
    for b in (64, 512):
        tracemalloc.start()
        try:
            propagate_final_batch(eight * (b // 8))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.25 * peaks[0]


def test_steer_batch_memory_is_bounded_in_step_blocks():
    # 64 targets planned at n = 4096 and propagated at h = 1/8192, two steps
    # per interval, peak at ~10.8 step blocks of 64 x 256 complex cells:
    # the workspace, whose multipliers and scratch hold half a gather of
    # the stages, and the chunk products.  Gathering the step ends and
    # midpoints at once peaked at ~14.7, and at ~16.7 with the gather in
    # the scratch alone.  At h = 0.93/4096, an inexact step, the halves are
    # gathered in the same workspace: the peak, ~0.97 times that at
    # 1/8192, was ~1.74 times as high with a stage array and a gather
    # allocated per block.  Each batch runs once untraced first
    rng = np.random.default_rng(7)
    scheds = [synthesize(quat.as_unit(q), 1.0, 4096, 1) for q in quat.random_unit(rng, 64)]
    peaks = []
    for h in (1.0 / 8192, 0.93 / 4096):
        propagate_final_batch(scheds, h=h)
        tracemalloc.start()
        try:
            propagate_final_batch(scheds, h=h)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    block = _ROW_BLOCK * _STEP_CHUNK * np.dtype(complex).itemsize
    assert peaks[0] <= 12 * block, peaks[0] / block
    assert peaks[1] <= 1.25 * peaks[0], peaks[1] / peaks[0]


def test_single_schedule_final_equals_its_row_of_a_64_row_batch():
    # 64 rows take one chunk per block, one row sixteen
    rng = np.random.default_rng(53)
    scheds = [synthesize(quat.as_unit(quat.random_unit(rng)), 1.0, 512, 1 + i % 3)
              for i in range(64)]
    h = 1.0 / (2 * _BLOCK_CELLS + 37)
    finals, drifts = propagate_final_batch(scheds, delta_r=0.3, h=h)
    for i in (0, 17, 63):
        f, d = propagate_final_batch([scheds[i]], delta_r=0.3, h=h)
        assert np.array_equal(f[0], finals[i]) and d[0] == drifts[i]


def test_rows_of_a_150_row_batch_equal_single_row_runs_bit_for_bit():
    # 150 rows are three row blocks: 64, 64 and 22
    rng = np.random.default_rng(54)
    scheds = [synthesize(quat.as_unit(quat.random_unit(rng)), 1.0, 256, 1 + i % 3)
              for i in range(150)]
    drs = rng.uniform(-1.0, 1.0, 150)
    assert len(scheds) > 2 * _ROW_BLOCK
    finals, drifts = propagate_final_batch(scheds, delta_r=drs)
    for s, dr, f, d in zip(scheds, drs, finals, drifts):
        single, drift = propagate_final_batch([s], delta_r=dr)
        assert np.array_equal(single[0], f) and drift[0] == d
    # one control row against 150 detunings
    sweep = detuning_sweep(scheds[0], drs, E3)
    for dr, fid in zip(drs, sweep.fidelity):
        assert detuning_sweep(scheds[0], [dr], E3).fidelity[0] == fid


@pytest.mark.parametrize("interpolation", [INTERP_CUBIC, INTERP_LINEAR, INTERP_PCONST])
def test_public_outputs_match_the_real_row_kernel(interpolation):
    rng = np.random.default_rng(55)
    scheds = [reinterpolated(synthesize(quat.as_unit(quat.random_unit(rng)), 1.0, 512,
                                        1 + i % 3), interpolation) for i in range(5)]
    u1 = np.stack([s.u1 for s in scheds])
    u2 = np.stack([s.u2 for s in scheds])
    one = ONE.as_array()
    for h in (None, 1.0 / 999):
        n = round(1.0 / h) if h else (
            512 if interpolation == INTERP_CUBIC else DEFAULT_STEP_DIVISOR)
        for dr in (0.0, 0.3):
            finals, drifts = propagate_final_batch(scheds, delta_r=dr, h=h)
            ref_f, ref_d, _ = row_kernel(u1, u2, scheds[0], dr, 1.0 / n, n, one, False)
            assert np.max(np.abs(finals - ref_f)) <= 1e-14
            assert np.max(np.abs(drifts - ref_d)) <= 1e-15
            res = propagate(scheds[2], delta_r=dr, h=h)
            ref_f, ref_d, ref_s = row_kernel(u1[2:3], u2[2:3], scheds[2], dr, 1.0 / n, n,
                                             one, True)
            assert np.max(np.abs(res.states - ref_s)) <= 1e-14
            assert np.max(np.abs(res.final.as_array() - ref_f[0])) <= 1e-14
            assert abs(res.max_norm_drift - ref_d[0]) <= 1e-15
        drs = np.linspace(-1.0, 1.0, 41)
        sweep = detuning_sweep(scheds[3], drs, scheds[3].target, h=h)
        ref_f, _, _ = row_kernel(u1[3:4], u2[3:4], scheds[3], drs, 1.0 / n, n, one, False)
        ref_fid = ref_f @ scheds[3].target.as_array()
        assert np.max(np.abs(sweep.fidelity - ref_fid)) <= 1e-14


def test_step_count_cap_rejected_before_allocation():
    sched = pconst(1.0, [0.0, 0.0, 0.0], [0.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="steps"):
        propagate(sched, h=1e-12)
    with pytest.raises(ValueError, match="steps"):
        propagate_final_batch([sched], h=1.0 / (MAX_SAMPLES + 1))
    with pytest.raises(ValueError, match="steps"):
        detuning_sweep(sched, [0.0], E3, h=1e-12)


def test_non_finite_schedule_rejected():
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            pconst(1.0, [0.0, bad, 0.0], [0.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="finite"):
            pconst(1.0, [0.0, 0.0, 0.0], [0.0, 0.0, bad])
        with pytest.raises(ValueError, match="finite"):
            pconst(bad, [0.0, 0.0, 0.0], [0.0, 0.0, 0.0])


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


@pytest.mark.parametrize("bad", ["x", 1j, np.array([1 + 1j, 2.0]), [[0.0], [1.0, 2.0]],
                                 [[0.0, 0.5], [1.0, -1.0]], True, False, np.True_,
                                 [0.5, True], (np.False_,), np.array([True, False])],
                         ids=["string", "complex", "complex-array", "ragged", "2d", "true",
                              "false", "numpy-bool", "bool-in-list", "numpy-bool-in-tuple",
                              "bool-array"])
def test_a_detuning_or_step_that_is_no_real_number_raises_a_typed_error(bad):
    # a complex detuning array once lost its imaginary part behind a
    # ComplexWarning and returned finals, and a bool ran as 1.0 or 0.0; the
    # others raised numpy's ValueError or a TypeError
    sched = synthesize(E3, 1.0, 128, 1)
    exact = zyz_schedule(euler_decompose(E3), 2.0)
    calls = [lambda: propagate(sched, delta_r=bad),
             lambda: propagate_final_batch([sched], delta_r=bad),
             lambda: detuning_sweep(sched, bad, E3),
             lambda: propagate_piecewise_exact(exact, delta_r=bad),
             lambda: propagate(sched, h=bad),
             lambda: propagate_final_batch([sched], h=bad),
             lambda: detuning_sweep(sched, [0.0], E3, h=bad)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            with pytest.raises(InvalidPropagationInput):
                call()
        # exact propagation takes one detuning, as propagate does
        with pytest.raises(InvalidPropagationInput, match="delta_r"):
            propagate_piecewise_exact(exact, delta_r=[0.1])


def test_tree_product_matches_last_prefix_row():
    rng = np.random.default_rng(44)
    for c in (1, 2, 3, 7, 255, 256):
        m = row_pair(quat.random_unit(rng, 3 * c).reshape(3, c, 4))
        tree = pair_rows(*_tree_product(*m))
        assert tree.shape == (3, 1, 4)
        assert np.max(np.abs(tree - pair_rows(*_prefix_product(*m))[:, -1:])) <= 1e-14


def test_terminal_and_recorded_finals_agree_with_odd_chunk_remainder():
    # 999 steps leave a last chunk of 231, an odd count for the tree
    rng = np.random.default_rng(45)
    linear = synthesize(quat.as_unit(quat.random_unit(rng)), 1.0, 512, 1)
    piecewise = pconst(1.0, [0.4, -0.7, 1.1, 0.0],
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


def _generator_rows(x, y, dr):
    a = np.zeros(np.broadcast_shapes(x.shape, dr.shape) + (4,))
    a[..., 1], a[..., 2], a[..., 3] = x, y, dr
    return a


def _rk4_steps_by_products(x0, xm, x1, y0, ym, y1, dr, h):
    # the classical stage recursion, one Hamilton product per stage
    a0, am, a1 = (_generator_rows(x, y, dr)
                  for x, y in ((x0, y0), (xm, ym), (x1, y1)))
    k2 = am + (0.5 * h) * qmul_arr(am, a0)
    k3 = am + (0.5 * h) * qmul_arr(am, k2)
    k4 = a1 + h * qmul_arr(a1, k3)
    m = (h / 6.0) * (a0 + 2.0 * k2 + 2.0 * k3 + k4)
    m[..., 0] += 1.0
    return m


def test_rk4_steps_match_stage_products():
    rng = np.random.default_rng(47)
    h = 1.0 / 8192
    for c in (1, 7, 256):
        for rows in (3, 1):
            # a single control row broadcasts against three detunings
            x0, xm, x1, y0, ym, y1 = 8.0 * rng.standard_normal((6, rows, c))
            dr = rng.uniform(-2.0, 2.0, (3, 1))
            m = pair_rows(*_rk4_steps(x0 + 1j * y0, xm + 1j * ym, x1 + 1j * y1, dr, h,
                                      _Workspace(3, c, 0)))
            ref = _rk4_steps_by_products(x0, xm, x1, y0, ym, y1, dr, h)
            assert m.shape == (3, c, 4)
            assert np.max(np.abs(m - ref)) <= 1e-15


def test_rk4_steps_of_one_row_equal_its_row_of_a_batch_bit_for_bit():
    # 64 x 512 steps, operands large enough for numpy to reuse temporaries
    # where each expression allocates: the workspace steps equal those of
    # oracles._rk4_steps, and each row's steps on its own, byte for byte
    rng = np.random.default_rng(56)
    v0, vm, v1 = rng.standard_normal((3, 64, 512)) + 1j * rng.standard_normal((3, 64, 512))
    one = _Workspace(1, 512, 0)
    for dr in (rng.uniform(-2.0, 2.0, (64, 1)), np.zeros((64, 1))):
        ma, mb = _rk4_steps(v0, vm, v1, dr, 0.25, _Workspace(64, 512, 0))
        ref_a, ref_b = oracles._rk4_steps(v0, vm, v1, dr, 0.25)
        assert ma.tobytes() == ref_a.tobytes() and mb.tobytes() == ref_b.tobytes()
        for i in range(64):
            a, b = _rk4_steps(v0[i:i + 1], vm[i:i + 1], v1[i:i + 1], dr[i:i + 1], 0.25, one)
            assert np.array_equal(a[0], ma[i]) and np.array_equal(b[0], mb[i])


@pytest.mark.parametrize("scale", [1.0, 1e-160])
def test_rk4_steps_of_one_control_row_against_64_detunings_equal_the_oracle(scale):
    # one (1, 512) control row, which the ufuncs broadcast into the
    # workspace's 64 rows, byte for byte oracles._rk4_steps, which broadcasts
    # the row itself: zero detunings with one -0 row, and one per row.  Every
    # other column's parts are signed zeros and small multiples of the
    # scale, and at 1e-160 |v|^2 and v conj(v') underflow, so the signs of
    # zero products are compared too
    rng = np.random.default_rng(57)
    x = scale * rng.standard_normal((6, 1, 512))
    x[..., ::2] = scale * rng.choice([-0.0, 0.0, -1.0, 1.0, -2.0, 2.0], (6, 1, 256))
    # parts set one by one: x + 1j y would turn a -0 in y into +0
    v0, vm, v1 = np.stack((x[:3], x[3:]), axis=-1).view(complex)[..., 0]
    zero = np.zeros((64, 1))
    zero[17] = -0.0
    for dr in (zero, rng.uniform(-2.0, 2.0, (64, 1))):
        for h in (0.25, 1.0 / 8192):
            ma, mb = _rk4_steps(v0, vm, v1, dr, h, _Workspace(64, 512, 0))
            ref_a, ref_b = oracles._rk4_steps(v0, vm, v1, dr, h)
            assert ma.shape == mb.shape == (64, 512)
            assert ma.tobytes() == ref_a.tobytes() and mb.tobytes() == ref_b.tobytes()


def test_rk4_steps_of_subnormal_words_equal_the_oracle():
    # every combination of -0, +0 and the smallest subnormal of either sign
    # in the six parts of (v0, vm, v1), one control row against four
    # detunings: every product underflows, and the sign of each zero must
    # be the oracle's (a float factor moved across a complex product flips
    # some of them)
    words = np.array([-0.0, 0.0, -5e-324, 5e-324])
    x = np.array(list(itertools.product(words, repeat=6))).T[:, None, :]
    v0, vm, v1 = np.stack((x[:3], x[3:]), axis=-1).view(complex)[..., 0]
    dr = np.array([[0.0], [-0.0], [0.53], [-1.7]])
    for d in (dr[:2], dr):
        for h in (0.25, 1.0 / 8192):
            ma, mb = _rk4_steps(v0, vm, v1, d, h, _Workspace(4, 4096, 0))
            ref_a, ref_b = oracles._rk4_steps(v0, vm, v1, d, h)
            assert ma.tobytes() == ref_a.tobytes() and mb.tobytes() == ref_b.tobytes()


def test_rk4_step_of_constant_generator_is_taylor_polynomial():
    rng = np.random.default_rng(48)
    h = 0.1
    x, y = rng.standard_normal((2, 3, 5))
    dr = rng.uniform(-2.0, 2.0, (3, 1))
    ha = h * _generator_rows(x, y, dr)
    term = np.zeros_like(ha)
    term[..., 0] = 1.0
    taylor = term.copy()
    for k in range(1, 5):
        term = qmul_arr(ha, term) / k
        taylor += term
    v = x + 1j * y
    m = pair_rows(*_rk4_steps(v, v, v, dr, h, _Workspace(3, 5, 0)))
    assert np.max(np.abs(m - taylor)) <= 1e-15


def test_one_row_detuning_sweep_matches_per_detuning_propagation():
    rng = np.random.default_rng(49)
    sched = synthesize(quat.as_unit(quat.random_unit(rng)), 1.0, 512, 1)
    drs = np.linspace(-0.8, 0.8, 7)
    # the fidelities against the four basis units are the final's components
    finals = np.stack([detuning_sweep(sched, drs, basis, h=1.0 / 1024).fidelity
                       for basis in (ONE, E1, E2, E3)], axis=1)
    for dr, f in zip(drs, finals):
        single = propagate(sched, delta_r=dr, h=1.0 / 1024).final.as_array()
        assert np.max(np.abs(f - single)) <= 1e-14


def test_propagator_input_checks_raise_typed_errors():
    sched = synthesize(E3, 1.0, 128, 1)
    other = synthesize(E3, 1.0, 256, 1)
    calls = [
        lambda: propagate_final_batch([]),
        lambda: propagate_final_batch([sched, other]),
        lambda: propagate_final_batch([sched, sched], delta_r=[0.0, 0.1, 0.2]),
        lambda: detuning_sweep(sched, [], E3),
        lambda: propagate(sched, h=0.0),
        lambda: propagate(sched, h=math.nan),
        lambda: propagate(sched, h=1e-12),
        lambda: propagate(sched, delta_r=math.inf),
        lambda: propagate_piecewise_exact(sched),
    ]
    for call in calls:
        with pytest.raises(FlatGateError) as info:
            call()
        assert isinstance(info.value, ValueError)


@pytest.mark.parametrize("big_t", [1e-300, 1e300])
def test_step_overflow_raises_instead_of_nan(big_t):
    # T = 1e-300: |u| ~ 1e300 and |v|^2 overflows; T = 1e300: h^3 overflows;
    # in every _rk4_steps branch
    sched = synthesize(E3, big_t, 64, 1)
    calls = [
        lambda: propagate_final_batch([sched]),
        lambda: propagate_final_batch([sched, sched], delta_r=[0.0, 0.5]),
        lambda: propagate(sched),
        lambda: detuning_sweep(sched, [0.0, 0.0], E3),
        lambda: detuning_sweep(sched, [-1.0, 1.0], E3),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            with pytest.raises(InvalidPropagationInput, match="overflow"):
                call()


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


def test_batch_propagation_rejects_mismatched_grids():
    sched = synthesize(E3, 1.0, 128, 1)
    for other in (synthesize(E3, 1.5, 128, 1), synthesize(E3, 1.0, 256, 1),
                  reinterpolated(sched, INTERP_LINEAR)):
        with pytest.raises(InvalidPropagationInput, match="share grid"):
            propagate_final_batch([sched, other])
    finals, _ = propagate_final_batch([sched, synthesize(E2, 1.0, 128, 1)])
    assert finals.shape == (2, 4)


def test_detuning_sweep_zero_matches_plain_propagation():
    sched = synthesize(E3, 2.0, 1024, 1)
    sweep = detuning_sweep(sched, [0.0], E3, h=2.0 / 2048)
    plain = fidelity(propagate(sched, h=2.0 / 2048).final, E3)
    assert sweep.delta_r.shape == (1,)
    assert abs(sweep.fidelity[0] - plain) <= 1e-14


def test_resonant_sweep_of_one_control_row_equals_the_single_run():
    # every detuning zero: the one control row serves all three systems
    sched = synthesize(E3, 1.0, 256, 2)
    sweep = detuning_sweep(sched, [0.0, 0.0, -0.0], E3)
    finals, _ = propagate_final_batch([sched])
    assert sweep.fidelity.tobytes() == np.repeat(finals @ E3.as_array(), 3).tobytes()


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


def test_detuning_sweep_refuses_a_2d_detuning_list():
    # it once read the four values as four rows and paired them with two rows
    sched = synthesize(E3, 1.0, 128, 1)
    with pytest.raises(InvalidPropagationInput, match="delta_r"):
        detuning_sweep(sched, [[0.0, 0.5], [1.0, -1.0]], E3)


def test_propagate_start_is_a_unit_quaternion():
    # Quaternion(2, 0, 0, 0) once propagated silently, its states[0] of
    # norm 2, and a list failed with an AttributeError
    sched = synthesize(E3, 1.0, 128, 1)
    for start in (Quaternion(2.0, 0.0, 0.0, 0.0), Quaternion(1.0, 0.0, 0.0, 0.0),
                  [1.0, 0.0, 0.0, 0.0], None):
        with pytest.raises(InvalidPropagationInput, match="start must be a UnitQuaternion"):
            propagate(sched, start=start)


def test_detuning_sweep_target_is_a_unit_quaternion():
    # a non-unit target once gave fidelities against a non-gate
    sched = synthesize(E3, 1.0, 128, 1)
    for target in (Quaternion(0.0, 0.0, 0.0, 2.0), [0.0, 0.0, 0.0, 1.0], None):
        with pytest.raises(InvalidPropagationInput, match="target must be a UnitQuaternion"):
            detuning_sweep(sched, [0.0, 0.5], target)


def test_batch_propagation_refuses_a_2d_detuning_array():
    # it once flattened the array into one detuning per row
    sched = synthesize(E3, 1.0, 128, 1)
    for scheds in ([sched], [sched] * 4):
        with pytest.raises(InvalidPropagationInput, match="delta_r"):
            propagate_final_batch(scheds, delta_r=[[0.0, 0.5], [1.0, -1.0]])


def test_propagate_refuses_more_than_one_detuning():
    # it once ran the first value and ignored the others
    sched = synthesize(E3, 1.0, 128, 1)
    for dr in ([0.5, 0.0], [0.5], np.zeros((1, 1))):
        with pytest.raises(InvalidPropagationInput, match="delta_r"):
            propagate(sched, delta_r=dr)
    assert propagate(sched, delta_r=np.float64(0.5)).final == propagate(sched, delta_r=0.5).final


def test_detuned_propagation_matches_exact_exponential():
    # constant controls + constant detuning admit one exact exponential
    w1, w2, dr, big_t = 0.4, -0.3, 0.25, 1.0
    sched = pconst(1.0, [w1, w1, w1], [w2, w2, w2])
    res = propagate(sched, delta_r=dr, h=big_t / 2048)
    expect = exp_pure(ImagQuaternion(w1 * big_t, w2 * big_t, dr * big_t))
    assert np.max(np.abs(res.final.as_array() - expect.as_array())) <= 1e-12
    exact = propagate_piecewise_exact(sched, delta_r=dr)
    assert np.max(np.abs(exact.as_array() - expect.as_array())) <= 1e-15


def test_detuned_three_segment_propagation_matches_exact_with_chunk_remainder():
    # 999 steps = three aligned segments of 333, and not a multiple of the
    # step chunk, so the last chunk is partial
    sched = pconst(1.0, [0.4, -0.7, 1.1, 0.0],
                   [-0.3, 0.9, 0.2, 0.0])
    res = propagate(sched, delta_r=0.25, h=1.0 / 999)
    exact = propagate_piecewise_exact(sched, delta_r=0.25)
    assert res.states.shape == (1000, 4)
    assert np.max(np.abs(res.final.as_array() - exact.as_array())) <= 1e-13


@pytest.mark.parametrize("big_n", [3, 64, 4096])
def test_piecewise_exact_matches_the_segment_loop(big_n):
    # the kernel multiplies the segment exponentials as a tree of chunk
    # products, the loop one segment at a time
    rng = np.random.default_rng(big_n)
    sched = pconst(2.0, *rng.normal(scale=3.0, size=(2, big_n + 1)))
    for dr in (0.0, 0.7, -2.5):
        got = propagate_piecewise_exact(sched, delta_r=dr).as_array()
        assert np.max(np.abs(got - piecewise_exact(sched, dr).as_array())) <= 1e-13


def test_piecewise_exact_matches_the_segment_loop_on_zyz_schedules():
    rng = np.random.default_rng(71)
    for _ in range(25):
        sched = zyz_schedule(euler_decompose(quat.as_unit(quat.random_unit(rng))), 2.0)
        for dr in (0.0, 0.3):
            got = propagate_piecewise_exact(sched, delta_r=dr).as_array()
            assert np.max(np.abs(got - piecewise_exact(sched, dr).as_array())) <= 1e-13


def test_piecewise_exact_requires_pconst():
    sched = synthesize(E3, 1.0, 128, 1)
    with pytest.raises(ValueError):
        propagate_piecewise_exact(sched)


@pytest.mark.parametrize("dr", [math.nan, math.inf, -math.inf])
def test_piecewise_exact_refuses_non_finite_detuning(dr):
    sched = zyz_schedule(euler_decompose(E3), 2.0)
    with pytest.raises(InvalidPropagationInput, match="delta_r must be finite"):
        propagate_piecewise_exact(sched, delta_r=dr)


@pytest.mark.parametrize("u1, dr", [(0.0, 1e308), (1e308, 0.0)])
def test_piecewise_exact_refuses_overflowing_generator(u1, dr):
    # T = 30 on N = 3 intervals: dt = 10, so 1e308 * dt overflows
    sched = pconst(30.0, [u1] * 4, [0.0] * 4)
    with pytest.raises(InvalidPropagationInput, match="the steps overflow"):
        propagate_piecewise_exact(sched, delta_r=dr)


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
