"""Property tests of the planner over the whole target sphere, of every
numeric intake of the library, and of the CLI's CSV writer over every
float64."""
import contextlib
import decimal
import io
import json
import math
import struct
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from oracles import per_value_csv

from flatgate import cli
from flatgate.errors import IdentityTarget, InvalidPropagationInput
from flatgate.planner import (DEFAULT_SAMPLES, IDENTITY_TOL, MAX_WARP_ORDER, WINDING_TOL,
                              plan_controls, rotate_controls, sample_plan, smoothstep,
                              synthesize)
from flatgate.propagator import (detuning_sweep, propagate, propagate_final_batch,
                                 propagate_piecewise_exact)
from flatgate.quat import E3, UnitQuaternion
from flatgate.schedule import INTERP_CUBIC, PulseSchedule
from flatgate.zyz import euler_decompose, zyz_schedule

component = st.floats(-1.0, 1.0, allow_nan=False)
targets = st.tuples(component, component, component, component) \
    .filter(lambda v: np.linalg.norm(v) >= 1e-3) \
    .map(lambda v: np.asarray(v) / np.linalg.norm(v))
durations = st.floats(0.5, 4.0)
warp_orders = st.integers(1, MAX_WARP_ORDER)
detunings = st.floats(-1.0, 1.0)
GATE_TOL = 1e-6
# JSON values a sidecar key may hold: numbers beyond the float range, NaN and
# Infinity among them, four-number lists (targets) and short nested lists and
# objects
sidecar_scalars = st.one_of(st.none(), st.booleans(), st.integers(),
                            st.integers(-10 ** 400, 10 ** 400), st.floats(),
                            st.text(max_size=8))
sidecar_values = st.one_of(
    st.lists(st.one_of(st.integers(2 ** 1024, 10 ** 400), st.floats()), min_size=4, max_size=4),
    st.recursive(sidecar_scalars, lambda inner: st.lists(inner, max_size=4)
                 | st.dictionaries(st.text(max_size=4), inner, max_size=3), max_leaves=6))


# every float64 bit pattern, NaN payloads and both zeros included, besides
# st.floats()'s own mix of specials, subnormals and round numbers, and
# m / 2**j for small j, whose exact decimal often has 18 significant digits:
# a tie for the 17-digit text
float_bits = st.integers(0, 2 ** 64 - 1).map(
    lambda b: struct.unpack("<d", b.to_bytes(8, "little"))[0])
csv_values = st.one_of(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                       float_bits, st.builds(math.ldexp, st.integers(1, 2 ** 53 - 1),
                                             st.integers(-8, -1)))


def planned(q):
    return np.linalg.norm(q - [1.0, 0.0, 0.0, 0.0]) > IDENTITY_TOL


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(q=targets, big_t=durations, k=warp_orders)
def test_every_non_identity_target_plans(q, big_t, k):
    target = UnitQuaternion(*q)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        if not planned(q):
            with pytest.raises(IdentityTarget):
                plan_controls(target)
            return
        plan = plan_controls(target)
        sched = sample_plan(plan, big_t, 256, k)
    assert np.all(np.isfinite(sched.u1)) and np.all(np.isfinite(sched.u2))
    assert sched.u1[0] == sched.u1[-1] == sched.u2[0] == sched.u2[-1] == 0.0
    assert abs(plan.theta1) <= WINDING_TOL


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(q=targets, big_t=durations, k=warp_orders)
def test_default_plan_reaches_the_target(q, big_t, k):
    # DEFAULT_SAMPLES and the default step, the cubic floor included
    assume(planned(q))
    sched = sample_plan(plan_controls(UnitQuaternion(*q)), big_t, DEFAULT_SAMPLES, k)
    final = propagate(sched).final.as_array()
    assert np.linalg.norm(final - q) <= GATE_TOL


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(q=targets, big_t=durations, k=warp_orders)
def test_plan_files_are_byte_identical(q, big_t, k):
    assume(planned(q))
    argv = ["plan", "--quat=" + ",".join(repr(float(v)) for v in q),
            "--T", repr(big_t), "--k", str(k)]
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp) / "a.csv", Path(tmp) / "b.csv"]
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [cli.main(argv + ["--out", str(p)]) for p in paths]
        assert codes == [0, 0]
        for suffix in (".csv", ".json"):
            a, b = (p.with_suffix(suffix).read_bytes() for p in paths)
            assert a == b


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(q=targets, big_t=durations, k=warp_orders, dr=detunings)
def test_resonant_row_of_a_detuned_batch_equals_the_resonant_run(q, big_t, k, dr):
    # a batch with some dr != 0 takes the general RK4 step, one with every
    # dr == 0 the step without dr terms: the resonant rows agree bit for bit
    assume(planned(q))
    sched = sample_plan(plan_controls(UnitQuaternion(*q)), big_t, DEFAULT_SAMPLES, k)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        finals, drifts = propagate_final_batch([sched, sched], delta_r=[0.0, dr])
        f0, d0 = propagate_final_batch([sched])
        f1, d1 = propagate_final_batch([sched], delta_r=dr)
    assert finals[0].tobytes() == f0[0].tobytes() and drifts[:1].tobytes() == d0.tobytes()
    assert finals[1].tobytes() == f1[0].tobytes() and drifts[1:].tobytes() == d1.tobytes()


@pytest.mark.parametrize("key", ["format_version", "target", "T", "N", "k", "eta_bar",
                                 "min_abs_z", "interpolation"])
def test_any_sidecar_value_exits_with_a_code(tmp_path, key):
    # one key of a valid sidecar replaced: simulate returns 0, 1 or 2 and
    # raises nothing, warnings included
    path = tmp_path / "z.csv"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["plan", "--gate", "Z", "--T", "2", "--N", "64",
                         "--out", str(path)]) == 0
    side = path.with_suffix(".json")
    valid = json.loads(side.read_text())

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(value=sidecar_values)
    def simulate_edited(value):
        side.write_text(json.dumps({**valid, key: value}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                assert cli.main(["simulate", str(path)]) in (0, 1, 2)

    simulate_edited()


# values that no numeric parameter takes: Python and numpy bools, complex
# scalars and arrays, numeric and other strings, bytes, None, an object,
# ragged and nested lists, and a bool inside a list, tuple or object array
not_numbers = st.sampled_from([
    True, False, np.True_, np.False_, np.array(True), np.array([True, False]),
    1j, 2 + 0j, np.complex128(0.5), np.array([1 + 2j, 0, 0, 0]), np.array(1 + 0j),
    "512", "0.5", "1", "", "x", b"1", b"x", None, object(),
    [[0.0], [1.0, 2.0]], [[0.0, 0.5], [1.0, -1.0]], [[0.5]], [0.5, [1.0]],
    [0.5, True], (np.False_, 0.25), np.array([0.5, True], dtype=object),
    np.array(["0.5", "1"]), ["0.5", "1.0"]])


def numeric_parameters():
    """(name, call on one value, documented error, None allowed) for each
    numeric parameter of the public planner, schedule and propagator; every
    other argument is valid."""
    plan = plan_controls(E3)
    sched = sample_plan(plan, 1.0, 64, 1)
    held = zyz_schedule(euler_decompose(E3), 2.0)
    u = np.zeros(4)
    pulse = dict(target=E3, interpolation=INTERP_CUBIC)
    bad = InvalidPropagationInput
    return [
        ("synthesize T", lambda v: synthesize(E3, v), ValueError, False),
        ("synthesize n", lambda v: synthesize(E3, 1.0, v), ValueError, False),
        ("synthesize k", lambda v: synthesize(E3, 1.0, 64, v), ValueError, False),
        ("sample_plan T", lambda v: sample_plan(plan, v), ValueError, False),
        ("sample_plan n", lambda v: sample_plan(plan, 1.0, v), ValueError, False),
        ("sample_plan k", lambda v: sample_plan(plan, 1.0, 64, v), ValueError, False),
        ("Plan.controls s", lambda v: plan.controls(v), ValueError, False),
        ("smoothstep t", lambda v: smoothstep(v, 1.0), ValueError, False),
        ("smoothstep T", lambda v: smoothstep(0.5, v), ValueError, False),
        ("smoothstep k", lambda v: smoothstep(0.5, 1.0, v), ValueError, False),
        ("PulseSchedule duration", lambda v: PulseSchedule(v, u, u, **pulse), ValueError, False),
        ("PulseSchedule u1", lambda v: PulseSchedule(1.0, v, u, **pulse), ValueError, False),
        ("PulseSchedule u2", lambda v: PulseSchedule(1.0, u, v, **pulse), ValueError, False),
        ("PulseSchedule warp_order",
         lambda v: PulseSchedule(1.0, u, u, **pulse, warp_order=v), ValueError, True),
        ("PulseSchedule eta_bar",
         lambda v: PulseSchedule(1.0, u, u, **pulse, eta_bar=v), ValueError, True),
        ("PulseSchedule min_abs_z",
         lambda v: PulseSchedule(1.0, u, u, **pulse, min_abs_z=v), ValueError, True),
        ("zyz_schedule T", lambda v: zyz_schedule(euler_decompose(E3), v), ValueError, False),
        ("rotate_controls eta", lambda v: rotate_controls(sched, v), ValueError, False),
        ("propagate delta_r", lambda v: propagate(sched, delta_r=v), bad, False),
        ("propagate h", lambda v: propagate(sched, h=v), bad, True),
        ("propagate_final_batch delta_r",
         lambda v: propagate_final_batch([sched], delta_r=v), bad, False),
        ("propagate_final_batch h", lambda v: propagate_final_batch([sched], h=v), bad, True),
        ("detuning_sweep delta_r_list", lambda v: detuning_sweep(sched, v, E3), bad, False),
        ("detuning_sweep h", lambda v: detuning_sweep(sched, [0.0], E3, h=v), bad, True),
        ("propagate_piecewise_exact delta_r",
         lambda v: propagate_piecewise_exact(held, delta_r=v), bad, False),
    ]


NUMERIC_PARAMETERS = numeric_parameters()


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(param=st.sampled_from(NUMERIC_PARAMETERS), value=not_numbers)
def test_a_value_that_is_no_number_raises_the_documented_error(param, value):
    # each raised TypeError, warned, or gave a result on some of these
    # (T = True planned T = 1, delta_r = "0.5" ran at 0.5, a complex control
    # lost its imaginary part behind a ComplexWarning, n = "512" failed in
    # a comparison and k = [1] in hashing)
    name, call, error, none_allowed = param
    assume(not (value is None and none_allowed))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error) as info:
            call(value)
    assert not isinstance(info.value, TypeError), name


# Python and numpy ints and floats of every width, as scalars and 0-d arrays
def widths(v):
    kinds = [np.float16, np.float32, np.float64, np.longdouble] if isinstance(v, float) else [
        kind for kind in (np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16,
                          np.uint32, np.uint64) if np.iinfo(kind).max >= v]
    return [v, np.array(v)] + [kind(v) for kind in kinds]


def test_every_accepted_number_gives_the_bits_of_its_python_value():
    # a float16, float32 or longdouble duration once built a sample grid of
    # that width, and a 0-d duration failed in the clock cache
    def plan_bits(big_t, n, k):
        s = synthesize(E3, big_t, n, k)
        return (s.u1.tobytes(), s.u2.tobytes(), s.duration, type(s.duration), s.warp_order,
                type(s.warp_order))

    for want, cases in (
            (plan_bits(1.5, 1000, 2), [(t, 1000, 2) for t in widths(1.5)]
             + [(1.5, n, 2) for n in widths(1000)] + [(1.5, 1000, k) for k in widths(2)]),
            (plan_bits(2.0, 1000, 2), [(t, 1000, 2) for t in widths(2)])):
        for args in cases:
            assert plan_bits(*args) == want, args
    sched = synthesize(E3, 2.0, 512, 2)
    finals = propagate_final_batch([sched], delta_r=[0.25, -0.5], h=1 / 1024)
    for dr, h in ([([0.25, -0.5], h) for h in widths(1 / 1024)]
                  + [(dr, 1 / 1024) for dr in ((0.25, np.float32(-0.5)),
                                               np.array([0.25, -0.5], np.float32),
                                               np.array([0.25, -0.5], dtype=object))]):
        got = propagate_final_batch([sched], delta_r=dr, h=h)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in finals], (dr, h)


# hostile and valid command-line values: non-finite, zero, negative and
# extreme durations; sample counts from too few to one past MAX_SAMPLES; warp
# orders past the bound; sweep sizes past MAX_SWEEP_STEPS; and steps, at most
# a few hundred per run, from none to past the sample spacing
arg_durations = st.sampled_from(["nan", "inf", "-inf", "0", "-1", "1e-300", "1e300", "0.5", "1.5",
                                 "2"])
arg_sizes = st.sampled_from(["0", "63", "64", "512", str(2 ** 22 + 1)])
arg_steps = st.sampled_from(["0", "1", "41", "4097"])
arg_h = st.sampled_from(["nan", "inf", "-inf", "0", "-0.01", "1e-300", "1e300", "0.01",
                         "0.0078125", "x"])
arg_detunings = st.sampled_from(["nan", "inf", "-1e308", "1e300", "-1", "0", "0.5", "1"])
arg_gates = st.sampled_from([
    ["--gate", "X"], ["--gate", "H"], ["--gate", "minus-one"], ["--quat", "0.5,0.5,0.5,0.5"],
    [], ["--gate", "Z", "--quat", "0,0,0,1"],
    ["--quat", "0,0,0,1"], ["--quat", "1,0,0,0"], ["--quat", "1,0,0"], ["--quat", "nan,0,0,1"],
    ["--quat", "0,1e300,0,1e300"], ["--quat", "a,b,c,d"], ["--quat", ""],
    ["--su2", "0,0,1,0,-1,0,0,0"], ["--su2", "0,0,1,0,-1,0,0"],
    ["--su2", "1e300,0,0,0,0,0,1e300,0"], ["--su2", "inf,0,0,0,0,0,1,0"]])


def option(flag, values, absent=2):
    """`flag` with one of `values`, or, one time in `absent`, no argument."""
    return st.tuples(st.integers(1, absent), values).map(
        lambda drawn: [f"{flag}={drawn[1]}"] if drawn[0] > 1 else [])


def cli_argv(schedule, out):
    """argv for plan, compare, sweep or simulate (on the file `schedule`),
    writing to `out`; sweep's required options may be missing."""
    common = (arg_gates, option("--T", arg_durations))
    sized = (option("--N", arg_sizes), option("--k", st.integers(0, 9).map(str)))
    return st.one_of(
        st.tuples(st.just(["plan", "--out", out]), *common, *sized),
        st.tuples(st.just(["compare"]), *common),
        st.tuples(st.just(["sweep", "--out", out]), *common, *sized,
                  option("--delta-r-min", arg_detunings, 10),
                  option("--delta-r-max", arg_detunings, 10),
                  option("--steps", arg_steps, 10), option("--h", arg_h)),
        st.tuples(st.just(["simulate", schedule]), option("--delta-r", arg_detunings),
                  option("--h", arg_h), option("--out", st.just(out))),
    ).map(lambda parts: [arg for part in parts for arg in part])


def test_any_argv_exits_with_a_code(tmp_path):
    # cli.main returns 0, 1 or 2, or argparse exits 2; no other exception
    # and no warning escapes
    schedule, out = str(tmp_path / "z.csv"), str(tmp_path / "out.csv")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["plan", "--gate", "Z", "--T", "2", "--N", "64", "--out", schedule]) == 0

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(argv=cli_argv(schedule, out))
    def run_argv(argv):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
        assert code in (0, 1, 2)

    run_argv()


def written_csv(block):
    """The bytes cli._write_csv writes for the columns of `block`, and the
    per-value oracle's."""
    header = ",".join(f"c{j}" for j in range(block.shape[1]))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "x.csv"
        cli._write_csv(path, header, list(block.T))
        return path.read_bytes(), b"".join(per_value_csv(header, block.T))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_csv_writer_writes_format_17g_byte_for_byte(data):
    shape = data.draw(st.tuples(st.integers(1, 16), st.integers(1, 6)))
    block = data.draw(arrays(np.float64, shape, elements=csv_values))
    got, want = written_csv(block)
    assert got == want


def dyadic_ties():
    """Doubles m / 2**j, m odd, whose exact decimal has 18 significant digits,
    the last a 5: their 17-digit text rounds a tie, half to even."""
    return [sign * v for bits in range(20, 54) for m in range(2 ** bits - 1, 2 ** bits - 20, -2)
            for j in range(1, 60) for v in [math.ldexp(m, -j)]
            if len(decimal.Decimal(v).as_tuple().digits) == 18 for sign in (1, -1)]


def csv_edge_values():
    around = lambda v: [np.nextafter(v, -np.inf), v, np.nextafter(v, np.inf)]
    values = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
              1.7976931348623157e308, -1.7976931348623157e308, 99999999999999999.0,
              math.inf, -math.inf, math.nan]
    for k in range(-323, 309):                  # the double nearest 10**k
        values += around(float(f"1e{k}"))
    for v in (1e16, 1e17, 1e-4, 1e-5, 9999999999999998.0, 0.1, 0.099999999999999992, 1e-7):
        values += around(v) + [-x for x in around(v)]
    return np.array(values + dyadic_ties())


@pytest.mark.parametrize("cols", [1, 2, 3, 5])
def test_csv_writer_edge_values(cols):
    values = csv_edge_values()
    ties = dyadic_ties()
    # both ways of rounding a tie occur: the 17th digit even and odd
    assert len({int(decimal.Decimal(t).as_tuple().digits[16]) % 2 for t in ties}) == 2
    block = values[:len(values) - len(values) % cols].reshape(-1, cols)
    got, want = written_csv(block)
    assert got == want


def layout_values():
    """One double for each of the writer's layout codes: sign x (fixed
    notation at each decimal exponent e = -4..16, or scientific with a
    positive or negative exponent of two or three digits) x 1..17 significant
    digits, nd-digit decimals drawn until one parses to a double whose
    17-digit text has those nd significant digits."""
    rng = np.random.default_rng(27)
    kinds = [range(e, e + 1) for e in range(-4, 17)] + [
        range(17, 100), range(100, 309), range(-99, -4), range(-307, -99)]
    values = []
    for exponents in kinds:
        for nd in range(1, 18):
            while True:
                e = int(rng.choice(exponents))
                digits = str(rng.integers(10 ** (nd - 1), 10 ** nd))
                v = float(f"{digits}e{e + 1 - nd}")
                text = decimal.Decimal(format(v, ".17g"))
                if text.adjusted() == e and len(text.normalize().as_tuple().digits) == nd:
                    break
            values += [v, -v]
    return values


@pytest.mark.parametrize("cols", [1, 5])
def test_csv_writer_writes_every_layout(cols):
    values = layout_values()
    assert len(values) == 2 * 25 * 17
    # the values formatted one at a time: inf and nan, a tie that rounds to
    # even, and a double below 1e22 whose log10 rounds up to 22
    below = np.nextafter(1e22, 0.0)
    assert np.log10(below) == 22.0
    values += [math.inf, -math.inf, math.nan, dyadic_ties()[0], below, -below]
    values += [0.0] * (-len(values) % cols)
    got, want = written_csv(np.array(values).reshape(-1, cols))
    assert got == want
