"""Property tests of the planner over the whole target sphere."""
import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from flatgate import cli
from flatgate.errors import IdentityTarget
from flatgate.planner import (DEFAULT_SAMPLES, IDENTITY_TOL, MAX_WARP_ORDER, WINDING_TOL,
                              plan_controls, sample_plan)
from flatgate.propagator import propagate, propagate_final_batch
from flatgate.quat import UnitQuaternion

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
