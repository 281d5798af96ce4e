"""Property tests of the planner over the whole target sphere."""
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flatgate.errors import IdentityTarget
from flatgate.planner import IDENTITY_TOL, MAX_WARP_ORDER, WINDING_TOL, plan_controls, sample_plan
from flatgate.quat import UnitQuaternion

component = st.floats(-1.0, 1.0, allow_nan=False)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(v=st.tuples(component, component, component, component)
       .filter(lambda v: np.linalg.norm(v) >= 1e-3),
       big_t=st.floats(0.5, 4.0), k=st.integers(1, MAX_WARP_ORDER))
def test_every_non_identity_target_plans(v, big_t, k):
    q = np.asarray(v) / np.linalg.norm(v)
    target = UnitQuaternion(*q)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        if np.linalg.norm(q - [1.0, 0.0, 0.0, 0.0]) <= IDENTITY_TOL:
            with pytest.raises(IdentityTarget):
                plan_controls(target)
            return
        plan = plan_controls(target)
        sched = sample_plan(plan, big_t, 256, k)
    assert np.all(np.isfinite(sched.u1)) and np.all(np.isfinite(sched.u2))
    assert sched.u1[0] == sched.u1[-1] == sched.u2[0] == sched.u2[-1] == 0.0
    assert abs(plan.theta[-1]) <= WINDING_TOL
