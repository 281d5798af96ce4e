"""Sampled control schedules: the exchange format between planner,
baseline, propagator, and CLI.

A schedule holds N + 1 samples (u1, u2) on the uniform grid t_i = i*T/N
plus the metadata needed to verify it later.  `interpolation` declares how
values between samples are meant to be read: "cubic" for smooth planner
output (the local 4-point Lagrange cubic on samples i-1..i+2, one-sided
stencils 0..3 and N-3..N on the end intervals; at least 4 samples),
"linear" for straight lines between samples, "pconst" for
piecewise-constant baselines (value held on [t_i, t_{i+1})).  Planner
schedules vanish exactly at both ends; baseline schedules intentionally do
not.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quat import UnitQuaternion

FORMAT_VERSION = 1

INTERP_LINEAR = "linear"
INTERP_PCONST = "pconst"
INTERP_CUBIC = "cubic"

# The most sample intervals a plan has and the most steps a propagation
# takes; a recorded trajectory of this many steps is 128 MB, and larger
# counts are input errors.
MAX_SAMPLES = 2 ** 22

# Controls scale as 1/T, up to ~22/T for the planner (6.7 in s times ds/dt
# <= 3.34/T) and 3*pi/T for the baseline: a shorter T leaves under 1e7 of
# headroom below the float range, and a subnormal T overflows 1/T itself.
MIN_DURATION = 1e-300


def check_duration(big_t: float) -> None:
    """Refuse a duration that is not a finite number of at least
    MIN_DURATION (NaN too), before any arithmetic on it."""
    if not MIN_DURATION <= big_t < math.inf:
        raise ValueError(f"duration must be positive and finite, at least {MIN_DURATION!r}")


@dataclass(frozen=True)
class PulseSchedule:
    t: np.ndarray
    u1: np.ndarray
    u2: np.ndarray
    target: UnitQuaternion
    interpolation: str
    warp_order: int | None = None
    eta_bar: float | None = None
    min_abs_z: float | None = None

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        u1 = np.asarray(self.u1, dtype=float)
        u2 = np.asarray(self.u2, dtype=float)
        if t.ndim != 1 or t.shape != u1.shape or t.shape != u2.shape:
            raise ValueError("t, u1, u2 must be 1-d arrays of equal length")
        if t.shape[0] < 2:
            raise ValueError("schedule needs at least two samples")
        if not all(np.all(np.isfinite(a)) for a in (t, u1, u2)):
            raise ValueError("t, u1, u2 must be finite")
        if t[0] != 0.0 or t[-1] <= 0.0:
            raise ValueError("t grid must start at 0 and end at T > 0")
        dt = np.diff(t)
        if np.any(dt <= 0.0) or np.max(np.abs(dt - dt[0])) > 1e-9 * max(t[-1], 1.0):
            raise ValueError("t grid must be uniform and increasing")
        if self.interpolation not in (INTERP_LINEAR, INTERP_PCONST, INTERP_CUBIC):
            raise ValueError(f"unknown interpolation {self.interpolation!r}")
        if self.interpolation == INTERP_CUBIC and t.shape[0] < 4:
            raise ValueError("cubic schedule needs at least four samples")
        for name, a in (("t", t), ("u1", u1), ("u2", u2)):
            a = a.copy()
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    @property
    def duration(self) -> float:
        return float(self.t[-1])

    @property
    def n_intervals(self) -> int:
        return self.t.shape[0] - 1

    @property
    def spacing(self) -> float:
        return float(self.t[1] - self.t[0])

    def max_amplitudes(self) -> tuple[float, float]:
        return float(np.max(np.abs(self.u1))), float(np.max(np.abs(self.u2)))
