"""Sampled control schedules: the exchange format between planner,
baseline, propagator, and CLI.

A schedule holds its duration T and N + 1 samples (u1, u2) on the uniform
grid t_i = i*T/N, which T and N alone define, plus the metadata needed to
verify it later.  `interpolation` declares how values between samples are
meant to be read: "cubic" for smooth planner output (the local 4-point
Lagrange cubic on samples i-1..i+2, one-sided stencils 0..3 and N-3..N on
the end intervals; at least 4 samples), "linear" for straight lines between
samples, "pconst" for piecewise-constant baselines (value held on [t_i,
t_{i+1})).  Planner schedules vanish exactly at both ends; baseline
schedules intentionally do not.
"""
from __future__ import annotations

import math
from dataclasses import KW_ONLY, dataclass

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
    duration: float
    u1: np.ndarray
    u2: np.ndarray
    _: KW_ONLY
    target: UnitQuaternion
    interpolation: str
    warp_order: int | None = None
    eta_bar: float | None = None
    min_abs_z: float | None = None

    def __post_init__(self):
        check_duration(self.duration)
        # copies, so that the caller's arrays cannot change a frozen schedule
        u1 = np.array(self.u1, dtype=float)
        u2 = np.array(self.u2, dtype=float)
        if u1.ndim != 1 or u1.shape != u2.shape or u1.shape[0] < 2:
            raise ValueError("u1, u2 must be 1-d arrays of equal length, at least two samples")
        if not (np.isfinite(u1).all() and np.isfinite(u2).all()):
            raise ValueError("u1, u2 must be finite")
        if self.interpolation not in (INTERP_LINEAR, INTERP_PCONST, INTERP_CUBIC):
            raise ValueError(f"unknown interpolation {self.interpolation!r}")
        if self.interpolation == INTERP_CUBIC and u1.shape[0] < 4:
            raise ValueError("cubic schedule needs at least four samples")
        object.__setattr__(self, "duration", float(self.duration))
        for name, a in (("u1", u1), ("u2", u2)):
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    @property
    def n_intervals(self) -> int:
        return self.u1.shape[0] - 1

    @property
    def spacing(self) -> float:
        return self.duration / self.n_intervals

    @property
    def t(self) -> np.ndarray:
        """The sample times i*T/N, i = 0..N."""
        return np.linspace(0.0, self.duration, self.n_intervals + 1)

    def max_amplitudes(self) -> tuple[float, float]:
        return float(np.max(np.abs(self.u1))), float(np.max(np.abs(self.u2)))
