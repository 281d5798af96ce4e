"""Sampled control schedules, the exchange format between planner, baseline,
propagator, and CLI, and take_number, the one rule that reads their numbers.

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


def take_number(value, name: str, kind: type = float, ndim: int = 0,
                error: type[Exception] = ValueError):
    """The one intake rule, before any comparison, hashing or conversion: a real
    (kind float: an int or a float, Python's or numpy's, not a bool; with ndim=1
    also a flat list, tuple or 1-d array of them, with ndim=2 also a list, tuple
    or 2-d array of such rows, of one length) is read as a float or a new float
    array, a count (kind int) as an int, a 0-d array as its value; else `error`."""
    if type(value) is kind:
        return value
    if isinstance(value, np.ndarray):
        if value.ndim == 0:
            value = value[()]
        elif kind is float and value.ndim <= ndim and value.dtype.kind in "iuf":
            return np.array(value, dtype=float)
    if isinstance(value, (list, tuple, np.ndarray)):
        # element by element, as np.asarray([0.5, True]) is silently a float array
        if ndim and kind is float and getattr(value, "ndim", 1) <= ndim:
            rows = [take_number(v, name, ndim=ndim - 1, error=error) for v in value]
            try:
                return np.array(rows, dtype=float)
            except ValueError:      # rows of unequal length
                raise error(f"{name} must not be ragged") from None
    elif (isinstance(value, (int, np.integer) if kind is int else (int, float, np.integer, np.floating))
          and not isinstance(value, bool)):
        try:
            return kind(value)
        except OverflowError:
            raise error(f"{name} must be within the float range") from None
    rule = "an integer" if kind is int else "a real number" + (" or a flat list of them" if ndim else "")
    raise error(f"{name} must be {rule}, not {type(value).__name__}")


def check_duration(big_t: float) -> float:
    """T read by take_number, and refused unless finite and >= MIN_DURATION."""
    big_t = take_number(big_t, "duration")
    if not MIN_DURATION <= big_t < math.inf:
        raise ValueError(f"duration must be positive and finite, at least {MIN_DURATION!r}")
    return big_t


@dataclass(frozen=True)
class PulseSchedule:
    """A checked, immutable schedule.  u1 and u2 are always read by
    take_number into new read-only float arrays, the planner's rows too, so
    that no array of the caller's can change it."""

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
        duration = check_duration(self.duration)
        # new arrays, so that the caller's cannot change a frozen schedule
        u1, u2 = take_number(self.u1, "u1", ndim=1), take_number(self.u2, "u2", ndim=1)
        if not (type(u1) is type(u2) is np.ndarray and u1.shape == u2.shape and u1.shape[0] > 1):
            raise ValueError("u1, u2 must be 1-d arrays of equal length, at least two samples")
        if not (np.isfinite(u1).all() and np.isfinite(u2).all()):
            raise ValueError("u1, u2 must be finite")
        if self.interpolation not in (INTERP_LINEAR, INTERP_PCONST, INTERP_CUBIC):
            raise ValueError(f"unknown interpolation {self.interpolation!r}")
        if self.interpolation == INTERP_CUBIC and u1.shape[0] < 4:
            raise ValueError("cubic schedule needs at least four samples")
        object.__setattr__(self, "duration", duration)
        for name, a in (("u1", u1), ("u2", u2)):
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        # the sidecar's metadata as the Python int and floats that JSON can write
        for name, kind in (("warp_order", int), ("eta_bar", float), ("min_abs_z", float)):
            value = getattr(self, name)
            if value is not None and type(value) is not kind:
                object.__setattr__(self, name, take_number(value, name, kind))

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
