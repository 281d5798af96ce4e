"""Command-line front end: plan pulses, simulate them, compare against the
three-pulse baseline, sweep detuning, and run a self-test.

File formats
------------
Schedule:    CSV with header ``t,u1,u2``, 17 significant digits per value,
             on the finite grid t_i = i*T/N (read to within 1e-9*T), plus a
             sidecar JSON object (same path with a .json suffix, which must
             differ from the CSV path): integer format_version, four-number
             target, T and N (optional on reading; else within 1e-9*T of the
             last t, and the row count less one), integer or null k, number
             or null eta_bar and min_abs_z, string interpolation.  Numbers are
             finite numbers that fit a float (not true, false, NaN, Infinity
             or a larger integer); any other sidecar is an I/O error.
Trajectory:  CSV with header ``t,q0,q1,q2,q3`` (scalar-first components).
Sweep:       CSV with header ``delta_r,fidelity``.

Exit codes: 0 success, 1 domain errors, 2 I/O errors.  Identical inputs
produce byte-identical output files.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import planner, propagator, zyz
from .errors import FlatGateError
from .quat import UnitQuaternion, as_unit, from_su2, SU2Matrix
from .schedule import FORMAT_VERSION, PulseSchedule, check_duration

SQ2 = 1.0 / math.sqrt(2.0)
# Bounds a sweep's run time and its (steps, 4) terminal states; propagation
# takes 64 detunings at a time, so memory barely grows with the steps: 4096
# take ~0.4 s at 33 MB peak RSS for the whole process (gate H, T = 2, the
# default N and step, 2 vCPU).
MAX_SWEEP_STEPS = 2 ** 12
_CSV_BLOCK_ROWS = 4096
NAMED_GATES = {
    "X": UnitQuaternion(0.0, 1.0, 0.0, 0.0),
    "Y": UnitQuaternion(0.0, 0.0, 1.0, 0.0),
    "Z": UnitQuaternion(0.0, 0.0, 0.0, 1.0),
    "H": UnitQuaternion(0.0, SQ2, 0.0, SQ2),
    "minus-one": UnitQuaternion(-1.0, 0.0, 0.0, 0.0),
}


def resolve_gate(args) -> UnitQuaternion:
    """Resolve --gate/--quat/--su2 to the documented SU(2) representative."""
    given = [x for x in (args.gate, args.quat, args.su2) if x is not None]
    if len(given) != 1:
        raise FlatGateError("give exactly one of --gate, --quat, --su2")
    if args.gate is not None:
        return NAMED_GATES[args.gate]
    if args.quat is not None:
        vals = [float(v) for v in args.quat.split(",")]
        if len(vals) != 4:
            raise FlatGateError("--quat needs w,x,y,z")
        return UnitQuaternion(*vals)
    vals = [float(v) for v in args.su2.split(",")]
    if len(vals) != 8:
        raise FlatGateError("--su2 needs 8 reals: re,im per entry, row-major")
    return from_su2(SU2Matrix(np.array(vals).view(complex).reshape(2, 2)))


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_csv(path, header: str, columns) -> None:
    """Write `header` and one row per index of the equal-length 1-D arrays
    `columns`, each value as _fmt writes it ("%.17g" % v is the same text as
    format(v, ".17g")), formatting and writing a block of rows at a time."""
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    with open(path, "w") as f:
        f.write(header + "\n")
        for i in range(0, len(columns[0]), _CSV_BLOCK_ROWS):
            block = np.stack([c[i:i + _CSV_BLOCK_ROWS] for c in columns], axis=-1)
            f.write(row * len(block) % tuple(block.ravel().tolist()))


def write_schedule(sched: PulseSchedule, path: str) -> Path:
    """Write the schedule CSV and its JSON sidecar; returns the sidecar path."""
    p = Path(path)
    side = p.with_suffix(".json")
    if side == p:
        raise OSError(f"{path}: a schedule path cannot be its own .json sidecar")
    _write_csv(p, "t,u1,u2", (sched.t, sched.u1, sched.u2))
    manifest = {
        "format_version": FORMAT_VERSION,
        "target": [sched.target.w, sched.target.x, sched.target.y, sched.target.z],
        "T": sched.duration,
        "N": sched.n_intervals,
        "k": sched.warp_order,
        "eta_bar": sched.eta_bar,
        "min_abs_z": sched.min_abs_z,
        "interpolation": sched.interpolation,
    }
    side.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return side


def _fits(value, kind) -> bool:
    """isinstance(value, kind), except that JSON true and false are not numbers
    and a number must fit a float (compared, not converted, so NaN fails)."""
    return isinstance(value, kind) and not isinstance(value, bool) and (
        not isinstance(value, (int, float)) or abs(value) <= sys.float_info.max)


def read_schedule(path: str) -> PulseSchedule:
    """Read a schedule CSV and its sidecar, as the module docstring has them."""
    p = Path(path)
    rows = p.read_text().strip().splitlines()
    if not rows or rows[0].strip() != "t,u1,u2":
        raise FlatGateError(f"{path}: expected header t,u1,u2")
    data = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
    if data.ndim != 2 or data.shape[0] < 2 or data.shape[1] != 3:
        raise FlatGateError(f"{path}: schedule needs at least two t,u1,u2 rows")
    t = data[:, 0]
    if not np.all(np.isfinite(t)):
        raise ValueError(f"{path}: t must be finite")
    check_duration(t[-1])
    with np.errstate(over="ignore"):        # an overflowing offset is inf, refused
        off = np.max(np.abs(t - np.linspace(0.0, t[-1], len(t))))
    if t[0] != 0.0 or not off <= 1e-9 * t[-1]:
        raise ValueError(f"{path}: t must start at 0 and be the uniform grid i*T/N")
    side = p.with_suffix(".json")
    try:
        man = json.loads(side.read_text())
    except RecursionError:
        raise OSError(f"{side}: sidecar is nested too deeply") from None
    if not isinstance(man, dict):
        raise OSError(f"{side}: sidecar is not a JSON object")
    end, n, null = float(t[-1]), len(t) - 1, type(None)
    big_t, target = man.get("T", end), man.get("target")
    for key, ok, rule in (
            ("format_version", _fits(man.get("format_version"), int), "an integer"),
            ("target", isinstance(target, list) and len(target) == 4
             and all(_fits(v, (int, float)) for v in target), "a list of four numbers"),
            ("interpolation", isinstance(man.get("interpolation"), str), "a string"),
            ("k", _fits(man.get("k"), (int, null)), "an integer or null"),
            ("eta_bar", _fits(man.get("eta_bar"), (int, float, null)), "a number or null"),
            ("min_abs_z", _fits(man.get("min_abs_z"), (int, float, null)), "a number or null"),
            ("T", _fits(big_t, (int, float)) and end - 1e-9 * end <= big_t <= end + 1e-9 * end,
             f"within 1e-9*T of the last t, {end!r}"),
            ("N", _fits(man.get("N", n), int) and man.get("N", n) == n,
             f"the row count less one, {n}")):
        if not ok:
            raise OSError(f"{side}: {key} must be {rule}")
    if man["format_version"] != FORMAT_VERSION:
        raise FlatGateError(f"{path}: unsupported format_version")
    return PulseSchedule(
        t[-1], data[:, 1], data[:, 2],
        target=UnitQuaternion(*target),
        interpolation=man["interpolation"],
        warp_order=man.get("k"), eta_bar=man.get("eta_bar"),
        min_abs_z=man.get("min_abs_z"))


def write_trajectory(result: propagator.PropagationResult, path: str) -> None:
    _write_csv(path, "t,q0,q1,q2,q3", (result.t, *result.states.T))


def cmd_plan(args) -> int:
    plan = planner.plan_controls(resolve_gate(args))
    sched = planner.sample_plan(plan, args.T, args.N, args.k)
    ok_ends = sched.u1[0] == 0.0 and sched.u2[0] == 0.0 \
        and sched.u1[-1] == 0.0 and sched.u2[-1] == 0.0
    print(f"min |z| on samples:  {_fmt(sched.min_abs_z)}")
    print(f"|theta(1)|:          {_fmt(abs(plan.theta1))}")
    print(f"endpoint controls are exactly zero: {ok_ends}")
    side = write_schedule(sched, args.out)
    print(f"wrote {args.out} and {side}")
    return 0


def cmd_simulate(args) -> int:
    sched = read_schedule(args.schedule)
    result = propagator.propagate(sched, delta_r=args.delta_r, h=args.h)
    fid = propagator.fidelity(result.final, sched.target)
    print(f"terminal state:      {' '.join(_fmt(v) for v in result.final.as_array())}")
    print(f"fidelity vs target:  {_fmt(fid)}")
    print(f"max norm drift:      {_fmt(result.max_norm_drift)}")
    if args.out:
        write_trajectory(result, args.out)
        print(f"wrote {args.out}")
    return 0


def _terminal_fidelity(sched: PulseSchedule, target: UnitQuaternion) -> float:
    finals, _ = propagator.propagate_final_batch([sched])
    return propagator.fidelity(as_unit(finals[0]), target)


def cmd_compare(args) -> int:
    target = resolve_gate(args)
    angles = zyz.euler_decompose(target)
    zsched = zyz.zyz_schedule(angles, args.T)
    zmax1, zmax2 = zsched.max_amplitudes()
    zfid_exact = propagator.fidelity(
        propagator.propagate_piecewise_exact(zsched), target)
    zfid_rk4 = _terminal_fidelity(zsched, target)

    try:
        fsched = planner.synthesize(target, args.T)
        fmax1, fmax2 = fsched.max_amplitudes()
        ffid = _terminal_fidelity(fsched, target)
        flat_cols = (_fmt(fmax1), _fmt(fmax2), _fmt(ffid), "yes")
    except FlatGateError as exc:
        flat_cols = ("rejected", "rejected", f"rejected ({exc})", "-")

    print("method  max|u1|  max|u2|  fidelity(rk4)  endpoint-zero")
    print(f"flat    {flat_cols[0]}  {flat_cols[1]}  {flat_cols[2]}  {flat_cols[3]}")
    print(f"zyz     {_fmt(zmax1)}  {_fmt(zmax2)}  {_fmt(zfid_rk4)}  no")
    print(f"zyz exact-propagation fidelity: {_fmt(zfid_exact)}")
    print(f"zyz angles (a, b, c): {_fmt(angles.a)} {_fmt(angles.b)} {_fmt(angles.c)}")
    return 0


def cmd_sweep(args) -> int:
    target = resolve_gate(args)
    if not 1 <= args.steps <= MAX_SWEEP_STEPS:
        raise ValueError(f"sweep needs 1 to {MAX_SWEEP_STEPS} steps")
    if not math.isfinite(args.delta_r_max - args.delta_r_min):
        raise ValueError("sweep needs finite detuning bounds with a finite span")
    sched = planner.synthesize(target, args.T, args.N, args.k)
    drs = np.linspace(args.delta_r_min, args.delta_r_max, args.steps)
    sweep = propagator.detuning_sweep(sched, drs, target, h=args.h)
    _write_csv(args.out, "delta_r,fidelity", (sweep.delta_r, sweep.fidelity))
    print(f"wrote {args.out} ({args.steps} rows)")
    return 0


def cmd_selftest(args) -> int:
    del args
    from . import selftest
    t0 = time.perf_counter()
    results = selftest.run_all()
    width = max(len(name) for name, _, _ in results)
    for name, ok, detail in results:
        print(f"{name:<{width}}  {'PASS' if ok else 'FAIL'}  {detail}")
    n_bad = sum(1 for _, ok, _ in results if not ok)
    print(f"{len(results) - n_bad}/{len(results)} suites passed "
          f"in {time.perf_counter() - t0:.1f} s")
    return 1 if n_bad else 0


def _add_gate_opts(p: argparse.ArgumentParser) -> None:
    p.add_argument("--gate", choices=sorted(NAMED_GATES),
                   help="named gate (SU(2) representative, global phase fixed)")
    p.add_argument("--quat", help="target as w,x,y,z")
    p.add_argument("--su2", help="target as 8 reals: re,im of entries, row-major")


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process: parsing leaves it unchanged."""
    ap = argparse.ArgumentParser(
        prog="flatgate",
        description="Smooth single-pulse qubit gate synthesis and verification.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", help="synthesize a schedule and write it out")
    _add_gate_opts(p)
    p.add_argument("--T", type=float, default=1.0, help="pulse duration")
    p.add_argument("--N", type=int, default=planner.DEFAULT_SAMPLES,
                   help="sample intervals")
    p.add_argument("--k", type=int, default=1, help="clock smoothness order")
    p.add_argument("--out", default="schedule.csv", help="output CSV path")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("simulate", help="propagate a schedule file")
    p.add_argument("schedule", help="schedule CSV (sidecar JSON must exist)")
    p.add_argument("--delta-r", type=float, default=0.0, dest="delta_r",
                   help="detuning offset")
    p.add_argument("--h", type=float, default=None, help="integrator step")
    p.add_argument("--out", default=None, help="trajectory CSV path")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("compare", help="flat pulse vs three-pulse baseline")
    _add_gate_opts(p)
    p.add_argument("--T", type=float, default=1.0, help="pulse duration")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("sweep", help="fidelity across a detuning range")
    _add_gate_opts(p)
    p.add_argument("--T", type=float, default=1.0, help="pulse duration")
    p.add_argument("--N", type=int, default=planner.DEFAULT_SAMPLES)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--delta-r-min", type=float, required=True, dest="delta_r_min")
    p.add_argument("--delta-r-max", type=float, required=True, dest="delta_r_max")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--h", type=float, default=None)
    p.add_argument("--out", default="sweep.csv")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("selftest", help="run the built-in invariant suites")
    p.set_defaults(func=cmd_selftest)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, json.JSONDecodeError) as exc:
        # before ValueError, of which JSONDecodeError is a subclass
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except (FlatGateError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
