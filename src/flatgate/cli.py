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

Every CSV number is the text of format(v, ".17g"), byte for byte, though the
writer formats whole blocks of rows in numpy (see _format_rows): each value's
bytes are laid out once, in output order, in a 48-byte superset row of every
byte its text could hold, and a keep-mask chosen by the value's layout (sign,
notation and exponent, significant digits) zeroes the bytes its text does not
hold, which are then dropped.

Exit codes: 0 success, 1 domain errors, 2 I/O errors.  Identical inputs
produce byte-identical output files.
"""
from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import operator
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
# Rows per formatting block: the writer's arrays peak at ~235 bytes per value
# of one block, ~1.2 MB at five columns, whatever the row count.
_CSV_BLOCK_ROWS = 1024
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


# a double's decimal exponents, and 10**k for k = 16 - e, e one of them or one beyond
_E = np.arange(-324, 309)
_K_MIN, _K_MAX = -293, 341
_SPLIT = 2.0 ** 27 + 1


def _pow10_table():
    """(hi, hh, hl, lo, p) with |hi + lo - 10**k / 2**p| < 2**-106 for k in
    [_K_MIN, _K_MAX]: hi in [1/2, 1) holds the leading 53 of the first 120
    bits of 10**k, exact integers, hh + hl is its Dekker split and lo the
    next 67 bits rounded to a double.

    Those 120 bits are y = floor(10**k * 2**(120 - b)) for k >= 0, with b the
    bit length of 10**k and p = b, and y = floor(2**(b + 119) / 10**-k) for k
    < 0, with b that of 10**-k and p = 1 - b.  The rows of y go to numpy as
    two 64-bit words each; the 67 bits of lo are the sum of their leading
    53 and trailing 14, which rounds once, as float() does."""
    tens = list(itertools.accumulate(itertools.repeat(10, max(_K_MAX, -_K_MIN)),
                                     operator.mul, initial=1))
    neg, pos = tens[-_K_MIN:0:-1], tens[:_K_MAX + 1]
    bits = np.array([t.bit_length() for t in neg + pos])
    ys = [(1 << (b + 119)) // t for t, b in zip(neg, bits.tolist())]
    ys += [(t << 120) >> b for t, b in zip(pos, bits[-_K_MIN:].tolist())]
    words = np.frombuffer(b"".join(y.to_bytes(16, "little") for y in ys), dtype="<u8")
    low, high = words[0::2], words[1::2]
    hi = np.ldexp((high >> np.uint64(3)).astype(float), -53)
    lo = (np.ldexp(((high & np.uint64(7)) << np.uint64(50) | low >> np.uint64(14)).astype(float), -106)
          + np.ldexp((low & np.uint64(2 ** 14 - 1)).astype(float), -120))
    bits[:-_K_MIN] = 1 - bits[:-_K_MIN]
    c = _SPLIT * hi
    hh = c - (c - hi)
    return hi, hh, hi - hh, lo, bits


_P10_HI, _P10_HH, _P10_HL, _P10_LO, _P10_EXP = _pow10_table()
_TIE_WINDOW = 2.0 ** -32


def _decimal(v):
    """(D, e) for the float64 array v: D the 17 significant digits of |v| as
    an integer in [1e16, 1e17) and e its decimal exponent, so that |v|
    rounds to D * 10**(e - 16), round half to even; D = 0, e = 0 for zeros,
    D = 1e16, e = 0 for inf and nan, whose text the caller writes.

    For finite nonzero v = f * 2**x (np.frexp), D is round(|v| * 10**(16 - e))
    with e = floor(log10|v|).  The product is a double-double hi + lo: the
    table's 10**k is within 2**-106 of its hi (2**-107 from rounding lo,
    2**-119 from truncating), f * hi is exact (Dekker's product, the table's
    hi split at import), f * lo is within 2**-107 and the sum that adds it
    within 2**-106, all beside a product f * hi >= 1/4: below 2**-103 of the
    product, or 2**-46 absolute below 1e17 < 2**57.  hi is an integer, so
    the product's floor is hi + floor(lo).  Values are formatted one at a
    time by format(v, ".16e") where the fractional part lies within
    _TIE_WINDOW = 2**-32 of one half, as the exact product may round the
    other way, and where the floor leaves [1e16, 1e17), as log10 was one
    off.  A D of 1e17 is 1e16 at e + 1.
    """
    zero = v == 0
    a = np.abs(v)
    a[zero | ~np.isfinite(v)] = 1.0
    f, x = np.frexp(a)
    # table index of k = 16 - floor(log10|v|); log10|v| > -400
    i = (16 - _K_MIN + 400) - (np.log10(a) + 400).astype(np.intp)
    b = _P10_HI[i]
    p = f * b
    c = _SPLIT * f
    fh = c - (c - f)
    fl = f - fh
    bh, bl = _P10_HH[i], _P10_HL[i]
    t = ((fh * bh - p) + fh * bl + fl * bh) + fl * bl + f * _P10_LO[i]
    hi = p + t
    scale = ((x + _P10_EXP[i] + 1023) << 52).view(np.float64)     # 2**(x + p)
    lo = (t - (hi - p)) * scale
    whole = np.floor(lo)
    frac = lo - whole
    d = (hi * scale).astype(np.int64) + whole.astype(np.int64)
    slow = (d < 10 ** 16) | (d >= 10 ** 17) | (np.abs(frac - 0.5) <= _TIE_WINDOW)
    d += frac > 0.5
    e = (16 - _K_MIN) - i
    top = d == 10 ** 17
    d[top] = 10 ** 16
    e += top
    for j in np.flatnonzero(slow):
        s = format(float(a[j]), ".16e")
        d[j], e[j] = int(s[0] + s[2:18]), int(s[19:])
    d[zero] = 0
    return d, e


def _layout_tables():
    """The byte tables of the superset row (see _format_rows), each viewed
    as uint64 words: the digits of 0..9999 as "d.d.d.d."; the last word
    "De+hto" of a 17th digit D and an exponent e, at D * len(_E) + e - _E[0];
    the 48-byte keep-mask of every layout code; and, not a word, the
    trailing zeros of the four digits of 0..9999 (4 for 0)."""
    digits = np.indices((10,) * 4, np.uint8).reshape(4, -1).T + np.uint8(48)
    group = np.full((10000, 4, 2), ord("."), np.uint8)
    group[:, :, 0] = digits
    z = (digits == 48).astype(np.int8)
    trailing = z[:, 3] * (1 + z[:, 2] * (1 + z[:, 1] * (1 + z[:, 0])))
    tail = np.zeros((10, len(_E), 8), np.uint8)
    tail[:, :, 0] = np.arange(48, 58, dtype=np.uint8)[:, None]
    tail[:, :, 1] = ord("e")
    tail[:, :, 2] = np.where(_E < 0, ord("-"), ord("+"))
    tail[:, :, 3:6] = digits[np.abs(_E), 1:]
    # codes of positive values, (kind, nd) = (code // 17, code % 17 + 1)
    code = np.arange(25 * 17)[:, None]
    kind, nd = code // 17, code % 17 + 1
    sci = kind >= 21
    point = np.where(sci, 0, kind - 4)      # the digit the point follows
    pos = np.arange(48)
    i = (pos - 8) // 2                      # digit i at 8 + 2i, its point at 9 + 2i
    body = (pos >= 8) & (pos <= 40)
    keep = (body & (pos % 2 == 0) & (i <= np.maximum(point, nd - 1))
            | body & (pos % 2 == 1) & (i == point) & (nd > point + 1)
            | (pos >= 1) & (pos < 2 - point) & (point < 0)          # 0. and the zeros
            | sci & (pos >= 41) & (pos <= 45) & ((pos != 43) | (kind % 2 == 0))
            | (pos == 46))
    keep = np.concatenate([keep, keep])
    keep[25 * 17:, 0] = True                                         # the minus sign
    return (group.reshape(-1, 8).view(np.uint64)[:, 0], tail.reshape(-1, 8).view(np.uint64)[:, 0],
            (keep * np.uint8(255)).reshape(-1, 8).view(np.uint64).reshape(-1, 6), trailing)


_GROUP, _TAIL, _MASKS, _TZ4 = _layout_tables()
_HEAD = np.frombuffer(b"-0.000\0\0", np.uint64)[0]
# kind * 17 of each exponent e at e - _E[0], for the layout code
_KIND = np.where((_E >= -4) & (_E < 17), _E + 4, 21 + 2 * (_E < 0) + (np.abs(_E) >= 100)) * 17
# the code of fixed notation 0.D, whose kept bytes 1, 2 and 8 hold inf and nan
_INF_NAN_CODE = 3 * 17


def _format_rows(block: np.ndarray) -> bytes:
    """The CSV lines of the float64 array `block` (rows, columns), each value
    the text of format(v, ".17g") byte for byte.

    The text is %g's: fixed notation for -4 <= e < 17, else d.ddde±XX with at
    least two exponent digits, with trailing zeros and a bare dot stripped.
    Each value's bytes are laid out once, in output order, in a 48-byte
    superset row of six words: "-0.000" and two pad bytes; its first 16
    digits each followed by a point ("d.d.d.d." per 4-digit group); then its
    17th digit, e, the exponent's sign and three digits, the separator and a
    pad byte.  The keep-mask of the value's layout code (sign * 25 + kind) *
    17 + nd - 1, kind e + 4 for fixed notation and 21 + 2 * (e < 0) + (|e|
    >= 100) for scientific, nd significant digits, zeroes the bytes that its
    text does not hold, and the zero bytes are dropped.
    """
    rows, cols = block.shape
    v = block.ravel()
    d, e = _decimal(v)
    e -= _E[0]
    q = d // 10 ** 9                # floor division by a constant beats %
    r = d - q * 10 ** 9
    g0, g2 = q // 10 ** 4, r // 10 ** 5
    r -= g2 * 10 ** 5
    g3 = r // 10
    g = (g0, q - g0 * 10 ** 4, g2, g3, r - g3 * 10)
    sep = np.zeros((cols, 8), np.uint8)
    sep[:, 6] = ord(",")
    sep[-1, 6] = ord("\n")
    words = np.empty((rows, cols, 6), np.uint64)
    words[:, :, 0] = _HEAD
    words[:, :, 5] = _TAIL[g[4] * len(_E) + e].reshape(rows, cols) | sep.view(np.uint64)[:, 0]
    words = words.reshape(len(v), 6)
    for j in range(4):
        words[:, j + 1] = _GROUP[g[j]]
    trailing = (g[4] == 0) * (1 + _TZ4[g[3]] + (g[3] == 0) * (
        _TZ4[g[2]] + (g[2] == 0) * (_TZ4[g[1]] + (g[1] == 0) * _TZ4[g[0]])))
    code = np.signbit(v) * (25 * 17) + _KIND[e] + np.maximum(16 - trailing, 0)
    text = words.view(np.uint8)
    for j in np.flatnonzero(~np.isfinite(v)):
        s = format(float(v[j]), ".17g")
        code[j] = (s[0] == "-") * (25 * 17) + _INF_NAN_CODE
        text[j, [1, 2, 8]] = np.frombuffer(s[-3:].encode(), np.uint8)
    words &= np.take(_MASKS, code, axis=0)
    return words.tobytes().translate(None, b"\0")


def _write_csv(path, header: str, columns) -> None:
    """Write `header` and one row per index of the equal-length 1-D arrays
    `columns`, each value as _fmt writes it, _CSV_BLOCK_ROWS rows at a time."""
    with open(path, "wb") as f:
        f.write(header.encode() + b"\n")
        for i in range(0, len(columns[0]), _CSV_BLOCK_ROWS):
            f.write(_format_rows(np.stack(
                [c[i:i + _CSV_BLOCK_ROWS] for c in columns], axis=-1, dtype=np.float64)))


def write_schedule(sched: PulseSchedule, path: str) -> Path:
    """Write the schedule CSV and its JSON sidecar; returns the sidecar path."""
    p = Path(path)
    side = p.with_suffix(".json")
    if side == p:
        raise OSError(f"{path}: a schedule path cannot be its own .json sidecar")
    text = json.dumps({        # first, so that a failure writes neither file
        "format_version": FORMAT_VERSION,
        "target": [sched.target.w, sched.target.x, sched.target.y, sched.target.z],
        "T": sched.duration,
        "N": sched.n_intervals,
        "k": sched.warp_order,
        "eta_bar": sched.eta_bar,
        "min_abs_z": sched.min_abs_z,
        "interpolation": sched.interpolation,
    }, indent=2, sort_keys=True) + "\n"
    _write_csv(p, "t,u1,u2", (sched.t, sched.u1, sched.u2))
    side.write_text(text)
    return side


def _fits(value, kind) -> bool:
    """isinstance(value, kind), except that JSON true and false are not numbers
    and a number must fit a float (compared, not converted, so NaN fails)."""
    return isinstance(value, kind) and not isinstance(value, bool) and (
        not isinstance(value, (int, float)) or abs(value) <= sys.float_info.max)


def read_schedule(path: str) -> PulseSchedule:
    """Read a schedule CSV and its sidecar, as the module docstring has them."""
    p = Path(path)
    text = p.read_text()
    # the file line of rows[0], past any blank lines that strip drops
    first = text[:len(text) - len(text.lstrip())].count("\n") + 1
    rows = text.strip().splitlines()
    if not rows or rows[0].strip() != "t,u1,u2":
        raise FlatGateError(f"{path}: expected header t,u1,u2")
    data = []
    for line, r in enumerate(rows[1:], first + 1):
        try:
            t, u1, u2 = map(float, r.split(","))
        except ValueError:
            raise FlatGateError(
                f"{path}: line {line}: rows must be three numbers t,u1,u2") from None
        data.append((t, u1, u2))
    if len(data) < 2:
        raise FlatGateError(f"{path}: schedule needs at least two t,u1,u2 rows")
    data = np.array(data)
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


def cmd_compare(args) -> int:
    target = resolve_gate(args)
    angles = zyz.euler_decompose(target)
    zsched = zyz.zyz_schedule(angles, args.T)
    zmax1, zmax2 = zsched.max_amplitudes()
    zfid = propagator.fidelity(propagator.propagate_piecewise_exact(zsched), target)

    try:
        fsched = planner.synthesize(target, args.T)
        fmax1, fmax2 = fsched.max_amplitudes()
        finals, _ = propagator.propagate_final_batch([fsched])
        ffid = propagator.fidelity(as_unit(finals[0]), target)
        flat_cols = (_fmt(fmax1), _fmt(fmax2), _fmt(ffid), "yes")
    except FlatGateError as exc:
        flat_cols = ("rejected", "rejected", f"rejected ({exc})", "-")

    print("method  max|u1|  max|u2|  fidelity  endpoint-zero")
    print(f"flat    {flat_cols[0]}  {flat_cols[1]}  {flat_cols[2]}  {flat_cols[3]}")
    print(f"zyz     {_fmt(zmax1)}  {_fmt(zmax2)}  {_fmt(zfid)}  no")
    print(f"zyz exact-propagation fidelity: {_fmt(zfid)}")
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
