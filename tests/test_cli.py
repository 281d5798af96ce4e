import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from oracles import per_value_csv, pow10_rows

from flatgate import cli, quat
from flatgate.cli import (_CSV_BLOCK_ROWS, MAX_SWEEP_STEPS, NAMED_GATES, build_parser,
                          main, read_schedule, resolve_gate, write_schedule,
                          write_trajectory)
from flatgate.planner import MAX_SAMPLES, synthesize
from flatgate.propagator import PropagationResult, fidelity, propagate
from flatgate.quat import E3, ONE, to_su2
from flatgate.schedule import PulseSchedule


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_plan_writes_schedule_and_sidecar(tmp_path, capsys):
    out = tmp_path / "plan.csv"
    code, stdout, _ = run(["plan", "--gate", "Z", "--T", "2", "--k", "1",
                           "--out", str(out)], capsys)
    assert code == 0
    assert "min |z|" in stdout and "theta(1)" in stdout
    assert "endpoint controls are exactly zero: True" in stdout
    assert out.exists() and out.with_suffix(".json").exists()
    man = json.loads(out.with_suffix(".json").read_text())
    assert man["format_version"] == 1
    assert man["target"] == [0.0, 0.0, 0.0, 1.0]
    assert man["T"] == 2.0 and man["k"] == 1
    assert man["interpolation"] == "cubic"
    rows = out.read_text().strip().splitlines()
    assert len(rows) == man["N"] + 2
    assert rows[1].split(",")[1:] == ["0", "0"]
    assert rows[-1].split(",")[1:] == ["0", "0"]


def test_plan_is_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run(["plan", "--gate", "H", "--T", "1.5", "--N", "256", "--out", str(a)], capsys)
    run(["plan", "--gate", "H", "--T", "1.5", "--N", "256", "--out", str(b)], capsys)
    assert a.read_bytes() == b.read_bytes()
    assert a.with_suffix(".json").read_text().replace(str(a), str(b)) \
        == b.with_suffix(".json").read_text()


def test_plan_identity_is_rejected(capsys, tmp_path):
    code, _, err = run(["plan", "--quat", "1,0,0,0",
                        "--out", str(tmp_path / "x.csv")], capsys)
    assert code == 1
    assert "identity" in err.lower()


def test_schedule_round_trip_preserves_propagation(tmp_path, capsys):
    planned = synthesize(E3, 2.0, 512, 1)
    for interpolation in ("cubic", "linear", "pconst"):
        sched = PulseSchedule(planned.duration, planned.u1, planned.u2, target=E3,
                              interpolation=interpolation)
        write_schedule(sched, str(tmp_path / "s.csv"))
        back = read_schedule(str(tmp_path / "s.csv"))
        assert back.interpolation == interpolation
        assert np.array_equal(back.t, sched.t)
        assert np.array_equal(back.u1, sched.u1)
        assert np.array_equal(back.u2, sched.u2)
        fa = propagate(sched, h=2.0 / 1024).final.as_array()
        fb = propagate(back, h=2.0 / 1024).final.as_array()
        assert np.array_equal(fa, fb)


def test_a_numpy_integer_warp_order_writes_a_readable_file_pair(tmp_path):
    # the schedule kept numpy's int64, which json cannot write: the CSV was
    # written, then the sidecar raised TypeError
    path = str(tmp_path / "s.csv")
    sched = synthesize(E3, 1.0, 512, np.int64(2))
    assert type(sched.warp_order) is int
    write_schedule(sched, path)
    back = read_schedule(path)
    assert back.warp_order == 2 and back.u1.tobytes() == sched.u1.tobytes()
    for bad in (True, np.True_, 2.0, np.float64(2.0)):
        with pytest.raises(ValueError, match="warp_order must be an integer"):
            PulseSchedule(1.0, sched.u1, sched.u2, target=E3, interpolation="cubic",
                          warp_order=bad)


def test_a_sidecar_that_cannot_be_written_writes_neither_file(tmp_path):
    sched = synthesize(E3, 1.0, 64, 1)
    object.__setattr__(sched, "eta_bar", object())      # past the intake
    with pytest.raises(TypeError):
        write_schedule(sched, str(tmp_path / "s.csv"))
    assert list(tmp_path.iterdir()) == []


def test_bulk_writer_matches_per_value_formatting(tmp_path, capsys):
    path = tmp_path / "traj.csv"
    # three write blocks, the last partial
    res = propagate(synthesize(E3, 2.0, 64, 1), h=2.0 / (2 * _CSV_BLOCK_ROWS + 5))
    write_trajectory(res, str(path))
    lines = path.read_bytes().splitlines(keepends=True)
    assert lines == per_value_csv("t,q0,q1,q2,q3", (res.t, *res.states.T))
    # the README session's trajectories: 8192 steps, one row past whole
    # blocks; X has components down to 1e-47, Y and minus-one zero columns
    smallest, zero_columns = {}, {}
    for gate in sorted(NAMED_GATES):
        assert run(["plan", "--gate", gate, "--T", "2", "--k", "1",
                    "--out", str(tmp_path / "fig1.csv")], capsys)[0] == 0
        res = propagate(read_schedule(str(tmp_path / "fig1.csv")), h=0.000244140625)
        assert len(res.t) % _CSV_BLOCK_ROWS == 1
        write_trajectory(res, str(path))
        lines = path.read_bytes().splitlines(keepends=True)
        assert lines == per_value_csv("t,q0,q1,q2,q3", (res.t, *res.states.T))
        smallest[gate] = np.min(np.abs(res.states[res.states != 0]))
        zero_columns[gate] = int(np.sum(np.all(res.states == 0, axis=0)))
    assert smallest["X"] < 1e-46
    assert zero_columns["Y"] == zero_columns["minus-one"] == 2
    edge = np.array([-0.0, 5e-324, 1e-300, 1e16, 1.0 / 3.0, -2.5e-310, 0.1, -1e300])
    cols = [np.roll(edge, i) for i in range(5)]
    write_trajectory(PropagationResult(ONE, cols[0], np.stack(cols[1:], axis=1), 0.0),
                     str(path))
    lines = path.read_bytes().splitlines(keepends=True)
    assert lines == per_value_csv("t,q0,q1,q2,q3", cols)


def test_pow10_table_equals_the_row_by_row_construction():
    got = cli._pow10_table()
    want = pow10_rows(cli._K_MIN, cli._K_MAX, cli._SPLIT)
    assert [(a.dtype, a.shape, a.tobytes()) for a in got] \
        == [(a.dtype, a.shape, a.tobytes()) for a in want]


def test_writer_peak_is_a_few_blocks_whatever_the_rows(tmp_path):
    # rows are formatted _CSV_BLOCK_ROWS at a time: the peak is a fixed
    # multiple of one block's values, the same at four times the rows
    rng = np.random.default_rng(5)
    peaks = []
    for rows in (8193, 32769):
        states = rng.standard_normal((rows, 4)) * 10.0 ** rng.integers(-40, 3, (rows, 4))
        res = PropagationResult(ONE, np.linspace(0.0, 2.0, rows), states, 0.0)
        tracemalloc.start()
        try:
            write_trajectory(res, str(tmp_path / "traj.csv"))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    block = 8 * 5 * _CSV_BLOCK_ROWS
    assert peaks[0] <= 48 * block
    assert peaks[1] <= peaks[0] + block


def test_simulate_reports_fidelity(tmp_path, capsys):
    out = tmp_path / "s.csv"
    run(["plan", "--gate", "Z", "--T", "2", "--N", "1024", "--out", str(out)], capsys)
    traj = tmp_path / "traj.csv"
    code, stdout, _ = run(["simulate", str(out), "--out", str(traj)], capsys)
    assert code == 0
    fid = float([l for l in stdout.splitlines() if "fidelity" in l][0].split()[-1])
    assert fid >= 1.0 - 1e-6
    lines = traj.read_text().strip().splitlines()
    assert lines[0] == "t,q0,q1,q2,q3"
    # a cubic file steps at its own spacing: N steps plus header and t=0 row
    assert len(lines) == 1024 + 2


def test_simulate_off_resonance_degrades(tmp_path, capsys):
    out = tmp_path / "s.csv"
    run(["plan", "--gate", "Z", "--T", "2", "--N", "1024", "--out", str(out)], capsys)
    code, stdout, _ = run(["simulate", str(out), "--delta-r", "0.5"], capsys)
    assert code == 0
    fid = float([l for l in stdout.splitlines() if "fidelity" in l][0].split()[-1])
    assert fid < 1.0 - 1e-4


def test_simulate_missing_file_is_io_error(tmp_path, capsys):
    code, _, err = run(["simulate", str(tmp_path / "nope.csv")], capsys)
    assert code == 2
    assert "i/o error" in err


def test_simulate_rejects_malformed_schedule(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("t,u1,u2\n0,0,0\n")
    bad.with_suffix(".json").write_text("{}")
    code, _, err = run(["simulate", str(bad)], capsys)
    assert code == 1
    bad.write_text("t,u1,u2\n0,0\n1,0\n")
    code, _, err = run(["simulate", str(bad)], capsys)
    assert code == 1 and "rows" in err
    bad.write_text("t,u1,u2\n0,0,0\n0.5,1,0\n1,0,0\n")
    bad.with_suffix(".json").write_text(
        '{"format_version": 1, "target": [0.0, 0.0, 0.0, 1.0], "interpolation": "cubic"}')
    code, _, err = run(["simulate", str(bad)], capsys)
    assert code == 1 and "four samples" in err
    bad.with_suffix(".json").write_text(
        '{"format_version": 1, "target": [0.0, 0.0, 0.0, 1.0], "interpolation": "spline"}')
    code, _, err = run(["simulate", str(bad)], capsys)
    assert code == 1 and "unknown interpolation 'spline'" in err


def test_simulate_rejects_non_finite_schedule_and_tiny_step(tmp_path, capsys):
    path = str(tmp_path / "s.csv")
    write_schedule(synthesize(E3, 2.0, 64, 1), path)
    code, _, err = run(["simulate", path, "--h", "1e-12", "--out",
                        str(tmp_path / "traj.csv")], capsys)
    assert code == 1 and "steps" in err
    rows = (tmp_path / "s.csv").read_text().splitlines()
    rows[3] = "nan,0,0"
    (tmp_path / "s.csv").write_text("\n".join(rows) + "\n")
    code, _, err = run(["simulate", path, "--out", str(tmp_path / "traj.csv")], capsys)
    assert code == 1 and "finite" in err


def test_compare_flat_vs_baseline(capsys):
    code, stdout, _ = run(["compare", "--gate", "Z", "--T", "2"], capsys)
    assert code == 0
    amp = 3.0 * (math.pi / 2) / 2.0
    assert format(amp, ".17g") in stdout          # baseline amplitude column
    flat_line = [l for l in stdout.splitlines() if l.startswith("flat")][0]
    peak = max(float(flat_line.split()[1]), float(flat_line.split()[2]))
    assert 1.1 <= peak <= 2.1


def test_compare_minus_one_has_constant_direction(capsys):
    code, stdout, _ = run(["compare", "--gate", "minus-one", "--T", "1"], capsys)
    assert code == 0
    flat_line = [l for l in stdout.splitlines() if l.startswith("flat")][0]
    assert float(flat_line.split()[1]) == 0.0     # u1 identically zero
    angles_line = [l for l in stdout.splitlines() if "angles" in l][0]
    vals = [float(v) for v in angles_line.split(":")[1].split()]
    assert vals[0] == 0.0
    assert vals[1] == pytest.approx(math.pi, abs=1e-12)
    assert abs(vals[2]) <= 1e-12


def test_compare_identity_reports_rejection(capsys):
    code, stdout, _ = run(["compare", "--quat", "1,0,0,0", "--T", "1"], capsys)
    assert code == 0
    flat_line = [l for l in stdout.splitlines() if l.startswith("flat")][0]
    assert "rejected" in flat_line
    zyz_line = [l for l in stdout.splitlines() if l.startswith("zyz ")][0]
    assert float(zyz_line.split()[1]) == 0.0 and float(zyz_line.split()[2]) == 0.0


@pytest.mark.parametrize("target", [["--gate", "H"], ["--quat", "0.5,-0.5,0.5,0.5"]])
def test_compare_propagates_the_held_baseline_once(target, capsys, monkeypatch):
    # the zyz baseline's fidelity is its exact product, propagated once; the
    # flat pulse alone takes a default-step propagation
    from flatgate import propagator
    calls = []
    for name in ("propagate_piecewise_exact", "propagate_final_batch"):
        def counted(scheds, *args, _f=getattr(propagator, name), _name=name, **kwargs):
            calls.append((_name, [s.interpolation for s in np.atleast_1d(scheds)]))
            return _f(scheds, *args, **kwargs)
        monkeypatch.setattr(propagator, name, counted)
    code, stdout, _ = run(["compare", *target, "--T", "2"], capsys)
    assert code == 0
    assert sorted(calls) == [("propagate_final_batch", ["cubic"]),
                             ("propagate_piecewise_exact", ["pconst"])]
    lines = stdout.splitlines()
    assert lines[0].split() == ["method", "max|u1|", "max|u2|", "fidelity", "endpoint-zero"]
    zyz_cell = [l for l in lines if l.startswith("zyz ")][0].split()[3]
    exact = [l for l in lines if l.startswith("zyz exact-propagation fidelity:")][0]
    assert zyz_cell == exact.split(":")[1].strip()


def test_sweep_single_point_matches_simulate(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code, _, _ = run(["sweep", "--gate", "Z", "--T", "2", "--N", "1024",
                      "--delta-r-min", "0", "--delta-r-max", "0",
                      "--steps", "1", "--out", str(out)], capsys)
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "delta_r,fidelity"
    dr, fid = lines[1].split(",")
    assert float(dr) == 0.0
    sched = synthesize(E3, 2.0, 1024, 1)
    expect = fidelity(propagate(sched).final, E3)
    assert float(fid) == pytest.approx(expect, abs=1e-14)


def test_sweep_rejects_empty_range(tmp_path, capsys):
    code, _, err = run(["sweep", "--gate", "Z", "--T", "2",
                        "--delta-r-min", "0", "--delta-r-max", "1",
                        "--steps", "0", "--out", str(tmp_path / "x.csv")], capsys)
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize("dr_min,extra", [("nan", []), ("0", ["--h", "nan"])])
def test_sweep_rejects_non_finite_detuning_and_step(tmp_path, capsys, dr_min, extra):
    code, _, err = run(["sweep", "--gate", "Z", "--T", "1", "--N", "256",
                        "--delta-r-min", dr_min, "--delta-r-max", "1",
                        "--steps", "3", "--out", str(tmp_path / "x.csv")] + extra,
                       capsys)
    assert code == 1 and "finite" in err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("flag", ["--delta-r", "--h"])
def test_simulate_rejects_non_finite_detuning_and_step(tmp_path, capsys, flag):
    path = str(tmp_path / "s.csv")
    write_schedule(synthesize(E3, 2.0, 64, 1), path)
    code, _, err = run(["simulate", path, flag, "nan"], capsys)
    assert code == 1 and "finite" in err and "unit quaternion" not in err


def test_named_gate_table():
    s = 1 / math.sqrt(2)
    assert NAMED_GATES["X"].as_array().tolist() == [0, 1, 0, 0]
    assert NAMED_GATES["Y"].as_array().tolist() == [0, 0, 1, 0]
    assert NAMED_GATES["Z"].as_array().tolist() == [0, 0, 0, 1]
    assert np.max(np.abs(NAMED_GATES["H"].as_array() - [0, s, 0, s])) <= 1e-15
    assert NAMED_GATES["minus-one"].as_array().tolist() == [-1, 0, 0, 0]


def test_resolve_gate_from_su2_entries():
    class Args:
        gate = None
        quat = None
        su2 = None
    u = to_su2(NAMED_GATES["H"]).m
    args = Args()
    args.su2 = ",".join(f"{v:.17g}" for pair in
                        ((e.real, e.imag) for e in u.flatten()) for v in pair)
    got = resolve_gate(args)
    assert np.max(np.abs(got.as_array() - NAMED_GATES["H"].as_array())) <= 1e-12


def test_resolve_gate_requires_exactly_one_spec(capsys, tmp_path):
    code, _, err = run(["plan", "--gate", "Z", "--quat", "0,0,0,1",
                        "--out", str(tmp_path / "x.csv")], capsys)
    assert code == 1


def test_plan_plans_once(tmp_path, capsys, monkeypatch):
    from flatgate import planner
    calls = []
    real = planner.plan_controls

    def counting(target):
        calls.append(target)
        return real(target)

    monkeypatch.setattr(planner, "plan_controls", counting)
    code, stdout, _ = run(["plan", "--gate", "H", "--N", "256",
                           "--out", str(tmp_path / "p.csv")], capsys)
    assert code == 0 and "theta(1)" in stdout
    assert len(calls) == 1


def test_plan_rejects_warp_order_above_bound(tmp_path, capsys):
    code, _, err = run(["plan", "--gate", "Z", "--k", "25",
                        "--out", str(tmp_path / "p.csv")], capsys)
    assert code == 1 and "warp order" in err


@pytest.mark.parametrize("argv,cap", [
    (["plan", "--gate", "Z", "--N", str(MAX_SAMPLES + 1)], MAX_SAMPLES),
    (["sweep", "--gate", "Z", "--delta-r-min", "0", "--delta-r-max", "1",
      "--steps", str(MAX_SWEEP_STEPS + 1)], MAX_SWEEP_STEPS),
], ids=["plan-N", "sweep-steps"])
def test_size_caps_exit_1_before_allocating(tmp_path, capsys, argv, cap):
    out = tmp_path / "x.csv"
    tracemalloc.start()
    try:
        code, _, err = run(argv + ["--out", str(out)], capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1 and "error: " in err and str(cap) in err
    assert not out.exists()
    # far below one array of the refused size (32 MB for plan)
    assert peak < 2 ** 20


@pytest.mark.parametrize("sidecar", [
    '{"format_version": 1, "interpolation": "linear", "k": 1, "eta_bar": 0.0, "min_abs_z": 1.0}',
    '[1, 2, 3]',
    '{"format_version": 1, "target": [0.0, 1.0], "interpolation": "linear", '
    '"k": 1, "eta_bar": 0.0, "min_abs_z": 1.0}',
    '{"format_version": 1,',
    '{"format_version": 1, "target": [0.0, 0.0, 0.0, 1.0], "k": 1, "eta_bar": 0.0, '
    '"min_abs_z": 1.0}',
    '{"format_version": 1, "target": [0.0, 0.0, 0.0, 1.0], "interpolation": 3, '
    '"k": 1, "eta_bar": 0.0, "min_abs_z": 1.0}',
    '{"format_version": 1, "target": [0.0, 0.0, 0.0, 1.0], "interpolation": "cubic", '
    '"k": "abc", "eta_bar": 0.0, "min_abs_z": 1.0}',
    '{"format_version": 1, "target": [0.0, 0.0, 0.0, 1.0], "interpolation": "cubic", '
    '"k": 1, "eta_bar": 0.0, "min_abs_z": [1]}',
    '{"format_version": 1, "target": [0.0, 0.0, 0.0, 1.0], "interpolation": "cubic", '
    '"k": 1, "eta_bar": {"x": 1}, "min_abs_z": 1.0}',
    '{"format_version": 1, "target": [0.0, 0.0, 0.0, 1.0], "interpolation": "cubic", '
    '"k": true, "eta_bar": 0.0, "min_abs_z": 1.0}',
    '{"format_version": true, "target": [0.0, 0.0, 0.0, 1.0], "interpolation": "cubic", '
    '"k": 1, "eta_bar": 0.0, "min_abs_z": 1.0}',
    # booleans would simulate against the identity
    '{"format_version": 1, "target": [true, false, false, false], "interpolation": "cubic", '
    '"k": 1, "eta_bar": 0.0, "min_abs_z": 1.0}',
    '{"format_version": 1, "target": [0.0, 0.0, 0.0, 1.0], "interpolation": "cubic", '
    '"T": 5.0, "N": 7, "k": 1, "eta_bar": 0.0, "min_abs_z": 1.0}',
    '{"format_version": 1, "target": [0.0, 0.0, 0.0, 1.0], "interpolation": "cubic", '
    '"T": 2.00000001, "N": 64, "k": 1, "eta_bar": 0.0, "min_abs_z": 1.0}',
    '{"format_version": 1, "target": [0.0, 0.0, 0.0, 1.0], "interpolation": "cubic", '
    '"T": 2.0, "N": 63, "k": 1, "eta_bar": 0.0, "min_abs_z": 1.0}',
    '{"format_version": 1, "target": [0.0, 0.0, 0.0, 1.0], "interpolation": "cubic", '
    '"T": "2", "N": 64, "k": 1, "eta_bar": 0.0, "min_abs_z": 1.0}',
    '{"format_version": 1, "target": [0.0, 0.0, 0.0, 1.0], "interpolation": "cubic", '
    '"T": 2.0, "N": 64.0, "k": 1, "eta_bar": 0.0, "min_abs_z": 1.0}',
    '{"format_version": 1, "target": [0.0, 0.0, 0.0, 1.0], "interpolation": "cubic", '
    '"T": 1e999, "k": 1, "eta_bar": 0.0, "min_abs_z": 1.0}',
    '{"format_version": 1, "target": [0.0, 0.0, 0.0, 1.0], "interpolation": "cubic", '
    '"T": 1' + '0' * 400 + '}',
    # numbers must fit a float: no huge integer, NaN or Infinity
    '{"format_version": 1, "target": [0.0, 0.0, 0.0, 1' + '0' * 400 + '], '
    '"interpolation": "cubic", "k": 1, "eta_bar": 0.0, "min_abs_z": 1.0}',
    '{"format_version": 1, "target": [NaN, 0.0, 0.0, 1.0], "interpolation": "cubic", '
    '"k": 1, "eta_bar": 0.0, "min_abs_z": 1.0}',
    '{"format_version": 1, "target": [0.0, 0.0, 0.0, 1.0], "interpolation": "cubic", '
    '"k": 1, "eta_bar": Infinity, "min_abs_z": 1.0}',
    '{"format_version": 1, "target": [0.0, 0.0, 0.0, 1.0], "interpolation": "cubic", '
    '"k": 1, "eta_bar": 0.0, "min_abs_z": -Infinity}',
    '[' * 100000 + ']' * 100000,
], ids=["no-target", "json-list", "short-target", "truncated", "no-interpolation",
        "numeric-interpolation", "string-k", "list-min-abs-z", "object-eta-bar", "bool-k",
        "bool-format-version", "bool-target", "edited-T-and-N", "edited-T", "edited-N",
        "string-T", "float-N", "infinite-T", "huge-integer-T", "huge-integer-target",
        "nan-target", "infinite-eta-bar", "infinite-min-abs-z", "deeply-nested"])
def test_simulate_malformed_sidecar_is_io_error(tmp_path, capsys, sidecar):
    path = tmp_path / "s.csv"
    write_schedule(synthesize(E3, 2.0, 64, 1), str(path))
    path.with_suffix(".json").write_text(sidecar)
    code, _, err = run(["simulate", str(path)], capsys)
    assert code == 2 and "i/o error" in err


def run_quiet(argv, capsys):
    """run, asserting that no RuntimeWarning escapes."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = run(argv, capsys)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    return result


@pytest.mark.parametrize("big_t", ["nan", "inf", "-inf", "1e-310"])
@pytest.mark.parametrize("command", ["plan", "compare", "sweep"])
def test_non_finite_duration_exits_1_without_warnings(tmp_path, capsys, command, big_t):
    # a subnormal T is refused the same way, before 1/T could overflow
    out = tmp_path / "x.csv"
    argv = [command, "--gate", "Z", f"--T={big_t}"]
    if command != "compare":
        argv += ["--out", str(out)]
    if command == "sweep":
        argv += ["--delta-r-min", "-1", "--delta-r-max", "1", "--steps", "3"]
    code, _, err = run_quiet(argv, capsys)
    assert code == 1 and "duration must be positive and finite" in err
    assert err.count("\n") == 1
    assert not out.exists()


def run_strict(argv, capsys):
    """run with every warning raised as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return run(argv, capsys)


@pytest.mark.parametrize("bounds", [("-1e308", "1e308"), ("-inf", "1"), ("0", "inf"),
                                    ("nan", "1")])
def test_sweep_refuses_unbounded_detuning_span(tmp_path, capsys, bounds):
    # a span that overflows (or is not a number) would make np.linspace warn
    out = tmp_path / "sweep.csv"
    code, _, err = run_strict(["sweep", "--gate", "Z", "--T", "2",
                               f"--delta-r-min={bounds[0]}", f"--delta-r-max={bounds[1]}",
                               "--steps", "41", "--out", str(out)], capsys)
    assert code == 1 and "finite detuning bounds" in err
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("entries", ["1e300,0,0,0,0,0,1e300,0", "inf,0,0,0,0,0,1,0",
                                     "0,inf,0,0,0,0,1,0", "nan,0,0,0,0,0,1,0"])
def test_su2_overflow_or_non_finite_exits_1_without_warnings(tmp_path, capsys, entries):
    out = tmp_path / "plan.csv"
    code, _, err = run_strict(["plan", "--su2", entries, "--out", str(out)], capsys)
    assert code == 1 and "not unitary" in err
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("spec, message", [
    (["--quat", "1,0,0"], "--quat needs w,x,y,z"),
    (["--su2", "0,0,1,0,-1,0,0"], "--su2 needs 8 reals"),
], ids=["quat-3", "su2-7"])
def test_a_gate_of_the_wrong_length_exits_1(tmp_path, capsys, spec, message):
    out = tmp_path / "plan.csv"
    code, _, err = run_strict(["plan", *spec, "--out", str(out)], capsys)
    assert code == 1 and message in err
    assert err.count("\n") == 1
    assert not out.exists()


def test_plan_refuses_an_output_that_is_its_own_sidecar(tmp_path, capsys):
    out = tmp_path / "z.json"
    code, _, err = run_strict(["plan", "--gate", "Z", "--out", str(out)], capsys)
    assert code == 2 and "i/o error" in err and "sidecar" in err
    assert err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("t, message", [
    # below T ~ 1e-9 an absolute tolerance let any increasing grid through
    (["0", "1e-12", "1e-10"], "uniform grid"),
    (["0", "0.2", "2"], "uniform grid"),
    (["0.5", "1.25", "2"], "start at 0"),
    (["inf", "1", "2"], "finite"),
    (["nan", "1", "2"], "finite"),
    (["0", "inf", "2"], "finite"),
    (["0", "nan", "2"], "finite"),
    (["0", "1", "inf"], "finite"),
    (["0", "1", "nan"], "finite"),
    (["0", "5e-311", "1e-310"], "duration must be positive and finite"),
], ids=["tiny-T", "non-uniform", "late-start", "inf-first", "nan-first", "inf-middle",
        "nan-middle", "inf-last", "nan-last", "subnormal-T"])
def test_simulate_refuses_a_bad_time_column(tmp_path, capsys, t, message):
    path = tmp_path / "s.csv"
    rows = [f"{ti},{u1},0" for ti, u1 in zip(t, ["0", "1e9", "2e9"])]
    path.write_text("t,u1,u2\n" + "\n".join(rows) + "\n")
    path.with_suffix(".json").write_text(json.dumps(
        {"format_version": 1, "target": [1.0, 0.0, 0.0, 0.0], "interpolation": "linear"}))
    traj = tmp_path / "traj.csv"
    code, _, err = run_strict(["simulate", str(path), "--out", str(traj)], capsys)
    assert code == 1 and message in err
    assert err.count("\n") == 1
    assert not traj.exists()


def edit_line(at: int, edit):
    """A CSV edit replacing file line `at` (from 1) by edit(line)."""
    def edited(text):
        lines = text.splitlines(keepends=True)
        lines[at - 1] = edit(lines[at - 1])
        return "".join(lines)
    return edited


@pytest.mark.parametrize("file, edit, message", [
    ("csv", lambda text: text.replace("t,u1,u2", "t,u,v", 1), "expected header t,u1,u2"),
    ("json", lambda text: json.dumps({**json.loads(text), "format_version": 2}),
     "unsupported format_version"),
    # a row of two cells, a blank row and a cell that is not a number are
    # named by their file line, so that a hand-edited file can be mended
    ("csv", edit_line(3, lambda line: line.rsplit(",", 1)[0] + "\n"),
     "s.csv: line 3: rows must be three numbers t,u1,u2"),
    ("csv", edit_line(4, lambda line: "\n" + line),
     "s.csv: line 4: rows must be three numbers t,u1,u2"),
    ("csv", edit_line(65, lambda line: line.replace(",", ",abc", 1)),
     "s.csv: line 65: rows must be three numbers t,u1,u2"),
    # blank lines before the header count too
    ("csv", lambda text: "\n\n" + text.replace("\n", "\n0,0,0,0\n", 1),
     "s.csv: line 4: rows must be three numbers t,u1,u2"),
    ("csv", lambda text: "".join(text.splitlines(keepends=True)[:2]),
     "s.csv: schedule needs at least two t,u1,u2 rows"),
], ids=["header", "format-version-2", "ragged-row", "blank-row", "non-numeric-row",
        "after-blank-lines", "one-row"])
def test_simulate_refuses_a_foreign_header_or_format_version(tmp_path, capsys, file, edit,
                                                             message):
    path = tmp_path / "s.csv"
    write_schedule(synthesize(E3, 2.0, 64, 1), str(path))
    edited = path.with_suffix("." + file)
    edited.write_text(edit(edited.read_text()))
    traj = tmp_path / "traj.csv"
    code, _, err = run_strict(["simulate", str(path), "--out", str(traj)], capsys)
    assert code == 1 and message in err
    assert err.count("\n") == 1
    assert not traj.exists()


def test_selftest_passes_every_suite(capsys):
    code, stdout, _ = run_strict(["selftest"], capsys)
    assert code == 0 and "6/6 suites passed" in stdout
    assert stdout.count("  PASS  ") == 6


def test_selftest_reports_a_suite_that_raises(capsys, monkeypatch):
    from flatgate import selftest

    def broken():
        raise RuntimeError("boom")

    monkeypatch.setattr(selftest, "_suite_zyz_exactness", broken)
    code, stdout, _ = run_strict(["selftest"], capsys)
    assert code == 1 and "5/6 suites passed" in stdout
    line, = [l for l in stdout.splitlines() if l.startswith("zyz-exactness")]
    assert "FAIL  raised RuntimeError: boom" in line


def test_control_overflow_exits_1_without_warnings_or_files(tmp_path, capsys):
    # at T = 1e-300 the controls are ~1e300, and |v|^2 overflows
    out = tmp_path / "sweep.csv"
    code, _, err = run_quiet(["sweep", "--gate", "Z", "--T", "1e-300",
                              "--delta-r-min", "-1", "--delta-r-max", "1",
                              "--steps", "3", "--out", str(out)], capsys)
    assert code == 1 and "overflow" in err
    assert not out.exists()
    path = tmp_path / "big.csv"
    code, _, _ = run_quiet(["plan", "--gate", "Z", "--T", "1e-300", "--out", str(path)], capsys)
    assert code == 0
    traj = tmp_path / "traj.csv"
    code, _, err = run_quiet(["simulate", str(path), "--out", str(traj)], capsys)
    assert code == 1 and "overflow" in err and "unit quaternion" not in err
    assert not traj.exists()
    # a huge step overflows h^3 in the flat pulse's RK4 steps, which compare
    # reports as a rejected row; the held baseline steps by exponentials of
    # angles h |u| <= pi, which cannot overflow, and stays exact
    code, out, _ = run_quiet(["compare", "--gate", "Z", "--T", "1e300"], capsys)
    assert code == 0
    flat, held = out.splitlines()[1:3]
    assert flat.startswith("flat ") and "rejected (" in flat and "overflow" in flat
    assert held.startswith("zyz ") and float(held.split()[3]) == 1.0


def test_parser_is_built_once_and_survives_an_argparse_error(tmp_path, capsys):
    assert build_parser() is build_parser()
    with pytest.raises(SystemExit) as info:
        main(["plan", "--gate", "Z", "--no-such-option"])
    assert info.value.code == 2
    with pytest.raises(SystemExit):
        main(["sweep", "--gate", "Z"])              # required options missing
    capsys.readouterr()
    out = tmp_path / "after.csv"
    code, stdout, _ = run(["plan", "--gate", "H", "--N", "128", "--out", str(out)], capsys)
    assert code == 0 and out.exists() and "wrote" in stdout
    args = build_parser().parse_args(["simulate", str(out)])
    assert args.h is None and args.delta_r == 0.0 and args.out is None
