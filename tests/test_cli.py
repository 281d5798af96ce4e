import json
import math

import numpy as np
import pytest

from flatgate import quat
from flatgate.cli import main, read_schedule, resolve_gate, write_schedule, NAMED_GATES
from flatgate.planner import synthesize
from flatgate.propagator import fidelity, propagate
from flatgate.quat import E3, to_su2


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
    assert man["interpolation"] == "linear"
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
    sched = synthesize(E3, 2.0, 512, 1)
    write_schedule(sched, str(tmp_path / "s.csv"))
    back = read_schedule(str(tmp_path / "s.csv"))
    assert np.array_equal(back.t, sched.t)
    assert np.array_equal(back.u1, sched.u1)
    assert np.array_equal(back.u2, sched.u2)
    fa = propagate(sched, h=2.0 / 1024).final.as_array()
    fb = propagate(back, h=2.0 / 1024).final.as_array()
    assert np.array_equal(fa, fb)


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
    assert len(lines) == 8194  # default step T/8192 plus header and t=0 row


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


@pytest.mark.parametrize("sidecar", [
    '{"format_version": 1, "interpolation": "linear", "k": 1, "eta_bar": 0.0, "min_abs_z": 1.0}',
    '[1, 2, 3]',
    '{"format_version": 1, "target": [0.0, 1.0], "interpolation": "linear", '
    '"k": 1, "eta_bar": 0.0, "min_abs_z": 1.0}',
    '{"format_version": 1,',
], ids=["no-target", "json-list", "short-target", "truncated"])
def test_simulate_malformed_sidecar_is_io_error(tmp_path, capsys, sidecar):
    path = tmp_path / "s.csv"
    write_schedule(synthesize(E3, 2.0, 64, 1), str(path))
    path.with_suffix(".json").write_text(sidecar)
    code, _, err = run(["simulate", str(path)], capsys)
    assert code == 2 and "i/o error" in err
