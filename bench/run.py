"""flatgate benchmark: one closed-loop client, one process, one thread.

    python3 bench/run.py --workload {quickstart,steer,compile} --seed N \
        --seconds S --trace {0,1} [--size {full,tiny}]

Run from the repository root (or anywhere: paths resolve from this file).
The last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}; the lines before it say how
each metric was taken.  --trace 0 measures the end-to-end metrics; --trace 1
wraps the library's public functions and reports per-layer metrics instead.
See bench/NOTES.md for the workloads, the metrics and the seed baseline.
"""
import time

T_START = time.perf_counter()   # set-up time counts from here: imports included

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

# one BLAS thread: the benchmark is a single closed-loop client
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = ROOT / ".bench_work"
SETUP_PROBES = {"full": 4, "tiny": 1}   # extra set-ups in child processes
END_TO_END_UNITS = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "targets_per_s": "1/s",
    "terminal_err_tail": "norm",
    "peak_rss_mb": "MB",
}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=("quickstart", "steer", "compile"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: small pools for a smoke run")
    ap.add_argument("--setup-probe", action="store_true",
                    help="set up once, print the set-up time and exit")
    return ap.parse_args(argv)


def set_up(args, workdir: Path):
    """Import, generate the seeded inputs and run one warm-up operation."""
    import workloads
    wl = workloads.WORKLOADS[args.workload](args.seed, args.size == "tiny", workdir)
    wl.warm_up()
    return wl, time.perf_counter() - T_START


def probe_setup(args) -> float:
    """Time one complete set-up in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--setup-probe"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def run_rounds(wl, seconds: float, whole_passes: bool, tracer=None):
    """Closed loop over rounds until `seconds` of round time and at least one
    pass over the pool; with whole_passes, stop only at a pass boundary."""
    rounds = []
    busy = 0.0
    r = 0
    while True:
        if tracer is not None:
            tracer.op = r
        rnd = wl.run_round(r)
        rounds.append(rnd)
        busy += rnd.seconds
        r += 1
        if busy >= seconds and r >= wl.pass_rounds:
            if not whole_passes or r % wl.pass_rounds == 0:
                return rounds


def tail(values):
    """Highest percentile with at least ten samples beyond it: the eleventh
    largest value, with its percentile rank (the maximum, rank 100, when
    there are fewer than eleven samples)."""
    v = sorted(values)
    n = len(v)
    if n < 11:
        return v[-1], 100.0
    return v[n - 11], 100.0 * (n - 11) / (n - 1)


def summarize(rounds):
    attempted = sum(r.ops for r in rounds)
    failed = sum(r.failed for r in rounds)
    wrong = sum(r.wrong for r in rounds)
    errors = {}              # one entry per distinct pool target
    kinds: dict[str, int] = {}
    for r in rounds:
        errors.update(r.errors)
        for k, c in r.failures.items():
            kinds[k] = kinds.get(k, 0) + c
    return attempted, failed, wrong, errors, kinds


def error_budget(wl) -> dict:
    """err.* from public calls only: RK4 truncation |q_h - q_{h/2}|, the
    interpolation floor |q_{h/2} - target| and the returned norm drift."""
    import numpy as np
    from flatgate import propagator
    scheds, targets, h = wl.budget_cases()
    f_h, drift = propagator.propagate_final_batch(scheds, h=h)
    f_h2, _ = propagator.propagate_final_batch(scheds, h=h / 2)
    return {
        "err.rk4_trunc": (float(np.max(np.linalg.norm(f_h - f_h2, axis=1))), "norm"),
        "err.interp_floor": (float(np.max(np.linalg.norm(f_h2 - targets, axis=1))), "norm"),
        "err.norm_drift": (float(np.max(drift)), "norm"),
    }


def measure(args, wl):
    """Untraced run: the end-to-end metrics."""
    rounds = run_rounds(wl, args.seconds, whole_passes=False)
    attempted, failed, wrong, errors, kinds = summarize(rounds)
    lat_ms = [1e3 * r.seconds for r in rounds]
    tail_ms, tail_pct = tail(lat_ms)
    # 2 is the largest distance between unit quaternions
    err_tail, err_pct = tail(errors.values()) if errors else (2.0, 100.0)
    busy = sum(r.seconds for r in rounds)
    metrics = {
        "latency_p50_ms": statistics.median(lat_ms),
        "latency_tail_ms": tail_ms,
        "targets_per_s": attempted / busy,
        "terminal_err_tail": err_tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print(f"{len(rounds)} rounds of {rounds[0].ops} {wl.op_name}(s), "
          f"{busy:.2f} s of round time")
    print(f"latency_tail_ms is p{tail_pct:.1f} of {len(lat_ms)} rounds")
    print(f"terminal_err_tail is p{err_pct:.1f} of {len(errors)} distinct verified "
          f"targets; max_terminal_err {max(errors.values(), default=2.0)!r}")
    return attempted, failed, wrong, kinds, metrics


def measure_traced(args, wl, span_path: Path):
    """Traced run over half the time, then the same rounds untraced."""
    from tracing import Tracer
    tracer = Tracer()
    tracer.install()
    try:
        rounds = run_rounds(wl, args.seconds / 2, whole_passes=True, tracer=tracer)
    finally:
        tracer.uninstall()
    traced = sum(x.seconds for x in rounds)
    untraced = sum(wl.run_round(i).seconds for i in range(len(rounds)))
    attempted, failed, wrong, errors, kinds = summarize(rounds)
    passes = len(rounds) // wl.pass_rounds
    metrics = tracer.layer_metrics(attempted, passes)
    metrics.update(error_budget(wl))
    metrics["err.max_terminal"] = (max(errors.values(), default=2.0), "norm")
    metrics["trace.overhead_frac"] = (traced / untraced - 1.0, "1")
    metrics["failed_frac"] = (failed / attempted, "1")
    tracer.write_spans(span_path)
    print(f"traced {passes} pass(es) of {wl.pass_rounds} rounds ({attempted} "
          f"{wl.op_name}s) in {traced:.3f} s, untraced replay {untraced:.3f} s; "
          f"{len(tracer.spans)} spans written to {span_path.name}")
    print(f"self_s and .calls are per {wl.op_name}; work counts are per pass")
    return attempted, failed, wrong, kinds, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "flatgate" / "__init__.py").is_file():
        print(f"error: flatgate sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    WORK_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR))
    try:
        wl, setup_s = set_up(args, workdir)
        if args.setup_probe:
            print(repr(setup_s))
            return 0
        if args.trace:
            span_path = WORK_DIR / f"spans-{args.workload}-{args.seed}.csv"
            attempted, failed, wrong, kinds, metrics = measure_traced(args, wl, span_path)
        else:
            setups = [setup_s] + [probe_setup(args) for _ in range(SETUP_PROBES[args.size])]
            attempted, failed, wrong, kinds, values = measure(args, wl)
            values["setup_s"] = statistics.median(setups)
            print(f"setup_s is the median of {len(setups)} set-ups: "
                  + " ".join(f"{s:.4f}" for s in setups))
            metrics = {k: (values[k], u) for k, u in END_TO_END_UNITS.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"failed_frac {failed / attempted!r} ({failed} of {attempted} {wl.op_name}s)"
          + "".join(f"; {k}: {c}" for k, c in sorted(kinds.items())))
    result = {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
