"""Tiny-size smoke run of the benchmark.

    python3 bench/smoke.py

Runs every workload at --size tiny, untraced and traced, and asserts that
the last output line has exactly the result keys and that every metric
BENCHMARK.json names for that mode is emitted with its declared unit and a
finite value.  It then copies only BENCHMARK.json and bench/ into an empty
directory and asserts that the benchmark fails there without a result.
Takes about a minute.
"""
import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check(spec: dict, workload: str, trace: int) -> None:
    out = run(ROOT, workload, trace)
    assert out.returncode == 0, f"{workload} trace {trace}: exit {out.returncode}\n{out.stderr}"
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == RESULT_KEYS, sorted(result)
    assert result["correct"] is True, result
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]
    wanted = spec["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    assert set(got) == {m["name"] for m in wanted}, \
        sorted(set(got) ^ {m["name"] for m in wanted})
    for m in wanted:
        value = got[m["name"]]
        assert value["unit"] == m["unit"], (m["name"], value["unit"], m["unit"])
        assert isinstance(value["value"], (int, float)) and math.isfinite(value["value"]), \
            (m["name"], value)
    print(f"ok  {workload:10s} trace {trace}: {len(got)} metrics, "
          f"{result['failed']}/{result['attempted']} failed")


def check_without_sources() -> None:
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_work") as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH_DIR, bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        out = run(bare, "steer", 0)
    assert out.returncode != 0, "benchmark succeeded without the sources"
    assert not out.stdout.strip(), f"printed output without the sources: {out.stdout!r}"
    print(f"ok  without sources: exit {out.returncode}, no result")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    for w in spec["workloads"]:
        for trace in (0, 1):
            check(spec, w["name"], trace)
    check_without_sources()
    return 0


if __name__ == "__main__":
    sys.exit(main())
