"""The three benchmark workloads.

Each workload turns a seed into a fixed pool of inputs and then runs closed-
loop rounds over that pool, one at a time, cycling through it.  A round
returns its own wall time and the outcome of every operation in it.  The
per-plan checks and the RK4 verification of steer and compile are timed, as
part of the workload; the file checks of quickstart are not.

The library is reached only through module attributes (`planner.synthesize`,
never `from flatgate.planner import synthesize`), so that a traced run sees
every call.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from flatgate import cli, planner, propagator, quat
from flatgate.errors import FlatGateError, IdentityTarget

GATE_TOL = 1e-6          # |q(T) - target| every verified target must meet
MIN_DISTANCE = 1e-3      # steer targets: distance from the identity

# Named-gate representatives as the README documents them; the benchmark
# checks the CLI against these, not against the CLI's own table.
SQ2 = 1.0 / math.sqrt(2.0)
NAMED_TARGETS = {
    "X": np.array([0.0, 1.0, 0.0, 0.0]),
    "Y": np.array([0.0, 0.0, 1.0, 0.0]),
    "Z": np.array([0.0, 0.0, 0.0, 1.0]),
    "H": np.array([0.0, SQ2, 0.0, SQ2]),
    "minus-one": np.array([-1.0, 0.0, 0.0, 0.0]),
}
QUICKSTART_T = 2.0
QUICKSTART_N = 8192


@dataclass
class Round:
    """Outcome of one closed-loop round."""

    seconds: float
    ops: int
    failed: int = 0
    wrong: int = 0                  # silent wrong outputs (not exceptions)
    errors: dict = field(default_factory=dict)   # pool key -> |q(T) - target|
    failures: dict = field(default_factory=dict)  # label -> count

    def fail(self, label: str, wrong: bool = False) -> None:
        self.failed += 1
        self.wrong += int(wrong)
        self.failures[label] = self.failures.get(label, 0) + 1


def haar_targets(rng: np.random.Generator, count: int) -> np.ndarray:
    """Uniform random unit quaternions at distance > MIN_DISTANCE from 1."""
    out = np.empty((count, 4))
    i = 0
    while i < count:
        v = quat.random_unit(rng)
        if np.linalg.norm(v - [1.0, 0.0, 0.0, 0.0]) > MIN_DISTANCE:
            out[i] = v
            i += 1
    return out


def expected_rejection(exc: Exception, target: np.ndarray) -> bool:
    """IdentityTarget on a target within the planner's own identity
    tolerance (read at run time) is a correct answer, not a failure."""
    return (isinstance(exc, IdentityTarget)
            and np.linalg.norm(target - [1.0, 0.0, 0.0, 0.0]) <= planner.IDENTITY_TOL)


def _failure_label(exc: Exception, cls: str) -> str:
    return f"{type(exc).__name__} ({cls})"


def _gate(rnd: Round, key, label: str, err: float) -> None:
    """Apply the 1e-6 gate to one verified terminal error."""
    if not math.isfinite(err):
        rnd.fail(f"non-finite state ({label})", wrong=True)
    elif err > GATE_TOL:
        rnd.fail(f"gate miss ({label})", wrong=True)
    else:
        rnd.errors[key] = err


class Quickstart:
    """README CLI sessions: plan, simulate, compare, sweep for one gate."""

    name = "quickstart"
    op_name = "session"

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        rng = np.random.default_rng(seed)
        names = sorted(NAMED_TARGETS)
        self.order = [names[i] for i in rng.permutation(len(names))]
        self.workdir = workdir
        self.digests: dict[str, dict[str, str]] = {}
        self.pass_rounds = len(self.order)

    def warm_up(self) -> None:
        self.run_round(0)

    def _session(self, gate: str) -> tuple[list[int], dict[str, Path]]:
        d = self.workdir
        files = {"schedule": d / f"{gate}.csv", "sidecar": d / f"{gate}.json",
                 "trajectory": d / f"{gate}-traj.csv", "sweep": d / f"{gate}-sweep.csv"}
        h = QUICKSTART_T / QUICKSTART_N
        t = str(QUICKSTART_T)
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            codes = [
                cli.main(["plan", "--gate", gate, "--T", t, "--k", "1",
                          "--out", str(files["schedule"])]),
                cli.main(["simulate", str(files["schedule"]), "--h", repr(h),
                          "--out", str(files["trajectory"])]),
                cli.main(["compare", "--gate", gate, "--T", t]),
                cli.main(["sweep", "--gate", gate, "--T", t, "--delta-r-min", "-1",
                          "--delta-r-max", "1", "--steps", "41",
                          "--out", str(files["sweep"])]),
            ]
        return codes, files

    def run_round(self, r: int) -> Round:
        gate = self.order[r % len(self.order)]
        t0 = time.perf_counter()
        try:
            codes, files = self._session(gate)
        except Exception as exc:       # a traceback out of cli.main is a failure
            rnd = Round(time.perf_counter() - t0, 1)
            rnd.fail(_failure_label(exc, gate))
            return rnd
        rnd = Round(time.perf_counter() - t0, 1)
        if any(c != 0 for c in codes):
            rnd.fail(f"exit codes {codes} ({gate})")
            return rnd
        digests = {k: hashlib.sha256(p.read_bytes()).hexdigest() for k, p in files.items()}
        ref = self.digests.setdefault(gate, digests)
        if digests != ref:
            changed = sorted(k for k in digests if digests[k] != ref[k])
            rnd.fail(f"files differ from the first session: {changed} ({gate})", wrong=True)
            return rnd
        last = files["trajectory"].read_text().rstrip("\n").rsplit("\n", 1)[-1]
        q_end = np.array([float(v) for v in last.split(",")[1:]])
        _gate(rnd, gate, gate, float(np.linalg.norm(q_end - NAMED_TARGETS[gate])))
        return rnd

    def budget_cases(self):
        """The quickstart plans of all named gates, at the simulate step."""
        targets = np.array([NAMED_TARGETS[g] for g in self.order])
        scheds = [planner.synthesize(quat.as_unit(q), QUICKSTART_T, QUICKSTART_N, 1)
                  for q in targets]
        return scheds, targets, QUICKSTART_T / QUICKSTART_N


class _TargetWorkload:
    """Steer and compile: plan every target of a round with the cheap checks
    (finite controls, exactly-zero endpoints, min |z| > 0), then RK4-verify
    the marked ones in one batch.  Subclasses fill the pool: targets (rows),
    units, labels, verify flags, clock orders ks, plus n, block and
    pass_rounds."""

    op_name = "target"
    h = 1.0 / 8192

    def warm_up(self) -> None:
        i = self.labels.index("haar")
        sched = planner.synthesize(self.units[i], 1.0, self.n, self.ks[i])
        propagator.propagate_final_batch([sched], h=self.h)

    def run_round(self, r: int) -> Round:
        lo = (r % self.pass_rounds) * self.block
        rnd = Round(0.0, self.block)
        t0 = time.perf_counter()
        scheds, keep = [], []
        for i in range(lo, lo + self.block):
            label = self.labels[i]
            try:
                s = planner.synthesize(self.units[i], 1.0, self.n, self.ks[i])
            except Exception as exc:
                if not expected_rejection(exc, self.targets[i]):
                    rnd.fail(_failure_label(exc, label))
                continue
            if not (np.all(np.isfinite(s.u1)) and np.all(np.isfinite(s.u2))):
                rnd.fail(f"non-finite controls ({label})", wrong=True)
            elif not (s.u1[0] == 0.0 and s.u2[0] == 0.0 and s.u1[-1] == 0.0
                      and s.u2[-1] == 0.0):
                rnd.fail(f"nonzero endpoint control ({label})", wrong=True)
            elif not (s.min_abs_z is not None and s.min_abs_z > 0.0):
                rnd.fail(f"min_abs_z not positive ({label})", wrong=True)
            elif self.verify[i]:
                scheds.append(s)
                keep.append(i)
        try:
            # propagate_final_batch rejects an empty batch
            finals = propagator.propagate_final_batch(scheds, h=self.h)[0] if scheds else []
        except Exception as exc:
            for i in keep:
                rnd.fail(_failure_label(exc, self.labels[i] + " batch"))
            finals = []
        for i, q in zip(keep, finals):
            _gate(rnd, i, self.labels[i], float(np.linalg.norm(q - self.targets[i])))
        rnd.seconds = time.perf_counter() - t0
        return rnd

    def budget_cases(self):
        """The verified targets of the first round that plan."""
        scheds, rows = [], []
        for i in range(self.block):
            if self.verify[i]:
                try:
                    scheds.append(planner.synthesize(self.units[i], 1.0, self.n, self.ks[i]))
                except FlatGateError:
                    continue
                rows.append(self.targets[i])
        return scheds, np.array(rows), self.h


class Steer(_TargetWorkload):
    """Criterion-3 shape: Haar targets planned at n = 4096, all verified."""

    name = "steer"
    n = 4096

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        rng = np.random.default_rng(seed)
        self.block = 4 if tiny else 64
        self.pass_rounds = 2 if tiny else 16
        size = self.block * self.pass_rounds
        self.targets = haar_targets(rng, size)
        self.units = [quat.as_unit(v) for v in self.targets]
        self.labels = ["haar"] * size
        self.verify = [True] * size
        self.ks = [1] * size


def edge_targets() -> tuple[np.ndarray, list[str]]:
    """The fixed edge set: 16 targets at the limits of the planner's domain."""
    rows, labels = [], []
    for th in (1e-9, 1e-7, 1e-5, 1e-3, 1e-1):
        rows.append([math.cos(th), 0.0, 0.0, math.sin(th)])
        labels.append(f"near-identity {th:.0e}")
    for th in (1e-9, 1e-7, 1e-5, 1e-3, 1e-1):
        rows.append([-math.cos(th), 0.0, 0.0, -math.sin(th)])
        labels.append(f"near-minus-one {th:.0e}")
    for axis, name in ((1, "e1"), (3, "e3")):
        for phi in (math.pi / 3, math.pi / 2, 2 * math.pi / 3):
            v = [math.cos(phi), 0.0, 0.0, 0.0]
            v[axis] = math.sin(phi)
            rows.append(v)
            labels.append(f"gimbal {name} {phi:.4f}")
    return np.array(rows), labels


class Compile(_TargetWorkload):
    """Plan-heavy: targets planned at the default sample count with k cycling
    over 1..3; a seeded 1/16 of the Haar targets plus every edge target is
    RK4-verified."""

    name = "compile"

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        rng = np.random.default_rng(seed)
        self.n = planner.DEFAULT_SAMPLES
        edges, edge_labels = edge_targets()
        self.block = 32 if tiny else 256
        self.pass_rounds = 1 if tiny else 4
        n_edge = len(edges) if not tiny else 2
        n_rand = self.block - n_edge
        n_check = max(1, n_rand // 16)
        targets, labels, verify = [], [], []
        for _ in range(self.pass_rounds):
            rand = haar_targets(rng, n_rand)
            picked = set(rng.choice(n_rand, size=n_check, replace=False).tolist())
            block = [(q, "haar", j in picked) for j, q in enumerate(rand)]
            # spread the edge targets evenly through the block
            for e in range(n_edge):
                block.insert(e * (self.block // n_edge), (edges[e], edge_labels[e], True))
            for q, label, check in block:
                targets.append(q)
                labels.append(label)
                verify.append(check)
        self.targets = np.array(targets)
        self.units = [quat.as_unit(v) for v in self.targets]
        self.labels = labels
        self.verify = verify
        self.ks = [1 + i % 3 for i in range(len(targets))]


WORKLOADS = {w.name: w for w in (Quickstart, Steer, Compile)}
