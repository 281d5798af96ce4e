"""Span tracer that wraps flatgate's public callables from outside the package.

Nothing under src/ is edited: `Tracer.install` replaces every binding of a
public module-level function (including names another module imported with
`from .x import y`, such as the planner's `unwrap_phase`) with a wrapper that
records a span, and `Tracer.uninstall` puts the originals back.  Spans are kept
in memory as (op, name, start, end, parent) and written out once at the end.

Work counts are computed here from call arguments and results, never read
from the library: propagation steps as batch size times round(T / h), file
bytes from the sizes of the files a CLI call wrote or read.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from collections import defaultdict
from pathlib import Path

from flatgate import propagator
from flatgate.errors import FlatGateError

MODULES = ("quat", "flat", "planner", "schedule", "zyz", "propagator", "cli")

# Class-level callables traced besides module functions: (module, class,
# attribute, span name).  A dataclass constructor is traced through __init__.
CLASS_CALLABLES = (
    ("planner", "CubicPair", "from_decomposition", "planner.CubicPair.from_decomposition"),
    ("schedule", "PulseSchedule", "__init__", "schedule.PulseSchedule"),
)

PROPAGATION_SPANS = ("propagator.propagate", "propagator.propagate_final_batch",
                     "propagator.detuning_sweep")

# Spans whose self time (SELF_TIME_SPANS) or call count (CALL_COUNT_SPANS)
# a traced run reports per operation.
SELF_TIME_SPANS = (
    "planner.decompose_target",
    "planner.CubicPair.from_decomposition",
    "planner.check_alpha_monotone",
    "planner.controls_in_s",
    "planner.smoothstep",
    "planner.synthesize",
    "flat.unwrap_phase",
    "schedule.PulseSchedule",
    "propagator.propagate",
    "propagator.propagate_final_batch",
    "propagator.detuning_sweep",
    "propagator.propagate_piecewise_exact",
    "zyz.euler_decompose",
    "zyz.zyz_schedule",
    "cli.main",
    "cli.write_schedule",
    "cli.read_schedule",
    "cli.write_trajectory",
)
CALL_COUNT_SPANS = (
    "planner.plan_controls",
    "schedule.PulseSchedule",
    "quat.mul",
    "quat.exp_pure",
)


def _steps(sched, h) -> int:
    """Step count the propagator takes for one schedule: round(T / h)."""
    big_t = float(sched.t[-1])
    if h is None:
        h = big_t / propagator.DEFAULT_STEP_DIVISOR
    return max(1, round(big_t / h))


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _after_propagate(tr, args, kwargs, out):
    tr.counts["propagator.system_steps"] += len(out.t) - 1
    tr.max_norm_drift = max(tr.max_norm_drift, float(out.max_norm_drift))


def _after_final_batch(tr, args, kwargs, out):
    scheds = args[0]
    tr.counts["propagator.system_steps"] += len(scheds) * _steps(
        scheds[0], _arg(args, kwargs, 2, "h"))
    drifts = out[1]
    if len(drifts):
        tr.max_norm_drift = max(tr.max_norm_drift, float(max(drifts)))


def _after_sweep(tr, args, kwargs, out):
    tr.counts["propagator.system_steps"] += len(out.delta_r) * _steps(
        args[0], _arg(args, kwargs, 3, "h"))


def _after_write_schedule(tr, args, kwargs, out):
    tr.counts["cli.bytes_written"] += os.path.getsize(args[1]) + os.path.getsize(out)


def _after_read_schedule(tr, args, kwargs, out):
    p = Path(args[0])
    tr.counts["cli.bytes_read"] += os.path.getsize(p) + os.path.getsize(p.with_suffix(".json"))


def _after_write_trajectory(tr, args, kwargs, out):
    tr.counts["cli.bytes_written"] += os.path.getsize(args[1])


def _after_cmd_sweep(tr, args, kwargs, out):
    # cmd_sweep writes its CSV directly rather than through a helper
    tr.counts["cli.bytes_written"] += os.path.getsize(args[0].out)


AFTER = {
    "propagator.propagate": _after_propagate,
    "propagator.propagate_final_batch": _after_final_batch,
    "propagator.detuning_sweep": _after_sweep,
    "cli.write_schedule": _after_write_schedule,
    "cli.read_schedule": _after_read_schedule,
    "cli.write_trajectory": _after_write_trajectory,
    "cli.cmd_sweep": _after_cmd_sweep,
}


class Tracer:
    """Owns the spans, counters and the patched bindings of one traced run."""

    def __init__(self):
        self.spans: list = []
        self.op = 0
        self.counts: dict[str, int] = defaultdict(int)
        self.max_norm_drift = 0.0
        self._stack: list[int] = []
        self._restore: list = []
        self._t0 = time.perf_counter()

    def _wrap(self, name: str, fn):
        tracer = self
        after = AFTER.get(name)
        rejects = name == "planner.plan_controls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            idx = len(tracer.spans)
            tracer.spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except FlatGateError:
                if rejects:
                    tracer.counts["planner.rejected"] += 1
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans[idx] = (tracer.op, name, start, end, parent)
            if after is not None:
                after(tracer, args, kwargs, out)
            return out

        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every public function of MODULES plus CLASS_CALLABLES."""
        mods = {m: importlib.import_module(f"flatgate.{m}") for m in MODULES}
        wrapped = {}
        for short, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrapped[obj] = self._wrap(f"{short}.{attr}", obj)
        # rebind in every namespace that holds the original, so that calls
        # through `from .flat import unwrap_phase` are traced too
        for mod in (importlib.import_module("flatgate"), *mods.values()):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patch(mod, attr, wrapped[obj])
        for short, cls_name, attr, span in CLASS_CALLABLES:
            cls = getattr(mods[short], cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                self._patch(cls, attr, classmethod(self._wrap(span, raw.__func__)))
            else:
                self._patch(cls, attr, self._wrap(span, raw))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Per span name: total self time (duration minus the time covered
        by direct children) and call count."""
        child = [0.0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for i, (_, name, start, end, _) in enumerate(self.spans):
            self_s[name] += (end - start) - child[i]
            calls[name] += 1
        return self_s, calls

    def layer_metrics(self, ops: int, passes: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics: self time and calls per operation; work counts
        per pass over the input pool, exact integers because every pass
        repeats the same inputs."""
        self_s, calls = self.self_times()
        busy = sum(self_s.get(n, 0.0) for n in PROPAGATION_SPANS)
        steps = self.counts["propagator.system_steps"]

        def per_pass(total: int):
            return total // passes if total % passes == 0 else total / passes

        out: dict[str, tuple[float, str]] = {}
        for name in SELF_TIME_SPANS:
            out[f"{name}.self_s"] = (self_s.get(name, 0.0) / ops, "s/op")
        for name in CALL_COUNT_SPANS:
            out[f"{name}.calls"] = (calls.get(name, 0) / ops, "count/op")
        out["planner.rejected"] = (per_pass(self.counts["planner.rejected"]), "count/pass")
        out["propagator.system_steps"] = (per_pass(steps), "count/pass")
        out["propagator.steps_per_s"] = (steps / busy if busy > 0 else 0.0, "1/s")
        out["propagator.max_norm_drift"] = (self.max_norm_drift, "norm")
        out["cli.bytes_written"] = (per_pass(self.counts["cli.bytes_written"]), "B/pass")
        out["cli.bytes_read"] = (per_pass(self.counts["cli.bytes_read"]), "B/pass")
        return out

    def write_spans(self, path) -> None:
        """One line per span: op,parent,name,start_s,end_s (relative)."""
        t0 = self._t0
        with open(path, "w") as fh:
            fh.write("op,parent,name,start_s,end_s\n")
            for op, name, start, end, parent in self.spans:
                fh.write(f"{op},{parent},{name},{start - t0:.9f},{end - t0:.9f}\n")
