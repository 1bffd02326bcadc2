"""Span recorder that times kinostable's layers from outside the package.

``Recorder.install`` replaces each public function named in ``SPANS`` with a
timing wrapper, under every name its callers look it up by: the modules use
``from .x import y``, so ``kinostable.tracker.optimal`` and
``kinostable.solvers.optimal`` are both patched.  Methods and the per-frame
validation (``Frame.__post_init__``) are patched on their class.
``uninstall`` puts every original back.  Nothing is installed unless a
traced run asks for it.

Every span carries its thread id.  Spans stay in memory (compact arrays per
thread) and are written once, by ``write``, when the run ends.

Self time is a span's duration minus the part of it its child spans cover.
Children on the same thread nest, so their durations add up.  The claim
suite fans work out to a thread pool; a span that starts on a pool thread
with nothing open there is a child of the span open on the main thread at
that moment, and the union of those children's intervals is subtracted.
Work that runs in parallel therefore counts once per thread, and the excess
over wall time is reported as ``parallel_excess_s``.  On the main thread,
summed self time + time outside any span - parallel excess = wall time.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from array import array

import numpy as np


def _points_in(args, kwargs, result, pre):
    return len(args[0])


def _frame_points(args, kwargs, result, pre):
    return len(args[0].points)


def _evals(args, kwargs, result, pre):
    return len(args[0]) * np.size(args[2])


def _tell(args):
    try:
        return args[0].tell()
    except (AttributeError, OSError, ValueError):
        return None


def _bytes(args, kwargs, result, pre):
    end = _tell(args)
    return 0 if pre is None or end is None else end - pre


def _tracker_counts(result, counters):
    counters["tracker.samples"] = counters.get("tracker.samples", 0) + len(result.times)
    counters["tracker.flips"] = counters.get("tracker.flips", 0) + len(result.flips)


def _chase_counts(result, counters):
    counters["chasing.samples"] = counters.get("chasing.samples", 0) + len(result.times)


# (span name, module under kinostable, attribute path, quantity name,
#  quantity before the call, quantity after the call, result counters)
SPANS = (
    ("trajectory.frame_at", "trajectory", "Trajectory.frame_at", None, None, None, None),
    ("trajectory.positions_at", "trajectory", "Trajectory.positions_at", None, None, None, None),
    ("geometry.Frame", "geometry", "Frame.__post_init__", "points_in", None, _frame_points, None),
    ("geometry.convex_hull", "geometry", "convex_hull", "points_in", None, _points_in, None),
    ("geometry.diametric_box", "geometry", "diametric_box", "points_in", None, _points_in, None),
    ("geometry.frame_diameter", "geometry", "frame_diameter", "points_in", None, _points_in, None),
    ("costs.costs_at", "costs", "costs_at", "evals", None, _evals, None),
    ("costs.cost", "costs", "cost", None, None, None, None),
    ("solvers.optimal", "solvers", "optimal", None, None, None, None),
    ("solvers.optimal_box_and_strip", "solvers", "optimal_box_and_strip", None, None, None, None),
    ("solvers.hull_edge_orientations", "solvers", "hull_edge_orientations", None, None, None, None),
    ("tracker.track_topological", "tracker", "track_topological",
     None, None, None, _tracker_counts),
    ("chasing.normalize_trajectory", "chasing", "normalize_trajectory", None, None, None, None),
    ("chasing.chase", "chasing", "chase", None, None, None, _chase_counts),
    ("runio.read_trajectory", "runio", "read_trajectory", "bytes", _tell, _bytes, None),
    ("runio.write_tracker_csv", "runio", "write_tracker_csv", "bytes", _tell, _bytes, None),
    ("runio.write_chase_csv", "runio", "write_chase_csv", "bytes", _tell, _bytes, None),
    ("runio.read_run_csv", "runio", "read_run_csv", "bytes", _tell, _bytes, None),
    ("cli.main", "cli", "main", None, None, None, None),
    ("scenarios.build_scenario", "scenarios", "build_scenario", None, None, None, None),
    ("verify.run_claim_suite", "verify", "run_claim_suite", None, None, None, None),
    ("verify.verify_obb_program", "verify", "verify_obb_program", None, None, None, None),
    ("verify.verify_trig_bounds", "verify", "verify_trig_bounds", None, None, None, None),
    ("verify.verify_bound_empirics", "verify", "verify_bound_empirics", None, None, None, None),
    ("verify.forced_orientation_winding", "verify", "forced_orientation_winding",
     None, None, None, None),
    ("verify.measured_axis_speed", "verify", "measured_axis_speed", None, None, None, None),
    ("verify.min_anchor_diameter", "verify", "min_anchor_diameter", None, None, None, None),
    ("verify.chase_suite", "verify", "chase_suite", None, None, None, None),
    ("verify._parallel_map", "verify", "_parallel_map", None, None, None, None),
)

# The thread-pool map has no claim of its own: called from the suite body
# it is the walk-flip stage; called from chase_suite it is part of that stage.
_FANOUT = "verify._parallel_map"
_FANOUT_STAGE = {
    "verify.run_claim_suite": "verify.walk_flips",
    "verify.chase_suite": "verify.chase_suite",
}

# Input generation runs in set-up, so this span is read from the traced
# re-run of set-up; every other span from the traced timed part.
SETUP_SPANS = frozenset({"scenarios.build_scenario"})

VERIFY_STAGES = (
    "verify.run_claim_suite",
    "verify.verify_obb_program",
    "verify.verify_trig_bounds",
    "verify.verify_bound_empirics",
    "verify.forced_orientation_winding",
    "verify.measured_axis_speed",
    "verify.min_anchor_diameter",
    "verify.chase_suite",
    "verify.walk_flips",
)


def layer_metric_names() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better)."""
    out = []
    for name, _, _, qty, _, _, _ in SPANS:
        if name == _FANOUT or name.startswith("verify."):
            continue
        out.append((f"{name}.calls", "count", "lower"))
        out.append((f"{name}.self_s", "s", "lower"))
        if qty is not None:
            out.append((f"{name}.{qty}", "bytes" if qty == "bytes" else "count", "lower"))
        if name == "tracker.track_topological":
            out += [("tracker.samples", "count", "higher"),
                    ("tracker.flips", "count", "lower"),
                    ("tracker.solves_per_sample", "calls/sample", "lower")]
        if name == "chasing.chase":
            out.append(("chasing.samples", "count", "higher"))
    for stage in VERIFY_STAGES:
        out += [(f"{stage}.calls", "count", "lower"),
                (f"{stage}.self_s", "s", "lower"),
                (f"{stage}.wall_s", "s", "lower")]
    out += [
        ("verify.parallel_overlap", "ratio", "higher"),
        ("trace.wall_s", "s", "lower"),
        ("trace.untraced_wall_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.self_sum_s", "s", "lower"),
        ("trace.remainder_s", "s", "lower"),
        ("trace.parallel_excess_s", "s", "lower"),
    ]
    return out


def _union_length(intervals) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class _ThreadState:
    """Everything one thread records; no other thread writes to it."""

    def __init__(self, is_main: bool):
        self.tid = threading.get_ident()
        self.is_main = is_main
        self.stack: list[list] = []
        self.agg: dict[tuple, list] = {}  # (phase, parent id, name id) -> [calls, wall, self, qty]
        self.counters: dict[str, dict[str, int]] = {}  # phase -> counter -> value
        self.top: dict[str, float] = {}  # phase -> main-thread time inside top-level spans
        self.fanout = [0.0, 0.0, 0.0]  # fan-out span wall, child time, parallel excess
        self.name = array("i")
        self.depth = array("i")
        self.start = array("d")
        self.end = array("d")


class Recorder:
    """Records spans of the layers in ``SPANS`` while installed."""

    def __init__(self):
        self.phase = "run"
        self._names: list[str] = []
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._cross: dict[int, list[tuple[float, float]]] = {}
        self._undo: list[tuple[object, str, object]] = []
        self._main = self._state(is_main=True)

    def _state(self, is_main: bool = False) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = _ThreadState(is_main)
            self._local.st = st
            self._states.append(st)
        return st

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        importlib.import_module("kinostable.cli")  # loads runio and the rest
        modules = [m for n, m in sys.modules.items()
                   if n == "kinostable" or n.startswith("kinostable.")]
        for name, mod_name, path, _, pre, post, after in SPANS:
            owner = importlib.import_module(f"kinostable.{mod_name}")
            nid = len(self._names)
            self._names.append(name)
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[attr]
                setattr(cls, attr, self._wrap(original, nid, pre, post, after))
                self._undo.append((cls, attr, original))
                continue
            original = getattr(owner, path)
            wrapper = self._wrap(original, nid, pre, post, after)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._undo.append((mod, key, original))

    def uninstall(self) -> None:
        while self._undo:
            obj, attr, original = self._undo.pop()
            setattr(obj, attr, original)

    def _wrap(self, fn, nid, pre, post, after):
        rec = self
        perf = time.perf_counter
        main = self._main

        @functools.wraps(fn)
        def span(*args, **kwargs):
            st = rec._state()
            stack = st.stack
            cross_parent = None
            if not stack and not st.is_main and main.stack:
                cross_parent = main.stack[-1]
            frame = [nid, 0.0, cross_parent]
            before = pre(args) if pre is not None else None
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                t1 = perf()
                stack.pop()
                rec._close(st, frame, t0, t1, 0)
                raise
            t1 = perf()
            stack.pop()
            rec._close(st, frame, t0, t1, post(args, kwargs, result, before) if post else 0)
            if after is not None:
                after(result, st.counters.setdefault(rec.phase, {}))
            return result

        return span

    def _close(self, st: _ThreadState, frame: list, t0: float, t1: float, qty: int) -> None:
        nid, child, cross_parent = frame
        dur = t1 - t0
        own = dur - child
        if st.is_main:
            cross = self._cross.pop(id(frame), None)
            if cross:
                cover = _union_length(cross)
                child_time = sum(hi - lo for lo, hi in cross)
                own -= cover
                st.fanout[0] += dur
                st.fanout[1] += child_time
                st.fanout[2] += child_time - cover
        stack = st.stack
        if stack:
            parent = stack[-1]
            parent[1] += dur
            pnid = parent[0]
        elif cross_parent is not None:
            self._cross.setdefault(id(cross_parent), []).append((t0, t1))
            pnid = cross_parent[0]
        else:
            pnid = -1
            if st.is_main:
                st.top[self.phase] = st.top.get(self.phase, 0.0) + dur
        key = (self.phase, pnid, nid)
        rec = st.agg.get(key)
        if rec is None:
            rec = st.agg[key] = [0, 0.0, 0.0, 0]
        rec[0] += 1
        rec[1] += dur
        rec[2] += own
        rec[3] += qty
        st.name.append(nid)
        st.depth.append(len(stack))
        st.start.append(t0)
        st.end.append(t1)

    # -- results ------------------------------------------------------------

    def span_count(self) -> int:
        return sum(len(st.name) for st in self._states)

    def write(self, path) -> None:
        """Write every recorded span (name, thread, depth, start, end)."""
        np.savez(
            path,
            names=np.array(self._names),
            name=np.concatenate([np.frombuffer(st.name, dtype=np.int32) for st in self._states]),
            thread=np.concatenate([np.full(len(st.name), st.tid, dtype=np.uint64)
                                   for st in self._states]),
            depth=np.concatenate([np.frombuffer(st.depth, dtype=np.int32) for st in self._states]),
            start=np.concatenate([np.frombuffer(st.start) for st in self._states]),
            end=np.concatenate([np.frombuffer(st.end) for st in self._states]),
        )

    def summary(self, wall_s: float, untraced_wall_s: float) -> dict[str, float]:
        """Per-layer metrics of the timed part (set-up spans from set-up)."""
        names = self._names
        per_name: dict[str, list] = {}
        edges: dict[tuple[str, str], list] = {}
        counters: dict[str, int] = {}
        self_sum = 0.0
        fanout = [0.0, 0.0, 0.0]
        for st in self._states:
            for (phase, pnid, nid), (calls, wall, own, qty) in st.agg.items():
                name = names[nid]
                if phase == "run":
                    self_sum += own
                if phase != ("setup" if name in SETUP_SPANS else "run"):
                    continue
                parent = names[pnid] if pnid >= 0 else ""
                for table, key in ((per_name, name), (edges, (parent, name))):
                    acc = table.setdefault(key, [0, 0.0, 0.0, 0])
                    acc[0] += calls
                    acc[1] += wall
                    acc[2] += own
                    acc[3] += qty
            for key, value in st.counters.get("run", {}).items():
                counters[key] = counters.get(key, 0) + value
            for i in range(3):
                fanout[i] += st.fanout[i]

        for (parent, name), (calls, wall, own, qty) in edges.items():
            if name != _FANOUT:
                continue
            stage = _FANOUT_STAGE.get(parent, "verify.walk_flips")
            acc = per_name.setdefault(stage, [0, 0.0, 0.0, 0])
            acc[2] += own
            if stage != parent:
                acc[0] += calls
                acc[1] += wall

        out: dict[str, float] = {}
        for name, _, _, qty, _, _, _ in SPANS:
            if name == _FANOUT or name.startswith("verify."):
                continue
            calls, _, own, amount = per_name.get(name, [0, 0.0, 0.0, 0])
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = own
            if qty is not None:
                out[f"{name}.{qty}"] = int(amount)
        samples = counters.get("tracker.samples", 0)
        solves = edges.get(("tracker.track_topological", "solvers.optimal"), [0])[0]
        out["tracker.samples"] = samples
        out["tracker.flips"] = counters.get("tracker.flips", 0)
        out["tracker.solves_per_sample"] = solves / samples if samples else 0.0
        out["chasing.samples"] = counters.get("chasing.samples", 0)
        for stage in VERIFY_STAGES:
            calls, wall, own, _ = per_name.get(stage, [0, 0.0, 0.0, 0])
            out[f"{stage}.calls"] = calls
            out[f"{stage}.self_s"] = own
            out[f"{stage}.wall_s"] = wall
        out["verify.parallel_overlap"] = fanout[1] / fanout[0] if fanout[0] else 0.0
        top = self._main.top.get("run", 0.0)
        out["trace.wall_s"] = wall_s
        out["trace.untraced_wall_s"] = untraced_wall_s
        out["trace.overhead_s"] = wall_s - untraced_wall_s
        out["trace.self_sum_s"] = self_sum
        out["trace.remainder_s"] = wall_s - top
        out["trace.parallel_excess_s"] = fanout[2]
        return out
