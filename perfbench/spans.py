"""In-memory span recorder for the traced benchmark run.

``Tracer.instrument`` wraps the public functions of each ``knotopt`` module
from outside the package: the original function object is replaced in every
``knotopt`` module namespace that holds it (``from .x import f`` copies the
reference), and methods are replaced on their class.  Nothing under ``src/``
changes, and ``restore`` puts every original back.

Each call of a wrapped function records one span: a name, its parent span
(the innermost wrapped call still open), start and end times, and a work
count (points evaluated, vector elements, iterations or bytes).  Work counts
that need the call's result are taken by a hook after the call; the hook's
time is kept apart so that it is charged to the tracer, not to the layer.
Spans live in flat arrays until the run ends.

A span's self time is its duration minus the time its child spans cover and
minus its own hook time.  Calls on one thread nest, so the self times of all
spans, plus the hook times, add up to the duration of the root spans; the
rest of the traced wall time is ``unattributed_s``.
"""

from __future__ import annotations

import functools
import json
import os
import time
from array import array
from collections import Counter

import numpy as np

#: the layers, in the order the per-layer table lists them
LAYERS = ("quadrature", "curves", "objective", "cone", "spg", "pl", "kkt",
          "harness")


def tail_pct(count: int) -> float:
    """Highest percentile with at least ten of ``count`` samples beyond it.

    Below 11 samples no such percentile exists and the median is used.
    """
    return 100.0 * (count - 10) / count if count >= 11 else 50.0


def percentile_lower(values, pct: float) -> float:
    """The sample value at percentile ``pct`` (nearest rank, rounding down)."""
    ordered = np.sort(np.asarray(values, dtype=float))
    rank = int(np.ceil(pct / 100.0 * ordered.size - 1e-9))
    return float(ordered[min(max(rank - 1, 0), ordered.size - 1)])


class Tracer:
    """Records nested spans of wrapped calls; one instance per traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.hook = array("d")
        self.work = array("d")
        self.counters: Counter[str] = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def span(self, name: str, fn, hook=None):
        """Wrap ``fn`` so each call records a span named ``name``.

        ``hook(args, kwargs, result)`` returns the call's work count; it runs
        after the call and its time is booked as hook time.
        """
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        hooks, works, stack = self.hook, self.work, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            sid = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            hooks.append(0.0)
            works.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                stop = clock()
                stack.pop()
                ends[sid] = stop
            if hook is not None:
                works[sid] = hook(args, kwargs, result)
                done = clock()
                hooks[sid] = done - stop
                ends[sid] = done
            return result

        return spanned

    def counted(self, key: str, fn):
        """Wrap ``fn`` so each call adds one to ``counters[key]``; no span."""
        counters = self.counters

        @functools.wraps(fn)
        def counting(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)

        return counting

    # -- patching -------------------------------------------------------------

    def _replace(self, modules, owner, attr: str, wrapper):
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, key, original))
                    setattr(module, key, wrapper)

    def instrument(self, knotopt):
        """Wrap the layer boundaries of a freshly imported ``knotopt``."""
        q, c, pl, obj = knotopt.quadrature, knotopt.curves, knotopt.pl, knotopt.objective
        cone, spg, kkt, harness = knotopt.cone, knotopt.spg, knotopt.kkt, knotopt.harness
        modules = [knotopt, q, c, pl, obj, cone, spg, kkt, harness]
        counters = self.counters
        last_value_y: dict[int, np.ndarray] = {}

        def points(args, kwargs, result):
            return float(np.size(args[1]))

        def project_work(args, kwargs, out):
            runs = 1 + int(np.count_nonzero(out[1:] != out[:-1]))
            counters["cone.project.merges"] += out.size - runs
            return float(out.size)

        def minimize_work(args, kwargs, result):
            counters[f"spg.term.{result.termination.value}"] += 1
            return float(result.iterations)

        def value_seen(args, kwargs, result):
            last_value_y[id(args[0])] = np.array(args[1], dtype=float)
            return 0.0

        def grad_seen(args, kwargs, result):
            previous = last_value_y.get(id(args[0]))
            y = np.asarray(args[1], dtype=float)
            if previous is not None and previous.shape == y.shape \
                    and np.array_equal(previous, y):
                counters["objective.grad_after_value"] += 1
            return 0.0

        def bytes_written(args, kwargs, result):
            path = kwargs.get("out_path", args[1] if len(args) > 1 else None)
            return float(os.path.getsize(path))

        def wrap(owner, attr, name, hook=None):
            self._replace(modules, owner, attr, self.span(name, vars(owner)[attr], hook))

        wrap(q, "integrate_segments", "quadrature.integrate_segments")
        for method in ("value", "deriv1", "deriv2"):
            wrap(c.Curve, method, f"curves.{method}", points)
        wrap(c, "load_catalog", "curves.load_catalog")
        wrap(pl.KnotVector, "__post_init__", "pl.knotvector")
        for fn in ("error_concave", "error_general", "error_interior_squared"):
            wrap(pl, fn, "pl.error")
        wrap(obj.YObjective, "value", "objective.value", value_seen)
        wrap(obj.YObjective, "grad", "objective.grad", grad_seen)
        wrap(cone, "project", "cone.project", project_work)
        wrap(spg, "minimize_y", "spg.minimize_y", minimize_work)
        wrap(spg, "solve", "spg.solve")
        self._replace(modules, spg, "backtrack_step",
                      self.counted("spg.backtracks", spg.backtrack_step))
        wrap(kkt, "kkt_check", "kkt.kkt_check")
        wrap(harness, "run_catalog", "harness.run_catalog")
        wrap(harness, "run_experiment", "harness.run_experiment")
        wrap(harness, "write_rows", "harness.write_rows", bytes_written)

    def restore(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- summary --------------------------------------------------------------

    def _arrays(self):
        name = np.frombuffer(self.name, dtype=np.intc)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        start = np.frombuffer(self.start)
        end = np.frombuffer(self.end)
        hook = np.frombuffer(self.hook)
        work = np.frombuffer(self.work)
        dur = end - start
        cover = np.zeros(dur.size)
        child = parent >= 0
        np.add.at(cover, parent[child], dur[child])
        self_time = dur - cover - hook
        return name, parent, start, dur, hook, work, self_time

    def summarise(self, wall: float) -> tuple[dict, dict[str, float]]:
        """Per-layer metrics and the time accounting for a pass of ``wall`` s.

        Returns (metrics, account) where account holds the traced wall time,
        the sum of all self times, hook time and unattributed time, and the
        most negative self time seen.
        """
        name, parent, _, dur, hook, work, self_time = self._arrays()
        ids = {n: i for i, n in enumerate(self.names)}

        def select(span_name):
            return name == ids[span_name] if span_name in ids else np.zeros(name.size, bool)

        def total(values, span_name):
            return float(values[select(span_name)].sum())

        def latency_us(span_name, which):
            busy = (dur - hook)[select(span_name)] * 1e6
            if busy.size == 0:
                return 0.0
            if which == "p50":
                return float(np.median(busy))
            return percentile_lower(busy, tail_pct(busy.size))

        calls = {n: int(np.count_nonzero(name == i)) for n, i in ids.items()}
        layer_self = {layer: 0.0 for layer in LAYERS}
        for n, i in ids.items():
            layer_self[n.split(".")[0]] += float(self_time[name == i].sum())

        quad = select("quadrature.integrate_segments")
        in_quad = np.zeros(name.size, bool)
        has_parent = parent >= 0
        in_quad[has_parent] = quad[parent[has_parent]]
        root_time = float(dur[~has_parent].sum())
        unattributed = wall - root_time
        iterations = int(total(work, "spg.minimize_y"))

        m: dict[str, float | int] = {}
        for layer in LAYERS:
            m[f"{layer}.self_s"] = layer_self[layer]
        qs = "quadrature.integrate_segments"
        m[f"{qs}.calls"] = calls.get(qs, 0)
        m[f"{qs}.self_s"] = total(self_time, qs)
        m[f"{qs}.p50_us"] = latency_us(qs, "p50")
        m[f"{qs}.tail_us"] = latency_us(qs, "tail")
        m["quadrature.points"] = int(work[select("curves.value") & in_quad].sum())
        for fn in ("value", "deriv1"):
            key = f"curves.{fn}"
            m[f"{key}.calls"] = calls.get(key, 0)
            m[f"{key}.points"] = int(total(work, key))
            m[f"{key}.self_s"] = total(self_time, key)
        for fn in ("value", "grad"):
            key = f"objective.{fn}"
            m[f"{key}.calls"] = calls.get(key, 0)
            m[f"{key}.self_s"] = total(self_time, key)
        m["objective.grad_after_value"] = self.counters["objective.grad_after_value"]
        cp = "cone.project"
        m[f"{cp}.calls"] = calls.get(cp, 0)
        m[f"{cp}.elems"] = int(total(work, cp))
        m[f"{cp}.merges"] = self.counters["cone.project.merges"]
        m[f"{cp}.self_s"] = total(self_time, cp)
        m[f"{cp}.p50_us"] = latency_us(cp, "p50")
        m[f"{cp}.tail_us"] = latency_us(cp, "tail")
        m["spg.iterations"] = iterations
        m["spg.backtracks"] = self.counters["spg.backtracks"]
        m["spg.self_us_per_iter"] = (layer_self["spg"] / iterations * 1e6
                                     if iterations else 0.0)
        for term in ("MaxIter", "NoImprovement", "Stationary"):
            m[f"spg.term.{term}"] = self.counters[f"spg.term.{term}"]
        for key in ("pl.knotvector", "pl.error"):
            m[f"{key}.calls"] = calls.get(key, 0)
            m[f"{key}.self_s"] = total(self_time, key)
        m["kkt.kkt_check.self_s"] = total(self_time, "kkt.kkt_check")
        m["harness.run_experiment.self_s"] = total(self_time, "harness.run_experiment")
        m["harness.write_rows.self_s"] = total(self_time, "harness.write_rows")
        m["harness.bytes_out"] = int(total(work, "harness.write_rows"))
        m["unattributed_s"] = unattributed
        m["trace.hooks_s"] = float(hook.sum())
        m["trace.spans"] = int(name.size)
        m["trace.wall_s"] = wall

        account = {
            "wall_s": wall,
            "self_sum_s": float(self_time.sum()),
            "hooks_s": float(hook.sum()),
            "unattributed_s": unattributed,
            "min_self_s": float(self_time.min()) if self_time.size else 0.0,
        }
        return m, account

    def write_jsonl(self, path):
        """One JSON object per span, in call order, times in microseconds."""
        name, parent, start, dur, hook, work, self_time = self._arrays()
        origin = start.min() if start.size else 0.0
        names = [json.dumps(n) for n in self.names]
        tmp = f"{path}.tmp"
        with open(tmp, "w") as fh:
            for i in range(name.size):
                fh.write(
                    f'{{"id":{i},"parent":{parent[i]},"name":{names[name[i]]},'
                    f'"start_us":{(start[i] - origin) * 1e6:.3f},'
                    f'"dur_us":{dur[i] * 1e6:.3f},"self_us":{self_time[i] * 1e6:.3f},'
                    f'"hook_us":{hook[i] * 1e6:.3f},"work":{work[i]:g}}}\n')
        os.replace(tmp, path)
