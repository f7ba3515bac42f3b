#!/usr/bin/env python3
"""Benchmark of knotopt's catalog workloads, end to end or layer by layer.

    python3 perfbench/run.py --workload catalog-auto --seed 1 --seconds 35 --trace 0

Run it from anywhere inside a source checkout: it imports ``knotopt`` from
the ``src/`` directory beside ``perfbench/`` (never an installed copy) and
exits with status 2, printing no result, when that is missing.

A set-up is a fresh import of ``knotopt``, the catalog and the seeded
inputs.  Each run sets the workload up several times before every pass and
once more after the last, so the set-ups sample the machine over the whole
run, and reports their median as ``setup_s``.  With ``--trace 0`` the run
repeats identical passes until ``--seconds`` (by default ``run_seconds`` in
``BENCHMARK.json``) is used up, at least the workload's minimum, and reports
the end-to-end metrics.  Every time in them is scaled by the speed probe run
next to it (``speed.py``), so that drift in the machine's speed cancels.
With ``--trace 1`` it runs one plain pass and one pass with every layer
boundary wrapped in a span, reports the per-layer metrics, and writes the
spans to ``perfbench/out/<workload>.trace.jsonl``.  Every
cell of every pass is checked (see ``workloads.py``); outputs must also be
byte-identical across the passes of a run.  ``--workload all`` runs every
workload in turn.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit status is
0 when every check passed and 1 when one failed.  A fuller record, with the
run manifest and every cell, goes to ``perfbench/out/``.
"""

import os

# one thread: numpy reads these when it is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import hashlib
import importlib
import importlib.metadata
import json
import platform
import resource
import statistics
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from spans import LAYERS, Tracer, percentile_lower, tail_pct
from speed import PROBE_REF_S, SpeedMeter, Stopwatch, probe
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"
SETUP_BATCH = 40              # set-ups before each pass and after the last
#: largest share of a traced pass that may fall outside every root span
UNATTRIBUTED_MAX = 0.02

END_TO_END_UNITS = {
    "wall_s": "s",
    "cell_tail_ms": "ms",
    "mean_reduction_pct": "%",
    "ok_frac": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def layer_unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if "_us" in metric:
        return "us"
    if metric.endswith("bytes_out"):
        return "bytes"
    return "count"


# -- the program under test ------------------------------------------------------


def fresh_knotopt():
    """Import ``knotopt`` from ``src/`` anew, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "knotopt" or m.startswith("knotopt.")]:
        del sys.modules[name]
    module = importlib.import_module("knotopt")
    if Path(module.__file__).resolve().parent != SRC / "knotopt":
        raise RuntimeError(f"imported knotopt from {module.__file__}, not {SRC}")
    return module


# -- manifest --------------------------------------------------------------------


def git_commit() -> str | None:
    """HEAD of the checkout's git repository, read from .git; None outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest() -> str:
    """sha256 over the package sources, so a run names the code it measured."""
    digest = hashlib.sha256()
    package = SRC / "knotopt"
    for path in sorted(package.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(package)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def package_version(name: str) -> str | None:
    try:
        return importlib.metadata.version(name)
    except importlib.metadata.PackageNotFoundError:
        return None


def manifest(workload, seed: int, seconds: float, trace: int,
             loadavg: tuple[float, float, float]) -> dict:
    return {
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
        "workload": workload.name,
        "seed": seed,
        "params": workload.params(),
        "run_seconds": seconds,
        "trace": trace,
        "setup_batch": SETUP_BATCH,
        "min_passes": workload.min_passes,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": package_version("scipy"),
        "loadavg_start": list(loadavg),
        "started_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


# -- one workload ------------------------------------------------------------------


def set_up(name: str, seed: int, setups: list[tuple[float, float]]):
    """Build the workload ``SETUP_BATCH`` times.

    Appends to ``setups`` one pair per set-up: its time and the mean time of
    the speed probes run just before and just after it.
    """
    before = probe()
    for _ in range(SETUP_BATCH):
        gc.collect()
        start = time.perf_counter()
        workload = WORKLOADS[name](fresh_knotopt(), seed, OUT_DIR)
        elapsed = time.perf_counter() - start
        after = probe()
        setups.append((elapsed, (before + after) / 2))
        before = after
    return workload


def timed_pass(workload, index: int, clock: Stopwatch):
    gc.collect()
    return workload.run_pass(index, clock)


def check_passes(passes) -> tuple[int, list[str]]:
    """Count attempted cells and list every failing one.

    A cell fails on its own checks or when its output line differs from the
    same cell in the first pass.
    """
    reference = passes[0][1]
    attempted, failures = 0, []
    for k, (_, cells) in enumerate(passes):
        attempted += len(cells)
        for cell, first in zip(cells, reference, strict=True):
            problems = list(cell.problems)
            if cell.line != first.line:
                problems.append("output differs from pass 0")
            if problems:
                failures.append(f"pass {k} {cell.label}: {'; '.join(problems)}")
    return attempted, failures


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    loadavg = os.getloadavg()
    setups: list[tuple[float, float]] = []
    workload = set_up(name, seed, setups)

    passes = []
    record = {"manifest": manifest(workload, seed, seconds, trace, loadavg)}
    if trace:
        passes.append(timed_pass(workload, 0, Stopwatch()))
        tracer = Tracer()
        tracer.instrument(workload.knotopt)
        try:
            passes.append(timed_pass(workload, 1, Stopwatch()))
        finally:
            tracer.restore()
        traced_wall = passes[1][0]
        metrics, account = tracer.summarise(traced_wall)
        metrics["trace.overhead_s"] = traced_wall - passes[0][0]
        trace_path = OUT_DIR / f"{name}.trace.jsonl"
        tracer.write_jsonl(trace_path)
        record["trace_file"] = trace_path.name
        record["accounting"] = account
    else:
        start = time.perf_counter()
        while True:
            if passes:
                workload = set_up(name, seed, setups)
            passes.append(timed_pass(workload, len(passes), SpeedMeter()))
            used = time.perf_counter() - start
            if len(passes) >= workload.min_passes \
                    and used * (len(passes) + 1) / len(passes) > seconds:
                break
        set_up(name, seed, setups)

    attempted, failures = check_passes(passes)
    if trace and not abs(account["unattributed_s"]) <= UNATTRIBUTED_MAX * account["wall_s"]:
        # a call path that no root span wraps leaves its time unattributed
        failures.append(f"trace: unattributed {account['unattributed_s']:.4f} s is more "
                        f"than {UNATTRIBUTED_MAX:.0%} of the traced pass "
                        f"({account['wall_s']:.4f} s)")

    if not trace:
        # times at the reference speed: a cell's time is scaled by the probes
        # around and inside it, and a pass's wall time by the ratio of its
        # scaled to its unscaled cell times
        cell_ms, walls = [], []
        for wall, cells in passes:
            scaled = [c.seconds * 1e3 * PROBE_REF_S / c.probe_s for c in cells]
            cell_ms += scaled
            walls.append(wall * sum(scaled) / sum(c.seconds * 1e3 for c in cells))
        raw_ms = [c.seconds * 1e3 for _, cells in passes for c in cells]
        tail = tail_pct(workload.min_passes * len(passes[0][1]))
        counted = [c.reduction_pct for c in passes[0][1] if c.in_reduction]
        metrics = {
            "wall_s": statistics.median(walls),
            "cell_tail_ms": percentile_lower(cell_ms, tail),
            # 0 when every counted cell failed; the run is then incorrect anyway
            "mean_reduction_pct": statistics.fmean(counted) if counted else 0.0,
            "ok_frac": 1.0 - len(failures) / attempted,
            "setup_s": statistics.median(t * PROBE_REF_S / p for t, p in setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        # reported but not in the gated set: see perfbench/README.md
        record["cell_p50_ms"] = statistics.median(cell_ms)
        record["unscaled"] = {"wall_s": statistics.median(w for w, _ in passes),
                              "cell_tail_ms": percentile_lower(raw_ms, tail),
                              "setup_s": statistics.median(t for t, _ in setups)}
        record["tail"] = {"percentile": tail, "cells": len(cell_ms)}
        record["reduction_cells"] = len(counted)

    record.update({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
        "failures": failures,
        "pass_walls_s": [wall for wall, _ in passes],
        "setup_runs_s": [t for t, _ in setups],
        "setup_probes_s": [p for _, p in setups],
        "cells": [{"cell": c.label, "initial_error": c.initial_error,
                   "final_error": c.final_error, "in_reduction": c.in_reduction,
                   "seconds": [cells[i].seconds for _, cells in passes],
                   "probe_s": [cells[i].probe_s for _, cells in passes]}
                  for i, c in enumerate(passes[0][1])],
    })
    result_path = OUT_DIR / f"{name}-seed{seed}-trace{trace}.json"
    result_path.write_text(json.dumps(record, indent=1) + "\n")
    return record


# -- reporting ---------------------------------------------------------------------


def print_record(record: dict, trace: int):
    man = record["manifest"]
    walls = ", ".join(f"{w:.3f}" for w in record["pass_walls_s"])
    print(f"== {man['workload']}  seed {man['seed']}  passes [{walls}] s unscaled")
    if not trace:
        unscaled = record["unscaled"]
        print(f"unscaled: wall_s {unscaled['wall_s']:.6g} s, cell_tail_ms "
              f"{unscaled['cell_tail_ms']:.6g} ms, setup_s {unscaled['setup_s']:.6g} s; "
              f"speed probe reference {1e3 * PROBE_REF_S:g} ms")
    print("manifest " + json.dumps(man))
    metrics = record["metrics"]
    if trace:
        wall = metrics["trace.wall_s"]
        print(f"layer self time over the traced pass ({wall:.3f} s):")
        for layer in LAYERS:
            self_s = metrics[f"{layer}.self_s"]
            print(f"  {layer:<16} {self_s:10.4f} s  {100 * self_s / wall:6.2f} %")
        for key in ("trace.hooks_s", "unattributed_s"):
            print(f"  {key:<16} {metrics[key]:10.4f} s  {100 * metrics[key] / wall:6.2f} %")
        acc = record["accounting"]
        total = acc["self_sum_s"] + acc["hooks_s"] + acc["unattributed_s"]
        print(f"  {'sum':<16} {total:10.4f} s  (traced wall {acc['wall_s']:.4f} s)")
        for key, value in metrics.items():
            shown = f"{value:>16d}" if isinstance(value, int) else f"{value:>16.6g}"
            print(f"{key:<40} {shown} {layer_unit(key)}")
    else:
        tail = record["tail"]
        print(f"cell tail = p{tail['percentile']:.1f} of {tail['cells']} cells; "
              f"mean reduction over {record['reduction_cells']} cells")
        for key, unit in END_TO_END_UNITS.items():
            print(f"{key:<20} {metrics[key]:>14.6g} {unit}")
        print(f"{'cell_p50_ms':<20} {record['cell_p50_ms']:>14.6g} ms (not gated)")
        print(f"{'failed_frac':<20} {1.0 - metrics['ok_frac']:>14.6g} ratio")
    for line in record["failures"][:50]:
        print(f"FAIL {line}")
    if len(record["failures"]) > 50:
        print(f"FAIL ... {len(record['failures']) - 50} more")


def run_seconds() -> float:
    """``run_seconds`` from ``BENCHMARK.json`` at the checkout root."""
    return float(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=run_seconds())
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)

    if not (SRC / "knotopt" / "__init__.py").is_file():
        print(f"error: no knotopt sources at {SRC}/knotopt", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT_DIR.mkdir(exist_ok=True)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records = {}
    for name in names:
        records[name] = run_workload(name, args.seed, args.seconds, args.trace)
        print_record(records[name], args.trace)
        sys.stdout.flush()

    entries = {}
    for name, record in records.items():
        prefix = f"{name}." if len(records) > 1 else ""
        for key, value in record["metrics"].items():
            unit = layer_unit(key) if args.trace else END_TO_END_UNITS[key]
            entries[prefix + key] = {"value": value, "unit": unit}
    result = {
        "correct": all(r["correct"] for r in records.values()),
        "attempted": sum(r["attempted"] for r in records.values()),
        "failed": sum(r["failed"] for r in records.values()),
        "metrics": entries,
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
