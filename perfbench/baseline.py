#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/baseline.py --seeds 1-10 --traced \\
        --out perfbench/baseline/BENCH_<commit>.json
    python3 perfbench/baseline.py --workloads many-knots --seeds 11-15
    python3 perfbench/baseline.py --seeds 21-30 --against perfbench/baseline/BENCH_<commit>.json

Each workload in BENCHMARK.json runs once per seed (``run.py`` with tracing
off, for the file's ``run_seconds``), one process at a time.  For every
end-to-end metric the summary holds the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the spread
``(q3 - q1) / median``; a spread above a third of the metric's bound is
flagged.  ``--traced``
adds one traced run per workload, on the first seed, for the per-layer
numbers.  ``--against`` compares each median with an earlier summary file
and flags a metric that is worse by more than its bound.  The exit status
is 1 when a run failed or a flag was raised.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    record = json.loads((HERE / "out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return {"seed": seed, "result": result, "manifest": record["manifest"]}


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf")}


def worse_by(new: float, old: float, better: str) -> float:
    """How much worse ``new`` is than ``old``, as a share of ``old``."""
    change = (new - old) / old
    return change if better == "lower" else -change


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10", type=parse_seeds)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out", type=Path)
    parser.add_argument("--against", type=Path)
    args = parser.parse_args(argv)
    if len(args.seeds) < 2:
        parser.error("need at least two seeds for quartiles")

    metrics = {m["name"]: m for m in spec["end_to_end"]}
    previous = json.loads(args.against.read_text())["workloads"] if args.against else {}
    flags, report = [], {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            runs.append(run_once(workload, seed, args.seconds, 0))
            print(f"{workload} seed {seed}: " + "  ".join(
                f"{k}={v['value']:.6g}" for k, v in runs[-1]["result"]["metrics"].items()),
                flush=True)
        summary = {}
        for name, m in metrics.items():
            s = summarise([r["result"]["metrics"][name]["value"] for r in runs])
            s["bound"] = m["bound"]
            summary[name] = s
            note = ""
            if s["spread"] > m["bound"] / 3:
                note = "  SPREAD ABOVE BOUND/3"
                flags.append(f"{workload} {name} spread")
            old = previous.get(workload, {}).get("summary", {}).get(name)
            if old:
                change = worse_by(s["median"], old["median"], m["better"])
                note += f"  vs earlier {change:+.2%} worse"
                if change > m["bound"]:
                    note += "  REGRESSION"
                    flags.append(f"{workload} {name} regression")
            print(f"  {name:<20} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
                  f"q3 {s['q3']:<12.6g} spread {s['spread']:7.2%} "
                  f"(bound {m['bound']:.0%}){note}", flush=True)
        entry = {
            "manifest": runs[0]["manifest"],
            "runs": [{"seed": r["seed"], "loadavg_start": r["manifest"]["loadavg_start"],
                      "metrics": {k: v["value"] for k, v in r["result"]["metrics"].items()}}
                     for r in runs],
            "summary": summary,
        }
        if args.traced:
            traced = run_once(workload, args.seeds[0], args.seconds, 1)
            entry["per_layer"] = {"seed": args.seeds[0], "metrics": {
                k: v["value"] for k, v in traced["result"]["metrics"].items()}}
        report[workload] = entry

    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({"benchmark": spec, "workloads": report},
                                       indent=1) + "\n")
    for flag in flags:
        print(f"FLAG {flag}")
    return 1 if flags else 0


if __name__ == "__main__":
    sys.exit(main())
