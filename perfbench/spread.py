"""Run-to-run spread of the benchmark's metrics over several seeds.

    python3 perfbench/spread.py --workloads verdicts,lines --seeds 1-5
    python3 perfbench/spread.py --seeds 0-9 --baseline
    python3 perfbench/spread.py --seeds 0-2 --trace 1 --baseline

Runs `run.py` once per (workload, seed), one run at a time, and prints each
run's figures and, for each metric, its median, first and third quartile
(statistics.quantiles with n=4) and the spread (q3 - q1) / median.
`--baseline` records the statistics, the environment and the tracing
overhead in perfbench/baseline.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# what the recorded times are, stored with them
TIMING = ("ops_per_s, op_p50_s, op_p50_s.* and setup_s are machine-normalised: each op's "
          "time is divided by the time of run.SpeedGauge's calibration loop around it and "
          "multiplied by run.CAL_NOMINAL_S, so a verdict compares normalised figures.  "
          "raw.* are the same figures in wall time, cal_mean_s is the loop's mean time and "
          "gauge_r its correlation with the ops' times over their repeats.")


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    result["details"] = json.loads(lines[-2])
    return result


def stats(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "n": len(values)}


def environment() -> dict:
    import numpy

    cpu = next((line.split(":", 1)[1].strip() for line in
                Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "blas_threads": "OMP/OPENBLAS/MKL_NUM_THREADS pinned to 1 by run.py"}


def record_baseline(bench: dict, trace: int, seconds: float, stats_by_workload: dict) -> None:
    """Merge one set of runs into baseline.json: trace 0 fills the end-to-end
    figures, trace 1 the per-layer ones and the tracing overhead."""
    import spans

    path = HERE / "baseline.json"
    base = json.loads(path.read_text()) if path.exists() else {}
    base["environment"] = environment()
    base["timing"] = TIMING
    base["run_seconds"] = seconds
    base["layer_targets"] = [{"metrics": m, "should_move": t} for m, t in spans.LAYER_TARGETS]
    whys = {w["name"]: w["why"] for w in bench["workloads"]}
    for workload, (seeds, st) in stats_by_workload.items():
        entry = base.setdefault("workloads", {}).setdefault(workload, {})
        entry["why"] = whys[workload]
        key = "per_layer" if trace else "end_to_end"
        entry[key] = {"seeds": seeds, "metrics": st}
        if trace and "end_to_end" in entry:
            plain = entry["end_to_end"]["metrics"]["ops_per_s"]["median"]
            traced = st["bench.ops_per_s"]["median"]
            entry["tracing_overhead"] = {"ops_per_s_untraced": plain, "ops_per_s_traced": traced,
                                         "share_lost": 1 - traced / plain}
    path.write_text(json.dumps(base, indent=1, sort_keys=True) + "\n")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--baseline", action="store_true", help="record the statistics in baseline.json")
    args = p.parse_args()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    runs: dict[str, list[dict]] = {}
    stats_by_workload: dict[str, tuple] = {}
    for workload in args.workloads.split(","):
        runs[workload] = []
        for seed in parse_seeds(args.seeds):
            r = run_once(workload, seed, args.seconds, args.trace)
            r["seed"] = seed
            runs[workload].append(r)
            print(f"{workload} seed {seed}: correct={r['correct']} attempted={r['attempted']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in r["metrics"].items()
                             if not k.startswith(("nondeg", "linalg", "geometry", "polys",
                                                  "monads", "tensors", "families", "cli",
                                                  "certify"))), flush=True)
        values: dict[str, list[float]] = {}
        for r in runs[workload]:
            for k, v in {**r["details"], **{k: v["value"] for k, v in r["metrics"].items()}}.items():
                if isinstance(v, (int, float)):
                    values.setdefault(k, []).append(v)
        st = {}
        for k, vs in values.items():
            if len(vs) < 2 or k in ("ops", "failed", "fail_ratio", "seed", "trace"):
                continue
            s = st[k] = stats(vs)
            bound = bounds.get(k)
            flag = "" if bound is None else (" ok" if s["spread"] < bound / 3 else " WIDE")
            print(f"  {workload:15s} {k:32s} median={s['median']:.5g} q1={s['q1']:.5g} "
                  f"q3={s['q3']:.5g} spread={s['spread']:.4f}"
                  + ("" if bound is None else f" bound={bound}{flag}"))
        stats_by_workload[workload] = ([r["seed"] for r in runs[workload]], st)
    if args.baseline:
        record_baseline(bench, args.trace, args.seconds, stats_by_workload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
