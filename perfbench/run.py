"""Benchmark of the instanton workbench: one client, a closed loop.

    python3 perfbench/run.py --workload certify-chains --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --seed 1            # every workload, untraced and traced

With a workload, the runner sets up its inputs from the seed (several times,
reporting the median set-up time), then runs the workload's cycle of ops one
after another in this process until `--seconds` have passed at the end of a
cycle.  Every op's output is checked.  Each op's time is scaled by the
machine's speed around it (see SpeedGauge) and averaged over its repeats;
`op_p50_s` is the median of those times over the cycle's ops and `ops_per_s`
the cycle's op count over their sum.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.  With `--trace 0` the metrics are the
end-to-end ones; with `--trace 1` the program's functions are wrapped and the
metrics are per layer (see spans.py), and the spans are written to
perfbench/out/.  The line before it is a JSON object of details: the op
count, the failure ratio, the median per verdict status
(`op_p50_s.certified`, `.degenerate`, `.unknown`), the same figures unscaled
(`raw.*`), the calibration loop's mean time and how well it tracked the ops
(`gauge_r`).  Without a workload, every workload runs in its own process,
untraced and then traced, and the tracing overhead is printed.

Runs on seed 0 also compare each op's mathematical outputs with
perfbench/reference.json, recorded from the unchanged program with
`--record-reference`.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
REFERENCE_SEED = 0
# set-up is repeated at least SETUP_REPEATS times and until SETUP_MIN_S have
# passed (at most SETUP_MAX_REPEATS), and the median is reported: a set-up of
# a few milliseconds then still gives a steady figure
SETUP_REPEATS = 3
SETUP_MIN_S = 1.0
SETUP_MAX_REPEATS = 50

# Machine-speed gauge.  On a shared machine the speed this process gets
# drifts by 20-50% in phases of minutes, longer than a run, and the slow
# phases hit allocation- and call-heavy Python code like the program's while
# sparing tight arithmetic loops.  A fixed ~3 ms loop of that kind of work
# (method calls doing arithmetic mod p, list building, small int64 numpy
# products) runs just before and just after every op; its time tracks the
# op's slow-down (correlation about 0.7 per op, measured on a 2-vCPU Xeon
# VM shared with other tenants), and each op's reported time is its measured
# time scaled to a machine on which the loop takes CAL_NOMINAL_S, the loop's
# median time over the baseline runs on that VM, so scaled times read as
# wall times at its typical speed.  The loop belongs to the benchmark, not the
# program, so the scaling cancels drift of the machine, never a change in
# the program; but a program whose mix of Python and numpy work differs from
# the loop's is corrected less exactly.  The unscaled figures, the loop's
# mean time and its correlation with the ops are printed on the details line
# so that a verdict can be checked against wall time.
CAL_NOMINAL_S = 0.0028


class _ModP:
    p = 32003

    def add(self, a, b):
        return (a + b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p


class SpeedGauge:
    """Times the calibration loop around the calls it runs."""

    def __init__(self) -> None:
        import numpy as np

        self._mat = np.arange(48 * 48, dtype=np.int64).reshape(48, 48) % 32003
        self._rows = [[(i * 7 + j * 13) % 32003 for j in range(48)] for i in range(12)]

    def probe(self) -> float:
        """Time of one pass of the calibration loop.  The collector is off
        during the pass, so the program's garbage is not collected in it."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            return self._loop()
        finally:
            if enabled:
                gc.enable()

    def _loop(self) -> float:
        t0 = time.perf_counter()
        f, point = _ModP(), [1, 5, 7]
        for _ in range(6):
            out = []
            for row in self._rows:
                acc_row = []
                for c in range(16):
                    acc = 0
                    for a in range(3):
                        acc = f.add(acc, f.mul(point[a], row[a * 16 + c]))
                    acc_row.append(acc)
                out.append(acc_row)
        a = self._mat
        for _ in range(10):
            a = (a @ self._mat) % 32003
        return time.perf_counter() - t0

    def timed(self, fn):
        """(result, seconds, calibration seconds around the call) of fn()."""
        c0 = self.probe()
        t0 = time.perf_counter()
        result = fn()
        dt = time.perf_counter() - t0
        return result, dt, (c0 + self.probe()) / 2


def _import_program():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import instantons
    except ImportError as exc:
        raise SystemExit(f"error: cannot import the program from {ROOT / 'src'}: {exc}")
    if Path(instantons.__file__).resolve().parent != ROOT / "src" / "instantons":
        raise SystemExit(f"error: imported {instantons.__file__}, not the checkout's program")
    return instantons


def _setup(setup, seed: int, work: Path, repeats: int, min_s: float, gauge: SpeedGauge):
    """The ops of the workload and the median scaled set-up time."""
    times, scaled = [], []
    while len(times) < repeats or (sum(times) < min_s
                                   and len(times) < SETUP_MAX_REPEATS):
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        gc.collect()
        ops, dt, cal = gauge.timed(lambda: setup(seed, work))
        times.append(dt)
        scaled.append(dt * CAL_NOMINAL_S / cal)
    return ops, statistics.median(scaled)


def _measure(ops, seconds: float, reference: dict | None, gauge: SpeedGauge,
             tracer=None) -> dict:
    """Run whole cycles of `ops` until `seconds` have passed; check every op."""
    times: dict[str, list[float]] = {op.label: [] for op in ops}
    cals: dict[str, list[float]] = {op.label: [] for op in ops}
    status_of: dict[str, str] = {}
    failures: list[str] = []
    outputs: dict = {}
    clock = time.perf_counter
    done = 0
    start = clock()
    while True:
        # garbage from reference cycles is freed before every set-up and
        # cycle, so peak memory does not depend on how many of them fit
        gc.collect()
        for op in ops:
            if tracer is not None:
                tracer.op = done
            done += 1
            try:
                raw, dt, cal = gauge.timed(op.run)
                times[op.label].append(dt)
                cals[op.label].append(cal)
                status, out, problems = op.check(raw)
            except Exception:
                status, out, problems = None, None, [f"raised\n{traceback.format_exc()}"]
            if reference is not None and reference.get(op.label) != out:
                problems.append("outputs differ from the reference")
            if problems:
                failures.append(f"{op.label}: {'; '.join(problems)}")
            if status is not None:
                status_of[op.label] = status
            outputs[op.label] = out
        if clock() - start >= seconds:
            break
    # each op repeats the same input once per cycle: its time is the sum of
    # its repeats over the sum of their calibration times, scaled
    timed = [label for label, ts in times.items() if ts]
    scaled = {label: sum(times[label]) / sum(cals[label]) * CAL_NOMINAL_S for label in timed}
    raw = {label: statistics.mean(times[label]) for label in timed}
    return {"done": done, "scaled": scaled, "raw": raw, "status_of": status_of,
            "failures": failures, "outputs": outputs,
            "cal_s": statistics.mean(c for label in timed for c in cals[label]),
            "gauge_r": _gauge_r(times, cals)}


def _gauge_r(times: dict, cals: dict) -> float | None:
    """Correlation, over every repeat of every op, between the op's time and
    the calibration time around it, each relative to the op's mean."""
    xs, ys = [], []
    for label, ts in times.items():
        if len(ts) > 1:
            mt, mc = statistics.mean(ts), statistics.mean(cals[label])
            xs += [c / mc for c in cals[label]]
            ys += [t / mt for t in ts]
    try:
        return statistics.correlation(xs, ys)
    except statistics.StatisticsError:
        return None


def _summary(per_op: dict[str, float], status_of: dict[str, str]) -> dict[str, float]:
    """ops_per_s, op_p50_s and the median per verdict status of per-op times."""
    out = {"ops_per_s": len(per_op) / sum(per_op.values()),
           "op_p50_s": statistics.median(per_op.values())}
    by_status: dict[str, list[float]] = {}
    for label, status in status_of.items():
        by_status.setdefault(status, []).append(per_op[label])
    # verdict kinds get their own medians so that a trade between them shows
    for status, ts in sorted(by_status.items()):
        key = "certified" if status == "certified-nondegenerate" else status
        out[f"op_p50_s.{key}"] = statistics.median(ts)
    return out


def run_workload(args) -> int:
    instantons = _import_program()
    import spans
    import workloads

    setup = workloads.WORKLOADS[args.workload]
    reference = None
    if args.seed == REFERENCE_SEED and not args.record_reference:
        reference = json.loads(REFERENCE.read_text()).get(args.workload)
        if reference is None:
            raise SystemExit(f"error: {REFERENCE.name} has no outputs for {args.workload}")
    work = HERE / "work" / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    tracer = spans.Tracer() if args.trace else None
    try:
        if tracer is not None:
            tracer.install(instantons)
        # the traced run sets up once: its families.* figures cover one set-up
        gauge = SpeedGauge()
        ops, setup_s = _setup(setup, args.seed, work,
                              *((1, 0.0) if args.trace else (SETUP_REPEATS, SETUP_MIN_S)), gauge)
        # recording covers each op once; a normal run measures whole cycles
        t0 = time.perf_counter()
        res = _measure(ops, 0 if args.record_reference else args.seconds, reference, gauge,
                       tracer)
        ops_wall_s = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    done = res["done"]
    failed = len(res["failures"])
    for f in res["failures"]:
        print(f"FAILED {f}", file=sys.stderr)
    if args.record_reference:
        ref = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
        ref[args.workload] = res["outputs"]
        REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    scaled = _summary(res["scaled"], res["status_of"])
    if tracer is not None:
        metrics = spans.layer_metrics(tracer.spans, done, ops_wall_s)
        metrics["bench.ops_per_s"] = (scaled["ops_per_s"], "1/s")
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{args.workload}-s{args.seed}.csv.gz")
    else:
        metrics = {
            "ops_per_s": (scaled["ops_per_s"], "1/s"),
            "op_p50_s": (scaled["op_p50_s"], "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    details = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "ops": done, "failed": failed, "fail_ratio": failed / done,
               **{k: v for k, v in scaled.items() if k.startswith("op_p50_s.")},
               **{f"raw.{k}": v for k, v in _summary(res["raw"], res["status_of"]).items()},
               "cal_mean_s": res["cal_s"], "gauge_r": res["gauge_r"]}
    print(json.dumps(details))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": done,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, untraced then traced."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    results = {}
    for w in bench["workloads"]:
        name = w["name"]
        results[name] = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name}: trace={trace} exited {proc.returncode}")
                return 1
            # the details (op count, fail_ratio) and the metrics with their units
            print("\n".join(lines[-2:]))
            results[name][trace] = json.loads(lines[-1])
    ok = True
    for name, r in results.items():
        plain = r[0]["metrics"]["ops_per_s"]["value"]
        traced = r[1]["metrics"]["bench.ops_per_s"]["value"]
        print(f"{name}: tracing overhead {1 - traced / plain:+.1%} of ops_per_s "
              f"({plain:.4g} untraced, {traced:.4g} traced)")
        ok = ok and r[0]["correct"] and r[1]["correct"]
    return 0 if ok else 1


def main(argv=None) -> int:
    # one process, one thread: the ops run one after another (set before
    # numpy is first imported)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default=None,
                   choices=("certify-chains", "verdicts", "lines", "rational"),
                   help="the workload to run (default: all, each in its own process)")
    p.add_argument("--seed", type=int, default=REFERENCE_SEED, help="workload seed")
    p.add_argument("--seconds", type=float, default=25, help="measured time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: wrap the program's functions and report per-layer metrics")
    p.add_argument("--record-reference", action="store_true",
                   help="run each op once and store its outputs in reference.json")
    args = p.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
