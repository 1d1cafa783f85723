"""In-memory span recorder for the traced benchmark run.

The benchmark wraps the public functions of the program's modules from the
outside: each wrapped call records one span (name, start, end, parent, op id)
plus an optional small outcome (a bool or an int) that the per-layer counts
are computed from.  A function imported by name into another module is
replaced there too, so calls through either name are recorded.  Spans stay
in memory until the run ends; `write` then stores them as gzipped CSV.
`layer_metrics` turns them into per-layer counts and self times per op.

`fields` and `bases` are not wrapped: their helpers run millions of times
per op, and their cost shows up in the self time of their callers.
"""

from __future__ import annotations

import csv
import functools
import gzip
import inspect
import sys
import time
import weakref

# span record layout
NAME, START, END, PARENT, OP, CHILD, OUTCOME = range(7)

WRAPPED_MODULES = ("linalg", "tensors", "nondeg", "monads", "geometry", "polys",
                   "families", "certify", "cli")

# module-level functions recorded under another name than <module>.<function>
RENAMED = {("nondeg", "witness_search"): "nondeg.scan"}

# (module, class, method, span name); a name of None means one span name per
# backend, chosen at call time
METHODS = (
    ("linalg", "Mat", "rref", None),
    ("linalg", "Mat", "kernel", "linalg.kernel"),
    ("linalg", "Mat", "det", "linalg.det"),
    ("linalg", "Mat", "__matmul__", "linalg.matmul"),
    ("linalg", "Subspace", "from_spanning", "linalg.from_spanning"),
    ("linalg", "Subspace", "intersect", "linalg.intersect"),
    ("tensors", "OmegaTensor", "flatten", "tensors.flatten"),
    ("tensors", "OmegaTensor", "rank", "tensors.rank"),
    ("tensors", "OmegaTensor", "contract_line", "tensors.contract_line"),
    ("nondeg", "SpanningCertifier", "piece", "nondeg.piece"),
    ("nondeg", "SpanningCertifier", "closes", "nondeg.closes"),
    ("monads", "Monad", "alpha", "monads.alpha"),
    ("monads", "Monad", "beta", "monads.beta"),
)

# span names whose calls and self time are reported, and those reported by
# self time alone
COUNTED = ("nondeg.scan", "nondeg.piece", "linalg.det", "linalg.intersect", "linalg.matmul",
           "geometry.splitting_order", "geometry.h0_line", "geometry.pencil_jump_poly",
           "tensors.flatten", "tensors.rank", "tensors.contract_line")
TIMED = ("nondeg.classify", "nondeg.closes", "linalg.kernel", "linalg.from_spanning",
         "polys.roots", "polys.interpolate", "monads.build_monad", "monads.coh_table",
         "monads.s2_cohomology", "monads.sigma_kernel", "monads.gamma_kernel",
         "monads.tangent_dim", "monads.alpha", "monads.beta", "cli.main",
         "tensors.read_tensor", "certify.smoothness_certificate")
SAMPLERS = ("sample_full", "sample_corank2", "extend_fiber")


class Tracer:
    """Records spans of wrapped calls; `op` tags spans with the current op."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, fn, name, outcomes: dict):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(args) if callable(name) else name
            outcome = outcomes.get(label)
            rec = [label, clock(), 0.0, stack[-1] if stack else -1, self.op, 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
                if outcome is not None:
                    rec[OUTCOME] = outcome(args, result)
                return result
            finally:
                rec[END] = clock()
                stack.pop()
                if rec[PARENT] >= 0:
                    spans[rec[PARENT]][CHILD] += rec[END] - rec[START]

        return traced

    def install(self, package) -> None:
        """Wrap the public functions and the listed methods of `package`."""
        mods = {m: sys.modules[f"{package.__name__}.{m}"] for m in WRAPPED_MODULES}
        every = [v for k, v in sys.modules.items()
                 if k.startswith(package.__name__ + ".") and v is not None]
        outcomes = _outcomes()
        for short, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                name = RENAMED.get((short, attr), f"{short}.{attr}")
                traced = self._wrap(fn, name, outcomes)
                for m in every:
                    for key, val in list(vars(m).items()):
                        if val is fn:
                            self._undo.append((m, key, val))
                            setattr(m, key, traced)
        use_np = mods["linalg"]._use_np
        for short, cls_name, meth, name in METHODS:
            cls = getattr(mods[short], cls_name)
            raw = cls.__dict__[meth]
            if name is None:
                name = lambda args: "linalg.rref.np" if use_np(args[0].field) else "linalg.rref.generic"
            if isinstance(raw, staticmethod):
                traced = staticmethod(self._wrap(raw.__func__, name, outcomes))
            else:
                traced = self._wrap(raw, name, outcomes)
            self._undo.append((cls, meth, raw))
            setattr(cls, meth, traced)

    def uninstall(self) -> None:
        for owner, key, val in reversed(self._undo):
            setattr(owner, key, val)
        self._undo.clear()

    def write(self, path) -> None:
        with gzip.open(path, "wt", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["id", "name", "start", "end", "parent", "op", "self_s", "outcome"])
            for i, s in enumerate(self.spans):
                w.writerow([i, s[NAME], f"{s[START]:.9f}", f"{s[END]:.9f}", s[PARENT], s[OP],
                            f"{s[END] - s[START] - s[CHILD]:.9f}",
                            "" if s[OUTCOME] is None else int(s[OUTCOME])])


def _outcomes() -> dict:
    """Per-span outcomes the per-layer ratios and counts are computed from."""
    built = weakref.WeakSet()

    def new_piece_cols(args, acc):
        # a cached piece is returned again as the same object
        if acc in built:
            return 0
        built.add(acc)
        return acc.ncols

    return {
        "nondeg.scan": lambda args, w: w is not None,
        "nondeg.closes": lambda args, ok: bool(ok),
        "nondeg.piece": new_piece_cols,
        "linalg.rref.np": lambda args, r: args[0].nrows * args[0].ncols,
        "linalg.rref.generic": lambda args, r: args[0].nrows * args[0].ncols,
        "geometry.splitting_order": lambda args, a: a >= 1,
        # set only when the sampler returned, not when it raised
        **{f"families.{f}": lambda args, t: True for f in SAMPLERS},
    }


class _Totals:
    """Self time, calls and summed outcomes per span name."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.outcome: dict[str, int] = {}

    def add(self, s: list) -> None:
        name = s[NAME]
        self.self_s[name] = self.self_s.get(name, 0.0) + s[END] - s[START] - s[CHILD]
        self.calls[name] = self.calls.get(name, 0) + 1
        if s[OUTCOME] is not None:
            self.outcome[name] = self.outcome.get(name, 0) + int(s[OUTCOME])


def layer_metrics(spans: list[list], ops: int, ops_wall_s: float) -> dict[str, tuple]:
    """Per-layer metrics of one traced run: name -> (value, unit).

    The program's layers are measured on the spans of the ops (op >= 0) and
    given per op.  Every cycle runs each op once, so a per-op figure does not
    grow with the number of cycles a faster program fits into a run.
    `families.*` are measured on the spans of the run's single set-up
    (op = -1).  `ops_wall_s` is the wall time of the ops' phase, of which
    `bench.accounted_ratio` is the share covered by the reported self times
    plus the time outside any span.
    """
    run, setup = _Totals(), _Totals()
    in_scan = [False] * len(spans)
    points = 0
    root_s = 0.0
    tested = 0
    for i, s in enumerate(spans):
        name, parent = s[NAME], s[PARENT]
        pname = spans[parent][NAME] if parent >= 0 else None
        if s[OP] < 0:
            setup.add(s)
            # rejection screens: full-rank draws and the classify screen
            if (name, pname) in (("families.random_tensor", "families.sample_full"),
                                 ("nondeg.classify", "families.sample_corank2"),
                                 ("nondeg.classify", "families.extend_fiber")):
                tested += 1
            continue
        run.add(s)
        if parent < 0:
            root_s += s[END] - s[START]
        in_scan[i] = name == "nondeg.scan" or (parent >= 0 and in_scan[parent])
        if name == "linalg.kernel" and in_scan[i]:
            points += 1

    def ratio(num, den):
        return (num / den if den else 0.0), "ratio"

    def per_op(value, unit):
        return value / ops, f"{unit}/op"

    m: dict[str, tuple] = {}
    for key in COUNTED:
        m[f"{key}.calls"] = per_op(run.calls.get(key, 0), "count")
        m[f"{key}.self_s"] = per_op(run.self_s.get(key, 0.0), "s")
    m["nondeg.scan.points"] = per_op(points, "count")
    m["nondeg.scan.hit_ratio"] = ratio(run.outcome.get("nondeg.scan", 0),
                                       run.calls.get("nondeg.scan", 0))
    m["nondeg.piece.cols"] = per_op(run.outcome.get("nondeg.piece", 0), "count")
    m["nondeg.piece.close_ratio"] = ratio(run.outcome.get("nondeg.closes", 0),
                                          run.calls.get("nondeg.closes", 0))
    for backend in ("np", "generic"):
        m[f"linalg.rref.calls.{backend}"] = per_op(run.calls.get(f"linalg.rref.{backend}", 0),
                                                   "count")
        m[f"linalg.rref.self_s.{backend}"] = per_op(
            run.self_s.get(f"linalg.rref.{backend}", 0.0), "s")
    m["linalg.rref.cells"] = per_op(run.outcome.get("linalg.rref.np", 0)
                                    + run.outcome.get("linalg.rref.generic", 0), "count")
    m["geometry.jumping_ratio"] = ratio(run.outcome.get("geometry.splitting_order", 0),
                                        run.calls.get("geometry.splitting_order", 0))
    for key in TIMED:
        m[f"{key}.self_s"] = per_op(run.self_s.get(key, 0.0), "s")
    m["families.sample.self_s"] = (sum(v for k, v in setup.self_s.items()
                                       if k.startswith("families.")), "s")
    m["families.draws"] = (setup.calls.get("families.random_tensor", 0), "count")
    m["families.accept_ratio"] = ratio(sum(setup.outcome.get(f"families.{f}", 0)
                                           for f in SAMPLERS), tested)
    untraced_s = ops_wall_s - root_s
    m["bench.untraced_s"] = per_op(untraced_s, "s")
    reported = [*COUNTED, *TIMED, "linalg.rref.np", "linalg.rref.generic"]
    listed = sum(run.self_s.get(k, 0.0) for k in reported)
    m["bench.accounted_ratio"] = ((listed + untraced_s) / ops_wall_s, "ratio")
    return m


# Which end-to-end metric each per-layer metric should move, and on which
# workload, written down before any optimisation is measured.
LAYER_TARGETS = (
    ("nondeg.scan.*", "op_p50_s.certified on certify-chains; must not raise op_p50_s.degenerate on verdicts"),
    ("nondeg.piece.*, nondeg.classify.self_s", "op_p50_s.unknown on verdicts; about 0 on lines"),
    ("linalg.rref.*.np, linalg.rref.cells, linalg.{det,intersect,matmul}.*",
     "ops_per_s on lines and certify-chains"),
    ("linalg.rref.*.generic", "ops_per_s on rational"),
    ("geometry.*, polys.{roots,interpolate}.self_s", "ops_per_s on lines"),
    ("monads.*.self_s, tensors.{flatten,rank,contract_line}.*",
     "op_p50_s.certified on certify-chains and ops_per_s on lines"),
    ("families.*", "setup_s"),
    ("cli.main.self_s, tensors.read_tensor.self_s, certify.smoothness_certificate.self_s, "
     "bench.untraced_s", "ops_per_s everywhere: I/O, JSON and harness overhead stay small"),
)
