"""The benchmark's workloads: input generation, ops and output checks.

A workload's set-up draws tensors from the workload seed and writes them
with `tensors.write_tensor`; its ops read only those files.  The ops of a
workload form one cycle that the runner repeats; every input kind appears
once per cycle, so the mix of op kinds does not depend on the seed.

Program functions are called through their modules (`nondeg.classify`, not
an imported name), so the traced run sees every call.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

from instantons import cli, families, nondeg, tensors
from instantons.fields import GF32003, QQ
from instantons.linalg import Mat, Stream

CERTIFIED = "certified-nondegenerate"
DEGENERATE = "degenerate"
UNKNOWN = "unknown"

# outputs of `certify` compared with the reference; `searched`, the witness
# vector's scaling and `schema_version` may legitimately change
CERT_REF_KEYS = ("rank", "coh_table", "s2", "sigma_kernel_dim", "gamma_kernel_dim", "tangent_dims")


class SetupError(RuntimeError):
    """A generated input does not have the property it was built to have."""


class Op:
    """One operation on one input file: `run` is timed, `check` is not.

    `check(raw)` returns (verdict status or None, outputs compared with the
    reference, list of problems found).
    """

    def __init__(self, label: str, run, check):
        self.label = label
        self.run = run
        self.check = check


# -- exact re-verification, independent of the program ------------------------


def _to_field(x: Fraction, spec: str):
    if spec == "rational":
        return x
    p = int(spec[3:])
    return x.numerator * pow(x.denominator, -1, p) % p


def contraction(obj: dict, h: list, v: list) -> list:
    """omega(h (x) v) as a functional on H (x) V, from a tensor file's entries.

    Entry c at (i, j, k, l) is the form c (e_i* e_j*) (x) (x_k ^ x_l); the
    pairing is computed from that definition alone.
    """
    spec, n = obj["field"], obj["n"]
    h = [_to_field(Fraction(x), spec) for x in h]
    v = [_to_field(Fraction(x), spec) for x in v]
    out = [0] * (4 * n)
    for e in obj["entries"]:
        i, j, k, l = e["i"], e["j"], e["k"], e["l"]
        c = _to_field(Fraction(e["c"]), spec)
        out[4 * j + l] += h[i] * v[k] * c
        out[4 * j + k] -= h[i] * v[l] * c
        if i != j:
            out[4 * i + l] += h[j] * v[k] * c
            out[4 * i + k] -= h[j] * v[l] * c
    return [_to_field(Fraction(x), spec) for x in out]


def witness_problems(obj: dict, h, v, fld) -> list[str]:
    if h is None or v is None:
        return ["degenerate verdict without a witness"]
    if fld != obj["field"]:
        return [f"witness over {fld} is not re-verified over {obj['field']}"]
    if all(Fraction(x) == 0 for x in h) or all(Fraction(x) == 0 for x in v):
        return ["witness has a zero factor"]
    if any(contraction(obj, h, v)):
        return ["witness does not contract to zero"]
    return []


def _verdict_problems(status, expect, obj, h, v, fld) -> list[str]:
    problems = [] if status == expect else [f"status {status}, built as {expect}"]
    if status == DEGENERATE:
        problems += witness_problems(obj, h, v, fld)
    return problems


# -- ops ------------------------------------------------------------------------


def _write(t, path: Path) -> dict:
    tensors.write_tensor(t, str(path))
    return json.loads(path.read_text())


def certify_op(label: str, path: Path, obj: dict, field_args: list, expect: str) -> Op:
    out = path.with_suffix(".cert.json")
    argv = ["certify", *field_args, "--tensor", str(path), "--out", str(out)]

    def run():
        out.unlink(missing_ok=True)
        return cli.main(argv)

    def check(rc):
        problems = [] if rc == 0 else [f"exit code {rc}"]
        if not out.exists():
            return None, None, problems + ["no certificate written"]
        cert = json.loads(out.read_text())
        if not cert["consistent"]:
            bad = [name for name, ok in cert["consistency"] if not ok]
            problems.append(f"inconsistent certificate: {bad}")
        verdicts = cert["verdicts"]
        nd = verdicts["nondegeneracy"]
        problems += _verdict_problems(nd["status"], expect, obj,
                                      nd["witness_h"], nd["witness_v"], nd["witness_field"])
        ref = {k: verdicts[k] for k in CERT_REF_KEYS}
        ref.update(status=nd["status"], certified_degrees=nd["certified_degrees"])
        return nd["status"], ref, problems

    return Op(label, run, check)


def classify_op(label: str, path: Path, obj: dict, expect: str) -> Op:
    def run():
        return nondeg.classify(tensors.read_tensor(str(path)), nondeg.DEFAULT_BUDGET)

    def check(verdict):
        problems = _verdict_problems(verdict.status, expect, obj,
                                     verdict.witness_h, verdict.witness_v, verdict.witness_field)
        degrees = list(verdict.certified_degrees) if verdict.certified_degrees else None
        return verdict.status, {"status": verdict.status, "certified_degrees": degrees}, problems

    return Op(label, run, check)


def _csv_rows(path: Path) -> list[str]:
    # the "#" line echoes the configuration, which is not a mathematical output
    return [r for r in path.read_text().splitlines() if not r.startswith("#")]


def lines_op(label: str, path: Path, count: int, seed: str) -> Op:
    out = path.with_suffix(f".lines-{seed}.csv")
    argv = ["table", "lines", "--tensor", str(path), "--count", str(count),
            "--seed", seed, "--out", str(out)]

    def run():
        out.unlink(missing_ok=True)
        return cli.main(argv)

    def check(rc):
        problems = [] if rc == 0 else [f"exit code {rc}"]
        if not out.exists():
            return None, None, problems + ["no table written"]
        rows = _csv_rows(out)
        if len(rows) != count + 1:
            problems.append(f"{len(rows) - 1} lines, asked for {count}")
        for row in rows[1:]:
            _plucker, a, h0, det = row.split(",")
            a, h0 = int(a), int(h0)
            if h0 != max(2, a + 1):
                problems.append(f"h0 {h0} with splitting order {a}")
            if (a >= 1) != (Fraction(det) == 0):
                problems.append(f"splitting order {a} with det {det}")
        return None, {"rows": rows}, problems

    return Op(label, run, check)


def pencil_op(label: str, path: Path, n: int, p: int, seed: str) -> Op:
    out = path.with_suffix(f".pencil-{seed}.csv")
    argv = ["table", "pencil", "--tensor", str(path), "--seed", seed, "--out", str(out)]

    def run():
        out.unlink(missing_ok=True)
        return cli.main(argv)

    def check(rc):
        problems = [] if rc == 0 else [f"exit code {rc}"]
        if not out.exists():
            return None, None, problems + ["no table written"]
        rows = _csv_rows(out)
        table = [r.split(",") for r in rows[1:]]
        values = {k: v for k, v in table}
        coeffs = [int(v) for k, v in table if k.startswith("coeff_")]
        roots = [int(v) for k, v in table if k == "root"]
        orders = [int(v) for k, v in table if k == "order_at_root"]
        degree = int(values["degree"])
        if degree > n or len(coeffs) != degree + 1:
            problems.append(f"degree {degree} with {len(coeffs)} coefficients, n = {n}")
        for r in roots:
            if sum(c * pow(r, i, p) for i, c in enumerate(coeffs)) % p:
                problems.append(f"root {r} is not a zero of the pencil determinant")
        # a root has det = 0, so its line jumps
        if len(orders) != len(roots) or any(a < 1 for a in orders):
            problems.append(f"splitting orders {orders} at roots {roots}")
        if coeffs and degree - len(roots) != int(values["residual_degree"]):
            problems.append("root count and residual degree disagree with the degree")
        return None, {"rows": rows}, problems

    return Op(label, run, check)


# -- workloads -------------------------------------------------------------------

CHAIN_INPUTS = 2


def setup_certify_chains(seed: int, work: Path) -> list[Op]:
    ops = []
    for i in range(CHAIN_INPUTS):
        path = work / f"chain{i}.json"
        obj = _write(families.sample_instanton(5, 2, GF32003, (seed, i)), path)
        ops.append(certify_op(f"chain{i}", path, obj, [], CERTIFIED))
    return ops


# Placed witnesses sit at scan position PLACE_AT plus a seeded offset below
# PLACE_WINDOW.  Scan cost grows with the position, so a narrow window keeps
# the cost of the placed ops the same on every seed.
PLACED = (("placed-n3-a", 3), ("placed-n3-b", 3), ("placed-n4-a", 4), ("placed-n4-b", 4))
PLACE_AT = 1024
PLACE_WINDOW = 32
# DEFAULT_BUDGET.point_cap when the benchmark was written; a program that
# scans fewer points fails the placed ops instead of changing their inputs
SCAN_CAP = 4096


def scan_point(n: int, index: int) -> list[int]:
    """Point `index` of the witness scan over GF(p): the n basis vectors come
    first, then [1, 0, ..., 0, k] for k = 1, 2, ... (the start of the
    leading-one chart in lexicographic order)."""
    if not n <= index < min(SCAN_CAP, GF32003.p + n - 1):
        raise SetupError(f"scan position {index} is not inside the scan's cap")
    return [1] + [0] * (n - 2) + [index - n + 1]


def _in_scan_prefix(point: list[int]) -> bool:
    """True for every point the scan reaches before leaving the [1,0,..,0,k] line."""
    nonzero = [i for i, x in enumerate(point) if x]
    return len(nonzero) == 1 or nonzero == [0, len(point) - 1]


def degenerate_with_witness(n: int, point: list[int], st: Stream):
    """degenerate_rank6 (+) sample_full(n - 2), conjugated by a seeded g that
    moves the rank-6 summand's witness h = e_0, v = e_0 to h = point."""
    f = GF32003
    base = tensors.block_sum(families.degenerate_rank6(f),
                             families.sample_full(n - 2, f, st.next_u64()))
    while True:
        # g^{-1} has `point` as its first column, so g maps `point` to e_0
        cols = [point] + [st.next_vector(f, n) for _ in range(n - 1)]
        g_inv = Mat.from_rows(f, [list(r) for r in zip(*cols)], n)
        if g_inv.rank() == n:
            return base.conjugate(g_inv.inverse())


def setup_verdicts(seed: int, work: Path) -> list[Op]:
    e0 = [1, 0, 0, 0]
    ops = []
    for label, n in PLACED:
        st = Stream("perfbench-placed", seed, label)
        point = scan_point(n, PLACE_AT + st.next_below(PLACE_WINDOW))
        path = work / f"{label}.json"
        obj = _write(degenerate_with_witness(n, point, st), path)
        if any(contraction(obj, point, e0)):
            raise SetupError(f"placed point {point} is not a witness of {path.name}")
        ops.append(classify_op(label, path, obj, DEGENERATE))
    st = Stream("perfbench-hidden", seed, 3)
    while True:
        point = st.next_vector(GF32003, 3)
        if any(point) and not _in_scan_prefix(point):
            break
    path = work / "hidden-n3.json"
    obj = _write(degenerate_with_witness(3, point, st), path)
    if any(contraction(obj, point, e0)):
        raise SetupError(f"hidden point {point} is not a witness of {path.name}")
    # degenerate, but no certificate piece can close and the scan cannot
    # reach the witness: the honest verdict is unknown
    ops.append(classify_op("hidden-n3", path, obj, UNKNOWN))
    return ops


# (label, n, lines per op): fewer lines where n is larger and each line costs
# more, so that every lines op takes about the same time
LINES_INPUTS = (("inst2", 2, 24), ("inst3", 3, 12), ("inst4", 4, 6), ("inst5", 5, 4),
                ("thooft4", 4, 6), ("thooft5", 5, 4))
LINES_SEEDS_PER_INPUT = 2


def setup_lines(seed: int, work: Path) -> list[Op]:
    # The sampled instantons come from a fixed sampler seed per n: their
    # rejection sampling takes 6 to 18 draws depending on the seed, which
    # would make setup_s spread by about its bound.  The workload seed picks
    # the 't Hooft tensors, the lines of each table and the pencils.
    f = GF32003
    ops = []
    for label, n, count in LINES_INPUTS:
        t = (families.thooft_tensor(n, f, seed) if label.startswith("thooft")
             else families.sample_instanton(n, 2, f, ("lines", n)))
        path = work / f"{label}.json"
        _write(t, path)
        for s in range(LINES_SEEDS_PER_INPUT):
            ops.append(lines_op(f"lines-{label}-{s}", path, count, f"{seed}.{s}"))
        ops.append(pencil_op(f"pencil-{label}", path, n, f.p, str(seed)))
    return ops


def setup_rational(seed: int, work: Path) -> list[Op]:
    # The cost of an n=2 op depends on the sampled entries; three of them put
    # the cycle's median op at the median of three samples, not at one.
    # thooft_tensor(4, QQ) is left out: at several seconds per op it would
    # cut the cycles per run, and so the repeats each op's best time rests on.
    inputs = (
        *((f"full2-{s}", lambda s=s: families.sample_full(2, QQ, (seed, "rational", 2, s)),
           CERTIFIED) for s in "abc"),
        ("full3", lambda: families.sample_full(3, QQ, (seed, "rational", 3)), CERTIFIED),
        ("thooft3", lambda: families.thooft_tensor(3, QQ, seed), CERTIFIED),
        ("rank6", lambda: families.degenerate_rank6(QQ), DEGENERATE),
        ("nc", lambda: families.nc_tensor(QQ), CERTIFIED),
    )
    ops = []
    for label, make, expect in inputs:
        path = work / f"q-{label}.json"
        obj = _write(make(), path)
        ops.append(certify_op(label, path, obj, ["--field", "rational"], expect))
    return ops


WORKLOADS = {
    "certify-chains": setup_certify_chains,
    "verdicts": setup_verdicts,
    "lines": setup_lines,
    "rational": setup_rational,
}
