# The acceptance battery: one callable per criterion, each returning an
# exact pass/fail with the numbers that were checked.  Everything runs on
# fixed seeds over F_32003 by default; the rational audit re-runs the
# transcription-level criteria over Q and compares outcomes.

from __future__ import annotations

import sys
import time
from functools import cache

from .certify import find_xi, propagation_check, rank_preservation_checks
from .families import (
    RestrictedSumFamily,
    extend_affine,
    fiber_dim_check,
    nc_tensor,
    degenerate_rank6,
    sample_corank2,
    sample_full,
    sample_instanton,
    thooft_tensor,
)
from .fields import Field, PrimeField, QQ
from .geometry import (
    line_invariants,
    nc_quadric_ideal,
    pencil_jump_poly,
    random_lines,
    random_pencil,
    triple_span,
)
from .linalg import FieldTooSmall, Mat, Stream, Subspace, sample_invertible
from .monads import build_monad, restricted_monad, s2_cohomology, sigma_kernel_dim, tangent_dim
from .nondeg import DEFAULT_BUDGET, classify, witness_search
from .tensors import OmegaTensor, block_sum


CHAIN_COUNT = 20  # the (5,2) induction-chain tensors C4 and C11 check


@cache
def chain52(field: Field, seed: int) -> OmegaTensor:
    """The (5, 2) induction-chain tensor of seed, sampled once per field for
    the criteria that share it."""
    return sample_instanton(5, 2, field, ("suite", seed))


# -- criteria ----------------------------------------------------------------


def crit_transcription(f: Field) -> tuple[bool, dict]:
    """Rank-6 degenerate tensor: rank and the basis witness, exactly."""
    t = degenerate_rank6(f)
    rank = t.rank()
    w = witness_search(t)
    d = {"rank": rank, "witness_found": w is not None}
    ok = rank == 6 and w is not None
    if w is not None:
        h, v, fld = w
        one, zero = fld.one(), fld.zero()
        d["witness_is_e0_e0"] = h == [one, zero] and v == [one, zero, zero, zero]
        ok = ok and d["witness_is_e0_e0"]
        # exact re-contraction of the witness against the flattening
        col = t.flatten().take_cols([0])
        d["contraction_zero"] = col.is_zero()
        ok = ok and d["contraction_zero"]
    d["classified"] = classify(t).status
    ok = ok and d["classified"] == "degenerate"
    return ok, d


def crit_thooft(f: Field) -> tuple[bool, dict]:
    """Banded-net tensors: restriction along the published hyperplanes kills
    the gamma kernel (h1 of the restriction at twist 1 vanishes)."""
    d = {}
    ok = True
    for n, xi in ((4, [0, 1, 0, 0]), (5, [0, 0, 1, 0, 0])):
        t = thooft_tensor(n, f)
        xi_f = [f.of_int(x) for x in xi]
        gdim = restricted_monad(t, xi_f).h_values(1)[1]
        d[f"n{n}_rank"] = t.rank()
        d[f"n{n}_gamma_dim"] = gdim
        ok = ok and t.rank() == 2 * n + 2 and gdim == 0
    return ok, d


def _expected_ideal(field: Field, monos: list[dict]) -> Subspace:
    idx = [(0, 0), (0, 1), (0, 2), (0, 3), (1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3)]
    rows = []
    for spec in monos:
        v = [field.zero()] * 10
        for mono, c in spec.items():
            v[idx.index(mono)] = field.of_int(c)
        rows.append(v)
    return Subspace.from_spanning(Mat.from_rows(field, rows, 10))


def crit_quadric_ideals(f: Field) -> tuple[bool, dict]:
    """The two explicit 4-dimensional quadric ideals, and a searched triple
    spanning all ten quadrics."""
    one = f.one()
    z = f.zero()
    eta = [one, z, z, z, z, one]  # x0^x1 + x2^x3
    ideal_a = nc_quadric_ideal(f, eta, [f.of_int(2), z, z, z, z, f.of_int(5)])
    exp_a = _expected_ideal(f, [{(0, 2): 1}, {(0, 3): 1}, {(1, 2): 1}, {(1, 3): 1}])
    ideal_b = nc_quadric_ideal(f, eta, [z, z, z, z, one, z])  # alpha = x1^x3
    exp_b = _expected_ideal(f, [{(1, 1): 1}, {(1, 3): 1}, {(3, 3): 1}, {(0, 1): 1, (2, 3): 1}])
    d = {
        "pair_of_lines_dim": ideal_a.dim,
        "pair_of_lines_exact": ideal_a == exp_a,
        "double_line_dim": ideal_b.dim,
        "double_line_exact": ideal_b == exp_b,
    }
    st = Stream("triple_search", f.spec_str())
    found_at = None
    for trial in range(32):
        pairs = []
        while len(pairs) < 3:
            e = st.next_vector(f, 6)
            a = st.next_vector(f, 6)
            if nc_tensor(f, e).rank() == 4 and Mat.from_rows(f, [e, a], 6).rank() == 2:
                pairs.append((e, a))
        if triple_span(f, pairs):
            found_at = trial
            break
    d["triple_found_at"] = found_at
    ok = d["pair_of_lines_exact"] and d["double_line_exact"] and found_at is not None
    return ok, d


def crit_chains(f: Field) -> tuple[bool, dict]:
    """Twenty induction-chain tensors at (5, 2): rank, certification, the
    fixed cohomology table entries, and vanishing of h2 S^2."""
    per_seed = []
    ok = True
    for seed in range(CHAIN_COUNT):
        t = chain52(f, seed)
        m = build_monad(t)
        verdict = classify(t, DEFAULT_BUDGET)
        h_m1 = m.h_values(-1)
        h_0 = m.h_values(0)
        s2 = s2_cohomology(m)
        entry = {
            "seed": seed,
            "rank": t.rank(),
            "certified": verdict.is_certified,
            "h_E(-1)": h_m1,
            "h_E(0)": h_0,
            "left_defect": m.left_defect(),
            "s2": s2,
        }
        good = (
            t.rank() == 12
            and verdict.is_certified
            and h_m1 == (0, 5)
            and h_0 == (0, 8)
            and m.left_defect() == 0
            and s2[1] - s2[2] == 37
            and s2[2] == 0
        )
        entry["ok"] = good
        ok = ok and good
        per_seed.append(entry)
    return ok, {"samples": per_seed}


def crit_tangents(f: Field) -> tuple[bool, dict]:
    """Tangent dimensions of the rank strata hit their expected values on
    samples of the four stratum types."""
    cases = [
        ("M(2,2)", sample_corank2(2, f, ("tan", 0)), 17),
        ("M(3,4)", sample_corank2(3, f, ("tan", 1)), 35),
        ("M(4,4)", sample_instanton(4, 4, f, ("tan", 2)), 54),
        ("M(5,2)", chain52(f, 0), 62),
    ]
    st = Stream("tangents_affine", f.spec_str())
    base = sample_full(3, f, ("tan", 3))
    alpha = Mat.from_rows(f, [st.next_vector(f, 6) for _ in range(3)], 6)
    cases.append(("M(4,4)-affine", extend_affine(base, alpha), 54))
    d = {}
    ok = True
    for name, t, expected in cases:
        got = tangent_dim(t)
        d[name] = {"tangent": got, "expected": expected}
        ok = ok and got == expected
    return ok, d


def crit_corank2_smooth(f: Field) -> tuple[bool, dict]:
    """Sigma kernels vanish at twenty corank-2 points with n in {2, 3}."""
    dims = []
    ok = True
    for n in (2, 3):
        for seed in range(10):
            t = sample_corank2(n, f, ("smooth", n, seed))
            sdim = sigma_kernel_dim(t)
            dims.append({"n": n, "seed": seed, "sigma_dim": sdim})
            ok = ok and sdim == 0
    return ok, {"samples": dims}


def crit_equivalences(f: Field) -> tuple[bool, dict]:
    """Two hundred (tensor, hyperplane) pairs: the four rank-preservation
    tests agree in every single case, across preserving and dropping mixes."""
    st = Stream("equiv", f.spec_str())
    agree = 0
    preserve = 0
    drop = 0
    mismatches = []
    # preserving-heavy half: instanton samples with random hyperplanes
    tensors = [
        chain52(f, 0),
        chain52(f, 1),
        sample_instanton(4, 2, f, ("eq", 0)),
        sample_instanton(3, 2, f, ("eq", 1)),
    ]
    pairs = []
    for i in range(100):
        t = tensors[i % len(tensors)]
        xi = st.next_vector(f, t.n)
        if all(f.is_zero(x) for x in xi):
            xi[0] = f.one()
        pairs.append((t, xi))
    # dropping half: conjugated block sums with the transported bad hyperplane
    for i in range(100):
        n1 = 1 + (i % 2)
        a = nc_tensor(f, st.next_vector(f, 6)) if n1 == 1 else sample_corank2(2, f, ("eqd", i))
        if a.rank() not in (4, 6):
            a = nc_tensor(f)
        b = nc_tensor(f, st.next_vector(f, 6))
        if b.rank() != 4:
            b = nc_tensor(f)
        base = block_sum(a, b)
        g = sample_invertible(base.n, f, st.child("g", i))
        conj = base.conjugate(g)
        # e0* transported: xi'(h) = e0*(g h) is the first row of g
        xi = g.row(0)
        pairs.append((conj, xi))
    for t, xi in pairs:
        checks = rank_preservation_checks(t, xi)
        if all(checks):
            preserve += 1
        elif not any(checks):
            drop += 1
        if len(set(checks)) == 1:
            agree += 1
        else:
            mismatches.append({"n": t.n, "checks": list(checks)})
    d = {"pairs": len(pairs), "agree": agree, "preserving": preserve, "dropping": drop,
         "mismatches": mismatches}
    ok = agree == len(pairs) == 200 and preserve >= 30 and drop >= 30
    return ok, d


def crit_fiber_dims(f: Field) -> tuple[bool, dict]:
    """Extension-fiber dimension identity on twenty mixed bases, including
    the sum of two null-correlation tensors (value 12)."""
    bases: list[tuple[str, OmegaTensor]] = [
        ("two-nc", block_sum(nc_tensor(f), nc_tensor(f, [f.of_int(1), f.of_int(2), f.zero(), f.zero(), f.of_int(1), f.of_int(1)]))),
    ]
    for s in range(3):
        bases.append((f"full2-{s}", sample_full(2, f, ("fib", 2, s))))
        bases.append((f"full3-{s}", sample_full(3, f, ("fib", 3, s))))
        bases.append((f"full4-{s}", sample_full(4, f, ("fib", 4, s))))
        bases.append((f"corank2-2-{s}", sample_corank2(2, f, ("fib", 5, s))))
        bases.append((f"corank2-3-{s}", sample_corank2(3, f, ("fib", 6, s))))
        bases.append((f"chain44-{s}", sample_instanton(4, 4, f, ("fib", 7, s))))
    th4 = thooft_tensor(4, f)
    bases.append(("thooft4-restricted", th4.restrict_xi([f.zero(), f.one(), f.zero(), f.zero()])))
    per = []
    ok = True
    two_nc_value = None
    for name, t in bases[:20]:
        space, exp = fiber_dim_check(t)
        sol, eq = space.dim, space.dim == exp
        per.append({"base": name, "solution_dim": sol, "expected": exp, "equal": eq})
        if name == "two-nc":
            two_nc_value = sol
        ok = ok and eq
    ok = ok and two_nc_value == 12 and len(per) == 20
    return ok, {"bases": per}


def crit_affine_ext(f: Field) -> tuple[bool, dict]:
    """Affine extension: exact restriction round-trip, rank preservation,
    V-skewness of the corner block, and the 18-dimensional fibre."""
    st = Stream("affine", f.spec_str())
    per = []
    ok = True
    for b in range(4):
        base = sample_full(3, f, ("aff", b))
        space, exp = fiber_dim_check(base)
        sol = space.dim
        fibre_ok = sol == exp == 18
        for a in range(5):
            alpha = Mat.from_rows(f, [st.next_vector(f, 6) for _ in range(3)], 6)
            ext = extend_affine(base, alpha)
            xi = [f.one(), f.zero(), f.zero(), f.zero()]
            roundtrip = ext.restrict_xi(xi) == base
            rank_ok = ext.rank() == 12
            # corner block of the flattening must be skew on V
            corner = ext.flatten().take_rows([0, 1, 2, 3]).take_cols([0, 1, 2, 3])
            skew_ok = (corner + corner.transpose()).is_zero()
            good = roundtrip and rank_ok and skew_ok and fibre_ok
            per.append(
                {"base": b, "alpha": a, "roundtrip": roundtrip, "rank12": rank_ok,
                 "corner_skew": skew_ok, "fibre_dim": sol}
            )
            ok = ok and good
    return ok, {"pairs": per[:20], "count": len(per)}


def crit_family_scan(f: Field) -> tuple[bool, dict]:
    """Full parameter scan of the two-2-instanton degeneration family over
    F_31: rank 12 iff t0 t1 != 0, gamma kernel 0 on the punctured axes."""
    f31 = PrimeField(31)
    fam = RestrictedSumFamily(f31, seed=0)
    bad = []
    boundary_checked = 0
    for t0 in range(31):
        for t1 in range(31):
            t = fam.tensor(t0, t1)
            rank = t.rank()
            want12 = t0 != 0 and t1 != 0
            if (rank == 12) != want12:
                bad.append({"t": [t0, t1], "rank": rank})
                continue
            if (t0 == 0) != (t1 == 0):  # exactly one coordinate vanishes
                gdim = build_monad(t).h_values(1)[1]
                boundary_checked += 1
                if rank != 10 or gdim != 0:
                    bad.append({"t": [t0, t1], "rank": rank, "gamma": gdim})
    d = {"points": 31 * 31, "boundary_points": boundary_checked, "violations": bad}
    return not bad and boundary_checked == 60, d


def crit_xi_search(f: Field) -> tuple[bool, dict]:
    """Hyperplane search on the twenty chains: h1 of the restriction at
    twist 1 reaches <= 1 within 50 trials, and the vanishing-propagation
    inequality holds whenever h2 S^2 of the restriction vanishes."""
    per = []
    ok = True
    for seed in range(CHAIN_COUNT):
        t = chain52(f, seed)
        xi, h1, trial, _log = find_xi(t, seed=("xi", seed))
        rep = propagation_check(t, xi)
        entry = {"seed": seed, "h1_bar": h1, "trial": trial, **rep}
        good = h1 <= 1 and rep["inequality_holds"] and rep["implication_holds"]
        entry["ok"] = good
        per.append(entry)
        ok = ok and good
    return ok, {"samples": per}


def crit_geometry(f: Field) -> tuple[bool, dict]:
    """Ten rank-2 samples x fifty lines: order bounds, the section-count
    consistency h0 = max(2, a+1), order >= 1 iff the net determinant
    vanishes; plus pencil degrees n on >= 95% of draws."""
    samples = [
        sample_instanton(2, 2, f, ("geo", 0)),
        sample_instanton(2, 2, f, ("geo", 1)),
        sample_instanton(2, 2, f, ("geo", 2)),
        sample_instanton(3, 2, f, ("geo", 3)),
        sample_instanton(3, 2, f, ("geo", 4)),
        sample_instanton(3, 2, f, ("geo", 5)),
        sample_instanton(4, 2, f, ("geo", 6)),
        sample_instanton(4, 2, f, ("geo", 7)),
        chain52(f, 0),
        chain52(f, 1),
    ]
    st = Stream("geom_lines", f.spec_str())
    per_sample = []
    ok = True
    trivial = 0
    total_lines = 0
    pencil_generic = 0
    pencil_total = 0
    for idx, t in enumerate(samples):
        n = t.n
        lines = random_lines(f, st, 50)
        total_lines += len(lines)
        orders = []
        for a, h0, det in line_invariants(t, lines):
            jump_consistent = (a >= 1) == f.is_zero(det)
            in_range = 0 <= a <= n
            h_consistent = h0 == max(2, a + 1)
            if a == 0:
                trivial += 1
            if not (jump_consistent and in_range and h_consistent):
                ok = False
            orders.append({"order": a, "h0": h0, "det_zero": f.is_zero(det),
                           "ok": jump_consistent and in_range and h_consistent})
        degs = []
        for _ in range(2):
            poly = pencil_jump_poly(t, *random_pencil(f, st))
            degs.append(len(poly) - 1)
            pencil_total += 1
            if len(poly) - 1 == n:
                pencil_generic += 1
        per_sample.append({"n": n, "orders_ok": all(o["ok"] for o in orders),
                           "jumping": sum(1 for o in orders if o["order"] >= 1),
                           "pencil_degrees": degs})
    frac_trivial = trivial / total_lines
    frac_pencil = pencil_generic / pencil_total
    d = {"samples": per_sample, "trivial_fraction": frac_trivial,
         "pencil_generic_fraction": frac_pencil, "lines": total_lines}
    ok = ok and frac_trivial >= 0.95 and frac_pencil >= 0.95
    return ok, d


def crit_rational_audit(f: Field) -> tuple[bool, dict]:
    """Criteria 1-3 re-run over the exact rationals with identical outcomes."""
    d = {}
    ok = True
    for name, fn in (
        ("transcription", crit_transcription),
        ("thooft", crit_thooft),
        ("quadric_ideals", crit_quadric_ideals),
    ):
        passed_q, details_q = fn(QQ)
        passed_p, details_p = fn(f)
        same = passed_q and passed_p
        d[name] = {"rational_pass": passed_q, "prime_pass": passed_p}
        # outcome values that must match across the two fields
        if name == "transcription":
            same = same and details_q["rank"] == details_p["rank"] == 6
        if name == "thooft":
            same = same and all(
                details_q[k] == details_p[k] for k in ("n4_gamma_dim", "n5_gamma_dim")
            )
        if name == "quadric_ideals":
            same = same and details_q["pair_of_lines_dim"] == details_p["pair_of_lines_dim"] == 4
        ok = ok and same
    return ok, d


CRITERIA: list[tuple[str, str, str, callable]] = [
    ("C1", "transcription", "rank-6 degenerate tensor: rank and exact witness", crit_transcription),
    ("C2", "thooft", "banded-net restrictions have vanishing gamma kernel", crit_thooft),
    ("C3", "quadric-ideals", "explicit 4-dim quadric ideals and a spanning triple", crit_quadric_ideals),
    ("C4", "chains", "twenty (5,2) chains: rank, certificate, tables, h2 S^2 = 0", crit_chains),
    ("C5", "tangents", "stratum tangent dimensions 17/35/54/62", crit_tangents),
    ("C6", "corank2-smooth", "sigma kernel vanishes at twenty corank-2 points", crit_corank2_smooth),
    ("C7", "equivalences", "four-way rank-preservation agreement on 200 pairs", crit_equivalences),
    ("C8", "fiber-dims", "extension-fiber dimension identity on twenty bases", crit_fiber_dims),
    ("C9", "affine-ext", "affine extension round-trip, skew corner, 18-dim fibre", crit_affine_ext),
    ("C10", "family-scan", "degeneration family rank/gamma over all of F_31^2", crit_family_scan),
    ("C11", "xi-search", "hyperplane search reaches h1 <= 1; propagation bound", crit_xi_search),
    ("C12", "geometry", "splitting orders, section counts, nets of quadrics", crit_geometry),
    ("C13", "rational-audit", "criteria 1-3 over exact rationals, identical outcomes", crit_rational_audit),
]


# criteria that are meaningful over the rationals; the sampler-heavy ones
# are generic-rank statements pinned to the large-prime default field, and the
# rational audit compares Q with the prime field it runs over
RATIONAL_SAFE = {"transcription", "thooft", "quadric-ideals"}


def run_suite(field: Field, only: str | None = None) -> dict:
    """Run the acceptance battery, printing one line per criterion, with its
    wall-clock time, to stderr; returns a JSON-ready summary.  An only that
    selects no criterion run over field is a ValueError before any runs, and
    a field too small for a criterion's pencil (FieldTooSmall) is bad input,
    raised out of the battery rather than recorded as a failure."""
    runs = [c for c in CRITERIA if field.kind != "rational" or c[1] in RATIONAL_SAFE]
    chosen = [c for c in runs if not only or only in (c[1], c[0], c[0].lower())]
    if not chosen:
        names = ", ".join(f"{cid} ({tag})" for cid, tag, _desc, _fn in runs)
        raise ValueError(f"--only {only!r} selects no criterion that runs over "
                         f"{field.spec_str()}; expected one of {names}")
    criteria = []
    for cid, tag, desc, fn in chosen:
        t0 = time.time()
        try:
            passed, details = fn(field)
        except FieldTooSmall:
            raise
        except Exception as exc:  # a crash is a failure with a reason, not an abort
            passed, details = False, {"error": f"{type(exc).__name__}: {exc}"}
        mark = "PASS" if passed else "FAIL"
        print(f"{cid:<4} {tag:<16} {mark}  ({time.time() - t0:.1f}s)  {desc}", file=sys.stderr)
        criteria.append({"cid": cid, "tag": tag, "description": desc, "passed": passed,
                         "details": details})
    return {"field": field.spec_str(), "chain_count": CHAIN_COUNT,
            "passed": all(c["passed"] for c in criteria), "criteria": criteria}
