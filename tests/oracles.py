"""Reference computations kept only to cross-check the package.

`witness_search_by_loops` is the witness scan with every contraction of
the flattening written out as a loop over its entries: the same point
enumeration, the same partner (the first kernel basis vector of the
contraction) and the same lift for rational tensors (from the first prime
from 311 on that divides no denominator) as `nondeg.witness_search`, which
does the contractions with Kronecker products instead, and contracts with
the flattening itself only the points that a fixed sketch of it leaves:
on a run of points along one line, the roots of the sketched contraction's
determinant along the line, elsewhere the points whose sketched
contraction is not of full rank.  This oracle contracts and ranks every
point, so it shares neither screen.

`classify_scan_first` decides with the whole witness scan before any
certificate piece: the rank bound, then the loop scan above, then the
schedule in order.  `nondeg.classify` builds cheap pieces before most of the
scan; since a closed piece proves that no witness exists, both give the
same verdict, closing bidegree and witness.

`spanning_set` is the explicit spanning set of a bigraded piece of the
ideal of the 4n bilinear generator forms: every product of a monomial of
degree d - 1 in H*, a monomial of degree e - 1 in V* and a generator, one
row each; `piece_rank_by_spanning_set` ranks it in one elimination.
`nondeg.SpanningCertifier` keeps each piece as a basis of its annihilator
instead, found from the lower piece's annihilator without the spanning set
(Macaulay's inverse systems): its rows must kill every row of the spanning
set and be independent, and its rank is the columns minus their number.

`splitting_order_by_generators` is the general section-module computation of
the splitting order of E_L = O(a) (+) O(-a) on a line L: the display is
restricted to L, the section spaces M_d of E_L(d) are computed for
d = 0..n, and a is the largest d at which multiplication by the line's two
coordinates fails to generate M_d from M_(d-1) (a fresh minimal generator of
the section module), 0 when no failure occurs.  It is far slower than the
corank formula in `geometry.splitting_orders` and shares nothing with it but
the display.

`line_by_elimination` and `line_invariants_by_line` are the per-line path
the lines table took before it was batched: the point space U is reduced
from the two points, the equation space W is U's kernel and the Pluecker
vector is that of U's reduced basis; the splitting order is n minus the
rank of the line's contracted quadric, h0 the dimension of the Zassenhaus
intersection N meet (H* (x) W), and the determinant the quadric's own
forward elimination.  `geometry.line_through` divides the Pluecker vector of
the two points by its first nonzero coordinate, and
`geometry.line_invariants` ranks all of a table's lines in two
eliminations, taking h0 from the two points themselves.

`skew_h_slots` places the coefficients of wedge^2 H* (x) S^2 V*, the
summand of the skew forms on H (x) V that no tensor flattens to, as
`bases.form_slots` places those of S^2 H* (x) wedge^2 V*.  `sigma_pattern`
fills them with unknowns, and `skew_h_flatten` builds the forms that
`tensors.unflatten` must refuse.

`h0_on_plane` is h0 of E restricted to the plane z = 0, the Zassenhaus
intersection N meet (H* (x) <z>); the package computes h0 on lines only.

`rref_dense` is Gauss-Jordan elimination mod p over every column of an int64
matrix, one pivot at a time.  `linalg._np_rref` first peels off rows with a
single nonzero entry and runs the same loop on what is left; the reduced
row-echelon form is unique, so both return the same array and pivots.

`sigma_kernel_dim_by_slots`, `gamma_kernel_dim_by_slots` and
`tangent_dim_full_skew` are the kernel systems the certificate once built
for itself.  The sigma system fills the flattening slots of each unknown in
wedge^2 H (x) S^2 V against the basis of N; `monads.sigma_kernel_dim` takes
the cokernel of d1 of the symmetric-square complex, whose matrix is minus
the transpose of that system.  The gamma system puts each unknown in
H-bar (x) S^2 V at its S^2 V pairs against umat; `Monad.h_values(1)` reads
its dimension as h1 at twist 1, the cokernel of alpha(1), its transpose.  The full-skew tangent system
asks all skew forms on H (x) V to vanish on the kernel K of the flattening;
restriction to K is onto wedge^2 K*, so the certificate reports
`bases.full_skew_tangent_dim` instead.

`has_monic_factor_by_search` decides whether a monic polynomial over GF(p)
is reducible by trial division by every monic polynomial of degree 1 up to
half its own; `fields._find_irreducible` uses Rabin's test instead.

`is_prime_by_trial_division` divides by every odd number up to the square
root; `fields.is_prime` is a deterministic Miller-Rabin test.

`roots_by_scan` tries every candidate root in turn: every element of a finite
field (GF(p) by one vectorized Horner pass over all p residues) and, over Q,
0 and then +-a/b for b dividing the leading and a the lowest nonzero
coefficient of the integer form, by b and then a, each divisor found by
trial division.  `polys.roots` takes the distinct roots from gcd(f, x^q - x)
over GF(q), and over Q from roots mod one prime lifted by Newton's
iteration; both divide each root out as often as it divides.

`coh_rows_every_twist` is the cohomology table of a display with alpha and
beta gathered and ranked at every twist.  `Monad.h_values`, which
`monads.coh_table` walks upward, takes alpha's rank to be its row count
above a twist d0 >= 0 where alpha is onto, since im alpha(d+1) is
S^1 . im alpha(d) there, and beta's rank to be its column count at every
twist d >= d0 but 1, since beta = phi o alpha* is then injective at every
point, and so on sections.

`find_xi_by_rank` is the hyperplane search that tests each drawn xi by the
rank of the restricted tensor and takes h1 at twist 1 from the gamma system
of that tensor's own display.  `certify.find_xi` tests h0 at twist 0 of the
display restricted to ker(xi) instead, whose h1 at twist 1 it reads next:
h0 there is dim N meet (xi (x) V*), which is 0 exactly when the rank is kept.

`s2_is_complex_dense` is the check that the symmetric-square complex is a
complex by the dense product d1 @ d0 over the display's field, and
`s2_cohomology_by_fractions` the triple from d0 and d1 gathered over the
display's field, checked so and ranked there by `Mat.rank`; `d0_rank_whole`
is that rank of the whole d0.  `monads.s2_cohomology` forms only the
products of nonzero entries, through `Mat.annihilates`, ranks d0 on a
display built from N as m(m + 1)/2 plus the rank of its H (x) H* part in
the quotient by the image of S^2 N (`monads._d0_rank`), and over Q it
gathers, checks and ranks d0 and d1 on the int64 residues of integer
multiples of umat and wmat, mod as many primes as the height of the
product asks for.

`projective_points_by_filter` is the point enumerator that tests every chart
point's tail for zero and drops the zero tails, whose points are basis
vectors.  `Mat.projective_points` builds points start .. stop - 1 by index
arithmetic instead: a chart's point t >= 1 has the digits of t for its tail,
and t = 0 is the zero tail because every field lists zero first.

`sample_matrix` is not an oracle: it is the seeded matrix that tests draw
their inputs from.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, islice

import math

import numpy as np

from instantons.bases import (
    hv_index,
    mono_mul,
    monomial_index_map,
    monomials,
    skew_pairs,
    sym_pairs,
)
from instantons.certify import XI_TRIALS
from instantons.fields import QQ, ExtensionField, PrimeField, is_prime
from instantons.geometry import plucker_of_span
from instantons.linalg import Mat, Pattern, Stream, Subspace, kron
from instantons.monads import Monad, MonadError, _s2_maps, build_monad
from instantons.polys import divmod_poly, evaluate, trim
from instantons.nondeg import (
    DEFAULT_BUDGET,
    FIELD_SIZE_CAP,
    SpanningCertifier,
    Verdict,
)
from instantons.tensors import OmegaTensor


def _contract_side(m: Mat, n: int, point: list, scan_h: bool, fld) -> Mat:
    """Columns of the flattening contracted against a fixed h or fixed v."""
    cols = 4 if scan_h else n
    rows = []
    for i in range(m.nrows):
        mrow = m.row(i)
        out = []
        for c in range(cols):
            acc = fld.zero()
            if scan_h:
                for a in range(n):
                    acc = fld.add(acc, fld.mul(point[a], mrow[hv_index(a, c)]))
            else:
                for k in range(4):
                    acc = fld.add(acc, fld.mul(point[k], mrow[hv_index(c, k)]))
            out.append(acc)
        rows.append(out)
    return Mat.from_rows(fld, rows, cols)


def verify_witness(m: Mat, n: int, h: list, v: list, fld) -> bool:
    for i in range(m.nrows):
        mrow = m.row(i)
        acc = fld.zero()
        for a in range(n):
            for k in range(4):
                acc = fld.add(acc, fld.mul(h[a], fld.mul(v[k], mrow[hv_index(a, k)])))
        if not fld.is_zero(acc):
            return False
    return True


def scan_by_loops(m: Mat, n: int, fld, point_cap: int, start: int = 0, points=None):
    """(index, h, v) for each point of the scanned side, from index start up
    to point_cap, whose contraction has a kernel; the partner is its first
    kernel vector.  Each point visited is counted in points[fld.spec_str()]."""
    scan_h = n <= 4
    points = {} if points is None else points
    todo = islice(projective_points_by_filter(fld, n if scan_h else 4, point_cap), start, None)
    for i, point in enumerate(todo, start):
        points[fld.spec_str()] = points.get(fld.spec_str(), 0) + 1
        ker = _contract_side(m, n, point, scan_h, fld).kernel()
        if ker.dim > 0:
            partner = ker.basis.row(0)
            yield (i, point, partner) if scan_h else (i, partner, point)


def witness_search_by_loops(omega, max_ext_degree=1, point_cap=4096, points=None):
    """Reference for `nondeg.witness_search`, with the same arguments: the
    points scanned in each field are added to points.  The lifted scan of a
    rational tensor begins after the basis points, as there."""
    n, base = omega.n, omega.field
    m_base = omega.flatten()
    degrees = range(1, max_ext_degree + 1) if base.kind == "prime" else [1]
    for j in degrees:
        fld = base
        if base.kind == "prime":
            if j > 1 and base.p**j > FIELD_SIZE_CAP:
                break
            if j > 1:
                fld = ExtensionField(base.p, j)
        m = m_base
        if fld != base:
            m = Mat.from_rows(fld, m_base.rows(), m.ncols)
        for _i, h, v in scan_by_loops(m, n, fld, point_cap, points=points):
            assert verify_witness(m, n, h, v, fld)
            return h, v, fld
    if base.kind != "rational" or min(n, 4) >= point_cap:
        return None
    # the first prime from 311 on that divides no denominator
    dens = {Fraction(x).denominator for r in m_base.rows() for x in r}
    p = 311
    while not is_prime(p) or any(d % p == 0 for d in dens):
        p += 1
    aux = PrimeField(p)
    rows = [[Fraction(x).numerator * pow(Fraction(x).denominator, -1, p) for x in r]
            for r in m_base.rows()]
    m_p = Mat.from_rows(aux, rows, m_base.ncols)

    def centered(x: int) -> Fraction:
        return Fraction(x - aux.p if x > aux.p // 2 else x)

    for _i, h_p, v_p in scan_by_loops(m_p, n, aux, point_cap, min(n, 4), points):
        h = [centered(x) for x in h_p]
        v = [centered(x) for x in v_p]
        if any(h) and any(v) and verify_witness(m_base, n, h, v, base):
            return h, v, base
    return None


def classify_scan_first(omega, budget=DEFAULT_BUDGET) -> Verdict:
    """Reference for the status, closing bidegree and witness of `nondeg.classify`."""
    n, rank = omega.n, omega.rank()

    def degenerate(w, reason):
        h, v, fld = w
        return Verdict("degenerate", witness_h=[fld.to_str(x) for x in h],
                       witness_v=[fld.to_str(x) for x in v], witness_field=fld.spec_str(),
                       reason=reason)

    if rank <= 2 * n:
        w = witness_search_by_loops(omega, 1, min(budget.point_cap, 512))
        if w is not None:
            return degenerate(w, f"rank {rank} <= 2n")
        return Verdict("degenerate", reason=f"rank {rank} <= 2n (stratum bound)")
    w = witness_search_by_loops(omega, budget.max_ext_degree, budget.point_cap)
    if w is not None:
        return degenerate(w, "witness found by scan")
    cert = SpanningCertifier(omega)
    for d, e in budget.schedule:
        if cert.closes(d, e):
            return Verdict("certified-nondegenerate", certified_degrees=(d, e),
                           reason=f"ideal piece ({d},{e}) is full")
    return Verdict("unknown", reason="budget exhausted")


def spanning_set_cells(n: int, d: int, e: int) -> int:
    """Entries of the explicit spanning set of the (d, e) piece."""
    rows = 4 * n * len(monomials(n, d - 1)) * len(monomials(4, e - 1))
    return rows * len(monomials(n, d)) * len(monomials(4, e))


def spanning_set(omega, d: int, e: int) -> Mat:
    """The explicit spanning set of the (d, e) piece, one product per row."""
    f, n = omega.field, omega.n
    gens = omega.flatten().transpose()  # row c: the form sum m[4a+k, c] x_a y_k
    idx_h, idx_v = monomial_index_map(n, d), monomial_index_map(4, e)
    rows = []
    for c in range(gens.nrows):
        g = gens.row(c)
        for mh in monomials(n, d - 1):
            for mv in monomials(4, e - 1):
                out = [f.zero()] * (len(idx_h) * len(idx_v))
                for a in range(n):
                    for k in range(4):
                        pos = idx_h[mono_mul(mh, a)] * len(idx_v) + idx_v[mono_mul(mv, k)]
                        out[pos] = f.add(out[pos], g[hv_index(a, k)])
                rows.append(out)
    return Mat.from_rows(f, rows, len(idx_h) * len(idx_v))


def piece_rank_by_spanning_set(omega, d: int, e: int) -> int:
    """Rank of the (d, e) piece from its explicit spanning set."""
    return spanning_set(omega, d, e).rank()


def _graded_on_line(field, coef, n_out: int, n_in: int, d: int) -> Mat:
    """Sections map (n_in copies of S^d) -> (n_out copies of S^(d+1)) on a line.

    coef(o, i, rv) is the coefficient of the line coordinate rv in the
    fiberwise map from input block i to output block o.
    """
    src_mon = monomials(2, d)
    tgt_idx = monomial_index_map(2, d + 1)
    src_count, tgt_count = len(src_mon), len(tgt_idx)
    ncols = n_in * src_count
    rows = [[field.zero()] * ncols for _ in range(n_out * tgt_count)]
    for o in range(n_out):
        for i in range(n_in):
            for rv in range(2):
                c = coef(o, i, rv)
                if field.is_zero(c):
                    continue
                for mi, mono in enumerate(src_mon):
                    r, col = o * tgt_count + tgt_idx[mono_mul(mono, rv)], i * src_count + mi
                    rows[r][col] = field.add(rows[r][col], c)
    return Mat.from_rows(field, rows, ncols)


def _restricted_maps(m: Monad, points: list, d: int) -> tuple[Mat, Mat]:
    """(alpha_d, beta_d) of the display restricted to the line through the
    two points: each x_k is replaced by its linear form in the line's two
    coordinates."""
    f = m.umat.field
    subs, umat, wmat = Mat.from_rows(f, points, 4).rows(), m.umat.rows(), m.wmat.rows()

    def on_line(entry, rv):
        acc = f.zero()
        for k in range(4):
            acc = f.add(acc, f.mul(entry(k), subs[rv][k]))
        return acc

    alpha = _graded_on_line(
        f, lambda a, s, rv: on_line(lambda k: umat[hv_index(a, k)][s], rv), m.nH, m.m, d
    )
    beta = _graded_on_line(
        f, lambda s, a, rv: on_line(lambda k: wmat[s][hv_index(a, k)], rv), m.m, m.nH, d - 1
    )
    return alpha, beta


def splitting_order_by_generators(m: Monad, points: list) -> int:
    """Splitting order from minimal generators of the restricted section module."""
    if m.r != 2:
        raise MonadError("splitting order is defined for rank-2 displays only")
    f, n = m.umat.field, m.nH
    kers: dict[int, Subspace] = {}
    betas: dict[int, Mat] = {}
    for d in range(0, n + 1):
        alpha, betas[d] = _restricted_maps(m, points, d)
        kers[d] = alpha.kernel()
    order = 0
    for d in range(1, n + 1):
        prev, cur = kers[d - 1], kers[d]
        src_mon = monomials(2, d - 1)
        tgt_idx = monomial_index_map(2, d)
        count_prev, count_cur = len(src_mon), len(tgt_idx)
        rows = betas[d].transpose().rows()
        for t in range(prev.dim):
            vec = prev.basis.row(t)
            for var in (0, 1):
                out = [f.zero()] * (m.m * count_cur)
                for s in range(m.m):
                    for mi, mono in enumerate(src_mon):
                        c = vec[s * count_prev + mi]
                        if not f.is_zero(c):
                            pos = s * count_cur + tgt_idx[mono_mul(mono, var)]
                            out[pos] = f.add(out[pos], c)
                rows.append(out)
        generated = Subspace.from_spanning(Mat.from_rows(f, rows, m.m * count_cur))
        # the generated space sits inside ker alpha_d; strictness means a new
        # generator of the section module in degree d
        if generated.dim < cur.dim:
            order = d
    return order


def line_by_elimination(field, u0: list, u1: list) -> tuple[Subspace, Subspace, list]:
    """(U, W, Pluecker vector) of the line through two points, with the
    point space U and the equation space W found by elimination."""
    U = Subspace.from_spanning(Mat.from_rows(field, [u0, u1], 4))
    if U.dim != 2:
        raise ValueError("points are proportional")
    return U, U.basis.kernel(), plucker_of_span(field, U.basis.row(0), U.basis.row(1))


def line_invariants_by_line(omega, u0: list, u1: list) -> tuple:
    """(splitting order, h0, det w(lambda)) of the line through two points,
    each by its own elimination."""
    f, n = omega.field, omega.n
    m = build_monad(omega)
    if m.r != 2:
        raise MonadError("splitting order is defined for rank-2 displays only")
    _U, W, plucker = line_by_elimination(f, u0, u1)
    quadric = omega.contract_line(plucker)
    h_star_w = Subspace.from_spanning(kron(Mat.identity(f, n), W.basis))
    return n - quadric.rank(), omega.image().intersect(h_star_w).dim, quadric.det()


def h0_on_plane(omega, z: list) -> int:
    """h0 of E restricted to the plane z = 0 of P(V): dim N meet (H* (x) <z>)."""
    f = omega.field
    h_star_z = Subspace.from_spanning(kron(Mat.identity(f, omega.n), Mat.from_rows(f, [z], 4)))
    return omega.image().intersect(h_star_z).dim


def rref_dense(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reference for `linalg._np_rref`: the dense loop over every column."""
    a = np.mod(a, p).astype(np.int64, copy=True)
    nrows, ncols = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
        inv = pow(int(a[r, c]), -1, p)
        a[r] = a[r] * inv % p
        col = a[:, c].copy()
        col[r] = 0
        rows = np.nonzero(col)[0]
        if rows.size:
            a[rows] = (a[rows] - np.outer(col[rows], a[r])) % p
        pivots.append(c)
        r += 1
    return a, pivots


def projective_points_by_filter(field, dim: int, cap: int):
    """Reference for `Mat.projective_points`, testing each tail for zero."""
    one, zero = field.one(), field.zero()
    basis = ([one if j == i else zero for j in range(dim)] for i in range(dim))

    def vals():
        if field.kind == "rational":
            return [Fraction(x) for x in (0, 1, -1, 2, -2)]
        return field.elements()

    def tails(k):
        """product(vals(), repeat=k), drawn lazily: the elements of a large
        field are never listed."""
        if k == 0:
            yield ()
            return
        for x in vals():
            for rest in tails(k - 1):
                yield (x, *rest)

    def charts():
        for lead in range(dim):
            for tail in tails(dim - lead - 1):
                if not all(field.is_zero(x) for x in tail):
                    yield [zero] * lead + [one, *tail]

    return islice(chain(basis, charts()), cap)


def skew_h_slots(n: int) -> list[tuple[int, int, int, int, int]]:
    """Where the coefficient c at (H pair p = (i < j), V pair q = (k <= l))
    of wedge^2 H* (x) S^2 V* sits in a 4n x 4n skew matrix: +c at
    ((i,k), (j,l)), and at the entries with i, j or k, l swapped c times the
    sign of the swap (-1 for i, j); an entry reached twice is filled once.
    Returned as (row, col, p, q, sign)."""
    out = []
    for p, (i, j) in enumerate(skew_pairs(n)):
        for q, (k, l) in enumerate(sym_pairs(4)):
            slots = {}
            for a, b, c, d, sign in ((i, j, k, l, 1), (j, i, k, l, -1),
                                     (i, j, l, k, 1), (j, i, l, k, -1)):
                slots.setdefault((hv_index(a, c), hv_index(b, d)), sign)
            out += [(r, c, p, q, sign) for (r, c), sign in slots.items()]
    return out


def skew_h_flatten(n: int, coeffs: Mat) -> Mat:
    """The 4n x 4n skew form of the coefficients of wedge^2 H* (x) S^2 V*:
    one row per pair i < j, one column per pair k <= l."""
    return coeffs.gather(Pattern((4 * n, 4 * n), (coeffs.nrows, 10), skew_h_slots(n)))


def sigma_pattern(dim_n: int, n: int) -> Pattern:
    """sigma o (inclusion of N), linear in the coordinates of sigma: the
    unknown (i < j, p <= q) fills the flattening slots (r, c) of
    wedge^2 H (x) S^2 V, so row s * 4n + r takes entry c of basis vector s."""
    slots = skew_h_slots(n)
    terms = ((s * 4 * n + r, p * 10 + q, s, c, sign)
             for s in range(dim_n) for r, c, p, q, sign in slots)
    return Pattern((dim_n * 4 * n, len(skew_pairs(n)) * 10), (dim_n, 4 * n), terms)


def sigma_kernel_dim_by_slots(omega) -> int:
    """Reference for `monads.sigma_kernel_dim`."""
    basis = omega.image().basis
    mat = basis.gather(sigma_pattern(basis.nrows, omega.n))
    return mat.ncols - mat.rank()


def gamma_pattern(nH: int, m: int) -> Pattern:
    """gamma o u, linear in gamma: the unknown (b, p <= q) is the entry
    (p, q) and (q, p) of Q_b, and (gamma o u)(nu_s)[k] is the sum over l of
    u[(b, l), s] Q_b[k, l]."""
    terms = ((s * 4 + k, b * 10 + ci, hv_index(b, l), s, 1)
             for b in range(nH) for ci, (p, q) in enumerate(sym_pairs(4))
             for k, l in {(p, q), (q, p)} for s in range(m))
    return Pattern((m * 4, nH * 10), (4 * nH, m), terms)


def gamma_kernel_dim_by_slots(monad: Monad) -> int:
    """Reference for `monads.gamma_kernel_dim`."""
    mat = monad.umat.gather(gamma_pattern(monad.nH, monad.m))
    return mat.ncols - mat.rank()


def tangent_dim_full_skew(omega) -> int:
    """dim of {tau skew on H (x) V : tau vanishes on K x K}, K the kernel of
    the flattening, by elimination; the skew unknown tau[al, be] = z sits at
    +z and at tau[be, al] = -z."""
    dim = 4 * omega.n
    kb = omega.flatten().kernel().basis
    kd = kb.nrows
    unknowns = skew_pairs(dim)
    slots = [(al, be, u, 1) for u, (al, be) in enumerate(unknowns)]
    slots += [(be, al, u, -1) for u, (al, be) in enumerate(unknowns)]
    terms = ((row, u, s * kd + t, x * dim + y, sign)
             for row, (s, t) in enumerate(skew_pairs(kd)) for x, y, u, sign in slots)
    pattern = Pattern((kd * (kd - 1) // 2, len(unknowns)), (kd * kd, dim * dim), terms)
    mat = kron(kb, kb).gather(pattern)
    return mat.ncols - mat.rank()


def has_monic_factor_by_search(f: tuple, p: int) -> bool:
    """Whether the monic f = (c0, ..., c_{k-1}, 1) over GF(p) has a monic
    factor of degree 1 .. k // 2, by dividing by each one."""
    k = len(f) - 1
    for d in range(1, k // 2 + 1):
        for idx in range(p**d):
            g = [idx // p**i % p for i in range(d)] + [1]
            rem = list(f)
            for shift in range(k - d, -1, -1):
                c = rem[shift + d]
                for i, gi in enumerate(g):
                    rem[shift + i] = (rem[shift + i] - c * gi) % p
            if not any(rem[:d]):
                return True
    return False


def is_prime_by_trial_division(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _divisors(n: int) -> list[int]:
    n, out, d = abs(n), [], 1
    while d * d <= n:
        if n % d == 0:
            out += [d, n // d] if d != n // d else [d]
        d += 1
    return sorted(out)


def _rational_root_candidates(coeffs: list):
    denom = math.lcm(*(Fraction(c).denominator for c in coeffs))
    ints = [int(Fraction(c) * denom) for c in coeffs]
    low = next(c for c in ints if c)
    yield Fraction(0)
    for b in _divisors(ints[-1]):
        for a in _divisors(low):
            yield Fraction(a, b)
            yield Fraction(-a, b)


def roots_by_scan(coeffs: list, field) -> tuple[list, list]:
    """Reference for `polys.roots`, for fields of order p < 2^31 and
    coefficients of small height."""
    coeffs = trim(coeffs, field)
    if field.kind == "prime":
        # Horner on all residues at once; every product stays below p^2 < 2^62
        xs, acc = np.arange(field.p, dtype=np.int64), np.zeros(field.p, dtype=np.int64)
        for c in reversed(coeffs):
            acc = (acc * xs + int(c)) % field.p
        candidates = [int(x) for x in np.nonzero(acc == 0)[0]]
    elif field.kind == "prime-extension":
        candidates = field.elements()
    else:
        candidates = _rational_root_candidates(coeffs)
    found, rest = [], coeffs
    for x in candidates:
        while len(rest) > 1 and field.is_zero(evaluate(rest, x, field)):
            found.append(x)
            rest = divmod_poly(rest, [field.neg(x), field.one()], field)[0]
    return found, rest


def coh_rows_every_twist(m: Monad, dmax: int) -> list[tuple[int, int, int]]:
    """Reference for the rows (d, h0, h1) of `monads.coh_table`, d = -2..dmax."""
    rows = []
    for d in range(-2, dmax + 1):
        a, b = m.alpha(d), m.beta(d)
        rank_a = a.rank()
        rows.append((d, a.ncols - rank_a - b.rank(), a.nrows - rank_a))
    return rows


def find_xi_by_rank(omega, seed=0) -> tuple[list, int, int, list[tuple[int, int]]]:
    """Reference for `certify.find_xi`, from the same stream of trials."""
    f, n = omega.field, omega.n
    rank = omega.rank()
    if rank > 4 * (n - 1):
        raise ValueError(f"rank {rank} exceeds 4(n - 1)")
    st = Stream("find_xi", f.spec_str(), n, seed)
    best, log = None, []
    for t in range(XI_TRIALS):
        xi = st.next_vector(f, n)
        if all(f.is_zero(x) for x in xi):
            continue
        restricted = omega.restrict_xi(xi)
        if restricted.rank() != rank:
            continue
        h1 = gamma_kernel_dim_by_slots(build_monad(restricted))
        log.append((t, h1))
        if best is None or h1 < best[1]:
            best = (xi, h1, t)
        if h1 == 0:
            break
    if best is None:
        raise RuntimeError(f"no rank-preserving hyperplane in {XI_TRIALS} trials")
    return best[0], best[1], best[2], log


def s2_is_complex_dense(m: Monad) -> bool:
    """Reference for the check in `monads.s2_cohomology` that d1 @ d0 = 0."""
    d0, d1 = _s2_maps(m.nH, m.umat, m.wmat)
    return (d1 @ d0).is_zero()


def d0_rank_whole(m: Monad) -> int:
    """Reference for `monads._d0_rank`: the rank of the whole d0, gathered
    over the display's field."""
    return _s2_maps(m.nH, m.umat, m.wmat)[0].rank()


def s2_cohomology_by_fractions(m: Monad) -> tuple[int, int, int]:
    """Reference for `monads.s2_cohomology`: (h0, h1, h2) from d0 and d1
    gathered over the display's field, checked by their dense product."""
    if not s2_is_complex_dense(m):
        raise AssertionError("symmetric-square complex is not a complex")
    d0, d1 = _s2_maps(m.nH, m.umat, m.wmat)
    rank0, rank1 = d0_rank_whole(m), d1.rank()
    return d0.ncols - rank0, d0.nrows - rank1 - rank0, d1.nrows - rank1


def beyond_small_height_q() -> OmegaTensor:
    """A frozen rank-6 rational tensor built to vanish at h = (1, 7),
    v = (1, 3, 0, 5): a witness beyond the small-height direct scan, found
    by the scan mod the auxiliary prime and lifted."""
    coeffs = [
        "1", "2", "15", "12", "-2", "-9", "5", "14", "-183/35", "17", "46/35",
        "538/35", "10", "14", "-1392/245", "12", "479/245", "2367/245",
    ]
    return OmegaTensor.from_vec(2, QQ, [Fraction(c) for c in coeffs])


def zero_tensor(n: int, field) -> OmegaTensor:
    """The zero tensor in S^2 H* (x) wedge^2 V*, dim H = n."""
    return OmegaTensor(n, field, Mat.zeros(field, n * (n + 1) // 2, 6))


def sample_matrix(rows: int, cols: int, field, seed) -> Mat:
    """Deterministic pseudo-random matrix; same (shape, field, seed) -> same Mat."""
    st = Stream("sample_matrix", field.spec_str(), rows, cols, seed)
    return Mat.from_rows(field, [st.next_vector(field, cols) for _ in range(rows)], cols)
