"""Reference computations kept only to cross-check the package.

`witness_search_by_loops` is the witness scan with every contraction of
the flattening written out as a loop over its entries: the same point
enumeration, the same partner (the first kernel basis vector of the
contraction) and the same mod-311 lift for rational tensors as
`nondeg.witness_search`, which does the contractions with Kronecker
products instead.

`piece_rank_by_spanning_set` is the rank of the explicit spanning set of a
bigraded piece of the ideal of the 4n bilinear generator forms: every
product of a monomial of degree d - 1 in H*, a monomial of degree e - 1 in
V* and a generator, ranked in one elimination.  `nondeg.SpanningCertifier`
builds the same piece incrementally from lower pieces.

`splitting_order_by_generators` is the general section-module computation of
the splitting order of E_L = O(a) (+) O(-a) on a line L: the display is
restricted to L, the section spaces M_d of E_L(d) are computed for
d = 0..n, and a is the largest d at which multiplication by the line's two
coordinates fails to generate M_d from M_(d-1) (a fresh minimal generator of
the section module), 0 when no failure occurs.  It is far slower than the
corank formula in `geometry.splitting_order` and shares nothing with it but
the display.
"""

from __future__ import annotations

from fractions import Fraction

from instantons.bases import hv_index, mono_mul, monomial_index_map, monomials
from instantons.fields import ExtensionField, PrimeField
from instantons.geometry import Line
from instantons.linalg import Mat, MatBuilder, Subspace
from instantons.monads import Monad, MonadError
from instantons.nondeg import projective_points


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


def _verify_witness(m: Mat, n: int, h: list, v: list, fld) -> bool:
    for i in range(m.nrows):
        mrow = m.row(i)
        acc = fld.zero()
        for a in range(n):
            for k in range(4):
                acc = fld.add(acc, fld.mul(h[a], fld.mul(v[k], mrow[hv_index(a, k)])))
        if not fld.is_zero(acc):
            return False
    return True


def _scan(m: Mat, n: int, fld, point_cap: int):
    scan_h = n <= 4
    for point in projective_points(fld, n if scan_h else 4, point_cap):
        ker = _contract_side(m, n, point, scan_h, fld).kernel()
        if ker.dim > 0:
            partner = ker.basis.row(0)
            yield (point, partner) if scan_h else (partner, point)


def witness_search_by_loops(omega, max_ext_degree=1, point_cap=4096, field_size_cap=1 << 20):
    """Reference for `nondeg.witness_search`, with the same arguments."""
    n, base = omega.n, omega.field
    m_base = omega.flatten().mat
    degrees = range(1, max_ext_degree + 1) if base.kind == "prime" else [1]
    for j in degrees:
        fld = base
        if base.kind == "prime":
            if base.p**j > field_size_cap:
                break
            if j > 1:
                fld = ExtensionField(base.p, j)
        m = m_base
        if fld != base:
            m = Mat.from_rows(fld, [[fld.embed(x) for x in r] for r in m_base.rows()], m.ncols)
        for h, v in _scan(m, n, fld, point_cap):
            assert _verify_witness(m, n, h, v, fld)
            return h, v, fld
    if base.kind != "rational":
        return None
    aux = PrimeField(311)
    rows = []
    for r in m_base.rows():
        if any(Fraction(x).denominator % aux.p == 0 for x in r):
            return None
        rows.append([Fraction(x).numerator * pow(Fraction(x).denominator, -1, aux.p) for x in r])
    m_p = Mat.from_rows(aux, rows, m_base.ncols)

    def centered(x: int) -> Fraction:
        return Fraction(x - aux.p if x > aux.p // 2 else x)

    for h_p, v_p in _scan(m_p, n, aux, point_cap):
        h = [centered(x) for x in h_p]
        v = [centered(x) for x in v_p]
        if any(h) and any(v) and _verify_witness(m_base, n, h, v, base):
            return h, v, base
    return None


def spanning_set_cells(n: int, d: int, e: int) -> int:
    """Entries of the explicit spanning set of the (d, e) piece."""
    rows = 4 * n * len(monomials(n, d - 1)) * len(monomials(4, e - 1))
    return rows * len(monomials(n, d)) * len(monomials(4, e))


def piece_rank_by_spanning_set(omega, d: int, e: int) -> int:
    """Rank of the (d, e) piece from its explicit spanning set."""
    f, n = omega.field, omega.n
    gens = omega.flatten().mat.transpose()  # row c: the form sum m[4a+k, c] x_a y_k
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
    return Mat.from_rows(f, rows, len(idx_h) * len(idx_v)).rank()


def _graded_on_line(field, coef, n_out: int, n_in: int, d: int) -> Mat:
    """Sections map (n_in copies of S^d) -> (n_out copies of S^(d+1)) on a line.

    coef(o, i, rv) is the coefficient of the line coordinate rv in the
    fiberwise map from input block i to output block o.
    """
    src_mon = monomials(2, d)
    tgt_idx = monomial_index_map(2, d + 1)
    src_count, tgt_count = len(src_mon), len(tgt_idx)
    b = MatBuilder(field, n_out * tgt_count, n_in * src_count)
    for o in range(n_out):
        for i in range(n_in):
            for rv in range(2):
                c = coef(o, i, rv)
                if field.is_zero(c):
                    continue
                for mi, mono in enumerate(src_mon):
                    b.add(o * tgt_count + tgt_idx[mono_mul(mono, rv)], i * src_count + mi, c)
    return b.build()


def _restricted_maps(m: Monad, line: Line, d: int) -> tuple[Mat, Mat]:
    """(alpha_d, beta_d) of the display restricted to the line: each x_k is
    replaced by its linear form in the two coordinates of the line."""
    f, subs = m.field, line.U.basis

    def on_line(entry, rv):
        acc = f.zero()
        for k in range(4):
            acc = f.add(acc, f.mul(entry(k), subs.get(rv, k)))
        return acc

    alpha = _graded_on_line(
        f, lambda a, s, rv: on_line(lambda k: m.umat.get(hv_index(a, k), s), rv), m.nH, m.m, d
    )
    beta = _graded_on_line(
        f, lambda s, a, rv: on_line(lambda k: m.wmat.get(s, hv_index(a, k)), rv), m.m, m.nH, d - 1
    )
    return alpha, beta


def splitting_order_by_generators(m: Monad, line: Line) -> int:
    """Splitting order from minimal generators of the restricted section module."""
    if m.r != 2:
        raise MonadError("splitting order is defined for rank-2 displays only")
    f, n = m.field, m.nH
    kers: dict[int, Subspace] = {}
    betas: dict[int, Mat] = {}
    for d in range(0, n + 1):
        alpha, betas[d] = _restricted_maps(m, line, d)
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
