"""Reference computations kept only to cross-check the package.

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

from instantons.bases import hv_index, mono_mul, monomial_index_map, monomials
from instantons.geometry import Line
from instantons.linalg import Mat, MatBuilder, Subspace
from instantons.monads import Monad, MonadError


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
