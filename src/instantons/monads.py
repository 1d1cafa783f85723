# The Horrocks display of a tensor and everything computed from it: graded
# monad maps, cohomology tables of E(d), the five-term symmetric-square
# complex, the dual kernel spaces in wedge^2 H (x) S^2 V and H (x) S^2 V, and
# tangent-space dimensions of the rank strata.
#
# A tensor of rank 2n+r gives the three-term complex
#     H (x) O(-1) --(phi o alpha*)--> N (x) O --alpha--> H* (x) O(1)
# with N the image of the flattening and phi the induced symplectic
# isomorphism N* -> N.  All cohomology is read off from the maps on twisted
# global sections: every twist used keeps the three line-bundle terms acyclic
# in intermediate degrees, so kernels and cokernels of concrete matrices give
# the h^i exactly.

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .bases import (
    WEDGE_PAIRS,
    euler_chi,
    expected_stratum_dim,
    full_skew_tangent_dim,
    hv_index,
    mono_mul,
    monomial_index_map,
    monomials,
    sym_pairs,
)
from .fields import Field
from .linalg import Mat, MatBuilder, Subspace, kron
from .tensors import OmegaTensor


class MonadError(ValueError):
    pass


class Monad:
    """Concrete data of a three-term monad N-middle display.

    nH is the dimension of the end space H-bar (n for the monad of a tensor,
    n-1 after restriction to a hyperplane of H); m = dim N is the middle
    dimension.  umat (4*nH x m) is the fiberwise right map N -> H-bar* (x) V*;
    wmat (m x 4*nH) is the fiberwise left map H-bar (x) V -> N; phi is the
    symplectic matrix on N recovered from the tensor, never assumed.
    """

    __slots__ = ("field", "nH", "m", "N", "phi", "umat", "wmat")

    def __init__(self, field: Field, nH: int, N: Subspace, phi: Mat, umat: Mat, wmat: Mat):
        self.field = field
        self.nH = nH
        self.m = phi.nrows
        self.N = N
        self.phi = phi
        self.umat = umat
        self.wmat = wmat
        if not (phi + phi.transpose()).is_zero():
            raise MonadError("phi is not skew")
        if phi.rank() != self.m:
            raise MonadError("phi is not invertible")
        self._check_monad_condition()

    def _check_monad_condition(self) -> None:
        # alpha o beta = 0 as sheaf maps <=> the V-symmetric part of each
        # 4x4 block of umat @ wmat vanishes
        f = self.field
        c = self.umat @ self.wmat
        for a in range(self.nH):
            for b in range(self.nH):
                for k in range(4):
                    for l in range(k, 4):
                        s = f.add(c.get(hv_index(a, k), hv_index(b, l)),
                                  c.get(hv_index(a, l), hv_index(b, k)))
                        if not f.is_zero(s):
                            raise MonadError("monad condition alpha o beta = 0 fails")

    @property
    def r(self) -> int:
        """Rank of the cohomology bundle: m - 2*nH."""
        return self.m - 2 * self.nH

    # -- graded maps on twisted global sections -----------------------

    def alpha(self, d: int) -> Mat:
        """Sections map N (x) S^d -> H-bar* (x) S^(d+1)."""
        f = self.field
        src_mon = monomials(4, d)
        tgt_idx = monomial_index_map(4, d + 1)
        src_count, tgt_count = len(src_mon), len(tgt_idx)
        b = MatBuilder(f, self.nH * tgt_count, self.m * src_count)
        for s in range(self.m):
            for a in range(self.nH):
                for k in range(4):
                    c = self.umat.get(hv_index(a, k), s)
                    if f.is_zero(c):
                        continue
                    for mi, mono in enumerate(src_mon):
                        b.add(a * tgt_count + tgt_idx[mono_mul(mono, k)], s * src_count + mi, c)
        return b.build()

    def beta(self, d: int) -> Mat:
        """Sections map H-bar (x) S^(d-1) -> N (x) S^d."""
        f = self.field
        src_mon = monomials(4, d - 1)
        tgt_idx = monomial_index_map(4, d)
        src_count, tgt_count = len(src_mon), len(tgt_idx)
        b = MatBuilder(f, self.m * tgt_count, self.nH * src_count)
        for s in range(self.m):
            for a in range(self.nH):
                for k in range(4):
                    c = self.wmat.get(s, hv_index(a, k))
                    if f.is_zero(c):
                        continue
                    for mi, mono in enumerate(src_mon):
                        b.add(s * tgt_count + tgt_idx[mono_mul(mono, k)], a * src_count + mi, c)
        return b.build()

    def h_values(self, d: int) -> tuple[int, int]:
        """(h0, h1) of the display's cohomology at twist d, for d >= -2."""
        if d < -2:
            raise MonadError("twist below the acyclicity window")
        a = self.alpha(d)
        bm = self.beta(d)
        rank_a = a.rank()
        h1 = a.nrows - rank_a
        h0 = (a.ncols - rank_a) - bm.rank()
        return h0, h1

    def left_defect(self, d: int = 1) -> int:
        """Kernel dimension of the left map on sections; nonzero flags a
        degenerate defining tensor."""
        bm = self.beta(d)
        return bm.ncols - bm.rank()


def build_monad(omega: OmegaTensor, *, quick_check: bool = True) -> Monad:
    """Horrocks display of an admissible tensor.

    Requires rank 2n+r with 2 <= r <= 2n.  When quick_check is set a cheap
    scan over the standard basis vectors rejects blatantly degenerate input;
    full non-degeneracy classification is the caller's separate step.
    """
    f, n = omega.field, omega.n
    M = omega.flatten().mat
    N = M.row_space()
    rank = N.dim
    r = rank - 2 * n
    if rank % 2 != 0:
        raise MonadError("skew flattening must have even rank")
    if r < 2 or r > 2 * n:
        raise MonadError(f"rank {rank} violates the admissible range [2n+2, 4n] for n={n}")
    if quick_check:
        w = _standard_witness(omega)
        if w is not None:
            raise MonadError(f"tensor is degenerate (witness at basis pair {w})")
    return _monad_from_image(omega, N)


def _monad_from_image(omega: OmegaTensor, N: Subspace) -> Monad:
    f, n = omega.field, omega.n
    M = omega.flatten().mat
    piv = N.pivots
    phi = M.take_rows(piv).take_cols(piv)
    B = N.basis
    umat = B.transpose()
    wmat = phi @ B
    # self-certification: u o phi o u* must reproduce the flattening exactly
    if not (B.transpose() @ phi @ B == M):
        raise MonadError("failed to factor the flattening through phi")
    return Monad(f, n, N, phi, umat, wmat)


def _standard_witness(omega: OmegaTensor) -> tuple[int, int] | None:
    """Look for h = e_a, v = e_k with omega(h (x) v) = 0; cheap necessary test."""
    f = omega.field
    M = omega.flatten().mat
    for a in range(omega.n):
        for k in range(4):
            col = hv_index(a, k)
            if all(f.is_zero(M.get(i, col)) for i in range(M.nrows)):
                return a, k
    return None


def restricted_monad(omega: OmegaTensor, xi: list) -> Monad:
    """Display of the restriction to ker(xi) that keeps the full middle N.

    The middle space stays Im(omega); only the end spaces shrink to the
    hyperplane.  When the restricted tensor keeps full rank this is the
    display of the restricted tensor; when the rank drops, h0 of the result
    is positive and it is not a bundle display.
    """
    from .tensors import kernel_inclusion

    plain = build_monad(omega, quick_check=False)
    j = kernel_inclusion(omega.field, xi)
    eye = Mat.identity(omega.field, 4)
    proj = kron(j.transpose(), eye)  # H* (x) V* -> H-bar* (x) V*
    incl = kron(j, eye)  # H-bar (x) V -> H (x) V
    umat = proj @ plain.umat
    wmat = plain.wmat @ incl
    return Monad(omega.field, omega.n - 1, plain.N, plain.phi, umat, wmat)


# -- cohomology tables ---------------------------------------------------


@dataclass
class CohTable:
    """Twist-indexed cohomology of E(d) plus the symmetric-square triple."""

    n: int
    r: int
    dim_N: int
    dim_Q: int
    rows: list[tuple[int, int, int]]  # (d, h0, h1)
    s2: tuple[int, int, int]  # (h0, h1, h2) of S^2 E

    def validate(self) -> None:
        for d, h0, h1 in self.rows:
            if h0 < 0 or h1 < 0:
                raise ValueError("negative cohomology dimension")
            if h0 - h1 != euler_chi(self.n, self.r, d):
                raise ValueError(f"Euler identity fails at twist {d}")

    def h(self, d: int) -> tuple[int, int]:
        for dd, h0, h1 in self.rows:
            if dd == d:
                return h0, h1
        raise KeyError(d)

    def csv(self) -> str:
        lines = ["d,h0,h1"]
        for d, h0, h1 in self.rows:
            lines.append(f"{d},{h0},{h1}")
        return "\n".join(lines) + "\n"


def coh_table(omega: OmegaTensor, dmax: int = 3, *, monad: Monad | None = None) -> CohTable:
    """Cohomology table of an admissible tensor for twists -2..dmax."""
    m = monad if monad is not None else build_monad(omega)
    rows = [(d, *m.h_values(d)) for d in range(-2, dmax + 1)]
    t = CohTable(
        n=m.nH,
        r=m.r,
        dim_N=m.m,
        dim_Q=4 * m.nH - m.m,
        rows=rows,
        s2=s2_cohomology(m),
    )
    t.validate()
    return t


def s2_cohomology(monad: Monad) -> tuple[int, int, int]:
    """(h0, h1, h2) of S^2 E from the five-term symmetric-square complex.

    Global sections of the acyclic terms give
        S^2 N (+) H (x) H* --d0--> N (x) H* (x) V* --d1--> wedge^2 H* (x) S^2 V*
    and the three cohomology dimensions are read off positions 0, 1, 2.
    """
    f, nH, m = monad.field, monad.nH, monad.m
    pairs_m = sym_pairs(m)
    hpairs = [(i, j) for i in range(nH) for j in range(i + 1, nH)]
    hpair_idx = {pq: i for i, pq in enumerate(hpairs)}
    s2v_idx = {pq: i for i, pq in enumerate(sym_pairs(4))}

    dim_c0 = len(pairs_m) + nH * nH
    dim_c1 = m * nH * 4
    dim_c2 = len(hpairs) * 10

    def c1_index(s: int, a: int, k: int) -> int:
        return s * (4 * nH) + hv_index(a, k)

    d0 = MatBuilder(f, dim_c1, dim_c0)
    for col, (s, t) in enumerate(pairs_m):
        # nu_s . nu_t -> nu_s (x) u(nu_t) + nu_t (x) u(nu_s)
        for a in range(nH):
            for k in range(4):
                c_t = monad.umat.get(hv_index(a, k), t)
                if not f.is_zero(c_t):
                    d0.add(c1_index(s, a, k), col, c_t)
                c_s = monad.umat.get(hv_index(a, k), s)
                if not f.is_zero(c_s):
                    d0.add(c1_index(t, a, k), col, c_s)
    for b in range(nH):
        for a in range(nH):
            col = len(pairs_m) + b * nH + a
            # h_b (x) e_a* -> beta(h_b) (x) e_a*
            for s in range(m):
                for k in range(4):
                    c = monad.wmat.get(s, hv_index(b, k))
                    if not f.is_zero(c):
                        d0.add(c1_index(s, a, k), col, c)
    d0m = d0.build()

    d1 = MatBuilder(f, dim_c2, dim_c1)
    for s in range(m):
        for a in range(nH):
            for k in range(4):
                col = c1_index(s, a, k)
                # nu_s (x) e_a* (x) x_k -> sum_b (e_b* ^ e_a*) (x) (mu_b x_k)
                for b in range(nH):
                    if b == a:
                        continue
                    sign = 1 if b < a else -1
                    pair = (b, a) if b < a else (a, b)
                    for p in range(4):
                        c = monad.umat.get(hv_index(b, p), s)
                        if f.is_zero(c):
                            continue
                        val = c if sign == 1 else f.neg(c)
                        mono = (p, k) if p <= k else (k, p)
                        d1.add(hpair_idx[pair] * 10 + s2v_idx[mono], col, val)
    d1m = d1.build()

    if not (d1m @ d0m).is_zero():
        raise AssertionError("symmetric-square complex is not a complex")

    rank0 = d0m.rank()
    rank1 = d1m.rank()
    h0 = dim_c0 - rank0
    h1 = (dim_c1 - rank1) - rank0
    h2 = dim_c2 - rank1
    return h0, h1, h2


# -- dual kernel spaces ----------------------------------------------------


def sigma_kernel(omega: OmegaTensor, *, monad: Monad | None = None) -> Subspace:
    """{sigma in wedge^2 H (x) S^2 V : sigma o omega = 0}.

    sigma acts as an anti-selfdual map H* (x) V* -> H (x) V; composing with
    the inclusion of N = Im(omega) is linear in sigma's coordinates, and the
    kernel dimension equals h^2 of S^2 E for admissible tensors.
    """
    f, n = omega.field, omega.n
    if monad is not None:
        basis = monad.N.basis
    else:
        basis = omega.image().basis
    hpairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    s2v = sym_pairs(4)
    ncols = len(hpairs) * 10
    nrows = basis.nrows * 4 * n
    b = MatBuilder(f, nrows, ncols)
    # coordinates c_{ab,kl} of sigma are skew in (a, b) and symmetric in
    # (k, l): the unknown z at ((i<j), (p<=q)) contributes +z through c_{ij}
    # and -z through c_{ji}
    for col, ((i, j), (p, q)) in enumerate(
        ((hp, pq) for hp in hpairs for pq in s2v)
    ):
        for s in range(basis.nrows):
            row_vec = basis.row(s)
            for k_out in range(4):
                acc_i = f.zero()
                acc_j = f.zero()
                for l in range(4):
                    if (min(k_out, l), max(k_out, l)) != (p, q):
                        continue
                    acc_i = f.add(acc_i, row_vec[hv_index(j, l)])
                    acc_j = f.add(acc_j, row_vec[hv_index(i, l)])
                if not f.is_zero(acc_i):
                    b.add(s * 4 * n + hv_index(i, k_out), col, acc_i)
                if not f.is_zero(acc_j):
                    b.add(s * 4 * n + hv_index(j, k_out), col, f.neg(acc_j))
    return b.build().kernel()


def gamma_kernel(monad: Monad) -> Subspace:
    """{gamma in H-bar (x) S^2 V : gamma o u = 0}; dimension equals h1 E(1)."""
    f, nH, m = monad.field, monad.nH, monad.m
    s2v = sym_pairs(4)
    ncols = nH * 10
    b = MatBuilder(f, m * 4, ncols)
    for bb in range(nH):
        for ci, (p, q) in enumerate(s2v):
            col = bb * 10 + ci
            # Q_b has entries z at (p,q) and (q,p)
            for s in range(m):
                for k in range(4):
                    # (gamma o u)(nu_s)[k] += sum_l u[(b,l),s] * Q_b[k,l]
                    if k == p:
                        c = monad.umat.get(hv_index(bb, q), s)
                        if not f.is_zero(c):
                            b.add(s * 4 + k, col, c)
                    if k == q and p != q:
                        c = monad.umat.get(hv_index(bb, p), s)
                        if not f.is_zero(c):
                            b.add(s * 4 + k, col, c)
    return b.build().kernel()


def gamma_kernel_omega(omega: OmegaTensor) -> Subspace:
    return gamma_kernel(build_monad(omega, quick_check=False))


def gamma_kernel_plane(monad: Monad, w_basis: Mat) -> Subspace:
    """gamma_kernel cut down to maps with image inside a 3-space W of V.

    w_basis holds three independent rows spanning W.  The result is returned
    in the same H (x) S^2 V coordinates as gamma_kernel; its dimension equals
    h1 of E restricted to the plane P(W), twisted by 1.
    """
    if w_basis.nrows != 3 or w_basis.rank() != 3:
        raise ValueError("W must be 3-dimensional")
    f, nH, m = monad.field, monad.nH, monad.m
    wpairs = sym_pairs(3)
    s2v_idx = {pq: i for i, pq in enumerate(sym_pairs(4))}
    # symmetric 4x4 matrices of the products w_r w_s
    sym_mats = []
    for (rr, ss) in wpairs:
        wr, ws = w_basis.row(rr), w_basis.row(ss)
        mat = [[f.zero()] * 4 for _ in range(4)]
        for k in range(4):
            for l in range(4):
                term = f.mul(wr[k], ws[l])
                if rr != ss:
                    term = f.add(term, f.mul(ws[k], wr[l]))
                mat[k][l] = term
        sym_mats.append(mat)
    ncols = nH * len(wpairs)
    b = MatBuilder(f, m * 4, ncols)
    for bb in range(nH):
        for wi, mat in enumerate(sym_mats):
            col = bb * len(wpairs) + wi
            for s in range(m):
                for k in range(4):
                    acc = f.zero()
                    for l in range(4):
                        c = monad.umat.get(hv_index(bb, l), s)
                        if not f.is_zero(c):
                            acc = f.add(acc, f.mul(mat[k][l], c))
                    if not f.is_zero(acc):
                        b.add(s * 4 + k, col, acc)
    sol = b.build().kernel()
    # embed the solutions back into H (x) S^2 V coordinates
    rows = []
    for t in range(sol.dim):
        y = sol.basis.row(t)
        vec = [f.zero()] * (nH * 10)
        for bb in range(nH):
            for wi, (rr, ss) in enumerate(wpairs):
                c = y[bb * len(wpairs) + wi]
                if f.is_zero(c):
                    continue
                mat = sym_mats[wi]
                for k in range(4):
                    for l in range(k, 4):
                        vec[bb * 10 + s2v_idx[(k, l)]] = f.add(
                            vec[bb * 10 + s2v_idx[(k, l)]], f.mul(c, mat[k][l])
                        )
        rows.append(vec)
    if not rows:
        return Subspace.zero(f, nH * 10)
    return Subspace.from_spanning(Mat.from_rows(f, rows, nH * 10))


# -- tangent spaces of the rank strata -------------------------------------


def tangent_dim(omega: OmegaTensor, ambient: str) -> int:
    """dim of {tau in ambient : tau vanishes on ker x ker of the flattening}.

    ambient is "fullSkew" (all skew forms on H (x) V) or "symLambda"
    (the S^2 H* (x) wedge^2 V* summand).  At a smooth point of the rank
    stratum this is the stratum's tangent dimension.
    """
    f, n = omega.field, omega.n
    M = omega.flatten().mat
    ker = M.kernel()
    kb = [ker.basis.row(i) for i in range(ker.dim)]
    pairs = [(s, t) for s in range(len(kb)) for t in range(s + 1, len(kb))]
    if ambient == "fullSkew":
        unknowns = [(al, be) for al in range(4 * n) for be in range(al + 1, 4 * n)]
        b = MatBuilder(f, len(pairs), len(unknowns))
        for row, (s, t) in enumerate(pairs):
            ks, kt = kb[s], kb[t]
            for col, (al, be) in enumerate(unknowns):
                # skew unknown tau[al,be] = z, tau[be,al] = -z
                v = f.sub(f.mul(ks[al], kt[be]), f.mul(ks[be], kt[al]))
                if not f.is_zero(v):
                    b.add(row, col, v)
        mat = b.build()
        return len(unknowns) - mat.rank()
    if ambient == "symLambda":
        pairs_h = sym_pairs(n)
        b = MatBuilder(f, len(pairs), len(pairs_h) * 6)
        for row, (s, t) in enumerate(pairs):
            ks, kt = kb[s], kb[t]
            for pi, (i, j) in enumerate(pairs_h):
                for w, (k, l) in enumerate(WEDGE_PAIRS):
                    col = pi * 6 + w
                    # flatten of the basis tensor has entries +-1 at four slots
                    v = f.sub(
                        f.mul(ks[hv_index(i, k)], kt[hv_index(j, l)]),
                        f.mul(ks[hv_index(i, l)], kt[hv_index(j, k)]),
                    )
                    if i != j:
                        v = f.add(
                            v,
                            f.sub(
                                f.mul(ks[hv_index(j, k)], kt[hv_index(i, l)]),
                                f.mul(ks[hv_index(j, l)], kt[hv_index(i, k)]),
                            ),
                        )
                    if not f.is_zero(v):
                        b.add(row, col, v)
        mat = b.build()
        return len(pairs_h) * 6 - mat.rank()
    raise ValueError("ambient must be 'fullSkew' or 'symLambda'")


def expected_dims(n: int, rank: int) -> dict:
    """Reference dimensions at a rank-2m point: stratum formulas by name."""
    m = rank // 2
    return {
        "full_skew_tangent": full_skew_tangent_dim(n, m),
        "sym_lambda_expected": expected_stratum_dim(n, m),
        "ambient_sym_lambda": 3 * n * (n + 1),
        "ambient_full_skew": comb(4 * n, 2),
    }
