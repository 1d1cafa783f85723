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
# the h^i exactly; the rank of alpha at twist d is read off the inverse system
# of the (1, d + 1) piece of the ideal of umat's columns, not a gathered map.
# Over Q the symmetric-square complex is checked and ranked on int64
# residues of integer multiples of the display's two small maps.

from __future__ import annotations

from functools import lru_cache
from math import inf

from .bases import (
    euler_chi,
    form_slots,
    hv_index,
    num_monomials,
    skew_pairs,
    sym_index_map,
    sym_pairs,
    times_variable,
)
from .linalg import Mat, Pattern, Subspace, kron
from .nondeg import InverseSystems, inverse_systems
from .tensors import OmegaTensor, kernel_inclusion

# Each structured map below is one Mat.gather of a matrix of the display
# (umat, wmat, the basis of N, products of kernel vectors) along a Pattern
# built once per shape from the conventions of bases: H (x) V index 4a + k,
# the flattening slots, the monomial multiplication maps and the S^2 V pairs.


@lru_cache(maxsize=None)
def _graded_pattern(nout: int, nin: int, d: int, forms_in_rows: bool) -> Pattern:
    """Sections map (nin copies of S^d) -> (nout copies of S^(d+1)) of a
    fiberwise map with linear entries.  The coefficient of x_k in the entry
    (o, i) sits at (4o + k, i) of a 4 nout x nin source (forms_in_rows, umat)
    or at (o, 4i + k) of an nout x 4 nin source (wmat)."""
    src_count, tgt_count = num_monomials(4, d), num_monomials(4, d + 1)
    times = times_variable(4, d)
    terms = ((o * tgt_count + t, i * src_count + mi,
              *((hv_index(o, k), i) if forms_in_rows else (o, hv_index(i, k))), 1)
             for o in range(nout) for i in range(nin) for k in range(4)
             for mi, t in enumerate(times[k]))
    src_shape = (4 * nout, nin) if forms_in_rows else (nout, 4 * nin)
    return Pattern((nout * tgt_count, nin * src_count), src_shape, terms)


@lru_cache(maxsize=None)
def _monad_condition_pattern(nH: int) -> Pattern:
    """The V-symmetric part of each 4x4 block (a, b) of a 4nH x 4nH matrix,
    one row per block, one column per pair k <= l."""
    terms = ((a * nH + b, q, hv_index(a, x), hv_index(b, y), 1)
             for a in range(nH) for b in range(nH)
             for q, (k, l) in enumerate(sym_pairs(4)) for x, y in ((k, l), (l, k)))
    return Pattern((nH * nH, 10), (4 * nH, 4 * nH), terms)


class MonadError(ValueError):
    pass


class Monad:
    """Concrete data of a three-term monad N-middle display.

    nH is the dimension of the end space H-bar (n for the monad of a tensor,
    n-1 after restriction to a hyperplane of H); m = dim N is the middle
    dimension.  umat (4*nH x m) is the fiberwise right map N -> H-bar* (x) V*;
    phi is the symplectic matrix on N recovered from the tensor, never
    assumed; the fiberwise left map H-bar (x) V -> N is derived from them,
    wmat = phi umat^T (m x 4*nH), so beta = phi o alpha*.  N itself is the
    tensor's: OmegaTensor.image.
    """

    __slots__ = ("nH", "m", "phi", "umat", "wmat", "_systems", "_ranks", "_onto", "_s2", "_restricted")

    def __init__(self, nH: int, phi: Mat, umat: Mat, systems: InverseSystems | None = None):
        self.nH = nH
        self.m = phi.nrows
        self.phi = phi
        self.umat = umat
        self.wmat = phi @ umat.transpose()
        self._systems = systems or InverseSystems(nH, umat.transpose())
        # kept once found: the ranks of alpha(d) and beta(d) by twist d, the least twist
        # d >= 0 where alpha is onto, the S^2 triple, the restricted displays by xi
        self._ranks = {}
        self._onto = inf
        self._s2 = None
        self._restricted = {}
        if not (phi + phi.transpose()).is_zero():
            raise MonadError("phi is not skew")
        if phi.rank() != self.m:
            raise MonadError("phi is not invertible")
        self._check_monad_condition()

    def _check_monad_condition(self) -> None:
        # alpha o beta = 0 as sheaf maps <=> the V-symmetric part of each
        # 4x4 block of umat @ wmat vanishes
        c = self.umat @ self.wmat
        if not c.gather(_monad_condition_pattern(self.nH)).is_zero():
            raise MonadError("monad condition alpha o beta = 0 fails")

    @property
    def r(self) -> int:
        """Rank of the cohomology bundle: m - 2*nH."""
        return self.m - 2 * self.nH

    # -- graded maps on twisted global sections -----------------------

    def alpha(self, d: int) -> Mat:
        """Sections map N (x) S^d -> H-bar* (x) S^(d+1)."""
        return self.umat.gather(_graded_pattern(self.nH, self.m, d, True))

    def beta(self, d: int) -> Mat:
        """Sections map H-bar (x) S^(d-1) -> N (x) S^d."""
        return self.wmat.gather(_graded_pattern(self.m, self.nH, d - 1, False))

    def h_values(self, d: int) -> tuple[int, int]:
        """(h0, h1) of the display's cohomology at twist d, for d >= -2, from
        the ranks of alpha(d) and beta(d), kept by twist.  h1 at twist 1 is the
        dimension of the gamma kernel, whose system is alpha(1) transposed.

        im alpha(d) is the (1, d + 1) piece of the ideal of umat's columns,
        as forms in H-bar* (x) V*, so rank alpha(d) = rows - dim A(1, d + 1),
        A the inverse system (nondeg.InverseSystems), and alpha is never
        gathered.  From a twist d0 >= 0 where A is zero alpha is onto, so the
        sheaf map alpha is onto at every point (H-bar* (x) O(d0 + 1) is
        globally generated), and beta = phi o alpha* (wmat = phi umat^T) is
        injective at every point and, H^0 being left exact, on sections: at
        d >= d0 beta(d) has rank its column count.  beta(1), whose rank
        left_defect reads, is ranked all the same."""
        if d < -2:
            raise MonadError("twist below the acyclicity window")
        nrows = self.nH * num_monomials(4, d + 1)
        if d not in self._ranks:
            rank_a = (0 if d < 0 else nrows if d > self._onto
                      else nrows - self._systems.dim(1, d + 1))
            if rank_a == nrows and 0 <= d < self._onto:
                self._onto = d
            cols = self.nH * num_monomials(4, d - 1)
            self._ranks[d] = rank_a, cols if d != 1 and self._onto <= d else self.beta(d).rank()
        rank_a, rank_b = self._ranks[d]
        return self.m * num_monomials(4, d) - rank_a - rank_b, nrows - rank_a

    def left_defect(self) -> int:
        """Kernel dimension of the left map on sections at twist 1, nH minus
        the rank of beta(1); nonzero flags a degenerate defining tensor."""
        self.h_values(1)
        return self.nH - self._ranks[1][1]


def build_monad(omega: OmegaTensor) -> Monad:
    """Horrocks display of an admissible tensor, built on the first call and
    kept on the tensor.

    Requires rank 2n+r with 2 <= r <= 2n.  Non-degeneracy is the caller's
    separate step: gated_display or nondeg.classify.
    """
    # omega._monad is written here only: a display is kept once its rank
    # check has passed, so a rank error is raised on every call
    if omega._monad is None:
        n = omega.n
        N = omega.image()
        rank = N.dim
        r = rank - 2 * n
        if rank % 2 != 0:
            raise MonadError("skew flattening must have even rank")
        if r < 2 or r > 2 * n:
            raise MonadError(f"rank {rank} violates the admissible range [2n+2, 4n] for n={n}")
        omega._monad = _monad_from_image(omega, N)
    return omega._monad


def gated_display(omega: OmegaTensor) -> Monad:
    """The display of build_monad, whose rank check comes first, once no
    basis pair is a witness: a MonadError names a pair with
    omega(e_a (x) e_k) = 0, a zero column 4a + k of the flattening.  Each
    column is tested for zero, with no elimination: a cheap test that
    rejects blatant degeneracy."""
    monad = build_monad(omega)
    f = omega.field
    cols = omega.flatten().transpose().rows()
    zero = next((c for c, col in enumerate(cols) if all(f.is_zero(x) for x in col)), None)
    if zero is not None:
        raise MonadError(f"tensor is degenerate (witness at basis pair {divmod(zero, 4)})")
    return monad


def _monad_from_image(omega: OmegaTensor, N: Subspace) -> Monad:
    M = omega.flatten()
    piv = N.pivots
    phi = M.take_rows(piv).take_cols(piv)
    B = N.basis
    # self-certification: u o phi o u* must reproduce the flattening exactly
    if not (B.transpose() @ phi @ B == M):
        raise MonadError("failed to factor the flattening through phi")
    return Monad(omega.n, phi, B.transpose(), inverse_systems(omega))


def restricted_monad(omega: OmegaTensor, xi: list) -> Monad:
    """Display of the restriction to ker(xi) that keeps the full middle N,
    built once per xi and kept on the display of omega.

    The middle space stays Im(omega); only the end spaces shrink to the
    hyperplane.  When the restricted tensor keeps full rank this is the
    display of the restricted tensor; when the rank drops, h0 of the result
    is positive and it is not a bundle display.
    """
    plain = build_monad(omega)
    key = tuple(xi)
    if key not in plain._restricted:
        j = kernel_inclusion(omega.field, xi)
        proj = kron(j.transpose(), Mat.identity(omega.field, 4))  # H* (x) V* -> H-bar* (x) V*
        plain._restricted[key] = Monad(omega.n - 1, plain.phi, proj @ plain.umat)
    return plain._restricted[key]


# -- cohomology tables ---------------------------------------------------


def coh_table(omega: OmegaTensor, dmax: int = 3) -> list[tuple[int, int, int]]:
    """Rows (d, h0, h1) of the cohomology of E(d) of an admissible tensor for
    twists -2..dmax, each checked against the Euler characteristic."""
    m = build_monad(omega)
    rows = [(d, *m.h_values(d)) for d in range(-2, dmax + 1)]
    for d, h0, h1 in rows:
        if h0 < 0 or h1 < 0:
            raise AssertionError("negative cohomology dimension")
        if h0 - h1 != euler_chi(m.nH, m.r, d):
            raise AssertionError(f"Euler identity fails at twist {d}")
    return rows


@lru_cache(maxsize=None)
def _s2_patterns(nH: int, m: int) -> tuple[Pattern, Pattern, Pattern]:
    """d0 = [umat part | wmat part] and d1 of the symmetric-square complex,
    with N (x) H* (x) V* indexed s * 4nH + 4a + k."""
    c1 = 4 * nH
    pairs_m = sym_pairs(m)
    # nu_s . nu_t -> nu_s (x) u(nu_t) + nu_t (x) u(nu_s)
    d0_n = ((u * c1 + x, col, x, v, 1) for col, (s, t) in enumerate(pairs_m)
            for u, v in ((s, t), (t, s)) for x in range(c1))
    # h_b (x) e_a* -> beta(h_b) (x) e_a*
    d0_h = ((s * c1 + hv_index(a, k), b * nH + a, s, hv_index(b, k), 1)
            for b in range(nH) for a in range(nH) for s in range(m) for k in range(4))
    # nu_s (x) e_a* (x) x_k -> sum_b (e_b* ^ e_a*) (x) (mu_b x_k)
    hpair, s2v = {pq: i for i, pq in enumerate(skew_pairs(nH))}, sym_index_map(4)
    d1 = ((hpair[min(a, b), max(a, b)] * 10 + s2v[min(p, k), max(p, k)], s * c1 + hv_index(a, k),
           hv_index(b, p), s, 1 if b < a else -1)
          for s in range(m) for a in range(nH) for k in range(4)
          for b in range(nH) if b != a for p in range(4))
    return (Pattern((m * c1, len(pairs_m)), (c1, m), d0_n),
            Pattern((m * c1, nH * nH), (m, c1), d0_h),
            Pattern((len(hpair) * 10, m * c1), (c1, m), d1))


def _s2_maps(nH: int, umat: Mat, wmat: Mat) -> tuple[Mat, Mat]:
    """d0 and d1 of the symmetric-square complex of a display's umat and wmat."""
    n_part, h_part, d1_pattern = _s2_patterns(nH, umat.ncols)
    return umat.gather(n_part).hstack(wmat.gather(h_part)), umat.gather(d1_pattern)


def s2_cohomology(monad: Monad) -> tuple[int, int, int]:
    """(h0, h1, h2) of S^2 E from the five-term symmetric-square complex,
    computed once and kept on the display.

    Global sections of the acyclic terms give
        S^2 N (+) H (x) H* --d0--> N (x) H* (x) V* --d1--> wedge^2 H* (x) S^2 V*
    and the three cohomology dimensions are read off positions 0, 1, 2.
    d1 @ d0 = 0 is checked first; d0 sends nu_s^2 to twice a vector, so
    characteristic 2 is refused.  Over Q both maps come from int64 residues
    of integer multiples of umat and wmat (column blocks times constants),
    are checked mod primes whose product exceeds a bound B on d1 @ d0, and
    are ranked mod the first, or over Q unless d0 is injective and d1 onto.
    """
    if monad._s2 is None:
        f, nH = monad.umat.field, monad.nH
        if f.p == 2:
            raise ValueError(
                f"the symmetric-square complex needs characteristic != 2, not {f.spec_str()}")
        us, ws, bound = [monad.umat], [monad.wmat], 0
        if f.kind == "rational":
            # B: the inner dimension times the largest entries of d1 and of d0
            (hu, us), (hw, ws) = monad.umat.scaled_residues(), monad.wmat.scaled_residues()
            n_part, h_part, d1_part = _s2_patterns(nH, monad.m)
            bound = d1_part.shape[1] * d1_part.max_terms * hu * max(
                n_part.max_terms * hu, h_part.max_terms * hw)
        maps, modulus = None, 1
        for u, w in zip(us, ws):
            d0m, d1m = _s2_maps(nH, u, w)
            if not d1m.annihilates(d0m):
                raise AssertionError("symmetric-square complex is not a complex")
            maps, modulus = maps or (d0m, d1m), modulus * u.field.p
            if modulus > bound:
                break
        d0m, d1m = maps
        if d0m.field != f and (d0m.rank() < d0m.ncols or d1m.rank() < d1m.nrows):
            d0m, d1m = _s2_maps(nH, monad.umat, monad.wmat)
        rank0, rank1 = d0m.rank(), d1m.rank()
        monad._s2 = (d0m.ncols - rank0, d0m.nrows - rank1 - rank0, d1m.nrows - rank1)
    return monad._s2


# -- dual kernel spaces ----------------------------------------------------


def sigma_kernel_dim(omega: OmegaTensor) -> int:
    """dim {sigma in wedge^2 H (x) S^2 V : sigma o omega = 0}.

    sigma acts as an anti-selfdual map H* (x) V* -> H (x) V; composed with
    the inclusion of N = Im(omega) it is linear in sigma's coordinates, and
    that linear system is minus the transpose of d1 of the symmetric-square
    complex.  So the kernel dimension is the cokernel dimension of d1, which
    is h^2 of S^2 E for admissible tensors.  d1 is gathered from the basis
    of N, the image of the flattening, so no display is needed; over Q first
    from the basis scaled to integers, mod one prime, and over Q only when
    it is not onto there (a scaled basis scales d1).
    """
    basis = omega.image().basis
    pattern = _s2_patterns(omega.n, basis.nrows)[2]
    if basis.field.kind == "rational":
        d1 = next(basis.scaled_residues()[1]).transpose().gather(pattern)
        if d1.rank() == d1.nrows:
            return 0
    d1 = basis.transpose().gather(pattern)
    return d1.nrows - d1.rank()


# -- tangent spaces of the rank strata -------------------------------------


@lru_cache(maxsize=None)
def _tangent_pattern(n: int, kd: int) -> Pattern:
    """tau(k_s, k_t) for the pairs s < t of kd kernel vectors, linear in the
    coordinates of tau in S^2 H* (x) wedge^2 V*, from the products
    k_s[x] k_t[y] at (s kd + t, 4n x + y) of kron(K, K); the flattening of
    the basis tensor (p, w) is +-1 at its slots."""
    dim, slots = 4 * n, form_slots(n)
    terms = ((row, p * 6 + w, s * kd + t, x * dim + y, sign)
             for row, (s, t) in enumerate(skew_pairs(kd)) for x, y, p, w, sign in slots)
    return Pattern((kd * (kd - 1) // 2, 3 * n * (n + 1)), (kd * kd, dim * dim), terms)


def tangent_dim(omega: OmegaTensor) -> int:
    """dim of {tau in S^2 H* (x) wedge^2 V* : tau vanishes on ker x ker of
    the flattening}.  At a smooth point of the rank stratum this is the
    stratum's tangent dimension.  In the full space of skew forms on H (x) V
    the same count is bases.full_skew_tangent_dim, since restriction to the
    kernel K maps the skew forms onto wedge^2 K*.
    """
    kb = omega.flatten().kernel_basis()
    mat = kron(kb, kb).gather(_tangent_pattern(omega.n, kb.nrows))
    return mat.ncols - mat.rank()
