# Restriction geometry along lines of P(V), read from the tensor alone: its
# rank, its contracted quadrics and the image N of its flattening, with no
# display built.  A line is its Pluecker vector divided by its first nonzero
# coordinate, and the two points it was drawn through.  h0 on a line is
# dim N - rank(N.basis @ (I_n (x) S^T)) for the matrix S of those points,
# since N meet (H* (x) ann S) is the kernel of N -> H* (x) S*, which depends
# only on the span of S; the splitting order is a = n - rank w(lambda) (the
# display restricted to the line and twisted by -1 gives
# 0 -> H0(E_L(-1)) -> H -> H*; Barth, Math. Ann. 226, 1977).  A table of
# lines takes one block elimination for all orders and determinants and one
# for all h0.  Also the determinant along a pencil of lines, and the quadric
# ideals of maps from a null-correlation bundle to O(1).

from __future__ import annotations

from functools import lru_cache

from .bases import WEDGE_PAIRS, hv_index, sym_index_map
from .fields import Field
from .linalg import Mat, Pattern, Stream, Subspace, det_pencil, kron
from .tensors import OmegaTensor, wedge_matrix

# -- Pluecker algebra ------------------------------------------------------


def plucker_of_span(field: Field, u0: list, u1: list) -> list:
    """Pluecker coordinates of span(u0, u1) in the ordered wedge basis."""
    f = field
    return [
        f.sub(f.mul(u0[k], u1[l]), f.mul(u0[l], u1[k])) for (k, l) in WEDGE_PAIRS
    ]


def plucker_quadric(field: Field, lam: list):
    """The quadric whose vanishing marks decomposable 2-vectors."""
    f = field
    return f.add(
        f.sub(f.mul(lam[0], lam[5]), f.mul(lam[1], lam[4])),
        f.mul(lam[2], lam[3]),
    )


def plucker_bilinear(field: Field, a: list, b: list):
    """Polarization q(a+b) - q(a) - q(b); zero iff the two lines meet."""
    f = field
    acc = f.zero()
    for i, j, sign in ((0, 5, 1), (1, 4, -1), (2, 3, 1)):
        t = f.add(f.mul(a[i], b[j]), f.mul(a[j], b[i]))
        acc = f.add(acc, t if sign == 1 else f.neg(t))
    return acc


def line_through(field: Field, u0: list, u1: list) -> tuple[list, list]:
    """The line through the points u0 and u1: its Pluecker vector divided by
    its first nonzero coordinate, and [u0, u1]."""
    lam = plucker_of_span(field, u0, u1)
    first = next((x for x in lam if not field.is_zero(x)), None)
    if first is None:
        raise ValueError("points are proportional")
    inv = field.inv(first)
    unit = [field.mul(inv, x) for x in lam]
    if not field.is_zero(plucker_quadric(field, unit)):
        raise AssertionError("the Pluecker vector of two points is not decomposable")
    return unit, [u0, u1]


# -- section counts as projected ranks --------------------------------------


def _section_counts(omega: OmegaTensor, spaces: list[list]) -> list[int]:
    """dim N meet (H* (x) ann S) inside H* (x) V* for each space S of points,
    given by a list of spanning points (all of one length k).

    The meet is the kernel of N -> H* (x) S*, so its dimension is dim N minus
    the rank of N.basis @ (I_n (x) S^T): one Mat.contract_blocks product for
    all spaces, ranked as n k-column blocks by one elimination.
    """
    N, n, k = omega.image(), omega.n, len(spaces[0])
    points = Mat.from_rows(omega.field, [r for s in spaces for r in s], 4)
    # N's columns reordered from (a, v) to (v, a): block j is N contracted with point j
    by_v = N.basis.take_cols([hv_index(a, v) for v in range(4) for a in range(n)])
    return [N.dim - r for r in by_v.contract_blocks(points, n).block_ranks(n * k)[0]]


# -- splitting order on a line ----------------------------------------------


def splitting_orders(omega: OmegaTensor, lams: list[list]) -> tuple[list[int], list]:
    """Splitting orders a of E_L = O(a) (+) O(-a) for a rank-2 bundle, and the
    determinants of the contracted quadrics, for the lines with Pluecker
    vectors lams.

    The display restricted to L and twisted by -1 gives
    0 -> H0(E_L(-1)) -> H -> H*, the last map being the contracted quadric
    w(lambda) of the line; h0(E_L(-1)) = a, so a = n - rank w(lambda), the
    jumping-line criterion with its multiplicity (Barth, Math. Ann. 226,
    1977).  The quadrics are ranked side by side in one elimination, which
    also gives their determinants.  On a degenerate tensor E is not a bundle
    and the number is not a splitting order.  A ValueError refuses a tensor
    whose rank is not 2n + 2.
    """
    n = omega.n
    if omega.rank() != 2 * n + 2:
        raise ValueError("splitting order is defined for rank-2 displays only")
    ranks, dets = omega.contract_lines(lams).block_ranks(n)
    return [n - r for r in ranks], dets


def line_invariants(omega: OmegaTensor, lines: list[tuple[list, list]]) -> list[tuple[int, int, object]]:
    """(splitting order, h0, det w(lambda)) of each line (Pluecker vector,
    points).  The orders and determinants come from one elimination of the
    contracted quadrics, h0 from another of N's projections onto the points,
    so h0 = max(2, a + 1) checks one against the other."""
    if not lines:
        return []
    orders, dets = splitting_orders(omega, [lam for lam, _points in lines])
    h0s = _section_counts(omega, [points for _lam, points in lines])
    return list(zip(orders, h0s, dets))


# -- pencils of lines --------------------------------------------------------


def pencil_jump_poly(omega: OmegaTensor, lam0: list, lam1: list) -> list:
    """det of the contracted quadric along the pencil lam0 + t lam1.

    The pencil must stay inside the decomposable locus (checked through the
    Pluecker quadric); the result is the coefficient list of a polynomial of
    degree at most n whose roots mark jumping lines of the pencil.  The
    contraction is linear in the line, so the quadric of lam0 + t lam1 is
    w(lam0) + t w(lam1).
    """
    f, n = omega.field, omega.n
    if not f.is_zero(plucker_quadric(f, lam0)):
        raise ValueError("lam0 is not decomposable")
    if not f.is_zero(plucker_quadric(f, lam1)):
        raise ValueError("lam1 is not decomposable")
    if not f.is_zero(plucker_bilinear(f, lam0, lam1)):
        raise ValueError("pencil leaves the decomposable locus")
    return det_pencil(omega.contract_line(lam0), omega.contract_line(lam1),
                      f"the jumping-line pencil of n = {n}")


# -- seeded draws ------------------------------------------------------------


def random_lines(field: Field, stream: Stream, count: int) -> list[tuple[list, list]]:
    """count lines, each line_through two points drawn from stream; a pair of
    proportional points is dropped and the next pair drawn."""
    lines = []
    while len(lines) < count:
        try:
            lines.append(line_through(field, stream.next_vector(field, 4),
                                      stream.next_vector(field, 4)))
        except ValueError:
            continue
    return lines


def random_pencil(field: Field, stream: Stream) -> tuple[list, list]:
    """(lam0, lam1) for three points p, q0, q1 drawn from stream, drawn again
    until they are independent: lam0 + t lam1 is the line through p and
    q0 + t q1, so the pencil is the lines through p in the plane of the three."""
    while True:
        p, q0, q1 = (stream.next_vector(field, 4) for _ in range(3))
        if Mat.from_rows(field, [p, q0, q1], 4).rank() == 3:
            return plucker_of_span(field, p, q0), plucker_of_span(field, p, q1)


# -- intersections with K (x) V* ---------------------------------------------


def k_intersection_dim(omega: OmegaTensor, k: Mat) -> int:
    """dim N meet (K (x) V*) inside H* (x) V*, for the subspace K of H*
    spanned by the independent rows of k: dim N + 4 dim K - rank[N; K (x) V*]."""
    N, span = omega.image(), kron(k, Mat.identity(omega.field, 4))
    return N.dim + span.nrows - N.basis.vstack(span).rank()


# -- quadric ideals from null-correlation maps -------------------------------


@lru_cache(maxsize=None)
def _nc_section_pattern() -> Pattern:
    """Row (i, j) of the section map from the 4x4 map c on V*: the quadric
    sum_k c[k, i] x_k x_j - c[k, j] x_k x_i, in S^2 V* coordinates."""
    s2 = sym_index_map(4)
    terms = ((w, s2[min(k, y), max(k, y)], k, x, sign)
             for w, (i, j) in enumerate(WEDGE_PAIRS) for k in range(4)
             for x, y, sign in ((i, j, 1), (j, i, -1)))
    return Pattern((6, 10), (4, 4), terms)


def nc_quadric_ideal(field: Field, eta: list, alpha: list) -> Subspace:
    """Image in S^2 V* of the degree-1 section map attached to (eta, alpha).

    eta must be an indecomposable 2-form (rank-4 flattening) and alpha not
    proportional to it; the image is the 4-dimensional degree-2 part of the
    ideal of a pair of skew lines or a twisted double line.
    """
    f = field
    emat = wedge_matrix(f, eta)
    if emat.rank() != 4:
        raise ValueError("eta must be indecomposable (rank 4)")
    pair = Mat.from_rows(f, [eta, alpha], 6)
    if pair.rank() < 2:
        raise ValueError("alpha is proportional to eta; the section map is zero")
    amat = wedge_matrix(f, alpha)
    c = amat @ emat.inverse()  # the composed map on V*
    return Subspace.from_spanning(c.gather(_nc_section_pattern()))


def triple_span(field: Field, pairs: list[tuple[list, list]]) -> bool:
    """Do three quadric ideals from nc section maps span all of S^2 V*?"""
    if len(pairs) != 3:
        raise ValueError("exactly three (eta, alpha) pairs expected")
    total = None
    for eta, alpha in pairs:
        ideal = nc_quadric_ideal(field, eta, alpha)
        total = ideal if total is None else total.sum(ideal)
    return total.dim == 10

