# Restriction geometry along lines and planes of P(V): sections of E on a
# plane or line as intersections inside H* (x) V*, splitting orders on lines
# as a = n - rank w(lambda) (the display restricted to the line and twisted
# by -1 gives 0 -> H0(E_L(-1)) -> H -> H*; Barth, Math. Ann. 226, 1977),
# determinants of the associated net of quadrics, and the quadric-ideal
# computations attached to maps from a null-correlation bundle to O(1).

from __future__ import annotations

from functools import lru_cache

from .bases import WEDGE_PAIRS, sym_index_map
from .fields import Field
from .linalg import Mat, Pattern, Subspace, kron
from .monads import MonadError, build_monad
from .polys import interpolate as poly_interpolate
from .polys import trim as poly_trim
from .tensors import OmegaTensor, sym_square, wedge_matrix

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


class Line:
    """A line in P(V): 2-dimensional space U of points, its 2-dimensional
    space W of equations in V*, and the decomposable Pluecker vector of U."""

    __slots__ = ("field", "U", "W", "plucker")

    def __init__(self, field: Field, U: Subspace, W: Subspace, plucker: list):
        self.field = field
        self.U = U
        self.W = W
        self.plucker = plucker
        if U.dim != 2 or W.dim != 2:
            raise ValueError("a line needs 2-dimensional point and equation spaces")
        if not field.is_zero(plucker_quadric(field, plucker)):
            raise ValueError("Pluecker vector is not decomposable")
        # W must annihilate the Pluecker vector under contraction
        lmat = wedge_matrix(field, plucker)
        for r in range(2):
            contracted = lmat @ Mat.from_rows(field, [[x] for x in W.basis.row(r)], 1)
            if not contracted.is_zero():
                raise ValueError("equations do not annihilate the Pluecker vector")

    @staticmethod
    def from_points(field: Field, u0: list, u1: list) -> "Line":
        U = Subspace.from_spanning(Mat.from_rows(field, [u0, u1], 4))
        if U.dim != 2:
            raise ValueError("points are proportional")
        W = U.basis.kernel()
        b0, b1 = U.basis.row(0), U.basis.row(1)
        return Line(field, U, W, plucker_of_span(field, b0, b1))

    @staticmethod
    def from_plucker(field: Field, lam: list) -> "Line":
        if all(field.is_zero(x) for x in lam):
            raise ValueError("zero Pluecker vector")
        if not field.is_zero(plucker_quadric(field, lam)):
            raise ValueError("Pluecker vector is not decomposable")
        lmat = wedge_matrix(field, lam)
        U = lmat.column_space()
        W = U.basis.kernel()
        return Line(field, U, W, lam)


class Plane:
    """A plane in P(V), given by one nonzero equation z in V*."""

    __slots__ = ("field", "z", "W")

    def __init__(self, field: Field, z: list):
        if all(field.is_zero(x) for x in z):
            raise ValueError("plane equation must be nonzero")
        self.field = field
        self.z = z
        self.W = Mat.from_rows(field, [z], 4).kernel()  # the 3-space of points


# -- section counts by intersection ----------------------------------------


def _h_star_times(omega: OmegaTensor, w: Mat) -> Subspace:
    """H* (x) W inside H* (x) V*, for W spanned by the rows of w."""
    return Subspace.from_spanning(kron(Mat.identity(omega.field, omega.n), w))


def h0_plane(omega: OmegaTensor, plane: Plane) -> int:
    """h0 of E restricted to the plane: dim N meet (H* (x) <z>)."""
    m = build_monad(omega, quick_check=False)
    return m.N.intersect(_h_star_times(omega, Mat.from_rows(omega.field, [plane.z], 4))).dim


def h0_line(omega: OmegaTensor, line: Line) -> int:
    """h0 of E restricted to the line: dim N meet (H* (x) W)."""
    m = build_monad(omega, quick_check=False)
    return m.N.intersect(_h_star_times(omega, line.W.basis)).dim


# -- splitting order on a line ----------------------------------------------


def splitting_order(omega: OmegaTensor, line: Line) -> int:
    """Splitting order a of E_L = O(a) (+) O(-a) for a rank-2 bundle.

    The display restricted to L and twisted by -1 gives
    0 -> H0(E_L(-1)) -> H -> H*, the last map being the contracted quadric
    w(lambda) of the line; h0(E_L(-1)) = a, so a = n - rank w(lambda), the
    jumping-line criterion with its multiplicity (Barth, Math. Ann. 226,
    1977).  On a degenerate tensor E is not a bundle and the number is not a
    splitting order.
    """
    m = build_monad(omega, quick_check=False)
    if m.r != 2:
        raise MonadError("splitting order is defined for rank-2 displays only")
    return m.nH - omega.contract_line(line.plucker).rank()


# -- nets of quadrics --------------------------------------------------------


def pencil_jump_poly(omega: OmegaTensor, lam0: list, lam1: list) -> list:
    """det of the contracted quadric along the pencil lam0 + t lam1.

    The pencil must stay inside the decomposable locus (checked through the
    Pluecker quadric); the result is the coefficient list of a polynomial of
    degree at most n whose roots mark jumping lines of the pencil.  It is
    interpolated from the points 0..n, which must stay distinct in the field.
    """
    f, n = omega.field, omega.n
    if f.p is not None and f.p <= n:
        raise ValueError(
            f"the pencil determinant needs n + 1 = {n + 1} distinct points 0..n, but they "
            f"collide in {f.spec_str()} (characteristic {f.p} <= n = {n})"
        )
    if not f.is_zero(plucker_quadric(f, lam0)):
        raise ValueError("lam0 is not decomposable")
    if not f.is_zero(plucker_quadric(f, lam1)):
        raise ValueError("lam1 is not decomposable")
    if not f.is_zero(plucker_bilinear(f, lam0, lam1)):
        raise ValueError("pencil leaves the decomposable locus")
    points = [f.of_int(i) for i in range(n + 1)]
    values = []
    for t in points:
        lam = [f.add(a, f.mul(t, b)) for a, b in zip(lam0, lam1)]
        values.append(omega.contract_line(lam).det())
    return poly_trim(poly_interpolate(points, values, f), f)


def point_plane_pencil(field: Field, p: list, q0: list, q1: list) -> tuple[list, list]:
    """Pencil of lines through the point p inside the plane spanned with q0, q1.

    Returns (lam0, lam1) with lam0 + t lam1 decomposable for every t.
    """
    lam0 = plucker_of_span(field, p, q0)
    lam1 = plucker_of_span(field, p, q1)
    return lam0, lam1


# -- intersections with K (x) V* ---------------------------------------------


def k_intersection(omega: OmegaTensor, K: Subspace) -> Subspace:
    """N meet (K (x) V*) inside H* (x) V*, for a subspace K of H*."""
    f, n = omega.field, omega.n
    m = build_monad(omega, quick_check=False)
    if K.dim == 0:
        return Subspace.zero(f, 4 * n)
    return m.N.intersect(Subspace.from_spanning(kron(K.basis, Mat.identity(f, 4))))


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


def quadrics_through_line(field: Field, line: Line) -> Subspace:
    """Degree-2 part of the ideal of a line: a 7-dimensional space."""
    # rows: the products u0 u0, u0 u1, u1 u1 of the line's two points
    return sym_square(line.U.basis).kernel()
