# Constructors for the named tensors used throughout the package and the
# seeded samplers: full-rank tensors, corank-2 points found on pencils,
# the special 'tHooft tensors recovered from their banded net matrices, the
# degeneration family of a sum of two 2-instantons, and the restriction
# induction that climbs (n-1, r+2) -> (n, r).

from __future__ import annotations

from .fields import Field
from .linalg import Mat, MatBuilder, Stream, Subspace
from .monads import Monad, MonadError, build_monad
from .nondeg import Budget, LIGHT_BUDGET, classify
from .polys import interpolate as poly_interpolate
from .polys import roots as poly_roots
from .polys import trim as poly_trim
from .tensors import OmegaTensor, SkewForm, block_sum, unflatten
from .bases import WEDGE_PAIRS, hv_index, sym_pairs

RETRY_LIMIT = 64


class SampleError(RuntimeError):
    """A rejection sampler ran out of budget; carries stage and seed data."""


# -- named tensors -----------------------------------------------------------


def nc_tensor(field: Field, coeffs: list | None = None) -> OmegaTensor:
    """A 1-dimensional-H tensor from a 2-form; default is the standard
    indecomposable x0^x1 + x2^x3 (a null-correlation bundle)."""
    if coeffs is None:
        one = field.one()
        coeffs = [one, field.zero(), field.zero(), field.zero(), field.zero(), one]
    rows = Mat.from_rows(field, [coeffs], 6)
    return OmegaTensor(1, field, rows)


def degenerate_rank6(field: Field) -> OmegaTensor:
    """The classical rank-6 tensor over H_2 that is degenerate at exactly one
    point ([1:0:0:0]): entries w00 = x1^x2, w01 = x1^x3, w11 = x0^x1 + x2^x3."""
    one = field.one()
    return OmegaTensor.from_entries(
        2,
        field,
        {
            (0, 0, 1, 2): one,
            (0, 1, 1, 3): one,
            (1, 1, 0, 1): one,
            (1, 1, 2, 3): one,
        },
    )


def thooft_net(n: int, field: Field) -> Mat:
    """Banded net matrix of the special 'tHooft bundle with c2 = n.

    Row a of the n x (2n+2) matrix carries x0..x3 in columns 2a..2a+3.  The
    result is returned as the 4n x (2n+2) coefficient matrix of the map
    N -> H* (x) V*, one column per basis vector of N.
    """
    if n < 2:
        raise ValueError("the banded net needs n >= 2")
    b = MatBuilder(field, 4 * n, 2 * n + 2)
    one = field.one()
    for a in range(n):
        for k in range(4):
            b.set(hv_index(a, k), 2 * a + k, one)
    return b.build()


def thooft_tensor(n: int, field: Field, seed=0) -> OmegaTensor:
    """A tensor whose image is the column space of the 'tHooft net.

    The net only pins down the right-hand monad map, so the tensor is
    recovered by solving the linear system Im(flatten) inside N and drawing
    seeded combinations until the rank reaches its maximum 2n+2; existence of
    that rank is validated at runtime, and h0 E(1) = 2 is checked.
    """
    if not 2 <= n <= 5:
        raise ValueError("banded nets are provided for n in 2..5")
    f = field
    net = thooft_net(n, f)
    ncols = 2 * n + 2
    nspace = net.column_space()
    if nspace.dim != ncols:
        raise AssertionError("net matrix must have independent columns")
    ann = net.transpose().kernel()  # functionals vanishing on N
    npairs = n * (n + 1) // 2
    cons = MatBuilder(f, ann.dim * 4 * n, 6 * npairs)
    for pi, (i, j) in enumerate(sym_pairs(n)):
        for w, (k, l) in enumerate(WEDGE_PAIRS):
            col = pi * 6 + w
            # flatten of the basis tensor: +-1 at four (row, col) slots
            slots = [
                (hv_index(i, k), hv_index(j, l), 1),
                (hv_index(i, l), hv_index(j, k), -1),
            ]
            if i != j:
                slots += [
                    (hv_index(j, k), hv_index(i, l), 1),
                    (hv_index(j, l), hv_index(i, k), -1),
                ]
            for rr, cc, sgn in slots:
                for t in range(ann.dim):
                    y = ann.basis.get(t, rr)
                    if f.is_zero(y):
                        continue
                    val = y if sgn == 1 else f.neg(y)
                    cons.add(t * 4 * n + cc, col, val)
    space = cons.build().kernel()
    if space.dim == 0:
        raise SampleError(f"no tensor has image inside the n={n} net")
    st = Stream("thooft", f.spec_str(), n, seed)
    for _ in range(RETRY_LIMIT):
        vec = [f.zero()] * (6 * npairs)
        for t in range(space.dim):
            c = st.next_element(f)
            row = space.basis.row(t)
            vec = [f.add(x, f.mul(c, y)) for x, y in zip(vec, row)]
        cand = OmegaTensor.from_vec(n, f, vec)
        if cand.rank() == ncols:
            h0e1 = build_monad(cand, quick_check=False).h_values(1)[0]
            if h0e1 != 2:
                raise AssertionError(f"net tensor has h0 E(1) = {h0e1}, expected 2")
            return cand
    raise SampleError(
        f"no rank-{ncols} tensor found in the {space.dim}-dimensional net space"
    )


def three_nc_tensor(field: Field, etas: list[list] | None = None, seed=0) -> OmegaTensor:
    """Block-diagonal sum of three indecomposable 2-forms over H_3."""
    f = field
    if etas is None:
        st = Stream("three_nc", f.spec_str(), seed)
        etas = []
        while len(etas) < 3:
            cand = st.next_vector(f, 6)
            if nc_tensor(f, cand).rank() == 4:
                etas.append(cand)
    parts = [nc_tensor(f, e) for e in etas]
    for t in parts:
        if t.rank() != 4:
            raise ValueError("each 2-form must be indecomposable (rank 4)")
    return block_sum(block_sum(parts[0], parts[1]), parts[2])


def two_instanton_sum(field: Field, seed=0) -> OmegaTensor:
    """Direct sum of two sampled rank-6 tensors over H_2: an n=4 tensor of
    rank 12 whose bundle is a sum of two 2-instantons."""
    a = sample_corank2(2, field, ("two_sum", seed, 0))
    b = sample_corank2(2, field, ("two_sum", seed, 1))
    return block_sum(a, b)


class RestrictedSumFamily:
    """Restrictions of a sum of two 2-instantons along a moving hyperplane.

    The base tensor is diag(w', w'') over H_4.  For t = (t0, t1) != 0 the
    hyperplane ker(-t1, 0, t0, 0) is embedded by a fixed matrix f_t and the
    restricted tensor over H_3 has rank 12 exactly when t0 t1 != 0, dropping
    to 10 on the two axes where its bundle splits off a null-correlation
    summand.  The constructor searches seeded 2-instanton pairs until the
    two Schur complements have rank 2 and their images fill V*.
    """

    def __init__(self, field: Field, seed=0):
        self.field = field
        f = field
        st = Stream("restricted_sum", f.spec_str(), seed)
        for trial in range(RETRY_LIMIT):
            wp = sample_corank2(2, f, ("rsf", seed, trial, 0))
            ws = sample_corank2(2, f, ("rsf", seed, trial, 1))
            if self._admissible(wp, ws):
                self.wp = wp
                self.ws = ws
                return
        raise SampleError("no admissible 2-instanton pair for the family")

    def _admissible(self, wp: OmegaTensor, ws: OmegaTensor) -> bool:
        f = self.field
        eta = []
        for t in (wp, ws):
            m11 = t.entry_skew_matrix(1, 1)
            if m11.rank() != 4:
                return False
            m00 = t.entry_skew_matrix(0, 0)
            m01 = t.entry_skew_matrix(0, 1)
            schur = m00 - m01 @ m11.inverse() @ m01
            if schur.rank() != 2:
                return False
            eta.append(schur)
        return eta[0].vstack(eta[1]).rank() == 4

    def base_tensor(self) -> OmegaTensor:
        return block_sum(self.wp, self.ws)

    def hyperplane_matrix(self, t0, t1) -> Mat:
        f = self.field
        z = f.zero()
        one = f.one()
        return Mat.from_rows(
            f,
            [[t0, z, z], [z, one, z], [t1, z, z], [z, z, one]],
            3,
        )

    def tensor(self, t0, t1) -> OmegaTensor:
        """The family member at parameter (t0, t1).

        Rank is 12 exactly when t0 t1 != 0, and 10 on the punctured axes; the
        origin gives the rank-8 sum of the two lower-right corners.
        """
        f = self.field
        wp, ws = self.wp, self.ws

        def scaled(row: list, c) -> list:
            return [f.mul(c, x) for x in row]

        def added(r1: list, r2: list) -> list:
            return [f.add(x, y) for x, y in zip(r1, r2)]

        t0sq = f.mul(t0, t0)
        t1sq = f.mul(t1, t1)
        e00 = added(scaled(wp.entry_form(0, 0), t0sq), scaled(ws.entry_form(0, 0), t1sq))
        e01 = scaled(wp.entry_form(0, 1), t0)
        e02 = scaled(ws.entry_form(0, 1), t1)
        e11 = wp.entry_form(1, 1)
        e22 = ws.entry_form(1, 1)
        entries = {}
        for (i, j), form in (
            ((0, 0), e00),
            ((0, 1), e01),
            ((0, 2), e02),
            ((1, 1), e11),
            ((2, 2), e22),
        ):
            for w, (k, l) in enumerate(WEDGE_PAIRS):
                if not f.is_zero(form[w]):
                    entries[(i, j, k, l)] = form[w]
        return OmegaTensor.from_entries(3, f, entries)


NAMED_EXAMPLES = ("nc", "degenerate-rank6", "thooft2", "thooft3", "thooft4", "thooft5",
                  "two-sum", "three-nc", "sum-family:<t0>,<t1>")


def named_example(name: str, field: Field, seed=0) -> OmegaTensor:
    """Resolve a documented example id to its tensor."""
    if name == "nc":
        return nc_tensor(field)
    if name == "degenerate-rank6":
        return degenerate_rank6(field)
    if name.startswith("thooft"):
        return thooft_tensor(int(name[len("thooft"):]), field, seed)
    if name == "two-sum":
        return two_instanton_sum(field, seed)
    if name == "three-nc":
        return three_nc_tensor(field, seed=seed)
    if name.startswith("sum-family:"):
        t0_str, t1_str = name[len("sum-family:"):].split(",")
        fam = RestrictedSumFamily(field, seed=seed)
        return fam.tensor(field.parse(t0_str), field.parse(t1_str))
    raise ValueError(f"unknown example id {name!r}; known: {', '.join(NAMED_EXAMPLES)}")


# -- samplers ----------------------------------------------------------------


def random_tensor(n: int, field: Field, stream: Stream) -> OmegaTensor:
    npairs = n * (n + 1) // 2
    return OmegaTensor.from_vec(n, field, stream.next_vector(field, 6 * npairs))


def sample_full(n: int, field: Field, seed) -> OmegaTensor:
    """Member of the open full-rank stratum: rank 4n.

    Full rank makes the flattening injective on all of H (x) V, so
    non-degeneracy is automatic and no separate classification is needed.
    """
    st = Stream("sample_full", field.spec_str(), n, seed)
    for _ in range(RETRY_LIMIT):
        cand = random_tensor(n, field, st)
        if cand.rank() == 4 * n:
            return cand
    raise SampleError(f"no full-rank tensor after {RETRY_LIMIT} draws (n={n}, seed={seed})")


def sample_corank2(n: int, field: Field, seed, budget: Budget = LIGHT_BUDGET) -> OmegaTensor:
    """Non-degenerate tensor of rank exactly 4n - 2, found on a random pencil.

    The determinant of the flattening along w0 + t w1 is interpolated as a
    polynomial in t; its roots in the field are scanned for a point where the
    rank drops by exactly one skew step and classification does not report
    degeneracy.
    """
    if n < 2:
        raise ValueError("corank-2 sampling needs n >= 2")
    f = field
    if f.p is not None and f.p <= 4 * n:
        raise ValueError(
            f"corank-2 sampling interpolates the pencil determinant at the 4n + 1 = {4 * n + 1} "
            f"points 0..4n, but they collide in {f.spec_str()} (characteristic {f.p} <= 4n, "
            f"n = {n})"
        )
    st = Stream("sample_corank2", f.spec_str(), n, seed)
    for trial in range(RETRY_LIMIT):
        w0 = random_tensor(n, f, st)
        w1 = random_tensor(n, f, st)
        points = [f.of_int(i) for i in range(4 * n + 1)]
        values = []
        for t in points:
            vec = [f.add(a, f.mul(t, b)) for a, b in zip(w0.vec(), w1.vec())]
            values.append(OmegaTensor.from_vec(n, f, vec).flatten().mat.det())
        poly = poly_trim(poly_interpolate(points, values, f), f)
        if not poly:
            continue  # the whole pencil is singular; try another
        found, _residual = poly_roots(poly, f)
        for t in found:
            vec = [f.add(a, f.mul(t, b)) for a, b in zip(w0.vec(), w1.vec())]
            cand = OmegaTensor.from_vec(n, f, vec)
            if cand.rank() != 4 * n - 2:
                continue
            if not classify(cand, budget).is_degenerate:
                return cand
    raise SampleError(f"no corank-2 point found (n={n}, seed={seed})")


def fiber_solution_space(omega_bar: OmegaTensor, *, monad: Monad | None = None) -> Subspace:
    """Solution space of the linear system that extends a display one step up.

    Unknown is the map u1: N -> V*; the constraint is that u1 o phi o u-bar*
    is skew with respect to V in every H-bar slot.  The dimension equals
    (dim H-bar) + h0 E(1) of the base tensor, which is checked elsewhere.
    """
    m = monad if monad is not None else build_monad(omega_bar)
    f = omega_bar.field
    nbar, mm = m.nH, m.m
    # unknowns: u1[k][s] flattened as k * mm + s
    cons = MatBuilder(f, nbar * 10, 4 * mm)
    row = 0
    for b in range(nbar):
        for (k, l) in sym_pairs(4):
            for s in range(mm):
                wl = m.wmat.get(s, hv_index(b, l))
                if not f.is_zero(wl):
                    cons.add(row, k * mm + s, wl)
                wk = m.wmat.get(s, hv_index(b, k))
                if not f.is_zero(wk):
                    cons.add(row, l * mm + s, wk)
            row += 1
    return cons.build().kernel()


def _assemble_extension(omega_bar: OmegaTensor, monad: Monad, u1: Mat) -> OmegaTensor:
    """Fold the block operator [[u1 phi u1*, u1 w], [-(u1 w)^T, flat]] into a
    tensor over H_{n+1}; the solved skew conditions make the fold exact."""
    f = omega_bar.field
    nbar = omega_bar.n
    mbar = monad.m
    flat = omega_bar.flatten().mat
    tl = u1 @ monad.phi @ u1.transpose()
    tr = u1 @ monad.wmat
    n = nbar + 1
    big = MatBuilder(f, 4 * n, 4 * n)
    for k in range(4):
        for l in range(4):
            big.set(k, l, tl.get(k, l))
        for c in range(4 * nbar):
            big.set(k, 4 + c, tr.get(k, c))
            big.set(4 + c, k, f.neg(tr.get(k, c)))
    for r in range(4 * nbar):
        for c in range(4 * nbar):
            big.set(4 + r, 4 + c, flat.get(r, c))
    skew = SkewForm(n, f, big.build())
    out = unflatten(skew)
    if out.rank() != omega_bar.rank():
        raise AssertionError("extension changed the rank")
    return out


def extend_fiber(
    omega_bar: OmegaTensor, seed, budget: Budget = LIGHT_BUDGET
) -> OmegaTensor:
    """One induction step (n-1, r+2) -> (n, r) over the given base tensor.

    Draws seeded points of the extension solution space until the assembled
    tensor classifies as not degenerate; the fiber does contain degenerate
    points (u1 = 0 is always one), so rejection is expected.
    """
    f = omega_bar.field
    m = build_monad(omega_bar)
    if m.r < 4:
        raise MonadError("base display must have r >= 4 to extend downward")
    space = fiber_solution_space(omega_bar, monad=m)
    expected = omega_bar.n + m.h_values(1)[0]
    if space.dim != expected:
        raise AssertionError(
            f"extension space has dim {space.dim}, expected n-bar + h0 E(1) = {expected}"
        )
    st = Stream("extend_fiber", f.spec_str(), omega_bar.n, seed)
    for _ in range(RETRY_LIMIT):
        vec = [f.zero()] * (4 * m.m)
        for t in range(space.dim):
            c = st.next_element(f)
            row = space.basis.row(t)
            vec = [f.add(x, f.mul(c, y)) for x, y in zip(vec, row)]
        u1 = Mat.from_rows(f, [vec[k * m.m : (k + 1) * m.m] for k in range(4)], m.m)
        if u1.is_zero():
            continue
        cand = _assemble_extension(omega_bar, m, u1)
        if not classify(cand, budget).is_degenerate:
            return cand
    raise SampleError(f"extension fiber produced no admissible tensor (seed={seed})")


def extend_affine(omega_bar: OmegaTensor, alpha: Mat) -> OmegaTensor:
    """Extension of a full-rank tensor by an arbitrary alpha: H-bar -> wedge^2 V*.

    alpha is given as an n-bar x 6 coefficient matrix.  The top-left block
    -A flat^{-1} A^T is V-skew for every alpha, the rank is preserved, and
    restricting along (1, 0, ..., 0) returns the base tensor exactly.
    """
    f = omega_bar.field
    nbar = omega_bar.n
    if alpha.nrows != nbar or alpha.ncols != 6:
        raise ValueError("alpha must be an n-bar x 6 coefficient matrix")
    flat = omega_bar.flatten().mat
    if flat.rank() != 4 * nbar:
        raise MonadError("affine extension needs a full-rank base tensor")
    # A: V -> (H-bar (x) V)* columns; A[k, 4b+l] = alpha_b(e_k, e_l)
    a = MatBuilder(f, 4, 4 * nbar)
    for b in range(nbar):
        row = alpha.row(b)
        for w, (k, l) in enumerate(WEDGE_PAIRS):
            c = row[w]
            if f.is_zero(c):
                continue
            a.add(k, hv_index(b, l), c)
            a.add(l, hv_index(b, k), f.neg(c))
    amat = a.build()
    tl = -(amat @ flat.inverse() @ amat.transpose())
    n = nbar + 1
    big = MatBuilder(f, 4 * n, 4 * n)
    for k in range(4):
        for l in range(4):
            big.set(k, l, tl.get(k, l))
        for c in range(4 * nbar):
            big.set(k, 4 + c, amat.get(k, c))
            big.set(4 + c, k, f.neg(amat.get(k, c)))
    for r in range(4 * nbar):
        for c in range(4 * nbar):
            big.set(4 + r, 4 + c, flat.get(r, c))
    skew = SkewForm(n, f, big.build())
    out = unflatten(skew)
    if out.rank() != 4 * nbar:
        raise AssertionError("affine extension changed the rank")
    return out


def sample_instanton(
    n: int, r: int, field: Field, seed, budget: Budget = LIGHT_BUDGET
) -> OmegaTensor:
    """Member of M(n, r) built constructively.

    r = 2n comes from the open stratum, r = 2n-2 from a pencil, and anything
    lower climbs the restriction induction from (n-1, r+2).
    """
    if n < 1 or n > 5:
        raise ValueError("samplers cover 1 <= n <= 5")
    if r % 2 != 0 or r < 2 or r > 2 * n:
        raise ValueError(f"(n, r) = ({n}, {r}) is not an admissible pair")
    if r == 2 * n:
        return sample_full(n, field, seed)
    if r == 2 * n - 2:
        return sample_corank2(n, field, seed, budget)
    base = sample_instanton(n - 1, r + 2, field, ("chain", seed, n - 1), budget)
    return extend_fiber(base, ("chain", seed, n), budget)
