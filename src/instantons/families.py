# Constructors for the named tensors used throughout the package and the
# seeded samplers: full-rank tensors, corank-2 points found on pencils,
# the special 'tHooft tensors recovered from their banded net matrices, the
# degeneration family of a sum of two 2-instantons, and the restriction
# induction that climbs (n-1, r+2) -> (n, r).

from __future__ import annotations

from functools import lru_cache, reduce

from .fields import Field
from .linalg import Mat, Pattern, Stream, Subspace, det_pencil
from .monads import Monad, MonadError, build_monad, gated_display
from .nondeg import LIGHT_BUDGET, classify
from .polys import roots as poly_roots
from .tensors import MAX_N, OmegaTensor, block_sum, unflatten, wedge_matrix
from .bases import form_slots, hv_index, sym_pairs

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
    return Mat.identity(field, 2 * n + 2).take_rows([2 * a + k for a in range(n) for k in range(4)])


@lru_cache(maxsize=None)
def _net_constraint_pattern(n_ann: int, n: int) -> Pattern:
    """The functionals t of ann composed with the flattening of each basis
    tensor (p, w), which is +-1 at its slots (r, c): row t * 4n + c."""
    slots = form_slots(n)
    terms = ((t * 4 * n + c, p * 6 + w, t, r, sign)
             for t in range(n_ann) for r, c, p, w, sign in slots)
    return Pattern((n_ann * 4 * n, 3 * n * (n + 1)), (n_ann, 4 * n), terms)


def _random_point(space: Subspace, st: Stream) -> list:
    """A seeded combination of the basis of space."""
    f = space.field
    coords = Mat.from_rows(f, [[st.next_element(f) for _ in range(space.dim)]], space.dim)
    return (coords @ space.basis).row(0)


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
    if Subspace.from_spanning(net.transpose()).dim != ncols:
        raise AssertionError("net matrix must have independent columns")
    ann = net.transpose().kernel()  # functionals vanishing on N
    space = ann.basis.gather(_net_constraint_pattern(ann.dim, n)).kernel()
    if space.dim == 0:
        raise SampleError(f"no tensor has image inside the n={n} net")
    st = Stream("thooft", f.spec_str(), n, seed)
    for _ in range(RETRY_LIMIT):
        cand = OmegaTensor.from_vec(n, f, _random_point(space, st))
        if cand.rank() == ncols:
            h0e1 = build_monad(cand).h_values(1)[0]
            if h0e1 != 2:
                raise AssertionError(f"net tensor has h0 E(1) = {h0e1}, expected 2")
            return cand
    raise SampleError(
        f"no rank-{ncols} tensor found in the {space.dim}-dimensional net space"
    )


def three_nc_tensor(field: Field, seed=0) -> OmegaTensor:
    """Block-diagonal sum of three indecomposable 2-forms over H_3."""
    f = field
    st = Stream("three_nc", f.spec_str(), seed)
    parts = []
    while len(parts) < 3:
        part = nc_tensor(f, st.next_vector(f, 6))
        if part.rank() == 4:
            parts.append(part)
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
        eta = []
        lo, hi = [0, 1, 2, 3], [4, 5, 6, 7]
        for t in (wp, ws):
            # block (a, b) of the flattening is the skew matrix of the form at (a, b)
            flat = t.flatten()
            m11 = flat.take_rows(hi).take_cols(hi)
            if m11.rank() != 4:
                return False
            m00 = flat.take_rows(lo).take_cols(lo)
            m01 = flat.take_rows(lo).take_cols(hi)
            schur = m00 - m01 @ m11.inverse() @ m01
            if schur.rank() != 2:
                return False
            eta.append(schur)
        return eta[0].vstack(eta[1]).rank() == 4

    def tensor(self, t0, t1) -> OmegaTensor:
        """The family member at parameter (t0, t1).

        Rank is 12 exactly when t0 t1 != 0, and 10 on the punctured axes; the
        origin gives the rank-8 sum of the two lower-right corners.
        """
        f = self.field
        z, one = f.zero(), f.one()
        # rows (0,0), (0,1), (0,2), (1,1), (1,2), (2,2) of the result from the
        # rows (0,0), (0,1), (1,1) of wp and then of ws
        mix = Mat.from_rows(f, [
            [f.mul(t0, t0), z, z, f.mul(t1, t1), z, z],
            [z, t0, z, z, z, z],
            [z, z, z, z, t1, z],
            [z, z, one, z, z, z],
            [z] * 6,
            [z, z, z, z, z, one],
        ], 6)
        return OmegaTensor(3, f, mix @ self.wp.coeffs.vstack(self.ws.coeffs))


NAMED_EXAMPLES = ("nc", "degenerate-rank6", "thooft2", "thooft3", "thooft4", "thooft5",
                  "two-sum", "three-nc", "sum-family:<t0>,<t1>")


def named_example(name: str, field: Field, seed=0) -> OmegaTensor:
    """Resolve a documented example id to its tensor."""
    if name == "nc":
        return nc_tensor(field)
    if name == "degenerate-rank6":
        return degenerate_rank6(field)
    if name.startswith("thooft"):
        digits = name[len("thooft"):]
        if not digits.isdecimal():
            raise ValueError(f"example {name!r}: expected thooft<n>, n in 2..5")
        return thooft_tensor(int(digits), field, seed)
    if name == "two-sum":
        return two_instanton_sum(field, seed)
    if name == "three-nc":
        return three_nc_tensor(field, seed=seed)
    if name.startswith("sum-family:"):
        # an element of GF(p^k) is k comma-separated coordinates
        parts, k = name[len("sum-family:"):].split(","), field.k
        try:
            if len(parts) != 2 * k:
                raise ValueError(name)
            t0, t1 = field.parse(",".join(parts[:k])), field.parse(",".join(parts[k:]))
        except ValueError:
            each = f", each {k} comma-separated coordinates" if k > 1 else ""
            raise ValueError(f"example {name!r}: expected sum-family:<t0>,<t1>, "
                             f"t0 and t1 in {field.spec_str()}{each}") from None
        return RestrictedSumFamily(field, seed=seed).tensor(t0, t1)
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


def sample_corank2(n: int, field: Field, seed) -> OmegaTensor:
    """Non-degenerate tensor of rank exactly 4n - 2, found on a random pencil.

    The determinant of the flattening along w0 + t w1 is found as a
    polynomial in t; its roots in the field are scanned for a point where the
    rank drops by exactly one skew step and classification does not report
    degeneracy.
    """
    if n < 2:
        raise ValueError("corank-2 sampling needs n >= 2")
    f = field
    if f.kind == "rational":
        raise ValueError("corank-2 sampling (it needs roots of a random pencil determinant) "
                         "is unsupported in rational mode; use a prime field")
    st = Stream("sample_corank2", f.spec_str(), n, seed)
    for trial in range(RETRY_LIMIT):
        w0 = random_tensor(n, f, st)
        w1 = random_tensor(n, f, st)
        def member(t) -> OmegaTensor:
            return OmegaTensor(n, f, w0.coeffs + w1.coeffs.scale(t))

        # the flattening is linear in the tensor: member t's is flat w0 + t flat w1
        poly = det_pencil(w0.flatten(), w1.flatten(), f"corank-2 sampling at n = {n}")
        if not poly:
            continue  # the whole pencil is singular; try another
        found, _residual = poly_roots(poly, f)
        for t in found:
            cand = member(t)
            if cand.rank() != 4 * n - 2:
                continue
            if not classify(cand, LIGHT_BUDGET).is_degenerate:
                return cand
    raise SampleError(f"no corank-2 point found (n={n}, seed={seed})")


@lru_cache(maxsize=None)
def _fiber_pattern(nbar: int, mm: int) -> Pattern:
    """The V-symmetric part of u1 o w in slot b, linear in u1[k][s] (column
    k * mm + s): row (b, k <= l) takes w[s, (b, l)] at (k, s) and w[s, (b, k)] at (l, s)."""
    terms = ((b * 10 + q, x * mm + s, s, hv_index(b, y), 1)
             for b in range(nbar) for q, (k, l) in enumerate(sym_pairs(4))
             for x, y in ((k, l), (l, k)) for s in range(mm))
    return Pattern((nbar * 10, 4 * mm), (mm, 4 * nbar), terms)


def fiber_solution_space(omega_bar: OmegaTensor) -> Subspace:
    """Solution space of the linear system that extends a display one step up.

    Unknown is the map u1: N -> V*; the constraint is that u1 o phi o u-bar*
    is skew with respect to V in every H-bar slot.  The dimension equals
    (dim H-bar) + h0 E(1) of the base tensor, which fiber_dim_check checks.
    """
    m = build_monad(omega_bar)
    return m.wmat.gather(_fiber_pattern(m.nH, m.m)).kernel()


def fiber_dim_check(omega_bar: OmegaTensor) -> tuple[Subspace, int]:
    """The extension solution space and the dimension n-bar + h0 E(1) it
    must have, computed by independent routes (linear solve vs cohomology)."""
    m = gated_display(omega_bar)
    return fiber_solution_space(omega_bar), omega_bar.n + m.h_values(1)[0]


def _fold(tl: Mat, tr: Mat, flat: Mat) -> OmegaTensor:
    """The tensor over H_{n+1} whose flattening is [[tl, tr], [-tr^T, flat]]."""
    big = tl.hstack(tr).vstack((-tr.transpose()).hstack(flat))
    return unflatten(big)


def _assemble_extension(omega_bar: OmegaTensor, monad: Monad, u1: Mat) -> OmegaTensor:
    """Fold the block operator [[u1 phi u1*, u1 w], [-(u1 w)^T, flat]] into a
    tensor over H_{n+1}; the solved skew conditions make the fold exact."""
    tr = u1 @ monad.wmat
    out = _fold(u1 @ monad.phi @ u1.transpose(), tr, omega_bar.flatten())
    if out.rank() != omega_bar.rank():
        raise AssertionError("extension changed the rank")
    return out


def extend_fiber(omega_bar: OmegaTensor, seed) -> OmegaTensor:
    """One induction step (n-1, r+2) -> (n, r) over the given base tensor.

    Draws seeded points of the extension solution space until the assembled
    tensor classifies as not degenerate; the fiber does contain degenerate
    points (u1 = 0 is always one), so rejection is expected.
    """
    f = omega_bar.field
    if f.p == 2:
        raise ValueError(f"the extension fiber needs characteristic != 2, not {f.spec_str()}")
    m = gated_display(omega_bar)
    if m.r < 4:
        raise MonadError("base display must have r >= 4 to extend downward")
    space, expected = fiber_dim_check(omega_bar)
    if space.dim != expected:
        raise AssertionError(
            f"extension space has dim {space.dim}, expected n-bar + h0 E(1) = {expected}"
        )
    st = Stream("extend_fiber", f.spec_str(), omega_bar.n, seed)
    for _ in range(RETRY_LIMIT):
        vec = _random_point(space, st)
        u1 = Mat.from_rows(f, [vec[k * m.m : (k + 1) * m.m] for k in range(4)], m.m)
        if u1.is_zero():
            continue
        cand = _assemble_extension(omega_bar, m, u1)
        if not classify(cand, LIGHT_BUDGET).is_degenerate:
            return cand
    raise SampleError(f"extension fiber produced no admissible tensor (seed={seed})")


def extend_affine(omega_bar: OmegaTensor, alpha: Mat) -> OmegaTensor:
    """Extension of a full-rank tensor by an arbitrary alpha: H-bar -> wedge^2 V*.

    alpha is given as an n-bar x 6 coefficient matrix.  The top-left block
    -A flat^{-1} A^T is V-skew for every alpha, the rank is preserved, and
    restricting along (1, 0, ..., 0) returns the base tensor exactly.
    """
    nbar = omega_bar.n
    if alpha.nrows != nbar or alpha.ncols != 6:
        raise ValueError("alpha must be an n-bar x 6 coefficient matrix")
    flat = omega_bar.flatten()
    if flat.rank() != 4 * nbar:
        raise MonadError("affine extension needs a full-rank base tensor")
    # A: V -> (H-bar (x) V)* columns; A[k, 4b+l] = alpha_b(e_k, e_l), the
    # skew matrices of the rows of alpha side by side
    amat = reduce(Mat.hstack, (wedge_matrix(alpha.field, row) for row in alpha.rows()))
    out = _fold(-(amat @ flat.inverse() @ amat.transpose()), amat, flat)
    if out.rank() != 4 * nbar:
        raise AssertionError("affine extension changed the rank")
    return out


def sample_instanton(n: int, r: int, field: Field, seed) -> OmegaTensor:
    """Member of M(n, r) built constructively.

    r = 2n comes from the open stratum, r = 2n-2 from a pencil, and anything
    lower climbs the restriction induction from (n-1, r+2).
    """
    if not 1 <= n <= MAX_N:
        raise ValueError(f"samplers cover 1 <= n <= {MAX_N}")
    if r % 2 != 0 or r < 2 or r > 2 * n:
        raise ValueError(f"(n, r) = ({n}, {r}) is not an admissible pair")
    if r == 2 * n:
        return sample_full(n, field, seed)
    if r == 2 * n - 2:
        return sample_corank2(n, field, seed)
    base = sample_instanton(n - 1, r + 2, field, ("chain", seed, n - 1))
    return extend_fiber(base, ("chain", seed, n))
