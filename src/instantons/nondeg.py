# Deciding whether a tensor pairs nonzero against every decomposable vector
# h (x) v.  Two one-sided procedures cooperate.  An exhaustive-with-budget
# witness scan over the projective spaces of H and V (through small extension
# fields) screens the points through a fixed sketch of the flattening and
# contracts only the points it leaves with the flattening itself: a long run
# of the enumeration lies on one line, and there the only possible witnesses
# are the roots of one polynomial, the determinant of the sketched
# contraction along the line.  A sound emptiness certificate checks that a
# bigraded piece of the ideal generated by the 4n bilinear forms
# <omega(h (x) v), basis> equals the whole space.  A piece is ranked through
# its annihilator, Macaulay's inverse system in its bidegree: the piece is
# full when the annihilator is zero, and each annihilator follows from the
# one a degree lower in an elimination as wide as that one's dimension times
# the number of variables.  A closed certificate proves non-degeneracy over
# the algebraic closure; a found witness disproves it exactly; anything else
# is reported as unknown, never guessed.  Both are written on Mat alone
# (products, Kronecker products, gathers, column placement, kernels, the
# ranks of column blocks, pencil determinants): how a field is stored, numpy
# or Python elements, is linalg's business.

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import cache, lru_cache

from .bases import hv_index, num_monomials, times_variable
from .fields import ExtensionField, Field, PrimeField, is_prime
from .linalg import Mat, Pattern, Stream, det_pencils, vanishing_rows
from .tensors import OmegaTensor

DEFAULT_SCHEDULE: tuple[tuple[int, int], ...] = (
    (1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (3, 2), (3, 3), (4, 4),
)
# the witness scan stops before an extension field with more elements
FIELD_SIZE_CAP = 1 << 20


@dataclass(frozen=True)
class Budget:
    """Search effort for classification; all caps are hard and recorded."""

    max_ext_degree: int = 2
    point_cap: int = 4096
    schedule: tuple[tuple[int, int], ...] = DEFAULT_SCHEDULE


DEFAULT_BUDGET = Budget()
# cheap screen used inside rejection samplers; final tensors get the default
LIGHT_BUDGET = Budget(max_ext_degree=1, point_cap=96, schedule=((1, 1), (2, 2), (2, 3)))


@dataclass
class Verdict:
    """Outcome of classify(); degenerate verdicts carry an exact witness when
    one was found (rank-stratum degeneracy may leave it empty)."""

    status: str  # "degenerate" | "certified-nondegenerate" | "unknown"
    witness_h: list | None = None
    witness_v: list | None = None
    witness_field: str | None = None
    certified_degrees: tuple[int, int] | None = None
    reason: str = ""
    searched: dict = dc_field(default_factory=dict)

    @property
    def is_degenerate(self) -> bool:
        return self.status == "degenerate"

    @property
    def is_certified(self) -> bool:
        return self.status == "certified-nondegenerate"


# -- witness scan -----------------------------------------------------------


def _flatten_in_field(omega: OmegaTensor, target: Field) -> Mat | None:
    """The flattening with its entries embedded into an extension of the base
    field, or reduced from Q mod the prime of target; None when a denominator
    vanishes mod that prime."""
    base = omega.field
    m = omega.flatten()
    if target == base:
        return m
    if base.kind == "rational":
        return m.reduce_mod(target)
    return Mat.from_rows(target, m.rows(), m.ncols)


@cache
def _sketch(fld: Field, nrows: int, width: int) -> Mat:
    """The scan's fixed screen L: width + 1 rows, and in each column j one
    nonzero entry, in row j mod (width + 1), drawn from a Stream keyed by
    the field and the shape, and kept.  L m costs one product per nonzero
    of m.  Its first width rows, a square sketch, screen the long runs of
    points (see _candidates); all width + 1 rows screen the rest."""
    st = Stream("witness-sketch", fld.spec_str(), nrows, width)
    vals = [fld.one() if fld.is_zero(x) else x for x in st.next_vector(fld, nrows)]
    rows = [[x if j % (width + 1) == i else fld.zero() for j, x in enumerate(vals)]
            for i in range(width + 1)]
    return Mat.from_rows(fld, rows, nrows)


# points screened in one product: with n <= 5 a chunk's sketched product and
# its elimination stack hold (w + 1) w 1024 <= 30 720 entries, 240 kB
_CHUNK = 1024


def _pieces(fld: Field, dim: int, width: int, start: int, stop: int):
    """Points start .. stop - 1 of the scan, in order, as (lo, hi, lines) of
    at most _CHUNK points each.  A piece holds either points of the runs of
    Mat.projective_runs of at most width + 1 points, with lines None, or
    points of longer runs, each on one line: then lines lists each one's
    (line, lo, hi), line the index of its first point scanned, so a run cut
    at a piece's end goes on with the same line in the next piece."""
    segments, long = [], None
    for lo, hi, size in Mat.projective_runs(fld, dim, start, stop):
        line = lo
        while lo < hi:
            if segments and (long != (size > width + 1)
                             or segments[-1][2] - segments[0][1] == _CHUNK):
                yield segments[0][1], segments[-1][2], segments if long else None
                segments = []
            long = size > width + 1
            end = min(hi, (segments[0][1] if segments else lo) + _CHUNK)
            segments.append((line, lo, end))
            lo = end
    if segments:
        yield segments[0][1], segments[-1][2], segments if long else None


def _line_determinants(square: Mat, points: Mat) -> Mat:
    """Row i: the coefficients of det(a_i + x b), a_i and b the contractions
    of the square sketch S = L' m with h0_i, row i of points with its last
    coordinate set to 0, and with e_(dim-1).  As contraction is linear in
    the point, a_i + x b = S M(h0_i + x e_(dim-1))."""
    fld, dim, width = points.field, points.ncols, square.nrows
    h0 = points.take_cols(range(dim - 1)).place_cols(range(dim - 1), dim)
    e_last = Mat.identity(fld, dim).take_rows([dim - 1] * points.nrows)
    return det_pencils(square.contract_blocks(h0, width), square.contract_blocks(e_last, width),
                       "the witness scan's line screen")


def _candidates(m: Mat, n: int, fld: Field, start: int, stop: int, points: dict):
    """(h, v) with m @ (h (x) v) = 0, for the points of index start .. stop - 1
    in enumeration order.

    Scans the smaller of P(H), P(V), a piece of Mat.projective_points at a
    time (see _pieces), as the rows of P: column block b of
    m.contract_blocks(P, w) is the contraction M(h) of point b.  The columns
    of m are indexed 4a + k, (a, k) in H x V; to scan P(V) they are first
    reordered to k n + a.  Points are screened through the sketch L m, L of
    w + 1 rows: rank(L M) <= rank(M), so only the points the screen leaves
    are contracted with m itself.  A run of more than w + 1 points lies on a
    line h0 + x e_last, where the square sketch L' of L's first w rows gives
    the pencil L' M(h0) + x L' M(e_last).  A witness makes it singular, so
    only the roots of its determinant, every point when that is zero, go on:
    one det_pencils gives the polynomials, of degree at most w, of all lines
    of a piece (w + 1 points each, which a field of more than w + 1
    elements has).  On shorter runs each point's (w + 1) x w sketched block
    is ranked.  A full contraction passed as deficient costs time, never a
    verdict.  A point's partner is the first vector of its contraction's
    kernel basis.  The points scanned, through the last one yielded, are
    added to points[fld.spec_str()].
    """
    scan_h = n <= 4
    dim, width = (n, 4) if scan_h else (4, n)
    if not scan_h:
        m = m.take_cols([hv_index(a, k) for k in range(4) for a in range(n)])
    g = _sketch(fld, m.nrows, width) @ m
    square = g.take_rows(range(width))
    key = fld.spec_str()
    last = None, None  # the last line screened, and its determinant's row
    for lo, hi, lines in _pieces(fld, dim, width, start, stop):
        chunk = Mat.projective_points(fld, dim, lo, hi)
        if lines is None:
            ranks = g.contract_blocks(chunk, width).block_ranks(width)[0]
            suspects = [b for b, rank in enumerate(ranks) if rank < width]
        else:
            # only the first line can go on from the piece before
            known = lines[0][0] == last[0]
            dets = last[1] if known else Mat.zeros(fld, 0, width + 1)
            if len(lines) > known:
                starts = [a - lo for _, a, _ in lines[known:]]
                dets = dets.vstack(_line_determinants(square, chunk.take_rows(starts)))
            last = lines[-1][0], dets.take_rows([len(lines) - 1])
            suspects = vanishing_rows(dets, chunk.take_cols([dim - 1]),
                                      [b - a for _, a, b in lines])
        done = 0
        if suspects:
            prod = m.contract_blocks(chunk.take_rows(suspects), width)
            for i, (b, rank) in enumerate(zip(suspects, prod.block_ranks(width)[0])):
                if rank == width:
                    continue
                points[key] = points.get(key, 0) + b + 1 - done
                done = b + 1
                ker = prod.take_cols(range(i * width, (i + 1) * width)).kernel()
                if ker.dim == 0:
                    raise AssertionError("a rank-deficient contraction has a zero kernel")
                partner = ker.basis.row(0)
                yield (chunk.row(b), partner) if scan_h else (partner, chunk.row(b))
        points[key] = points.get(key, 0) + chunk.nrows - done


def _is_witness(m: Mat, h: list, v: list, fld: Field) -> bool:
    return (m @ Mat.from_rows(fld, [[fld.mul(x, y)] for x in h for y in v], 1)).is_zero()


def witness_search(
    omega: OmegaTensor,
    max_ext_degree: int = 1,
    point_cap: int = 4096,
    start: int = 0,
    points: dict | None = None,
) -> tuple[list, list, Field] | None:
    """First (h, v) with omega(h (x) v) = 0 in Mat.projective_points' order.

    Scans the smaller of P(H), P(V) over the base field and then over
    extensions of degree up to max_ext_degree (finite base fields only),
    subject to the point cap; the base field is scanned at any size, an
    extension only up to FIELD_SIZE_CAP elements.  A returned witness is
    re-verified exactly before being reported.  The fixed sketch that
    screens the points (see _candidates), by rank a chunk at a time or by
    the roots of one determinant per line, changes neither the witness, nor
    its partner, nor the points counted.

    Each field's scan begins at point index start.  classify passes the
    number of standard-basis points once it has scanned them over the base
    field: a basis point with no partner there has none over an extension
    or, lifted from the auxiliary prime, over Q either.  So the lifted scan
    begins after the basis points in any case, and is skipped, reduction
    and all, when the cap leaves it no point.  The points scanned in each
    field are added to points, keyed by the field's spec.
    """
    if points is None:
        points = {}
    base = omega.field
    degrees = range(1, max_ext_degree + 1) if base.kind == "prime" else [1]
    for j in degrees:
        if base.kind == "prime":
            if j > 1 and base.p**j > FIELD_SIZE_CAP:
                break
            fld = base if j == 1 else ExtensionField(base.p, j)
        else:
            fld = base
        m = _flatten_in_field(omega, fld)
        for h, v in _candidates(m, omega.n, fld, start, point_cap, points):
            if not _is_witness(m, h, v, fld):
                raise AssertionError("witness failed exact re-verification")
            return h, v, fld
    lift_start = max(start, min(omega.n, 4))
    if base.kind == "rational" and lift_start < point_cap:
        return _lifted_witness(omega, lift_start, point_cap, points)
    return None


_AUX_PRIME = 311


def _lifted_witness(omega: OmegaTensor, start: int, point_cap: int, points: dict):
    """Scan the reduction of a rational tensor mod a small auxiliary prime,
    the first prime from _AUX_PRIME on that divides no denominator, and lift
    any witness back, keeping it only if it re-verifies exactly."""
    p = _AUX_PRIME
    while not is_prime(p) or (m_p := _flatten_in_field(omega, PrimeField(p))) is None:
        p += 1
    aux = m_p.field
    q = omega.field
    m_q = omega.flatten()

    def centered(x: int) -> Fraction:
        return Fraction(x - p if x > p // 2 else x)

    for h_p, v_p in _candidates(m_p, omega.n, aux, start, point_cap, points):
        h = [centered(x) for x in h_p]
        v = [centered(x) for x in v_p]
        if any(h) and any(v) and _is_witness(m_q, h, v, q):
            return h, v, q
    return None


# -- spanning certificate ----------------------------------------------------


def _ambient(n: int, d: int, e: int) -> int:
    """Columns of the (d, e) piece: the monomials of S^d H* (x) S^e V*."""
    return num_monomials(n, d) * num_monomials(4, e)


@lru_cache(maxsize=64)
def _step_patterns(n: int, d: int, e: int, c: int) -> tuple[Pattern, Pattern]:
    """Gathers from the transpose of a basis a_0 .. a_(c-1) of A, the
    annihilator of the piece one degree lower, to the annihilator of (d, e).

    The piece is the sum of x_i times the (d - 1, e) piece (at d = 1, of y_k
    times the (1, e - 1) piece), so phi kills it exactly when every phi o x_i
    = sum_j c_ij a_j lies in A.  Then phi[M] = sum_j c_ij a_j[M / x_i] for
    every x_i dividing the monomial M: the first one, x_i0, gives phi (the
    second gather) and each further one a constraint on the c_ij, which sit
    at column i c + j (the first gather).  As the a_j are independent, the
    map from the constraints' kernel to phi is one to one.
    """
    # column (o * nm + m) * inner + t: m one of the nm monomials of degree
    # deg in the variables multiplied, o and t the monomial of the other factor
    if d > 1:
        nvars, deg, outer, inner = n, d, 1, num_monomials(4, e)
    else:
        nvars, deg, outer, inner = 4, e, n, 1
    divisors = [[] for _ in range(num_monomials(nvars, deg))]
    for i, img in enumerate(times_variable(nvars, deg - 1)):
        for q, m in enumerate(img):
            divisors[m].append((i, q))
    nm, nq = len(divisors), num_monomials(nvars, deg - 1)
    cols = [((o * nm + m) * inner + t, [(i, (o * nq + q) * inner + t) for i, q in divs])
            for o in range(outer) for m, divs in enumerate(divisors) for t in range(inner)]
    lower = (outer * nq * inner, c)
    rows = [(first, other) for _, (first, *rest) in cols for other in rest]
    constraints = Pattern((len(rows), nvars * c), lower, (
        term for r, ((i0, q0), (i, q)) in enumerate(rows) for j in range(c)
        for term in ((r, i * c + j, q, j, 1), (r, i0 * c + j, q0, j, -1))))
    lift = Pattern((nvars * c, outer * nm * inner), lower, (
        (i0 * c + j, col, q0, j, 1) for col, ((i0, q0), *_) in cols for j in range(c)))
    return constraints, lift


class InverseSystems:
    """Macaulay's inverse systems A(d, e), the annihilators of the pieces of
    the ideal of the bilinear forms in the row space of forms (4n columns,
    index 4a + k): A(1, 1) is the right kernel of forms, and each later
    basis is built from the one a degree lower (see _step_patterns) and kept."""

    def __init__(self, n: int, forms: Mat):
        self.n = n
        self.forms = forms
        self._bases: dict[tuple[int, int], Mat] = {}

    def _lower(self, d: int, e: int) -> Mat:
        return self.basis(d - 1, e) if d > 1 else self.basis(d, e - 1)

    def basis(self, d: int, e: int) -> Mat:
        """A basis of A(d, e), one row per functional, not a canonical one."""
        if (d, e) not in self._bases:
            if (d, e) == (1, 1):
                ann = self.forms.kernel_basis()
            else:
                low = self._lower(d, e)
                ann = Mat.zeros(low.field, 0, _ambient(self.n, d, e))
                if low.nrows:  # a zero annihilator stays zero
                    constraints, lift = _step_patterns(self.n, d, e, low.nrows)
                    low = low.transpose()
                    ann = low.gather(constraints).kernel_basis() @ low.gather(lift)
            self._bases[d, e] = ann
        return self._bases[d, e]

    def dim(self, d: int, e: int) -> int:
        """dim A(d, e), by one rank of the constraints when no basis is kept."""
        if (d, e) == (1, 1) or (d, e) in self._bases:
            return self.basis(d, e).nrows
        low = self._lower(d, e)
        constraints = low.transpose().gather(_step_patterns(self.n, d, e, low.nrows)[0])
        return constraints.ncols - constraints.rank()


def inverse_systems(omega: OmegaTensor) -> InverseSystems:
    """The inverse systems of the forms a tensor's flattening spans (it is
    skew, so its rows span its columns), kept on the tensor: classify's
    pieces and its display's h_values share them."""
    if omega._systems is None:
        omega._systems = InverseSystems(omega.n, omega.flatten())
    return omega._systems


@dataclass(frozen=True, eq=False)
class Piece:
    """The (d, e) piece of the ideal, of ncols = dim S^d H* (x) S^e V*
    columns, kept as a basis of its annihilator (Macaulay's inverse system
    in that degree), one row per functional: rank = ncols - dim A."""

    ncols: int
    annihilator: Mat

    @property
    def rank(self) -> int:
        return self.ncols - self.annihilator.nrows


class SpanningCertifier:
    """Bigraded pieces of the ideal of the bilinear forms of a tensor.

    Piece (d, e) lives in S^d H* (x) S^e V*.  Its annihilator comes from the
    lower piece's (see _step_patterns), in an elimination as wide as that
    one's corank times the number of variables, and is kept in the tensor's
    inverse_systems, so a schedule of degree checks and later calls share
    work; built lists each piece asked for here.
    closes(d, e) == True certifies, soundly, that the forms have no common
    zero with both factors nonzero over the algebraic closure.
    """

    def __init__(self, omega: OmegaTensor):
        self.n = omega.n
        self.systems = inverse_systems(omega)
        self._pieces: dict[tuple[int, int], Piece] = {}
        # [d, e, ambient, rank] of each piece, in the order they were built
        self.built: list[list[int]] = []

    def piece(self, d: int, e: int) -> Piece:
        if (d, e) in self._pieces:
            return self._pieces[d, e]
        if d < 1 or e < 1:
            raise ValueError("bigraded degrees start at (1, 1)")
        if d > 1:
            self.piece(d - 1, e)
        elif e > 1:
            self.piece(d, e - 1)
        piece = self._pieces[d, e] = Piece(_ambient(self.n, d, e), self.systems.basis(d, e))
        self.built.append([d, e, piece.ncols, piece.rank])
        return piece

    def closes(self, d: int, e: int) -> bool:
        return self.piece(d, e).annihilator.nrows == 0


# -- classification ----------------------------------------------------------


# classify runs the schedule's first pieces of at most this many columns
# before the full witness scan.  A piece's cost follows the corank of the one
# below it rather than its columns, but the bound stays: it decides which
# stage closes, and so the work that a verdict's searched records
_CHEAP_PIECE_COLUMNS = 400


def classify(omega: OmegaTensor, budget: Budget = DEFAULT_BUDGET) -> Verdict:
    """Decide degenerate / certified-nondegenerate / unknown within budget.

    Stages, each run only when the ones before it decided nothing:

    1. the necessary rank bound: rank <= 2n forces degeneracy (a witness is
       sought among the first 512 points of the base field);
    2. the witness scan's standard-basis points over the base field;
    3. the longest prefix of budget.schedule whose pieces (d, e) have at most
       400 columns, num_monomials(n, d) * num_monomials(4, e): at n = 3, 4
       through (3, 3), at n = 5 through (3, 2);
    4. the rest of the witness scan;
    5. the remaining pieces of the schedule.

    A closed piece proves that no witness exists and a found witness is
    exact, so the verdict, the closing bidegree and the witness are those of
    the full scan followed by the whole schedule in order.  searched records
    the work done: the rank, the points scanned in each field, each piece
    built as [d, e, ambient, rank], and the stage that decided.
    """
    n = omega.n
    rank = omega.image().dim  # the RREF the (1,1) piece and the display read, kept
    points: dict[str, int] = {}
    cert = SpanningCertifier(omega)

    def verdict(status: str, stage: str, reason: str, witness=None, degrees=None) -> Verdict:
        searched = {"rank": rank, "points": points, "pieces": cert.built, "stage": stage}
        if witness is None:
            return Verdict(status, certified_degrees=degrees, reason=reason, searched=searched)
        h, v, fld = witness
        return Verdict(
            status,
            witness_h=_ser_vec(fld, h),
            witness_v=_ser_vec(fld, v),
            witness_field=fld.spec_str(),
            reason=reason,
            searched=searched,
        )

    def certified(stage: str, pieces) -> Verdict | None:
        for d, e in pieces:
            if cert.closes(d, e):
                return verdict("certified-nondegenerate", stage,
                               f"ideal piece ({d},{e}) is full", degrees=(d, e))
        return None

    if rank <= 2 * n:
        w = witness_search(omega, 1, min(budget.point_cap, 512), points=points)
        reason = f"rank {rank} <= 2n" if w else f"rank {rank} <= 2n (stratum bound)"
        return verdict("degenerate", "rank-bound", reason, w)
    basis = min(budget.point_cap, n, 4)  # the scanned side has dimension min(n, 4)
    w = witness_search(omega, 1, basis, points=points)
    if w is not None:
        return verdict("degenerate", "basis-points", "witness found by scan", w)
    schedule = budget.schedule
    cheap = 0
    while cheap < len(schedule) and _ambient(n, *schedule[cheap]) <= _CHEAP_PIECE_COLUMNS:
        cheap += 1
    found = certified("cheap-pieces", schedule[:cheap])
    if found is not None:
        return found
    w = witness_search(omega, budget.max_ext_degree, budget.point_cap, start=basis,
                       points=points)
    if w is not None:
        return verdict("degenerate", "scan", "witness found by scan", w)
    found = certified("pieces", schedule[cheap:])
    if found is not None:
        return found
    return verdict("unknown", "none", "budget exhausted")


def _ser_vec(fld: Field, v: list) -> list:
    return [fld.to_str(x) for x in v]
