# Deciding whether a tensor pairs nonzero against every decomposable vector
# h (x) v.  Two one-sided procedures cooperate: an exhaustive-with-budget
# witness scan over the projective spaces of H and V (through small extension
# fields), and a sound emptiness certificate that checks a bigraded piece of
# the ideal generated by the 4n bilinear forms <omega(h (x) v), basis> equals
# the whole space.  A closed certificate proves non-degeneracy over the
# algebraic closure; a found witness disproves it exactly; anything else is
# reported as unknown, never guessed.  Both are written on Mat alone
# (products, Kronecker products, column placement, rref): how a field is
# stored, numpy or Python elements, is linalg's business.

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from .bases import mono_mul, monomial_index_map, monomials, num_monomials
from .fields import ExtensionField, Field, PrimeField
from .linalg import Mat, kron
from .tensors import OmegaTensor

DEFAULT_SCHEDULE: tuple[tuple[int, int], ...] = (
    (1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (3, 2), (3, 3), (4, 4),
)


@dataclass(frozen=True)
class Budget:
    """Search effort for classification; all caps are hard and recorded."""

    max_ext_degree: int = 2
    point_cap: int = 4096
    field_size_cap: int = 1 << 20
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

    def to_obj(self) -> dict:
        return {
            "status": self.status,
            "witness_h": self.witness_h,
            "witness_v": self.witness_v,
            "witness_field": self.witness_field,
            "certified_degrees": list(self.certified_degrees) if self.certified_degrees else None,
            "reason": self.reason,
            "searched": self.searched,
        }


# -- witness scan -----------------------------------------------------------


def projective_points(field: Field, dim: int, cap: int):
    """Standard basis vectors first, then leading-one affine charts, capped."""
    count = 0
    one, zero = field.one(), field.zero()
    for i in range(dim):
        v = [zero] * dim
        v[i] = one
        yield v
        count += 1
        if count >= cap:
            return
    if field.kind == "rational":
        # small-height combinations only; the scan is a heuristic over Q
        vals = [Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(-2)]
        for lead in range(dim):
            tail = dim - lead - 1

            def rec(pos: int, acc: list):
                if pos == tail:
                    yield [zero] * lead + [one] + acc
                    return
                for e in vals:
                    yield from rec(pos + 1, acc + [e])

            for v in rec(0, []):
                if sum(1 for x in v if x != 0) == 1:
                    continue  # basis vectors already emitted
                yield v
                count += 1
                if count >= cap:
                    return
        return
    elems = list(field.elements())
    for lead in range(dim):
        tail = dim - lead - 1

        def rec(pos: int, acc: list):
            if pos == tail:
                yield [zero] * lead + [one] + acc
                return
            for e in elems:
                yield from rec(pos + 1, acc + [e])

        for v in rec(0, []):
            if sum(1 for x in v if not field.is_zero(x)) == 1:
                continue
            yield v
            count += 1
            if count >= cap:
                return


def _flatten_in_field(omega: OmegaTensor, target: Field) -> Mat | None:
    """The flattening with its entries embedded into an extension of the base
    field, or reduced from Q mod the prime of target; None when a denominator
    vanishes mod that prime."""
    base = omega.field
    m = omega.flatten().mat
    if target == base:
        return m
    rows = m.rows()
    if base.kind == "rational":
        p = target.p
        if any(x.denominator % p == 0 for r in rows for x in r):
            return None
        rows = [[x.numerator * pow(x.denominator, -1, p) for x in r] for r in rows]
    else:
        rows = [[target.embed(x) for x in r] for r in rows]
    return Mat.from_rows(target, rows, m.ncols)


def _column(fld: Field, vec: list) -> Mat:
    return Mat.from_rows(fld, [[x] for x in vec], 1)


def _candidates(m: Mat, n: int, fld: Field, point_cap: int):
    """(h, v) with m @ (h (x) v) = 0, in enumeration order.

    Scans the smaller of P(H), P(V): a point h is contracted to
    m @ (h (x) I_4), a point v to m @ (I_n (x) v), and the first vector of
    the contraction's kernel basis is its partner.
    """
    scan_h = n <= 4
    eye = Mat.identity(fld, 4 if scan_h else n)
    for point in projective_points(fld, n if scan_h else 4, point_cap):
        col = _column(fld, point)
        ker = (m @ (kron(col, eye) if scan_h else kron(eye, col))).kernel()
        if ker.dim > 0:
            partner = ker.basis.row(0)
            yield (point, partner) if scan_h else (partner, point)


def _is_witness(m: Mat, h: list, v: list, fld: Field) -> bool:
    return (m @ kron(_column(fld, h), _column(fld, v))).is_zero()


def witness_search(
    omega: OmegaTensor,
    max_ext_degree: int = 1,
    point_cap: int = 4096,
    field_size_cap: int = 1 << 20,
) -> tuple[list, list, Field] | None:
    """First (h, v) with omega(h (x) v) = 0 in a fixed enumeration order.

    Scans the smaller of P(H), P(V) over the base field and then over
    extensions of degree up to max_ext_degree (finite base fields only),
    subject to the point cap and a cap on the extension field size.  A
    returned witness is re-verified exactly before being reported.
    """
    base = omega.field
    degrees = range(1, max_ext_degree + 1) if base.kind == "prime" else [1]
    for j in degrees:
        if base.kind == "prime":
            if base.p**j > field_size_cap:
                break
            fld = base if j == 1 else ExtensionField(base.p, j)
        else:
            fld = base
        m = _flatten_in_field(omega, fld)
        for h, v in _candidates(m, omega.n, fld, point_cap):
            if not _is_witness(m, h, v, fld):
                raise AssertionError("witness failed exact re-verification")
            return h, v, fld
    if base.kind == "rational":
        return _lifted_witness(omega, point_cap)
    return None


_AUX_PRIME = 311


def _lifted_witness(omega: OmegaTensor, point_cap: int):
    """Scan the reduction of a rational tensor mod a small auxiliary prime
    and lift any witness back, keeping it only if it re-verifies exactly."""
    aux = PrimeField(_AUX_PRIME)
    m_p = _flatten_in_field(omega, aux)
    if m_p is None:
        return None  # reduction undefined; skip the auxiliary route
    q = omega.field
    m_q = omega.flatten().mat

    def centered(x: int) -> Fraction:
        return Fraction(x - _AUX_PRIME if x > _AUX_PRIME // 2 else x)

    for h_p, v_p in _candidates(m_p, omega.n, aux, point_cap):
        h = [centered(x) for x in h_p]
        v = [centered(x) for x in v_p]
        if any(h) and any(v) and _is_witness(m_q, h, v, q):
            return h, v, q
    return None


# -- spanning certificate ----------------------------------------------------

class _Accumulator:
    """Reduced row-echelon basis of a growing row space."""

    def __init__(self, field: Field, ncols: int):
        self.ncols = ncols
        self.basis = Mat.zeros(field, 0, ncols)
        self.pivots: list[int] = []

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def add(self, rows: Mat) -> None:
        if self.pivots:
            rows = rows - rows.take_cols(self.pivots) @ self.basis
        red, piv = rows.rref()
        if not piv:
            return
        red = red.take_rows(range(len(piv)))
        if self.pivots:
            self.basis = self.basis - self.basis.take_cols(piv) @ red
        allpiv = self.pivots + piv
        order = sorted(range(len(allpiv)), key=allpiv.__getitem__)
        self.basis = self.basis.vstack(red).take_rows(order)
        self.pivots = sorted(allpiv)


def _times_variable(nvars: int, deg: int) -> list[list[int]]:
    """Per variable, the index of each degree-deg monomial times it in degree deg + 1."""
    tgt = monomial_index_map(nvars, deg + 1)
    return [[tgt[mono_mul(m, i)] for m in monomials(nvars, deg)] for i in range(nvars)]


class SpanningCertifier:
    """Bigraded pieces of the ideal of the bilinear forms of a tensor.

    Piece (d, e) lives in S^d H* (x) S^e V*; it is built incrementally by
    multiplying lower pieces by the coordinate variables, so a whole schedule
    of degree checks shares work.  closes(d, e) == True certifies, soundly,
    that the forms have no common zero with both factors nonzero over the
    algebraic closure.
    """

    def __init__(self, omega: OmegaTensor):
        self.omega = omega
        self.field = omega.field
        self.n = omega.n
        self._pieces: dict[tuple[int, int], _Accumulator] = {}

    def _ambient(self, d: int, e: int) -> int:
        return num_monomials(self.n, d) * num_monomials(4, e)

    def piece(self, d: int, e: int) -> _Accumulator:
        key = (d, e)
        if key in self._pieces:
            return self._pieces[key]
        if d < 1 or e < 1:
            raise ValueError("bigraded degrees start at (1, 1)")
        acc = _Accumulator(self.field, self._ambient(d, e))
        if (d, e) == (1, 1):
            # the flattening's columns as bilinear forms on H (x) V
            acc.add(self.omega.flatten().mat.transpose())
        else:
            # the (d, e) piece is S^1 H* times the (d-1, e) piece, or S^1 V*
            # times the (d, e-1) piece; a monomial times a variable is one
            # monomial, so each multiple of a row is the row with its columns
            # moved to the column h * count_v + v of their product
            count_v = num_monomials(4, e)
            if d > 1:
                prev = self.piece(d - 1, e)
                places = [[th * count_v + v for th in img for v in range(count_v)]
                          for img in _times_variable(self.n, d - 1)]
            else:
                prev = self.piece(d, e - 1)
                places = [[h * count_v + tv for h in range(num_monomials(self.n, d)) for tv in img]
                          for img in _times_variable(4, e - 1)]
            for idx in places:
                acc.add(prev.basis.place_cols(idx, acc.ncols))
                if acc.rank == acc.ncols:
                    break
        self._pieces[key] = acc
        return acc

    def closes(self, d: int, e: int) -> bool:
        acc = self.piece(d, e)
        return acc.rank == self._ambient(d, e)


def spanning_certificate(omega: OmegaTensor, degrees: tuple[int, int]) -> bool:
    """True iff the (d, e) bigraded piece of the form ideal is everything.

    Sound certificate of non-degeneracy over the algebraic closure; monotone
    in each degree.
    """
    d, e = degrees
    if d < 1 or e < 1:
        raise ValueError("degrees must be >= 1")
    return SpanningCertifier(omega).closes(d, e)


# -- classification ----------------------------------------------------------


def classify(omega: OmegaTensor, budget: Budget = DEFAULT_BUDGET) -> Verdict:
    """Decide degenerate / certified-nondegenerate / unknown within budget.

    Order: the necessary rank bound (rank <= 2n forces degeneracy), then the
    witness scan, then the spanning certificate schedule.  A certificate is
    never reported when a witness was found.
    """
    n = omega.n
    rank = omega.rank()
    searched = {"rank": rank}
    if rank <= 2 * n:
        w = witness_search(omega, 1, min(budget.point_cap, 512), budget.field_size_cap)
        if w is not None:
            h, v, fld = w
            return Verdict(
                "degenerate",
                witness_h=_ser_vec(fld, h),
                witness_v=_ser_vec(fld, v),
                witness_field=fld.spec_str(),
                reason=f"rank {rank} <= 2n",
                searched=searched,
            )
        return Verdict("degenerate", reason=f"rank {rank} <= 2n (stratum bound)", searched=searched)
    w = witness_search(omega, budget.max_ext_degree, budget.point_cap, budget.field_size_cap)
    searched["witness_points"] = budget.point_cap
    if w is not None:
        h, v, fld = w
        return Verdict(
            "degenerate",
            witness_h=_ser_vec(fld, h),
            witness_v=_ser_vec(fld, v),
            witness_field=fld.spec_str(),
            reason="witness found by scan",
            searched=searched,
        )
    cert = SpanningCertifier(omega)
    for (d, e) in budget.schedule:
        if cert.closes(d, e):
            return Verdict(
                "certified-nondegenerate",
                certified_degrees=(d, e),
                reason=f"ideal piece ({d},{e}) is full",
                searched=searched,
            )
    searched["schedule"] = list(map(list, budget.schedule))
    return Verdict("unknown", reason="budget exhausted", searched=searched)


def _ser_vec(fld: Field, v: list) -> list:
    return [fld.to_str(x) for x in v]
