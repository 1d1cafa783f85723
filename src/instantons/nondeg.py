# Deciding whether a tensor pairs nonzero against every decomposable vector
# h (x) v.  Two one-sided procedures cooperate: an exhaustive-with-budget
# witness scan over the projective spaces of H and V (through small extension
# fields), and a sound emptiness certificate that checks a bigraded piece of
# the ideal generated by the 4n bilinear forms <omega(h (x) v), basis> equals
# the whole space.  A closed certificate proves non-degeneracy over the
# algebraic closure; a found witness disproves it exactly; anything else is
# reported as unknown, never guessed.

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction

import numpy as np

from .bases import hv_index, monomial_index_map, monomials, num_monomials
from .fields import ExtensionField, Field, PrimeField
from .linalg import Mat, _np_rref, _use_np
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


def _flatten_in_field(omega: OmegaTensor, target: Field) -> Mat:
    base = omega.field
    m = omega.flatten().mat
    if target == base:
        return m
    # embedding of a prime field into its extension
    rows = [[target.embed(x) for x in m.row(i)] for i in range(m.nrows)]
    return Mat.from_rows(target, rows, m.ncols)


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
    n = omega.n
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
        scan_h = n <= 4
        dim = n if scan_h else 4
        for point in projective_points(fld, dim, point_cap):
            other = _contract_side(m, n, point, scan_h, fld)
            ker = other.kernel()
            if ker.dim > 0:
                partner = ker.basis.row(0)
                h, v = (point, partner) if scan_h else (partner, point)
                if _verify_witness(m, n, h, v, fld):
                    return h, v, fld
                raise AssertionError("witness failed exact re-verification")
    if base.kind == "rational":
        return _lifted_witness(omega, point_cap)
    return None


_AUX_PRIME = 311


def _lifted_witness(omega: OmegaTensor, point_cap: int):
    """Scan the reduction of a rational tensor mod a small auxiliary prime
    and lift any witness back, keeping it only if it re-verifies exactly."""
    q = omega.field
    aux = PrimeField(_AUX_PRIME)
    n = omega.n
    m_q = omega.flatten().mat
    rows = []
    for i in range(m_q.nrows):
        row = []
        for x in m_q.row(i):
            fr = Fraction(x)
            if fr.denominator % _AUX_PRIME == 0:
                return None  # reduction undefined; skip the auxiliary route
            row.append(fr.numerator * pow(fr.denominator, -1, _AUX_PRIME) % _AUX_PRIME)
        rows.append(row)
    m_p = Mat.from_rows(aux, rows, m_q.ncols)

    def centered(x: int) -> Fraction:
        x %= _AUX_PRIME
        return Fraction(x - _AUX_PRIME if x > _AUX_PRIME // 2 else x)

    scan_h = n <= 4
    dim = n if scan_h else 4
    for point in projective_points(aux, dim, point_cap):
        other = _contract_side(m_p, n, point, scan_h, aux)
        ker = other.kernel()
        if ker.dim == 0:
            continue
        partner = ker.basis.row(0)
        h_p, v_p = (point, partner) if scan_h else (partner, point)
        h = [centered(x) for x in h_p]
        v = [centered(x) for x in v_p]
        if any(x != 0 for x in h) and any(x != 0 for x in v):
            if _verify_witness(m_q, n, h, v, q):
                return h, v, q
    return None


def _contract_side(m: Mat, n: int, point: list, scan_h: bool, fld: Field) -> Mat:
    """Columns of the flattening contracted against a fixed h or fixed v."""
    if scan_h:
        cols = 4
    else:
        cols = n
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


def _verify_witness(m: Mat, n: int, h: list, v: list, fld: Field) -> bool:
    for i in range(m.nrows):
        mrow = m.row(i)
        acc = fld.zero()
        for a in range(n):
            if fld.is_zero(h[a]):
                continue
            for k in range(4):
                acc2 = fld.mul(h[a], fld.mul(v[k], mrow[hv_index(a, k)]))
                acc = fld.add(acc, acc2)
        if not fld.is_zero(acc):
            return False
    return True


# -- spanning certificate ----------------------------------------------------


class _NpAccumulator:
    """Incremental row-echelon basis mod p with vectorized chunk reduction."""

    def __init__(self, p: int, ncols: int):
        self.p = p
        self.ncols = ncols
        self.basis = np.zeros((0, ncols), dtype=np.int64)
        self.pivots: list[int] = []

    def add(self, rows: np.ndarray) -> None:
        p = self.p
        for start in range(0, rows.shape[0], 1024):
            if len(self.pivots) == self.ncols:
                return
            chunk = rows[start : start + 1024] % p
            if self.pivots:
                coef = chunk[:, self.pivots]
                if coef.any():
                    chunk = (chunk - coef @ self.basis) % p
            red, piv = _np_rref(chunk, p)
            k = len(piv)
            if k == 0:
                continue
            red = red[:k]
            if self.pivots:
                coef = self.basis[:, piv]
                if coef.any():
                    self.basis = (self.basis - coef @ red) % p
            merged = np.vstack([self.basis, red])
            allpiv = self.pivots + piv
            order = np.argsort(allpiv, kind="stable")
            self.basis = merged[order]
            self.pivots = sorted(allpiv)

    @property
    def rank(self) -> int:
        return len(self.pivots)


class _GenericAccumulator:
    """Row-echelon accumulator over any field (rationals, extensions)."""

    def __init__(self, field: Field, ncols: int):
        self.field = field
        self.ncols = ncols
        self.rows: list[list] = []
        self.pivots: list[int] = []

    def add(self, rows: list[list]) -> None:
        f = self.field
        for row in rows:
            if len(self.pivots) == self.ncols:
                return
            v = list(row)
            for r, pc in enumerate(self.pivots):
                c = v[pc]
                if not f.is_zero(c):
                    br = self.rows[r]
                    v = [f.sub(x, f.mul(c, y)) for x, y in zip(v, br)]
            lead = next((i for i, x in enumerate(v) if not f.is_zero(x)), None)
            if lead is None:
                continue
            inv = f.inv(v[lead])
            v = [f.mul(inv, x) for x in v]
            for r in range(len(self.rows)):
                c = self.rows[r][lead]
                if not f.is_zero(c):
                    self.rows[r] = [f.sub(x, f.mul(c, y)) for x, y in zip(self.rows[r], v)]
            pos = sum(1 for pc in self.pivots if pc < lead)
            self.rows.insert(pos, v)
            self.pivots.insert(pos, lead)

    @property
    def rank(self) -> int:
        return len(self.pivots)


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
        self._pieces: dict[tuple[int, int], object] = {}
        self._fast = _use_np(self.field)

    def _ambient(self, d: int, e: int) -> int:
        return num_monomials(self.n, d) * num_monomials(4, e)

    def _mul_maps(self, nvars: int, deg: int) -> list[list[int]]:
        src = monomials(nvars, deg)
        tgt = monomial_index_map(nvars, deg + 1)
        return [[tgt[tuple(sorted(m + (i,)))] for m in src] for i in range(nvars)]

    def _generators(self):
        """Rows of the (1,1) piece: the flattening's columns as bilinear forms."""
        m = self.omega.flatten().mat
        if self._fast:
            return m.np().T.copy()
        return m.transpose().rows()

    def piece(self, d: int, e: int):
        key = (d, e)
        if key in self._pieces:
            return self._pieces[key]
        if d < 1 or e < 1:
            raise ValueError("bigraded degrees start at (1, 1)")
        ncols = self._ambient(d, e)
        acc = (
            _NpAccumulator(self.field.p, ncols)
            if self._fast
            else _GenericAccumulator(self.field, ncols)
        )
        if (d, e) == (1, 1):
            acc.add(self._generators())
        elif d > 1:
            # the (d, e) piece is exactly S^1 H* times the (d-1, e) piece
            self._add_h_multiples(acc, self.piece(d - 1, e), d - 1, e)
        else:
            self._add_v_multiples(acc, self.piece(d, e - 1), d, e - 1)
        self._pieces[key] = acc
        return acc

    def _add_h_multiples(self, acc, prev, d: int, e: int) -> None:
        countV = num_monomials(4, e)
        mul = self._mul_maps(self.n, d)
        tgt_countH = num_monomials(self.n, d + 1)
        if self._fast:
            rows = prev.basis
            if rows.shape[0] == 0:
                return
            for i in range(self.n):
                out = np.zeros((rows.shape[0], tgt_countH * countV), dtype=np.int64)
                for src_h, tgt_h in enumerate(mul[i]):
                    out[:, tgt_h * countV : (tgt_h + 1) * countV] += rows[
                        :, src_h * countV : (src_h + 1) * countV
                    ]
                acc.add(out % self.field.p)
                if acc.rank == acc.ncols:
                    return
        else:
            f = self.field
            for i in range(self.n):
                out_rows = []
                for row in prev.rows:
                    out = [f.zero()] * (tgt_countH * countV)
                    for src_h, tgt_h in enumerate(mul[i]):
                        for v in range(countV):
                            c = row[src_h * countV + v]
                            if not f.is_zero(c):
                                out[tgt_h * countV + v] = f.add(out[tgt_h * countV + v], c)
                    out_rows.append(out)
                acc.add(out_rows)
                if acc.rank == acc.ncols:
                    return

    def _add_v_multiples(self, acc, prev, d: int, e: int) -> None:
        countV = num_monomials(4, e)
        tgt_countV = num_monomials(4, e + 1)
        countH = num_monomials(self.n, d)
        mul = self._mul_maps(4, e)
        if self._fast:
            rows = prev.basis
            if rows.shape[0] == 0:
                return
            for k in range(4):
                out = np.zeros((rows.shape[0], countH * tgt_countV), dtype=np.int64)
                for src_v, tgt_v in enumerate(mul[k]):
                    out[:, tgt_v::tgt_countV] += rows[:, src_v::countV]
                acc.add(out % self.field.p)
                if acc.rank == acc.ncols:
                    return
        else:
            f = self.field
            for k in range(4):
                out_rows = []
                for row in prev.rows:
                    out = [f.zero()] * (countH * tgt_countV)
                    for h in range(countH):
                        for src_v, tgt_v in enumerate(mul[k]):
                            c = row[h * countV + src_v]
                            if not f.is_zero(c):
                                out[h * tgt_countV + tgt_v] = f.add(out[h * tgt_countV + tgt_v], c)
                    out_rows.append(out)
                acc.add(out_rows)
                if acc.rank == acc.ncols:
                    return

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
