# Tensors in S^2 H* (x) wedge^2 V* and their flattenings to skew forms on
# H (x) V, together with the functorial operations: restriction to a
# hyperplane of H, GL(H) conjugation, block sums, contraction against a line,
# and the canonical split of a skew form into its S^2 (x) wedge^2 and
# wedge^2 (x) S^2 parts.

from __future__ import annotations

import json

from .bases import (
    WEDGE_PAIRS,
    hv_index,
    sym_index_map,
    sym_pairs,
    wedge_coord,
)
from .fields import Field, field_from_spec
from .linalg import Mat, Subspace


class OmegaTensor:
    """Coefficients of a tensor in S^2 H* (x) wedge^2 V*.

    Stored as a matrix with one row per unordered pair (i <= j) of H*-indices
    and one column per wedge pair (k < l) of V*-indices.  The off-diagonal
    symmetric coefficient is stored once; flattening repeats it rather than
    doubling it, so published coefficient matrices transcribe literally.
    """

    __slots__ = ("n", "field", "coeffs", "_sym_idx")

    def __init__(self, n: int, field: Field, coeffs: Mat):
        if coeffs.nrows != n * (n + 1) // 2 or coeffs.ncols != 6:
            raise ValueError("coefficient matrix has wrong shape")
        self.n = n
        self.field = field
        self.coeffs = coeffs
        self._sym_idx = sym_index_map(n)

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(n: int, field: Field) -> "OmegaTensor":
        return OmegaTensor(n, field, Mat.zeros(field, n * (n + 1) // 2, 6))

    @staticmethod
    def from_entries(n: int, field: Field, entries) -> "OmegaTensor":
        """Build from {(i, j, k, l): c} with i <= j and k < l."""
        rows = [[field.zero()] * 6 for _ in range(n * (n + 1) // 2)]
        sym = sym_index_map(n)
        for (i, j, k, l), c in entries.items():
            if i > j or k >= l or l > 3 or k < 0 or j >= n or i < 0:
                raise ValueError(f"bad index quadruple {(i, j, k, l)}")
            rows[sym[(i, j)]][wedge_coord(k, l)[0]] = c
        return OmegaTensor(n, field, Mat.from_rows(field, rows, 6))

    @staticmethod
    def from_vec(n: int, field: Field, vec: list) -> "OmegaTensor":
        """Inverse of :meth:`vec`: row-major coefficients over pairs x wedges."""
        npairs = n * (n + 1) // 2
        if len(vec) != 6 * npairs:
            raise ValueError("wrong coefficient count")
        rows = [vec[6 * r : 6 * r + 6] for r in range(npairs)]
        return OmegaTensor(n, field, Mat.from_rows(field, rows, 6))

    def vec(self) -> list:
        return [x for row in self.coeffs.rows() for x in row]

    # -- element access ---------------------------------------------------

    def get(self, i: int, j: int, k: int, l: int):
        """Coefficient on (e_i* e_j*) (x) (x_k ^ x_l), any index order."""
        f = self.field
        if k == l:
            return f.zero()
        if i > j:
            i, j = j, i
        w, sign = wedge_coord(k, l)
        c = self.coeffs.get(self._sym_idx[(i, j)], w)
        return c if sign == 1 else f.neg(c)

    def entry_form(self, i: int, j: int) -> list:
        """The wedge^2 V* entry at (i, j) as its 6 coefficients."""
        if i > j:
            i, j = j, i
        return self.coeffs.row(self._sym_idx[(i, j)])

    def entry_skew_matrix(self, i: int, j: int) -> Mat:
        """Entry (i, j) as the 4x4 skew matrix of a 2-form on V."""
        f = self.field
        row = self.entry_form(i, j)
        m = [[f.zero()] * 4 for _ in range(4)]
        for w, (k, l) in enumerate(WEDGE_PAIRS):
            m[k][l] = row[w]
            m[l][k] = f.neg(row[w])
        return Mat.from_rows(f, m, 4)

    # -- flattening -------------------------------------------------------

    def flatten(self) -> "SkewForm":
        """The tensor as a skew 4n x 4n form on H (x) V."""
        f, n = self.field, self.n
        m = [[f.zero()] * (4 * n) for _ in range(4 * n)]
        for (i, j), r in self._sym_idx.items():
            row = self.coeffs.row(r)
            for w, (k, l) in enumerate(WEDGE_PAIRS):
                c = row[w]
                if f.is_zero(c):
                    continue
                nc = f.neg(c)
                m[hv_index(i, k)][hv_index(j, l)] = f.add(m[hv_index(i, k)][hv_index(j, l)], c)
                m[hv_index(i, l)][hv_index(j, k)] = f.add(m[hv_index(i, l)][hv_index(j, k)], nc)
                if i != j:
                    m[hv_index(j, k)][hv_index(i, l)] = f.add(m[hv_index(j, k)][hv_index(i, l)], c)
                    m[hv_index(j, l)][hv_index(i, k)] = f.add(m[hv_index(j, l)][hv_index(i, k)], nc)
        return SkewForm(self.n, self.field, Mat.from_rows(f, m, 4 * n))

    def rank(self) -> int:
        return self.flatten().mat.rank()

    def image(self) -> Subspace:
        """Image subspace N of the flattening, in H* (x) V* coordinates."""
        return self.flatten().mat.row_space()

    # -- functorial operations ---------------------------------------------

    def _wedge_slices(self) -> list[Mat]:
        """Per-wedge n x n symmetric coefficient matrices."""
        f, n = self.field, self.n
        out = []
        for w in range(6):
            m = [[f.zero()] * n for _ in range(n)]
            for (i, j), r in self._sym_idx.items():
                c = self.coeffs.get(r, w)
                m[i][j] = c
                m[j][i] = c
            out.append(Mat.from_rows(f, m, n))
        return out

    @staticmethod
    def _from_wedge_slices(n: int, field: Field, slices: list[Mat]) -> "OmegaTensor":
        rows = []
        for (i, j) in sym_pairs(n):
            rows.append([slices[w].get(i, j) for w in range(6)])
        return OmegaTensor(n, field, Mat.from_rows(field, rows, 6))

    def apply_h_map(self, g: Mat) -> "OmegaTensor":
        """Pull back along a linear map g: H' -> H (an n x n' matrix)."""
        if g.nrows != self.n:
            raise ValueError("row count must match dim H")
        gt = g.transpose()
        slices = [gt @ s @ g for s in self._wedge_slices()]
        return OmegaTensor._from_wedge_slices(g.ncols, self.field, slices)

    def conjugate(self, g: Mat) -> "OmegaTensor":
        """The tensor in the GL(H)-orbit at g; g must be invertible."""
        if g.nrows != self.n or g.ncols != self.n:
            raise ValueError("g must be n x n")
        if g.rank() != self.n:
            raise ValueError("g is singular")
        return self.apply_h_map(g)

    def restrict_basis(self, j: Mat) -> "OmegaTensor":
        """Restriction along an explicit inclusion j: H-bar -> H."""
        return self.apply_h_map(j)

    def restrict_xi(self, xi: list) -> "OmegaTensor":
        """Restriction to the kernel of a nonzero linear form xi on H.

        The kernel basis is the canonical reduced-echelon one, so the result
        is reproducible; any other choice differs by conjugation.
        """
        j = kernel_inclusion(self.field, xi)
        return self.apply_h_map(j)

    def contract_line(self, lam: list) -> Mat:
        """Pair the wedge^2 V* part against lam in wedge^2 V: an n x n quadric."""
        f, n = self.field, self.n
        m = [[f.zero()] * n for _ in range(n)]
        for (i, j), r in self._sym_idx.items():
            row = self.coeffs.row(r)
            acc = f.zero()
            for w in range(6):
                acc = f.add(acc, f.mul(row[w], lam[w]))
            m[i][j] = acc
            m[j][i] = acc
        return Mat.from_rows(f, m, n)

    def __eq__(self, other) -> bool:
        if not isinstance(other, OmegaTensor):
            return NotImplemented
        return self.n == other.n and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.n, self.coeffs))

    def __repr__(self) -> str:
        return f"OmegaTensor(n={self.n}, {self.field.spec_str()})"


class SkewForm:
    """A skew bilinear form on H (x) V as its 4n x 4n matrix."""

    __slots__ = ("n", "field", "mat")

    def __init__(self, n: int, field: Field, mat: Mat):
        if mat.nrows != 4 * n or mat.ncols != 4 * n:
            raise ValueError("wrong shape for a form on H (x) V")
        if not (mat + mat.transpose()).is_zero():
            raise ValueError("matrix is not skew-symmetric")
        self.n = n
        self.field = field
        self.mat = mat

    def rank(self) -> int:
        return self.mat.rank()

    def __eq__(self, other) -> bool:
        if not isinstance(other, SkewForm):
            return NotImplemented
        return self.n == other.n and self.mat == other.mat


class SkewHPart:
    """Coordinates in wedge^2 H* (x) S^2 V*: one row per pair i < j of
    H*-indices (lex), one column per monomial x_k x_l, k <= l."""

    __slots__ = ("n", "field", "coeffs", "_idx")

    def __init__(self, n: int, field: Field, coeffs: Mat):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        if coeffs.nrows != len(pairs) or coeffs.ncols != 10:
            raise ValueError("coefficient matrix has wrong shape")
        self.n = n
        self.field = field
        self.coeffs = coeffs
        self._idx = {pair: r for r, pair in enumerate(pairs)}

    @staticmethod
    def zero(n: int, field: Field) -> "SkewHPart":
        return SkewHPart(n, field, Mat.zeros(field, n * (n - 1) // 2, 10))

    def is_zero(self) -> bool:
        return self.coeffs.is_zero()

    def flatten(self) -> SkewForm:
        f, n = self.field, self.n
        s2 = sym_pairs(4)
        m = [[f.zero()] * (4 * n) for _ in range(4 * n)]
        for (i, j), r in self._idx.items():
            row = self.coeffs.row(r)
            for col, (k, l) in enumerate(s2):
                c = row[col]
                if f.is_zero(c):
                    continue
                nc = f.neg(c)
                m[hv_index(i, k)][hv_index(j, l)] = f.add(m[hv_index(i, k)][hv_index(j, l)], c)
                m[hv_index(j, k)][hv_index(i, l)] = f.add(m[hv_index(j, k)][hv_index(i, l)], nc)
                if k != l:
                    m[hv_index(i, l)][hv_index(j, k)] = f.add(m[hv_index(i, l)][hv_index(j, k)], c)
                    m[hv_index(j, l)][hv_index(i, k)] = f.add(m[hv_index(j, l)][hv_index(i, k)], nc)
        return SkewForm(n, f, Mat.from_rows(f, m, 4 * n))


def decompose(s: SkewForm) -> tuple[OmegaTensor, SkewHPart]:
    """Split a skew form on H (x) V into its two canonical summands.

    Returns (sym_part, skewH_part) with
    flatten(sym_part) + flatten(skewH_part) == s, checked exactly.
    """
    f, n = s.field, s.n
    if f.kind == "prime" and f.p == 2:
        raise ValueError("canonical split needs characteristic != 2")
    half = f.inv(f.of_int(2))
    m = s.mat
    sym_rows = []
    for (i, j) in sym_pairs(n):
        row = []
        for (k, l) in WEDGE_PAIRS:
            a = m.get(hv_index(i, k), hv_index(j, l))
            b = m.get(hv_index(j, k), hv_index(i, l))
            row.append(f.mul(half, f.add(a, b)))
        sym_rows.append(row)
    sym = OmegaTensor(n, f, Mat.from_rows(f, sym_rows, 6))
    skew_rows = []
    for i in range(n):
        for j in range(i + 1, n):
            row = []
            for (k, l) in sym_pairs(4):
                a = m.get(hv_index(i, k), hv_index(j, l))
                b = m.get(hv_index(j, k), hv_index(i, l))
                row.append(f.mul(half, f.sub(a, b)))
            skew_rows.append(row)
    skewh = SkewHPart(n, f, Mat.from_rows(f, skew_rows, 10))
    if not (sym.flatten().mat + skewh.flatten().mat == m):
        raise ArithmeticError("canonical split failed to reconstruct input")
    return sym, skewh


def unflatten(s: SkewForm) -> OmegaTensor:
    """Inverse of flatten on forms that lie in the S^2 (x) wedge^2 summand."""
    sym, skewh = decompose(s)
    if not skewh.is_zero():
        raise ValueError("form has a nonzero wedge^2 H* (x) S^2 V* component")
    return sym


def kernel_inclusion(field: Field, xi: list) -> Mat:
    """Canonical basis of ker(xi) as the columns of an n x (n-1) matrix."""
    f = field
    n = len(xi)
    row = Mat.from_rows(f, [xi], n)
    if row.is_zero():
        raise ValueError("xi must be nonzero")
    ker = row.kernel()
    if ker.dim != n - 1:
        raise AssertionError("kernel of a nonzero form must have codimension 1")
    return ker.basis.transpose()


def block_sum(a: OmegaTensor, b: OmegaTensor) -> OmegaTensor:
    """Block-diagonal sum over H_{n1+n2}; rank is additive."""
    if a.field != b.field:
        raise ValueError("field mismatch")
    f = a.field
    n = a.n + b.n
    entries = {}
    for (i, j) in sym_pairs(a.n):
        row = a.entry_form(i, j)
        for w, (k, l) in enumerate(WEDGE_PAIRS):
            if not f.is_zero(row[w]):
                entries[(i, j, k, l)] = row[w]
    for (i, j) in sym_pairs(b.n):
        row = b.entry_form(i, j)
        for w, (k, l) in enumerate(WEDGE_PAIRS):
            if not f.is_zero(row[w]):
                entries[(a.n + i, a.n + j, k, l)] = row[w]
    return OmegaTensor.from_entries(n, f, entries)


# -- tensor file format -------------------------------------------------


def tensor_to_obj(t: OmegaTensor) -> dict:
    """JSON-ready form: {"n", "field", "entries": [{i,j,k,l,c}...]}, zeros omitted."""
    f = t.field
    if f.kind == "prime-extension":
        raise ValueError("tensor files carry rational or prime-field entries only")
    entries = []
    for (i, j) in sym_pairs(t.n):
        row = t.entry_form(i, j)
        for w, (k, l) in enumerate(WEDGE_PAIRS):
            if not f.is_zero(row[w]):
                entries.append({"i": i, "j": j, "k": k, "l": l, "c": f.to_str(row[w])})
    return {"n": t.n, "field": f.spec_str(), "entries": entries}


def tensor_from_obj(obj: dict) -> OmegaTensor:
    field = field_from_spec(obj["field"])
    n = int(obj["n"])
    entries = {}
    for e in obj["entries"]:
        key = int(e["i"]), int(e["j"]), int(e["k"]), int(e["l"])
        if key in entries:
            raise ValueError(f"duplicate entry (i,j,k,l) = {key}")
        try:
            entries[key] = field.parse(str(e["c"]))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(
                f"entry (i,j,k,l) = {key}: coefficient {e['c']!r} is not an element of "
                f"{field.spec_str()} ({exc})"
            ) from None
    return OmegaTensor.from_entries(n, field, entries)


def write_tensor(t: OmegaTensor, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(tensor_to_obj(t), fh, indent=1, sort_keys=True)
        fh.write("\n")


def read_tensor(path: str) -> OmegaTensor:
    with open(path) as fh:
        return tensor_from_obj(json.load(fh))
