# Tensors in S^2 H* (x) wedge^2 V* and their flattenings to skew forms on
# H (x) V, together with the functorial operations: restriction to a
# hyperplane of H, GL(H) conjugation, block sums, contraction against a line,
# and the way back from a skew form in the S^2 (x) wedge^2 summand.

from __future__ import annotations

import json
from functools import lru_cache

from .bases import (
    WEDGE_PAIRS,
    form_slots,
    hv_index,
    sym_index_map,
    sym_pairs,
    WEDGE_INDEX,
)
from .fields import Field, field_from_spec
from .linalg import Mat, Pattern, Subspace, kron


@lru_cache(maxsize=None)
def _flatten_pattern(n: int) -> Pattern:
    """Coefficients (one row per H pair, one column per V pair) to the 4n x 4n form."""
    return Pattern((4 * n, 4 * n), (n * (n + 1) // 2, 6), form_slots(n))


@lru_cache(maxsize=None)
def _unflatten_pattern(n: int) -> Pattern:
    """The entry at ((i,k), (j,l)) of a 4n x 4n form for each coefficient
    (i <= j, k < l)."""
    terms = ((p, q, hv_index(i, k), hv_index(j, l), 1)
             for p, (i, j) in enumerate(sym_pairs(n)) for q, (k, l) in enumerate(WEDGE_PAIRS))
    return Pattern((n * (n + 1) // 2, 6), (4 * n, 4 * n), terms)


@lru_cache(maxsize=None)
def _symmetric_pattern(n: int, count: int) -> Pattern:
    """count columns of values on the pairs i <= j to the count symmetric
    n x n matrices side by side."""
    terms = [(r, b * n + c, p, b, 1) for b in range(count)
             for p, (i, j) in enumerate(sym_pairs(n)) for r, c in {(i, j), (j, i)}]
    return Pattern((n, n * count), (n * (n + 1) // 2, count), terms)


@lru_cache(maxsize=None)
def _sym_square_pattern(nrows: int, ncols: int) -> Pattern:
    """kron(a, a) to sym_square(a)."""
    terms = [(ri, ci, a * nrows + b, x * ncols + y, 1)
             for ri, (a, b) in enumerate(sym_pairs(nrows))
             for ci, (p, q) in enumerate(sym_pairs(ncols)) for x, y in {(p, q), (q, p)}]
    shape = (nrows * (nrows + 1) // 2, ncols * (ncols + 1) // 2)
    return Pattern(shape, (nrows * nrows, ncols * ncols), terms)


def sym_square(a: Mat) -> Mat:
    """The map that a induces on symmetric squares, in the bases sym_pairs:
    entry ((r, s), (p, q)) is the coefficient of x_p x_q in the product of
    the linear forms (row r) . x and (row s) . x."""
    return kron(a, a).gather(_sym_square_pattern(a.nrows, a.ncols))


def wedge_matrix(field: Field, form: list) -> Mat:
    """A 2-form on V, given by its 6 coefficients, as its 4x4 skew matrix."""
    return Mat.from_rows(field, [form], 6).gather(_flatten_pattern(1))


class OmegaTensor:
    """Coefficients of a tensor in S^2 H* (x) wedge^2 V*.

    Stored as a matrix with one row per unordered pair (i <= j) of H*-indices
    and one column per wedge pair (k < l) of V*-indices.  The off-diagonal
    symmetric coefficient is stored once; flattening repeats it rather than
    doubling it, so published coefficient matrices transcribe literally.
    """

    __slots__ = ("n", "field", "coeffs", "_flat", "_monad", "_systems")

    def __init__(self, n: int, field: Field, coeffs: Mat):
        if coeffs.nrows != n * (n + 1) // 2 or coeffs.ncols != 6:
            raise ValueError("coefficient matrix has wrong shape")
        self.n = n
        self.field = field
        self.coeffs = coeffs
        self._flat = None
        # the Horrocks display and the forms' inverse systems, which only
        # monads.build_monad and nondeg.inverse_systems keep, like the flattening
        self._monad = None
        self._systems = None

    # -- constructors ---------------------------------------------------

    @staticmethod
    def from_entries(n: int, field: Field, entries) -> "OmegaTensor":
        """Build from {(i, j, k, l): c} with i <= j and k < l."""
        rows = [[field.zero()] * 6 for _ in range(n * (n + 1) // 2)]
        sym = sym_index_map(n)
        for (i, j, k, l), c in entries.items():
            if i > j or k >= l or l > 3 or k < 0 or j >= n or i < 0:
                raise ValueError(f"bad index quadruple {(i, j, k, l)}")
            rows[sym[i, j]][WEDGE_INDEX[k, l]] = c
        return OmegaTensor(n, field, Mat.from_rows(field, rows, 6))

    @staticmethod
    def from_vec(n: int, field: Field, vec: list) -> "OmegaTensor":
        """From the row-major coefficients over pairs x wedges."""
        npairs = n * (n + 1) // 2
        if len(vec) != 6 * npairs:
            raise ValueError("wrong coefficient count")
        rows = [vec[6 * r : 6 * r + 6] for r in range(npairs)]
        return OmegaTensor(n, field, Mat.from_rows(field, rows, 6))

    # -- flattening -------------------------------------------------------

    def flatten(self) -> Mat:
        """The tensor as the 4n x 4n matrix of a skew form on H (x) V; built
        on the first call and kept, since the tensor is immutable."""
        if self._flat is None:
            self._flat = _skew(self.coeffs.gather(_flatten_pattern(self.n)))
        return self._flat

    def rank(self) -> int:
        return self.flatten().rank()

    def image(self) -> Subspace:
        """Image subspace N of the flattening, in H* (x) V* coordinates."""
        return Subspace.from_spanning(self.flatten())

    # -- functorial operations ---------------------------------------------

    def apply_h_map(self, g: Mat) -> "OmegaTensor":
        """Pull back along a linear map g: H' -> H (an n x n' matrix): each
        wedge^2 V* slice S becomes g^T S g."""
        if g.nrows != self.n:
            raise ValueError("row count must match dim H")
        return OmegaTensor(g.ncols, self.field, sym_square(g.transpose()) @ self.coeffs)

    def conjugate(self, g: Mat) -> "OmegaTensor":
        """The tensor in the GL(H)-orbit at g; g must be invertible."""
        if g.nrows != self.n or g.ncols != self.n:
            raise ValueError("g must be n x n")
        if g.rank() != self.n:
            raise ValueError("g is singular")
        return self.apply_h_map(g)

    def restrict_xi(self, xi: list) -> "OmegaTensor":
        """Restriction to the kernel of a nonzero linear form xi on H.

        The kernel basis is the canonical reduced-echelon one, so the result
        is reproducible; any other choice differs by conjugation.
        """
        j = kernel_inclusion(self.field, xi)
        return self.apply_h_map(j)

    def contract_line(self, lam: list) -> Mat:
        """Pair the wedge^2 V* part against lam in wedge^2 V: an n x n quadric."""
        return self.contract_lines([lam])

    def contract_lines(self, lams: list[list]) -> Mat:
        """The quadrics of contract_line for each of lams, side by side."""
        lam_cols = Mat.from_rows(self.field, lams, 6).transpose()
        return (self.coeffs @ lam_cols).gather(_symmetric_pattern(self.n, len(lams)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, OmegaTensor):
            return NotImplemented
        return self.n == other.n and self.coeffs == other.coeffs

    def __repr__(self) -> str:
        return f"OmegaTensor(n={self.n}, {self.field.spec_str()})"


def _skew(flat: Mat) -> Mat:
    """flat, after checking the invariant that a flattening is skew."""
    if not (flat + flat.transpose()).is_zero():
        raise AssertionError("a flattening is not skew-symmetric")
    return flat


def unflatten(m: Mat) -> OmegaTensor:
    """Inverse of flatten on the skew forms in the S^2 H* (x) wedge^2 V* summand.

    The coefficient at (i <= j, k < l) is the entry of m at ((i,k), (j,l)).
    Outside characteristic 2 the skew forms on H (x) V are the direct sum of
    that summand and wedge^2 H* (x) S^2 V*, so the tensor read off flattens
    back to m exactly when m's wedge^2 H* (x) S^2 V* part is zero.
    """
    if m.nrows != m.ncols or m.nrows == 0 or m.nrows % 4:
        raise ValueError(f"a {m.nrows} x {m.ncols} matrix is not a form on H (x) V: "
                         "its side must be 4n with n >= 1")
    if not (m + m.transpose()).is_zero():
        raise ValueError("matrix is not skew-symmetric")
    f, n = m.field, m.nrows // 4
    if f.p == 2:
        raise ValueError(f"canonical split needs characteristic != 2, not {f.spec_str()}")
    t = OmegaTensor(n, f, m.gather(_unflatten_pattern(n)))
    if t.flatten() != m:
        raise ValueError("form has a nonzero wedge^2 H* (x) S^2 V* component")
    return t


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
    n = a.n + b.n
    sym = sym_index_map(n)
    rows = [sym[pair] for pair in sym_pairs(a.n)]
    rows += [sym[(a.n + i, a.n + j)] for i, j in sym_pairs(b.n)]
    stacked = a.coeffs.vstack(b.coeffs).transpose()
    return OmegaTensor(n, a.field, stacked.place_cols(rows, len(sym)).transpose())


# -- tensor file format -------------------------------------------------


def tensor_to_obj(t: OmegaTensor) -> dict:
    """JSON-ready form: {"n", "field", "entries": [{i,j,k,l,c}...]}, zeros omitted."""
    f = t.field
    if f.kind == "prime-extension":
        raise ValueError("tensor files carry rational or prime-field entries only")
    entries = []
    for (i, j), row in zip(sym_pairs(t.n), t.coeffs.rows()):
        for w, (k, l) in enumerate(WEDGE_PAIRS):
            if not f.is_zero(row[w]):
                entries.append({"i": i, "j": j, "k": k, "l": l, "c": f.to_str(row[w])})
    return {"n": t.n, "field": f.spec_str(), "entries": entries}


# the range the samplers and the named examples cover
MAX_N = 5


def _values(obj, what: str, keys: tuple[str, ...]) -> list:
    """The values at keys of a JSON object; a ValueError names what is missing."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object with the keys {', '.join(keys)}")
    for key in keys:
        if key not in obj:
            raise ValueError(f"{what} has no {key!r} key")
    return [obj[key] for key in keys]


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def tensor_from_obj(obj: dict) -> OmegaTensor:
    spec, n, items = _values(obj, "a tensor file", ("field", "n", "entries"))
    field = field_from_spec(spec)
    if not _is_int(n) or not 1 <= n <= MAX_N:
        raise ValueError(f"n = {n!r}: dim H must be an integer 1 <= n <= {MAX_N}")
    if not isinstance(items, list):
        raise ValueError("'entries' must be a JSON list of entry objects")
    entries = {}
    for pos, e in enumerate(items):
        *key, c = _values(e, f"entry {pos}", ("i", "j", "k", "l", "c"))
        key = tuple(key)
        if not all(_is_int(x) for x in key):
            raise ValueError(f"entry {pos}: (i,j,k,l) = {key!r} must be integers")
        if key in entries:
            raise ValueError(f"duplicate entry (i,j,k,l) = {key}")
        try:
            entries[key] = field.parse(str(c))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(
                f"entry (i,j,k,l) = {key}: coefficient {c!r} is not an element of "
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
