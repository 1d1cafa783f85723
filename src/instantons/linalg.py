# Dense exact linear algebra over the coefficient fields, the determinant
# along a pencil of matrices and the points where a polynomial vanishes, the
# projective points in one fixed order, and the deterministic counter-based
# sampling stream.
#
# Prime fields with small modulus run on int64 numpy arrays (integer
# arithmetic mod p, no floats); the rationals and extension fields use plain
# Python elements.  This module alone chooses and knows the storage; the rest
# of the package works through Mat's methods.  A rank over Q is first taken
# mod one prime, with exact elimination over Q when that cannot settle it; an
# integer multiple of a rational matrix is read mod it and the primes below.
# Gaussian elimination pivots on the first nonzero entry, so reduced forms
# are canonical and equality of subspaces is equality of their stored bases.
# The int64 RREF first peels off rows with one nonzero entry; it is unique.

from __future__ import annotations

import hashlib
from collections.abc import Iterator
from fractions import Fraction
from functools import lru_cache
from itertools import chain, count, islice
from math import lcm

import numpy as np

from .fields import Field, PrimeField, is_prime

# primes below this run on int64 arrays; _require_int64_exact checks that
# each product's sums stay exact
_NP_PRIME_LIMIT = 1 << 21
# the largest of them: a rank over Q is first taken mod this prime
_RANK_PRIME = PrimeField(2097143)
# the values a chart's digits are read in over Q: a small-height sample
_Q_CHART_VALUES = (0, 1, -1, 2, -2)


@lru_cache(maxsize=None)
def _rank_prime(i: int) -> PrimeField:
    """_RANK_PRIME for i = 0, then the i-th prime below it."""
    start = _rank_prime(i - 1).p - 2 if i else _RANK_PRIME.p
    return PrimeField(next(q for q in range(start, 2, -2) if is_prime(q)))


def _use_np(field: Field) -> bool:
    return field.kind == "prime" and field.p < _NP_PRIME_LIMIT


def _require_int64_exact(k: int, p: int) -> None:
    """An int64 sum of k products of residues mod p is exact iff k (p-1)^2 < 2^63."""
    if k * (p - 1) ** 2 >= 1 << 63:
        raise OverflowError(
            f"int64 exactness invariant k*(p-1)^2 < 2^63 fails for k={k}, p={p}")


def _np_rref(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row-echelon form of int64 residues mod p, with pivot columns.

    A row whose one nonzero entry is in column c puts e_c in the row space, so
    column c is cleared from every row while such rows appear.  The dense loop
    runs on the columns left nonzero, which it never fills; its rows and the
    e_c share no nonzero column, so sorted by pivot they are the row space's
    reduced row-echelon form, which is unique.
    """
    i, j = np.nonzero(a)
    peeled = np.zeros(a.shape[1], dtype=bool)
    while (single := np.bincount(i, minlength=a.shape[0])[i] == 1).any():
        peeled[j[single]] = True
        i, j = i[~peeled[j]], j[~peeled[j]]
    cols = np.flatnonzero(np.bincount(j, minlength=a.shape[1]))
    b = a[:, cols]
    nrows, ncols = b.shape
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = np.nonzero(b[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            b[[r, pr]] = b[[pr, r]]
        inv = pow(int(b[r, c]), -1, p)
        b[r] = b[r] * inv % p
        col = b[:, c].copy()
        col[r] = 0
        rows = np.nonzero(col)[0]
        if rows.size:
            b[rows] = (b[rows] - np.outer(col[rows], b[r])) % p
        pivots.append(c)
        r += 1
    if cols.size == a.shape[1]:  # nothing peeled and no zero column: b is the whole matrix
        return b, pivots
    piv = peeled.copy()
    piv[cols[pivots]] = True
    at = np.cumsum(piv) - 1  # the row of pivot column c: the pivots before c
    out = np.zeros(a.shape, dtype=np.int64)
    out[at[peeled], peeled] = 1
    out[at[cols[pivots]][:, None], cols] = b[:r]
    return out, np.flatnonzero(piv).tolist()


def _np_rank(a: np.ndarray, p: int) -> int:
    """Rank of an int64 matrix mod p by forward elimination alone, of a tall
    matrix's transpose: the loop ends once every row holds a pivot.

    Each step updates only the trailing block (rows below the pivot, columns
    after it) and leaves it unreduced: only the pivot column and the scaled
    pivot row are reduced mod p, so each of the at most min(shape) updates
    adds less than (p-1)^2 to an entry's absolute value.
    """
    a = np.mod(a.T if a.shape[0] > a.shape[1] else a, p, order="C")
    nrows, ncols = a.shape
    _require_int64_exact(min(nrows, ncols) + 1, p)
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        col = a[r:, c] % p
        nz = col.nonzero()[0]
        if nz.size == 0:
            continue
        k = int(nz[0])
        pivot_row = a[r + k, c + 1:] % p * pow(int(col[k]), -1, p) % p
        if k:
            # row r (zero in column c) takes the place of the pivot row
            a[r + k, c + 1:] = a[r, c + 1:]
        if nz.size > 1:
            below = nz[1:]
            a[below + r, c + 1:] -= col[below, None] * pivot_row
        r += 1
    return r


def _np_block_ranks(stack: np.ndarray, p: int) -> tuple[list[int], list[int] | None]:
    """Ranks of the matrices of a (B, R, w) stack of int64 residues mod p
    and, when R == w, their determinants: one forward elimination vectorized
    over the stack.

    Column c of every matrix is eliminated at once: with d the first nonzero
    entry of column c, in row i, every row becomes d * row - entry * row_i,
    so no row moves and no inverse is taken.  Row i itself becomes zero, as
    each earlier pivot row already is, so the next column's first nonzero
    entry lies in a row not yet used.  Each row is so scaled by every pivot
    chosen before its own: on a square matrix of full rank the pivots d_c,
    with the sign of the permutation c -> pivot row, give
    det = sign * prod d_c^(c + 2 - w).
    """
    nb, nrows, width = stack.shape
    if nrows == 0:
        return [0] * nb, None
    # each update is pivot * row - entry * pivot_row: two products mod p
    _require_int64_exact(2, p)
    # a[c, i, b] is entry (i, c) of matrix b: every step runs along the stack
    a = stack.transpose(2, 1, 0).copy()
    batch = np.arange(nb)
    pivots = np.zeros((width, nb), dtype=np.int64)
    rows = np.zeros((width, nb), dtype=np.int64)
    for c in range(width):
        col = a[c]
        pr = (col != 0).argmax(axis=0)
        piv = col[pr, batch]
        pivots[c], rows[c] = piv, pr
        if c + 1 < width:
            # in place on the later columns; a matrix without a pivot here
            # has a zero column, and is scaled by 1
            rest = a[c + 1:]
            update = col * rest[:, pr, batch][:, None, :]
            rest *= np.where(piv == 0, 1, piv)
            rest -= update
            rest %= p
    pivots, rows = pivots.T, rows.T
    ranks = np.count_nonzero(pivots, axis=1).tolist()
    if nrows != width:
        return ranks, None
    # det = sign * d_(w-1) / prod over c < w - 2 of d_c^(w-2-c)
    den = np.ones(nb, dtype=np.int64)
    for c in range(width - 2):
        for _ in range(width - 2 - c):
            den = den * pivots[:, c] % p
    # the sign: the parity of the inversions of the permutation c -> pivot row
    odd = np.triu(rows[:, :, None] > rows[:, None, :], 1).sum(axis=(1, 2)) % 2
    num = np.where(odd == 1, p - pivots[:, -1], pivots[:, -1])
    dets = [x * pow(y, -1, p) % p if r == width else 0
            for x, y, r in zip(num.tolist(), den.tolist(), ranks)]
    return ranks, dets


def _generic_rref(rows: list[list], field: Field,
                  forward: bool = False) -> tuple[list[list], list[int], int]:
    """Reduced row-echelon form, pivot columns and the number of row swaps.

    With forward=True only the rows below each pivot are eliminated and the
    pivot rows are left unscaled: an echelon form with the same pivots whose
    diagonal, on a square matrix of full rank, multiplies to the determinant
    up to the sign of the swaps."""
    rows = [list(r) for r in rows]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots: list[int] = []
    swaps = 0
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if not field.is_zero(rows[i][c])), None)
        if pr is None:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
            swaps += 1
        inv = field.inv(rows[r][c])
        pivot_nz = [(j, field.mul(inv, y)) for j, y in enumerate(rows[r]) if not field.is_zero(y)]
        if not forward:
            for j, y in pivot_nz:
                rows[r][j] = y
        for i in range(r + 1 if forward else 0, nrows):
            row = rows[i]
            if i != r and not field.is_zero(row[c]):
                f = row[c]
                for j, y in pivot_nz:
                    row[j] = field.sub(row[j], field.mul(f, y))
        pivots.append(c)
        r += 1
    return rows, pivots, swaps


class Mat:
    """Immutable dense matrix over an exact field.

    Internally an int64 numpy array of residues in [0, p) for small prime
    fields (every constructor reduces, so equality and zero tests compare
    the arrays as they are), a list of lists otherwise.  All operations are
    pure; none mutate their arguments.
    """

    __slots__ = ("field", "nrows", "ncols", "_a", "_rref", "_rank")

    def __init__(self, field: Field, nrows: int, ncols: int, data):
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        self._a = data
        # kept by rref() and rank() (and det()): the matrix never changes
        self._rref = None
        self._rank = None

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_rows(field: Field, rows: list[list], ncols: int | None = None) -> "Mat":
        nrows = len(rows)
        if ncols is None:
            ncols = len(rows[0]) if nrows else 0
        for r in rows:
            if len(r) != ncols:
                raise ValueError("ragged rows")
        if _use_np(field):
            p = field.p
            a = np.array([[int(x) % p for x in r] for r in rows], dtype=np.int64)
            a = a.reshape(nrows, ncols)
            return Mat(field, nrows, ncols, a)
        conv = _element_coercer(field)
        return Mat(field, nrows, ncols, [[conv(x) for x in r] for r in rows])

    @staticmethod
    def zeros(field: Field, nrows: int, ncols: int) -> "Mat":
        if _use_np(field):
            return Mat(field, nrows, ncols, np.zeros((nrows, ncols), dtype=np.int64))
        z = field.zero()
        return Mat(field, nrows, ncols, [[z] * ncols for _ in range(nrows)])

    @staticmethod
    def identity(field: Field, n: int) -> "Mat":
        m = Mat.zeros(field, n, n)
        if _use_np(field):
            a = m._a.copy()
            np.fill_diagonal(a, 1 % field.p)
            return Mat(field, n, n, a)
        one = field.one()
        data = [row[:] for row in m._a]
        for i in range(n):
            data[i][i] = one
        return Mat(field, n, n, data)

    @staticmethod
    def from_np(field: Field, a: np.ndarray) -> "Mat":
        assert _use_np(field)
        a = np.mod(a, field.p).astype(np.int64, copy=False)
        return Mat(field, a.shape[0], a.shape[1], a)

    @staticmethod
    def projective_points(field: Field, dim: int, start: int, stop: int) -> "Mat":
        """Points start .. stop - 1 of P^(dim-1) as rows, fewer where it ends.
        Point t of chart lead has zeros before a one at lead and, after it,
        the base-|vals| digits of t read in vals: elements() order (over
        GF(p) the residues), or 0, 1, -1, 2, -2 over Q, a small-height
        sample.  The basis vectors, t = 0 of each chart, come first, then the
        charts from t = 1.  Only elements() up to the largest digit are listed."""
        q = len(_Q_CHART_VALUES) if field.kind == "rational" else field.order
        base = min(q, stop)  # t < stop: so large a base gives t's digits too
        spans = [(i, 0, 1) for i in range(dim)] + [(i, 1, q ** (dim - 1 - i)) for i in range(dim)]
        first, digits = 0, [np.zeros((0, dim), dtype=np.int64)]  # digit -1 stands for one
        for lead, t0, t1 in spans:
            if first >= stop:
                break
            t = np.arange(max(start, first), min(stop, first + t1 - t0)) - first + t0
            seg = np.zeros((len(t), dim), dtype=np.int64)
            seg[:, lead] = -1
            for c in range(dim - 1, lead, -1):
                t, seg[:, c] = np.divmod(t, base)
            digits.append(seg)
            first += t1 - t0
        d = np.concatenate(digits)
        if _use_np(field):
            return Mat(field, len(d), dim, np.where(d < 0, 1, d))
        vals = ([Fraction(x) for x in _Q_CHART_VALUES] if field.kind == "rational"
                else list(islice(field.elements(), int(d.max(initial=0)) + 1)))
        one = field.one()
        return Mat(field, len(d), dim, [[one if x < 0 else vals[x] for x in r] for r in d.tolist()])

    @staticmethod
    def projective_runs(field: Field, dim: int, start: int, stop: int):
        """Indices start .. stop - 1 of projective_points, fewer where it
        ends, cut into consecutive runs: (lo, hi, size) for each, size the
        length of the whole run.  The basis vectors are the first run, of
        size dim.  Then each chart's points t come in runs of the same t
        div |vals|: they differ only in the last coordinate, the digit
        t mod |vals| read in vals, so they lie on the line h0 + x e_(dim-1),
        h0 the run's point of digit 0 (e_lead in a chart's first run, which
        starts at t = 1 and so has one point fewer)."""
        q = len(_Q_CHART_VALUES) if field.kind == "rational" else field.order
        if start < min(stop, dim):
            yield start, min(stop, dim), dim
        first = dim  # the index of the chart's point t = 1
        for lead in range(dim - 1):
            count = q ** (dim - 1 - lead) - 1
            lo = max(start, first)
            while lo < min(stop, first + count):
                t0 = (lo - first + 1) // q * q
                hi = min(stop, first + t0 + q - 1)
                yield lo, hi, q - (t0 == 0)
                lo = hi
            first += count

    # -- access -------------------------------------------------------

    def row(self, i: int) -> list:
        if _use_np(self.field):
            return [int(x) for x in self._a[i]]
        return list(self._a[i])

    def rows(self) -> list[list]:
        return [self.row(i) for i in range(self.nrows)]

    # -- algebra --------------------------------------------------------

    def transpose(self) -> "Mat":
        if _use_np(self.field):
            return Mat(self.field, self.ncols, self.nrows, self._a.T.copy())
        data = [[self._a[i][j] for i in range(self.nrows)] for j in range(self.ncols)]
        return Mat(self.field, self.ncols, self.nrows, data)

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in matmul")
        f = self.field
        if _use_np(f):
            # an inner index adds nothing where a column of self or a row of other is zero
            a, b = self._a, other._a
            live = a.any(axis=0) & b.any(axis=1)
            if not live.all():
                a, b = a[:, live], b[live]
            _require_int64_exact(a.shape[1], f.p)
            return Mat.from_np(f, a @ b)
        # zero entries are skipped on both sides: the operands are mostly sparse
        other_nz = [[(j, y) for j, y in enumerate(r) if not f.is_zero(y)] for r in other._a]
        out = []
        for arow in self._a:
            row = [f.zero()] * other.ncols
            for x, brow in zip(arow, other_nz):
                if brow and not f.is_zero(x):
                    for j, y in brow:
                        row[j] = f.add(row[j], f.mul(x, y))
            out.append(row)
        return Mat(f, self.nrows, other.ncols, out)

    def contract_blocks(self, points: "Mat", width: int) -> "Mat":
        """self @ kron(points^T, I_width): block b of width columns is the sum
        over a of points[b, a] times block a of self.  On int64 it is one
        product of points with the blocks of self as rows; otherwise each
        block is that sum over the nonzero points[b, a], skipping zero
        entries, with no Kronecker product formed."""
        f, nrows, nb, dim = self.field, self.nrows, points.nrows, points.ncols
        if self.ncols != dim * width:
            raise ValueError("shape mismatch in matmul")
        if not _use_np(f):
            terms = [[(a * width, c) for a, c in enumerate(p) if not f.is_zero(c)]
                     for p in points._a]
            data = []
            for r in self._a:
                row = []
                for p in terms:
                    acc = [f.zero()] * width
                    for s, c in p:
                        acc = [x if f.is_zero(y) else f.add(x, f.mul(c, y))
                               for x, y in zip(acc, r[s:s + width])]
                    row += acc
                data.append(row)
            return Mat(f, nrows, nb * width, data)
        _require_int64_exact(dim, f.p)
        blocks = self._a.reshape(nrows, dim, width).transpose(1, 0, 2).reshape(dim, -1)
        prod = (points._a @ blocks % f.p).reshape(nb, nrows, width).transpose(1, 0, 2)
        return Mat(f, nrows, nb * width, prod.reshape(nrows, nb * width))

    def annihilates(self, other: "Mat") -> bool:
        """Whether self @ other is zero: on int64, from the products of the
        nonzeros (i, k) of self and (k, j) of other alone, summed mod p."""
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in matmul")
        if not _use_np(self.field):
            return (self @ other).is_zero()
        fa, fb = np.flatnonzero(self._a), np.flatnonzero(other._a)
        (i, k), (bk, bj) = np.divmod(fa, self.ncols), np.divmod(fb, other.ncols)
        per_row = np.bincount(bk, minlength=other.nrows)
        count = per_row[k]
        # the nonzeros of other's row k (bk is sorted), for each nonzero (i, k) of self in turn
        at = np.arange(count.sum()) + np.repeat(np.cumsum(per_row)[k] - np.cumsum(count), count)
        out = np.zeros(self.nrows * other.ncols, dtype=np.int64)
        np.add.at(out, np.repeat(i * other.ncols, count) + bj[at],
                  np.repeat(self._a.ravel()[fa], count) * other._a.ravel()[fb][at] % self.field.p)
        return not (out % self.field.p).any()

    def __add__(self, other: "Mat") -> "Mat":
        self._check_shape(other)
        f = self.field
        if _use_np(f):  # residues in [0, p): one conditional correction by p
            a = self._a + other._a
            np.subtract(a, f.p, out=a, where=a >= f.p)
            return Mat(f, self.nrows, self.ncols, a)
        data = [
            [f.add(x, y) for x, y in zip(r1, r2)] for r1, r2 in zip(self._a, other._a)
        ]
        return Mat(f, self.nrows, self.ncols, data)

    def __sub__(self, other: "Mat") -> "Mat":
        self._check_shape(other)
        f = self.field
        if _use_np(f):
            a = self._a - other._a
            np.add(a, f.p, out=a, where=a < 0)
            return Mat(f, self.nrows, self.ncols, a)
        # x - 0 is x: kernel() subtracts a mostly-zero placed block
        data = [
            [x if f.is_zero(y) else f.sub(x, y) for x, y in zip(r1, r2)]
            for r1, r2 in zip(self._a, other._a)
        ]
        return Mat(f, self.nrows, self.ncols, data)

    def __neg__(self) -> "Mat":
        f = self.field
        if _use_np(f):
            return Mat(f, self.nrows, self.ncols, np.where(self._a == 0, 0, f.p - self._a))
        return Mat(f, self.nrows, self.ncols, [[f.neg(x) for x in r] for r in self._a])

    def scale(self, c) -> "Mat":
        f = self.field
        if _use_np(f):
            return Mat.from_np(f, self._a * (int(c) % f.p))
        return Mat(f, self.nrows, self.ncols, [[f.mul(c, x) for x in r] for r in self._a])

    def _check_shape(self, other: "Mat") -> None:
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mat):
            return NotImplemented
        if self.field != other.field or (self.nrows, self.ncols) != (other.nrows, other.ncols):
            return False
        if _use_np(self.field):
            return bool(np.array_equal(self._a, other._a))
        f = self.field
        return all(
            f.is_zero(f.sub(x, y)) for r1, r2 in zip(self._a, other._a) for x, y in zip(r1, r2)
        )

    def is_zero(self) -> bool:
        if _use_np(self.field):
            return not self._a.any()
        f = self.field
        return all(f.is_zero(x) for r in self._a for x in r)

    # -- stacking / slicing -------------------------------------------

    def hstack(self, other: "Mat") -> "Mat":
        if self.nrows != other.nrows:
            raise ValueError("row mismatch in hstack")
        if _use_np(self.field):
            return Mat(self.field, self.nrows, self.ncols + other.ncols,
                       np.hstack([self._a, other._a]))
        data = [r1 + r2 for r1, r2 in zip(self._a, other._a)]
        return Mat(self.field, self.nrows, self.ncols + other.ncols, data)

    def vstack(self, other: "Mat") -> "Mat":
        if self.ncols != other.ncols:
            raise ValueError("col mismatch in vstack")
        if _use_np(self.field):
            return Mat(self.field, self.nrows + other.nrows, self.ncols,
                       np.vstack([self._a, other._a]))
        return Mat(self.field, self.nrows + other.nrows, self.ncols, [list(r) for r in self._a] + [list(r) for r in other._a])

    def take_rows(self, idx: list[int]) -> "Mat":
        if _use_np(self.field):
            return Mat(self.field, len(idx), self.ncols, self._a[np.asarray(idx, dtype=np.intp)])
        return Mat(self.field, len(idx), self.ncols, [list(self._a[i]) for i in idx])

    def take_cols(self, idx: list[int]) -> "Mat":
        if _use_np(self.field):
            return Mat(self.field, self.nrows, len(idx), self._a[:, np.asarray(idx, dtype=np.intp)])
        return Mat(self.field, self.nrows, len(idx), [[r[j] for j in idx] for r in self._a])

    def place_cols(self, idx: list[int], ncols: int) -> "Mat":
        """Matrix with ncols columns whose column idx[j] is column j of self and
        whose other columns are zero; idx must not repeat."""
        if _use_np(self.field):
            a = np.zeros((self.nrows, ncols), dtype=np.int64)
            a[:, np.asarray(idx, dtype=np.intp)] = self._a
            return Mat(self.field, self.nrows, ncols, a)
        z = self.field.zero()
        data = []
        for r in self._a:
            out = [z] * ncols
            for j, x in zip(idx, r):
                out[j] = x
            data.append(out)
        return Mat(self.field, self.nrows, ncols, data)

    def gather(self, pattern: "Pattern") -> "Mat":
        """The matrix that pattern assembles from the entries of self."""
        if (self.nrows, self.ncols) != pattern.src_shape:
            raise ValueError("source shape does not match the pattern")
        f = self.field
        nrows, ncols = pattern.shape
        if _use_np(f):
            out = np.zeros(nrows * ncols, dtype=np.int64)
            if pattern._src.size:
                vals = self._a.ravel()[pattern._src] * pattern._sign
                out[pattern._dst_unique] = np.add.reduceat(vals, pattern._dst_starts)
            return Mat.from_np(f, out.reshape(nrows, ncols))
        flat = [x for r in self._a for x in r]
        live = np.array([not f.is_zero(x) for x in flat], dtype=bool)[pattern._src]
        out = [f.zero()] * (nrows * ncols)
        for d, s, sign in zip(pattern._dst[live].tolist(), pattern._src[live].tolist(),
                              pattern._sign[live].tolist()):
            out[d] = f.add(out[d], flat[s]) if sign > 0 else f.sub(out[d], flat[s])
        return Mat(f, nrows, ncols, [out[r * ncols:(r + 1) * ncols] for r in range(nrows)])

    # -- elimination-based operations ----------------------------------

    def rref(self) -> tuple["Mat", list[int]]:
        """Reduced row-echelon form and list of pivot columns."""
        if self._rref is None:
            if _use_np(self.field):
                data, piv = _np_rref(self._a, self.field.p)
            else:
                data, piv, _ = _generic_rref(self._a, self.field)
            self._rref = Mat(self.field, self.nrows, self.ncols, data), piv
        red, piv = self._rref
        return red, list(piv)

    def rank(self) -> int:
        """Rank by forward elimination; no reduced form is built."""
        if self._rank is None:
            if self._rref is not None:
                self._rank = len(self._rref[1])
            elif _use_np(self.field):
                self._rank = _np_rank(self._a, self.field.p)
            else:
                # a rank mod p is a lower bound of the rank over Q: a full one is the rank
                mod_p = self.reduce_mod(_RANK_PRIME) if self.field.kind == "rational" else None
                full = min(self.nrows, self.ncols)
                if mod_p is not None and _np_rank(mod_p._a, _RANK_PRIME.p) == full:
                    self._rank = full
                else:
                    self._rank = len(_generic_rref(self._a, self.field, forward=True)[1])
        return self._rank

    def reduce_mod(self, target: Field) -> "Mat | None":
        """This rational matrix mod the prime of target, an int64-backend
        prime field; None when that prime divides a denominator."""
        p = target.p
        a = np.zeros((self.nrows, self.ncols), dtype=np.int64)
        for i, row in enumerate(self._a):
            for j, x in enumerate(row):
                if not x:
                    continue
                if (d := x.denominator) % p == 0:
                    return None
                a[i, j] = x.numerator % p if d == 1 else x.numerator * pow(d, -1, p) % p
        return Mat.from_np(target, a)

    def scaled_residues(self) -> tuple[int, Iterator["Mat"]]:
        """L self, L the lcm of this rational matrix's denominators, as the
        largest absolute value of its integer entries and its residues mod
        _RANK_PRIME, then mod each next prime below it, made as they are read."""
        flat = [x for r in self._a for x in r]
        scale = lcm(*(x.denominator for x in flat))
        ints = np.array([x.numerator * (scale // x.denominator) for x in flat], dtype=object)
        return max(map(abs, ints), default=0), (
            Mat.from_np(q, ints.reshape(self.nrows, self.ncols)) for q in map(_rank_prime, count()))

    def block_ranks(self, width: int) -> tuple[list[int], list | None]:
        """Ranks of the blocks of width columns, b*width .. (b+1)*width - 1,
        and, when they are square, their determinants (else None): one
        elimination over all blocks on the int64 backend, one per block on
        the others."""
        if width < 1 or self.ncols % width:
            raise ValueError("column count is not a multiple of the block width")
        if _use_np(self.field):
            stack = self._a.reshape(self.nrows, self.ncols // width, width).transpose(1, 0, 2)
            return _np_block_ranks(stack, self.field.p)
        blocks = [self.take_cols(range(c, c + width)) for c in range(0, self.ncols, width)]
        dets = [b.det() for b in blocks] if self.nrows == width else None  # det() keeps its rank
        return [b.rank() for b in blocks], dets

    def kernel_basis(self) -> "Mat":
        """A basis of the right kernel read off the RREF: e_c minus column c
        of the RREF on the pivots for each free column c (the identity on the
        free columns), reduced once more over Q to entries of smaller height."""
        r, piv = self.rref()
        f, n = self.field, self.ncols
        free = sorted(set(range(n)) - set(piv))
        red = r.take_rows(range(len(piv))).take_cols(free).transpose()
        basis = Mat.identity(f, len(free)).place_cols(free, n) - red.place_cols(piv, n)
        return Subspace.from_spanning(basis).basis if f.kind == "rational" and free else basis

    def kernel(self) -> "Subspace":
        """Right kernel as a canonical Subspace: kernel_basis reduced."""
        return Subspace.from_spanning(self.kernel_basis())

    def inverse(self) -> "Mat":
        if self.nrows != self.ncols:
            raise ValueError("not square")
        n = self.nrows
        aug = self.hstack(Mat.identity(self.field, n))
        r, piv = aug.rref()
        if piv != list(range(n)):
            raise ValueError("matrix is singular")
        return r.take_cols(list(range(n, 2 * n)))

    def det(self):
        """Determinant: the pivots of forward elimination multiplied, with the
        sign of its row swaps; exact over any of the fields."""
        if self.nrows != self.ncols:
            raise ValueError("not square")
        f = self.field
        rows, piv, swaps = _generic_rref(self.rows(), f, forward=True)
        self._rank = len(piv)
        if len(piv) < self.nrows:
            return f.zero()
        acc = f.one()
        for i, row in enumerate(rows):
            acc = f.mul(acc, row[i])
        return f.neg(acc) if swaps % 2 else acc

    def __repr__(self) -> str:
        return f"Mat({self.field.spec_str()}, {self.nrows}x{self.ncols})"


class Pattern:
    """Where the entries of an assembled matrix come from.

    Entry (r, c) of src.gather(pattern) is the sum of sign * src[i, j] over
    the terms (r, c, i, j, sign), sign = +1 or -1, of the pattern; they may
    come from a generator, which keeps a large pattern's construction small.
    The terms do not depend on the field, so a caller builds one Pattern per
    shape and keeps it.  They are held as flat index arrays sorted by destination, so
    the int64 backend assembles with one fancy index and one segmented sum;
    the generic backend walks the terms whose source entry is not zero.
    max_terms is the most terms on one entry.
    """

    __slots__ = ("shape", "src_shape", "max_terms", "_dst", "_src", "_sign", "_dst_unique",
                 "_dst_starts")

    def __init__(self, shape: tuple[int, int], src_shape: tuple[int, int], terms):
        r, c, i, j, sign = np.fromiter(chain.from_iterable(terms), dtype=np.int64).reshape(-1, 5).T
        # a row or column index out of range would alias another entry
        for idx, bound in zip((r, c, i, j), (*shape, *src_shape)):
            if idx.size and (idx.min() < 0 or idx.max() >= bound):
                raise ValueError("a pattern term lies outside the matrix shapes")
        if np.any(np.abs(sign) != 1):
            raise ValueError("pattern signs must be +1 or -1")
        dst = r * shape[1] + c
        order = np.argsort(dst, kind="stable")
        # int32 indices and int8 signs: the cached patterns are kept for good
        self._dst = dst[order].astype(np.int32)
        self._src = (i * src_shape[1] + j)[order].astype(np.int32)
        self._sign = sign[order].astype(np.int8)
        self._dst_starts = np.flatnonzero(np.diff(self._dst, prepend=-1)).astype(np.int32)
        self._dst_unique = self._dst[self._dst_starts]
        self.max_terms = int(np.diff(self._dst_starts, append=self._dst.size).max(initial=0))
        self.shape = shape
        self.src_shape = src_shape


def _element_coercer(field: Field):
    if field.kind == "rational":
        return lambda x: Fraction(x)
    if field.kind == "prime":
        return lambda x: int(x) % field.p
    def conv(x):
        if isinstance(x, tuple):
            return x
        return field.of_int(int(x))
    return conv


class Subspace:
    """Linear subspace of an indexed coordinate space.

    The basis is kept in reduced row-echelon form with zero rows dropped, so
    two Subspace objects are equal exactly when they are the same subspace.
    """

    __slots__ = ("field", "ambient", "basis", "pivots")

    def __init__(self, field: Field, ambient: int, basis: Mat, pivots: list[int]):
        self.field = field
        self.ambient = ambient
        self.basis = basis
        self.pivots = pivots

    @staticmethod
    def from_spanning(mat: Mat) -> "Subspace":
        r, piv = mat.rref()
        basis = r.take_rows(list(range(len(piv))))
        # the nonzero rows of an RREF are their own RREF
        basis._rref = basis, piv
        return Subspace(mat.field, mat.ncols, basis, piv)

    @property
    def dim(self) -> int:
        return self.basis.nrows

    def reduce(self, vec: list) -> list:
        """Canonical residual of vec after eliminating the pivot coordinates:
        the basis is reduced, so one product does it."""
        v = Mat.from_rows(self.field, [vec], self.ambient)
        return (v - v.take_cols(self.pivots) @ self.basis).row(0)

    def sum(self, other: "Subspace") -> "Subspace":
        self._check(other)
        return Subspace.from_spanning(self.basis.vstack(other.basis))

    def intersect(self, other: "Subspace") -> "Subspace":
        """Exact intersection via the Zassenhaus double-block elimination."""
        self._check(other)
        f, n = self.field, self.ambient
        top = self.basis.hstack(self.basis)
        bot = other.basis.hstack(Mat.zeros(f, other.dim, n))
        r, piv = top.vstack(bot).rref()
        # the rows pivoting in the right block are zero on the left one: their
        # right halves are the meet's basis, already reduced
        meet = [i for i, c in enumerate(piv) if c >= n]
        basis = r.take_rows(meet).take_cols(range(n, 2 * n))
        return Subspace(f, n, basis, [piv[i] - n for i in meet])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient == other.ambient and self.basis == other.basis

    def _check(self, other: "Subspace") -> None:
        if self.ambient != other.ambient:
            raise ValueError("ambient dimension mismatch")
        if self.field != other.field:
            raise ValueError("field mismatch")

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, ambient={self.ambient})"


class Stream:
    """Deterministic counter-based random stream keyed by seed and path.

    Values come from BLAKE2b over (key, counter), so identical inputs give
    identical streams on every platform, and child streams split by path are
    independent of the parent's position.
    """

    __slots__ = ("_key", "_ctr")

    def __init__(self, *path):
        h = hashlib.blake2b(digest_size=16)
        for part in path:
            h.update(str(part).encode())
            h.update(b"\x1f")
        self._key = h.digest()
        self._ctr = 0

    def child(self, *path) -> "Stream":
        return Stream(self._key.hex(), *path)

    def next_u64(self) -> int:
        h = hashlib.blake2b(self._key, digest_size=8, salt=self._ctr.to_bytes(8, "little"))
        self._ctr += 1
        return int.from_bytes(h.digest(), "little")

    def next_below(self, n: int) -> int:
        if n <= 0:
            raise ValueError("need positive bound")
        # rejection sampling keeps the distribution exactly uniform
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n

    def next_element(self, field: Field):
        if field.kind == "rational":
            # bounded-height integers keep rational-mode runs exact and small
            return Fraction(self.next_below(41) - 20)
        if field.kind == "prime":
            return self.next_below(field.p)
        return tuple(self.next_below(field.p) for _ in range(field.k))

    def next_vector(self, field: Field, n: int) -> list:
        return [self.next_element(field) for _ in range(n)]


def kron(a: Mat, b: Mat) -> Mat:
    """Kronecker product: entry (i*b.nrows + k, j*b.ncols + l) is a[i, j] b[k, l]."""
    f = a.field
    nrows, ncols = a.nrows * b.nrows, a.ncols * b.ncols
    if _use_np(f):
        return Mat(f, nrows, ncols, np.kron(a._a, b._a) % f.p)
    # x y is zero where x or y is: most entries of kron(points, I) are
    z = f.zero()
    data = [[z if f.is_zero(x) or f.is_zero(y) else f.mul(x, y) for x in ar for y in br]
            for ar in a._a for br in b._a]
    return Mat(f, nrows, ncols, data)


@lru_cache(maxsize=None)
def _pencil_nodes(field: Field, w: int) -> tuple[Mat, Mat]:
    """The rows (1, t) for the first w + 1 points t of field.elements(), or
    0..w over Q, and the inverse of the matrix whose row j holds the t^j: it
    takes the values of a polynomial of degree at most w at the points to
    its coefficients."""
    points = ([field.of_int(i) for i in range(w + 1)] if field.kind == "rational"
              else list(islice(field.elements(), w + 1)))
    powers = [[field.one()] * (w + 1)]
    for _ in range(w):
        powers.append([field.mul(x, t) for x, t in zip(powers[-1], points)])
    return (Mat.from_rows(field, [[field.one(), t] for t in points], 2),
            Mat.from_rows(field, powers, w + 1).inverse())


class FieldTooSmall(ValueError):
    """A finite field with fewer elements than a computation needs points:
    bad input, not a failed check."""


def det_pencils(a: Mat, b: Mat, what: str) -> Mat:
    """Row i: the coefficients, low degree first, of det(a_i + t b_i) for the
    w x w blocks a_i of a and b_i of b, w x kw each.  [a | b] is contracted
    with the rows (1, t) at w + 1 points, each a + t b a block of kw
    columns; the k (w + 1) determinants come from one block elimination,
    and each pencil's values times the inverse Vandermonde matrix of the
    points are its coefficients.  A finite field of at most w elements has
    too few points (FieldTooSmall); what names the pencils in the error."""
    f, w = a.field, a.nrows
    k = a.ncols // w
    if f.kind != "rational" and f.order <= w:
        raise FieldTooSmall(f"det(a + t b) for {what} has degree up to {w}, so it needs {w + 1} "
                            f"points, but {f.spec_str()} has only {f.order} elements")
    pencil, inverse = _pencil_nodes(f, w)
    values = a.hstack(b).contract_blocks(pencil, k * w).block_ranks(w)[1]
    return Mat.from_rows(f, [values[i::k] for i in range(k)], w + 1) @ inverse


def det_pencil(a: Mat, b: Mat, what: str) -> list:
    """Coefficients, low degree first, of det(a + t b) for w x w matrices a
    and b (see det_pencils), without zero leading ones."""
    f = a.field
    coeffs = det_pencils(a, b, what).row(0)
    while coeffs and f.is_zero(coeffs[-1]):
        coeffs.pop()
    return coeffs


def vanishing_rows(coeffs: Mat, xs: Mat, counts: list[int]) -> list[int]:
    """The rows i of the one-column xs whose entry is a root of its
    polynomial: row j of coeffs (coefficients low degree first) serves the
    next counts[j] rows of xs, and a zero polynomial vanishes on all of
    them.  Horner's rule: one vectorized pass down the column on int64,
    row by row elsewhere."""
    f = xs.field
    if _use_np(f):
        x = xs._a[:, 0]
        acc = np.zeros_like(x)
        for c in np.repeat(coeffs._a, counts, axis=0).T[::-1]:  # acc x + c < p^2
            acc = (acc * x + c) % f.p
        return np.flatnonzero(acc == 0).tolist()
    rows = chain.from_iterable([row] * k for row, k in zip(coeffs._a, counts))
    zeros = []
    for i, (row, (x,)) in enumerate(zip(rows, xs._a)):
        acc = f.zero()
        for c in reversed(row):
            acc = f.add(f.mul(acc, x), c)
        if f.is_zero(acc):
            zeros.append(i)
    return zeros


def sample_invertible(n: int, field: Field, stream: Stream) -> Mat:
    """Draw matrices from the stream until one is invertible."""
    while True:
        m = Mat.from_rows(field, [stream.next_vector(field, n) for _ in range(n)], n)
        if m.rank() == n:
            return m
