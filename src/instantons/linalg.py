# Dense exact linear algebra over the coefficient fields, plus the
# deterministic counter-based sampling stream.
#
# Prime fields with small modulus run on int64 numpy arrays (integer
# arithmetic mod p, no floats); the rationals and extension fields use plain
# Python elements.  This module alone chooses and knows the storage; the rest
# of the package works through Mat's methods.  Gaussian elimination pivots on the first nonzero entry,
# so reduced row-echelon forms are canonical and equality of subspaces is
# literal equality of their stored bases.

from __future__ import annotations

import hashlib
from fractions import Fraction

import numpy as np

from .fields import Field

# p^2 * ncols must stay below 2^63 for the vectorized int64 path
_NP_PRIME_LIMIT = 1 << 21


def _use_np(field: Field) -> bool:
    return field.kind == "prime" and field.p < _NP_PRIME_LIMIT


def _np_rref(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row-echelon form of an int64 matrix mod p, with pivot columns."""
    a = np.mod(a, p).astype(np.int64, copy=True)
    nrows, ncols = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
        inv = pow(int(a[r, c]), -1, p)
        a[r] = a[r] * inv % p
        col = a[:, c].copy()
        col[r] = 0
        rows = np.nonzero(col)[0]
        if rows.size:
            a[rows] = (a[rows] - np.outer(col[rows], a[r])) % p
        pivots.append(c)
        r += 1
    return a, pivots


def _generic_rref(rows: list[list], field: Field) -> tuple[list[list], list[int]]:
    rows = [list(r) for r in rows]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if not field.is_zero(rows[i][c])), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = field.inv(rows[r][c])
        rows[r] = [field.mul(inv, x) for x in rows[r]]
        pivot_nz = [(j, y) for j, y in enumerate(rows[r]) if not field.is_zero(y)]
        for i in range(nrows):
            row = rows[i]
            if i != r and not field.is_zero(row[c]):
                f = row[c]
                for j, y in pivot_nz:
                    row[j] = field.sub(row[j], field.mul(f, y))
        pivots.append(c)
        r += 1
    return rows, pivots


class Mat:
    """Immutable dense matrix over an exact field.

    Internally an int64 numpy array for small prime fields, a list of lists
    otherwise.  All operations are pure; none mutate their arguments.
    """

    __slots__ = ("field", "nrows", "ncols", "_a")

    def __init__(self, field: Field, nrows: int, ncols: int, data):
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        self._a = data

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

    # -- access -------------------------------------------------------

    def get(self, i: int, j: int):
        if _use_np(self.field):
            return int(self._a[i, j])
        return self._a[i][j]

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
            # a zero column of self meets a row of other that adds nothing
            a, b = self._a, other._a
            live = a.any(axis=0)
            if not live.all():
                a, b = a[:, live], b[live]
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

    def __add__(self, other: "Mat") -> "Mat":
        self._check_shape(other)
        f = self.field
        if _use_np(f):
            return Mat.from_np(f, self._a + other._a)
        data = [
            [f.add(x, y) for x, y in zip(r1, r2)] for r1, r2 in zip(self._a, other._a)
        ]
        return Mat(f, self.nrows, self.ncols, data)

    def __sub__(self, other: "Mat") -> "Mat":
        self._check_shape(other)
        f = self.field
        if _use_np(f):
            return Mat.from_np(f, self._a - other._a)
        data = [
            [f.sub(x, y) for x, y in zip(r1, r2)] for r1, r2 in zip(self._a, other._a)
        ]
        return Mat(f, self.nrows, self.ncols, data)

    def __neg__(self) -> "Mat":
        f = self.field
        if _use_np(f):
            return Mat.from_np(f, -self._a)
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
            return bool(np.array_equal(self._a % self.field.p, other._a % other.field.p))
        f = self.field
        return all(
            f.is_zero(f.sub(x, y)) for r1, r2 in zip(self._a, other._a) for x, y in zip(r1, r2)
        )

    def __hash__(self):
        return hash((self.field.spec_str(), self.nrows, self.ncols, str(self.rows())))

    def is_zero(self) -> bool:
        if _use_np(self.field):
            return not np.any(self._a % self.field.p)
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

    # -- elimination-based operations ----------------------------------

    def rref(self) -> tuple["Mat", list[int]]:
        """Reduced row-echelon form and list of pivot columns."""
        if _use_np(self.field):
            a, piv = _np_rref(self._a, self.field.p)
            return Mat(self.field, self.nrows, self.ncols, a), piv
        rows, piv = _generic_rref(self.rows(), self.field)
        return Mat(self.field, self.nrows, self.ncols, rows), piv

    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel(self) -> "Subspace":
        """Right kernel {v : self @ v = 0} as a canonical Subspace."""
        r, piv = self.rref()
        free = [c for c in range(self.ncols) if c not in piv]
        f = self.field
        vecs = []
        for fc in free:
            v = [f.zero()] * self.ncols
            v[fc] = f.one()
            for i, pc in enumerate(piv):
                v[pc] = f.neg(r.get(i, fc))
            vecs.append(v)
        basis = Mat.from_rows(f, vecs, self.ncols)
        return Subspace.from_spanning(basis)

    def row_space(self) -> "Subspace":
        return Subspace.from_spanning(self)

    def column_space(self) -> "Subspace":
        return Subspace.from_spanning(self.transpose())

    def solve(self, b: list) -> list | None:
        """One solution x of self @ x = b, or None if inconsistent."""
        f = self.field
        bm = Mat.from_rows(f, [[x] for x in b], 1)
        aug = self.hstack(bm)
        r, piv = aug.rref()
        if self.ncols in piv:
            return None
        x = [f.zero()] * self.ncols
        for i, pc in enumerate(piv):
            x[pc] = r.get(i, self.ncols)
        return x

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
        """Determinant by elimination; exact over any of the fields."""
        if self.nrows != self.ncols:
            raise ValueError("not square")
        f = self.field
        n = self.nrows
        rows = self.rows()
        sign_flip = False
        acc = f.one()
        r = 0
        for c in range(n):
            pr = next((i for i in range(r, n) if not f.is_zero(rows[i][c])), None)
            if pr is None:
                return f.zero()
            if pr != r:
                rows[r], rows[pr] = rows[pr], rows[r]
                sign_flip = not sign_flip
            acc = f.mul(acc, rows[r][c])
            inv = f.inv(rows[r][c])
            for i in range(r + 1, n):
                if not f.is_zero(rows[i][c]):
                    fac = f.mul(rows[i][c], inv)
                    rows[i] = [f.sub(x, f.mul(fac, y)) for x, y in zip(rows[i], rows[r])]
            r += 1
        return f.neg(acc) if sign_flip else acc

    def __repr__(self) -> str:
        return f"Mat({self.field.spec_str()}, {self.nrows}x{self.ncols})"


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
        return Subspace(mat.field, mat.ncols, basis, piv)

    @staticmethod
    def zero(field: Field, ambient: int) -> "Subspace":
        return Subspace(field, ambient, Mat.zeros(field, 0, ambient), [])

    @staticmethod
    def full(field: Field, ambient: int) -> "Subspace":
        return Subspace(field, ambient, Mat.identity(field, ambient), list(range(ambient)))

    @property
    def dim(self) -> int:
        return self.basis.nrows

    def reduce(self, vec: list) -> list:
        """Canonical residual of vec after eliminating the pivot coordinates."""
        f = self.field
        v = [_element_coercer(f)(x) for x in vec]
        for i, pc in enumerate(self.pivots):
            c = v[pc]
            if not f.is_zero(c):
                row = self.basis.row(i)
                v = [f.sub(x, f.mul(c, y)) for x, y in zip(v, row)]
        return v

    def contains(self, vec: list) -> bool:
        f = self.field
        return all(f.is_zero(x) for x in self.reduce(vec))

    def coords(self, vec: list) -> list | None:
        """Coordinates of vec in the stored basis, or None if not contained."""
        if not self.contains(vec):
            return None
        v = [_element_coercer(self.field)(x) for x in vec]
        return [v[pc] for pc in self.pivots]

    def sum(self, other: "Subspace") -> "Subspace":
        self._check(other)
        return Subspace.from_spanning(self.basis.vstack(other.basis))

    def intersect(self, other: "Subspace") -> "Subspace":
        """Exact intersection via the Zassenhaus double-block elimination."""
        self._check(other)
        f, n = self.field, self.ambient
        if self.dim == 0 or other.dim == 0:
            return Subspace.zero(f, n)
        top = self.basis.hstack(self.basis)
        bot = other.basis.hstack(Mat.zeros(f, other.dim, n))
        r, piv = top.vstack(bot).rref()
        rows = []
        for i in range(len(piv)):
            if piv[i] >= n:
                rows.append(r.row(i)[n:])
        if not rows:
            return Subspace.zero(f, n)
        return Subspace.from_spanning(Mat.from_rows(f, rows, n))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient == other.ambient and self.basis == other.basis

    def __hash__(self):
        return hash((self.ambient, self.basis))

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

    def next_nonzero(self, field: Field):
        while True:
            x = self.next_element(field)
            if not field.is_zero(x):
                return x

    def next_vector(self, field: Field, n: int) -> list:
        return [self.next_element(field) for _ in range(n)]


class MatBuilder:
    """Accumulate entries of a matrix before freezing it into a Mat."""

    __slots__ = ("field", "nrows", "ncols", "_a")

    def __init__(self, field: Field, nrows: int, ncols: int):
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        if _use_np(field):
            self._a = np.zeros((nrows, ncols), dtype=np.int64)
        else:
            z = field.zero()
            self._a = [[z] * ncols for _ in range(nrows)]

    def add(self, i: int, j: int, val) -> None:
        if _use_np(self.field):
            self._a[i, j] = (self._a[i, j] + int(val)) % self.field.p
        else:
            self._a[i][j] = self.field.add(self._a[i][j], val)

    def set(self, i: int, j: int, val) -> None:
        if _use_np(self.field):
            self._a[i, j] = int(val) % self.field.p
        else:
            self._a[i][j] = val

    def build(self) -> Mat:
        return Mat(self.field, self.nrows, self.ncols, self._a)


def kron(a: Mat, b: Mat) -> Mat:
    """Kronecker product: entry (i*b.nrows + k, j*b.ncols + l) is a[i, j] b[k, l]."""
    f = a.field
    nrows, ncols = a.nrows * b.nrows, a.ncols * b.ncols
    if _use_np(f):
        return Mat(f, nrows, ncols, np.kron(a._a, b._a) % f.p)
    data = [[f.mul(x, y) for x in ar for y in br] for ar in a._a for br in b._a]
    return Mat(f, nrows, ncols, data)


def sample_matrix(rows: int, cols: int, field: Field, seed) -> Mat:
    """Deterministic pseudo-random matrix; same (shape, field, seed) -> same Mat."""
    st = Stream("sample_matrix", field.spec_str(), rows, cols, seed)
    return Mat.from_rows(field, [st.next_vector(field, cols) for _ in range(rows)], cols)


def sample_invertible(n: int, field: Field, stream: Stream) -> Mat:
    """Draw matrices from the stream until one is invertible."""
    while True:
        m = Mat.from_rows(field, [stream.next_vector(field, n) for _ in range(n)], n)
        if m.rank() == n:
            return m
