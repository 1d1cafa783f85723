import math
from collections import Counter
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, strategies as st
from oracles import has_monic_factor_by_search, is_prime_by_trial_division, rref_dense, sample_matrix

from instantons import linalg
from instantons.fields import (
    GF32003,
    QQ,
    ExtensionField,
    PrimeField,
    _find_irreducible,
    field_from_spec,
    is_prime,
)
from instantons.linalg import (
    Mat,
    Pattern,
    Stream,
    Subspace,
    _require_int64_exact,
    kron,
    sample_invertible,
    vanishing_rows,
)


def test_field_spec_roundtrip():
    assert field_from_spec("rational") is QQ
    assert field_from_spec("fp:32003").p == 32003
    e = field_from_spec("fp:7^2")
    assert e.order == 49
    with pytest.raises(ValueError):
        field_from_spec("fp:32004")  # not prime
    with pytest.raises(ValueError):
        field_from_spec("float")


def test_extension_field_arithmetic():
    e = ExtensionField(7, 2)
    for a in e.elements():
        if not e.is_zero(a):
            assert e.mul(a, e.inv(a)) == e.one()
    assert len(list(e.elements())) == 49
    s = e.to_str((3, 5))
    assert e.parse(s) == (3, 5)
    # an element is exactly k coordinates
    for bad in ("3", "3,5,0"):
        with pytest.raises(ValueError, match="expected 2 comma-separated coordinates"):
            e.parse(bad)


def test_is_prime_agrees_with_trial_division():
    assert [n for n in range(200_000) if is_prime(n)] == \
        [n for n in range(200_000) if is_prime_by_trial_division(n)]


def test_is_prime_rejects_strong_pseudoprimes():
    # a Carmichael number, then strong pseudoprimes to the bases 2..7,
    # 2..23 and 2..37
    for n in (561, 3215031751, 3825123056546413051, 318665857834031151167461):
        assert not is_prime(n), n
    assert is_prime(18446744073709551557)  # the largest prime below 2^64
    with pytest.raises(ValueError, match="3317044064679887385961981"):
        is_prime(3317044064679887385961981)


# every (p, k) with p^(k // 2) <= 1000, k >= 2
IRREDUCIBLE_CASES = [(p, k) for k in range(2, 20) for p in range(2, 1001)
                     if is_prime(p) and p ** (k // 2) <= 1000]


@pytest.mark.parametrize("k", sorted({k for _p, k in IRREDUCIBLE_CASES}))
def test_extension_modulus_is_irreducible(k):
    for p in (p for p, kk in IRREDUCIBLE_CASES if kk == k):
        f = _find_irreducible(p, k)
        assert len(f) == k + 1 and f[-1] == 1
        assert not has_monic_factor_by_search(f, p), (p, k, f)
        if p**k <= 20000:
            # and it is the first monic irreducible in lex order of (c0, ..., c_{k-1})
            monic = (tuple(j // p**i % p for i in range(k)) + (1,) for j in range(p**k))
            assert f == next(g for g in monic if not has_monic_factor_by_search(g, p))


def test_extension_field_with_two_prime_factors_in_its_degree():
    # 6 = 2 * 3: x^6 + x + 1 has the root 1 mod 3, and was once taken as the modulus
    e = ExtensionField(3, 6)
    assert e.modulus != (1, 1, 0, 0, 0, 0, 1)
    assert not has_monic_factor_by_search(e.modulus, 3)
    for a in e.elements():
        if not e.is_zero(a):
            assert e.mul(a, e.inv(a)) == e.one()


def test_rank_trivial_cases(F):
    assert Mat.zeros(F, 4, 4).rank() == 0
    assert Mat.identity(F, 6).rank() == 6
    assert sample_matrix(0, 5, F, 0).rank() == 0


def test_rank_transpose_and_nullity(F):
    for seed in range(5):
        m = sample_matrix(7, 11, F, seed)
        assert m.rank() == m.transpose().rank()
        assert m.kernel().dim + m.rank() == 11


def test_rank_transpose_rational(Q):
    m = sample_matrix(5, 8, Q, 3)
    assert m.rank() == m.transpose().rank()
    assert m.kernel().dim + m.rank() == 8


def test_kernel_trivial(F):
    assert Mat.identity(F, 5).kernel().dim == 0
    k = Mat.zeros(F, 3, 6).kernel()
    assert k.dim == 6
    assert k == Subspace.from_spanning(Mat.identity(F, 6))


def test_kernel_vectors_annihilate(F):
    m = sample_matrix(6, 9, F, 12)
    ker = m.kernel()
    for i in range(ker.dim):
        v = ker.basis.row(i)
        out = m @ Mat.from_rows(F, [[x] for x in v], 1)
        assert out.is_zero()


def test_sample_matrix_deterministic(F):
    assert sample_matrix(2, 2, PrimeField(3), 0) == sample_matrix(2, 2, PrimeField(3), 0)
    assert sample_matrix(2, 2, PrimeField(3), 0) != sample_matrix(2, 2, PrimeField(3), 1)
    # pinned: the shipped seed gives a full-rank 20x20 matrix
    assert sample_matrix(20, 20, GF32003, 1).rank() == 20


def test_intersect_idempotent_and_complementary(F):
    a = Subspace.from_spanning(sample_matrix(3, 8, F, 1))
    assert a.intersect(a) == a
    x = Subspace.from_spanning(Mat.from_rows(F, [[1, 0, 0, 0], [0, 1, 0, 0]], 4))
    y = Subspace.from_spanning(Mat.from_rows(F, [[0, 0, 1, 0], [0, 0, 0, 1]], 4))
    assert x.intersect(y).dim == 0


def test_intersect_properties(F):
    ambient = 9
    subs = [Subspace.from_spanning(sample_matrix(k, ambient, F, 20 + k)) for k in (4, 5, 6)]
    a, b, c = subs
    assert a.intersect(b) == b.intersect(a)
    assert a.intersect(b.intersect(c)) == a.intersect(b).intersect(c)
    ab = a.intersect(b)
    assert ab.dim >= a.dim + b.dim - ambient
    # monotone under inclusion: (a meet b) meet a == a meet b
    assert ab.intersect(a) == ab


def test_intersect_ambient_mismatch(F):
    a = Subspace.from_spanning(Mat.identity(F, 4))
    b = Subspace.from_spanning(Mat.identity(F, 5))
    with pytest.raises(ValueError):
        a.intersect(b)


def test_subspace_canonical_equality(F):
    rows1 = Mat.from_rows(F, [[1, 2, 3], [0, 1, 5]], 3)
    rows2 = Mat.from_rows(F, [[1, 3, 8], [0, 2, 10]], 3)  # same span, different basis
    assert Subspace.from_spanning(rows1) == Subspace.from_spanning(rows2)


def test_subspace_reduce_and_coords(F):
    s = Subspace.from_spanning(Mat.from_rows(F, [[1, 0, 2], [0, 1, 3]], 3))
    # a member reduces to zero, and its coordinates are its entries at the pivots
    v = [1, 1, 5]
    assert s.reduce(v) == [0, 0, 0]
    coords = [v[p] for p in s.pivots]
    assert Mat.from_rows(F, [coords], 2) @ s.basis == Mat.from_rows(F, [v], 3)
    assert s.reduce([0, 0, 1]) == [0, 0, 1]


def test_solve_and_inverse(F):
    m = sample_matrix(5, 5, F, 2)
    assert m.rank() == 5
    inv = m.inverse()
    assert m @ inv == Mat.identity(F, 5)
    b = Mat.from_rows(F, [[v] for v in (1, 2, 3, 4, 5)], 1)
    assert m @ (inv @ b) == b


def test_det_rational():
    m = Mat.from_rows(QQ, [[Fraction(1, 2), Fraction(1)], [Fraction(1), Fraction(3)]], 2)
    assert m.det() == Fraction(1, 2)


def test_stream_determinism_and_split():
    s1 = Stream("a", 1)
    s2 = Stream("a", 1)
    assert [s1.next_u64() for _ in range(4)] == [s2.next_u64() for _ in range(4)]
    child = Stream("a", 1).child("x")
    assert child.next_u64() != Stream("a", 1).next_u64()
    # children are independent of the parent's position
    p1 = Stream("a", 1)
    p1.next_u64()
    assert p1.child("x").next_u64() == Stream("a", 1).child("x").next_u64()


def test_kron_matches_definition(F, Q):
    for fld in (F, Q, ExtensionField(5, 2)):
        a = sample_matrix(2, 3, fld, 1)
        b = sample_matrix(3, 2, fld, 2)
        k = kron(a, b)
        assert (k.nrows, k.ncols) == (6, 6)
        for i in range(2):
            for j in range(3):
                for r in range(3):
                    for c in range(2):
                        assert k.row(3 * i + r)[2 * j + c] == fld.mul(a.row(i)[j], b.row(r)[c])


def test_place_cols_undoes_take_cols(F, Q):
    idx = [5, 0, 3]
    for fld in (F, Q):
        m = sample_matrix(4, 3, fld, 7)
        placed = m.place_cols(idx, 6)
        assert placed.ncols == 6 and placed.take_cols(idx) == m
        assert placed.take_cols([1, 2, 4]).is_zero()
        assert m.take_rows([]).place_cols(idx, 6) == Mat.zeros(fld, 0, 6)


def test_rational_matmul_agrees_with_prime_product(Q):
    # small integers with many zeros: the generic product skips zero entries
    # on both sides, the int64 product the inner indices where a column of
    # its left factor or a row of its right factor is zero; here inner index
    # l is dead on the left when l % 3 == 1 and on the right when l % 3 == 2
    st = Stream("matmul", 0)
    for shape in ((3, 4, 5), (6, 1, 2), (1, 7, 1), (0, 3, 2), (2, 3, 0)):
        r, k, c = shape
        ints = [[[st.next_below(7) - 3 if st.next_below(3) else 0 for _ in range(cols)]
                 for _ in range(rows)] for rows, cols in ((r, k), (k, c))]
        for row in ints[0]:
            row[1::3] = [0] * len(row[1::3])
        for l in range(2, k, 3):
            ints[1][l] = [0] * c
        prod = Mat.from_rows(Q, ints[0], k) @ Mat.from_rows(Q, ints[1], c)
        reduced = [[int(x) % 32003 for x in row] for row in prod.rows()]
        expect = Mat.from_rows(GF32003, ints[0], k) @ Mat.from_rows(GF32003, ints[1], c)
        assert (expect.nrows, expect.ncols) == (r, c) and reduced == expect.rows()
    # no inner index is live on both sides
    a = Mat.from_rows(GF32003, [[1, 0, 2], [3, 0, 0]], 3)
    b = Mat.from_rows(GF32003, [[0, 0], [5, 6], [0, 0]], 2)
    assert a @ b == Mat.zeros(GF32003, 2, 2)


def _explicit_kernel_basis(m: Mat) -> Mat:
    """One kernel vector per free column of the reduced form, unreduced."""
    r, piv = m.rref()
    f = m.field
    vecs = []
    for fc in (c for c in range(m.ncols) if c not in piv):
        v = [f.zero()] * m.ncols
        v[fc] = f.one()
        for i, pc in enumerate(piv):
            v[pc] = f.neg(r.row(i)[fc])
        vecs.append(v)
    return Mat.from_rows(f, vecs, m.ncols)


@pytest.mark.parametrize("spec", ["fp:32003", "fp:7", "rational", "fp:5^2"])
def test_kernel_is_span_of_explicit_basis(spec):
    fld = field_from_spec(spec)
    mats = [Mat.identity(fld, 4), Mat.zeros(fld, 2, 3), sample_matrix(0, 3, fld, 0)]
    for seed, (rows, cols) in enumerate([(3, 5), (5, 5), (6, 4), (4, 4), (2, 7), (5, 1)]):
        mats.append(sample_matrix(rows, cols, fld, seed))
        # rank at most 2
        mats.append(sample_matrix(rows, 2, fld, seed) @ sample_matrix(2, cols, fld, seed + 50))
    full = 0
    for m in mats:
        ker = m.kernel()
        full += ker.dim == 0
        assert ker == Subspace.from_spanning(_explicit_kernel_basis(m))
    assert full >= 3


@pytest.mark.parametrize("spec", ["fp:32003", "fp:7", "rational", "fp:5^2"])
def test_block_ranks_rejects_a_width_that_does_not_divide(spec):
    fld = field_from_spec(spec)
    for width in (0, 2):
        with pytest.raises(ValueError):
            Mat.zeros(fld, 2, 5).block_ranks(width)


def test_int64_exactness_guard():
    # the largest inner dimension k with k (p-1)^2 < 2^63 passes, k + 1 fails
    for p in (7, 32003, 2097143):
        k = ((1 << 63) - 1) // (p - 1) ** 2
        _require_int64_exact(k, p)
        with pytest.raises(OverflowError, match=r"k\*\(p-1\)\^2 < 2\^63"):
            _require_int64_exact(k + 1, p)


@pytest.mark.parametrize("spec", ["fp:32003", "fp:7", "rational", "fp:5^2", "fp:2097143"])
def test_gather_matches_definition(spec):
    # every entry is the signed sum of its terms, including repeated
    # destinations, repeated sources and zero source entries
    fld = field_from_spec(spec)
    rs = Stream("gather", spec)
    for _ in range(20):
        shape = (rs.next_below(5), 1 + rs.next_below(5))
        src_shape = (1 + rs.next_below(4), 1 + rs.next_below(4))
        terms = [(rs.next_below(shape[0]), rs.next_below(shape[1]), rs.next_below(src_shape[0]),
                  rs.next_below(src_shape[1]), 1 - 2 * rs.next_below(2))
                 for _ in range(rs.next_below(3 * shape[0] * shape[1] + 1) if shape[0] else 0)]
        src = Mat.from_rows(fld, [[rs.next_element(fld) if rs.next_below(3) else fld.zero()
                                   for _ in range(src_shape[1])] for _ in range(src_shape[0])],
                            src_shape[1])
        expect = [[fld.zero()] * shape[1] for _ in range(shape[0])]
        for r, c, i, j, sign in terms:
            x = src.row(i)[j]
            expect[r][c] = fld.add(expect[r][c], x if sign > 0 else fld.neg(x))
        pattern = Pattern(shape, src_shape, terms)
        got = src.gather(pattern)
        assert got == Mat.from_rows(fld, expect, shape[1])
        assert (got.nrows, got.ncols) == shape
        assert pattern.max_terms == max(Counter((r, c) for r, c, *_ in terms).values(), default=0)
    with pytest.raises(ValueError):
        Mat.zeros(fld, 2, 2).gather(Pattern((1, 1), (2, 3), []))
    for term in [(0, 2, 0, 0, 1), (0, 0, -1, 0, 1), (0, 0, 0, 3, 1), (0, 0, 0, 0, 2)]:
        with pytest.raises(ValueError):
            Pattern((1, 2), (1, 3), [term])


def _low_rank(data, fld, nrows: int, ncols: int) -> Mat:
    """A small-integer matrix of drawn rank, often below min(nrows, ncols)."""
    rank = data.draw(st.integers(0, min(nrows, ncols)))
    entry = st.sampled_from([0, 0, 0, 1, -1, 2, -3])

    def block(r, c):
        vals = data.draw(st.lists(entry, min_size=r * c, max_size=r * c))
        return Mat.from_rows(fld, [vals[i * c:(i + 1) * c] for i in range(r)], c)

    return block(nrows, rank) @ block(rank, ncols)


LINALG_FIELDS = ["fp:32003", "fp:7", "rational"]


@pytest.mark.parametrize("spec", LINALG_FIELDS)
@given(data=st.data())
def test_rref_basis_is_canonical(spec, data):
    # another spanning set of the same row space (an invertible mix of the
    # rows, then more combinations of them) gives the same stored basis
    fld = field_from_spec(spec)
    ncols = data.draw(st.integers(1, 7))
    a = _low_rank(data, fld, data.draw(st.integers(0, 6)), ncols)
    g = sample_invertible(a.nrows, fld, Stream("rref", data.draw(st.integers(0, 999))))
    b = (g @ a).vstack(_low_rank(data, fld, data.draw(st.integers(0, 3)), a.nrows) @ a)
    u, w = Subspace.from_spanning(a), Subspace.from_spanning(b)
    assert u.basis == w.basis and u.pivots == w.pivots
    assert u.basis.take_cols(u.pivots) == Mat.identity(fld, u.dim)
    assert u.dim == a.rank() == b.rank()


@pytest.mark.parametrize("spec", LINALG_FIELDS)
@given(data=st.data())
def test_sum_and_intersection_dimensions(spec, data):
    # dim(U + W) + dim(U meet W) = dim U + dim W, with W sharing part of U
    fld = field_from_spec(spec)
    ncols = data.draw(st.integers(1, 7))
    a = _low_rank(data, fld, data.draw(st.integers(0, 5)), ncols)
    shared = _low_rank(data, fld, data.draw(st.integers(0, 3)), a.nrows) @ a
    b = _low_rank(data, fld, data.draw(st.integers(0, 5)), ncols).vstack(shared)
    u, w = Subspace.from_spanning(a), Subspace.from_spanning(b)
    total, meet = u.sum(w), u.intersect(w)
    assert total.dim + meet.dim == u.dim + w.dim
    assert all(u.reduce(r) == w.reduce(r) == [fld.zero()] * ncols for r in meet.basis.rows())
    assert total == w.sum(u) and meet == w.intersect(u)


def _element(fld):
    """Any element: a residue of the full range, a rational of small height,
    or a pair of residues."""
    if fld.kind == "prime":
        return st.integers(0, fld.p - 1)
    if fld.kind == "rational":
        return st.fractions(-50, 50, max_denominator=7)
    return st.tuples(*[st.integers(0, fld.p - 1)] * fld.k)


def _adversarial(data, fld, shape: tuple[int, int] | None = None) -> Mat:
    """A matrix drawn to stress elimination: every entry -1 (p - 1 mod p),
    a product through a small inner dimension, repeated rows, zero columns,
    and, unless the shape is given, shapes far taller than wide or the
    reverse."""
    if shape is None:
        short, long = data.draw(st.integers(0, 4)), data.draw(st.integers(0, 40))
        shape = data.draw(st.sampled_from([(short, long), (long, short),
                                           (short + long // 4, short + long // 4)]))
    nrows, ncols = shape

    def block(r, c):
        return Mat.from_rows(fld, [data.draw(st.lists(_element(fld), min_size=c, max_size=c))
                                   for _ in range(r)], c)

    kind = data.draw(st.sampled_from(["minus_one", "product", "repeated_rows", "zero_cols"]))
    if kind == "minus_one":
        return Mat.from_rows(fld, [[fld.neg(fld.one())] * ncols for _ in range(nrows)], ncols)
    if kind == "product":
        inner = data.draw(st.integers(0, 3))
        return block(nrows, inner) @ block(inner, ncols)
    if kind == "repeated_rows":
        base = block(data.draw(st.integers(1, 3)), ncols)
        return base.take_rows([data.draw(st.integers(0, base.nrows - 1)) for _ in range(nrows)])
    live = sorted(set(data.draw(st.lists(st.integers(0, ncols - 1), max_size=ncols)))) if ncols else []
    return block(nrows, len(live)).place_cols(live, ncols)


@pytest.mark.parametrize("spec", ["fp:32003", "fp:7", "fp:2097143", "rational", "fp:5^2"])
@given(data=st.data())
def test_rank_matches_rref_and_transpose(spec, data):
    # fp:2097143 is the largest int64-backend prime, where deferring the
    # reduction mod p leaves the least headroom
    fld = field_from_spec(spec)
    m = _adversarial(data, fld)
    rank = m.rank()
    assert rank == len(m.rref()[1]) == m.transpose().rank()
    assert rank <= min(m.nrows, m.ncols)


@pytest.mark.parametrize("spec", ["fp:32003", "fp:7", "fp:2097143", "rational", "fp:5^2"])
@given(data=st.data())
def test_block_ranks_match_per_block_rank_and_det(spec, data):
    # blocks of rank 0 (all zero, or through an empty product), with zero
    # columns, of full rank and in between, square or not, and matrices with
    # no block at all; square ones also with their rows permuted (a permuted
    # identity among them), so that pivots come in every row order, and one
    # drawn invertible
    fld = field_from_spec(spec)
    width = data.draw(st.integers(1, 5))
    nrows = data.draw(st.sampled_from([width, width, 0, 1, width + 1, 2 * width + 2]))
    blocks = [_adversarial(data, fld, (nrows, width)) for _ in range(data.draw(st.integers(0, 5)))]
    if nrows == width:
        blocks.append(sample_invertible(width, fld, Stream("block_ranks", data.draw(st.integers(0, 999)))))
        perm = data.draw(st.permutations(range(width)))
        blocks += [b.take_rows(perm) for b in blocks]
        blocks.insert(data.draw(st.integers(0, len(blocks))), Mat.identity(fld, width).take_rows(perm))
    m = Mat.zeros(fld, nrows, 0)
    for b in blocks:
        m = m.hstack(b)
    ranks, dets = m.block_ranks(width)
    assert ranks == [b.rank() for b in blocks]
    assert dets == ([b.det() for b in blocks] if nrows == width else None)


@pytest.mark.parametrize("spec", ["fp:32003", "fp:2097143", "rational", "fp:5^2"])
def test_rank_builds_no_reduced_form(spec, monkeypatch):
    # with nothing kept, rank runs forward elimination only; on the generic
    # backend that is the forward mode of _generic_rref
    fld = field_from_spec(spec)
    generic = linalg._generic_rref

    def refuse(*args, **kwargs):
        raise AssertionError("rank built a reduced row-echelon form")

    monkeypatch.setattr(linalg, "_np_rref", refuse)
    monkeypatch.setattr(linalg, "_generic_rref",
                        lambda rows, field, forward=False: generic(rows, field, True) if forward
                        else refuse())
    low = sample_matrix(9, 3, fld, 0) @ sample_matrix(3, 7, fld, 1)
    assert low.rank() == low.transpose().rank() == 3
    assert sample_matrix(6, 9, fld, 2).rank() == 6


RANK_PRIME = linalg._RANK_PRIME.p


def _q_entry():
    """A rational that stresses the reduction mod the rank prime: one of
    small height, a multiple of the prime, one with the prime in its
    denominator, or one whose numerator and denominator have 1000 bits or more."""
    big = st.integers(1 << 1000, 1 << 1100)
    return st.one_of(
        st.fractions(-50, 50, max_denominator=7),
        st.integers(-3, 3).map(lambda k: Fraction(k * RANK_PRIME)),
        st.builds(lambda a, k: Fraction(a, k * RANK_PRIME), st.integers(-50, 50), st.integers(1, 3)),
        st.builds(lambda a, b, sign: Fraction(sign * a, b), big, big, st.sampled_from([1, -1])),
    )


@given(data=st.data())
def test_rational_rank_through_the_rank_prime(data):
    # oracle: forward elimination over Q; the shapes include 0 x k and k x 0,
    # and a product through a small inner dimension makes the rank deficient
    short, long = data.draw(st.integers(0, 3)), data.draw(st.integers(1, 7))
    nrows, ncols = data.draw(st.sampled_from([(0, long), (long, 0), (short + 2, long), (long, short + 2)]))

    def block(r, c):
        return Mat.from_rows(QQ, [data.draw(st.lists(_q_entry(), min_size=c, max_size=c))
                                  for _ in range(r)], c)

    m = block(nrows, ncols)
    if data.draw(st.booleans()):
        inner = data.draw(st.integers(0, 3))
        m = block(nrows, inner) @ block(inner, ncols)
    # a row scaled by the prime vanishes mod the prime but not over Q
    rows = m.rows()
    for i in data.draw(st.sets(st.integers(0, nrows - 1), max_size=2)) if nrows else ():
        rows[i] = [x * RANK_PRIME for x in rows[i]]
    m = Mat.from_rows(QQ, rows, ncols)
    assert m.rank() == len(linalg._generic_rref(m.rows(), QQ, forward=True)[1])
    residues = m.reduce_mod(linalg._RANK_PRIME)
    if residues is None:
        assert any(x.denominator % RANK_PRIME == 0 for r in m.rows() for x in r)
    else:
        assert residues.rows() == [[x.numerator * pow(x.denominator, -1, RANK_PRIME) % RANK_PRIME
                                    for x in r] for r in m.rows()]
    # L m, L the lcm of the denominators: its height, and its residues mod
    # the rank prime and the primes just below it, none skipped
    scale = math.lcm(*(x.denominator for r in m.rows() for x in r))
    ints = [[int(x * scale) for x in r] for r in m.rows()]
    height, scaled = m.scaled_residues()
    assert height == max((abs(x) for r in ints for x in r), default=0)
    below = [p for p in range(RANK_PRIME, RANK_PRIME - 300, -1) if is_prime_by_trial_division(p)]
    for p, res in zip(below[:3], scaled):
        assert res.field.p == p and res.rows() == [[x % p for x in r] for r in ints]


def test_rational_rank_falls_back_only_when_the_prime_cannot_decide(monkeypatch):
    calls = []
    generic = linalg._generic_rref

    def counted(*args, **kwargs):
        calls.append(args)
        return generic(*args, **kwargs)

    monkeypatch.setattr(linalg, "_generic_rref", counted)
    # rank 1 mod the prime, 2 over Q
    assert Mat.from_rows(QQ, [[1, 0], [0, RANK_PRIME]]).rank() == 2
    # no reduction mod the prime at all
    inverse_entry = Mat.from_rows(QQ, [[1, 0], [0, Fraction(1, RANK_PRIME)]])
    assert inverse_entry.reduce_mod(linalg._RANK_PRIME) is None
    assert inverse_entry.rank() == 2
    assert len(calls) == 2
    calls.clear()
    assert sample_matrix(5, 8, QQ, 0).rank() == 5
    assert not calls
    assert (sample_matrix(6, 2, QQ, 1) @ sample_matrix(2, 6, QQ, 2)).rank() == 2
    assert len(calls) == 1


def test_rref_and_rank_are_kept(monkeypatch):
    calls = Counter()
    for name in ("_np_rref", "_np_rank", "_generic_rref"):
        def counted(*args, _fn=getattr(linalg, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(linalg, name, counted)
    # one forward elimination for the rank and one RREF, each run once; the
    # rank over Q is full mod the rank prime, so it needs no elimination over Q
    once = {GF32003: {"_np_rank": 1, "_np_rref": 1}, QQ: {"_np_rank": 1, "_generic_rref": 1}}
    for fld in (GF32003, QQ):
        calls.clear()
        m = sample_matrix(5, 8, fld, 0) @ sample_matrix(8, 8, fld, 1)
        assert m.rank() == m.rank() == 5
        red, piv = m.rref()
        piv.append(99)  # the caller's list is a copy
        assert m.rref() == (red, [0, 1, 2, 3, 4])
        assert calls == once[fld]
        fresh = sample_matrix(5, 8, fld, 2)
        fresh.rref()
        calls.clear()
        assert fresh.rank() == 5 and not calls


def test_np_rank_checks_int64_exactness_for_every_step(monkeypatch):
    # each pivot step adds less than (p-1)^2 to an unreduced entry, on top
    # of the starting residue: k must exceed the number of pivot steps
    seen = []
    guard = linalg._require_int64_exact
    monkeypatch.setattr(linalg, "_require_int64_exact", lambda k, p: (seen.append(k), guard(k, p)))
    rs = np.random.default_rng(0)
    for p in (7, 32003, 2097143):
        for shape in ((12, 30), (30, 12), (20, 20)):
            seen.clear()
            a = rs.integers(0, p, shape) if p != 7 else np.full(shape, p - 1)
            rank = linalg._np_rank(a.astype(np.int64), p)
            assert len(seen) == 1 and seen[0] > rank
            assert rank == len(linalg._np_rref(a, p)[1])


@pytest.mark.parametrize("spec", ["fp:7", "fp:32003"])
@given(short=st.integers(0, 12), extra=st.integers(1, 20), planted=st.integers(0, 12),
       tall=st.booleans(), seed=st.integers(0, 999))
def test_np_rank_of_a_planted_rank_tall_or_wide(spec, short, extra, planted, tall, seed):
    # _np_rank eliminates a tall matrix's transpose; the product of the first
    # k columns and the first k rows of two invertible matrices has rank k
    fld = field_from_spec(spec)
    nrows, ncols = (short + extra, short) if tall else (short, short + extra)
    k = min(planted, short)
    left = sample_invertible(nrows, fld, Stream("planted_rank", seed, 0)).take_cols(list(range(k)))
    right = sample_invertible(ncols, fld, Stream("planted_rank", seed, 1)).take_rows(list(range(k)))
    m = left @ right
    assert m.rank() == k == len(linalg._generic_rref(m.rows(), fld, forward=True)[1])


def _square(data, fld, n: int) -> Mat:
    """An n x n matrix: entries drawn freely, or one of _adversarial's
    singular-prone kinds."""
    if data.draw(st.booleans()):
        return Mat.from_rows(fld, [data.draw(st.lists(_element(fld), min_size=n, max_size=n))
                                   for _ in range(n)], n)
    return _adversarial(data, fld, (n, n))


def _leibniz_det(m: Mat):
    f, n, rows = m.field, m.nrows, m.rows()
    total = f.zero()
    for perm in permutations(range(n)):
        term = f.one()
        for i, j in enumerate(perm):
            term = f.mul(term, rows[i][j])
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total = f.sub(total, term) if inversions % 2 else f.add(total, term)
    return total


@pytest.mark.parametrize("spec", ["fp:32003", "fp:7", "fp:2097143", "rational", "fp:5^2"])
@given(data=st.data())
def test_det_properties(spec, data):
    fld = field_from_spec(spec)
    n = data.draw(st.integers(0, 6))
    a, b = _square(data, fld, n), _square(data, fld, n)
    d = a.det()
    assert (a @ b).det() == fld.mul(d, b.det())
    assert a.transpose().det() == d
    assert fld.is_zero(d) == (a.rank() < n)
    if n <= 4:
        assert d == _leibniz_det(a)
    if n >= 2:
        i, j = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        order = list(range(n))
        order[i], order[j] = j, i
        assert a.take_rows(order).det() == fld.neg(d)


def test_det_row_swaps_and_singular_columns(F, Q):
    for fld in (F, Q, ExtensionField(5, 2)):
        swap = Mat.from_rows(fld, [[0, 1, 0], [0, 0, 1], [1, 0, 0]], 3)
        assert swap.det() == fld.one()  # a 3-cycle: two row swaps
        assert swap.take_rows([1, 0, 2]).det() == fld.neg(fld.one())
        assert Mat.from_rows(fld, [[0, 2], [0, 3]], 2).det() == fld.zero()
        assert Mat.zeros(fld, 0, 0).det() == fld.one()
    with pytest.raises(ValueError):
        Mat.zeros(F, 2, 3).det()


@pytest.mark.parametrize("spec", ["fp:7", "fp:32003", "fp:2097143"])
def test_int64_storage_holds_residues(spec):
    # every int64 Mat holds residues in [0, p), which lets == and is_zero
    # compare the arrays as they are
    fld = field_from_spec(spec)
    p = fld.p
    a = Mat.from_rows(fld, [[-1, -p, p + 3, 3 * p - 1, -(p * p) - 2, 10**30 + 7],
                            [p - 1, 1 - p, 0, -(10**25), 2 * p, 5],
                            [-7, p * p, 1, -p - 1, 4, -2]], 6)
    b = Mat.from_rows(fld, [[x * 5 - 3 for x in range(j, j + 6)] for j in range(3)], 6)
    signed = Pattern((2, 3), (3, 6), [(0, 0, 0, 0, -1), (0, 0, 1, 1, -1), (0, 1, 2, 5, 1),
                                      (1, 0, 0, 3, -1), (1, 2, 2, 2, -1), (1, 2, 1, 4, -1)])
    made = [a, b, a - b, b - a, -a, a.scale(-1), a.scale(-(10**20) - 3), a + b,
            a.gather(signed), (-a).gather(signed), kron(a, -b), a @ b.transpose(),
            a.transpose(), a.rref()[0], (a - a.scale(2)).rref()[0]]
    for m in made:
        assert m._a.dtype == np.int64
        assert ((m._a >= 0) & (m._a < p)).all()
    assert Mat.from_rows(fld, [[p, -p]], 2).is_zero()
    assert Mat.from_rows(fld, [[-1, p + 2]], 2) == Mat.from_rows(fld, [[p - 1, 2]], 2)
    assert (a - a).is_zero() and a + (-a) == Mat.zeros(fld, 3, 6)


@st.composite
def _peelable(draw, p):
    """A sparse int64 matrix mod p with planted rows of one nonzero entry,
    some on a shared column, chains of rows that become such rows only after
    an earlier peel round, and zero rows and columns; either side may be 0."""
    nrows, ncols = draw(st.integers(0, 9)), draw(st.integers(0, 9))
    unit = st.integers(1, p - 1)
    entry = st.one_of(st.just(0), st.just(0), st.just(0), unit)
    a = np.array(draw(st.lists(entry, min_size=nrows * ncols, max_size=nrows * ncols)),
                 dtype=np.int64).reshape(nrows, ncols)
    if nrows and ncols:
        rows = draw(st.permutations(range(nrows)))
        # a chain on columns c0, c1, ...: v e_c0, then x e_c(i-1) + y e_ci,
        # which is a unit row once c(i-1) is peeled
        chain = draw(st.lists(st.integers(0, ncols - 1), max_size=nrows, unique=True))
        for i, c in enumerate(chain):
            a[rows[i]] = 0
            a[rows[i], c] = draw(unit)
            if i:
                a[rows[i], chain[i - 1]] = draw(unit)
        for r in rows[len(chain):]:
            if draw(st.booleans()):  # few columns: unit rows often share one
                a[r] = 0
                a[r, draw(st.integers(0, min(ncols, 3) - 1))] = draw(unit)
        for r in draw(st.lists(st.integers(0, nrows - 1), max_size=2)):
            a[r] = 0
        for c in draw(st.lists(st.integers(0, ncols - 1), max_size=2)):
            a[:, c] = 0
    return a


@pytest.mark.parametrize("p", [2, 7, 32003, 2097143])
@given(data=st.data())
def test_np_rref_equals_the_dense_loop(p, data):
    # the unit-row peel gives the dense loop's array and pivots, bit for bit,
    # and the kernel built on it is the one the dense loop's RREF spans
    a = data.draw(_peelable(p))
    want, want_piv = rref_dense(a, p)
    got, got_piv = linalg._np_rref(a, p)
    assert got.dtype == np.int64 and got_piv == want_piv and all(type(c) is int for c in got_piv)
    assert np.array_equal(got, want)
    # a Mat reduces its entries on construction: shifted by multiples of p
    # they give the same RREF
    fld = PrimeField(p)
    red, piv = Mat.from_np(fld, a + p * data.draw(st.sampled_from([0, 1, -1]))).rref()
    assert np.array_equal(red._a, want) and piv == want_piv
    ncols = a.shape[1]
    free = [c for c in range(ncols) if c not in want_piv]
    vecs = np.zeros((len(free), ncols), dtype=np.int64)
    for k, f in enumerate(free):
        vecs[k, f] = 1
        vecs[k, want_piv] = -want[:len(want_piv), f]
    ker_basis, ker_piv = rref_dense(vecs, p)
    ker = Mat.from_np(fld, a).kernel()
    assert ker.dim == len(free) and ker.pivots == ker_piv
    assert np.array_equal(ker.basis._a, ker_basis[:len(free)])


@pytest.mark.parametrize("spec", LINALG_FIELDS + ["fp:2097143"])
@given(data=st.data())
def test_annihilates_is_the_dense_product(spec, data):
    # Mat.annihilates forms only the products of nonzero entries; in about
    # half the draws the columns of other lie in the kernel of self
    fld = field_from_spec(spec)
    nrows, inner, ncols = (data.draw(st.integers(0, 7)) for _ in range(3))
    a = _low_rank(data, fld, nrows, inner)
    b = _low_rank(data, fld, inner, ncols)
    if data.draw(st.booleans()):
        ker = a.kernel().basis
        b = ker.transpose() @ _low_rank(data, fld, ker.nrows, ncols)
    assert a.annihilates(b) == (a @ b).is_zero()
    with pytest.raises(ValueError):
        a.annihilates(Mat.zeros(fld, inner + 1, ncols))


@pytest.mark.parametrize("spec", ["fp:7", "fp:32003", "fp:2097143", "fp:3^2", "fp:1000000007",
                                  "rational"])
@given(data=st.data())
def test_vanishing_rows_are_the_roots_in_the_column(spec, data):
    # each polynomial at the entries of its rows by Horner's rule,
    # vectorized on int64 and row by row elsewhere, against the polynomial
    # evaluated entry by entry; a zero polynomial vanishes everywhere.
    # Products of linear factors put roots in the column.
    fld = field_from_spec(spec)
    stream = Stream("vanishing-rows", spec, data.draw(st.integers(0, 10**6)))
    polys, xs, counts = [], [], []
    for _ in range(data.draw(st.integers(0, 6))):
        roots = [stream.next_element(fld) for _ in range(data.draw(st.integers(0, 3)))]
        coeffs = [fld.of_int(data.draw(st.integers(0, 2)))]
        for r in roots:  # times (x - r)
            coeffs = [fld.sub(a, fld.mul(r, b)) for a, b in zip(coeffs + [fld.zero()],
                                                              [fld.zero()] + coeffs)]
        points = roots + [stream.next_element(fld) for _ in range(data.draw(st.integers(0, 3)))]
        polys.append(coeffs + [fld.zero()] * (4 - len(coeffs)))
        xs += points
        counts.append(len(points))

    def value(coeffs, x):
        acc, power = fld.zero(), fld.one()
        for c in coeffs:
            acc, power = fld.add(acc, fld.mul(c, power)), fld.mul(power, x)
        return acc

    per_row = [c for c, k in zip(polys, counts) for _ in range(k)]
    expected = [i for i, (c, x) in enumerate(zip(per_row, xs)) if fld.is_zero(value(c, x))]
    column = Mat.from_rows(fld, [[x] for x in xs], 1)
    assert vanishing_rows(Mat.from_rows(fld, polys, 4), column, counts) == expected
    assert vanishing_rows(Mat.zeros(fld, len(polys), 4), column, counts) == list(range(len(xs)))
