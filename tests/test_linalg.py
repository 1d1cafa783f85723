from fractions import Fraction

import pytest

from instantons.fields import ExtensionField, PrimeField, QQ, field_from_spec, GF32003
from instantons.linalg import Mat, Stream, Subspace, kron, sample_matrix


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
    assert k == Subspace.full(F, 6)


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
    a = Subspace.full(F, 4)
    b = Subspace.full(F, 5)
    with pytest.raises(ValueError):
        a.intersect(b)


def test_subspace_canonical_equality(F):
    rows1 = Mat.from_rows(F, [[1, 2, 3], [0, 1, 5]], 3)
    rows2 = Mat.from_rows(F, [[1, 3, 8], [0, 2, 10]], 3)  # same span, different basis
    assert Subspace.from_spanning(rows1) == Subspace.from_spanning(rows2)


def test_subspace_reduce_and_coords(F):
    s = Subspace.from_spanning(Mat.from_rows(F, [[1, 0, 2], [0, 1, 3]], 3))
    assert s.contains([1, 1, 5])
    assert s.coords([1, 1, 5]) == [1, 1]
    assert not s.contains([0, 0, 1])


def test_solve_and_inverse(F):
    m = sample_matrix(5, 5, F, 2)
    assert m.rank() == 5
    inv = m.inverse()
    assert m @ inv == Mat.identity(F, 5)
    b = [1, 2, 3, 4, 5]
    x = m.solve(b)
    out = m @ Mat.from_rows(F, [[v] for v in x], 1)
    assert [out.get(i, 0) for i in range(5)] == b


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
                        assert k.get(3 * i + r, 2 * j + c) == fld.mul(a.get(i, j), b.get(r, c))


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
    # on both sides, the int64 product only the zero columns of its left factor
    st = Stream("matmul", 0)
    for shape in ((3, 4, 5), (6, 1, 2), (1, 7, 1), (0, 3, 2)):
        r, k, c = shape
        ints = [[[st.next_below(7) - 3 if st.next_below(3) else 0 for _ in range(cols)]
                 for _ in range(rows)] for rows, cols in ((r, k), (k, c))]
        prod = Mat.from_rows(Q, ints[0], k) @ Mat.from_rows(Q, ints[1], c)
        reduced = [[int(x) % 32003 for x in row] for row in prod.rows()]
        expect = Mat.from_rows(GF32003, ints[0], k) @ Mat.from_rows(GF32003, ints[1], c)
        assert reduced == expect.rows()
