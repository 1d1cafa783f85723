import json
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from instantons.families import (
    degenerate_rank6,
    nc_tensor,
    random_tensor,
    three_nc_tensor,
)
from instantons.fields import field_from_spec
from instantons.linalg import Mat, Stream, sample_invertible
from instantons.tensors import (
    OmegaTensor,
    block_sum,
    kernel_inclusion,
    tensor_from_obj,
    tensor_to_obj,
    unflatten,
)
from oracles import skew_h_flatten, zero_tensor


def test_flatten_zero_and_small_ranks(F):
    zero = zero_tensor(2, F)
    assert zero.flatten().is_zero()
    single = nc_tensor(F, [1, 0, 0, 0, 0, 0])  # x0 ^ x1
    assert single.rank() == 2
    assert nc_tensor(F).rank() == 4


def test_flatten_skew_and_even_rank(F):
    st = Stream("skewtest", 0)
    for n in (1, 2, 3):
        for _ in range(4):
            t = random_tensor(n, F, st)
            m = t.flatten()
            assert (m + m.transpose()).is_zero()
            assert m.rank() % 2 == 0


def test_degenerate_rank6_transcription(F, Q):
    for fld in (F, Q):
        t = degenerate_rank6(fld)
        assert t.rank() == 6
        # degenerate at h = e0, v = e0: that column of the flattening vanishes
        assert t.flatten().take_cols([0]).is_zero()


def test_decompose_roundtrip(F):
    st = Stream("decomp", 1)
    t = random_tensor(2, F, st)
    assert unflatten(t.flatten()) == t


def test_decompose_pure_skewh_part(F):
    # a form in wedge^2 H* (x) S^2 V* alone has no S^2 H* (x) wedge^2 V* part
    st = Stream("decomp3", 5)
    form = skew_h_flatten(2, Mat.from_rows(F, [st.next_vector(F, 10)], 10))
    assert (form + form.transpose()).is_zero()
    with pytest.raises(ValueError, match="nonzero wedge"):
        unflatten(form)


@pytest.mark.parametrize("spec", ["fp:2", "fp:2^2"])
def test_decompose_needs_characteristic_not_2(spec):
    f = field_from_spec(spec)
    with pytest.raises(ValueError) as info:
        unflatten(Mat.zeros(f, 4, 4))
    assert f"characteristic != 2, not {spec}" in str(info.value)


def test_image_dims(F, chain52):
    assert nc_tensor(F).image().dim == 4
    assert chain52.image().dim == 12
    assert zero_tensor(3, F).image().dim == 0
    assert chain52.flatten().kernel().dim == 8  # rank-nullity against rank 12


def test_contract_line_convention(F):
    eta = nc_tensor(F)  # x0^x1 + x2^x3
    q = eta.contract_line([1, 0, 0, 0, 0, 0])  # e0 ^ e1
    assert q.row(0)[0] == 1
    q2 = eta.contract_line([0, 1, 0, 0, 0, 0])  # e0 ^ e2
    assert q2.row(0)[0] == 0
    assert zero_tensor(2, F).contract_line([1, 0, 0, 0, 0, 0]).is_zero()


def test_contract_line_symmetric_linear(F):
    st = Stream("contract", 2)
    t = random_tensor(3, F, st)
    lam = st.next_vector(F, 6)
    mu = st.next_vector(F, 6)
    q = t.contract_line(lam)
    assert q == q.transpose()
    s = [F.add(a, b) for a, b in zip(lam, mu)]
    assert t.contract_line(s) == q + t.contract_line(mu)


def test_restrict_block_projection(F):
    eta1 = nc_tensor(F, [1, 2, 3, 0, 0, 1])
    eta2 = nc_tensor(F, [0, 1, 0, 5, 0, 7])
    both = block_sum(eta1, eta2)
    restricted = both.restrict_xi([1, 0])
    assert restricted == eta2
    with pytest.raises(ValueError):
        both.restrict_xi([0, 0])


def test_restrict_rank_bound(F, chain52):
    st = Stream("restr", 4)
    rank = chain52.rank()
    for _ in range(5):
        xi = st.next_vector(F, 5)
        if all(F.is_zero(x) for x in xi):
            continue
        assert chain52.restrict_xi(xi).rank() <= rank


def test_conjugate_identity_and_sign(F, full36):
    n = full36.n
    ident = Mat.identity(F, n)
    assert full36.conjugate(ident) == full36
    assert full36.conjugate(-ident) == full36  # quadratic in H
    with pytest.raises(ValueError):
        full36.conjugate(Mat.zeros(F, n, n))


def test_conjugate_preserves_rank(F):
    st = Stream("conj", 9)
    for seed in range(10):
        t = random_tensor(3, F, st)
        g = sample_invertible(3, F, st.child("g", seed))
        assert t.conjugate(g).rank() == t.rank()


def test_restrict_conjugate_equivariance(F, full36):
    # restricting a conjugated tensor along xi matches restricting the
    # original along xi o g^(-1), up to the base change between the kernels
    st = Stream("equivar", 0)
    g = sample_invertible(3, F, st)
    xi = [F.of_int(2), F.of_int(5), F.of_int(1)]
    left = full36.conjugate(g).restrict_xi(xi)
    ginv = g.inverse()
    xi_mat = Mat.from_rows(F, [xi], 3)
    xi_t = (xi_mat @ ginv).row(0)
    right = full36.restrict_xi(xi_t)
    # the two restrictions are conjugate by the base change between kernel bases
    jl = kernel_inclusion(F, xi)
    jr = kernel_inclusion(F, xi_t)
    ker = Mat.from_rows(F, [xi_t], 3).kernel()
    assert jr == ker.basis.transpose()
    # g maps ker(xi) onto ker(xi o g^{-1}); the 2x2 base change s with
    # jr @ s = g @ jl holds the coordinates of g @ jl's columns in the reduced
    # basis jr, which are their entries at its pivots
    target = g @ jl
    assert all(ker.reduce(col) == [0, 0, 0] for col in target.transpose().rows())
    s = target.take_rows(ker.pivots)
    assert right.apply_h_map(s) == left


def test_block_sum_examples(F):
    t = three_nc_tensor(F, seed=1)
    assert t.n == 3 and t.rank() == 12
    eta = nc_tensor(F)
    padded = block_sum(eta, zero_tensor(1, F))
    assert padded.rank() == eta.rank()
    with pytest.raises(ValueError):
        from instantons.fields import QQ

        block_sum(eta, nc_tensor(QQ))


def test_tensor_file_roundtrip(F, Q, tmp_path):
    from instantons.tensors import read_tensor, write_tensor

    st = Stream("io", 0)
    t = random_tensor(2, F, st)
    path = tmp_path / "t.json"
    write_tensor(t, str(path))
    back = read_tensor(str(path))
    assert back == t and back.field == t.field
    # rational entries serialize as "a/b" strings and round-trip bit-exactly
    from fractions import Fraction

    tq = OmegaTensor.from_entries(
        1, Q, {(0, 0, 0, 1): Fraction(3, 7), (0, 0, 2, 3): Fraction(-2)}
    )
    obj = tensor_to_obj(tq)
    assert {e["c"] for e in obj["entries"]} == {"3/7", "-2"}
    assert tensor_from_obj(json.loads(json.dumps(obj))) == tq


# -- round trips, derandomized over small and large primes and Q -------------

ROUNDTRIP_FIELDS = ["fp:32003", "fp:7", "rational"]


def _elements(fld):
    if fld.kind == "rational":
        return st.builds(Fraction, st.integers(-50, 50), st.integers(1, 7))
    return st.integers(0, fld.p - 1).map(fld.of_int)


def _matrix(data, fld, nrows: int, ncols: int) -> Mat:
    rows = data.draw(st.lists(st.lists(_elements(fld), min_size=ncols, max_size=ncols),
                              min_size=nrows, max_size=nrows))
    return Mat.from_rows(fld, rows, ncols)


def _tensor(data, fld) -> OmegaTensor:
    n = data.draw(st.integers(1, 5))
    return OmegaTensor(n, fld, _matrix(data, fld, n * (n + 1) // 2, 6))


@pytest.mark.parametrize("spec", ROUNDTRIP_FIELDS)
@given(data=st.data())
def test_flatten_decompose_and_file_round_trips(spec, data):
    fld = field_from_spec(spec)
    t = _tensor(data, fld)
    assert unflatten(t.flatten()) == t
    # adding a nonzero wedge^2 H* (x) S^2 V* part makes the form no flattening
    s = _matrix(data, fld, t.n * (t.n - 1) // 2, 10)
    if not s.is_zero():
        with pytest.raises(ValueError, match="nonzero wedge"):
            unflatten(t.flatten() + skew_h_flatten(t.n, s))
    assert tensor_from_obj(json.loads(json.dumps(tensor_to_obj(t)))) == t


@pytest.mark.parametrize("spec", ROUNDTRIP_FIELDS)
@given(data=st.data())
def test_decompose_rejects_a_matrix_that_is_no_skew_form(spec, data):
    fld = field_from_spec(spec)
    m = _tensor(data, fld).flatten()
    # one more nonzero entry breaks the skew symmetry (the characteristic is not 2)
    i, j = (data.draw(st.integers(0, m.nrows - 1)) for _ in range(2))
    c = data.draw(_elements(fld).filter(lambda x: not fld.is_zero(x)))
    bump = Mat.from_rows(fld, [[c if (r, k) == (i, j) else fld.zero() for k in range(m.ncols)]
                               for r in range(m.nrows)], m.ncols)
    with pytest.raises(ValueError, match="not skew-symmetric"):
        unflatten(m + bump)
    side = data.draw(st.integers(1, 22).filter(lambda x: x % 4))
    with pytest.raises(ValueError, match="side must be 4n"):
        unflatten(Mat.zeros(fld, side, side))
