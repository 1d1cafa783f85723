import pytest

from instantons.families import (
    RestrictedSumFamily,
    extend_affine,
    extend_fiber,
    fiber_solution_space,
    named_example,
    nc_tensor,
    sample_corank2,
    sample_full,
    sample_instanton,
    thooft_net,
    thooft_tensor,
    two_instanton_sum,
)
from instantons.fields import ExtensionField
from instantons.linalg import Mat, Stream, Subspace
from instantons.monads import MonadError, build_monad
from instantons.nondeg import classify

from instantons.tensors import block_sum


def test_named_example_ids(F):
    assert named_example("nc", F).rank() == 4
    assert named_example("degenerate-rank6", F).rank() == 6
    assert named_example("three-nc", F).rank() == 12
    with pytest.raises(ValueError):
        named_example("mystery", F)


def test_sum_family_reads_extension_field_coordinates():
    # over GF(p^k) t0 and t1 are k coordinates each, 2k in all
    f = ExtensionField(11, 2)
    assert named_example("sum-family:1,0,2,3", f) == RestrictedSumFamily(f, seed=0).tensor((1, 0), (2, 3))
    for bad in ("sum-family:1,2", "sum-family:1,0,2", "sum-family:1,0,2,3,4"):
        with pytest.raises(ValueError, match="each 2 comma-separated coordinates"):
            named_example(bad, f)


def test_thooft_net_shape(F):
    net = thooft_net(5, F)
    assert net.nrows == 20 and net.ncols == 12
    assert Subspace.from_spanning(net.transpose()).dim == 12
    # row a carries the four coordinates in columns 2a..2a+3
    assert net.row(4 * 2 + 1)[2 * 2 + 1] == 1
    assert net.row(0)[5] == 0


def test_thooft_tensor_properties(F):
    for n in (2, 3, 4, 5):
        t = thooft_tensor(n, F)
        assert t.rank() == 2 * n + 2
        m = build_monad(t)
        assert m.h_values(1)[0] == 2  # the two extra sections at twist 1
        # image equals the net's column span
        assert t.image() == Subspace.from_spanning(thooft_net(n, F).transpose())
    assert thooft_tensor(5, F, seed=0) == thooft_tensor(5, F, seed=0)


def test_sample_full_properties(F):
    t = sample_full(3, F, 0)
    assert t.rank() == 12
    assert sample_full(3, F, 0) == sample_full(3, F, 0)
    assert sample_full(3, F, 0) != sample_full(3, F, 1)
    assert sample_full(1, F, 0).rank() == 4  # an indecomposable 2-form


def test_sample_corank2_properties(F, corank2_n2, corank2_n3):
    assert corank2_n2.rank() == 6
    assert corank2_n3.rank() == 10
    assert not classify(corank2_n2).is_degenerate
    assert sample_corank2(2, F, 0) == sample_corank2(2, F, 0)


def test_two_instanton_sum(F):
    t = two_instanton_sum(F, 0)
    assert t.n == 4 and t.rank() == 12
    # h1 E(1) = 0 for the sum of two 2-instantons
    assert build_monad(t).h_values(1)[1] == 0


def _hyperplane_matrix(F, t0, t1) -> Mat:
    """The inclusion of the family's hyperplane of H, as a 4 x 3 matrix."""
    one, zero = F.one(), F.zero()
    return Mat.from_rows(F, [[t0, zero, zero], [zero, one, zero], [t1, zero, zero],
                             [zero, zero, one]], 3)


def test_restricted_sum_family(F):
    fam = RestrictedSumFamily(F, seed=0)
    one, zero = F.one(), F.zero()
    base = block_sum(fam.wp, fam.ws)
    assert base.n == 4 and base.rank() == 12
    t0, t1 = F.of_int(2), F.of_int(9)
    # the displayed 3x3 matrix agrees with the generic hyperplane restriction
    assert fam.tensor(t0, t1) == base.apply_h_map(_hyperplane_matrix(F, t0, t1))
    assert fam.tensor(t0, t1).rank() == 12
    assert fam.tensor(one, zero).rank() == 10
    assert fam.tensor(zero, one).rank() == 10
    assert fam.tensor(zero, zero).rank() == 8
    for t in ((one, zero), (zero, one)):
        bdry = fam.tensor(*t)
        assert build_monad(bdry).h_values(1)[1] == 0
        assert not classify(bdry).is_degenerate


def test_fiber_solution_space_dims(F, full36):
    # extension space over a full-rank n=3 base is 18-dimensional; over the
    # sum of two 2-forms with n=2 it is 12-dimensional
    assert fiber_solution_space(full36).dim == 18
    two_nc = block_sum(nc_tensor(F), nc_tensor(F, [1, 2, 0, 0, 1, 1]))
    assert fiber_solution_space(two_nc).dim == 12


def test_extend_fiber_roundtrip(F, full36):
    ext = extend_fiber(full36, seed=0)
    assert ext.n == 4
    assert ext.rank() == full36.rank()
    assert ext.restrict_xi([1, 0, 0, 0]) == full36
    assert not classify(ext).is_degenerate
    # a base with r = 2 cannot be extended further down
    with pytest.raises(MonadError):
        extend_fiber(sample_instanton(2, 2, F, 0), seed=0)


def test_extend_affine_contract(F, full36):
    st = Stream("ea", 0)
    alpha = Mat.from_rows(F, [st.next_vector(F, 6) for _ in range(3)], 6)
    ext = extend_affine(full36, alpha)
    assert ext.rank() == 12
    assert ext.restrict_xi([1, 0, 0, 0]) == full36
    zero_alpha = Mat.zeros(F, 3, 6)
    padded = extend_affine(full36, zero_alpha)
    assert padded.rank() == 12
    assert classify(padded).is_degenerate  # the first basis vector is killed
    with pytest.raises(MonadError):
        extend_affine(sample_corank2(3, F, 1), alpha)


def test_sample_instanton_chains(F):
    t24 = sample_instanton(2, 4, F, 0)
    assert t24.rank() == 8  # full-rank stratum
    t42 = sample_instanton(4, 2, F, 0)
    assert t42.n == 4 and t42.rank() == 10
    assert not classify(t42).is_degenerate
    with pytest.raises(ValueError):
        sample_instanton(3, 5, F, 0)
    with pytest.raises(ValueError):
        sample_instanton(6, 2, F, 0)


def test_chain52_instanton_conditions(F, chain52):
    m = build_monad(chain52)
    assert chain52.rank() == 12
    assert m.h_values(0)[0] == 0
    assert m.h_values(-2) == (0, 0)
    assert m.left_defect() == 0


@pytest.mark.parametrize("n,r", [(2, 2), (2, 4), (3, 2), (3, 4), (3, 6), (4, 4), (5, 4)])
def test_sampler_output_invariants(F, n, r):
    t = sample_instanton(n, r, F, ("sweep", n, r))
    assert t.rank() == 2 * n + r
    assert not classify(t).is_degenerate
    m = build_monad(t)
    assert m.h_values(0)[0] == 0  # no sections
    assert m.h_values(-2) == (0, 0)
    assert m.left_defect() == 0
