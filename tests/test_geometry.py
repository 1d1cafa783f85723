from functools import cache

import pytest
from hypothesis import given, strategies as st

from instantons import monads
from instantons.families import degenerate_rank6, nc_tensor, sample_instanton, thooft_tensor
from instantons.fields import field_from_spec
from instantons.geometry import (
    k_intersection_dim,
    line_invariants,
    line_through,
    nc_quadric_ideal,
    pencil_jump_poly,
    plucker_bilinear,
    plucker_of_span,
    plucker_quadric,
    random_lines,
    splitting_orders,
    triple_span,
)
from instantons.linalg import Mat, Stream, Subspace, det_pencil, det_pencils, kron
from instantons.monads import build_monad
from instantons.polys import evaluate as poly_evaluate
from instantons.polys import roots as poly_roots
from instantons.tensors import OmegaTensor, tensor_from_obj, tensor_to_obj
from oracles import (
    h0_on_plane,
    line_by_elimination,
    line_invariants_by_line,
    splitting_order_by_generators,
    zero_tensor,
)


def _pencil(field, p: list, q0: list, q1: list) -> tuple[list, list]:
    """(lam0, lam1): lam0 + t lam1 is the line through p and q0 + t q1."""
    return plucker_of_span(field, p, q0), plucker_of_span(field, p, q1)


def _on_pencil(field, p: list, q0: list, q1: list, t) -> tuple[list, list]:
    """The line through p and q0 + t q1, the member t of _pencil(p, q0, q1)."""
    return line_through(field, p, [field.add(a, field.mul(t, b)) for a, b in zip(q0, q1)])


def test_line_constructions_agree(F):
    # the line z2 = z3 = 0 through two of its points: line_through and the
    # elimination give one Pluecker vector, divided by its first coordinate,
    # and the elimination's equations are z2 and z3
    lam, points = line_through(F, [2, 3, 0, 0], [1, 4, 0, 0])
    assert points == [[2, 3, 0, 0], [1, 4, 0, 0]]
    assert lam == line_through(F, [1, 0, 0, 0], [0, 1, 0, 0])[0] == [1, 0, 0, 0, 0, 0]
    _U, W, by_elimination = line_by_elimination(F, [2, 3, 0, 0], [1, 4, 0, 0])
    assert by_elimination == lam
    assert W == Subspace.from_spanning(Mat.from_rows(F, [[0, 0, 1, 0], [0, 0, 0, 1]], 4))
    assert F.is_zero(plucker_quadric(F, lam))
    with pytest.raises(ValueError):
        line_through(F, [1, 0, 0, 0], [2, 0, 0, 0])


@cache
def _line_tensors(spec: str) -> list[OmegaTensor]:
    """Rank-2 tensors at n = 1..5: samples where the field allows them
    (the samplers need p > 4n and cannot reach r < 2n over Q), randomized
    't Hooft tensors elsewhere, and the banded-net, degenerate and
    null-correlation examples."""
    field = field_from_spec(spec)
    if spec == "fp:32003":
        drawn = [sample_instanton(n, 2, field, ("line_oracle", n)) for n in (2, 3, 4, 5)]
    else:
        drawn = [thooft_tensor(n, field, seed=1) for n in (2, 3, 4, 5)]
    return drawn + [thooft_tensor(5, field), degenerate_rank6(field), nc_tensor(field)]


@pytest.mark.parametrize("spec", ["fp:32003", "fp:7", "fp:5^2", "rational"])
@given(data=st.data())
def test_batched_lines_match_the_per_line_eliminations(spec, data):
    # points with zero coordinates often, so that leading Pluecker
    # coordinates vanish and each coordinate is sometimes the first nonzero one
    field = field_from_spec(spec)
    tensors = _line_tensors(spec)
    omega = tensors[data.draw(st.integers(0, len(tensors) - 1))]
    stream = Stream("line_oracle", spec, data.draw(st.integers(0, 10**6)))
    zero_mask = st.lists(st.booleans(), min_size=4, max_size=4)
    lines = []
    for _ in range(data.draw(st.integers(1, 6))):
        u0, u1 = ([field.zero() if z else stream.next_element(field) for z in data.draw(zero_mask)]
                  for _ in range(2))
        try:
            expect = line_by_elimination(field, u0, u1)[2]
        except ValueError:
            with pytest.raises(ValueError):
                line_through(field, u0, u1)
            continue
        line = line_through(field, u0, u1)
        assert line == (expect, [u0, u1])
        lines.append(line)
    assert line_invariants(omega, lines) == [line_invariants_by_line(omega, *points)
                                             for _lam, points in lines]


def test_lines_meet_via_bilinear(F):
    a = line_through(F, [1, 0, 0, 0], [0, 1, 0, 0])[0]
    b = line_through(F, [0, 0, 1, 0], [0, 0, 0, 1])[0]
    c = line_through(F, [1, 0, 0, 0], [0, 0, 1, 0])[0]
    assert not F.is_zero(plucker_bilinear(F, a, b))  # skew lines
    assert F.is_zero(plucker_bilinear(F, a, c))  # they share e0


def test_h0_line_and_splitting_nc(F):
    nc = nc_tensor(F)
    non_iso = line_through(F, [1, 0, 0, 0], [0, 1, 0, 0])
    iso = line_through(F, [1, 0, 0, 0], [0, 0, 1, 0])
    (a0, h0_0, _), (a1, h0_1, _) = line_invariants(nc, [non_iso, iso])
    assert (a0, a1) == (0, 1)
    assert h0_0 == 2
    assert h0_1 == 2  # max(2, a+1) with a = 1


def test_splitting_requires_rank_two(F, full36):
    lam, _points = line_through(F, [1, 0, 0, 0], [0, 1, 0, 0])
    with pytest.raises(ValueError, match="rank-2 displays only"):
        splitting_orders(full36, [lam])


def test_line_geometry_builds_no_display(F, chain52, monkeypatch):
    # orders, section counts and meets with K (x) V* read the tensor's rank,
    # quadrics and image alone; read back through the file format, the
    # tensor starts with no display
    t = tensor_from_obj(tensor_to_obj(chain52))
    builds = []
    monkeypatch.setattr(monads, "_monad_from_image", lambda omega, N: builds.append(omega))
    lines = random_lines(F, Stream("no_display"), 3)
    lam0, lam1 = _pencil(F, [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0])
    line_invariants(t, lines)
    pencil_jump_poly(t, lam0, lam1)
    k_intersection_dim(t, Mat.identity(F, 5))
    assert builds == [] and t._monad is None


def test_generic_line_on_chain(F, chain52):
    st = Stream("chain_lines", 0)
    u0, u1 = st.next_vector(F, 4), st.next_vector(F, 4)
    assert line_invariants(chain52, [line_through(F, u0, u1)])[0][:2] == (0, 2)
    # cross-check of the intersection count against the restriction
    sub = chain52.image().intersect(
        _wedge_space(F, 5, line_by_elimination(F, u0, u1)[1].basis.rows())
    )
    assert sub.dim == 2


def _wedge_space(field, n, vectors):
    rows = []
    for a in range(n):
        for v in vectors:
            vec = [field.zero()] * (4 * n)
            for k in range(4):
                vec[4 * a + k] = v[k]
            rows.append(vec)
    return Subspace.from_spanning(Mat.from_rows(field, rows, 4 * n))


def test_maximal_jumping_line_on_net_tensor(F):
    # the banded-net bundle carries jumping lines of the highest possible
    # order n; the coordinate line through e0, e2 realizes it
    th5 = thooft_tensor(5, F)
    line = line_through(F, [1, 0, 0, 0], [0, 0, 1, 0])
    a, h0, _det = line_invariants(th5, [line])[0]
    assert a == 5
    assert h0 == 6  # a + 1
    assert F.is_zero(th5.contract_line(line[0]).det())


def test_high_order_event_found_by_pencil_scan(F):
    # scan a pencil through the order-5 line: the root recovers it
    th5 = thooft_tensor(5, F)
    p, q0, q1 = [1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0]
    poly = pencil_jump_poly(th5, *_pencil(F, p, q0, q1))
    found, _ = poly_roots(poly, F)
    orders = []
    for root in found:
        a_val, h0, _det = line_invariants(th5, [_on_pencil(F, p, q0, q1, root)])[0]
        orders.append(a_val)
        assert h0 == max(2, a_val + 1)
    assert max(orders) >= 2
    assert max(orders) <= 5


def test_pencil_degree_and_validation(F, chain52):
    nc = nc_tensor(F)
    # pencil of lines through e0 inside the plane containing e1: the root
    # marks the unique isotropic line of the pencil
    lam0, lam1 = _pencil(F, [1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0])
    poly = pencil_jump_poly(nc, lam0, lam1)
    assert len(poly) - 1 == 1
    found, _ = poly_roots(poly, F)
    assert len(found) == 1
    lam = [F.add(a, F.mul(found[0], b)) for a, b in zip(lam0, lam1)]
    assert splitting_orders(nc, [lam])[0] == [1]
    # generic pencils on a (5,2) tensor reach the full degree n
    st = Stream("pencils", 1)
    degs = []
    for _ in range(3):
        while True:
            p, q0, q1 = (st.next_vector(F, 4) for _ in range(3))
            if Mat.from_rows(F, [p, q0, q1], 4).rank() == 3:
                break
        lam0, lam1 = _pencil(F, p, q0, q1)
        degs.append(len(pencil_jump_poly(chain52, lam0, lam1)) - 1)
    assert max(degs) == 5
    # zero tensor gives the zero polynomial
    assert pencil_jump_poly(zero_tensor(2, F), lam0, lam1) == []
    # leaving the decomposable locus is rejected
    with pytest.raises(ValueError):
        pencil_jump_poly(nc, [1, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 1])


@given(data=st.data())
def test_det_pencil_evaluates_to_the_determinant(data):
    # the polynomial at t is det(a + t b), at any t of the field; the
    # extension fields have more than w elements, though their characteristic
    # may be at most w (fp:2^3 has 8, too few at w = 8).  det_pencils takes k
    # pencils side by side, one coefficient row each, and det_pencil the
    # first with its zero leading coefficients dropped
    w = data.draw(st.sampled_from([1, 2, 3, 4, 5, 8]))
    k = data.draw(st.integers(1, 3))
    spec = data.draw(st.sampled_from(["fp:32003", "rational", "fp:7^2", "fp:3^2"]
                                     + ["fp:2^3"] * (w < 8)))
    field = field_from_spec(spec)
    stream = Stream("det_pencil", spec, w, data.draw(st.integers(0, 10**6)))
    a, b = (Mat.from_rows(field, [stream.next_vector(field, k * w) for _ in range(w)], k * w)
            for _ in range(2))
    t = stream.next_element(field)
    rows = det_pencils(a, b, "drawn pencils")
    assert (rows.nrows, rows.ncols) == (k, w + 1)
    for i in range(k):
        a_i, b_i = (m.take_cols(range(i * w, (i + 1) * w)) for m in (a, b))
        assert poly_evaluate(rows.row(i), t, field) == (a_i + b_i.scale(t)).det()
    poly = det_pencil(a.take_cols(range(w)), b.take_cols(range(w)), "a drawn pencil")
    assert len(poly) <= w + 1 and poly + [field.zero()] * (w + 1 - len(poly)) == rows.row(0)


def test_det_pencil_needs_distinct_points():
    # a determinant of degree up to 5 needs 6 points, and fp:5 has 5
    f5 = field_from_spec("fp:5")
    one = Mat.identity(f5, 5)
    with pytest.raises(ValueError, match="a pencil of width 5.*fp:5"):
        det_pencil(one, one, "a pencil of width 5")


def _k_meet(omega, K: Subspace) -> Subspace:
    """N meet (K (x) V*) by the Zassenhaus intersection: the oracle."""
    return omega.image().intersect(
        Subspace.from_spanning(kron(K.basis, Mat.identity(omega.field, 4))))


def test_k_intersection_cases(F, chain52):
    st = Stream("ktest", 0)
    K = Subspace.from_spanning(Mat.from_rows(F, [st.next_vector(F, 5) for _ in range(2)], 5))
    assert k_intersection_dim(chain52, K.basis) == _k_meet(chain52, K).dim == 0
    th5 = thooft_tensor(5, F)
    K2 = Subspace.from_spanning(Mat.from_rows(F, [[0, 1, 0, 0, 0], [0, 0, 0, 1, 0]], 5))
    assert k_intersection_dim(th5, K2.basis) == _k_meet(th5, K2).dim == 0
    full = Subspace.from_spanning(Mat.identity(F, 5))
    assert k_intersection_dim(chain52, full.basis) == chain52.image().dim == 12
    assert _k_meet(chain52, full) == chain52.image()


def test_k_intersection_meets_banded_net(F):
    # the banded net of the 't Hooft tensor has columns inside
    # e0* (x) V* + e1* (x) V*, so the intersection is nonzero
    th5 = thooft_tensor(5, F)
    K = Subspace.from_spanning(Mat.from_rows(F, [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0]], 5))
    assert k_intersection_dim(th5, K.basis) == _k_meet(th5, K).dim >= 1


def test_nc_quadric_ideal_exact_spans(F, Q):
    idx = [(0, 0), (0, 1), (0, 2), (0, 3), (1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3)]

    def expected(fld, monos):
        rows = []
        for spec in monos:
            v = [fld.zero()] * 10
            for mono, c in spec.items():
                v[idx.index(mono)] = fld.of_int(c)
            rows.append(v)
        return Subspace.from_spanning(Mat.from_rows(fld, rows, 10))

    for fld in (F, Q):
        one, z = fld.one(), fld.zero()
        eta = [one, z, z, z, z, one]
        got_a = nc_quadric_ideal(fld, eta, [fld.of_int(3), z, z, z, z, fld.of_int(4)])
        assert got_a == expected(fld, [{(0, 2): 1}, {(0, 3): 1}, {(1, 2): 1}, {(1, 3): 1}])
        got_b = nc_quadric_ideal(fld, eta, [z, z, z, z, one, z])
        assert got_b == expected(
            fld, [{(1, 1): 1}, {(1, 3): 1}, {(3, 3): 1}, {(0, 1): 1, (2, 3): 1}]
        )
        with pytest.raises(ValueError):
            nc_quadric_ideal(fld, eta, [fld.of_int(2), z, z, z, z, fld.of_int(2)])
        with pytest.raises(ValueError):
            nc_quadric_ideal(fld, [one, z, z, z, z, z], [z, z, one, z, z, z])


def test_nc_quadric_ideal_dimension_always_four(F):
    st = Stream("ideal4", 0)
    done = 0
    while done < 100:
        eta = st.next_vector(F, 6)
        alpha = st.next_vector(F, 6)
        if nc_tensor(F, eta).rank() != 4:
            continue
        if Mat.from_rows(F, [eta, alpha], 6).rank() != 2:
            continue
        assert nc_quadric_ideal(F, eta, alpha).dim == 4
        done += 1


def test_two_lines_in_stable_plane_order_bound(F):
    # on a stable plane (no sections of the restriction) the orders of any
    # two lines inside it sum to at most n
    t = sample_instanton(3, 2, F, ("plane_bound", 0))
    st = Stream("plane_lines", 0)
    planes_done = 0
    while planes_done < 3:
        z = st.next_vector(F, 4)
        if all(F.is_zero(x) for x in z):
            continue
        if h0_on_plane(t, z) != 0:
            continue
        planes_done += 1
        w = Mat.from_rows(F, [z], 4).kernel().basis.rows()  # three points spanning the plane
        pairs_done = 0
        while pairs_done < 5:
            c1 = st.next_vector(F, 3)
            c2 = st.next_vector(F, 3)

            def combo(c):
                return [
                    sum((F.mul(c[r], w[r][k]) for r in range(3)), F.zero())
                    for k in range(4)
                ]

            try:
                l1 = line_through(F, combo(c1), combo(st.next_vector(F, 3)))[0]
                l2 = line_through(F, combo(c2), combo(st.next_vector(F, 3)))[0]
            except ValueError:
                continue
            pairs_done += 1
            a1, a2 = splitting_orders(t, [l1, l2])[0]
            assert a1 + a2 <= 3


def test_triple_span_cases(F):
    one, z = F.one(), F.zero()
    eta = [one, z, z, z, z, one]
    pair = (eta, [F.of_int(2), z, z, z, z, F.of_int(7)])
    assert triple_span(F, [pair, pair, pair]) is False
    with pytest.raises(ValueError):
        triple_span(F, [pair, pair])


def test_skew_line_pairs_have_disjoint_ideals(F):
    # two pairs of mutually skew lines in general position: the ideals of
    # their unions intersect in zero (the case-(i) configuration)
    one, z = F.one(), F.zero()
    # first pair: lines {z0 = z1 = 0} and {z2 = z3 = 0}
    eta1 = [one, z, z, z, z, one]
    alpha1 = [one, z, z, z, z, z]

    def wedge_of(zA, zB):
        out = [z] * 6
        from instantons.bases import WEDGE_PAIRS

        for w, (k, l) in enumerate(WEDGE_PAIRS):
            out[w] = F.sub(F.mul(zA[k], zB[l]), F.mul(zA[l], zB[k]))
        return out

    # second pair: {z0-z3 = z1-z2 = 0} and {2 z0-z3 = 5 z1-z2 = 0}; the four
    # lines are pairwise skew and share no quadric (a same-ruling choice like
    # {z0+z2 = z1+z3 = 0} would leave a one-dimensional overlap)
    m1 = F.neg(one)
    p21 = wedge_of([one, z, z, m1], [z, one, m1, z])
    p22 = wedge_of([F.of_int(2), z, z, m1], [z, F.of_int(5), m1, z])
    eta2 = [F.add(a, b) for a, b in zip(p21, p22)]
    alpha2 = p21
    for eqs in (
        [[one, z, z, z], [z, one, z, z], [one, z, z, m1], [z, one, m1, z]],
        [[z, z, one, z], [z, z, z, one], [one, z, z, m1], [z, one, m1, z]],
        [[one, z, z, m1], [z, one, m1, z], [F.of_int(2), z, z, m1], [z, F.of_int(5), m1, z]],
    ):
        assert Mat.from_rows(F, eqs, 4).rank() == 4  # pairwise skew
    i1 = nc_quadric_ideal(F, eta1, alpha1)
    i2 = nc_quadric_ideal(F, eta2, alpha2)
    assert i1.intersect(i2).dim == 0


def _coordinate_lines(field):
    e = [[int(k == i) for k in range(4)] for i in range(4)]
    return [line_through(field, e[i], e[j]) for i in range(4) for j in range(i + 1, 4)]


def _pencil_root_lines(field, omega, p, q0, q1):
    found, _ = poly_roots(pencil_jump_poly(omega, *_pencil(field, p, q0, q1)), field)
    return [_on_pencil(field, p, q0, q1, t) for t in found]


@pytest.mark.parametrize("spec", ["fp:32003", "fp:7"])
def test_splitting_order_matches_section_module_oracle(spec):
    field = field_from_spec(spec)
    st = Stream("oracle_lines", spec)
    cases = []
    for n in (3, 4, 5):
        t = thooft_tensor(n, field)
        lines = _coordinate_lines(field)
        lines += _pencil_root_lines(field, t, [1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0])
        cases.append((t, lines))
    # corank-2 sampling needs 4n + 1 points, more than fp:7 has; randomized
    # 't Hooft tensors stand in for the samples there
    if field.p > 20:
        randomized = [sample_instanton(n, 2, field, ("oracle", n)) for n in (2, 3, 4, 5)]
    else:
        randomized = [thooft_tensor(n, field, seed=1) for n in (3, 4, 5)]
    for t in randomized:
        lines = []
        while len(lines) < 4:
            try:
                lines.append(line_through(field, st.next_vector(field, 4), st.next_vector(field, 4)))
            except ValueError:
                continue
        while True:
            p, q0, q1 = (st.next_vector(field, 4) for _ in range(3))
            if Mat.from_rows(field, [p, q0, q1], 4).rank() == 3:
                break
        lines += _pencil_root_lines(field, t, p, q0, q1)
        cases.append((t, lines))
    mismatches, top_orders = [], 0
    for t, lines in cases:
        m = build_monad(t)
        orders = splitting_orders(t, [lam for lam, _points in lines])[0]
        for (lam, points), a in zip(lines, orders):
            if a != splitting_order_by_generators(m, points):
                mismatches.append((t, lam, a))
            top_orders += a == t.n
    assert mismatches == []
    assert top_orders >= 1  # some line reaches the maximal order a = n
