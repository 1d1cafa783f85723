import pytest
from hypothesis import given, settings, strategies as st
from oracles import piece_rank_by_spanning_set, spanning_set_cells, witness_search_by_loops

from instantons.bases import num_monomials
from instantons.families import degenerate_rank6, nc_tensor, random_tensor, sample_full
from instantons.fields import PrimeField, field_from_spec
from instantons.linalg import Mat, Stream
from instantons.nondeg import (
    DEFAULT_SCHEDULE,
    Budget,
    SpanningCertifier,
    classify,
    spanning_certificate,
    witness_search,
)
from instantons.tensors import OmegaTensor, block_sum


def test_witness_on_degenerate_example(F):
    t = degenerate_rank6(F)
    h, v, fld = witness_search(t)
    assert h == [1, 0] and v == [1, 0, 0, 0]


def test_witness_zero_tensor(F):
    t = OmegaTensor.zero(2, F)
    h, v, fld = witness_search(t)
    assert h == [1, 0] and v == [1, 0, 0, 0]


def test_no_witness_on_nc(F):
    assert witness_search(nc_tensor(F), max_ext_degree=1, point_cap=2000) is None


def test_certificate_on_nc_closes_at_1_1(F, Q):
    # pinned minimal closing degree over both fields: full rank makes the
    # generator forms span all of H* (x) V* immediately
    for fld in (F, Q):
        t = nc_tensor(fld)
        assert spanning_certificate(t, (1, 1))
        assert spanning_certificate(t, (2, 2))  # monotone upward


def test_certificate_false_for_degenerate(F):
    t = degenerate_rank6(F)
    for degs in ((1, 1), (2, 2), (3, 3)):
        assert not spanning_certificate(t, degs)


def test_certificate_monotone_on_chain(F, chain52):
    closed = None
    for degs in ((1, 1), (1, 2), (2, 1), (2, 2)):
        if spanning_certificate(chain52, degs):
            closed = degs
            break
    assert closed is not None
    d, e = closed
    assert spanning_certificate(chain52, (d + 1, e))
    assert spanning_certificate(chain52, (d, e + 1))


def test_classify_stratum_degenerate(F):
    t = block_sum(nc_tensor(F), OmegaTensor.zero(1, F))  # rank 4 <= 2n with n=2
    v = classify(t)
    assert v.is_degenerate
    assert "rank" in v.reason


def test_classify_certified_and_unknown(F):
    v = classify(nc_tensor(F))
    assert v.is_certified and v.certified_degrees == (1, 1)
    tiny = Budget(max_ext_degree=1, point_cap=4, schedule=())
    v2 = classify(sample_full(2, F, 1), tiny)
    assert v2.status == "unknown"


def test_classify_never_contradicts(F):
    # the same tensor classified under different budgets never flips between
    # degenerate and certified
    t = degenerate_rank6(F)
    small = classify(t, Budget(point_cap=16, schedule=((1, 1),)))
    big = classify(t)
    assert small.is_degenerate == big.is_degenerate


def test_extension_witness_tower():
    # frozen F_3 tensor of rank 6 whose degenerate points are all conjugate
    # over F_9: the base-field scan finds nothing, the degree-2 scan finds a
    # witness, and the certificate never closes
    f3 = PrimeField(3)
    t = OmegaTensor.from_vec(
        2, f3, [0, 0, 2, 1, 1, 0, 1, 2, 2, 0, 2, 0, 2, 2, 0, 2, 1, 2]
    )
    assert t.rank() == 6
    assert witness_search(t, 1, 10**6, 10**6) is None
    w = witness_search(t, 2, 10**6, 10**6)
    assert w is not None and w[2].spec_str() == "fp:3^2"
    assert not spanning_certificate(t, (3, 3))
    v = classify(t, Budget(max_ext_degree=2, point_cap=10**6, field_size_cap=10**6))
    assert v.is_degenerate and v.witness_field == "fp:3^2"


def test_rational_witness_found_by_auxiliary_reduction(Q):
    # frozen rank-6 rational tensor built to vanish at h = (1, 7),
    # v = (1, 3, 0, 5): the witness lies beyond the small-height direct scan
    # and is recovered by reduction mod the auxiliary prime plus lifting
    from fractions import Fraction

    coeffs = [
        "1", "2", "15", "12", "-2", "-9", "5", "14", "-183/35", "17", "46/35",
        "538/35", "10", "14", "-1392/245", "12", "479/245", "2367/245",
    ]
    t = OmegaTensor.from_vec(2, Q, [Fraction(c) for c in coeffs])
    assert t.rank() == 6
    w = witness_search(t, point_cap=4096)
    assert w is not None
    h, v, fld = w
    assert fld.kind == "rational"
    assert h == [Fraction(1), Fraction(7)]
    assert v == [Fraction(1), Fraction(3), Fraction(0), Fraction(5)]


def test_agreement_small_field():
    # over a small prime field, compare the scan (through degree-2 extensions)
    # with the certificate; soundness requires: witness found => certificate
    # never closes.  Statistical disagreement the other way is reported only.
    f5 = PrimeField(5)
    st = Stream("agree", 0)
    unsound = 0
    open_cases = 0
    for _ in range(100):
        t = random_tensor(2, f5, st)
        w = witness_search(t, max_ext_degree=2, point_cap=10**6, field_size_cap=10**6)
        cert = spanning_certificate(t, (3, 3))
        if w is not None and cert:
            unsound += 1
        if w is None and not cert:
            open_cases += 1
    assert unsound == 0
    # honest reporting: cases neither side decides may exist, never asserted
    assert open_cases >= 0


# -- properties against the reference computations in tests/oracles.py ------

# (field, extension degree of the scan); n = 5 scans P(V) instead of P(H)
ORACLE_FIELDS = [("fp:5", 2), ("fp:7", 1), ("fp:32003", 1), ("rational", 1)]
ORACLE_POINT_CAP = 200
# largest explicit spanning set the piece oracle ranks, per backend
ORACLE_CELLS = {"prime": 150_000, "rational": 15_000}


def _vanishing_at(fld, n: int, h: list, v: list, lam: list) -> OmegaTensor:
    """A combination, with coefficients lam, of a basis of the tensors that
    vanish on h (x) v."""
    size = 3 * n * (n + 1)
    hv = [fld.mul(x, y) for x in h for y in v]
    cols = []
    for t in range(size):
        unit = OmegaTensor.from_vec(n, fld, [fld.one() if s == t else fld.zero() for s in range(size)])
        m = unit.flatten().mat
        row_sums = []
        for i in range(m.nrows):
            acc = fld.zero()
            for x, y in zip(m.row(i), hv):
                acc = fld.add(acc, fld.mul(x, y))
            row_sums.append(acc)
        cols.append(row_sums)
    ker = Mat.from_rows(fld, cols, 4 * n).transpose().kernel().basis
    vec = [fld.zero()] * size
    for i in range(ker.nrows):
        c = fld.of_int(lam[i % len(lam)])
        vec = [fld.add(x, fld.mul(c, y)) for x, y in zip(vec, ker.row(i))]
    return OmegaTensor.from_vec(n, fld, vec)


@st.composite
def _tensors(draw, fld):
    """Sparse small-integer tensors, or tensors with a planted witness."""
    n = draw(st.integers(2, 5))
    small = st.one_of(st.just(0), st.integers(-3, 3))
    if draw(st.booleans()):
        vec = draw(st.lists(small, min_size=3 * n * (n + 1), max_size=3 * n * (n + 1)))
        return OmegaTensor.from_vec(n, fld, [fld.of_int(x) for x in vec])

    # planted witness; the scanned side (h for n <= 4, v for n = 5) is
    # (1, 0, ..., 0, t): over Q it lies beyond the small-height scan and the
    # mod-311 scan reaches it within the cap, and the partner's negative
    # entries need the centered lift
    def scanned(dim):
        return st.integers(3, 7).map(
            lambda t: [fld.one()] + [fld.zero()] * (dim - 2) + [fld.of_int(t)])

    def partner(dim):
        return st.lists(st.integers(-7, 7), min_size=dim - 1, max_size=dim - 1).map(
            lambda xs: [fld.one()] + [fld.of_int(x) for x in xs])

    if n <= 4:
        h, v = draw(scanned(n)), draw(partner(4))
    else:
        h = draw(partner(n))
        v = draw(scanned(4))
    lam = draw(st.lists(st.integers(1, 3), min_size=1, max_size=8))
    return _vanishing_at(fld, n, h, v, lam)


def _ser(w):
    return None if w is None else ([w[2].to_str(x) for x in w[0]],
                                   [w[2].to_str(x) for x in w[1]], w[2].spec_str())


@pytest.mark.parametrize("spec,ext", ORACLE_FIELDS)
@settings(max_examples=12)
@given(data=st.data())
def test_witness_search_matches_loop_oracle(spec, ext, data):
    fld = field_from_spec(spec)
    t = data.draw(_tensors(fld))
    args = (t, ext, ORACLE_POINT_CAP, 10**6)
    assert _ser(witness_search(*args)) == _ser(witness_search_by_loops(*args))


@pytest.mark.parametrize("spec", [spec for spec, _ in ORACLE_FIELDS])
@settings(max_examples=12)
@given(data=st.data())
def test_piece_ranks_match_spanning_set_oracle(spec, data):
    # every schedule piece whose explicit spanning set stays under the cap;
    # at n = 2 over the prime fields that is the whole schedule
    fld = field_from_spec(spec)
    t = data.draw(_tensors(fld))
    cert = SpanningCertifier(t)
    for d, e in DEFAULT_SCHEDULE:
        if spanning_set_cells(t.n, d, e) <= ORACLE_CELLS[fld.kind]:
            piece = cert.piece(d, e)
            assert piece.ncols == num_monomials(t.n, d) * num_monomials(4, e)
            assert piece.rank == piece_rank_by_spanning_set(t, d, e)
