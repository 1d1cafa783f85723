import ast
import hashlib
from fractions import Fraction
from itertools import islice
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from oracles import (
    classify_scan_first,
    piece_rank_by_spanning_set,
    projective_points_by_filter,
    sample_matrix,
    scan_by_loops,
    spanning_set,
    spanning_set_cells,
    verify_witness,
    beyond_small_height_q,
    witness_search_by_loops,
    zero_tensor,
)

import instantons.nondeg
from instantons import linalg

from instantons.bases import num_monomials, times_variable
from instantons.families import (
    degenerate_rank6,
    nc_tensor,
    random_tensor,
    sample_full,
    thooft_tensor,
)
from instantons.fields import QQ, ExtensionField, PrimeField, field_from_spec
from instantons.linalg import Mat, Stream
from instantons.nondeg import (
    DEFAULT_SCHEDULE,
    Budget,
    SpanningCertifier,
    _candidates,
    classify,
    witness_search,
)
from instantons.tensors import OmegaTensor, block_sum


def test_witness_on_degenerate_example(F):
    t = degenerate_rank6(F)
    h, v, fld = witness_search(t)
    assert h == [1, 0] and v == [1, 0, 0, 0]


def test_witness_zero_tensor(F):
    t = zero_tensor(2, F)
    h, v, fld = witness_search(t)
    assert h == [1, 0] and v == [1, 0, 0, 0]


def test_no_witness_on_nc(F):
    assert witness_search(nc_tensor(F), max_ext_degree=1, point_cap=2000) is None


def test_certificate_on_nc_closes_at_1_1(F, Q):
    # pinned minimal closing degree over both fields: full rank makes the
    # generator forms span all of H* (x) V* immediately
    for fld in (F, Q):
        t = nc_tensor(fld)
        assert SpanningCertifier(t).closes(1, 1)
        assert SpanningCertifier(t).closes(2, 2)  # monotone upward


def test_certificate_false_for_degenerate(F):
    t = degenerate_rank6(F)
    for degs in ((1, 1), (2, 2), (3, 3)):
        assert not SpanningCertifier(t).closes(*degs)


def test_certificate_monotone_on_chain(F, chain52):
    closed = None
    for degs in ((1, 1), (1, 2), (2, 1), (2, 2)):
        if SpanningCertifier(chain52).closes(*degs):
            closed = degs
            break
    assert closed is not None
    d, e = closed
    assert SpanningCertifier(chain52).closes(d + 1, e)
    assert SpanningCertifier(chain52).closes(d, e + 1)


def test_classify_stratum_degenerate(F):
    t = block_sum(nc_tensor(F), zero_tensor(1, F))  # rank 4 <= 2n with n=2
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


def _conjugate_pair_f3() -> OmegaTensor:
    # frozen F_3 tensor of rank 6 whose degenerate points are all conjugate
    # over F_9
    return OmegaTensor.from_vec(
        2, PrimeField(3), [0, 0, 2, 1, 1, 0, 1, 2, 2, 0, 2, 0, 2, 2, 0, 2, 1, 2]
    )


def test_extension_witness_tower():
    # the base-field scan finds nothing, the degree-2 scan finds a witness,
    # and the certificate never closes
    t = _conjugate_pair_f3()
    assert t.rank() == 6
    assert witness_search(t, 1, 10**6) is None
    w = witness_search(t, 2, 10**6)
    assert w is not None and w[2].spec_str() == "fp:3^2"
    assert not SpanningCertifier(t).closes(3, 3)
    v = classify(t, Budget(max_ext_degree=2, point_cap=10**6))
    assert v.is_degenerate and v.witness_field == "fp:3^2"


def test_rational_witness_found_by_auxiliary_reduction(Q):
    # the witness lies beyond the small-height direct scan and is recovered
    # by reduction mod the auxiliary prime plus lifting
    t = beyond_small_height_q()
    assert t.rank() == 6
    w = witness_search(t, point_cap=4096)
    assert w is not None
    h, v, fld = w
    assert fld.kind == "rational"
    assert h == [Fraction(1), Fraction(7)]
    assert v == [Fraction(1), Fraction(3), Fraction(0), Fraction(5)]


def test_rational_tensor_scanned_mod_the_next_prime_when_311_divides_a_denominator(Q):
    # a denominator divisible by 311 leaves the tensor without a reduction
    # mod the auxiliary prime: the scan runs mod 313, the next prime, and
    # finds the same witness as without the scaling
    assert instantons.nondeg._AUX_PRIME == 311
    aux = PrimeField(311)
    third = Fraction(1, 311)
    nc = nc_tensor(Q, [Fraction(1), 0, 0, 0, 0, third])
    assert instantons.nondeg._flatten_in_field(nc, aux) is None
    assert witness_search(nc, point_cap=4096) is None
    hidden = beyond_small_height_q()
    scaled = OmegaTensor(2, Q, hidden.coeffs.scale(third))
    assert instantons.nondeg._flatten_in_field(scaled, aux) is None
    points = {}
    h, v, fld = witness_search(scaled, point_cap=4096, points=points)
    assert fld.kind == "rational"
    assert h == [Fraction(1), Fraction(7)]
    assert v == [Fraction(1), Fraction(3), Fraction(0), Fraction(5)]
    assert "fp:313" in points and "fp:311" not in points


@pytest.mark.parametrize("n,start", [(3, 0), (3, 5), (5, 0), (5, 250)])
def test_scan_yields_each_deficient_block_in_order(n, start):
    # a random matrix with as many rows as a contraction has columns: on
    # GF(7) about one contraction in seven is singular, so the scan meets
    # several deficient blocks, among the roots of its lines' determinants
    # and (at n = 5, where the blocks are square, 5 by 5, and each chart's
    # first run has only w + 1 = 6 points) in sketch-screened chunks.  Each
    # is yielded in enumeration order with the partner of the per-point
    # loop, which lies in its contraction's kernel, and points counts
    # through it.
    fld = PrimeField(7)
    width = 4 if n <= 4 else n
    m = sample_matrix(width, 4 * n, fld, ("scan", n))
    expected = [(i, h, v) for i, h, v in scan_by_loops(m, n, fld, 400) if i >= start]
    assert len(expected) >= 5
    points = {}
    found = _candidates(m, n, fld, start, 400, points)
    for i, h, v in expected:
        assert next(found) == (h, v)
        assert verify_witness(m, n, h, v, fld)
        assert points == {"fp:7": i + 1 - start}
    assert next(found, None) is None
    assert points == {"fp:7": Mat.projective_points(fld, min(n, 4), 0, 400).nrows - start}


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
        w = witness_search(t, max_ext_degree=2, point_cap=10**6)
        cert = SpanningCertifier(t).closes(3, 3)
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
# the first prime above FIELD_SIZE_CAP, and one past the int64 backend: the
# base field is scanned at any size
LARGE_PRIMES = [("fp:1048583", 1), ("fp:1000000007", 1)]
ORACLE_POINT_CAP = 200
# the piece oracles add fp:2, and fp:3^2 and fp:1000000007 on the generic
# backend (Python elements)
PIECE_FIELDS = [spec for spec, _ in ORACLE_FIELDS] + ["fp:2", "fp:3^2", "fp:1000000007"]
# largest explicit spanning set the piece oracles take, per backend
ORACLE_CELLS = {"int64": 150_000, "generic": 15_000}


def _oracle_pieces(t: OmegaTensor):
    """The schedule's pieces whose explicit spanning set stays under the cap;
    at n = 2 on the int64 backend that is the whole schedule."""
    cap = ORACLE_CELLS["int64" if linalg._use_np(t.field) else "generic"]
    return [(d, e) for d, e in DEFAULT_SCHEDULE if spanning_set_cells(t.n, d, e) <= cap]


def _vanishing_at(fld, n: int, h: list, v: list, lam: list) -> OmegaTensor:
    """A combination, with coefficients lam, of a basis of the tensors that
    vanish on h (x) v."""
    size = 3 * n * (n + 1)
    hv = [fld.mul(x, y) for x in h for y in v]
    cols = []
    for t in range(size):
        unit = OmegaTensor.from_vec(n, fld, [fld.one() if s == t else fld.zero() for s in range(size)])
        m = unit.flatten()
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


@pytest.mark.parametrize("spec,ext", ORACLE_FIELDS + LARGE_PRIMES)
@settings(max_examples=12)
@given(data=st.data())
def test_witness_search_matches_loop_oracle(spec, ext, data):
    fld = field_from_spec(spec)
    t = data.draw(_tensors(fld))
    args = (t, ext, ORACLE_POINT_CAP)
    assert _ser(witness_search(*args)) == _ser(witness_search_by_loops(*args))


# the screened scan's fields: tiny ones, where the sketch often passes a
# contraction of full rank as deficient (fp:2 and fp:3 through their
# quadratic extensions), an extension field as the base field, a prime where
# it almost never does, and Q, whose planted witnesses are found mod 311
SCREEN_FIELDS = ["fp:2", "fp:3", "fp:7", "fp:3^2", "fp:32003", "rational"]


def _zero_sketch(fld, nrows, width):
    return Mat.zeros(fld, width + 1, nrows)


@pytest.mark.parametrize("sketch", ["zero", "fixed"])
@pytest.mark.parametrize("spec", SCREEN_FIELDS)
@settings(max_examples=8)
@given(data=st.data())
def test_screened_scan_matches_loop_oracle(spec, sketch, data):
    # with a zero sketch every point goes on to its exact contraction, with
    # the fixed one only the points its screen cannot clear: either way the
    # witness, its partner and the points scanned in each field are the loop
    # scan's.  Chunks of 1 and 7 points put chunk boundaries inside the cap
    # and cut a long run into pieces that share its line's determinant.
    fld = field_from_spec(spec)
    t = data.draw(_tensors(fld))
    ext = 2 if spec in ("fp:2", "fp:3") else 1
    got, expected = {}, {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(instantons.nondeg, "_CHUNK", data.draw(st.sampled_from([1, 7, 1024])))
        if sketch == "zero":
            mp.setattr(instantons.nondeg, "_sketch", _zero_sketch)
        w = witness_search(t, ext, ORACLE_POINT_CAP, points=got)
    assert _ser(w) == _ser(witness_search_by_loops(t, ext, ORACLE_POINT_CAP, points=expected))
    assert got == expected


def _with_witness_at(n: int, point: list, seed) -> OmegaTensor:
    """degenerate_rank6 (+) sample_full(n - 2) over fp:32003, conjugated by a
    seeded g that moves the rank-6 summand's witness h = e_0, v = e_0 to
    h = point: the construction of the benchmark's placed witnesses."""
    f = PrimeField(32003)
    st = Stream("witness-at", n, seed)
    base = block_sum(degenerate_rank6(f), sample_full(n - 2, f, st.next_u64()))
    while True:
        cols = [point] + [st.next_vector(f, n) for _ in range(n - 1)]
        g_inv = Mat.from_rows(f, [list(r) for r in zip(*cols)], n)
        if g_inv.rank() == n:
            return base.conjugate(g_inv.inverse())


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_witness_planted_at_a_chunk_boundary(n, offset):
    # point _CHUNK + offset of the scan is [1, 0, .., 0, k], k = index - n + 1:
    # the last point of the first chunk, or the first or second of the next
    index = instantons.nondeg._CHUNK + offset
    point = [1] + [0] * (n - 2) + [index - n + 1]
    t = _with_witness_at(n, point, offset)
    got, expected = {}, {}
    w = witness_search(t, 1, 4096, points=got)
    assert w[0] == point and got == {"fp:32003": index + 1}
    assert _ser(w) == _ser(witness_search_by_loops(t, 1, 4096, points=expected))
    assert got == expected


def test_scan_work_is_pinned(monkeypatch):
    # a witness beyond the cap: the scan ranks the 5 x 4 sketched blocks of
    # the 3 basis points in one stack.  The other 4093 points lie on the line
    # [1, 0, x], whose pencil determinant det(L' M(h0) + x L' M(e_2)) takes
    # one stack of w + 1 = 5 square 4 x 4 blocks; none of the points is a
    # root, so none goes on to its 12 x 4 contraction.  Ranking the 5 x 4
    # sketched block of every point, as the scan once did, stacked 20 480
    # rows in four calls, and ranking every contraction itself 49 152.
    t = _with_witness_at(3, [1, 3, 5], 0)
    stacks = []

    def counting(stack, p):
        stacks.append(stack.shape)
        return real(stack, p)

    real = linalg._np_block_ranks
    monkeypatch.setattr(linalg, "_np_block_ranks", counting)
    assert witness_search(t, 1, 4096) is None
    assert stacks == [(3, 5, 4), (5, 4, 4)]


# the line screen's fields: runs of 6 or 7 points over fp:7, 10 or 11 over
# fp:11 and 48 or 49 over fp:7^2, so chart 0's second run lies inside the
# cap; at n = 5 (w = 5) fp:7's first runs, of w + 1 points, keep the sketch
LINE_FIELDS = ["fp:7", "fp:11", "fp:7^2"]
_FIXED_SKETCH = instantons.nondeg._sketch


def _square_zero_sketch(fld, nrows, width):
    """The fixed sketch with its first width rows, the square part that
    screens the long runs, zero: every line's determinant is the zero
    polynomial, so every point of a long run goes on to its contraction."""
    last = _FIXED_SKETCH(fld, nrows, width).take_rows([width])
    return Mat.zeros(fld, width, nrows).vstack(last)


def _planted(fld, n: int, point: list, other: list, lam: list) -> OmegaTensor:
    """A tensor vanishing on h (x) v, the scanned side being point (h for
    n <= 4, v for n = 5), the other (1, *other) and lam the coefficients of
    _vanishing_at."""
    other = [fld.one()] + [fld.of_int(x) for x in other]
    h, v = (point, other) if n <= 4 else (other, point)
    return _vanishing_at(fld, n, h, v, lam)


def _scan_both(t, ext: int, cap: int, sketch: str, chunk: int = 1024):
    got, expected = {}, {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(instantons.nondeg, "_CHUNK", chunk)
        if sketch == "square-zero":
            mp.setattr(instantons.nondeg, "_sketch", _square_zero_sketch)
        w = witness_search(t, ext, cap, points=got)
    assert _ser(w) == _ser(witness_search_by_loops(t, ext, cap, points=expected))
    assert got == expected
    return w, got


@pytest.mark.parametrize("where", [-1, 0, 1])
@pytest.mark.parametrize("spec", LINE_FIELDS)
@settings(max_examples=6, derandomize=True)
@given(data=st.data())
def test_line_screen_matches_loop_oracle_at_run_boundaries(spec, where, data):
    # a witness planted at the last point of chart 0's first run (where =
    # -1), or at the first or second point of its second run: the witness,
    # its partner and the points scanned are the loop scan's, with the
    # fixed sketch and with one whose square part is zero.  A drawn tensor
    # may have an earlier witness, never a later one.  Pieces of 1024 points
    # hold every line in the cap; pieces that end after the second run's
    # first point hold two lines, the second going on in the next piece.
    fld = field_from_spec(spec)
    n = data.draw(st.integers(3, 5))
    dim = min(n, 4)
    second = list(Mat.projective_runs(fld, dim, 0, ORACLE_POINT_CAP))[2]
    index = second[0] + where
    point = Mat.projective_points(fld, dim, index, index + 1).row(0)
    other = data.draw(st.lists(st.integers(-7, 7), min_size=3 if n <= 4 else n - 1,
                               max_size=3 if n <= 4 else n - 1))
    t = _planted(fld, n, point, other, data.draw(st.lists(st.integers(1, 3), min_size=1,
                                                            max_size=8)))
    sketch = data.draw(st.sampled_from(["fixed", "square-zero"]))
    chunk = data.draw(st.sampled_from([1024, second[0] + 1 - dim]))
    w, got = _scan_both(t, 1, ORACLE_POINT_CAP, sketch, chunk)
    assert w is not None and got[spec] <= index + 1


@pytest.mark.parametrize("n,point,index", [
    (3, [1, 1, 3], 313), (4, [1, 0, 0, 5], 4), (5, [1, 0, 1, 3], 313)])
def test_line_screen_finds_the_lifted_rational_witness(n, point, index):
    # a small-height scan over Q cannot reach a 3 or a 5, so the planted
    # witness is found mod 311 at scan index `index`, in chart 0's first or
    # second run (both lines of 311 points), and lifted back
    other = [2, -3, 5] + [1] * (n == 5)
    t = _planted(QQ, n, [Fraction(x) for x in point], other, [1, 3, 2, 2, 1, 3])
    for sketch in ("fixed", "square-zero"):
        w, got = _scan_both(t, 1, 4096, sketch)
        scanned, partner = (w[0], w[1]) if n <= 4 else (w[1], w[0])
        assert scanned == point and partner == [1] + other and w[2] is QQ
        assert got["fp:311"] == index + 1


@pytest.mark.parametrize("spec", PIECE_FIELDS)
@settings(max_examples=12)
@given(data=st.data())
def test_piece_ranks_match_spanning_set_oracle(spec, data):
    t = data.draw(_tensors(field_from_spec(spec)))
    cert = SpanningCertifier(t)
    for d, e in _oracle_pieces(t):
        piece = cert.piece(d, e)
        assert piece.ncols == num_monomials(t.n, d) * num_monomials(4, e)
        assert piece.rank == piece_rank_by_spanning_set(t, d, e)


@pytest.mark.parametrize("spec", PIECE_FIELDS)
@settings(max_examples=12)
@given(data=st.data())
def test_annihilator_rows_kill_the_spanning_set(spec, data):
    # each row of a piece's annihilator basis vanishes on every product in
    # the piece's spanning set, and the rows are independent: with the rank
    # oracle above, they span the whole annihilator
    t = data.draw(_tensors(field_from_spec(spec)))
    cert = SpanningCertifier(t)
    for d, e in _oracle_pieces(t):
        ann = cert.piece(d, e).annihilator
        assert spanning_set(t, d, e).annihilates(ann.transpose())
        assert ann.rank() == ann.nrows


@pytest.mark.parametrize("nvars", [3, 4, 5])
@pytest.mark.parametrize("degree", range(6))
def test_times_variable_images_are_increasing(nvars, degree):
    # multiplying by a variable is one to one on monomials and keeps their
    # order; a piece's annihilator reads each monomial's quotients off these
    # images
    for img in times_variable(nvars, degree):
        assert all(a < b for a, b in zip(img, img[1:]))


def _piece_case(name: str, spec: str) -> OmegaTensor:
    """The tensor of a pinned case."""
    fld = field_from_spec(spec)
    if name.startswith("thooft"):
        return thooft_tensor(int(name[-1]), fld)
    if name.startswith("degsum"):
        return block_sum(degenerate_rank6(fld), sample_full(int(name[-1]) - 2, fld, 5))
    if name.startswith("full"):
        return sample_full(int(name[-1]), fld, 0)
    return degenerate_rank6(fld)


# [d, e, ambient, rank] of every piece of the default schedule, in build
# order, recorded from the row-echelon accumulator that built each piece
# from the lower piece's reduced basis, before pieces were ranked through
# their annihilators
PIECE_RANKS = {
    ("thooft2", "fp:32003"): [
        [1, 1, 8, 6], [1, 2, 20, 20], [2, 1, 12, 12], [2, 2, 30, 30], [1, 3, 40, 40],
        [2, 3, 60, 60], [3, 2, 40, 40], [3, 3, 80, 80], [1, 4, 70, 70], [2, 4, 105, 105],
        [3, 4, 140, 140], [4, 4, 175, 175]],
    ("thooft3", "fp:32003"): [
        [1, 1, 12, 8], [1, 2, 30, 27], [2, 1, 24, 24], [2, 2, 60, 60], [1, 3, 60, 60],
        [2, 3, 120, 120], [3, 2, 100, 100], [3, 3, 200, 200], [1, 4, 105, 105],
        [2, 4, 210, 210], [3, 4, 350, 350], [4, 4, 525, 525]],
    ("thooft4", "fp:32003"): [
        [1, 1, 16, 10], [1, 2, 40, 34], [2, 1, 40, 40], [2, 2, 100, 100], [1, 3, 80, 76],
        [2, 3, 200, 200], [3, 2, 200, 200], [3, 3, 400, 400], [1, 4, 140, 140],
        [2, 4, 350, 350], [3, 4, 700, 700], [4, 4, 1225, 1225]],
    ("degsum3", "fp:32003"): [
        [1, 1, 12, 10], [1, 2, 30, 28], [2, 1, 24, 22], [2, 2, 60, 58], [1, 3, 60, 58],
        [2, 3, 120, 118], [3, 2, 100, 98], [3, 3, 200, 198], [1, 4, 105, 103],
        [2, 4, 210, 208], [3, 4, 350, 348], [4, 4, 525, 523]],
    ("degsum4", "fp:32003"): [
        [1, 1, 16, 14], [1, 2, 40, 38], [2, 1, 40, 38], [2, 2, 100, 98], [1, 3, 80, 78],
        [2, 3, 200, 198], [3, 2, 200, 198], [3, 3, 400, 398], [1, 4, 140, 138],
        [2, 4, 350, 348], [3, 4, 700, 698], [4, 4, 1225, 1223]],
    ("thooft2", "fp:7"): [
        [1, 1, 8, 6], [1, 2, 20, 20], [2, 1, 12, 12], [2, 2, 30, 30], [1, 3, 40, 40],
        [2, 3, 60, 60], [3, 2, 40, 40], [3, 3, 80, 80], [1, 4, 70, 70], [2, 4, 105, 105],
        [3, 4, 140, 140], [4, 4, 175, 175]],
    ("thooft3", "fp:7"): [
        [1, 1, 12, 8], [1, 2, 30, 27], [2, 1, 24, 24], [2, 2, 60, 60], [1, 3, 60, 60],
        [2, 3, 120, 120], [3, 2, 100, 100], [3, 3, 200, 200], [1, 4, 105, 105],
        [2, 4, 210, 210], [3, 4, 350, 350], [4, 4, 525, 525]],
    ("thooft4", "fp:7"): [
        [1, 1, 16, 10], [1, 2, 40, 34], [2, 1, 40, 40], [2, 2, 100, 100], [1, 3, 80, 76],
        [2, 3, 200, 200], [3, 2, 200, 200], [3, 3, 400, 400], [1, 4, 140, 140],
        [2, 4, 350, 350], [3, 4, 700, 700], [4, 4, 1225, 1225]],
    ("degsum3", "fp:7"): [
        [1, 1, 12, 10], [1, 2, 30, 28], [2, 1, 24, 22], [2, 2, 60, 58], [1, 3, 60, 58],
        [2, 3, 120, 118], [3, 2, 100, 98], [3, 3, 200, 198], [1, 4, 105, 103],
        [2, 4, 210, 208], [3, 4, 350, 348], [4, 4, 525, 523]],
    ("degsum4", "fp:7"): [
        [1, 1, 16, 14], [1, 2, 40, 38], [2, 1, 40, 38], [2, 2, 100, 98], [1, 3, 80, 78],
        [2, 3, 200, 198], [3, 2, 200, 198], [3, 3, 400, 398], [1, 4, 140, 138],
        [2, 4, 350, 348], [3, 4, 700, 698], [4, 4, 1225, 1223]],
    ("full2", "rational"): [
        [1, 1, 8, 8], [1, 2, 20, 20], [2, 1, 12, 12], [2, 2, 30, 30], [1, 3, 40, 40],
        [2, 3, 60, 60], [3, 2, 40, 40], [3, 3, 80, 80], [1, 4, 70, 70], [2, 4, 105, 105],
        [3, 4, 140, 140], [4, 4, 175, 175]],
    ("full3", "rational"): [
        [1, 1, 12, 12], [1, 2, 30, 30], [2, 1, 24, 24], [2, 2, 60, 60], [1, 3, 60, 60],
        [2, 3, 120, 120], [3, 2, 100, 100], [3, 3, 200, 200], [1, 4, 105, 105],
        [2, 4, 210, 210], [3, 4, 350, 350], [4, 4, 525, 525]],
    ("degenerate_rank6", "rational"): [
        [1, 1, 8, 6], [1, 2, 20, 18], [2, 1, 12, 10], [2, 2, 30, 28], [1, 3, 40, 38],
        [2, 3, 60, 58], [3, 2, 40, 38], [3, 3, 80, 78], [1, 4, 70, 68], [2, 4, 105, 103],
        [3, 4, 140, 138], [4, 4, 175, 173]],
    ("thooft3", "rational"): [
        [1, 1, 12, 8], [1, 2, 30, 27], [2, 1, 24, 24], [2, 2, 60, 60], [1, 3, 60, 60],
        [2, 3, 120, 120], [3, 2, 100, 100], [3, 3, 200, 200], [1, 4, 105, 105],
        [2, 4, 210, 210], [3, 4, 350, 350], [4, 4, 525, 525]],
}


@pytest.mark.parametrize("name,spec", list(PIECE_RANKS))
def test_pieces_are_pinned(name, spec):
    cert = SpanningCertifier(_piece_case(name, spec))
    for d, e in DEFAULT_SCHEDULE:
        cert.piece(d, e)
    assert cert.built == PIECE_RANKS[name, spec]


def _outcome(v):
    return v.status, v.certified_degrees, v.witness_h, v.witness_v, v.witness_field


def _oracle_schedule(n: int) -> tuple[tuple[int, int], ...]:
    # the default schedule through (3, 2), then one piece of 420 or 560
    # columns, so that the pieces after the scan are exercised too
    return DEFAULT_SCHEDULE[:6] + ({2: (4, 6), 3: (5, 3), 4: (2, 5), 5: (1, 6)}[n],)


@st.composite
def _block_sums(draw, fld):
    """degenerate_rank6 (+) a full-rank tensor: degenerate at a basis point."""
    k = draw(st.integers(1, 3))
    return block_sum(degenerate_rank6(fld), sample_full(k, fld, draw(st.integers(0, 9))))


@pytest.mark.parametrize("spec,ext", ORACLE_FIELDS + LARGE_PRIMES)
@settings(max_examples=12)
@given(data=st.data())
def test_classify_matches_scan_first_oracle(spec, ext, data):
    fld = field_from_spec(spec)
    t = data.draw(st.one_of(_tensors(fld), _block_sums(fld)))
    budget = Budget(max_ext_degree=ext, point_cap=ORACLE_POINT_CAP, schedule=_oracle_schedule(t.n))
    assert _outcome(classify(t, budget)) == _outcome(classify_scan_first(t, budget))


def test_classify_matches_scan_first_oracle_on_frozen_tensors(F, Q, corank2_n2):
    # one case for each stage after the cheap pieces: the witnesses of the
    # scan-found cases lie in F_9 and beyond Q's small-height points; a
    # witness at (1, 3, 5) lies beyond 200 scanned points; corank2_n2 (rank
    # 6) first closes at (4, 6), a piece of 420 columns
    hidden = _vanishing_at(F, 3, [1, 3, 5], [1, 2, 0, 4], [1, 2])
    cases = (
        (_conjugate_pair_f3(), Budget(max_ext_degree=2, point_cap=10**6), "scan"),
        (beyond_small_height_q(), Budget(), "scan"),
        (hidden, Budget(point_cap=ORACLE_POINT_CAP, schedule=_oracle_schedule(3)), "none"),
        (corank2_n2, Budget(point_cap=ORACLE_POINT_CAP, schedule=((1, 1), (4, 6))), "pieces"),
    )
    for t, budget, stage in cases:
        v = classify(t, budget)
        assert v.searched["stage"] == stage
        assert _outcome(v) == _outcome(classify_scan_first(t, budget))


def test_searched_records_work_done(F, Q, chain52):
    # a (5,2) chain: four basis points, then the cheap pieces close at (2, 1)
    v = classify(chain52)
    assert v.certified_degrees == (2, 1)
    assert v.searched["stage"] == "cheap-pieces"
    assert v.searched["points"] == {"fp:32003": 4}
    assert [p[:2] for p in v.searched["pieces"]] == [[1, 1], [1, 2], [2, 1]]
    assert v.searched["pieces"][-1][2:] == [num_monomials(5, 2) * 4] * 2
    # the witness of degenerate_rank6 is a basis point
    v = classify(degenerate_rank6(F))
    assert v.searched["stage"] == "basis-points"
    assert v.searched["points"] == {"fp:32003": 1} and v.searched["pieces"] == []
    # over Q the lifted scan mod 311 begins after the basis points, which the
    # scan over Q has covered, so at the basis-point stage it scans nothing
    v = classify(thooft_tensor(3, Q))
    assert v.searched["stage"] == "cheap-pieces" and v.searched["points"] == {"rational": 3}
    # an unknown verdict says how far each piece got and how many points the
    # scan visited in each field
    t = _conjugate_pair_f3()
    v = classify(t, Budget(max_ext_degree=1, point_cap=30, schedule=((1, 1),)))
    assert v.status == "unknown" and v.searched["stage"] == "none"
    assert v.searched["points"] == {"fp:3": 4}  # all of P^1(F_3)
    assert v.searched["pieces"] == [[1, 1, 8, 6]]
    v = classify(t, Budget(max_ext_degree=2, point_cap=30, schedule=((1, 1),)))
    assert v.is_degenerate and v.searched["stage"] == "scan"
    assert v.searched["points"]["fp:3"] == 4 and v.searched["points"]["fp:3^2"] >= 1


@pytest.mark.parametrize("spec", [spec for spec, _ext in LARGE_PRIMES])
def test_classify_scans_the_base_field_above_the_cap(spec):
    # a prime field larger than FIELD_SIZE_CAP is scanned too: the witness of
    # degenerate_rank6 is its first basis point, and a 't Hooft tensor scans
    # its three basis points before the cheap pieces close
    fld = field_from_spec(spec)
    v = classify(degenerate_rank6(fld))
    assert v.is_degenerate and v.witness_field == spec
    assert v.searched["stage"] == "basis-points" and v.searched["points"] == {spec: 1}
    v = classify(thooft_tensor(3, fld))
    assert v.status == "certified-nondegenerate"
    assert v.searched["stage"] == "cheap-pieces" and v.searched["points"] == {spec: 3}


def test_nondeg_keeps_storage_private():
    # linalg alone knows how a field is stored: every other module of the
    # package works through Mat's methods and Pattern, imports no private
    # name of linalg, and imports no numpy
    package = Path(instantons.nondeg.__file__).parent
    modules = sorted(p for p in package.glob("*.py") if p.stem != "linalg")
    assert {"nondeg", "monads", "tensors", "families"} <= {p.stem for p in modules}
    for path in modules:
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [(node.module or "").split(".")[0]]
                if node.module == "linalg" or (node.module or "").endswith(".linalg"):
                    assert not any(a.name.startswith("_") for a in node.names), path.stem
            else:
                continue
            assert "numpy" not in names, path.stem


# SHA-256 digests (first 16 hex digits) of the points Mat.projective_points
# builds from index 0, for caps 1, dim, dim + 1 and 200, recorded from the chart
# recursion the enumerator replaced: the order is pinned point for point
POINT_ORDER_DIGESTS = {
    ("rational", 1): "0889a34434e586e9 0889a34434e586e9 0889a34434e586e9 0889a34434e586e9",
    ("rational", 2): "35df8f7285481b9f 39528abdffb9dc0d de9a1c4130a022bf 021b1e253fb18d1c",
    ("rational", 3): "64c1be297dc90445 16ed82919e9b1f40 360720346b150ecb 77b1405da66683a4",
    ("rational", 4): "f22d743d01c2fc3f 08123cad9829f74a 001b41fc065afa3d f13dc9a0a0712685",
    ("rational", 5): "7dccfb403c6bb481 8fbda902184a7479 9cd0f18b3fb9e91c 81b66addb87f8537",
    ("fp:2", 1): "0889a34434e586e9 0889a34434e586e9 0889a34434e586e9 0889a34434e586e9",
    ("fp:2", 2): "35df8f7285481b9f 39528abdffb9dc0d de9a1c4130a022bf de9a1c4130a022bf",
    ("fp:2", 3): "64c1be297dc90445 16ed82919e9b1f40 360720346b150ecb 114b0dc56577386e",
    ("fp:2", 4): "f22d743d01c2fc3f 08123cad9829f74a 001b41fc065afa3d 0b8c7b19676b55e6",
    ("fp:2", 5): "7dccfb403c6bb481 8fbda902184a7479 9cd0f18b3fb9e91c 2a25236339e0063c",
    ("fp:7", 1): "0889a34434e586e9 0889a34434e586e9 0889a34434e586e9 0889a34434e586e9",
    ("fp:7", 2): "35df8f7285481b9f 39528abdffb9dc0d de9a1c4130a022bf b842eab855877404",
    ("fp:7", 3): "64c1be297dc90445 16ed82919e9b1f40 360720346b150ecb 74bff75fc5d6ae84",
    ("fp:7", 4): "f22d743d01c2fc3f 08123cad9829f74a 001b41fc065afa3d 41d616e78429eed9",
    ("fp:7", 5): "7dccfb403c6bb481 8fbda902184a7479 9cd0f18b3fb9e91c 2a8827bce6127958",
    ("fp:3^2", 1): "35df8f7285481b9f 35df8f7285481b9f 35df8f7285481b9f 35df8f7285481b9f",
    ("fp:3^2", 2): "f22d743d01c2fc3f e8391eac34edb52e e0ac224cbd38c14e 146880c06a312955",
    ("fp:3^2", 3): "82dc17518e1f8d5d 841d7636ff4691eb 520f868e83a8d6ff 2777b7c3a742ba78",
    ("fp:3^2", 4): "a8b2ef1bda6a85d3 3186416429f5a0a5 c35d5c3af8436cd7 68a1dc3a7126c9d9",
    ("fp:3^2", 5): "e387951af9029822 4ad1b3cdc4e8955e 2f62e8068d2cf653 26f3df132f6172e6",
    ("fp:2^3", 1): "64c1be297dc90445 64c1be297dc90445 64c1be297dc90445 64c1be297dc90445",
    ("fp:2^3", 2): "82dc17518e1f8d5d 407f2259537c5d58 4bd14625c8c47ec1 09f5af02d5faa34d",
    ("fp:2^3", 3): "9fee45bafa481fc8 6cfbffe50c3c44e2 19460d78a80355ca 8059a1494b171067",
    ("fp:2^3", 4): "2b697e872af2e987 cd53aabba3ae1f84 cd0d209540331c10 ca5807fcde2c935d",
    ("fp:2^3", 5): "8139cb7505eba115 a037104f67bf789e ad98b967a079636d 2ae253e41861b096",
    ("fp:32003", 1): "0889a34434e586e9 0889a34434e586e9 0889a34434e586e9 0889a34434e586e9",
    ("fp:32003", 2): "35df8f7285481b9f 39528abdffb9dc0d de9a1c4130a022bf fcc3a226e3ded46a",
    ("fp:32003", 3): "64c1be297dc90445 16ed82919e9b1f40 360720346b150ecb d077ce2e9dfc1f62",
    ("fp:32003", 4): "f22d743d01c2fc3f 08123cad9829f74a 001b41fc065afa3d 298ae9d1fe027937",
    ("fp:32003", 5): "7dccfb403c6bb481 8fbda902184a7479 9cd0f18b3fb9e91c 9fefad081e7b8cce",
}


def _points_digest(fld, dim: int, cap: int) -> str:
    h = hashlib.sha256()
    for v in Mat.projective_points(fld, dim, 0, cap).rows():
        h.update((",".join(fld.to_str(x) for x in v) + ";").encode())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("spec,dim", sorted(POINT_ORDER_DIGESTS))
def test_projective_points_order_is_pinned(spec, dim):
    fld = field_from_spec(spec)
    got = " ".join(_points_digest(fld, dim, cap) for cap in (1, dim, dim + 1, 200))
    assert got == POINT_ORDER_DIGESTS[spec, dim]


def test_projective_points_list_a_prefix_of_the_field(monkeypatch):
    # an extension field's elements are listed only as far as the largest
    # digit of the points asked for: at most its zero for the basis points
    fld = field_from_spec("fp:7^2")
    listed = []

    def elements():
        for x in ExtensionField(7, 2).elements():
            listed.append(x)
            yield x

    monkeypatch.setattr(fld, "elements", elements)
    one, zero = fld.one(), fld.zero()
    basis = Mat.projective_points(fld, 3, 0, 3).rows()
    assert basis == [[one if i == j else zero for j in range(3)] for i in range(3)]
    assert len(listed) <= 1
    listed.clear()
    assert Mat.projective_points(fld, 3, 3, 5).rows() == [[one, zero, (1, 0)], [one, zero, (2, 0)]]
    assert len(listed) == 3


@pytest.mark.parametrize("spec,dim", [("fp:7", 1), ("fp:7", 2), ("fp:7", 3), ("fp:7", 4),
                                      ("fp:7^2", 2), ("rational", 3), ("fp:2", 4),
                                      ("fp:3^2", 3), ("fp:32003", 2), ("rational", 4)])
def test_projective_points_match_the_filtering_enumerator(spec, dim):
    # ranges that start and stop on either side of the boundaries of the
    # basis and of each chart: chart lead begins at index
    # dim + sum over l < lead of (|vals|^(dim - 1 - l) - 1)
    fld = field_from_spec(spec)
    nvals = 5 if fld.kind == "rational" else fld.order
    edges = [0, dim]
    for lead in range(dim):
        edges.append(edges[-1] + nvals ** (dim - 1 - lead) - 1)
    cuts = sorted({max(0, e + d) for e in edges for d in (-2, 0, 1) if e + d < 40_000})
    for start in cuts:
        for stop in [c for c in cuts if c >= start][:4]:
            expected = list(islice(projective_points_by_filter(fld, dim, stop), start, None))
            assert Mat.projective_points(fld, dim, start, stop).rows() == expected


def test_projective_points_over_a_large_prime():
    # a prime above the int64 limit: the digits are the residues themselves,
    # and no element is listed
    fld = field_from_spec("fp:18446744073709551557")
    assert Mat.projective_points(fld, 3, 1, 6).rows() == [
        [0, 1, 0], [0, 0, 1], [1, 0, 1], [1, 0, 2], [1, 0, 3]]


@pytest.mark.parametrize("spec,dim", [("fp:2", 4), ("fp:7", 1), ("fp:7", 3), ("fp:7^2", 3),
                                      ("fp:11", 4), ("rational", 4), ("fp:32003", 3),
                                      ("fp:1000000007", 2)])
def test_projective_runs_cut_the_enumeration_into_lines(spec, dim):
    # the runs cover the points in order, the basis vectors first; past
    # them a run's points differ only in the last coordinate, and the next
    # run's first point elsewhere too; a run not cut by the cap has its
    # size; a range cut anywhere gives the runs meeting it, cut to it, each
    # with the size of the whole run
    fld = field_from_spec(spec)
    cap = 500
    points = Mat.projective_points(fld, dim, 0, cap).rows()
    runs = list(Mat.projective_runs(fld, dim, 0, cap))
    assert [lo for lo, _, _ in runs] == [0] + [hi for _, hi, _ in runs[:-1]]
    assert runs[0] == (0, dim, dim) and runs[-1][1] == len(points)
    heads = [{tuple(p[:-1]) for p in points[lo:hi]} for lo, hi, _ in runs[1:]]
    assert all(len(h) == 1 for h in heads) and len(set.union(set(), *heads)) == len(heads)
    assert all(hi - lo == size for lo, hi, size in runs[:-1])
    for start in range(0, len(points) + 2, 23):
        for stop in (start, start + 1, start + 9, cap):
            assert list(Mat.projective_runs(fld, dim, start, stop)) == [
                (max(lo, start), min(hi, stop), size) for lo, hi, size in runs
                if max(lo, start) < min(hi, stop)]


@pytest.mark.parametrize("spec", ["fp:2", "fp:7", "fp:32003", "fp:7^2", "fp:2^3", "rational"])
def test_chart_values_start_with_zero(spec):
    # Mat.projective_points skips each chart's first tail as the zero one:
    # a finite field lists zero first, and over Q every point of the charts
    # on 0, +-1, +-2 comes out once, none of them a repeated basis vector
    fld = field_from_spec(spec)
    if fld.kind != "rational":
        assert fld.is_zero(next(iter(fld.elements())))
    nvals = 5 if fld.kind == "rational" else fld.order
    for dim in [d for d in (1, 2, 3) if nvals ** d < 10 ** 6]:
        points = [tuple(v) for v in Mat.projective_points(fld, dim, 0, 10 ** 6).rows()]
        assert len(points) == len(set(points)) == (nvals ** dim - 1) // (nvals - 1)


if __name__ == "__main__":
    for spec, dim in sorted(POINT_ORDER_DIGESTS):
        fld = field_from_spec(spec)
        print(f'    ("{spec}", {dim}): "'
              + " ".join(_points_digest(fld, dim, cap) for cap in (1, dim, dim + 1, 200)) + '",')
