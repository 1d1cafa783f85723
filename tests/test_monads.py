import json
import math
import random

import oracles
import pytest
from hypothesis import example, given, reject, settings, strategies as st

from instantons import linalg, monads
from instantons.bases import WEDGE_INDEX, euler_chi, sym_index_map
from instantons.families import (
    extend_affine,
    nc_tensor,
    random_tensor,
    sample_full,
    sample_instanton,
    thooft_tensor,
)
from instantons.fields import field_from_spec
from instantons.linalg import Mat, Stream, Subspace
from instantons.nondeg import classify
from instantons.monads import (
    Monad,
    MonadError,
    build_monad,
    coh_table,
    restricted_monad,
    s2_cohomology,
    sigma_kernel_dim,
    tangent_dim,
)
from instantons.tensors import OmegaTensor, block_sum, tensor_from_obj, tensor_to_obj


def test_build_monad_nc(F):
    t = nc_tensor(F)
    m = build_monad(t)
    assert m.m == 4 and m.r == 2
    assert t.image() == Subspace.from_spanning(Mat.identity(F, 4))
    assert (m.phi + m.phi.transpose()).is_zero()


def test_build_monad_self_certifies(F, full36, chain52):
    for t in (full36, chain52):
        m = build_monad(t)
        # u o phi o u* is re-checked in the constructor; here the dimensions
        assert m.m == t.rank()
        assert m.left_defect() == 0


def test_build_monad_rejects_bad_rank(F):
    with pytest.raises(MonadError):
        build_monad(oracles.zero_tensor(2, F))
    with pytest.raises(MonadError):
        build_monad(block_sum(nc_tensor(F), oracles.zero_tensor(1, F)))  # rank 4 = 2n


def test_quick_degeneracy_scan(F):
    t = block_sum(nc_tensor(F), nc_tensor(F))
    t_deg = block_sum(t, oracles.zero_tensor(1, F))  # rank 8 = 2n+2 for n=3, but degenerate
    with pytest.raises(MonadError, match=r"witness at basis pair \(2, 0\)"):
        monads.gated_display(t_deg)
    assert build_monad(t_deg).m == 8
    # the display passes the gate where no basis pair is a witness; the rank
    # check comes first, so a zero tensor is refused for its rank
    assert monads.gated_display(t) is build_monad(t)
    with pytest.raises(MonadError, match="admissible range"):
        monads.gated_display(oracles.zero_tensor(2, F))


def test_h_values_fixed_rows(F, chain52, full36):
    for t, n, r in ((nc_tensor(F), 1, 2), (chain52, 5, 2), (full36, 3, 6)):
        m = build_monad(t)
        assert m.h_values(-1) == (0, n)
        assert m.h_values(-2) == (0, 0)
        assert m.h_values(0)[0] == 0
    # full-rank displays have no middle cohomology in non-negative twists
    m = build_monad(full36)
    for d in (0, 1, 2):
        assert m.h_values(d)[1] == 0


def test_h_values_window_error(F):
    m = build_monad(nc_tensor(F))
    with pytest.raises(MonadError):
        m.h_values(-3)


def test_full_rank_sections_against_binomial_oracle(F):
    # for a full-rank tensor the display presents E as the cokernel of
    # n O(-1) -> n Omega^1(2) twisted down, so h0 E(d) follows from Koszul
    # line-bundle counts alone: h0 Omega^1(e) = 4 C(e+2,3) - C(e+3,3)
    from math import comb

    def h0_omega1(e):
        return max(0, 4 * comb(e + 2, 3) - comb(e + 3, 3))

    for n, seed in ((2, 11), (3, 12)):
        t = sample_full(n, F, ("oracle", seed))
        m = build_monad(t)
        for d in (0, 1, 2):
            expected = n * h0_omega1(d + 1) - n * comb(d + 2, 3)
            assert m.h_values(d) == (expected, 0)


def test_euler_identity(F, chain52, corank2_n2):
    # dim N and dim Q = 4n - dim N are the certificate's
    for t in (nc_tensor(F), chain52, corank2_n2):
        rows = coh_table(t, 3)
        m = build_monad(t)
        for d, h0, h1 in rows:
            assert h0 - h1 == euler_chi(m.nH, m.r, d)
        dim_q = 4 * m.nH - m.m
        assert m.m == 2 * m.nH + m.r
        assert dim_q == 2 * m.nH - m.r
        assert {d: h1 for d, _h0, h1 in rows}[0] == dim_q


def test_s2_values(F, chain52, corank2_n2):
    assert s2_cohomology(build_monad(nc_tensor(F))) == (0, 5, 0)
    s2 = s2_cohomology(build_monad(chain52))
    assert s2 == (0, 37, 0)
    s2b = s2_cohomology(build_monad(corank2_n2))
    assert s2b[0] == 0  # rank-2 displays are simple
    assert s2b[1] - s2b[2] == 8 * 2 - 3


def test_s2_riemann_roch_across_n(F):
    # h1 - h2 of S^2 E equals 8n - 3 for rank-2 samples of every reachable n
    for n in (3, 4):
        t = sample_instanton(n, 2, F, ("rr", n))
        h0, h1, h2 = s2_cohomology(build_monad(t))
        assert h0 == 0
        assert h1 - h2 == 8 * n - 3


def test_sigma_gamma_cross_checks(F, chain52, corank2_n3, full36):
    for t in (nc_tensor(F), chain52, corank2_n3, full36):
        m = build_monad(t)
        assert sigma_kernel_dim(t) == s2_cohomology(m)[2]
        assert oracles.gamma_kernel_dim_by_slots(m) == m.h_values(1)[1]


def test_sigma_kernel_corank2(F, corank2_n2, corank2_n3):
    assert sigma_kernel_dim(corank2_n2) == 0
    assert sigma_kernel_dim(corank2_n3) == 0


def test_restricted_monad_matches_direct_build(F, chain52):
    xi = [F.of_int(1), F.of_int(3), F.of_int(5), F.of_int(7), F.of_int(11)]
    bar = restricted_monad(chain52, xi)
    direct = build_monad(chain52.restrict_xi(xi))
    assert chain52.restrict_xi(xi).rank() == chain52.rank()
    for d in (-1, 0, 1, 2):
        assert bar.h_values(d) == direct.h_values(d)
    assert s2_cohomology(bar) == s2_cohomology(direct)
    assert bar.h_values(1)[1] == direct.h_values(1)[1]


def test_restricted_monad_rank_drop(F):
    t = block_sum(nc_tensor(F), nc_tensor(F, [1, 1, 0, 0, 0, 1]))
    bar = restricted_monad(t, [1, 0])
    assert t.restrict_xi([1, 0]).rank() == 4 < t.rank()
    assert bar.h_values(0)[0] == 4  # kernel of N -> H-bar* (x) V*
    with pytest.raises(ValueError):
        restricted_monad(t, [0, 0])


def test_tangent_dims(F, corank2_n2, full36):
    # full rank: the kernel is zero, so the whole ambient is tangent
    assert tangent_dim(full36) == 36
    assert tangent_dim(corank2_n2) == 17
    alpha = Mat.from_rows(F, [Stream("tan", i).next_vector(F, 6) for i in range(3)], 6)
    e44 = extend_affine(full36, alpha)
    assert tangent_dim(e44) == 54


def test_gamma_kernel_nc_tensor(F):
    assert build_monad(nc_tensor(F)).h_values(1)[1] == 0


def test_display_is_built_once_per_tensor(F, chain52, monkeypatch):
    # every function of a tensor that needs its display reads the one kept
    # on the tensor; a tensor read back from its file format starts without one
    from instantons import linalg, monads
    from instantons.families import fiber_solution_space
    from instantons.geometry import k_intersection_dim, line_invariants, line_through

    t = tensor_from_obj(tensor_to_obj(chain52))
    builds = []
    build = monads._monad_from_image

    def counting(omega, N):
        builds.append(omega)
        return build(omega, N)

    monkeypatch.setattr(monads, "_monad_from_image", counting)
    line = line_through(F, [1, 0, 0, 0], [0, 1, 0, 0])
    coh_table(t)
    sigma_kernel_dim(t)
    line_invariants(t, [line])
    k_intersection_dim(t, Mat.identity(F, 5))
    fiber_solution_space(t)
    first = build_monad(t)
    assert build_monad(t) is first
    assert builds == [t]
    # a rank error is raised on every call, and nothing is kept
    zero = oracles.zero_tensor(2, F)
    for _ in range(2):
        with pytest.raises(MonadError):
            build_monad(zero)
    assert builds == [t]


def _planted_witness(n: int, f, seed) -> OmegaTensor:
    """A random tensor whose flattening kills e_0 (x) e_0: degenerate at that
    one point, where alpha is onto at no twist (h1 E(d) = 1 for d >= 1)."""
    rows = random_tensor(n, f, Stream("planted", n, seed)).coeffs.rows()
    for b in range(n):
        for l in (1, 2, 3):
            rows[sym_index_map(n)[0, b]][WEDGE_INDEX[0, l]] = f.zero()
    return OmegaTensor(n, f, Mat.from_rows(f, rows, 6))


@given(spec=st.sampled_from(["fp:7", "fp:32003", "rational"]), n=st.integers(1, 5),
       r_half=st.integers(1, 5), dmax=st.integers(-2, 5), seed=st.integers(0, 99),
       kind=st.sampled_from(["table", "restricted", "degenerate", "defect", "shuffled"]),
       xi=st.lists(st.integers(-3, 3), min_size=5, max_size=5))
@example(spec="fp:7", n=1, r_half=1, dmax=5, seed=0, kind="restricted", xi=[1, 0, 0, 0, 0])
@example(spec="rational", n=1, r_half=1, dmax=5, seed=0, kind="restricted", xi=[2, 0, 0, 0, 0])
@example(spec="fp:32003", n=3, r_half=3, dmax=5, seed=0, kind="table", xi=[0, 0, 0, 0, 0])
@example(spec="rational", n=2, r_half=2, dmax=5, seed=0, kind="restricted", xi=[1, 0, 0, 0, 0])
@example(spec="fp:7", n=4, r_half=1, dmax=5, seed=0, kind="defect", xi=[0, 0, 0, 0, 0])
@settings(max_examples=40)
def test_coh_table_matches_every_twist_oracle(spec, n, r_half, dmax, seed, kind, xi):
    # alpha is ranked only up to the first twist d0 >= 0 where it is onto,
    # and beta(d) only below d0 and at twist 1; the rows equal those with
    # alpha and beta ranked at every twist: on coh tables of sampled tensors
    # (at r = 2n alpha(0) is square and onto, so d0 = 0), on displays
    # restricted to a hyperplane (nH = 0 at n = 1; at r = 2n the restriction
    # drops the rank, and h0 at twist 0 is positive), on degenerate displays,
    # whose alpha is never onto, and on displays whose ranks are kept in a
    # shuffled order of twists, with left_defect and a restricted display's
    # ranks taken in between; and on displays whose beta kills a summand of
    # H at every twist d >= 1 (a zero block in a block sum)
    f = field_from_spec(spec)
    if spec == "rational" and n == 5:
        reject()  # n = 5 is drawn over fp only: exact elimination over Q is slow there
    if kind == "degenerate":
        omega = _planted_witness(max(n, 2), f, seed)
    elif kind == "defect":
        omega = block_sum(sample_full(max(n, 3) - 1, f, seed), oracles.zero_tensor(1, f))
    elif spec == "rational":
        # rational mode samples r = 2n only; the thooft tensors have r = 2
        omega = thooft_tensor(n, f) if 1 < n and r_half < n else sample_full(n, f, seed)
    else:
        try:
            omega = sample_instanton(n, 2 * min(r_half, n), f, seed)
        except ValueError:
            reject()  # corank-2 sampling over fp:7 needs 4n < 7
    m = build_monad(omega)
    if kind == "table":
        rows = coh_table(omega, dmax)
    elif kind == "shuffled":
        twists = list(range(-2, dmax + 1))
        random.Random(seed).shuffle(twists)
        xi = [f.of_int(x) for x in xi[:omega.n]]
        bar = restricted_monad(omega, xi if any(xi) else [f.one()] + xi[1:])
        got, got_bar = {}, {}
        for d in twists:
            got[d] = m.h_values(d)
            beta1 = m.beta(1)
            assert m.left_defect() == beta1.ncols - beta1.rank()
            got_bar[dmax - 2 - d] = bar.h_values(dmax - 2 - d)
        rows = [(d, *got[d]) for d in sorted(got)]
        assert [(d, *got_bar[d]) for d in sorted(got_bar)] == oracles.coh_rows_every_twist(bar, dmax)
    else:
        if kind == "restricted":
            xi = [f.of_int(x) for x in xi[:omega.n]]
            m = restricted_monad(omega, xi if any(xi) else [f.one()] + xi[1:])
        rows = [(d, *m.h_values(d)) for d in range(-2, dmax + 1)]
    assert rows == oracles.coh_rows_every_twist(m, dmax)


def test_beta_is_gathered_only_below_the_onto_twist_and_at_one(monkeypatch):
    # alpha of the (5,2) display is first onto at twist 2, so from there on
    # beta(d) has rank its column count; a degenerate display's alpha is
    # onto at no twist, so its beta is gathered at every twist.  The sample
    # is read back through the file format, with no display kept
    f, gathered, beta = field_from_spec("fp:32003"), [], monads.Monad.beta
    t = tensor_from_obj(tensor_to_obj(sample_instanton(5, 2, f, 0)))
    planted = _planted_witness(2, f, 0)
    monkeypatch.setattr(monads.Monad, "beta", lambda self, d: gathered.append(d) or beta(self, d))
    coh_table(t, 6)
    assert gathered == [-2, -1, 0, 1]
    gathered.clear()
    m = build_monad(planted)
    for d in range(-2, 7):
        m.h_values(d)
    assert gathered == list(range(-2, 7))


def _coupled(n: int, f, seed) -> OmegaTensor:
    """A tensor over H = <e_0> + H-bar, n >= 2, whose forms on H-bar (the
    pairs i, j >= 1) are those of a 't Hooft tensor of n - 1 (zero at
    n = 2) and whose others are random.  Restricted to xi = e_0* its rank
    drops, and the forms coupled to e_0 make umat of that restricted display
    span more than the restricted tensor's flattening."""
    rows = random_tensor(n, f, Stream("coupled", n, seed)).coeffs.rows()
    low = thooft_tensor(n - 1, f, seed).coeffs.rows() if n > 2 else [[f.zero()] * 6]
    for (i, j), r in sym_index_map(n - 1).items():
        rows[sym_index_map(n)[i + 1, j + 1]] = low[r]
    return OmegaTensor(n, f, Mat.from_rows(f, rows, 6))


@given(spec=st.sampled_from(["fp:7", "fp:32003", "fp:3^2", "rational"]), n=st.integers(1, 5),
       kind=st.sampled_from(["plain", "restricted", "dropping", "degenerate"]),
       seed=st.integers(0, 99), xi=st.lists(st.integers(-3, 3), min_size=5, max_size=5))
@example(spec="fp:3^2", n=2, kind="restricted", seed=1, xi=[1, 2, 0, 0, 0])
@example(spec="rational", n=5, kind="restricted", seed=0, xi=[1, 2, 3, 5, 7])
@example(spec="fp:7", n=1, kind="restricted", seed=0, xi=[1, 0, 0, 0, 0])
@example(spec="fp:32003", n=4, kind="dropping", seed=0, xi=[0, 0, 0, 0, 0])
@example(spec="fp:3^2", n=3, kind="degenerate", seed=0, xi=[0, 0, 0, 0, 0])
@settings(max_examples=30)
def test_h_values_are_the_ranks_of_the_gathered_maps(spec, n, kind, seed, xi):
    # h_values reads rank alpha(d) off the inverse system A(1, d + 1) of the
    # display's umat and never gathers alpha; the oracle gathers alpha(d) and
    # beta(d) at every twist and ranks them.  On plain displays of 't Hooft
    # tensors (r = 2, so alpha(0) and alpha(1) are not onto); on displays
    # restricted to a random hyperplane, of a 't Hooft tensor (which mostly
    # keeps its rank) or, at odd seeds, of a full-rank one (no hyperplane
    # keeps rank 4n, so h0 at twist 0 is positive); on a display restricted
    # to a hyperplane that drops the rank of a _coupled tensor, where umat
    # and the restricted flattening span different forms; and on
    # planted-witness displays, whose alpha is onto at no twist.  fp:3^2
    # eliminates Python elements, so there the tensors of rank above 2n + 2
    # stop at n = 3.  classify's pieces share the inverse systems kept on
    # the tensor, and its searched record is the same whether the table ran
    # first or classify ran before
    f = field_from_spec(spec)
    n = min(n, 3) if spec == "fp:3^2" and kind != "plain" else n
    if kind == "degenerate":
        omega = _planted_witness(max(n, 2), f, seed)
    elif kind == "dropping":
        omega = _coupled(max(n, 2), f, seed)
        xi = [1]
    elif n == 1 or (kind == "restricted" and seed % 2):
        omega = sample_full(n, f, seed)
    else:
        omega = thooft_tensor(n, f, seed)
    fresh = [OmegaTensor(omega.n, f, omega.coeffs) for _ in range(2)]
    m = build_monad(fresh[0])
    if kind in ("restricted", "dropping"):
        xi = [f.of_int(x) for x in (xi + [0] * omega.n)[:omega.n]]
        xi = [f.one()] + xi[1:] if all(map(f.is_zero, xi)) else xi
        m = restricted_monad(fresh[0], xi)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Monad, "alpha", None)
        got = [(d, *m.h_values(d)) for d in range(-2, 7)]
    assert got == oracles.coh_rows_every_twist(m, 6)
    if kind == "dropping":
        assert got[2][1] > 0 and fresh[0].restrict_xi(xi).rank() < m.umat.rank()
    first = json.dumps(classify(fresh[1]).searched, sort_keys=True)
    coh_table(fresh[0], 6)
    assert json.dumps(classify(fresh[0]).searched, sort_keys=True) == first
    assert json.dumps(classify(fresh[0]).searched, sort_keys=True) == first


@pytest.mark.parametrize("spec", ["fp:7", "fp:32003", "rational"])
@given(n=st.integers(2, 4), seed=st.integers(0, 99), pick=st.integers(0, 10**6),
       delta=st.integers(1, 6), lift=st.integers(0, 2))
@settings(max_examples=10)
def test_s2_check_fails_on_a_perturbed_d0(spec, n, seed, pick, delta, lift):
    # the sparse check agrees with the dense product on the complex, and one
    # changed entry of d0 makes d1 @ d0 nonzero and s2_cohomology raise
    f = field_from_spec(spec)
    m = build_monad(sample_full(n, f, seed))
    assert oracles.s2_is_complex_dense(m)
    if spec == "rational":
        # over Q the check runs on residues of umat and wmat, so the change is
        # to one entry of wmat, which moves a column block of d0's H (x) H*
        # part, on a display built past Monad.__init__ (which derives wmat).
        # A change by delta times the first lift rank primes vanishes mod
        # those primes, and a later one has to catch it
        bad = Monad.__new__(Monad)
        for name in Monad.__slots__:
            setattr(bad, name, getattr(m, name))
        rows = m.wmat.rows()
        s, j = divmod(pick % (m.m * 4 * n), 4 * n)
        rows[s][j] += delta * math.prod(linalg._rank_prime(i).p for i in range(lift))
        bad.wmat, bad._s2 = Mat.from_rows(f, rows, 4 * n), None
        assert not oracles.s2_is_complex_dense(bad)
        pairs = zip(bad.wmat.scaled_residues()[1], m.wmat.scaled_residues()[1])
        assert [a == b for (a, b), _ in zip(pairs, range(lift + 1))] == [True] * lift + [False]
        with pytest.raises(AssertionError, match="not a complex"):
            s2_cohomology(bad)
        return
    # in a row k where column k of d1 is nonzero
    d0, d1 = monads._s2_maps(m.nH, m.umat, m.wmat)
    assert d1.annihilates(d0)
    live = [k for k in range(d1.ncols) if not d1.take_cols([k]).is_zero()]
    k, j = live[pick % len(live)], pick // len(live) % d0.ncols
    rows = d0.rows()
    rows[k][j] = f.add(rows[k][j], f.of_int(delta))
    bad = Mat.from_rows(f, rows, d0.ncols)
    assert not d1.annihilates(bad) and not (d1 @ bad).is_zero()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(monads, "_s2_maps", lambda nH, umat, wmat: (bad, d1))
        with pytest.raises(AssertionError, match="not a complex"):
            s2_cohomology(m)


@given(n=st.integers(1, 4), seed=st.integers(0, 99), bits=st.sampled_from([0, 1000]),
       restrict=st.booleans(), full=st.booleans())
@settings(max_examples=16)
def test_s2_residue_path_matches_fractions(n, seed, bits, restrict, full):
    # over Q the triple read from residues equals the one from d0 and d1
    # over Q, on a full-rank sample or a 't Hooft tensor (n >= 2), moved by
    # g in GL(H) with entries of up to bits bits (bits = 1000 gives heights
    # of thousands of bits, checked mod dozens of primes), and on its
    # display restricted to a hyperplane when n >= 2.  The maps are gathered
    # over Q only when h0 or h2 is nonzero
    q, rng = field_from_spec("rational"), random.Random(seed)
    t = sample_full(n, q, seed) if full or n == 1 else thooft_tensor(n, q, seed)
    if bits:
        g = Mat.identity(q, n) + Mat.from_rows(
            q, [[rng.getrandbits(bits) for _ in range(n)] for _ in range(n)], n)
        if g.rank() == n:
            t = t.conjugate(g)
    m = build_monad(t)
    if restrict and n >= 2:
        m = restricted_monad(t, [q.of_int(rng.randint(-2, 2)) for _ in range(n - 1)] + [q.one()])
    fields, s2_maps = [], monads._s2_maps
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(monads, "_s2_maps", lambda nH, u, w: fields.append(u.field) or s2_maps(nH, u, w))
        h0, h1, h2 = s2_cohomology(m)
    assert (h0, h1, h2) == oracles.s2_cohomology_by_fractions(m)
    assert (q in fields) == (h0 > 0 or h2 > 0)


def test_s2_rank_drop_ranks_over_q(monkeypatch):
    # a restricted display with h0 > 0: d0 is not injective mod the first
    # prime, so d0 and d1 are gathered again over Q and ranked there, with
    # no second check of the complex
    q = field_from_spec("rational")
    t = block_sum(nc_tensor(q), nc_tensor(q, [1, 1, 0, 0, 0, 1]))
    bar, fields, s2_maps = restricted_monad(t, [q.one(), q.zero()]), [], monads._s2_maps
    monkeypatch.setattr(monads, "_s2_maps",
                        lambda nH, u, w: fields.append(u.field) or s2_maps(nH, u, w))
    triple = s2_cohomology(bar)
    assert triple[0] > 0 and triple == oracles.s2_cohomology_by_fractions(bar)
    assert fields[:2] == [linalg._RANK_PRIME, q]


def _s2_display(spec: str, n: int, kind: str, seed: int) -> Monad:
    """A display of kind: the plain display of a 't Hooft tensor (a
    full-rank sample at n = 1) or of a full-rank sample (K is empty, m =
    4n), a (5,2) chain (n = 5), the sum of a tensor with itself (so
    h0(S^2 E) > 0; n even), or a 't Hooft display restricted to a hyperplane
    (n >= 2) or the restricted rank-drop sum of test_s2_rank_drop_ranks_over_q."""
    f = field_from_spec(spec)
    if kind == "sum":
        half = nc_tensor(f) if n == 2 else thooft_tensor(n // 2, f, seed)
        return build_monad(block_sum(half, half))
    if kind == "drop":
        t = block_sum(nc_tensor(f), nc_tensor(f, [f.one(), f.one()] + [f.zero()] * 3 + [f.one()]))
        return restricted_monad(t, [f.one(), f.zero()])
    if kind == "chain":
        return build_monad(sample_instanton(5, 2, f, seed))
    t = sample_full(n, f, seed) if kind == "full" or n == 1 else thooft_tensor(n, f, seed)
    if kind == "restricted":
        xi = Stream("s2-xi", seed).next_vector(f, n)
        return restricted_monad(t, [f.one()] + xi[1:] if all(map(f.is_zero, xi)) else xi)
    return build_monad(t)


@given(spec=st.sampled_from(["fp:32003", "fp:7", "fp:3^2", "rational"]), n=st.integers(1, 5),
       kind=st.sampled_from(["thooft", "full", "chain", "sum", "restricted", "drop"]),
       seed=st.integers(0, 99))
@example(spec="rational", n=2, kind="sum", seed=0)
@example(spec="fp:7", n=4, kind="sum", seed=0)
@example(spec="fp:32003", n=4, kind="sum", seed=0)
@example(spec="rational", n=2, kind="drop", seed=0)
@example(spec="fp:32003", n=5, kind="chain", seed=7)
@example(spec="rational", n=5, kind="thooft", seed=0)
@example(spec="fp:3^2", n=3, kind="thooft", seed=0)
@settings(max_examples=60)
def test_s2_quotient_rank_matches_the_full_d0_oracle(spec, n, kind, seed):
    # the triple ranks d0's H (x) H* part in the quotient by the injective
    # image of S^2 N (restricted displays: d0 whole); the oracle gathers d0
    # and d1 over the display's field and ranks them whole.  Plain displays
    # over four fields for n = 1..5 (fp:3^2, whose elimination runs on
    # Python elements, up to n = 3), the self-sums with h0(S^2 E) > 0, whose
    # residue ranks over Q fall back to Q, and restricted displays.  A chain
    # is drawn over the prime fields only: over Q its sampling takes seconds
    if spec == "fp:3^2":
        n = min(n, 3)
    if kind == "chain" and spec in ("fp:3^2", "rational"):
        kind = "thooft"
    n = {"sum": 2 + 2 * (n > 3), "drop": 2, "chain": 5, "restricted": max(n, 2)}.get(kind, n)
    m = _s2_display(spec, n, kind, seed)
    triple = s2_cohomology(m)
    assert triple == oracles.s2_cohomology_by_fractions(m)
    if kind in ("sum", "drop"):
        assert triple[0] > 0
    assert (m.pivots is None) == (kind in ("restricted", "drop"))
    d0 = monads._s2_maps(m.nH, m.umat, m.wmat)[0]
    assert monads._d0_rank(d0, m.umat, m.pivots) == oracles.d0_rank_whole(m)


@pytest.mark.parametrize("spec", ["fp:32003", "fp:3^2", "rational"])
@pytest.mark.parametrize("diagonal", [False, True])
def test_s2_quotient_refuses_umat_off_the_identity_at_the_pivots(spec, diagonal):
    # the quotient stands for d0 only while umat's rows at N's pivots J are
    # L I.  A display whose umat has one entry of such a row changed (on the
    # diagonal, or off it), its complex still the true display's so that its
    # check passes, raises an AssertionError naming that invariant; over Q
    # so does the residue of L umat mod the first rank prime, changed alike
    f = field_from_spec(spec)
    m = build_monad(thooft_tensor(3, f, 0))
    u, w = m.umat, m.wmat
    if spec == "rational":
        u, w = (next(x.scaled_residues()[1]) for x in (u, w))
    rows = u.rows()
    row, col = m.pivots[2], 2 if diagonal else 5
    rows[row][col] = u.field.add(rows[row][col], u.field.one())
    bad = Mat.from_rows(u.field, rows, m.m)
    d0 = monads._s2_maps(m.nH, u, w)[0]
    with pytest.raises(AssertionError, match="identity at the pivots of N"):
        monads._d0_rank(d0, bad, m.pivots)
    if spec == "rational":
        # a prime dividing L zeroes those rows of the residue: d0 is ranked whole
        zeroed = [[u.field.zero()] * m.m if i in m.pivots else r for i, r in enumerate(u.rows())]
        assert monads._d0_rank(d0, Mat.from_rows(u.field, zeroed, m.m), m.pivots) == d0.rank()
        return
    fake = Monad.__new__(Monad)
    for name in Monad.__slots__:
        setattr(fake, name, getattr(m, name))
    fake.umat, fake._s2 = bad, None
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(monads, "_s2_maps", lambda nH, umat, wmat, maps=monads._s2_maps: maps(
            nH, m.umat, m.wmat))
        with pytest.raises(AssertionError, match="identity at the pivots of N"):
            s2_cohomology(fake)
