import json

import oracles
import pytest

from instantons.certify import (
    SCHEMA_VERSION,
    find_xi,
    propagation_check,
    rank_preservation_checks,
    smoothness_certificate,
)
from instantons import linalg
from instantons.families import (
    degenerate_rank6,
    extend_fiber,
    fiber_dim_check,
    nc_tensor,
    sample_full,
    sample_instanton,
    thooft_tensor,
)
from instantons.fields import GF32003, QQ, PrimeField, field_from_spec
from instantons.linalg import Mat, Stream, sample_invertible
from instantons.tensors import OmegaTensor, block_sum, tensor_from_obj, tensor_to_obj


def test_checks_all_true_on_constructed_extension(F, full36):
    ext = extend_fiber(full36, seed=3)
    assert rank_preservation_checks(ext, [1, 0, 0, 0]) == (True, True, True, True)


def test_checks_all_false_on_block_drop(F):
    t = block_sum(nc_tensor(F), nc_tensor(F, [1, 1, 0, 0, 0, 1]))
    assert rank_preservation_checks(t, [1, 0]) == (False, False, False, False)
    with pytest.raises(ValueError):
        rank_preservation_checks(t, [0, 0])


def test_checks_agree_on_samples(F, chain52):
    st = Stream("rkl", 0)
    for _ in range(20):
        xi = st.next_vector(F, 5)
        if all(F.is_zero(x) for x in xi):
            continue
        checks = rank_preservation_checks(chain52, xi)
        assert len(set(checks)) == 1


def test_orbit_transport_of_checks(F, chain52):
    # if the checks pass at xi, they pass at the transported hyperplane for
    # the conjugated tensor
    st = Stream("orbit", 0)
    xi = [F.of_int(1), F.of_int(2), F.of_int(0), F.of_int(4), F.of_int(1)]
    base = rank_preservation_checks(chain52, xi)
    g = sample_invertible(5, F, st)
    conj = chain52.conjugate(g)
    xi_t = (Mat.from_rows(F, [xi], 5) @ g).row(0)  # xi o g
    assert rank_preservation_checks(conj, xi_t) == base


def test_generic_hyperplanes_mostly_preserve(F):
    t = sample_instanton(4, 2, F, 1)
    st = Stream("generic_xi", 0)
    preserved = 0
    for _ in range(100):
        xi = st.next_vector(F, 4)
        if all(F.is_zero(x) for x in xi):
            continue
        if t.restrict_xi(xi).rank() == t.rank():
            preserved += 1
    assert preserved >= 95


def test_find_xi_on_chain_and_net(F, chain52):
    xi, h1, trial, log = find_xi(chain52, seed=0)
    assert h1 <= 1
    assert all(h >= h1 for _t, h in log)
    xi5, h15, _t, _l = find_xi(thooft_tensor(5, F), seed=0)
    assert h15 == 0


def test_fiber_dim_examples(F, full36):
    two_nc = block_sum(nc_tensor(F), nc_tensor(F, [1, 2, 0, 0, 1, 1]))
    space, exp = fiber_dim_check(two_nc)
    assert (space.dim, exp) == (12, 12)
    space, exp = fiber_dim_check(full36)
    assert (space.dim, exp) == (18, 18)
    th4_restricted = thooft_tensor(4, F).restrict_xi([0, 1, 0, 0])
    space, exp = fiber_dim_check(th4_restricted)
    assert space.dim == exp


def test_propagation_on_chain(F, chain52):
    xi, _h1, _t, _l = find_xi(chain52, seed=5)
    rep = propagation_check(chain52, xi)
    assert rep["implication_holds"] and rep["inequality_holds"]
    assert rep["h2_s2"] == 0
    # a dropping hyperplane is rejected
    t = block_sum(nc_tensor(F), nc_tensor(F, [1, 1, 0, 0, 0, 1]))
    with pytest.raises(ValueError):
        propagation_check(t, [1, 0])


def test_propagation_through_44_over_36(F, full36):
    ext = extend_fiber(full36, seed=9)
    rep = propagation_check(ext, [1, 0, 0, 0])
    assert rep["implication_holds"] and rep["inequality_holds"]


def test_certificate_smooth_chain(F, chain52):
    cert = smoothness_certificate(chain52, induction_seed=0)
    v = cert["verdicts"]
    assert cert["consistent"]
    assert v["smooth_point"] is True
    assert v["rank"] == 12
    assert v["tangent_dims"]["symLambda"] == 62 == v["expected_dims"]["symLambda"]
    assert v["s2"] == [0, 37, 0]
    assert v["induction_witness"]["propagation"]["inequality_holds"]


def test_certificate_corank2_dims(F, corank2_n2):
    cert = smoothness_certificate(corank2_n2)
    assert cert["consistent"] and cert["verdicts"]["smooth_point"]
    assert cert["verdicts"]["tangent_dims"]["symLambda"] == 17


def _conjugated_block_sum() -> OmegaTensor:
    # the (3,2) sample plus a null correlation over F_11, moved by a random g:
    # rank 12 = 4(n - 1), and the first hyperplane drawn at seed 0 drops it
    f = PrimeField(11)
    base = block_sum(sample_instanton(3, 2, f, 1), nc_tensor(f))
    return base.conjugate(sample_invertible(4, f, Stream("g", 1)))


@pytest.mark.parametrize("make,seed,first_drops", [
    (lambda: sample_instanton(5, 2, GF32003, 7), 0, False),
    (lambda: sample_instanton(5, 2, GF32003, 7), 1, False),
    (lambda: sample_instanton(5, 2, GF32003, 7), 2, False),
    (lambda: sample_instanton(4, 4, GF32003, 0), 0, False),
    (lambda: sample_instanton(3, 2, GF32003, 0), 0, False),
    (_conjugated_block_sum, 0, True),
], ids=["chain52-0", "chain52-1", "chain52-2", "sample44", "sample32", "block-sum-fp11"])
def test_find_xi_matches_rank_based_loop(make, seed, first_drops):
    # find_xi keeps a hyperplane when the restricted display has no sections
    # at twist 0; the reference keeps it when the restricted tensor keeps the
    # rank, and reads h1(1) off that tensor's own display
    t = make()
    expected = oracles.find_xi_by_rank(tensor_from_obj(tensor_to_obj(t)), seed)
    assert find_xi(t, seed) == expected
    f = t.field
    first = Stream("find_xi", f.spec_str(), t.n, seed).next_vector(f, t.n)
    assert (t.restrict_xi(first).rank() < t.rank()) == first_drops
    assert (expected[3][0][0] > 0) == first_drops


def test_certificate_degenerate_flagged(F):
    cert = smoothness_certificate(degenerate_rank6(F))
    v = cert["verdicts"]
    assert v["modular"] is False
    assert v["nondegeneracy"]["status"] == "degenerate"
    assert v["coh_table"] is None
    assert cert["consistent"]  # internal checks still hold


@pytest.mark.parametrize("spec", ["fp:1048583", "fp:1000000007"])
def test_certificates_over_primes_above_the_field_cap(spec):
    # the witness scan covers the base field at any size, so a degenerate
    # tensor is flagged there and gets no cohomology table
    f = field_from_spec(spec)
    cert = smoothness_certificate(degenerate_rank6(f))
    v = cert["verdicts"]
    assert v["nondegeneracy"]["status"] == "degenerate" and v["modular"] is False
    assert v["nondegeneracy"]["searched"]["points"] == {spec: 1}
    assert v["coh_table"] is None and cert["consistent"]
    cert = smoothness_certificate(sample_instanton(3, 2, f, 0), induction_seed=0)
    v = cert["verdicts"]
    assert v["modular"] and cert["consistent"] and v["smooth_point"]
    assert v["nondegeneracy"]["searched"]["points"] == {spec: 3}


def test_certificate_layout_is_pinned(F):
    # the schema version and the consistency checks a certificate emits: a
    # change to either has to change this pin, and the other with it
    t = thooft_tensor(3, F)
    certs = {
        "modular": smoothness_certificate(t),
        "modular-induction": smoothness_certificate(t, induction_seed=0),
        "degenerate": smoothness_certificate(degenerate_rank6(F)),
    }
    names = {case: sorted(name for name, _ok in c["consistency"]) for case, c in certs.items()}
    modular = ["h0_E_vanishes", "h1_E_minus2_vanishes", "left_defect_zero",
               "smooth_iff_expected_tangent"]
    assert (SCHEMA_VERSION, names) == (4, {
        "modular": modular,
        "modular-induction": sorted(modular + ["propagation_implication",
                                               "propagation_inequality"]),
        "degenerate": [],
    })
    assert all(c["schema_version"] == SCHEMA_VERSION for c in certs.values())


def test_certificate_idempotent(F, chain52):
    # the second certificate reuses the display the first one kept on the
    # tensor, with its ranks, its S^2 triple and its restricted displays
    a = smoothness_certificate(chain52, induction_seed=1)
    b = smoothness_certificate(chain52, induction_seed=1)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_induction_certificate_reuses_display_work(monkeypatch):
    # the display keeps its S^2 triple and its restricted displays, so
    # propagation_check reuses the triple the certificate computed
    # and the restricted display find_xi built (the first trial keeps the
    # rank and has h1 = 0); read back through the file format, the tensor
    # starts with no display
    from instantons import monads

    t = tensor_from_obj(tensor_to_obj(sample_instanton(5, 2, GF32003, 7)))
    assemblies, displays = [], []
    s2_maps, init = monads._s2_maps, monads.Monad.__init__

    def counting_maps(nH, umat, wmat):
        assemblies.append(nH)
        return s2_maps(nH, umat, wmat)

    def counting_init(self, nH, *args):
        displays.append(nH)
        init(self, nH, *args)

    monkeypatch.setattr(monads, "_s2_maps", counting_maps)
    monkeypatch.setattr(monads.Monad, "__init__", counting_init)
    cert = smoothness_certificate(t, induction_seed=0)
    assert cert["consistent"] and cert["verdicts"]["induction_witness"]["trial"] == 0
    assert (assemblies, displays) == ([5, 4], [5, 4])


ELIMINATIONS = ("_np_rref", "_np_rank", "_generic_rref")


@pytest.mark.parametrize("make,counts", [
    (lambda: sample_instanton(5, 2, GF32003, 7), (3, 10, 0)),
    (lambda: thooft_tensor(3, QQ), (0, 13, 7)),
    (lambda: degenerate_rank6(QQ), (0, 6, 7)),
    (lambda: sample_full(2, QQ, 1), (0, 10, 1)),
    (lambda: nc_tensor(QQ), (0, 9, 1)),
], ids=["chain52", "thooft3-q", "degenerate-rank6-q", "full2-q", "nc-q"])
def test_certificate_eliminations_are_pinned(monkeypatch, make, counts):
    # calls of each elimination kernel in one certificate.  Over Q each rank
    # first runs _np_rank on the residues mod one prime, and _generic_rref
    # only when that rank is not full (or for an RREF).  The display, the
    # (1,1) certificate piece and the tangent system share one RREF of the
    # flattening, and every kernel basis they use is read off an RREF with no
    # second reduction, save over Q, where it is reduced once more to keep
    # the heights of its entries small.  Every later piece eliminates its constraint matrix,
    # as wide as the lower piece's annihilator times the number of
    # variables.  The cohomology table gathers no alpha: rank alpha(d) is
    # read off the inverse system A(1, d + 1), which classify's pieces (1,1)
    # and (1,2) already hold, and above them costs one rank of a constraint
    # matrix, up to the first twist d0 >= 0 where alpha is onto.  A modular
    # certificate reads the sigma and gamma kernel dimensions off its
    # cohomology table, left_defect reads the rank of beta(1) that
    # h_values(1) kept, and beta is not ranked at d0 or above, save beta(1).
    # A non-modular certificate ranks the sigma system over Q mod one prime,
    # where it is onto.  The witness scan reaches only
    # the basis points, a short run, and ranks each point's (w + 1) x w block
    # of its fixed sketch, over Q through a rank mod one prime (never square,
    # so no determinant), and ranks the point's own contraction only where
    # that block is deficient, as at the witness e_0 of degenerate_rank6: one
    # rank more there, a forward _generic_rref after a deficient _np_rank,
    # and the partner's canonical kernel, two RREFs.
    # The tensor is read back through the file format, so
    # that no display built while constructing it is reused.
    t = tensor_from_obj(tensor_to_obj(make()))
    calls = dict.fromkeys(ELIMINATIONS, 0)

    def counting(name, real):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapped

    for name in ELIMINATIONS:
        monkeypatch.setattr(linalg, name, counting(name, getattr(linalg, name)))
    smoothness_certificate(t)
    assert tuple(calls[name] for name in ELIMINATIONS) == counts
