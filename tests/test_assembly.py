"""The structured maps are pinned entry for entry.

Each map assembled from a display or a tensor (the graded monad maps, the
symmetric-square complex, the kernel systems, the tangent systems, the
extension and 't Hooft systems, the flattenings and their inverse) is
reduced to a SHA-256 digest of its field, shape and entries, row by row.
Systems that are only handed to an elimination are caught there: inside
each recorded call every matrix passed to `Mat.rank` or `Mat.kernel` is
digested, in call order.  The digests were recorded from the nested-loop
assembly this package used before its maps were built by `Mat.gather`, so
the assembly, the row order and the column order are all unchanged.
The `s2_cohomology` digests pin d0's H (x) H* part in the quotient by the
image of S^2 N, which is what is ranked in place of d0, and d1.  Over Q
both are taken on int64 residues mod 2097143 of integer multiples of umat
and wmat, and d1 is ranked twice: once to see that it is onto, once (from
the kept rank) for the triple.

The sigma and gamma systems and the full-skew tangent system are no longer
built by the package: it reads their kernel dimensions off d1, alpha(1) and
a formula.  Their digests come from the oracles that keep them, and the
tests at the end prove those identities term by term on every shape the
package reaches.

Run this file as a script to print the digests of the current code.
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager

import pytest

from instantons.families import extend_affine, extend_fiber, fiber_solution_space
from instantons.families import sample_full, sample_instanton, thooft_tensor
from instantons.fields import GF32003, QQ, PrimeField
from instantons.linalg import Mat
from instantons.bases import full_skew_tangent_dim
from instantons.linalg import Stream, sample_invertible
from instantons.monads import (
    _graded_pattern,
    _s2_patterns,
    build_monad,
    restricted_monad,
    s2_cohomology,
    tangent_dim,
)
from instantons.tensors import OmegaTensor, unflatten
import oracles

F7 = PrimeField(7)


def _digest(*parts) -> str:
    """Digest of matrices, subspaces, lists of digests and plain values."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, Mat):
            f = part.field
            h.update(f"{f.spec_str()}|{part.nrows}x{part.ncols}|".encode())
            for row in part.rows():
                h.update((",".join(f.to_str(x) for x in row) + ";").encode())
        elif hasattr(part, "basis"):
            h.update(_digest(part.basis).encode())
        else:
            h.update(repr(part).encode())
        h.update(b"|")
    return h.hexdigest()[:16]


@contextmanager
def _eliminations(log: list):
    """Record the digest of every matrix passed to Mat.rank or Mat.kernel."""
    saved = Mat.rank, Mat.kernel

    def spy(fn):
        def wrapped(self):
            log.append(_digest(self))
            return fn(self)
        return wrapped

    Mat.rank, Mat.kernel = spy(Mat.rank), spy(Mat.kernel)
    try:
        yield log
    finally:
        Mat.rank, Mat.kernel = saved


def _recorded(fn, *args, **kwargs) -> str:
    with _eliminations([]) as log:
        out = fn(*args, **kwargs)
    return _digest(*log, out)


# the inputs: fixed tensors for n = 2..5 over fp:32003 and Q, and randomized
# 't Hooft tensors over fp:7
TENSORS = {
    **{f"fp32003-n{n}": (lambda n=n: sample_instanton(n, 2, GF32003, 11)) for n in range(2, 6)},
    **{f"rational-n{n}": (lambda n=n: thooft_tensor(n, QQ)) for n in range(2, 6)},
    **{f"fp7-n{n}": (lambda n=n: thooft_tensor(n, F7, seed=1)) for n in range(2, 6)},
}


def _maps(name: str) -> dict[str, str]:
    """Digest of every structured map of one input tensor."""
    t = TENSORS[name]()
    f, n = t.field, t.n
    out = {"tensor": _digest(t.coeffs), "flatten": _digest(t.flatten())}
    m = build_monad(t)
    out["monad"] = _digest(m.umat, m.wmat, m.phi)
    out["alpha"] = _digest(*(m.alpha(d) for d in range(-2, 4)))
    out["beta"] = _digest(*(m.beta(d) for d in range(-2, 4)))
    out["s2_cohomology"] = _recorded(s2_cohomology, m)
    out["sigma_kernel_dim"] = _recorded(oracles.sigma_kernel_dim_by_slots, t)
    out["gamma_kernel_dim"] = _recorded(oracles.gamma_kernel_dim_by_slots, m)
    out["tangent_dim"] = _digest(_recorded(oracles.tangent_dim_full_skew, t), _recorded(tangent_dim, t))
    out["fiber_solution_space"] = _recorded(fiber_solution_space, t)
    xi = [f.of_int(v) for v in (1, 2, 3, 5, 7)[:n]]
    bar = restricted_monad(t, xi)
    out["restricted"] = _digest(bar.umat, bar.wmat, *(bar.alpha(d) for d in range(0, 3)),
                                *(bar.beta(d) for d in range(0, 3)))
    lam = [f.of_int(v) for v in (1, 2, 0, 3, 0, 4)]
    g = Mat.from_rows(f, [[(3 * i + 5 * j + 1) % 7 for j in range(n - 1)] for i in range(n)], n - 1)
    skew_h = Mat.from_rows(
        f, [[(i + 2 * j) % 5 for j in range(10)] for i in range(n * (n - 1) // 2)], 10)
    skew_h_form = oracles.skew_h_flatten(n, skew_h)
    with pytest.raises(ValueError, match="nonzero wedge"):
        unflatten(t.flatten() + skew_h_form)
    # the skew matrices of the forms at (0, 1) and (1, 1), which are blocks
    # of the flattening; the two summands of t's flattening, the skew_h form,
    # and the two summands of their sum, which unflatten refuses
    flat, lo, hi = t.flatten(), [0, 1, 2, 3], [4, 5, 6, 7]
    out["tensor_ops"] = _digest(
        t.contract_line(lam), t.apply_h_map(g).coeffs, flat.take_rows(lo).take_cols(hi),
        flat.take_rows(hi).take_cols(hi), unflatten(t.flatten()).coeffs,
        Mat.zeros(f, skew_h.nrows, 10), skew_h_form, t.coeffs, skew_h,
    )
    return out


def _constructions(field) -> dict[str, str]:
    """The 't Hooft systems and the extension folds, recorded while they run."""
    out = {}
    for n in range(2, 6):
        out[f"thooft-n{n}"] = _recorded(thooft_tensor, n, field, 1)
    base = sample_full(2, field, 3)
    alpha = Mat.from_rows(field, [[1, 0, 2, 0, 3, 1], [0, 1, 0, 4, 1, 0]], 6)
    out["extend_affine"] = _digest(extend_affine(base, alpha).coeffs)
    if field.kind == "prime":
        out["extend_fiber"] = _digest(extend_fiber(base, 5).coeffs)
    return out


def all_digests() -> dict[str, dict[str, str]]:
    out = {name: _maps(name) for name in TENSORS}
    for field in (GF32003, QQ, F7):
        out[f"constructions-{field.spec_str()}"] = _constructions(field)
    return out


# recorded from the nested-loop assembly; the sigma_kernel_dim and
# gamma_kernel_dim digests from the kernels' .dim before those functions
# returned the dimension alone.  Those two digests and the full-skew half of
# tangent_dim are now taken from the systems kept in oracles, which the
# package reads off d1, alpha(1) and a formula (tested below)
PINNED: dict[str, dict[str, str]] = {
    "constructions-fp:32003": {
        "extend_affine": "c01ac8f0ad547905",
        "extend_fiber": "bf483c081bfe2c99",
        "thooft-n2": "fecb2853d7bd59c4",
        "thooft-n3": "06bf2c943772d55e",
        "thooft-n4": "b7d08b9a8bba2d72",
        "thooft-n5": "6e96bdef020f1ac9",
    },
    "constructions-fp:7": {
        "extend_affine": "7816832f1822093f",
        "extend_fiber": "8febdbd3a00fe391",
        "thooft-n2": "3003378593ef9d6a",
        "thooft-n3": "62a7fefdb3301306",
        "thooft-n4": "4cc1f08ff2f4e0b3",
        "thooft-n5": "826618e14c06e055",
    },
    "constructions-rational": {
        "extend_affine": "522d53db4f84a2d3",
        "thooft-n2": "017438ededf6a733",
        "thooft-n3": "e7f294af15c3e6b3",
        "thooft-n4": "ce4d9629879b2d19",
        "thooft-n5": "6a9589564af05e92",
    },
    "fp32003-n2": {
        "alpha": "d2d9d70861e3df4d",
        "beta": "b819292db861cda8",
        "fiber_solution_space": "42463097d2665426",
        "flatten": "ebf57ec8263f0848",
        "gamma_kernel_dim": "6981fe3d8acbad43",
        "monad": "f3e3adf0f9c58d3d",
        "restricted": "601ca4375e2d1bac",
        "s2_cohomology": "d86d1fd448827507",
        "sigma_kernel_dim": "3324c84d57df3b1a",
        "tangent_dim": "c1a12a79946a9517",
        "tensor": "b390779b352b11f8",
        "tensor_ops": "4c75d1d09fd29bfb",
    },
    "fp32003-n3": {
        "alpha": "1fab0feb1fe85f63",
        "beta": "95fe22398b097aca",
        "fiber_solution_space": "0b2e485f0afcb2a2",
        "flatten": "ff1f82919e5009fc",
        "gamma_kernel_dim": "ed4d9deb077bfda9",
        "monad": "3a6bc30bd4621361",
        "restricted": "f7f8dce018469d1f",
        "s2_cohomology": "e17e442eb841bef7",
        "sigma_kernel_dim": "fd7e32ee71fb65ec",
        "tangent_dim": "4fe3fdd203a18420",
        "tensor": "dcfae93414457c83",
        "tensor_ops": "43109b0d9fdabc7f",
    },
    "fp32003-n4": {
        "alpha": "06d45af939f7b1d7",
        "beta": "7626c6a55f706744",
        "fiber_solution_space": "5225d9b933daa00b",
        "flatten": "6aa1e9d819a9b8a4",
        "gamma_kernel_dim": "a4b126774b515449",
        "monad": "11b1f7e4eba350c2",
        "restricted": "a34ec9c64fa6ed12",
        "s2_cohomology": "b6c67f9e08081c03",
        "sigma_kernel_dim": "f7e20ab6bb00bc51",
        "tangent_dim": "c23edda4c6ce4af2",
        "tensor": "2aa93c4382840d8e",
        "tensor_ops": "25d0849b96447cc0",
    },
    "fp32003-n5": {
        "alpha": "555dcdd197c512d1",
        "beta": "1a0a69a18daeb143",
        "fiber_solution_space": "6440a35e2fa2da4b",
        "flatten": "5167a7dd2a4e805d",
        "gamma_kernel_dim": "29f528a3e2ffa1b3",
        "monad": "f9bbdc372a3f892e",
        "restricted": "89e9010f645b0615",
        "s2_cohomology": "0e7792e544a83fd7",
        "sigma_kernel_dim": "4d16a97172fe8788",
        "tangent_dim": "405a5fd7ae2df467",
        "tensor": "0fa6b126a6eb6873",
        "tensor_ops": "f1d23cf4b03d274b",
    },
    "fp7-n2": {
        "alpha": "0c58ad3d88c0dc37",
        "beta": "8506779652155750",
        "fiber_solution_space": "88e48d790250a8f8",
        "flatten": "ca51831ece8d7f7b",
        "gamma_kernel_dim": "0535e449277aec2f",
        "monad": "d8be61fe539f1fad",
        "restricted": "d3ea29b799d64502",
        "s2_cohomology": "a49f042a3ed5d42d",
        "sigma_kernel_dim": "1f873da189b310a5",
        "tangent_dim": "58d9063f8c43933a",
        "tensor": "7109ec644c1e2013",
        "tensor_ops": "0c0c05b12b7f71f2",
    },
    "fp7-n3": {
        "alpha": "13a38f6dbd5c7424",
        "beta": "2135134c909d7e8c",
        "fiber_solution_space": "e2ac2a7bcc32b31a",
        "flatten": "86462da78c6dbc98",
        "gamma_kernel_dim": "e21984f512e46982",
        "monad": "c54fa0c5368a2ae5",
        "restricted": "f202445e195d75cb",
        "s2_cohomology": "8fb6a9f90d86bfa5",
        "sigma_kernel_dim": "cfae80e270b62f21",
        "tangent_dim": "01734b9dbe2478d1",
        "tensor": "0e05fa3db88de772",
        "tensor_ops": "84772f86d30d22b0",
    },
    "fp7-n4": {
        "alpha": "b9fca31741f5446b",
        "beta": "c78a699ae32be8ba",
        "fiber_solution_space": "30bdee857deb2f6d",
        "flatten": "d9de9671dca3a148",
        "gamma_kernel_dim": "f4bef9c5a1097104",
        "monad": "68e47aeebf177497",
        "restricted": "fcfa8dbc3ef2b372",
        "s2_cohomology": "ca710fc6ef33dda0",
        "sigma_kernel_dim": "c041bab7c850dabf",
        "tangent_dim": "a1a0c578740327c0",
        "tensor": "0bd29b7837619372",
        "tensor_ops": "419fc3e68eb3fbc2",
    },
    "fp7-n5": {
        "alpha": "fa75bfe04d01dfcc",
        "beta": "b14fde693659838d",
        "fiber_solution_space": "deae314a5f42f196",
        "flatten": "1c4c547131b78743",
        "gamma_kernel_dim": "1072e79a16d2c318",
        "monad": "9e3f6a23681d02f0",
        "restricted": "37cfddb70b27418a",
        "s2_cohomology": "6906c1a623315456",
        "sigma_kernel_dim": "451e5d2b2014eb92",
        "tangent_dim": "6e654010207b614e",
        "tensor": "6f6474c160f6813f",
        "tensor_ops": "5fd44537004dc7a6",
    },
    "rational-n2": {
        "alpha": "c8f91c712c036116",
        "beta": "24a512f0429fabc9",
        "fiber_solution_space": "cd6afcee0a6f37cf",
        "flatten": "9f96b43915eb96cf",
        "gamma_kernel_dim": "707fc42d7263e5a4",
        "monad": "88e726fa897cfbd5",
        "restricted": "997cb1232befbe6f",
        "s2_cohomology": "7c9336dba476b9e3",
        "sigma_kernel_dim": "006fed34df9b6b88",
        "tangent_dim": "3082a452c1233fc5",
        "tensor": "7cda0ddb59206a26",
        "tensor_ops": "74c3a399f48a1113",
    },
    "rational-n3": {
        "alpha": "dbfb23503f7c6795",
        "beta": "2e0ab105d09fd7db",
        "fiber_solution_space": "85eb52445683d6c9",
        "flatten": "fd80071d500a5f3a",
        "gamma_kernel_dim": "9cf62bdd53b0fdfb",
        "monad": "b35a262c460431db",
        "restricted": "b305430d83fffe0d",
        "s2_cohomology": "346f83d6a447e72a",
        "sigma_kernel_dim": "155c17551bf62fde",
        "tangent_dim": "9d8aed209d1d002d",
        "tensor": "166e5f6c2ba68381",
        "tensor_ops": "e3668c644253b4ec",
    },
    "rational-n4": {
        "alpha": "eda62b693d9fd9f5",
        "beta": "fbbd3c0702f22dd4",
        "fiber_solution_space": "003e80a2f69401fe",
        "flatten": "bf4dec03568f2691",
        "gamma_kernel_dim": "edbbd910c9fd77e0",
        "monad": "ca8b68b171964694",
        "restricted": "8fdd76255d83287d",
        "s2_cohomology": "34fd0298a1d194da",
        "sigma_kernel_dim": "251fbc9bf3b3a9d6",
        "tangent_dim": "fa53436ac56a79a5",
        "tensor": "22279aba096b5c2c",
        "tensor_ops": "51ff05518f38b53a",
    },
    "rational-n5": {
        "alpha": "b6cf91a7d7708bdf",
        "beta": "db7d964b885c4368",
        "fiber_solution_space": "2106d06ab34e2827",
        "flatten": "52971764e97774ab",
        "gamma_kernel_dim": "4688f87234a248a6",
        "monad": "1514f3e4ecf21f37",
        "restricted": "2993d129d03b43dc",
        "s2_cohomology": "41d9f9ef0b114915",
        "sigma_kernel_dim": "10d46f2a792d8c67",
        "tangent_dim": "4899524bcf9ebb9b",
        "tensor": "03f2de7e71b8d4a3",
        "tensor_ops": "b51f83def9e50222",
    },
}


@pytest.mark.parametrize("name", sorted(TENSORS))
def test_structured_maps_are_pinned(name):
    assert _maps(name) == PINNED[name]


@pytest.mark.parametrize("field", [GF32003, QQ, F7], ids=lambda f: f.spec_str())
def test_constructions_are_pinned(field):
    assert _constructions(field) == PINNED[f"constructions-{field.spec_str()}"]


def _linear_map(pattern, transpose_out: bool = False, transpose_src: bool = False,
                sign: int = 1) -> dict:
    """The linear map src -> sign * src.gather(pattern) as its nonzero
    coefficients {(r, c, i, j): coefficient}, with (r, c) the output entry
    and (i, j) the source entry; either index pair may be transposed."""
    ncols, src_ncols = pattern.shape[1], pattern.src_shape[1]
    out: dict = {}
    for dst, src, s in zip(pattern._dst.tolist(), pattern._src.tolist(), pattern._sign.tolist()):
        (r, c), (i, j) = divmod(dst, ncols), divmod(src, src_ncols)
        key = (*((c, r) if transpose_out else (r, c)), *((j, i) if transpose_src else (i, j)))
        out[key] = out.get(key, 0) + sign * s
    return {k: v for k, v in out.items() if v}


@pytest.mark.parametrize("n", range(1, 6))
def test_sigma_system_is_minus_d1_transposed(n):
    # B.gather(sigma system) == -(B^T.gather(d1))^T for every basis B of N
    for m in range(0, 4 * n + 1, 2):
        sigma = oracles.sigma_pattern(m, n)
        d1 = _s2_patterns(n, m)[2]
        assert _linear_map(sigma) == _linear_map(d1, True, True, sign=-1)
        assert sigma.shape == d1.shape[::-1]


@pytest.mark.parametrize("nH", range(0, 6))
def test_gamma_system_is_alpha1_transposed(nH):
    # umat.gather(gamma system) == alpha(1)^T for every umat
    for m in range(1, 4 * (nH + 1) + 1):
        gamma = oracles.gamma_pattern(nH, m)
        alpha1 = _graded_pattern(nH, m, 1, True)
        assert _linear_map(gamma) == _linear_map(alpha1, transpose_out=True)
        assert gamma.shape == alpha1.shape[::-1]


def _tensors_of_every_rank(n: int, field):
    """A tensor of each even rank 0 .. 4n: j blocks e_a e_a (x) x_k ^ x_l of
    rank 2 on disjoint coordinates, moved by a random element of GL(H); and
    one with random coefficients."""
    blocks = [(a, a, k, k + 1) for a in range(n) for k in (0, 2)]
    g = sample_invertible(n, field, Stream("every-rank", field.spec_str(), n))
    for j in range(2 * n + 1):
        yield OmegaTensor.from_entries(n, field, {b: field.one() for b in blocks[:j]}).conjugate(g)
    yield OmegaTensor(n, field, oracles.sample_matrix(n * (n + 1) // 2, 6, field, ("every-rank", n)))


@pytest.mark.parametrize("field,nmax", [(GF32003, 5), (F7, 5), (QQ, 4)],
                         ids=["fp:32003", "fp:7", "rational"])
def test_full_skew_tangent_is_the_formula(field, nmax):
    ranks = set()
    for n in range(1, nmax + 1):
        for t in _tensors_of_every_rank(n, field):
            rank = t.rank()
            ranks.add((n, rank))
            assert oracles.tangent_dim_full_skew(t) == full_skew_tangent_dim(n, rank // 2)
    assert ranks >= {(n, r) for n in range(1, nmax + 1) for r in range(0, 4 * n + 1, 2)}


if __name__ == "__main__":
    import pprint

    pprint.pprint(all_digests(), width=100)
