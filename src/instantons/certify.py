# Certification of a tensor's pointwise data: the four equivalent
# rank-preservation tests for a hyperplane restriction, a randomized search
# for a good hyperplane, vanishing propagation through a restriction, and
# the assembled smoothness certificate with all of its internal cross-checks.

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict

from .bases import expected_stratum_dim, full_skew_tangent_dim
from .geometry import k_intersection_dim
from .linalg import Mat, Stream, kron
from .monads import (
    build_monad,
    coh_table,
    restricted_monad,
    s2_cohomology,
    sigma_kernel_dim,
    tangent_dim,
)
from .nondeg import classify
from .tensors import OmegaTensor, tensor_to_obj

SCHEMA_VERSION = 4
# random hyperplanes tried by find_xi
XI_TRIALS = 50


def rank_preservation_checks(omega: OmegaTensor, xi: list) -> tuple[bool, bool, bool, bool]:
    """The four equivalent tests that a hyperplane restriction keeps the rank.

    (restricted rank unchanged; N meets xi (x) V* trivially; xi (x) V* maps
    injectively into the cokernel of N; the restricted display has no
    sections).  All four are computed independently and must agree.
    """
    f, n = omega.field, omega.n
    if all(f.is_zero(x) for x in xi):
        raise ValueError("xi must be nonzero")
    # (i) rank comparison
    b1 = omega.restrict_xi(xi).rank() == omega.rank()
    # (ii) trivial intersection with xi (x) V*
    xi_row = Mat.from_rows(f, [xi], n)
    b2 = k_intersection_dim(omega, xi_row) == 0
    xi_v = kron(xi_row, Mat.identity(f, 4))
    # (iii) injectivity into the cokernel: residuals mod N stay independent
    N = omega.image()
    residuals = [N.reduce(r) for r in xi_v.rows()]
    b3 = Mat.from_rows(f, residuals, 4 * n).rank() == 4
    # (iv) no sections of the restricted display
    b4 = restricted_monad(omega, xi).h_values(0)[0] == 0
    return b1, b2, b3, b4


def find_xi(omega: OmegaTensor, seed=0) -> tuple[list, int, int, list[tuple[int, int]]]:
    """Search random hyperplanes for one minimizing h1 of the restriction at
    twist 1.

    Returns (xi, h1_bar, trial_index, log of (trial, h1) for rank-preserving
    trials).  Raises a ValueError above rank 4(n - 1), which no hyperplane
    keeps, and a RuntimeError if no trial preserves the rank, which for a
    generic tensor would contradict the expected openness of that condition.
    """
    f, n = omega.field, omega.n
    rank = omega.rank()
    if rank > 4 * (n - 1):
        raise ValueError(f"rank {rank} exceeds 4(n - 1) = {4 * (n - 1)}, the largest rank "
                         "of a restriction to a hyperplane of H: no hyperplane keeps it")
    st = Stream("find_xi", f.spec_str(), n, seed)
    best: tuple[list, int, int] | None = None
    log: list[tuple[int, int]] = []
    for t in range(XI_TRIALS):
        xi = st.next_vector(f, n)
        if all(f.is_zero(x) for x in xi):
            continue
        # test (iv) of rank_preservation_checks, on the display read next
        bar = restricted_monad(omega, xi)
        if bar.h_values(0)[0] != 0:
            continue
        h1 = bar.h_values(1)[1]
        log.append((t, h1))
        if best is None or h1 < best[1]:
            best = (xi, h1, t)
        if h1 == 0:
            break
    if best is None:
        raise RuntimeError(f"no rank-preserving hyperplane in {XI_TRIALS} trials")
    return best[0], best[1], best[2], log


def propagation_check(omega: OmegaTensor, xi: list) -> dict:
    """Vanishing propagation through a rank-preserving restriction.

    Checks that h2 S^2 of the restriction = 0 together with h1(1) = 0 forces
    h2 S^2 = 0 upstairs, and that h2 S^2 upstairs never exceeds h1(1) of the
    restriction while h2 S^2 downstairs vanishes.  Returns the three
    dimensions and the two verdicts by name.
    """
    checks = rank_preservation_checks(omega, xi)
    if not all(checks):
        raise ValueError("xi drops the rank; propagation needs a preserving xi")
    bar = restricted_monad(omega, xi)
    h2 = s2_cohomology(build_monad(omega))[2]
    h2_bar = s2_cohomology(bar)[2]
    h1_bar = bar.h_values(1)[1]
    implication = True
    if h2_bar == 0 and h1_bar == 0:
        implication = h2 == 0
    inequality = True
    if h2_bar == 0:
        inequality = h2 <= h1_bar
    return {"h2_s2": h2, "h2_s2_bar": h2_bar, "h1_bar_1": h1_bar,
            "implication_holds": implication, "inequality_holds": inequality}


def subject_of(omega: OmegaTensor, extra: dict | None = None) -> dict:
    obj = tensor_to_obj(omega)
    blob = json.dumps(obj, sort_keys=True).encode()
    subject = {
        "tensor": obj,
        "sha256": hashlib.sha256(blob).hexdigest(),
        "n": omega.n,
        "field": omega.field.spec_str(),
    }
    if extra:
        subject.update(extra)
    return subject


def smoothness_certificate(
    omega: OmegaTensor, *, subject_extra: dict | None = None, induction_seed=None
) -> dict:
    """Assemble the full pointwise certificate for a tensor, as the JSON
    object certify writes.

    The headline smooth-point verdict is the vanishing of the sigma kernel,
    read off as h2 of the symmetric square, cross-checked against the
    tangent dimension of the rank stratum hitting its expected value.
    Degenerate tensors still get a certificate, flagged non-modular, with
    the verdicts that need a bundle display left null.  "consistent" is
    true when every named check in "consistency" holds.
    """
    f, n = omega.field, omega.n
    verdict = classify(omega)
    rank = omega.rank()
    m_half = rank // 2
    extra = {"r": rank - 2 * n}
    if subject_extra:
        extra.update(subject_extra)
    subject = subject_of(omega, extra)
    # restricting the skew forms on H (x) V to the kernel of the flattening
    # is onto its wedge^2, so the full-skew tangent dimension is the formula
    full_skew = full_skew_tangent_dim(n, m_half)
    v = {
        "nondegeneracy": asdict(verdict),
        "rank": rank,
        "modular": not verdict.is_degenerate and 2 <= rank - 2 * n <= 2 * n,
        "tangent_dims": {"fullSkew": full_skew, "symLambda": tangent_dim(omega)},
        "expected_dims": {"fullSkew": full_skew, "symLambda": expected_stratum_dim(n, m_half)},
        **dict.fromkeys(("gamma_kernel_dim", "coh_table", "s2", "dim_N", "dim_Q",
                         "smooth_point", "induction_witness")),
    }
    cert = {"schema_version": SCHEMA_VERSION, "subject": subject, "verdicts": v,
            "consistency": [], "consistent": True}
    if not v["modular"]:
        v["sigma_kernel_dim"] = sigma_kernel_dim(omega)
        return cert
    m = build_monad(omega)
    rows = coh_table(omega)
    h = {d: (h0, h1) for d, h0, h1 in rows}
    s2 = s2_cohomology(m)
    # the sigma and gamma systems are -d1^T of the S^2 complex and alpha(1)^T
    v.update(coh_table=[list(r) for r in rows], s2=list(s2), dim_N=m.m, dim_Q=4 * m.nH - m.m,
             sigma_kernel_dim=s2[2], gamma_kernel_dim=h[1][1], smooth_point=s2[2] == 0)
    expected_tangent = v["tangent_dims"]["symLambda"] == v["expected_dims"]["symLambda"]
    checks = cert["consistency"]
    checks += [
        ["smooth_iff_expected_tangent", v["smooth_point"] == expected_tangent],
        ["h0_E_vanishes", h[0][0] == 0],
        ["h1_E_minus2_vanishes", h[-2][1] == 0],
        ["left_defect_zero", m.left_defect() == 0],
    ]
    if induction_seed is not None:
        try:
            xi, h1bar, trial, _log = find_xi(omega, seed=induction_seed)
            rep = propagation_check(omega, xi)
            v["induction_witness"] = {
                "xi": [f.to_str(x) for x in xi],
                "trial": trial,
                "rank_preserved": True,
                "h1_bar_1": h1bar,
                "h2_s2_bar": rep["h2_s2_bar"],
                "propagation": rep,
            }
            checks.append(["propagation_implication", rep["implication_holds"]])
            checks.append(["propagation_inequality", rep["inequality_holds"]])
        except RuntimeError as exc:
            v["induction_witness"] = {"error": str(exc)}
            checks.append(["induction_witness_found", False])
    cert["consistent"] = all(ok for _name, ok in checks)
    return cert
