# Fixed basis conventions shared by the whole package.
#
# V is 4-dimensional with basis e0..e3 and dual x0..x3.  Wedge and symmetric
# bases are ordered lexicographically; H (x) V is ordered (a, k) -> 4a + k so
# flattened tensors are concrete 4n x 4n matrices.  The dual pairing is
# <x_i ^ x_j, e_k ^ e_l> = d_ik d_jl - d_il d_jk.

from __future__ import annotations

from itertools import combinations_with_replacement
from math import comb

# basis of wedge^2 V* (and wedge^2 V): index pairs k < l in lex order
WEDGE_PAIRS: list[tuple[int, int]] = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
WEDGE_INDEX = {pair: i for i, pair in enumerate(WEDGE_PAIRS)}


def sym_pairs(n: int) -> list[tuple[int, int]]:
    """Basis (i, j), i <= j, of S^2 of an n-dimensional space, lex order."""
    return [(i, j) for i in range(n) for j in range(i, n)]


def sym_index_map(n: int) -> dict[tuple[int, int], int]:
    return {pair: i for i, pair in enumerate(sym_pairs(n))}


def skew_pairs(n: int) -> list[tuple[int, int]]:
    """Basis (i, j), i < j, of wedge^2 of an n-dimensional space, lex order."""
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def hv_index(a: int, k: int) -> int:
    """Position of e_a (x) e_k in the ordered basis of H (x) V."""
    return 4 * a + k


def form_slots(n: int) -> list[tuple[int, int, int, int, int]]:
    """Where the coefficients of a tensor in S^2 H* (x) wedge^2 V* sit in its
    4n x 4n skew matrix.

    The coefficient c at (H pair p = (i, j), V pair q = (k, l)) is +c at
    ((i,k), (j,l)), and at the entries with i, j or k, l swapped it is c
    times the sign of the swap (-1 for k, l); an entry reached twice is
    filled once.  Returned as (row, col, p, q, sign).
    """
    out = []
    for p, (i, j) in enumerate(sym_pairs(n)):
        for q, (k, l) in enumerate(WEDGE_PAIRS):
            slots = {}
            for a, b, c, d, sign in ((i, j, k, l, 1), (j, i, k, l, 1),
                                     (i, j, l, k, -1), (j, i, l, k, -1)):
                slots.setdefault((hv_index(a, c), hv_index(b, d)), sign)
            out += [(r, c, p, q, sign) for (r, c), sign in slots.items()]
    return out


def monomials(nvars: int, degree: int) -> list[tuple[int, ...]]:
    """Degree-d monomials in nvars variables as sorted index tuples, lex order.

    Degree 0 gives [()]; negative degree gives [].
    """
    if degree < 0:
        return []
    return list(combinations_with_replacement(range(nvars), degree))


def monomial_index_map(nvars: int, degree: int) -> dict[tuple[int, ...], int]:
    return {m: i for i, m in enumerate(monomials(nvars, degree))}


def mono_mul(mono: tuple[int, ...], var: int) -> tuple[int, ...]:
    """Multiply a monomial by a single variable, keeping indices sorted."""
    return tuple(sorted(mono + (var,)))


def times_variable(nvars: int, degree: int) -> list[list[int]]:
    """Per variable, the index of each degree-d monomial times it in degree d + 1."""
    tgt = monomial_index_map(nvars, degree + 1)
    return [[tgt[mono_mul(m, i)] for m in monomials(nvars, degree)] for i in range(nvars)]


def num_monomials(nvars: int, degree: int) -> int:
    if degree < 0:
        return 0
    return comb(degree + nvars - 1, nvars - 1)


def euler_chi(n: int, r: int, d: int) -> int:
    """Euler characteristic r*C(d+3,3) - n*(d+2) of a twisted instanton bundle."""
    return r * comb(d + 3, 3) - n * (d + 2)


def expected_stratum_dim(n: int, m: int) -> int:
    """Expected dimension of the rank-2m stratum inside S^2 H* (x) wedge^2 V*."""
    return 5 * n - 5 * n * n + 8 * m * n - 2 * m * m - m


def full_skew_tangent_dim(n: int, m: int) -> int:
    """Tangent dimension of the rank-2m stratum in the full space of skew forms."""
    return comb(4 * n, 2) - comb(4 * n - 2 * m, 2)
