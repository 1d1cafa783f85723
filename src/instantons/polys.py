# Minimal univariate polynomial helpers over the exact fields.  Coefficient
# lists are low-degree first and always trimmed.  Root finding is exhaustive
# scan over a finite field and rational-root extraction over Q; anything
# irreducible left over is reported as a residual factor, never approximated.

from __future__ import annotations

import math
from fractions import Fraction

from .fields import Field


def trim(coeffs: list, field: Field) -> list:
    c = list(coeffs)
    while c and field.is_zero(c[-1]):
        c.pop()
    return c


def evaluate(coeffs: list, x, field: Field):
    acc = field.zero()
    for c in reversed(coeffs):
        acc = field.add(field.mul(acc, x), c)
    return acc


def add(a: list, b: list, field: Field) -> list:
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        x = a[i] if i < len(a) else field.zero()
        y = b[i] if i < len(b) else field.zero()
        out.append(field.add(x, y))
    return trim(out, field)


def mul(a: list, b: list, field: Field) -> list:
    if not a or not b:
        return []
    out = [field.zero()] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if field.is_zero(x):
            continue
        for j, y in enumerate(b):
            out[i + j] = field.add(out[i + j], field.mul(x, y))
    return trim(out, field)


def divmod_poly(a: list, b: list, field: Field) -> tuple[list, list]:
    a = trim(a, field)
    b = trim(b, field)
    if not b:
        raise ZeroDivisionError("division by zero polynomial")
    q = [field.zero()] * max(0, len(a) - len(b) + 1)
    r = list(a)
    inv_lead = field.inv(b[-1])
    while len(r) >= len(b) and r:
        c = field.mul(r[-1], inv_lead)
        d = len(r) - len(b)
        q[d] = c
        for i, bc in enumerate(b):
            r[d + i] = field.sub(r[d + i], field.mul(c, bc))
        r = trim(r, field)
    return trim(q, field), r


def interpolate(points: list, values: list, field: Field) -> list:
    """Lagrange interpolation through distinct points; exact in the field."""
    if len(points) != len(values):
        raise ValueError("points/values length mismatch")
    acc: list = []
    for i, (xi, yi) in enumerate(zip(points, values)):
        num = [field.one()]
        den = field.one()
        for j, xj in enumerate(points):
            if i == j:
                continue
            num = mul(num, [field.neg(xj), field.one()], field)
            den = field.mul(den, field.sub(xi, xj))
        scale = field.mul(yi, field.inv(den))
        acc = add(acc, [field.mul(scale, c) for c in num], field)
    return trim(acc, field)


# the scan evaluates the polynomial at every element of GF(p) at once, as
# int64 arrays of length p whose Horner products stay below 2^63; over Q,
# trial division of coefficients below ROOT_SCAN_LIMIT^2 tries no more divisors
ROOT_SCAN_LIMIT = 1 << 21


def roots(coeffs: list, field: Field) -> tuple[list, list]:
    """All roots in the field with their multiplicity, plus the residual
    factor, which has no root in the field.

    The candidates are every element of a finite field (GF(p) is scanned at
    once by _prime_root_candidates) and, over Q, the ratios that the rational
    root theorem allows; each root is divided out as often as it divides.
    """
    coeffs = trim(coeffs, field)
    if not coeffs:
        raise ValueError("zero polynomial has every root")
    if field.kind == "prime":
        if field.p >= ROOT_SCAN_LIMIT:
            raise ValueError(
                f"root finding scans every element of {field.spec_str()}, which is only "
                f"supported for primes below 2^21 = {ROOT_SCAN_LIMIT}")
        candidates = _prime_root_candidates(coeffs, field.p)
    elif field.kind == "prime-extension":
        candidates = field.elements()
    else:
        candidates = _rational_root_candidates(coeffs)
    found, rest = [], coeffs
    for x in candidates:
        while len(rest) > 1 and field.is_zero(evaluate(rest, x, field)):
            found.append(x)
            rest = divmod_poly(rest, [field.neg(x), field.one()], field)[0]
    return found, rest


def _prime_root_candidates(coeffs: list, p: int) -> list[int]:
    """Roots of a polynomial over GF(p) by vectorized Horner over the field."""
    import numpy as np

    xs = np.arange(p, dtype=np.int64)
    acc = np.zeros(p, dtype=np.int64)
    for c in reversed(coeffs):
        acc = (acc * xs + int(c)) % p
    return [int(x) for x in np.nonzero(acc == 0)[0]]


def _divisors(n: int) -> list[int]:
    n = abs(n)
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def _rational_root_candidates(coeffs: list):
    """0, then +-p/q with q dividing the leading and p the lowest nonzero
    coefficient of the integer form, by q and then p."""
    denom = math.lcm(*(Fraction(c).denominator for c in coeffs))
    ints = [int(Fraction(c) * denom) for c in coeffs]
    low = next(c for c in ints if c)
    if (big := max(abs(ints[-1]), abs(low))) >= ROOT_SCAN_LIMIT ** 2:
        raise ValueError(f"rational root finding trial-divides only coefficients below 2^42; "
                         f"this polynomial has a {big.bit_length()}-bit coefficient")
    yield Fraction(0)
    for q in _divisors(ints[-1]):
        for p in _divisors(low):
            yield Fraction(p, q)
            yield Fraction(-p, q)
