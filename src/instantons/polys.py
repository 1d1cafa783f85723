# Minimal univariate polynomial helpers over the exact fields.  Coefficient
# lists are low-degree first and always trimmed.  Roots over GF(q) are split out
# of gcd(f, x^q - x); over Q they are roots mod one prime, lifted.  No field size
# or height is refused; what has no root is the residual factor, never approximated.

from __future__ import annotations

import math
from fractions import Fraction

from .fields import QQ, Field, PrimeField, is_prime


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


def gcd(a: list, b: list, field: Field) -> list:
    """The monic greatest common divisor, by Euclid; [] when both are zero."""
    while b:
        b = divmod_poly(b, b[-1:], field)[0]  # monic remainders keep Q's heights down
        a, b = b, divmod_poly(a, b, field)[1]
    return divmod_poly(a, a[-1:], field)[0] if a else a


def powmod(a: list, e: int, m: list, field: Field) -> list:
    """a^e mod m, by square-and-multiply."""
    acc = [field.one()]
    for bit in bin(e)[2:]:
        acc = divmod_poly(mul(acc, acc, field), m, field)[1]
        if bit == "1":
            acc = divmod_poly(mul(acc, a, field), m, field)[1]
    return acc


def _squarefree(f: list, field: Field) -> list:
    """f / gcd(f, f'): the roots of f, each simple (in characteristic 0 or above deg f)."""
    df = trim([field.mul(field.of_int(i), c) for i, c in enumerate(f)][1:], field)
    return divmod_poly(f, gcd(f, df, field), field)[0]


def roots(coeffs: list, field: Field) -> tuple[list, list]:
    """All roots in the field with their multiplicity, plus the residual
    factor, which has no root in the field.  The distinct roots come in the
    order of _finite_roots or _rational_roots, and each is divided out as
    often as it divides."""
    coeffs = trim(coeffs, field)
    if not coeffs:
        raise ValueError("zero polynomial has every root")
    distinct = _rational_roots(coeffs) if field.kind == "rational" else _finite_roots(coeffs, field)
    found, rest = [], coeffs
    for x in distinct:
        while len(rest) > 1 and field.is_zero(evaluate(rest, x, field)):
            found.append(x)
            rest = divmod_poly(rest, [field.neg(x), field.one()], field)[0]
    return found, rest


def _finite_roots(f: list, field: Field) -> list:
    """The distinct roots in GF(q), from gcd(f, x^q - x), in field.elements() order."""
    x, minus_x = [field.zero(), field.one()], [field.zero(), field.neg(field.one())]
    found = _split(gcd(f, add(powmod(x, field.order, f, field), minus_x, field), field), field)
    return sorted(found, key=(lambda e: e[::-1]) if field.kind == "prime-extension" else None)


def _split(g: list, field: Field) -> list:
    """The roots of a monic g with distinct roots in GF(q), by Cantor-Zassenhaus:
    the shift a splits off the roots r with r + a a nonzero square (q odd) or
    with Tr(a r) = 0 (q even).  Some a separates any two roots, as the nonzero
    squares are no union of additive cosets and the trace form is nondegenerate."""
    if len(g) <= 2:
        return [field.neg(g[0])] if len(g) == 2 else []
    q, one = field.order, field.one()
    for a in field.elements():
        if q % 2:
            h = add(powmod([a, one], (q - 1) // 2, g, field), [field.neg(one)], field)
        else:  # Tr(a x) = a x + (a x)^2 + ... + (a x)^(2^(k-1)), by Horner
            h = []
            for _ in range(field.k):
                h = add([field.zero(), a], powmod(h, 2, g, field), field)
        d = gcd(g, h, field)
        if 1 < len(d) < len(g):
            return _split(d, field) + _split(divmod_poly(g, d, field)[0], field)


def _rational_roots(f: list) -> list:
    """The distinct rational roots of f, 0 first, then by denominator, |numerator|
    and sign.  With h the monic squarefree part of f, of degree d, and c the
    least common denominator of its coefficients, every root is y / c for an
    integer root y of g(y) = c^d h(y / c), which is monic with integer
    coefficients.  A nonzero y divides the lowest nonzero coefficient of g,
    and is a simple root of g mod any prime keeping g squarefree, from which
    Newton's iteration lifts it."""
    h = _squarefree([Fraction(x) / f[-1] for x in f], QQ)
    c = math.lcm(*(x.denominator for x in h))
    g = [int(x * c ** (len(h) - 1 - i)) for i, x in enumerate(h)]
    p = 1 << 31
    while not is_prime(p) or len(_squarefree(gp := [x % p for x in g], PrimeField(p))) < len(g):
        p += 1
    dg, bound, lifted = [i * x for i, x in enumerate(g)][1:], 2 * abs(next(x for x in g if x)), []
    for y in _finite_roots(gp, PrimeField(p)):
        m, s = p, pow(int(evaluate(dg, y, QQ)), -1, p)  # s = 1 / g'(y) mod m
        while m <= bound:
            m *= m
            y = (y - int(evaluate(g, y, QQ)) * s) % m
            s = s * (2 - int(evaluate(dg, y, QQ)) * s) % m
        lifted.append(y - m if 2 * y > m else y)
    found = [Fraction(y, c) for y in lifted if evaluate(g, y, QQ) == 0]
    return sorted(found, key=lambda r: (r != 0, r.denominator, abs(r.numerator), r < 0))
