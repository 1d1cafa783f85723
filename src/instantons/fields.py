# Exact coefficient fields: rationals, prime fields, and small prime-power
# extensions.  Everything downstream is parametrized by one of these; no
# floating point exists anywhere in the package.

from __future__ import annotations

from fractions import Fraction


# Miller-Rabin with the 13 prime bases 2..41 has no strong pseudoprime below
# this bound (Sorenson & Webster, Math. Comp. 86, 2017)
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MILLER_RABIN_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin test; a ValueError at or above the bound
    where its bases stop being exact."""
    if n >= _MILLER_RABIN_BOUND:
        raise ValueError(f"primality is decided only below {_MILLER_RABIN_BOUND}; got {n}")
    if n < 2:
        return False
    for b in _MILLER_RABIN_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MILLER_RABIN_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field:
    """Common interface of the exact coefficient fields.

    Elements are plain Python values (Fraction for the rationals, int in
    [0, p) for GF(p), tuple of ints for GF(p^k)); the field object owns all
    arithmetic on them.  A field object doubles as its own spec: ``kind`` is
    one of "rational" | "prime" | "prime-extension", with modulus ``p`` and
    extension degree ``k`` when finite.

    Every field class provides zero(), one(), add, sub, mul, neg, inv (a
    ZeroDivisionError at 0), is_zero, of_int, to_str, its inverse parse, and
    spec_str(), the spec field_from_spec reads back.  The finite ones also
    provide elements(), in a fixed order, and the property order, their count.
    """

    kind: str
    p: int | None
    k: int

    def __repr__(self) -> str:
        return f"Field({self.spec_str()})"

    def __eq__(self, other) -> bool:
        return isinstance(other, Field) and self.spec_str() == other.spec_str()

    def __hash__(self) -> int:
        return hash(self.spec_str())


class RationalField(Field):
    """The field of rationals; elements are Fraction."""

    kind = "rational"
    p = None
    k = 1

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return 1 / Fraction(a)

    def is_zero(self, a) -> bool:
        return a == 0

    def of_int(self, n: int):
        return Fraction(n)

    def parse(self, s: str):
        return Fraction(s)

    def to_str(self, a) -> str:
        a = Fraction(a)
        return str(a.numerator) if a.denominator == 1 else f"{a.numerator}/{a.denominator}"

    def spec_str(self) -> str:
        return "rational"


class PrimeField(Field):
    """GF(p); elements are ints reduced to [0, p)."""

    kind = "prime"

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        self.p = p
        self.k = 1

    def zero(self):
        return 0

    def one(self):
        return 1 % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(a, -1, self.p)

    def is_zero(self, a) -> bool:
        return a % self.p == 0

    def of_int(self, n: int):
        return n % self.p

    def parse(self, s: str):
        return int(s) % self.p

    def to_str(self, a) -> str:
        return str(a % self.p)

    def elements(self):
        return range(self.p)

    @property
    def order(self) -> int:
        return self.p

    def spec_str(self) -> str:
        return f"fp:{self.p}"


def _poly_mul_mod(a: tuple, b: tuple, modulus: tuple, p: int) -> tuple:
    k = len(modulus) - 1
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    # reduce by the monic modulus
    for i in range(len(prod) - 1, k - 1, -1):
        c = prod[i]
        if c:
            prod[i] = 0
            for j in range(k):
                prod[i - k + j] = (prod[i - k + j] - c * modulus[j]) % p
    return tuple(prod[:k])


def _pow_mod(a: tuple, e: int, modulus: tuple, p: int) -> tuple:
    """a^e mod the monic modulus, by square-and-multiply."""
    acc = (1,) + (0,) * (len(modulus) - 2)
    for bit in bin(e)[2:]:
        acc = _poly_mul_mod(acc, acc, modulus, p)
        if bit == "1":
            acc = _poly_mul_mod(acc, a, modulus, p)
    return acc


def _find_irreducible(p: int, k: int) -> tuple:
    """First monic irreducible of degree k over GF(p), in lex coefficient order.

    Returned as coefficient tuple (c0, ..., c_{k-1}, 1).  Irreducibility is
    Rabin's test: f divides x^(p^k) - x, and gcd(f, x^(p^(k/q)) - x) = 1 for
    every prime q dividing k.
    """
    from .polys import gcd, trim  # polys imports this module

    if k == 1:
        return (0, 1)
    gf, x = PrimeField(p), (0, 1) + (0,) * (k - 2)
    primes = [q for q in range(2, k + 1) if k % q == 0 and is_prime(q)]

    def is_irred(mod: tuple) -> bool:
        if _pow_mod(x, p**k, mod, p) != x:
            return False
        for q in primes:
            h = _pow_mod(x, p ** (k // q), mod, p)
            h_minus_x = trim([(c - (i == 1)) % p for i, c in enumerate(h)], gf)
            if len(gcd(list(mod), h_minus_x, gf)) > 1:
                return False
        return True

    # enumerate monic polynomials by lex order on (c0, ..., c_{k-1})
    for idx in range(p**k):
        mod = tuple(idx // p**i % p for i in range(k)) + (1,)
        if is_irred(mod):
            return mod
    raise RuntimeError("no irreducible polynomial found")  # unreachable


class ExtensionField(Field):
    """GF(p^k) as GF(p)[x]/(f) for the first monic irreducible f of degree k.

    Elements are coefficient tuples of length k.  Used only for small witness
    scans over field towers, so plain polynomial arithmetic is enough.
    """

    kind = "prime-extension"

    def __init__(self, p: int, k: int):
        if not is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        if k < 1:
            raise ValueError("extension degree must be >= 1")
        self.p = p
        self.k = k
        self.modulus = _find_irreducible(p, k)

    def zero(self):
        return (0,) * self.k

    def one(self):
        return (1 % self.p,) + (0,) * (self.k - 1)

    def add(self, a, b):
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def sub(self, a, b):
        p = self.p
        return tuple((x - y) % p for x, y in zip(a, b))

    def mul(self, a, b):
        return _poly_mul_mod(a, b, self.modulus, self.p)

    def neg(self, a):
        p = self.p
        return tuple((-x) % p for x in a)

    def inv(self, a):
        if self.is_zero(a):
            raise ZeroDivisionError("inverse of 0")
        return _pow_mod(a, self.p**self.k - 2, self.modulus, self.p)  # a^(q-2)

    def is_zero(self, a) -> bool:
        return all(x % self.p == 0 for x in a)

    def of_int(self, n: int):
        return (n % self.p,) + (0,) * (self.k - 1)

    def parse(self, s: str):
        coords = s.split(",")
        if len(coords) != self.k:
            raise ValueError(f"expected {self.k} comma-separated coordinates, got {s!r}")
        return tuple(int(t) % self.p for t in coords)

    def to_str(self, a) -> str:
        return ",".join(str(x % self.p) for x in a)

    def elements(self):
        p, k = self.p, self.k
        for idx in range(p**k):
            coeffs = []
            t = idx
            for _ in range(k):
                coeffs.append(t % p)
                t //= p
            yield tuple(coeffs)

    @property
    def order(self) -> int:
        return self.p**self.k

    def spec_str(self) -> str:
        return f"fp:{self.p}^{self.k}"


QQ = RationalField()
GF32003 = PrimeField(32003)


def field_from_spec(spec: str) -> Field:
    """Parse "rational" | "fp:<p>" | "fp:<p>^<k>" into a field object; a
    ValueError starts with "field <spec>:"."""
    if spec == "rational":
        return QQ
    p, caret, k = spec.removeprefix("fp:").partition("^")
    if not spec.startswith("fp:") or not p.isdecimal() or caret and not k.isdecimal():
        raise ValueError(f"field {spec!r}: expected rational, fp:<p> or fp:<p>^<k>, "
                         "p and k integers")
    try:
        if caret:
            return ExtensionField(int(p), int(k))
        return GF32003 if int(p) == 32003 else PrimeField(int(p))
    except ValueError as exc:
        raise ValueError(f"field {spec!r}: {exc}") from None
