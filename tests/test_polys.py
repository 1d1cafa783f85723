from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st
from oracles import roots_by_scan

from instantons.fields import QQ, ExtensionField, field_from_spec
from instantons.polys import evaluate, mul, roots


def _product(factors, field):
    out = [field.one()]
    for f in factors:
        out = mul(out, f, field)
    return out


def test_rational_roots_leave_the_irreducible_quadratic():
    # x^2 (x - 2/3) (x + 5) (x^2 + x + 1): the rational roots are extracted
    # with their multiplicity, and the quadratic, which has none, is the residual
    quad = [Fraction(1), Fraction(1), Fraction(1)]
    linear = [[Fraction(0), Fraction(1)], [Fraction(0), Fraction(1)],
              [Fraction(-2, 3), Fraction(1)], [Fraction(5), Fraction(1)]]
    poly = _product(linear + [quad], QQ)
    found, residual = roots(poly, QQ)
    assert sorted(found) == [Fraction(-5), Fraction(0), Fraction(0), Fraction(2, 3)]
    assert residual == quad
    # a non-integral scale is cleared before the divisor search
    found, residual = roots([Fraction(7, 4) * c for c in poly], QQ)
    assert sorted(found) == [Fraction(-5), Fraction(0), Fraction(0), Fraction(2, 3)]
    assert residual == [Fraction(7, 4) * c for c in quad]


def test_rational_roots_of_coefficients_past_2_to_the_42():
    # the leading or the lowest coefficient at 2^42: no height is refused
    big = Fraction(1 << 42)
    found, residual = roots([big, Fraction(1)], QQ)
    assert found == [-big] and residual == [Fraction(1)]
    found, residual = roots([Fraction(0), Fraction(3), big], QQ)
    assert found == [Fraction(0), Fraction(-3, 1 << 42)] and residual == [big]
    # x^2 + 5x - 2^42 and x^2 + 2^41 x - 2^40 have non-square discriminants
    for poly in ([-big / 5, Fraction(1), Fraction(1, 5)],
                 [Fraction(-(1 << 40)), Fraction(1 << 41), Fraction(1)]):
        assert roots(poly, QQ) == ([], poly)


def test_roots_in_the_extension_beyond_the_prime_field():
    # 2 is not a square mod 5, so x^2 - 2 has its roots in GF(25) \ GF(5);
    # (x - 3) adds one root in GF(5)
    f25 = ExtensionField(5, 2)
    poly = _product([[f25.of_int(-2), f25.zero(), f25.one()], [f25.of_int(-3), f25.one()]], f25)
    found, residual = roots(poly, f25)
    assert len(found) == 3 and residual == [f25.one()]
    assert f25.of_int(3) in found
    outside = [x for x in found if x != f25.of_int(3)]
    assert len(outside) == 2 and all(x not in {f25.of_int(i) for i in range(5)} for x in outside)
    for x in found:
        assert f25.is_zero(evaluate(poly, x, f25))
    assert all(f25.mul(x, x) == f25.of_int(2) for x in outside)


def _elements(fld):
    if fld.kind == "rational":
        return st.builds(Fraction, st.integers(-30, 30), st.integers(1, 6))
    if fld.kind == "prime-extension":
        return st.tuples(*[st.integers(0, fld.p - 1)] * fld.k)
    return st.integers(0, fld.p - 1).map(fld.of_int)


@st.composite
def _cofactors(draw, fld):
    """A factor whose roots, if any, roots must find too; over Q a product of
    quadratics x^2 + a x + b with a^2 < 4b, which has no rational root."""
    if fld.kind != "rational":
        coeffs = draw(st.lists(_elements(fld), max_size=4))
        return coeffs + [draw(_elements(fld).filter(lambda x: not fld.is_zero(x)))]
    out = [draw(_elements(fld).filter(bool))]
    for _ in range(draw(st.integers(0, 2))):
        a = draw(st.integers(-4, 4))
        b = draw(st.integers(a * a // 4 + 1, 9))
        out = mul(out, [Fraction(b), Fraction(a), Fraction(1)], fld)
    return out


@pytest.mark.parametrize("spec", ["fp:7", "fp:32003", "fp:5^2", "rational"])
@given(data=st.data())
def test_roots_finds_planted_roots_with_multiplicity(spec, data):
    fld = field_from_spec(spec)
    planted = data.draw(st.lists(_elements(fld), max_size=5))
    planted += planted[: data.draw(st.integers(0, 2))]  # repeated roots
    cofactor = data.draw(_cofactors(fld))
    linear = [[fld.neg(x), fld.one()] for x in planted]
    poly = _product(linear + [cofactor], fld)
    found, residual = roots(poly, fld)
    assert not Counter(planted) - Counter(found)
    assert _product([[fld.neg(x), fld.one()] for x in found] + [residual], fld) == poly
    if fld.kind == "rational":
        assert residual == cofactor
    else:
        assert not any(fld.is_zero(evaluate(residual, x, fld)) for x in fld.elements())


def _planted(data, fld, elements):
    planted = data.draw(st.lists(elements, max_size=5))
    planted += planted[: data.draw(st.integers(0, 2))]  # repeated roots
    cofactor = data.draw(_cofactors(fld))
    return planted, _product([[fld.neg(x), fld.one()] for x in planted] + [cofactor], fld)


@pytest.mark.parametrize("spec", ["fp:2", "fp:7", "fp:32003", "fp:2^3", "fp:3^2", "rational"])
@given(data=st.data())
def test_roots_match_the_scan(spec, data):
    # the same roots in the same order, with multiplicity, and the same residual
    fld = field_from_spec(spec)
    _planted_roots, poly = _planted(data, fld, _elements(fld))
    assert roots(poly, fld) == roots_by_scan(poly, fld)


def _beyond_the_scan(fld):
    if fld.kind != "rational":
        return _elements(fld)
    return st.builds(Fraction, st.integers(-(1 << 64), 1 << 64), st.integers(1, 1 << 64)).filter(
        lambda x: max(abs(x.numerator), x.denominator) > 1 << 42)


@pytest.mark.parametrize("spec", ["fp:2147483647", "rational"])
@given(data=st.data())
def test_roots_beyond_the_scan(spec, data):
    # a field too large to scan, and rational roots of height above 2^42
    fld = field_from_spec(spec)
    planted, poly = _planted(data, fld, _beyond_the_scan(fld))
    found, residual = roots(poly, fld)
    assert not Counter(planted) - Counter(found)
    assert _product([[fld.neg(x), fld.one()] for x in found] + [residual], fld) == poly
