from fractions import Fraction

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from posring.errors import AllZero, NotDivisible, ZeroInput
from posring.polyring import (
    IntPoly,
    LaurentPoly,
    eval_at_rational,
    exact_div,
    gcd_many,
    laurent_normalize,
    order_at_zero,
)

from oracles import RatPoly, squarefree_part

X = IntPoly.x()
ONE = IntPoly.one()


def P(*cs):
    return IntPoly(cs)


# hand-expanded: (X+1)(X+2) = X^2 + 3X + 2
def test_mul_example():
    assert P(1, 1) * P(2, 1) == P(2, 3, 1)


def test_add_laurent_cancel():
    a = LaurentPoly([1], -1)  # X^-1
    b = LaurentPoly([-1], -1)
    s = a + b
    assert s.is_zero
    assert s.lowest == 0


def test_laurent_tightness():
    p = LaurentPoly([0, 0, 3, 1], -5)
    assert p.lowest == -3
    assert p.body == P(3, 1)


def test_laurent_mul_add():
    a = LaurentPoly([1, 1], -1)  # X^-1 + 1
    b = LaurentPoly([2], 1)  # 2X
    assert a * b == LaurentPoly([2, 2], 0)
    assert a + b == LaurentPoly([1, 1, 2], -1)


def test_exact_div_examples():
    # (X^2 - 1) / (X - 1) = X + 1
    assert exact_div(P(-1, 0, 1), P(-1, 1)) == P(1, 1)
    # (X^2 + X) / X = X + 1
    assert exact_div(P(0, 1, 1), P(0, 1)) == P(1, 1)
    with pytest.raises(NotDivisible):
        exact_div(P(1, 0, 1), P(-1, 1))
    with pytest.raises(NotDivisible):
        exact_div(P(1), IntPoly.zero())


def test_gcd_examples():
    # gcd(X^2-1, X^2-3X+2) = X-1
    assert gcd_many([P(-1, 0, 1), P(2, -3, 1)]) == P(-1, 1)
    # content is discarded: gcd(2X+2, 4X+4) = X+1
    assert gcd_many([P(2, 2), P(4, 4)]) == P(1, 1)
    # gcd(p, 0) = p normalized
    assert gcd_many([P(-2, -4), IntPoly.zero()]) == P(1, 2)
    with pytest.raises(AllZero):
        gcd_many([IntPoly.zero(), IntPoly.zero()])


def test_eval_examples():
    assert eval_at_rational(P(-2, 0, 1), Fraction(3, 2)) == Fraction(1, 4)
    assert eval_at_rational(-(P(-1, 1) * P(-1, 1)), 1) == 0
    assert eval_at_rational(IntPoly.zero(), 7) == 0


def test_squarefree_examples():
    # (X-1)^2 -> X-1 up to a positive constant
    s = squarefree_part(P(1, -2, 1))
    assert s == P(-1, 1)
    # X^3 - X is already squarefree
    assert squarefree_part(P(0, -1, 0, 1)) == P(0, -1, 0, 1)
    with pytest.raises(ZeroInput):
        squarefree_part(IntPoly.zero())


def test_order_at_zero():
    assert order_at_zero(P(0, 0, 0, 1, 1)) == 3
    assert order_at_zero(P(1, 1)) == 0
    # X(X+1)^2 = X^3 + 2X^2 + X
    assert order_at_zero(P(0, 1, 2, 1)) == 1
    with pytest.raises(ZeroInput):
        order_at_zero(IntPoly.zero())


def test_laurent_normalize():
    hs, shift = laurent_normalize([LaurentPoly([1, 1], -1)])
    assert (hs, shift) == ([P(1, 1)], 1)
    hs, shift = laurent_normalize([LaurentPoly([2, 1], 0)])
    assert (hs, shift) == ([P(2, 1)], 0)
    hs, shift = laurent_normalize([LaurentPoly([1], -2), LaurentPoly([1], -1)])
    assert (hs, shift) == ([P(1), P(0, 1)], 2)
    hs, shift = laurent_normalize([LaurentPoly.zero(), LaurentPoly([1], -1)])
    assert (hs, shift) == ([IntPoly.zero(), P(1)], 1)


big = st.integers(min_value=-(2**256), max_value=2**256)
polys = st.lists(big, max_size=6).map(IntPoly)
small_polys = st.lists(st.integers(-9, 9), max_size=5).map(IntPoly)


@given(polys, polys, polys)
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + (-p) == IntPoly.zero()
    assert p * IntPoly.one() == p


@given(polys, polys)
def test_canonical_closure(p, q):
    for r in (p + q, p - q, p * q, -p):
        assert not r.coeffs or r.coeffs[-1] != 0


@given(small_polys, small_polys)
def test_exact_div_roundtrip(p, q):
    if q.is_zero:
        return
    assert exact_div(p * q, q) == p


@given(st.lists(small_polys, min_size=1, max_size=4))
def test_gcd_divides_and_cofactors_coprime(hs):
    if all(h.is_zero for h in hs):
        return
    g = gcd_many(hs)
    reduced = [exact_div(h, g) for h in hs if not h.is_zero]
    assert gcd_many(reduced) == IntPoly.one()


@given(small_polys, small_polys, st.fractions())
@settings(max_examples=50)
def test_eval_is_multiplicative(p, q, t):
    assert eval_at_rational(p * q, t) == eval_at_rational(p, t) * eval_at_rational(q, t)


@given(small_polys, st.integers(0, 4))
def test_order_shifts(p, k):
    if p.is_zero:
        return
    shifted = IntPoly((0,) * k + tuple(p.coeffs))
    assert order_at_zero(shifted) == order_at_zero(p) + k


@given(st.lists(st.tuples(st.lists(st.integers(-5, 5), max_size=4), st.integers(-3, 3)), max_size=3))
def test_laurent_normalize_consistent(items):
    hs = [LaurentPoly(cs, lo) for cs, lo in items]
    ints, shift = laurent_normalize(hs)
    assert shift >= 0
    for h, p in zip(hs, ints):
        # p = h * X^shift as Laurent polynomials
        assert LaurentPoly.from_intpoly(p) == h.shifted(shift)


def test_rational_poly_basics():
    p = RatPoly([Fraction(1, 2), 1])
    q = RatPoly([1, 1])
    assert (p + q).coeffs == (Fraction(3, 2), Fraction(2))
    assert (p * 2).coeffs == (Fraction(1), Fraction(2))
    assert p(2) == Fraction(5, 2)
    assert RatPoly([0, 0]).is_zero
