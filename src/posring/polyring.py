"""Exact polynomial types: Z[X] and Laurent polynomials Z[X, 1/X].

Coefficients are stored in ascending degree order and kept canonical:
no trailing zeros, the zero polynomial has an empty coefficient tuple.
All values are immutable and all operations are pure.
"""

from fractions import Fraction

from posring import kernels as _k
from posring.errors import AllZero, NotDivisible, ZeroInput


def _check_ints(coeffs):
    out = []
    for c in coeffs:
        if isinstance(c, bool) or not isinstance(c, int):
            raise TypeError("integer coefficient expected, got %r" % (c,))
        out.append(c)
    return out


class IntPoly:
    """Dense polynomial over arbitrary-precision integers."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs=()):
        self._coeffs = tuple(_k.norm(_check_ints(coeffs)))

    @classmethod
    def _raw(cls, cs):
        # internal: cs already canonical
        p = object.__new__(cls)
        p._coeffs = tuple(cs)
        return p

    @classmethod
    def zero(cls):
        return cls._raw(())

    @classmethod
    def one(cls):
        return cls._raw((1,))

    @classmethod
    def x(cls):
        return cls._raw((0, 1))

    @property
    def coeffs(self):
        return self._coeffs

    @property
    def degree(self):
        # -1 for the zero polynomial
        return len(self._coeffs) - 1

    @property
    def is_zero(self):
        return not self._coeffs

    @property
    def constant(self):
        return self._coeffs[0] if self._coeffs else 0

    def __add__(self, other):
        if not isinstance(other, IntPoly):
            return NotImplemented
        return IntPoly._raw(_k.add(list(self._coeffs), list(other._coeffs)))

    def __sub__(self, other):
        if not isinstance(other, IntPoly):
            return NotImplemented
        return IntPoly._raw(_k.sub(list(self._coeffs), list(other._coeffs)))

    def __neg__(self):
        return IntPoly._raw(_k.neg(list(self._coeffs)))

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPoly._raw(_k.scale(list(self._coeffs), other))
        if not isinstance(other, IntPoly):
            return NotImplemented
        return IntPoly._raw(_k.mul(list(self._coeffs), list(other._coeffs)))

    def __rmul__(self, other):
        if isinstance(other, int):
            return IntPoly._raw(_k.scale(list(self._coeffs), other))
        return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, IntPoly):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self):
        return hash(("IntPoly", self._coeffs))

    def __bool__(self):
        return bool(self._coeffs)

    def __repr__(self):
        return "IntPoly(%r)" % (list(self._coeffs),)

    def __str__(self):
        return _format_terms(self._coeffs, 0)


class LaurentPoly:
    """Polynomial in X and 1/X: body * X**lowest with an IntPoly body.

    Canonical form is tight: a nonzero body has a nonzero constant term
    (the coefficient of X**lowest), and the zero element is the zero
    body with lowest = 0.
    """

    __slots__ = ("_body", "_lowest")

    def __init__(self, body=(), lowest=0):
        if not isinstance(body, IntPoly):
            body = IntPoly(body)
        if body.is_zero:
            self._body = body
            self._lowest = 0
            return
        k = order_at_zero(body)
        if k:
            body = IntPoly._raw(body.coeffs[k:])
            lowest += k
        self._body = body
        self._lowest = lowest

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def from_intpoly(cls, p):
        return cls(p, 0)

    @property
    def body(self):
        return self._body

    @property
    def lowest(self):
        return self._lowest

    @property
    def is_zero(self):
        return self._body.is_zero

    def __add__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        lo = min(self._lowest, other._lowest)
        a = _k.mul_xk(list(self._body.coeffs), self._lowest - lo)
        b = _k.mul_xk(list(other._body.coeffs), other._lowest - lo)
        return LaurentPoly(IntPoly._raw(_k.add(a, b)), lo)

    def __sub__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return LaurentPoly._raw_parts(-self._body, self._lowest)

    def __mul__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return LaurentPoly()
        return LaurentPoly._raw_parts(
            self._body * other._body, self._lowest + other._lowest
        )

    @classmethod
    def _raw_parts(cls, body, lowest):
        p = object.__new__(cls)
        p._body = body
        p._lowest = lowest if not body.is_zero else 0
        return p

    def shifted(self, k):
        # multiply by X**k
        if self.is_zero:
            return self
        return LaurentPoly._raw_parts(self._body, self._lowest + k)

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._body == other._body and self._lowest == other._lowest

    def __hash__(self):
        return hash(("LaurentPoly", self._body.coeffs, self._lowest))

    def __bool__(self):
        return not self.is_zero

    def __repr__(self):
        return "LaurentPoly(%r, lowest=%r)" % (list(self._body.coeffs), self._lowest)

    def __str__(self):
        return _format_terms(self._body.coeffs, self._lowest)


def _format_terms(coeffs, lowest):
    if not coeffs:
        return "0"
    parts = []
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        e = i + lowest
        if e == 0:
            term = str(abs(c))
        else:
            mag = "" if abs(c) == 1 else "%d*" % abs(c)
            term = "%sX" % mag if e == 1 else "%sX**%d" % (mag, e)
        if not parts:
            parts.append(term if c > 0 else "-" + term)
        else:
            parts.append(("+ " if c > 0 else "- ") + term)
    return " ".join(parts)


def exact_div(p, q):
    """Quotient r with r * q == p, both IntPoly; p itself when q is 1.

    Raises NotDivisible when q is zero or does not divide p.
    """
    if q.is_zero:
        raise NotDivisible("division by the zero polynomial")
    if q.coeffs == (1,):
        return p
    r = _k.exact_div(list(p.coeffs), list(q.coeffs))
    if r is None:
        raise NotDivisible("%r does not divide %r" % (q, p))
    return IntPoly._raw(r)


def gcd_many(hs):
    """Greatest common divisor of a list of IntPoly, primitive with
    positive leading coefficient.

    Common integer content is discarded: gcd_many([2X+2, 4X+4]) is X+1.
    Raises AllZero when every input is zero.
    """
    g = []
    for h in hs:
        g = _k.gcd(g, list(h.coeffs))
        if g == [1]:
            break
    if not g:
        raise AllZero("gcd of all-zero inputs")
    return IntPoly._raw(g)


def eval_at_rational(p, t):
    """Exact value p(t) as a Fraction, for IntPoly p and rational t."""
    t = Fraction(t)
    num, den = t.numerator, t.denominator
    cs = list(p.coeffs)
    if not cs:
        return Fraction(0)
    v = _k.eval_scaled(cs, num, den)
    return Fraction(v, den ** (len(cs) - 1))


def order_at_zero(p):
    """Largest k with X**k dividing p.  Raises ZeroInput on zero."""
    if p.is_zero:
        raise ZeroInput("order at zero of the zero polynomial")
    return _k.order(p.coeffs)


def laurent_normalize(hs):
    """Clear denominators of X: ([h_i * X**shift as IntPoly], shift).

    shift = max(0, -min lowest) over the nonzero entries; zero entries
    map to the zero IntPoly.
    """
    lows = [h.lowest for h in hs if not h.is_zero]
    shift = max(0, -min(lows)) if lows else 0
    out = []
    for h in hs:
        if h.is_zero:
            out.append(IntPoly.zero())
        else:
            out.append(IntPoly._raw(_k.mul_xk(list(h.body.coeffs), h.lowest + shift)))
    return out, shift
