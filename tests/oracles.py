"""Test-side oracles: textbook algorithms the tests compare posring against.

Sturm chains over Q[X] count distinct real roots exactly, and
``squarefree_part`` reduces a polynomial by the exact gcd with its
derivative.  posring itself isolates roots with Descartes bisection on
integer Taylor shifts; nothing in ``src/`` uses these.
"""

from dataclasses import dataclass
from fractions import Fraction

from posring import kernels as _k
from posring.errors import PosringError, PostconditionFailed, ZeroInput
from posring.polyring import IntPoly


class EndpointIsRoot(PosringError):
    """A root-counting endpoint is itself a root of the chain's polynomial."""


class RatPoly:
    """Dense polynomial over exact rationals."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs=()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self._coeffs = tuple(cs)

    @classmethod
    def _raw(cls, cs):
        p = object.__new__(cls)
        p._coeffs = tuple(cs)
        return p

    @classmethod
    def from_intpoly(cls, p):
        return cls._raw(tuple(Fraction(c) for c in p.coeffs))

    @property
    def coeffs(self):
        return self._coeffs

    @property
    def degree(self):
        return len(self._coeffs) - 1

    @property
    def is_zero(self):
        return not self._coeffs

    @property
    def leading(self):
        return self._coeffs[-1] if self._coeffs else Fraction(0)

    def __add__(self, other):
        if not isinstance(other, RatPoly):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        while out and out[-1] == 0:
            out.pop()
        return RatPoly._raw(out)

    def __sub__(self, other):
        if not isinstance(other, RatPoly):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return RatPoly._raw(tuple(-c for c in self._coeffs))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return RatPoly._raw(())
            return RatPoly._raw(tuple(c * other for c in self._coeffs))
        if not isinstance(other, RatPoly):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if not a or not b:
            return RatPoly._raw(())
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return RatPoly._raw(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, RatPoly):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self):
        return hash(("RatPoly", self._coeffs))

    def __bool__(self):
        return bool(self._coeffs)

    def __call__(self, t):
        t = Fraction(t)
        acc = Fraction(0)
        for c in reversed(self._coeffs):
            acc = acc * t + c
        return acc

    def __repr__(self):
        return "RatPoly(%r)" % ([str(c) for c in self._coeffs],)


def squarefree_part(p):
    """p / gcd(p, p'): same real roots as p, each with multiplicity one.

    The result is determined up to a positive constant.  Raises
    ZeroInput on the zero polynomial.
    """
    if p.is_zero:
        raise ZeroInput("squarefree part of the zero polynomial")
    if p.degree < 1:
        return IntPoly.one()
    g = _k.gcd(list(p.coeffs), _k.deriv(list(p.coeffs)))
    if len(g) == 1:
        return IntPoly._raw(_k.primitive_signed(list(p.coeffs)))
    # g is primitive, so it divides the primitive part exactly (Gauss)
    q = _k.exact_div(_k.primitive_signed(list(p.coeffs)), g)
    if q is None:
        raise PostconditionFailed("gcd(p, p') does not divide p's primitive part")
    return IntPoly._raw(q)


@dataclass(frozen=True)
class SturmChain:
    """Textbook Sturm sequence: p, p', then negated remainders.

    The last entry is nonzero; the chain stops when the next remainder
    vanishes.  For constant p the chain is the single entry (p,).
    """

    polys: tuple


def sturm_chain(p):
    """Textbook Sturm chain of an IntPoly over Q[X].

    Examples: X^2 - 2 gives (X^2 - 2, 2X, 2); X - 1 gives (X - 1, 1);
    X^2 + 1 gives (X^2 + 1, 2X, -1).  Raises ZeroInput on zero.
    """
    if p.is_zero:
        raise ZeroInput("sturm chain of the zero polynomial")
    cur = RatPoly.from_intpoly(p)
    out = [cur]
    if p.degree < 1:
        return SturmChain(tuple(out))
    nxt = RatPoly.from_intpoly(IntPoly._raw(_k.deriv(list(p.coeffs))))
    out.append(nxt)
    while nxt.degree >= 1:
        r = _rat_rem(cur, nxt)
        if r.is_zero:
            break
        r = -r
        out.append(r)
        cur, nxt = nxt, r
    return SturmChain(tuple(out))


def _rat_rem(a, b):
    # remainder of a by b over Q[X]
    ra = list(a.coeffs)
    rb = list(b.coeffs)
    lb = rb[-1]
    while len(ra) >= len(rb):
        c = ra[-1] / lb
        off = len(ra) - len(rb)
        for j in range(len(rb) - 1):
            ra[off + j] -= c * rb[j]
        ra.pop()
        while ra and ra[-1] == 0:
            ra.pop()
    return RatPoly(ra)


def count_roots(chain, a, b):
    """Number of distinct real roots of chain.polys[0] in (a, b).

    Endpoints must not be roots (EndpointIsRoot otherwise) and a < b.
    Works for non-squarefree polynomials: the generalized Sturm
    sequence still counts distinct roots.
    """
    a = Fraction(a)
    b = Fraction(b)
    if a >= b:
        raise ValueError("count_roots needs a < b")
    p = chain.polys[0]
    if p(a) == 0 or p(b) == 0:
        raise EndpointIsRoot("endpoint is a root of the polynomial")
    return _rat_var(chain, a) - _rat_var(chain, b)


def _rat_var(chain, t):
    return _k.sign_variations([p(t) for p in chain.polys])
