"""Test-side oracles: textbook algorithms the tests compare posring against.

Sturm chains over Q[X] count distinct real roots exactly, ``prs_gcd``
is the primitive PRS that posring's modular gcd must match, and
``squarefree_part`` reduces a polynomial by that gcd with its
derivative.  posring itself isolates roots with Descartes bisection in
the Bernstein basis and narrows each leaf as the tree emits it;
``vca_isolate_reference`` is the same bisection on monomial
coefficients, three integer Taylor shifts per split, and
``_narrow_reference`` narrows its intervals afterwards, reading each
sign at lo by evaluation, so the two together must give posring's exact
roots and, in order, its intervals and signs at lo;
``isolate_nonneg_roots_reference`` repeats posring's bisections on
Fraction endpoints, which its integer ones must match exactly, and
``uniform_sign_exists_reference`` evaluates every input at every
candidate root of every input, where posring's scan sweeps the sign
vector of a growing subset of the inputs.
``gcd_mod_fermat`` is the modular gcd with Fermat's inverse, and
``primes_reference`` the prime walk with Miller-Rabin on the twelve
primes 2 ... 37, each power computed anew.
``descartes_reference`` maps a polynomial onto an interval by
``to_unit_reference``, a double loop of multiply-adds, where posring
scales it and calls ``shift1`` twice; ``shift1_reference`` is the
Taylor shift as a double loop of in-place additions, where posring's
takes one builtin prefix sum per row, and ``eval_scaled_reference``
evaluates with a running power of the denominator, where posring's
shifts by a dyadic one; the isolation references use these two, not
the kernels they check;
``strip2_reference``, ``content_reference`` and ``order_reference`` walk
the coefficients one by one, where posring's kernels use one builtin.
``normalize_reference`` strips X from the entries vanishing at 0 one
order at a time, re-reading the signs at 0 after each strip, and
``plan_scale_reference`` tries m = 0, 1, ... until (1 + X)^m makes the
pivots of ``plan_reference``, the paper's Figure 1 construction,
positive, and ``walk_scale_reference`` until (1 + X)^m fills every inner
zero run of the sum the synthesis walk scales; posring computes each
number in closed form.
``rational_feasibility_reference`` is the phase-1
simplex over Fractions on the full tableau, every coefficient-sum row
stored, that posring's integer working-basis simplex must match pivot
for pivot; ``build_feasibility_reference`` transcribes the witness
system with no forcing-row presolve, and ``find_witness_linear``
escalates the degree from 0, where posring starts at a lower bound.  ``brute_force_oracle``
enumerates bounded witness tuples and ``exhaustive_identity_search``
searches words breadth first, both without the sign theory, and
``enumerate_covers`` lists every generator cover, so tests can decide
the Group and Identity questions cover by cover.
Nothing in ``src/`` uses these.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from itertools import product as _iproduct
from math import comb, gcd, lcm

from posring import kernels as _k
from posring._record import Record, setfield
from posring.errors import AllZero, PosringError, PostconditionFailed, ZeroInput
from posring import nxsolve as _nx
from posring.nxsolve import (
    EarlyUnsolvable,
    NormalizedInstance,
    WitnessTuple,
    verify_witness,
)
from posring.polyring import IntPoly, eval_at_rational, exact_div, gcd_many, order_at_zero
from posring.realdec import (
    _SQFREE_DEPTH,
    AlgebraicRoot,
    RationalPoint,
    SignVector,
    isolate_nonneg_roots,
)
from posring.wreath import MINUS, PLUS, CoverSubset, Word, WreathElement, mul

_ORACLE_SPACE_CAP = 2 * 10**7
_ORACLE_TABLE_CAP = 10**6
COVER_CAP = 20


class EndpointIsRoot(PosringError):
    """A root-counting endpoint is itself a root of the chain's polynomial."""


class SearchSpaceTooLarge(PosringError):
    """Brute-force enumeration would exceed the hard search-space cap."""


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


def cauchy_root_bound(p):
    """1 + max |a_i| / |a_deg| over i < deg; 0 for constants.

    Every real root of p has absolute value strictly below the bound.
    """
    cs = p.coeffs
    if len(cs) < 2:
        return Fraction(0)
    lead = abs(cs[-1])
    m = max(abs(c) for c in cs[:-1])
    return 1 + Fraction(m, lead)


def prs_gcd(a, b):
    """gcd of coefficient lists a and b by the primitive PRS: primitive,
    with positive leading coefficient, like ``kernels.gcd``, whose
    modular algorithm it checks."""
    A = _k.primitive_pos(a)
    B = _k.primitive_pos(b)
    if not A:
        return B
    if not B:
        return A
    if len(A) < len(B):
        A, B = B, A
    while True:
        if len(B) == 1:
            return [1]
        R = _k.pseudo_rem(A, B)
        if not R:
            return _k.primitive_pos(B)
        A, B = B, _k.primitive_pos(R)


def squarefree_part(p):
    """p / gcd(p, p'): same real roots as p, each with multiplicity one.

    The result is determined up to a positive constant.  Raises
    ZeroInput on the zero polynomial.
    """
    if p.is_zero:
        raise ZeroInput("squarefree part of the zero polynomial")
    if p.degree < 1:
        return IntPoly.one()
    g = prs_gcd(list(p.coeffs), _k.deriv(list(p.coeffs)))
    if len(g) == 1:
        return IntPoly._raw(_k.primitive_signed(list(p.coeffs)))
    # g is primitive, so it divides the primitive part exactly (Gauss)
    q = _k.exact_div(_k.primitive_signed(list(p.coeffs)), g)
    if q is None:
        raise PostconditionFailed("gcd(p, p') does not divide p's primitive part")
    return IntPoly._raw(q)


def gcd_mod_fermat(a, b, m):
    """Monic gcd of a and b modulo the prime m, inverting by Fermat's
    little theorem; None when either leading coefficient vanishes mod m."""
    A = [c % m for c in a]
    B = [c % m for c in b]
    if not A or not B or A[-1] == 0 or B[-1] == 0:
        return None
    while B:
        inv = pow(B[-1], m - 2, m)
        while len(A) >= len(B):
            c = A[-1] * inv % m
            if c:
                off = len(A) - len(B)
                for j in range(len(B) - 1):
                    A[off + j] = (A[off + j] - c * B[j]) % m
            A.pop()
            while A and A[-1] == 0:
                A.pop()
        A, B = B, A
    inv = pow(A[-1], m - 2, m)
    return [c * inv % m for c in A]


def primes_reference():
    """32749, 2^61 - 1 and the primes below it, by Miller-Rabin on the
    bases 2 ... 37, exact below 3.3 * 10^24."""
    yield 32749
    n = 2**61 - 1
    yield n
    while True:
        n -= 2
        r = ((n - 1) & (1 - n)).bit_length() - 1  # 2^r exactly divides n - 1
        d = (n - 1) >> r
        if all(pow(a, d, n) == 1 or any(pow(a, d << i, n) == n - 1 for i in range(r))
               for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)):
            yield n


def uniform_sign_exists_reference(hs):
    """posring's uniform-sign scan, candidate by candidate: t = 0, then
    each isolated root, every input evaluated anew at each one (0 for an
    owner, else the sign at the root when rational, at hi otherwise)."""
    hs_cs = [list(h.coeffs) for h in hs]
    candidates = [(RationalPoint(Fraction(0)), Fraction(0), ())]
    for root in isolate_nonneg_roots(hs):
        sample = AlgebraicRoot(root) if root.exact is None else RationalPoint(root.exact)
        candidates.append((sample, root.hi, root.owners))
    for sample, t, owners in candidates:
        signs = tuple(0 if i in owners else _sgn_at(cs, t) for i, cs in enumerate(hs_cs))
        if -1 not in signs or 1 not in signs:
            return SignVector(sample, signs)
    return None


def normalize_reference(hs):
    """posring's normalize as a loop: divide out the gcd, then while the
    signs at 0 are neither mixed nor all strict, strip from every entry
    vanishing at 0 the least X-order among them."""
    g = gcd_many(hs)
    hs = tuple(exact_div(h, g) for h in hs)
    budget = sum(h.degree for h in hs) + 1
    xdiv = 0
    while True:
        signs = tuple((h.constant > 0) - (h.constant < 0) for h in hs)
        if all(s > 0 for s in signs) or all(s < 0 for s in signs):
            sv = SignVector(RationalPoint(Fraction(0)), signs)
            return EarlyUnsolvable(sv, hs, g, xdiv)
        if 1 in signs and -1 in signs:
            return NormalizedInstance(hs, g, xdiv)
        k = min(order_at_zero(h) for h in hs if h.constant == 0)
        hs = tuple(IntPoly(h.coeffs[k:]) if h.constant == 0 else h for h in hs)
        xdiv += k
        budget -= k
        if budget < 0:
            raise PostconditionFailed("X-division loop exceeded degree budget")


def _scaling_ok(f_uv, f_yz, m):
    # after (1 + X)^m: f_uv positive through its degree, f_yz positive
    # from its order up, and deg f_uv at least ord f_yz
    onepx = IntPoly([comb(m, i) for i in range(m + 1)])
    su, sy = f_uv * onepx, f_yz * onepx
    w = order_at_zero(sy)
    return (all(c > 0 for c in su.coeffs) and all(c > 0 for c in sy.coeffs[w:])
            and su.degree >= w)


def plan_scale_reference(f_uv, f_yz):
    """The least m with _scaling_ok, found by trying m = 0, 1, ...; f_uv
    must have a nonzero constant term, as the synthesis pivot (u,v) has."""
    order_yz = order_at_zero(f_yz)
    bound = max(f_uv.degree, f_yz.degree - order_yz, order_yz)
    m = 0
    while not _scaling_ok(f_uv, f_yz, m):
        m += 1
        if m > bound:
            raise PostconditionFailed("scaling scan escaped its sufficiency bound")
    return m


# The paper's Figure 1 construction: a zigzag base word for two pivot
# pairs' geometric blocks, then loops for what the blocks leave.
# Acceptance criteria 6 and 7 check it; posring's walk never writes more
# letters than it does.


def _onepx_power(m):
    # (1 + X)**m via the binomial row
    return IntPoly([comb(m, i) for i in range(m + 1)])


def _coef(p, k):
    cs = p.coeffs
    return cs[k] if k < len(cs) else 0


def _zero_run(f):
    # longest run of zero coefficients between two nonzero ones
    nz = [k for k, c in enumerate(f.coeffs) if c]
    return max((b - a - 1 for a, b in zip(nz, nz[1:])), default=0)


class Plan(Record):
    """Everything the Figure 1 construction decided, inspectable in tests."""

    __slots__ = ("letters", "base", "loops", "scaled", "strip", "scale", "uv", "yz")

    def __init__(self, letters, base, loops, scaled, strip, scale, uv, yz):
        setfield(self, "letters", letters)
        setfield(self, "base", base)
        setfield(self, "loops", loops)
        setfield(self, "scaled", scaled)
        setfield(self, "strip", strip)
        setfield(self, "scale", scale)
        setfield(self, "uv", uv)
        setfield(self, "yz", yz)


def plan_reference(pairs, f_map):
    """Identity-word skeleton for nonzero f_ij over N[X] on a pair set.

    Pipeline: strip the common power of X; pick (u,v) as the smallest
    pair whose f has a nonzero constant term and (y,z) as the smallest
    pair of maximal degree; scale everything by (1 + X)**m with the
    least m that makes every coefficient of f_uv, and every one of f_yz
    from its order up, positive and lifts deg f_uv to ord f_yz; build
    the zigzag base word
    A_u B_v^Duv B_z^(Dyz-Duv) A_y^(Dyz-Duv) A_u^(Duv-1), whose
    product's upper-right entry is exactly
    sum_{i<Duv} X^i h_uv + sum_{Duv<=i<Dyz} X^i h_yz; subtract those two
    geometric blocks from the scaled pivots and realize every remaining
    coefficient c X^k as the loop A_i B_j where the following suffix has
    height k, or B_j A_i at the valley when k = Dyz, as a power when
    c > 1 and as two plain letters when c = 1.  The result has height 0
    and upper-right entry sum f'_ij h_ij for the scaled f'.  The caller
    checks that pairs is nonempty and each f_ij nonzero in N[X].
    """
    pairs = tuple(sorted(map(tuple, pairs)))
    fd = {p: f_map[p] for p in pairs}
    strip = min(order_at_zero(f) for f in fd.values())
    if strip:
        fd = {p: IntPoly(f.coeffs[strip:]) for p, f in fd.items()}
    uv = next(p for p in pairs if fd[p].coeffs[0] != 0)
    top = max(f.degree for f in fd.values())
    yz = next(p for p in pairs if fd[p].degree == top)

    # a nonnegative f times (1 + X)**m has a nonzero X^k exactly when f
    # has one among X^(k-m) .. X^k, so m bridges every inner zero run
    m = max(_zero_run(fd[uv]), _zero_run(fd[yz]),
            order_at_zero(fd[yz]) - fd[uv].degree)
    onepx = _onepx_power(m)
    scaled = {p: f * onepx for p, f in fd.items()}

    a = scaled[uv].degree
    d = scaled[yz].degree
    if a > d:
        raise PostconditionFailed("pivot degrees out of order")

    # remove the blocks the base word realizes; when uv == yz both
    # subtractions hit the same polynomial and d == a makes the second
    # block empty, which is the combined single-block case
    fhat = dict(scaled)
    if a:
        fhat[uv] = fhat[uv] - IntPoly([1] * a)
    if d > a:
        fhat[yz] = fhat[yz] - IntPoly([0] * a + [1] * (d - a))
    for p, f in fhat.items():
        if f.is_zero:
            raise PostconditionFailed("corrected witness vanished at %r" % (p,))
        if any(c < 0 for c in f.coeffs):
            raise PostconditionFailed("block subtraction went negative")

    # zigzag base: full descent, then the ascent with its last letter
    # rotated to the front so the X^0 rung exists
    descent = [(MINUS, uv[1])] * a + [(MINUS, yz[1])] * (d - a)
    ascent = [(PLUS, yz[0])] * (d - a) + [(PLUS, uv[0])] * a
    base = [ascent[-1]] + descent + ascent[:-1] if ascent else []

    loops = []
    for k in range(d + 1):
        for p in pairs:
            count = _coef(fhat[p], k)
            if count:
                loops.append((p, k, count))

    # anchors: position 2d-k has suffix height k for k < d; the valley
    # (position d+1, suffix height d-1) takes k = d with reversed loops
    # contributing X^(d-1+1); an empty base anchors everything at 0
    bucket = {}
    for p, k, count in loops:
        if d == 0:
            pos, loop = 0, ((PLUS, p[0]), (MINUS, p[1]))
        elif k == d:
            pos, loop = d + 1, ((MINUS, p[1]), (PLUS, p[0]))
        else:
            pos, loop = 2 * d - k, ((PLUS, p[0]), (MINUS, p[1]))
        bucket.setdefault(pos, []).extend([(loop, count)] if count > 1 else loop)

    out = []
    for pos in range(len(base) + 1):
        out.extend(bucket.get(pos, ()))
        if pos < len(base):
            out.append(base[pos])

    return Plan(
        letters=tuple(out),
        base=tuple(base),
        loops=tuple(loops),
        scaled=tuple((p, scaled[p]) for p in pairs),
        strip=strip,
        scale=m,
        uv=uv,
        yz=yz,
    )


def walk_scale_reference(total):
    """The least m with (1 + X)^m total free of inner zero runs, found by
    trying m = 0, 1, ...; total is a nonzero polynomial over N[X]."""
    m = 0
    while True:
        cs = (total * _onepx_power(m)).coeffs
        if all(cs[order_at_zero(total):]):
            return m
        m += 1
        if m > total.degree:
            raise PostconditionFailed("gap scan escaped its sufficiency bound")


def shift1_reference(p):
    """p(X + 1) by the textbook double loop of in-place additions."""
    r = p[:]
    n = len(r)
    for i in range(n - 1):
        for j in range(n - 2, i - 1, -1):
            r[j] += r[j + 1]
    return r


def eval_scaled_reference(p, num, den):
    """p(num/den) den^deg(p) by Horner with a running power of den."""
    if not p:
        return 0
    acc = p[-1]
    dp = 1
    for i in range(len(p) - 2, -1, -1):
        dp *= den
        acc = acc * num + p[i] * dp
    return acc


def to_unit_reference(p, u, v, D):
    """(1 + x)^n R(1/(1 + x)) for R(y) = D^n p((u + (v - u) y)/D).

    The shift by u is a double loop of multiply-adds on c_i D^(n - i),
    each power computed anew, and the final shift is
    ``shift1_reference``.
    """
    n, w = len(p) - 1, v - u
    r = [c * D ** (n - i) for i, c in enumerate(p)]
    for i in range(n):
        for j in range(n - 1, i - 1, -1):
            r[j] += u * r[j + 1]
    return shift1_reference([c * w**j for j, c in enumerate(r)][::-1])


def descartes_reference(p, lo, hi):
    """Descartes' bound for the roots of p in (lo, hi), Fractions lo < hi.

    With lo = u/D and hi = v/D they are the roots of
    R(y) = D^n p((u + (v - u) y)/D) in (0, 1), and the sign variations of
    (1 + x)^n R(1/(1 + x)) count them with multiplicity, up to an even
    excess.
    """
    D = lcm(lo.denominator, hi.denominator)
    return _k.sign_variations(to_unit_reference(p, int(lo * D), int(hi * D), D))


def strip2_reference(p):
    """p over its largest common power of two, coefficient by coefficient."""
    v = -1
    for c in p:
        if c:
            t = (c & -c).bit_length() - 1
            if v < 0 or t < v:
                v = t
            if v == 0:
                return p
    if v <= 0:
        return p
    return [c >> v for c in p]


def content_reference(a):
    """gcd of the coefficients, 0 for none, stopping at 1."""
    c = 0
    for x in a:
        c = gcd(c, x)
        if c == 1:
            break
    return c


def order_reference(a):
    """Count of leading zero coefficients of a nonzero a."""
    k = 0
    for c in a:
        if c:
            break
        k += 1
    return k


def _var01(q):
    # Descartes bound for the number of roots in the open interval (0, 1)
    if len(q) < 2:
        return 0
    return _k.sign_variations(shift1_reference(q[::-1]))


def vca_isolate_reference(s, budgeted=False):
    """Positive roots of a squarefree s with s(0) != 0, deg >= 1.

    Returns (exacts, intervals) with dyadic interval endpoints: each
    interval holds exactly one root, strictly inside, so the signs of s
    at the two endpoints differ.  ``budgeted`` admits any s, and returns
    None instead where posring would certify squarefreeness: at a split
    of a node _SQFREE_DEPTH deep or a double root on a split point.
    """
    if len(s) == 2:
        r = Fraction(-s[0], s[1])
        return ([r] if r > 0 else []), []
    bound = cauchy_root_bound(IntPoly._raw(s))
    K = 0
    while 2**K < bound:
        K += 1
    # map (0, 2^K) onto (0, 1)
    p0 = _k.strip2([c << (K * i) for i, c in enumerate(s)])
    exacts = []
    ivals = []
    stack = [(0, 0, p0)]
    while stack:
        c, k, q = stack.pop()
        v = _var01(q)
        if v == 0:
            continue
        scale = Fraction(2**K, 2**k)
        if v == 1:
            ivals.append((c * scale, (c + 1) * scale))
            continue
        if budgeted and k >= _SQFREE_DEPTH:
            return None
        n = len(q)
        left = _k.strip2([q[i] << (n - 1 - i) for i in range(n)])
        right = shift1_reference(left)
        if right[0] == 0:
            exacts.append((2 * c + 1) * scale / 2)
            right = right[1:]
            if right[0] == 0:
                if budgeted:
                    return None
                raise PostconditionFailed("squarefree part has a double root")
        stack.append((2 * c, k + 1, left))
        stack.append((2 * c + 1, k + 1, right))
    return exacts, ivals


def _sgn_at(cs, t):
    v = eval_scaled_reference(cs, t.numerator, t.denominator)
    return (v > 0) - (v < 0)


class _Box:
    """An isolating interval (lo, hi] on Fraction endpoints, the inputs
    it holds, its rep (the polynomial it bisects, dividing each of them)
    and the rep's sign at lo."""

    def __init__(self, lo, hi, members, rep, slo):
        self.lo, self.hi, self.members, self.rep, self.slo = lo, hi, members, rep, slo

    def step(self):
        m = (self.lo + self.hi) / 2
        sm = _sgn_at(self.rep, m)
        if sm == 0:
            raise PostconditionFailed("bisection landed on the root at %s" % m)
        if sm != self.slo:
            self.hi = m
        else:
            self.lo = m

    def overlaps(self, other):
        return max(self.lo, other.lo) < min(self.hi, other.hi)


def _narrow_reference(s, exacts, ivals):
    # halve each raw interval until it is at most 2^-v wide, 2^v the
    # power of two in lc(s), with s nonzero at both ends
    width = Fraction(1, s[-1] & -s[-1])
    roots = set(exacts)
    out = []
    for lo, hi in ivals:
        lo_root, hi_root = lo in roots, hi in roots
        slo = _sgn_at(_k.deriv(s) if lo_root else s, lo)
        while hi - lo > width or lo_root or hi_root:
            m = (lo + hi) / 2
            sm = _sgn_at(s, m)
            if sm == 0:
                exacts.append(m)
                break
            if sm != slo:
                hi, hi_root = m, False
            else:
                lo, lo_root = m, False
        else:
            out.append((lo, hi, slo))
    return out


def _resolve_reference(a, b):
    # a rep dividing the other is their gcd: the sign test runs at once.
    # Otherwise eight rounds of bisection come first
    g = prs_gcd(a.rep, b.rep)
    if len(g) < min(len(a.rep), len(b.rep)):
        for _ in range(8):
            a.step()
            b.step()
            if not a.overlaps(b):
                return None
    L, H = max(a.lo, b.lo), min(a.hi, b.hi)
    if len(g) > 1 and _sgn_at(g, L) != _sgn_at(g, H):
        return _Box(L, H, a.members | b.members, g, _sgn_at(g, L))
    while a.overlaps(b):
        a.step()
        b.step()
    return None


def isolate_nonneg_roots_reference(hs):
    """posring's isolating intervals, as (owners, lo, hi, exact) tuples,
    computed on Fraction endpoints; an exact root r is (owners, r, r, r).

    Each input's roots are isolated on its primitive part when the
    budgeted tree on that ends, else on its squarefree part, as posring
    does.

    The bisections are posring's own, in the same order, so the
    intervals must agree exactly: each raw interval is narrowed until it
    is dyadic-root-free, shrunk off every known exact root inside it (or
    dropped when that root is its own), and overlapping intervals are
    merged or separated, rescanning every pair after each step.
    """
    parts, known = [], set()
    for h in hs:
        cs = list(h.coeffs)
        k0 = next(i for i, c in enumerate(cs) if c)
        if k0:
            known.add(Fraction(0))
        s = _k.primitive_signed(cs[k0:])
        ivals = []
        if len(s) >= 2:
            found = vca_isolate_reference(s, budgeted=True)
            if found is None:
                s = list(squarefree_part(IntPoly(s)).coeffs)
                found = vca_isolate_reference(s)
            exacts, raw = found
            ivals = _narrow_reference(s, exacts, raw)
            known.update(exacts)
        parts.append((s, ivals))
    ordered = sorted(known)
    boxes = []
    for i, (s, ivals) in enumerate(parts):
        for lo, hi, slo in ivals:
            inside = [r for r in ordered if lo < r <= hi]
            if any(_sgn_at(s, r) == 0 for r in inside):
                continue
            box = _Box(lo, hi, {i}, s, slo)
            for r in inside:
                while box.lo < r <= box.hi:
                    box.step()
            boxes.append(box)
    while True:
        boxes.sort(key=lambda b: b.lo)
        pair = next(((x, y) for x in range(len(boxes)) for y in range(x + 1, len(boxes))
                     if boxes[x].overlaps(boxes[y])), None)
        if pair is None:
            break
        merged = _resolve_reference(*(boxes[j] for j in pair))
        if merged is not None:
            boxes = [b for j, b in enumerate(boxes) if j not in pair] + [merged]

    # exact roots first among equal lo, each the point lo = hi = r
    items = sorted([(r, 0, None) for r in ordered] + [(b.lo, 1, b) for b in boxes],
                   key=lambda t: t[:2])
    out = []
    for r, _, box in items:
        if box is not None:
            out.append((tuple(sorted(box.members)), box.lo, box.hi, None))
            continue
        owners = tuple(i for i, h in enumerate(hs) if _sgn_at(list(h.coeffs), r) == 0)
        out.append((owners, r, r, r))
    return out


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


def rational_feasibility_reference(sys):
    """Exact feasible point of the system, or None.

    Phase-1 simplex over Fractions: the coefficient-sum rows sum_j a_ij
    >= 1, rebuilt over the kept ids sys.cols, with surplus variables,
    artificials everywhere, Bland's rule (smallest eligible index in,
    smallest basic index out on ratio ties), so no cycling.  Returns the
    structural variable values only, 0 at the ids not in sys.cols.
    """
    n, w = sys.n, sys.degree + 1
    nv = len(sys.cols)
    ncols = nv + n
    rows = [[Fraction(c) for c in r] + [Fraction(0)] * (n + 1) for r in sys.eq]
    for s in range(n):
        row = [Fraction(int(v // w == s)) for v in sys.cols] + [Fraction(0)] * (n + 1)
        row[nv + s] = Fraction(-1)
        row[ncols] = Fraction(1)
        rows.append(row)
    m = len(rows)
    # w-row for minimizing the artificial sum: w + sum_j W[j] x_j = Wrhs
    W = [sum(r[j] for r in rows) for j in range(ncols + 1)]
    basis = [ncols + i for i in range(m)]  # virtual artificial ids
    while True:
        enter = next((j for j in range(ncols) if W[j] > 0), None)
        if enter is None:
            break
        leave, best = None, None
        for r in range(m):
            a = rows[r][enter]
            if a > 0:
                ratio = rows[r][ncols] / a
                if best is None or ratio < best or (
                    ratio == best and basis[r] < basis[leave]
                ):
                    leave, best = r, ratio
        if leave is None:
            raise PostconditionFailed("phase-1 objective is unbounded")
        piv = rows[leave][enter]
        rows[leave] = [c / piv for c in rows[leave]]
        for r in range(m):
            if r != leave and rows[r][enter]:
                f = rows[r][enter]
                rows[r] = [c - f * p for c, p in zip(rows[r], rows[leave])]
        f = W[enter]
        W = [c - f * p for c, p in zip(W, rows[leave])]
        basis[leave] = enter
    if W[ncols] != 0:
        return None
    x = [Fraction(0)] * (n * w)
    for r, bv in enumerate(basis):
        if bv < nv:
            x[sys.cols[bv]] = rows[r][ncols]
    return x


def build_feasibility_reference(hs, d):
    """The unreduced system of build_feasibility: no forcing rows.

    One row per output degree k = 0 .. d + max deg h_i, every entry at
    every a_ij kept, so cols is every id.
    """
    n, w = len(hs), d + 1
    bs = [list(h.coeffs) for h in hs]
    top = max((len(b) - 1 for b in bs if b), default=0)
    eq = []
    if any(bs):
        for k in range(d + top + 1):
            row = [0] * (n * w)
            for i, b in enumerate(bs):
                for j in range(w):
                    if 0 <= k - j < len(b):
                        row[i * w + j] = b[k - j]
            eq.append(tuple(row))
    return _nx.FeasibilitySystem(n, d, tuple(range(n * w)), tuple(eq))


def find_witness_linear(hs, degree_cap):
    """find_witness by plain linear escalation d = 0, 1, ..., degree_cap.

    Every degree from 0 on goes through posring's own presolve and LP,
    where find_witness starts at a lower bound; the witness is the first
    feasible point with denominators cleared and the content divided
    out, as there.
    """
    for d in range(degree_cap + 1):
        sys = _nx.build_feasibility(hs, d)
        x = None if sys is None else _nx.rational_feasibility(sys)
        if x is not None:
            den = lcm(*(v.denominator for v in x))
            ints = _k.primitive_signed([int(v * den) for v in x])
            return WitnessTuple(tuple(
                IntPoly(ints[i * (d + 1):(i + 1) * (d + 1)]) for i in range(len(hs))))
    return None


def _digit_vectors(D, c):
    # all nonzero coefficient tuples (c_0 .. c_D), lexicographic, c_0 slowest
    out = [v for v in _iproduct(range(c + 1), repeat=D + 1) if any(v)]
    return out


def brute_force_oracle(hs, deg_bound, coeff_bound):
    """First witness in lexicographic tuple order under hard bounds, or None.

    Enumerates every tuple of nonzero f_i with deg f_i <= deg_bound and
    coefficients in {0..coeff_bound}; tuples compare slot by slot, each
    slot by its coefficient vector (constant coefficient most
    significant).  Zero h_i slots take X^deg_bound, the order's minimal
    nonzero polynomial.  Raises SearchSpaceTooLarge past the cap.
    """
    if not hs:
        raise AllZero("empty instance")
    n, D, c = len(hs), deg_bound, coeff_bound
    per_slot = (c + 1) ** (D + 1) - 1
    if per_slot ** max(n - 1, 1) > _ORACLE_SPACE_CAP:
        raise SearchSpaceTooLarge("%d candidate tuples" % per_slot ** max(n - 1, 1))
    if c < 1:
        return None
    filler = IntPoly([0] * D + [1])
    active = [i for i, h in enumerate(hs) if not h.is_zero]
    if not active:
        return WitnessTuple(tuple(filler for _ in hs))
    vecs = _digit_vectors(D, c)
    found = (
        _oracle_meet(hs, active, vecs, D, c)
        if per_slot ** (len(active) - (len(active) // 2)) <= _ORACLE_TABLE_CAP
        else _oracle_dfs(hs, active, vecs, D, c)
    )
    if found is None:
        return None
    fs = [filler] * n
    for i, f in zip(active, found):
        fs[i] = f
    wt = WitnessTuple(tuple(fs))
    if not verify_witness(hs, list(wt.fs)):
        raise PostconditionFailed("oracle tuple fails substitution")
    return wt


def _kron_point(hs, D, c):
    # evaluation point exceeding twice any coefficient a bounded sum can
    # reach, so equality of packed values means equality of polynomials
    top = sum(c * (D + 1) * max(abs(x) for x in h.coeffs) for h in hs if not h.is_zero)
    return 2 * top + 3


def _slot_table(h, vecs, t0):
    # packed value of f*h at t0 for every digit vector f, in vec order
    hv = 0
    for x in reversed(list(h.coeffs)):
        hv = hv * t0 + x
    pw = [t0**j for j in range(len(vecs[0]))]
    out = []
    for v in vecs:
        fv = 0
        for j, d in enumerate(v):
            if d:
                fv += d * pw[j]
        out.append(fv * hv)
    return out


def _oracle_meet(hs, active, vecs, D, c):
    # meet in the middle: hash the right half, scan the left half in
    # lexicographic order so the first hit is the lexicographic minimum
    t0 = _kron_point(hs, D, c)
    split = len(active) // 2
    left, right = active[:split], active[split:]
    tables = {i: _slot_table(hs[i], vecs, t0) for i in active}
    best = {}
    for combo in _iproduct(*(range(len(vecs)) for _ in right)):
        key = sum(tables[i][k] for i, k in zip(right, combo))
        if key not in best:
            best[key] = combo
    if not left:
        combo = best.get(0)
        if combo is None:
            return None
        return [IntPoly(vecs[k]) for k in combo]
    for combo in _iproduct(*(range(len(vecs)) for _ in left)):
        key = -sum(tables[i][k] for i, k in zip(left, combo))
        hit = best.get(key)
        if hit is not None:
            return [IntPoly(vecs[k]) for k in combo + hit]
    return None


def _oracle_dfs(hs, active, vecs, D, c):
    # memory-light path: enumerate all slots but the last, complete the
    # last by exact division, pruned by value ranges at three points
    t0 = _kron_point(hs, D, c)
    *free, last = active
    tables = {i: _slot_table(hs[i], vecs, t0) for i in free}
    hlast = 0
    for x in reversed(list(hs[last].coeffs)):
        hlast = hlast * t0 + x
    pts = (Fraction(1), Fraction(2), Fraction(1, 2))
    fmin = [min(t**j for j in range(D + 1)) for t in pts]
    fmax = [c * sum(t**j for j in range(D + 1)) for t in pts]
    hval = {i: [eval_at_rational(hs[i], t) for t in pts] for i in active}
    fvals = {i: [[_f_at(v, t) for t in pts] for v in vecs] for i in free}

    def spread(i):
        lo, hi = [], []
        for p in range(len(pts)):
            a = hval[i][p] * fmin[p]
            b = hval[i][p] * fmax[p]
            lo.append(min(a, b))
            hi.append(max(a, b))
        return lo, hi

    # rest_lo[k], rest_hi[k] bound the reachable contribution of slots
    # free[k:] plus the completed last slot
    rest_lo = [list(spread(last)[0])]
    rest_hi = [list(spread(last)[1])]
    for i in reversed(free):
        lo, hi = spread(i)
        rest_lo.insert(0, [a + b for a, b in zip(lo, rest_lo[0])])
        rest_hi.insert(0, [a + b for a, b in zip(hi, rest_hi[0])])

    def rec(pos, packed, samples):
        if pos == len(free):
            if packed == 0:
                return None  # forces f_last = 0
            q, r = divmod(-packed, hlast)
            if r or q <= 0:
                return None
            if _unpack(q, t0, D, c) is None:
                return None
            return []
        for k, v in enumerate(vecs):
            npacked = packed + tables[free[pos]][k]
            nsamples = [
                s + fvals[free[pos]][k][p] * hval[free[pos]][p]
                for p, s in enumerate(samples)
            ]
            ok = all(
                ns + rl <= 0 <= ns + rh
                for ns, rl, rh in zip(nsamples, rest_lo[pos + 1], rest_hi[pos + 1])
            )
            if not ok:
                continue
            tail = rec(pos + 1, npacked, nsamples)
            if tail is not None:
                return [IntPoly(v)] + tail
        return None

    got = rec(0, 0, [Fraction(0)] * len(pts))
    if got is None:
        return None
    # reconstruct the completed last slot
    total = []
    for f, i in zip(got, free):
        total = _k.add(total, _k.mul(list(f.coeffs), list(hs[i].coeffs)))
    q = _k.exact_div(_k.neg(total), list(hs[last].coeffs))
    return got + [IntPoly._raw(q)]


def _f_at(vec, t):
    out = Fraction(0)
    for d in reversed(vec):
        out = out * t + d
    return out


def _unpack(value, t0, D, c):
    # digits of value in base t0, valid iff all land in {0..c} with deg <= D
    cs = []
    while value:
        value, r = divmod(value, t0)
        if r > c:
            return None
        cs.append(r)
        if len(cs) > D + 1:
            return None
    if not cs:
        return None
    return cs


def exhaustive_identity_search(gens, max_len):
    """Breadth-first search for a nonempty word multiplying to identity.

    Independent of the cover machinery; meant as a cross-check on small
    fixtures.  Returns a shortest identity word, or None if none exists
    up to max_len letters.
    """
    target = WreathElement.identity()
    letters = [(PLUS, i) for i in range(1, len(gens.plus) + 1)]
    letters += [(MINUS, j) for j in range(1, len(gens.minus) + 1)]
    elems = {ref: gens.element(*ref) for ref in letters}
    frontier = {target: ()}
    seen = set()
    for _ in range(max_len):
        step = {}
        for elem, prefix in frontier.items():
            for ref in letters:
                nxt = mul(elem, elems[ref])
                if nxt == target:
                    return Word(prefix + (ref,))
                if nxt in seen or nxt in step:
                    continue
                step[nxt] = prefix + (ref,)
        seen |= frontier.keys()
        frontier = step
        if not frontier:
            return None
    return None


def enumerate_covers(I, J, cap=COVER_CAP):
    """Yield every subset of I x J with full projections, smallest first.

    Subsets of equal size come in lexicographic order of the sorted pair
    grid, so the stream is deterministic; more than cap pairs in I x J
    raise SearchSpaceTooLarge.
    """
    rows = tuple(sorted(set(I)))
    cols = tuple(sorted(set(J)))
    grid = [(i, j) for i in rows for j in cols]
    if len(grid) > cap:
        raise SearchSpaceTooLarge("%d candidate pairs exceed the cover cap %d"
                                  % (len(grid), cap))
    row_set, col_set = set(rows), set(cols)
    for size in range(max(len(rows), len(cols)), len(grid) + 1):
        for combo in combinations(grid, size):
            if {p[0] for p in combo} == row_set and {p[1] for p in combo} == col_set:
                yield CoverSubset(combo)
