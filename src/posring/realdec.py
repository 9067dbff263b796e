"""Real-root machinery over the nonnegative axis.

Descartes-style bisection isolates the nonnegative roots of a list of
polynomials into sorted, pairwise-disjoint half-open intervals (lo, hi],
or the point lo = hi for a root it finds exactly, one per distinct root,
listing every polynomial it is a root of; a uniform-sign scan decides
whether some t >= 0 makes every h_i(t) weakly nonnegative or weakly
nonpositive, isolating only the inputs it needs.

The scan runs in rounds over a growing subset S of the inputs.  A round
is a sweep that evaluates each polynomial of S at t = 0 and then once
after each root it owns, at the next root, because isolating S already
proves two facts:

- a root's interval (lo, hi] holds no root of another member of S, so
  at an algebraic root every non-owner has its sign at hi;
- only t = 0 and the roots can be the first uniform point of S: between
  consecutive roots, and past the last one, the signs are those at the
  root to the left with that root's owners made nonzero, and with no
  roots the signs at 0 hold on all of [0, oo).

So the sign vector changes only at a root, and only in that root's
owners: set to 0 at the root, then to their sign at the next root's hi,
which is that root itself when it is exact.  No owner has a root in
between, and an owner of the next root is set to 0 there at once.  The
sweep keeps the vector with running counts of +1 and -1 entries, and
tests each root for uniformity in time linear in its owners and the
previous root's.

A point uniform over all inputs is uniform over S, so S's first uniform
point u comes no later than theirs.  It is theirs when every input
outside S keeps the vector uniform at u: signed exactly at a rational u,
else at hi once Descartes' rule shows that it has no root in (lo, hi).
Otherwise the inputs that break it, or cannot be signed so, join S for
the next round, which at least doubles it.  An input whose coefficients
show no sign variation has no positive root, so it keeps one sign on
(0, oo) and is never isolated.

Internally each polynomial q, with X^k stripped, is isolated on a
representative s in which every positive root of q is simple: first
primitive(q), by Descartes bisection in the Bernstein basis (one Taylor
shift per polynomial, then one addition-only de Casteljau pass per
split).  Descartes' bound counts roots with multiplicity, so that tree
ends as it would on the squarefree part unless q has a multiple root on
or near the positive axis.  Only when the tree runs deep, or meets a
double root at a split point, does it give up; then gcd(q, q') is
computed, and a tree with no budget runs on the squarefree part s
(primitive(q) again when q proves squarefree).  Intervals are refined
by sign changes of s.  Every gcd is ``kernels.gcd``, Brown's modular
gcd: one unit image mod a prime proves a pair coprime, and a common
factor costs a CRT lift over a few primes and a trial division.

Overlapping intervals of different inputs are merged when they hold a
shared root, else refined until disjoint; a merged interval is refined
on a common factor of its owners.  When one side's polynomial divides
the other's it is that factor, and the shared-root test runs at once;
only other pairs are bisected a few rounds before a gcd is paid for.

Every endpoint isolation touches is dyadic, so an interval is kept as
integers (a, b, k) for (a/2^k, b/2^k].  A bisection step evaluates s at
a + b over 2^(k + 1) and goes to (2a, a + b, k + 1) or (a + b, 2b, k + 1);
two intervals compare at the larger exponent, by shifts.  Fractions are
left for exact roots, which need not be dyadic (1/3 from 3X - 1), and
for ``IsolatingInterval.lo`` and ``hi`` at the public boundary.

Isolation leaves every interval dyadic-root-free: the tree narrows each
leaf as it emits it, before any refinement, until it is at most 2^-v
wide, v the number of times 2 divides lc(s), and s is nonzero at both
ends.  A split-point root stays in the tree, since a zero coefficient
changes no sign variation count; so a leaf's zero end coefficient marks
an end that is a root, and its first nonzero one gives the sign of s
just right of lo.  A dyadic root a/2^j of s in lowest terms needs 2^j to
divide lc(s), so it is a multiple of 2^-v and never strictly inside an
aligned dyadic interval that narrow: the root inside is not dyadic, and
no later bisection midpoint, which is dyadic, can land on a root of s.
Every dyadic root comes out exact on the way.

Every Descartes test maps its interval onto (0, 1) through one helper,
``_to_unit``: the ends as integers u/D and v/D over a common
denominator, the coefficients scaled by running powers of u and D, and
``kernels.shift1``, once when the interval starts at 0, as at a tree's
root, else twice.  Between the two shifts coefficient j is divided
exactly by u^j and multiplied by (v - u)^j, so the result is the exact
image of the interval, with no power of u carried into the second
shift.

``signs_at_root`` checks by Descartes' rule that an interval holds one
simple root, once, then signs each polynomial there: by a midpoint
when Descartes' rule shows that it has no root in the interval, else 0
when it shares the root, else by bisecting until Descartes' rule shows
no root.  nxsolve.verify_certificate calls it to re-check an algebraic
sample, so that re-check runs inside the module that produced the
sample, not apart from it.
"""

import bisect
from fractions import Fraction
from functools import lru_cache
from math import comb, lcm

from posring import kernels as _k
from posring._record import Record
from posring.errors import PostconditionFailed, ZeroPolynomial


class RationalPoint(Record):
    __slots__ = ("value",)


class AlgebraicRoot(Record):
    __slots__ = ("interval",)


class SignVector(Record):
    """Signs of every h_i at one sample point."""

    __slots__ = ("sample", "signs")

    @property
    def uniform_nonneg(self):
        return -1 not in self.signs

    @property
    def uniform_nonpos(self):
        return 1 not in self.signs

    @property
    def is_uniform(self):
        return self.uniform_nonneg or self.uniform_nonpos


class IsolatingInterval:
    """One distinct real root: the point lo = hi when it is known
    exactly, else boxed in the half-open interval (lo, hi].

    lo and hi are Fractions, converted from isolation's integer form
    (see the module doc).  ``exact`` carries the root value when it is a
    known rational; then lo = hi = exact and ``s`` is None.  Otherwise
    every owner has this root and no other in (lo, hi], no other input
    polynomial has a root there, and ``s`` is the sample poly, the one
    refinement bisected: a primitive integer polynomial dividing every
    owner, whose only root in (lo, hi] is this one, simple, so its signs
    at lo and hi are opposite and nonzero.
    ``multiplicity_free`` is true when the root is simple in every owner.
    """

    __slots__ = ("owners", "lo", "hi", "multiplicity_free", "exact", "s")

    def __init__(self, owners, lo, hi, multiplicity_free, exact, s):
        self.owners = tuple(owners)
        self.lo = lo
        self.hi = hi
        self.multiplicity_free = multiplicity_free
        self.exact = exact
        self.s = s

    def __repr__(self):
        tag = " exact=%s" % self.exact if self.exact is not None else ""
        return "IsolatingInterval(owners=%r, (%s, %s]%s)" % (
            self.owners,
            self.lo,
            self.hi,
            tag,
        )


def _ev(cs, t):
    # integer with the sign of (poly cs)(t), t an int or a Fraction
    return _k.eval_scaled(cs, t.numerator, t.denominator)


def _sgn(v):
    return (v > 0) - (v < 0)


# ---------------------------------------------------------------------------
# isolation internals


# A budgeted tree on primitive(q) gives up at the split of a node this
# deep, and only then is gcd(q, q') paid for.  A multiple positive root
# of q keeps every node around it at two or more sign variations, so
# that tree never ends; on a squarefree q it ends where the roots
# separate.  The depth counts from the tree's own root, (0, 2^K) below.
# Measured over every part the decide calls of perfbench's dense_decide,
# wide_decide and wreath_grid pools isolate (176, 553 and 324 parts; 176,
# 430 and 295 distinct): the deepest split in a squarefree part is at
# depth 6 (8 if counted from Cauchy's root), 4 in wide_decide and
# 2 in wreath_grid.  Each of the distinct non-squarefree parts, 22 in
# wide_decide and 2 in wreath_grid, gives up under a budget of 10 and of
# 16, so the lower budget only ends the dead-end trees sooner.  10 leaves
# room above 6, and a squarefree part that runs deeper pays for the gcd
# and a second tree.
_SQFREE_DEPTH = 10

# A tree on s of at least this degree starts at 2^_lm_bound(s) when that
# is below Cauchy's bound.  The bound costs O(n) and each split it
# saves O(n^2).  Measured on the squarefree parts of random 4- and 64-bit
# polys (Python 3.11.7, 2 CPUs, best of 5), tree time with the bound over
# without was 0.97-1.06 at degrees 5-8, 0.88-1.00 at 10-12 and 0.71-0.86
# at 24-100; on the 584 trees of wide_decide's pool, all of degree 6 or
# less, the bound cost 8-11 % of their time
_LM_DEGREE = 16


def _sqfree_data(q):
    """(s, g) for q with q(0) != 0, deg >= 1: s is the squarefree part.

    g = gcd(q, q') by the modular gcd, kept for multiplicity checks, or
    None when it is 1 (all roots simple, s = primitive(q)).
    """
    g = _k.gcd(q, _k.deriv(q))
    if len(g) == 1:
        return _k.primitive_signed(q), None
    s = _k.exact_div(_k.primitive_signed(q), g)
    if s is None:
        raise PostconditionFailed("gcd(q, q') does not divide q's primitive part")
    return s, g


# bounded: an entry holds n + 1 integers of about 1.44 n bits
@lru_cache(maxsize=128)
def _bernstein_weights(n):
    # M / C(n, i) with M = lcm_i C(n, i): scales C(n, i) * b_i to M * b_i
    cs = [comb(n, i) for i in range(n + 1)]
    m = lcm(*cs)
    return tuple(m // c for c in cs)


def _homog(p, a, b):
    # c_i a^i b^(n - i): b^n p(a x / b) with n = deg p, by running powers
    out = []
    pa = 1
    for c in p:
        out.append(c * pa)
        pa *= a
    pb = b
    for i in range(len(out) - 2, -1, -1):
        out[i] *= pb
        pb *= b
    return out


def _to_unit(p, u, v, D):
    # (lo, hi) = (u/D, v/D) mapped onto (0, 1): the roots of p in (lo, hi)
    # are those of R(y) = D^n p((u + (v - u) y)/D) in (0, 1), and the sign
    # variations of (1 + x)^n R(1/(1 + x)) count them with multiplicity,
    # up to an even excess (Descartes' rule).  Returns those coefficients.
    # R is reached by shift1 alone: coefficient j of D^n p(u (x + 1)/D) is
    # a sum of c_i u^i D^(n - i) C(i, j) over i >= j, so u^j divides it,
    # and the quotient times (v - u)^j is R's; u = 0 needs no shift
    if not u:
        return _k.shift1(_homog(p, v, D)[::-1])
    r = []
    w = v - u
    pu = pw = 1
    for c in _k.shift1(_homog(p, u, D)):
        q, rem = divmod(c, pu)
        if rem:
            raise PostconditionFailed("u^j does not divide coefficient j of the shift by u/D")
        r.append(q * pw)
        pu *= u
        pw *= w
    return _k.shift1(r[::-1])


def _lm_bound(s):
    """The least K >= 0 for which the local-max bound shows that s, of
    degree >= 1, has no root in [2^K, oo).

    With s made positive-leading and read from the top down, each
    negative s_i is paired with s_j, the largest positive coefficient
    above it so far, and gets the weight 2^-t, where t = 1, 2, ... counts
    s_j's pairings (Akritas, Strzebonski and Vigklas, "Improving the
    performance of the continued fractions method using new bounds of
    positive roots", 2008).  K is the least with |s_i| 2^t < s_j 2^(K(j-i))
    for every such pair.  Then for x >= 2^K each negative term is below
    its weight times the paired positive term, |s_i| x^i < 2^-t s_j x^j,
    and the weights one s_j gives out sum to less than 1, so the negative
    terms together are strictly below the positive ones and s(x) > 0.
    O(n) integer comparisons, by bit lengths.
    """
    if s[-1] < 0:
        s = [-c for c in s]
    K = 0
    top, j, t = s[-1], len(s) - 1, 0
    for i in range(len(s) - 2, -1, -1):
        c = s[i]
        if c > top:
            top, j, t = c, i, 0
        elif c < 0:
            t += 1
            # the least m with top 2^m > |c| 2^t, then K(j - i) >= m
            need = -c << t
            m = need.bit_length() - top.bit_length()
            m += top << max(m, 0) <= need
            K = max(K, -(-m // (j - i)))
    return K


def _vca_isolate(s, budgeted=False):
    """Positive roots of s with s(0) != 0, deg >= 1, each simple in s.

    Returns (exacts, intervals), the exacts as Fractions and each
    interval as (a, b, k, slo) for (a/2^k, b/2^k]: it holds exactly one
    root, strictly inside and simple, it is dyadic-root-free (see the
    module doc), and slo is the sign of s at a/2^k, opposite to the sign
    at b/2^k.

    Unless ``budgeted``, s must be squarefree.  A budgeted tree admits
    any s and gives up, returning None, at the first split of a node
    _SQFREE_DEPTH deep or at the first double root on a split point.  A
    tree that ends before either event is right on any s: Descartes'
    bound counts roots with multiplicity, so a leaf with one sign
    variation holds one simple root, and a split-point root with
    right_1 != 0 is simple.

    Each node of the bisection tree is a subinterval, mapped onto (0, 1)
    as q = sum b_i C(n, i) x^i (1 - x)^(n - i), and kept as a positive
    integer multiple of its Bernstein coefficients b_i.  Descartes'
    bound for the roots of q in (0, 1) is the sign variation count of
    (1 + x)^n q(1/(1 + x)), whose coefficients are the C(n, i) b_i in
    reverse order; the C(n, i) are positive, so the bound is the
    variation count of the b_i themselves.  The root node gets them from
    ``_to_unit`` on (0, 2^K), one Taylor shift, and every split takes one
    de Casteljau pass.
    A root at the midpoint shows as right_0 == 0 and stays in the right
    child: with q = x q1, the b_i are those of q1 shifted up one place
    and scaled by the positive (i + 1) / n, so the zero changes no
    variation count.  A zero right_1 as well makes the root double,
    which raises PostconditionFailed in an unbudgeted tree.

    2^K is above every positive root: K is Cauchy's bound on all |roots|,
    lowered to ``_lm_bound`` on the positive roots when deg s >=
    _LM_DEGREE.  Either way s has no root in [2^K, oo), and a smaller K
    only starts the tree at a node of the larger K's tree, so the
    exacts and intervals, as Fractions, are the same; only the integer
    triples that stand for them, and the depth _SQFREE_DEPTH counts
    from, change.

    A one-variation leaf is narrowed as it is emitted, from what the
    tree knows: lo is a root exactly when b_0 == 0 and hi exactly when
    b_n == 0, and the first nonzero b_i has the sign of s just right of
    lo.
    """
    if len(s) == 2:
        r = Fraction(-s[0], s[1])
        return ([r] if r > 0 else []), []
    n = len(s) - 1
    # the least K with 2^K >= 1 + m / |lc(s)|, m the largest other
    # |coefficient|, which Cauchy's bound puts above every |root| of s:
    # 2^K - 1 >= ceil(m / |lc(s)|).  From degree _LM_DEGREE on, the
    # local-max bound on the positive roots lowers it where it can
    K = (-(-max(abs(c) for c in s[:-1]) // abs(s[-1]))).bit_length()
    if n >= _LM_DEGREE:
        K = min(K, _lm_bound(s))
    t = _to_unit(s, 0, 1 << K, 1)
    w = _bernstein_weights(n)
    # 2^v divides lc(s): leaves are narrowed to width 2^-v
    v = (s[-1] & -s[-1]).bit_length() - 1
    exacts = []
    ivals = []
    # (c, k, b_i)
    stack = [(0, 0, _k.strip2([t[n - i] * w[i] for i in range(n + 1)]))]
    while stack:
        c, k, bs = stack.pop()
        var = _k.sign_variations(bs)
        if var == 0:
            continue
        if var == 1:
            # the node is (c 2^K / 2^k, (c + 1) 2^K / 2^k]: halve it until
            # it is at most 2^-v wide and s is nonzero at both ends; a
            # midpoint that lands on the root joins exacts instead
            lo_root, hi_root = bs[0] == 0, bs[-1] == 0
            slo = _sgn(next(x for x in bs if x))
            e = k - K
            a, b, k = (c, c + 1, e) if e >= 0 else (c << -e, (c + 1) << -e, 0)
            while (b - a) << v > 1 << k or lo_root or hi_root:
                m, k = a + b, k + 1
                vm = _k.eval_scaled(s, m, 1 << k)
                if vm == 0:
                    exacts.append(Fraction(m, 1 << k))
                    break
                if _sgn(vm) != slo:
                    a, b, hi_root = a << 1, m, False
                else:
                    a, b, lo_root = m, b << 1, False
            else:
                ivals.append((a, b, k, slo))
            continue
        if budgeted and k >= _SQFREE_DEPTH:
            return None
        left, right = _k.casteljau_split(bs)
        if right[0] == 0:
            if right[1] == 0:
                if budgeted:
                    return None
                raise PostconditionFailed("squarefree part has a double root")
            exacts.append(Fraction((2 * c + 1) << K, 2 << k))
        stack.append((2 * c, k + 1, _k.strip2(left)))
        stack.append((2 * c + 1, k + 1, _k.strip2(right)))
    return exacts, ivals


class _PolyData:
    __slots__ = ("cs", "k0", "q", "s", "gfac", "exacts", "ivals")

    def __init__(self, cs):
        self.cs = cs
        self.k0 = _k.order(cs)
        self.q = cs[self.k0:]
        # by Descartes' rule of signs, q has a positive root only if its
        # coefficients change sign
        if _k.sign_variations(self.q):
            # s, the representative: primitive(q) when the budgeted tree
            # on it ends; else the tree gave up, and s is q's squarefree
            # part, isolated again (primitive(q) when gcd(q, q') is 1),
            # with gfac that gcd when it is not 1
            self.s, self.gfac = _k.primitive_signed(self.q), None
            found = _vca_isolate(self.s, budgeted=True)
            if found is None:
                self.s, self.gfac = _sqfree_data(self.q)
                found = _vca_isolate(self.s)
            self.exacts, self.ivals = found
        else:
            self.s, self.gfac = self.q, None
            self.exacts, self.ivals = [], []


class _IvalCluster:
    __slots__ = ("a", "b", "k", "members", "slo", "rep")

    def __init__(self, a, b, k, members, slo, rep):
        self.a, self.b, self.k = a, b, k  # the interval (a/2^k, b/2^k]
        self.members = members  # the set of input indices it holds
        # the polynomial refinement bisects: it divides every member,
        # and its only root in the interval is the cluster's root,
        # simple in it.  One interval's cluster starts with its owner's
        # part; a merge takes the common factor it found.  Any such rep
        # takes the same bisection branches, since a step only asks on
        # which side of the midpoint the root lies
        self.rep = rep
        # sign of rep at lo: lo only moves toward the root, never onto
        # or past it, so the sign holds while the cluster lives.  A merge
        # changes rep, so it stores the new rep's sign at the new lo
        self.slo = slo

    def __lt__(self, other):
        # order by lo, for the sort and bisect of the overlap sweep
        d = self.k - other.k
        if d >= 0:
            return self.a < other.a << d
        return self.a << -d < other.a


def _refine_step(c):
    m = c.a + c.b
    k = c.k + 1
    vm = _k.eval_scaled(c.rep, m, 1 << k)
    if vm == 0:
        raise PostconditionFailed("bisection landed on the root at %s" % Fraction(m, 1 << k))
    c.k = k
    if _sgn(vm) != c.slo:
        c.a, c.b = c.a << 1, m
    else:
        c.a, c.b = m, c.b << 1


def _shrink_to_exclude(c, r):
    # bisect around the cluster's root until the rational r is outside
    p, q = r.numerator, r.denominator
    while c.a * q < p << c.k <= c.b * q:
        _refine_step(c)


def _overlap(x, y):
    # lo_x < hi_y and lo_y < hi_x, at the larger exponent
    d = x.k - y.k
    if d >= 0:
        return x.a < y.b << d and y.a << d < x.b
    return x.a << -d < y.b and y.a < x.b << -d


def _separate(a, b):
    while _overlap(a, b):
        _refine_step(a)
        _refine_step(b)


def _resolve_overlap(a, b):
    # merge clusters sharing their root, else refine until disjoint.
    # A shorter rep dividing the other is their gcd: no bisection, no gcd
    d, e = (a.rep, b.rep) if len(a.rep) <= len(b.rep) else (b.rep, a.rep)
    if _k.exact_div(e, d) is not None:
        g = d
    else:
        # 8 bisection rounds first: sending each such pair straight to
        # kernels.gcd read wide_decide gmean_s 3-13 % slower (3
        # alternating 8 s pairs, seed 1, Python 3.11.7 on 2 CPUs) and
        # changed all 48 of its pool entries' isolation outputs
        for _ in range(8):
            _refine_step(a)
            _refine_step(b)
            if not _overlap(a, b):
                return None
        g = _k.gcd(a.rep, b.rep)
    if len(g) > 1:
        # g divides both reps, each with one simple root in its interval
        # and none at its ends, so g has at most one root in the
        # intersection, a simple one, and non-root endpoints; a sign
        # change means the root is shared.  (L, H] lies inside both
        # intervals and a sub-interval never has more sign variations, so
        # a dividing rep with one Descartes variation on its interval
        # keeps it on (L, H]
        k = max(a.k, b.k)
        L = max(a.a << (k - a.k), b.a << (k - b.k))
        H = min(a.b << (k - a.k), b.b << (k - b.k))
        den = 1 << k
        gL = _sgn(_k.eval_scaled(g, L, den))
        if gL != _sgn(_k.eval_scaled(g, H, den)):
            # g is the merged cluster's rep: it divides every member and
            # has the shared root, simple, as its only root in (L, H]
            return _IvalCluster(L, H, k, a.members | b.members, gL, g)
    _separate(a, b)
    return None


def _build_clusters(data):
    # data maps each input index to its trees, walked in index order.
    # The known exact roots with their owners, read off the trees: 0 is
    # owned by each input X divides, a positive r by each input whose
    # tree found it exact, and below by each input with an interval
    # holding r where s vanishes.  Every other positive root of an input
    # is alone inside one of its intervals, so no owner is missed
    items = sorted(data.items())
    exact_owned = {}
    for i, d in items:
        for r in ([Fraction(0)] if d.k0 else []) + d.exacts:
            exact_owned.setdefault(r, []).append(i)
    ordered_pq = [(r.numerator, r.denominator, r) for r in sorted(exact_owned)]

    recs = []
    for i, d in items:
        for a, b, k, slo in d.ivals:
            # drop before shrinking: the interval's root may be a known
            # root that is not dyadic, such as 1/3 from 3X - 1, and no
            # bisection excludes it.  r > 0, and s has the positive roots
            # of input i, at most one of them in the interval
            inside = [r for p, q, r in ordered_pq if a * q < p << k <= b * q]
            owned = next((r for r in inside if _ev(d.s, r) == 0), None)
            if owned is not None:
                exact_owned[owned].append(i)
                continue
            c = _IvalCluster(a, b, k, {i}, slo, d.s)
            for r in inside:
                _shrink_to_exclude(c, r)
            recs.append(c)

    # resolve overlaps: merge shared roots, separate distinct ones.  One
    # sweep picks the same pairs, in the same order, as rescanning every
    # pair of the lo-sorted list from the start after each step would:
    # - adjacent pairs are enough: with the list sorted by lo, if x
    #   overlaps a later y it overlaps x + 1 too, since
    #   lo_x <= lo_x+1 <= lo_y < hi_x and every interval has lo < hi;
    # - the prefix stays final: resolving a pair only raises a lo or
    #   lowers a hi, and a merge keeps (max lo, min hi), so the clusters
    #   before x stay sorted and clear of everything after them;
    # - reinsert instead of re-sorting: a stable sort by lo puts a merged
    #   cluster after its ties and each of a separated pair before its
    #   ties, all at x or later (a separated pair is disjoint, so it ties
    #   neither with itself nor with the prefix).
    recs.sort()
    x = 0
    while x + 1 < len(recs):
        a, b = recs[x], recs[x + 1]
        if not _overlap(a, b):
            x += 1
            continue
        merged = _resolve_overlap(a, b)
        del recs[x:x + 2]
        if merged is not None:
            bisect.insort_right(recs, merged, lo=x)
        else:
            for c in (a, b):
                recs.insert(bisect.bisect_left(recs, c, lo=x), c)
    return exact_owned, recs


def _synthesize(data, exact_owned, recs):
    # (lo, is_ival, owners or cluster): an exact root sorts before an
    # interval starting at it, and no two entries tie on both
    items = sorted([(r, False, owners) for r, owners in exact_owned.items()]
                   + [(Fraction(c.a, 1 << c.k), True, c) for c in recs])
    out = []
    prev_hi = None
    for lo, is_ival, payload in items:
        if not is_ival:
            mult_free = all(_ev(_k.deriv(data[i].cs), lo) != 0 for i in payload)
            out.append(IsolatingInterval(sorted(payload), lo, lo, mult_free, lo, None))
            prev_hi = lo
        else:
            c = payload
            den = 1 << c.k
            hi = Fraction(c.b, den)
            if prev_hi is not None and lo < prev_hi:
                raise PostconditionFailed("isolating intervals overlap")
            mult_free = True
            for i in sorted(c.members):
                g = data[i].gfac
                if g is None:
                    continue
                # g's roots are roots of member i's part, and no endpoint
                # is one: each is an end of i's stored interval or a
                # dyadic point inside it
                if _k.eval_scaled(g, c.a, den) == 0 or _k.eval_scaled(g, c.b, den) == 0:
                    raise PostconditionFailed("a cluster endpoint is a root")
                gch = _k.signed_prs(g)
                if _k.var_at(gch, c.a, den) - _k.var_at(gch, c.b, den) >= 1:
                    mult_free = False
                    break
            out.append(IsolatingInterval(sorted(c.members), lo, hi, mult_free, None, c.rep))
            prev_hi = hi
    return out


def isolate_nonneg_roots(hs, *, _data=None):
    """Sorted, pairwise-disjoint isolating intervals for every root of
    every h_i in [0, oo).

    A root shared by several polynomials gets one interval listing all
    owners; a root found exactly is the point lo = hi = exact.  Raises
    ZeroPolynomial when an input is zero.  ``_data`` is internal: a dict
    from input index to that input's isolation trees, when the caller
    built them; only the inputs it holds are isolated, and owners keep
    their indices into hs.
    """
    for h in hs:
        if h.is_zero:
            raise ZeroPolynomial("cannot isolate roots of the zero polynomial")
    if _data is None:
        _data = {i: _PolyData(list(h.coeffs)) for i, h in enumerate(hs)}
    exact_owned, recs = _build_clusters(_data)
    return _synthesize(_data, exact_owned, recs)


def _descartes(p, lo, hi):
    # Descartes' bound for the roots of p in (lo, hi), Fractions with
    # lo < hi: the sign variation count of their map onto (0, 1)
    D = lcm(lo.denominator, hi.denominator)
    u = lo.numerator * (D // lo.denominator)
    v = hi.numerator * (D // hi.denominator)
    return _k.sign_variations(_to_unit(p, u, v, D))


def signs_at_root(qs, root):
    """Tuple of the signs of each q in qs at an IsolatingInterval's root.

    An exact root is evaluated at.  Otherwise None, refusing the
    interval, unless root.s (the sample poly) is nonzero at lo and hi
    with opposite signs and Descartes' rule proves it has one root in
    (lo, hi], a simple one; this is checked once for all of qs.  When q
    has one sign at lo and hi and Descartes' rule shows that it has no
    root in (lo, hi), its sign is read at the midpoint.  Otherwise it is
    0 exactly when gcd(root.s, q) has a root in the interval; else the
    interval is bisected on root.s until Descartes' rule shows that q
    has no root inside, and q's sign is read at the midpoint, or at a
    midpoint that lands on the root.
    """
    if root.exact is not None:
        return tuple(_sgn(_ev(list(q.coeffs), root.exact)) for q in qs)
    s = root.s
    lo, hi = root.lo, root.hi
    slo = _sgn(_ev(s, lo))
    # opposite signs at lo and hi make the bound odd: 1 is one simple root
    if slo == 0 or _sgn(_ev(s, hi)) != -slo or _descartes(s, lo, hi) != 1:
        return None
    signs = []
    for q in qs:
        cs = list(q.coeffs)
        # the root is strictly inside (a, b): once q has no root in (a, b)
        # either, it has one sign there
        a, b = lo, hi
        m = Fraction(a + b, 2)
        # a sign change at the ends shows a root without the test
        if _sgn(_ev(cs, lo)) * _sgn(_ev(cs, hi)) < 0 or _descartes(cs, a, b):
            g = _k.gcd(s, cs)
            # g divides s, so it is nonzero at lo and hi too: a sign
            # change pins the shared root
            if len(g) >= 2 and _sgn(_ev(g, lo)) != _sgn(_ev(g, hi)):
                signs.append(0)
                continue
            while True:
                sm = _sgn(_ev(s, m))
                if sm == 0:
                    break
                a, b = (a, m) if sm != slo else (m, b)
                m = Fraction(a + b, 2)
                if not _descartes(cs, a, b):
                    break
        signs.append(_sgn(_ev(cs, m)))
    return tuple(signs)


def _sweep(hs_cs, signs, members, roots):
    # the first of the sorted roots of the inputs in members where their
    # sign vector, mixed at t = 0, turns uniform, or None; signs is updated
    # in place, so its members' entries hold the vector at that root.  At
    # each root its owners get sign 0, and running counts of +1 and -1
    # entries tell whether the vector is uniform.  The previous root's
    # owners are signed again on reaching the next root, at its hi, which
    # is the root itself when it is exact: from the previous root up to
    # hi, none of them has a root but this one, whose owners are zeroed
    # next.  The last root's owners are never signed again
    pos = sum(signs[i] > 0 for i in members)
    neg = sum(signs[i] < 0 for i in members)
    prev = ()
    for root in roots:
        for i in prev:
            sg = signs[i] = _sgn(_ev(hs_cs[i], root.hi))
            pos += sg > 0
            neg += sg < 0
        for i in root.owners:
            pos -= signs[i] > 0
            neg -= signs[i] < 0
            signs[i] = 0
        if not pos or not neg:
            return root
        prev = root.owners
    return None


def uniform_sign_exists(hs):
    """First sample t >= 0 where every h_i is weakly nonnegative or
    weakly nonpositive, or None.

    Every h_i is evaluated at t = 0; past it, rounds isolate and sweep a
    growing subset S of the inputs (see the module doc).  S starts with
    every input with no coefficient sign variation (two of opposite
    signs end the scan with None) and a pair strict at 0, fewest
    variations first.  At S's first uniform point u, where S's nonzero
    signs are sigma, every other input is signed at hi, which is u itself
    when u is rational, and joins S when that sign is -sigma, or 0 at
    the hi of an interval, or Descartes' rule finds it a root in
    (lo, hi), a test run only when no input has joined on its sign.  S
    at least doubles, filled in index order.  When none joins, the
    vector at u is the one exact evaluation gives at hi, and the sample
    is u, or the interval that isolating S gave, its owners those in S.
    Raises ZeroPolynomial on a zero entry.
    """
    for h in hs:
        if h.is_zero:
            raise ZeroPolynomial("uniform sign scan needs nonzero polynomials")
    hs_cs = [list(h.coeffs) for h in hs]
    zero = Fraction(0)
    signs = [_sgn(_ev(cs, zero)) for cs in hs_cs]
    if 1 not in signs or -1 not in signs:
        return SignVector(RationalPoint(zero), tuple(signs))
    n = len(hs)
    var = [_k.sign_variations(cs) for cs in hs_cs]
    inside = {i for i in range(n) if not var[i]}
    if len({_sgn(hs_cs[i][-1]) for i in inside}) == 2:
        return None
    for sg in (1, -1):
        inside.add(min((i for i in range(n) if signs[i] == sg), key=var.__getitem__))
    data = {}  # each input's isolation trees, built once per call
    while True:
        data.update((i, _PolyData(hs_cs[i])) for i in inside - data.keys())
        vec = signs[:]
        root = _sweep(hs_cs, vec, inside, isolate_nonneg_roots(hs, _data=data))
        if root is None:
            return None
        sigma = -1 if -1 in (vec[i] for i in inside) else 1
        rational = root.exact is not None
        out = [i for i in range(n) if i not in inside]
        for i in out:
            vec[i] = _sgn(_ev(hs_cs[i], root.hi))
        joins = [i for i in out if vec[i] == -sigma or not (rational or vec[i])]
        if not (rational or joins):
            joins = [i for i in out if _descartes(hs_cs[i], root.lo, root.hi)]
        if not joins:
            sample = RationalPoint(root.exact) if rational else AlgebraicRoot(root)
            return SignVector(sample, tuple(vec))
        rest = [i for i in out if i not in joins]
        inside.update(joins, rest[:max(0, len(inside) - len(joins))])
