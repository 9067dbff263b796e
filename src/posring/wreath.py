"""Sub-semigroups of Z wr Z generated by height +1 and -1 elements.

An element is a pair (f, b) with f a Laurent polynomial, multiplied by
(f, b)*(g, c) = (g + f*X**c, b + c); this is the 2x2 matrix picture
[[1, f], [0, X**b]] read off its upper-right and lower-right entries.
For generators A_i = (H_i, +1) and B_j = (G_j, -1) the product A_i*B_j
has upper-right entry h_ij = X**-1*H_i + G_j.  Call a subset S of I x J
a solvable support when nonzero f_ij over N[X] give sum f_ij*h_ij = 0
over S once X denominators are cleared.  Solvable supports are closed
under union (add the witnesses: nonnegative coefficients never cancel),
so they have a largest member M.  M is a rectangle, rows(M) x cols(M):
a witness on S with row sums R_i, column sums C_j and T = sum R_i =
sum C_j gives f'_ij = R_i*C_j on rows(S) x cols(S), nonzero as N[X]
has no zero divisors, with sum f'_ij*h_ij = X**-1 T sum R_i H_i +
T sum C_j G_j = T * sum f_ij*h_ij = 0.  So the generated semigroup is
a group exactly when M = I x J, and the identity lies in it exactly
when M is nonempty.  Finding M takes at most |I| + |J| - 1 decide calls
(see _maximal_support).

One generator set gets one analysis: M, and the witness on M when a
group verdict or a word needs one.  Each is memoized for the last
generator set asked about only, and holds an immutable value, so
is_group, identity_in_semigroup and identity_witness_word asked in turn
about one set share a single run of the decide rounds and the LP.

Identity words are synthesized from a witness (f_ij) on M itself, the
one the group test's LP finds: a zigzag base word realizes the two
pivot pairs' geometric blocks, and each remaining coefficient c X**k of
the corrected witness becomes the two-letter loop (A_i B_j)^c spliced
in where the suffix after it has height k, adding c X**k * h_ij to the
upper-right entry.  A loop has height 0, so a word stores it once with
its count and multiplies it in closed form; coefficients in the
thousands cost no more than ones.  A degenerate cover, whose h_ij are
all zero, takes the same construction: every loop is then an identity
word by itself, and the witness only sets the powers.  Every
synthesized word is checked by exact multiplication before it is
returned.
"""

from functools import lru_cache
from math import comb
from types import MappingProxyType

from ._record import Record, setfield
from .errors import BadIndex, InvalidWitness, LengthMismatch, PostconditionFailed
from .nxsolve import (
    DEGREE_CAP,
    SOLVABLE,
    decide,
    find_witness,
    verify_witness,
)
from .polyring import (
    IntPoly,
    LaurentPoly,
    laurent_normalize,
    order_at_zero,
)

# word letter sides: "A" indexes the +1 generators, "B" the -1 ones
PLUS = "A"
MINUS = "B"


def _as_laurent(h):
    if isinstance(h, LaurentPoly):
        return h
    if isinstance(h, IntPoly):
        return LaurentPoly.from_intpoly(h)
    raise TypeError("generator entries must be polynomials, got %r" % (h,))


class WreathElement(Record):
    """Pair (f, b): upper-right Laurent entry f, lower-right exponent b."""

    __slots__ = ("f", "b")

    def __init__(self, f, b):
        setfield(self, "f", f if isinstance(f, LaurentPoly) else _as_laurent(f))
        setfield(self, "b", b)

    @classmethod
    def identity(cls):
        return cls(LaurentPoly.zero(), 0)

    def __mul__(self, other):
        if not isinstance(other, WreathElement):
            return NotImplemented
        return mul(self, other)


class GeneratorSet(Record):
    """Height +1 generators A_1..A_n (plus) and -1 generators B_1..B_m (minus).

    Word letters and h_ij pairs index both tuples starting from 1.
    """

    __slots__ = ("plus", "minus")

    def __init__(self, plus, minus):
        setfield(self, "plus", tuple(_as_laurent(h) for h in plus))
        setfield(self, "minus", tuple(_as_laurent(h) for h in minus))

    def element(self, side, index):
        if side == PLUS:
            seq, b = self.plus, 1
        elif side == MINUS:
            seq, b = self.minus, -1
        else:
            raise BadIndex("unknown side %r" % (side,))
        if not 1 <= index <= len(seq):
            raise BadIndex("%s%d is outside the generator set" % (side, index))
        return WreathElement(seq[index - 1], b)


def _is_power(entry):
    return isinstance(entry[0], tuple)


def _height(letters):
    return sum(1 if side == PLUS else -1 for side, _ in letters)


def _letter_text(letters):
    return " ".join("%s%d" % (side, index) for side, index in letters)


class Word(Record):
    """Generator references, read left to right.

    Each entry of letters is a letter (side, index), side A or B, or a
    power (loop, count): a tuple of letters of height 0 standing for
    count >= 2 copies of itself, printed as (A1 B2)^count.  len counts
    letters, with every power written out.
    """

    __slots__ = ("letters",)

    def __init__(self, letters):
        setfield(self, "letters", letters)

    @property
    def height(self):
        return sum(e[1] * _height(e[0]) if _is_power(e) else _height((e,))
                   for e in self.letters)

    def __len__(self):
        return sum(len(e[0]) * e[1] if _is_power(e) else 1 for e in self.letters)

    def __str__(self):
        return " ".join("(%s)^%d" % (_letter_text(e[0]), e[1]) if _is_power(e)
                        else _letter_text((e,)) for e in self.letters)


class CoverSubset(Record):
    """Sorted subset of I x J; is_group reports M = I x J as one."""

    __slots__ = ("pairs",)

    def __init__(self, pairs):
        setfield(self, "pairs", tuple(sorted(set(map(tuple, pairs)))))


def mul(a, b):
    """Exact product (f, b)*(g, c) = (g + f*X**c, b + c)."""
    return WreathElement(b.f + a.f.shifted(b.b), a.b + b.b)


def _product(gens, letters):
    acc = WreathElement.identity()
    for side, index in letters:
        acc = mul(acc, gens.element(side, index))
    return acc


def word_product(gens, w):
    """Multiply the word's entries left to right; the height lands in b.

    A power's loop multiplies to some (f, 0), and (f, 0)**count is
    (count*f, 0).  A loop of nonzero height, or a count below 1, raises
    BadIndex.
    """
    acc = WreathElement.identity()
    for entry in w.letters:
        if not _is_power(entry):
            acc = mul(acc, gens.element(*entry))
            continue
        loop, count = entry
        p = _product(gens, loop)
        if p.b or count < 1:
            raise BadIndex("power (%s)^%d is not a loop of height 0 repeated"
                           % (_letter_text(loop), count))
        acc = mul(acc, WreathElement(LaurentPoly([count]) * p.f, 0))
    return acc


def build_hij(gens):
    """Upper-right entries h_ij = X**-1*H_i + G_j of the products A_i*B_j."""
    xinv = LaurentPoly([1], -1)
    return {
        (i, j): xinv * hi + gj
        for i, hi in enumerate(gens.plus, 1)
        for j, gj in enumerate(gens.minus, 1)
    }


def _maximal_support(hij, pairs):
    """M, the union of every solvable support inside pairs, sorted.

    Each Unsolvable round drops the pairs its certificate rules out.  On
    a solvable support the f_ij * X**k (k the X stripped by normalize)
    are positive at the certificate's sample t > 0, so every reduced
    h'_ij(t) there is 0: a pair with a nonzero sign is in no solvable
    support (a lone nonzero h_ij, whose sample may be 0, never cancels
    at all).  A UniformSignAtZero sample is 0, but its signs are all
    strict, and strict signs at 0 stay strict for small t > 0, so the
    same rule drops every nonzero pair.  Zero h_ij are always kept.

    On a rectangle pairs = P x Q the loop ends on a Solvable set or an
    empty one after at most |P| + |Q| - 1 decide calls, as each round
    keeps a rectangle with a row or a column fewer.  At the sample
    t > 0 (or, for a sample of 0, at a small t > 0) each h'_ij(t) has,
    up to one common sign, the sign of a_i + b_j, where a_i and b_j are
    the m-th Taylor coefficients at t of H_i/X and G_j, m being the
    order at t of the gcd normalize divides out (0 off its roots; then
    a_i = H_i(t)/t and b_j = G_j(t)).  One weak sign on P x Q then puts
    the zero signs on argmin a x argmin b or nowhere, and a round drops
    at least one pair.  A nonempty rectangle has rows + cols >= 2.
    """
    live = tuple(sorted(pairs))
    while live:
        hs, _ = laurent_normalize([hij[p] for p in live])
        verdict = decide(hs)
        if verdict.status == SOLVABLE:
            return live
        nonzero = [p for p, h in zip(live, hs) if not h.is_zero]
        signs = verdict.certificate.sign_vector.signs
        if len(signs) != len(nonzero):
            raise PostconditionFailed("certificate signs miss nonzero h_ij")
        drop = {p for p, s in zip(nonzero, signs) if s}
        if not drop:
            raise PostconditionFailed("an Unsolvable round dropped no pair")
        live = tuple(p for p in live if p not in drop)
    return live


# The h_ij and the two steps of the analysis, each a one-entry memo
# keyed by the frozen GeneratorSet.  M's elimination rounds, once
# recorded, belong in _support's entry beside M.
@lru_cache(maxsize=1)
def _hij(gens):
    """build_hij(gens), read-only."""
    return MappingProxyType(build_hij(gens))


@lru_cache(maxsize=1)
def _support(gens):
    """M for gens, as _maximal_support returns it."""
    hij = _hij(gens)
    return _maximal_support(hij, hij)


@lru_cache(maxsize=1)
def _witness(gens, degree_cap):
    """find_witness on the normalized h_ij of M, or None past degree_cap."""
    hij = _hij(gens)
    hs, _ = laurent_normalize([hij[p] for p in _support(gens)])
    return find_witness(hs, degree_cap)


def is_group(gens, degree_cap=DEGREE_CAP):
    """Decide whether the generated semigroup is a group.

    True iff the maximal solvable support M is all of I x J; then M is
    returned as the cover, together with a witness on M when the search
    finds one within degree_cap.  As M is a rectangle (module doc), this
    is the test of full projections onto I and J.  Without a generator
    on each side no nonempty word has height 0, so False, and no witness
    is searched for.  M and the witness are memoized for the last
    generator set asked about, so identity_in_semigroup and
    identity_witness_word on the same gens reuse this analysis.
    """
    support = _support(gens)
    if not support or len(support) < len(gens.plus) * len(gens.minus):
        return False, None
    return True, (CoverSubset(support), _witness(gens, degree_cap))


def identity_in_semigroup(gens):
    """True iff the identity is a product of a nonempty generator word.

    Equivalent to some nonempty subset of the generators generating a
    group, that is, to a nonempty maximal solvable support.  Reads the
    memoized M; never searches for a witness.
    """
    return bool(_support(gens))


def identity_witness_word(gens, degree_cap=DEGREE_CAP):
    """(identity_found, word): a verified identity word over the generators.

    The verdict is identity_in_semigroup's.  The word is synthesized on
    the maximal solvable support M from the witness find_witness gives
    on M, the one is_group reports; word is None when that search hits
    degree_cap first.  M and the witness come from the same one-entry
    memo as is_group's, so asking both about one generator set costs
    one analysis; the word itself is synthesized and checked by exact
    multiplication on every call.
    """
    support = _support(gens)
    if not support:
        return False, None
    witness = _witness(gens, degree_cap)
    if witness is None:
        return True, None
    return True, synthesize_identity_word(gens, CoverSubset(support), witness)


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


class _Plan(Record):
    """Everything the synthesis pipeline decided, inspectable in tests."""

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


def _plan(pairs, f_map):
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

    return _Plan(
        letters=tuple(out),
        base=tuple(base),
        loops=tuple(loops),
        scaled=tuple((p, scaled[p]) for p in pairs),
        strip=strip,
        scale=m,
        uv=uv,
        yz=yz,
    )


def synthesize_identity_word(gens, cover, witness):
    """Word over the generators whose product is the identity.

    The witness entries line up with cover.pairs in sorted order and
    must verify against the X-cleared h_ij.  The loop construction
    cancels the sum by design, also on a degenerate cover whose h_ij are
    all zero: there every loop is an identity word on its own, and the
    witness only sets the powers.  The product is recomputed exactly
    before returning.
    """
    pairs = cover.pairs
    if not pairs:
        raise InvalidWitness("empty cover")
    hij = _hij(gens)
    try:
        hs_laurent = [hij[p] for p in pairs]
    except KeyError as exc:
        raise BadIndex("pair %r is outside the generator grid" % (exc.args[0],)) from None
    hs, _ = laurent_normalize(hs_laurent)
    fs = list(witness.fs)
    try:
        ok = verify_witness(hs, fs)
    except LengthMismatch as exc:
        raise InvalidWitness(str(exc)) from None
    if not ok:
        raise InvalidWitness("witness does not cancel the cover's h_ij")

    word = Word(_plan(pairs, dict(zip(pairs, fs))).letters)
    if word_product(gens, word) != WreathElement.identity():
        raise PostconditionFailed("synthesized word failed the exact product check")
    return word
