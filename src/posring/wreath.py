"""Sub-semigroups of Z wr Z generated by height +1 and -1 elements.

An element is a pair (f, b) with f a Laurent polynomial, multiplied by
(f, b)*(g, c) = (g + f*X**c, b + c); this is the 2x2 matrix picture
[[1, f], [0, X**b]] read off its upper-right and lower-right entries.
Folded over a word, (f_1, b_1)*...*(f_L, b_L) = (sum_k f_k*X**s_k,
b_1 + ... + b_L) with s_k = b_(k+1) + ... + b_L, the suffix height of
letter k; word_product evaluates this sum in one right-to-left pass.
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
one the group test's LP finds, as a closed walk on the height line
(see _walk).  Each unit of a coefficient c X**k of the scaled witness
either carries the walk up and back down the edge between heights
k - 1 and k, one unit per level, or becomes the two-letter loop
A_i B_j hung where the suffix after it has height k; either way it adds
X**k * h_ij to the upper-right entry.  A loop has height 0, so a word
stores its copies at one level once with their count, and the product
adds count times each loop letter at its suffix height; coefficients
in the thousands cost no more than ones.  Over the 101 identity words
of the benchmark's wreath_grid pool the walk stores 1414 entries and
1 259 740 letters written out.  A degenerate cover, whose h_ij are all
zero, takes the same construction: every loop is then an identity word
by itself, and the witness only sets the powers.  Every synthesized
word is checked by exact multiplication before it is returned.

Every f_ij on M is nonzero, so the word names every A_i and B_j of
rows(M) x cols(M); on a group, M = I x J, that is every generator.
Such a word is evidence for the group verdict by itself: if g = x_k in
x_1 ... x_L = 1, the rotation x_k ... x_L x_1 ... x_(k-1) is a
conjugate of that word, so it is 1 too, and g has the inverse
x_(k+1) ... x_L x_1 ... x_(k-1) in the semigroup.
"""

from collections import defaultdict
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
        setfield(self, "f", _as_laurent(f))
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


def word_product(gens, w):
    """Multiply the word's entries in one right-to-left pass.

    Folding mul gives (f_1, b_1)...(f_L, b_L) = (sum_k f_k*X**s_k,
    b_1 + ... + b_L), where s_k = b_(k+1) + ... + b_L is letter k's
    suffix height.  Each letter adds its coefficients at its suffix
    height into one exponent-keyed sum, and a power (loop, count) adds
    count times each loop letter at that letter's height inside the
    loop, which is the same in every copy as the loop has height 0.  A
    bad side or index, a loop of nonzero height, or a count that is not
    an int >= 1 raises BadIndex.
    """
    # (coefficients, lowest, b) of each letter; element raises BadIndex on the rest
    refs, acc, height = {}, defaultdict(int), 0
    for side, hs, b in ((PLUS, gens.plus, 1), (MINUS, gens.minus, -1)):
        for i, h in enumerate(hs, 1):
            refs[side, i] = h.body.coeffs, h.lowest, b
    for entry in reversed(w.letters):
        power = _is_power(entry)
        loop, count = entry if power else ((entry,), 1)
        if power and (type(count) is not int or count < 1 or _height(loop)):
            raise BadIndex("power (%s)^%r is not a loop of height 0 repeated"
                           % (_letter_text(loop), count))
        for ref in reversed(loop):
            cs, low, b = refs.get(ref) or gens.element(*ref)
            for k, c in enumerate(cs, low + height):
                acc[k] += count * c
            height += b
    lo, top = min(acc, default=0), max(acc, default=-1)
    return WreathElement(LaurentPoly([acc[k] for k in range(lo, top + 1)], lo), height)


def build_hij(gens):
    """Upper-right entries h_ij = X**-1*H_i + G_j of the products A_i*B_j."""
    return {(i, j): hi.shifted(-1) + gj
            for i, hi in enumerate(gens.plus, 1) for j, gj in enumerate(gens.minus, 1)}


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
    is the test of full projections onto I and J.  On a group the
    identity word synthesized from that witness names every generator,
    so it shows by itself that each generator has an inverse in the
    semigroup (module doc).  Without a generator on each side no
    nonempty word has height 0, so False, and no witness is searched
    for.  M and the witness are memoized for the last
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


def _walk(pairs, fs):
    """Identity-word letters for nonzero f_ij over N[X] on sorted pairs.

    A closed walk on the height line.  Let T = sum f_ij and m its longest
    run of zero coefficients between two nonzero ones.  Scaled by the
    common factor X**(1 - ord T) * (1 + X)**m the f_ij still form a
    witness, and T, whose nonnegative terms never cancel, is nonzero at
    every level k = 1 .. D, its new degree.  A unit of f_ij at level k
    must put A_i at suffix height k - 1 and B_j at k, adding
    X**(k-1)*H_i + X**k*G_j = X**k h_ij.  At each level
    one unit of the first pair with a nonzero level-k coefficient goes on
    the spine, A_i up the edge (k - 1, k) and B_j back down it: the word
    B_j1 .. B_jD A_iD .. A_i1.  Every other unit is the loop A_i B_j,
    of height 0, placed just left of A_ik, where the suffix has height k;
    c units of one pair make the power (A_i B_j)^c.  Rotating the first
    letter B_j1 to the end conjugates the product by it, which lowers
    every suffix height by one: the result has height 0 and upper-right
    entry X**(-ord T) * (1 + X)**m * sum f_ij h_ij, and a one-unit
    witness reads A1 B1.

    Its length is 2 * 2**m * sum f_ij(1) letters.  That never exceeds
    the 2 * 2**m' * sum f_ij(1) of the paper's Figure 1 construction
    (tests/oracles.py), whose pivots' (1 + X)**m' already leave
    (1 + X)**m' T without an inner zero run, so m <= m': a nonnegative T
    times (1 + X)**m' is nonzero at X**k exactly when T is nonzero at
    one of X**(k-m') .. X**k, so a run longer than m' would leave a gap.
    The caller checks that pairs is sorted and nonempty and each f_ij
    nonzero in N[X].
    """
    total = sum(fs, IntPoly.zero())
    nz = [k for k, c in enumerate(total.coeffs) if c]
    m = max((b - a - 1 for a, b in zip(nz, nz[1:])), default=0)
    if m:
        onepx = IntPoly([comb(m, i) for i in range(m + 1)])
        fs = [f * onepx for f in fs]
    units = [(i, j, f.coeffs) for (i, j), f in zip(pairs, fs)]
    downs, rest = [], []
    for k in range(nz[-1] + m, nz[0] - 1, -1):
        level = [[i, j, cs[k]] for i, j, cs in units if k < len(cs) and cs[k]]
        i, j, _ = level[0]
        level[0][2] -= 1
        downs.append((MINUS, j))
        for li, lj, c in level:
            loop = ((PLUS, li), (MINUS, lj))
            if c > 1:
                rest.append((loop, c))
            elif c:
                rest.extend(loop)
        rest.append((PLUS, i))
    word = downs[::-1] + rest
    return tuple(word[1:] + word[:1])


def synthesize_identity_word(gens, cover, witness):
    """Word over the generators whose product is the identity.

    The witness entries line up with cover.pairs in sorted order and
    must verify against the X-cleared h_ij.  The walk cancels the sum
    by design, also on a degenerate cover whose h_ij are all zero: there
    every loop is an identity word on its own, and the witness only sets
    the powers.  The product is recomputed exactly before returning.
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

    word = Word(_walk(pairs, fs))
    if word_product(gens, word) != WreathElement.identity():
        raise PostconditionFailed("synthesized word failed the exact product check")
    return word
