"""Sub-semigroups of Z wr Z generated by height +1 and -1 elements.

An element is a pair (f, b) with f a Laurent polynomial, multiplied by
(f, b)*(g, c) = (g + f*X**c, b + c); this is the 2x2 matrix picture
[[1, f], [0, X**b]] read off its upper-right and lower-right entries.
For generators A_i = (H_i, +1) and B_j = (G_j, -1) the product A_i*B_j
has upper-right entry h_ij = X**-1*H_i + G_j, and the generated
semigroup is a group exactly when some subset S of I x J with full
projections admits nonzero f_ij over N[X] with sum f_ij*h_ij = 0.  The
identity lies in the semigroup exactly when some nonempty subset of the
generators generates a group.

Identity words are synthesized from a witness (f_ij): a zigzag base
word realizes the two pivot pairs' geometric blocks, and each remaining
coefficient X**k of the corrected witness becomes a two-letter loop
spliced in where the suffix after it has height k, adding X**k * h_ij
to the upper-right entry.  Every synthesized word is checked by exact
multiplication before it is returned.
"""

from dataclasses import dataclass
from itertools import combinations
from math import comb

from .errors import (
    BadIndex,
    InvalidWitness,
    LengthMismatch,
    PostconditionFailed,
    TooLarge,
)
from .nxsolve import DEGREE_CAP, SOLVABLE, WITNESS_FOUND, decide, verify_witness
from .polyring import (
    IntPoly,
    LaurentPoly,
    laurent_normalize,
    multiply,
    order_at_zero,
    subtract,
)

COVER_CAP = 20
SUBSET_CAP = 12

# word letter sides: "A" indexes the +1 generators, "B" the -1 ones
PLUS = "A"
MINUS = "B"


def _as_laurent(h):
    if isinstance(h, LaurentPoly):
        return h
    if isinstance(h, IntPoly):
        return LaurentPoly.from_intpoly(h)
    raise TypeError("generator entries must be polynomials, got %r" % (h,))


@dataclass(frozen=True)
class WreathElement:
    """Pair (f, b): upper-right Laurent entry f, lower-right exponent b."""

    f: LaurentPoly
    b: int

    def __post_init__(self):
        if not isinstance(self.f, LaurentPoly):
            object.__setattr__(self, "f", _as_laurent(self.f))

    @classmethod
    def identity(cls):
        return cls(LaurentPoly.zero(), 0)

    def __mul__(self, other):
        if not isinstance(other, WreathElement):
            return NotImplemented
        return mul(self, other)


@dataclass(frozen=True)
class GeneratorSet:
    """Height +1 generators A_1..A_n (plus) and -1 generators B_1..B_m (minus).

    Word letters and h_ij pairs index both tuples starting from 1.
    """

    plus: tuple
    minus: tuple

    def __post_init__(self):
        object.__setattr__(self, "plus", tuple(_as_laurent(h) for h in self.plus))
        object.__setattr__(self, "minus", tuple(_as_laurent(h) for h in self.minus))

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


@dataclass(frozen=True)
class Word:
    """Sequence of generator references (side, index) with side A or B."""

    letters: tuple

    @property
    def height(self):
        return sum(1 if side == PLUS else -1 for side, _ in self.letters)

    def __len__(self):
        return len(self.letters)

    def __str__(self):
        return " ".join("%s%d" % (side, index) for side, index in self.letters)


@dataclass(frozen=True)
class CoverSubset:
    """Subset of I x J; a group witness needs both projections full."""

    pairs: tuple

    def __post_init__(self):
        object.__setattr__(self, "pairs", tuple(sorted(set(map(tuple, self.pairs)))))


def mul(a, b):
    """Exact product (f, b)*(g, c) = (g + f*X**c, b + c)."""
    return WreathElement(b.f + a.f.shifted(b.b), a.b + b.b)


def word_product(gens, w):
    """Multiply the word's letters left to right; the height lands in b."""
    acc = WreathElement.identity()
    for side, index in w.letters:
        acc = mul(acc, gens.element(side, index))
    return acc


def build_hij(gens):
    """Upper-right entries h_ij = X**-1*H_i + G_j of the products A_i*B_j."""
    xinv = LaurentPoly([1], -1)
    return {
        (i, j): xinv * hi + gj
        for i, hi in enumerate(gens.plus, 1)
        for j, gj in enumerate(gens.minus, 1)
    }


def enumerate_covers(I, J, cap=COVER_CAP):
    """Yield every subset of I x J with full projections, smallest first.

    Subsets of equal size come in lexicographic order of the sorted pair
    grid, so the stream is deterministic; |I|*|J| beyond cap refuses.
    """
    rows = tuple(sorted(set(I)))
    cols = tuple(sorted(set(J)))
    grid = [(i, j) for i in rows for j in cols]
    if len(grid) > cap:
        raise TooLarge("%d candidate pairs exceed the cover cap %d" % (len(grid), cap))
    row_set, col_set = set(rows), set(cols)
    for size in range(max(len(rows), len(cols)), len(grid) + 1):
        for combo in combinations(grid, size):
            if {p[0] for p in combo} == row_set and {p[1] for p in combo} == col_set:
                yield CoverSubset(combo)


def is_group(gens, degree_cap=DEGREE_CAP, cover_cap=COVER_CAP):
    """Decide whether the generated semigroup is a group.

    True iff some full-projection cover S makes {h_ij : (i,j) in S}
    solvable once X denominators are cleared; covers are tried smallest
    first and the first solvable one is returned, together with the
    witness tuple when the search finds one within degree_cap.  Without
    a generator on each side no nonempty word has height 0, so False.
    """
    if not gens.plus or not gens.minus:
        return False, None
    hij = build_hij(gens)
    rows = range(1, len(gens.plus) + 1)
    cols = range(1, len(gens.minus) + 1)
    for cover in enumerate_covers(rows, cols, cap=cover_cap):
        hs, _ = laurent_normalize([hij[p] for p in cover.pairs])
        verdict = decide(hs, want_witness=True, degree_cap=degree_cap)
        if verdict.status == SOLVABLE:
            found = verdict.witness_status == WITNESS_FOUND
            return True, (cover, verdict.certificate if found else None)
    return False, None


def _signed_subsets(gens, subset_cap):
    """Index subsets with both signs present, ascending by total size."""
    tagged = [(PLUS, i) for i in range(1, len(gens.plus) + 1)]
    tagged += [(MINUS, j) for j in range(1, len(gens.minus) + 1)]
    if len(tagged) > subset_cap:
        raise TooLarge("%d generators exceed the subset cap %d" % (len(tagged), subset_cap))
    for size in range(2, len(tagged) + 1):
        for combo in combinations(tagged, size):
            plus = tuple(i for side, i in combo if side == PLUS)
            minus = tuple(j for side, j in combo if side == MINUS)
            if plus and minus:
                yield plus, minus


def _subset_gens(gens, plus_sel, minus_sel):
    return GeneratorSet(
        tuple(gens.plus[i - 1] for i in plus_sel),
        tuple(gens.minus[j - 1] for j in minus_sel),
    )


def identity_in_semigroup(gens, subset_cap=SUBSET_CAP, degree_cap=DEGREE_CAP,
                          cover_cap=COVER_CAP):
    """True iff the identity is a product of a nonempty generator word.

    Equivalent to some nonempty subset of the generators generating a
    group.  Subsets are tried in ascending size; those lacking a +1 or
    a -1 generator cannot reach height 0 and are skipped.
    """
    for plus_sel, minus_sel in _signed_subsets(gens, subset_cap):
        ok, _ = is_group(_subset_gens(gens, plus_sel, minus_sel), degree_cap, cover_cap)
        if ok:
            return True
    return False


def identity_witness_word(gens, subset_cap=SUBSET_CAP, degree_cap=DEGREE_CAP,
                          cover_cap=COVER_CAP):
    """(identity_found, word): a verified identity word over the generators.

    Scans the same subsets as identity_in_semigroup; on the first group
    subset whose witness search succeeded, synthesizes the word and maps
    its letters back to the original numbering.  word is None when no
    subset is a group, or when every group subset hit the degree cap
    before a witness turned up (found still reports the verdict).
    """
    found = False
    for plus_sel, minus_sel in _signed_subsets(gens, subset_cap):
        sub = _subset_gens(gens, plus_sel, minus_sel)
        ok, info = is_group(sub, degree_cap, cover_cap)
        if not ok:
            continue
        found = True
        cover, witness = info
        if witness is None:
            continue
        sub_word = synthesize_identity_word(sub, cover, witness)
        sel = {PLUS: plus_sel, MINUS: minus_sel}
        word = Word(tuple((side, sel[side][k - 1]) for side, k in sub_word.letters))
        if word_product(gens, word) != WreathElement.identity():
            raise PostconditionFailed("renumbered word failed the exact product check")
        return True, word
    return found, None


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


def _onepx_power(m):
    # (1 + X)**m via the binomial row
    return IntPoly([comb(m, i) for i in range(m + 1)])


def _coef(p, k):
    cs = p.coeffs
    return cs[k] if k < len(cs) else 0


def _scaling_ok(f_uv, f_yz, m):
    """Positivity conditions that make the block subtractions legal.

    After scaling by (1 + X)**m: every coefficient of f_uv through its
    degree is positive, every coefficient of f_yz from its order up is
    positive, and deg f_uv reaches at least the order of f_yz.
    """
    su = multiply(f_uv, _onepx_power(m))
    sy = multiply(f_yz, _onepx_power(m))
    if any(c <= 0 for c in su.coeffs):
        return False
    w = order_at_zero(sy)
    if any(c <= 0 for c in sy.coeffs[w:]):
        return False
    return su.degree >= w


@dataclass(frozen=True)
class _Plan:
    """Everything the synthesis pipeline decided, inspectable in tests."""

    letters: tuple
    base: tuple
    loops: tuple
    scaled: tuple
    strip: int
    scale: int
    uv: tuple
    yz: tuple


def _plan(pairs, f_map):
    """Identity-word skeleton for nonzero f_ij over N[X] on a pair set.

    Pipeline: strip the common power of X; pick (u,v) as the smallest
    pair whose f has a nonzero constant term and (y,z) as the smallest
    pair of maximal degree; scale everything by (1 + X)**m with the
    least m passing _scaling_ok; build the zigzag base word
    A_u B_v^Duv B_z^(Dyz-Duv) A_y^(Dyz-Duv) A_u^(Duv-1), whose
    product's upper-right entry is exactly
    sum_{i<Duv} X^i h_uv + sum_{Duv<=i<Dyz} X^i h_yz; subtract those two
    geometric blocks from the scaled pivots and realize every remaining
    coefficient X^k as loops: A_i B_j where the following suffix has
    height k, or B_j A_i at the valley when k = Dyz.  The result has
    height 0 and upper-right entry sum f'_ij h_ij for the scaled f'.
    """
    pairs = tuple(sorted(map(tuple, pairs)))
    if not pairs:
        raise InvalidWitness("synthesis needs at least one pair")
    fd = {}
    for p in pairs:
        f = f_map[p]
        if f.is_zero or any(c < 0 for c in f.coeffs):
            raise InvalidWitness("f_%r must be nonzero with coefficients >= 0" % (p,))
        fd[p] = f

    strip = min(order_at_zero(f) for f in fd.values())
    if strip:
        fd = {p: IntPoly(f.coeffs[strip:]) for p, f in fd.items()}
    uv = next(p for p in pairs if fd[p].coeffs[0] != 0)
    top = max(f.degree for f in fd.values())
    yz = next(p for p in pairs if fd[p].degree == top)

    order_yz = order_at_zero(fd[yz])
    bound = max(fd[uv].degree, fd[yz].degree - order_yz, order_yz)
    m = 0
    while not _scaling_ok(fd[uv], fd[yz], m):
        m += 1
        if m > bound:
            raise PostconditionFailed("scaling scan escaped its sufficiency bound")
    onepx = _onepx_power(m)
    scaled = {p: multiply(f, onepx) for p, f in fd.items()}

    a = scaled[uv].degree
    d = scaled[yz].degree
    if a > d:
        raise PostconditionFailed("pivot degrees out of order")

    # remove the blocks the base word realizes; when uv == yz both
    # subtractions hit the same polynomial and d == a makes the second
    # block empty, which is the combined single-block case
    fhat = dict(scaled)
    if a:
        fhat[uv] = subtract(fhat[uv], IntPoly([1] * a))
    if d > a:
        fhat[yz] = subtract(fhat[yz], IntPoly([0] * a + [1] * (d - a)))
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
        bucket.setdefault(pos, []).extend(loop * count)

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
    must verify against the X-cleared h_ij.  A degenerate cover whose
    h_ij are all zero gets one loop A_i B_j per pair, each an identity
    word on its own; otherwise the loop construction cancels the sum by
    design.  The product is recomputed exactly before returning.
    """
    pairs = cover.pairs
    if not pairs:
        raise InvalidWitness("empty cover")
    hij = build_hij(gens)
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

    if all(h.is_zero for h in hs_laurent):
        letters = tuple(ref for p in pairs for ref in ((PLUS, p[0]), (MINUS, p[1])))
        word = Word(letters)
    else:
        word = Word(_plan(pairs, dict(zip(pairs, fs))).letters)
    if word_product(gens, word) != WreathElement.identity():
        raise PostconditionFailed("synthesized word failed the exact product check")
    return word
