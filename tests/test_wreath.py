import random
import subprocess
import sys
from collections import Counter
from functools import reduce
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posring.errors import BadIndex, InvalidWitness
from posring.nxsolve import SOLVABLE, WitnessTuple, decide
from posring import nxsolve as nx
from posring.polyring import IntPoly, LaurentPoly, laurent_normalize, order_at_zero
from posring import wreath as wr

from oracles import (
    SearchSpaceTooLarge,
    enumerate_covers,
    exhaustive_identity_search,
    plan_reference,
    plan_scale_reference,
    rational_feasibility_reference,
    walk_scale_reference,
)


def P(*cs):
    return IntPoly(cs)


def L(cs, lowest=0):
    return LaurentPoly(cs, lowest)


A, B = wr.PLUS, wr.MINUS

# the trivial group pair: A1*B1 = identity
PAIR = wr.GeneratorSet(plus=(L([1]),), minus=(L([-1], -1),))
# h11 = 1 + X^-1, never cancels
STUCK = wr.GeneratorSet(plus=(L([1]),), minus=(L([1]),))

laurents = st.builds(
    LaurentPoly,
    st.lists(st.integers(-5, 5), max_size=4),
    st.integers(-3, 2),
)


def _forget_analysis():
    wr._hij.cache_clear()
    wr._support.cache_clear()
    wr._witness.cache_clear()


@pytest.fixture(autouse=True)
def _fresh_analysis():
    # M and the witness on M are memoized per generator set; a test that
    # patches decide or the LP must see them run
    _forget_analysis()
    yield
    _forget_analysis()


def _expand(entries):
    """A word's letters with every power (loop, count) written out."""
    out = []
    for e in entries:
        if isinstance(e[0], tuple):
            loop, count = e
            out.extend(loop * count)
        else:
            out.append(e)
    return tuple(out)


def _fold(gens, entries):
    """The mul fold over the entries written out: the product's definition."""
    return reduce(wr.mul, (gens.element(*ref) for ref in _expand(entries)),
                  wr.WreathElement.identity())


def _product_is_fold(gens, word):
    got, want = wr.word_product(gens, word), _fold(gens, word.letters)
    assert got == want and hash(got) == hash(want)
    return got


# ------------------------------------------------------------- elements


def test_mul_pair_cancels():
    a = wr.WreathElement(L([1]), 1)
    b = wr.WreathElement(L([-1], -1), -1)
    assert wr.mul(a, b) == wr.WreathElement.identity()


def test_mul_identity_neutral():
    a = wr.WreathElement(L([2, 3], -1), 1)
    e = wr.WreathElement.identity()
    assert wr.mul(e, a) == a
    assert wr.mul(a, e) == a
    assert a * e == a


def test_mul_two_ascents():
    h1, h2 = L([1, 2]), L([3])
    p = wr.mul(wr.WreathElement(h1, 1), wr.WreathElement(h2, 1))
    assert p.b == 2
    assert p.f == h2 + h1.shifted(1)


@given(laurents, laurents, laurents, st.integers(-2, 2), st.integers(-2, 2),
       st.integers(-2, 2))
def test_mul_associative(f, g, h, b1, b2, b3):
    x = wr.WreathElement(f, b1)
    y = wr.WreathElement(g, b2)
    z = wr.WreathElement(h, b3)
    assert (x * y) * z == x * (y * z)


def test_element_coerces_intpoly():
    assert wr.WreathElement(P(1, 2), 1).f == L([1, 2])


def test_word_product_height_in_b():
    w = wr.Word(((A, 1), (A, 1), (B, 1)))
    assert w.height == 1
    assert wr.word_product(PAIR, w).b == 1
    assert str(w) == "A1 A1 B1"


def test_word_product_bad_index():
    with pytest.raises(BadIndex):
        wr.word_product(PAIR, wr.Word(((A, 2),)))
    with pytest.raises(BadIndex):
        wr.word_product(PAIR, wr.Word((("C", 1),)))
    with pytest.raises(BadIndex):
        PAIR.element(B, 0)


def test_word_with_powers_len_and_str():
    w = wr.Word(((A, 2), (((A, 1), (B, 2)), 3), (B, 1), (((B, 1), (A, 1)), 2)))
    assert len(w) == 1 + 6 + 1 + 4
    assert str(w) == "A2 (A1 B2)^3 B1 (B1 A1)^2"
    assert w.height == 0


def test_word_product_rejects_power_of_nonzero_height():
    with pytest.raises(BadIndex):
        wr.word_product(PAIR, wr.Word(((((A, 1), (A, 1)), 2),)))
    with pytest.raises(BadIndex):
        wr.word_product(PAIR, wr.Word(((((A, 1),), 3),)))
    with pytest.raises(BadIndex):
        wr.word_product(PAIR, wr.Word(((((A, 1), (B, 1)), 0),)))


_refs = st.tuples(st.sampled_from((A, B)), st.integers(1, 2))


@st.composite
def _loops(draw):
    # equally many A and B letters in any order: height 0
    n = draw(st.integers(1, 3))
    letters = [(A, draw(st.integers(1, 2))) for _ in range(n)]
    letters += [(B, draw(st.integers(1, 2))) for _ in range(n)]
    return tuple(draw(st.permutations(letters)))


@given(st.lists(laurents, min_size=2, max_size=2),
       st.lists(laurents, min_size=2, max_size=2),
       st.lists(st.one_of(_refs, st.tuples(_loops(), st.integers(2, 6))), max_size=6))
def test_word_product_of_powers_matches_expansion(plus, minus, entries):
    gens = wr.GeneratorSet(tuple(plus), tuple(minus))
    word = wr.Word(tuple(entries))
    want = _product_is_fold(gens, word)
    assert len(word) == len(_expand(word.letters))
    assert word.height == want.b


def test_word_product_cancels_to_zero_at_nonzero_height():
    # A1 A2 = (1*X + -X, 2), and h_11 = X**-1 - X**-1 = 0, so a loop
    # (A1 B1) adds nothing at any height: f cancels to 0 in every word,
    # and the zero f has lowest 0 whatever height it cancelled at
    gens = wr.GeneratorSet(plus=(L([1]), L([-1], 1)), minus=(L([-1], -1),))
    loop = ((A, 1), (B, 1))
    for entries in (((A, 1), (A, 2)),
                    ((loop, 5), (A, 1), (A, 2)),
                    ((A, 1), (loop, 7), (A, 2))):
        got = _product_is_fold(gens, wr.Word(entries))
        assert got.f.is_zero and got.f.lowest == 0 and got.b == 2


def test_word_product_cancels_in_the_middle():
    # A1 A2 = ((1 + X)*X + 1 - X + X^2 + X^3, 2) = (1 + 2X^2 + X^3, 2):
    # X cancels; h_11 = -1, so (A1 B1)^2 at height 2 cancels the 2X^2
    gens = wr.GeneratorSet(plus=(L([1, 1]), L([1, -1, 1, 1])), minus=(L([-1, -2], -1),))
    got = _product_is_fold(gens, wr.Word(((A, 1), (A, 2))))
    assert got == wr.WreathElement(L([1, 0, 2, 1]), 2)
    got = _product_is_fold(gens, wr.Word(((((A, 1), (B, 1)), 2), (A, 1), (A, 2))))
    assert got == wr.WreathElement(L([1, 0, 0, 1]), 2)


def test_word_product_of_a_huge_power():
    # a power's letters enter count times without being written out
    gens = wr.GeneratorSet(plus=(L([2, -1], -1), L([1, 0, 3])), minus=(L([3]), L([-1, 1], -2)))
    loop = ((A, 1), (B, 2), (B, 1), (A, 2))
    n = 10 ** 12
    once = _fold(gens, loop)
    assert once.b == 0 and not once.f.is_zero
    power = wr.WreathElement(L([n]) * once.f, 0)
    assert wr.word_product(gens, wr.Word(((loop, n),))) == power
    assert wr.word_product(gens, wr.Word(((A, 2), (loop, n), (B, 1)))) == \
        gens.element(A, 2) * power * gens.element(B, 1)


def test_word_product_rejects_bad_counts():
    loop = ((A, 1), (B, 1))
    for count in (True, False, 2.0, "2", None, 0, -3):
        with pytest.raises(BadIndex):
            wr.word_product(PAIR, wr.Word(((loop, count),)))


# ------------------------------------------------------------------ hij


def test_hij_examples():
    assert wr.build_hij(PAIR)[(1, 1)].is_zero
    zeros = wr.GeneratorSet(plus=(L([]),), minus=(L([]),))
    assert wr.build_hij(zeros)[(1, 1)].is_zero
    g = wr.GeneratorSet(plus=(L([0, 1]),), minus=(L([1]),))
    assert wr.build_hij(g)[(1, 1)] == L([2])


@given(st.lists(laurents, min_size=1, max_size=3),
       st.lists(laurents, min_size=1, max_size=3))
def test_hij_is_upper_right_of_product(plus, minus):
    gens = wr.GeneratorSet(tuple(plus), tuple(minus))
    hij = wr.build_hij(gens)
    for i in range(1, len(plus) + 1):
        for j in range(1, len(minus) + 1):
            prod = wr.mul(gens.element(A, i), gens.element(B, j))
            assert prod.b == 0
            assert hij[(i, j)] == prod.f


# --------------------------------------------------------------- covers


def test_covers_singleton():
    assert [c.pairs for c in enumerate_covers([1], [1])] == [((1, 1),)]


def test_covers_two_by_one():
    assert [c.pairs for c in enumerate_covers([1, 2], [1])] == [((1, 1), (2, 1))]


def test_covers_two_by_two():
    covers = list(enumerate_covers([1, 2], [1, 2]))
    assert len(covers) == 7
    sizes = [len(c.pairs) for c in covers]
    assert sizes == sorted(sizes)  # ascending cardinality
    assert covers[0].pairs == ((1, 1), (2, 2))
    for c in covers:
        assert {p[0] for p in c.pairs} == {1, 2}
        assert {p[1] for p in c.pairs} == {1, 2}
    assert len(set(covers)) == 7


def test_covers_cap():
    with pytest.raises(SearchSpaceTooLarge):
        list(enumerate_covers(range(1, 6), range(1, 6)))
    with pytest.raises(SearchSpaceTooLarge):
        list(enumerate_covers(range(1, 4), range(1, 4), cap=8))
    assert len(list(enumerate_covers(range(1, 4), range(1, 4), cap=9))) == 265


# --------------------------------------------------------------- group


def test_is_group_trivial_pair():
    ok, (cover, witness) = wr.is_group(PAIR)
    assert ok
    assert cover.pairs == ((1, 1),)
    assert witness is not None
    word = wr.synthesize_identity_word(PAIR, cover, witness)
    assert str(word) == "A1 B1"


def test_is_group_false_pair():
    assert wr.is_group(STUCK) == (False, None)
    # cross-check: no identity word exists among short products
    assert exhaustive_identity_search(STUCK, 8) is None


def test_is_group_zero_generators():
    zeros = wr.GeneratorSet(plus=(L([]),), minus=(L([]),))
    ok, (cover, witness) = wr.is_group(zeros)
    assert ok and cover.pairs == ((1, 1),)


def test_is_group_empty_side():
    assert wr.is_group(wr.GeneratorSet((L([1]),), ())) == (False, None)
    assert wr.is_group(wr.GeneratorSet((), (L([1]),))) == (False, None)
    assert wr.is_group(wr.GeneratorSet((), ())) == (False, None)


def test_is_group_needs_full_cover():
    # h11 = 0 but the second ascent generator is not invertible
    gens = wr.GeneratorSet(plus=(L([1]), L([0] * 5 + [1])), minus=(L([-1], -1),))
    assert wr.is_group(gens)[0] is False


# ------------------------------------------------------------- identity


def test_identity_via_subset():
    gens = wr.GeneratorSet(plus=(L([1]), L([0] * 5 + [1])), minus=(L([-1], -1),))
    assert wr.identity_in_semigroup(gens) is True
    found, word = wr.identity_witness_word(gens)
    assert found and word is not None
    assert str(word) == "A1 B1"
    assert wr.word_product(gens, word) == wr.WreathElement.identity()


def test_identity_single_sign():
    assert wr.identity_in_semigroup(wr.GeneratorSet((L([1]),), ())) is False


def test_identity_false_pair():
    assert wr.identity_in_semigroup(STUCK) is False
    assert wr.identity_witness_word(STUCK) == (False, None)
    assert exhaustive_identity_search(STUCK, 10) is None


def test_identity_subset_cap():
    # one-sided generators leave no pair, so the maximal support is
    # empty however many there are
    gens = wr.GeneratorSet((L([1]),) * 13, ())
    assert wr.identity_in_semigroup(gens) is False
    assert wr.identity_witness_word(gens) == (False, None)


# ------------------------------------------------------ maximal support


def _cover_oracle(gens):
    """(is_group, identity) by deciding every cover, smallest first."""
    hij = wr.build_hij(gens)
    seen = {}

    def solvable(cover):
        if cover.pairs not in seen:
            hs, _ = laurent_normalize([hij[p] for p in cover.pairs])
            seen[cover.pairs] = decide(hs).status == SOLVABLE
        return seen[cover.pairs]

    def nonempty_subsets(n):
        idx = range(1, n + 1)
        return [c for k in range(1, n + 1) for c in combinations(idx, k)]

    rows, cols = len(gens.plus), len(gens.minus)
    group = any(solvable(c) for c in enumerate_covers(range(1, rows + 1),
                                                       range(1, cols + 1)))
    identity = any(solvable(c) for ps in nonempty_subsets(rows)
                   for qs in nonempty_subsets(cols)
                   for c in enumerate_covers(ps, qs))
    return group, identity


def _counting_decide(monkeypatch):
    calls = []
    real = wr.decide

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(wr, "decide", counted)
    return calls


def _round_bound(gens):
    # each Unsolvable round leaves a rectangle with a row or column fewer
    return len(gens.plus) + len(gens.minus) - 1


def _check_rectangle_facts(gens, calls):
    """M = rows(M) x cols(M); is_group is one decide on I x J; round bound."""
    hij = wr.build_hij(gens)
    del calls[:]
    support = wr._maximal_support(hij, hij)
    assert len(calls) <= _round_bound(gens)
    rows, cols = {i for i, _ in support}, {j for _, j in support}
    assert set(support) == {(i, j) for i in rows for j in cols}
    hs, _ = laurent_normalize(list(hij.values()))
    assert wr.is_group(gens)[0] == (decide(hs).status == SOLVABLE)


def test_maximal_support_matches_cover_oracle(monkeypatch):
    # every identity word is synthesized on M from find_witness on M,
    # and multiplies to the identity
    synthesize = wr.synthesize_identity_word
    inputs = []

    def recorded(gens, cover, witness):
        inputs.append((cover, witness))
        return synthesize(gens, cover, witness)

    monkeypatch.setattr(wr, "synthesize_identity_word", recorded)
    rng = random.Random(4242)
    calls = _counting_decide(monkeypatch)
    words = 0
    for trial in range(200):
        gens = _random_gens(rng, rng.randint(1, 3), rng.randint(1, 3))
        want = _cover_oracle(gens)
        got = (wr.is_group(gens)[0], wr.identity_in_semigroup(gens))
        assert got == want, (trial, gens)
        hij = wr.build_hij(gens)
        del inputs[:]
        found, word = wr.identity_witness_word(gens)
        assert found == want[1], trial
        if found:
            support = wr._maximal_support(hij, hij)
            hs, _ = laurent_normalize([hij[p] for p in support])
            assert inputs == [(wr.CoverSubset(support), nx.find_witness(hs))], trial
            assert wr.word_product(gens, word) == wr.WreathElement.identity(), trial
            words += 1
        else:
            assert word is None and inputs == [], trial
        _check_rectangle_facts(gens, calls)
    assert words > 40


def _planted_rows(rng, rows, cols):
    # H_i = 0 on some rows and a positive constant on the rest, G_j =
    # c_j (1 - X): the zero rows cancel alone when the c_j take both
    # signs, and at t = 1 every other row is positive, so M is the zero
    # rows times J, or empty
    zero = rng.sample(range(rows), rng.randint(1, rows - 1))
    plus = [L([0] if i in zero else [rng.randint(1, 3)]) for i in range(rows)]
    cs = [rng.choice((-2, -1, 1, 2)) for _ in range(cols)]
    return wr.GeneratorSet(tuple(plus), tuple(L([c, -c]) for c in cs))


def test_rectangle_facts_on_larger_grids(monkeypatch):
    # 3x3 to 5x6: past the cover oracle's reach, the same three facts
    rng = random.Random(2209)
    calls = _counting_decide(monkeypatch)
    kinds = Counter()
    for rows in range(3, 6):
        for cols in range(3, 7):
            for make in (_random_gens,) * 4 + (_planted_rows,):
                gens = make(rng, rows, cols)
                _check_rectangle_facts(gens, calls)
                m = len(wr._support(gens))
                kinds["empty" if not m else "full" if m == rows * cols else "proper"] += 1
    assert kinds["proper"] >= 5 and kinds["empty"] and kinds["full"], kinds


# Generator sets whose M is a proper nonempty rectangle, found by a
# seeded search over 3x3 to 5x6 grids: (plus, minus, M), each generator
# given as (coeffs, lowest)
PROPER = (
    ((([2], -2), ([-2, 2, 2], 0), ([2, -3, 2, 2], 0), ([2], -2)),
     (([], 0), ([-2], 1), ([-2, 1], -1), ([-1], 0), ([-1, 1], -1)),
     ((1, 2), (2, 2), (4, 2))),
    ((([-2], -1), ([-3, -3], -1), ([-1, -3], 0), ([-2, 0, -1, -2], 0)),
     (([3], -1), ([1, 3], 0), ([3], -1)),
     ((1, 1), (1, 3), (3, 1), (3, 3))),
    ((([1, 1], -1), ([3, -1], -1), ([2, 3], 0)),
     (([2, 1, -2, -3], -1), ([-1], 0), ([2, -3, 3], -2), ([-2], -2), ([2], 0), ([-1], -2)),
     ((1, 1), (1, 4), (2, 1), (2, 4))),
    ((([3], -2), ([1, 1], 0), ([3, 1, 3, 3], -1), ([2, -1], 0)),
     (([2], -2), ([-1], -1), ([1, 1, -3], -2), ([2, 1, -2], -1), ([3, 2], -2),
      ([-3, 2, -1, 1], -1)),
     ((4, 2), (4, 3), (4, 6))),
    ((([1], -2), ([], 0), ([-2, -1, 2], -2), ([-1, -1, 2, 1], -1), ([1], 0)),
     (([1, -2], -1), ([-1], -2), ([-3, -1, -2, -2], -2)),
     ((1, 1), (1, 2), (4, 1), (4, 2), (5, 1), (5, 2))),
    ((([-1, 2], -1), ([1, -3, 2], -2), ([1, 1, -1], -2), ([], 0), ([3, 0, -1, -1], -2)),
     (([-3, 3], -2), ([1, 2, -3], -2), ([2, 3, 3], 0)),
     ((2, 1), (2, 2), (4, 1), (4, 2))),
    ((([3], -2), ([3], -1), ([], 0), ([2, 1], -1)),
     (([], 0), ([-1, 2], -2), ([1, -1, -2], 0)),
     ((3, 1), (3, 2), (3, 3))),
)


@pytest.mark.parametrize("plus, minus, support", PROPER)
def test_proper_support_words(plus, minus, support):
    gens = wr.GeneratorSet(tuple(L(*h) for h in plus), tuple(L(*g) for g in minus))
    assert wr._support(gens) == support
    rows, cols = {i for i, _ in support}, {j for _, j in support}
    assert set(support) == {(i, j) for i in rows for j in cols}
    assert 0 < len(support) < len(plus) * len(minus)
    assert wr.is_group(gens) == (False, None)
    found, word = wr.identity_witness_word(gens)
    assert found and word is not None
    assert _product_is_fold(gens, word) == wr.WreathElement.identity()
    # the word is synthesized on M: it uses M's rows and columns only
    assert set(_expand(word.letters)) == {(A, i) for i in rows} | {(B, j) for j in cols}


def test_witnesses_match_fraction_lp_on_cover_oracle_grids(monkeypatch):
    # the grids of the cover-oracle test: the integer tableau must hand
    # synthesis the same (cover, witness) as the Fraction reference
    monkeypatch.setattr(wr, "synthesize_identity_word",
                        lambda gens, cover, witness: (cover, witness))
    rng = random.Random(4242)
    grids = [_random_gens(rng, rng.randint(1, 3), rng.randint(1, 3))
             for _ in range(200)]

    def answers():
        return [(wr.is_group(g), wr.identity_witness_word(g)) for g in grids]

    fast = answers()
    assert sum(word is not None for _, (_, word) in fast) > 40
    monkeypatch.setattr(nx, "rational_feasibility", rational_feasibility_reference)
    # the memo holds the last grid's witness from the integer tableau
    _forget_analysis()
    assert answers() == fast


def _five_by_five(plus, minus):
    return wr.GeneratorSet(tuple(L(h) for h in plus), tuple(L(g) for g in minus))


def test_five_by_five_verdicts(monkeypatch):
    # 25 pairs: above the old 20-pair cover cap
    signs = (-1, 2, -1, 2, -1)
    # cleared h_ij = i + a_j X: row 0's a_j take both signs, so M is full
    group = _five_by_five([[i] for i in range(5)], [[a] for a in signs])
    ok, (cover, witness) = wr.is_group(group)
    assert ok and cover.pairs == tuple(sorted(wr.build_hij(group)))
    assert witness is not None
    assert wr.identity_in_semigroup(group) is True
    # every cleared h_ij = (i+1) + j X is positive for t > 0
    none = _five_by_five([[i + 1] for i in range(5)], [[j] for j in range(5)])
    assert wr.is_group(none) == (False, None)
    assert wr.identity_in_semigroup(none) is False
    # G_j = a_j (1 - X): row 1 cancels alone, and at t = 1 row 1 vanishes
    # while the cleared rows 2..5, 1 + a_j t (1 - t), are 1, so M is row
    # 1 alone: identity but no group
    row = _five_by_five([[0]] + [[1]] * 4, [[a, -a] for a in signs])
    calls = _counting_decide(monkeypatch)
    hij = wr.build_hij(row)
    support = wr._maximal_support(hij, hij)
    assert support == tuple((1, j) for j in range(1, 6))
    assert len(calls) <= _round_bound(row)
    assert wr.is_group(row) == (False, None)
    assert wr.identity_in_semigroup(row) is True
    found, word = wr.identity_witness_word(row)
    assert found and wr.word_product(row, word) == wr.WreathElement.identity()
    assert {side for side, i in _expand(word.letters) if i > 1} <= {B}


def test_sign_at_zero_round_drops_every_nonzero_pair(monkeypatch):
    # h_11 = X^-1 (1 + X) and h_12 = X^-1 (1 + 2X) are both positive at 0,
    # h_13 = 0: the first round is UniformSignAtZero, its strict signs at
    # 0 drop both nonzero pairs, and M is the zero pair alone
    gens = wr.GeneratorSet(plus=(L([1]),), minus=(L([1]), L([2]), L([-1], -1)))
    real, reasons = wr.decide, []

    def recorded(*args, **kwargs):
        verdict = real(*args, **kwargs)
        reasons.append(verdict.unsolvable_reason)
        return verdict

    monkeypatch.setattr(wr, "decide", recorded)
    hij = wr.build_hij(gens)
    assert wr._maximal_support(hij, hij) == ((1, 3),)
    assert reasons == [nx.UNIFORM_SIGN_AT_ZERO, None]
    assert wr.is_group(gens) == (False, None)
    assert wr.identity_in_semigroup(gens) is True


# ------------------------------------------------------- shared analysis

# cleared h_ij = i + a_j X with a = (-1, 2): M is all four pairs
SMALL_GROUP = wr.GeneratorSet((L([0]), L([1])), (L([-1]), L([2])))
# M is row 1 alone: identity but no group
ROW_ONLY = wr.GeneratorSet((L([0]), L([1])), (L([1, -1]), L([-2, 2])))


def _counting_analysis(monkeypatch):
    """Counter of calls to wreath's decide ("decide") and the LP ("lp")."""
    counts = Counter()
    real_decide, real_lp = wr.decide, nx.rational_feasibility

    def decide_(*args, **kwargs):
        counts["decide"] += 1
        return real_decide(*args, **kwargs)

    def lp(*args, **kwargs):
        counts["lp"] += 1
        return real_lp(*args, **kwargs)

    monkeypatch.setattr(wr, "decide", decide_)
    monkeypatch.setattr(nx, "rational_feasibility", lp)
    return counts


def test_group_then_word_costs_one_analysis(monkeypatch):
    counts = _counting_analysis(monkeypatch)
    found, word = wr.identity_witness_word(SMALL_GROUP)
    alone = dict(counts)
    assert found and alone["decide"] >= 1 and alone["lp"] >= 1
    _forget_analysis()
    counts.clear()
    ok, (cover, witness) = wr.is_group(SMALL_GROUP)
    assert ok and witness is not None
    assert wr.identity_witness_word(SMALL_GROUP) == (found, word)
    assert dict(counts) == alone


def test_identity_verdict_reuses_either_analysis(monkeypatch):
    counts = _counting_analysis(monkeypatch)
    for first in (wr.is_group, wr.identity_witness_word):
        _forget_analysis()
        first(SMALL_GROUP)
        counts.clear()
        assert wr.identity_in_semigroup(SMALL_GROUP) is True
        assert counts["decide"] == 0 and counts["lp"] == 0


def test_non_group_runs_no_lp(monkeypatch):
    counts = _counting_analysis(monkeypatch)
    assert wr.is_group(ROW_ONLY) == (False, None)
    assert wr.identity_in_semigroup(ROW_ONLY) is True
    assert counts["decide"] >= 1 and counts["lp"] == 0
    found, word = wr.identity_witness_word(ROW_ONLY)
    assert found and wr.word_product(ROW_ONLY, word) == wr.WreathElement.identity()
    assert counts["lp"] >= 1


def test_analysis_memo_holds_one_generator_set(monkeypatch):
    counts = _counting_analysis(monkeypatch)
    wr.identity_witness_word(SMALL_GROUP)
    alone = dict(counts)
    wr.identity_witness_word(ROW_ONLY)
    counts.clear()
    # ROW_ONLY displaced SMALL_GROUP, so its analysis runs again in full
    wr.identity_witness_word(SMALL_GROUP)
    assert dict(counts) == alone


def test_hij_built_once_per_generator_set(monkeypatch):
    # M's rounds, the witness on M and the word's check share one h_ij map
    calls = []
    real = wr.build_hij
    monkeypatch.setattr(wr, "build_hij", lambda gens: calls.append(gens) or real(gens))
    ok, _ = wr.is_group(SMALL_GROUP)
    found, word = wr.identity_witness_word(SMALL_GROUP)
    assert ok and found and word is not None
    assert wr.identity_in_semigroup(SMALL_GROUP)
    assert calls == [SMALL_GROUP]
    with pytest.raises(TypeError):
        wr._hij(SMALL_GROUP)[1, 1] = None


def test_exhaustive_search_finds_shortest():
    word = exhaustive_identity_search(PAIR, 6)
    assert len(word) == 2
    assert wr.word_product(PAIR, word) == wr.WreathElement.identity()
    zeros = wr.GeneratorSet(plus=(L([]),), minus=(L([]),))
    assert len(exhaustive_identity_search(zeros, 4)) == 2


# -------------------------------------------------------------- synthesis


FIGURE_PAIRS = ((1, 2), (2, 1), (2, 2), (3, 1))
FIGURE_F = {
    (1, 2): P(0, 1, 0, 0, 0, 2),  # X + 2X^5
    (2, 1): P(1, 1, 1, 1),
    (2, 2): P(0, 0, 0, 1, 1, 1, 1),
    (3, 1): P(3, 0, 1),
}


def test_plan_figure_pivots_and_blocks():
    plan = plan_reference(FIGURE_PAIRS, FIGURE_F)
    assert plan.uv == (2, 1) and plan.yz == (2, 2)
    assert plan.scale == 0 and plan.strip == 0
    counts = Counter(plan.base)
    # w0 letter counts: A_u^3, A_y^3 (same generator), B_z^3, B_v^3
    assert counts == {(A, 2): 6, (B, 1): 3, (B, 2): 3}


def test_plan_figure_loop_multiset():
    plan = plan_reference(FIGURE_PAIRS, FIGURE_F)
    multiset = Counter()
    for pair, k, count in plan.loops:
        multiset[(pair, k)] += count
    assert multiset == {
        ((1, 2), 1): 1,
        ((1, 2), 5): 2,
        ((2, 1), 3): 1,  # (u,v) pivot residue
        ((2, 2), 6): 1,  # (y,z) pivot residue
        ((3, 1), 0): 3,
        ((3, 1), 2): 1,
    }


def test_plan_figure_word_conserves_u():
    rng = random.Random(31)
    plan = plan_reference(FIGURE_PAIRS, FIGURE_F)
    word = wr.Word(plan.letters)
    assert word.height == 0
    for _ in range(20):
        gens = _random_gens(rng, 3, 2)
        assert wr.word_product(gens, word).f == _expected_u(gens, plan)


def test_plan_strip_common_power():
    plan = plan_reference(((1, 1), (1, 2)), {(1, 1): P(0, 2), (1, 2): P(0, 0, 1)})
    assert plan.strip == 1
    # deg f'_uv must reach the order of f_yz, which forces one (1+X) factor
    assert plan.scale == 1
    assert dict(plan.scaled) == {(1, 1): P(2, 2), (1, 2): P(0, 1, 1)}


def test_plan_single_pair_valley_loop():
    plan = plan_reference(((1, 1),), {(1, 1): P(1, 1, 1)})
    assert plan.uv == plan.yz == (1, 1)
    assert plan.base == ((A, 1), (B, 1), (B, 1), (A, 1))
    assert plan.loops == (((1, 1), 2, 1),)  # X^2 residue at the valley
    assert plan.letters == ((A, 1), (B, 1), (B, 1), (B, 1), (A, 1), (A, 1))


def test_plan_constant_inputs_anchor_at_front():
    plan = plan_reference(((1, 1), (2, 1)), {(1, 1): P(2), (2, 1): P(1)})
    assert plan.base == ()
    assert plan.letters == ((((A, 1), (B, 1)), 2), (A, 2), (B, 1))
    assert _expand(plan.letters) == ((A, 1), (B, 1), (A, 1), (B, 1), (A, 2), (B, 1))


def test_plan_scale_lifts_gaps():
    # 1 + X^2 has a zero middle coefficient, so m = 0 cannot work
    plan = plan_reference(((1, 1),), {(1, 1): P(1, 0, 1)})
    assert plan.scale == 1
    assert dict(plan.scaled)[(1, 1)] == P(1, 1, 1, 1)
    # 1 + X^5: (1 + X)^4 bridges the four zeros
    assert plan_reference(((1, 1),), {(1, 1): P(1, 0, 0, 0, 0, 1)}).scale == 4
    # f_uv = 1, f_yz = X^3: deg f_uv + m must reach ord f_yz = 3
    assert plan_reference(((1, 1), (1, 2)), {(1, 1): P(1), (1, 2): P(0, 0, 0, 1)}).scale == 3


def test_synthesize_rejects_bad_f():
    # on an all-zero cover every f cancels the sum, so only the witness
    # check that f is nonzero in N[X] refuses these; _walk trusts it
    zeros = wr.GeneratorSet(plus=(L([]),) * 2, minus=(L([]),) * 2)
    cover = wr.CoverSubset(((1, 1), (2, 2)))
    for bad in (IntPoly.zero(), P(1, -1)):
        with pytest.raises(InvalidWitness):
            wr.synthesize_identity_word(zeros, cover, WitnessTuple(fs=(P(1), bad)))


_BROKEN_WALK = """
import sys
from posring import wreath as wr
from posring.errors import PostconditionFailed
from posring.polyring import LaurentPoly as L
real = wr._walk
wr._walk = lambda pairs, fs: real(pairs, fs)[:-1]
gens = wr.GeneratorSet(plus=(L([1]), L([-1, 1])), minus=(L([1]), L([-2])))
try:
    wr.identity_witness_word(gens)
except PostconditionFailed as exc:
    print(sys.flags.optimize, exc)
"""


def test_synthesis_check_survives_optimize():
    # a wrong word from the walk must be caught even where -O strips asserts
    proc = subprocess.run([sys.executable, "-O", "-c", _BROKEN_WALK],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "1 synthesized word failed the exact product check"


def test_synthesize_degenerate_zero_cover():
    zeros = wr.GeneratorSet(plus=(L([]),) * 2, minus=(L([]),) * 2)
    cover = wr.CoverSubset(((1, 1), (2, 2)))
    word = wr.synthesize_identity_word(zeros, cover, WitnessTuple(fs=(P(1), P(2))))
    # the general walk: the witness sets each pair's power
    assert str(word) == "(A2 B2)^2 A1 B1"
    assert wr.word_product(zeros, word) == wr.WreathElement.identity()


def test_synthesize_rejects_bad_witness():
    ok, (cover, witness) = wr.is_group(PAIR)
    with pytest.raises(InvalidWitness):
        wr.synthesize_identity_word(PAIR, cover, WitnessTuple(fs=(P(1), P(1))))
    with pytest.raises(InvalidWitness):
        wr.synthesize_identity_word(STUCK, wr.CoverSubset(((1, 1),)),
                                    WitnessTuple(fs=(P(1),)))
    with pytest.raises(BadIndex):
        wr.synthesize_identity_word(PAIR, wr.CoverSubset(((1, 2),)),
                                    WitnessTuple(fs=(P(1),)))
    with pytest.raises(InvalidWitness):
        wr.synthesize_identity_word(PAIR, wr.CoverSubset(()), WitnessTuple(fs=()))


# ------------------------------------------------- synthesis invariants


def _random_gens(rng, np_, nm):
    def poly():
        body = [rng.randint(-3, 3) for _ in range(rng.randint(1, 4))]
        if not any(body):
            return LaurentPoly.zero()
        return LaurentPoly(body, rng.randint(-2, 0))

    return wr.GeneratorSet(tuple(poly() for _ in range(np_)),
                           tuple(poly() for _ in range(nm)))


def _random_nat_poly(rng):
    while True:
        cs = [rng.randint(0, 3) for _ in range(rng.randint(1, 6))]
        if any(cs):
            return IntPoly(cs)


def _expected_u(gens, plan):
    hij = wr.build_hij(gens)
    total = LaurentPoly.zero()
    for pair, f in plan.scaled:
        total = total + LaurentPoly.from_intpoly(f) * hij[pair]
    return total


def _walk_scale(fs):
    # (m, X^-ord T (1 + X)^m) for T = sum f_ij, m from the gap scan
    t = sum(fs, IntPoly.zero())
    m = walk_scale_reference(t)
    return m, LaurentPoly([comb(m, i) for i in range(m + 1)], -order_at_zero(t))


def _gappy_nat_poly(rng):
    # sparse, so that T = sum f_ij often has inner zero runs to fill
    while True:
        cs = [rng.choice((0, 0, 0, 1, 2)) for _ in range(rng.randint(1, 8))]
        if any(cs):
            return IntPoly([0] * rng.randint(0, 2) + cs)


def test_u_conservation_random():
    # the central synthesis invariant: no zero sum required
    rng = random.Random(1789)
    for trial in range(220):
        np_, nm = rng.randint(1, 3), rng.randint(1, 3)
        gens = _random_gens(rng, np_, nm)
        covers = list(enumerate_covers(range(1, np_ + 1), range(1, nm + 1)))
        cover = rng.choice(covers)
        make = _gappy_nat_poly if trial % 2 else _random_nat_poly
        fs = [make(rng) for _ in cover.pairs]
        word = wr.Word(wr._walk(cover.pairs, fs))
        assert word.height == 0
        hij = wr.build_hij(gens)
        total = LaurentPoly.zero()
        for p, f in zip(cover.pairs, fs):
            total = total + LaurentPoly.from_intpoly(f) * hij[p]
        want = wr.WreathElement(_walk_scale(fs)[1] * total, 0)
        assert wr.word_product(gens, word) == want, (trial, cover, fs)


def test_walk_length_never_exceeds_the_figure_construction():
    # 2 * 2^m * sum f_ij(1) letters; the Figure 1 construction writes
    # 2 * 2^m' * sum f_ij(1) with m' >= m, as its (1 + X)^m' fills T's gaps
    rng = random.Random(1414)
    filled = 0
    for trial in range(300):
        np_, nm = rng.randint(1, 3), rng.randint(1, 3)
        cover = rng.choice(list(enumerate_covers(range(1, np_ + 1), range(1, nm + 1))))
        fs = [_gappy_nat_poly(rng) for _ in cover.pairs]
        m = _walk_scale(fs)[0]
        word = wr.Word(wr._walk(cover.pairs, fs))
        assert len(word) == 2 * 2**m * sum(sum(f.coeffs) for f in fs), (trial, fs)
        plan = plan_reference(cover.pairs, dict(zip(cover.pairs, fs)))
        assert len(word) <= len(wr.Word(plan.letters)), (trial, fs)
        filled += m > 0
    assert filled > 30, filled


def _planted_group(rng):
    # criterion 6's planted 2x2 group: H2 = -H1 - X*(G1 + G2) makes
    # h11 + h22 = h12 + h21 = 0, so (1, 1, 1, 1) cancels on I x J
    h1 = _random_gens(rng, 1, 1).plus[0]
    g1, g2 = _random_gens(rng, 1, 1).minus[0], _random_gens(rng, 1, 1).minus[0]
    return wr.GeneratorSet(plus=(h1, -h1 - LaurentPoly([0, 1]) * (g1 + g2)), minus=(g1, g2))


FULL_2X2 = wr.CoverSubset(((1, 1), (1, 2), (2, 1), (2, 2)))


def test_zero_sum_yields_identity_word():
    # any witness of the shape (g, g', g', g) on the full 2x2 cover cancels
    rng = random.Random(97)
    for trial in range(60):
        gens = _planted_group(rng)
        g, gp = _random_nat_poly(rng), _random_nat_poly(rng)
        witness = WitnessTuple(fs=(g, gp, gp, g))
        word = wr.synthesize_identity_word(gens, FULL_2X2, witness)
        assert wr.word_product(gens, word) == wr.WreathElement.identity(), trial


def test_planted_unit_witness_word_has_no_power():
    # (1, 1, 1, 1), the witness of every planted 2x2 word file the CLI
    # benchmark reads one letter per token: one spine unit, three loops
    rng = random.Random(55)
    for _ in range(10):
        gens = _planted_group(rng)
        word = wr.synthesize_identity_word(gens, FULL_2X2, WitnessTuple(fs=(P(1),) * 4))
        assert str(word) == "A1 B2 A2 B1 A2 B2 A1 B1"


def test_identity_word_names_every_generator_of_m():
    # every f_ij on M is nonzero, so the word names each row and column of
    # M; on a group, M = I x J and the word names every generator.  Then
    # it proves the group verdict: each rotation of an identity word is
    # a conjugate of it, so the letter it starts with has an inverse
    rng = random.Random(3232)
    groups = proper = 0
    for trial in range(60):
        gens = _planted_group(rng) if trial % 2 else _planted_rows(rng, 3, rng.randint(2, 4))
        found, word = wr.identity_witness_word(gens)
        if not found:
            continue
        support = wr._support(gens)
        named = set(_expand(word.letters))
        assert named == {(A, i) for i, _ in support} | {(B, j) for _, j in support}, trial
        if wr.is_group(gens)[0]:
            groups += 1
            assert len(named) == len(gens.plus) + len(gens.minus), trial
        else:
            proper += 1
        firsts = {}
        for k, e in enumerate(word.letters):
            firsts.setdefault(e[0][0] if isinstance(e[0], tuple) else e, k)
        for k in firsts.values():
            turned = wr.Word(word.letters[k:] + word.letters[:k])
            assert wr.word_product(gens, turned) == wr.WreathElement.identity(), trial
    assert groups >= 20 and proper >= 10, (groups, proper)


_gappy = st.tuples(st.integers(0, 3), st.lists(st.sampled_from((0, 0, 0, 1, 2)),
                                               min_size=1, max_size=7).filter(any))


@settings(max_examples=300)
@given(st.lists(_gappy, min_size=1, max_size=3))
def test_plan_scale_matches_scan_reference(fs):
    # the closed-form (1 + X)^m scale against trying m = 0, 1, ... on
    # witnesses with gaps and X-orders, one pair (i, 1) per f
    pairs = tuple((i + 1, 1) for i in range(len(fs)))
    f_map = {p: IntPoly([0] * k + cs) for p, (k, cs) in zip(pairs, fs)}
    plan = plan_reference(pairs, f_map)
    f_uv, f_yz = (IntPoly(f_map[p].coeffs[plan.strip:]) for p in (plan.uv, plan.yz))
    assert plan.scale == plan_scale_reference(f_uv, f_yz)


@settings(max_examples=40)
@given(st.lists(st.integers(0, 4), min_size=1, max_size=5),
       st.lists(st.integers(0, 4), min_size=1, max_size=5))
def test_plan_uses_every_pair(cs1, cs2):
    if not any(cs1):
        cs1 = cs1 + [1]
    if not any(cs2):
        cs2 = cs2 + [2]
    pairs = ((1, 1), (2, 1))
    plan = plan_reference(pairs, {(1, 1): IntPoly(cs1), (2, 1): IntPoly(cs2)})
    used = set(_expand(plan.letters))
    assert (A, 1) in used and (A, 2) in used and (B, 1) in used
