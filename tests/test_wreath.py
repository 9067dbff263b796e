import random
import subprocess
import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posring.errors import BadIndex, InvalidWitness, TooLarge
from posring.nxsolve import WitnessTuple
from posring.polyring import IntPoly, LaurentPoly
from posring import wreath as wr


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
    assert [c.pairs for c in wr.enumerate_covers([1], [1])] == [((1, 1),)]


def test_covers_two_by_one():
    assert [c.pairs for c in wr.enumerate_covers([1, 2], [1])] == [((1, 1), (2, 1))]


def test_covers_two_by_two():
    covers = list(wr.enumerate_covers([1, 2], [1, 2]))
    assert len(covers) == 7
    sizes = [len(c.pairs) for c in covers]
    assert sizes == sorted(sizes)  # ascending cardinality
    assert covers[0].pairs == ((1, 1), (2, 2))
    for c in covers:
        assert {p[0] for p in c.pairs} == {1, 2}
        assert {p[1] for p in c.pairs} == {1, 2}
    assert len(set(covers)) == 7


def test_covers_cap():
    with pytest.raises(TooLarge):
        list(wr.enumerate_covers(range(1, 6), range(1, 6)))
    with pytest.raises(TooLarge):
        list(wr.enumerate_covers(range(1, 4), range(1, 4), cap=8))
    assert len(list(wr.enumerate_covers(range(1, 4), range(1, 4), cap=9))) == 265


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
    assert wr.exhaustive_identity_search(STUCK, 8) is None


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
    assert wr.exhaustive_identity_search(STUCK, 10) is None


def test_identity_subset_cap():
    with pytest.raises(TooLarge):
        wr.identity_in_semigroup(wr.GeneratorSet((L([1]),) * 13, ()))


def test_exhaustive_search_finds_shortest():
    word = wr.exhaustive_identity_search(PAIR, 6)
    assert len(word) == 2
    assert wr.word_product(PAIR, word) == wr.WreathElement.identity()
    zeros = wr.GeneratorSet(plus=(L([]),), minus=(L([]),))
    assert len(wr.exhaustive_identity_search(zeros, 4)) == 2


# -------------------------------------------------------------- synthesis


FIGURE_PAIRS = ((1, 2), (2, 1), (2, 2), (3, 1))
FIGURE_F = {
    (1, 2): P(0, 1, 0, 0, 0, 2),  # X + 2X^5
    (2, 1): P(1, 1, 1, 1),
    (2, 2): P(0, 0, 0, 1, 1, 1, 1),
    (3, 1): P(3, 0, 1),
}


def test_plan_figure_pivots_and_blocks():
    plan = wr._plan(FIGURE_PAIRS, FIGURE_F)
    assert plan.uv == (2, 1) and plan.yz == (2, 2)
    assert plan.scale == 0 and plan.strip == 0
    counts = Counter(plan.base)
    # w0 letter counts: A_u^3, A_y^3 (same generator), B_z^3, B_v^3
    assert counts == {(A, 2): 6, (B, 1): 3, (B, 2): 3}


def test_plan_figure_loop_multiset():
    plan = wr._plan(FIGURE_PAIRS, FIGURE_F)
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
    plan = wr._plan(FIGURE_PAIRS, FIGURE_F)
    word = wr.Word(plan.letters)
    assert word.height == 0
    for _ in range(20):
        gens = _random_gens(rng, 3, 2)
        assert wr.word_product(gens, word).f == _expected_u(gens, plan)


def test_plan_strip_common_power():
    plan = wr._plan(((1, 1), (1, 2)), {(1, 1): P(0, 2), (1, 2): P(0, 0, 1)})
    assert plan.strip == 1
    # deg f'_uv must reach the order of f_yz, which forces one (1+X) factor
    assert plan.scale == 1
    assert dict(plan.scaled) == {(1, 1): P(2, 2), (1, 2): P(0, 1, 1)}


def test_plan_single_pair_valley_loop():
    plan = wr._plan(((1, 1),), {(1, 1): P(1, 1, 1)})
    assert plan.uv == plan.yz == (1, 1)
    assert plan.base == ((A, 1), (B, 1), (B, 1), (A, 1))
    assert plan.loops == (((1, 1), 2, 1),)  # X^2 residue at the valley
    assert plan.letters == ((A, 1), (B, 1), (B, 1), (B, 1), (A, 1), (A, 1))


def test_plan_constant_inputs_anchor_at_front():
    plan = wr._plan(((1, 1), (2, 1)), {(1, 1): P(2), (2, 1): P(1)})
    assert plan.base == ()
    assert plan.letters == ((A, 1), (B, 1), (A, 1), (B, 1), (A, 2), (B, 1))


def test_plan_scale_lifts_gaps():
    # 1 + X^2 has a zero middle coefficient, so m = 0 cannot work
    plan = wr._plan(((1, 1),), {(1, 1): P(1, 0, 1)})
    assert plan.scale == 1
    assert dict(plan.scaled)[(1, 1)] == P(1, 1, 1, 1)


def test_plan_rejects_bad_f():
    with pytest.raises(InvalidWitness):
        wr._plan(((1, 1),), {(1, 1): IntPoly.zero()})
    with pytest.raises(InvalidWitness):
        wr._plan(((1, 1),), {(1, 1): P(1, -1)})


_BROKEN_PLAN = """
import dataclasses, sys
from posring import wreath as wr
from posring.errors import PostconditionFailed
from posring.polyring import LaurentPoly as L
real = wr._plan
def broken(pairs, f_map):
    plan = real(pairs, f_map)
    return dataclasses.replace(plan, letters=plan.letters[:-1])
wr._plan = broken
gens = wr.GeneratorSet(plus=(L([1]), L([-1, 1])), minus=(L([1]), L([-2])))
try:
    wr.identity_witness_word(gens)
except PostconditionFailed as exc:
    print(sys.flags.optimize, exc)
"""


def test_synthesis_check_survives_optimize():
    # a wrong word from the planner must be caught even where -O strips asserts
    proc = subprocess.run([sys.executable, "-O", "-c", _BROKEN_PLAN],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "1 synthesized word failed the exact product check"


def test_synthesize_degenerate_zero_cover():
    zeros = wr.GeneratorSet(plus=(L([]),) * 2, minus=(L([]),) * 2)
    cover = wr.CoverSubset(((1, 1), (2, 2)))
    word = wr.synthesize_identity_word(zeros, cover, WitnessTuple(fs=(P(1), P(2))))
    assert str(word) == "A1 B1 A2 B2"


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


def test_u_conservation_random():
    # the central synthesis invariant: no zero sum required
    rng = random.Random(1789)
    for trial in range(220):
        np_, nm = rng.randint(1, 3), rng.randint(1, 3)
        gens = _random_gens(rng, np_, nm)
        covers = list(wr.enumerate_covers(range(1, np_ + 1), range(1, nm + 1)))
        cover = rng.choice(covers)
        f_map = {p: _random_nat_poly(rng) for p in cover.pairs}
        plan = wr._plan(cover.pairs, f_map)
        word = wr.Word(plan.letters)
        assert word.height == 0
        prod = wr.word_product(gens, word)
        assert prod.b == 0
        assert prod.f == _expected_u(gens, plan), (trial, cover, f_map)


def test_zero_sum_yields_identity_word():
    # H2 = -H1 - X*(G1 + G2) makes h11 + h22 = h12 + h21 = 0, so any
    # witness of the shape (g, g', g', g) on the full 2x2 cover cancels
    rng = random.Random(97)
    xpoly = LaurentPoly([0, 1])
    for trial in range(60):
        h1 = _random_gens(rng, 1, 1).plus[0]
        g1, g2 = _random_gens(rng, 1, 1).minus[0], _random_gens(rng, 1, 1).minus[0]
        gens = wr.GeneratorSet(plus=(h1, -h1 - xpoly * (g1 + g2)), minus=(g1, g2))
        cover = wr.CoverSubset(((1, 1), (1, 2), (2, 1), (2, 2)))
        g, gp = _random_nat_poly(rng), _random_nat_poly(rng)
        witness = WitnessTuple(fs=(g, gp, gp, g))
        word = wr.synthesize_identity_word(gens, cover, witness)
        assert wr.word_product(gens, word) == wr.WreathElement.identity(), trial


@settings(max_examples=40)
@given(st.lists(st.integers(0, 4), min_size=1, max_size=5),
       st.lists(st.integers(0, 4), min_size=1, max_size=5))
def test_plan_uses_every_pair(cs1, cs2):
    if not any(cs1):
        cs1 = cs1 + [1]
    if not any(cs2):
        cs2 = cs2 + [2]
    pairs = ((1, 1), (2, 1))
    plan = wr._plan(pairs, {(1, 1): IntPoly(cs1), (2, 1): IntPoly(cs2)})
    used = {(side, i) for side, i in plan.letters}
    assert (A, 1) in used and (A, 2) in used and (B, 1) in used
