from fractions import Fraction
from itertools import islice
from math import comb
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from posring import kernels as K
from posring.polyring import IntPoly

from oracles import (
    content_reference,
    eval_scaled_reference,
    gcd_mod_fermat,
    order_reference,
    primes_reference,
    prs_gcd,
    shift1_reference,
    strip2_reference,
    sturm_chain,
)

MERSENNE = (1 << 61) - 1
SMALL_PRIME = 32749  # largest prime below 2^15
# the first two primes of kernels.gcd's walk
WALK = (SMALL_PRIME, MERSENNE)

coeff = st.integers(min_value=-(2 ** 192), max_value=2 ** 192)
raw = st.lists(coeff, max_size=8)
canon = raw.map(lambda cs: K.norm(list(cs)))
nonzero = canon.filter(lambda cs: bool(cs))
points = st.integers(-50, 50)


def at(p, t):
    # p(t) at an integer t, by Horner over the coefficient list
    acc = 0
    for c in reversed(p):
        acc = acc * t + c
    return acc


def is_canonical(p):
    return not p or p[-1] != 0


def rem_mod(a, b, m):
    # remainder of a by b over GF(m), b with an invertible leading coefficient
    r = [c % m for c in a]
    inv = pow(b[-1], m - 2, m)
    while len(r) >= len(b):
        c = r[-1] * inv % m
        off = len(r) - len(b)
        for j in range(len(b)):
            r[off + j] = (r[off + j] - c * b[j]) % m
        r.pop()
        while r and r[-1] == 0:
            r.pop()
    return r


# --------------------------------------------------------- ring basics


@given(raw)
def test_norm_strips_trailing_zeros_in_place(cs):
    cs = list(cs)
    expected = list(cs)
    while expected and expected[-1] == 0:
        expected.pop()
    out = K.norm(cs)
    assert out is cs
    assert out == expected


@given(canon, canon, points)
def test_ring_ops_agree_with_evaluation(a, b, t):
    for name, op in (("add", int.__add__), ("sub", int.__sub__),
                     ("mul", int.__mul__)):
        r = getattr(K, name)(a, b)
        assert is_canonical(r), name
        assert at(r, t) == op(at(a, t), at(b, t)), name
    assert K.add(a, b) == K.add(b, a)
    assert K.mul(a, b) == K.mul(b, a)
    assert K.neg(a) == K.sub([], a)
    assert K.add(a, K.neg(a)) == []
    # product rule pins deriv
    lhs = K.deriv(K.mul(a, b))
    rhs = K.add(K.mul(K.deriv(a), b), K.mul(a, K.deriv(b)))
    assert lhs == rhs


@given(canon, st.integers(-9, 9), st.integers(0, 6))
def test_scale_and_mul_xk(a, k, e):
    s = K.scale(a, k)
    assert is_canonical(s)
    assert s == K.mul(a, [k] if k else [])
    assert K.mul_xk(a, e) == K.mul(a, [0] * e + [1])


@given(canon, nonzero)
def test_exact_div_inverts_mul(q, b):
    a = K.mul(q, b)
    assert K.exact_div(list(a), list(b)) == q
    # q*b + 1 is a multiple of b only when b is a unit
    a2 = K.add(a, [1])
    q2 = K.exact_div(list(a2), list(b))
    if b in ([1], [-1]):
        assert K.mul(q2, b) == a2
    else:
        assert q2 is None


@given(canon)
def test_content_and_primitive_parts(a):
    c = K.content(a)
    if not a:
        assert c == 0
        assert K.primitive_signed(a) == K.primitive_pos(a) == K.strip2(a) == []
        return
    assert c > 0 and all(x % c == 0 for x in a)
    assert K.scale(K.primitive_signed(a), c) == a
    pp = K.primitive_pos(a)
    assert pp[-1] > 0 and K.content(pp) == 1
    assert K.scale(pp, c if a[-1] > 0 else -c) == a
    s2 = K.strip2(a)
    shift = (a[-1] // s2[-1]).bit_length() - 1
    assert K.scale(s2, 1 << shift) == a
    assert any(x & 1 for x in s2)


# empty, all-zero, and mixed-sign lists sharing a power of two
_bit_lists = st.one_of(
    st.lists(st.just(0), max_size=4),
    st.builds(lambda cs, k: [c << k for c in cs], raw, st.integers(0, 70)),
)


@given(_bit_lists)
def test_strip2_and_content_match_the_coefficient_loops(a):
    assert K.strip2(a) == strip2_reference(a)
    assert K.content(a) == content_reference(a)


@given(st.integers(0, 6), nonzero)
def test_order_matches_the_leading_zero_loop(k, a):
    a = [0] * k + a
    assert K.order(a) == K.order(tuple(a)) == order_reference(a) >= k


def test_order_refuses_the_zero_polynomial():
    for a in ([], [0], (0, 0)):
        with pytest.raises(ValueError):
            K.order(a)


@given(nonzero, nonzero)
def test_pseudo_rem_is_a_remainder(a, b):
    if len(a) < len(b):
        a, b = b, a
    r = K.pseudo_rem(a, b)
    assert is_canonical(r) and len(r) < len(b)
    e = len(a) - len(b) + 1
    assert K.exact_div(K.sub(K.scale(a, b[-1] ** e), r), b) is not None


@given(canon, canon)
def test_gcd_divides_both(a, b):
    g = K.gcd(a, b)
    if not a and not b:
        assert g == []
        return
    assert g[-1] > 0 and K.content(g) == 1
    for x in (a, b):
        if x:
            assert K.exact_div(list(x), g) is not None
    if a and b:
        ca, cb = K.exact_div(list(a), g), K.exact_div(list(b), g)
        assert K.gcd(ca, cb) == [1]
        # a common factor 3 + 3X survives as its primitive part 1 + X
        g3 = K.gcd(K.mul(a, [3, 3]), K.mul(b, [3, 3]))
        assert g3 == K.mul(g, [1, 1])


def _walk(a, b):
    # (kernels.gcd(a, b), the primes it hands gcd_mod, pseudo_rem calls)
    primes, prs = [], [0]
    gcd_mod, pseudo_rem = K.gcd_mod, K.pseudo_rem

    def counted_mod(x, y, m):
        primes.append(m)
        return gcd_mod(x, y, m)

    def counted_prs(x, y):
        prs[0] += 1
        return pseudo_rem(x, y)

    with mock.patch.object(K, "gcd_mod", counted_mod), \
            mock.patch.object(K, "pseudo_rem", counted_prs):
        g = K.gcd(a, b)
    return g, primes, prs[0]


def test_gcd_walk_unit_gcd_takes_one_prime():
    assert _walk([-2, 0, 1], [3, 1]) == ([1], [SMALL_PRIME], 0)


def test_gcd_walk_decides_a_spurious_factor_at_the_mersenne_prime():
    # X - 1 and X - 1 - 32749 are coprime over Q but equal mod 32749
    a, b = [-1, 1], [-1 - SMALL_PRIME, 1]
    assert K.gcd_mod(a, b, SMALL_PRIME) == [SMALL_PRIME - 1, 1]
    assert _walk(a, b) == ([1], list(WALK), 0)


def test_gcd_walk_skips_a_prime_that_drops_a_leading_coefficient():
    # 32749 X + 1 drops its degree mod 32749, so 2^61 - 1 decides
    assert K.gcd_mod([1, SMALL_PRIME], [2, 1], SMALL_PRIME) is None
    assert _walk([1, SMALL_PRIME], [2, 1]) == ([1], list(WALK), 0)
    # a prime dividing both leading coefficients is refused the same way
    assert K.gcd_mod([1, SMALL_PRIME], [2, SMALL_PRIME], SMALL_PRIME) is None
    assert _walk([1, SMALL_PRIME], [2, SMALL_PRIME]) == ([1], list(WALK), 0)


def test_gcd_walk_lifts_a_genuine_common_factor_without_a_prs():
    a = K.mul([-2, 0, 1], [3, 1])
    b = K.mul([-2, 0, 1], [-5, 1])
    assert _walk(a, b) == ([-2, 0, 1], [SMALL_PRIME], 0)


def test_gcd_walk_passes_two_primes_on_a_wide_factor():
    # g's coefficients run to about 300 bits, so its lift needs more
    # than 32749 * (2^61 - 1) and Miller-Rabin supplies the next primes
    g = [(1 << 300) + 7, -(3 << 298) + 1, 5 << 297, 1]
    a, b = K.mul(g, [2, 1]), K.mul(g, [-7, 0, 3])
    got, primes, prs = _walk(a, b)
    assert got == g and prs == 0
    assert primes[:2] == list(WALK) and len(primes) > 2
    assert primes[2:] == list(islice(K._primes(), 2, len(primes)))


def _miller_rabin(n):
    # independent of kernels._primes: deterministic below 3.3 * 10^24
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = pow(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
    return True


def test_gcd_walk_primes():
    first = list(islice(K._primes(), 5))
    assert first == [32749, 2305843009213693951, 2305843009213693921,
                     2305843009213693907, 2305843009213693723]
    assert all(_miller_rabin(p) for p in first)
    # nothing skipped: 32749 is the largest prime below 2^15, and the
    # walk below 2^61 - 1 passes over composites only
    assert not any(_miller_rabin(n) for n in range(32751, 1 << 15, 2))
    assert not any(_miller_rabin(n) for n in range(first[-1] + 2, first[1], 2)
                   if n not in first)


def test_gcd_walk_primes_match_the_twelve_base_walk():
    # squaring each power in turn, on the seven bases exact below 2^64,
    # keeps every prime of the walk that recomputed its powers on twelve
    assert list(islice(K._primes(), 300)) == list(islice(primes_reference(), 300))


@st.composite
def gcd_pairs(draw):
    """Pairs with a planted common factor, where the first primes of the
    walk may divide a leading coefficient or the cofactors' resultant."""
    small = st.lists(st.integers(-40, 40), min_size=1, max_size=6).map(
        lambda cs: K.norm(list(cs))).filter(bool)
    g = draw(st.one_of(small, nonzero))
    a, b = draw(small), draw(small)
    p = draw(st.sampled_from(WALK))
    how = draw(st.sampled_from(("plain", "lead", "both_leads", "resultant")))
    if how in ("lead", "both_leads"):
        a = a[:-1] + [a[-1] * p]
    if how == "both_leads":
        b = b[:-1] + [b[-1] * p]
    if how == "resultant":
        # b = a mod p: gcd(a, b) mod p is a, larger than over Q
        b = K.add(a, K.scale(draw(small), p)) or [p]
    return K.mul(a, g), K.mul(b, g)


@settings(max_examples=300)
@given(gcd_pairs())
def test_gcd_matches_the_prs_oracle(pair):
    a, b = pair
    assert K.gcd(a, b) == prs_gcd(a, b)


# ----------------------------------------------------- chains and signs


@settings(max_examples=60)
@given(nonzero)
def test_signed_prs_is_a_positive_rescaled_sturm_chain(p):
    chain = K.signed_prs(p)
    textbook = sturm_chain(IntPoly(p)).polys
    assert len(chain) == len(textbook)
    for entry, ref in zip(chain, textbook):
        ref = list(ref.coeffs)
        assert len(entry) == len(ref)
        ratio = Fraction(entry[-1]) / ref[-1]
        assert ratio > 0
        assert all(x == ratio * y for x, y in zip(entry, ref))


@given(nonzero, points, st.integers(1, 16))
def test_eval_scaled_and_variations(p, num, den):
    v = K.eval_scaled(p, num, den)
    exact = sum(Fraction(c) * Fraction(num, den) ** i for i, c in enumerate(p))
    assert v == exact * den ** (len(p) - 1)
    chain = K.signed_prs(p)
    assert K.var_at(chain, num, den) == K.sign_variations(
        [K.eval_scaled(e, num, den) for e in chain])


@given(st.lists(st.integers(-5, 5), max_size=10))
def test_sign_variations_counts_changes(vals):
    nz = [x for x in vals if x]
    changes = sum(1 for x, y in zip(nz, nz[1:]) if (x > 0) != (y > 0))
    assert K.sign_variations(list(vals)) == changes


@given(nonzero, points)
def test_shift1_is_taylor_shift(p, t):
    q = K.shift1(p)
    assert len(q) == len(p) and q is not p
    # p(X+1) at 0 equals p(1)
    assert K.eval_scaled(q, 0, 1) == K.eval_scaled(p, 1, 1)
    assert at(q, t) == at(p, t + 1)


wide_coeff = st.integers(-(2 ** 400), 2 ** 400)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 150).flatmap(
    lambda n: st.lists(wide_coeff, min_size=n + 1, max_size=n + 1)))
@example([])
@example([0, 0, 5])
def test_shift1_matches_the_double_loop(p):
    # degrees 0 to 150, zero coefficients and the empty list included; one
    # prefix-sum pass per row against the in-place double loop
    q = K.shift1(p)
    assert q == shift1_reference(p)
    assert q is not p


@settings(max_examples=200, deadline=None)
@given(st.lists(wide_coeff, max_size=40), st.integers(-(2 ** 100), 2 ** 100),
       st.one_of(st.integers(0, 80).map(lambda k: 1 << k),
                 st.integers(1, 2 ** 40).map(lambda d: 2 * d + 1),
                 st.integers(0, 60).flatmap(lambda k: st.integers(1, 2 ** 20).map(
                     lambda d: (2 * d + 1) << k)),
                 st.integers(2, 2 ** 80)))
def test_eval_scaled_matches_the_running_power(p, num, den):
    # dens 2^k for k = 0 ... 80 take the shift path; odd and other dens
    # the running power; negative num and the empty polynomial included
    assert K.eval_scaled(p, num, den) == eval_scaled_reference(p, num, den)


def test_eval_scaled_dyadic_examples():
    # 3 - 5X + 7X^2 at -3/8, times 8^2: 3 * 64 + 15 * 8 + 63
    assert K.eval_scaled([3, -5, 7], -3, 8) == 3 * 64 + 15 * 8 + 63
    assert K.eval_scaled([3, -5, 7], -3, 1) == 3 + 15 + 63
    assert K.eval_scaled([], 5, 4) == 0
    assert K.eval_scaled([-9], 5, 1 << 70) == -9
    # one coefficient per power of 2^40: each lands on its own bits
    assert K.eval_scaled([1, 1, 1], 1, 1 << 40) == (1 << 80) + (1 << 40) + 1


# ------------------------------------------------------- modular gcd


def _check_gcd_mod(a, b, c, m):
    a, b = K.mul(a, c), K.mul(b, c)
    g = K.gcd_mod(list(a), list(b), m)
    if a[-1] % m == 0 or b[-1] % m == 0:
        assert g is None
        return
    assert g[-1] == 1 and all(0 <= x < m for x in g)
    assert rem_mod(a, g, m) == []
    assert rem_mod(b, g, m) == []
    # the planted common factor divides the modular gcd
    assert rem_mod(g, c, m) == []


planted = st.sampled_from(([1, 1], [-2, 0, 1], [1]))


@given(nonzero, nonzero, planted)
def test_gcd_mod_is_monic_common_divisor(a, b, c):
    _check_gcd_mod(a, b, c, MERSENNE)


# small coefficients too, so leading coefficients divisible by the
# prime and spurious common factors mod it actually turn up
small_nonzero = st.lists(st.integers(-3 * SMALL_PRIME, 3 * SMALL_PRIME), max_size=8).map(
    lambda cs: K.norm(list(cs))).filter(bool)


@given(st.one_of(nonzero, small_nonzero), st.one_of(nonzero, small_nonzero), planted)
def test_gcd_mod_is_monic_common_divisor_mod_small_prime(a, b, c):
    _check_gcd_mod(a, b, c, SMALL_PRIME)


# leading coefficients that vanish mod either prime, next to ordinary ones
lead_drop = st.tuples(st.lists(st.integers(-3, 3), max_size=6),
                      st.sampled_from(WALK)).map(lambda t: t[0] + [t[1]])


@given(st.one_of(nonzero, small_nonzero, lead_drop),
       st.one_of(nonzero, small_nonzero, lead_drop), planted)
def test_gcd_mod_matches_fermat_inverse(a, b, c):
    # pow(x, -1, m) is the inverse Fermat's pow(x, m - 2, m) gives
    a, b = K.mul(a, c), K.mul(b, c)
    for m in WALK:
        assert K.gcd_mod(list(a), list(b), m) == gcd_mod_fermat(a, b, m)


def _bernstein_at(b, t):
    # sum b_i C(n, i) t^i (1 - t)^(n - i)
    n = len(b) - 1
    return sum(x * comb(n, i) * t**i * (1 - t) ** (n - i) for i, x in enumerate(b))


@given(st.lists(coeff, min_size=1, max_size=8), st.integers(0, 8))
def test_casteljau_split_halves_the_interval(b, k):
    left, right = K.casteljau_split(list(b))
    n = len(b) - 1
    t = Fraction(k, 8)
    assert _bernstein_at(left, t) == 2**n * _bernstein_at(b, t / 2)
    assert _bernstein_at(right, t) == 2**n * _bernstein_at(b, (t + 1) / 2)


def test_gcd_mod_leading_drop_refused():
    # leading coefficient divisible by the modulus makes the result None
    a = [1, MERSENNE]
    assert K.gcd_mod(a, [1, 1], MERSENNE) is None
