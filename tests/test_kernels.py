from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from posring import kernels as K
from posring.polyring import IntPoly
from posring.realdec import sturm_chain

MERSENNE = (1 << 61) - 1

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
    assert K.var_at_posinf(chain) == K.sign_variations([e[-1] for e in chain])


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


# ------------------------------------------------------- modular gcd


@given(nonzero, nonzero, st.sampled_from(([1, 1], [-2, 0, 1], [1])))
def test_gcd_mod_is_monic_common_divisor(a, b, c):
    a, b = K.mul(a, c), K.mul(b, c)
    g = K.gcd_mod(list(a), list(b), MERSENNE)
    if a[-1] % MERSENNE == 0 or b[-1] % MERSENNE == 0:
        assert g is None
        return
    assert g[-1] == 1 and all(0 <= x < MERSENNE for x in g)
    assert rem_mod(a, g, MERSENNE) == []
    assert rem_mod(b, g, MERSENNE) == []
    # the planted common factor divides the modular gcd
    assert rem_mod(g, c, MERSENNE) == []


def test_gcd_mod_leading_drop_refused():
    # leading coefficient divisible by the modulus makes the result None
    a = [1, MERSENNE]
    assert K.gcd_mod(a, [1, 1], MERSENNE) is None
