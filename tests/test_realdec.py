import math
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from posring import kernels as _k
from posring import nxsolve, realdec
from posring.errors import PostconditionFailed, ZeroInput, ZeroPolynomial
from posring.nxsolve import SignCertificate, verify_certificate
from posring.polyring import IntPoly, order_at_zero
from posring.realdec import (
    AlgebraicRoot,
    RationalPoint,
    _IvalCluster,
    _ev,
    _overlap,
    _resolve_overlap,
    _shrink_to_exclude,
    isolate_nonneg_roots,
    signs_at_root,
    uniform_sign_exists,
)

from oracles import (
    EndpointIsRoot,
    RatPoly,
    _narrow_reference,
    cauchy_root_bound,
    count_roots,
    descartes_reference,
    isolate_nonneg_roots_reference,
    prs_gcd,
    squarefree_part,
    sturm_chain,
    to_unit_reference,
    uniform_sign_exists_reference,
    vca_isolate_reference,
)


def P(*cs):
    return IntPoly(cs)


def R(*cs):
    return RatPoly(cs)


def prod(*ps):
    out = IntPoly.one()
    for p in ps:
        out = out * p
    return out


def _sign_at_root(q, root):
    return signs_at_root((q,), root)[0]


# ---------------------------------------------------------------- chains


def test_chain_x2_minus_2():
    ch = sturm_chain(P(-2, 0, 1))
    assert ch.polys == (R(-2, 0, 1), R(0, 2), R(2))


def test_chain_linear():
    ch = sturm_chain(P(-1, 1))
    assert ch.polys == (R(-1, 1), R(1))


def test_chain_no_real_roots():
    ch = sturm_chain(P(1, 0, 1))
    assert ch.polys == (R(1, 0, 1), R(0, 2), R(-1))


def test_chain_constant():
    assert sturm_chain(P(7)).polys == (R(7),)


def test_chain_zero_rejected():
    with pytest.raises(ZeroInput):
        sturm_chain(IntPoly.zero())


def test_chain_last_entry_nonzero_nonsquarefree():
    # (X-1)^2: generalized chain ends at a gcd multiple, never at zero
    ch = sturm_chain(P(1, -2, 1))
    assert not ch.polys[-1].is_zero


# ---------------------------------------------------------------- counting


def test_count_sqrt2():
    assert count_roots(sturm_chain(P(-2, 0, 1)), 0, 2) == 1


def test_count_no_roots():
    assert count_roots(sturm_chain(P(1, 0, 1)), -10, 10) == 0


def test_count_two_roots():
    # X^2 - 3X + 2 = (X-1)(X-2)
    assert count_roots(sturm_chain(P(2, -3, 1)), 0, 3) == 2


def test_count_distinct_only():
    # (X-1)^2 counts once
    assert count_roots(sturm_chain(P(1, -2, 1)), 0, 2) == 1


def test_count_endpoint_root_rejected():
    ch = sturm_chain(P(-1, 1))
    with pytest.raises(EndpointIsRoot):
        count_roots(ch, 1, 2)
    with pytest.raises(EndpointIsRoot):
        count_roots(ch, 0, 1)


def test_count_bad_window():
    ch = sturm_chain(P(-1, 1))
    with pytest.raises(ValueError):
        count_roots(ch, 2, 2)
    with pytest.raises(ValueError):
        count_roots(ch, 3, 2)


# 50 products of hand-picked factors; every real root is written down next
# to its factor, so expected counts come from the factorization alone.
_FACTORS = [
    (P(2, 1), (Fraction(-2),)),
    (P(1, 1), (Fraction(-1),)),
    (P(0, 1), (Fraction(0),)),
    (P(-1, 2), (Fraction(1, 2),)),
    (P(-1, 1), (Fraction(1),)),
    (P(-2, 1), (Fraction(2),)),
    (P(-3, 1), (Fraction(3),)),
    (P(1, 0, 1), ()),
    (P(1, 1, 1), ()),
    (P(3, 0, 2), ()),
]

_WINDOWS = [
    (Fraction(-5, 2), Fraction(7, 2)),
    (Fraction(-3, 4), Fraction(5, 2)),
    (Fraction(1, 4), Fraction(9, 4)),
]


def _factored_library():
    lib = []
    fs = _FACTORS
    for i in range(len(fs)):
        for j in range(i + 1, len(fs)):
            lib.append((prod(fs[i][0], fs[j][0]), set(fs[i][1]) | set(fs[j][1])))
    for i in range(5):
        a, b, c = fs[i], fs[i + 3], fs[(2 * i + 1) % len(fs)]
        lib.append((prod(a[0], b[0], c[0]), set(a[1]) | set(b[1]) | set(c[1])))
    return lib


def test_count_against_explicit_factorization():
    lib = _factored_library()
    assert len(lib) == 50
    for p, roots in lib:
        ch = sturm_chain(p)
        for a, b in _WINDOWS:
            want = sum(1 for r in roots if a < r < b)
            assert count_roots(ch, a, b) == want, (list(p.coeffs), a, b)


def test_cauchy_bound_examples():
    assert cauchy_root_bound(P(-2, 0, 1)) == 3
    assert cauchy_root_bound(P(5)) == 0
    assert cauchy_root_bound(P(4, -6, 2)) == 4


# ---------------------------------------------------------------- isolation


def test_isolate_two_linear():
    ivs = isolate_nonneg_roots([P(-1, 1), P(-2, 1)])
    assert [(iv.owners, iv.exact) for iv in ivs] == [((0,), 1), ((1,), 2)]
    assert all(iv.multiplicity_free for iv in ivs)


def test_isolate_rootless():
    assert isolate_nonneg_roots([P(1, 0, 1)]) == []


def test_isolate_shared_root_with_multiplicity():
    # -(X-1)^2 and X-1 share the root 1; the square is not simple
    ivs = isolate_nonneg_roots([P(-1, 2, -1), P(-1, 1)])
    assert len(ivs) == 1
    iv = ivs[0]
    assert iv.owners == (0, 1)
    assert iv.exact == 1
    assert iv.owners[0] == 0
    assert not iv.multiplicity_free


def test_isolate_root_at_zero():
    ivs = isolate_nonneg_roots([P(0, 1), P(-2, 0, 1)])
    assert ivs[0].owners == (0,)
    assert ivs[0].exact == 0
    assert ivs[0].hi == 0
    assert ivs[1].owners == (1,)
    assert ivs[1].exact is None
    assert ivs[1].lo < ivs[1].hi


def test_isolate_negative_roots_ignored():
    assert isolate_nonneg_roots([P(1, 1), P(2, 3, 1)]) == []


def test_isolate_shared_irrational():
    # X^2 - 2 and (X^2 - 2)(X + 1) share sqrt(2)
    ivs = isolate_nonneg_roots([P(-2, 0, 1), prod(P(-2, 0, 1), P(1, 1))])
    assert len(ivs) == 1
    assert ivs[0].owners == (0, 1)
    assert ivs[0].exact is None
    assert ivs[0].multiplicity_free


def test_isolate_dyadic_and_small_rationals():
    ivs = isolate_nonneg_roots([P(-1, 2), P(-1, 3)])
    assert [(iv.owners, iv.exact) for iv in ivs] == [
        ((1,), Fraction(1, 3)),
        ((0,), Fraction(1, 2)),
    ]


def test_isolate_ordering_and_disjointness():
    # (X-1)(X-2)(X-3), X-2 and X^2-2
    hs = [P(-6, 11, -6, 1), P(-2, 1), P(-2, 0, 1)]
    ivs = isolate_nonneg_roots(hs)
    assert [iv.exact for iv in ivs] == [1, None, 2, 3]
    assert ivs[2].owners == (0, 1)
    for a, b in zip(ivs, ivs[1:]):
        assert a.hi <= b.lo
    for iv in ivs:
        # an exact root is a point; every other root keeps lo < hi
        if iv.exact is not None:
            assert iv.lo == iv.hi == iv.exact
        else:
            assert iv.lo < iv.hi


def test_isolate_known_root_inside_foreign_interval():
    # (X-1)^2 (X^2 - X + 5) puts 1 inside a wide raw interval while 3/5
    # arrives as someone else's exact root; assembly must drop, not spin
    hs = [P(5, -11, 8, -3, 1), P(4, 5), P(-5), P(-3, 5)]
    ivs = isolate_nonneg_roots(hs)
    assert [(iv.owners, iv.exact, iv.multiplicity_free) for iv in ivs] == [
        ((3,), Fraction(3, 5), True),
        ((0,), 1, False),
    ]


def test_isolate_zero_polynomial_rejected():
    with pytest.raises(ZeroPolynomial):
        isolate_nonneg_roots([P(-1, 1), IntPoly.zero()])


# ------------------------------------------------------------ sign at root


def test_sign_at_root_constant():
    root = isolate_nonneg_roots([P(-2, 0, 1)])[0]
    assert _sign_at_root(P(1), root) == 1


def test_sign_at_root_shared_zero():
    root = isolate_nonneg_roots([P(-1, 2, -1)])[0]
    assert _sign_at_root(P(-1, 1), root) == 0


def test_sign_at_root_sqrt2():
    root = isolate_nonneg_roots([P(-2, 0, 1)])[0]
    assert _sign_at_root(P(-2, 1), root) == -1
    assert _sign_at_root(P(-1, 1), root) == 1
    assert _sign_at_root(P(-2, 0, 1), root) == 0


def test_sign_at_root_zero_iff_common_factor():
    # 0 exactly when gcd(squarefree(owner), q) vanishes at the root
    root = isolate_nonneg_roots([P(-2, 0, 1)])[0]
    multiple = prod(P(-2, 0, 1), P(5, 1))
    assert _sign_at_root(multiple, root) == 0
    assert _sign_at_root(P(-3, 0, 1), root) == -1  # 2 - 3 < 0
    assert _sign_at_root(P(-1, 0, 1), root) == 1  # 2 - 1 > 0


def _box(lo, hi, s):
    return realdec.IsolatingInterval((0,), Fraction(lo), Fraction(hi), True, None, s)


def test_sign_at_root_below_zero():
    # the root -1 of X + 1, where X^2 - 2 is -1: the interval reaches
    # below 0
    assert signs_at_root((P(-2, 0, 1),), _box(-10, Fraction(1, 2), [1, 1])) == (-1,)


def test_sign_at_root_bisection_lands_on_the_root():
    # 4X - 1 has its root 1/4 in (0, 1], so the interval is bisected, and
    # the first midpoint is the root 1/2 of 2X - 1, where 4X - 1 is 1
    assert realdec._descartes([-1, 4], Fraction(0), Fraction(1)) == 1
    assert _sign_at_root(P(-1, 4), _box(0, 1, [-1, 2])) == 1


_ends = st.fractions(-20, 20, max_denominator=24)
_widths = st.fractions(Fraction(1, 24), 20, max_denominator=24)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=10).filter(lambda cs: cs[-1]),
       st.one_of(st.just(Fraction(0)), _ends), _widths)
@example([5], Fraction(-3, 7), Fraction(2))              # degree 0, lo < 0
@example([-1, 3], Fraction(0), Fraction(1, 3))           # degree 1, root at hi
@example([-2, 0, 1], Fraction(4, 3), Fraction(1, 5))     # sqrt 2 in (4/3, 23/15)
@example([7, -9, -4, 2], Fraction(-5, 2), Fraction(11, 6))
def test_descartes_matches_the_multiply_add_shift(p, lo, width):
    # lo < 0, lo = 0 and non-dyadic ends, against the double-loop shift
    hi = lo + width
    assert realdec._descartes(p, lo, hi) == descartes_reference(p, lo, hi)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=12).filter(lambda cs: cs[-1]),
       st.integers(-2**20, 2**20), st.integers(1, 2**20),
       st.one_of(st.integers(0, 24).map(lambda k: 1 << k), st.integers(1, 10**4)))
@example([1, 2, 3], 0, 5, 3)                 # a tree's root: no shift by u
@example([4, -1, 7, 2], 5, 2, 8)             # u > 1, dyadic D
@example([-2, 0, 1], -7, 3, 6)               # u < 0
def test_to_unit_is_the_exact_image_of_the_interval(p, u, w, D):
    # coefficient for coefficient, with no power of u left over, against
    # the multiply-add shift and the double-loop Taylor shift
    assert realdec._to_unit(p, u, u + w, D) == to_unit_reference(p, u, u + w, D)


def test_to_unit_rejects_a_shift_that_u_does_not_divide():
    # coefficient 1 of a Taylor shift of c_i u^i D^(n - i) is a multiple
    # of u; a kernel that breaks that is caught, not read as a count
    shift1 = _k.shift1

    def off_by_one(p):
        q = shift1(p)
        q[1] += 1
        return q

    with mock.patch.object(_k, "shift1", off_by_one), \
            pytest.raises(PostconditionFailed):
        realdec._to_unit([1, -3, 2], 3, 4, 8)


def test_sign_at_root_next_to_a_complex_pair():
    # (1000X - 1414)^2 + 1 has no real root but two sign variations on
    # (1, 2]: its roots 1.414 +- 0.001i sit next to sqrt 2, and the
    # bisection runs until Descartes' rule rules them out
    q = prod(P(-1414, 1000), P(-1414, 1000)) + P(1)
    assert realdec._descartes(list(q.coeffs), Fraction(1), Fraction(2)) == 2
    assert _sign_at_root(q, _box(1, 2, [-2, 0, 1])) == 1


def test_sign_at_root_rational_owner():
    root = isolate_nonneg_roots([P(-1, 3)])[0]  # 1/3
    assert root.exact == Fraction(1, 3)
    assert _sign_at_root(P(-1, 2), root) == -1
    assert _sign_at_root(P(-1, 3), root) == 0


# ------------------------------------------------------------ uniform sign


def test_uniform_remark_pair():
    sv = uniform_sign_exists([P(1), P(-1, 2, -1)])
    assert isinstance(sv.sample, RationalPoint)
    assert sv.sample.value == 1
    assert sv.signs == (1, 0)
    assert sv.uniform_nonneg and not sv.uniform_nonpos


def test_uniform_absent():
    assert uniform_sign_exists([P(-1, 1), P(1), P(0, -1)]) is None


def test_uniform_single_constant():
    sv = uniform_sign_exists([P(1)])
    assert sv.sample.value == 0
    assert sv.signs == (1,)


def test_uniform_nonpos_at_zero():
    sv = uniform_sign_exists([P(-2, 0, 1), P(0, 1)])
    assert sv.sample.value == 0
    assert sv.signs == (-1, 0)
    assert sv.uniform_nonpos


def test_uniform_algebraic_witness():
    # all three vanish or stay nonneg only at sqrt(2) itself
    hs = [P(-2, 0, 1), P(2, 0, -1), P(-1, 1)]
    sv = uniform_sign_exists(hs)
    assert isinstance(sv.sample, AlgebraicRoot)
    assert sv.signs == (0, 0, 1)
    iv = sv.sample.interval
    assert iv.lo * iv.lo < 2 < iv.hi * iv.hi


def test_uniform_zero_polynomial_rejected():
    with pytest.raises(ZeroPolynomial):
        uniform_sign_exists([IntPoly.zero()])


# ---------------------------------------------------------- property tests


def _sgn(x):
    return (x > 0) - (x < 0)


def _exact_sign(h, t):
    cs = list(h.coeffs)
    return _sgn(_k.eval_scaled(cs, t.numerator, t.denominator)) if cs else 0


def _stripped_sqfree(h):
    q = IntPoly(list(h.coeffs)[order_at_zero(h):])
    return squarefree_part(q)


def _count_half_open(s, lo, hi):
    # roots of squarefree s in (lo, hi], tolerating roots at endpoints
    cnt = 0
    cs = list(s.coeffs)
    for pt, inside in ((hi, True), (lo, False)):
        n, d = pt.numerator, pt.denominator
        if cs and _k.eval_scaled(cs, n, d) == 0:
            cnt += 1 if inside else 0
            cs = _k.exact_div(cs, [-n, d])
    p = IntPoly._raw(cs)
    if p.degree >= 1:
        cnt += count_roots(sturm_chain(p), lo, hi)
    return cnt


def _indep_nonneg_count(s):
    if s.degree < 1:
        return 0
    cs = list(s.coeffs)
    c = Fraction(1) + max(abs(x) for x in cs[1:]) / abs(cs[0])
    return count_roots(sturm_chain(s), Fraction(-1) / c, cauchy_root_bound(s))


_coeff = st.integers(min_value=-3, max_value=3)
_factor = st.lists(_coeff, min_size=1, max_size=3).filter(lambda cs: any(cs))
_poly = st.lists(_factor, min_size=1, max_size=2).map(
    lambda fs: prod(*(IntPoly(cs) for cs in fs))
)
_family = st.lists(_poly, min_size=1, max_size=3)


@settings(max_examples=80, deadline=None)
@given(_family, st.booleans())
def test_isolation_invariants(hs, share):
    hs = _shared(hs, share)
    ivs = isolate_nonneg_roots(hs)
    owned = {i: 0 for i in range(len(hs))}
    prev_hi = None
    for iv in ivs:
        if prev_hi is not None:
            assert iv.lo >= prev_hi
        prev_hi = iv.hi
        for o in iv.owners:
            owned[o] += 1
        if iv.exact is not None:
            assert iv.lo == iv.hi == iv.exact
            for i, h in enumerate(hs):
                assert (_exact_sign(h, iv.exact) == 0) == (i in iv.owners)
        else:
            assert iv.lo < iv.hi
            for i in range(len(hs)):
                s = _stripped_sqfree(hs[i])
                want = 1 if i in iv.owners else 0
                if s.degree >= 1:
                    assert _count_half_open(s, iv.lo, iv.hi) == want
                else:
                    assert want == 0
    for i, h in enumerate(hs):
        s = _stripped_sqfree(h)
        want = _indep_nonneg_count(s) + (1 if order_at_zero(h) > 0 else 0)
        assert owned[i] == want


def _verify_witness(hs, sv):
    assert sv.uniform_nonneg or sv.uniform_nonpos
    if isinstance(sv.sample, RationalPoint):
        assert sv.sample.value >= 0
        for h, claimed in zip(hs, sv.signs):
            assert _exact_sign(h, sv.sample.value) == claimed
    else:
        iv = sv.sample.interval
        assert 0 <= iv.lo < iv.hi
        for i, (h, claimed) in enumerate(zip(hs, sv.signs)):
            s = _stripped_sqfree(h)
            inside = _count_half_open(s, iv.lo, iv.hi) if s.degree >= 1 else 0
            if claimed == 0:
                assert i in iv.owners and inside == 1
            else:
                assert inside == 0
                assert _exact_sign(h, iv.hi) == claimed


def _grid_families():
    rng = random.Random(1503)
    for _ in range(25):
        hs = []
        for _ in range(rng.randint(1, 3)):
            while True:
                cs = [rng.randint(-5, 5) for _ in range(rng.randint(1, 5))]
                if any(cs):
                    hs.append(IntPoly(cs))
                    break
        yield hs


def test_uniform_grid_completeness():
    # random families, exact 10^-3-step scan of [0, B+1]: any uniform
    # grid point forces a witness, and every witness re-verifies
    step = Fraction(1, 1000)
    for hs in _grid_families():
        sv = uniform_sign_exists(hs)
        if sv is not None:
            _verify_witness(hs, sv)
            continue
        top = max(cauchy_root_bound(h) for h in hs) + 1
        t = Fraction(0)
        while t <= top:
            signs = [_exact_sign(h, t) for h in hs]
            assert not (
                all(s >= 0 for s in signs) or all(s <= 0 for s in signs)
            ), (t, [list(h.coeffs) for h in hs])
            t += step


@settings(max_examples=60, deadline=None)
@given(_family)
def test_uniform_witnesses_verify(hs):
    sv = uniform_sign_exists(hs)
    if sv is not None:
        _verify_witness(hs, sv)


def _shared(hs, share):
    if share and len(hs) > 1:
        return [h * hs[0] if i % 2 else h for i, h in enumerate(hs)]
    return hs


def _root_box(hs, root, lo, hi):
    # halve an isolating box around the root with the owner's squarefree
    # part, computed here rather than taken from the interval
    if root.exact is not None:
        return root.exact, root.exact
    cs = list(_stripped_sqfree(hs[root.owners[0]]).coeffs)
    m = (lo + hi) / 2
    sm = _sgn(_k.eval_scaled(cs, m.numerator, m.denominator))
    if sm == 0:
        return m, m
    slo = _sgn(_k.eval_scaled(cs, lo.numerator, lo.denominator))
    return (m, hi) if sm == slo else (lo, m)


def _between(hs, a, b):
    # a rational strictly between the roots of consecutive intervals
    la, ha = _root_box(hs, a, a.lo, a.hi)
    lb, hb = _root_box(hs, b, b.lo, b.hi)
    while not ha < lb:
        la, ha = _root_box(hs, a, la, ha)
        lb, hb = _root_box(hs, b, lb, hb)
    return (ha + lb) / 2


def _reference_scan(hs):
    """First uniform vector over every cell of [0, oo): t = 0, each root
    (signs from signs_at_root), a point between consecutive roots, and a
    point past every root.  Returns (sample, signs) or None."""
    roots = isolate_nonneg_roots(hs)
    points = [Fraction(0)]
    for k, root in enumerate(roots):
        points.append(root)
        if k + 1 < len(roots):
            points.append(_between(hs, root, roots[k + 1]))
    points.append(max(cauchy_root_bound(h) for h in hs) + 2)
    for pt in points:
        if isinstance(pt, Fraction):
            sample, signs = pt, tuple(_exact_sign(h, pt) for h in hs)
        else:
            sample = pt.exact if pt.exact is not None else (pt.lo, pt.hi, pt.owners)
            signs = tuple(_sign_at_root(h, pt) for h in hs)
        if -1 not in signs or 1 not in signs:
            return sample, signs
    return None


def _scan_result(hs):
    sv = uniform_sign_exists(hs)
    if sv is None:
        return None
    if isinstance(sv.sample, RationalPoint):
        return sv.sample.value, sv.signs
    iv = sv.sample.interval
    return (iv.lo, iv.hi, iv.owners), sv.signs


@settings(max_examples=80, deadline=None)
@given(_family, st.booleans())
@example([IntPoly([-1, 1, 1]), IntPoly([1, -2, -1]), IntPoly([-1, 1, 1])], False)
@example([IntPoly([-1]), IntPoly([2, 2, -2]), IntPoly([1, 2, -2])], True)
def test_scan_matches_reference_scan(hs, share):
    # the scan separates its sample's interval only from the inputs it
    # isolated, so the interval may be wider than the full isolation's:
    # both must box the same root, which shows as a sign change of the
    # scan's sample poly across their intersection
    hs = _shared(hs, share)
    sv, ref = uniform_sign_exists(hs), _reference_scan(hs)
    assert (sv is None) == (ref is None)
    if sv is None:
        return
    sample, signs = ref
    assert sv.signs == signs
    if isinstance(sv.sample, RationalPoint):
        assert sv.sample.value == sample
        return
    assert not isinstance(sample, Fraction)
    iv, (lo, hi, owners) = sv.sample.interval, sample
    assert iv.owners == owners
    a, b = max(iv.lo, lo), min(iv.hi, hi)
    sa, sb = _sgn(_ev(iv.s, a)), _sgn(_ev(iv.s, b))
    assert a < b and sa != 0 and sa * sb <= 0


def test_scan_matches_reference_scan_on_grid():
    for hs in _grid_families():
        assert _scan_result(hs) == _reference_scan(hs), [list(h.coeffs) for h in hs]


@settings(max_examples=80, deadline=None)
@given(_family, st.booleans())
def test_non_owner_sign_at_root_is_sign_at_hi(hs, share):
    hs = _shared(hs, share)
    for iv in isolate_nonneg_roots(hs):
        if iv.exact is not None:
            continue
        for i, h in enumerate(hs):
            if i not in iv.owners:
                assert _sign_at_root(h, iv) == _exact_sign(h, iv.hi) != 0


# sweep factors: X^2 - 2 shared across entries, rational roots of
# multiplicity 1 to 3 (1/3 is not dyadic), and a root at 0
_SWEEP_FACTORS = ([-2, 0, 1], [-1, 3], [1, -6, 9], [1, -2, 1], [-1, 3, -3, 1], [0, 1], [-2, 1])
_sweep_poly = st.tuples(_poly, st.lists(st.sampled_from(_SWEEP_FACTORS), max_size=3)).map(
    lambda t: prod(t[0], *(IntPoly(f) for f in t[1]))
)


def _at_zero_nonneg(hs):
    # flip every entry negative at 0, so the family is uniform there
    return [-h if _exact_sign(h, Fraction(0)) < 0 else h for h in hs]


def _scan_counting_rounds(hs):
    """uniform_sign_exists(hs) and the number of subset scans it made,
    one isolate_nonneg_roots call each."""
    isolate, rounds = realdec.isolate_nonneg_roots, [0]

    def counted(*args, **kwargs):
        rounds[0] += 1
        return isolate(*args, **kwargs)

    with mock.patch.object(realdec, "isolate_nonneg_roots", counted):
        sv = uniform_sign_exists(hs)
    return sv, rounds[0]


def _assert_sweep_matches_reference(hs):
    """The subset scan against the all-inputs reference: the same
    verdict, sign vector and rational sample; an algebraic sample with
    the same owners and the same root, on an interval that may differ
    and must certify.  Returns (sample, signs) or None."""
    where = [list(h.coeffs) for h in hs]
    sv, rounds = _scan_counting_rounds(hs)
    assert rounds <= math.ceil(math.log2(len(hs))) + 1, (rounds, where)
    ref = uniform_sign_exists_reference(hs)
    if ref is None:
        assert sv is None, where
        return None
    assert sv is not None and sv.signs == ref.signs, where
    if isinstance(ref.sample, RationalPoint):
        assert sv.sample == ref.sample, where
        return sv.sample.value, sv.signs
    iv, rv = sv.sample.interval, ref.sample.interval
    assert iv.exact is None and iv.owners == rv.owners, where
    # the same root: the gcd of the two sample polys changes sign on the
    # intersection of the two intervals, each root strictly inside its own
    lo, hi = max(iv.lo, rv.lo), min(iv.hi, rv.hi)
    g = _k.gcd(iv.s, rv.s)
    assert lo < hi and _sgn(_ev(g, lo)) * _sgn(_ev(g, hi)) < 0, where
    assert signs_at_root(hs, iv) == sv.signs, where
    if any(sv.signs):
        assert verify_certificate(SignCertificate(sv, tuple(hs), IntPoly.one(), 0)), where
    return (iv.lo, iv.hi, iv.owners), sv.signs


@settings(max_examples=150, deadline=None)
@given(st.lists(_sweep_poly, min_size=1, max_size=7), st.booleans())
def test_sweep_matches_per_candidate_scan(hs, uniform_at_zero):
    _assert_sweep_matches_reference(_at_zero_nonneg(hs) if uniform_at_zero else hs)


def test_sweep_matches_per_candidate_scan_on_seeded_families():
    rng = random.Random(1503)
    kinds = Counter()
    for _ in range(300):
        hs = []
        for _ in range(rng.randint(1, 7)):
            cs = [rng.randint(-3, 3) for _ in range(rng.randint(1, 3))]
            cs[-1] = cs[-1] or 1
            fs = rng.sample(_SWEEP_FACTORS, rng.randint(0, 3))
            hs.append(prod(IntPoly(cs), *(IntPoly(f) for f in fs)))
        if rng.random() < 0.2:
            hs = _at_zero_nonneg(hs)
        got = _assert_sweep_matches_reference(hs)
        kinds["none" if got is None else
              "zero" if got[0] == 0 else
              "rational" if isinstance(got[0], Fraction) else "algebraic"] += 1
    assert min(kinds[k] for k in ("none", "zero", "rational", "algebraic")) > 10, kinds


def _count_evaluations(fn, *args):
    calls = [0]

    def counted(*a):
        calls[0] += 1
        return _eval_scaled(*a)

    with mock.patch.object(_k, "eval_scaled", counted):
        got = fn(*args)
    return got, calls[0]


def _root_rich_family():
    # exact roots of multiplicity 2 and 3, at 0, 1/3 and 1, next to the
    # shared irrational roots of the wide family
    sq = P(-2, 0, 1)
    return _wide_family(1503, 50) + [
        prod(P(-1, 1), P(-1, 1), sq),  # 1 double, shared sqrt(2)
        prod(P(-1, 3), P(-1, 3), P(-1, 3)),  # 1/3 triple
        prod(P(0, 1), P(0, 1), P(-1, 1)),  # 0 double, 1 simple
    ]


def test_sweep_evaluates_each_input_once_plus_once_per_owned_root_but_the_last():
    # every input once at t = 0.  With the constants 1 and -1, which have
    # no sign variation and opposite signs, no t > 0 is uniform, so the
    # scan ends there and isolates nothing
    hs = _root_rich_family() + [P(1), P(-1)]
    with mock.patch.object(realdec, "_PolyData") as trees:
        got, calls = _count_evaluations(uniform_sign_exists, hs)
    assert got is None and not trees.called
    assert calls == len(hs)
    # then the sweep: each owner of a root once more, at the next root,
    # also at exact roots of multiplicity 2 and 3; the owners of the last
    # root are not signed again.  X^2 - X + 1 and its negative have no
    # positive root and keep every vector mixed, with sign variations, so
    # no one-sign pair ends the scan and the sweep over all inputs
    # reaches every root
    hs = _root_rich_family() + [P(1, -1, 1), P(-1, 1, -1)]
    roots = isolate_nonneg_roots(hs)
    assert {0, Fraction(1, 3), 1} <= {root.exact for root in roots}
    slots = sum(len(root.owners) for root in roots)
    assert slots > 50
    signs = [_exact_sign(h, Fraction(0)) for h in hs]
    got, calls = _count_evaluations(
        realdec._sweep, [list(h.coeffs) for h in hs], signs, range(len(hs)), roots)
    assert got is None
    assert calls == slots - len(roots[-1].owners)
    assert uniform_sign_exists(hs) is None


def test_one_sign_pair_decides_solvable_without_isolation():
    # 1 + 2X + 3X^2 > 0 > -1 - X on (0, oo), and the signs at 0 are mixed
    hs = [P(1, 2, 3), P(-1, -1), P(3, -4, 1), P(-2, 0, 1)]
    with mock.patch.object(realdec, "_vca_isolate") as vca:
        assert nxsolve.decide(hs).status == nxsolve.SOLVABLE
    assert not vca.called


def test_subset_scan_isolates_only_the_inputs_it_needs():
    # sqrt(2) is the first uniform point: X^2 - 2 vanishes, X - 1 and
    # X + 5 are positive, and so is every (X - k)(X - k - 1), k = 3..8,
    # below 3.  X + 5 and X^2 - 2 start the scan, and Descartes' rule
    # signs every other input on (1, 2] without isolating it
    hs = [P(-2, 0, 1), P(-1, 1), P(5, 1)] + [prod(P(-k, 1), P(-k - 1, 1)) for k in range(3, 9)]
    built = []
    trees = realdec._PolyData

    def counted(cs):
        built.append(cs)
        return trees(cs)

    with mock.patch.object(realdec, "_PolyData", counted):
        d = nxsolve.decide(hs)
    assert d.status == nxsolve.UNSOLVABLE
    sv = d.certificate.sign_vector
    assert isinstance(sv.sample, AlgebraicRoot)
    iv = sv.sample.interval
    assert (iv.lo, iv.hi, iv.owners) == (1, 2, (0,))
    assert sv.signs == (0,) + (1,) * 8
    assert nxsolve.verify_certificate(d.certificate)
    assert len(built) <= 4


def test_outside_input_with_a_root_at_hi_joins_the_scan():
    # the first scan, of X^2 - 2 and X + 5, puts sqrt(2) in (1, 2], where
    # (X - 2)(X - 3) vanishes at hi: it is not signed 0 there but joins,
    # and the second scan shrinks the interval off its root at 2
    hs = [P(-2, 0, 1), P(5, 1), prod(P(-2, 1), P(-3, 1))]
    sv, rounds = _scan_counting_rounds(hs)
    assert rounds == 2
    assert sv.signs == (0, 1, 1)
    iv = sv.sample.interval
    assert iv.owners == (0,) and iv.hi < 2
    assert signs_at_root(hs, iv) == (0, 1, 1)


# ------------------------------------------------------- overlap sweep


def _build_clusters_reference(data):
    # data maps each input index to its trees, walked in index order.
    # exact root -> owner list, by direct evaluation
    known = set()
    for d in data.values():
        if d.k0:
            known.add(Fraction(0))
        known.update(d.exacts)
    exact_owned = {}
    for r in sorted(known):
        owners = [i for i, d in sorted(data.items()) if _ev(d.cs, r) == 0]
        if not owners:
            raise PostconditionFailed("known root %s has no owner" % r)
        exact_owned[r] = owners

    recs = []
    for i, d in sorted(data.items()):
        for a, b, k, slo in d.ivals:
            # drop before shrinking: a shrink bisection must never land
            # on a known root, which only its own drop check rules out
            inside = [r for r in sorted(known) if Fraction(a, 1 << k) < r <= Fraction(b, 1 << k)]
            if any(_ev(d.s, r) == 0 for r in inside):
                continue
            c = _IvalCluster(a, b, k, {i}, slo, d.s)
            for r in inside:
                _shrink_to_exclude(c, r)
            recs.append(c)

    # resolve overlaps: merge shared roots, separate distinct ones
    while True:
        recs.sort(key=lambda c: Fraction(c.a, 1 << c.k))
        pair = None
        for x in range(len(recs)):
            for y in range(x + 1, len(recs)):
                if _overlap(recs[x], recs[y]):
                    pair = (x, y)
                    break
            if pair:
                break
        if pair is None:
            break
        x, y = pair
        merged = _resolve_overlap(recs[x], recs[y])
        if merged is not None:
            recs = [c for j, c in enumerate(recs) if j not in (x, y)]
            recs.append(merged)
    return exact_owned, recs


def _isolate_with(build, hs):
    """isolate_nonneg_roots with ``build`` as the cluster builder: the
    intervals, and every pair handed to _resolve_overlap, in order (the
    reference looks _resolve_overlap up in this module's globals)."""
    resolve = realdec._resolve_overlap
    pairs = []

    def traced(a, b):
        pairs.append(tuple((c.a, c.b, c.k, tuple(sorted(c.members))) for c in (a, b)))
        return resolve(a, b)

    with mock.patch.object(realdec, "_build_clusters", build), \
            mock.patch.object(realdec, "_resolve_overlap", traced), \
            mock.patch.dict(globals(), _resolve_overlap=traced):
        ivs = isolate_nonneg_roots(hs)
    return [(iv.owners, iv.lo, iv.hi, iv.multiplicity_free, iv.exact) for iv in ivs], pairs


def _assert_matches_reference(hs):
    got = _isolate_with(realdec._build_clusters, hs)
    assert got == _isolate_with(_build_clusters_reference, hs), [list(h.coeffs) for h in hs]
    return got


def _wide_family(seed, n):
    # shaped like the wide decide workload: low degree, X^2 - 2 in every
    # even entry and squared in some, so shared roots merge and many
    # intervals start out overlapping
    rng = random.Random(seed)
    sqrt2 = P(-2, 0, 1)
    hs = []
    for i in range(n):
        cs = [rng.randint(-9, 9) for _ in range(rng.randint(2, 7))]
        cs[-1] = cs[-1] or 1
        h = IntPoly(cs)
        if i % 2 == 0:
            h = h * sqrt2 * (sqrt2 if i % 6 == 4 else P(1))
        hs.append(h)
    return hs


@settings(max_examples=80, deadline=None)
@given(_family, st.booleans())
def test_sweep_matches_all_pairs_reference(hs, share):
    _assert_matches_reference(_shared(hs, share))


def test_sweep_matches_all_pairs_reference_on_grid():
    for hs in _grid_families():
        _assert_matches_reference(hs)


def test_sweep_matches_all_pairs_reference_on_wide_families():
    for seed in range(3):
        ivs, _ = _assert_matches_reference(_wide_family(seed, 40 + 5 * seed))
        # a shared irrational root: at least one merge happened
        assert any(len(owners) > 1 and exact is None for owners, _, _, _, exact in ivs)


def test_sweep_matches_reference_with_a_non_dyadic_root_inside_an_interval():
    # 1/3 is exact only in the trees of 3X - 1 and X(3X - 1); the trees of
    # (3X - 1)(X^2 - 2) and of (3X - 1)^2 (X + 1), whose part is
    # (3X - 1)(X + 1), box it in an interval, which must be dropped with
    # its input taken as an owner of 1/3
    third, sq = P(-1, 3), P(-2, 0, 1)
    ivs, _ = _assert_matches_reference([third * sq, third])
    assert [(owners, exact) for owners, _, _, _, exact in ivs] == [
        ((0, 1), Fraction(1, 3)), ((0,), None)]
    ivs, _ = _assert_matches_reference(
        [third * sq, sq, P(0, 1) * third, prod(third, third, P(1, 1))])
    assert [(owners, exact) for owners, _, _, _, exact in ivs] == [
        ((2,), 0), ((0, 2, 3), Fraction(1, 3)), ((0, 1), None)]


def test_owners_of_tree_found_roots_need_no_evaluation():
    # each entry X(X - 1)(X + i) owns 0, through its factor X, and 1,
    # which its tree finds exact, and has no interval: the owners are
    # read off the trees, where evaluating every entry at every known
    # root took 2 * 20 calls
    hs = [prod(P(0, 1), P(-1, 1), P(i, 1)) for i in range(1, 21)]
    build, calls, active = realdec._build_clusters, [0], [False]

    def traced_build(*args):
        active[0] = True
        try:
            return build(*args)
        finally:
            active[0] = False

    def counted(*args):
        calls[0] += active[0]
        return _eval_scaled(*args)

    with mock.patch.object(realdec, "_build_clusters", traced_build), \
            mock.patch.object(_k, "eval_scaled", counted):
        ivs = isolate_nonneg_roots(hs)
    assert [(iv.owners, iv.exact) for iv in ivs] == [
        (tuple(range(20)), 0), (tuple(range(20)), 1)]
    assert calls[0] == 0


def test_sweep_overlap_checks_stay_near_linear():
    # restarting an all-pairs scan after every step makes about 35 000
    # overlap checks on this family, the sweep about 340
    calls = [0]
    overlap = realdec._overlap

    def counted(a, b):
        calls[0] += 1
        return overlap(a, b)

    with mock.patch.object(realdec, "_overlap", counted):
        isolate_nonneg_roots(_wide_family(1503, 50))
    assert 0 < calls[0] < 3000, calls[0]


def _build_calls(hs):
    """isolate_nonneg_roots, recording each pair sent to _separate."""
    separated = []
    separate = realdec._separate

    def traced_separate(a, b):
        separated.append((tuple(sorted(a.members)), tuple(sorted(b.members))))
        return separate(a, b)

    with mock.patch.object(realdec, "_separate", traced_separate):
        ivs = isolate_nonneg_roots(hs)
    return [(iv.owners, iv.lo, iv.hi, iv.exact) for iv in ivs], separated


def test_merged_cluster_divides_later_members_without_a_gcd():
    # eight multiples of X^2 - 2, two with it squared: seven merges, and
    # once a cluster's rep is X^2 - 2 each later member shares its root,
    # so no pair is separated
    sq = P(-2, 0, 1)
    hs = [prod(sq, P(i, 1), sq if i in (3, 6) else P(1)) for i in range(1, 9)]
    ivs, separated = _build_calls(hs)
    assert ivs == isolate_nonneg_roots_reference(hs)
    assert [iv[0] for iv in ivs] == [tuple(range(8))]
    assert separated == []


def test_sample_poly_divides_every_owner():
    # owner 0's part (X^2 - 2)(X + 1) divides no other owner; the merged
    # cluster's common factor divides all four
    sq = P(-2, 0, 1)
    families = [[prod(sq, P(i, 1)) for i in range(1, 5)]]
    families += [_wide_family(seed, 40 + 5 * seed) for seed in range(3)]
    for hs in families:
        for iv in isolate_nonneg_roots(hs):
            for i in iv.owners if iv.exact is None else ():
                assert _k.exact_div(list(hs[i].coeffs), iv.s) is not None, (iv, i)
    assert [(iv.owners, iv.s) for iv in isolate_nonneg_roots(families[0])] == [
        ((0, 1, 2, 3), [-2, 0, 1])]


def test_dividing_rep_with_a_distinct_root_is_separated():
    # 141421/100000 is a root of the second entry only, and its interval
    # still overlaps sqrt(2)'s after the eight rounds: X^2 - 2 divides
    # that interval's rep, yet the roots differ, so the pair separates
    sq = P(-2, 0, 1)
    hs = [sq, sq * P(-141421, 100000)]
    ivs, separated = _build_calls(hs)
    assert ivs == isolate_nonneg_roots_reference(hs)
    assert [iv[0] for iv in ivs] == [(1,), (0, 1)]
    assert separated == [((0,), (1,))]


def test_merges_after_the_first_divide_without_bisecting():
    # the first pair's reps share X^2 - 2 and neither divides the other:
    # eight rounds and a gcd, which is X^2 - 2.  Each later entry's
    # interval is narrower (lc 2^v) and starts right of the merged lo, so
    # the merged cluster meets them one by one, and its rep divides each
    # of theirs: no refinement step at all
    sq = P(-2, 0, 1)
    hs = [sq * P(1, 1), sq * P(2, 1)] + [sq * P(1, 2**v) for v in (13, 16, 17, 18, 19)]
    steps, merges = [0], []
    refine, resolve = realdec._refine_step, realdec._resolve_overlap

    def counted(c):
        steps[0] += 1
        return refine(c)

    def traced(a, b):
        steps[0] = 0
        merged = resolve(a, b)
        merges.append((merged is not None, steps[0]))
        return merged

    with mock.patch.object(realdec, "_refine_step", counted), \
            mock.patch.object(realdec, "_resolve_overlap", traced):
        ivs = isolate_nonneg_roots(hs)
    assert [(iv.owners, iv.s) for iv in ivs] == [(tuple(range(7)), [-2, 0, 1])]
    assert merges == [(True, 16)] + [(True, 0)] * 5


def _assert_shared_intervals_certify(hs):
    # a merged interval can be wider than its members' refined ones; its
    # sample poly must still pass signs_at_root's Descartes check (one
    # variation on (lo, hi]), which verify_certificate relies on, and
    # vanish at the root in every owner
    for iv in isolate_nonneg_roots(hs):
        if iv.exact is None and len(iv.owners) > 1:
            got = signs_at_root([hs[i] for i in iv.owners], iv)
            assert got == (0,) * len(iv.owners), (iv, [list(h.coeffs) for h in hs])


def test_shared_intervals_certify_on_wide_families():
    for seed in range(3):
        _assert_shared_intervals_certify(_wide_family(seed, 40 + 5 * seed))
    _assert_shared_intervals_certify(_wide_family(1503, 50))


@settings(max_examples=60, deadline=None)
@given(_family, st.booleans())
def test_shared_intervals_certify(hs, share):
    _assert_shared_intervals_certify(_shared(hs, share))


# ------------------------------------------- integer against Fraction ends


# factors the integer endpoints must get right: X^2 - 2, shared and
# squared; the dyadic root 3/2^20; the non-dyadic known root 1/3; and
# 2^40 X^2 - 3, whose leading coefficient makes narrowing go 40 levels
_SPECIAL = ([-2, 0, 1], [4, 0, -4, 0, 1], [-3, 2**20], [-1, 3], [-3, 0, 2**40])
_special_poly = st.tuples(_poly, st.lists(st.sampled_from(_SPECIAL), max_size=2)).map(
    lambda t: prod(t[0], *(IntPoly(f) for f in t[1]))
)


def _assert_matches_fraction_reference(hs):
    got = [(iv.owners, iv.lo, iv.hi, iv.exact) for iv in isolate_nonneg_roots(hs)]
    assert got == isolate_nonneg_roots_reference(hs), [list(h.coeffs) for h in hs]
    return got


@settings(max_examples=80, deadline=None)
@given(st.lists(_special_poly, min_size=1, max_size=4), st.booleans())
def test_integer_endpoints_match_fraction_reference(hs, share):
    _assert_matches_fraction_reference(_shared(hs, share))


@settings(max_examples=60, deadline=None)
@given(st.lists(_special_poly, min_size=1, max_size=4), st.booleans())
def test_shared_intervals_certify_with_squared_factors(hs, share):
    _assert_shared_intervals_certify(_shared(hs, share))


def test_integer_endpoints_match_fraction_reference_on_fixed_families():
    third = P(-1, 3) * P(-2, 0, 1)
    got = _assert_matches_fraction_reference([third, P(-1, 3)])
    assert [(owners, exact) for owners, _, _, exact in got] == [
        ((0, 1), Fraction(1, 3)), ((0,), None)]
    got = _assert_matches_fraction_reference([P(-3, 2**20) * P(-2, 0, 1)])
    assert got[0][3] == Fraction(3, 2**20)
    got = _assert_matches_fraction_reference([P(-3, 0, 2**40), P(0, -1, 0, 1)])
    assert [owners for owners, *_ in got] == [(1,), (0,), (1,)]
    for seed in range(3):
        _assert_matches_fraction_reference(_wide_family(seed, 40 + 5 * seed))
    # (2X + 1)^2 (3X - 4) is isolated on its primitive part, whose leading
    # coefficient 12 narrows to width 1/4 where the squarefree part's 6
    # would stop at 1/2
    got = _assert_matches_fraction_reference([prod(P(1, 2), P(1, 2), P(-4, 3))])
    assert [(lo, hi) for _, lo, hi, _ in got] == [(Fraction(5, 4), Fraction(3, 2))]


# ------------------------------------------------- Bernstein subdivision


def _parts(hs):
    # the squarefree parts isolation runs on: X^k stripped, degree >= 1
    out = []
    for h in hs:
        q = list(h.coeffs)[order_at_zero(h):]
        if len(q) >= 2:
            out.append(realdec._sqfree_data(q)[0])
    return out


def _assert_vca_matches_reference(s):
    # the reference narrows its raw intervals afterwards and reads each
    # sign at lo by evaluation; the tree narrows each leaf as it emits it
    # and reads that sign off b_0, so exact roots come out in another order
    exacts, ivals = realdec._vca_isolate(s)
    got = sorted(exacts), [(Fraction(a, 1 << k), Fraction(b, 1 << k), slo)
                           for a, b, k, slo in ivals]
    ref_exacts, raw = vca_isolate_reference(s)
    ref_ivals = _narrow_reference(s, ref_exacts, raw)
    assert got == (sorted(ref_exacts), ref_ivals), s
    return got


def _counting_calls(fn, *args, kernel="eval_scaled"):
    """fn(*args), and the number of calls it made to the kernel."""
    calls = [0]
    real = getattr(_k, kernel)

    def counted(*a):
        calls[0] += 1
        return real(*a)

    with mock.patch.object(_k, kernel, counted):
        out = fn(*args)
    return out, calls[0]


def _dense_part(seed):
    # shaped like the dense decide workload: degree 80-100, 64-bit
    rng = random.Random(seed)
    cs = [rng.getrandbits(64) - (1 << 63) for _ in range(rng.randint(81, 101))]
    cs[0] = cs[0] or 1
    cs[-1] = cs[-1] or 1
    return realdec._sqfree_data(cs)[0]


def _dyadic_product(seed):
    # distinct dyadic roots a / 2^e, some on bisection midpoints, times an
    # integer factor with irrational or no real roots
    rng = random.Random(seed)
    roots = set()
    while len(roots) < rng.randint(2, 7):
        roots.add(Fraction(rng.randint(1, 40), 2 ** rng.randint(0, 4)))
    cs = [rng.randint(1, 3), 0, -rng.choice((2, 3, 5))]
    for r in sorted(roots):
        cs = _k.mul(cs, [-r.numerator, r.denominator])
    return realdec._sqfree_data(cs)[0]


@settings(max_examples=80, deadline=None)
@given(_family, st.booleans())
def test_bernstein_matches_monomial_reference(hs, share):
    for s in _parts(_shared(hs, share)):
        _assert_vca_matches_reference(s)


def test_bernstein_matches_monomial_reference_on_dense_parts():
    for seed in range(6):
        _, ivals = _assert_vca_matches_reference(_dense_part(seed))
        assert ivals


def test_bernstein_matches_monomial_reference_on_dyadic_roots():
    # a root on a midpoint shows as right_0 == 0 and stays in the right
    # child, as a zero b_0
    hits = 0
    for seed in range(40):
        exacts, _ = _assert_vca_matches_reference(_dyadic_product(seed))
        hits += bool(exacts)
    assert hits >= 20, hits
    # 4 is a midpoint, and a complex pair sits near 6.25 next to the root
    # 55/8: the zero kept in the right child of 4 leaves the factor x on
    # it, which hides the pair's two sign variations, so the leaf is
    # (6, 7] after 11 splits, and narrowing meets 55/8 at the third
    # midpoint
    s = _k.mul(_k.mul([-4, 1], [-55, 8]), [627, -200, 16])
    assert _counting_calls(realdec._vca_isolate, s) == (([4, Fraction(55, 8)], []), 3)
    _, splits = _counting_calls(realdec._vca_isolate, s, kernel="casteljau_split")
    assert splits <= 11, splits
    _assert_vca_matches_reference(s)


def test_bernstein_double_root_is_caught():
    # (X - 2)^2: the bisection of (0, 8) lands on 2 with right_1 == 0 too
    for isolate in (realdec._vca_isolate, vca_isolate_reference):
        with pytest.raises(PostconditionFailed, match="double root"):
            isolate([4, -4, 1])
    # a budgeted tree gives up there instead
    assert realdec._vca_isolate([4, -4, 1], budgeted=True) is None
    assert vca_isolate_reference([4, -4, 1], budgeted=True) is None


# ------------------------------------------------------- the tree's root


def _cauchy_k(s):
    # the tree's root exponent without _lm_bound: 2^K >= 1 + max|s_i| / |lc|
    return (-(-max(abs(c) for c in s[:-1]) // abs(s[-1]))).bit_length()


def _assert_no_root_from(s, K):
    # Sturm: s has no root in [2^K, oo), whose part at or past Cauchy's
    # bound holds none anyway
    lo, hi = Fraction(2) ** K, cauchy_root_bound(IntPoly(s))
    assert _ev(s, lo) != 0, (s, K)
    if lo < hi:
        assert count_roots(sturm_chain(IntPoly(s)), lo, hi) == 0, (s, K)


_big_coeff = st.one_of(st.just(0), st.integers(-9, 9),
                       st.integers(-(1 << 200), 1 << 200))


@settings(max_examples=60, deadline=None)
@given(st.lists(_big_coeff, min_size=1, max_size=60), st.integers(-(1 << 200), 1 << 200))
@example([-4, -3], 1)
def test_lm_bound_is_above_every_positive_root(lower, lc):
    # every degree, below the tree's _LM_DEGREE gate too; lc < 0 and zero
    # coefficients included
    s = lower + [lc or -1]
    K = realdec._lm_bound(s)
    assert K >= 0
    _assert_no_root_from(s, K)


def test_lm_bound_counts_each_use_of_a_positive_coefficient():
    # X^2 - 3X - 4 = (X - 4)(X + 1): both negatives pair with lc = 1, at
    # weights 1/2 and 1/4, so 6 < 2^K and 16 < 2^2K give K = 3; weighted
    # alike, 3 < 2^K and 4 < 2^2K would give K = 2, and 2^K = 4 is the root
    s = [-4, -3, 1]
    assert realdec._lm_bound(s) == 3
    assert realdec._lm_bound([-c for c in s]) == 3
    _assert_no_root_from(s, 3)
    assert _ev(s, Fraction(4)) == 0


def _as_fractions(found):
    exacts, ivals = found
    return exacts, [(Fraction(a, 1 << k), Fraction(b, 1 << k), slo)
                    for a, b, k, slo in ivals]


def _assert_tree_parity(q):
    """The trees on q from _lm_bound's root and from Cauchy's root give the
    same exacts and intervals: on primitive(q), budgeted, whenever the
    tree from Cauchy's root ends, and on the squarefree part.  True when
    _lm_bound lowered the root."""
    s = realdec._sqfree_data(q)[0]
    for part, budgeted in ((_k.primitive_signed(q), True), (s, False)):
        got = realdec._vca_isolate(part, budgeted)
        with mock.patch.object(realdec, "_lm_bound", _cauchy_k):
            want = realdec._vca_isolate(part, budgeted)
        if want is not None:
            assert got is not None and _as_fractions(got) == _as_fractions(want), q
    return len(s) > realdec._LM_DEGREE and realdec._lm_bound(s) < _cauchy_k(s)


def test_tree_from_the_lm_bound_matches_the_tree_from_cauchys_bound():
    lowered = 0
    for seed in range(12):
        rng = random.Random("lm/%d" % seed)
        bits = rng.choice((4, 64))
        cs = [rng.getrandbits(bits) - (1 << (bits - 1)) for _ in range(rng.randint(17, 121))]
        cs[0], cs[-1] = cs[0] or 1, cs[-1] or 1
        lowered += _assert_tree_parity(cs)
    # multiple roots, off and on the positive axis, raised past the gate
    # by a squarefree factor with no positive root
    pos = [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3]
    sq = lambda f: _k.mul(f, f)  # noqa: E731
    for q in (_k.mul(sq(sq([1, 0, 1])), _k.mul([-2, 1], [-3, 1])),
              _k.mul(_k.mul(sq([1, 1]), pos), [-7, -5, 2]),
              _k.mul(_k.mul(sq([-2, 0, 1]), pos), [-3, 1])):
        lowered += _assert_tree_parity(q)
    # dyadic roots, some on split points
    for seed in range(10):
        lowered += _assert_tree_parity(_k.mul(_dyadic_product(seed), pos))
    # X^n - (2^(Kn - 1) - 1): _lm_bound is K, and the root lies in
    # (2^K (1 - 1/n), 2^K), just below the tree's new root
    for n in (16, 31, 60):
        for K in (1, 2, 3):
            s = [1 - (1 << (K * n - 1))] + [0] * (n - 1) + [1]
            assert realdec._lm_bound(s) == K < _cauchy_k(s)
            assert _ev(s, Fraction((1 << K) * (n - 1), n)) < 0 < _ev(s, Fraction(1 << K))
            lowered += _assert_tree_parity(s)
    assert lowered >= 20, lowered


def _tail_instance(deg, seed):
    # perfbench's dense tail class: n=5, 64-bit coefficients, the first
    # entry positive at 0 and the second negative
    rng = random.Random("tail/%d/%d" % (deg, seed))
    hs = []
    for i in range(5):
        cs = [rng.getrandbits(64) - (1 << 63) for _ in range(deg + 1)]
        cs[-1] = cs[-1] or 1
        if i < 2:
            cs[0] = (1 - 2 * i) * (abs(cs[0]) + 1)
        hs.append(IntPoly(cs))
    return hs


def _decide_summary(hs):
    out = nxsolve.decide(hs)
    if out.certificate is None:
        return out.status
    sv = out.certificate.sign_vector
    root = getattr(sv.sample, "interval", None)
    where = sv.sample.value if root is None else (root.lo, root.hi, root.owners)
    return out.status, out.unsolvable_reason, where, sv.signs


def test_decide_from_the_lm_bound_matches_decide_from_cauchys_bound():
    for seed in (0, 1):
        hs = _tail_instance(400, seed)
        got = _decide_summary(hs)
        with mock.patch.object(realdec, "_lm_bound", _cauchy_k):
            assert _decide_summary(hs) == got


# ------------------------------------------- squarefreeness on demand


def _isolate_counting_sqfree(hs):
    """isolate_nonneg_roots, and for each _sqfree_data call the number of
    de Casteljau splits made before it."""
    calls, splits = [], [0]
    sqfree, split = realdec._sqfree_data, _k.casteljau_split

    def counted_sqfree(q):
        calls.append(splits[0])
        return sqfree(q)

    def counted_split(b):
        splits[0] += 1
        return split(b)

    with mock.patch.object(realdec, "_sqfree_data", counted_sqfree), \
            mock.patch.object(_k, "casteljau_split", counted_split):
        ivs = isolate_nonneg_roots(hs)
    return ivs, calls


def _assert_sturm_agrees(h, ivs):
    # each interval holds one distinct root of h, they hold all of them,
    # and multiplicity_free says whether gcd(h, h') vanishes there
    s = _stripped_sqfree(h)
    cs = list(h.coeffs)
    g = IntPoly(prs_gcd(cs, _k.deriv(cs)))
    for iv in ivs:
        if iv.exact is not None:
            assert _exact_sign(h, iv.exact) == 0
            simple = _exact_sign(IntPoly(_k.deriv(cs)), iv.exact) != 0
        else:
            assert _count_half_open(s, iv.lo, iv.hi) == 1
            simple = g.degree < 1 or count_roots(sturm_chain(g), iv.lo, iv.hi) == 0
        assert iv.multiplicity_free == simple, (cs, iv)
    assert len(ivs) == _indep_nonneg_count(s) + (order_at_zero(h) > 0)


def test_multiple_roots_off_the_positive_axis_need_no_gcd():
    # q has multiple roots, none positive: the tree on primitive(q) ends,
    # and its intervals hold one simple root each
    sq = lambda f: prod(f, f)  # noqa: E731
    for h, exacts in ((prod(sq(P(1, 0, 1)), P(-2, 1)), [2]),
                      (prod(sq(P(1, 1)), P(-3, 1)), [3]),
                      (prod(sq(P(1, 1)), sq(P(1, 0, 1)), P(-3, 0, 1)), [None])):
        ivs, calls = _isolate_counting_sqfree([h])
        assert calls == []
        assert [iv.exact for iv in ivs] == exacts
        assert all(iv.multiplicity_free for iv in ivs)
        _assert_sturm_agrees(h, ivs)
        d = realdec._PolyData(list(h.coeffs))
        assert d.s == list(h.coeffs) and d.gfac is None


def test_multiple_irrational_root_falls_back_at_the_depth_budget():
    # (X^2 - 2)^2 (X - 3): the nodes around sqrt(2) never drop below two
    # sign variations, so the tree reaches the budget, the gcd runs once,
    # and the squarefree part is isolated from scratch
    h = prod(P(-2, 0, 1), P(-2, 0, 1), P(-3, 1))
    ivs, calls = _isolate_counting_sqfree([h])
    assert len(calls) == 1 and calls[0] >= realdec._SQFREE_DEPTH
    assert [(iv.exact, iv.multiplicity_free) for iv in ivs] == [(None, False), (3, True)]
    _assert_sturm_agrees(h, ivs)
    d = realdec._PolyData(list(h.coeffs))
    assert d.s == _k.mul([-2, 0, 1], [-3, 1]) and d.gfac == [-2, 0, 1]


def test_double_midpoint_root_falls_back_at_once():
    # (X - 1)^2: the second split lands on 1 with right_0 == right_1 == 0
    h = P(1, -2, 1)
    ivs, calls = _isolate_counting_sqfree([h])
    assert len(calls) == 1 and calls[0] < realdec._SQFREE_DEPTH
    assert [(iv.exact, iv.multiplicity_free) for iv in ivs] == [(1, False)]
    _assert_sturm_agrees(h, ivs)


def test_squarefree_part_only_where_the_tree_runs_deep():
    # a dense degree-100 part ends well inside the budget; a part with the
    # squared X^2 - 2 factor, as in the wide decide workload, needs exactly
    # one gcd(q, q')
    rng = random.Random(100)
    cs = [rng.getrandbits(64) - (1 << 63) for _ in range(101)]
    cs[0] = cs[0] or 1
    ivs, calls = _isolate_counting_sqfree([IntPoly(cs)])
    assert ivs and calls == []
    h = prod(P(-7, -5, 2), P(-2, 0, 1), P(-2, 0, 1))
    ivs, calls = _isolate_counting_sqfree([h])
    assert len(calls) == 1
    assert [iv.multiplicity_free for iv in ivs] == [False, True]
    _assert_sturm_agrees(h, ivs)


def test_squarefree_part_deeper_than_the_budget_is_isolated_again():
    # 1024/1025 and 1025/1026 lie about 2^-20 apart, so the tree splits
    # past the budget and gives up; the gcd is 1, and primitive(q) is
    # isolated again, from a second Taylor shift, with no budget
    h = prod(P(-1024, 1025), P(-1025, 1026), P(-3, 0, 1))
    q = list(h.coeffs)
    shifts = [0]
    shift1 = _k.shift1

    def counted(p):
        shifts[0] += 1
        return shift1(p)

    with mock.patch.object(_k, "shift1", counted):
        ivs, calls = _isolate_counting_sqfree([h])
    assert len(calls) == 1 and calls[0] >= realdec._SQFREE_DEPTH
    assert shifts[0] == 2
    assert all(iv.multiplicity_free for iv in ivs)
    _assert_sturm_agrees(h, ivs)
    d = realdec._PolyData(q)
    assert d.gfac is None and d.s == _k.primitive_signed(q)
    assert realdec._vca_isolate(d.s, budgeted=True) is None
    assert d.ivals == realdec._vca_isolate(d.s)[1]


def test_narrowing_reads_the_sign_at_lo_from_the_tree():
    # X^2 - 3X + 1 has a root in each of the leaves (0, 2] and (2, 4],
    # and lc = 1 narrows them to width 1: one halving each, and no
    # evaluation for either sign at lo, which is b_0's
    d, calls = _counting_calls(realdec._PolyData, [1, -3, 1])
    assert d.ivals == [(4, 6, 1, -1), (0, 2, 1, 1)]
    assert calls == 2


def test_one_taylor_shift_per_isolated_part():
    # the split is a de Casteljau pass, so only the conversion to the
    # Bernstein basis shifts; three shifts per split node would be
    # dozens here
    rng = random.Random(90)
    cs = [rng.getrandbits(64) - (1 << 63) for _ in range(91)]
    cs[0] = cs[0] or 1
    calls = [0]
    shift1 = _k.shift1

    def counted(p):
        calls[0] += 1
        return shift1(p)

    with mock.patch.object(_k, "shift1", counted):
        roots = isolate_nonneg_roots([IntPoly(cs)])
    assert len(roots) >= 2
    assert calls[0] == 1


# ------------------------------------------------ dyadic-root-free intervals


def _two_part(n):
    p = 1
    while n % (2 * p) == 0:
        p *= 2
    return p


def _assert_dyadic_free(cs):
    d = realdec._PolyData(cs)
    if len(d.q) < 2:
        return 0
    width = Fraction(1, _two_part(d.s[-1]))
    for a, b, k, slo in d.ivals:
        lo, hi = Fraction(a, 1 << k), Fraction(b, 1 << k)
        assert 0 < hi - lo <= width, (cs, lo, hi)
        # aligned: lo is a multiple of the power-of-two width
        assert (lo / (hi - lo)).denominator == 1, (cs, lo, hi)
        vlo, vhi = _ev(d.s, lo), _ev(d.s, hi)
        assert vlo != 0 and vhi != 0, (cs, lo, hi)
        assert slo == realdec._sgn(vlo) != realdec._sgn(vhi), (cs, lo, hi)
    return len(d.ivals)


@settings(max_examples=80, deadline=None)
@given(_family, st.booleans())
def test_stored_intervals_are_dyadic_root_free(hs, share):
    for h in _shared(hs, share):
        _assert_dyadic_free(list(h.coeffs))


def test_stored_intervals_are_dyadic_root_free_on_fixed_parts():
    # raw intervals already narrow enough, with a root at one end: (1, 2)
    # for (X - 1)(X^2 - 3) and (0, 1) for (X - 1)(3X^2 - X - 1)
    kept = 0
    for cs in (_k.mul([-1, 1], [-3, 0, 1]), _k.mul([-1, 1], [-1, -1, 3])):
        kept += _assert_dyadic_free(cs)
    for seed in range(40):
        kept += _assert_dyadic_free(_dyadic_product(seed))
    for seed in range(6):
        kept += _assert_dyadic_free(_dense_part(seed))
    assert kept > 40, kept


def _count_builds(hs):
    calls = [0]
    build = realdec._build_clusters

    def counted(*args):
        calls[0] += 1
        return build(*args)

    with mock.patch.object(realdec, "_build_clusters", counted):
        isolate_nonneg_roots(hs)
    return calls[0]


def test_clusters_are_built_once():
    # no refinement can land on a root, so nothing restarts the build,
    # also on families with many dyadic roots
    families = [_wide_family(1503, 50)]
    families += [[IntPoly(_dyadic_product(s))] for s in range(40)]
    families += [[IntPoly(_dyadic_product(s)), IntPoly(_dyadic_product(s + 40))]
                 for s in range(20)]
    for hs in families:
        assert _count_builds(hs) == 1, [list(h.coeffs) for h in hs]


def test_dyadic_root_with_large_power_of_two_comes_out_exact():
    # the root 3/2^20 sits deep inside the raw interval; narrowing to
    # width 2^-20 meets it on a midpoint
    h = IntPoly(_k.mul([-3, 2**20], [-2, 0, 1]))
    ivs = isolate_nonneg_roots([h])
    assert [(iv.owners, iv.exact) for iv in ivs] == [
        ((0,), Fraction(3, 2**20)),
        ((0,), None),
    ]


_NON_DYADIC_KNOWN_ROOT = """
from posring.polyring import IntPoly
from posring.realdec import isolate_nonneg_roots
ivs = isolate_nonneg_roots([IntPoly([2, -6, -1, 3]), IntPoly([-1, 3])])
print([(iv.owners, str(iv.exact)) for iv in ivs])
"""


def test_non_dyadic_known_root_drops_its_interval():
    # (3X - 1)(X^2 - 2) and 3X - 1: 1/3 is inside the first one's raw
    # interval, and no bisection excludes it, so the interval must be
    # dropped, not shrunk; the child's timeout turns a spin into a failure
    proc = subprocess.run([sys.executable, "-c", _NON_DYADIC_KNOWN_ROOT],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[((0, 1), '1/3'), ((0,), 'None')]"


def _refine_step_reference(c):
    # re-reads the sign at lo on every step
    s = c.rep
    m, k = c.a + c.b, c.k + 1
    vm = _k.eval_scaled(s, m, 1 << k)
    if vm == 0:
        raise PostconditionFailed("bisection landed on the root at %s" % Fraction(m, 1 << k))
    if realdec._sgn(vm) != realdec._sgn(_k.eval_scaled(s, c.a, 1 << c.k)):
        c.a, c.b = 2 * c.a, m
    else:
        c.a, c.b = m, 2 * c.b
    c.k = k


_eval_scaled = _k.eval_scaled


def _count_evs(hs, refine):
    counts = {"ev": 0, "step": 0}

    def counted_ev(*args):
        counts["ev"] += 1
        return _eval_scaled(*args)

    def counted_step(c):
        counts["step"] += 1
        return refine(c)

    with mock.patch.object(_k, "eval_scaled", counted_ev), \
            mock.patch.object(realdec, "_refine_step", counted_step):
        ivs = isolate_nonneg_roots(hs)
    out = [(iv.owners, iv.lo, iv.hi, iv.multiplicity_free, iv.exact) for iv in ivs]
    return out, counts


def test_refine_step_reuses_the_stored_sign_at_lo():
    # a cluster's sign at lo is read once when it is built, so every
    # refinement step, shrinks' steps included, saves exactly one
    # evaluation
    hs = _wide_family(1503, 50)
    got, new = _count_evs(hs, realdec._refine_step)
    want, old = _count_evs(hs, _refine_step_reference)
    assert got == want
    assert new["step"] == old["step"] > 100
    assert old["ev"] - new["ev"] == new["step"]



class _RereadCluster(realdec._IvalCluster):
    # a cluster built from one interval reads its sign at lo again, as
    # the constructor once did; a merge keeps the sign of its common
    # factor at lo, which the merge test has read
    __slots__ = ()

    def __init__(self, a, b, k, members, slo, rep):
        self.a, self.b, self.k, self.members, self.rep = a, b, k, members, rep
        if len(members) == 1:
            slo = realdec._sgn(_k.eval_scaled(rep, a, 1 << k))
        self.slo = slo


_shrink = realdec._shrink_to_exclude


def _reread_shrink(c, r):
    # _shrink_to_exclude as it was, reading the sign at lo again
    c.slo = realdec._sgn(_k.eval_scaled(c.rep, c.a, 1 << c.k))
    _shrink(c, r)


def _count_build_evs(hs, cluster, shrink):
    """isolate_nonneg_roots with the given cluster class and shrink,
    counting evaluations, clusters built from one interval and shrinks."""
    counts = Counter()

    def counted_ev(*args):
        counts["ev"] += 1
        return _eval_scaled(*args)

    def counted_cluster(a, b, k, members, slo, rep):
        counts["built"] += len(members) == 1  # a merge unites two polys
        return cluster(a, b, k, members, slo, rep)

    def counted_shrink(*args):
        counts["shrink"] += 1
        return shrink(*args)

    with mock.patch.object(_k, "eval_scaled", counted_ev), \
            mock.patch.object(realdec, "_IvalCluster", counted_cluster), \
            mock.patch.object(realdec, "_shrink_to_exclude", counted_shrink):
        ivs = isolate_nonneg_roots(hs)
    out = [(iv.owners, iv.lo, iv.hi, iv.multiplicity_free, iv.exact) for iv in ivs]
    return out, counts


def test_cluster_takes_the_sign_at_lo_from_the_narrowing_pass():
    # the narrowing pass stores the sign at lo it has computed, so building
    # a cluster, and each shrink before it, saves exactly one evaluation
    for hs in [_wide_family(1503, 50), _wide_family(7, 30)]:
        got, new = _count_build_evs(hs, realdec._IvalCluster,
                                    realdec._shrink_to_exclude)
        want, old = _count_build_evs(hs, _RereadCluster, _reread_shrink)
        assert got == want
        assert new["built"] == old["built"] > 10
        assert new["shrink"] == old["shrink"] > 0
        assert old["ev"] - new["ev"] == new["built"] + new["shrink"]


_BROKEN_INVARIANTS = """
import sys
sys.path.insert(0, sys.argv[1])
from fractions import Fraction
from oracles import squarefree_part
from posring import kernels
from posring.errors import PostconditionFailed
from posring.polyring import IntPoly
from posring.realdec import (_IvalCluster, _refine_step, _shrink_to_exclude,
                             isolate_nonneg_roots)
kernels.exact_div = lambda a, b: None
# X - 1 on (0, 2], which breaks the dyadic-root-free invariant
box = lambda: _IvalCluster(0, 2, 0, {0}, -1, [-1, 1])
for call in (lambda: squarefree_part(IntPoly([0, 0, 1])),
             lambda: isolate_nonneg_roots([IntPoly([1, -2, 1])]),
             lambda: _refine_step(box()),
             lambda: _shrink_to_exclude(box(), Fraction(3, 2))):
    try:
        call()
    except PostconditionFailed as exc:
        print(sys.flags.optimize, exc)
"""


def test_invariant_checks_survive_optimize():
    # a gcd that fails to divide, or a bisection that lands on a root,
    # must be caught even where -O strips asserts
    proc = subprocess.run([sys.executable, "-O", "-c", _BROKEN_INVARIANTS,
                           os.path.dirname(os.path.abspath(__file__))],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "1 gcd(p, p') does not divide p's primitive part",
        "1 modular gcd found no common divisor within its prime budget",
        "1 bisection landed on the root at 1",
        "1 bisection landed on the root at 1",
    ]
