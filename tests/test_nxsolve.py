import random
import subprocess
import sys
from fractions import Fraction
from math import lcm
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posring import kernels as _k
from posring import realdec
from posring.errors import AllZero, LengthMismatch, PostconditionFailed, ZeroPolynomial
from posring.polyring import IntPoly
from posring.realdec import AlgebraicRoot, IsolatingInterval, RationalPoint, SignVector
from posring import nxsolve as nx

from oracles import (
    SearchSpaceTooLarge,
    _digit_vectors,
    _oracle_dfs,
    _oracle_meet,
    brute_force_oracle,
    build_feasibility_reference,
    find_witness_linear,
    normalize_reference,
    rational_feasibility_reference,
)


def P(*cs):
    return IntPoly(cs)


REMARK_PAIR = [P(1), P(-1, 2, -1)]  # [1, -(X-1)^2]
TRIPLE = [P(-1, 1), P(1), P(0, -1)]  # [X-1, 1, -X]
SHIFT_PAIR = [P(1, 1), P(-2, -1)]  # [X+1, -(X+2)]


# ------------------------------------------------------------- normalize


def test_normalize_x_division():
    r = nx.normalize([P(0, 1), P(-1, 1)])
    assert isinstance(r, nx.NormalizedInstance)
    assert r.hs == (P(1), P(-1, 1))
    assert r.x_divisions == 1
    assert r.gcd_removed == IntPoly.one()


def test_normalize_early_positive():
    r = nx.normalize([P(1), P(1, 1)])
    assert isinstance(r, nx.EarlyUnsolvable)
    assert r.sign_vector.signs == (1, 1)
    assert r.sign_vector.sample.value == 0


def test_normalize_gcd_then_early():
    r = nx.normalize([P(-2, 2), P(-3, 3)])
    assert isinstance(r, nx.EarlyUnsolvable)
    assert r.hs == (P(2), P(3))
    assert r.gcd_removed == P(-1, 1)


def test_normalize_mixed_negative_side():
    r = nx.normalize([P(-1), P(-1, -1)])
    assert isinstance(r, nx.EarlyUnsolvable)
    assert r.sign_vector.signs == (-1, -1)


def test_normalize_rejects_zero_entry():
    with pytest.raises(ZeroPolynomial):
        nx.normalize([P(1), IntPoly.zero()])
    with pytest.raises(AllZero):
        nx.normalize([])


def test_normalize_strips_differing_x_orders():
    # X^2 + X^3, -X^4 and 1: X^2 comes off both, then X^2 more off -X^4
    r = nx.normalize([P(0, 0, 1, 1), P(0, 0, 0, 0, -1), P(1)])
    assert isinstance(r, nx.NormalizedInstance)
    assert r.hs == (P(1, 1), P(-1), P(1))
    assert r.x_divisions == 4
    r = nx.normalize([P(0, 0, 1, 1), P(0, 0, 0, 0, 1), P(1)])
    assert isinstance(r, nx.EarlyUnsolvable)
    assert r.hs == (P(1, 1), P(1), P(1))
    assert r.x_divisions == 4
    # 1, X, -X^3: the signs turn mixed only once X^3 is off
    r = nx.normalize([P(1), P(0, 1), P(0, 0, 0, -1)])
    assert isinstance(r, nx.NormalizedInstance)
    assert r.hs == (P(1), P(1), P(-1))
    assert r.x_divisions == 3
    r = nx.normalize([P(1), P(0, 1), P(0, 0, 0, 1)])
    assert isinstance(r, nx.EarlyUnsolvable)
    assert r.hs == (P(1), P(1), P(1))
    assert r.x_divisions == 3


def test_normalize_divides_nothing_by_a_gcd_of_one():
    # coprime entries: exact_div hands each back as it is, with no long
    # division by 1; a real gcd still divides every entry
    hs = [P(-2, 0, 1), P(0, 3, -1), P(5, 1)]
    with mock.patch.object(_k, "exact_div", wraps=_k.exact_div) as div:
        r = nx.normalize(hs)
    assert div.call_count == 0
    assert r.gcd_removed == IntPoly.one() and r.hs == tuple(hs)
    assert all(a is b for a, b in zip(r.hs, hs))
    g = P(-1, 1)
    with mock.patch.object(_k, "exact_div", wraps=_k.exact_div) as div:
        r = nx.normalize([h * g for h in hs])
    assert div.call_count >= len(hs)
    assert r.gcd_removed == g and r.hs == tuple(hs)


# one entry: X^order * (lowest + X * tail)
_x_entry = st.tuples(st.integers(0, 4), st.integers(-3, 3).filter(bool),
                     st.lists(st.integers(-3, 3), max_size=3))


@settings(max_examples=300)
@given(st.lists(_x_entry, min_size=1, max_size=5), st.booleans(),
       st.lists(st.integers(-2, 2), min_size=1, max_size=3).filter(any))
def test_normalize_matches_loop_reference(entries, one_sign, shared):
    # the closed-form X-strip against the strip-and-reread loop, on
    # differing X-orders, a shared factor and one-sign lowest terms
    hs = [IntPoly([0] * k + [abs(c) if one_sign else c] + tail) * IntPoly(shared)
          for k, c, tail in entries]
    assert nx.normalize(hs) == normalize_reference(hs)


_HIGH_X_ORDER = """
from posring.nxsolve import normalize
from posring.polyring import IntPoly
r = normalize([IntPoly([0] * 200000 + [1]), IntPoly([-1, 1])])
print(r.x_divisions, r.hs)
"""


def test_normalize_high_x_order_is_not_quadratic():
    # X^200000 and X - 1: stripping one X per round, copying every entry
    # each time, takes minutes; the child's timeout turns that into a
    # failure
    proc = subprocess.run([sys.executable, "-c", _HIGH_X_ORDER],
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[0] == "200000"


# ---------------------------------------------------------------- decide


def test_decide_remark_pair():
    d = nx.decide(REMARK_PAIR)
    assert d.status == nx.UNSOLVABLE
    assert d.unsolvable_reason == nx.UNIFORM_SIGN_WITNESS
    sv = d.certificate.sign_vector
    assert sv.sample.value == 1
    assert sv.signs == (1, 0)
    assert nx.verify_certificate(d.certificate)


def test_decide_triple_with_witness():
    d = nx.decide(TRIPLE)
    assert d.status == nx.SOLVABLE
    assert d.certificate is None and d.unsolvable_reason is None
    assert nx.find_witness(TRIPLE).fs == (P(1), P(1), P(1))


def test_decide_shift_pair_witness():
    wt = nx.find_witness(SHIFT_PAIR)
    assert wt.fs == (P(2, 1), P(1, 1))
    assert nx.verify_witness(SHIFT_PAIR, list(wt.fs))


def test_decide_x_and_x_minus_1():
    d = nx.decide([P(0, 1), P(-1, 1)])
    assert d.status == nx.UNSOLVABLE
    sv = d.certificate.sign_vector
    assert sv.sample.value == 1
    assert sv.signs == (1, 0)


def test_decide_early_unsolvable_reason():
    d = nx.decide([P(1), P(2, 1)])
    assert d.status == nx.UNSOLVABLE
    assert d.unsolvable_reason == nx.UNIFORM_SIGN_AT_ZERO
    assert d.certificate.sign_vector.sample.value == 0
    assert nx.verify_certificate(d.certificate)


def test_decide_single_polynomial():
    d = nx.decide([P(0, 1)])  # X alone: f*X = 0 forces f = 0
    assert d.status == nx.UNSOLVABLE
    # the gcd takes all of X out, and the constant left is positive at 0
    assert d.unsolvable_reason == nx.UNIFORM_SIGN_AT_ZERO
    assert d.certificate.sign_vector.sample.value == 0
    assert d.certificate.hs == (P(1),) and d.certificate.gcd_removed == P(0, 1)
    assert nx.verify_certificate(d.certificate)


def test_decide_zero_slots():
    assert nx.decide([IntPoly.zero()]).status == nx.SOLVABLE
    assert nx.decide([IntPoly.zero(), P(0, 1)]).status == nx.UNSOLVABLE
    hs = [IntPoly.zero(), P(0, 1), P(0, -1)]
    assert nx.decide(hs).status == nx.SOLVABLE
    assert nx.verify_witness(hs, list(nx.find_witness(hs).fs))


def test_decide_empty_rejected():
    with pytest.raises(AllZero):
        nx.decide([])


def test_find_witness_empty_rejected():
    # as decide: an empty instance has no tuple to search, and the LP of
    # zero unknowns would return the empty tuple as a witness
    with pytest.raises(AllZero):
        nx.find_witness([])
    with pytest.raises(AllZero):
        nx.find_witness([], 0)


def test_decide_witness_cap_reported():
    assert nx.find_witness(TRIPLE, 0) is not None
    # a solvable instance whose smallest witness needs degree 1
    assert nx.decide(SHIFT_PAIR).status == nx.SOLVABLE
    assert nx.find_witness(SHIFT_PAIR, 0) is None


def test_decide_algebraic_certificate():
    # signs align only at sqrt(2) itself
    hs = [P(-2, 0, 1), P(2, 0, -1), P(-1, 1)]
    d = nx.decide(hs)
    assert d.status == nx.UNSOLVABLE
    sv = d.certificate.sign_vector
    assert isinstance(sv.sample, AlgebraicRoot)
    assert sv.signs == (0, 0, 1)
    assert nx.verify_certificate(d.certificate)


def test_algebraic_certificate_checks_its_interval_once():
    # one Descartes test of the sample poly per certificate, not one per
    # entry: each entry is then signed on the checked interval, by its
    # own Descartes tests when it is nonzero there
    sq = P(-2, 0, 1)
    hs = [sq, -sq, P(-1, 1), sq * P(3, 1), P(-1, 0, 1)]
    d = nx.decide(hs)
    assert isinstance(d.certificate.sign_vector.sample, AlgebraicRoot)
    root = d.certificate.sign_vector.sample.interval
    calls = []
    descartes = realdec._descartes

    def counted(p, lo, hi):
        calls.append(p == root.s)
        return descartes(p, lo, hi)

    with mock.patch.object(realdec, "_descartes", counted):
        assert nx.verify_certificate(d.certificate)
    assert calls.count(True) == 1 and len(calls) > 1, calls


def test_decide_single_entry_takes_the_early_exit():
    # the gcd of one entry is its primitive part, and the nonzero
    # constant left is strictly signed at 0
    for cs in [(0, 1), (3,), (-2, 0, 4), (0, 0, -5, 1), (1, -2, 1), (0, -1)]:
        d = nx.decide([IntPoly.zero(), P(*cs)])
        assert d.status == nx.UNSOLVABLE
        assert d.unsolvable_reason == nx.UNIFORM_SIGN_AT_ZERO
        assert isinstance(d.certificate, nx.EarlyUnsolvable)
        assert d.certificate.hs[0].degree == 0
        assert d.certificate.hs[0] * d.certificate.gcd_removed == P(*cs)
        assert nx.verify_certificate(d.certificate)


def _forged(hs, sample, signs):
    return nx.SignCertificate(SignVector(sample, signs), tuple(hs), IntPoly.one(), 0)


def _sqrt2_box(lo, hi):
    return AlgebraicRoot(IsolatingInterval((0,), Fraction(lo), Fraction(hi), True, None,
                                           [-2, 0, 1]))


@pytest.mark.parametrize("hs, sample, signs", [
    # a zero sign at t = 0, where f_1 = X vanishes: (1, X) solves it
    ([P(0, 1), P(-1)], RationalPoint(Fraction(0)), (0, -1)),
    # no nonzero sign at sqrt(2): (1, 1) solves it
    ([P(-2, 0, 1), P(2, 0, -1)], _sqrt2_box(1, 2), (0, 0)),
    # the root -sqrt(2), where both are positive: (1, X + 1) solves it
    ([P(-1, 0, 1), P(1, -1)], _sqrt2_box(-2, -1), (1, 1)),
    # p = (2X - 1)(2X - 3)(2X - 5) changes sign over (0, 3], as does
    # gcd(p, h_i) for each zero sign, but at different roots of p: only
    # Descartes' rule sees the three roots; (1, 1, 4) solves it
    ([P(-1, 2), P(5, -2), P(-1)],
     AlgebraicRoot(IsolatingInterval((0,), Fraction(0), Fraction(3), True, None,
                                     [-15, 46, -36, 8])),
     (0, 0, -1)),
    # an algebraic sample carrying the exact value -1, where X + 1 is 0
    # and -1 negative: the t >= 0 rules hold only for rational samples;
    # (1, X + 1) solves it
    ([P(1, 1), P(-1)],
     AlgebraicRoot(IsolatingInterval((0,), Fraction(0), Fraction(1), True, -1, None)),
     (0, -1)),
    # a sign fewer than the entries: 1 is positive at t = 1 and -1 goes
    # unsigned; (1, 1) solves it
    ([P(1), P(-1)], RationalPoint(Fraction(1)), (1,)),
    # a sign more than the entries, the two true ones zero at sqrt(2);
    # (1, 1) solves it
    ([P(-2, 0, 1), P(2, 0, -1)], _sqrt2_box(1, 2), (0, 0, 1)),
])
def test_forged_certificate_of_a_solvable_instance_is_rejected(hs, sample, signs):
    cert = _forged(hs, sample, signs)
    assert cert.sign_vector.is_uniform
    assert not nx.verify_certificate(cert)
    assert nx.decide(hs).status == nx.SOLVABLE
    assert nx.verify_witness(hs, list(nx.find_witness(hs).fs))


def test_repeated_factor_decide_takes_a_few_modular_images():
    # a 64-bit degree-200 part times (X^2 - 2)^2, with 1 and X^3 - 1: the
    # squared factor sends isolation to gcd(q, q'), and the modular gcd
    # lifts X^2 - 2 from one or two primes; gcd_many's unit certificate
    # against 1 takes one more.  No pseudo-remainder sequence runs on q:
    # the only ones are the Sturm chains of X^2 - 2 for multiplicity
    rng = random.Random(0)
    part = [rng.getrandbits(64) - (1 << 63) for _ in range(201)]
    q = _k.mul(part, _k.mul([-2, 0, 1], [-2, 0, 1]))
    hs = [IntPoly(q), P(1), P(-1, 0, 0, 1)]
    primes, rem_degrees = [], set()
    gcd_mod, pseudo_rem = _k.gcd_mod, _k.pseudo_rem

    def counted(a, b, m):
        primes.append(m)
        return gcd_mod(a, b, m)

    def counted_rem(a, b):
        rem_degrees.add(len(a) - 1)
        return pseudo_rem(a, b)

    with mock.patch.object(_k, "gcd_mod", counted), \
            mock.patch.object(_k, "pseudo_rem", counted_rem):
        d = nx.decide(hs)
    assert d.status == nx.UNSOLVABLE
    assert nx.verify_certificate(d.certificate)
    assert 0 < len(primes) <= 4, primes
    assert max(rem_degrees, default=0) <= 2, rem_degrees


_NO_SIGN_CHANGE = """
from fractions import Fraction
from posring.polyring import IntPoly
from posring.nxsolve import SignCertificate, verify_certificate
from posring.realdec import AlgebraicRoot, IsolatingInterval, SignVector, signs_at_root
root = IsolatingInterval((0,), Fraction(2), Fraction(3), True, None, [-2, 0, 1])
q = IntPoly([-3, 1])
cert = SignCertificate(SignVector(AlgebraicRoot(root), (-1,)), (q,), IntPoly.one(), 0)
print(signs_at_root((q,), root), verify_certificate(cert))
"""


def test_interval_without_a_sign_change_is_refused():
    # X^2 - 2 is positive on all of (2, 3]: the box holds no root to
    # narrow onto; the child's timeout turns a spin into a failure
    proc = subprocess.run([sys.executable, "-c", _NO_SIGN_CHANGE],
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["None", "False"]


# ------------------------------------------------------------ feasibility


def _feasible(hs, d):
    # the presolved system is None when a forcing row empties a block
    sys_ = nx.build_feasibility(hs, d)
    return sys_ is not None and nx.rational_feasibility(sys_) is not None


def test_feasibility_rows_pair():
    s = nx.build_feasibility([P(1), P(-1)], 0)
    assert s == nx.FeasibilitySystem(2, 0, (0, 1), ((1, -1),))


def test_forcing_rows_drop_pinned_columns():
    # 1 and -(X-1)^2 at degree 3: the top row is -a_23 alone, so a_23 = 0;
    # then row 4 is -a_22 alone; row 3 keeps a_13 against -a_21, mixed
    s = nx.build_feasibility(REMARK_PAIR, 3)
    assert s.cols == (0, 1, 2, 3, 4, 5)
    assert s.eq == ((1, 0, 0, 0, -1, 0), (0, 1, 0, 0, 2, -1),
                    (0, 0, 1, 0, -1, 2), (0, 0, 0, 1, 0, -1))
    # at degree 2 row 1 reads a_11 + 2 a_20 once a_21 is forced, which
    # empties f_2's block: no system, no LP
    assert nx.build_feasibility(REMARK_PAIR, 2) is None
    # a zero entry never enters a row, so its block keeps every column
    s = nx.build_feasibility([IntPoly.zero(), P(1), P(-1)], 1)
    assert s.cols == tuple(range(6))
    assert s.eq == ((0, 0, 1, 0, -1, 0), (0, 0, 0, 1, 0, -1))


def test_feasibility_rows_triple():
    s = nx.build_feasibility(TRIPLE, 0)
    assert s.eq == ((-1, 1, 0), (1, 0, -1))
    assert nx.rational_feasibility(s) == [1, 1, 1]


def test_feasibility_remark_pair_infeasible():
    # degrees 0-2 are settled by forcing rows, degree 3 by the LP
    systems = [nx.build_feasibility(REMARK_PAIR, d) for d in range(4)]
    assert [s is None for s in systems] == [True, True, True, False]
    assert nx.rational_feasibility(systems[3]) is None
    for d in range(4):
        full = build_feasibility_reference(REMARK_PAIR, d)
        assert rational_feasibility_reference(full) is None


def test_feasibility_handbuilt_infeasible():
    bad = nx.FeasibilitySystem(1, 0, (0,), ((1,),))  # a = 0 and the implied a >= 1
    assert nx.rational_feasibility(bad) is None


def test_feasibility_point_scales_to_witness():
    x = nx.rational_feasibility(nx.build_feasibility(SHIFT_PAIR, 1))
    den = lcm(*(v.denominator for v in x))
    assert [v * den for v in x] == [2, 1, 1, 1]  # f = (X+2, X+1)


def test_feasibility_degree_monotone():
    rng = random.Random(4)
    for _ in range(30):
        hs = [
            IntPoly([rng.randint(-2, 2) for _ in range(rng.randint(1, 3))])
            for _ in range(rng.randint(2, 3))
        ]
        if any(h.is_zero for h in hs):
            continue
        for d in range(3):
            if _feasible(hs, d):
                assert _feasible(hs, d + 1)
                break


small_polys = st.builds(
    IntPoly, st.lists(st.integers(-9, 9), min_size=1, max_size=4))


@settings(max_examples=150, deadline=None)
@given(st.lists(small_polys, min_size=2, max_size=6), st.integers(0, 4))
def test_integer_tableau_matches_fraction_reference(hs, d):
    # same pivots, so the same vertex (or None), not merely some feasible point
    sys_ = nx.build_feasibility(hs, d)
    if sys_ is None:
        # settled by forcing rows: the unreduced system must be infeasible
        assert rational_feasibility_reference(build_feasibility_reference(hs, d)) is None
        return
    got = nx.rational_feasibility(sys_)
    assert got == rational_feasibility_reference(sys_)
    if got is not None:
        assert all(type(v) is Fraction for v in got)


# SHIFT_PAIR at degree 3 takes 10 pivots on m = 5 working rows (its 2
# coefficient-sum rows stay implicit), and at one of them the leaving
# working row was last changed under an older determinant
SHIFT3 = nx.build_feasibility(SHIFT_PAIR, 3)
SHIFT3_PIVOTS = 10


def _counting_pivot_rows(monkeypatch):
    # one entry per _pivot_row call: True when it refreshes a row in place
    calls = []
    real = nx._pivot_row

    def counted(row, prow, f, piv, den):
        calls.append(row is prow)
        return real(row, prow, f, piv, den)

    monkeypatch.setattr(nx, "_pivot_row", counted)
    return calls


def test_stale_leaving_row_is_refreshed(monkeypatch):
    calls = _counting_pivot_rows(monkeypatch)
    got = nx.rational_feasibility(SHIFT3)
    assert any(calls)
    assert got == rational_feasibility_reference(SHIFT3)
    assert got == [1, Fraction(1, 2), 0, 0, Fraction(1, 2), Fraction(1, 2), 0, 0]


def test_pivots_skip_rows_they_leave_unchanged(monkeypatch):
    # mapping every other working row plus the w-row would be m calls per
    # pivot; the full tableau made 51 calls here, one per changed row of 7
    calls = _counting_pivot_rows(monkeypatch)
    nx.rational_feasibility(SHIFT3)
    m = len(SHIFT3.eq)
    assert len(calls) < m * SHIFT3_PIVOTS


# Each system takes one kind of working-basis pivot (traced when they
# were chosen); its vertex must be the full tableau's, pinned here too.
KEY_PIVOTS = {
    # the first key swap hits a block with three working members, whose
    # rows all go into the old key's row
    "three members": (
        [P(2, 7, -9), P(-2, -8, -4, -6), P(6, -2, 3), P(9), P(-9, -3)], 3,
        ["1688/5495", "19689/60445", "0", "22188/60445", "115343/120890", "0",
         "5547/120890", "0", "103702/60445", "296/785", "0", "72111/60445",
         "0", "1", "0", "0", "1", "0", "0", "0"]),
    # a key with no working member: the entering variable replaces it,
    # the second time an a_ij key whose column comes back into the rows
    "entering replaces key": (
        [P(-1), P(0, 2), P(1)], 1, ["1", "2", "1", "0", "1", "0"]),
    # a key replaced by a member of the same gain (two a_ij)
    "member, same gain": ([P(-3), P(1)], 0, ["1", "3"]),
    # a key replaced by a member of the opposite gain (a surplus s_i)
    "member, opposite gain": (
        [P(3, -3, -2), P(1), P(-3, 1)], 1, ["1", "0", "0", "8", "1", "2"]),
    # a key and a working row tie in the ratio test, and the lesser id
    # leaves
    "key ties a row": (
        [P(1, 1), P(-1, -3), P(-2)], 1, ["0", "3", "0", "1", "0", "1"]),
}


@pytest.mark.parametrize("case", sorted(KEY_PIVOTS))
def test_key_pivots_match_the_full_tableau(case):
    hs, d, vertex = KEY_PIVOTS[case]
    sys_ = nx.build_feasibility(hs, d)
    got = nx.rational_feasibility(sys_)
    assert got == rational_feasibility_reference(sys_)
    assert got == [Fraction(v) for v in vertex]


def test_unbounded_phase1_raises(monkeypatch):
    # phase 1 is bounded below by 0, so only broken arithmetic leaves an
    # entering column with no positive ratio: here every mapped row comes
    # out negated, and the check reports it instead of a point
    real = nx._pivot_row
    monkeypatch.setattr(nx, "_pivot_row",
                        lambda *args: [-v for v in real(*args)])
    with pytest.raises(PostconditionFailed, match="unbounded"):
        nx.rational_feasibility(nx.build_feasibility(TRIPLE, 0))


def test_working_basis_matches_reference_sweep():
    # more blocks than the hypothesis test (up to 8 polynomials), so more
    # keys to swap; the Fraction reference sets the size of the rest
    rng = random.Random(2024)
    feasible = 0
    for _ in range(500):
        hs = [P(*[rng.randint(-4, 4) for _ in range(rng.randint(1, 3))])
              for _ in range(rng.randint(2, 8))]
        d = rng.randint(0, 2)
        sys_ = nx.build_feasibility(hs, d)
        if sys_ is None:
            assert rational_feasibility_reference(build_feasibility_reference(hs, d)) is None
            continue
        got = nx.rational_feasibility(sys_)
        assert got == rational_feasibility_reference(sys_)
        feasible += got is not None
    assert 150 < feasible < 350


def test_pivot_row_division_is_exact():
    # 2 * [3, 4] - 1 * [2, 2] = [4, 6] over 2
    assert nx._pivot_row([3, 4], [2, 2], 1, 2, 2) == [2, 3]
    with pytest.raises(PostconditionFailed):
        nx._pivot_row([3, 4], [2, 2], 1, 2, 4)


_BROKEN_PIVOT = """
import sys
from posring import nxsolve as nx
from posring.errors import PostconditionFailed
try:
    nx._pivot_row([1, 0], [0, 0], 0, 1, 2)
except PostconditionFailed as exc:
    print(sys.flags.optimize, exc)
"""


def test_pivot_remainder_check_survives_optimize():
    # a pivot denominator that does not divide must be caught under -O too
    proc = subprocess.run([sys.executable, "-O", "-c", _BROKEN_PIVOT],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "1 fraction-free pivot left a remainder"


# ---------------------------------------------------------------- witness


def test_find_witness_examples():
    assert nx.find_witness(TRIPLE).fs == (P(1), P(1), P(1))
    assert nx.find_witness(REMARK_PAIR, 6) is None
    assert nx.find_witness(SHIFT_PAIR).fs == (P(2, 1), P(1, 1))


def test_find_witness_deterministic():
    a = nx.find_witness(SHIFT_PAIR)
    b = nx.find_witness(SHIFT_PAIR)
    assert a.fs == b.fs


def test_degree_floor_examples():
    # 1 and -(X-1)^2: the top has only -X^2, so d >= 2 - 0
    assert nx._degree_floor(REMARK_PAIR) == 2
    # X-1, 1, -X: both ends mixed (X and -X on top, -1 and 1 at order 0)
    assert nx._degree_floor(TRIPLE) == 0
    # X^3 + 1 and -X: the bottom has +1 alone at order 0, so d >= 1 - 0;
    # the top has X^3 alone, so d >= 3 - 1
    assert nx._degree_floor([P(1, 0, 0, 1), P(0, -1)]) == 2
    # every leading coefficient positive, or every lowest one
    assert nx._degree_floor([P(-1, 1), P(2, 3)]) is None
    assert nx._degree_floor([P(1, -1), P(2, 3)]) is None
    # zero entries do not count; all zero leaves no bound
    assert nx._degree_floor([IntPoly.zero()] + REMARK_PAIR) == 2
    assert nx._degree_floor([IntPoly.zero()]) == 0


def test_one_sided_ends_return_none_without_an_lp(monkeypatch):
    lp = mock.Mock(side_effect=nx.rational_feasibility)
    monkeypatch.setattr(nx, "rational_feasibility", lp)
    assert nx.find_witness([P(-1, 1), P(2, 3)]) is None
    assert nx.find_witness([P(1), IntPoly.zero()]) is None
    assert lp.call_count == 0
    # the floor 2 skips degrees 0 and 1, and forcing rows settle degree 2
    assert nx.find_witness(REMARK_PAIR, 3) is None
    assert lp.call_count == 1


def test_degree_floor_matches_linear_escalation():
    rng = random.Random(31)
    for _ in range(150):
        hs = _random_instance(rng, nmax=4, degmax=3, cmax=4)
        assert nx.find_witness(hs, 5) == find_witness_linear(hs, 5)


def test_forcing_rows_settle_every_degree_below_the_floor():
    # _degree_floor is the forcing rule on the two end rows, so the full
    # rule settles every degree below its floor, and every degree when
    # the floor is None, without an LP
    rng = random.Random(31)
    below = unbounded = 0
    for _ in range(3000):
        hs = _random_instance(rng, nmax=4, degmax=3, cmax=4)
        floor = nx._degree_floor(hs)
        for d in range(5 if floor is None else floor):
            assert nx.build_feasibility(hs, d) is None, (hs, d)
            below += floor is not None
            unbounded += floor is None
    assert below > 1000 and unbounded > 2000


def test_presolve_keeps_the_feasible_set():
    # forcing rows drop only a_ij that every feasible point holds at 0:
    # the unreduced system is feasible exactly when the presolved one is,
    # and a presolved point, in the full layout, solves the full rows
    rng = random.Random(1995)
    settled = feasible = 0
    for _ in range(400):
        hs = [P(*[rng.randint(-3, 3) for _ in range(rng.randint(1, 3))])
              for _ in range(rng.randint(2, 4))]
        d = rng.randint(0, 2)
        full = build_feasibility_reference(hs, d)
        sys_ = nx.build_feasibility(hs, d)
        x = None if sys_ is None else nx.rational_feasibility(sys_)
        assert (x is None) == (rational_feasibility_reference(full) is None)
        settled += sys_ is None
        if x is not None:
            feasible += 1
            assert len(x) == len(hs) * (d + 1) and min(x) >= 0
            assert all(sum(c * v for c, v in zip(row, x)) == 0 for row in full.eq)
            assert all(sum(x[i * (d + 1):(i + 1) * (d + 1)]) >= 1
                       for i in range(len(hs)))
    assert settled > 200 and feasible > 80


def test_witness_degree_is_the_least_unreduced_feasible_degree():
    rng = random.Random(71)
    found = 0
    for _ in range(120):
        hs = _random_instance(rng, nmax=4, degmax=3, cmax=4)
        least = next((d for d in range(5) if rational_feasibility_reference(
            build_feasibility_reference(hs, d)) is not None), None)
        wt = nx.find_witness(hs, 4)
        assert (wt and max(f.degree for f in wt.fs)) == least, hs
        found += wt is not None
    assert found > 30


def test_verify_witness_examples():
    assert nx.verify_witness(TRIPLE, [P(1), P(1), P(1)])
    assert not nx.verify_witness([P(1), P(-1)], [P(1), IntPoly.zero()])
    assert not nx.verify_witness([P(1), P(-1)], [P(1), P(2)])
    assert not nx.verify_witness([P(1), P(-1)], [P(1), P(-1)])  # negative coeff
    with pytest.raises(LengthMismatch):
        nx.verify_witness([P(1)], [P(1), P(1)])


# ----------------------------------------------------------------- oracle


def test_oracle_examples():
    assert brute_force_oracle(TRIPLE, 0, 1).fs == (P(1), P(1), P(1))
    assert brute_force_oracle(REMARK_PAIR, 2, 2) is None
    assert brute_force_oracle([P(1), P(-1)], 0, 1).fs == (P(1), P(1))


def test_oracle_lexicographic_first():
    # digit vectors order constant coefficient first, so X precedes 1
    w = brute_force_oracle([P(1), P(-1)], 1, 1)
    assert w.fs == (P(0, 1), P(0, 1))


def test_oracle_zero_slots_take_monomial():
    w = brute_force_oracle([IntPoly.zero(), P(1), P(-1)], 2, 1)
    assert w.fs[0] == P(0, 0, 1)
    w = brute_force_oracle([IntPoly.zero()], 3, 2)
    assert w.fs == (P(0, 0, 0, 1),)


def test_oracle_space_cap():
    with pytest.raises(SearchSpaceTooLarge):
        brute_force_oracle([P(1)] * 4, 3, 4)
    with pytest.raises(AllZero):
        brute_force_oracle([], 1, 1)


def test_oracle_zero_coeff_bound():
    assert brute_force_oracle([P(1), P(-1)], 2, 0) is None


def test_oracle_single_nonzero_absent():
    assert brute_force_oracle([P(1, 2)], 2, 2) is None


def test_oracle_strategies_agree():
    rng = random.Random(17)
    vecs = _digit_vectors(1, 2)
    for _ in range(120):
        n = rng.randint(2, 4)
        hs = []
        for _ in range(n):
            while True:
                cs = [rng.randint(-3, 3) for _ in range(rng.randint(1, 3))]
                if any(cs):
                    hs.append(IntPoly(cs))
                    break
        active = list(range(n))
        a = _oracle_meet(hs, active, vecs, 1, 2)
        b = _oracle_dfs(hs, active, vecs, 1, 2)
        na = None if a is None else [f.coeffs for f in a]
        nb = None if b is None else [f.coeffs for f in b]
        assert na == nb


# ------------------------------------------------------------- properties


def _random_instance(rng, nmax=4, degmax=3, cmax=3):
    hs = []
    for _ in range(rng.randint(1, nmax)):
        hs.append(
            IntPoly([rng.randint(-cmax, cmax) for _ in range(rng.randint(1, degmax + 1))])
        )
    return hs


def test_oracle_agrees_with_decide_sample():
    rng = random.Random(91)
    for _ in range(60):
        hs = _random_instance(rng)
        d = nx.decide(hs)
        w = brute_force_oracle(hs, 3, 3)
        if w is not None:
            assert d.status == nx.SOLVABLE
            assert nx.verify_witness(hs, list(w.fs))
        if d.status == nx.UNSOLVABLE:
            assert w is None
            assert nx.verify_certificate(d.certificate)


def test_scaling_invariance():
    rng = random.Random(23)
    for _ in range(40):
        hs = _random_instance(rng)
        if all(h.is_zero for h in hs):
            continue
        base = nx.decide(hs).status
        scaled = [IntPoly([3 * c for c in h.coeffs]) for h in hs]
        assert nx.decide(scaled).status == base
        shifted = [h * P(0, 1) for h in hs]
        assert nx.decide(shifted).status == base


def test_found_witnesses_always_verify():
    rng = random.Random(77)
    for _ in range(40):
        hs = _random_instance(rng, nmax=3)
        if nx.decide(hs).status == nx.SOLVABLE:
            wt = nx.find_witness(hs, 8)
            if wt is not None:
                assert nx.verify_witness(hs, list(wt.fs))
