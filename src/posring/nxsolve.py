"""Solvability of f1*h1 + ... + fn*hn = 0 over N[X] without zero.

Decision runs in three normalization-guarded steps: divide out the common
polynomial gcd, repeatedly strip X from the entries vanishing at 0 while
watching for a uniform sign at 0, then ask whether any t >= 0 gives every
reduced h_i the same weak sign.  A uniform sign certifies unsolvability;
otherwise the instance is solvable and a witness tuple can be synthesized
by exact rational linear programming over the convolution system, with
nonzeroness encoded as coefficient sums >= 1 (sound by homogeneity).

Witnesses are searched against the original, unnormalized h_i, so a
returned tuple verifies by direct substitution.  A brute-force enumerator
over bounded coefficient tuples provides an independent oracle for tests.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as _iproduct
from math import gcd as _igcd, lcm as _ilcm

from . import kernels as _k
from .errors import (
    AllZero,
    LengthMismatch,
    PostconditionFailed,
    SearchSpaceTooLarge,
    ZeroPolynomial,
)
from .polyring import IntPoly, eval_at_rational, exact_div, gcd_many
from .realdec import RationalPoint, SignVector, sign_at_root, uniform_sign_exists

DEGREE_CAP = 40

SOLVABLE = "Solvable"
UNSOLVABLE = "Unsolvable"
UNIFORM_SIGN_AT_ZERO = "UniformSignAtZero"
UNIFORM_SIGN_WITNESS = "UniformSignWitness"
WITNESS_FOUND = "Found"
WITNESS_NOT_FOUND = "NotFoundWithinCap"

_ORACLE_SPACE_CAP = 2 * 10**7
_ORACLE_TABLE_CAP = 10**6


@dataclass(frozen=True)
class NormalizedInstance:
    """Reduced h_i with gcd 1 and strictly mixed signs at 0."""

    hs: tuple
    gcd_removed: IntPoly
    x_divisions: int


@dataclass(frozen=True)
class EarlyUnsolvable:
    """Normalization ended with every h_i(0) strictly on one side."""

    sign_vector: SignVector
    hs: tuple
    gcd_removed: IntPoly
    x_divisions: int


@dataclass(frozen=True)
class SignCertificate:
    """Uniform SignVector plus the normalization trace it refers to."""

    sign_vector: SignVector
    hs: tuple
    gcd_removed: IntPoly
    x_divisions: int


@dataclass(frozen=True)
class WitnessTuple:
    """Nonzero nonnegative f_i with sum f_i h_i = 0 against the original h_i."""

    fs: tuple


@dataclass(frozen=True)
class FeasibilitySystem:
    """Convolution equalities and nonzeroness rows over unknowns a_ij >= 0.

    Unknown a_ij (f_i's coefficient of X^j) sits at column i*(degree+1)+j.
    Every eq row has right-hand side 0; every ge row has right-hand side 1.
    """

    n: int
    degree: int
    eq: tuple
    ge: tuple


@dataclass(frozen=True)
class Decision:
    status: str
    certificate: object = None
    unsolvable_reason: str = None
    witness_status: str = None


def _sgn(v):
    return (v > 0) - (v < 0)


def normalize(hs):
    """Algorithm steps before the real-root scan: gcd out, strip X.

    Returns a NormalizedInstance with mixed strict signs at 0, or
    EarlyUnsolvable when all signs at 0 land strictly on one side.
    Zero entries are the caller's problem (ZeroPolynomial); all-zero
    or empty input raises AllZero.
    """
    if not hs:
        raise AllZero("nothing to normalize")
    for h in hs:
        if h.is_zero:
            raise ZeroPolynomial("zero entry reaches normalize")
    g = gcd_many(hs)
    hs = tuple(exact_div(h, g) for h in hs)
    budget = sum(h.degree for h in hs) + 1
    xdiv = 0
    while True:
        signs = tuple(_sgn(h.constant) for h in hs)
        if all(s > 0 for s in signs) or all(s < 0 for s in signs):
            sv = SignVector(RationalPoint(Fraction(0)), signs)
            return EarlyUnsolvable(sv, hs, g, xdiv)
        if any(s > 0 for s in signs) and any(s < 0 for s in signs):
            return NormalizedInstance(hs, g, xdiv)
        # same weak sign with zeros present: strip X where h(0) = 0
        hs = tuple(
            IntPoly._raw(list(h.coeffs)[1:]) if h.constant == 0 else h for h in hs
        )
        xdiv += 1
        budget -= 1
        assert budget >= 0, "X-division loop exceeded degree budget"


def decide(hs, want_witness=False, degree_cap=DEGREE_CAP):
    """Solvable or Unsolvable, with a certificate either way.

    Unsolvable decisions carry a SignCertificate.  Solvable ones carry a
    verified WitnessTuple when want_witness is set and the LP search
    finds one with every deg f_i <= degree_cap; witness_status reports
    Found or NotFoundWithinCap (the decision itself is already final).
    """
    if not hs:
        raise AllZero("empty instance")
    status, cert, reason = _status(list(hs))
    wstatus = None
    if status == SOLVABLE and want_witness:
        wt = find_witness(hs, degree_cap)
        if wt is not None:
            cert = wt
            wstatus = WITNESS_FOUND
        else:
            wstatus = WITNESS_NOT_FOUND
    return Decision(status, cert, reason, wstatus)


def _status(hs):
    nonzero = [h for h in hs if not h.is_zero]
    if not nonzero:
        return SOLVABLE, None, None
    if len(nonzero) < len(hs):
        # zero rows absorb any nonzero f, so status rests on the rest
        return _status(nonzero)
    if len(hs) == 1:
        h = hs[0]
        t = 0
        while eval_at_rational(h, Fraction(t)) == 0:
            t += 1
        sv = SignVector(
            RationalPoint(Fraction(t)), (_sgn(eval_at_rational(h, Fraction(t))),)
        )
        cert = SignCertificate(sv, (h,), IntPoly.one(), 0)
        return UNSOLVABLE, cert, UNIFORM_SIGN_WITNESS
    norm = normalize(hs)
    if isinstance(norm, EarlyUnsolvable):
        cert = SignCertificate(norm.sign_vector, norm.hs, norm.gcd_removed, norm.x_divisions)
        return UNSOLVABLE, cert, UNIFORM_SIGN_AT_ZERO
    sv = uniform_sign_exists(list(norm.hs))
    if sv is not None:
        cert = SignCertificate(sv, norm.hs, norm.gcd_removed, norm.x_divisions)
        return UNSOLVABLE, cert, UNIFORM_SIGN_WITNESS
    return SOLVABLE, None, None


def verify_certificate(cert):
    """Re-check a SignCertificate by exact evaluation at its sample."""
    sv = cert.sign_vector
    if not (sv.uniform_nonneg or sv.uniform_nonpos):
        return False
    if len(sv.signs) != len(cert.hs):
        return False
    if isinstance(sv.sample, RationalPoint):
        t = sv.sample.value
        if t < 0:
            return False
        return all(
            _sgn(eval_at_rational(h, t)) == s for h, s in zip(cert.hs, sv.signs)
        )
    root = sv.sample.interval
    return all(sign_at_root(h, root) == s for h, s in zip(cert.hs, sv.signs))


def build_feasibility(hs, d):
    """Transcribe sum f_i h_i = 0 with deg f_i <= d into rows over a_ij.

    One equality row per output degree k = 0 .. d + max deg h_i, one
    coefficient-sum >= 1 row per i.  Feasible over Q exactly when the
    equation has a solution with all deg f_i <= d.
    """
    n = len(hs)
    bs = [list(h.coeffs) for h in hs]
    width = n * (d + 1)
    top = max((len(b) - 1 for b in bs if b), default=0)
    eq = []
    if any(bs):
        for k in range(d + top + 1):
            row = [0] * width
            for i, b in enumerate(bs):
                for j in range(d + 1):
                    if 0 <= k - j < len(b):
                        row[i * (d + 1) + j] = b[k - j]
            eq.append(tuple(row))
    ge = []
    for i in range(n):
        row = [0] * width
        for j in range(d + 1):
            row[i * (d + 1) + j] = 1
        ge.append(tuple(row))
    return FeasibilitySystem(n, d, tuple(eq), tuple(ge))


def rational_feasibility(sys):
    """Exact feasible point of the system, or None.

    Phase-1 simplex over Fractions: surplus variables on the >= rows,
    artificials everywhere, Bland's rule (smallest eligible index in,
    smallest basic index out on ratio ties), so no cycling.  Returns the
    structural variable values only.
    """
    nv = sys.n * (sys.degree + 1)
    rows = [[Fraction(c) for c in r] + [Fraction(0)] * len(sys.ge) + [Fraction(0)]
            for r in sys.eq]
    for s, r in enumerate(sys.ge):
        row = [Fraction(c) for c in r] + [Fraction(0)] * len(sys.ge) + [Fraction(1)]
        row[nv + s] = Fraction(-1)
        rows.append(row)
    m = len(rows)
    ncols = nv + len(sys.ge)
    # w-row for minimizing the artificial sum: w + sum_j W[j] x_j = Wrhs
    W = [sum(r[j] for r in rows) for j in range(ncols + 1)]
    basis = [ncols + i for i in range(m)]  # virtual artificial ids
    while True:
        enter = next((j for j in range(ncols) if W[j] > 0), None)
        if enter is None:
            break
        leave, best = None, None
        for r in range(m):
            a = rows[r][enter]
            if a > 0:
                ratio = rows[r][ncols] / a
                if best is None or ratio < best or (
                    ratio == best and basis[r] < basis[leave]
                ):
                    leave, best = r, ratio
        assert leave is not None, "phase-1 objective is bounded"
        piv = rows[leave][enter]
        rows[leave] = [c / piv for c in rows[leave]]
        for r in range(m):
            if r != leave and rows[r][enter]:
                f = rows[r][enter]
                rows[r] = [c - f * p for c, p in zip(rows[r], rows[leave])]
        f = W[enter]
        W = [c - f * p for c, p in zip(W, rows[leave])]
        basis[leave] = enter
    if W[ncols] != 0:
        return None
    x = [Fraction(0)] * nv
    for r, bv in enumerate(basis):
        if bv < nv:
            x[bv] = rows[r][ncols]
    return x


def find_witness(hs, degree_cap=DEGREE_CAP):
    """Smallest-degree witness via LP escalation d = 0, 1, ..., degree_cap.

    The first feasible system yields a rational point; denominators are
    cleared, the common integer content divided out, and the result
    verified by substitution before being returned.
    """
    for d in range(degree_cap + 1):
        x = rational_feasibility(build_feasibility(hs, d))
        if x is None:
            continue
        den = 1
        for v in x:
            den = _ilcm(den, v.denominator)
        ints = [int(v * den) for v in x]
        content = 0
        for v in ints:
            content = _igcd(content, v)
        ints = [v // content for v in ints]
        fs = tuple(
            IntPoly(ints[i * (d + 1):(i + 1) * (d + 1)]) for i in range(len(hs))
        )
        wt = WitnessTuple(fs)
        if not verify_witness(hs, list(fs)):
            raise PostconditionFailed("LP point fails substitution")
        return wt
    return None


def verify_witness(hs, fs):
    """True iff all f_i nonzero with nonnegative coefficients and sum f_i h_i = 0."""
    if len(hs) != len(fs):
        raise LengthMismatch("%d polynomials, %d witnesses" % (len(hs), len(fs)))
    total = []
    for h, f in zip(hs, fs):
        if f.is_zero or any(c < 0 for c in f.coeffs):
            return False
        total = _k.add(total, _k.mul(list(f.coeffs), list(h.coeffs)))
    return not total


def _digit_vectors(D, c):
    # all nonzero coefficient tuples (c_0 .. c_D), lexicographic, c_0 slowest
    out = [v for v in _iproduct(range(c + 1), repeat=D + 1) if any(v)]
    return out


def brute_force_oracle(hs, deg_bound, coeff_bound):
    """First witness in lexicographic tuple order under hard bounds, or None.

    Enumerates every tuple of nonzero f_i with deg f_i <= deg_bound and
    coefficients in {0..coeff_bound}; tuples compare slot by slot, each
    slot by its coefficient vector (constant coefficient most
    significant).  Zero h_i slots take X^deg_bound, the order's minimal
    nonzero polynomial.  Raises SearchSpaceTooLarge past the cap.
    """
    if not hs:
        raise AllZero("empty instance")
    n, D, c = len(hs), deg_bound, coeff_bound
    per_slot = (c + 1) ** (D + 1) - 1
    if per_slot ** max(n - 1, 1) > _ORACLE_SPACE_CAP:
        raise SearchSpaceTooLarge("%d candidate tuples" % per_slot ** max(n - 1, 1))
    if c < 1:
        return None
    filler = IntPoly([0] * D + [1])
    active = [i for i, h in enumerate(hs) if not h.is_zero]
    if not active:
        return WitnessTuple(tuple(filler for _ in hs))
    vecs = _digit_vectors(D, c)
    found = (
        _oracle_meet(hs, active, vecs, D, c)
        if per_slot ** (len(active) - (len(active) // 2)) <= _ORACLE_TABLE_CAP
        else _oracle_dfs(hs, active, vecs, D, c)
    )
    if found is None:
        return None
    fs = [filler] * n
    for i, f in zip(active, found):
        fs[i] = f
    wt = WitnessTuple(tuple(fs))
    if not verify_witness(hs, list(wt.fs)):
        raise PostconditionFailed("oracle tuple fails substitution")
    return wt


def _kron_point(hs, D, c):
    # evaluation point exceeding twice any coefficient a bounded sum can
    # reach, so equality of packed values means equality of polynomials
    top = sum(c * (D + 1) * max(abs(x) for x in h.coeffs) for h in hs if not h.is_zero)
    return 2 * top + 3


def _slot_table(h, vecs, t0):
    # packed value of f*h at t0 for every digit vector f, in vec order
    hv = 0
    for x in reversed(list(h.coeffs)):
        hv = hv * t0 + x
    pw = [t0**j for j in range(len(vecs[0]))]
    out = []
    for v in vecs:
        fv = 0
        for j, d in enumerate(v):
            if d:
                fv += d * pw[j]
        out.append(fv * hv)
    return out


def _oracle_meet(hs, active, vecs, D, c):
    # meet in the middle: hash the right half, scan the left half in
    # lexicographic order so the first hit is the lexicographic minimum
    t0 = _kron_point(hs, D, c)
    split = len(active) // 2
    left, right = active[:split], active[split:]
    tables = {i: _slot_table(hs[i], vecs, t0) for i in active}
    best = {}
    for combo in _iproduct(*(range(len(vecs)) for _ in right)):
        key = sum(tables[i][k] for i, k in zip(right, combo))
        if key not in best:
            best[key] = combo
    if not left:
        combo = best.get(0)
        if combo is None:
            return None
        return [IntPoly(vecs[k]) for k in combo]
    for combo in _iproduct(*(range(len(vecs)) for _ in left)):
        key = -sum(tables[i][k] for i, k in zip(left, combo))
        hit = best.get(key)
        if hit is not None:
            return [IntPoly(vecs[k]) for k in combo + hit]
    return None


def _oracle_dfs(hs, active, vecs, D, c):
    # memory-light path: enumerate all slots but the last, complete the
    # last by exact division, pruned by value ranges at three points
    t0 = _kron_point(hs, D, c)
    *free, last = active
    tables = {i: _slot_table(hs[i], vecs, t0) for i in free}
    hlast = 0
    for x in reversed(list(hs[last].coeffs)):
        hlast = hlast * t0 + x
    pts = (Fraction(1), Fraction(2), Fraction(1, 2))
    fmin = [min(t**j for j in range(D + 1)) for t in pts]
    fmax = [c * sum(t**j for j in range(D + 1)) for t in pts]
    hval = {i: [eval_at_rational(hs[i], t) for t in pts] for i in active}
    fvals = {i: [[_f_at(v, t) for t in pts] for v in vecs] for i in free}

    def spread(i):
        lo, hi = [], []
        for p in range(len(pts)):
            a = hval[i][p] * fmin[p]
            b = hval[i][p] * fmax[p]
            lo.append(min(a, b))
            hi.append(max(a, b))
        return lo, hi

    # rest_lo[k], rest_hi[k] bound the reachable contribution of slots
    # free[k:] plus the completed last slot
    rest_lo = [list(spread(last)[0])]
    rest_hi = [list(spread(last)[1])]
    for i in reversed(free):
        lo, hi = spread(i)
        rest_lo.insert(0, [a + b for a, b in zip(lo, rest_lo[0])])
        rest_hi.insert(0, [a + b for a, b in zip(hi, rest_hi[0])])

    def rec(pos, packed, samples):
        if pos == len(free):
            if packed == 0:
                return None  # forces f_last = 0
            q, r = divmod(-packed, hlast)
            if r or q <= 0:
                return None
            if _unpack(q, t0, D, c) is None:
                return None
            return []
        for k, v in enumerate(vecs):
            npacked = packed + tables[free[pos]][k]
            nsamples = [
                s + fvals[free[pos]][k][p] * hval[free[pos]][p]
                for p, s in enumerate(samples)
            ]
            ok = all(
                ns + rl <= 0 <= ns + rh
                for ns, rl, rh in zip(nsamples, rest_lo[pos + 1], rest_hi[pos + 1])
            )
            if not ok:
                continue
            tail = rec(pos + 1, npacked, nsamples)
            if tail is not None:
                return [IntPoly(v)] + tail
        return None

    got = rec(0, 0, [Fraction(0)] * len(pts))
    if got is None:
        return None
    # reconstruct the completed last slot
    total = []
    for f, i in zip(got, free):
        total = _k.add(total, _k.mul(list(f.coeffs), list(hs[i].coeffs)))
    q = _k.exact_div(_k.neg(total), list(hs[last].coeffs))
    return got + [IntPoly._raw(q)]


def _f_at(vec, t):
    out = Fraction(0)
    for d in reversed(vec):
        out = out * t + d
    return out


def _unpack(value, t0, D, c):
    # digits of value in base t0, valid iff all land in {0..c} with deg <= D
    cs = []
    while value:
        value, r = divmod(value, t0)
        if r > c:
            return None
        cs.append(r)
        if len(cs) > D + 1:
            return None
    if not cs:
        return None
    return cs
