"""Solvability of f1*h1 + ... + fn*hn = 0 over N[X] without zero.

Decision runs in three normalization-guarded steps: divide out the common
polynomial gcd, strip X from the entries vanishing at 0 until the signs
at 0 are mixed or all strict, then ask whether any t >= 0 gives every
reduced h_i the same weak sign.  A uniform sign certifies unsolvability;
otherwise the instance is solvable.  Producing a solution is a separate
job: find_witness synthesizes a witness tuple by exact rational linear
programming over the convolution system, with nonzeroness encoded as
coefficient sums >= 1 (sound by homogeneity).

Witnesses are searched against the original, unnormalized h_i, so a
returned tuple verifies by direct substitution.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from . import kernels as _k
from .errors import AllZero, LengthMismatch, PostconditionFailed, ZeroPolynomial
from .polyring import IntPoly, eval_at_rational, exact_div, gcd_many, order_at_zero
from .realdec import RationalPoint, SignVector, signs_at_root, uniform_sign_exists

DEGREE_CAP = 40

SOLVABLE = "Solvable"
UNSOLVABLE = "Unsolvable"
UNIFORM_SIGN_AT_ZERO = "UniformSignAtZero"
UNIFORM_SIGN_WITNESS = "UniformSignWitness"
WITNESS_FOUND = "Found"
WITNESS_NOT_FOUND = "NotFoundWithinCap"


@dataclass(frozen=True)
class NormalizedInstance:
    """Reduced h_i with gcd 1 and strictly mixed signs at 0."""

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
class EarlyUnsolvable(SignCertificate):
    """Normalization ended with every h_i(0) strictly on one side.

    Its sample is t = 0, so it is itself the Unsolvable certificate.
    """


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
    """The verdict, and when it is Unsolvable the SignCertificate behind it.

    A Solvable decision carries no certificate: find_witness searches for
    a witness tuple separately.
    """

    status: str
    certificate: SignCertificate = None

    @property
    def unsolvable_reason(self):
        """UniformSignAtZero, UniformSignWitness, or None when Solvable."""
        if self.certificate is None:
            return None
        if isinstance(self.certificate, EarlyUnsolvable):
            return UNIFORM_SIGN_AT_ZERO
        return UNIFORM_SIGN_WITNESS


def _sgn(v):
    return (v > 0) - (v < 0)


def normalize(hs):
    """Algorithm steps before the real-root scan: gcd out, strip X.

    Each entry loses X^t, or its whole X-order where that is less, for
    the least t leaving mixed strict signs at 0: a NormalizedInstance
    with x_divisions t.  With no such t, EarlyUnsolvable: all signs at
    0 strictly on one side.  Zero entries are the caller's problem
    (ZeroPolynomial); all-zero or empty input raises AllZero.
    """
    if not hs:
        raise AllZero("nothing to normalize")
    for h in hs:
        if h.is_zero:
            raise ZeroPolynomial("zero entry reaches normalize")
    g = gcd_many(hs)
    hs = tuple(exact_div(h, g) for h in hs)
    # stripping X^t shows at 0 the lowest-coefficient sign of each entry
    # of order <= t, so t is the least order carrying the sign opposite a
    # lowest-order entry's, or the largest order when all share one sign
    orders = [order_at_zero(h) for h in hs]
    lows = [_sgn(h.coeffs[k]) for h, k in zip(hs, orders)]
    first = lows[orders.index(min(orders))]
    flips = [k for k, s in zip(orders, lows) if s != first]
    t = min(flips, default=max(orders))
    hs = tuple(IntPoly._raw(h.coeffs[min(k, t):]) if k and t else h
               for h, k in zip(hs, orders))
    if flips:
        return NormalizedInstance(hs, g, t)
    sv = SignVector(RationalPoint(Fraction(0)), (first,) * len(hs))
    return EarlyUnsolvable(sv, hs, g, t)


def decide(hs):
    """Solvable or Unsolvable, with a SignCertificate when Unsolvable.

    Zero entries absorb any nonzero f, so the verdict rests on the rest:
    Solvable when none is left, else Unsolvable exactly when normalize
    ends early or the reduced h_i share a weak sign at some t > 0.
    """
    if not hs:
        raise AllZero("empty instance")
    # a single entry needs no branch of its own: the gcd leaves a
    # nonzero constant, whose strict sign at 0 ends normalize early
    nonzero = [h for h in hs if not h.is_zero]
    if not nonzero:
        return Decision(SOLVABLE)
    norm = normalize(nonzero)
    if isinstance(norm, EarlyUnsolvable):
        return Decision(UNSOLVABLE, norm)
    sv = uniform_sign_exists(list(norm.hs))
    if sv is not None:
        cert = SignCertificate(sv, norm.hs, norm.gcd_removed, norm.x_divisions)
        return Decision(UNSOLVABLE, cert)
    return Decision(SOLVABLE)


def verify_certificate(cert):
    """Re-check a SignCertificate by exact evaluation at its sample.

    The sample must be >= 0 and the signs weakly uniform, one nonzero (at
    t > 0 each nonzero f in N[X] is positive), all nonzero at t = 0.
    """
    sv = cert.sign_vector
    if not sv.is_uniform or not any(sv.signs):
        return False
    if len(sv.signs) != len(cert.hs):
        return False
    if isinstance(sv.sample, RationalPoint):
        t = sv.sample.value
        if t < 0 or (t == 0 and 0 in sv.signs):
            return False
        return all(
            _sgn(eval_at_rational(h, t)) == s for h, s in zip(cert.hs, sv.signs)
        )
    # an algebraic sample is never exact: decide gives exact roots as
    # RationalPoints, which the t >= 0 rules above check
    root = sv.sample.interval
    if root.lo < 0 or root.exact is not None:
        return False
    return signs_at_root(cert.hs, root) == tuple(sv.signs)


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


def _pivot_row(row, prow, f, piv, den):
    """(piv * row - f * prow) / den entrywise, checking that den divides.

    This is one row of a fraction-free pivot; a remainder means the
    integer tableau no longer holds den times the true tableau.
    """
    out = []
    for c, p in zip(row, prow):
        v = piv * c - f * p
        if v % den:
            raise PostconditionFailed("fraction-free pivot left a remainder")
        out.append(v // den)
    return out


def rational_feasibility(sys):
    """Exact feasible point of the system, or None.

    Phase-1 simplex: surplus variables on the >= rows, artificials
    everywhere, minimizing the artificial sum.  The tableau holds
    integers.  After a pivot, D, the pivot entry just used (1 before
    the first), is the determinant of the current basis (Edmonds,
    Bareiss 1968), and D > 0 throughout, because the ratio test only
    pivots on a > 0 and the new D is D * a.  Row r is stored as
    scale[r] times its true row, scale[r] being the D under which it
    was last changed (1 at the start); the w-row is always D times its
    true row.  A pivot leaves every row whose entry in the entering
    column is 0 alone, as its true row does not change.  It brings the
    leaving row up to D first (row * D / scale[leave]), then maps each
    other row with entry f != 0 to (piv * row - f * pivot row) /
    scale[r] and sets scale[r] = piv, the new D; the w-row is mapped
    the same way, dividing by D.  Each result is a determinant times a
    true row, a minor of the integer input, so the division is exact by
    Sylvester's identity; a remainder raises PostconditionFailed.  A
    positive row scale changes neither the sign test nor the ratio
    comparison, so the pivots are those of the tableau scaled by D
    throughout.  Bland's rule (smallest eligible index in, smallest
    basic index out on ratio ties, ratios compared by cross
    multiplication) rules out cycling.  Returns the structural variable
    values only, each basic one as Fraction(rhs, scale[r]).
    """
    nv = sys.n * (sys.degree + 1)
    ns = len(sys.ge)
    rows = [list(r) + [0] * ns + [0] for r in sys.eq]
    for s, r in enumerate(sys.ge):
        row = list(r) + [0] * ns + [1]
        row[nv + s] = -1
        rows.append(row)
    m = len(rows)
    ncols = nv + ns
    # w-row for minimizing the artificial sum: w + sum_j W[j] x_j = Wrhs
    W = [sum(r[j] for r in rows) for j in range(ncols + 1)]
    basis = [ncols + i for i in range(m)]  # virtual artificial ids
    scale = [1] * m
    den = 1
    while True:
        enter = next((j for j in range(ncols) if W[j] > 0), None)
        if enter is None:
            break
        leave = None
        for r in range(m):
            a = rows[r][enter]
            if a > 0:
                if leave is None:
                    leave = r
                    continue
                # rhs_r / a < rhs_l / a_l, both denominators positive
                lhs = rows[r][ncols] * rows[leave][enter]
                rhs = rows[leave][ncols] * a
                if lhs < rhs or (lhs == rhs and basis[r] < basis[leave]):
                    leave = r
        if leave is None:
            raise PostconditionFailed("phase-1 objective is unbounded")
        prow = rows[leave]
        if scale[leave] != den:
            prow = rows[leave] = _pivot_row(prow, prow, 0, den, scale[leave])
        piv = prow[enter]
        for r in range(m):
            f = rows[r][enter]
            if f and r != leave:
                rows[r] = _pivot_row(rows[r], prow, f, piv, scale[r])
                scale[r] = piv
        W = _pivot_row(W, prow, W[enter], piv, den)
        den = scale[leave] = piv
        basis[leave] = enter
    if W[ncols] != 0:
        return None
    x = [Fraction(0)] * nv
    for r, bv in enumerate(basis):
        if bv < nv:
            x[bv] = Fraction(rows[r][ncols], scale[r])
    return x


def find_witness(hs, degree_cap=DEGREE_CAP):
    """Smallest-degree witness via LP escalation d = 0, 1, ..., degree_cap.

    The first feasible system yields a rational point; denominators are
    cleared, the common integer content divided out, and the result
    verified by substitution before being returned.

    None means no witness within the cap, which includes every
    Unsolvable input: there every LP up to degree_cap is solved before
    None comes back, tenths of a second even on two or three small
    polynomials, where ``decide`` answers in under a millisecond.  Call
    ``decide`` first and search only after a Solvable verdict.
    """
    for d in range(degree_cap + 1):
        x = rational_feasibility(build_feasibility(hs, d))
        if x is None:
            continue
        den = lcm(*(v.denominator for v in x))
        # every entry is >= 0, so this divides out exactly the content
        ints = _k.primitive_signed([int(v * den) for v in x])
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
