"""Solvability of f1*h1 + ... + fn*hn = 0 over N[X] without zero.

Decision runs in three normalization-guarded steps: divide out the common
polynomial gcd, strip X from the entries vanishing at 0 until the signs
at 0 are mixed or all strict, then ask whether any t >= 0 gives every
reduced h_i the same weak sign.  A uniform sign certifies unsolvability;
otherwise the instance is solvable.  Producing a solution is a separate
job: find_witness synthesizes a witness tuple by exact rational linear
programming over the convolution system, with nonzeroness encoded as
coefficient sums >= 1 (sound by homogeneity).  Its degree escalation
starts at a bound read off the ends of the h_i, and its simplex pivots
on the convolution's equality rows alone: the coefficient-sum rows
cover disjoint blocks of unknowns and stay implicit, one basic key
variable per block (generalized upper bounding).

Witnesses are searched against the original, unnormalized h_i, so a
returned tuple verifies by direct substitution.
"""

from fractions import Fraction
from math import lcm

from . import kernels as _k
from ._record import Record, setfield
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


class NormalizedInstance(Record):
    """Reduced h_i with gcd 1 and strictly mixed signs at 0."""

    __slots__ = ("hs", "gcd_removed", "x_divisions")

    def __init__(self, hs, gcd_removed, x_divisions):
        setfield(self, "hs", hs)
        setfield(self, "gcd_removed", gcd_removed)
        setfield(self, "x_divisions", x_divisions)


class SignCertificate(Record):
    """Uniform SignVector plus the normalization trace it refers to."""

    __slots__ = ("sign_vector", "hs", "gcd_removed", "x_divisions")

    def __init__(self, sign_vector, hs, gcd_removed, x_divisions):
        setfield(self, "sign_vector", sign_vector)
        setfield(self, "hs", hs)
        setfield(self, "gcd_removed", gcd_removed)
        setfield(self, "x_divisions", x_divisions)


class EarlyUnsolvable(SignCertificate):
    """Normalization ended with every h_i(0) strictly on one side.

    Its sample is t = 0, so it is itself the Unsolvable certificate.
    """

    __slots__ = ()


class WitnessTuple(Record):
    """Nonzero nonnegative f_i with sum f_i h_i = 0 against the original h_i."""

    __slots__ = ("fs",)

    def __init__(self, fs):
        setfield(self, "fs", fs)


class FeasibilitySystem(Record):
    """Convolution equalities over unknowns a_ij >= 0, with n sum rows implied.

    Unknown a_ij (f_i's coefficient of X^j) sits at column i*(degree+1)+j.
    Every eq row has right-hand side 0.  The nonzeroness rows, sum_j
    a_ij >= 1 for each i, are not stored: their blocks follow from n and
    degree.
    """

    __slots__ = ("n", "degree", "eq")

    def __init__(self, n, degree, eq):
        setfield(self, "n", n)
        setfield(self, "degree", degree)
        setfield(self, "eq", eq)


class Decision(Record):
    """The verdict, and when it is Unsolvable the SignCertificate behind it.

    A Solvable decision carries no certificate: find_witness searches for
    a witness tuple separately.
    """

    __slots__ = ("status", "certificate")

    def __init__(self, status, certificate=None):
        setfield(self, "status", status)
        setfield(self, "certificate", certificate)

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

    One equality row per output degree k = 0 .. d + max deg h_i; the
    coefficient-sum >= 1 row per i is implied.  Feasible over Q exactly
    when the equation has a solution with all deg f_i <= d.
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
    return FeasibilitySystem(n, d, tuple(eq))


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

    Phase-1 simplex: surplus s_i on the coefficient-sum rows, an
    artificial on every row, minimizing the artificial sum, with Bland's
    rule (least eligible id in; least ratio out, ties to the least basic
    id).  Ids: a_ij at i*(degree+1)+j, then s_i, then the equality rows'
    artificials, then the sum rows'.  The sum rows come from sys.n and
    sys.degree.

    Working basis.  Sum row i reads sum_j a_ij - s_i + art_i = 1: block i
    of the variables, each with a gain g of +1 or -1 there, and the
    blocks are disjoint.  Every basis holds a variable of each block,
    and one of them, the block's key, stays implicit (generalized upper
    bounding; Dantzig & Van Slyke 1967): its value is g_key * (1 - sum
    of g_v x_v over the block's other basic variables, its members).
    The stored rows are the equality rows, one per working basic
    variable: that variable's row of the full tableau, kept only at the
    nonbasic columns (dictionary form) plus the rhs.  A key's row is
    g_key times (g_c on its block's columns and 1 at the rhs, less the
    g_v-weighted sum of its members' rows).  At the start the keys are
    the sum rows' artificials and the working basics the equality rows'.

    Integers.  D, the last pivot entry (1 before the first), is the
    determinant of the full basis (Edmonds, Bareiss 1968), and D > 0,
    as the ratio test only pivots on a > 0.  Row r is scale[r] times
    its true row, scale[r] being the D under which it last changed; the
    w-row is D times its true row.  A key's entry and value at scale D
    are integers, as D times every tableau entry is, and ratios are
    compared by cross multiplication.

    A pivot takes one of three forms, each the full tableau's pivot:
    - A working basic leaves: its row is brought up to D, and each row
      with entry f != 0 in the entering column maps to (piv * row - f *
      pivot row) / scale[r], the w-row likewise over D, exactly by
      Sylvester's identity (a remainder raises PostconditionFailed).
      The leaving variable's column takes the entering one's slot,
      holding D in the pivot row and 0 in the others before the map.
    - A key with members leaves: a member becomes the key, and its row
      is replaced by the old key's row, built from the member rows at
      D; then the old key leaves as a working basic.
    - A key without members leaves: its row is g_c on its block, so
      the entering variable (of the same block) becomes the key by
      subtracting the entering column times that row from every row
      and the w-row, a column operation with pivot 1 that leaves D
      alone.
    An artificial that leaves never enters again, and its column is
    dropped.  So the pivots, and the vertex, are those of Bland's rule
    on the full tableau.  Returns the structural variable values only:
    Fraction(rhs, scale[r]) for working basics, each key's from its
    block's equation.
    """
    n, w = sys.n, sys.degree + 1
    nv = n * w
    ncols = nv + n
    m = len(sys.eq)
    # ids: a_ij, then s_i, then the equality rows' artificials, then the
    # sum rows'; gain is each variable's coefficient in its sum row
    block = [v // w for v in range(nv)] + list(range(n)) + [-1] * m + list(range(n))
    gain = [1] * nv + [-1] * n + [1] * (m + n)
    # a row is [rhs, entry at each nonbasic column]; labels names them
    labels = [None] + list(range(ncols))
    pos = list(range(1, ncols + 1)) + [None] * (m + n)
    rows = [[0] + list(r) + [0] * n for r in sys.eq]
    # w-row for minimizing the artificial sum: w + sum_j W[j] x_j = Wrhs,
    # the column sums of the equality and coefficient-sum rows
    W = [n] + ([sum(c) + 1 for c in zip(*sys.eq)] if m else [1] * nv) + [-1] * n
    basis = list(range(ncols, ncols + m))
    key = list(range(ncols + m, ncols + m + n))
    scale = [1] * m
    den = 1
    while True:
        enter = min((labels[p] for p in range(1, len(W)) if W[p] > 0), default=None)
        if enter is None:
            break
        ep = pos[enter]
        # best leaving candidate: (value, entry, id, row or ~block)
        best = None
        touched = {block[enter]}
        for r in range(m):
            a = rows[r][ep]
            if a:
                touched.add(block[basis[r]])
                if a > 0:
                    cand = (rows[r][0], a, basis[r], r)
                    if best is None or _before(cand, best):
                        best = cand
        touched.discard(-1)
        for i in touched:
            a = den * gain[enter] if block[enter] == i else 0
            v = den
            for r in range(m):
                bv = basis[r]
                if block[bv] == i:
                    row, s = rows[r], scale[r]
                    a -= gain[bv] * (den * row[ep] // s)
                    v -= gain[bv] * (den * row[0] // s)
            gk = gain[key[i]]
            if gk * a > 0:
                cand = (gk * v, gk * a, key[i], ~i)
                if best is None or _before(cand, best):
                    best = cand
        if best is None:
            raise PostconditionFailed("phase-1 objective is unbounded")
        leave = best[3]
        if leave < 0:
            i = ~leave
            k = key[i]
            gk = gain[k]
            cols = [(pos[c], gain[c]) for c in range(i * w, i * w + w) if pos[c]]
            if pos[nv + i]:
                cols.append((pos[nv + i], -1))
            members = [r for r in range(m) if block[basis[r]] == i]
            if not members:
                # k's row is gk * g_c on the block and gk at the rhs, with
                # pivot gk * g_enter = 1, so g_enter = gk; k's own entry
                # there is 1, and its column takes slot ep as -f
                for row in rows + [W]:
                    f = row[ep]
                    if f:
                        for c, g in cols:
                            row[c] -= f * gk * g
                        row[0] -= f * gk
                        row[ep] = -f
                key[i] = enter
                _retire(rows, W, labels, pos, ep, k, ncols)
                continue
            # the first member becomes the key, and its row k's row
            new = [0] * len(W)
            for r in members:
                if scale[r] != den:
                    rows[r] = _pivot_row(rows[r], rows[r], 0, den, scale[r])
                    scale[r] = den
                c = -gk * gain[basis[r]]
                new = [x + c * y for x, y in zip(new, rows[r])]
            for c, g in cols:
                new[c] += gk * g * den
            new[0] += gk * den
            leave = members[0]
            key[i], basis[leave] = basis[leave], k
            rows[leave] = new
        prow = rows[leave]
        if scale[leave] != den:
            prow = rows[leave] = _pivot_row(prow, prow, 0, den, scale[leave])
        piv = prow[ep]
        # column ep passes to the leaving variable: D in its own row, 0
        # in the others before the pivot
        prow[ep] = den
        for r in range(m):
            row = rows[r]
            f = row[ep]
            if f and r != leave:
                row[ep] = 0
                rows[r] = _pivot_row(row, prow, f, piv, scale[r])
                scale[r] = piv
        f = W[ep]
        W[ep] = 0
        W = _pivot_row(W, prow, f, piv, den)
        den = scale[leave] = piv
        out = basis[leave]
        basis[leave] = enter
        _retire(rows, W, labels, pos, ep, out, ncols)
    if W[0] != 0:
        return None
    x = [Fraction(0)] * nv
    rest = [Fraction(1)] * n
    for r, bv in enumerate(basis):
        val = Fraction(rows[r][0], scale[r])
        if bv < nv:
            x[bv] = val
        if block[bv] >= 0:
            rest[block[bv]] -= gain[bv] * val
    for i, k in enumerate(key):
        if k < nv:
            x[k] = rest[i]
    return x


def _retire(rows, W, labels, pos, p, v, ncols):
    # column p passes from the entering variable to v, which left the
    # basis; an artificial never enters again, so its column is dropped
    # instead, the last one moving into its place
    pos[labels[p]] = None
    if v < ncols:
        labels[p] = v
        pos[v] = p
        return
    last = labels.pop()
    for row in rows + [W]:
        x = row.pop()
        if p < len(row):
            row[p] = x
    if p < len(labels):
        labels[p] = last
        pos[last] = p


def _before(a, b):
    # ratio a[0] / a[1] below b[0] / b[1] (entries > 0), ties by least id
    lhs, rhs = a[0] * b[1], b[0] * a[1]
    return lhs < rhs or (lhs == rhs and a[2] < b[2])


def _degree_floor(hs):
    """A d below which hs has no witness, or None when it has none at all.

    Only the nonzero h_i count.  At the top, sum f_i h_i has a term of
    degree T = max(deg f_i + deg h_i), whose coefficient sums lc(f_i)
    lc(h_i) over the i reaching T, each lc(f_i) > 0.  When every h_i of
    the top degree e has leading sign s, some h_j of leading sign -s
    must reach T >= e, so deg f_j >= e - deg h_j; with no such h_j the
    top term never cancels.  The lowest terms obey the same rule, with
    orders for degrees: reading each order as its negative turns it
    into the same test.
    """
    ends = []
    for h in hs:
        if not h.is_zero:
            cs = h.coeffs
            k = _k.order(cs)
            ends.append(((len(cs) - 1, _sgn(cs[-1])), (-k, _sgn(cs[k]))))
    floor = 0
    for side in zip(*ends):
        e = max(p for p, _ in side)
        signs = {s for p, s in side if p == e}
        if len(signs) == 1:
            gaps = [e - p for p, s in side if s not in signs]
            if not gaps:
                return None
            floor = max(floor, min(gaps))
    return floor


def find_witness(hs, degree_cap=DEGREE_CAP):
    """Smallest-degree witness via LP escalation d = floor, ..., degree_cap.

    The escalation starts at _degree_floor's bound, below which every
    LP is infeasible, so it finds the degree, system and witness that
    escalation from d = 0 would.  The first feasible system yields a
    rational point; denominators are cleared, the common integer
    content divided out, and the result verified by substitution before
    being returned.

    None means no witness within the cap.  It comes at once, with no LP
    solved, when the nonzero h_i all share a leading sign or all share
    a lowest-coefficient sign, or when the floor passes the cap.  Other
    Unsolvable inputs solve every LP from the floor up to degree_cap
    first, where ``decide`` answers in under a millisecond: call
    ``decide`` first and search only after a Solvable verdict.
    """
    floor = _degree_floor(hs)
    if floor is None:
        return None
    for d in range(floor, degree_cap + 1):
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
