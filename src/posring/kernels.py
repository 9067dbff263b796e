"""Kernels for dense integer polynomial arithmetic.

A polynomial is a plain list of ints: coefficients in ascending degree
order with no trailing zeros.  The zero polynomial is the empty list.
Callers own canonicalization of their inputs; every function here
returns canonical lists.  Besides arithmetic, ``order`` reads the
X-order of a polynomial for polyring and realdec alike, and ``strip2``
and ``content`` find the common power of two and the integer content
with one builtin pass each.
"""

from functools import reduce
from itertools import accumulate
from math import gcd as _igcd
from operator import add as _add
from operator import or_ as _or

from posring.errors import PostconditionFailed


def norm(cs):
    # strip trailing zeros in place, return the list
    n = len(cs)
    while n and cs[n - 1] == 0:
        n -= 1
    del cs[n:]
    return cs


def add(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = a[:]
    for i, x in enumerate(b):
        out[i] += x
    return norm(out)


def sub(a, b):
    out = a[:] + [0] * (len(b) - len(a))
    for i, x in enumerate(b):
        out[i] -= x
    return norm(out)


def neg(a):
    return [-x for x in a]


def scale(a, k):
    if k == 0:
        return []
    return [x * k for x in a]


def mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def mul_xk(a, k):
    if not a:
        return []
    return [0] * k + a


def order(a):
    # largest k with X^k dividing a nonzero a: the index of its first
    # nonzero coefficient (ValueError on the zero polynomial)
    return a.index(next(filter(None, a), None))


def deriv(a):
    return [i * a[i] for i in range(1, len(a))]


def exact_div(a, b):
    # quotient q with q*b == a, or None
    if not b:
        return None
    if not a:
        return []
    da = len(a) - 1
    db = len(b) - 1
    if da < db:
        return None
    r = a[:]
    lb = b[-1]
    q = [0] * (da - db + 1)
    for i in range(da - db, -1, -1):
        c = r[db + i]
        if c:
            if c % lb:
                return None
            c //= lb
            q[i] = c
            for j in range(db + 1):
                r[i + j] -= c * b[j]
    if any(r[:db]):
        return None
    return q


def content(a):
    return _igcd(*a)


def primitive_signed(a):
    # divide by the (positive) content, keep the sign pattern
    c = content(a)
    if c in (0, 1):
        return a[:]
    return [x // c for x in a]


def primitive_pos(a):
    # primitive part with positive leading coefficient
    p = primitive_signed(a)
    return [-x for x in p] if p and p[-1] < 0 else p


def pseudo_rem(a, b):
    # lc(b)**(deg a - deg b + 1) * a  mod  b, all-integer remainder
    db = len(b) - 1
    lb = b[-1]
    r = a[:]
    e = len(a) - 1 - db + 1
    while r and len(r) - 1 >= db:
        c = r[-1]
        del r[-1]
        for i in range(len(r)):
            r[i] *= lb
        off = len(r) - db
        for j in range(db):
            r[off + j] -= c * b[j]
        norm(r)
        e -= 1
    if e > 0 and r:
        m = lb**e
        r = [m * x for x in r]
    return r


def _primes():
    # 32749, the largest prime below 2^15, keeps gcd_mod on CPython's
    # single-digit integer fast path; then 2^61 - 1 and the primes below
    # it, by Miller-Rabin on the bases 2, 325, 9375, 28178, 450775,
    # 9780504 and 1795265022, exact for every n < 2^64 (Sinclair's set);
    # every candidate is below 2^61 and above every base
    yield 32749
    n = 2**61 - 1
    yield n
    while True:
        n -= 2
        r = ((n - 1) & (1 - n)).bit_length() - 1  # 2^r exactly divides n - 1
        d = (n - 1) >> r
        if all(_strong_probable_prime(n, d, r, a)
               for a in (2, 325, 9375, 28178, 450775, 9780504, 1795265022)):
            yield n


def _strong_probable_prime(n, d, r, a):
    # a^d = 1, or a^(d 2^i) = -1 for some i < r, modulo n = d 2^r + 1;
    # each power after the first squares the one before
    x = pow(a, d, n)
    if x == 1:
        return True
    for _ in range(r):
        if x == n - 1:
            return True
        x = x * x % n
    return False


def gcd(a, b):
    # Brown's modular gcd, primitive with positive leading coefficient;
    # gcd([], b) is primitive_pos(b).  For primitive A, B of degrees m, n,
    # G = gcd(A, B) and g = gcd(lc A, lc B), a prime dividing neither lc
    # gives a monic image of degree >= deg G, larger only when it divides
    # res(A/G, B/G): a unit image proves A, B coprime, a smaller degree
    # restarts, a larger one is skipped.  g times a good image is
    # g G / lc G mod p; CRT joins equal degrees, and a primitive symmetric
    # lift dividing A and B is G, whatever the primes.  The budget, in
    # floor(log2 p): bad primes share at most n (m + log2|A|) +
    # m (n + log2|B|) bits (Hadamard's bound on the Sylvester matrix of
    # A/G, B/G, whose 2-norms Landau-Mignotte puts below 2^m |A| and
    # 2^n |B|); good ones lift exactly past 2^min(m, n) min(|A|, |B|), a
    # bound on g G / lc G, plus one bit, and one more adds at most 60
    A, B = primitive_pos(a), primitive_pos(b)
    if not A or not B:
        return A or B
    m, n = len(A) - 1, len(B) - 1
    lc = _igcd(A[-1], B[-1])
    size, acc, mod, spent = min(m, n) + 1, None, 1, 0  # size: len(acc)
    for p in _primes():
        img = gcd_mod(A, B, p)
        if img is None:
            continue
        if len(img) == 1:
            return [1]
        if not spent:  # skipped when the first image certifies coprimality
            la, lb = ((sum(c * c for c in P).bit_length() + 1) // 2 for P in (A, B))
            budget = n * (m + la) + m * (n + lb) + min(m, n) + min(la, lb) + 61
        spent += p.bit_length() - 1
        if len(img) <= size:
            img = [c * lc % p for c in img]
            if len(img) < size or acc is None:
                size, acc, mod = len(img), img, p
            else:
                inv = pow(mod, -1, p)
                acc = [x + mod * ((y - x) * inv % p) for x, y in zip(acc, img)]
                mod *= p
            h = primitive_pos([x - mod if 2 * x > mod else x for x in acc])
            if exact_div(A, h) is not None and exact_div(B, h) is not None:
                return h
        if spent > budget:
            raise PostconditionFailed("modular gcd found no common divisor within its prime budget")


def signed_prs(p):
    # Chain whose entries are positive-constant multiples of the textbook
    # Sturm sequence p, p', -rem(p, p'), ...: sign variations at every
    # point (and at +inf) agree with the textbook chain.
    cur = primitive_signed(p)
    out = [cur]
    d = deriv(p)
    if not d:
        return out
    nxt = primitive_signed(d)
    out.append(nxt)
    while len(nxt) > 1:
        r = pseudo_rem(cur, nxt)
        if not r:
            break
        # pseudo_rem scales by lc**e; flip so the entry is a positive
        # multiple of -rem(cur, nxt)
        e = len(cur) - len(nxt) + 1
        if nxt[-1] < 0 and e % 2:
            t = r
        else:
            t = [-x for x in r]
        t = primitive_signed(t)
        out.append(t)
        cur, nxt = nxt, t
    return out


def eval_scaled(p, num, den):
    # p(num/den) * den**deg(p): an integer with the sign of p(num/den)
    # (den must be positive), by Horner on p_i den^j, j = deg p - i.  A
    # dyadic den = 2^k, as at every isolation endpoint, takes p_i << kj
    # in place of the running power den^j
    if not p:
        return 0
    it = reversed(p)
    acc = next(it)
    k = den.bit_length() - 1
    if den != 1 << k:
        dp = 1
        for c in it:
            dp *= den
            acc = acc * num + c * dp
        return acc
    sh = 0
    for c in it:
        sh += k
        acc = acc * num + (c << sh)
    return acc


def sign_variations(vals):
    v = 0
    prev = 0
    for x in vals:
        if x == 0:
            continue
        s = 1 if x > 0 else -1
        if prev and s != prev:
            v += 1
        prev = s
    return v


def var_at(chain, num, den):
    return sign_variations([eval_scaled(e, num, den) for e in chain])


def shift1(p):
    # p(X + 1), by repeated synthetic division by X - 1: the prefix sums
    # of a row, highest coefficient first, are the quotient's coefficients
    # and, last, the remainder, which is the next Taylor coefficient; one
    # builtin accumulate per row
    r = p[::-1]
    out = []
    while len(r) > 1:
        *r, c = accumulate(r)
        out.append(c)
    out += r
    return out


def casteljau_split(b):
    # Bernstein coefficients b on [0, 1] split at 1/2: (left, right),
    # each 2**n times the coefficients on [0, 1/2] and [1/2, 1].  Row r
    # of the triangle holds 2**r times de Casteljau's row r, so it needs
    # additions only: left_j = row_j[0] and right_j = row_(n-j)[j], each
    # scaled by 2**(n - row)
    n = len(b) - 1
    row = b
    left = [b[0] << n]
    right = [b[-1] << n]
    for sh in range(n - 1, -1, -1):
        row = list(map(_add, row, row[1:]))
        left.append(row[0] << sh)
        right.append(row[-1] << sh)
    right.reverse()
    return left, right


def strip2(p):
    # divide out the largest common power of two: the lowest set bit of
    # the OR of all coefficients, which two's complement keeps for
    # negative ones
    o = reduce(_or, p, 0)
    v = (o & -o).bit_length() - 1
    if v <= 0:
        return p
    return [c >> v for c in p]


def gcd_mod(a, b, m):
    # monic gcd of a and b modulo the prime m, or None when either
    # leading coefficient vanishes mod m
    A = [c % m for c in a]
    B = [c % m for c in b]
    if not A or not B or A[-1] == 0 or B[-1] == 0:
        return None
    while B:
        inv = pow(B[-1], -1, m)
        while len(A) >= len(B):
            c = A[-1] * inv % m
            if c:
                off = len(A) - len(B)
                for j in range(len(B) - 1):
                    A[off + j] = (A[off + j] - c * B[j]) % m
            A.pop()
            while A and A[-1] == 0:
                A.pop()
        A, B = B, A
    inv = pow(A[-1], -1, m)
    return [c * inv % m for c in A]
