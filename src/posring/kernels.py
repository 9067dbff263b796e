"""Kernels for dense integer polynomial arithmetic.

A polynomial is a plain list of ints: coefficients in ascending degree
order with no trailing zeros.  The zero polynomial is the empty list.
Callers own canonicalization of their inputs; every function here
returns canonical lists.
"""

from math import gcd as _igcd


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
    c = 0
    for x in a:
        c = _igcd(c, x)
        if c == 1:
            break
    return c


def primitive_signed(a):
    # divide by the (positive) content, keep the sign pattern
    c = content(a)
    if c in (0, 1):
        return a[:]
    return [x // c for x in a]


def primitive_pos(a):
    # primitive part with positive leading coefficient
    if not a:
        return []
    c = content(a)
    if a[-1] < 0:
        c = -c
    if c == 1:
        return a[:]
    return [x // c for x in a]


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


def gcd(a, b):
    # primitive PRS; result is primitive with positive leading coefficient
    A = primitive_pos(a)
    B = primitive_pos(b)
    if not A:
        return B
    if not B:
        return A
    if len(A) < len(B):
        A, B = B, A
    while True:
        if len(B) == 1:
            return [1]
        R = pseudo_rem(A, B)
        if not R:
            return primitive_pos(B)
        A, B = B, primitive_pos(R)


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
    # (den must be positive)
    if not p:
        return 0
    acc = p[-1]
    dp = 1
    for i in range(len(p) - 2, -1, -1):
        dp *= den
        acc = acc * num + p[i] * dp
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


def var_at_posinf(chain):
    return sign_variations([e[-1] for e in chain if e])


def shift1(p):
    # p(X + 1), by synthetic additions
    r = p[:]
    n = len(r)
    for i in range(n - 1):
        for j in range(n - 2, i - 1, -1):
            r[j] += r[j + 1]
    return r


def strip2(p):
    # divide out the largest common power of two
    v = -1
    for c in p:
        if c:
            t = (c & -c).bit_length() - 1
            if v < 0 or t < v:
                v = t
            if v == 0:
                return p
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
        inv = pow(B[-1], m - 2, m)
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
    inv = pow(A[-1], m - 2, m)
    return [c * inv % m for c in A]
