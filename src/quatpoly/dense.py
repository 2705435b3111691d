"""Dense univariate polynomials over a field, as plain lists.

This is the one Euclidean core behind RatPoly (over Z, on numerators),
the modular factoring and Hensel lifting in GF(p)[x], and polynomials
over a number field L = Q[x]/(m) (Trager factoring, square roots in L).
format_terms shows a list of coefficient texts as a polynomial.

A polynomial is a list of coefficients, constant term first, with no
trailing zeros; [] is the zero polynomial.  Inputs are expected in that
form with canonical coefficients; outputs are new lists in the same form.
Every function takes a field F (GF(p), ZZ or L.field) with four members:

    F.zero, F.one   the constants
    F.red(a)        canonical form of a ring element: a % p over GF(p),
                    a itself over Z and over L
    F.inv(a)        inverse of a nonzero canonical element

Inner loops use only +, - and *; red and inv run once per output
coefficient, so entries over GF(p) are reduced lazily.  The routines are
the textbook ones (von zur Gathen & Gerhard, Modern Computer Algebra,
ch. 2-3).
"""

import operator
from collections import namedtuple

from .errors import DegenerateInput, DivisionByZero

Field = namedtuple("Field", "zero one red inv")


def same(a):
    """The canonical form over fields whose elements are already exact."""
    return a


# the integers, for the ring operations (add, sub, mul) only
ZZ = Field(0, 1, same, None)


def GF(p):
    """The prime field of p elements, as residues in [0, p)."""
    return Field(0, 1, lambda a: a % p, lambda a: pow(a, -1, p))


def trim(f):
    """Drop trailing zeros of the list f in place; returns f."""
    while f and not f[-1]:
        f.pop()
    return f


def add(f, g, F):
    red = F.red
    if len(f) < len(g):
        f, g = g, f
    out = [red(a + b) for a, b in zip(f, g)]
    out.extend(f[len(g):])
    return trim(out)


def sub(f, g, F):
    red = F.red
    out = [red(a - b) for a, b in zip(f, g)]
    if len(f) >= len(g):
        out.extend(f[len(g):])
    else:
        out.extend([red(-b) for b in g[len(f):]])
    return trim(out)


def scale(f, c, F):
    """c * f for a constant c."""
    red = F.red
    return trim([red(a * c) for a in f])


def mul(f, g, F):
    if not f or not g:
        return []
    out = [F.zero] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    red = F.red
    return trim([red(c) for c in out])


def divmod(f, g, F):
    """(q, r) with f = q*g + r and deg r < deg g."""
    if not g:
        raise DivisionByZero("polynomial division by zero")
    n = len(g) - 1
    if len(f) <= n:
        return [], list(f)
    red = F.red
    inv = F.inv(g[-1])
    r = list(f)
    q = [F.zero] * (len(f) - n)
    for k in range(len(q) - 1, -1, -1):
        c = red(r[k + n])
        if c:
            c = red(c * inv)
            q[k] = c
            # the leading term r[k + n] cancels and is dropped below
            for j in range(n):
                r[k + j] -= c * g[j]
    return q, trim([red(c) for c in r[:n]])


def monic(f, F):
    return scale(f, F.inv(f[-1]), F) if f else []


def gcd(f, g, F):
    """Monic gcd; [] when both inputs are zero."""
    while g:
        f, g = g, divmod(f, g, F)[1]
    return monic(f, F)


def xgcd(f, g, F):
    """(h, s, t) with s*f + t*g = h = monic gcd(f, g)."""
    r0, r1 = f, g
    s0, s1 = [F.one], []
    t0, t1 = [], [F.one]
    while r1:
        q, r = divmod(r0, r1, F)
        r0, r1 = r1, r
        s0, s1 = s1, sub(s0, mul(q, s1, F), F)
        t0, t1 = t1, sub(t0, mul(q, t1, F), F)
    if not r0:
        raise DegenerateInput("xgcd(0, 0) is undefined")
    inv = F.inv(r0[-1])
    return scale(r0, inv, F), scale(s0, inv, F), scale(t0, inv, F)


def power(a, n, one, mul=operator.mul):
    """a^n by square-and-multiply, for any associative product mul."""
    if n < 0:
        raise DegenerateInput("negative exponent")
    out = one
    while n:
        if n & 1:
            out = mul(out, a)
        n >>= 1
        if n:
            a = mul(a, a)
    return out


def powmod(f, e, m, F):
    """f^e mod m, by square-and-multiply.  Each product is reduced by m in
    the pass that forms it, on its unreduced sums: one inverse of lc(m) for
    the whole power, one red per eliminated and per output coefficient,
    and no quotient list."""
    if not m:
        raise DivisionByZero("polynomial division by zero")
    n, red, inv, low = len(m) - 1, F.red, F.inv(m[-1]), m[:-1]

    def rem(r):
        for k in range(len(r) - n - 1, -1, -1):
            c = red(r.pop() * inv)
            if c:
                for j, b in enumerate(low, k):
                    r[j] -= c * b
        return trim([red(c) for c in r])

    def mulmod(a, b):
        if not a or not b:
            return []
        out = [F.zero] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    out[j] += x * y
        return rem(out)

    return power(rem(list(f)), e, [F.one], mulmod)


def derivative(f, F):
    red = F.red
    return trim([red(i * f[i]) for i in range(1, len(f))])


def evaluate(f, x, F):
    """f(x) by Horner's rule, reduced once at the end."""
    v = F.zero
    for c in reversed(f):
        v = v * x + c
    return F.red(v)


def compose(f, g, F):
    """f(g) by Horner's rule."""
    out = []
    for c in reversed(f):
        out = add(mul(out, g, F), [c] if c else [], F)
    return out


def format_terms(coeffs):
    """Ascending coefficients, each a rational as str shows it (shown
    without a factor of +-1) or a ready-made string, as terms in
    descending powers, no zeros."""
    out = ""
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if c == "0":
            continue
        xs = "x" if i == 1 else "x^%d" % i
        term = (c if i == 0 else c[:-1] + xs if c in ("1", "-1")
                else "%s*%s" % (c, xs))
        if out:
            out += " - " + term[1:] if term.startswith("-") else " + " + term
        else:
            out = term
    return out or "0"
