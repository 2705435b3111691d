"""Dense univariate polynomials over a field, as plain lists.

This is the one Euclidean core behind RatPoly (over Q), the modular
factoring and Hensel lifting in GF(p)[x], and polynomials over a number
field L = Q[x]/(m) (Trager factoring, square roots in L).

A polynomial is a list of coefficients, constant term first, with no
trailing zeros; [] is the zero polynomial.  Inputs are expected in that
form with canonical coefficients; outputs are new lists in the same form.
Every function takes a field object F with four members:

    F.zero, F.one   the constants
    F.red(a)        canonical form of a ring element: a % p over GF(p),
                    a itself over Q and over L
    F.inv(a)        inverse of a nonzero canonical element

Inner loops use only +, - and *; red and inv run once per output
coefficient, so entries over GF(p) are reduced lazily.  The routines are
the textbook ones (von zur Gathen & Gerhard, Modern Computer Algebra,
ch. 2-3).
"""

import operator
from collections import namedtuple
from fractions import Fraction

from .errors import DegenerateInput, DivisionByZero

Field = namedtuple("Field", "zero one red inv")


def same(a):
    """The canonical form over fields whose elements are already exact."""
    return a


QQ = Field(Fraction(0), Fraction(1), same, lambda a: 1 / a)

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
    """f^e mod m."""
    return power(divmod(f, m, F)[1], e, [F.one],
                 lambda a, b: divmod(mul(a, b, F), m, F)[1])


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
