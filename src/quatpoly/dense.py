"""Dense univariate polynomials over a field, as plain lists.

This is the one Euclidean core behind RatPoly (over Z, on numerators),
the modular factoring and Hensel lifting in GF(p)[x], and polynomials
over a number field L = Q[x]/(m) (Trager factoring, square roots in L).
rational_text shows a rational, and format_terms a list of coefficient
texts as a polynomial.

A polynomial is a list of coefficients, constant term first, with no
trailing zeros; [] is the zero polynomial.  Inputs are expected in that
form with canonical coefficients; outputs are new lists in the same form.
Every function takes a field F (GF(p), ZZ or L.field) with four members:

    F.zero, F.one   the constants
    F.red(a)        canonical form of a ring element: a % p over GF(p),
                    a itself over Z and over L
    F.inv(a)        inverse of a nonzero canonical element

Inner loops use only +, - and *; red and inv run once per output
coefficient, so entries over GF(p) are reduced lazily.  divmod, rem and
powmod share one elimination loop; rem gives the remainder alone, with
no quotient built, to the callers that read only the remainder (gcd,
powmod, the modular factoring of ratpoly and maxorder).  inverse is
extended Euclid with one cofactor: the inverse of f' mod f that the
Hensel lift of ratpoly needs.  The routines are the textbook ones (von
zur Gathen & Gerhard, Modern Computer Algebra, ch. 2-3).

RingElement, beside power, is the shared base of RatPoly, NFElement,
Quaternion and QPoly: -, the reflected operands, **, /, == and hash.
"""

import math
import operator
import sys
from collections import namedtuple

from .errors import (AlgebraMismatch, DegenerateInput, DivisionByZero,
                     PreconditionViolation)

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


def _reduce(r, g, red, inv, keep=None):
    """The list r, changed in place, mod g whose lc has inverse inv: each
    step pops the top of r and subtracts its multiple c of g, and keep,
    when given, is called with each c, top first.  r may hold unreduced
    sums; every output coefficient is reduced once."""
    n, low = len(g) - 1, g[:-1]
    for k in range(len(r) - n - 1, -1, -1):
        c = red(r.pop() * inv)
        if keep:
            keep(c)
        if c:
            # the leading term cancels, and was popped above
            for j, b in enumerate(low, k):
                r[j] -= c * b
    return trim([red(c) for c in r])


def divmod(f, g, F):
    """(q, r) with f = q*g + r and deg r < deg g."""
    if not g:
        raise DivisionByZero("polynomial division by zero")
    q = []
    r = _reduce(list(f), g, F.red, F.inv(g[-1]), q.append)
    return q[::-1], r


def rem(f, g, F):
    """f mod g: the r of divmod(f, g, F), without building the quotient."""
    if not g:
        raise DivisionByZero("polynomial division by zero")
    return _reduce(list(f), g, F.red, F.inv(g[-1]))


def monic(f, F):
    return scale(f, F.inv(f[-1]), F) if f else []


def gcd(f, g, F):
    """Monic gcd; [] when both inputs are zero.  Euclid stops at a
    nonzero constant remainder, where the gcd is 1, without dividing by
    it."""
    while len(g) > 1:
        f, g = g, rem(f, g, F)
    return [F.one] if g else monic(f, F)


def inverse(a, m, F):
    """The u with u*a = 1 mod m, of degree below deg m >= 1.  Euclid runs
    from (m, a) and carries a's cofactor alone, since m's is never read
    (von zur Gathen & Gerhard, Modern Computer Algebra, 3.2); each step
    takes its quotient from the elimination loop, top term first, and
    subtracts q times the cofactor in the same pass, reduced once.
    Raises DegenerateInput when gcd(a, m) is not 1."""
    red = F.red
    r0, r1 = m, a
    t0, t1 = [], [F.one]
    while r1:
        q = []
        r = _reduce(list(r0), r1, red, F.inv(r1[-1]), q.append)
        n = len(q) - 1
        t = t0 + [F.zero] * (n + len(t1) - len(t0))
        for i, c in enumerate(q):
            if c:
                for j, b in enumerate(t1, n - i):
                    t[j] -= c * b
        r0, r1, t0, t1 = r1, r, t1, trim([red(c) for c in t])
    if len(r0) != 1:
        raise DegenerateInput("no inverse: gcd(a, m) is not 1")
    return scale(t0, F.inv(r0[0]), F)


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


class RingElement:
    """The operators of RatPoly, NFElement, Quaternion and QPoly that
    follow from their primitives, written once.  A subclass defines
    _coerce(other), other as an element of self's parent for an int, a
    Fraction or a value of a type the class embeds, None for any other
    type, raising AlgebraMismatch or DegenerateInput for a value of
    another parent; __add__, __neg__ and __mul__; and _key(), a
    canonical key.  A type with inv() divides by the inverse; the
    others have no /.

    Equality coerces the other operand and compares keys: values of
    different parents are unequal, and it never raises.  The key of a
    value equal to a rational is that int or Fraction, so the value
    hashes as that rational."""

    __slots__ = ()

    def __radd__(self, other):
        return self.__add__(other)

    def __sub__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else other - self

    def __rmul__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else other * self

    def __truediv__(self, other):
        other = self._coerce(other) if hasattr(self, "inv") else None
        return NotImplemented if other is None else self * other.inv()

    def __rtruediv__(self, other):
        other = self._coerce(other) if hasattr(self, "inv") else None
        return NotImplemented if other is None else other * self.inv()

    def __pow__(self, n):
        return power(self, n, self._coerce(1))

    def __eq__(self, other):
        try:
            other = self._coerce(other)
        except (AlgebraMismatch, DegenerateInput):
            return False
        return NotImplemented if other is None else self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


def powmod(f, e, m, F):
    """f^e mod m, by square-and-multiply.  Each product is reduced by m in
    the pass that forms it, on its unreduced sums: one inverse of lc(m) for
    the whole power, one red per eliminated and per output coefficient,
    and no quotient list."""
    if not m:
        raise DivisionByZero("polynomial division by zero")
    red, inv = F.red, F.inv(m[-1])

    def mulmod(a, b):
        if not a or not b:
            return []
        out = [F.zero] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    out[j] += x * y
        return _reduce(out, m, red, inv)

    return power(_reduce(list(f), m, red, inv), e, [F.one], mulmod)


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


def rational_text(n, d=1):
    """n / d in lowest terms as text, for ints n and d > 0: "n" when d
    divides n.  A number past Python's int-to-text limit, which cli.run
    lifts, is a PreconditionViolation that names the limit."""
    g = math.gcd(n, d)
    try:
        return "%d" % (n // g) if d == g else "%d/%d" % (n // g, d // g)
    except ValueError:
        raise PreconditionViolation(
            "number above %d digits, the int-to-text limit of"
            " sys.set_int_max_str_digits" % sys.get_int_max_str_digits()
        ) from None


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
