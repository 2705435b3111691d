"""Independent exact arithmetic for checking quatpoly's answers.

Nothing here imports quatpoly.  A quaternion in (alpha, beta / Q) is a
4-tuple of Fractions (1, i, j, k coordinates); a polynomial is a list of
quaternions in ascending degree with the indeterminate central.  The
benchmark builds its inputs and checks every output with these helpers,
so a defect shared by the library's own self-checks still shows.
"""

from fractions import Fraction
from math import isqrt

ZERO = (Fraction(0),) * 4
ONE = (Fraction(1), Fraction(0), Fraction(0), Fraction(0))


def quat(coords):
    return tuple(Fraction(c) for c in coords)


def scalar(c):
    return (Fraction(c), Fraction(0), Fraction(0), Fraction(0))


def qadd(a, b):
    return tuple(x + y for x, y in zip(a, b))


def qsub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def qmul(a, b, alpha, beta):
    """Product in (alpha, beta / Q): i^2 = alpha, j^2 = beta, ij = -ji = k."""
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (a0 * b0 + alpha * a1 * b1 + beta * a2 * b2
            - alpha * beta * a3 * b3,
            a0 * b1 + a1 * b0 - beta * a2 * b3 + beta * a3 * b2,
            a0 * b2 + a2 * b0 + alpha * a1 * b3 - alpha * a3 * b1,
            a0 * b3 + a3 * b0 + a1 * b2 - a2 * b1)


def qconj(a):
    return (a[0], -a[1], -a[2], -a[3])


def qnorm(a, alpha, beta):
    return (a[0] * a[0] - alpha * a[1] * a[1] - beta * a[2] * a[2]
            + alpha * beta * a[3] * a[3])


def qinv(a, alpha, beta):
    n = qnorm(a, alpha, beta)
    return tuple(c / n for c in qconj(a))


def is_zero(a):
    return not any(a)


def conjugate(a, b, alpha, beta):
    """Skolem-Noether: in a division algebra two elements are conjugate
    iff they have the same minimal polynomial over Q."""
    if not any(a[1:]) or not any(b[1:]):
        return a == b
    return a[0] == b[0] and qnorm(a, alpha, beta) == qnorm(b, alpha, beta)


def trim(p):
    p = list(p)
    while p and is_zero(p[-1]):
        p.pop()
    return p


def pmul(p, q, alpha, beta):
    if not p or not q:
        return []
    out = [ZERO] * (len(p) + len(q) - 1)
    for m, a in enumerate(p):
        for n, b in enumerate(q):
            out[m + n] = qadd(out[m + n], qmul(a, b, alpha, beta))
    return trim(out)


def pprod(polys, alpha, beta):
    out = [ONE]
    for f in polys:
        out = pmul(out, f, alpha, beta)
    return out


def peval(p, a, alpha, beta):
    """sum c_m a^m, coefficients on the left."""
    out, pw = ZERO, ONE
    for c in p:
        out = qadd(out, qmul(c, pw, alpha, beta))
        pw = qmul(pw, a, alpha, beta)
    return out


def right_rem_monic(p, d, alpha, beta):
    """Remainder of p on right division by the monic d."""
    rem = trim(p)
    n = len(d) - 1
    while len(rem) - 1 >= n:
        c = rem[-1]
        shift = len(rem) - 1 - n
        rem = trim(qsub(rem[m], qmul(c, d[m - shift], alpha, beta))
                   if m >= shift else rem[m] for m in range(len(rem)))
    return rem


def is_monic(p):
    return bool(p) and p[-1] == ONE


def central(coeffs):
    """A rational polynomial (ascending) as a quaternion polynomial."""
    return trim(scalar(c) for c in coeffs)


def coords_norm(p, alpha, beta):
    """N(p) = p * conj(p) of a quaternion polynomial, as rational
    coefficients, computed from its four coordinate polynomials."""
    return norm_form([[c[t] for c in p] for t in range(4)], alpha, beta)


def norm_form(q, alpha, beta):
    """q0^2 - alpha q1^2 - beta q2^2 + alpha beta q3^2 for rational
    polynomials q0..q3."""
    sq = [rpmul(g, g) for g in q]
    return rpadd(rpadd(sq[0], rpscale(sq[1], -alpha)),
                 rpadd(rpscale(sq[2], -beta), rpscale(sq[3], alpha * beta)))


# -- rational polynomials as ascending lists of Fractions -------------------

def rptrim(f):
    f = list(f)
    while f and f[-1] == 0:
        f.pop()
    return f


def rpadd(f, g):
    n = max(len(f), len(g))
    return rptrim((f[m] if m < len(f) else 0) + (g[m] if m < len(g) else 0)
                  for m in range(n))


def rpscale(f, c):
    return rptrim(c * a for a in f)


def rpmul(f, g):
    if not f or not g:
        return []
    out = [Fraction(0)] * (len(f) + len(g) - 1)
    for m, a in enumerate(f):
        for n, b in enumerate(g):
            out[m + n] += a * b
    return rptrim(out)


def rpmod(f, m):
    f = rptrim(f)
    while len(f) >= len(m):
        c = f[-1] / m[-1]
        shift = len(f) - len(m)
        f = rptrim(f[t] - c * m[t - shift] if t >= shift else f[t]
                   for t in range(len(f)))
    return f


def certificate_norm_vanishes(alpha, beta, minpoly, q):
    """q0^2 - alpha q1^2 - beta q2^2 + alpha beta q3^2 = 0 mod minpoly,
    with q not zero mod minpoly."""
    if all(not rpmod(g, minpoly) for g in q):
        return False
    return not rpmod(norm_form(q, alpha, beta), minpoly)


# -- irreducibility of small monic integer polynomials ---------------------

def _divisors(n):
    n = abs(n)
    out = set()
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            out.update((d, n // d, -d, -(n // d)))
    return sorted(out)


def has_integer_root(f):
    """f monic with integer coefficients (ascending)."""
    if f[0] == 0:
        return True
    for r in _divisors(f[0]):
        acc = 0
        for c in reversed(f):
            acc = acc * r + c
        if acc == 0:
            return True
    return False


def monic_int_irreducible(f):
    """Irreducibility over Q of a monic integer polynomial of degree <= 4,
    by rational roots and, for quartics, every split into two monic
    integer quadratics (Gauss's lemma)."""
    f = [int(c) for c in f]
    n = len(f) - 1
    if n == 1:
        return True
    if has_integer_root(f):
        return False
    if n <= 3:
        return True
    d, c, b, a = f[0], f[1], f[2], f[3]
    for q in _divisors(d):
        s = d // q
        # (x^2 + p x + q)(x^2 + r x + s): p + r = a, pr = b - q - s
        disc = a * a - 4 * (b - q - s)
        if disc < 0 or isqrt(disc) ** 2 != disc or (a + isqrt(disc)) % 2:
            continue
        p = (a + isqrt(disc)) // 2
        r = a - p
        if p * s + q * r == c:
            return False
    return True


def resultant(f, g):
    """Determinant of the Sylvester matrix of f and g (ascending lists)."""
    m, n = len(f) - 1, len(g) - 1
    size = m + n
    rows = [[Fraction(0)] * t + [Fraction(c) for c in reversed(f)]
            + [Fraction(0)] * (n - 1 - t) for t in range(n)]
    rows += [[Fraction(0)] * t + [Fraction(c) for c in reversed(g)]
             + [Fraction(0)] * (m - 1 - t) for t in range(m)]
    det = Fraction(1)
    for col in range(size):
        piv = next((r for r in range(col, size) if rows[r][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = -det
        det *= rows[col][col]
        for r in range(col + 1, size):
            c = rows[r][col] / rows[col][col]
            if c:
                rows[r] = [x - c * y for x, y in zip(rows[r], rows[col])]
    return det


def discriminant(f):
    """Discriminant of a monic polynomial (ascending coefficients)."""
    n = len(f) - 1
    df = [m * f[m] for m in range(1, n + 1)]
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return sign * resultant(f, df)


def prime_count(n):
    """Number of distinct prime divisors of the nonzero integer n."""
    n, count, p = abs(n), 0, 2
    while p * p <= n:
        if n % p == 0:
            count += 1
            while n % p == 0:
                n //= p
        p += 1
    return count + (n > 1)


def is_cube(m):
    r = round(abs(m) ** (1 / 3))
    return any((r + e) ** 3 == abs(m) for e in (-1, 0, 1))


# -- canonical text for digests --------------------------------------------

def fr(c):
    c = Fraction(c)
    return "%d/%d" % (c.numerator, c.denominator)


def qtext(a):
    return "(" + ",".join(fr(c) for c in a) + ")"


def ptext(p):
    return "[" + ",".join(qtext(c) for c in p) + "]"


# -- expressions the quatpoly parser reads ---------------------------------

def _num(c):
    c = Fraction(c)
    return str(c.numerator) if c.denominator == 1 else \
        "%d/%d" % (c.numerator, c.denominator)


def qexpr(a):
    """(t + x*i + y*j + z*k), zero parts left out."""
    parts = []
    for c, name in zip(a, ("", "i", "j", "k")):
        if c == 0:
            continue
        mag = _num(abs(c))
        body = mag if not name else (name if mag == "1" else mag + "*" + name)
        parts.append(("-" if c < 0 else "+", body))
    if not parts:
        return "(0)"
    head = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    return "(" + head + "".join(" %s %s" % s for s in parts[1:]) + ")"


def pexpr(p):
    """A quaternion polynomial as a sum of coefficient * x^m terms."""
    terms = []
    for m in range(len(p) - 1, -1, -1):
        if is_zero(p[m]):
            continue
        xm = "" if m == 0 else ("*x" if m == 1 else "*x^%d" % m)
        terms.append(qexpr(p[m]) + xm)
    return " + ".join(terms) if terms else "0"
