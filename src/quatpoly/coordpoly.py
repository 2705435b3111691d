"""Dense polynomials over a quaternion algebra (al, be / Q) as lists of
coordinate 4-tuples, ascending in degree: the arithmetic kernel under
qpoly, and the one home of the product coord_mul, the norm coord_norm
and the display coord_text.

A QPoly holds integer tuples over one denominator, so the kernel works
on integers and qpoly brings each result to lowest terms once.  With
integral al and be, integer inputs give integer outputs; with rational
al or be the outputs may hold Fractions, which qpoly clears.  Tuples are
built from lists, not generators: a tuple grown from a generator is
resized, and once freed it waits on the free list of its final length,
which raised peak RSS by about 1.5 MB over a run of the benchmark.
"""

import math

ZERO = (0, 0, 0, 0)


def kernel_ints(cs):
    """The rationals cs, integral ones as ints, so int tuples stay ints."""
    return [c.numerator if c.denominator == 1 else c for c in cs]


def kernel_ab(A):
    """alpha and beta of A, as kernel_ints gives them."""
    return kernel_ints((A.alpha, A.beta))


def coord_mul(al, be, a, b):
    """The product a*b of coordinate 4-tuples in (al, be / F); entries may
    be ints, Fractions or RatPolys."""
    t1, x1, y1, z1 = a
    t2, x2, y2, z2 = b
    return (t1 * t2 + al * (x1 * x2) + be * (y1 * y2 - al * (z1 * z2)),
            t1 * x2 + x1 * t2 + be * (z1 * y2 - y1 * z2),
            t1 * y2 + y1 * t2 + al * (x1 * z2 - z1 * x2),
            t1 * z2 + z1 * t2 + x1 * y2 - y1 * x2)


def coord_norm(al, be, a):
    """The reduced norm t^2 - al x^2 - be y^2 + al be z^2 of a 4-tuple."""
    t, x, y, z = a
    return t * t - al * (x * x) - be * (y * y - al * (z * z))


def coord_text(a, den=1):
    """The quaternion a / den as text, for a 4-tuple a of ints or
    Fractions and an int den > 0: each coordinate as str shows its
    Fraction, +-1 dropped before i, j and k."""
    out = ""
    for c, name in zip(a, ("", "i", "j", "k")):
        if c:
            n, d = c.numerator, c.denominator * den
            g = math.gcd(n, d)
            s = "%d" % (n // g) if d == g else "%d/%d" % (n // g, d // g)
            s = s[:-1] + name if name and s in ("1", "-1") else s + name
            out += s if not out or s[0] == "-" else "+" + s
    return out or "0"


def cp_scale(n, P):
    return [(n * a[0], n * a[1], n * a[2], n * a[3]) for a in P]


def cp_primitive(P):
    """P divided by the positive rational content of all its coordinates:
    integer tuples whose entries have gcd 1."""
    m = math.lcm(*[c.denominator for a in P for c in a])
    P = [[c.numerator * (m // c.denominator) for c in a] for a in P]
    g = math.gcd(*[c for a in P for c in a])
    return [(a[0] // g, a[1] // g, a[2] // g, a[3] // g) for a in P]


def cp_trim(P):
    """P without its zero top coefficients, in place; returns P."""
    while P and P[-1] == ZERO:
        P.pop()
    return P


def cp_add(P, Q):
    if len(P) < len(Q):
        P, Q = Q, P
    return [(a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3])
            for a, b in zip(P, Q)] + P[len(Q):]


def cp_mul(al, be, P, Q):
    """The product P*Q, skipping zero coefficients."""
    if not P or not Q:
        return []
    out = [ZERO] * (len(P) + len(Q) - 1)
    Q = [(l, b) for l, b in enumerate(Q) if b != ZERO]
    for m, a in enumerate(P):
        if a == ZERO:
            continue
        for l, b in Q:
            c, o = coord_mul(al, be, a, b), out[m + l]
            out[m + l] = (o[0] + c[0], o[1] + c[1], o[2] + c[2], o[3] + c[3])
    return out


def cp_pseudo_divmod(al, be, P, D):
    """(s, Q, R) with s*P = Q*D + R for a nonzero scalar s, deg R < deg D
    and R trimmed.  With dl = lc(D), each step is Q, R <- N(dl)*Q + c*x^m,
    N(dl)*R - c*x^m*D for c = lc(R)*conj(dl), which cancels lc(R) because
    conj(dl)*dl = N(dl); integer tuples stay integers."""
    t, x, y, z = D[-1]
    n, dc = coord_norm(al, be, D[-1]), (t, -x, -y, -z)
    s, Q, R = 1, [ZERO] * max(len(P) - len(D) + 1, 0), list(P)
    while len(R) >= len(D):
        m = len(R) - len(D)
        c = coord_mul(al, be, R.pop(), dc)
        if c == ZERO:
            continue
        if n != 1:
            s, Q, R = n * s, cp_scale(n, Q), cp_scale(n, R)
        Q[m] = c
        for l, d in enumerate(D[:-1]):
            r, e = R[m + l], coord_mul(al, be, c, d)
            R[m + l] = (r[0] - e[0], r[1] - e[1], r[2] - e[2], r[3] - e[3])
    return s, Q, cp_trim(R)
