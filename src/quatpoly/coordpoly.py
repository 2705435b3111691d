"""Dense polynomials over a quaternion algebra (al, be / Q) as lists of
coordinate 4-tuples, ascending in degree: the arithmetic kernel under
qpoly.

The kernel is fraction-free where it matters: qpoly scales rational
coordinates to integers by a common denominator (cp_scaled), multiplies
and divides integer tuples, and divides back once (cp_unscale).  With
integral al and be, integer inputs give integer outputs.  Tuples are built
from lists, not generators: a tuple grown from a generator is resized,
and once freed it waits on the free list of its final length, which
raised peak RSS by about 1.5 MB over a run of the benchmark.
"""

import math
from fractions import Fraction

from .quatalg import coord_mul, coord_norm

ZERO = (0, 0, 0, 0)


def cp_scaled(P):
    """(den, den*P) with den the least common denominator of P's
    coordinates, so den*P has integer entries."""
    den = math.lcm(*[c.denominator for a in P for c in a])
    return den, [tuple([c.numerator * (den // c.denominator) for c in a])
                 for a in P]


def cp_unscale(P, den):
    return [tuple([Fraction(c, den) for c in a]) for a in P]


def cp_scale(n, P):
    return [(n * a[0], n * a[1], n * a[2], n * a[3]) for a in P]


def cp_primitive(P):
    """P divided by the positive rational content of all its coordinates:
    integer tuples whose entries have gcd 1."""
    P = cp_scaled(P)[1]
    g = math.gcd(*[c for a in P for c in a])
    return [(a[0] // g, a[1] // g, a[2] // g, a[3] // g) for a in P]


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
    while R and R[-1] == ZERO:
        R.pop()
    return s, Q, R
