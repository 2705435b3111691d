"""Dense polynomials over a quaternion algebra (al, be / Q) as lists of
coordinate 4-tuples, ascending in degree: the arithmetic kernel under
qpoly, and the one home of the product coord_mul and the norm
coord_norm.

A QPoly holds integer tuples over one denominator, so the kernel works
on integers and qpoly brings each result to lowest terms once.  With
integral al and be, integer inputs give integer outputs; with rational
al or be the outputs may hold Fractions, which qpoly clears.  Right
division has one elimination loop, cp_pseudo_rem, which gives the
remainder alone to the callers that need no quotient (the GCRD and
evaluation); cp_pseudo_divmod collects the quotient from the terms that
loop records.  On integer al and be, each pseudo-division step scales
by N(lc D) over its gcd with the term it subtracts, so a division by a
monic divisor over den, as the GCRD returns, scales by at most
den^steps, not den^(2 steps).  Tuples are built from lists, not
generators: a tuple grown from a generator is resized, and once freed
it waits on the free list of its final length, which raised peak RSS
by about 1.5 MB over a run of the benchmark.
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


def cp_scale(n, P):
    return [(n * a[0], n * a[1], n * a[2], n * a[3]) for a in P]


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


def cp_pseudo_rem(al, be, P, D, steps=None):
    """(s, R) with s*P = Q*D + R for a nonzero scalar s, some Q, deg R <
    deg D and R trimmed.  With dl = lc(D) and c = lc(R)*conj(dl), each
    step is R <- k*R - c'*x^m*D for k = N(dl)/g and c' = c/g, which
    cancels lc(R) because conj(dl)*dl = N(dl).  g is the gcd of N(dl)
    and the coordinates of c on integer al and be, and 1 on rational
    ones, whose c may hold Fractions; integer tuples stay integers, and
    nothing is scaled when k = 1.  When steps is a list, each step
    appends its (m, c', k): the term c'*x^m of Q as it stood when taken,
    and the step's scale."""
    t, x, y, z = D[-1]
    n, dc = coord_norm(al, be, D[-1]), (t, -x, -y, -z)
    whole = type(al) is int and type(be) is int
    s, R = 1, list(P)
    while len(R) >= len(D):
        m = len(R) - len(D)
        c = coord_mul(al, be, R.pop(), dc)
        if c == ZERO:
            continue
        k = n
        if whole and n != 1:
            g = math.gcd(n, *c)
            k, c = n // g, (c[0] // g, c[1] // g, c[2] // g, c[3] // g)
        if k != 1:
            s, R = k * s, cp_scale(k, R)
        if steps is not None:
            steps.append((m, c, k))
        for l, d in enumerate(D[:-1]):
            r, e = R[m + l], coord_mul(al, be, c, d)
            R[m + l] = (r[0] - e[0], r[1] - e[1], r[2] - e[2], r[3] - e[3])
    return s, cp_trim(R)


def cp_pseudo_divmod(al, be, P, D):
    """(s, Q, R) with s*P = Q*D + R, the s and R of cp_pseudo_rem: each
    term of Q is scaled by the product of the scales of the later
    steps."""
    steps = []
    s, R = cp_pseudo_rem(al, be, P, D, steps)
    Q = [ZERO] * max(len(P) - len(D) + 1, 0)
    later = 1
    for m, c, k in reversed(steps):
        Q[m] = (later * c[0], later * c[1], later * c[2], later * c[3])
        later *= k
    return s, Q, R
