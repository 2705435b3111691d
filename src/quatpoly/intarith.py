"""Elementary integer number theory used throughout the package.

Everything here works on plain Python ints.  factorint (trial division,
then Pollard rho) has no time bound: on a 61-digit algebra parameter it
gave no answer in 20 s.  Its callers at run time are square_class (the
ramified places of an algebra, the quadratic-form reductions and
descent, the quadratic subfields of a quadratic or quartic field) and,
for a central factor of degree 6 or more, nf_quadratic_candidates on
4 disc; maxorder's maximal order calls it too, but only tests call that.
"""

import math
import random
from fractions import Fraction

from .errors import DegenerateInput, InternalInvariantViolation

_SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]


def is_prime(n):
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    # deterministic Miller-Rabin for n < 3.3 * 10^24
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41):
        if a % n == 0:
            continue
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# the steps of Pollard rho whose differences share one gcd
_RHO_BATCH = 128


def _pollard_rho(n, rng):
    """A proper factor of the composite n by Pollard rho on y^2 + c, with
    Brent's cycle search (BIT 20, 1980): x is held while y runs r steps,
    r doubling, and the differences x - y of a batch of _RHO_BATCH steps
    are multiplied mod n for one gcd.  A batch whose product reaches 0
    mod n is replayed step by step; a new c is drawn when even that
    gives n."""
    while True:
        c = rng.randrange(1, n)
        y = rng.randrange(0, n)
        r, q, d = 1, 1, 1
        while d == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and d == 1:
                ys = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                d = math.gcd(q, n)
                k += _RHO_BATCH
            r *= 2
        if d == n:
            d = 1
            while d == 1:
                ys = (ys * ys + c) % n
                d = math.gcd(x - ys, n)
        if d != n:
            return d


def factorint(n):
    """Prime factorization of |n| as a dict {p: multiplicity}."""
    n = abs(n)
    if n in (0, 1):
        return {}
    out = {}
    for p in _SMALL_PRIMES:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    rng = random.Random(0xC0FFEE)
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _pollard_rho(m, rng)
        stack.append(d)
        stack.append(m // d)
    return out


def square_class(q):
    """(s, r, primes) with q = s r^2 for a nonzero rational q: s the
    squarefree integer of the sign and square class of q, r > 0 a
    Fraction, primes the sorted tuple of the primes dividing s.  One
    factorint call; DegenerateInput for q = 0."""
    q = Fraction(q)
    if q == 0:
        raise DegenerateInput("zero has no square class")
    s, k = (-1 if q < 0 else 1), 1
    primes = []
    for p, e in sorted(factorint(q.numerator * q.denominator).items()):
        k *= p ** (e // 2)
        if e % 2:
            s *= p
            primes.append(p)
    # q = n/d and n d = s k^2, so q = s (k/d)^2
    return s, Fraction(k, q.denominator), tuple(primes)


def squarefree_kernel(q):
    """Squarefree integer in the square class of a nonzero rational."""
    return square_class(q)[0]


def legendre(a, p):
    """Legendre symbol (a/p) for an odd prime p."""
    a %= p
    if a == 0:
        return 0
    r = pow(a, (p - 1) // 2, p)
    return 1 if r == 1 else -1


def sqrt_mod_prime(a, p):
    """A square root of a modulo an odd prime p (Tonelli-Shanks), or None."""
    a %= p
    if a == 0:
        return 0
    if p == 2:
        return a
    if legendre(a, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # Tonelli-Shanks
    q = p - 1
    s = 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while legendre(z, p) != -1:
        z += 1
    m = s
    c = pow(z, q, p)
    t = pow(a, q, p)
    r = pow(a, (q + 1) // 2, p)
    while t != 1:
        i = 0
        tt = t
        while tt != 1:
            tt = tt * tt % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m = i
        c = b * b % p
        t = t * c % p
        r = r * b % p
    return r


def crt(residues, moduli):
    """x with x = r_i (mod m_i); moduli pairwise coprime."""
    x, m = 0, 1
    for r, mi in zip(residues, moduli):
        if math.gcd(m, mi) != 1:
            raise InternalInvariantViolation("crt moduli must be coprime")
        x = x + m * ((r - x) * pow(m % mi, -1, mi) % mi)
        m *= mi
    return x % m


def sqrt_mod_squarefree(a, primes):
    """A square root of a modulo the product of the distinct primes, or
    None: r with r*r = a modulo each, combined by CRT (0 for no primes)."""
    roots = [sqrt_mod_prime(a, p) for p in primes]
    if None in roots:
        return None
    return crt(roots, primes)
