"""Elementary integer number theory used throughout the package.

Everything here works on plain Python ints; sizes stay desk-scale
(discriminants of degree <= 8 polynomials with small coefficients), so
trial division plus Pollard rho is entirely adequate.
"""

import math
import random
from fractions import Fraction

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


def _pollard_rho(n, rng):
    while True:
        c = rng.randrange(1, n)
        x = y = rng.randrange(0, n)
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
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
    # more trial division before handing over to rho
    p = 41
    while p * p <= n and p < 100000:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 2
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


def squarefree_part(n):
    """The squarefree integer with the same sign and square class as n."""
    if n == 0:
        return 0
    sign = -1 if n < 0 else 1
    out = sign
    for p, e in factorint(n).items():
        if e % 2 == 1:
            out *= p
    return out


def squarefree_kernel(q):
    """Squarefree integer in the square class of a nonzero rational."""
    q = Fraction(q)
    return squarefree_part(q.numerator * q.denominator)


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
        g, inv, _ = _xgcd(m % mi, mi)
        assert g == 1
        x = x + m * ((r - x) * inv % mi)
        m *= mi
    return x % m


def _xgcd(a, b):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def sqrt_mod_squarefree(a, n, n_factors=None):
    """Square root of a modulo squarefree odd... any squarefree n >= 1.

    Returns r with r*r = a (mod n), or None.  n must be squarefree.
    """
    if n == 1:
        return 0
    if n_factors is None:
        n_factors = list(factorint(n))
    roots = []
    mods = []
    for p in n_factors:
        if p == 2:
            r = a % 2
        else:
            r = sqrt_mod_prime(a, p)
            if r is None:
                return None
        roots.append(r)
        mods.append(p)
    return crt(roots, mods)
