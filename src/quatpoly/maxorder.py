"""Prime splitting in Q[x]/(m), m monic integral, from p-maximal orders.

The splitting type above p depends only on a p-maximal order, so
`splitting_type` grows Z[theta] at p alone (round 2, Pohst-Zassenhaus,
with the p-radical obtained as an iterated-Frobenius kernel) and
decomposes O/pO into local components by exact idempotent splitting.
`maximal_order`, which maximalizes at every prime whose square divides
the discriminant, is kept as a test oracle and is off the runtime path.
Degrees stay small (<= 8 in practice), so all linear algebra is naive
and exact.
"""

import random
from fractions import Fraction

from . import dense
from .errors import InternalInvariantViolation
from .intarith import factorint
from .ratpoly import RatPoly, from_int_list, gfp_factor, rp_discriminant

Fr = Fraction


# ---------------------------------------------------------------------------
# small exact linear algebra helpers

def mat_mul(a, b):
    n, m, k = len(a), len(b[0]), len(b)
    return [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m)]
            for i in range(n)]


def mat_inv(a):
    """Inverse of a square Fraction matrix (Gauss-Jordan)."""
    n = len(a)
    m = [[Fr(x) for x in row] + [Fr(int(i == j)) for j in range(n)]
         for i, row in enumerate(a)]
    for col in range(n):
        piv = next(r for r in range(col, n) if m[r][col])
        m[col], m[piv] = m[piv], m[col]
        inv = 1 / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return [row[n:] for row in m]


def hnf(rows):
    """Row Hermite normal form of an integer lattice basis (full rank)."""
    mat = [list(r) for r in rows if any(r)]
    n = len(rows[0])
    r = 0
    for c in range(n):
        while True:
            nz = [i for i in range(r, len(mat)) if mat[i][c]]
            if not nz:
                break
            i0 = min(nz, key=lambda i: abs(mat[i][c]))
            mat[r], mat[i0] = mat[i0], mat[r]
            clean = True
            for i in range(r + 1, len(mat)):
                if mat[i][c]:
                    q = mat[i][c] // mat[r][c]
                    mat[i] = [a - q * b for a, b in zip(mat[i], mat[r])]
                    if mat[i][c]:
                        clean = False
            if clean:
                break
        if r < len(mat) and mat[r][c]:
            if mat[r][c] < 0:
                mat[r] = [-a for a in mat[r]]
            for i in range(r):
                q = mat[i][c] // mat[r][c]
                if q:
                    mat[i] = [a - q * b for a, b in zip(mat[i], mat[r])]
            r += 1
    return mat[:r]


def gfp_rref(rows, p):
    """Reduced row echelon form mod p; returns (rows, pivot_columns)."""
    mat = [[x % p for x in row] for row in rows]
    pivots = []
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = pow(mat[r][c], -1, p)
        mat[r] = [x * inv % p for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [(x - f * y) % p for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    return mat[:r], pivots


def gfp_nullspace(rows, p, ncols):
    """Basis of {v : A v = 0 (mod p)} for the equation rows A."""
    if not rows:
        return [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]
    rref, pivots = gfp_rref(rows, p)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * ncols
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = (-rref[r][fc]) % p
        basis.append(v)
    return basis


class _Span:
    """Row space mod p with coordinate solving."""

    def __init__(self, rows, p):
        self.p = p
        self.rows = rows
        # transform: solve via augmented reduction when asked
        aug = [list(r) + [1 if i == j else 0 for j in range(len(rows))]
               for i, r in enumerate(rows)]
        self._aug, _ = gfp_rref(aug, p) if rows else ([], [])

    def coords(self, v):
        """Coefficients expressing v in the original rows, or None."""
        p = self.p
        v = [x % p for x in v]
        n = len(v)
        coeff = [0] * len(self.rows)
        for row in self._aug:
            lead = next((c for c in range(n) if row[c]), None)
            if lead is None:
                continue
            if v[lead]:
                f = v[lead]
                v = [(a - f * b) % p for a, b in zip(v, row[:n])]
                coeff = [(a + f * b) % p for a, b in zip(coeff, row[n:])]
        if any(v):
            return None
        return coeff


# ---------------------------------------------------------------------------
# orders

class Order:
    """An order in Q[x]/(m) given by a basis matrix over the power basis."""

    def __init__(self, m, basis):
        self.m = list(m)
        self.n = len(m) - 1
        self.basis = basis  # n x n Fractions, rows = basis elements
        self._table = None

    def mult_table(self):
        """T[i][j] = integer coords of w_i * w_j in the order basis."""
        if self._table is not None:
            return self._table
        n = self.n
        binv = mat_inv(self.basis)
        table = [[None] * n for _ in range(n)]
        # power-basis products via rational polynomials mod m
        mpoly = from_int_list(self.m)
        rows = [RatPoly(r) for r in self.basis]
        for i in range(n):
            for j in range(i, n):
                prod = (rows[i] * rows[j]) % mpoly
                vec = [prod[k] for k in range(n)]
                coords = [sum(vec[t] * binv[t][k] for t in range(n))
                          for k in range(n)]
                ivec = []
                for c in coords:
                    if c.denominator != 1:
                        raise InternalInvariantViolation(
                            "order basis not multiplicatively closed")
                    ivec.append(int(c))
                table[i][j] = table[j][i] = ivec
        self._table = table
        return table

    def one(self):
        binv = mat_inv(self.basis)
        coords = [binv[0][k] for k in range(self.n)]
        out = []
        for c in coords:
            if c.denominator != 1:
                raise InternalInvariantViolation("1 not in order")
            out.append(int(c))
        return out


def _mult_mod(u, v, table, p):
    n = len(u)
    out = [0] * n
    for i in range(n):
        if u[i]:
            for j in range(n):
                if v[j]:
                    uv = u[i] * v[j]
                    tij = table[i][j]
                    for k in range(n):
                        if tij[k]:
                            out[k] += uv * tij[k]
    return [c % p for c in out]


def _pow_mod(v, e, table, p, one):
    return dense.power(v, e, one, lambda a, b: _mult_mod(a, b, table, p))


def _radical_basis(table, p, n, one):
    """Basis of the nilradical of the n-dim algebra O/pO."""
    q = p
    while q < n:
        q *= p
    cols = []
    for i in range(n):
        e = [0] * n
        e[i] = 1
        cols.append(_pow_mod(e, q, table, p, one))
    # kernel of v -> sum v_i cols[i]
    eqs = [[cols[i][k] for i in range(n)] for k in range(n)]
    return gfp_nullspace(eqs, p, n)


def disc_of_int_poly(m):
    d = rp_discriminant(from_int_list(m))
    if d.denominator != 1:
        raise InternalInvariantViolation("non-integral discriminant")
    return int(d)


def _p_maximalize(order, p):
    """Grow the order until it is p-maximal; returns the new order."""
    n = order.n
    while True:
        table = order.mult_table()
        one = order.one()
        rad = _radical_basis(table, p, n, one)
        # I_p lattice (coords in current order basis)
        gen = [[x % p for x in v] for v in rad] + \
              [[p if i == j else 0 for j in range(n)] for i in range(n)]
        B = hnf(gen)
        Bmat = [[Fr(x) for x in row] for row in B]
        Binv = mat_inv(Bmat)
        # equations for U = {y : y * I_p  subset  p * I_p}
        eqs = []
        for r in range(n):
            br = B[r]
            # e_i * b_r in order coords, for each basis element e_i
            prods = []
            for i in range(n):
                acc = [0] * n
                for s in range(n):
                    if br[s]:
                        tis = table[i][s]
                        for k in range(n):
                            acc[k] += br[s] * tis[k]
                prods.append(acc)
            # convert to I_p coordinates: c = vec . Binv
            for k in range(n):
                eq = []
                for i in range(n):
                    c = sum(Fr(prods[i][t]) * Binv[t][k] for t in range(n))
                    if c.denominator != 1:
                        raise InternalInvariantViolation("I_p is not an ideal")
                    eq.append(int(c) % p)
                eqs.append(eq)
        U = gfp_nullspace(eqs, p, n)
        gen2 = [[x % p for x in v] for v in U] + \
               [[p if i == j else 0 for j in range(n)] for i in range(n)]
        V = hnf(gen2)
        if all(V[i][j] == (p if i == j else 0) for i in range(n) for j in range(n)):
            return order
        newbasis = mat_mul([[Fr(V[i][j], p) for j in range(n)] for i in range(n)],
                           order.basis)
        order = Order(order.m, newbasis)


def maximal_order(m):
    """Maximal order of Q[x]/(m) for monic irreducible integral m, as a
    test oracle: no runtime path calls it.

    Returns (order, disc_field, index) with disc(m) = index^2 * disc_field.
    """
    n = len(m) - 1
    disc0 = disc_of_int_poly(m)
    order = Order(m, [[Fr(int(i == j)) for j in range(n)] for i in range(n)])
    for p, e in sorted(factorint(disc0).items()):
        if e >= 2:
            order = _p_maximalize(order, p)
    # every HNF step starts from the identity, so the basis stays upper
    # triangular and its determinant is the product of the diagonal
    det = Fr(1)
    for i, row in enumerate(order.basis):
        if any(row[:i]):
            raise InternalInvariantViolation("order basis not triangular")
        det *= row[i]
    index = abs(1 / det)
    if index.denominator != 1:
        raise InternalInvariantViolation("order index must be an integer")
    index = int(index)
    return order, disc0 // (index * index), index


# ---------------------------------------------------------------------------
# splitting types

def _component_split(basis_rows, unit, table, p, rng):
    """Decompose a commutative local-candidate algebra into local pieces.

    basis_rows spans the component inside the ambient algebra; unit is
    its identity.  Returns a list of (dimension, residue_degree).
    """
    span = _Span(basis_rows, p)
    dim = len(basis_rows)

    def minpoly_of(v):
        pows = [list(unit)]
        cur = list(unit)
        rows = [span.coords(cur)]
        while True:
            cur = _mult_mod(cur, v, table, p)
            pows.append(cur)
            rows.append(span.coords(cur))
            if any(r is None for r in rows):
                raise InternalInvariantViolation("element escapes component")
            ker = gfp_nullspace(
                [[rows[i][k] for i in range(len(rows))] for k in range(dim)],
                p, len(rows))
            # want a relation involving the highest power
            rel = next((v2 for v2 in ker if v2[-1]), None)
            if rel is not None:
                inv = pow(rel[-1], -1, p)
                return [c * inv % p for c in rel]

    def eval_poly(coeffs, v):
        out = [0] * len(unit)
        for c in reversed(coeffs):
            out = _mult_mod(out, v, table, p)
            if c:
                out = [(a + c * b) % p for a, b in zip(out, unit)]
        return out

    # radical dimension inside this component (for the residue degree)
    q = p
    while q < dim:
        q *= p
    imgs = [_pow_mod(b, q, table, p, unit) for b in basis_rows]
    coords = [span.coords(v) for v in imgs]
    if any(c is None for c in coords):
        raise InternalInvariantViolation("Frobenius escapes component")
    eqs = [[coords[i][k] for i in range(dim)] for k in range(dim)]
    raddim = len(gfp_nullspace(eqs, p, dim))
    fdim = dim - raddim  # dim of residue algebra

    candidates = [list(b) for b in basis_rows]
    tries = 0
    while True:
        if candidates:
            a = candidates.pop(0)
        else:
            a = [0] * len(unit)
            for b in basis_rows:
                c = rng.randrange(p)
                a = [(x + c * y) % p for x, y in zip(a, b)]
            tries += 1
            if tries > 2000:
                raise InternalInvariantViolation(
                    "idempotent search failed to terminate")
        mu = minpoly_of(a)
        fac = gfp_factor(mu, p)
        if len(fac) == 1:
            f, mult = fac[0]
            if len(f) - 1 == fdim:
                # residue algebra is the field generated by the image of a
                e = dim // fdim
                if e * fdim != dim:
                    raise InternalInvariantViolation("e*f does not divide dim")
                return [(e, fdim)]
            continue
        # split off the first primary component
        F = dense.GF(p)
        f1, m1 = fac[0]
        g1 = dense.power(f1, m1, [1], lambda a, b: dense.mul(a, b, F))
        g2, rem = dense.divmod(mu, g1, F)
        if rem:
            raise InternalInvariantViolation("primary part must divide minpoly")
        # Bezout u g1 + v g2 = 1 mod p
        h, _, v = dense.xgcd(g1, g2, F)
        if h != [1]:
            raise InternalInvariantViolation("expected coprime inputs")
        e_vec = eval_poly(dense.mul(v, g2, F), a)
        comp_out = []
        for idem in (e_vec, [(x - y) % p for x, y in zip(unit, e_vec)]):
            rows = []
            for b in basis_rows:
                rows.append(_mult_mod(idem, b, table, p))
            sub, _ = gfp_rref(rows, p)
            sub = [r for r in sub if any(r)]
            comp_out.extend(_component_split(sub, idem, table, p, rng))
        return comp_out


def splitting_type(m, p):
    """(e, f) pairs for the primes above p in Q[x]/(m), m monic integral
    irreducible.  Sorted ascending.

    They come from a p-maximal order grown from Z[theta] at p alone; when
    Z[theta] is already p-maximal, by Dedekind-Kummer from m mod p.
    """
    n = len(m) - 1
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    ztheta = order = Order(m, identity)
    if disc_of_int_poly(m) % (p * p) == 0:
        # otherwise p cannot divide the index, which squares into disc
        order = _p_maximalize(ztheta, p)
    if order is ztheta:
        return sorted((mult, len(g) - 1) for g, mult in gfp_factor(m, p))
    rng = random.Random((p, tuple(m)).__hash__())
    comps = _component_split(identity, order.one(), order.mult_table(), p,
                             rng)
    if sum(e * f for e, f in comps) != n:
        raise InternalInvariantViolation("splitting degrees do not add up")
    return sorted(comps)
