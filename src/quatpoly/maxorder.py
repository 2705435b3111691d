"""Prime splitting in Q[x]/(m), m monic integral, from p-maximal orders.

An order is kept only as its integer multiplication table.  The
splitting type above p depends only on a p-maximal order, so
`splitting_type` grows Z[theta] at p alone by round 2 (Pohst-Zassenhaus,
with the p-radical obtained as an iterated-Frobenius kernel), on integer
lattices held in triangular form mod p, and splits O/pO deterministically
through the algebra of elements that Frobenius fixes, which the primitive
idempotents span (Cohen, GTM 138, sections 6.1-6.2).  Every prime takes
that one path: where Z[theta] is already p-maximal, round 2 returns it
unchanged and the split gives what m mod p factors into.  `maximal_order`,
which maximalizes at every prime whose square divides the discriminant,
is kept as a test oracle and is off the runtime path.  Degrees stay small
(<= 8 in practice), so all linear algebra is naive and exact.
"""

from collections import namedtuple

from . import dense
from .errors import InternalInvariantViolation
from .intarith import factorint
from .ratpoly import from_int_list, gfp_factor_squarefree, rp_discriminant


# ---------------------------------------------------------------------------
# linear algebra mod p and over Z

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


def _rank(rows, p):
    return len(gfp_rref(rows, p)[1])


def _lattice(rows, p, n):
    """Upper-triangular Z-basis of the lattice rows + p Z^n.

    Row c is the reduced row mod p with pivot c, or p e_c when no row
    has that pivot; these lie in the lattice and their determinant is
    its index, so they span it.
    """
    rref, pivots = gfp_rref(rows, p)
    by_pivot = dict(zip(pivots, rref))
    return [by_pivot[c] if c in by_pivot else [p * (i == c) for i in range(n)]
            for c in range(n)]


def _coords(basis, v):
    """Integer x with sum x_c basis[c] = v, for an upper-triangular basis."""
    v = list(v)
    x = []
    for c, row in enumerate(basis):
        q, r = divmod(v[c], row[c])
        if r:
            raise InternalInvariantViolation("vector outside the lattice")
        if q:
            v = [a - q * b for a, b in zip(v, row)]
        x.append(q)
    return x


# ---------------------------------------------------------------------------
# orders

# An order of Q[x]/(m) by its basis w_0..w_{n-1}: table[i][j] holds the
# integer coordinates of w_i * w_j, unit those of 1, and index is
# [O : Z[theta]].
Order = namedtuple("Order", "table unit index")


def _ztheta(m):
    """Z[theta] for a root theta of the monic integral m: its table comes
    from the powers theta^0 .. theta^(2n-2) reduced by m."""
    n = len(m) - 1
    pows = [[int(i == k) for i in range(n)] for k in range(n)]
    for _ in range(n - 1):
        top = pows[-1]
        # theta^n = -(m_0 + m_1 theta + ... + m_{n-1} theta^(n-1))
        pows.append([-top[-1] * m[0]]
                    + [top[i - 1] - top[-1] * m[i] for i in range(1, n)])
    table = [[pows[i + j] for j in range(n)] for i in range(n)]
    return Order(table, pows[0], 1)


def _mult(u, v, table):
    """Integer coordinates of u * v."""
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
    return out


def _mult_mod(u, v, table, p):
    return [c % p for c in _mult(u, v, table)]


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
    """(order, radical): the order grown by round 2 until it is
    p-maximal, the same object when it already is, and the basis of the
    nilradical of O/pO that proved it so."""
    n = len(order.unit)
    eye = [[int(i == j) for j in range(n)] for i in range(n)]
    while True:
        table = order.table
        # I_p = radical + pO; U = {y : y I_p in p I_p} mod p
        radical = _radical_basis(table, p, n, order.unit)
        ideal = _lattice(radical, p, n)
        eqs = []
        for w in ideal:
            prods = [_coords(ideal, _mult(e, w, table)) for e in eye]
            eqs.extend([c[k] % p for c in prods] for k in range(n))
        U = gfp_nullspace(eqs, p, n)
        if not U:
            return order, radical
        # the new order is V/p for the lattice V = U + pO
        V = _lattice(U, p, n)
        new = [[None] * n for _ in range(n)]
        for a in range(n):
            for c in range(a, n):
                prod = _mult(V[a], V[c], table)
                if any(x % p for x in prod):
                    raise InternalInvariantViolation(
                        "order not closed under multiplication")
                new[a][c] = new[c][a] = _coords(V, [x // p for x in prod])
        order = Order(new, _coords(V, [p * x for x in order.unit]),
                      order.index * p ** len(U))


def maximal_order(m):
    """Maximal order of Q[x]/(m) for monic irreducible integral m, as a
    test oracle: no runtime path calls it.

    Returns (order, disc_field, index) with disc(m) = index^2 * disc_field.
    """
    disc0 = disc_of_int_poly(m)
    order = _ztheta(m)
    for p, e in sorted(factorint(disc0).items()):
        if e >= 2:
            order = _p_maximalize(order, p)[0]
    index = order.index
    if disc0 % (index * index):
        raise InternalInvariantViolation("index^2 does not divide disc(m)")
    return order, disc0 // (index * index), index


# ---------------------------------------------------------------------------
# splitting types

def _component_split(table, unit, p, radical):
    """(e, f) of each prime above p, from the table of a p-maximal order
    and the basis of the nilradical of O/pO.

    B = O/pO is commutative, so Frobenius is F_p-linear on it and its
    fixed space is spanned by the primitive idempotents.  Each element b
    of a basis of that space has a minimal polynomial mu with simple roots
    in F_p; the idempotents q(b)/q(c), q = mu/(x - c), refine those found
    so far.  For a primitive idempotent e, dim eB = e*f and the residue
    degree f is dim eB - dim(e * radical).
    """
    n = len(unit)
    F = dense.GF(p)
    one = [u % p for u in unit]
    eye = [[int(i == j) for j in range(n)] for i in range(n)]
    frob = [_pow_mod(w, p, table, p, one) for w in eye]
    fixed = gfp_nullspace([[frob[i][k] - eye[i][k] for i in range(n)]
                           for k in range(n)], p, n)
    idems = [one]
    for b in fixed:
        if len(idems) == len(fixed):
            break
        # at most n+1 powers are dependent; the kernel vector is monic
        pows = [one]
        for _ in range(n):
            pows.append(_mult_mod(pows[-1], b, table, p))
            ker = gfp_nullspace([[v[k] for v in pows] for k in range(n)],
                                p, len(pows))
            if ker:
                break
        mu = ker[0]
        pieces = []
        for g in gfp_factor_squarefree(mu, p):
            if len(g) != 2:
                raise InternalInvariantViolation(
                    "Frobenius-fixed element with a root outside F_p")
            q = dense.divmod(mu, g, F)[0]
            inv = pow(dense.rem(q, g, F)[0], -1, p)   # 1 / q(c)
            pieces.append([sum(qk * v[k] for qk, v in zip(q, pows)) * inv % p
                           for k in range(n)])
        idems = [eu for eu in (_mult_mod(e, c, table, p)
                               for e in idems for c in pieces) if any(eu)]
    if len(idems) != len(fixed):
        raise InternalInvariantViolation(
            "idempotents do not separate the Frobenius-fixed algebra")
    out = []
    for e in idems:
        dim = _rank([_mult_mod(e, w, table, p) for w in eye], p)
        f = dim - _rank([_mult_mod(e, r, table, p) for r in radical], p)
        if dim % f:
            raise InternalInvariantViolation("e*f does not divide dim")
        out.append((dim // f, f))
    return out


def splitting_type(m, p):
    """(e, f) pairs for the primes above p in Q[x]/(m), m monic integral
    irreducible.  Sorted ascending.

    They come from a p-maximal order grown from Z[theta] at p alone,
    which is Z[theta] itself when p does not divide its index.
    """
    order, radical = _p_maximalize(_ztheta(m), p)
    comps = _component_split(order.table, order.unit, p, radical)
    if sum(e * f for e, f in comps) != len(m) - 1:
        raise InternalInvariantViolation("splitting degrees do not add up")
    return sorted(comps)
