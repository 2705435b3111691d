"""Text form of quaternionic polynomials.

The grammar accepts sums of products of atoms, where an atom is a
rational number written in ASCII digits (``3``, ``3/2``), a basis letter
``i j k``, the indeterminate ``x``, or a parenthesized subexpression;
multiplication can be written with ``*`` or by juxtaposition (``2i``,
``(3/2)i*x``), and ``^`` raises to a natural power.  Printing
(format_qpoly in qpoly) and parsing round-trip exactly.

No number in the text may have more than _MAX_DIGITS digits, nor more
than the interpreter's limit on reading an int, when that is lower.  Each
product, each step of a power and each sum of terms over different
denominators is measured as it is formed (see _sized), and is an error
when its numbers have more than _MAX_BITS bits.  Its operands were
measured before it, so no number formed has more than about 2 *
_MAX_BITS + 12 + bits(alpha) + bits(beta) bits.  The degree of a power
or product is checked before it is formed (see _check).

The text is split into token strings by one regular-expression pass;
a token's position in the text is found, by scanning the text again,
only when an error is raised.  Every subexpression is a kernel value
(den, P): a list P of coordinate 4-tuples over the integer den, as in
coordpoly.  The common cases take no general product: terms over one
denominator are added unscaled, a product with a rational constant
operand scales the other operand, and x^n is built as a monomial.  The
whole is brought to lowest terms once, as a QPoly.
"""

import math
import re
import sys

from . import dense
from .coordpoly import ZERO, cp_add, cp_mul, cp_scale, cp_trim
from .errors import PolyParseError, PreconditionViolation
from .qpoly import QPoly, format_qpoly  # noqa: F401  (re-exported)
from .quatalg import QuaternionAlgebra

_TOKEN = re.compile(r"[0-9]+|\S")
_DIGITS = frozenset("0123456789")
_ATOM_STARTERS = _DIGITS | set("ijkx(")
_ONE = (1, 0, 0, 0)
# the i, j and k coordinates of a rational
_PURE_ZERO = (0, 0, 0)
_X = [ZERO, _ONE]
_LETTERS = {"i": [(0, 1, 0, 0)], "j": [(0, 0, 1, 0)], "k": [(0, 0, 0, 1)],
            "x": _X}
# parentheses nest at most this deep, whatever the caller's stack depth
_MAX_DEPTH = 100
# the largest exponent, and the largest degree of a power or product; each
# sum and product is trimmed, so a cancelled term does not count
_MAX_DEGREE = 1000
# the most bits of the numbers of a power step, product or sum, and the
# most digits of a number in the text, which so has fewer bits
_MAX_BITS = 1 << 16
_MAX_DIGITS = _MAX_BITS * 3 // 10


class _Tokens:
    """The token strings of text, numbers and single non-space
    characters, ending in None; tok is the token at index at.  ab is the
    algebra's (alpha, beta) for products."""

    def __init__(self, text, ab):
        self.text, self.ab = text, ab
        self.toks = _TOKEN.findall(text)
        self.toks.append(None)
        self.tok = self.toks[0]
        self.at = self.depth = 0

    def take(self):
        self.at += 1
        self.tok = self.toks[self.at]

    def number(self):
        tok = self.tok
        if tok is None or tok[0] not in _DIGITS:
            self.error("expected a number")
        cap = min(_MAX_DIGITS, sys.get_int_max_str_digits() or _MAX_DIGITS)
        if len(tok) > cap:
            self.error("number above %d digits" % cap)
        self.take()
        return int(tok)

    def position(self, at):
        """The position in the text of token at, len(text) for the end."""
        for n, m in enumerate(_TOKEN.finditer(self.text)):
            if n == at:
                return m.start()
        return len(self.text)

    def error(self, msg, at=None):
        raise PolyParseError(
            msg, position=self.position(self.at if at is None else at))


def _bits(value):
    """The most bits of the denominator of a kernel value and of the
    numerator and denominator of each coordinate (Fractions over a
    non-integral algebra), by one bit_length: n | d has the bit length
    of the larger of n >= 0 and d."""
    d, P = value
    return max([d] + [abs(c.numerator) | c.denominator
                      for a in P if any(a) for c in a if c]).bit_length()


def _scalar(P):
    """True for a rational constant: one 4-tuple with zero i, j, k parts."""
    return len(P) == 1 and P[0][1:] == _PURE_ZERO


def _check(degree, toks, at):
    """Raise at token at for a power or product above the degree cap,
    before it is formed."""
    if degree > _MAX_DEGREE:
        toks.error("exponent or degree above %d" % _MAX_DEGREE, at)


def _sized(value, toks, at):
    """The kernel value a power step, product or sum has just formed, or
    an error at token at when its numbers pass the bit cap."""
    if _bits(value) > _MAX_BITS:
        toks.error("number above %d bits" % _MAX_BITS, at)
    return value


def parse_poly(text, A):
    """Parse text into a QPoly over the algebra A.  A text that is not a
    str, or an A that is not a QuaternionAlgebra, is a
    PreconditionViolation."""
    if not isinstance(text, str):
        raise PreconditionViolation("the text must be a str, not %s"
                                    % type(text).__name__)
    if not isinstance(A, QuaternionAlgebra):
        raise PreconditionViolation("the algebra must be a "
                                    "QuaternionAlgebra, not %s"
                                    % type(A).__name__)
    toks = _Tokens(text, (A.alpha, A.beta))
    try:
        den, P = _expr(toks)
    except RecursionError:
        raise PolyParseError("expression nested too deeply",
                             position=toks.position(toks.at)) from None
    if toks.tok is not None:
        toks.error("unexpected trailing input")
    return QPoly.from_kernel(A, den, P)


def _mul(ab, p, q):
    """The product of kernel values p and q; a rational constant operand
    scales the other one."""
    (d, P), (e, Q) = p, q
    if _scalar(P):
        return d * e, cp_trim(cp_scale(P[0][0], Q))
    if _scalar(Q):
        return d * e, cp_trim(cp_scale(Q[0][0], P))
    return d * e, cp_trim(cp_mul(*ab, P, Q))


def _expr(toks):
    den, out = 1, []
    while True:
        tok = toks.tok
        if tok == "-" or tok == "+":
            toks.take()
        at = toks.at
        d, P = _term(toks)
        if tok == "-":
            P = cp_scale(-1, P)
        if not out:  # 0 over any denominator
            den, out = d, cp_trim(P)
        elif d == den:
            out = cp_trim(cp_add(out, P))
        else:
            m = math.lcm(den, d)
            den, out = _sized((m, cp_trim(cp_add(cp_scale(m // den, out),
                                                 cp_scale(m // d, P)))),
                              toks, at)
        if toks.tok != "+" and toks.tok != "-":
            return den, out


def _term(toks):
    out = _factor(toks)
    while True:
        tok = toks.tok
        if tok == "*":
            toks.take()
        elif tok is None or tok[0] not in _ATOM_STARTERS:
            return out
        at = toks.at
        right = _factor(toks)
        _check(len(out[1]) + len(right[1]) - 2, toks, at)
        out = _sized(_mul(toks.ab, out, right), toks, at)


def _factor(toks):
    neg = False
    while toks.tok == "-":
        toks.take()
        neg = not neg
    base = _atom(toks)
    if toks.tok == "^":
        toks.take()
        at = toks.at
        n = toks.number()
        d, P = base
        if d == 1 and P == _X:  # a monomial, formed by no product
            _check(n, toks, at)
            base = 1, [ZERO] * n + [_ONE]
        else:
            _check(max(n, (len(P) - 1) * n), toks, at)
            base = dense.power(base, n, (1, [_ONE]), lambda p, q: _sized(
                _mul(toks.ab, p, q), toks, at))
    return (base[0], cp_scale(-1, base[1])) if neg else base


def _atom(toks):
    tok = toks.tok
    if tok is None:
        toks.error("unexpected end of input")
    if tok[0] in _DIGITS:
        num = toks.number()
        if toks.tok != "/":
            return 1, [(num, 0, 0, 0)]
        toks.take()
        at = toks.at
        den = toks.number()
        if den == 0:
            pos = toks.position(at) + len(toks.toks[at])
            raise PolyParseError("zero denominator", position=pos)
        return den, [(num, 0, 0, 0)]
    if tok in _LETTERS:
        toks.take()
        return 1, list(_LETTERS[tok])
    if tok == "(":
        if toks.depth == _MAX_DEPTH:
            toks.error("expression nested too deeply")
        toks.take()
        toks.depth += 1
        inner = _expr(toks)
        if toks.tok != ")":
            toks.error("expected ')'")
        toks.take()
        toks.depth -= 1
        return inner
    toks.error("unexpected character %r" % tok)
