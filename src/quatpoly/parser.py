"""Text form of quaternionic polynomials.

The grammar accepts sums of products of atoms, where an atom is a
rational number written in ASCII digits (``3``, ``3/2``), a basis letter
``i j k``, the indeterminate ``x``, or a parenthesized subexpression;
multiplication can be written with ``*`` or by juxtaposition (``2i``,
``(3/2)i*x``), and ``^`` raises to a natural power.  Printing
(format_qpoly in qpoly) and parsing round-trip exactly.

The text is split into tokens once, and every subexpression is a kernel
value (den, P): a list P of coordinate 4-tuples over the integer den, as
in coordpoly.  The whole is brought to lowest terms once, as a QPoly.
"""

import math
import re

from . import dense
from .coordpoly import ZERO, cp_add, cp_mul, cp_scale, cp_trim, kernel_ab
from .errors import PolyParseError
from .qpoly import QPoly, format_qpoly  # noqa: F401  (re-exported)

_TOKEN = re.compile(r"[0-9]+|\S")
_DIGITS = frozenset("0123456789")
_ATOM_STARTERS = _DIGITS | set("ijkx(")
_LETTERS = {"i": [(0, 1, 0, 0)], "j": [(0, 0, 1, 0)], "k": [(0, 0, 0, 1)],
            "x": [ZERO, (1, 0, 0, 0)]}
# parentheses nest at most this deep, whatever the caller's stack depth
_MAX_DEPTH = 100
# the largest exponent, and the largest degree of a power or product; each
# sum and product is trimmed, so a cancelled term does not count
_MAX_DEGREE = 1000


class _Tokens:
    """Numbers and single non-space characters, each with its position,
    ending in (len(text), None)."""

    def __init__(self, text):
        self.toks = [(m.start(), m.group()) for m in _TOKEN.finditer(text)]
        self.toks.append((len(text), None))
        self.at = self.depth = 0

    def peek(self):
        return self.toks[self.at][1]

    def take(self):
        self.at += 1

    def number(self):
        pos, tok = self.toks[self.at]
        if tok is None or tok[0] not in _DIGITS:
            raise PolyParseError("expected a number", position=pos)
        self.at += 1
        return int(tok)

    def error(self, msg):
        raise PolyParseError(msg, position=self.toks[self.at][0])


def _check_degree(degree, pos):
    if degree > _MAX_DEGREE:
        raise PolyParseError("exponent or degree above %d" % _MAX_DEGREE,
                             position=pos)


def parse_poly(text, A):
    """Parse text into a QPoly over the algebra A."""
    toks = _Tokens(text)
    try:
        den, P = _expr(toks, kernel_ab(A))
    except RecursionError:
        raise PolyParseError("expression nested too deeply",
                             position=toks.toks[toks.at][0]) from None
    if toks.peek() is not None:
        toks.error("unexpected trailing input")
    return QPoly.from_kernel(A, den, P)


def _mul(ab, p, q):
    return p[0] * q[0], cp_trim(cp_mul(*ab, p[1], q[1]))


def _expr(toks, ab):
    den, out, ch = 1, [], toks.peek()
    while True:
        sign = -1 if ch == "-" else 1
        if ch in ("+", "-"):
            toks.take()
        d, P = _term(toks, ab)
        m = math.lcm(den, d)
        out = cp_trim(cp_add(cp_scale(m // den, out),
                             cp_scale(sign * m // d, P)))
        den, ch = m, toks.peek()
        if ch not in ("+", "-"):
            return den, out


def _term(toks, ab):
    out = _factor(toks, ab)
    while True:
        ch = toks.peek()
        if ch == "*":
            toks.take()
        elif ch is None or ch[0] not in _ATOM_STARTERS:
            return out
        pos = toks.toks[toks.at][0]
        right = _factor(toks, ab)
        _check_degree(len(out[1]) + len(right[1]) - 2, pos)
        out = _mul(ab, out, right)


def _factor(toks, ab):
    sign = 1
    while toks.peek() == "-":
        toks.take()
        sign = -sign
    base = _atom(toks, ab)
    if toks.peek() == "^":
        toks.take()
        pos = toks.toks[toks.at][0]
        n = toks.number()
        _check_degree(max(n, (len(base[1]) - 1) * n), pos)
        base = dense.power(base, n, (1, [(1, 0, 0, 0)]),
                           lambda p, q: _mul(ab, p, q))
    return base if sign == 1 else (base[0], cp_scale(-1, base[1]))


def _atom(toks, ab):
    ch = toks.peek()
    if ch is None:
        toks.error("unexpected end of input")
    if ch[0] in _DIGITS:
        num = toks.number()
        if toks.peek() != "/":
            return 1, [(num, 0, 0, 0)]
        toks.take()
        pos, tok = toks.toks[toks.at]
        den = toks.number()
        if den == 0:
            raise PolyParseError("zero denominator", position=pos + len(tok))
        return den, [(num, 0, 0, 0)]
    if ch in _LETTERS:
        toks.take()
        return 1, list(_LETTERS[ch])
    if ch == "(":
        if toks.depth == _MAX_DEPTH:
            toks.error("expression nested too deeply")
        toks.take()
        toks.depth += 1
        inner = _expr(toks, ab)
        if toks.peek() != ")":
            toks.error("expected ')'")
        toks.take()
        toks.depth -= 1
        return inner
    toks.error("unexpected character %r" % ch)
