"""The parser's outcomes, pinned without a second parser: a recorded
digest of its outcomes on random strings, an oracle that builds the same
random expression as text and by QPoly arithmetic, spies on its fast
paths, and its typed errors for arguments of the wrong type."""

import hashlib
import random
from fractions import Fraction as Fr

import pytest

from quatpoly import dense, parser
from quatpoly.errors import PolyParseError, PreconditionViolation
from quatpoly.parser import parse_poly
from quatpoly.qpoly import QPoly
from quatpoly.quatalg import QuaternionAlgebra

H = QuaternionAlgebra(-1, -1)
ALGEBRAS = [H, QuaternionAlgebra(-1, -3), QuaternionAlgebra(Fr(-1, 2), -3)]
ALPHABET = "0123456789ijkx()+-*/^ "

# sha256 of the outcomes of RANDOM_STRINGS strings per algebra drawn by
# _random_strings, recorded from the parser that read every token with
# its position and took every sum, product and power through the general
# kernel operations; SUCCESSES of them parse
RECORDED_DIGEST = \
    "4f85f642ba20e4c846e0f449a321439cf3d1eff7dcd66e2cf31c464d43906d9f"
RANDOM_STRINGS = 7000
SUCCESSES = 4889


def _outcome(text, A):
    """(den, num) of the parsed QPoly, or the error's class, message and
    position, as text."""
    try:
        p = parse_poly(text, A)
    except PolyParseError as exc:
        return repr((type(exc).__name__, str(exc), exc.position))
    return repr((p.den, p.num))


def _random_strings(rng):
    return ["".join(rng.choice(ALPHABET) for _ in range(rng.randint(1, 16)))
            for _ in range(RANDOM_STRINGS)]


def test_random_strings_keep_their_recorded_outcomes():
    """Every value, error message and error position on 21000 random
    strings over the grammar's characters is as recorded."""
    rng = random.Random(35)
    h, successes = hashlib.sha256(), 0
    for A in ALGEBRAS:
        for text in _random_strings(rng):
            out = _outcome(text, A)
            successes += not out.startswith("('PolyParseError'")
            h.update(out.encode() + b"\n")
    assert successes == SUCCESSES
    assert h.hexdigest() == RECORDED_DIGEST


# -- an independent oracle: random expressions as text and as values ------

def _rational(rng, A):
    a, b = rng.randint(0, 30), rng.choice((1, 1, 2, 3, 7, 12))
    text = "%d" % a if b == 1 else "%d/%d" % (a, b)
    return text, QPoly(A, [A.scalar(Fr(a, b))])


def _atom(rng, A, depth):
    kind = rng.randrange(4 if depth else 3)
    if kind == 0:
        return _rational(rng, A)
    if kind == 1:
        name = rng.choice("ijk")
        return name, QPoly(A, [getattr(A, name)])
    if kind == 2:
        return "x", QPoly.x(A)
    text, value = _expr(rng, A, depth - 1)
    return "(" + text + ")", value


def _factor(rng, A, depth):
    text, value = _atom(rng, A, depth)
    if rng.random() < 0.3:
        n = rng.randint(0, 3)
        text, value = text + rng.choice(("^", " ^ ")) + "%d" % n, value ** n
    signs = rng.choice((0, 0, 0, 1, 2, 3))
    return "-" * signs + text, -value if signs % 2 else value


def _join(rng, left, right):
    """A product sign, or juxtaposition where the right factor cannot be
    read as part of the left one or as a sum."""
    if right[0] == "-" or rng.random() < 0.4:
        return rng.choice(("*", " * "))
    if left[-1].isdigit() and right[0].isdigit():
        return " "
    return rng.choice(("", " "))


def _term(rng, A, depth):
    text, value = _factor(rng, A, depth)
    for _ in range(rng.choice((0, 0, 1, 1, 2))):
        right, rvalue = _factor(rng, A, depth)
        text, value = text + _join(rng, text, right) + right, value * rvalue
    return text, value


def _expr(rng, A, depth):
    text, value = _term(rng, A, depth)
    lead = rng.choice(("", "", "-", "+"))
    text, value = lead + text, -value if lead == "-" else value
    for _ in range(rng.choice((0, 1, 1, 2, 3))):
        op = rng.choice("+-")
        right, rvalue = _term(rng, A, depth)
        text = text + rng.choice(("%s", " %s ")) % op + right
        value = value + rvalue if op == "+" else value - rvalue
    return text, value


def test_random_expressions_parse_to_their_arithmetic_value():
    """Sums, products by * and by juxtaposition, powers, runs of minus
    signs, rationals and parentheses, written as text and computed by
    QPoly arithmetic."""
    rng = random.Random(36)
    for A in ALGEBRAS:
        for _ in range(400):
            text, value = _expr(rng, A, rng.randint(0, 3))
            assert parse_poly(text, A) == value, (A.alpha, A.beta, text)


# -- the fast paths stay taken ---------------------------------------------

def _forbidden(*args):
    raise AssertionError("a fast path took the general operation")


def test_powers_of_x_are_monomials(monkeypatch):
    want = {n: QPoly.x(H) ** n for n in (0, 1, 2, 7, 1000)}
    monkeypatch.setattr(dense, "power", _forbidden)
    for n, value in want.items():
        assert parse_poly("x^%d" % n, H) == value
        assert parse_poly("-(x)^%d" % n, H) == -value


def test_products_with_a_rational_constant_take_no_product(monkeypatch):
    x, i = QPoly.x(H), QPoly(H, [H.i])
    want = {"3*i": i * 3, "i*3": i * 3, "2/3 x^2": x * x * Fr(2, 3),
            "(1/2)(x^2 + i)": (x * x + i) * Fr(1, 2),
            "(x + i)*2": (x + i) * 2, "0*x": x * 0, "x*0": x * 0,
            "-2*x^3*5": x * x * x * -10, "2^10": QPoly(H, [H.scalar(1024)]),
            "(3/2)^4 i": i * Fr(81, 16)}
    monkeypatch.setattr(parser, "cp_mul", _forbidden)
    for text, value in want.items():
        assert parse_poly(text, H) == value, text


def test_products_of_polynomials_take_the_product(monkeypatch):
    x, i, j = QPoly.x(H), QPoly(H, [H.i]), QPoly(H, [H.j])
    want = {"(x + i)(x - j)": (x + i) * (x - j), "i*j": i * j,
            "(x + 1)^3": (x + 1) * (x + 1) * (x + 1), "x i x": x * i * x}
    calls, cp_mul = [], parser.cp_mul

    def spy(*args):
        calls.append(args)
        return cp_mul(*args)

    monkeypatch.setattr(parser, "cp_mul", spy)
    for text, value in want.items():
        del calls[:]
        assert parse_poly(text, H) == value, text
        assert calls, text


# -- the bit cap measures what is formed -----------------------------------

def test_every_number_formed_is_measured(monkeypatch):
    """Under a 40-bit cap, every power step, product and sum over a new
    denominator that the parser lets through is within the cap, and no
    product or sum it forms, let through or not, has more than 2 * 40 +
    12 + bits(alpha) + bits(beta) bits, plus 4 for sums over one
    denominator: each operand was measured before it.  Over integral
    and rational algebras, on the random strings and random expressions
    above and on products and sums of powers."""
    cap = 40
    texts = _random_strings(random.Random(37))[:3000]
    rng = random.Random(38)
    texts += [_expr(rng, H, rng.randint(0, 3))[0] for _ in range(300)]
    texts += ["(i + j/3)^7 (x - k/5)^5 + 1/7 - (2i - 3/4)^9", "i^999",
              "(1/2 + 1/3 + 1/5 + 1/7)^20 (x + i)^3 - (j k)^50 x",
              "((2x + 3i)^4 + 5/6)^6 (7 - j)^8", "i i i j k (i + j)^9",
              "(7x + 7)^2 (3x + 3)(3x + 3)"]
    mul, sized, formed, passed = parser._mul, parser._sized, [], []

    def product(ab, p, q):
        out = mul(ab, p, q)
        formed.append(parser._bits(out))
        return out

    def record(value, toks, at):
        formed.append(parser._bits(value))
        out = sized(value, toks, at)
        passed.append(parser._bits(out))
        return out

    monkeypatch.setattr(parser, "_MAX_BITS", cap)
    monkeypatch.setattr(parser, "_MAX_DIGITS", cap * 3 // 10)
    monkeypatch.setattr(parser, "_mul", product)
    monkeypatch.setattr(parser, "_sized", record)
    for A in ALGEBRAS + [QuaternionAlgebra(-1000003, -999),
                         QuaternionAlgebra(Fr(-7, 1000003), Fr(-999, 5))]:
        del formed[:], passed[:]
        for text in texts:
            try:
                parse_poly(text, A)
            except PolyParseError:
                pass
        assert len(formed) > 3000
        assert max(passed) <= cap
        k = sum(parser._bits((1, [(c, 0, 0, 0)])) for c in (A.alpha, A.beta))
        assert max(formed) <= 2 * cap + 12 + k + 4, (A.alpha, A.beta)


# -- typed errors ------------------------------------------------------------

@pytest.mark.parametrize("text, A", [
    (None, H), (123, H), (b"x+1", H), (["x"], H),
    ("x+1", None), ("x+1", (-1, -1)), ("x+1", "H"),
])
def test_arguments_of_the_wrong_type_are_typed_errors(text, A):
    with pytest.raises(PreconditionViolation):
        parse_poly(text, A)
