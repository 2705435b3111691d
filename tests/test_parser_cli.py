import json
import os
import random
import re
import shlex
import subprocess
import sys
from fractions import Fraction as Fr
from pathlib import Path

import pytest

from quatpoly import cli, parser, quadform
from quatpoly.cli import (EXIT_INTERNAL, EXIT_OK, EXIT_SEARCH, EXIT_SPLIT,
                          EXIT_USAGE, run)
from quatpoly.errors import (InternalInvariantViolation, InvalidCertificate,
                             PolyParseError, PreconditionViolation,
                             SplitAlgebra)
from quatpoly.parser import format_qpoly, parse_poly
from quatpoly.qpoly import QPoly, qp_evaluate
from quatpoly.quadform import ZeroDivisorCertificate
from quatpoly.quatalg import QuaternionAlgebra
from quatpoly.ratpoly import from_int_list, rp_factor

H = QuaternionAlgebra(-1, -1)
README = Path(__file__).resolve().parents[1] / "README.md"
SRC = Path(__file__).resolve().parents[1] / "src"
# strings outside the grammar -?[0-9]+(/[0-9]+)? of rationals in flags and
# certificate fields, among them each one that a reader once accepted
NOT_RATIONAL = ["1.5", "1e3", " 1 ", "+1", "\u0661", " 1_0 /3",
                "\u0661/\u0662", "1/0", "", "1/-2", "3\n"]

# nested past the parser's limit of 100 levels
DEEP = "(" * 1000 + "x" + ")" * 1000


def P(text, A=H):
    return parse_poly(text, A)


def _down(frames, fn):
    """fn() called from frames stack frames further down."""
    return fn() if frames == 0 else _down(frames - 1, fn)


class TestParser:
    def test_basic_forms(self):
        assert P("x") == QPoly.x(H)
        assert P("i") == QPoly(H, [H.i])
        assert P("3/2") == QPoly(H, [H.scalar(Fr(3, 2))])
        assert P("2i") == QPoly(H, [H.i * 2])
        assert P("-x") == -QPoly.x(H)
        assert P("x^3") == QPoly.x(H) ** 3

    def test_juxtaposition_and_star(self):
        assert P("2*i*x") == P("2ix")
        assert P("(3/2)i*x - j") == P("3/2*i*x - j")
        assert P("2x(x+1)") == P("2x^2 + 2x")

    def test_noncommutative_order_respected(self):
        assert P("ij") == QPoly(H, [H.k])
        assert P("ji") == QPoly(H, [-H.k])
        assert P("(x - i)(x - j)") == P("x^2 - (i+j)x + k")

    def test_signs(self):
        assert P("-2 + i") == QPoly(H, [H.element([-2, 1, 0, 0])])
        assert P("- x + 1") == P("1 - x")
        assert P("x - -1") == P("x + 1")
        assert P("3 - 2i^2") == P("5")

    def test_whitespace(self):
        assert P("  ( 1 + k ) * x ^ 2  ") == P("(1+k)x^2")

    def test_parse_errors_carry_position(self):
        for bad in ("", "x +", "(x", "x^", "1/0", "x^-2", "y", "3//2"):
            with pytest.raises(PolyParseError):
                P(bad)
        try:
            P("x + @")
        except PolyParseError as exc:
            assert "position" in str(exc)

    def test_numbers_are_ascii_digits(self):
        # str.isdigit accepts superscripts and other scripts' digits, int
        # does not read the superscripts; neither is a number here
        for bad, pos in (("\u00b2", 0), ("x^\u00b2", 2), ("3/\u00b2", 2),
                         ("\u0663", 0), ("3\u0663", 1), ("x + \u0663x", 4)):
            with pytest.raises(PolyParseError) as ei:
                P(bad)
            assert ei.value.position == pos, bad
        with pytest.raises(PolyParseError, match="unexpected character"):
            P("\u00b2")

    def test_deep_nesting_is_a_parse_error(self):
        with pytest.raises(PolyParseError, match="nested too deeply") as ei:
            P(DEEP)
        # at the 101st "("
        assert ei.value.position == 100
        assert P("(" * 100 + "x" + ")" * 100) == QPoly.x(H)
        # signs are read in a loop and do not nest
        assert P("-" * 200 + "x") == QPoly.x(H)
        assert P("-" * 2000 + "x") == QPoly.x(H)
        assert P("-" * 2001 + "x^2") == -QPoly.x(H) ** 2

    def test_degree_cap(self):
        # an exponent, a power or a product of degree above 1000 is an
        # error at the exponent or at the right factor, before its list
        # is built; sums and products are trimmed, so cancelled terms and
        # zero factors do not count
        assert P("x^1000") == QPoly.x(H) ** 1000
        assert P("(x^600 - x^600 + 1)*x^600") == QPoly.x(H) ** 600
        assert P("0*x^600*x^600") == QPoly(H, [])
        assert P("(x^600 - x^600)^1000") == QPoly(H, [])
        for bad, pos in (("x^1001", 2), ("x^600*x^600", 6), ("2^1001", 2)):
            with pytest.raises(PolyParseError,
                               match="degree above 1000") as ei:
                P(bad)
            assert ei.value.position == pos, bad

    def test_bit_cap(self, monkeypatch):
        """A power step, product or sum whose numbers pass the bit cap is
        an error at the exponent, the right factor or the term, as soon
        as it is formed; tested with a low cap, so no large integer is
        built."""
        monkeypatch.setattr(parser, "_MAX_BITS", 1000)
        # i^2 = alpha: over a 200-bit alpha, i^4 = alpha^2 has 401 bits and
        # a product of ten i's is alpha^5, 1001 bits
        A = QuaternionAlgebra(-2 ** 200, -1)
        # 9^99 has 314 bits; (9^99)^99 passes 1000 at its fourth step
        assert P("9^99") == P("9^98") * 9
        for bad, pos, B in (("((9^99)^99)^99", 8, H), ("(9^99)^99", 7, H),
                            ("x - (9^99)^99", 11, H), ("2^500*2^500", 6, H),
                            ("(2^400 x)^3", 10, H),
                            ("(1/3)^300 + (1/5)^300", 12, H),
                            ("i^1000", 2, A), ("i^4 i^4 i^4", 8, A),
                            ("i " * 10, 18, A)):
            with pytest.raises(PolyParseError,
                               match="number above 1000 bits") as ei:
                P(bad, B)
            assert ei.value.position == pos, bad
        # 2^499 has 500 bits and 2^998 999; x^n is built with no product
        assert P("2^499*2^499") == QPoly(H, [H.scalar(2 ** 998)])
        assert P("(2^400 x)^2") == P("2^400 x") ** 2
        assert P("x^1000") == QPoly.x(H) ** 1000
        # 2^500 over 2^500: 501 bits, brought to lowest terms only once
        assert P("(2^500)(1/2^500)") == QPoly(H, [H.one()])
        # 476 and 465 bits, over a 941-bit common denominator
        assert P("(1/3)^300 + (1/5)^200") \
            == QPoly(H, [H.scalar(Fr(1, 3 ** 300) + Fr(1, 5 ** 200))])
        assert P("i^4", A) == QPoly(A, [A.scalar(2 ** 400)])
        # alpha^2 i: 401 bits
        assert P("i^5", A) == QPoly(A, [A.scalar(2 ** 400) * A.i])
        assert P("i " * 9, A) == QPoly(A, [A.scalar(2 ** 800) * A.i])

    def test_bit_cap_reads_fraction_coordinates(self):
        """Over a non-integral algebra the kernel holds Fractions; their
        bits are those of the larger of numerator and denominator."""
        A = QuaternionAlgebra(Fr(-1, 2), -3)
        assert parser._bits((1, [(Fr(-1, 2 ** 70), 0, 0, 0)])) == 71
        assert parser._bits((3, [(0, Fr(2 ** 40, 3), 0, 0), (5, 0, 0, 0)])) \
            == 41
        assert P("i*i", A) == QPoly(A, [A.scalar(Fr(-1, 2))])

    def test_digit_cap(self, monkeypatch):
        """A number of more than parser._MAX_DIGITS digits, a numerator,
        denominator or exponent, is an error at that number, before it is
        read; tested with a low cap.  The cap's numbers fit the bit cap."""
        assert 10 ** parser._MAX_DIGITS < 2 ** parser._MAX_BITS
        n = 30
        monkeypatch.setattr(parser, "_MAX_DIGITS", n)
        assert P("9" * n) == QPoly(H, [H.scalar(10 ** n - 1)])
        for bad, pos in (("9" * (n + 1), 0), ("x + 1/" + "7" * (n + 1), 6),
                         ("x^" + "0" * (n + 1), 2)):
            with pytest.raises(PolyParseError,
                               match="number above %d digits" % n) as ei:
                P(bad)
            assert ei.value.position == pos

    def test_nesting_limit_does_not_depend_on_the_caller(self):
        text = "(" * 150 + "x" + ")" * 150

        def position():
            with pytest.raises(PolyParseError,
                               match="nested too deeply") as ei:
                P(text)
            return ei.value.position

        assert position() == _down(300, position) == 100
        assert _down(300, lambda: P("(" * 100 + "x" + ")" * 100)) \
            == QPoly.x(H)

    def test_round_trip_idempotent(self):
        rng = random.Random(61)
        for A in (H, QuaternionAlgebra(-1, -3)):
            for _ in range(250):
                deg = rng.randint(0, 5)
                coeffs = [A.element([Fr(rng.randint(-9, 9),
                                        rng.randint(1, 4))
                                     for _ in range(4)])
                          for _ in range(deg + 1)]
                p = QPoly(A, coeffs)
                text = format_qpoly(p)
                back = parse_poly(text, A)
                assert back == p
                assert format_qpoly(back) == text

    def test_canonical_output_examples(self):
        assert str(P("x + -i")) == "x + (-i)"
        assert str(P("(1+k)x^2")) == "(1+k)*x^2"
        assert str(P("3/2x^2")) == "3/2*x^2"
        assert str(P("0")) == "0"
        assert str(P("x^2 + 0x + 1")) == "x^2 + 1"


QUARTIC_MIN = [6, 16, 11, 0, 1]


def write_cert(tmp_path):
    cert = ZeroDivisorCertificate(
        -1, -1, from_int_list(QUARTIC_MIN),
        (from_int_list([0]),
         from_int_list([154, 211, -12, 19]),
         from_int_list([97, 136, -11, 13]), from_int_list([53])))
    path = tmp_path / "cert.json"
    cert.save(path)
    return str(path)


class TestCli:
    def test_factor_human(self, capsys):
        code = run(["factor", "(x - i)(x - j)", "--alpha", "-1",
                    "--beta", "-1", "--verify"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "factor:" in out and "verified: PASS" in out

    def test_factor_json_reparses(self, capsys):
        code = run(["factor", "(1+k)(x - i)(x^2+1)", "--alpha", "-1",
                    "--beta", "-1", "--json", "--verify"])
        assert code == EXIT_OK
        rep = json.loads(capsys.readouterr().out)
        assert rep["command"] == "factor"
        assert rep["algebra"] == {"alpha": "-1/1", "beta": "-1/1"}
        assert rep["verified"] is True
        prod = QPoly(H, [H.element([Fr(c) for c in rep["leading"]])])
        for f in rep["factors"]:
            coeffs = [H.element([Fr(c) for c in q]) for q in f]
            prod = prod * QPoly(H, coeffs)
        assert prod == P("(1+k)(x - i)(x^2+1)")
        # display strings parse back to the same factors
        for disp, f in zip(rep["factors_display"], rep["factors"]):
            coeffs = [H.element([Fr(c) for c in q]) for q in f]
            assert P(disp) == QPoly(H, coeffs)

    def test_roots(self, capsys):
        code = run(["roots", "x^2 + 1", "--alpha", "-1", "--beta", "-1",
                    "--json", "--verify"])
        assert code == EXIT_OK
        rep = json.loads(capsys.readouterr().out)
        assert len(rep["roots"]) == 1
        assert rep["verified"] is True

    def test_irreducible(self, capsys):
        code = run(["irreducible", "x^2 - 2", "--alpha", "-1",
                    "--beta", "-1", "--json"])
        assert code == EXIT_OK
        assert json.loads(capsys.readouterr().out)["irreducible"] is True

    def test_beck_gcrd_eval(self, capsys):
        assert run(["beck", "(x^2+1)(x - i)", "--alpha", "-1",
                    "--beta", "-1", "--verify"]) == EXIT_OK
        assert "verified: PASS" in capsys.readouterr().out
        assert run(["gcrd", "(x-j)(x - i)", "(x-k)(x - i)", "--alpha", "-1",
                    "--beta", "-1", "--json"]) == EXIT_OK
        rep = json.loads(capsys.readouterr().out)
        assert P(rep["gcrd_display"]) == P("x - i")
        assert run(["eval", "x^2 + 1", "i", "--alpha", "-1",
                    "--beta", "-1", "--json"]) == EXIT_OK
        rep = json.loads(capsys.readouterr().out)
        assert rep["value_display"] == "0"

    def test_parse_error_exit(self, capsys):
        code = run(["factor", "x + @", "--alpha", "-1", "--beta", "-1"])
        assert code == EXIT_USAGE
        assert "position" in capsys.readouterr().err

    def test_degree_cap_exit(self, capsys):
        code = run(["factor", "x^1001", "--alpha", "-1", "--beta", "-1"])
        assert code == EXIT_USAGE
        assert "position 2" in capsys.readouterr().err

    def test_integer_size_inputs(self, monkeypatch, capsys):
        """The three integer-size inputs end with a documented exit code:
        under a low bit cap each is a parse error (exit 1), and the
        message names the cap and the exponent."""
        monkeypatch.setattr(parser, "_MAX_BITS", 256)
        for argv in (["factor", "x - (9^99)^99"], ["eval", "(9^99)^99", "0"],
                     ["factor", "((9^99)^99)^99"]):
            assert run(argv + ["--alpha", "-1", "--beta", "-1"]) == EXIT_USAGE
            err = capsys.readouterr().err
            assert re.fullmatch(r"error: number above 256 bits "
                                r"\(at position \d+\)\n", err), err
        with pytest.raises(PolyParseError, match="above 256 bits") as ei:
            P("((9^99)^99)^99")
        assert ei.value.position == 4

    def test_answers_past_the_int_digit_limit_print(self, capsys):
        """run lifts Python's limit on the digits of an int for its
        command and puts it back: with the limit at its lowest, 640
        digits, the 696-digit value 9^729 prints in full, a 701-digit
        --alpha is a usage error as before, and outside run the limit
        holds again."""
        value = 9 ** 729
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            assert run(["eval", "(9^27)^27", "i", "--alpha", "-1",
                        "--beta", "-1", "--json"]) == EXIT_OK
            assert sys.get_int_max_str_digits() == 640
            with pytest.raises(ValueError):
                str(value)
            assert run(["eval", "(9^27)^27", "0", "--alpha", "1",
                        "--beta", "1"]) == EXIT_SPLIT
            assert sys.get_int_max_str_digits() == 640
            # the options are read before the limit is lifted
            assert run(["eval", "x", "0", "--alpha", "-1" + "0" * 700,
                        "--beta", "-1"]) == EXIT_USAGE
            assert sys.get_int_max_str_digits() == 640
        finally:
            sys.set_int_max_str_digits(limit)
        out = json.loads(capsys.readouterr().out)
        assert out["value"] == ["%d/1" % value, "0/1", "0/1", "0/1"]

    def test_numbers_past_the_int_digit_limit_parse_only_in_run(self,
                                                               capsys):
        """Outside run, a number with more digits than Python reads into
        an int is a parse error at that number, not a bare ValueError;
        run lifts the limit, so there the same number parses."""
        big = "7" * 700
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            with pytest.raises(PolyParseError,
                               match="number above 640 digits") as ei:
                P("x + " + big)
            assert ei.value.position == 4
            assert run(["eval", "x + " + big, "0", "--alpha", "-1",
                        "--beta", "-1"]) == EXIT_OK
            assert sys.get_int_max_str_digits() == 640
        finally:
            sys.set_int_max_str_digits(limit)
        assert big in capsys.readouterr().out

    def test_display_past_the_int_digit_limit_is_a_typed_error(self):
        """Outside run, str of a QPoly, Quaternion or RatPoly with a
        numerator or denominator past Python's limit on the digits of an
        int is a PreconditionViolation that names the limit, not a bare
        ValueError; under the default limit the same values print."""
        big = 10 ** 700
        values = [QPoly(H, [H.element([0, big, 0, 0]), H.one()]),
                  H.element([Fr(1, big), 0, 0, 0]),
                  from_int_list([1, big]), from_int_list([1, 1], big)]
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            for v in values:
                with pytest.raises(PreconditionViolation,
                                   match="number above 640 digits"):
                    str(v)
            with pytest.raises(PreconditionViolation):
                format_qpoly(values[0])
            assert str(QPoly(H, [H.element([1, 2, Fr(3, 4), -1])])) == \
                "(1+2i+3/4j-k)"
        finally:
            sys.set_int_max_str_digits(limit)
        assert [str(v) for v in values] == [
            "x + (%di)" % big, "1/%d" % big, "%d*x + 1" % big,
            "1/%d*x + 1/%d" % (big, big)]

    def test_algebra_past_the_int_digit_limit_is_a_typed_error(self):
        """Outside run, past Python's limit on the digits of an int, a
        split algebra is still a SplitAlgebra, and repr of a RatPoly or
        a QuaternionAlgebra is a PreconditionViolation, as str is; under
        the default limit the same reprs print."""
        big = 10 ** 700
        values = [from_int_list([1, big]), from_int_list([1], big),
                  QuaternionAlgebra(-big, -1)]
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            # 4^1000 is a square, so (4^1000, -1) is split like (1, -1)
            with pytest.raises(SplitAlgebra, match="matrix algebra"):
                QuaternionAlgebra(4 ** 1000, -1)
            for v in values:
                with pytest.raises(PreconditionViolation,
                                   match="number above 640 digits"):
                    repr(v)
        finally:
            sys.set_int_max_str_digits(limit)
        assert [repr(v) for v in values] == [
            "RatPoly([1, %d])" % big, "RatPoly([1/%d])" % big,
            "QuaternionAlgebra(%d, -1)" % -big]
        assert repr(QuaternionAlgebra(Fr(-1, 2), -3)) == \
            "QuaternionAlgebra(-1/2, -3)"
        with pytest.raises(SplitAlgebra,
                           match=r"^\(4, -1 / Q\) is a matrix algebra"):
            QuaternionAlgebra(4, -1)

    def test_factorization_past_the_int_digit_limit_is_a_typed_error(self):
        """Outside run, repr of a RatFactorization whose content is past
        Python's limit on the digits of an int is a PreconditionViolation,
        as repr of its RatPoly factors is; under the default limit it
        prints the content as str prints a rational."""
        big = 10 ** 700
        fac = rp_factor(from_int_list([big, big]))
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            with pytest.raises(PreconditionViolation,
                               match="number above 640 digits"):
                repr(fac)
        finally:
            sys.set_int_max_str_digits(limit)
        assert repr(fac) == "RatFactorization(%d, [(RatPoly([1, 1]), 1)])" \
            % big
        assert repr(rp_factor(from_int_list([3, 0, 6], 4))) == \
            "RatFactorization(3/2, [(RatPoly([1/2, 0, 1]), 1)])"

    def test_internal_error_exit(self, monkeypatch, capsys):
        def broken(*args, **kwargs):
            raise InternalInvariantViolation("planted")
        monkeypatch.setattr(cli, "factor", broken)
        assert run(["factor", "x^2 + 1", "--alpha", "-1",
                    "--beta", "-1"]) == EXIT_INTERNAL
        assert capsys.readouterr().err == "internal error: planted\n"

    def test_usage_error_exits(self, capsys):
        assert run(["eval", "x^2 + 1", "x", "--alpha", "-1",
                    "--beta", "-1"]) == EXIT_USAGE
        assert capsys.readouterr().err == \
            "error: evaluation point must be a constant\n"
        assert run(["factor", "x^2 + 1", "--alpha", "-1", "--beta", "-1",
                    "--max-height", "2.5"]) == EXIT_USAGE
        assert "--max-height: not an integer: '2.5'" in \
            capsys.readouterr().err

    def test_console_entry_point_passes_the_exit_status(self):
        """main, the quatpoly script, exits with run's code."""
        env = dict(os.environ, PYTHONPATH=str(SRC))
        ab = ["--alpha", "-1", "--beta", "-1"]
        for argv, code in ((["factor", "x^2+1"] + ab, EXIT_OK),
                           (["factor", "x^2+1", "--alpha", "1",
                             "--beta", "1"], EXIT_SPLIT),
                           (["eval", "x^2+1", "x"] + ab, EXIT_USAGE)):
            proc = subprocess.run([sys.executable, "-m", "quatpoly.cli",
                                   *argv], env=env, capture_output=True,
                                  text=True, timeout=120)
            assert proc.returncode == code, (argv, proc.stderr)

    def test_arity_error_exit(self, capsys):
        assert run(["gcrd", "x", "--alpha", "-1", "--beta", "-1"]) == \
            EXIT_USAGE
        capsys.readouterr()

    def test_split_algebra_exit(self, capsys):
        code = run(["factor", "x^2+1", "--alpha", "-1", "--beta", "2"])
        assert code == EXIT_SPLIT
        capsys.readouterr()

    def test_search_exhausted_exit(self, capsys):
        poly = "x^4 + 11x^2 + 16x + 6"
        code = run(["factor", poly, "--alpha", "-1", "--beta", "-1",
                    "--max-height", "2"])
        err = capsys.readouterr().err
        assert code == EXIT_SEARCH
        assert "certificate" in err

    def test_quartic_subfields_factor_no_discriminant(self, monkeypatch,
                                                      capsys):
        """The quadratic subfields of this quartic come from its resolvent
        cubic, which has no rational root: 4 disc, whose factorization
        once gave no answer in 20 s, is never formed, and the search
        gives up with exit code 3 on the central factor."""
        def forbidden(L):
            raise AssertionError("a quartic reached nf_quadratic_candidates")

        monkeypatch.setattr(quadform, "nf_quadratic_candidates", forbidden)
        poly = ("x^4 - 1875550258920x^2 + 6505750376804x"
                " + 2042929474347385272996021")
        code = run(["factor", poly, "--alpha", "-1", "--beta", "-1"])
        err = capsys.readouterr().err
        assert code == EXIT_SEARCH
        assert ("central factor x^4 - 1875550258920*x^2 + 6505750376804*x"
                " + 2042929474347385272996021 needs a certificate") in err

    def test_quaternary_height_cap_exit(self, monkeypatch, capsys):
        # the subfield route embeds Q(sqrt -14) through represent_pure
        monkeypatch.setattr(quadform, "_QUATERNARY_HEIGHT_CAP", 1)
        code = run(["factor", "x^2 + 14", "--alpha", "-1", "--beta", "-1"])
        assert code == EXIT_SEARCH
        assert "height cap of 1" in capsys.readouterr().err

    def test_certificate_flow(self, tmp_path, capsys):
        path = write_cert(tmp_path)
        poly = "x^4 + 11x^2 + 16x + 6"
        code = run(["factor", poly, "--alpha", "-1", "--beta", "-1",
                    "--certificate", path, "--json", "--verify"])
        assert code == EXIT_OK
        rep = json.loads(capsys.readouterr().out)
        assert len(rep["factors"]) == 2
        assert rep["verified"] is True

    def test_readme_certificate_example(self, tmp_path, monkeypatch,
                                        capsys):
        # the README's certificate JSON and the command using it, verbatim
        text = README.read_text()
        cert = re.search(r"```json\n(.*?)```", text, re.S).group(1)
        (tmp_path / "cert.json").write_text(cert)
        line = next(ln for ln in text.splitlines()
                    if ln.startswith("quatpoly ") and "cert.json" in ln)
        argv = shlex.split(line)
        monkeypatch.chdir(tmp_path)
        assert argv[0] == "quatpoly" and run(argv[1:]) == EXIT_OK
        assert "factor:" in capsys.readouterr().out

    def test_max_height_below_one_rejected(self, capsys):
        for bad in ("0", "-3"):
            code = run(["factor", "x^4 + 11x^2 + 16x + 6", "--alpha", "-1",
                        "--beta", "-1", "--max-height", bad])
            assert code == EXIT_USAGE
            assert "at least 1" in capsys.readouterr().err

    def test_certificate_wrong_algebra(self, tmp_path, capsys):
        path = write_cert(tmp_path)
        code = run(["factor", "x^2+1", "--alpha", "-1", "--beta", "-3",
                    "--certificate", path])
        assert code == EXIT_USAGE
        capsys.readouterr()

    @pytest.mark.parametrize("minpoly", [
        ["12/1", "32/1", "22/1", "0/1", "2/1"], []])
    def test_certificate_minpoly_must_be_monic(self, tmp_path, capsys,
                                               minpoly):
        """The README certificate with its minpoly doubled, which factor
        would never look up, or zero: an invalid certificate (exit 1)."""
        path = Path(write_cert(tmp_path))
        data = json.loads(path.read_text())
        data["minpoly"] = minpoly
        path.write_text(json.dumps(data))
        code = run(["factor", "x^4 + 11x^2 + 16x + 6", "--alpha", "-1",
                    "--beta", "-1", "--certificate", str(path)])
        assert code == EXIT_USAGE
        assert "minpoly must be monic nonconstant" in capsys.readouterr().err

    def test_certificate_missing_file(self, tmp_path, capsys):
        code = run(["factor", "x^2+1", "--alpha", "-1", "--beta", "-1",
                    "--certificate", str(tmp_path / "nope.json")])
        assert code == EXIT_USAGE
        capsys.readouterr()

    @pytest.mark.parametrize("key, value", [
        ("alpha", "1/0"), ("q0", 5), ("q1", [1.5]), ("minpoly", None),
        ("q3", "53"), (None, None)])
    def test_certificate_malformed_file(self, tmp_path, capsys, key, value):
        # key None: the whole certificate wrapped in a top-level list
        path = Path(write_cert(tmp_path))
        data = json.loads(path.read_text())
        data = [data] if key is None else dict(data, **{key: value})
        path.write_text(json.dumps(data))
        code = run(["factor", "x^4 + 11x^2 + 16x + 6", "--alpha", "-1",
                    "--beta", "-1", "--certificate", str(path)])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: malformed")

    @pytest.mark.parametrize("text", NOT_RATIONAL)
    def test_rational_flag_rejected(self, text, capsys):
        code = run(["roots", "x^2 + 1", "--alpha", text, "--beta", "-1"])
        assert code == EXIT_USAGE
        assert "not a rational number" in capsys.readouterr().err

    @pytest.mark.parametrize("text", NOT_RATIONAL)
    def test_rational_certificate_field_rejected(self, tmp_path, capsys,
                                                 text):
        good = json.loads(Path(write_cert(tmp_path)).read_text())
        path = tmp_path / "bad.json"
        for key, value in (("alpha", text), ("q1", ["1/1", text])):
            data = dict(good, **{key: value})
            with pytest.raises(InvalidCertificate, match="not a rational"):
                ZeroDivisorCertificate.from_dict(data)
            path.write_text(json.dumps(data))
            code = run(["factor", "x^4 + 11x^2 + 16x + 6", "--alpha", "-1",
                        "--beta", "-1", "--certificate", str(path)])
            assert code == EXIT_USAGE
            assert "not a rational number" in capsys.readouterr().err

    def test_rationals_in_the_grammar_accepted(self, tmp_path, capsys):
        """Leading zeros, a minus sign and a fraction not in lowest terms
        read as the rational they write, on both paths."""
        code = run(["roots", "x^2 + 1", "--alpha", "-002/2", "--beta",
                    "-03", "--json"])
        assert code == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["algebra"] == {"alpha": "-1/1", "beta": "-3/1"}
        data = json.loads(Path(write_cert(tmp_path)).read_text())
        data.update(alpha="-2/2", q3=["0106/2"])
        cert = ZeroDivisorCertificate.from_dict(data)
        assert cert.alpha == -1 and cert.q[3] == from_int_list([53])

    @pytest.mark.parametrize("content", [b"\xff\xfe\x00", b"not json"],
                             ids=["not-utf8", "not-json"])
    def test_certificate_undecodable_file(self, tmp_path, capsys, content):
        path = tmp_path / "cert.json"
        path.write_bytes(content)
        with pytest.raises(InvalidCertificate, match="^malformed"):
            ZeroDivisorCertificate.load(str(path))
        code = run(["factor", "x^4 + 11x^2 + 16x + 6", "--alpha", "-1",
                    "--beta", "-1", "--certificate", str(path)])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: malformed")

    @pytest.mark.parametrize("text, code", [
        (DEEP, EXIT_USAGE), ("-" * 2000 + "x", EXIT_OK)],
        ids=["parentheses", "minus"])
    def test_deep_nesting_exit(self, text, code, capsys):
        # "--" ends the options, as text starting with "--" needs
        assert run(["factor", "--alpha", "-1", "--beta", "-1", "--",
                    text]) == code
        err = capsys.readouterr().err
        if code == EXIT_OK:
            assert err == ""
        else:
            assert err.startswith("error: expression nested too deeply")

    @pytest.mark.parametrize("argv, key, want", [
        (["roots", "x^2 + 1/2", "--alpha", "-1/2", "--beta", "-3"],
         "roots", [["0/1", "1/1", "0/1", "0/1"]]),
        (["roots", "x^2 + 1/2", "--alpha=-1/2", "--beta", "-3"],
         "roots", [["0/1", "1/1", "0/1", "0/1"]]),
        (["factor", "x^2+1", "--alpha", "-1", "--beta", "-3/1"],
         "factors_display", ["x + (-i)", "x + (i)"]),
        (["eval", "x^2+1", "-i", "--alpha", "-1", "--beta", "-1"],
         "value", ["0/1", "0/1", "0/1", "0/1"])],
        ids=["alpha", "alpha=", "beta", "point"])
    def test_values_may_start_with_a_minus_sign(self, argv, key, want,
                                                capsys):
        # -h is the one short option: every other "-..." is a value
        assert run(argv + ["--json"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)[key] == want

    def test_unknown_short_option_is_a_bad_value(self, capsys):
        assert run(["factor", "x^2+1", "-z", "--alpha", "-1",
                    "--beta", "-1"]) == EXIT_USAGE
        assert run(["-h"]) == EXIT_OK
        assert "usage: quatpoly" in capsys.readouterr().out

    def test_certificate_file_is_validated_once(self, tmp_path, monkeypatch,
                                                capsys):
        path = write_cert(tmp_path)
        calls = []
        validate = ZeroDivisorCertificate.validate
        monkeypatch.setattr(ZeroDivisorCertificate, "validate",
                            lambda self: calls.append(self) or validate(self))
        assert run(["factor", "x^4 + 11x^2 + 16x + 6", "--alpha", "-1",
                    "--beta", "-1", "--max-height", "1", "--certificate",
                    path]) == EXIT_OK
        assert len(calls) == 1
        assert "factor:" in capsys.readouterr().out

    def test_superscript_exponent_exit(self, capsys):
        code = run(["factor", "x^\u00b2", "--alpha", "-1", "--beta", "-1"])
        assert code == EXIT_USAGE
        assert "position" in capsys.readouterr().err

    def test_shared_parser_keeps_no_state(self, tmp_path, monkeypatch,
                                          capsys):
        loaded = []
        load = ZeroDivisorCertificate.load
        monkeypatch.setattr(ZeroDivisorCertificate, "load", staticmethod(
            lambda path: loaded.append(path) or load(path)))
        path = write_cert(tmp_path)
        argv = ["factor", "x^4 + 11x^2 + 16x + 6", "--alpha", "-1",
                "--beta", "-1", "--max-height", "1"]
        assert run(argv + ["--certificate", path]) == EXIT_OK
        assert loaded == [path]
        # without the flag the certificate list is empty again
        assert run(argv) == EXIT_SEARCH
        assert loaded == [path]
        assert run(["factor", "x"]) == EXIT_USAGE
        assert run(["--help"]) == EXIT_OK
        assert "usage: quatpoly" in capsys.readouterr().out
        assert run(["roots", "x^2 + 1", "--alpha", "-1", "--beta", "-1",
                    "--json"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["command"] == "roots"

    def test_readme_cli_examples(self, capsys):
        block = re.search(r"## CLI\n.*?```sh\n(.*?)```", README.read_text(),
                          re.S).group(1)
        lines = block.strip().splitlines()
        assert len(lines) >= 5
        for line in lines:
            argv = shlex.split(line)
            assert argv[0] == "quatpoly" and run(argv[1:]) == EXIT_OK, line
        capsys.readouterr()

    def test_readme_library_example(self, capsys):
        code = re.search(r"## Library\n\n```python\n(.*?)```",
                         README.read_text(), re.S).group(1)
        exec(code, {})
        f1, f2, r1, r2 = capsys.readouterr().out.splitlines()
        p = P("(x - i)(x - 2 - j)")
        assert P(f1) * P(f2) == p
        for r in (r1, r2):
            assert qp_evaluate(p, P(r)[0]).is_zero

    def test_bad_usage(self, capsys):
        assert run(["factor", "x"]) == EXIT_USAGE  # missing --alpha/--beta
        assert run(["bogus", "x", "--alpha", "-1", "--beta", "-1"]) == \
            EXIT_USAGE
        capsys.readouterr()


def format_qpoly_reference(p):
    """The format_qpoly that dense.format_terms replaced."""
    if p.is_zero:
        return "0"
    pieces = []
    for m in range(p.degree, -1, -1):
        c = p[m]
        if c.is_zero:
            continue
        if m == 0:
            xpart = None
        elif m == 1:
            xpart = "x"
        else:
            xpart = "x^%d" % m
        if c.is_central:
            s = c.coords[0]
            if xpart is None:
                body = str(s)
            elif s == 1:
                body = xpart
            elif s == -1:
                body = "-" + xpart
            else:
                body = "%s*%s" % (s, xpart)
        else:
            body = "(%s)" % c if xpart is None else "(%s)*%s" % (c, xpart)
        pieces.append(body)
    out = pieces[0]
    for body in pieces[1:]:
        if body.startswith("-"):
            out += " - " + body[1:]
        else:
            out += " + " + body
    return out


def test_format_qpoly_matches_the_old_printer():
    """Zero, +-1, rational and non-central coefficients over (-1,-1) and
    (-1,-3), printed by the shared term printer and the old one."""
    rng = random.Random(62)

    def scalar():
        kind = rng.randrange(4)
        if kind == 0:
            return Fr(0)
        if kind == 1:
            return Fr(rng.choice((1, -1)))
        return Fr(rng.randint(-20, 20), rng.randint(1, 9))

    for A in (H, QuaternionAlgebra(-1, -3)):
        for _ in range(3000):
            coeffs = []
            for _ in range(rng.randint(0, 6)):
                if rng.random() < 0.5:
                    coeffs.append(A.scalar(scalar()))
                else:
                    coeffs.append(A.element([scalar() for _ in range(4)]))
            p = QPoly(A, coeffs)
            assert format_qpoly(p) == format_qpoly_reference(p)
