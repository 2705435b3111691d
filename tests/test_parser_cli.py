import json
import random
import re
import shlex
from fractions import Fraction as Fr
from pathlib import Path

import pytest

from quatpoly.cli import (EXIT_INTERNAL, EXIT_OK, EXIT_SEARCH, EXIT_SPLIT,
                          EXIT_USAGE, run)
from quatpoly.errors import PolyParseError
from quatpoly.parser import format_qpoly, parse_poly
from quatpoly.qpoly import QPoly
from quatpoly.quadform import ZeroDivisorCertificate
from quatpoly.quatalg import QuaternionAlgebra
from quatpoly.ratpoly import from_int_list

H = QuaternionAlgebra(-1, -1)
README = Path(__file__).resolve().parents[1] / "README.md"


def P(text, A=H):
    return parse_poly(text, A)


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

    def test_certificate_missing_file(self, tmp_path, capsys):
        code = run(["factor", "x^2+1", "--alpha", "-1", "--beta", "-1",
                    "--certificate", str(tmp_path / "nope.json")])
        assert code == EXIT_USAGE
        capsys.readouterr()

    def test_bad_usage(self, capsys):
        assert run(["factor", "x"]) == EXIT_USAGE  # missing --alpha/--beta
        assert run(["bogus", "x", "--alpha", "-1", "--beta", "-1"]) == \
            EXIT_USAGE
        capsys.readouterr()
