"""The shared dense-polynomial core over Q, GF(p) and a number field."""

import ast
import importlib
import pathlib
import random
from fractions import Fraction as Fr

import pytest

import quatpoly
from quatpoly import dense
from quatpoly.errors import DegenerateInput, DivisionByZero
from quatpoly.numberfield import NumberField
from quatpoly.qpoly import QPoly
from quatpoly.quatalg import QuaternionAlgebra
from quatpoly.ratpoly import RatPoly, from_int_list
from test_folds import QQ, xgcd

QI = NumberField(from_int_list([1, 0, 1]))          # Q(i)


def _rational(rng):
    return Fr(rng.randint(-9, 9), rng.randint(1, 4))


# (name, field object, random canonical element)
FIELDS = [
    ("QQ", QQ, _rational),
    ("GF2", dense.GF(2), lambda rng: rng.randrange(2)),
    ("GF3", dense.GF(3), lambda rng: rng.randrange(3)),
    ("GF7", dense.GF(7), lambda rng: rng.randrange(7)),
    ("QQ(i)", QI.field,
     lambda rng: QI.element([_rational(rng), _rational(rng)])),
]


def _poly(rng, elt, F, deg):
    f = dense.trim([elt(rng) for _ in range(deg + 1)])
    return f if f else [F.one]


@pytest.fixture(params=FIELDS, ids=[name for name, _, _ in FIELDS])
def field(request):
    return request.param[1:]


def test_divmod_identity(field):
    F, elt = field
    rng = random.Random(1)
    for _ in range(40):
        f = dense.trim([elt(rng) for _ in range(rng.randint(0, 7))])
        g = _poly(rng, elt, F, rng.randint(0, 4))
        q, r = dense.divmod(f, g, F)
        assert len(r) < len(g)
        assert dense.add(dense.mul(q, g, F), r, F) == f


def test_xgcd_identity(field):
    """The reference xgcd of test_folds, which dense.inverse is pinned
    against, on every field."""
    F, elt = field
    rng = random.Random(2)
    for _ in range(40):
        common = _poly(rng, elt, F, rng.randint(0, 2))
        f = dense.mul(common, _poly(rng, elt, F, rng.randint(0, 4)), F)
        g = dense.mul(common, _poly(rng, elt, F, rng.randint(0, 4)), F)
        h, s, t = xgcd(f, g, F)
        assert h[-1] == F.one
        assert dense.add(dense.mul(s, f, F), dense.mul(t, g, F), F) == h
        assert h == dense.gcd(f, g, F)
        assert len(h) >= len(dense.monic(common, F))
        assert dense.divmod(f, h, F)[1] == []
        assert dense.divmod(g, h, F)[1] == []


def test_inverse_identity(field):
    """u*a = 1 mod m with deg u < deg m when gcd(a, m) = 1, and
    DegenerateInput otherwise."""
    F, elt = field
    rng = random.Random(6)
    for _ in range(40):
        common = _poly(rng, elt, F, rng.randint(0, 2))
        a = dense.mul(common, _poly(rng, elt, F, rng.randint(0, 4)), F)
        m = dense.mul(common, _poly(rng, elt, F, rng.randint(1, 4)), F)
        if len(m) < 2:
            continue
        if dense.gcd(a, m, F) != [F.one]:
            with pytest.raises(DegenerateInput):
                dense.inverse(a, m, F)
            continue
        u = dense.inverse(a, m, F)
        assert len(u) < len(m)
        assert dense.rem(dense.mul(u, a, F), m, F) == [F.one]


def test_powmod_and_power(field):
    F, elt = field
    rng = random.Random(3)
    for _ in range(10):
        f = _poly(rng, elt, F, rng.randint(0, 3))
        m = _poly(rng, elt, F, rng.randint(1, 3))
        e = rng.randint(0, 6)
        slow = [F.one]
        for _ in range(e):
            slow = dense.mul(slow, f, F)
        assert dense.power(f, e, [F.one],
                           lambda a, b: dense.mul(a, b, F)) == slow
        assert dense.powmod(f, e, m, F) == dense.divmod(slow, m, F)[1]


def test_derivative_and_compose(field):
    F, elt = field
    rng = random.Random(4)
    for _ in range(10):
        f = _poly(rng, elt, F, rng.randint(0, 3))
        g = _poly(rng, elt, F, rng.randint(0, 3))
        # product rule
        lhs = dense.derivative(dense.mul(f, g, F), F)
        rhs = dense.add(dense.mul(dense.derivative(f, F), g, F),
                        dense.mul(f, dense.derivative(g, F), F), F)
        assert lhs == rhs
        # (x + c) o (x + c) = x + 2c
        c = elt(rng)
        lin = dense.trim([c, F.one])
        assert dense.compose(lin, lin, F) == dense.add(lin, dense.trim([c]), F)


def test_evaluate_is_the_remainder_by_x_minus_c(field):
    F, elt = field
    rng = random.Random(5)
    for _ in range(20):
        f = dense.trim([elt(rng) for _ in range(rng.randint(0, 6))])
        c = elt(rng)
        x_minus_c = dense.sub([F.zero, F.one], dense.trim([c]), F)
        r = dense.divmod(f, x_minus_c, F)[1]
        assert dense.evaluate(f, c, F) == (r[0] if r else F.zero)


def test_division_by_zero_raises(field):
    F, elt = field
    with pytest.raises(DivisionByZero):
        dense.divmod([F.one], [], F)
    with pytest.raises(DegenerateInput):
        xgcd([], [], F)
    with pytest.raises(DegenerateInput):
        dense.inverse([], [F.zero, F.one], F)


def test_qq_is_exact_on_int_lists():
    """Over QQ an int list divides into exact rationals, never floats."""
    outs = [dense.monic([1, 3], QQ), dense.gcd([2, 2], [1, 1], QQ),
            *dense.divmod([1, 0, 1], [0, 3], QQ)]
    assert outs == [[Fr(1, 3), 1], [1, 1], [0, Fr(1, 3)], [1]]
    assert all(isinstance(c, (int, Fr)) for f in outs for c in f)


def test_gf_reduces_lazily_to_canonical_residues():
    F = dense.GF(7)
    f = [3, 5, 6]
    g = [6, 6, 1]
    assert dense.mul(f, g, F) == [4, 6, 6, 6, 6]
    assert dense.sub([1], [1], F) == []
    assert all(0 <= c < 7 for c in dense.divmod([1, 2, 3, 4, 5, 6], g, F)[1])


# the layers of the package, lowest first: a module imports only modules
# that come before it
_LAYERS = ("errors", "intarith", "dense", "coordpoly", "ratpoly", "maxorder",
           "numberfield", "quadform", "quatalg", "qpoly", "parser", "cli")


def _layer_breaks(path):
    """The imports inside function bodies of the module at path, and the
    siblings it imports that have no layer or a later one."""
    tree = ast.parse(path.read_text())
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from ("%s:%d imports inside %s" % (path.name, node.lineno,
                                                     fn.name)
                        for node in ast.walk(fn)
                        if isinstance(node, (ast.Import, ast.ImportFrom)))
    if path.stem == "__init__":
        return
    if path.stem not in _LAYERS:
        yield "%s has no layer" % path.name
        return
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            names = ([node.module] if node.module
                     else [alias.name for alias in node.names])
            for name in names:
                if (name not in _LAYERS
                        or _LAYERS.index(name) > _LAYERS.index(path.stem)):
                    yield "%s:%d imports %s from above" % (
                        path.name, node.lineno, name)


def test_imports_go_down_the_layers():
    """Each module imports, at its top, only modules of lower layers: a
    cycle hidden in a function body or an upward edge shows here."""
    src = pathlib.Path(quatpoly.__file__).parent
    found = [hit for path in sorted(src.glob("*.py"))
             for hit in _layer_breaks(path)]
    assert found == []


def _private_sibling_names(path):
    """Private names path takes from a sibling module: imported with
    `from .x import _y`, or read as an attribute `x._y` of a sibling x."""
    tree = ast.parse(path.read_text())
    stems = {p.stem for p in path.parent.glob("*.py")}
    siblings = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        sibling = node.level > 0 or (node.module or "").startswith("quatpoly")
        if sibling:
            for alias in node.names:
                if alias.name.startswith("_"):
                    yield "%s:%d imports %s" % (path.name, node.lineno,
                                                alias.name)
                if alias.name in stems:
                    siblings.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and isinstance(node.value, ast.Name)
                and node.value.id in siblings):
            yield "%s:%d reads %s.%s" % (path.name, node.lineno,
                                         node.value.id, node.attr)


def test_no_module_imports_private_names_of_a_sibling():
    """A second private polynomial copy would start as such an import or
    attribute read."""
    src = pathlib.Path(quatpoly.__file__).parent
    found = [hit for path in sorted(src.glob("*.py"))
             for hit in _private_sibling_names(path)]
    assert found == []


def _unused_imports(path):
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if any("# noqa: F401" in line
               for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used:
                yield "%s:%d imports %s" % (path.name, node.lineno, name)


def test_no_module_imports_a_name_it_never_uses():
    """An import left behind by a refactor is dead code."""
    src = pathlib.Path(quatpoly.__file__).parent
    found = [hit for path in sorted(src.glob("*.py"))
             if path.name != "__init__.py"
             for hit in _unused_imports(path)]
    assert found == []


# the integer Zassenhaus and Sturm steps of ratpoly and the rational names
# they avoid
_INTEGER_STEPS = ("_good_prime", "gfp_factor_squarefree", "_edf",
                  "_probe_split", "_random_split", "_lift_root",
                  "_lift_list", "_exact_quotient",
                  "_recombine", "_proves_irreducible", "_lift_and_recombine",
                  "_factor_squarefree_int", "_heu_gcd", "_primitive_gcd",
                  "_squarefree_int", "_pseudo_rem", "_pseudo_divmod", "_quo",
                  "primitive_gcd_cofactors", "rp_real_root_count")
_RATIONAL_NAMES = {"Fr", "Fraction", "RatPoly", "QQ", "from_int_list",
                   "resultant", "divmod", "rp_gcd"}
# the local square test of nf_sqrt and the Trager steps it avoids
_LOCAL_STEPS = ("_local_nonsquare", "_local_roots", "_mod_p")
_TRAGER_NAMES = {"Fr", "Fraction", "RatPoly", "QQ", "resultant",
                 "nf_poly_norm", "nf_factor_squarefree", "rp_factor"}
# the trial polynomial of the zero-divisor search, which goes to nf_sqrt
_TRIAL_STEPS = ("_trial_value",)
# the order steps of maxorder and the rational or random names they avoid
_ORDER_STEPS = ("_ztheta", "_p_maximalize", "_component_split",
                "maximal_order", "splitting_type")
_ORDER_NAMES = {"Fr", "Fraction", "RatPoly", "QQ", "random", "mat_inv", "hnf"}
# splitting_type and the discriminant test and Dedekind-Kummer factorisation
# of its old second path
_SPLIT_STEPS = ("splitting_type",)
_FORK_NAMES = {"gfp_factor", "disc_of_int_poly"}
# the inverse mod m of the Hensel lift, and the rational names and the
# two-cofactor Euclid it avoids
_DENSE_STEPS = ("inverse",)
_DENSE_NAMES = {"Fr", "Fraction", "RatPoly", "QQ", "from_int_list", "xgcd"}
# the quaternion norm and the rational or QPoly products it avoids
_NORM_STEPS = ("qp_norm",)
_QPOLY_NAMES = {"QPoly", "qp_conj", "RatPoly"}
# the GCRD, the Euclid behind Bezout and LCLM, and evaluation, and the
# kernel division, remainder and content they reach only through
# qp_right_divmod and _right_rem
_DIVIDING_STEPS = ("qp_gcrd", "_right_euclid", "qp_evaluate")
_KERNEL_DIVISION = {"cp_pseudo_divmod", "cp_pseudo_rem", "cp_primitive"}
# the Beck decomposition and the quaternion inverse, gcd over Q and A[x]
# division it avoids
_BECK_STEPS = ("beck_decompose",)
_BECK_NAMES = {"q_inv", "rp_gcd", "qp_exact_right_div", "qp_right_divmod",
               "QPoly"}

# QPoly's arithmetic and the Fraction and Quaternion names it avoids
_QPOLY_STEPS = ("QPoly.__add__", "QPoly.__mul__", "QPoly.monic", "qp_conj",
                "qp_right_divmod", "_right_rem", "qp_gcrd", "qp_evaluate",
                "Factorization.expand")
_QUATERNION_NAMES = {"Fr", "Fraction", "Quaternion", "make_quaternion",
                     "q_inv", "coeffs", "cp_unscale"}
# RatPoly's arithmetic and the gcd, squarefree and factoring entries, and
# the Fraction names and coefficient reads they avoid
_RATPOLY_STEPS = ("RatPoly.__add__", "RatPoly.__neg__", "RatPoly.__mul__",
                  "RatPoly.__divmod__", "RatPoly.__mod__", "RatPoly.monic",
                  "RatPoly.derivative", "RatPoly.primitive_int", "rp_gcd",
                  "squarefree_decomposition", "rp_factor")
_FRACTION_NAMES = {"Fr", "QQ"}
# the subtraction that RatPoly and NFElement take from dense.RingElement
_SHARED_STEPS = ("RingElement.__sub__",)
# the recursive descent of the parser and the names it avoids
_PARSER_STEPS = ("_expr", "_term", "_factor", "_atom")
_PARSER_NAMES = {"QPoly", "Quaternion", "make_quaternion", "Fraction", "Fr"}


def _functions(module):
    """The top-level functions and methods ("Class.method") of module."""
    path = pathlib.Path(quatpoly.__file__).parent / module
    tree = ast.parse(path.read_text())
    functions = {node.name: node for node in tree.body
                 if isinstance(node, ast.FunctionDef)}
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            functions.update({"%s.%s" % (cls.name, node.name): node
                              for node in cls.body
                              if isinstance(node, ast.FunctionDef)})
    return functions


def _names_named(module, steps, names, attrs=()):
    """Where the top-level functions or methods ("Class.method") steps of
    module name one of names, or read one of attrs as an attribute."""
    functions = _functions(module)
    found = ["%s is missing" % name for name in steps
             if name not in functions]
    for name in steps:
        for node in ast.walk(functions.get(name, ast.Pass())):
            if isinstance(node, ast.Name) and node.id in names:
                found.append("%s:%d names %s" % (name, node.lineno, node.id))
            if isinstance(node, ast.Attribute) and node.attr in attrs:
                found.append("%s:%d reads .%s" % (name, node.lineno,
                                                  node.attr))
    return found


def test_zassenhaus_steps_stay_over_the_integers():
    """A rational step slipping back into rp_factor's core shows here."""
    assert _names_named("ratpoly.py", _INTEGER_STEPS, _RATIONAL_NAMES) == []


def test_inverse_stays_in_the_field_with_one_cofactor():
    """dense.inverse uses only the field it is given and carries one
    cofactor: a rational step inside it, or a second extended Euclid
    back in dense, shows here."""
    assert _names_named("dense.py", _DENSE_STEPS, _DENSE_NAMES) == []
    assert not hasattr(dense, "xgcd")


def test_local_square_test_stays_over_the_integers():
    """The pre-test of nf_sqrt works mod p; arithmetic over Q or a
    Trager step inside it shows here."""
    assert _names_named("numberfield.py", _LOCAL_STEPS, _TRAGER_NAMES) == []


def test_search_trial_stays_over_the_integers():
    """Each search trial is one polynomial in the integer coordinates,
    which L.element reduces; field arithmetic, a square root or a Trager
    step inside it shows here."""
    assert _names_named("quadform.py", _TRIAL_STEPS,
                        _TRAGER_NAMES | {"nf_sqrt"}) == []


def test_order_steps_stay_over_the_integers():
    """Orders are integer multiplication tables and the split of O/pO is
    deterministic; a rational matrix or a random search inside shows here."""
    assert _names_named("maxorder.py", _ORDER_STEPS, _ORDER_NAMES) == []


def test_splitting_type_takes_one_path():
    """Every prime goes through a p-maximal order and the split of O/pO;
    a discriminant pre-test or a factorisation of m mod p inside
    splitting_type shows here."""
    assert _names_named("maxorder.py", _SPLIT_STEPS, _FORK_NAMES) == []


def test_norm_stays_on_integer_coordinates():
    """qp_norm works on the integer coordinate tuples of the kernel; a
    RatPoly or QPoly product inside it shows here."""
    assert _names_named("qpoly.py", _NORM_STEPS, _QPOLY_NAMES) == []


def test_gcrd_divides_only_through_right_division():
    """qp_right_divmod and the remainder-only _right_rem are the only
    callers of the kernel division in qpoly; a second kernel GCRD or
    remainder sequence shows here."""
    assert _names_named("qpoly.py", _DIVIDING_STEPS, _KERNEL_DIVISION) == []
    callers = [name for name, node in _functions("qpoly.py").items()
               if any(isinstance(n, ast.Name) and n.id in _KERNEL_DIVISION
                      for n in ast.walk(node))]
    assert callers == ["qp_right_divmod", "_right_rem"]


def test_beck_stays_on_integer_coordinates():
    """beck_decompose divides and multiplies back on the integer coordinate
    tuples of the kernel; a quaternion inverse, a gcd over Q or a QPoly
    division or product inside it shows here."""
    assert _names_named("qpoly.py", _BECK_STEPS, _BECK_NAMES) == []


def test_qpoly_arithmetic_stays_on_integer_coordinates():
    """QPoly holds integer coordinates over one denominator, and its
    arithmetic works on them: a Fraction, a Quaternion built or inverted,
    a read of the Quaternion coefficients or an unscaling inside it shows
    here."""
    assert _names_named("qpoly.py", _QPOLY_STEPS, _QUATERNION_NAMES,
                        {"coeffs"}) == []


def test_ratpoly_arithmetic_stays_on_integers():
    """RatPoly holds integers over one denominator, and its arithmetic,
    gcd, squarefree decomposition and factoring work on them: a Fraction
    built, a division over Q or a read of the Fraction coefficients
    inside them shows here."""
    assert _names_named("ratpoly.py", _RATPOLY_STEPS, _FRACTION_NAMES,
                        {"coeffs"}) == []
    assert _names_named("dense.py", _SHARED_STEPS, _FRACTION_NAMES,
                        {"coeffs"}) == []


# NFElement's arithmetic, the element constructor, the Trager norm and the
# reduction mod p of the local square test, and the Fraction names and
# coordinate or coefficient reads they avoid
_NF_STEPS = ("NFElement.__add__", "NFElement.__neg__", "NFElement.__mul__",
             "NFElement.inv", "NumberField.element", "nf_poly_norm",
             "_mod_p")
_NF_NAMES = {"Fr", "Fraction", "QQ"}


def test_number_field_arithmetic_stays_on_ratpoly():
    """An element of L is one RatPoly, and its arithmetic, the Trager norm
    and the reduction mod p are RatPoly's or work on (den, num): a
    Fraction built, a computation over QQ or a read of the Fraction
    coordinates or coefficients inside them shows here, and so does a
    Fraction field of dense.py that the library could fall back on."""
    assert _names_named("numberfield.py", _NF_STEPS, _NF_NAMES,
                        {"coords", "coeffs"}) == []
    assert _names_named("dense.py", _SHARED_STEPS, _NF_NAMES,
                        {"coords", "coeffs"}) == []
    assert not hasattr(dense, "QQ")


def test_parser_builds_kernel_values():
    """Every subexpression the parser reads is a kernel value (den, list
    of integer 4-tuples), brought to lowest terms once at the end: a
    Fraction, a Quaternion or a QPoly built inside the descent shows
    here."""
    assert _names_named("parser.py", _PARSER_STEPS, _PARSER_NAMES) == []


# the quadratic-subfield decision, made in quadform alone
_SUBFIELD_NAMES = {"nf_factor_squarefree", "nf_quadratic_candidates",
                   "nf_quartic_subfields", "splits_in_quadratic",
                   "embed_quadratic", "represent_pure", "squarefree_kernel"}
_LAYER_2_NAMES = {"nf_sqrt", "represent_pure", "nf_quadratic_candidates",
                  "nf_quartic_subfields"}


def _identifiers(node):
    """Every name under node: variables, attributes and imported names."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.asname or sub.name


def test_subfield_decision_stays_in_quadform():
    """qpoly only cuts the zero divisor subfield_zero_divisor returns, and
    layer 2 of find_zero_divisor is that function: a second subfield path
    in either shows here."""
    src = pathlib.Path(quatpoly.__file__).parent
    qpoly_tree = ast.parse((src / "qpoly.py").read_text())
    assert sorted(set(_identifiers(qpoly_tree)) & _SUBFIELD_NAMES) == []
    quadform_tree = ast.parse((src / "quadform.py").read_text())
    layers = [node for node in quadform_tree.body
              if isinstance(node, ast.FunctionDef)
              and node.name == "find_zero_divisor"]
    assert len(layers) == 1
    assert sorted(set(_identifiers(layers[0])) & _LAYER_2_NAMES) == []


# what the quadratic subfields of a p of degree 6 or more cost, and a
# quartic must not pay: the discriminant, its factorization, a square
# test in L or a Trager factorization
_QUARTIC_SUBFIELD_NAMES = {"factorint", "disc_of_int_poly",
                           "nf_quadratic_candidates", "nf_sqrt",
                           "nf_factor_squarefree"}


def test_quartic_subfields_factor_only_the_resolvent_cubic():
    """nf_quartic_subfields reads the subfields of a quartic off the
    rational roots of its resolvent cubic: a call or a name of the
    discriminant route inside it shows here."""
    assert _names_named("numberfield.py", ("nf_quartic_subfields",),
                        _QUARTIC_SUBFIELD_NAMES,
                        _QUARTIC_SUBFIELD_NAMES) == []


def _method_calls(node, attr, scope=""):
    """The dotted scope (classes and functions) around each call
    `something.attr(...)` under node."""
    for child in ast.iter_child_nodes(node):
        if (isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr == attr):
            yield scope
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            inner = "%s.%s" % (scope, child.name) if scope else child.name
        yield from _method_calls(child, attr, inner)


def test_only_the_certificate_constructor_validates():
    """A certificate is checked once, when it is built or loaded: a second
    .validate() call in the library repeats that work and shows here."""
    src = pathlib.Path(quatpoly.__file__).parent
    callers = ["%s:%s" % (path.stem, scope)
               for path in sorted(src.glob("*.py"))
               for scope in _method_calls(ast.parse(path.read_text()),
                                          "validate")]
    assert callers == ["quadform:ZeroDivisorCertificate.__init__"]


def test_quaternion_formulas_live_in_the_kernel():
    """coordpoly, the home of coord_mul and coord_norm, imports nothing
    but math, no other module defines them, and the certificate norm and
    the pure-square check use coord_norm: a retyped norm or a second copy
    of a formula shows here."""
    src = pathlib.Path(quatpoly.__file__).parent
    tree = ast.parse((src / "coordpoly.py").read_text())
    imported = [alias.name for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names]
    imported += ["." * node.level + (node.module or "")
                 for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)]
    assert imported == ["math"]
    homes = [path.stem for path in sorted(src.glob("*.py"))
             for name in ("coord_mul", "coord_norm")
             if name in _functions(path.name)]
    assert homes == ["coordpoly", "coordpoly"]
    functions = _functions("quadform.py")
    for name in ("ZeroDivisorCertificate.norm_poly", "subfield_zero_divisor"):
        assert "coord_norm" in _identifiers(functions[name]), name


# the operators every arithmetic type takes from dense.RingElement
_SHARED_OPERATORS = ("__sub__", "__rsub__", "__rmul__", "__eq__", "__hash__")


def _bound_in_body(cls):
    """The names a class statement binds in its body."""
    names = {node.name for node in cls.body
             if isinstance(node, ast.FunctionDef)}
    names.update(target.id for node in cls.body
                 if isinstance(node, ast.Assign)
                 for target in node.targets if isinstance(target, ast.Name))
    return names


def test_arithmetic_types_share_one_operator_set():
    """Every class of the library that defines __add__ derives from
    dense.RingElement and takes -, the reflected operands, == and hash
    from it: a class of its own rules for these shows here."""
    src = pathlib.Path(quatpoly.__file__).parent
    found, breaks = [], []
    for path in sorted(src.glob("*.py")):
        module = importlib.import_module("quatpoly." + path.stem)
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.ClassDef)
                    and "__add__" in _bound_in_body(node)):
                continue
            found.append(node.name)
            cls = getattr(module, node.name)
            breaks += ["%s defines %s" % (node.name, name)
                       for name in _SHARED_OPERATORS
                       if name in _bound_in_body(node)
                       or getattr(cls, name)
                       is not getattr(dense.RingElement, name)]
    assert sorted(found) == ["NFElement", "QPoly", "Quaternion", "RatPoly"]
    assert breaks == []


def _contract_values():
    """0, 3 and -1/2 in every type and parent that can hold them, and
    values that are not rational: a polynomial, a central and a
    non-central one, a non-scalar quaternion and a constant polynomial
    that equals it."""
    QS2 = NumberField(from_int_list([-2, 0, 1]))
    H, H13 = QuaternionAlgebra(-1, -1), QuaternionAlgebra(-1, -3)
    values = [0, 3]
    for c in (0, 3, Fr(-1, 2)):
        values += [Fr(c), RatPoly([c]), QI.from_rational(c),
                   QS2.from_rational(c)]
        for A in (H, H13):
            values += [A.scalar(c), QPoly(A, [A.scalar(c)])]
    p = RatPoly([1, Fr(2, 3)])
    a = H.element([1, 2, 0, Fr(1, 2)])
    values += [p, QPoly.from_ratpoly(H, p), QPoly(H, [a, H.one()]), a,
               QPoly(H, [a]), QI.gen(), QS2.gen()]
    return values


def test_equality_is_symmetric_and_agrees_with_hash():
    """For every pair, a == b is b == a and raises nothing, and equal
    values hash alike: a constant as its rational, a central polynomial
    as its RatPoly, a constant polynomial as its Quaternion."""
    values = _contract_values()
    for a in values:
        for b in values:
            assert (a == b) is (b == a), (a, b)
            assert (a != b) is not (a == b), (a, b)
            if a == b:
                assert hash(a) == hash(b), (a, b)
    p, central, _, a, constant = values[-7:-2]
    assert p == central and central == p and hash(p) == hash(central)
    assert a == constant and constant == a and hash(a) == hash(constant)
    assert len({RatPoly([3]), 3, Fr(3)}) == 1
