"""Outside-in layer tracer for quatpoly.

The tracer wraps chosen functions and methods of the quatpoly modules
without touching their source.  A function is often bound under several
names (`from .ratpoly import rp_factor` leaves a copy in `qpoly`,
`numberfield` and `quadform`), so `install` rebinds every module-level
name and class attribute across `quatpoly.*` that refers to the same
object, and `uninstall` puts every original back.

Timed targets record a span per call: (name, start, end, parent span,
operation id), kept in memory until `write_spans`.  Self time is a span's
duration minus the time covered by its child spans; total time counts
only the outermost call of a recursive target.  Counted targets only
count calls.  Observers derive route counts from arguments and results.
"""

import functools
import importlib
import sys
import time

# (module, qualified name) whose calls, total and self time are recorded
TIMED = [
    ("qpoly", "factor"), ("qpoly", "roots"), ("qpoly", "is_irreducible"),
    ("qpoly", "beck_decompose"), ("qpoly", "factor_central_irreducible"),
    ("qpoly", "subfield_factor"), ("qpoly", "qp_gcrd_bezout"),
    ("qpoly", "qp_right_divmod"), ("qpoly", "qp_norm"),
    ("qpoly", "Factorization.expand"),
    ("ratpoly", "rp_factor"), ("ratpoly", "squarefree_decomposition"),
    ("ratpoly", "resultant"), ("ratpoly", "rp_gcd"),
    ("ratpoly", "gfp_factor_squarefree"),
    ("numberfield", "nf_sqrt"), ("numberfield", "nf_factor"),
    ("numberfield", "nf_poly_norm"),
    ("numberfield", "nf_quadratic_subfields"),
    ("numberfield", "nf_splits_quaternion"),
    ("maxorder", "maximal_order"), ("maxorder", "splitting_type"),
    ("quadform", "find_zero_divisor"), ("quadform", "represent_pure"),
    ("quadform", "ZeroDivisorCertificate.validate"),
    ("parser", "parse_poly"),
    ("cli", "run"),
]

# (module, qualified name) whose calls alone are counted
COUNTED = [
    ("quatalg", "Quaternion.__mul__"), ("quatalg", "q_inv"),
    ("ratpoly", "RatPoly.__divmod__"), ("ratpoly", "RatPoly.__mul__"),
    ("intarith", "factorint"),
]

# "search" is a search that found a zero divisor, "exhausted" one that
# ran out of budget (SearchExhausted)
ROUTES = ("linear", "odd", "no_split", "subfield", "certificate", "search",
          "exhausted")


def _route(args, kwargs, result, error):
    """The route factor_central_irreducible took, from what went in and
    what came out."""
    p = args[0]
    cert = kwargs.get("cert", args[2] if len(args) > 2 else None)
    if error is not None:
        return "exhausted" if type(error).__name__ == "SearchExhausted" \
            else None
    if p.degree == 1:
        return "linear"
    if p.degree % 2 == 1:
        return "odd"
    if len(result.factors) == 1:
        return "no_split"
    if hasattr(result, "first_quotient"):
        return "certificate" if cert is not None else "search"
    return "subfield"


class LayerTracer:
    """Records TIMED and COUNTED targets while installed; use it as a
    context manager around the calls to trace."""

    def __init__(self):
        self.timed = ["%s.%s" % t for t in TIMED]
        self.counted = ["%s.%s" % t for t in COUNTED]
        self.calls = dict.fromkeys(self.timed + self.counted, 0)
        self.total_s = dict.fromkeys(self.timed, 0.0)
        self.self_s = dict.fromkeys(self.timed, 0.0)
        self.routes = dict.fromkeys(ROUTES, 0)
        self.zd_success = 0
        self.subfield_fields = set()
        self.spans = []
        self.op_id = -1
        self._stack = []     # open span ids
        self._child = []     # child time per open span
        self._depth = {}     # open calls per name, for total_s
        self._saved = []     # (owner, attribute, original)
        self._observers = {
            "qpoly.factor_central_irreducible": self._observe_route,
            "quadform.find_zero_divisor": self._observe_search,
            "numberfield.nf_quadratic_subfields": self._observe_subfields,
        }

    # -- observers ----------------------------------------------------------
    def _observe_route(self, args, kwargs, result, error):
        route = _route(args, kwargs, result, error)
        if route is not None:
            self.routes[route] += 1

    def _observe_search(self, args, kwargs, result, error):
        if error is None:
            self.zd_success += 1

    def _observe_subfields(self, args, kwargs, result, error):
        self.subfield_fields.add(tuple(args[0].minpoly.coeffs))

    # -- wrappers -----------------------------------------------------------
    def _timed_wrapper(self, name, fn):
        observe = self._observers.get(name)
        stack, child, spans, depth = (self._stack, self._child, self.spans,
                                      self._depth)
        calls, total_s, self_s = self.calls, self.total_s, self.self_s
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            child.append(0.0)
            depth[name] = depth.get(name, 0) + 1
            result = error = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                t1 = clock()
                dur = t1 - t0
                stack.pop()
                inner = child.pop()
                if child:
                    child[-1] += dur
                depth[name] -= 1
                calls[name] += 1
                self_s[name] += dur - inner
                if depth[name] == 0:
                    total_s[name] += dur
                spans[sid] = (name, t0, t1, parent, self.op_id)
                if observe is not None:
                    observe(args, kwargs, result, error)
        return wrapper

    def _counted_wrapper(self, name, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- install / uninstall ------------------------------------------------
    def install(self):
        for names, make in ((self.timed, self._timed_wrapper),
                            (self.counted, self._counted_wrapper)):
            for name in names:
                mod, qual = name.split(".", 1)
                module = importlib.import_module("quatpoly." + mod)
                if "." in qual:
                    cls, attr = qual.split(".")
                    self._rebind_in_class(getattr(module, cls), attr, make,
                                          name)
                else:
                    orig = getattr(module, qual)
                    self._rebind_everywhere(orig, make(name, orig))
        return self

    def _rebind_in_class(self, cls, attr, make, name):
        orig = cls.__dict__[attr]
        wrapper = make(name, orig)
        for key, value in list(vars(cls).items()):
            if value is orig:
                self._saved.append((cls, key, orig))
                setattr(cls, key, wrapper)

    def _rebind_everywhere(self, orig, wrapper):
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "quatpoly"
                                      or modname.startswith("quatpoly.")):
                continue
            for key, value in list(vars(module).items()):
                if value is orig:
                    self._saved.append((module, key, orig))
                    setattr(module, key, wrapper)

    def uninstall(self):
        while self._saved:
            owner, key, orig = self._saved.pop()
            setattr(owner, key, orig)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- results ------------------------------------------------------------
    def metrics(self):
        """Per-layer metrics, as {name: (value, unit)}."""
        out = {}
        for name in self.timed:
            out[name + ".calls"] = (self.calls[name], "count")
            out[name + ".total_s"] = (self.total_s[name], "s")
            out[name + ".self_s"] = (self.self_s[name], "s")
        for name in self.counted:
            out[name + ".calls"] = (self.calls[name], "count")
        sub = self.calls["numberfield.nf_quadratic_subfields"]
        out["numberfield.nf_quadratic_subfields.calls_per_field"] = (
            sub / len(self.subfield_fields) if self.subfield_fields else 0.0,
            "ratio")
        zd = self.calls["quadform.find_zero_divisor"]
        out["quadform.find_zero_divisor.success_ratio"] = (
            self.zd_success / zd if zd else 0.0, "ratio")
        for route in ROUTES:
            out["qpoly.factor_central_irreducible.route.%s.calls" % route] = (
                self.routes[route], "count")
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            fh.write("span,op,name,parent,start_s,end_s\n")
            for sid, (name, t0, t1, parent, op) in enumerate(self.spans):
                fh.write("%d,%d,%s,%d,%.9f,%.9f\n"
                         % (sid, op, name, parent, t0, t1))
