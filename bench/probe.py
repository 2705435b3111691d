"""Set-up time of one workload in a fresh interpreter.

    python3 bench/probe.py WORKLOAD ALPHA,BETA [ALPHA,BETA ...]

Prints the seconds taken to import quatpoly (and quatpoly.cli for the
cli workload) and construct the given QuaternionAlgebras.  Input
generation is not included.
"""

import sys
import time

t0 = time.perf_counter()

import os  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import quatpoly  # noqa: E402

if sys.argv[1] == "cli":
    import quatpoly.cli  # noqa: E402,F401

for pair in sys.argv[2:]:
    quatpoly.QuaternionAlgebra(*(int(c) for c in pair.split(",")))
print(repr(time.perf_counter() - t0))
