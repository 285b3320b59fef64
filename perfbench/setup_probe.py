"""Set-up probe, run in a fresh interpreter by run.py.

Prints the seconds from the start of the script to the end of one tiny
solve of each pipeline: importing polysolve (and numpy) plus the first
solve's one-time costs.  Usage: python3 setup_probe.py <checkout>/src
"""

import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])

import random  # noqa: E402

from polysolve.solver import solve_deterministic, solve_lasvegas  # noqa: E402
from polysolve.sysfile import parse_system  # noqa: E402

system = parse_system("p = 65521\nvars = x,y\nx^2 + 3*y - 1\ny^2 + x + 5\n").polys
solve_deterministic(system, random.Random(0))
solve_lasvegas(system, random.Random(0))
print(time.perf_counter() - t0)
