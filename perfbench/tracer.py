"""Per-layer tracing from outside the library.

``Tracer.install`` replaces each public function named in ``TARGETS`` by a
wrapper in every ``polysolve`` module that holds a binding to it (the
defining module and each importer, e.g. ``polysolve.solver.buchberger``),
so calls are caught whichever name the caller reads.  Each call records a
span ``[id, parent id, name, unit, start, end]``; structural counters are
read from return values, stats objects and raised exceptions at the same
boundaries.  Private kernels called from inside a module are not wrapped:
their time is the self time of the public function that calls them.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from time import perf_counter

PACKAGE = "polysolve"
TARGETS = (
    ("sysfile", "parse_system"),
    ("gb", "buchberger"),
    ("gb", "groebner_from_matrices"),
    ("quotient", "compute_basis"),
    ("quotient", "compute_frontier"),
    ("quotient", "build_matrices_echelon"),
    ("quotient", "try_read_Tn"),
    ("linalg", "mat_mul"),
    ("linalg", "block_echelon"),
    ("linalg", "krylov_columns"),
    ("recur", "berlekamp_massey"),
    ("recur", "hankel_solve"),
    ("change_order", "change_ordering"),
    ("poly", "apply_change_of_variables"),
    ("solver", "solve_deterministic"),
    ("solver", "solve_lasvegas"),
    ("solver", "rational_solutions"),
)

# (name, unit): the counters, normalised per solve unless a ratio or mean
COUNTERS = (
    ("quotient.type2_nf", "nf/solve"),
    ("quotient.tn_density", "ratio"),
    ("quotient.not_readable", "count/solve"),
    ("change_order.failed", "count/solve"),
    ("solver.restarts", "count/solve"),
    ("solver.retries", "count/solve"),
    ("solver.g_accept_ratio", "ratio"),
    ("recur.bm_degree", "degree"),
    ("linalg.krylov.square_mults", "count/solve"),
    ("linalg.krylov.rect_mults", "count/solve"),
    ("linalg.mat_mul.madds", "madd/solve"),
    ("linalg.mat_mul.int64_share", "ratio"),
    ("trace.overhead_s", "s/solve"),
    ("trace.overhead_share", "ratio"),
)

_FLOAT_EXACT = 1 << 53
SOLVERS = ("solver.solve_deterministic", "solver.solve_lasvegas")


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    out = []
    for mod, fn in TARGETS:
        out += [(f"{mod}.{fn}.s", "s/solve"), (f"{mod}.{fn}.calls", "calls/solve"),
                (f"{mod}.{fn}.self_s", "s/solve")]
    return out + list(COUNTERS)


def _krylov_stats(args, kwargs):
    stats = kwargs.get("stats", args[4] if len(args) > 4 else None)
    return stats, (stats.square_mults, stats.rect_mults) if stats is not None else None


def _after_krylov(c, args, kwargs, out, pre):
    stats, before = pre
    if stats is not None:
        c["linalg.krylov.square_mults"] += stats.square_mults - before[0]
        c["linalg.krylov.rect_mults"] += stats.rect_mults - before[1]


def _after_mat_mul(c, args, kwargs, out, pre):
    a, b = args[0], args[1]
    madds = a.nrows * a.ncols * b.ncols
    c["linalg.mat_mul.madds"] += madds
    # the float64 product is exact only while k (p-1)^2 < 2^53
    if a.ncols * (a.field.p - 1) ** 2 >= _FLOAT_EXACT:
        c["int64_madds"] += madds


def _after_echelon(c, args, kwargs, out, pre):
    c["quotient.type2_nf"] += out[1].type2_nf


def _after_bm(c, args, kwargs, out, pre):
    c["bm_degree_sum"] += len(out) - 1


def _after_solve(c, args, kwargs, out, pre):
    st = out.stats
    c["solver.restarts"] += st.restarts
    c["solver.retries"] += st.retries
    c["tn_density_sum"] += st.tn_density
    if out.pipeline == "las_vegas":
        c["g_drawn"] += 1 + st.restarts
        c["g_accepted"] += 1


AFTER = {
    "linalg.krylov_columns": _after_krylov,
    "linalg.mat_mul": _after_mat_mul,
    "quotient.build_matrices_echelon": _after_echelon,
    "recur.berlekamp_massey": _after_bm,
    "solver.solve_deterministic": _after_solve,
    "solver.solve_lasvegas": _after_solve,
}
BEFORE = {"linalg.krylov_columns": _krylov_stats}
# exception class name -> counter, for exceptions a wrapped call raises
ERRORS = {"NotReadable": "quotient.not_readable",
          "ChangeOrderingFailed": "change_order.failed"}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.unit = 0
        self.missing: list[str] = []
        self.bindings: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def install(self):
        for mod, _ in TARGETS:
            importlib.import_module(f"{PACKAGE}.{mod}")
        modules = [m for k, m in sorted(sys.modules.items())
                   if k.startswith(PACKAGE + ".") and m is not None]
        for mod, fn in TARGETS:
            orig = getattr(sys.modules[f"{PACKAGE}.{mod}"], fn, None)
            if orig is None:
                self.missing.append(f"{mod}.{fn}")
                continue
            wrapper = self._wrap(f"{mod}.{fn}", orig)
            for m in modules:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, attr, wrapper)
                        self._patched.append((m, attr, orig))
                        self.bindings.append(f"{m.__name__}.{attr}")

    def uninstall(self):
        for m, attr, orig in reversed(self._patched):
            setattr(m, attr, orig)
        self._patched.clear()

    def _wrap(self, name, fn):
        before, after = BEFORE.get(name), AFTER.get(name)
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            pre = before(args, kwargs) if before else None
            rec = [len(spans), stack[-1] if stack else None, name, self.unit, perf_counter(), 0.0]
            spans.append(rec)
            stack.append(rec[0])
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                key = ERRORS.get(type(exc).__name__)
                if key:
                    counts[key] += 1
                raise
            finally:
                rec[5] = perf_counter()
                stack.pop()
            if after:
                after(counts, args, kwargs, out, pre)
            return out

        return wrapper

    def metrics(self, untraced_s: float, traced_s: float) -> dict[str, float]:
        """Per-layer metrics, per solve, from the recorded spans and counters."""
        busy, self_s, calls = defaultdict(float), defaultdict(float), defaultdict(int)
        child = defaultdict(float)
        for sid, parent, name, _, t0, t1 in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        for sid, parent, name, _, t0, t1 in self.spans:
            calls[name] += 1
            self_s[name] += t1 - t0 - child[sid]
            # busy time counts only the outermost of nested calls of one name
            up = parent
            while up is not None and self.spans[up][2] != name:
                up = self.spans[up][1]
            if up is None:
                busy[name] += t1 - t0
        c = self.counts
        solves = max(1, sum(calls[s] for s in SOLVERS))
        out = {}
        for mod, fn in TARGETS:
            name = f"{mod}.{fn}"
            out[f"{name}.s"] = busy[name] / solves
            out[f"{name}.calls"] = calls[name] / solves
            out[f"{name}.self_s"] = self_s[name] / solves
        for key in ("quotient.type2_nf", "quotient.not_readable", "change_order.failed",
                    "solver.restarts", "solver.retries", "linalg.krylov.square_mults",
                    "linalg.krylov.rect_mults", "linalg.mat_mul.madds"):
            out[key] = c[key] / solves
        out["quotient.tn_density"] = c["tn_density_sum"] / solves
        out["solver.g_accept_ratio"] = c["g_accepted"] / c["g_drawn"] if c["g_drawn"] else 0.0
        bm_calls = calls["recur.berlekamp_massey"]
        out["recur.bm_degree"] = c["bm_degree_sum"] / bm_calls if bm_calls else 0.0
        madds = c["linalg.mat_mul.madds"]
        out["linalg.mat_mul.int64_share"] = c["int64_madds"] / madds if madds else 0.0
        out["trace.overhead_s"] = (traced_s - untraced_s) / solves
        out["trace.overhead_share"] = (traced_s - untraced_s) / untraced_s
        return out
