"""Command-line front end.

Subcommands (``--threads N`` before any of them sets the thread-count hint
of the linear algebra backend):
  gb FILE [--order drl|lex]            reduced basis, printed as a system file
  solve FILE [--det|--lv] [--seed N]   univariate representation + report
  matrices FILE [--method ...]         multiplication matrices or a summary
  bench appendix --n K [--seed N]      worst-case family, both pipelines
  probbound --n N --q Q --degrees ...  success-probability lower bound

Exit codes, by the class of the failure, each failure printed as one
``error:`` line: 0 success; 1 ``ParseError`` and ``OSError``; 3
``ExhaustedRestarts``; 2 every other ``PolysolveError`` (non-prime modulus,
not zero-dimensional, not in shape position, budget, unreadable T_n, ...),
``MemoryError``, ``OverflowError`` (an exponent above 65535) and invalid
arguments.
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="polysolve",
                                 description="solve zero-dimensional polynomial systems "
                                             "over prime fields")
    ap.add_argument("--threads", type=int, default=None,
                    help="thread-count hint for the linear algebra backend")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gb", help="reduced Groebner basis of the input system")
    g.add_argument("file")
    g.add_argument("--order", choices=["drl", "lex"], default="drl")

    s = sub.add_parser("solve", help="univariate shape-position representation")
    s.add_argument("file")
    mode = s.add_mutually_exclusive_group()
    mode.add_argument("--det", action="store_true", help="keep the original coordinates")
    mode.add_argument("--lv", action="store_true",
                      help="random change of variables until T_n reads off free")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--max-restarts", type=int, default=None,
                   help="Las Vegas transforms to try (default: SolveConfig.max_restarts)")
    s.add_argument("--json", action="store_true")

    m = sub.add_parser("matrices", help="multiplication matrices of the quotient")
    m.add_argument("file")
    m.add_argument("--method", choices=["fglm", "echelon", "free"], default="echelon")
    m.add_argument("--summary", action="store_true")

    b = sub.add_parser("bench", help="benchmark families")
    b.add_argument("family", choices=["appendix"])
    b.add_argument("--n", type=int, required=True)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--json", action="store_true")

    pb = sub.add_parser("probbound", help="success probability of a random transform")
    pb.add_argument("--n", type=int, required=True)
    pb.add_argument("--q", type=int, required=True)
    pb.add_argument("--degrees", required=True, help="comma-separated, e.g. 2,2")
    pb.add_argument("--dim", type=int, default=None,
                    help="quotient dimension D (default: product of the degrees)")

    return ap


def _bad_argument(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _read_file(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _rep_text(rep, varnames) -> str:
    from .poly import Polynomial, to_string

    fld, n = rep.field, rep.n
    last = n - 1
    parts = []
    for i in range(last):
        h = Polynomial.univariate(fld, n, last, rep.coeffs[i])
        parts.append(f"{varnames[i]} = {to_string(h, varnames)}")
    d = rep.degree
    lead = Polynomial.variable(fld, n, last) ** d
    rhs = lead - Polynomial.univariate(fld, n, last, rep.coeffs[last])
    lhs = varnames[last] if d == 1 else f"{varnames[last]}^{d}"
    parts.append(f"{lhs} = {to_string(rhs, varnames)}")
    return " ; ".join(parts)


def _cmd_gb(args) -> int:
    from .gb import buchberger
    from .poly import TermOrder
    from .sysfile import ParsedSystem, format_system, parse_system

    system = parse_system(_read_file(args.file))
    n = system.n
    order = TermOrder.drl(n) if args.order == "drl" else TermOrder.lex(n)
    basis = buchberger(system.polys, order, field=system.field)
    print(format_system(ParsedSystem(system.field, system.varnames, list(basis))), end="")
    return 0


def _cmd_solve(args) -> int:
    import random

    from .bench import record_from_report
    from .errors import BudgetExceeded
    from .solver import (SolveConfig, rational_solutions, solve_deterministic,
                         solve_lasvegas)
    from .sysfile import parse_system

    cfg = SolveConfig() if args.max_restarts is None else SolveConfig(args.max_restarts)
    if cfg.max_restarts < 1:
        return _bad_argument(f"--max-restarts must be at least 1, got {cfg.max_restarts}")
    system = parse_system(_read_file(args.file))
    rng = random.Random(args.seed)
    if args.lv:
        report = solve_lasvegas(system.polys, rng, config=cfg)
    else:
        report = solve_deterministic(system.polys, rng)
    try:
        solutions = rational_solutions(report)
    except BudgetExceeded:   # the field is too large to scan for roots
        solutions = None

    if args.json:
        payload = {
            "pipeline": report.pipeline,
            "p": system.field.p,
            "vars": system.varnames,
            "rep": {
                "parametrizations": report.rep.coeffs[:-1],
                "minimal_polynomial": report.rep.coeffs[-1],
            },
            "g": report.g.tolist() if report.g is not None else None,
            "solutions": [list(pt) for pt in solutions] if solutions is not None else None,
            "stats": record_from_report(report),
        }
        print(json.dumps(payload, indent=2))
        return 0

    print(f"pipeline: {report.pipeline}")
    st = report.stats
    print(f"n = {st.n}, D = {st.D}, p = {system.field.p}")
    if report.g is not None:
        print("change of variables g (original solutions are g*v):")
        for row in report.g.tolist():
            print("  " + " ".join(str(v) for v in row))
        print("representation of the transformed system:")
    print(f"  {_rep_text(report.rep, system.varnames)}")
    print(f"T_n density {st.tn_density:.4f}, computed normal forms {st.nf_type2_tn}, "
          f"retries {st.retries}, restarts {st.restarts}")
    print(f"times: gb {st.gb_time:.3f}s, matrices {st.matrix_time:.3f}s, "
          f"change-order {st.chord_time:.3f}s, total {st.total_time:.3f}s")
    if solutions is not None:
        if solutions:
            shown = ", ".join("(" + ", ".join(str(c) for c in pt) + ")" for pt in solutions)
            print(f"rational solutions: {shown}")
        else:
            print("rational solutions: none in the base field")
    return 0


def _print_matrix(name: str, mat) -> None:
    print(f"{name}:")
    for row in mat.tolist():
        print("  " + " ".join(str(v) for v in row))


def _cmd_matrices(args) -> int:
    from .errors import NotReadable
    from .gb import buchberger
    from .poly import Polynomial, TermOrder, to_string
    from .quotient import (build_matrices_echelon, build_matrices_fglm,
                           compute_basis, compute_frontier, try_read_Tn)
    from .sysfile import parse_system

    system = parse_system(_read_file(args.file))
    n = system.n
    gbd = buchberger(system.polys, TermOrder.drl(n), field=system.field)
    Q = compute_basis(gbd)
    frontier = compute_frontier(Q, gbd)
    if args.method == "free":
        try:
            mats, computed = [try_read_Tn(Q, gbd)], 0
        except NotReadable as exc:   # name the monomial in the file's variables
            mono = Polynomial.from_terms(system.field, n, [(exc.offending, 1)])
            raise NotReadable(exc.offending, to_string(mono, system.varnames)) from None
    else:
        build = build_matrices_fglm if args.method == "fglm" else build_matrices_echelon
        mats, _ = build(Q, gbd, frontier)
        computed = frontier.type2_nf
    if args.summary:
        print(f"D = {Q.dimension}, frontier size {len(frontier)}, "
              f"type-II members {frontier.type2_nf}")
        print(f"method {args.method}: computed normal forms {computed}")
        for mm in mats:
            print(f"T_{system.varnames[mm.var]} density {mm.matrix.density():.4f}")
    else:
        for mm in mats:
            _print_matrix(f"T_{system.varnames[mm.var]}", mm.matrix)
    return 0


def _cmd_bench(args) -> int:
    from .bench import format_table, run_bench

    if args.n < 1:
        return _bad_argument(f"--n must be at least 1, got {args.n}")
    records = run_bench(args.n, seed=args.seed)
    if args.json:
        print(json.dumps(records, indent=2))
    else:
        print(format_table(records))
    return 0


def _cmd_probbound(args) -> int:
    from .solver import probability_bound

    if args.n < 1:
        return _bad_argument(f"--n must be at least 1, got {args.n}")
    try:
        degrees = [int(d) for d in args.degrees.split(",") if d.strip()]
    except ValueError:
        return _bad_argument(f"--degrees must be comma-separated integers, got {args.degrees!r}")
    if len(degrees) != args.n:
        return _bad_argument(f"--n {args.n} needs {args.n} degrees, got {len(degrees)}")
    if min(degrees) < 1:
        return _bad_argument(f"every degree must be at least 1, got {args.degrees!r}")
    if args.q < 2:
        return _bad_argument(f"--q must be at least 2, got {args.q}")
    if args.dim is not None and args.dim < 1:
        return _bad_argument(f"--dim must be at least 1, got {args.dim}")
    pb = probability_bound(args.n, args.q, degrees, D=args.dim)
    frac = pb.bound
    print(f"n = {pb.n}, q = {pb.q}, degrees {pb.degrees}, D = {pb.D}")
    if pb.vacuous:
        print("bound >= 0 (vacuous: the error terms reach the field size)")
    else:
        print(f"bound >= {frac.numerator}/{frac.denominator} = {float(frac):.6f}")
    state = "satisfied" if pb.char_condition_ok else "NOT satisfied"
    print(f"characteristic condition q > {pb.delta}: {state}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.threads is not None:
        if args.threads < 1:
            return _bad_argument(f"--threads must be at least 1, got {args.threads}")
        # hint must land before the numerical backend starts its pool
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ.setdefault(var, str(args.threads))

    from .errors import ExhaustedRestarts, ParseError, PolysolveError

    handlers = {"gb": _cmd_gb, "solve": _cmd_solve, "matrices": _cmd_matrices,
                "bench": _cmd_bench, "probbound": _cmd_probbound}
    try:
        return handlers[args.command](args)
    except (ParseError, OSError) as exc:  # ParseError includes UnknownVariable
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ExhaustedRestarts as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:  # e.g. the D x D matrices of a huge quotient
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    except (PolysolveError, OverflowError) as exc:  # OverflowError: an exponent past 65535
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
