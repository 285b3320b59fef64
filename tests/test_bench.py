import ast
import importlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

from polysolve.bench import appendix_family, format_table, record_from_report, run_bench
from polysolve.field import PrimeField
from polysolve.gb import buchberger
from polysolve.poly import Monomial, TermOrder
from polysolve.quotient import build_matrices_echelon, compute_basis, compute_frontier
from polysolve.solver import solve_deterministic

# perfbench/tracer.py names functions that are gone; it reports them as
# "not found" until the benchmark drops them
STALE_TRACER_TARGETS = {("linalg", "block_echelon"), ("recur", "hankel_solve")}


def test_family_shape():
    n = 4
    F = appendix_family(n, seed=0)
    assert len(F) == n
    order = TermOrder.drl(n)
    for i, f in enumerate(F):
        lead = Monomial(tuple(2 if j == i else 0 for j in range(n)))
        assert f.leading_monomial(order) == lead
        assert f.leading_coefficient(order) == 1
        assert f.total_degree() == 2
    assert F[0].field.p == 65521


def test_family_is_already_a_reduced_basis():
    n = 4
    F = appendix_family(n, seed=2)
    gb = buchberger(F, TermOrder.drl(n))
    assert gb.polys == sorted(F, key=lambda f: TermOrder.drl(n).key(
        f.leading_monomial(TermOrder.drl(n))))


def test_family_quotient_structure():
    for n in (3, 4, 5):
        F = appendix_family(n, seed=1)
        gb = buchberger(F, TermOrder.drl(n))
        q = compute_basis(gb)
        assert q.dimension == 2 ** n
        # standard monomials are exactly the squarefree ones
        assert all(all(e <= 1 for e in m.exps) for m in q.basis)
        fr = compute_frontier(q, gb)
        assert fr.type2_for_var(n - 1) == 2 ** (n - 1) - 1


def test_family_seed_reproducibility():
    a = appendix_family(5, seed=9)
    b = appendix_family(5, seed=9)
    c = appendix_family(5, seed=10)
    assert a == b
    assert a != c


def test_family_custom_field():
    field = PrimeField(101)
    F = appendix_family(3, field, seed=0)
    assert all(f.field.p == 101 for f in F)


def test_record_from_report():
    F = appendix_family(3, seed=4)
    report = solve_deterministic(F, random.Random(0))
    rec = record_from_report(report)
    assert rec["pipeline"] == "deterministic"
    assert rec["n"] == 3 and rec["D"] == 8
    assert rec["nf_count"] == 3
    assert 0.0 < rec["density"] < 1.0


def test_run_bench_rows():
    records = run_bench(4, seed=3)
    assert [r["pipeline"] for r in records] == ["deterministic", "las_vegas"]
    det, lv = records
    assert det["nf_count"] == 2 ** 3 - 1
    assert lv["nf_count"] == 0
    assert lv["density"] <= det["density"]
    table = format_table(records)
    assert "pipeline" in table and "las_vegas" in table


def test_worstcase_script_runs_from_a_clean_checkout(tmp_path):
    # no installed package and no PYTHONPATH: the script finds src itself
    script = Path(__file__).resolve().parents[1] / "scripts" / "bench_worstcase.py"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    # n = 1 (D = 2) is the smallest family, as for ``polysolve bench``
    done = subprocess.run([sys.executable, str(script), "--min-n", "1", "--max-n", "2", "--json"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    rows = [json.loads(line) for line in done.stdout.splitlines()]
    assert [r["n"] for r in rows] == [1, 2]
    assert [rec["D"] for r in rows for rec in r["records"]] == [2, 2, 4, 4]


def test_worstcase_script_writes_the_bench_file(tmp_path):
    # one fresh process per (n, pipeline, p), at both primes, and the
    # machine facts the numbers depend on
    script = Path(__file__).resolve().parents[1] / "scripts" / "bench_worstcase.py"
    out = tmp_path / "bench.json"
    done = subprocess.run([sys.executable, str(script), "--min-n", "1", "--max-n", "2",
                           "--out", str(out)], cwd=tmp_path, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    bench = json.loads(out.read_text())
    assert set(bench["machine"]) == {"nproc", "python", "numpy", "blas", "git_head", "git_changes"}
    # the files under src/ or scripts/ that differ from git_head, in a checkout
    changes = bench["machine"]["git_changes"]
    assert changes is None or all(line[3:].startswith(("src/", "scripts/")) for line in changes)
    records = bench["records"]
    assert [(r["p"], r["n"], r["pipeline"]) for r in records] == [
        (p, n, pipeline) for p in (65521, 2 ** 31 - 1) for n in (1, 2)
        for pipeline in ("deterministic", "las_vegas")]
    for r in records:
        assert r["D"] == 2 ** r["n"] and r["peak_rss_mb"] > 0
        assert r["retries"] >= 0 and r["restarts"] >= 0
        assert r["total_time"] >= r["gb_time"] + r["matrix_time"] + r["chord_time"] - 1e-9
    # the rows are run_bench's: the same seed gives the same counts
    det = run_bench(2, field=PrimeField(2 ** 31 - 1), pipelines=["deterministic"])
    assert [det[0][k] for k in ("nf_count", "density", "retries")] == \
        [records[6][k] for k in ("nf_count", "density", "retries")]


def _tracer_targets():
    """``TARGETS`` of perfbench/tracer.py, read from its source without running it."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TARGETS"
                                                for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no TARGETS")


def test_tracer_targets_resolve():
    for mod, fn in set(_tracer_targets()) - STALE_TRACER_TARGETS:
        assert callable(getattr(importlib.import_module(f"polysolve.{mod}"), fn, None)), \
            f"perfbench/tracer.py wraps polysolve.{mod}.{fn}, which does not exist"


def test_echelon_frontier_count_is_an_int():
    # the tracer adds build_matrices_echelon(...)[1].type2_nf to its counters
    gb = buchberger(appendix_family(3), TermOrder.drl(3))
    nf = build_matrices_echelon(compute_basis(gb), gb)[1].type2_nf
    assert type(nf) is int and nf > 0
