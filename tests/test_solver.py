import random
import time
from fractions import Fraction

import numpy as np
import pytest

from helpers import random_zero_dim_system, shape_instance
from polysolve import quotient as quotient_module, solver
from polysolve.bench import appendix_family
from polysolve.change_order import _eval_points
from polysolve.errors import (BudgetExceeded, DimensionMismatch, ExhaustedRestarts,
                              NotReadable, NotShapePosition, NotZeroDimensional,
                              PolysolveError)
from polysolve.field import PrimeField
from polysolve.gb import buchberger, lex_oracle
from polysolve.poly import Monomial, Polynomial, TermOrder
from polysolve.quotient import compute_basis, compute_frontier
from polysolve.solver import (SolveConfig, enumerate_rational_solutions,
                              probability_bound, rational_solutions,
                              solve_deterministic, solve_lasvegas)


def _xy(field):
    return (Polynomial.variable(field, 2, 0), Polynomial.variable(field, 2, 1))


def _c(field, v):
    return Polynomial.constant(field, 2, v)


def test_deterministic_worked_example(f7):
    x, y = _xy(f7)
    report = solve_deterministic([x - y * y, y ** 3 - _c(f7, 2)],
                                 random.Random(0))
    assert report.pipeline == "deterministic"
    assert report.rep.coeffs == [[0, 0, 1], [5, 0, 0, 1]]
    assert report.g is None
    assert report.stats.D == 3 and report.stats.n == 2
    assert rational_solutions(report) == []   # 2 is not a cube mod 7


def test_deterministic_simple_points(f7):
    x, y = _xy(f7)
    report = solve_deterministic([x - y, y * y - y], random.Random(0))
    assert rational_solutions(report) == [(0, 0), (1, 1)]
    assert report.stats.total_time > 0


def test_las_vegas_worked_example(f7):
    x, y = _xy(f7)
    report = solve_lasvegas([x - y, y * y - y], random.Random(0))
    assert report.pipeline == "las_vegas"
    assert report.g is not None and report.g.rank() == 2
    assert rational_solutions(report) == [(0, 0), (1, 1)]
    assert report.transformed_system is not None
    assert report.stats.read_ops.is_zero()


def test_las_vegas_handles_non_shape_input(f7):
    # (x^2 - y, y^2 - 1) is not in shape position as given; the random
    # change of variables fixes that, while the deterministic path refuses
    x, y = _xy(f7)
    system = [x * x - y, y * y - _c(f7, 1)]
    with pytest.raises(NotShapePosition):
        solve_deterministic(system, random.Random(0))
    report = solve_lasvegas(system, random.Random(0))
    assert rational_solutions(report) == [(1, 1), (6, 1)]
    assert report.stats.D == 4


def test_matching_reps_between_pipelines(f101):
    rng = random.Random(5)
    system, rep = shape_instance(f101, 2, 6, rng)
    det = solve_deterministic(system, random.Random(1))
    assert det.rep.coeffs == rep.coeffs
    # the Las Vegas answer describes the transformed system, but both give
    # the same original solutions
    lv = solve_lasvegas(system, random.Random(2))
    assert sorted(rational_solutions(det)) == sorted(rational_solutions(lv))


def test_identity_transform_matches_deterministic(f7, monkeypatch):
    from polysolve.linalg import Matrix

    # the first g drawn is the identity: LV then computes what det does
    monkeypatch.setattr(PrimeField, "random_nonsingular_matrix",
                        lambda self, n, rng: Matrix.identity(self, n))
    x, y = _xy(f7)
    system = [x - y * y, y ** 3 - _c(f7, 2)]
    det = solve_deterministic(system, random.Random(0))
    lv = solve_lasvegas(system, random.Random(0))
    assert lv.stats.restarts == 0
    assert lv.g.tolist() == [[1, 0], [0, 1]]
    assert lv.rep.coeffs == det.rep.coeffs


def test_mixed_rings_are_rejected(f7, f101):
    # polynomials over different fields, or on different numbers of
    # variables, do not generate one ideal
    x101 = Polynomial.variable(f101, 2, 0)
    y7 = Polynomial.variable(f7, 2, 1)
    y7_3 = Polynomial.variable(f7, 3, 1)
    for system in ([x101, y7], [_xy(f7)[0], y7_3], [y7_3, _xy(f7)[0]]):
        for solve in (solve_deterministic, solve_lasvegas):
            with pytest.raises(DimensionMismatch, match="different rings"):
                solve(system, random.Random(0))


def test_unit_ideal_is_rejected(f7):
    x, y = _xy(f7)
    for solve in (solve_deterministic, solve_lasvegas):
        with pytest.raises(NotZeroDimensional) as err:
            solve([x, x + _c(f7, 1)], random.Random(0))
        assert "contains 1" in str(err.value)


@pytest.mark.parametrize("case", ["unit", "line"])
def test_zero_dimensionality_has_one_cause(f7, case):
    # the quotient basis and both solves report the same cause: the ideal
    # contains 1, or the first variable without a pure-power leading term
    x, y = _xy(f7)
    system = [x - _c(f7, 1), x - _c(f7, 2)] if case == "unit" else [x * x, x * y]
    with pytest.raises(NotZeroDimensional) as want:
        compute_basis(buchberger(system, TermOrder.drl(2)))
    assert str(want.value) == {"unit": "the ideal contains 1; the system has no solutions",
                               "line": "x2 has no pure-power leading term"}[case]
    for solve in (solve_deterministic, solve_lasvegas):
        with pytest.raises(NotZeroDimensional) as got:
            solve(system, random.Random(0))
        assert str(got.value) == str(want.value)


def test_positive_dimension_is_rejected(f7):
    x, y = _xy(f7)
    with pytest.raises(NotZeroDimensional):
        solve_deterministic([x * y], random.Random(0))
    with pytest.raises(NotZeroDimensional):
        solve_lasvegas([x * y], random.Random(0))


def test_exhausted_restarts_on_never_cyclic_ideal(f101):
    # (x^2, y^2) has multiplicity structure no linear change of variables
    # can make cyclic, so every restart fails
    x, y = _xy(f101)
    with pytest.raises(ExhaustedRestarts) as err:
        solve_lasvegas([x * x, y * y], random.Random(0), config=SolveConfig(max_restarts=3))
    assert err.value.attempts == 3
    assert err.value.read_failures + err.value.chord_failures == 3


def test_lasvegas_rejects_max_restarts_below_one(f101, monkeypatch):
    # a loop of no transforms could only give up, so it is refused before
    # the basis of the input system is computed
    def refuse(*args, **kwargs):
        raise AssertionError("buchberger ran")

    monkeypatch.setattr(solver, "buchberger", refuse)
    x, y = _xy(f101)
    for restarts in (0, -3):
        with pytest.raises(ValueError, match=f"at least 1, got {restarts}"):
            solve_lasvegas([x * x - y, y * y - x], random.Random(0),
                           config=SolveConfig(max_restarts=restarts))


def _d1_system():
    f101 = PrimeField(101)
    x, y = _xy(f101)
    return [x - _c(f101, 3), y - _c(f101, 5)]


_LEX_ORACLE_CASES = {
    "shape-p101-D6": lambda: shape_instance(PrimeField(101), 2, 6, random.Random(9))[0],
    # the linear equation makes x_0 a leading monomial of every transformed
    # basis, so change_ordering reads NF(x_0) from that generator's tail
    "linear-equation": lambda: random_zero_dim_system(PrimeField(65521), 3, (1, 2, 2),
                                                      random.Random(3))[0],
    "D1": _d1_system,
    "p2^31-1": lambda: random_zero_dim_system(PrimeField(2 ** 31 - 1), 2, (2, 3),
                                              random.Random(4))[0],
}


@pytest.mark.parametrize("case", sorted(_LEX_ORACLE_CASES))
def test_lasvegas_matches_lex_oracle_on_transformed_system(case):
    system = _LEX_ORACLE_CASES[case]()
    fld, n = system[0].field, system[0].n
    report = solve_lasvegas(system, random.Random(4))
    assert report.rep.coeffs == lex_oracle(report.transformed_system, n, fld).coeffs
    again = solve_lasvegas(system, random.Random(4))
    assert again.g == report.g
    assert again.rep.coeffs == report.rep.coeffs
    if case == "linear-equation":
        gbT = buchberger(report.transformed_system, TermOrder.drl(n), field=fld)
        assert Monomial.variable(n, 0) in gbT.leading_monomials


def test_lasvegas_runs_buchberger_once(f101, monkeypatch):
    # every transformed basis comes from the multiplication matrices: the
    # only Groebner computation of a solve is the one on the input system
    calls = []
    real = solver.buchberger

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(solver, "buchberger", counting)
    system, _gb = random_zero_dim_system(f101, 2, (2, 2), random.Random(7))
    solve_lasvegas(system, random.Random(0))
    assert len(calls) == 1
    calls.clear()
    x, y = _xy(f101)
    with pytest.raises(ExhaustedRestarts):
        solve_lasvegas([x * x, y * y], random.Random(0), config=SolveConfig(max_restarts=3))
    assert len(calls) == 1


def test_lasvegas_rebuilds_once_per_transform(f101, monkeypatch):
    # each drawn g costs one rebuild of the transformed basis, all through
    # the one entry point
    calls = []
    real = solver.groebner_from_matrices

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(solver, "groebner_from_matrices", counting)
    system, _gb = random_zero_dim_system(f101, 2, (2, 2), random.Random(7))
    report = solve_lasvegas(system, random.Random(0))
    assert len(calls) == report.stats.restarts + 1
    calls.clear()
    x, y = _xy(f101)
    with pytest.raises(ExhaustedRestarts):
        solve_lasvegas([x * x, y * y], random.Random(0), config=SolveConfig(max_restarts=3))
    assert len(calls) == 3


def _log_draws(monkeypatch) -> list[str]:
    """The events of the solves that follow, in order: "draw" for each g
    drawn, "chord" for each change of ordering, "unreadable" for each T_n
    that cannot be read."""
    events = []
    real_draw, real_chord, real_read = (PrimeField.random_nonsingular_matrix,
                                        solver.change_ordering, solver.try_read_Tn)

    def draw(self, n, rng):
        events.append("draw")
        return real_draw(self, n, rng)

    def chord(*args):
        events.append("chord")
        return real_chord(*args)

    def read(*args):
        try:
            return real_read(*args)
        except NotReadable:
            events.append("unreadable")
            raise

    monkeypatch.setattr(PrimeField, "random_nonsingular_matrix", draw)
    monkeypatch.setattr(solver, "change_ordering", chord)
    monkeypatch.setattr(solver, "try_read_Tn", read)
    return events


def _assert_lazy_draws(events):
    # change_ordering draws its random vectors from the same rng, so each g
    # after the first must be drawn only once the attempt before it failed
    draws = [i for i, e in enumerate(events) if e == "draw"]
    assert draws[0] == 0
    for a, b in zip(draws, draws[1:]):
        assert {"chord", "unreadable"} & set(events[a + 1:b])


def test_draw_order(f7, f101, monkeypatch):
    events = _log_draws(monkeypatch)
    x, y = _xy(f7)
    solve_deterministic([x - y * y, y ** 3 - _c(f7, 2)], random.Random(0))
    assert "draw" not in events and "chord" in events
    events.clear()
    report = solve_lasvegas([x * x - y, y * y - _c(f7, 1)], random.Random(0))
    assert report.stats.restarts == 1
    assert events.count("draw") == report.stats.restarts + 1
    _assert_lazy_draws(events)
    events.clear()
    x, y = _xy(f101)
    with pytest.raises(ExhaustedRestarts):
        solve_lasvegas([x * x, y * y], random.Random(0), config=SolveConfig(max_restarts=3))
    assert events.count("draw") == 3
    _assert_lazy_draws(events)


# the solver's calls each stage time must hold
_STAGE_CALLS = {"gb": ("buchberger", "_transformed_gb", "compute_basis"),
                "matrix": ("compute_frontier", "normal_form_table", "try_read_Tn"),
                "chord": ("change_ordering",)}


def _time_stage_calls(monkeypatch) -> dict[str, float]:
    spent = dict.fromkeys(_STAGE_CALLS, 0.0)

    def timed(real, stage):
        def call(*args, **kwargs):
            t = time.perf_counter()
            try:
                return real(*args, **kwargs)
            finally:
                spent[stage] += time.perf_counter() - t
        return call

    for stage, names in _STAGE_CALLS.items():
        for name in names:
            monkeypatch.setattr(solver, name, timed(getattr(solver, name), stage))
    monkeypatch.setattr(quotient_module, "_gather", timed(quotient_module._gather, "matrix"))
    return spent


@pytest.mark.parametrize("case", ["det", "lv", "lv-restart"])
def test_stage_times_hold_their_calls(case, monkeypatch):
    f7 = PrimeField(7)
    x, y = _xy(f7)
    system = ([x * x - y, y * y - _c(f7, 1)] if case == "lv-restart"
              else [x - y * y, y ** 3 - _c(f7, 2)])
    gb = buchberger(system, TermOrder.drl(2))
    type2 = compute_frontier(compute_basis(gb), gb).type2_for_var(1)
    spent = _time_stage_calls(monkeypatch)
    solve = solve_deterministic if case == "det" else solve_lasvegas
    st = solve(system, random.Random(0)).stats
    assert st.restarts == (case == "lv-restart")
    assert st.nf_type2_tn == (type2 if case == "det" else 0)
    times = {"gb": st.gb_time, "matrix": st.matrix_time, "chord": st.chord_time}
    for stage, t in times.items():
        assert spent[stage] > 0
        assert t >= spent[stage] - 1e-9, stage
    assert sum(times.values()) <= st.total_time


def test_solution_recovery_applies_the_transform(f101):
    rng = random.Random(13)
    system, _ = shape_instance(f101, 3, 5, rng)
    report = solve_lasvegas(system, random.Random(3))
    sols = rational_solutions(report)
    assert sols == enumerate_rational_solutions(system)
    points = np.array(sols, dtype=np.int64).reshape(-1, 3).T
    for f in system:
        assert not _eval_points(f, points, 101).any()


def test_rational_solutions_budget(f7):
    x, y = _xy(f7)
    report = solve_deterministic([x - y, y * y - y], random.Random(0))
    with pytest.raises(BudgetExceeded):
        rational_solutions(report, limit=3)


def test_enumerate_worked_examples(f7, f101):
    x, y = _xy(f7)
    assert enumerate_rational_solutions([x - _c(f7, 1), y - _c(f7, 2)]) == [(1, 2)]
    x1 = Polynomial.variable(f7, 1, 0)
    none = Polynomial.univariate(f7, 1, 0, [1, 0, 1])   # x^2 + 1, no roots mod 7
    assert enumerate_rational_solutions([none]) == []
    sq = Polynomial.univariate(f101, 1, 0, [1, 0, 1])   # 10^2 = -1 mod 101
    assert enumerate_rational_solutions([sq]) == [(10,), (91,)]


def test_enumerate_budget(f101):
    x, y = _xy(f101)
    with pytest.raises(BudgetExceeded):
        enumerate_rational_solutions([x, y], p_limit=100)


def test_probability_bound_worked_example():
    b = probability_bound(2, 65521, (2, 2))
    assert b.bound == Fraction(65497, 65521)
    assert float(b) == pytest.approx(1 - 24 / 65521)
    assert b.D == 4 and b.delta == 3 and not b.vacuous and b.char_condition_ok


def test_probability_bound_monotone_in_q():
    qs = [101, 257, 1009, 4099, 65521, 2 ** 31 - 1]
    vals = [probability_bound(3, q, (2, 2, 2)).bound for q in qs]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    assert all(0 <= v <= 1 for v in vals)


def test_probability_bound_vacuous_for_tiny_fields():
    b = probability_bound(2, 101, (4, 4))
    assert b.vacuous
    assert b.bound == 0
    big = probability_bound(2, 2 ** 31 - 1, (4, 4))
    assert not big.vacuous and big.bound > Fraction(9, 10)


def test_probability_bound_char_condition():
    # q must exceed 1 + sum of degree excesses; (30,30,30,30) gives 117
    small = probability_bound(4, 101, (30, 30, 30, 30))
    assert not small.char_condition_ok
    assert probability_bound(4, 65521, (30, 30, 30, 30)).char_condition_ok
    assert probability_bound(4, 101, (7, 7, 7, 7)).char_condition_ok  # 25 < 101


def test_random_systems_det_equals_brute(f101):
    rng = random.Random(17)
    hits = 0
    for _ in range(6):
        system, _gb = random_zero_dim_system(f101, 2, (2, 2), rng)
        try:
            det = solve_deterministic(system, rng)
        except NotShapePosition:
            continue   # legitimately possible for special staircases
        assert rational_solutions(det) == enumerate_rational_solutions(system)
        hits += 1
    assert hits >= 3


# -- pinned outputs ------------------------------------------------------------
#
# Digests of (rep.coeffs, g, retries, restarts) for both pipelines on fixed
# inputs and seeds, or of the exception class where a solve raises.  A change
# that keeps every output bit-identical leaves them unchanged.

_PINNED_PRIMES = (101, 65521, 2 ** 31 - 1)
_PINNED_SHAPES = ((2, (2, 2)), (2, (2, 3)), (3, (1, 2, 2)), (3, (2, 2, 2)), (4, (2, 2, 2, 2)))


def _pinned_systems(family: str, field: PrimeField):
    from polysolve.bench import appendix_family

    if family == "appendix":
        return [appendix_family(n, field, seed) for n in range(2, 8) for seed in (0, 1)]
    x, y = _xy(field)
    # not in shape position as given (det raises), and never cyclic (both raise)
    raising = [[x * x - y, y * y - _c(field, 1)], [x * x, y * y]]
    return raising + [random_zero_dim_system(field, n, degrees, random.Random(k))[0]
                      for k, (n, degrees) in enumerate(_PINNED_SHAPES)]


def _pinned_outcome(solve, system, seed):
    try:
        report = solve(system, random.Random(seed))
    except PolysolveError as exc:
        return type(exc).__name__
    g = report.g.tolist() if report.g is not None else None
    return (report.rep.coeffs, g, report.stats.retries, report.stats.restarts)


_PINNED_DIGESTS = {
    ("appendix", 101): "8a33e3e6d8b9e3f7",
    ("appendix", 65521): "5ac8010cf35b979a",
    ("appendix", 2 ** 31 - 1): "dc8cbdea3fb169c3",
    ("random", 101): "de63dd117c1cfa2d",
    ("random", 65521): "dd0dbc856528bc09",
    ("random", 2 ** 31 - 1): "ce727071944161b7",
}


@pytest.mark.parametrize("p", _PINNED_PRIMES)
@pytest.mark.parametrize("family", ["appendix", "random"])
def test_pinned_outputs(family, p):
    import hashlib

    outcomes = []
    for system in _pinned_systems(family, PrimeField(p)):
        outcomes.append(_pinned_outcome(solve_deterministic, system, 1))
        outcomes.append(_pinned_outcome(solve_lasvegas, system, 2))
    digest = hashlib.sha256(repr(outcomes).encode()).hexdigest()[:16]
    assert digest == _PINNED_DIGESTS[family, p]


def test_lasvegas_never_gathers_a_matrix(monkeypatch):
    # LV forms its transformed matrices from the normal-form table; only
    # det gathers a multiplication matrix, and only T_n
    n = 5
    F = appendix_family(n, PrimeField(65521), seed=n)
    real = quotient_module._gather
    gathered = []

    def refuse(table, tgt):
        raise AssertionError("solve_lasvegas gathered a multiplication matrix")

    def spy(table, tgt):
        gathered.append(tgt.copy())
        return real(table, tgt)

    monkeypatch.setattr(quotient_module, "_gather", refuse)
    assert solve_lasvegas(F, random.Random(2)).rep.degree == 2 ** n
    monkeypatch.setattr(quotient_module, "_gather", spy)
    assert solve_deterministic(F, random.Random(1)).rep.degree == 2 ** n
    gb = buchberger(F, TermOrder.drl(n))
    targets = compute_frontier(compute_basis(gb), gb).targets
    assert len(gathered) == 1 and np.array_equal(gathered[0], targets[n - 1])
