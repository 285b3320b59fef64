"""End-to-end pipelines: one solve loop over draws of a change of
variables g.

The loop computes the reduced DRL basis, its quotient basis, the frontier
and the normal-form table of the frontier (``quotient.normal_form_table``)
once.  Each attempt then reads the last multiplication matrix T_n and runs
the recurrence-based change of ordering, retried with fresh random vectors
a few times.

``solve_deterministic`` is the loop with the one draw g = identity: T_n is
gathered from the table, and a failed change of ordering means the ideal is
not in shape position for these coordinates.  ``solve_lasvegas`` draws an
invertible g up to ``max_restarts`` times, each after the last attempt
failed: the transformed multiplication matrices are formed from the table,
the transformed ideal's reduced basis is derived from them (no second
Groebner computation), and T_n must be read off it for free.  Output is
always correct when produced — failure is only ever reported as
ExhaustedRestarts with diagnostics.

Also: the closed-form success-probability lower bound for a random g, and a
brute-force rational-solution oracle used by the cross-checking tests.
"""

from __future__ import annotations

import math
import random
import time
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import quotient
from .change_order import (ROOT_SCAN_LIMIT, UnivariateRep, _eval_points, _root_points,
                           _scan_points, change_ordering)
from .errors import (BudgetExceeded, ChangeOrderingFailed, ExhaustedRestarts, NotReadable,
                     NotShapePosition)
from .field import PrimeField
from .gb import GroebnerBasis, buchberger, groebner_from_matrices
from .linalg import Matrix, OpCounter, _mul_arrays
from .poly import Polynomial, TermOrder, apply_change_of_variables
from .quotient import (MulMatrix, QuotientStructure, compute_basis, compute_frontier,
                       normal_form_table, try_read_Tn)

_BAND = 16
_RETRIES = 4                       # fresh random vectors per ordering change


@dataclass
class SolveConfig:
    max_restarts: int = 8          # fresh g draws in the Las Vegas loop


@dataclass
class SolveStats:
    """The one record of a solve; the times are seconds per stage, named
    like the keys of ``solve --json``."""

    n: int
    D: int
    nf_type2_tn: int               # classical per-T_n normal-form count of this ideal
    tn_density: float
    read_ops: OpCounter
    retries: int                   # fresh random vectors consumed beyond the first
    restarts: int                  # g draws beyond the first (always 0 deterministic)
    gb_time: float
    matrix_time: float
    chord_time: float
    total_time: float


@dataclass
class SolveReport:
    pipeline: str                  # "deterministic" | "las_vegas"
    g: Matrix | None
    rep: UnivariateRep
    stats: SolveStats
    system: list[Polynomial]

    @cached_property
    def transformed_system(self) -> list[Polynomial] | None:
        """The input system under X -> g X (None without a change of
        variables); computed on first read, since no solve step needs it."""
        if self.g is None:
            return None
        return [apply_change_of_variables(f, self.g) for f in self.system]


def _require_system(F: list[Polynomial]) -> tuple[PrimeField, int]:
    if not F:
        raise ValueError("empty system")
    return F[0].field, F[0].n


def _transformed_gb(table: np.ndarray, targets: np.ndarray, g: Matrix,
                    fld: PrimeField, n: int) -> GroebnerBasis:
    """Reduced basis of the ideal under X -> g X without a second
    ``buchberger`` run.

    The quotient rings are isomorphic, and multiplication by x_j on the
    transformed side acts on the original coordinates as
    M_j = sum_k (g^-1)[j,k] T_k; enumerating monomials against the M_j
    reproduces the transformed ideal's reduced basis exactly
    (``groebner_from_matrices``).  Row l of T_k^T, column l of T_k, is
    ``quotient._rows`` of the row code ``targets[k, l]`` over ``table``.  So
    the M_j^T are formed from the table directly, in bands of ``_BAND``
    rows l: one decode of the band's codes for all k, in float64, which the
    kernel reads unconverted, and one exact product by g^-1.  The M_j^T are
    written once, contiguous, as one float64 stack, which the rebuild
    multiplies by without a copy.
    """
    p = fld.p
    dim = targets.shape[1]
    ginv = g.inverse().a
    mt = np.empty((n, dim, dim))
    for r in range(0, dim, _BAND):
        band = quotient._rows(table, targets[:, r:r + _BAND], dim, np.float64)
        mt[:, r:r + _BAND] = _mul_arrays(ginv, band.reshape(n, -1), p).reshape(n, -1, dim)
    return groebner_from_matrices(mt.transpose(0, 2, 1), fld, n)


def _transformed_gb_from_matrices(gb0: GroebnerBasis, Q0: QuotientStructure,
                                  mats0: list[np.ndarray], g: Matrix,
                                  cfg: SolveConfig) -> GroebnerBasis:
    """``_transformed_gb`` fed with the n multiplication matrices T_k
    themselves: their columns are stacked as the table, and every target
    points into it.

    The solver runs from the normal-form table and never calls this;
    acceptance criterion 8 and the rebuild tests do, with gathered
    matrices, so it keeps their signature: ``Q0`` and ``cfg`` are unused.
    """
    n = gb0.n
    dim = mats0[0].shape[0]
    table = np.concatenate([m.T for m in mats0])
    return _transformed_gb(table, dim + np.arange(n * dim).reshape(n, dim), g, gb0.field, n)


@contextmanager
def _stage(times: dict[str, float], name: str):
    """Add the time spent in the block to ``times[name]``."""
    t = time.perf_counter()
    try:
        yield
    finally:
        times[name] += time.perf_counter() - t


def _solve(F: list[Polynomial], rng, max_restarts: int | None) -> SolveReport:
    """One attempt per draw of g: the one draw None (g = identity) when
    ``max_restarts`` is None, else up to ``max_restarts`` random g, each
    drawn only after the attempt before failed, since ``change_ordering``
    draws from the same ``rng``.  The stages are ``gb`` (the DRL basis, its
    quotient basis and the rebuilds), ``matrix`` (frontier, table, T_n
    reads) and ``chord``."""
    fld, n = _require_system(F)
    times = dict.fromkeys(("gb", "matrix", "chord"), 0.0)
    t0 = time.perf_counter()
    with _stage(times, "gb"):
        gb = buchberger(F, TermOrder.drl(n), field=fld)
        Q = compute_basis(gb)   # NotZeroDimensional, with its cause
    with _stage(times, "matrix"):
        frontier = compute_frontier(Q, gb)
        table = normal_form_table(Q, frontier)

    read_failures = chord_failures = retries = 0
    last = None
    draws = ([None] if max_restarts is None else
             (fld.random_nonsingular_matrix(n, rng) for _ in range(max_restarts)))
    for attempt, g in enumerate(draws):
        counter = OpCounter()
        if g is None:
            gbT, QT = gb, Q
            with _stage(times, "matrix"):
                rows = quotient._gather(table, frontier.targets[n - 1])
                tn = MulMatrix(n - 1, Matrix(fld, rows.T))
            table = None   # the one draw: free the table before the Krylov steps
        else:
            with _stage(times, "gb"):
                gbT = _transformed_gb(table, frontier.targets, g, fld, n)
                QT = compute_basis(gbT)
            try:
                with _stage(times, "matrix"):
                    tn = try_read_Tn(QT, gbT, counter)
            except NotReadable:
                read_failures += 1
                continue

        rep = None
        with _stage(times, "chord"):
            for _ in range(_RETRIES):
                try:
                    rep = change_ordering(tn, gbT, QT, rng)[0]
                    break
                except ChangeOrderingFailed as exc:
                    last, retries = exc, retries + 1
        if rep is None:
            chord_failures += 1
            continue

        stats = SolveStats(n=n, D=Q.dimension,
                           nf_type2_tn=frontier.type2_for_var(n - 1) if g is None else 0,
                           tn_density=tn.matrix.density(),
                           read_ops=counter, retries=retries, restarts=attempt,
                           gb_time=times["gb"], matrix_time=times["matrix"],
                           chord_time=times["chord"], total_time=time.perf_counter() - t0)
        return SolveReport("deterministic" if g is None else "las_vegas", g, rep, stats, list(F))
    if max_restarts is None:
        raise NotShapePosition(
            f"minimal recurrence degree stayed at {last.degree} < {last.expected} "
            f"after {_RETRIES} random vectors")
    raise ExhaustedRestarts(max_restarts, read_failures, chord_failures)


def solve_deterministic(F: list[Polynomial], rng=None) -> SolveReport:
    """Shape-position representation without changing coordinates."""
    return _solve(F, rng or random.Random(0), None)


def solve_lasvegas(F: list[Polynomial], rng=None,
                   config: SolveConfig | None = None) -> SolveReport:
    """Random change of variables until the last multiplication matrix can
    be read for free; the returned representation describes the transformed
    system, with ``g`` attached (original solutions are {g v}).  Raises
    ValueError, before any basis is computed, when ``max_restarts`` < 1."""
    max_restarts = (config or SolveConfig()).max_restarts
    if max_restarts < 1:
        raise ValueError(f"max_restarts must be at least 1, got {max_restarts}")
    return _solve(F, rng or random.Random(0), max_restarts)


# -- solution recovery ------------------------------------------------------


def rational_solutions(report: SolveReport,
                       limit: int = ROOT_SCAN_LIMIT) -> list[tuple[int, ...]]:
    """All F_p-rational solutions of the ORIGINAL system, recovered from the
    representation by scanning for roots of h_n (transformed points are
    mapped back through g).  Refuses fields larger than ``limit``."""
    rep = report.rep
    p = rep.field.p
    coords = _root_points(rep, _scan_points(p, limit))
    if report.g is not None:
        coords = _mul_arrays(report.g.a, coords, p)
    return sorted(map(tuple, coords.T.tolist()))


def enumerate_rational_solutions(F: list[Polynomial],
                                 p_limit: int = 1 << 22) -> list[tuple[int, ...]]:
    """Brute-force oracle: every point of F_p^n zeroing the whole system."""
    fld, n = _require_system(F)
    p = fld.p
    if p ** n > p_limit:
        raise BudgetExceeded(f"{p}^{n} grid points exceed limit {p_limit}")
    axes = np.meshgrid(*([np.arange(p, dtype=np.int64)] * n), indexing="ij")
    coords = np.stack([a.ravel() for a in axes])
    alive = np.ones(coords.shape[1], dtype=bool)
    for f in F:
        alive &= _eval_points(f, coords, p) == 0
    return sorted(tuple(int(v) for v in coords[:, j]) for j in np.nonzero(alive)[0])


# -- success probability of a random change of variables --------------------


@dataclass
class ProbabilityBound:
    n: int
    q: int
    degrees: tuple[int, ...]
    D: int
    delta: int                     # the degree bound sum (d_i - 1) + 1
    bound: Fraction
    vacuous: bool
    char_condition_ok: bool        # q exceeds delta

    def __float__(self) -> float:
        return float(self.bound)


def probability_bound(n: int, q: int, degrees, D: int | None = None) -> ProbabilityBound:
    """Lower bound on the probability that a uniformly random change of
    variables yields a radical-preserving, separating last coordinate:
    1 - (D(D-1)/2 + delta (C(sum d_i + 1, n) - D)) / q with
    delta = sum (d_i - 1) + 1, clamped into [0, 1]."""
    degrees = tuple(int(d) for d in degrees)
    if len(degrees) != n:
        raise ValueError(f"expected {n} degrees, got {len(degrees)}")
    if D is None:
        D = math.prod(degrees)
    delta = sum(d - 1 for d in degrees) + 1
    total = sum(degrees)
    bad = Fraction(D * (D - 1), 2) + delta * (math.comb(total + 1, n) - D)
    bound = 1 - bad / q
    vacuous = bound <= 0
    if vacuous:
        bound = Fraction(0)
    elif bound > 1:
        bound = Fraction(1)
    return ProbabilityBound(n, q, degrees, D, delta, bound, vacuous, q > delta)
