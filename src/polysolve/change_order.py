"""Change of ordering by linear recurrences.

Given the multiplication matrix of the last variable on a D-dimensional
quotient, a random linear form r yields the scalar sequence
S_j = r(x_n^j mod I).  Its minimal linear recurrence is the minimal
polynomial h_n of x_n; when deg h_n = D the ideal is in shape position and
every other variable satisfies x_i = h_i(x_n).  Each h_i comes from the
numerators of two generating functions: with N_0 from S and N_i from the
sequence r(x_i x_n^j), h_i = N_i N_0^-1 mod h_n (``recur.parametrizations``).
One extended Euclid on S gives both h_n and that inverse (``recur._minpoly``).

S and every sequence r(x_i x_n^j) are read off a single Krylov matrix of
T_n^T, the latter by one product with the normal-form coordinates of the
variables.  ``krylov_columns`` builds it by one matrix-vector step per
column when D >= 256 and at least half of the rows of T_n^T are unit
vectors (x_n times that basis monomial is itself standard, so the step is
a gather there), and otherwise with O(log D) matrix products by doubling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceeded, ChangeOrderingFailed
from .field import PrimeField
from .gb import GroebnerBasis
from .linalg import KrylovStats, _mul_arrays, krylov_columns
from .poly import Polynomial
from .quotient import MulMatrix, QuotientStructure, _nf_rows
from .recur import _minpoly, _trim_coeffs, parametrizations


@dataclass
class UnivariateRep:
    """Shape-position description of a zero-dimensional ideal.

    ``coeffs[i]`` (i < n-1) is the ascending coefficient list of h_i, the
    parametrization x_{i+1} = h_i(x_n); ``coeffs[n-1]`` is the monic minimal
    polynomial h_n of the last variable, of degree D.  All lists are
    canonical (no trailing zeros).
    """

    field: PrimeField
    n: int
    coeffs: list[list[int]]

    def __post_init__(self):
        self.coeffs = [_trim_coeffs(c) for c in self.coeffs]

    @property
    def degree(self) -> int:
        return len(self.coeffs[-1]) - 1


def change_ordering(tn: MulMatrix, gb: GroebnerBasis, quotient: QuotientStructure,
                    rng) -> tuple[UnivariateRep, KrylovStats]:
    """Shape-position representation from the last multiplication matrix,
    with the product counts of its Krylov matrix.

    Raises ChangeOrderingFailed, carrying the degree found, when the minimal
    recurrence of the random sequence has degree < D; callers retry with a
    new random form and, if that keeps failing, conclude the ideal is not in
    shape position for this coordinate choice.
    """
    fld = quotient.field
    p = fld.p
    n = quotient.n
    D = quotient.dimension
    stats = KrylovStats()
    r = fld.random_vector(D, rng)
    # Row psi(m) of K is the sequence r(x_n^j m), so row 0 (eps_0 = 1) is S
    # and c K is the sequence of the element with normal-form coordinates c.
    K = krylov_columns(tn.matrix.transpose(), r, D, stats=stats)
    mu, cofactor = _minpoly(K.a[0], p)
    if mu.shape[0] - 1 < D:
        raise ChangeOrderingFailed(mu.shape[0] - 1, D)

    # each x_i is standard or a leading monomial, so no row is unreadable
    C = _nf_rows(quotient, np.eye(n, dtype=np.int64)[:n - 1])
    h = parametrizations(K.a[0], _mul_arrays(C, K.a[:, :D], p), mu, cofactor, fld)
    return UnivariateRep(fld, n, h.tolist() + [mu.tolist()]), stats


# -- verification against the original system ------------------------------


@dataclass
class VerifyResult:
    ok: bool
    points_checked: int

    def __bool__(self) -> bool:
        return self.ok


def _horner_vec(coeffs: list[int], xs: np.ndarray, p: int) -> np.ndarray:
    acc = np.zeros_like(xs)
    for c in reversed(coeffs):
        acc = (acc * xs + c) % p
    return acc


def _powmod_vec(base: np.ndarray, e: int, p: int) -> np.ndarray:
    out = np.ones_like(base)
    b = base % p
    while e:
        if e & 1:
            out = out * b % p
        b = b * b % p
        e >>= 1
    return out


def _eval_points(f: Polynomial, coords: np.ndarray, p: int) -> np.ndarray:
    """f at every column of the n x N array of points."""
    acc = np.zeros(coords.shape[1], dtype=np.int64)
    for mono, c in f.terms.items():
        term = np.full(coords.shape[1], c, dtype=np.int64)
        for i, e in enumerate(mono.exps):
            if e:
                term = term * _powmod_vec(coords[i], e, p) % p
        acc = (acc + term) % p
    return acc


# the largest field a root scan covers: it evaluates h_n at every element
ROOT_SCAN_LIMIT = 1 << 20


def _scan_points(p: int, limit: int) -> np.ndarray:
    """Every element of F_p, for a root scan; refuses fields past ``limit``."""
    if p > limit:
        raise BudgetExceeded(f"root scan over {p} points exceeds limit {limit}")
    return np.arange(p, dtype=np.int64)


def _root_points(rep: UnivariateRep, xs: np.ndarray) -> np.ndarray:
    """The points (h_1(z), ..., h_{n-1}(z), z) for the distinct roots z of
    h_n among ``xs``, as the columns of an n x r array, ascending in z."""
    p = rep.field.p
    roots = np.unique(xs[_horner_vec(rep.coeffs[-1], xs, p) == 0])
    coords = np.empty((rep.n, roots.size), dtype=np.int64)
    for i in range(rep.n - 1):
        coords[i] = _horner_vec(rep.coeffs[i], roots, p)
    coords[-1] = roots
    return coords


def verify_rep(rep: UnivariateRep, system: list[Polynomial]) -> VerifyResult:
    """Check that every root of h_n in the base field maps to a common zero
    of the given system.

    The whole field is scanned, so every rational root is certified;
    ``points_checked`` says how many there are (possibly none).  A field
    larger than ``ROOT_SCAN_LIMIT`` (2^20) raises BudgetExceeded, as
    ``solver.rational_solutions`` does."""
    p = rep.field.p
    coords = _root_points(rep, _scan_points(p, ROOT_SCAN_LIMIT))
    ok = not any(np.any(_eval_points(f, coords, p)) for f in system)
    return VerifyResult(ok, coords.shape[1])
