"""Linearly recurrent sequences: minimal polynomials and Hankel systems.

The minimal polynomial is returned in the monic "characteristic" convention:
``mu = x^L + c_{L-1} x^{L-1} + ... + c_0`` with ``sum_k mu[k] * S[j+k] = 0``
for every window, so that when the sequence comes from a multiplication
matrix and has full degree, ``mu`` IS the univariate eliminant.  (This is the
reversal of the LFSR connection polynomial, zero-padded to the register
length, so the degree equals the recurrence order even when the trailing
connection coefficient vanishes.)

Hankel systems H c = b with H[i][j] = seq[i+j] are solved either by dense
elimination (default) or by a Levinson-style O(D^2) recursion on the
row-reversed Toeplitz form; the fast path is guarded by its running
leading-minor check and falls back to dense elimination if a minor is
singular.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, SingularHankel
from .field import PrimeField
from .linalg import Matrix, _rref_arrays


def _safe_dot(a: np.ndarray, b: np.ndarray, p: int) -> int:
    # canonical residues below 2^31: each product is below 2^62 and each
    # reduced term below 2^31, so the int64 sum is exact
    return int((a * b % p).sum() % p)


def berlekamp_massey(seq, field: PrimeField) -> list[int]:
    """Minimal polynomial of a scalar sequence, ascending coefficients.

    Returns [c_0, ..., c_{L-1}, 1]; the zero sequence gives [1].
    """
    p = field.p
    s = np.asarray(list(seq), dtype=np.int64) % p
    nlen = s.shape[0]
    # connection polynomial c(x), ascending; register length ell
    c = np.zeros(nlen + 1, dtype=np.int64)
    b = np.zeros(nlen + 1, dtype=np.int64)
    c[0] = b[0] = 1
    ell, m, bb = 0, 1, 1
    for i in range(nlen):
        if ell:
            d = (int(s[i]) + _safe_dot(c[1:ell + 1], s[i - ell:i][::-1], p)) % p
        else:
            d = int(s[i]) % p
        if d == 0:
            m += 1
        elif 2 * ell <= i:
            t = c.copy()
            coef = d * pow(bb, -1, p) % p
            c[m:nlen + 1] = (c[m:nlen + 1] - coef * b[:nlen + 1 - m]) % p
            ell, b, bb, m = i + 1 - ell, t, d, 1
        else:
            coef = d * pow(bb, -1, p) % p
            c[m:nlen + 1] = (c[m:nlen + 1] - coef * b[:nlen + 1 - m]) % p
            m += 1
    # reverse to the monic characteristic convention, padded to degree ell
    return [int(c[ell - k]) for k in range(ell + 1)]


def minimal_polynomial_degree(seq, field: PrimeField) -> int:
    return len(berlekamp_massey(seq, field)) - 1


def hankel_matrix(seq, dim: int, field: PrimeField) -> Matrix:
    """Materialized dim x dim Hankel matrix (tests and rank checks only;
    the solving paths work from the defining sequence)."""
    s = np.asarray(list(seq), dtype=np.int64) % field.p
    if s.shape[0] < 2 * dim - 1:
        raise DimensionMismatch(f"need {2 * dim - 1} sequence entries, got {s.shape[0]}")
    idx = np.add.outer(np.arange(dim), np.arange(dim))
    return Matrix(field, s[idx])


def _hankel_solve_dense(s: np.ndarray, rhs: np.ndarray, dim: int, p: int) -> np.ndarray:
    idx = np.add.outer(np.arange(dim), np.arange(dim))
    aug = np.hstack([s[idx], rhs])
    pivots = _rref_arrays(aug, p)
    if pivots != list(range(dim)):
        raise SingularHankel(f"Hankel matrix of size {dim} is singular")
    return aug[:, dim:].copy()


class _LevinsonBreakdown(Exception):
    """A leading principal minor of the reversed system was singular."""


def _hankel_solve_levinson(s: np.ndarray, rhs: np.ndarray, dim: int, p: int) -> np.ndarray:
    # Reversing the rows of H gives a Toeplitz matrix T[i][j] = s[D-1+j-i];
    # solve T X = reversed(B) by the asymmetric Levinson recursion.  f, g and
    # every breakdown test depend on s only, so all columns share them.
    y = rhs[::-1]
    t0 = int(s[dim - 1])
    if t0 == 0:
        raise _LevinsonBreakdown
    inv0 = pow(t0, -1, p)
    f = np.array([inv0], dtype=np.int64)   # T_k f = e_first
    g = np.array([inv0], dtype=np.int64)   # T_k g = e_last
    x = np.zeros_like(rhs)                 # rows :k+1 solve the order-k system
    x[0] = y[0] * inv0 % p
    for k in range(1, dim):
        below = s[dim - 1 - k:dim - 1]       # (t_-k, ..., t_-1)
        above = s[dim:dim + k]               # (t_1, ..., t_k)
        ea = (_safe_dot(below, f, p)) % p    # bottom defect of [f; 0]
        eb = (_safe_dot(above, g, p)) % p    # top defect of [0; g]
        den = (1 - ea * eb) % p
        if den == 0:
            raise _LevinsonBreakdown
        inv_den = pow(int(den), -1, p)
        fx = np.concatenate([f, np.zeros(1, dtype=np.int64)])
        gx = np.concatenate([np.zeros(1, dtype=np.int64), g])
        f = (fx - ea * gx) % p * inv_den % p
        g = (gx - eb * fx) % p * inv_den % p
        # exact for the same reason as _safe_dot, column by column
        defect = (y[k] - (below[:, None] * x[:k] % p).sum(axis=0)) % p
        x[:k + 1] = (x[:k + 1] + g[:, None] * defect) % p
    return x


def hankel_solve(seq, rhs, field: PrimeField, method: str = "dense", *,
                 _ran: list | None = None):
    """Solve H c = b where H[i][j] = seq[i+j] and b has length D.

    ``rhs`` is one right-hand side (returns the solution as a list) or a
    D x m block of them (returns the D x m int64 solution array); a block
    costs one recursion or one elimination, not m.
    method: "dense" (elimination), "levinson" (fast path with dense
    fallback on a singular leading minor), or "auto" (levinson for D >= 64).
    Raises SingularHankel when the system has no unique solution.
    ``_ran`` (for ``change_ordering``), when given, receives the method
    that produced the solution: "dense" after a Levinson breakdown.
    """
    p = field.p
    block = np.asarray(rhs if isinstance(rhs, np.ndarray) else list(rhs),
                       dtype=np.int64) % p
    single = block.ndim == 1
    if single:
        block = block[:, None]
    dim = block.shape[0]
    s = np.asarray(list(seq), dtype=np.int64) % p
    if s.shape[0] < 2 * dim - 1:
        raise DimensionMismatch(f"need {2 * dim - 1} sequence entries, got {s.shape[0]}")
    if method == "auto":
        method = "levinson" if dim >= 64 else "dense"
    if method not in ("dense", "levinson"):
        raise ValueError(f"unknown Hankel method {method!r}")
    x = None
    if method == "levinson" and dim:
        try:
            x = _hankel_solve_levinson(s, block, dim, p)
        except _LevinsonBreakdown:
            pass    # a singular leading minor: the whole block goes dense
    if x is None:
        method = "dense"
        x = _hankel_solve_dense(s, block, dim, p)
    if _ran is not None:
        _ran.append(method)
    return [int(v) for v in x[:, 0]] if single else x


# -- univariate utilities ---------------------------------------------------


def _trim_coeffs(c: list[int]) -> list[int]:
    """Drop trailing zeros: canonical ascending coefficient list."""
    out = list(c)
    while out and out[-1] == 0:
        out.pop()
    return out


def univariate_gcd(a, b, field: PrimeField) -> list[int]:
    """Monic gcd of two ascending coefficient lists (empty list for both
    zero)."""
    p = field.p
    ra = _trim_coeffs([c % p for c in a])
    rb = _trim_coeffs([c % p for c in b])
    while rb:
        da, db = len(ra) - 1, len(rb) - 1
        if da < db:
            ra, rb = rb, ra
            continue
        inv = pow(rb[-1], -1, p)
        while len(ra) - 1 >= db and ra:
            shift = len(ra) - 1 - db
            q = ra[-1] * inv % p
            for k in range(db + 1):
                ra[shift + k] = (ra[shift + k] - q * rb[k]) % p
            ra = _trim_coeffs(ra)
        ra, rb = rb, ra
    if not ra:
        return []
    inv = pow(ra[-1], -1, p)
    return [c * inv % p for c in ra]


def univariate_derivative(coeffs, field: PrimeField) -> list[int]:
    p = field.p
    return _trim_coeffs([k * c % p for k, c in enumerate(coeffs)][1:])


def is_squarefree(coeffs, field: PrimeField) -> bool:
    """True iff the polynomial has no repeated roots in any extension."""
    g = univariate_gcd(coeffs, univariate_derivative(coeffs, field), field)
    return len(g) == 1
