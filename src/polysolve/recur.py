"""Linearly recurrent sequences on one univariate core: Berlekamp-Massey,
the Hankel solves of the change of ordering, squarefree test.

The minimal polynomial is returned in the monic "characteristic" convention:
``mu = x^L + c_{L-1} x^{L-1} + ... + c_0`` with ``sum_k mu[k] * S[j+k] = 0``
for every window, so that when the sequence comes from a multiplication
matrix and has full degree, ``mu`` IS the univariate eliminant.

The univariate core works on ascending int64 coefficient arrays: blocked
products through the exact matrix kernel, an extended Euclid on
preallocated arrays, and reduction modulo a monic polynomial through the
Newton inverse of its reversal.  Every quadratic step is that one Euclid,
and a change of ordering runs it once: ``_minpoly`` stops it halfway on
x^N and the reversed sequence S, at r_k = s_k x^N + t_k S, and t_k made
monic is mu.  There s_k is a scalar times N(S), the numerator of the
sequence's generating function, and s_k t_{k-1} - s_{k-1} t_k = +-1, so
N(S) t_{k-1} is a nonzero constant modulo mu: up to that constant, the
previous cofactor t_{k-1} is the inverse with which ``parametrizations``
solves the Hankel systems H c = b, H[i][j] = seq[i+j].  No Hankel matrix
is formed, and there is no fallback, because N(S) is invertible modulo mu
exactly when H is nonsingular.  ``is_squarefree`` runs the Euclid to the
end on a polynomial and its derivative.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, ZeroInverse
from .field import PrimeField
from .linalg import Matrix, _mul_arrays, _reduce, _sub_mod


def _minpoly(s: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """The minimal polynomial mu of a sequence of canonical residues,
    ascending and monic, and the previous cofactor t_{k-1}.

    A monic mu of degree L annihilates every window of s_0..s_{N-1}
    exactly when mu S mod x^N has degree below L, for S = sum_j s_j
    x^(N-1-j).  So the extended Euclid on (x^N, S), stopped at the first
    remainder of lower degree than its cofactor, yields mu as that
    cofactor made monic (Dornstetter 1987).
    """
    xn = np.zeros(s.shape[0] + 1, dtype=np.int64)
    xn[-1] = 1
    _, t, prev = _euclid(xn, s[::-1], p, half=True)
    return t * pow(int(t[-1]), -1, p) % p, prev


def berlekamp_massey(seq, field: PrimeField) -> list[int]:
    """Minimal polynomial [c_0, ..., c_{L-1}, 1] of a scalar sequence; the
    zero and the empty sequence give [1].  mu is unique when 2L <= N, as in
    the change of ordering, where L <= D and N = 2D; on a shorter sequence
    one of several monic annihilators of the minimal degree is returned."""
    return _minpoly(np.asarray(list(seq), dtype=np.int64) % field.p, field.p)[0].tolist()


def hankel_matrix(seq, dim: int, field: PrimeField) -> Matrix:
    """Materialized dim x dim Hankel matrix (tests and rank checks only;
    the solving paths work from the defining sequence)."""
    s = np.asarray(list(seq), dtype=np.int64) % field.p
    if s.shape[0] < 2 * dim - 1:
        raise DimensionMismatch(f"need {2 * dim - 1} sequence entries, got {s.shape[0]}")
    idx = np.add.outer(np.arange(dim), np.arange(dim))
    return Matrix(field, s[idx])


# -- the univariate core ------------------------------------------------------
#
# Polynomials are ascending int64 arrays of canonical residues.


def _trim_coeffs(c: list[int]) -> list[int]:
    """Drop trailing zeros: canonical ascending coefficient list."""
    out = list(c)
    while out and out[-1] == 0:
        out.pop()
    return out


# columns of a chunk in ``_poly_mul``: ``parametrizations`` on the appendix
# family (2 cores, OpenBLAS; min of 30 calls, 8 at D = 1024, in 3 processes)
# took 1.9-2.1, 1.3-1.5, 1.2-1.4 ms with chunks of 32, 64, 128 at D = 512 and
# 7.1-7.4, 3.9-4.5, 2.9-3.2 ms at D = 1024 (p = 65521); 4.8-5.3, 3.6-4.0, 4.0
# ms at D = 512 and 0.76-0.87, 0.78-0.89, 0.86-1.0 ms at D = 128 (p = 2^31-1)
_MUL_BLOCK = 64


def _poly_mul(a: np.ndarray, b: np.ndarray, p: int, size: int | None = None) -> np.ndarray:
    """a b mod p for canonical residues, truncated to its first ``size``
    coefficients; ``a`` is one polynomial or a 2-D batch of rows.

    Every chunk of w = min(len a, ``_MUL_BLOCK``) columns of a times b is a
    row of one exact product, of inner dimension w, with the w x (layers w)
    Toeplitz block of b.  Chunk j's product is added in from column j w,
    one layer of w columns at a time, and the sums are reduced once."""
    a, b = a[..., :size], b[:size]   # later coefficients cannot reach the first size
    k, L = a.shape[-1], b.shape[0]
    size = k + L - 1 if size is None else min(size, k + L - 1)
    if size <= 0 or not k or not L:
        return np.zeros(a.shape[:-1] + (max(size, 0),), dtype=np.int64)
    w = min(k, _MUL_BLOCK)
    chunks, layers = -(-k // w), -(-(w + L - 1) // w)
    m, width = a.size // k, chunks * w
    rows = np.zeros((m, width), dtype=np.int64)
    rows[:, :k] = a.reshape(m, k)
    padded = np.zeros(w - 1 + layers * w, dtype=np.int64)
    padded[w - 1:w - 1 + L] = b
    # [i, c] = b[c - i]: row i is a view of padded from i entries before b
    toeplitz = np.ndarray((w, layers * w), np.int64, padded, (w - 1) * 8, (-8, 8))
    prod = _mul_arrays(rows.reshape(-1, w), toeplitz, p).reshape(m, chunks, layers * w)
    if chunks == 1:
        out = prod[:, 0]
    else:
        out = np.zeros((m, (chunks + layers - 1) * w), dtype=np.int64)
        for j in range(layers):
            out[:, j * w:j * w + width] += prod[:, :, j * w:(j + 1) * w].reshape(m, width)
        if layers > 1:
            out = _reduce(out, p)
    return out[:, :size].reshape(a.shape[:-1] + (size,))


def _inverse_series(f: np.ndarray, m: int, p: int) -> np.ndarray:
    """f^-1 mod T^m for f[0] != 0, by Newton iteration g <- g (2 - f g)."""
    g = np.array([pow(int(f[0]), -1, p)], dtype=np.int64)
    k = 1
    while k < m:
        # f g = 1 + T^k e mod T^2k, so the new terms are -g e mod T^k
        nk = min(2 * k, m)
        e = _poly_mul(f[:nk], g, p, nk)[k:]
        g = np.concatenate([g, _sub_mod(0, _poly_mul(g, e, p, nk - k), p)])
        k = nk
    return g[:m]


def _rem(a: np.ndarray, mu: np.ndarray, rinv: np.ndarray, p: int) -> np.ndarray:
    """a mod mu for a polynomial or a batch of rows a, mu monic of degree
    D and rinv = rev(mu)^-1 mod T^(len a - D): the quotient's reversal is
    rev(a) rinv mod T^(len a - D)."""
    dim = mu.shape[0] - 1
    m = a.shape[-1] - dim
    if m <= 0:
        return a
    q = _poly_mul(a[..., ::-1][..., :m], rinv[:m], p, m)[..., ::-1]
    return _sub_mod(a[..., :dim], _poly_mul(q, mu, p, dim), p)


def _degree(a: np.ndarray, d: int) -> int:
    """Degree of a, scanning down from d (-1 for zero)."""
    while d >= 0 and a[d] == 0:
        d -= 1
    return d


def _euclid(a: np.ndarray, b: np.ndarray, p: int, half: bool = False):
    """Extended Euclid for a of degree len(a) - 1 > deg b: the last nonzero
    remainder g (not made monic) and the cofactor t with t b = g mod a.

    With ``half`` it stops earlier, at the first remainder r of lower
    degree than its cofactor t, and returns (r, t, the previous cofactor):
    the step of ``_minpoly``.  Remainders and cofactors live in four
    preallocated arrays that trade places each step; degrees are tracked
    as ints, and entries above a remainder's degree are stale, never read.
    """
    n = a.shape[0]
    r0 = a.astype(np.int64)
    r1 = np.zeros(n, dtype=np.int64)
    r1[:b.shape[0]] = b
    t0 = np.zeros(n, dtype=np.int64)    # t0 b = r0, t1 b = r1 (mod a)
    t1 = np.zeros(n, dtype=np.int64)
    t1[0] = 1
    d0, d1 = n - 1, _degree(r1, b.shape[0] - 1)
    e0, e1 = -1, 0                       # deg t0 < deg t1
    while d1 >= (e1 if half else 0):
        # divide r0 by r1 in place; t0 -= (the quotient) t1 alongside
        inv = pow(int(r1[d1]), -1, p)
        low, tc = r1[:d1], t1[:e1 + 1]
        for k in range(d0, d1 - 1, -1):
            c = int(r0[k]) * inv % p
            if c:
                s = k - d1
                seg = r0[s:k]
                seg -= c * low
                seg %= p
                seg = t0[s:s + e1 + 1]
                seg -= c * tc
                seg %= p
        r0, r1, t0, t1 = r1, r0, t1, t0
        d0, d1, e0, e1 = d1, _degree(r1, d1 - 1), e1, e1 + d0 - d1
    if half:
        return r1[:d1 + 1].copy(), t1[:e1 + 1].copy(), t0[:e0 + 1].copy()
    return r0[:d0 + 1].copy(), t0[:e0 + 1].copy()


def parametrizations(seq, rows, mu, cofactor, field: PrimeField) -> np.ndarray:
    """Solve the Hankel systems sum_k h[i, k] seq[j + k] = rows[i, j], j < D,
    without forming the Hankel matrix.

    ``mu`` is the minimal polynomial of ``seq``, of degree D, and
    ``cofactor`` the one ``_minpoly`` returns with it.  N(s), the reversal
    of rev(mu) sum_{j<D} s_j T^j mod T^D, is the numerator of the sequence
    of that recurrence that s starts.  Row i of the m x D result (``rows``
    is m x D, or one row) is h_i = N(rows[i]) N(seq)^-1 mod mu, ascending.
    The inverse is certified: N(seq) cofactor mod mu must be a nonzero
    constant c, and then it is cofactor / c; otherwise, as when the Hankel
    matrix of ``seq`` is singular, ZeroInverse is raised."""
    p = field.p
    mu = np.asarray(mu, dtype=np.int64) % p
    dim = mu.shape[0] - 1
    block = np.atleast_2d(np.asarray(rows, dtype=np.int64) % p)
    if block.ndim != 2 or block.shape[1] != dim or len(seq) < dim:
        raise DimensionMismatch(f"rows {block.shape} and {len(seq)} terms for degree {dim}")
    # row 0 is seq's own numerator, which the certificate reads
    block = np.concatenate([np.asarray(seq[:dim], dtype=np.int64)[None] % p, block])
    rev = mu[::-1].copy()
    num = _poly_mul(block, rev, p, dim)[:, ::-1]
    prod = _poly_mul(num, np.asarray(cofactor, dtype=np.int64) % p, p)
    rem = _rem(prod, mu, _inverse_series(rev, prod.shape[1] - dim, p), p)
    h = np.zeros(block.shape, dtype=np.int64)
    h[:, :rem.shape[1]] = rem
    c = int(h[0, 0])
    if not c or h[0, 1:].any():
        raise ZeroInverse(f"the Hankel matrix of size {dim} is singular")
    return h[1:] * pow(c, -1, p) % p


def univariate_derivative(coeffs, field: PrimeField) -> list[int]:
    """Formal derivative, coefficients low degree first, trimmed."""
    p = field.p
    return _trim_coeffs([k * c % p for k, c in enumerate(coeffs)][1:])


def is_squarefree(coeffs, field: PrimeField) -> bool:
    """True iff the polynomial has no repeated roots in any extension."""
    p = field.p
    f = np.array(_trim_coeffs([c % p for c in coeffs]), dtype=np.int64)
    if f.shape[0] == 0:
        return False
    df = np.array(univariate_derivative(f.tolist(), field), dtype=np.int64)
    g, _ = _euclid(f, df, p)
    return g.shape[0] == 1
