"""Linearly recurrent sequences on one univariate core: Berlekamp-Massey,
the Hankel solves of the change of ordering, squarefree test.

The minimal polynomial is returned in the monic "characteristic" convention:
``mu = x^L + c_{L-1} x^{L-1} + ... + c_0`` with ``sum_k mu[k] * S[j+k] = 0``
for every window, so that when the sequence comes from a multiplication
matrix and has full degree, ``mu`` IS the univariate eliminant.

The univariate core works on ascending int64 coefficient arrays: products
by Kronecker substitution into Python ints (which CPython multiplies by
Karatsuba), an extended Euclid on preallocated arrays, and reduction modulo
a monic polynomial through the Newton inverse of its reversal.  Every
quadratic step is that one Euclid.  ``berlekamp_massey`` runs it halfway on
x^N and the reversed sequence: the cofactor at the first remainder of lower
degree than its cofactor is mu.  ``parametrizations`` runs it to the end to
invert the sequence's numerator modulo mu, and so solves the Hankel systems
H c = b, H[i][j] = seq[i+j], of the change of ordering: no Hankel matrix is
formed, and there is no fallback, because the numerator is invertible
modulo mu exactly when H is nonsingular.  ``is_squarefree`` runs it on a
polynomial and its derivative.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import DimensionMismatch, ZeroInverse
from .field import PrimeField
from .linalg import Matrix, _sub_mod


def berlekamp_massey(seq, field: PrimeField) -> list[int]:
    """Minimal polynomial of a scalar sequence, ascending coefficients.

    Returns [c_0, ..., c_{L-1}, 1]; the zero and the empty sequence give
    [1].  A monic mu of degree L annihilates every window of s_0..s_{N-1}
    exactly when mu S mod x^N has degree below L, for S = sum_j s_j
    x^(N-1-j).  So the extended Euclid on (x^N, S), stopped at the first
    remainder of lower degree than its cofactor, yields mu as that
    cofactor made monic (Dornstetter 1987).

    mu is unique when 2L <= N, as in the change of ordering, where
    L <= D and N = 2D.  On a shorter sequence several monic annihilators
    of the minimal degree L can exist; one of them is returned.
    """
    p = field.p
    s = np.asarray(list(seq), dtype=np.int64) % p
    xn = np.zeros(s.shape[0] + 1, dtype=np.int64)
    xn[-1] = 1
    _, t = _euclid(xn, s[::-1], p, half=True)
    return (t * pow(int(t[-1]), -1, p) % p).tolist()


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


def _pack(a: np.ndarray, slot: int) -> int:
    """Kronecker substitution: sum_k a[k] 256^(slot k), for residues below
    both 2^31 and 256^slot."""
    buf = np.zeros((a.shape[0], slot), dtype=np.uint8)
    w = min(slot, 4)
    buf[:, :w] = a.astype("<u4").view(np.uint8).reshape(-1, 4)[:, :w]
    return int.from_bytes(buf.tobytes(), "little")


def _poly_mul(a: np.ndarray, b: np.ndarray, p: int, size: int | None = None) -> np.ndarray:
    """a b mod p for canonical residues, truncated to its first ``size``
    coefficients.

    Both operands are packed into Python ints, one slot per coefficient,
    and multiplied once.  A coefficient of the product is a sum of at most
    min(len a, len b) terms below (p-1)^2, so slots of that many bytes keep
    the coefficients apart.
    """
    full = a.shape[0] + b.shape[0] - 1
    size = full if size is None else min(size, full)
    if size <= 0:
        return np.zeros(0, dtype=np.int64)
    slot = ((min(a.shape[0], b.shape[0]) * (p - 1) ** 2).bit_length() + 7) // 8
    z = _pack(a, slot) * _pack(b, slot)
    nbytes = size * slot
    if size < full:
        z &= (1 << 8 * nbytes) - 1
    raw = np.frombuffer(z.to_bytes(nbytes, "little"), dtype=np.uint8)
    return raw.reshape(size, slot).astype(np.int64) @ _byte_weights(slot, p) % p


@functools.lru_cache(maxsize=64)
def _byte_weights(slot: int, p: int) -> np.ndarray:
    """256^k mod p for k < slot, read-only: weighting a slot's bytes by them
    gives terms below 2^39 and sums below 2^43."""
    w = np.array([pow(256, k, p) for k in range(slot)], dtype=np.int64)
    w.flags.writeable = False
    return w


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
    """a mod mu, for mu monic of degree D and rinv = rev(mu)^-1 mod T^(len a - D).

    The quotient's reversal is rev(a) rev(mu)^-1 mod T^(len a - D).
    """
    dim = mu.shape[0] - 1
    m = a.shape[0] - dim
    if m <= 0:
        return a
    q = _poly_mul(a[::-1][:m], rinv[:m], p, m)[::-1]
    return _sub_mod(a[:dim], _poly_mul(q, mu, p, dim), p)


def _degree(a: np.ndarray, d: int) -> int:
    """Degree of a, scanning down from d (-1 for zero)."""
    while d >= 0 and a[d] == 0:
        d -= 1
    return d


def _euclid(a: np.ndarray, b: np.ndarray, p: int,
            half: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Extended Euclid for a of degree len(a) - 1 > deg b: the last nonzero
    remainder g (not made monic) and the cofactor t with t b = g mod a.

    With ``half`` it stops earlier, at the first remainder r of lower
    degree than its cofactor t, and returns (r, t): the minimal polynomial
    step of ``berlekamp_massey``.  Remainders and cofactors live in four
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
        return r1[:d1 + 1].copy(), t1[:e1 + 1].copy()
    return r0[:d0 + 1].copy(), t0[:e0 + 1].copy()


def parametrizations(seq, rows, mu, field: PrimeField) -> np.ndarray:
    """Solve the Hankel systems sum_k h[i, k] seq[j + k] = rows[i, j], j < D,
    without forming the Hankel matrix.

    ``mu`` is the minimal polynomial of ``seq`` as ``berlekamp_massey``
    returns it, of degree D; any D terms start a sequence s of that
    recurrence.  Let N(s) be the reversal of rev(mu) sum_{j<D} s_j T^j
    mod T^D, the numerator of its generating function.  Row i of the
    result is h_i = N(rows[i]) N(seq)^-1 mod mu, as an m x D int64 array of
    ascending coefficients.  N(seq) is invertible mod mu exactly when the
    D x D Hankel matrix of ``seq`` is nonsingular; otherwise ZeroInverse
    is raised.
    """
    p = field.p
    mu = np.asarray(mu, dtype=np.int64) % p
    dim = mu.shape[0] - 1
    rows = np.asarray(rows, dtype=np.int64).reshape(-1, dim) % p
    rev = mu[::-1].copy()

    def numerator(s: np.ndarray) -> np.ndarray:
        return _poly_mul(rev, s, p, dim)[::-1]

    g, inv = _euclid(mu, numerator(np.asarray(seq[:dim], dtype=np.int64) % p), p)
    if g.shape[0] != 1:
        raise ZeroInverse(f"the Hankel matrix of size {dim} is singular")
    inv = inv * pow(int(g[0]), -1, p) % p
    rinv = _inverse_series(rev, dim - 1, p)
    out = np.zeros(rows.shape, dtype=np.int64)
    for i, row in enumerate(rows):
        h = _rem(_poly_mul(numerator(row), inv, p), mu, rinv, p)
        out[i, :h.shape[0]] = h
    return out


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
