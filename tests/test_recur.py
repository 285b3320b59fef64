import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import levinson_breakdown_sequence
from polysolve.errors import DimensionMismatch, ZeroInverse
from polysolve.field import PrimeField
from polysolve.recur import (_MUL_BLOCK, _euclid, _inverse_series, _minpoly, _poly_mul, _rem,
                             berlekamp_massey, hankel_matrix, is_squarefree,
                             parametrizations, univariate_derivative)


def _recurrent_sequence(field, order, length, rng):
    """Random linear recurrence of the given order with random initials."""
    rec = [rng.randrange(field.p) for _ in range(order)]
    seq = [rng.randrange(field.p) for _ in range(order)]
    while len(seq) < length:
        nxt = sum(r * s for r, s in zip(rec, seq[-order:])) % field.p
        seq.append(nxt)
    return seq


def test_berlekamp_massey_frozen_cases(f7):
    # constant sequence: s_{k+1} = s_k, minimal polynomial z - 1
    assert berlekamp_massey([1, 1, 1, 1], f7) == [6, 1]
    # Fibonacci mod 7: z^2 - z - 1
    fib = [1, 1]
    for _ in range(8):
        fib.append((fib[-1] + fib[-2]) % 7)
    assert berlekamp_massey(fib, f7) == [6, 6, 1]
    # zero sequence has minimal polynomial 1
    assert berlekamp_massey([0, 0, 0, 0], f7) == [1]
    # geometric sequence r^k: z - r
    assert berlekamp_massey([1, 3, 2, 6], f7) == [4, 1]


def test_berlekamp_massey_is_monic_and_minimal(f101):
    rng = random.Random(6)
    for _ in range(30):
        order = rng.randrange(1, 7)
        seq = _recurrent_sequence(f101, order, 4 * order, rng)
        mu = berlekamp_massey(seq, f101)
        d = len(mu) - 1
        assert mu[-1] == 1
        assert d <= order
        # annihilation at every window
        for k in range(len(seq) - d):
            acc = sum(c * seq[k + i] for i, c in enumerate(mu)) % 101
            assert acc == 0


def test_hankel_matrix_layout(f7):
    h = hankel_matrix([1, 2, 3, 4, 5], 3, f7)
    assert h.tolist() == [[1, 2, 3], [2, 3, 4], [3, 4, 5]]


def test_hankel_solve_frozen(f7):
    # [[1,2],[2,5]] x = [1,0]  ->  x = (5,5): 5+2*5=15=1, 2*5+5*5=35=0
    seq = [1, 2, 5, 0]
    mu, cofactor = _minpoly(np.array(seq), 7)
    assert len(mu) == 3
    assert parametrizations(seq, [[1, 0]], mu, cofactor, f7).tolist() == [[5, 5]]


def _nonsingular_hankel_sequence(field, dim, rng):
    """2 dim entries whose dim x dim Hankel matrix is nonsingular, so their
    minimal polynomial has degree dim."""
    while True:
        seq = [rng.randrange(field.p) for _ in range(2 * dim)]
        if hankel_matrix(seq, dim, field).rank() == dim:
            return seq


def _hankel_inverse_solve(seq, block, field):
    """The oracle: rows of (H^-1 block^T)^T with H materialised, the
    product in Python ints (int64 overflows at p = 2^31 - 1)."""
    dim = block.shape[1]
    hinv = hankel_matrix(seq, dim, field).inverse().a.astype(object)
    return (hinv @ block.T.astype(object) % field.p).T.astype(np.int64)


def _annihilates(mu, seq, p):
    d = len(mu) - 1
    return all(sum(c * seq[j + k] for k, c in enumerate(mu)) % p == 0
               for j in range(len(seq) - d))


def _oracle_minpoly(seq, dim, field):
    """The monic mu of degree dim whose low coefficients c solve
    H c = -(seq[dim], ..., seq[2 dim - 1]), H the dim x dim Hankel matrix."""
    if dim == 0:
        return [1]
    rhs = np.array([[-v % field.p for v in seq[dim:2 * dim]]], dtype=np.int64)
    return _hankel_inverse_solve(seq, rhs, field)[0].tolist() + [1]


@pytest.mark.parametrize("p", [101, 65521, 2 ** 31 - 1])
def test_berlekamp_massey_matches_hankel_oracle(p):
    # 2L <= N: the minimal polynomial is unique, so it must equal the one
    # solved from the L x L Hankel system
    field = PrimeField(p)
    rng = random.Random(p % 1009)
    cases = [([], 0), ([0] * 9, 0)]
    for dim in range(1, 40):
        cases.append((_nonsingular_hankel_sequence(field, dim, rng), dim))   # full degree
        while True:                                                          # deficient
            seq = _recurrent_sequence(field, dim, 2 * dim + 1 + rng.randrange(dim + 2), rng)
            if hankel_matrix(seq, dim, field).rank() == dim:
                break
        cases.append((seq, dim))
    for seq, dim in cases:
        mu = berlekamp_massey(seq, field)
        assert 2 * dim <= len(seq)
        assert mu == _oracle_minpoly(seq, dim, field), (len(seq), dim)


def test_berlekamp_massey_short_sequences_are_minimal(f7):
    # 2L > N: mu need not be unique, but it is monic, annihilates every
    # window, and no monic polynomial of lower degree does (brute force)
    rng = random.Random(17)
    seen = 0
    for _ in range(400):
        seq = [rng.randrange(7) if rng.random() < 0.6 else 0 for _ in range(rng.randrange(1, 7))]
        mu = berlekamp_massey(seq, f7)
        d = len(mu) - 1
        if 2 * d <= len(seq):
            continue
        seen += 1
        assert mu[-1] == 1 and _annihilates(mu, seq, 7)
        for k in range(d):
            # every monic polynomial of degree k, one per row: low coefficients
            # then the leading 1; a row annihilates when all windows vanish
            mus = np.array([low + (1,) for low in itertools.product(range(7), repeat=k)])
            windows = np.array([seq[j:j + k + 1] for j in range(len(seq) - k)]).reshape(-1, k + 1)
            assert (mus @ windows.T % 7).any(axis=1).all(), (seq, k)
    assert seen > 50


def test_berlekamp_massey_returns_python_ints(f65521):
    # the change of ordering concatenates it into UnivariateRep coefficients
    for seq in ([], [0, 0], [1, 2, 3, 5, 8, 13], np.arange(6, dtype=np.int64)):
        mu = berlekamp_massey(seq, f65521)
        assert type(mu) is list and all(type(c) is int for c in mu)


@pytest.mark.parametrize("p", [101, 65521, 2 ** 31 - 1])
def test_parametrizations_match_hankel_inverse(p):
    field = PrimeField(p)
    rng = random.Random(p % 997)
    cases = [(_nonsingular_hankel_sequence(field, dim, rng), dim) for dim in range(1, 65)]
    if p == 101:
        # seq[dim - 1] = 0: the first leading minor of the row-reversed
        # (Toeplitz) system is singular although H is not
        seq = levinson_breakdown_sequence(field, 6, random.Random(5))
        cases.append((seq + [0], 6))
    for seq, dim in cases:
        mu, cofactor = _minpoly(np.array(seq, dtype=np.int64), p)
        assert len(mu) == dim + 1
        m = rng.randrange(4)
        block = np.array([[rng.randrange(p) for _ in range(dim)] for _ in range(m)],
                         dtype=np.int64).reshape(m, dim)
        got = parametrizations(seq, block, mu, cofactor, field)
        assert got.dtype == np.int64 and got.shape == (m, dim)
        assert np.array_equal(got, _hankel_inverse_solve(seq, block, field)), dim


@pytest.mark.parametrize("p", [65521, 2 ** 31 - 1])
def test_hankel_block_solve_matches_columns(p):
    field = PrimeField(p)
    rng = random.Random(p % 1000)
    for dim in (1, 3, 64, 80):
        seq = _nonsingular_hankel_sequence(field, dim, rng)
        mu, cofactor = _minpoly(np.array(seq, dtype=np.int64), p)
        for m in (0, 1, 3):
            block = np.array([[rng.randrange(p) for _ in range(dim)] for _ in range(m)],
                             dtype=np.int64).reshape(m, dim)
            got = parametrizations(seq, block, mu, cofactor, field)
            for j in range(m):
                one = parametrizations(seq, block[j], mu, cofactor, field)
                assert np.array_equal(got[j], one[0])


def test_hankel_block_singular_raises(f101):
    # a degree-5 multiple of the degree-3 minimal polynomial: the 5 x 5
    # Hankel matrix has rank 3 and N_0 shares a factor with the modulus
    rng = random.Random(8)
    seq = _recurrent_sequence(f101, 3, 2 * 5, rng)
    mu, cofactor = _minpoly(np.array(seq, dtype=np.int64), 101)
    assert len(mu) == 4
    mu5 = _schoolbook(mu, [3, 0, 1], 101)
    with pytest.raises(ZeroInverse):
        parametrizations(seq, np.ones((2, 5), dtype=np.int64), mu5, cofactor, f101)


def test_parametrizations_reject_a_block_of_another_width(f101):
    # a 3 x 4 block against a degree-6 mu; one row of D entries is accepted
    rng = random.Random(9)
    seq = _nonsingular_hankel_sequence(f101, 6, rng)
    mu, cofactor = _minpoly(np.array(seq, dtype=np.int64), 101)
    assert len(mu) == 7
    with pytest.raises(DimensionMismatch):
        parametrizations(seq, np.ones((3, 4), dtype=np.int64), mu, cofactor, f101)
    with pytest.raises(DimensionMismatch):
        parametrizations(seq, np.ones(5, dtype=np.int64), mu, cofactor, f101)
    with pytest.raises(DimensionMismatch):
        parametrizations(seq[:5], np.ones((1, 6), dtype=np.int64), mu, cofactor, f101)
    assert parametrizations(seq, np.ones(6, dtype=np.int64), mu, cofactor, f101).shape == (1, 6)


@pytest.mark.parametrize("p", [101, 65521, 2 ** 31 - 1])
def test_minpoly_cofactor_inverts_the_numerator(p):
    # N(seq) t_{k-1} mod mu is a nonzero constant when the Hankel matrix of
    # seq is nonsingular: the inverse that parametrizations certifies
    field = PrimeField(p)
    rng = random.Random(p % 977)
    for dim in range(1, 65):
        seq = _nonsingular_hankel_sequence(field, dim, rng)
        mu, cofactor = _minpoly(np.array(seq, dtype=np.int64), p)
        assert mu.tolist() == berlekamp_massey(seq, field) and len(mu) == dim + 1
        assert 1 <= len(cofactor) <= dim
        num = _schoolbook(mu.tolist()[::-1], seq[:dim], p)[:dim][::-1]
        _, r = _divmod_schoolbook(_schoolbook(num, cofactor, p), mu.tolist(), p)
        r += [0] * (dim - len(r))
        assert r[0] != 0 and not any(r[1:]), dim


def test_hankel_rank_equals_minimal_polynomial_degree(f101):
    rng = random.Random(77)
    for _ in range(100):
        order = rng.randrange(0, 9)
        m = order + 2
        if order == 0:
            seq = [0] * (2 * m - 1)
        else:
            seq = _recurrent_sequence(f101, order, 2 * m - 1, rng)
        mu = berlekamp_massey(seq, f101)
        assert hankel_matrix(seq, m, f101).rank() == len(mu) - 1


def _schoolbook(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] += int(u) * int(v)
    return [c % p for c in out]


def _divmod_schoolbook(a, m, p):
    """Quotient and remainder of a by monic m, in Python ints."""
    r = [int(c) for c in a]
    dm = len(m) - 1
    q = [0] * max(len(r) - dm, 0)
    for k in range(len(r) - 1, dm - 1, -1):
        c = r[k] % p
        q[k - dm] = c
        for j in range(dm + 1):
            r[k - dm + j] = (r[k - dm + j] - c * m[j]) % p
    return q, [c % p for c in r[:dm]]


@pytest.mark.parametrize("p", [101, 65521, 2 ** 31 - 1])
def test_poly_mul_matches_schoolbook(p):
    # a's columns go in chunks of B: one short chunk (k < B), exactly one
    # (k = B) and several with a short last one, against b of length 1 (one
    # layer), shorter and longer than a; as a batch of rows and one by one
    rng = random.Random(p % 991)
    B = _MUL_BLOCK
    for k in (1, 2, B - 1, B, B + 1, 2 * B, 3 * B + 5):
        for L in (1, 2, k, k + 1 + rng.randrange(2 * B), 4 * B + 3):
            for top in (p - 1, None):
                a = [[top if top else rng.randrange(p) for _ in range(k)] for _ in range(3)]
                b = [top if top else rng.randrange(p) for _ in range(L)]
                want = [_schoolbook(row, b, p) for row in a]
                xa, xb = np.array(a, dtype=np.int64), np.array(b, dtype=np.int64)
                assert _poly_mul(xa, xb, p).tolist() == want, (k, L)
                assert _poly_mul(xa[1], xb, p).tolist() == want[1]
                assert _poly_mul(xb, xa[2], p).tolist() == want[2]
                full = k + L - 1
                for size in (1, B - 1, B, rng.randrange(1, full + 1), full, full + 7, 0, -2):
                    got = _poly_mul(xa, xb, p, size)
                    assert got.shape == (3, max(min(size, full), 0))
                    assert got.tolist() == [w[:max(size, 0)] for w in want], (k, L, size)
                assert _poly_mul(xa[:0], xb, p).shape == (0, full)


@pytest.mark.parametrize("p", [101, 65521, 2 ** 31 - 1])
def test_inverse_series_and_rem_match_schoolbook(p):
    rng = random.Random(p % 983)
    for dim in (1, 2, 3, 7, 31, 32, 33, 100):
        mu = [rng.randrange(p) for _ in range(dim)] + [1]
        rev = np.array(mu[::-1], dtype=np.int64)
        rinv = _inverse_series(rev, dim + 5, p)
        assert _poly_mul(rev, rinv, p, dim + 5).tolist() == [1] + [0] * (dim + 4)
        for la in (1, dim, dim + 1, 2 * dim - 1, 2 * dim + 5):
            a = [rng.randrange(p) for _ in range(la)]
            _, want = _divmod_schoolbook(a, mu, p)
            got = _rem(np.array(a, dtype=np.int64), np.array(mu, dtype=np.int64),
                       rinv, p).tolist()
            assert got + [0] * (dim - len(got)) == want + [0] * (dim - len(want))


def _monic(g, p):
    inv = pow(int(g[-1]), -1, p)
    return [int(c) * inv % p for c in g]


def test_univariate_gcd(f7):
    # gcd(z^2 - 1, z - 1)  ->  z - 1 (monic: [6, 1])
    g, t = _euclid(np.array([6, 0, 1]), np.array([6, 1]), 7)
    assert _monic(g, 7) == [6, 1]
    # coprime: gcd(z^2 + 1, z) = 1, and t z = g mod z^2 + 1
    g, t = _euclid(np.array([1, 0, 1]), np.array([0, 1]), 7)
    assert len(g) == 1
    assert _divmod_schoolbook(_schoolbook(t, [0, 1], 7), [1, 0, 1], 7)[1] == [int(g[0]), 0]
    # gcd with zero is the other input, with a zero cofactor
    g, t = _euclid(np.array([0, 3]), np.array([], dtype=np.int64), 7)
    assert g.tolist() == [0, 3] and t.tolist() == []


def test_univariate_derivative(f7):
    assert univariate_derivative([5, 1, 3], f7) == [1, 6]  # d/dz (3z^2+z+5)
    assert univariate_derivative([2], f7) == []
    # characteristic kicks in: d/dz z^7 = 0
    assert univariate_derivative([0] * 7 + [1], f7) == []


def test_is_squarefree(f7):
    assert not is_squarefree([0, 0, 1], f7)          # z^2
    assert is_squarefree([1, 0, 1], f7)              # z^2 + 1 (irreducible mod 7)
    assert not is_squarefree([1, 2, 1], f7)          # (z+1)^2
    assert is_squarefree([0, 6, 0, 0, 1], f7)        # z^4 - z, distinct roots
    assert is_squarefree([0, 1], f7)                 # z
    assert not is_squarefree([0] * 7 + [1], f7)      # z^7: its derivative is 0 mod 7
    assert is_squarefree([3], f7) and is_squarefree([1, 0, 0], f7)
    assert not is_squarefree([], f7)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 30))
def test_gcd_divides_both_inputs(seed):
    rng = random.Random(seed)
    a = [rng.randrange(101) for _ in range(rng.randrange(1, 6))] + [1]
    b = [rng.randrange(101) for _ in range(rng.randrange(len(a) - 1))]
    b.append(rng.randrange(1, 101))   # nonzero, of degree below a's
    g, t = _euclid(np.array(a, dtype=np.int64), np.array(b, dtype=np.int64), 101)
    g = [int(c) for c in g]
    assert g and g[-1]

    def divides(d, f):
        return not any(_divmod_schoolbook(f, _monic(d, 101), 101)[1])

    assert divides(g, a) and divides(g, b)
    # the cofactor: t b = g mod a
    tb = _divmod_schoolbook(_schoolbook(t, b, 101), a, 101)[1]
    assert tb == g + [0] * (len(tb) - len(g))
