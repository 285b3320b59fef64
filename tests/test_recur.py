import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import levinson_breakdown_sequence
from polysolve.errors import SingularHankel
from polysolve.field import PrimeField
from polysolve.recur import (_safe_dot, berlekamp_massey, hankel_matrix,
                             hankel_solve, is_squarefree, minimal_polynomial_degree,
                             univariate_derivative, univariate_gcd)


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
    assert minimal_polynomial_degree(fib, f7) == 2


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
    assert hankel_solve([1, 2, 5], [1, 0], f7) == [5, 5]
    with pytest.raises(SingularHankel):
        hankel_solve([1, 0, 0], [1, 0], f7)  # rank 1 < 2


def test_hankel_solve_methods_agree(f65521):
    rng = random.Random(12)
    for dim in (3, 8, 64, 80):
        # sequence from a full-order recurrence keeps the leading minors
        # nonsingular with high probability; retry draws that are singular
        for _ in range(20):
            seq = _recurrent_sequence(f65521, dim, 2 * dim - 1, rng)
            rhs = [rng.randrange(65521) for _ in range(dim)]
            try:
                dense = hankel_solve(seq, rhs, f65521, method="dense")
            except SingularHankel:
                continue
            fast = hankel_solve(seq, rhs, f65521, method="levinson")
            auto = hankel_solve(seq, rhs, f65521, method="auto")
            assert dense == fast == auto
            break
        else:
            raise AssertionError("no nonsingular draw")
        # the solution actually solves the system
        h = hankel_matrix(seq, dim, f65521)
        assert list(h.apply(dense)) == [r % 65521 for r in rhs]


@pytest.mark.parametrize("p", [65521, 2 ** 31 - 1])
def test_hankel_block_solve_matches_columns(p):
    field = PrimeField(p)
    rng = random.Random(p % 1000)
    for dim in (1, 3, 64, 80):
        while True:   # a singular draw is rare; redraw it
            seq = _recurrent_sequence(field, dim, 2 * dim - 1, rng)
            try:
                hankel_solve(seq, [0] * dim, field, method="levinson")
                break
            except SingularHankel:
                continue
        for m in (0, 1, 3):
            block = np.array([[rng.randrange(p) for _ in range(m)] for _ in range(dim)],
                             dtype=np.int64).reshape(dim, m)
            for method in ("dense", "levinson", "auto"):
                got = hankel_solve(seq, block, field, method=method)
                assert isinstance(got, np.ndarray) and got.dtype == np.int64
                assert got.shape == (dim, m)
                for j in range(m):
                    col = hankel_solve(seq, [int(v) for v in block[:, j]], field,
                                       method=method)
                    assert [int(v) for v in got[:, j]] == col


def test_hankel_block_levinson_breakdown_falls_back(f101):
    # seq[dim-1] is the first leading minor of the reversed system, so
    # Levinson breaks down at once and the whole block is solved densely
    rng = random.Random(5)
    dim = 6
    seq = levinson_breakdown_sequence(f101, dim, rng)
    block = np.array([[rng.randrange(101) for _ in range(3)] for _ in range(dim)])
    dense = hankel_solve(seq, block, f101, method="dense")
    assert np.array_equal(hankel_solve(seq, block, f101, method="levinson"), dense)
    h = hankel_matrix(seq, dim, f101).a
    assert np.array_equal(h @ dense % 101, block % 101)


def test_hankel_block_singular_raises(f101):
    rng = random.Random(8)
    seq = _recurrent_sequence(f101, 3, 2 * 5 - 1, rng)   # rank 3 < 5
    block = np.ones((5, 2), dtype=np.int64)
    for method in ("dense", "levinson"):
        with pytest.raises(SingularHankel):
            hankel_solve(seq, block, f101, method=method)


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


def test_univariate_gcd(f7):
    # gcd(z^2 - 1, z - 1)  ->  z - 1 (monic: [6, 1])
    assert univariate_gcd([6, 0, 1], [6, 1], f7) == [6, 1]
    # coprime: gcd(z^2 + 1, z) = 1
    assert univariate_gcd([1, 0, 1], [0, 1], f7) == [1]
    assert univariate_gcd([], [], f7) == []
    assert univariate_gcd([0, 3], [], f7) == [0, 1]  # gcd with zero, monic


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


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 30))
def test_gcd_divides_both_inputs(seed):
    rng = random.Random(seed)
    field = PrimeField(101)
    a = [rng.randrange(101) for _ in range(rng.randrange(1, 6))] + [1]
    b = [rng.randrange(101) for _ in range(rng.randrange(1, 6))] + [1]
    g = univariate_gcd(a, b, field)

    def divides(d, f):
        # remainder of f by monic d must vanish
        f = list(f)
        while len(f) >= len(d):
            if f[-1]:
                q = f[-1]
                for i, c in enumerate(reversed(d)):
                    f[-1 - i] = (f[-1 - i] - q * c) % 101
            f.pop()
        return all(c == 0 for c in f)

    assert divides(g, a) and divides(g, b)


@pytest.mark.parametrize("p", [65521, 2 ** 31 - 1])
@pytest.mark.parametrize("k", [0, 1, 2048])
def test_safe_dot_exact_on_largest_residues(p, k):
    a = np.full(k, p - 1, dtype=np.int64)
    assert _safe_dot(a, a.copy(), p) == sum(int(u) * int(v) for u, v in zip(a, a)) % p
