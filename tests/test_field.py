import random

import pytest

from polysolve.errors import NonPrimeModulus, ZeroInverse
from polysolve.field import PrimeField, is_prime


def test_is_prime_small_cases():
    primes = {2, 3, 5, 7, 11, 101, 65521}
    for k in range(2, 120):
        assert is_prime(k) == all(k % d for d in range(2, k)), k
    for p in primes:
        assert is_prime(p)
    assert not is_prime(1)
    assert not is_prime(0)
    assert not is_prime(65521 * 65521)


@pytest.mark.parametrize("bad", [1, 4, 6, 91, 65520])
def test_non_prime_modulus_rejected(bad):
    with pytest.raises(NonPrimeModulus):
        PrimeField(bad)


def test_inverse(f101):
    for a in range(1, 101):
        assert a * f101.inv(a) % 101 == 1
    with pytest.raises(ZeroInverse):
        f101.inv(0)


def test_equality_and_hash():
    assert PrimeField(7) == PrimeField(7)
    assert PrimeField(7) != PrimeField(101)
    assert len({PrimeField(7), PrimeField(7), PrimeField(101)}) == 2


def test_random_vector_and_matrices(f101):
    rng = random.Random(0)
    v = f101.random_vector(5, rng)
    assert len(v) == 5 and all(0 <= x < 101 for x in v)
    m = f101.random_nonsingular_matrix(4, rng)
    assert m.rank() == 4
    # seeded rng makes the draw reproducible
    assert f101.random_vector(5, random.Random(1)) == f101.random_vector(5, random.Random(1))
