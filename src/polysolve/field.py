"""Prime-field arithmetic.

Everything downstream works over F_p for an odd prime p with 2 < p < 2^31.
Scalars are canonical integer residues in [0, p), as plain ints.  The
default modulus used by the benchmark family is 65521, the largest prime
below 2^16.
"""

from __future__ import annotations

from .errors import NonPrimeModulus, ZeroInverse

DEFAULT_PRIME = 65521

_MAX_MODULUS = 1 << 31


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for every n < 3,215,031,751.

    The witness set {2, 3, 5, 7} is known to be exact below that bound,
    which covers the whole supported modulus range (< 2^31).
    """
    if n < 2:
        return False
    for q in (2, 3, 5, 7):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """The field F_p.  Validates primality at construction."""

    __slots__ = ("p",)

    def __init__(self, p: int = DEFAULT_PRIME):
        if not (2 < p < _MAX_MODULUS) or not is_prime(p):
            raise NonPrimeModulus(f"modulus must be an odd prime in (2, 2^31), got {p}")
        self.p = p

    def inv(self, a: int) -> int:
        if a % self.p == 0:
            raise ZeroInverse("0 has no multiplicative inverse")
        return pow(a, -1, self.p)

    # -- randomness ----------------------------------------------------------

    def random_vector(self, n: int, rng) -> list[int]:
        return [rng.randrange(self.p) for _ in range(n)]

    def random_matrix(self, n: int, rng):
        from .linalg import Matrix

        return Matrix.from_rows(self, [[rng.randrange(self.p) for _ in range(n)] for _ in range(n)])

    def random_nonsingular_matrix(self, n: int, rng):
        """Uniform element of GL(n, F_p) by rejection sampling on det != 0.

        The singular fraction is at most ~n/p, so for the moduli in use the
        expected number of draws is barely above one.
        """
        while True:
            m = self.random_matrix(n, rng)
            if m.rank() == n:
                return m

    # -- plumbing ----------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"

