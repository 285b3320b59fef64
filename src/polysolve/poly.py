"""Multivariate polynomials over a prime field.

Monomials are exponent tuples with a cached total degree.  Two term orders
are supported: degree-reverse-lexicographic (``drl``, the working order for
basis computations) and lexicographic (``lex``, the target order for the
univariate representation), both with x_1 > x_2 > ... > x_n.

A polynomial is a sparse mapping {monomial: coefficient} with canonical
nonzero residues; order-dependent views (sorted terms, leading term) take
the order as an argument so the same object can be read under either order.
"""

from __future__ import annotations

import heapq

from .errors import DimensionMismatch, SingularMatrix
from .field import PrimeField

MAX_EXPONENT = (1 << 16) - 1


class Monomial:
    """An exponent vector, immutable and hashable."""

    __slots__ = ("exps", "deg")

    def __init__(self, exps):
        self.exps = tuple(exps)
        self.deg = sum(self.exps)

    @classmethod
    def one(cls, n: int) -> "Monomial":
        return cls((0,) * n)

    @classmethod
    def variable(cls, n: int, i: int) -> "Monomial":
        return cls(tuple(1 if j == i else 0 for j in range(n)))

    def is_one(self) -> bool:
        return self.deg == 0

    def __mul__(self, other: "Monomial") -> "Monomial":
        exps = tuple(a + b for a, b in zip(self.exps, other.exps))
        if any(e > MAX_EXPONENT for e in exps):
            raise OverflowError(f"exponent above {MAX_EXPONENT}")
        return Monomial(exps)

    def divides(self, other: "Monomial") -> bool:
        return all(a <= b for a, b in zip(self.exps, other.exps))

    def divided_by(self, other: "Monomial") -> "Monomial":
        return Monomial(tuple(a - b for a, b in zip(self.exps, other.exps)))

    def lcm(self, other: "Monomial") -> "Monomial":
        return Monomial(tuple(max(a, b) for a, b in zip(self.exps, other.exps)))

    def is_coprime_with(self, other: "Monomial") -> bool:
        return all(a == 0 or b == 0 for a, b in zip(self.exps, other.exps))

    def support(self):
        return [i for i, e in enumerate(self.exps) if e]

    def __eq__(self, other):
        return isinstance(other, Monomial) and other.exps == self.exps

    def __hash__(self):
        return hash(self.exps)

    def __lt__(self, other):
        # arbitrary but total; real comparisons go through a TermOrder
        return self.exps < other.exps

    def __repr__(self):
        return f"Monomial{self.exps}"


class TermOrder:
    """A monomial order on n variables, exposing a sort key.

    ``key`` is an integer tuple whose natural (lexicographic) comparison
    realizes the order; larger key means larger monomial.
    """

    __slots__ = ("kind", "n")

    def __init__(self, kind: str, n: int):
        if kind not in ("drl", "lex"):
            raise ValueError(f"unknown order kind {kind!r}")
        self.kind = kind
        self.n = n

    @classmethod
    def drl(cls, n: int) -> "TermOrder":
        return cls("drl", n)

    @classmethod
    def lex(cls, n: int) -> "TermOrder":
        return cls("lex", n)

    def key(self, m: Monomial):
        if self.kind == "drl":
            # total degree first; ties broken by the reversed, negated
            # exponent vector (smaller power of the last differing variable
            # wins, scanning x_n towards x_1)
            return (m.deg,) + tuple(-e for e in reversed(m.exps))
        return m.exps

    def neg_key(self, m: Monomial):
        return tuple(-v for v in self.key(m))

    def greater(self, a: Monomial, b: Monomial) -> bool:
        return self.key(a) > self.key(b)

    def __eq__(self, other):
        return isinstance(other, TermOrder) and (self.kind, self.n) == (other.kind, other.n)

    def __hash__(self):
        return hash((self.kind, self.n))

    def __repr__(self):
        return f"TermOrder({self.kind!r}, n={self.n})"


class Polynomial:
    """Sparse polynomial with canonical coefficients, no zero terms."""

    __slots__ = ("field", "n", "terms")

    def __init__(self, field: PrimeField, n: int, terms: dict[Monomial, int]):
        self.field = field
        self.n = n
        self.terms = terms

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, field: PrimeField, n: int) -> "Polynomial":
        return cls(field, n, {})

    @classmethod
    def constant(cls, field: PrimeField, n: int, c: int) -> "Polynomial":
        c %= field.p
        return cls(field, n, {Monomial.one(n): c} if c else {})

    @classmethod
    def variable(cls, field: PrimeField, n: int, i: int) -> "Polynomial":
        return cls(field, n, {Monomial.variable(n, i): 1})

    @classmethod
    def from_terms(cls, field: PrimeField, n: int, pairs) -> "Polynomial":
        terms: dict[Monomial, int] = {}
        for mono, c in pairs:
            if not isinstance(mono, Monomial):
                mono = Monomial(mono)
            v = (terms.get(mono, 0) + c) % field.p
            if v:
                terms[mono] = v
            else:
                terms.pop(mono, None)
        return cls(field, n, terms)

    @classmethod
    def univariate(cls, field: PrimeField, n: int, var: int, coeffs) -> "Polynomial":
        """Build sum coeffs[k] * x_var^k from an ascending coefficient list."""
        pairs = []
        for k, c in enumerate(coeffs):
            exps = [0] * n
            exps[var] = k
            pairs.append((Monomial(tuple(exps)), c))
        return cls.from_terms(field, n, pairs)

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        return max((m.deg for m in self.terms), default=-1)

    def is_univariate_in(self, var: int) -> bool:
        return all(not s or s == [var] for s in (m.support() for m in self.terms))

    def univariate_coeffs(self, var: int) -> list[int]:
        """Ascending coefficient list, assuming the support is {x_var}."""
        d = max((m.exps[var] for m in self.terms), default=-1)
        out = [0] * (d + 1)
        for m, c in self.terms.items():
            out[m.exps[var]] = c
        return out

    # -- order-dependent views ---------------------------------------------

    def terms_sorted(self, order: TermOrder) -> list[tuple[Monomial, int]]:
        """Term list, strictly descending in the given order."""
        return sorted(self.terms.items(), key=lambda t: order.key(t[0]), reverse=True)

    def leading_monomial(self, order: TermOrder) -> Monomial:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        return max(self.terms, key=order.key)

    def leading_coefficient(self, order: TermOrder) -> int:
        return self.terms[self.leading_monomial(order)]

    def monic(self, order: TermOrder) -> "Polynomial":
        if not self.terms:
            return self
        lc = self.leading_coefficient(order)
        if lc == 1:
            return self
        return self.scale(self.field.inv(lc))

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "Polynomial"):
        if self.field.p != other.field.p or self.n != other.n:
            raise DimensionMismatch("polynomials from different rings")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        p = self.field.p
        terms = dict(self.terms)
        for m, c in other.terms.items():
            v = (terms.get(m, 0) + c) % p
            if v:
                terms[m] = v
            else:
                terms.pop(m, None)
        return Polynomial(self.field, self.n, terms)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        p = self.field.p
        return Polynomial(self.field, self.n, {m: p - c for m, c in self.terms.items()})

    def scale(self, c: int) -> "Polynomial":
        p = self.field.p
        c %= p
        if c == 0:
            return Polynomial.zero(self.field, self.n)
        return Polynomial(self.field, self.n, {m: c * v % p for m, v in self.terms.items()})

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        p = self.field.p
        terms: dict[Monomial, int] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = m1 * m2
                v = (terms.get(m, 0) + c1 * c2) % p
                if v:
                    terms[m] = v
                else:
                    terms.pop(m, None)
        return Polynomial(self.field, self.n, terms)

    def mul_term(self, mono: Monomial, coeff: int) -> "Polynomial":
        p = self.field.p
        coeff %= p
        if coeff == 0:
            return Polynomial.zero(self.field, self.n)
        return Polynomial(self.field, self.n,
                          {m * mono: c * coeff % p for m, c in self.terms.items()})

    def __pow__(self, e: int) -> "Polynomial":
        if e < 0:
            raise ValueError("negative polynomial power")
        result = Polynomial.constant(self.field, self.n, 1)
        base = self
        while e:
            if e & 1:
                result = result * base
            base_needed = e > 1
            e >>= 1
            if base_needed and e:
                base = base * base
        return result

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and other.field.p == self.field.p
            and other.n == self.n
            and other.terms == self.terms
        )

    def __repr__(self):
        names = [f"x{i+1}" for i in range(self.n)]
        return f"Polynomial({to_string(self, names)})"


# -- division ---------------------------------------------------------------

class _Reducer:
    """Pre-extracted data for one divisor: leading monomial, inverse leading
    coefficient, and the tail terms."""

    __slots__ = ("lm", "lc_inv", "tail")

    def __init__(self, g: Polynomial, order: TermOrder):
        self.lm = g.leading_monomial(order)
        self.lc_inv = g.field.inv(g.terms[self.lm])
        self.tail = [(m, c) for m, c in g.terms.items() if m != self.lm]


def _reduce_prepped(f: Polynomial, reducers: list[_Reducer], order: TermOrder) -> Polynomial:
    p = f.field.p
    work = dict(f.terms)
    out: dict[Monomial, int] = {}
    heap = [(order.neg_key(m), m) for m in work]
    heapq.heapify(heap)
    while heap:
        _, m = heapq.heappop(heap)
        c = work.get(m)
        if not c:
            continue  # stale entry
        del work[m]
        for red in reducers:
            if red.lm.divides(m):
                quot = m.divided_by(red.lm)
                factor = c * red.lc_inv % p
                for mg, cg in red.tail:
                    mm = quot * mg
                    v = (work.get(mm, 0) - factor * cg) % p
                    if v:
                        if mm not in work:
                            heapq.heappush(heap, (order.neg_key(mm), mm))
                        work[mm] = v
                    else:
                        work.pop(mm, None)
                break
        else:
            out[m] = c
    return Polynomial(f.field, f.n, out)


def s_polynomial(f: Polynomial, g: Polynomial, order: TermOrder) -> Polynomial:
    lf = f.leading_monomial(order)
    lg = g.leading_monomial(order)
    l = lf.lcm(lg)
    a = f.mul_term(l.divided_by(lf), f.field.inv(f.terms[lf]))
    b = g.mul_term(l.divided_by(lg), g.field.inv(g.terms[lg]))
    return a - b


# -- change of variables ----------------------------------------------------

def apply_change_of_variables(f: Polynomial, g) -> Polynomial:
    """Substitute x_i -> (g . x)_i, i.e. return f(g x).

    ``g`` is an n-by-n matrix over the same field; it must be invertible so
    the transform preserves the ideal's structure (total degree is preserved
    for every invertible g).  Expansion is by dense substitution: powers of
    the image linear forms are formed by repeated multiplication and cached.
    """
    n = f.n
    if g.nrows != n or g.ncols != n:
        raise DimensionMismatch(f"change of variables needs an {n}x{n} matrix")
    if g.rank() < n:
        raise SingularMatrix("change of variables must be invertible")
    field = f.field
    images = []
    for i in range(n):
        images.append(Polynomial.from_terms(
            field, n, [(Monomial.variable(n, i=j), int(g[i, j])) for j in range(n)]))
    powers: list[list[Polynomial]] = [[Polynomial.constant(field, n, 1), images[i]] for i in range(n)]

    def image_power(i: int, e: int) -> Polynomial:
        cache = powers[i]
        while len(cache) <= e:
            cache.append(cache[-1] * images[i])
        return cache[e]

    out = Polynomial.zero(field, n)
    for m, c in f.terms.items():
        piece = Polynomial.constant(field, n, c)
        for i, e in enumerate(m.exps):
            if e:
                piece = piece * image_power(i, e)
        out = out + piece
    return out


# -- printing ---------------------------------------------------------------

def to_string(f: Polynomial, varnames) -> str:
    """Render with terms in descending DRL order.

    Output re-parses under the system-file grammar: explicit ``*`` between
    factors, ``^`` for exponents, canonical nonnegative coefficients.
    """
    if f.is_zero():
        return "0"
    parts = []
    for m, c in f.terms_sorted(TermOrder.drl(f.n)):
        factors = []
        if c != 1 or m.is_one():
            factors.append(str(c))
        for i, e in enumerate(m.exps):
            if e == 1:
                factors.append(varnames[i])
            elif e > 1:
                factors.append(f"{varnames[i]}^{e}")
        parts.append("*".join(factors))
    return " + ".join(parts)
