"""Groebner bases via Buchberger's algorithm.

The engine uses the normal selection strategy (smallest lcm first), the
coprime leading-term criterion and the chain criterion for pair pruning, and
always returns the unique reduced basis (monic, inter-reduced, sorted by
ascending leading monomial).

Also here: a linear-algebra path (`groebner_from_matrices`) that rebuilds the
reduced DRL basis of an ideal from its multiplication matrices, one total
degree at a time: the coordinate vectors of a degree's candidate monomials
come from one matrix product per variable, and a block elimination in
ascending order sorts them into standard monomials and leading monomials
with their tails.  The Las Vegas solver takes every basis after a linear
change of coordinates from it, fed with combinations of the original
ideal's multiplication matrices, so no second Buchberger run happens; its
output is bit-identical to Buchberger's by uniqueness of the reduced basis.
It hands over the rows it holds, and its ``polys`` are built on first read,
which a Las Vegas solve never does.
"""

from __future__ import annotations

import heapq

import numpy as np

from .errors import NotShapePosition, NotZeroDimensional
from .field import PrimeField
from .linalg import Matrix, _mul_arrays, _unit_ut_solve
from .poly import Monomial, Polynomial, TermOrder, _Reducer, _reduce_prepped, s_polynomial


class GroebnerBasis:
    """A reduced Groebner basis together with its order.  A rebuilt basis
    also carries ``standard`` (the standard monomials, ascending) and ``tails``
    (row r: NF(leading_monomials[r]) on them) and builds ``polys`` on first read."""

    __slots__ = ("field", "n", "order", "leading_monomials", "standard", "tails", "_polys")

    def __init__(self, field: PrimeField, n: int, order: TermOrder, polys: list[Polynomial] | None,
                 leading_monomials: list[Monomial] | None = None, standard=None, tails=None):
        self.field = field
        self.n = n
        self.order = order
        self._polys = polys
        if leading_monomials is None:
            leading_monomials = [g.leading_monomial(order) for g in polys]
        self.leading_monomials = leading_monomials
        self.standard = standard
        self.tails = tails

    @property
    def polys(self) -> list[Polynomial]:
        if self._polys is None:
            p, std = self.field.p, self.standard
            self._polys = [Polynomial(self.field, self.n,
                                      {lm: 1, **{m: p - c for m, c in zip(std, row) if c}})
                           for lm, row in zip(self.leading_monomials, self.tails.tolist())]
        return self._polys

    def leading_set(self) -> set[Monomial]:
        return set(self.leading_monomials)

    def __iter__(self):
        return iter(self.polys)

    def __len__(self):
        return len(self.leading_monomials)

    def contains_one(self) -> bool:
        return any(m.is_one() for m in self.leading_monomials)

    def __repr__(self):
        return f"GroebnerBasis({self.order.kind}, {len(self)} polynomials)"


def _interreduce(polys: list[Polynomial], order: TermOrder) -> list[Polynomial]:
    """Minimalize and tail-reduce, yielding the reduced basis."""
    polys = [g for g in polys if not g.is_zero()]
    # minimal generators: drop anyone whose leading monomial is a multiple
    polys = sorted(polys, key=lambda g: order.key(g.leading_monomial(order)))
    minimal: list[Polynomial] = []
    kept_lms: list[Monomial] = []
    for g in polys:
        lm = g.leading_monomial(order)
        if not any(other.divides(lm) for other in kept_lms):
            minimal.append(g)
            kept_lms.append(lm)
    reduced = []
    for i, g in enumerate(minimal):
        others = [_Reducer(h, order) for j, h in enumerate(minimal) if j != i]
        r = _reduce_prepped(g, others, order).monic(order)
        reduced.append(r)
    reduced.sort(key=lambda g: order.key(g.leading_monomial(order)))
    return reduced


def buchberger(polys, order: TermOrder, field: PrimeField | None = None) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by ``polys``."""
    inputs = [f for f in polys if not f.is_zero()]
    if not inputs:
        if field is None:
            raise ValueError("cannot infer the field from an empty generating set")
        return GroebnerBasis(field, order.n, order, [])
    field = inputs[0].field
    n = inputs[0].n
    if n != order.n:
        raise ValueError(f"order on {order.n} variables, polynomials on {n}")

    basis = [f.monic(order) for f in inputs]
    lms = [f.leading_monomial(order) for f in basis]
    reducers = [_Reducer(f, order) for f in basis]

    pairs: list[tuple[tuple, int, int]] = []
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            heapq.heappush(pairs, (order.key(lms[i].lcm(lms[j])), i, j))
    done: set[tuple[int, int]] = set()

    while pairs:
        _, i, j = heapq.heappop(pairs)
        if (i, j) in done:
            continue
        done.add((i, j))
        li, lj = lms[i], lms[j]
        if li.is_coprime_with(lj):
            continue
        lcm = li.lcm(lj)
        skip = False
        for k in range(len(basis)):
            if k in (i, j) or not lms[k].divides(lcm):
                continue
            a = (min(i, k), max(i, k))
            b = (min(j, k), max(j, k))
            if a in done and b in done:
                skip = True
                break
        if skip:
            continue
        h = _reduce_prepped(s_polynomial(basis[i], basis[j], order), reducers, order)
        if h.is_zero():
            continue
        h = h.monic(order)
        t = len(basis)
        basis.append(h)
        lms.append(h.leading_monomial(order))
        reducers.append(_Reducer(h, order))
        for i2 in range(t):
            heapq.heappush(pairs, (order.key(lms[i2].lcm(lms[t])), i2, t))

    return GroebnerBasis(field, n, order, _interreduce(basis, order))


def is_zero_dimensional(gb: GroebnerBasis) -> bool:
    """True iff every variable has a pure power among the leading monomials."""
    if gb.contains_one():
        return False
    for i in range(gb.n):
        if not any(m.exps[i] and m.support() == [i] for m in gb.leading_monomials):
            return False
    return True


def degree(gb: GroebnerBasis) -> int:
    """Vector-space dimension of the quotient ring."""
    from .quotient import compute_basis

    return len(compute_basis(gb).basis)


def lex_oracle(polys, n: int, field: PrimeField | None = None):
    """Direct LEX route: Buchberger under LEX, reshaped to the univariate
    representation.  Serves as the independent cross-check for the
    Krylov/structured pipeline."""
    gb = buchberger(polys, TermOrder.lex(n), field=field)
    return shape_rep_from_lex(gb)


def shape_rep_from_lex(gb: GroebnerBasis):
    """Reshape a reduced LEX basis {x_1 - h_1(x_n), ..., h_n(x_n)} into a
    UnivariateRep; raises NotShapePosition if the basis has any other form."""
    from .change_order import UnivariateRep

    n = gb.n
    last = n - 1
    if not is_zero_dimensional(gb):
        raise NotZeroDimensional("shape inspection needs a zero-dimensional ideal")
    if len(gb.polys) != n:
        raise NotShapePosition(f"LEX basis has {len(gb.polys)} elements, expected {n}")
    # ascending LEX order puts the univariate h_n first, then x_{n-1}, ... x_1
    hn = gb.polys[0]
    if not hn.is_univariate_in(last):
        raise NotShapePosition("smallest basis element is not univariate in the last variable")
    d = hn.total_degree()
    coeffs = [None] * n
    coeffs[last] = hn.univariate_coeffs(last)
    for pos, g in enumerate(gb.polys[1:]):
        var = n - 2 - pos  # ascending leading terms: x_{n-1} up to x_1
        lm = g.leading_monomial(gb.order)
        if lm != Monomial.variable(n, var):
            raise NotShapePosition(f"expected leading term {'x%d' % (var + 1)}")
        tail = Polynomial.variable(gb.field, n, var) - g
        if not tail.is_univariate_in(last):
            raise NotShapePosition("parametrization is not univariate in the last variable")
        if tail.total_degree() >= d:
            raise NotShapePosition("parametrization degree exceeds the minimal polynomial's")
        coeffs[var] = tail.univariate_coeffs(last)
    return UnivariateRep(gb.field, n, [list(c) for c in coeffs])


# candidates per elimination: each row of the in-chunk elimination costs
# about _CHUNK * D, while smaller chunks mean more, smaller products (64 and
# 128 measured the same at D = 512..2048; 16 and whole degrees were slower)
_CHUNK = 64


def _eliminate_block(w: np.ndarray, p: int):
    """Row-order elimination of a block of vectors.

    Each row of ``w`` is reduced by the pivot rows above it and, if
    anything is left, becomes a pivot row on its first nonzero entry.
    Returns ``(new, dep, rel, echelon, pcols, gmat)``: the indices of the
    independent and of the dependent rows, ``w[dep] = rel @ w[new]``
    (every dependence uses earlier rows only), and
    ``echelon = gmat @ w[new]``, whose rows are the identity at ``pcols``.
    """
    c, f = w.shape
    a = np.hstack([w, np.eye(c, dtype=np.int64)])  # row ops ride along
    new: list[int] = []
    dep: list[int] = []
    pcols: list[int] = []
    for i in range(c):
        nz = np.flatnonzero(a[i, :f])
        if nz.size == 0:
            dep.append(i)
            continue
        q = int(nz[0])
        end = f + i + 1  # the row operations so far touch rows 0..i only
        a[i, :end] = a[i, :end] * pow(int(a[i, q]), -1, p) % p
        rows = np.flatnonzero(a[i + 1:, q]) + (i + 1)
        if rows.size:
            a[rows, :end] = (a[rows, :end] - np.outer(a[rows, q], a[i, :end])) % p
        new.append(i)
        pcols.append(q)
    ops = f + np.array(new, dtype=np.intp)
    rel = (-a[np.ix_(dep, ops)]) % p
    # each pivot row is zero at the pivot columns of the rows above it, so
    # at the pivot columns the pivot rows form a unit upper triangle
    piv = a[new]
    red = _unit_ut_solve(piv[:, pcols], np.hstack([piv[:, :f], piv[:, ops]]), p)
    return new, dep, rel, red[:, :f], pcols, red[:, f:]


def _candidates(prev: list[Monomial], order: TermOrder):
    """The degree-d candidates, given the standard monomials of degree d-1.

    A monomial m is a standard monomial or a minimal leading monomial
    exactly when every divisor m/x_j is standard.  The smallest of those
    divisors under DRL is m/x_j for the smallest j in m's support, so m is
    produced only from that parent b, as x_i b with i <= min support of b,
    which yields each candidate once.  Returns ``(m, index of b in prev, i)``
    triples in ascending order.
    """
    n = order.n
    kept = {b.exps for b in prev}
    out = []
    for parent, b in enumerate(prev):
        e = b.exps
        first = next((j for j, v in enumerate(e) if v), n - 1)
        for i in range(first + 1):
            exps = e[:i] + (e[i] + 1,) + e[i + 1:]
            if all(exps[:j] + (exps[j] - 1,) + exps[j + 1:] in kept
                   for j in range(i + 1, n) if exps[j]):
                out.append((Monomial(exps), parent, i))
    out.sort(key=lambda t: order.key(t[0]))
    return out


class _Echelon:
    """Echelon form of a growing list of independent vectors.

    ``rows[:k] = transform[:k, :k] @ (the k vectors kept so far)``, and
    ``rows[:k]`` is the identity at the columns ``pivots``.
    """

    def __init__(self, dim: int, p: int):
        self.p = p
        self.rows = np.zeros((dim, dim), dtype=np.int64)
        self.transform = np.zeros((dim, dim), dtype=np.int64)
        self.pivots: list[int] = []
        self.is_free = np.ones(dim, dtype=bool)

    def insert(self, vecs: np.ndarray):
        """Take the rows of ``vecs`` in order, keeping each one that is
        independent of every vector kept before it.

        Returns ``(new, dep, coords)``: the indices of the kept and of the
        dependent rows, and for each dependent row its coordinates on all
        kept vectors, the earlier ones first, then ``vecs[new]``.
        """
        p = self.p
        k = len(self.pivots)
        y = vecs[:, self.pivots]
        resid = (vecs - _mul_arrays(y, self.rows[:k], p)) % p
        expr = _mul_arrays(y, self.transform[:k, :k], p)  # vecs - resid = expr @ kept
        free = np.flatnonzero(self.is_free)
        new, dep, rel, echelon, pcols, gmat = _eliminate_block(resid[:, free], p)
        # resid[dep] = rel @ resid[new], and resid[new] = vecs[new] - expr[new] @ kept
        coords = np.hstack([(expr[dep] - _mul_arrays(rel, expr[new], p)) % p, rel])
        s = len(new)
        if s:
            dim = self.rows.shape[1]
            new_piv = free[pcols]
            new_rows = np.zeros((s, dim), dtype=np.int64)
            new_rows[:, free] = echelon
            new_tr = np.hstack([-_mul_arrays(gmat, expr[new], p) % p, gmat])
            h = self.rows[:k, new_piv]
            self.rows[:k] = (self.rows[:k] - _mul_arrays(h, new_rows, p)) % p
            self.transform[:k, :k + s] = (self.transform[:k, :k + s]
                                          - _mul_arrays(h, new_tr, p)) % p
            self.rows[k:k + s] = new_rows
            self.transform[k:k + s, :k + s] = new_tr
            self.pivots.extend(new_piv.tolist())
            self.is_free[new_piv] = False
        return new, dep, coords


def groebner_from_matrices(mats: list[Matrix], field: PrimeField, n: int,
                           order: TermOrder) -> GroebnerBasis:
    """Reduced DRL Groebner basis from multiplication matrices.

    ``mats[i]`` must represent multiplication by (the image of) x_i on a
    D-dimensional quotient, in a basis whose coordinate vector for 1 is the
    first unit vector.  Monomials are taken one total degree at a time, as
    under DRL only leading monomials of lower degree can make a degree-d
    monomial a non-candidate.  For each degree:

    * the candidates' coordinate vectors come from one product per
      variable, (vectors of their degree-(d-1) parents) @ M_i^T;
    * in ascending order and in chunks of at most ``_CHUNK`` rows, one
      product reduces them against the echelon form of the standard
      monomials' vectors found so far, and an elimination inside the chunk
      finds which are standard monomials; each other one is the leading
      monomial of a reduced basis element, whose tail its dependence gives;
    * the new standard monomials' rows join the echelon form and its
      transform with one product each.

    Every product is exact (``_mul_arrays``).  The output comes out sorted
    by leading monomial and is bit-identical to Buchberger's, by uniqueness
    of the reduced basis.  It comes in coordinate form: the kept
    monomials as ``standard`` and the zero-padded dependences as ``tails``.
    """
    if not mats:
        raise ValueError("need at least one multiplication matrix")
    if order.kind != "drl":
        raise ValueError("the degree-by-degree rebuild needs the DRL order")
    p = field.p
    dim = mats[0].nrows
    echelon = _Echelon(dim, p)
    kept_monos: list[Monomial] = []
    lead_monos: list[Monomial] = []
    tails: list[np.ndarray] = []

    monos = [Monomial.one(n)]
    vecs = np.zeros((1, dim), dtype=np.int64)
    vecs[0, 0] = 1
    while True:
        std: list[int] = []  # rows of vecs that are standard monomials
        for lo in range(0, len(monos), _CHUNK):
            new, dep, coords = echelon.insert(vecs[lo:lo + _CHUNK])
            lead_monos.extend(monos[lo + r] for r in dep)
            tails.append(np.pad(coords, ((0, 0), (0, dim - coords.shape[1]))))
            kept_monos.extend(monos[lo + r] for r in new)
            std.extend(lo + r for r in new)
        if not std:
            break
        prev_vecs = vecs[std]
        cands = _candidates([monos[r] for r in std], order)
        monos = [m for m, _b, _i in cands]
        vecs = np.empty((len(cands), dim), dtype=np.int64)
        for i in range(n):
            rows = [r for r, c in enumerate(cands) if c[2] == i]
            if rows:
                parents = prev_vecs[[cands[r][1] for r in rows]]
                vecs[rows] = _mul_arrays(parents, mats[i].a.T, p)

    if len(kept_monos) != dim:
        raise NotZeroDimensional(
            f"multiplication matrices span a {len(kept_monos)}-dimensional quotient, expected {dim}")
    return GroebnerBasis(field, n, order, None, lead_monos, kept_monos, np.vstack(tails))
