"""Groebner bases via Buchberger's algorithm.

The engine uses the normal selection strategy (smallest lcm first), the
coprime leading-term criterion and the chain criterion for pair pruning, and
always returns the unique reduced basis (monic, inter-reduced, sorted by
ascending leading monomial).

Also here: a linear-algebra path (`groebner_from_matrices`) that rebuilds the
reduced DRL basis of an ideal from its multiplication matrices, one total
degree at a time: the coordinate vectors of a degree's candidate monomials
come from one matrix product per variable used, and one elimination in
ascending order sorts them into standard monomials and leading monomials.
The elimination is the package's one general elimination,
``linalg._row_echelon``, which works by halving, so its row operations are
matrix products; the tails come at the end, from one pass over the recorded
merges.  The matrices are held once as float64 residues, which the exact
kernel multiplies without converting them.  The Las Vegas solver takes
every basis after a linear change of coordinates from it, fed with
combinations of the original ideal's multiplication matrices, so no second
Buchberger run happens; its output is bit-identical to Buchberger's by
uniqueness of the reduced basis.  It hands over the rows it holds, and its
``polys`` are built on first read, which a Las Vegas solve never does.
"""

from __future__ import annotations

import heapq

import numpy as np

from .errors import NotShapePosition, NotZeroDimensional
from .field import PrimeField
from .linalg import _eliminate_block, _mul_arrays, _sub_mod
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
    reducers = [_Reducer(h, order) for h in minimal]
    reduced = [_reduce_prepped(g, reducers[:i] + reducers[i + 1:], order).monic(order)
               for i, g in enumerate(minimal)]
    reduced.sort(key=lambda g: order.key(g.leading_monomial(order)))
    return reduced


def buchberger(polys, order: TermOrder, field: PrimeField | None = None) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by ``polys``, which
    must all lie in one ring."""
    polys = list(polys)
    for f in polys[1:]:
        polys[0]._check(f)
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


def _candidates(prev: list[Monomial], order: TermOrder):
    """The degree-d candidates, given the standard monomials of degree d-1.

    A monomial m is a standard monomial or a minimal leading monomial
    exactly when every divisor m/x_j is standard.  The smallest of those
    divisors under DRL is m/x_j for the smallest j in m's support, so m is
    produced only from that parent b, as x_i b with i <= min support of b,
    which yields each candidate once.

    As every m/x_j is standard, m's coordinate vector is that of any of them
    times M_j.  The rebuild makes one product per variable, each a pass over
    that variable's whole matrix, so the variables are picked greedily, the
    one in most uncovered candidates first, to cover a degree with few.
    Returns ``(m, index of m/x_i in prev, i)`` triples in ascending order.
    """
    n = order.n
    index = {b.exps: r for r, b in enumerate(prev)}
    monos = []
    for b in prev:
        e = b.exps
        first = next((j for j, v in enumerate(e) if v), n - 1)
        for i in range(first + 1):
            exps = e[:i] + (e[i] + 1,) + e[i + 1:]
            if all(exps[:j] + (exps[j] - 1,) + exps[j + 1:] in index
                   for j in range(i + 1, n) if exps[j]):
                monos.append(Monomial(exps))
    monos.sort(key=order.key)
    support = np.array([m.exps for m in monos], dtype=bool).reshape(len(monos), n)
    var = np.zeros(len(monos), dtype=np.intp)
    left = np.ones(len(monos), dtype=bool)
    while left.any():
        j = int(np.argmax(support[left].sum(axis=0)))
        var[left & support[:, j]] = j
        left &= ~support[:, j]
    return [(m, index[m.exps[:i] + (m.exps[i] - 1,) + m.exps[i + 1:]], i)
            for m, i in zip(monos, var.tolist())]


class _Echelon:
    """Echelon form of a growing list of independent vectors.

    With k vectors kept, their reduced echelon rows E are the identity at
    the columns ``pivots``; only their other columns, ``free`` (ascending),
    are stored, as ``red`` (k x len(free)).  A new vector v is reduced as
    v[free] - v[pivots] @ red, and a merge rewrites only the columns that
    stay free.  E = T @ (the kept vectors) for a transform T that is never
    formed: each merge records its block factors in ``steps``, and
    ``coordinates`` applies them.
    """

    def __init__(self, dim: int, p: int):
        self.p = p
        self.red = np.zeros((0, dim), dtype=np.int64)
        self.pivots = np.zeros(0, dtype=np.intp)
        self.free = np.arange(dim)
        self.steps: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []

    def insert(self, vecs: np.ndarray):
        """Take the rows of ``vecs`` in order, keeping each one that is
        independent of every vector kept before it.

        Returns ``(new, dep)``, the indices of the kept and of the
        dependent rows.
        """
        p = self.p
        y = vecs[:, self.pivots]
        resid = _sub_mod(vecs[:, self.free], _mul_arrays(y, self.red, p), p)
        new, dep, _rel, echelon, pcols, gmat = _eliminate_block(resid, p)
        if new:
            # E' = [[I, -h], [0, I]] @ [[I, 0], [-gmat y[new], gmat]] @ [E; vecs[new]]
            stay = np.ones(len(self.free), dtype=bool)
            stay[pcols] = False
            h = self.red[:, pcols]
            fresh = echelon[:, stay]
            self.red = np.vstack([_sub_mod(self.red[:, stay], _mul_arrays(h, fresh, p), p), fresh])
            self.steps.append((h, gmat, _mul_arrays(gmat, y[new], p)))
            self.pivots = np.concatenate([self.pivots, self.free[pcols]])
            self.free = self.free[stay]
        return new, dep

    def coordinates(self, vecs: np.ndarray) -> np.ndarray:
        """Coordinates on the kept vectors, in the order kept, of vectors in
        their span.  Such a v is v[pivots] @ E, so its coordinates are
        v[pivots] @ T, with T the product of every merge's factors."""
        p = self.p
        w = vecs[:, self.pivots]
        k = len(self.pivots)
        for h, gmat, gy in reversed(self.steps):
            s = len(gmat)
            k -= s
            a = w[:, :k]
            b = _sub_mod(w[:, k:k + s], _mul_arrays(a, h, p), p)
            w[:, :k] = _sub_mod(a, _mul_arrays(b, gy, p), p)
            w[:, k:k + s] = _mul_arrays(b, gmat, p)
        return w


def groebner_from_matrices(mats, field: PrimeField, n: int,
                           order: TermOrder) -> GroebnerBasis:
    """Reduced DRL Groebner basis from multiplication matrices.

    ``mats[i]`` must represent multiplication by (the image of) x_i on a
    D-dimensional quotient, in a basis whose coordinate vector for 1 is the
    first unit vector.  ``mats`` holds n D x D arrays of canonical
    residues, or is one n x D x D float64 stack of them, which is used
    without a copy: a product by the view M_i^T runs as a transposed GEMM.
    Monomials are taken one total degree at a time, as under DRL only
    leading monomials of lower degree can make a degree-d monomial a
    non-candidate.  For each degree:

    * the candidates' coordinate vectors come from one product per
      variable in a small cover of them (``_candidates``),
      (vectors of their degree-(d-1) divisors) @ M_i^T;
    * in ascending order, all at once, one product reduces them against
      the echelon form of the standard monomials' vectors found so far,
      and the halving elimination of the reduced block
      (``_eliminate_block``) finds which are standard monomials; each
      other one is the leading monomial of a reduced basis element;
    * the new standard monomials' rows join the echelon form by one
      product, which also records the merge's factors.

    The tails, the coordinates of the leading monomials' vectors on the
    standard monomials' ones, come at the end from those factors
    (``_Echelon.coordinates``).

    Every product is exact (``_mul_arrays``).  The output comes out sorted
    by leading monomial and is bit-identical to Buchberger's, by uniqueness
    of the reduced basis.  It comes in coordinate form: the kept
    monomials as ``standard`` and the tails as ``tails``.
    """
    if len(mats) == 0:
        raise ValueError("need at least one multiplication matrix")
    if order.kind != "drl":
        raise ValueError("the degree-by-degree rebuild needs the DRL order")
    mats = np.asarray(mats, dtype=np.float64)
    p = field.p
    dim = mats.shape[1]
    echelon = _Echelon(dim, p)
    kept_monos: list[Monomial] = []
    lead_monos: list[Monomial] = []
    lead_vecs: list[np.ndarray] = []

    monos = [Monomial.one(n)]
    vecs = np.zeros((1, dim), dtype=np.int64)
    vecs[0, 0] = 1
    while True:
        std, dep = echelon.insert(vecs)
        lead_monos.extend(monos[r] for r in dep)
        lead_vecs.append(vecs[dep])
        kept_monos.extend(monos[r] for r in std)
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
                vecs[rows] = _mul_arrays(parents, mats[i].T, p)

    if len(kept_monos) != dim:
        raise NotZeroDimensional(
            f"multiplication matrices span a {len(kept_monos)}-dimensional quotient, expected {dim}")
    tails = echelon.coordinates(np.vstack(lead_vecs))
    return GroebnerBasis(field, n, order, None, lead_monos, kept_monos, tails)
