"""Groebner bases: F4 under DRL, Buchberger's pair loop under LEX.

``buchberger`` always returns the unique reduced basis (monic,
inter-reduced, sorted by ascending leading monomial), by one of two routes
that pick and prune S-pairs alike: the normal selection strategy (smallest
lcm first), the coprime leading-term criterion and the chain criterion.

* Under DRL it runs F4 (``_f4``): all pairs of the lowest lcm degree are
  reduced together, by one ``linalg._row_echelon`` per step over a
  Macaulay-type matrix whose columns are the monomials in descending
  order, and one more elimination gives the reduced basis.  Monomials are
  packed into ints (``_Packed``), so no ``Monomial`` is built before the
  output.  This is the DRL prefix of every solve.  A matrix too sparse
  or too large for dense rows (a long reduction chain of high degree),
  or a step above ``MAX_EXPONENT``, sends the input to the pair loop.
* Under LEX it runs the pair-by-pair loop (``_buchberger_pairs``): each
  S-polynomial is reduced on its own by sparse division, then
  ``_interreduce`` reduces the basis.  A LEX basis reaches degree D, past
  any dense Macaulay matrix, and keeping the LEX oracle (``lex_oracle``)
  off the F4 code keeps it an independent cross-check of the pipeline.

Also here: a linear-algebra path (`groebner_from_matrices`) that rebuilds the
reduced DRL basis of an ideal from its multiplication matrices, one total
degree at a time: the coordinate vectors of a degree's candidate monomials
come from one matrix product per variable used, and one elimination in
ascending order sorts them into standard monomials and leading monomials.
The matrices must be given in a basis ordered by degree, 1 first: for
every d, the polynomials of degree below d reach exactly the span of the
first few basis vectors.  An ideal's DRL standard monomials, ascending, are
such a basis, and stay one after a linear change of variables, which maps
the polynomials of degree below d onto themselves (the affine Hilbert
function is unchanged: Cox, Little and O'Shea, *Ideals, Varieties, and
Algorithms*, ch. 9 section 3).  So the standard monomials found below
degree d span the first coordinates, each degree's elimination
(``linalg._eliminate_block``, by halving, so its row operations are matrix
products) runs on the other columns alone, and the tails come at the end
from one back-substitution by degree.  Input in any other basis raises
ValueError.  The matrices are held once as float64 residues, which the
exact kernel multiplies without converting them.  The Las Vegas solver takes
every basis after a linear change of coordinates from it, fed with
combinations of the original ideal's multiplication matrices, so no second
``buchberger`` run happens; its output is bit-identical to ``buchberger``'s
by uniqueness of the reduced basis.  It hands over the rows it holds, and its
``polys`` are built on first read, which a Las Vegas solve never does.
"""

from __future__ import annotations

import heapq

import numpy as np

from .errors import DimensionMismatch, NotShapePosition, NotZeroDimensional
from .field import PrimeField
from .linalg import _eliminate_block, _mul_arrays, _row_echelon, _sub_mod
from .poly import (MAX_EXPONENT, Monomial, Polynomial, TermOrder, _Reducer, _reduce_prepped,
                   s_polynomial)


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


def _buchberger_pairs(basis: list[Polynomial], order: TermOrder) -> list[Polynomial]:
    """The reduced basis by Buchberger's loop, one S-pair at a time: the
    normal strategy (smallest lcm first), the coprime leading-term
    criterion and the chain criterion, each S-polynomial reduced in full,
    then ``_interreduce``.  ``basis`` holds monic nonzero polynomials."""
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

    return _interreduce(basis, order)


class _Packed:
    """Monomials in n variables packed into one int, so that the inner
    loops of F4 never build a ``Monomial`` or an exponent tuple.

    Exponent e_i sits in field i, ``shift * i`` bits up, and the total
    degree above all n fields.  A field has ``bits`` value bits, enough for
    the sum of n exponents up to ``MAX_EXPONENT``, and a guard bit above
    them.  A product is the sum of the packed ints.  a divides b exactly
    when (b | guard) - a keeps every guard bit set, since a field of b
    below a's clears its guard without borrowing from the next.  Under DRL
    a > b exactly when (a ^ emask) > (b ^ emask): the degree comes first,
    then the complemented fields with x_n's on top.
    """

    __slots__ = ("n", "bits", "shift", "top", "guard", "values", "emask", "ones")

    def __init__(self, n: int):
        self.n = n
        self.bits = 16 + n.bit_length()
        self.shift = self.bits + 1
        self.top = self.shift * n
        self.guard = sum(1 << (self.shift * i + self.bits) for i in range(n))
        self.values = sum(((1 << self.bits) - 1) << (self.shift * i) for i in range(n))
        self.emask = (1 << self.top) - 1
        self.ones = sum(1 << (self.shift * i) for i in range(n))

    def pack(self, m: Monomial) -> int:
        s = self.shift
        return sum(e << (s * i) for i, e in enumerate(m.exps)) | (m.deg << self.top)

    def unpack(self, a: int) -> Monomial:
        s, field = self.shift, (1 << self.bits) - 1
        return Monomial(tuple((a >> (s * i)) & field for i in range(self.n)))

    def lcm(self, a: int, b: int) -> int:
        guard, bits = self.guard, self.bits
        ge = (((a | guard) - b) & guard) >> bits   # 1 in each field where a_i >= b_i
        keep_a = (ge << bits) - ge
        e = (a & keep_a) | (b & (self.values ^ keep_a))
        # field n-1 of e * ones is the sum of all fields, below 2^bits
        deg = ((e * self.ones) >> (self.shift * (self.n - 1))) & ((1 << self.shift) - 1)
        return e | (deg << self.top)


# F4 gives a step up (``_f4`` returns None) when its dense matrix would hold
# more than _DENSE_LIMIT entries, or more than _SPARSE_RATIO per nonzero: a
# long reduction chain of sparse rows, where the pair loop's sparse
# division is far cheaper (x^e - 1, x^4 - 1 makes e/4 rows of 2 terms).
_DENSE_LIMIT = 1 << 25
_SPARSE_RATIO = 32


def _f4(inputs: list[Polynomial], order: TermOrder, field: PrimeField) -> GroebnerBasis | None:
    """The reduced DRL basis of the ideal of ``inputs`` (nonzero) by F4
    (Faugere, JPAA 1999), the monomials packed by ``_Packed``.

    Each step takes every pair whose lcm has the lowest degree, pruned by
    the coprime and the chain criterion in ``_buchberger_pairs``'s order.
    Both halves (lcm / lm) g of each pair make a row; symbolic
    preprocessing adds a reducer row t g for every other monomial of the
    rows that a leading monomial divides; and one ``_row_echelon``, with
    the columns in descending DRL order, reduces them together.  An echelon
    row is zero left of its pivot, so the pivots are the leading monomials
    of the row space, and a pivot that leads no row leads a new element.
    The reduced basis is one more such matrix, over the minimal generators:
    each non-pivot column is then a standard monomial, so the echelon row
    at a generator's leading monomial is its reduced form.

    Returns None, before building it, when a matrix is past
    ``_DENSE_LIMIT`` or ``_SPARSE_RATIO``, or a step's degree is above
    ``MAX_EXPONENT``, so a monomial could overflow its field.
    """
    n = order.n
    pk = _Packed(n)
    p = field.p
    guard, emask = pk.guard, pk.emask
    mons: list[list[int]] = []      # packed monomials of each element, descending
    coeffs: list[list[int]] = []    # its coefficients, the leading one 1
    for f in inputs:
        terms = sorted(((pk.pack(m), c) for m, c in f.terms.items()),
                       key=lambda t: t[0] ^ emask, reverse=True)
        inv = field.inv(terms[0][1])
        mons.append([m for m, _c in terms])
        coeffs.append([c * inv % p for _m, c in terms])
    lms = [ms[0] for ms in mons]
    one = [Polynomial.constant(field, n, 1)]
    if 0 in lms:   # 0 packs the monomial 1
        return GroebnerBasis(field, n, order, one)

    def eliminate(rows, lead: set[int], reducers):
        """Symbolic preprocessing of ``rows``, (multiplier, element) pairs,
        whose leading monomials are ``lead``, with reducers taken from
        ``reducers`` in order, each reducer's leading monomial joining
        ``lead``; then the elimination.  Returns the columns (packed,
        descending), the pivot columns and the echelon rows, or None for a
        matrix too sparse or too large."""
        seen: set[int] = set()
        todo: list[int] = []
        row_mons: list[list[int]] = []
        row_elem: list[int] = []

        def add(t: int, k: int):
            ms = [t + m for m in mons[k]]
            row_mons.append(ms)
            row_elem.append(k)
            fresh = [m for m in ms if m not in seen]
            seen.update(fresh)
            todo.extend(fresh)

        for t, k in rows:
            add(t, k)
        while todo:
            m = todo.pop()
            if m in lead:
                continue
            mg = m | guard
            for k in reducers:
                if (mg - lms[k]) & guard == guard:   # lms[k] divides m
                    lead.add(m)
                    add(m - lms[k], k)
                    break
        width = len(seen)
        entries = len(row_elem) * width
        if entries > _DENSE_LIMIT or entries > _SPARSE_RATIO * sum(map(len, row_mons)):
            return None
        cols = sorted(seen, key=lambda m: m ^ emask, reverse=True)
        index = {m: c for c, m in enumerate(cols)}
        flat: list[int] = []
        vals: list[int] = []
        # rows by leading column, so each half of the halving holds its pivots
        for r, i in enumerate(sorted(range(len(row_elem)), key=lambda i: index[row_mons[i][0]])):
            base = r * width
            flat.extend([base + index[m] for m in row_mons[i]])
            vals.extend(coeffs[row_elem[i]])
        a = np.zeros((len(row_elem), width), dtype=np.int64)
        a.flat[flat] = vals
        _new, _dep, pcols, ech = _row_echelon(a, width, p)
        return cols, pcols, ech

    pairs: list[tuple[int, int, int, int]] = []   # (DRL key of the lcm, i, j, lcm)

    def push_pairs(t: int):
        for i in range(t):
            lcm = pk.lcm(lms[i], lms[t])
            heapq.heappush(pairs, (lcm ^ emask, i, t, lcm))

    for t in range(1, len(lms)):
        push_pairs(t)
    done: set[tuple[int, int]] = set()
    while pairs:
        degree = pairs[0][0] >> pk.top
        batch = []
        while pairs and pairs[0][0] >> pk.top == degree:
            _, i, j, lcm = heapq.heappop(pairs)
            done.add((i, j))
            if lcm == lms[i] + lms[j]:   # coprime: the lcm is the product
                continue
            lg = lcm | guard
            if any(k != i and k != j and (lg - lms[k]) & guard == guard
                   and (min(i, k), max(i, k)) in done and (min(j, k), max(j, k)) in done
                   for k in range(len(lms))):
                continue
            batch.append((i, j, lcm))
        if not batch:
            continue
        if degree > MAX_EXPONENT:   # the step's monomials could overflow a field
            return None
        rows = {(k, lcm): (lcm - lms[k], k) for i, j, lcm in batch for k in (i, j)}
        lead = {lcm for _i, _j, lcm in batch}
        step = eliminate(rows.values(), lead, range(len(lms)))
        if step is None:
            return None
        cols, pcols, ech = step
        for r, c in enumerate(pcols):
            if cols[c] in lead:
                continue
            if cols[c] == 0:
                return GroebnerBasis(field, n, order, one)
            nz = np.flatnonzero(ech[r])
            mons.append([cols[q] for q in nz.tolist()])
            coeffs.append(ech[r, nz].tolist())
            lms.append(cols[c])
            push_pairs(len(lms) - 1)

    # the minimal generators, ascending, as _interreduce keeps them
    minimal: list[int] = []
    for k in sorted(range(len(lms)), key=lambda k: lms[k] ^ emask):
        lg = lms[k] | guard
        if not any((lg - lms[q]) & guard == guard for q in minimal):
            minimal.append(k)
    step = eliminate([(0, k) for k in minimal], {lms[k] for k in minimal}, minimal)
    if step is None:
        return None
    cols, pcols, ech = step
    row_at = {cols[c]: r for r, c in enumerate(pcols)}
    monos: dict[int, Monomial] = {}   # column -> Monomial, built once
    polys, leads = [], []
    for k in minimal:
        row = ech[row_at[lms[k]]]
        nz = np.flatnonzero(row).tolist()   # the pivot first, then descending
        terms = {}
        for q, c in zip(nz, row[nz].tolist()):
            if q not in monos:
                monos[q] = pk.unpack(cols[q])
            terms[monos[q]] = c
        polys.append(Polynomial(field, n, terms))
        leads.append(monos[nz[0]])
    return GroebnerBasis(field, n, order, polys, leads)


def buchberger(polys, order: TermOrder, field: PrimeField | None = None) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by ``polys``, which
    must all lie in one ring; ``field``, when given, must be that ring's.

    DRL runs F4 (``_f4``) and LEX the pair-by-pair loop
    (``_buchberger_pairs``); see the module docstring for why LEX stays
    there.  DRL input that F4 gives up on (a matrix too sparse or too
    large) runs the pair loop too.  Both give the same basis, as the
    reduced basis is unique.
    """
    polys = list(polys)
    for f in polys[1:]:
        polys[0]._check(f)
    if polys and field is not None and field.p != polys[0].field.p:
        raise DimensionMismatch("polynomials from different rings")
    inputs = [f for f in polys if not f.is_zero()]
    if not inputs:
        if field is None:
            raise ValueError("cannot infer the field from an empty generating set")
        return GroebnerBasis(field, order.n, order, [])
    field = inputs[0].field
    n = inputs[0].n
    if n != order.n:
        raise ValueError(f"order on {order.n} variables, polynomials on {n}")
    if order.kind == "drl":
        gb = _f4(inputs, order, field)
        if gb is not None:
            return gb
    basis = _buchberger_pairs([f.monic(order) for f in inputs], order)
    return GroebnerBasis(field, n, order, basis)


def zero_dimensional_cause(gb: GroebnerBasis) -> NotZeroDimensional | None:
    """Why the ideal is not zero-dimensional, as the error to raise, or
    None when it is: it contains 1, or the first variable without a pure
    power among the leading monomials has none."""
    if gb.contains_one():
        return NotZeroDimensional("the ideal contains 1; the system has no solutions")
    pure = {m.support()[0] for m in gb.leading_monomials if len(m.support()) == 1}
    lost = [i for i in range(gb.n) if i not in pure]
    return NotZeroDimensional(var=lost[0]) if lost else None


def is_zero_dimensional(gb: GroebnerBasis) -> bool:
    """True iff every variable has a pure power among the leading monomials."""
    return zero_dimensional_cause(gb) is None


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
    cause = zero_dimensional_cause(gb)
    if cause:
        raise cause
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


def _candidates(prev: list[Monomial], order: TermOrder) -> list[Monomial]:
    """The degree-d candidates, in ascending order, given the standard
    monomials of degree d-1.

    A monomial m is a standard monomial or a minimal leading monomial
    exactly when every divisor m/x_j is standard.  The smallest of those
    divisors under DRL is m/x_j for the smallest j in m's support, so m is
    produced only from that parent b, as x_i b with i <= min support of b,
    which yields each candidate once.
    """
    n = order.n
    standard = {b.exps for b in prev}
    monos = []
    for b in prev:
        e = b.exps
        first = next((j for j, v in enumerate(e) if v), n - 1)
        for i in range(first + 1):
            exps = e[:i] + (e[i] + 1,) + e[i + 1:]
            if all(exps[:j] + (exps[j] - 1,) + exps[j + 1:] in standard
                   for j in range(i + 1, n) if exps[j]):
                monos.append(Monomial(exps))
    monos.sort(key=order.key)
    return monos


def _cover(monos: list[Monomial], prev: list[Monomial], n: int) -> list[tuple[int, int]]:
    """For each candidate m of ``_candidates(prev, ...)``, a variable x_i
    of m and the index of m/x_i in ``prev``.

    As every m/x_j is standard, m's coordinate vector is that of any of them
    times M_j.  The rebuild makes one product per variable, each a pass over
    that variable's whole matrix, so the variables are picked greedily, the
    one in most uncovered candidates first, to cover a degree with few.
    Returns ``(index of m/x_i in prev, i)`` pairs in the order of ``monos``.
    """
    index = {b.exps: r for r, b in enumerate(prev)}
    support = np.array([m.exps for m in monos], dtype=bool).reshape(len(monos), n)
    var = np.zeros(len(monos), dtype=np.intp)
    left = np.ones(len(monos), dtype=bool)
    while left.any():
        j = int(np.argmax(support[left].sum(axis=0)))
        var[left & support[:, j]] = j
        left &= ~support[:, j]
    return [(index[m.exps[:i] + (m.exps[i] - 1,) + m.exps[i + 1:]], i)
            for m, i in zip(monos, var.tolist())]


def groebner_from_matrices(mats, field: PrimeField, n: int) -> GroebnerBasis:
    """Reduced Groebner basis under ``TermOrder.drl(n)`` from multiplication
    matrices given in a basis ordered by degree.

    ``mats[i]`` must represent multiplication by (the image of) x_i on a
    D-dimensional quotient, in a basis ordered by degree: its first vector
    is 1 and, for every d, the images of the polynomials of degree below d
    span exactly its first L_d vectors.  The standard monomials of a
    degree-compatible order, ascending, are such a basis, for the ideal and
    for its image under any linear change of variables (see the module
    docstring); the Las Vegas solver passes the original ideal's.  ``mats``
    holds n D x D arrays of canonical residues, or is one n x D x D float64
    stack of them, which is used without a copy.  The products take M_i^T;
    the Las Vegas solver passes the transposed view of a contiguous stack
    of the M_i^T, so they read their operand contiguous rather than as a
    transposed view.

    Monomials are taken one total degree at a time, as under DRL only
    leading monomials of lower degree can make a degree-d monomial a
    non-candidate.  The k = L_d standard monomials of degree below d span
    the first k coordinates, so a degree-d candidate reduces against them
    by dropping those coordinates.  For each degree:

    * the candidates (``_candidates``) get their coordinate vectors from
      one product per variable in a small cover of them (``_cover``),
      (vectors of their degree-(d-1) divisors) @ M_i^T;
    * in ascending order, one halving elimination of their columns past
      the first k (``_eliminate_block``) finds which are standard
      monomials; each other one is the leading monomial of a reduced basis
      element.  With s new standard monomials, every column past k + s
      must be zero, or the basis is not ordered by degree: ValueError.

    When every degree passes that check, the kept vectors span the first
    k coordinates at each step, so dropping them is the full reduction, and
    the result is the one a general elimination gives: input in another
    basis raises rather than returning a wrong basis.  The standard
    monomials' vectors are then block triangular, a degree's s rows
    invertible at its s columns, and the elimination returns that block's
    inverse.  So the tails, the coordinates of the leading monomials'
    vectors on the standard monomials' ones, come at the end from one
    back-substitution by degree, the top degree first.

    Every product is exact (``_mul_arrays``).  The output comes out sorted
    by leading monomial and is bit-identical to ``buchberger``'s, by
    uniqueness of the reduced basis.  It comes in coordinate form: the
    kept monomials as ``standard`` and the tails as ``tails``.
    """
    if len(mats) == 0:
        raise ValueError("need at least one multiplication matrix")
    order = TermOrder.drl(n)
    mats = np.asarray(mats, dtype=np.float64)
    p = field.p
    dim = mats.shape[1]
    kept_monos: list[Monomial] = []
    lead_monos: list[Monomial] = []
    lead_vecs: list[np.ndarray] = []
    # per degree: its first column k, its pivot columns, the inverse of its
    # block there, and its rows' first k columns
    blocks: list[tuple[int, np.ndarray, np.ndarray, np.ndarray]] = []

    monos = [Monomial.one(n)]
    vecs = np.zeros((1, dim), dtype=np.int64)
    vecs[0, 0] = 1
    k = 0
    while True:
        std, dep, _echelon, pcols, gmat = _eliminate_block(vecs[:, k:], p)
        if vecs[:, k + len(std):].any():
            raise ValueError("multiplication matrices not in a basis ordered by degree")
        lead_monos.extend(monos[r] for r in dep)
        lead_vecs.append(vecs[dep])
        kept_monos.extend(monos[r] for r in std)
        if not std:
            break
        blocks.append((k, np.add(pcols, k), gmat, vecs[std, :k]))
        k += len(std)
        prev_vecs = vecs[std]
        prev = [monos[r] for r in std]
        monos = _candidates(prev, order)
        cover = _cover(monos, prev, n)
        vecs = np.empty((len(monos), dim), dtype=np.int64)
        for i in range(n):
            rows = [r for r, (_b, v) in enumerate(cover) if v == i]
            if rows:
                parents = prev_vecs[[cover[r][0] for r in rows]]
                vecs[rows] = _mul_arrays(parents, mats[i].T, p)

    if k != dim:
        raise NotZeroDimensional(
            f"multiplication matrices span a {k}-dimensional quotient, expected {dim}")
    w = np.vstack(lead_vecs)
    tails = np.empty_like(w)
    for lo, cols, gmat, low in reversed(blocks):
        c = _mul_arrays(w[:, cols], gmat, p)   # coordinates on this degree's standard monomials
        tails[:, lo:lo + len(cols)] = c
        w = _sub_mod(w[:, :lo], _mul_arrays(c, low, p), p)
    return GroebnerBasis(field, n, order, None, lead_monos, kept_monos, tails)
