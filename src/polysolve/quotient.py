"""Quotient-ring structure of a zero-dimensional ideal and its
multiplication matrices.

Given a reduced degree-reverse-lexicographic basis, this module computes the
monomial basis B of the quotient (standard monomials, sorted increasingly)
and ``tails``, the row psi(NF(lm)) of every leading monomial lm, which later
steps copy.  One row code says where a monomial lies, over a store of
D-wide rows: c < D is the basis monomial eps_c, c >= D is row c - D of the
store, -1 is neither.  ``_locate`` codes monomials over ``tails``, and
``Frontier.targets`` codes the products x_k eps_l over the normal-form
table; ``_rows`` alone decodes codes into unit or stored rows.

``compute_frontier`` describes the frontier {x_i * eps : eps in B} \\ B by
integer tables only: ``targets``, and for each member its ``source``, read
through ``witness_var``: a leading monomial (``witness_var`` -1) by its row
of ``tails``, every other member, x_k times a member one degree down
(``witness_var`` k), by the index of that member.  It forms
all n D products as one exponent array and locates them, with B and the
leading monomials, by one sort (``_codes``).  Both computing builders read
those tables; the multiplication matrices are built three ways:

* ``build_matrices_fglm``     — one normal form at a time, in increasing
  order, each product-type frontier monomial costing one matrix-vector
  product against the partially built matrix (the classical approach);
* ``build_matrices_echelon``  — degree by degree (``normal_form_table``, a
  float64 table): each degree is one contiguous slice of the frontier; the
  members of one witness variable k take their witnesses' normal forms
  through ``targets[k]``, so the earlier degrees enter by one product per k
  whose inner size is at most D, and the slice's own relations form a
  unit-triangular system, solved in place over the slice's rows by products
  with an inverse built on its used columns only
  (``linalg._unit_ut_solve_in_place``); each matrix is one gather from that
  table through ``targets``, made as the rows of its transpose;
* ``try_read_Tn``             — the free path: succeeds only when every
  column of the last variable's matrix is a unit vector or a row of
  ``tails``, and performs zero field operations.

The two computing builders agree bit for bit and return the frontier they
used with the matrices; its ``type2_nf`` counts the normal forms they
compute.  The free path, when it succeeds, agrees with both.

The normal-form table and ``targets`` together describe all n matrices:
column l of T_k is ``_rows`` of ``targets[k, l]`` over the table.  The
Las Vegas solver keeps only those two and never gathers a matrix; the
deterministic one gathers T_n alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ClassificationFailure, NotReadable, NotZeroDimensional
from .field import PrimeField
from .gb import GroebnerBasis, _candidates, zero_dimensional_cause
from .linalg import Matrix, OpCounter, _add_mod, _mul_arrays, _unit_ut_solve_in_place
from .poly import Monomial, TermOrder


class QuotientStructure:
    """The standard-monomial basis B, sorted increasingly, so that eps_0 is
    1; row r of the |G| x D array ``tails`` is psi(NF(lm)), the negated
    tail of the generator led by the r-th leading monomial lm.  ``exps``
    and ``lead_exps`` hold the exponents of B and of the leading monomials,
    one row each, in the same orders; ``_locate`` finds a monomial among
    them, as a row code over ``tails``."""

    __slots__ = ("field", "n", "order", "basis", "tails", "exps", "lead_exps")

    def __init__(self, field: PrimeField, n: int, order: TermOrder, basis: list[Monomial],
                 tails: np.ndarray, leads: list[Monomial]):
        self.field = field
        self.n = n
        self.order = order
        self.basis = basis
        self.tails = tails
        self.exps = np.array([m.exps for m in basis], dtype=np.int64).reshape(-1, n)
        self.lead_exps = np.array([m.exps for m in leads], dtype=np.int64).reshape(-1, n)

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def __repr__(self):
        return f"QuotientStructure(D={self.dimension}, n={self.n})"


def compute_basis(gb: GroebnerBasis) -> QuotientStructure:
    """Standard monomials one degree at a time, and ``tails``.

    A monomial whose every divisor m/x_j is standard is itself standard
    unless it is a leading monomial, so the degree-d standard monomials are
    the candidates of the degree-(d-1) ones (``gb._candidates``) that lead
    no generator.  The walk ends because zero-dimensionality (a pure power
    of every variable among the leading monomials) is checked up front:
    this is where every solve checks it, and NotZeroDimensional names the
    cause (``gb.zero_dimensional_cause``).  A rebuilt basis hands over its
    ``standard`` and ``tails`` and skips the walk.
    """
    cause = zero_dimensional_cause(gb)
    if cause:
        raise NotZeroDimensional(cause)
    order = gb.order
    n = gb.n
    leads = gb.leading_monomials
    if gb.tails is not None:
        return QuotientStructure(gb.field, n, order, gb.standard, gb.tails, leads)
    lead_set = set(leads)
    basis: list[Monomial] = []
    level = [Monomial.one(n)]
    while level:
        basis += level
        level = [m for m in _candidates(level, order) if m not in lead_set]
    if order.kind != "drl":   # degree by degree is increasing only under DRL
        basis.sort(key=order.key)
    index = {m: i for i, m in enumerate(basis)}
    tails = np.zeros((len(gb), len(basis)), dtype=np.int64)
    p = gb.field.p
    for row, g, lm in zip(tails, gb.polys, leads):
        tail = {m: c for m, c in g.terms.items() if m != lm}
        row[[index[m] for m in tail]] = [p - c for c in tail.values()]
    return QuotientStructure(gb.field, n, order, basis, tails, leads)


@dataclass(eq=False)
class Frontier:
    """The frontier {x_i eps} \\ B as tables, filled by ``compute_frontier``.

    ``exps[f]`` is the exponent row of member f, sorted increasingly in the
    working order; ``monomials`` gives the members as ``Monomial``s, built
    on first read, since no solve step needs them.
    ``targets[k, l]`` is the row code of x_k * eps_l over the normal-form
    table: j < D for eps_j, D + f for member f.  For a fixed k the map is
    injective, so member f provides a column of the k-th matrix exactly
    when D + f occurs in ``targets[k]``.  A member that is a leading
    monomial has ``witness_var[f]`` = -1 and ``source[f]`` its row of
    ``QuotientStructure.tails``.  Every other member is x_k * t' for the
    member t' one degree down, with ``witness_var[f]`` = k and
    ``source[f]`` the index of t'; its normal form is T_k NF(t').
    """

    exps: np.ndarray
    targets: np.ndarray
    witness_var: np.ndarray
    source: np.ndarray

    def __len__(self):
        return self.exps.shape[0]

    @cached_property
    def monomials(self) -> list[Monomial]:
        return list(map(Monomial, self.exps.tolist()))

    @property
    def type2_nf(self) -> int:
        """Frontier monomials needing a computed normal form, over all
        variables: the normal forms the degree-by-degree builder computes."""
        return int(np.count_nonzero(self.witness_var >= 0))

    def type2_for_var(self, i: int) -> int:
        """Frontier monomials x_i * eps needing a computed normal form —
        the cost of building the i-th matrix alone the classical way."""
        tgt = self.targets[i]
        dim = tgt.size
        return int(np.count_nonzero(self.witness_var[tgt[tgt >= dim] - dim] >= 0))


def _codes(exps: np.ndarray, order: TermOrder) -> np.ndarray:
    """Dense ranks of the exponent rows under ``order``: equal monomials get
    equal codes, and a smaller monomial a smaller code.

    One ``np.lexsort`` sorts the rows by the order's key columns (the
    degree, then the negated exponents from x_n down, under DRL; the
    exponents under LEX); the rank steps wherever a key column changes
    between neighbours in that sort.
    """
    keys = exps.T
    if order.kind == "drl":
        keys = np.vstack([keys.sum(axis=0), -keys[::-1]])
    perm = np.lexsort(keys[::-1])   # lexsort's last key is its first
    ranked = keys[:, perm]
    step = np.zeros(perm.size, dtype=np.int64)
    step[1:] = (ranked[:, 1:] != ranked[:, :-1]).any(axis=0)
    code = np.empty(perm.size, dtype=np.int64)
    code[perm] = np.cumsum(step)
    return code


def _locate(quotient: QuotientStructure, exps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The row code over ``tails`` of the monomial of each exponent row, and
    its rank (``_codes`` over B, the leading monomials and these rows).  B
    and the leading monomials are stacked in that order, so the position of
    each in the stack is its code."""
    known = quotient.dimension + quotient.lead_exps.shape[0]
    rank = _codes(np.vstack([quotient.exps, quotient.lead_exps, exps]), quotient.order)
    at = np.full(rank.size, -1, dtype=np.int64)
    at[rank[:known]] = np.arange(known)
    rank = rank[known:]
    return at[rank], rank


def compute_frontier(quotient: QuotientStructure, gb: GroebnerBasis) -> Frontier:
    """Classify the frontier and locate every product x_k * eps_l.

    This is the one place that decides where a product lands and how each
    member's normal form is obtained.  All n D products are formed at once
    as exponent rows and coded together with B and the leading monomials
    by one sort (``_locate``), so every lookup is an array index: a product
    coded below D lands in B, a product coded D + r leads the generator of
    ``tails`` row r (its ``source``), and the ranks of the products not in
    B, renumbered densely in ascending order, are the frontier in order.
    A member t = x_i eps_l that leads no generator takes the first
    variable k for which t / x_k is a member.  For k = i that is eps_l,
    standard; for any other k in t's support it is x_i (eps_l / x_k), and
    eps_l / x_k is standard, so ``targets`` itself locates it.
    """
    n = quotient.n
    dim = quotient.dimension
    prods = (quotient.exps + np.eye(n, dtype=np.int64)[:, None, :]).reshape(-1, n)
    targets, rank = (a.reshape(n, dim) for a in _locate(quotient, prods))
    # the frontier is the products outside B, in the order of their ranks
    ks, ls = np.nonzero((targets < 0) | (targets >= dim))
    members, f = np.unique(rank[ks, ls], return_inverse=True)
    total = members.size
    var, base, source = (np.empty(total, dtype=np.int64) for _ in range(3))
    # member f is x_var eps_base; it leads the generator of code - D, if any
    var[f], base[f], source[f] = ks, ls, np.maximum(targets[ks, ls] - dim, -1)
    targets[ks, ls] = dim + f
    # down[k, j] = l where eps_j / x_k = eps_l, else -1
    down = np.full((n, dim), -1, dtype=np.int64)
    ks, ls = np.nonzero(targets < dim)
    down[ks, targets[ks, ls]] = ls
    below = down[:, base]
    below = np.where(below >= 0, targets[var, below], -1)   # t / x_k, or -1
    found = (below >= dim) & (source < 0)
    witness_var = np.where(found.any(axis=0), found.argmax(axis=0), -1)
    witnessed = np.flatnonzero(witness_var >= 0)
    source[witnessed] = below[witness_var[witnessed], witnessed] - dim
    exps = quotient.exps[base]
    exps[np.arange(total), var] += 1
    lost = np.flatnonzero(source < 0)
    if lost.size:
        raise ClassificationFailure(f"{Monomial(exps[lost[0]].tolist())} is neither a leading "
                                    "monomial nor a shifted frontier monomial")
    return Frontier(exps, targets, witness_var, source)


@dataclass
class MulMatrix:
    """Multiplication-by-x_var matrix in the basis B (columns are psi of
    the products x_var * eps_j)."""

    var: int
    matrix: Matrix


def build_matrices_fglm(quotient: QuotientStructure, gb: GroebnerBasis,
                        frontier: Frontier | None = None) -> tuple[list[MulMatrix], Frontier]:
    """All n multiplication matrices, one normal form at a time, and the
    frontier used.

    Frontier monomials are processed in increasing order; a product-type
    monomial x_k t' costs one matrix-vector product T_k . psi(NF(t'))
    (columns of T_k not yet filled are never touched because the
    corresponding coordinates of NF(t') vanish).  Unit columns and the
    columns each member fills are read from ``targets``.
    """
    if frontier is None:
        frontier = compute_frontier(quotient, gb)
    p = quotient.field.p
    dim = quotient.dimension
    targets = frontier.targets
    # float64-resident, so the kernel reads them without a conversion
    mats = np.zeros((quotient.n, dim, dim), dtype=np.float64)
    ks, ls = np.nonzero(targets < dim)
    mats[ks, targets[ks, ls], ls] = 1
    # cells[f]: the columns (k, l) that member f fills
    cells: list[list[tuple[int, int]]] = [[] for _ in range(len(frontier))]
    ks, ls = np.nonzero(targets >= dim)
    for k, l, f in zip(ks.tolist(), ls.tolist(), (targets[ks, ls] - dim).tolist()):
        cells[f].append((k, l))
    nf = np.zeros((len(frontier), dim), dtype=np.int64)
    for f, (k, s) in enumerate(zip(frontier.witness_var.tolist(), frontier.source.tolist())):
        if k < 0:
            nf[f] = quotient.tails[s]
        else:
            nf[f] = _mul_arrays(mats[k], nf[s, :, None], p).ravel()
        for i, l in cells[f]:
            mats[i, :, l] = nf[f]
    out = [MulMatrix(i, Matrix(quotient.field, m.astype(np.int64))) for i, m in enumerate(mats)]
    return out, frontier


def normal_form_table(quotient: QuotientStructure, frontier: Frontier) -> np.ndarray:
    """The normal forms of every frontier member, degree by degree: row f
    is psi(NF(frontier member f)), in frontier order, as float64 residues,
    so that every product reads the rows it gathers from the table without
    converting them.

    Under DRL the frontier is sorted by degree first, so each frontier
    degree d is one contiguous slice [lo, hi) of rows, and its normal forms
    solve one unit-triangular system over the slice.  The slice's right
    sides are written into its rows, and its solution over them.  A
    generator member's right side is its row of ``tails``.  A product
    member m = x_k t' with w = NF(t') satisfies m = sum_l w_l x_k eps_l,
    where eps_l ranges over the basis monomials of degree < d, so
    ``targets[k, :L_d]`` sorts its terms: a basis target adds w_l to the
    right side, an earlier frontier target f contributes w_l NF(f), and a
    target inside the slice is an entry of the slice's system.  All members
    of one witness variable k share those targets, so the earlier-frontier
    part is one product W[:, early] . NF[early targets] per k, whose inner
    size is at most D (the FGLM relation NF(x_k t') = T_k NF(t')).  Taken
    in descending order the slice's system is unit upper triangular; it is
    kept as its nonzero entries, and ``linalg._unit_ut_solve_in_place``
    inverts it on its used columns only.

    Column l of T_k is ``_rows`` of ``targets[k, l]`` over this table.
    """
    if quotient.order.kind != "drl":
        raise ValueError("the degree-by-degree builder needs the DRL order")
    n = quotient.n
    p = quotient.field.p
    dim = quotient.dimension
    total = len(frontier)
    targets = frontier.targets
    witness_var, source = frontier.witness_var, frontier.source
    basis_deg = quotient.exps.sum(axis=1)
    deg = frontier.exps.sum(axis=1)
    cuts = (np.flatnonzero(np.diff(deg)) + 1).tolist()

    nf = np.zeros((total, dim))
    for lo, hi in zip([0] + cuts, cuts + [total]):
        s = hi - lo
        low = int(np.searchsorted(basis_deg, deg[lo]))
        out = nf[lo:hi]
        flat = out.reshape(-1)
        rg = np.flatnonzero(witness_var[lo:hi] < 0)
        out[rg] = quotient.tails[source[lo + rg]]
        # member r of the slice is its right side plus sum vals * member
        # cols, over the (r, cols, vals) entries with cols < r
        rows, cols, vals = [], [], []
        for k in range(n):
            rk = np.flatnonzero(witness_var[lo:hi] == k)
            if not rk.size:
                continue
            w = nf[source[lo + rk], :low]
            tgt = targets[k, :low]
            basis = np.flatnonzero(tgt < dim)
            inside = np.flatnonzero(tgt >= dim + lo)
            early = np.flatnonzero((tgt >= dim) & (tgt < dim + lo))
            if early.size:
                out[rk] = _mul_arrays(w[:, early], nf[tgt[early] - dim], p)
            cell = (rk[:, None] * dim + tgt[basis]).ravel()
            flat[cell] = _add_mod(flat.take(cell), w[:, basis].ravel(), p)
            w = w[:, inside]
            r, c = np.nonzero(w)
            rows.append(rk[r])
            cols.append(tgt[inside[c]] - dim - lo)
            vals.append(w[r, c])
        if rows:
            _unit_ut_solve_in_place(out[::-1], s - 1 - np.concatenate(rows),
                                    s - 1 - np.concatenate(cols), np.concatenate(vals), p)
    return nf


def _rows(source: np.ndarray, codes: np.ndarray, dim: int, dtype=np.int64) -> np.ndarray:
    """The rows of row codes of any shape, none of them -1: the unit vector
    eps_c for c < D, else row c - D of ``source``, as an array of shape
    ``codes.shape + (dim,)``."""
    out = np.zeros(codes.shape + (dim,), dtype=dtype)
    unit = codes < dim
    out[unit, codes[unit]] = 1
    out[~unit] = source[codes[~unit] - dim]
    return out


def _gather(table: np.ndarray, tgt: np.ndarray) -> np.ndarray:
    """The transpose of one multiplication matrix from the normal-form
    table, as int64 rows: row l decodes ``tgt[l]`` (``_rows``)."""
    return _rows(table, tgt, tgt.size)


def build_matrices_echelon(quotient: QuotientStructure, gb: GroebnerBasis,
                           frontier: Frontier | None = None,
                           variables: list[int] | None = None) -> tuple[list[MulMatrix], Frontier]:
    """Multiplication matrices degree by degree, and the frontier used:
    ``normal_form_table``, then each matrix is one gather through
    ``targets``.  Equals the one-at-a-time builder exactly.

    ``variables`` restricts which matrices are gathered (the normal-form
    table is shared); default all n.
    """
    if frontier is None:
        frontier = compute_frontier(quotient, gb)
    table = normal_form_table(quotient, frontier)
    # each matrix is the transpose of its gathered rows, so that the Krylov
    # steps, which run on T^T, read those rows without a copy
    return [MulMatrix(i, Matrix(quotient.field, _gather(table, frontier.targets[i]).T))
            for i in (range(quotient.n) if variables is None else variables)], frontier


def _nf_rows(quotient: QuotientStructure, exps: np.ndarray) -> np.ndarray:
    """psi(NF(m)) for the monomial m of each exponent row, by copies only:
    ``_rows`` of its code from ``_locate``, a unit row when m is standard
    and its ``tails`` row when m leads a generator; the first monomial
    coded -1 raises NotReadable carrying it."""
    code, _ = _locate(quotient, exps)
    lost = np.flatnonzero(code < 0)
    if lost.size:
        raise NotReadable(Monomial(exps[lost[0]].tolist()))
    return _rows(quotient.tails, code, quotient.dimension)


def try_read_Tn(quotient: QuotientStructure, gb: GroebnerBasis,
                counter: OpCounter | None = None) -> MulMatrix:
    """Last variable's multiplication matrix, copies only.

    Every column x_n * eps_j must be either a standard monomial (unit
    column) or a leading monomial (its row of ``quotient.tails``), as
    ``_nf_rows`` decodes them; any other monomial raises NotReadable
    carrying the first offender in basis order.  ``counter``, if given,
    receives the field multiplications/additions performed — by
    construction it stays at zero, which is the point of this path.  The columns are read as the
    rows of T_n^T, and T_n is their transpose, as in
    ``build_matrices_echelon``.
    """
    last = quotient.n - 1
    cols = _nf_rows(quotient, quotient.exps + np.eye(quotient.n, dtype=np.int64)[last])
    return MulMatrix(last, Matrix(quotient.field, cols.T))
