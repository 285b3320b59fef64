"""Quotient-ring structure of a zero-dimensional ideal and its
multiplication matrices.

Given a reduced degree-reverse-lexicographic basis, this module computes the
monomial basis B of the quotient (standard monomials, sorted increasingly)
and ``tails``, the row psi(NF(lm)) of every leading monomial lm, which later
steps copy.  ``compute_frontier`` describes the frontier {x_i * eps : eps in
B} \\ B by integer tables only: ``targets`` locates every product
x_k * eps_l in B or in the frontier, ``gen_row`` marks the leading monomials
by their row of ``tails``, and ``witness_var``/``witness_row`` give every
other member as x_k times a member one degree down.  Both computing
builders read those tables; the multiplication matrices are built three
ways:

* ``build_matrices_fglm``     — one normal form at a time, in increasing
  order, each product-type frontier monomial costing one matrix-vector
  product against the partially built matrix (the classical approach);
* ``build_matrices_echelon``  — degree by degree (``normal_form_table``):
  each degree is one contiguous slice of the frontier; the members of one
  witness variable k take their witnesses' normal forms through
  ``targets[k]``, so the earlier degrees enter by one product per k whose
  inner size is at most D, and the slice's own relations form a
  unit-triangular system solved by products (``linalg._unit_ut_solve``);
  each matrix is one gather from that table through ``targets``;
* ``try_read_Tn``             — the free path: succeeds only when every
  column of the last variable's matrix is a unit vector or a row of
  ``tails``, and performs zero field operations.

The two computing builders agree bit for bit and return the frontier they
used with the matrices; its ``type2_nf`` counts the normal forms they
compute.  The free path, when it succeeds, agrees with both.

The normal-form table and ``targets`` together describe all n matrices:
column l of T_k is the unit vector of ``targets[k, l]`` or a row of the
table.  The Las Vegas solver keeps only those two and never gathers a
matrix; the deterministic one gathers T_n alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ClassificationFailure, NotReadable, NotZeroDimensional
from .field import PrimeField
from .gb import GroebnerBasis, _candidates, is_zero_dimensional
from .linalg import Matrix, OpCounter, _mul_arrays, _unit_ut_solve
from .poly import Monomial, Polynomial, TermOrder


class QuotientStructure:
    """The standard-monomial basis B, sorted increasingly, with index map;
    row ``lead_row[lm]`` of the |G| x D array ``tails`` is psi(NF(lm)), the
    negated tail of the generator led by lm."""

    __slots__ = ("field", "n", "order", "basis", "index", "tails", "lead_row")

    def __init__(self, field: PrimeField, n: int, order: TermOrder, basis: list[Monomial],
                 tails: np.ndarray, lead_row: dict[Monomial, int]):
        self.field = field
        self.n = n
        self.order = order
        self.basis = basis
        self.index = {m: i for i, m in enumerate(basis)}
        self.tails = tails
        self.lead_row = lead_row

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def psi(self, m: Monomial) -> int:
        return self.index[m]

    def vector_of(self, poly: Polynomial) -> np.ndarray:
        """Coordinate vector of a polynomial supported on B."""
        v = np.zeros(len(self.basis), dtype=np.int64)
        for m, c in poly.terms.items():
            v[self.index[m]] = c
        return v

    def __repr__(self):
        return f"QuotientStructure(D={self.dimension}, n={self.n})"


def compute_basis(gb: GroebnerBasis) -> QuotientStructure:
    """Standard monomials one degree at a time, and ``tails``.

    A monomial whose every divisor m/x_j is standard is itself standard
    unless it is a leading monomial, so the degree-d standard monomials are
    the candidates of the degree-(d-1) ones (``gb._candidates``) that lead
    no generator.  The walk ends because zero-dimensionality (a pure power
    of every variable among the leading monomials) is checked up front.
    A rebuilt basis hands over its ``standard`` and ``tails`` and skips the
    walk.
    """
    if not is_zero_dimensional(gb):
        raise NotZeroDimensional("quotient is not finite-dimensional over the field")
    order = gb.order
    n = gb.n
    lead_row = {m: r for r, m in enumerate(gb.leading_monomials)}
    if gb.tails is not None:
        return QuotientStructure(gb.field, n, order, gb.standard, gb.tails, lead_row)
    basis: list[Monomial] = []
    level = [Monomial.one(n)]
    while level:
        basis += level
        level = [m for m in _candidates(level, order) if m not in lead_row]
    if order.kind != "drl":   # degree by degree is increasing only under DRL
        basis.sort(key=order.key)
    q = QuotientStructure(gb.field, n, order, basis,
                          np.zeros((len(gb), len(basis)), dtype=np.int64), lead_row)
    p = gb.field.p
    for row, g, lm in zip(q.tails, gb.polys, gb.leading_monomials):
        tail = {m: c for m, c in g.terms.items() if m != lm}
        row[[q.index[m] for m in tail]] = [p - c for c in tail.values()]
    return q


@dataclass(eq=False)
class Frontier:
    """The frontier {x_i eps} \\ B as tables, filled by ``compute_frontier``.

    ``monomials[f]`` is member f, sorted increasingly in the working order.
    ``targets[k, l]`` is j < D when x_k * eps_l is the basis monomial eps_j,
    and D + f when it is member f; for a fixed k the map is injective, so
    member f provides a column of the k-th matrix exactly when D + f occurs
    in ``targets[k]``.  ``gen_row[f]`` is the member's row of
    ``QuotientStructure.tails`` when it is a leading monomial, else -1.
    Every other member is x_k * t' for the member t' one degree down with
    ``witness_var[f]`` = k and ``witness_row[f]`` = the index of t' (both -1
    for a leading monomial); its normal form is T_k NF(t').
    """

    monomials: list[Monomial]
    targets: np.ndarray
    gen_row: np.ndarray
    witness_var: np.ndarray
    witness_row: np.ndarray

    def __len__(self):
        return len(self.monomials)

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


def compute_frontier(quotient: QuotientStructure, gb: GroebnerBasis) -> Frontier:
    """Classify the frontier and locate every product x_k * eps_l.

    This is the one place that decides where a product lands and how each
    member's normal form is obtained.
    """
    n = quotient.n
    dim = quotient.dimension
    targets = [[0] * dim for _ in range(n)]
    cells: dict[Monomial, list[tuple[int, int]]] = {}
    for l, eps in enumerate(quotient.basis):
        for i in range(n):
            t = eps.mul_var(i)
            j = quotient.index.get(t)
            if j is None:
                cells.setdefault(t, []).append((i, l))
            else:
                targets[i][l] = j
    monomials = sorted(cells, key=quotient.order.key)
    row = {t: f for f, t in enumerate(monomials)}
    gen_row = [-1] * len(monomials)
    witness_var = [-1] * len(monomials)
    witness_row = [-1] * len(monomials)
    for f, t in enumerate(monomials):
        for i, l in cells[t]:
            targets[i][l] = dim + f
        if t in quotient.lead_row:
            gen_row[f] = quotient.lead_row[t]
            continue
        for k in t.support():
            w = row.get(t.div_var(k))
            if w is not None:
                witness_var[f], witness_row[f] = k, w
                break
        else:
            raise ClassificationFailure(f"{t} is neither a leading monomial nor a shifted frontier monomial")
    return Frontier(monomials, *(np.array(a, dtype=np.int64)
                                 for a in (targets, gen_row, witness_var, witness_row)))


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
    for f, (k, g, w) in enumerate(zip(frontier.witness_var.tolist(), frontier.gen_row.tolist(),
                                      frontier.witness_row.tolist())):
        if k < 0:
            nf[f] = quotient.tails[g]
        else:
            nf[f] = _mul_arrays(mats[k], nf[w, :, None], p).ravel()
        for i, l in cells[f]:
            mats[i, :, l] = nf[f]
    out = [MulMatrix(i, Matrix(quotient.field, m.astype(np.int64))) for i, m in enumerate(mats)]
    return out, frontier


def normal_form_table(quotient: QuotientStructure, frontier: Frontier) -> np.ndarray:
    """The normal forms of every frontier member, degree by degree: row f
    is psi(NF(frontier member f)), in frontier order, int64.

    Under DRL the frontier is sorted by degree first, so each frontier
    degree d is one contiguous slice [lo, hi), and its normal forms solve
    one unit-triangular system over the slice.  A generator member's right
    side is its row of ``tails``.  A product member m = x_k t' with
    w = NF(t') satisfies m = sum_l w_l x_k eps_l, where eps_l ranges over the
    basis monomials of degree < d, so ``targets[k, :L_d]`` sorts its terms:
    a basis target is scattered into the right side, an earlier frontier
    target f contributes w_l NF(f), and a target inside the slice becomes an
    entry of the pivot block.  All members of one witness variable k share
    those targets, so the earlier-frontier part is one product
    W[:, early] . NF[early targets] per k, whose inner size is at most D
    (the FGLM relation NF(x_k t') = T_k NF(t')).  Taken in descending
    order the slice's block is unit upper triangular, and ``_unit_ut_solve``
    gives the slice's normal forms.

    Column l of T_k is the unit vector of ``targets[k, l]`` when that is
    below D, else row ``targets[k, l] - D`` of this table.
    """
    if quotient.order.kind != "drl":
        raise ValueError("the degree-by-degree builder needs the DRL order")
    n = quotient.n
    p = quotient.field.p
    dim = quotient.dimension
    total = len(frontier)
    targets = frontier.targets
    gen_row, witness_var, witness_row = frontier.gen_row, frontier.witness_var, frontier.witness_row
    basis_deg = np.array([eps.deg for eps in quotient.basis], dtype=np.int64)
    # a member is one degree above each basis monomial it extends
    deg = np.zeros(total, dtype=np.int64)
    front = targets >= dim
    deg[targets[front] - dim] = np.broadcast_to(basis_deg + 1, targets.shape)[front]
    cuts = (np.flatnonzero(np.diff(deg)) + 1).tolist()

    nf = np.zeros((total, dim), dtype=np.int64)
    for lo, hi in zip([0] + cuts, cuts + [total]):
        s = hi - lo
        low = int(np.searchsorted(basis_deg, deg[lo]))
        # member lo + r is rhs[r] plus a combination of earlier members of
        # the slice; t holds that relation in descending member order
        rhs = np.zeros((s, dim), dtype=np.int64)
        t = np.eye(s, dtype=np.int64)
        rg = np.flatnonzero(gen_row[lo:hi] >= 0)
        rhs[rg] = quotient.tails[gen_row[lo + rg]]
        for k in range(n):
            rk = np.flatnonzero(witness_var[lo:hi] == k)
            if not rk.size:
                continue
            w = nf[witness_row[lo + rk], :low]
            tgt = targets[k, :low]
            basis = tgt < dim
            inside = tgt >= dim + lo
            early = ~(basis | inside)
            part = np.zeros((rk.size, dim), dtype=np.int64)
            part[:, tgt[basis]] = w[:, basis]
            if early.any():
                part = (part + _mul_arrays(w[:, early], nf[tgt[early] - dim], p)) % p
            rhs[rk] = part
            t[s - 1 - rk[:, None], dim + hi - 1 - tgt[inside]] = -w[:, inside] % p
        nf[lo:hi] = _unit_ut_solve(t, rhs[::-1], p)[::-1]
    return nf


def _gather(table: np.ndarray, tgt: np.ndarray) -> np.ndarray:
    """One multiplication matrix from the normal-form table: column l is
    the unit vector of ``tgt[l]`` or row ``tgt[l] - D`` of ``table``."""
    dim = tgt.size
    unit = tgt < dim
    mat = np.zeros((dim, dim), dtype=np.int64)
    mat[tgt[unit], np.flatnonzero(unit)] = 1
    mat[:, ~unit] = table[tgt[~unit] - dim].T
    return mat


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
    return [MulMatrix(i, Matrix(quotient.field, _gather(table, frontier.targets[i])))
            for i in (range(quotient.n) if variables is None else variables)], frontier


def _nf_rows(quotient: QuotientStructure, monomials: list[Monomial]) -> np.ndarray:
    """psi(NF(m)) for each monomial, by copies only: a unit row when m is
    standard, its ``tails`` row when m leads a generator; any other monomial
    raises NotReadable carrying it."""
    out = np.zeros((len(monomials), quotient.dimension), dtype=np.int64)
    for r, m in enumerate(monomials):
        if m in quotient.index:
            out[r, quotient.index[m]] = 1
        elif m in quotient.lead_row:
            out[r] = quotient.tails[quotient.lead_row[m]]
        else:
            raise NotReadable(m)
    return out


def try_read_Tn(quotient: QuotientStructure, gb: GroebnerBasis,
                counter: OpCounter | None = None) -> MulMatrix:
    """Last variable's multiplication matrix, copies only.

    Every column x_n * eps_j must be either a standard monomial (unit
    column) or a leading monomial (its row of ``quotient.tails``); any
    other monomial raises NotReadable carrying the offender.  ``counter``,
    if given, receives the field multiplications/additions performed — by
    construction it stays at zero, which is the point of this path.
    """
    last = quotient.n - 1
    cols = _nf_rows(quotient, [eps.mul_var(last) for eps in quotient.basis])
    return MulMatrix(last, Matrix(quotient.field, np.ascontiguousarray(cols.T)))
