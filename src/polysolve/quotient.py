"""Quotient-ring structure of a zero-dimensional ideal and its
multiplication matrices.

Given a reduced degree-reverse-lexicographic basis, this module computes the
monomial basis B of the quotient (standard monomials, sorted increasingly),
classifies the frontier {x_i * eps : eps in B} \\ B, and builds the
multiplication matrices three ways:

* ``build_matrices_fglm``     — one normal form at a time, in increasing
  order, each product-type frontier monomial costing one matrix-vector
  product against the partially built matrix (the classical approach);
* ``build_matrices_echelon``  — degree by degree, all rows of a degree at
  once, reduced against the previous degrees by one Schur-style update and a
  unit-triangular solve;
* ``try_read_Tn``             — the free path: succeeds only when every
  column of the last variable's matrix is a unit vector or a (negated)
  generator tail, and performs zero field operations.

The two computing builders agree bit for bit; the free path, when it
succeeds, agrees with both.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import ClassificationFailure, NotReadable, NotZeroDimensional
from .field import PrimeField
from .gb import GroebnerBasis, is_zero_dimensional
from .linalg import Matrix, OpCounter, block_echelon, _mul_arrays
from .poly import Monomial, Polynomial, TermOrder


class QuotientStructure:
    """The standard-monomial basis B, sorted increasingly, with index map."""

    __slots__ = ("field", "n", "order", "basis", "index")

    def __init__(self, field: PrimeField, n: int, order: TermOrder, basis: list[Monomial]):
        self.field = field
        self.n = n
        self.order = order
        self.basis = basis
        self.index = {m: i for i, m in enumerate(basis)}

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
    """Standard monomials by breadth-first search from 1.

    Every candidate is a variable multiple of a kept monomial, so each
    membership decision is O(n) hash lookups: a candidate is reducible iff
    it is a leading monomial or one of its single-variable quotients is
    already known reducible.  Nontermination is impossible because
    zero-dimensionality (pure power of every variable among the leading
    monomials) is checked up front.
    """
    if not is_zero_dimensional(gb):
        raise NotZeroDimensional("quotient is not finite-dimensional over the field")
    order = gb.order
    n = gb.n
    lead = gb.leading_set()
    one = Monomial.one(n)
    basis = [one]
    reducible: set[Monomial] = set()
    level = [one]
    while level:
        candidates = sorted({eps.mul_var(i) for eps in level for i in range(n)}, key=order.key)
        level = []
        for m in candidates:
            if m in lead or any(m.exps[i] and m.div_var(i) in reducible for i in range(n)):
                reducible.add(m)
            else:
                basis.append(m)
                level.append(m)
    return QuotientStructure(gb.field, n, order, basis)


@dataclass
class FrontierMember:
    """One monomial of {x_i eps} \\ B with its classification.

    kind "generator": the monomial is a leading monomial; its normal form is
    read from the generator's tail.  kind "product": the monomial is
    x_k * t' for another frontier monomial t' one degree down; its normal
    form is a linear combination of columns of the k-th matrix.
    ``parent_vars`` lists every i with monomial / x_i in B, i.e. the
    matrices this monomial provides a column for.
    """

    monomial: Monomial
    kind: str
    parent_vars: tuple[int, ...]
    generator: Polynomial | None = None
    witness_var: int = -1
    witness: Monomial | None = None

    @property
    def degree(self) -> int:
        return self.monomial.deg


class Frontier:
    """All frontier members, sorted increasingly in the working order."""

    __slots__ = ("members", "index", "degrees")

    def __init__(self, members: list[FrontierMember]):
        self.members = members
        self.index = {m.monomial: i for i, m in enumerate(members)}
        self.degrees = sorted({m.degree for m in members})

    def __len__(self):
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def of_degree(self, d: int) -> list[FrontierMember]:
        return [m for m in self.members if m.degree == d]

    def type2_total(self) -> int:
        return sum(1 for m in self.members if m.kind == "product")

    def type2_for_var(self, i: int) -> int:
        """Frontier monomials x_i * eps needing a computed normal form —
        the cost of building the i-th matrix alone the classical way."""
        return sum(1 for m in self.members if m.kind == "product" and i in m.parent_vars)


def compute_frontier(quotient: QuotientStructure, gb: GroebnerBasis) -> Frontier:
    n = quotient.n
    order = quotient.order
    lm_to_poly = dict(zip(gb.leading_monomials, gb.polys))
    parents: dict[Monomial, list[int]] = {}
    for eps in quotient.basis:
        for i in range(n):
            t = eps.mul_var(i)
            if t in quotient.index:
                continue
            parents.setdefault(t, []).append(i)
    members = []
    frontier_set = set(parents)
    for t in sorted(parents, key=order.key):
        pv = tuple(sorted(parents[t]))
        if t in lm_to_poly:
            members.append(FrontierMember(t, "generator", pv, generator=lm_to_poly[t]))
            continue
        for k in t.support():
            t_prev = t.div_var(k)
            if t_prev in frontier_set:
                members.append(FrontierMember(t, "product", pv, witness_var=k, witness=t_prev))
                break
        else:
            raise ClassificationFailure(f"{t} is neither a leading monomial nor a shifted frontier monomial")
    return Frontier(members)


@dataclass
class MulMatrix:
    """Multiplication-by-x_var matrix in the basis B (columns are psi of
    the products x_var * eps_j)."""

    var: int
    matrix: Matrix


@dataclass
class BuildStats:
    method: str
    dimension: int
    frontier_size: int
    type2_nf: int
    type2_for_var: list[int] = dc_field(default_factory=list)


def _tail_vector(quotient: QuotientStructure, g: Polynomial, lm: Monomial) -> np.ndarray:
    """psi(-tail) of a monic reduced generator, i.e. psi(NF(lm))."""
    p = quotient.field.p
    v = np.zeros(len(quotient.basis), dtype=np.int64)
    for m, c in g.terms.items():
        if m != lm:
            v[quotient.index[m]] = p - c
    return v


def build_matrices_fglm(quotient: QuotientStructure, gb: GroebnerBasis,
                        frontier: Frontier | None = None) -> tuple[list[MulMatrix], BuildStats]:
    """All n multiplication matrices, one normal form at a time.

    Frontier monomials are processed in increasing order; a product-type
    monomial x_k t' costs one matrix-vector product T_k . psi(NF(t'))
    (columns of T_k not yet filled are never touched because the
    corresponding coordinates of NF(t') vanish).
    """
    if frontier is None:
        frontier = compute_frontier(quotient, gb)
    n = quotient.n
    p = quotient.field.p
    dim = quotient.dimension
    # float64-resident, so the kernel reads them without a conversion
    mats = [np.zeros((dim, dim), dtype=np.float64) for _ in range(n)]
    for j, eps in enumerate(quotient.basis):
        for i in range(n):
            t = eps.mul_var(i)
            if t in quotient.index:
                mats[i][quotient.index[t], j] = 1
    nf: dict[Monomial, np.ndarray] = {}
    type2 = 0
    for mem in frontier:
        if mem.kind == "generator":
            vec = _tail_vector(quotient, mem.generator, mem.monomial)
        else:
            alpha = nf[mem.witness]
            vec = _mul_arrays(mats[mem.witness_var], alpha[:, None], p).ravel()
            type2 += 1
        nf[mem.monomial] = vec
        for i in mem.parent_vars:
            mats[i][:, quotient.index[mem.monomial.div_var(i)]] = vec
    stats = BuildStats("fglm", dim, len(frontier), type2,
                       [frontier.type2_for_var(i) for i in range(n)])
    out = [MulMatrix(i, Matrix(quotient.field, m.astype(np.int64))) for i, m in enumerate(mats)]
    return out, stats


def build_matrices_echelon(quotient: QuotientStructure, gb: GroebnerBasis,
                           frontier: Frontier | None = None,
                           variables: list[int] | None = None) -> tuple[list[MulMatrix], BuildStats]:
    """Multiplication matrices degree by degree.

    For each frontier degree d the rows (generator rows: the generator
    itself; product rows: m - x_k NF(m/x_k)) are assembled over the columns
    [frontier_d desc | processed frontier | B] and reduced in one shot: the
    leading block is unit upper triangular by construction, the processed
    rows are known to reduce to [0 | Id | -NF], so the new normal forms are
    -T^(-1)(C - B . NF_prev).  Equals the one-at-a-time builder exactly.

    ``variables`` restricts which matrices are column-assembled at the end
    (the normal-form table is shared); default all n.
    """
    if frontier is None:
        frontier = compute_frontier(quotient, gb)
    n = quotient.n
    fld = quotient.field
    p = fld.p
    dim = quotient.dimension
    total = len(frontier)
    # processing order: degree ascending, inside a degree descending
    proc: list[FrontierMember] = []
    for d in frontier.degrees:
        proc.extend(sorted(frontier.of_degree(d), key=lambda m: quotient.order.key(m.monomial),
                           reverse=True))
    row_of = {mem.monomial: i for i, mem in enumerate(proc)}
    # scatter targets for x_k * eps_l: either a B column or a frontier row
    tgt_kind = np.zeros((n, dim), dtype=np.int8)
    tgt_idx = np.zeros((n, dim), dtype=np.int64)
    for k in range(n):
        for l, eps in enumerate(quotient.basis):
            u = eps.mul_var(k)
            if u in quotient.index:
                tgt_idx[k, l] = quotient.index[u]
            else:
                tgt_kind[k, l] = 1
                tgt_idx[k, l] = row_of[u]

    nf_rows = np.zeros((total, dim), dtype=np.int64)
    filled = 0
    pos = 0
    type2 = 0
    while pos < len(proc):
        d = proc[pos].degree
        block = []
        while pos < len(proc) and proc[pos].degree == d:
            block.append(proc[pos])
            pos += 1
        s = len(block)
        t_blk = np.zeros((s, s), dtype=np.int64)
        b_blk = np.zeros((s, filled), dtype=np.int64)
        c_blk = np.zeros((s, dim), dtype=np.int64)
        for r, mem in enumerate(block):
            t_blk[r, r] = 1
            if mem.kind == "generator":
                mono = mem.monomial
                for m, c in mem.generator.terms.items():
                    if m != mono:
                        c_blk[r, quotient.index[m]] = c
                continue
            type2 += 1
            alpha = nf_rows[row_of[mem.witness]]
            nz = np.nonzero(alpha)[0]
            kinds = tgt_kind[mem.witness_var, nz]
            idxs = tgt_idx[mem.witness_var, nz]
            vals = (p - alpha[nz]) % p
            bmask = kinds == 0
            c_blk[r, idxs[bmask]] = vals[bmask]
            fr_idx = idxs[~bmask]
            fr_vals = vals[~bmask]
            cur = fr_idx >= filled
            t_blk[r, fr_idx[cur] - filled] = fr_vals[cur]
            b_blk[r, fr_idx[~cur]] = fr_vals[~cur]
        d_blk = (-nf_rows[:filled]) % p
        x = block_echelon(Matrix(fld, t_blk), Matrix(fld, b_blk),
                          Matrix(fld, c_blk), Matrix(fld, d_blk))
        nf_rows[filled:filled + s] = (-x.a) % p
        filled += s

    wanted = range(n) if variables is None else variables
    out = []
    for i in wanted:
        mat = np.zeros((dim, dim), dtype=np.int64)
        for j, eps in enumerate(quotient.basis):
            t = eps.mul_var(i)
            if t in quotient.index:
                mat[quotient.index[t], j] = 1
            else:
                mat[:, j] = nf_rows[row_of[t]]
        out.append(MulMatrix(i, Matrix(fld, mat)))
    stats = BuildStats("echelon", dim, total, type2,
                       [frontier.type2_for_var(i) for i in range(n)])
    return out, stats


def try_read_Tn(quotient: QuotientStructure, gb: GroebnerBasis,
                counter: OpCounter | None = None) -> MulMatrix:
    """Last variable's multiplication matrix, copies and sign flips only.

    Every column x_n * eps_j must be either a standard monomial (unit
    column) or a leading monomial (negated generator tail); any other
    monomial raises NotReadable carrying the offender.  ``counter``, if
    given, receives the field multiplications/additions performed — by
    construction it stays at zero, which is the point of this path.
    """
    n = quotient.n
    last = n - 1
    p = quotient.field.p
    dim = quotient.dimension
    lm_to_poly = dict(zip(gb.leading_monomials, gb.polys))
    mat = np.zeros((dim, dim), dtype=np.int64)
    for j, eps in enumerate(quotient.basis):
        t = eps.mul_var(last)
        if t in quotient.index:
            mat[quotient.index[t], j] = 1
        elif t in lm_to_poly:
            g = lm_to_poly[t]
            for m, c in g.terms.items():
                if m != t:
                    mat[quotient.index[m], j] = p - c  # sign flip, not a counted op
        else:
            raise NotReadable(t)
    return MulMatrix(last, Matrix(quotient.field, mat))
