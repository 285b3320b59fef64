"""Dense exact linear algebra over a prime field.

Matrices hold canonical residues in int64 numpy arrays, C-contiguous except
where a builder returns the transpose view of rows it wrote: T_n, whose
transpose the Krylov steps read without a copy, and the steps' Krylov
matrix K, stored as K^T.  Every product goes through one exact kernel,
``_mul_arrays``, for the whole range 2 < p < 2^31, under one exactness
rule, ``_digits``; it is the only code that cuts an operand into digits.
With inner dimension k, the operand with fewer entries is cut into nd
digits base 2^w, w the largest width with ``k (p-1) (2^w - 1) < 2^53``,
for one float64 BLAS GEMM against the other operand: every product and
partial sum is an integer below 2^53.  Horner's rule mod p in int64
recombines the digit products; while ``k (p-1)^2 < 2^53``, nd = 1 and the
kernel is one GEMM.  This is the error-free slicing of Ozaki, Ogita, Oishi
and Rump (Numer. Algorithms 2012), with the exactness bound of FFLAS-FFPACK
(Dumas, Giorgi and Pernet, ACM TOMS 2008); a product mod p is unique, so
every digit count gives the same residues.

Every general elimination is one routine too, ``_row_echelon``, the
halving rank-profile elimination of Jeannerod, Pernet and Storjohann (J.
Symb. Comp. 2013), whose row operations are ``_mul_arrays`` products.  It
backs ``Matrix.rank``, ``_eliminate_block`` (the transform of an
elimination, which ``Matrix.inverse`` reads) and in ``gb`` the F4 steps and
the rebuild.

The Krylov matrix [r | Tr | ... | T^(2w-1) r] of the change of ordering,
``krylov_columns``, has two routes that give the same residues; both write
the rows of K^T and return its transpose view.  The doubling (Keller-Gehrig
1985) keeps one power of T: the rows built so far, times the transposed
power, give as many more, and the power is squared.  The step route builds
one row per matrix-vector step: a unit row of T, whose only nonzero is a 1,
makes its entry a gather, and only the dense rows take a product,
``_mul_arrays`` with a one-row left operand (the sparse-FGLM observation of
Faugere and Mou, ISSAC 2011).  Steps run when T has at least 256 rows and at
least half of them are unit rows.  Measured on 2 cores, on the appendix
family's transposed T_n the doubling is 1.3-1.5x faster at D = 128, and the
steps 1.15-1.6x at D = 256 and 1.4-3.3x at D = 512.  On a dense T the steps
are slower from D = 512 at p = 2^31 - 1 and at D = 2048 for p = 65521 (13.2
against 5.2 s).

Reductions avoid numpy's ``%``, which runs an integer division per element.
``_reduce`` takes x - (x // p) p instead, as numpy divides by a scalar
through a multiply and a shift; on a 170 x 512 product that is 0.12-0.15
against 0.31-0.33 ms.  A difference of canonical residues lies in (-p, p),
so ``_sub_mod`` reduces it by adding p where the sign bit is set, about nine
times cheaper than ``(x - y) % p`` on 256 x 512; a sum of two lies in
[0, 2p), and ``_add_mod`` subtracts p once where it is reached, on int64 or
float64 alike.  All give exactly ``%``'s residues.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, SingularMatrix
from .field import PrimeField

_FLOAT_EXACT = 1 << 53
_INVERSE_LEAF = 32  # family-det: 16 and 64 rows run about as fast, 128 slower
# the smallest T that may take Krylov steps: on the family's T_n the doubling wins at D = 128
_STEP_MIN_DIM = 256


@dataclass
class KrylovStats:
    """Operation counts, which ``krylov_columns`` writes for both routes: the
    squarings and block products of the doubling, or the matrix-vector
    steps of the step route.  The route not taken leaves its counts at 0."""

    square_mults: int = 0
    rect_mults: int = 0
    steps: int = 0


@dataclass
class OpCounter:
    """Explicit field-operation instrumentation for paths whose claim is
    that they do no arithmetic at all (copies and sign flips only)."""

    muls: int = 0
    adds: int = 0

    def is_zero(self) -> bool:
        return self.muls == 0 and self.adds == 0


def _as_array(rows) -> np.ndarray:
    a = np.asarray(rows, dtype=np.int64)
    if a.ndim != 2:
        raise DimensionMismatch(f"expected a 2-d array, got shape {a.shape}")
    return a


def _reduce(x: np.ndarray, p: int) -> np.ndarray:
    """x mod p for an int64 array, into a new array."""
    r = x // p
    r *= p
    return np.subtract(x, r, out=r)


def _sub_mod(x, y, p: int) -> np.ndarray:
    """(x - y) mod p for canonical int64 residues (either may be a scalar)."""
    r = np.subtract(x, y, dtype=np.int64)
    r += p & (r >> 63)
    return r


def _add_mod(x, y, p: int) -> np.ndarray:
    """(x + y) mod p for canonical residues, int64 or float64: the sum is
    below 2p, so p is subtracted once where it is reached."""
    r = np.add(x, y)
    p = r.dtype.type(p)  # a Python int would slow the float comparison threefold
    r -= p * (r >= p)
    return r


def _digits(k: int, p: int) -> tuple[int, int]:
    """(w, nd): an exact product mod p with inner dimension k cuts one
    operand into the nd base-2^w digits of p - 1, w the largest width with
    k (p-1) (2^w - 1) < 2^53.  While k (p-1)^2 < 2^53 a residue is its own
    digit (nd = 1, w the bit length of p - 1); where k (p-1) >= 2^53 no
    digit is exact, and DimensionMismatch is raised."""
    m = p - 1
    if k * m * m < _FLOAT_EXACT:
        return m.bit_length(), 1
    if k * m >= _FLOAT_EXACT:
        raise DimensionMismatch(f"inner dimension {k} is too large for an exact product mod {p}")
    w = ((_FLOAT_EXACT - 1) // (k * m) + 1).bit_length() - 1
    return w, -(-m.bit_length() // w)


def _slices(x: np.ndarray, w: int, nd: int, axis: int) -> np.ndarray:
    """The nd base-2^w digits of canonical residues ``x`` (int64 or
    float64) as float64, most significant first, along a new ``axis``."""
    x = x[(slice(None),) * axis + (None,)]
    if nd > 1:
        shifts = np.arange(w * (nd - 1), -1, -w).reshape((nd,) + (1,) * (x.ndim - axis - 1))
        x = (x.astype(np.int64, copy=False) >> shifts) & ((1 << w) - 1)
    return x.astype(np.float64, copy=False)


def _horner(v: np.ndarray, w: int, p: int) -> np.ndarray:
    """(sum_i v[i] 2^(w (nd-1-i))) mod p as int64 for the nd digit products
    ``v``; w <= 30 where nd > 1, so acc 2^w + v[i] < 2^61 + 2^53."""
    acc = _reduce(v[0].astype(np.int64), p)
    for i in range(1, len(v)):
        acc <<= w
        acc += v[i].astype(np.int64)
        acc = _reduce(acc, p)
    return acc


def _mul_arrays(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Exact (a @ b) mod p as int64, for canonical int64 or float64 inputs.

    The operand with fewer entries (``a`` on a tie) is cut into digits,
    stacked as row blocks of ``a`` or column blocks of ``b``, for one GEMM
    against the other operand, read once as float64 and never cut.  A
    square (``b is a``) converts its operand to float64 once.
    """
    (r, k), c = a.shape, b.shape[1]
    w, nd = _digits(k, p)
    if a.size > b.size:
        prod = a.astype(np.float64, copy=False) @ _slices(b, w, nd, 1).reshape(k, nd * c)
        return _horner(prod.reshape(r, nd, c).transpose(1, 0, 2), w, p)
    da = _slices(a, w, nd, 0).reshape(nd * r, k)
    prod = da @ (da if b is a and nd == 1 else b.astype(np.float64, copy=False))
    del da  # the recombination needs only the digit products
    return _horner(prod.reshape(nd, r, c), w, p)


# rows of a leaf of the halving elimination: on the whole-degree blocks of
# one appendix-family rebuild at p = 65521, leaves of 16 to 48 rows measured
# alike (20-34 ms at n = 9, 76-93 ms at n = 10) and 8 rows slower (25-40 ms
# at n = 9); larger leaves spend longer in row-by-row steps
_ELIM_LEAF = 32


def _gauss_jordan(a: np.ndarray, f: int, p: int):
    """``_row_echelon``'s outputs by one row at a time, for a small ``a``,
    and the dependent rows as reduced: each pivot clears its column in
    every other row, so the pivot rows come out reduced with no
    back-substitution."""
    new: list[int] = []
    dep: list[int] = []
    pcols: list[int] = []
    for i in range(a.shape[0]):
        nz = np.flatnonzero(a[i, :f])
        if nz.size == 0:
            dep.append(i)
            continue
        q = int(nz[0])
        inv = pow(int(a[i, q]), -1, p)
        # row r loses (a[r, q] / a[i, q]) row i and row i becomes row i / a[i, q];
        # adding (p - factor) row i keeps every entry nonnegative
        factor = a[:, q] * inv % p
        factor[i] = (1 - inv) % p
        a = _reduce(a + (p - factor)[:, None] * a[i], p)
        new.append(i)
        pcols.append(q)
    return new, dep, pcols, a[new], a[dep]


def _leaf(a: np.ndarray, f: int, p: int):
    """``_row_echelon`` on at most ``_ELIM_LEAF`` rows.

    c rows have at most c pivots, and they usually lie among the first
    columns where the rows are nonzero.  So Gauss-Jordan runs on a window
    of 2c such columns, with the row operations riding along, and one
    product applies those operations to the whole rows.  A row that the
    window calls dependent but that the product leaves nonzero has its
    pivot further right; the window then doubles.
    """
    c = a.shape[0]
    cols = np.flatnonzero(a[:, :f].any(axis=0))
    k = 2 * c
    while True:
        win = cols[:k]
        new, dep, pc, ech, lost = _gauss_jordan(
            np.hstack([a[:, win], np.eye(c, dtype=np.int64)]), len(win), p)
        out = _mul_arrays(np.vstack([ech, lost])[:, len(win):], a, p)
        s = len(new)
        if len(win) == len(cols) or not out[s:, :f].any():
            return new, dep, win[pc].tolist(), out[:s]
        k *= 2


def _row_echelon(a: np.ndarray, f: int, p: int):
    """Row-order elimination of ``a`` with pivots in its first ``f`` columns.

    Returns ``(new, dep, pcols, ech)``: the indices of the independent and
    of the dependent rows, and ``ech``, the reduced echelon form of
    ``a[new]``, the identity at ``pcols``.

    By halving (the recursion of Jeannerod, Pernet and Storjohann's
    rank-profile elimination): eliminate the top half; reduce the bottom
    half by the top's echelon rows in one product, which leaves each bottom
    row what the row-by-row reduction would leave, so the pivots agree;
    eliminate the bottom half; and clear the bottom's pivot columns from
    the top's echelon rows by one more product.
    """
    c = a.shape[0]
    if c <= _ELIM_LEAF:
        return _leaf(a, f, p)
    h = c // 2
    new_t, dep_t, pc_t, ech_t = _row_echelon(a[:h], f, p)
    bottom = _sub_mod(a[h:], _mul_arrays(a[h:, pc_t], ech_t, p), p)
    new_b, dep_b, pc_b, ech_b = _row_echelon(bottom, f, p)
    if new_b:
        ech_t = _sub_mod(ech_t, _mul_arrays(ech_t[:, pc_b], ech_b, p), p)
    return (new_t + [h + r for r in new_b], dep_t + [h + r for r in dep_b], pc_t + pc_b,
            np.vstack([ech_t, ech_b]))


def _eliminate_block(w: np.ndarray, p: int):
    """Row-order elimination of a block of vectors.

    Each row of ``w`` is reduced by the pivot rows above it and, if
    anything is left, becomes a pivot row on its first nonzero entry.
    Returns ``(new, dep, echelon, pcols, gmat)``: the indices of the
    independent and of the dependent rows, and ``echelon = gmat @ w[new]``,
    whose rows are the identity at ``pcols``.  Row operations ride along
    on an identity block, and ``_row_echelon`` does the work.  Every
    output is unique given the pivots, and the pivots are the row-by-row
    ones, so the result is the row-by-row result.
    """
    c, f = w.shape
    new, dep, pcols, ech = _row_echelon(np.hstack([w, np.eye(c, dtype=np.int64)]), f, p)
    return new, dep, ech[:, :f], pcols, ech[:, f + np.array(new, dtype=np.intp)]


class Matrix:
    """An exact matrix over F_p."""

    __slots__ = ("field", "a")

    def __init__(self, field: PrimeField, array: np.ndarray):
        self.field = field
        self.a = array

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rows(cls, field: PrimeField, rows) -> "Matrix":
        return cls(field, _as_array(rows) % field.p)

    @classmethod
    def zeros(cls, field: PrimeField, r: int, c: int) -> "Matrix":
        return cls(field, np.zeros((r, c), dtype=np.int64))

    @classmethod
    def identity(cls, field: PrimeField, n: int) -> "Matrix":
        return cls(field, np.eye(n, dtype=np.int64))

    # -- shape / access ----------------------------------------------------

    @property
    def nrows(self) -> int:
        return self.a.shape[0]

    @property
    def ncols(self) -> int:
        return self.a.shape[1]

    @property
    def shape(self):
        return self.a.shape

    def __getitem__(self, idx) -> int:
        return int(self.a[idx])

    def tolist(self):
        return self.a.tolist()

    # -- arithmetic --------------------------------------------------------

    def _check_same_field(self, other: "Matrix"):
        if self.field.p != other.field.p:
            raise DimensionMismatch("matrices over different fields")

    def transpose(self) -> "Matrix":
        return Matrix(self.field, np.ascontiguousarray(self.a.T))

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and other.field.p == self.field.p
            and self.shape == other.shape
            and bool(np.array_equal(self.a, other.a))
        )

    def __repr__(self):
        return f"Matrix(p={self.field.p}, {self.a.tolist()})"

    # -- elimination -------------------------------------------------------

    def rank(self) -> int:
        p = self.field.p
        return len(_row_echelon(self.a % p, self.ncols, p)[0])

    def inverse(self) -> "Matrix":
        if self.nrows != self.ncols:
            raise DimensionMismatch("inverse of a non-square matrix")
        _new, dep, _ech, pcols, gmat = _eliminate_block(self.a % self.field.p, self.field.p)
        if dep:
            raise SingularMatrix("matrix is singular")
        return Matrix(self.field, gmat[np.argsort(pcols)])

    def density(self) -> float:
        """Fraction of nonzero entries."""
        total = self.a.size
        return float(np.count_nonzero(self.a)) / total if total else 0.0


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    a._check_same_field(b)
    if a.ncols != b.nrows:
        raise DimensionMismatch(f"cannot multiply {a.shape} by {b.shape}")
    return Matrix(a.field, _mul_arrays(a.a, b.a, a.field.p))


def _unit_ut_inverse(nil: np.ndarray, p: int) -> np.ndarray:
    """(I - N)^(-1) for strictly upper-triangular N, ``nil`` (canonical
    residues), from matrix products only.

    Above ``_INVERSE_LEAF`` rows the inverse is blocked: I - N is
    [[A, -N12], [0, C]], whose inverse is [[A^(-1), A^(-1) N12 C^(-1)],
    [0, C^(-1)]].  At the leaf N^s = 0, so (I - N)^(-1) = sum_{j<s} N^j =
    prod_{i<ceil(log2 s)} (I + N^(2^i)); the product stops at the first
    N^(2^i) that is zero.
    """
    s = nil.shape[0]
    if s <= _INVERSE_LEAF:
        m = nil
        inv = m + np.eye(s, dtype=np.int64)
        for _ in range(1, (s - 1).bit_length()):
            m = _mul_arrays(m, m, p)
            if not m.any():
                break
            inv = _add_mod(inv, _mul_arrays(inv, m, p), p)
        return inv
    h = s // 2
    a_inv = _unit_ut_inverse(nil[:h, :h], p)
    c_inv = _unit_ut_inverse(nil[h:, h:], p)
    inv = np.zeros((s, s), dtype=np.int64)
    inv[:h, :h] = a_inv
    inv[h:, h:] = c_inv
    inv[:h, h:] = _mul_arrays(a_inv, _mul_arrays(nil[:h, h:], c_inv, p), p)
    return inv


def _unit_ut_solve_in_place(x: np.ndarray, rows: np.ndarray, cols: np.ndarray,
                            vals: np.ndarray, p: int) -> None:
    """Solve (I - N) X = R in place: ``x`` holds R and receives X.

    N is strictly upper triangular and given by its nonzero entries,
    N[rows, cols] = vals, as canonical residues; ``x`` may be int64 or
    float64.  Only the unknowns that other rows use, ``cols``, need an
    inverse: they solve the closed system (I - N[u, u]) X[u] = R[u] as one
    product with its product-built inverse, the block formed on those
    columns alone.  Every other row with an entry then adds N[row, u] X[u],
    one more product; a row without entries keeps its R.
    """
    used = np.zeros(x.shape[0], dtype=bool)
    used[cols] = True
    u = np.flatnonzero(used)
    if not u.size:
        return
    at = np.cumsum(used) - 1  # position among the used unknowns
    inner = used[rows]
    block = np.zeros((u.size, u.size), dtype=np.int64)
    block[at[rows[inner]], at[cols[inner]]] = vals[inner]
    x[u] = xu = _mul_arrays(_unit_ut_inverse(block, p), x[u], p)
    outer = ~inner
    if outer.any():
        dep = np.zeros(x.shape[0], dtype=bool)
        dep[rows[outer]] = True
        nd = np.zeros((np.count_nonzero(dep), u.size), dtype=np.int64)
        nd[(np.cumsum(dep) - 1)[rows[outer]], at[cols[outer]]] = vals[outer]
        d = np.flatnonzero(dep)
        x[d] = _add_mod(x[d], _mul_arrays(nd, xu, p), p)


def _unit_rows(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(unit, src): whether each row of ``a`` is a unit row, whose only
    nonzero is a 1, and for a unit row the column of that 1."""
    src = np.argmax(a != 0, axis=1)
    unit = (np.count_nonzero(a, axis=1) == 1) & (a[np.arange(a.shape[0]), src] == 1)
    return unit, src


def _krylov_steps(a: np.ndarray, r: np.ndarray, total: int, p: int,
                  unit: np.ndarray, src: np.ndarray) -> np.ndarray:
    """[r | Ar | ... | A^(total-1) r] by one matrix-vector step per column.

    ``unit`` and ``src`` are ``_unit_rows(a)``; ``r`` is canonical.  Row i
    of A x is x[src[i]] on a unit row, so those rows are one gather, and
    only the dense rows take a product: the kernel's one-row product of x
    by the transposed dense block, converted to float64 once.  The columns
    are written as the rows of the transpose, which is returned as a view.
    """
    dense = np.flatnonzero(~unit)
    units = np.flatnonzero(unit)
    src = src[units]
    block = a[dense].astype(np.float64).T
    kt = np.empty((total, a.shape[0]), dtype=np.int64)
    kt[0] = r
    for j in range(1, total):
        x, y = kt[j - 1], kt[j]
        y[units] = x[src]
        y[dense] = _mul_arrays(x[None], block, p)[0]
    return kt.T


def _krylov_doubling(t: Matrix, r: np.ndarray, total: int) -> np.ndarray:
    """[r | Tr | ... | T^(total-1) r] by doubling (Keller-Gehrig 1985).

    One power of T is kept: the rows of K^T built so far, times the
    transposed power, give as many rows more, and the power is squared,
    the last time unused.  K is the transpose view of K^T.
    """
    kt = np.empty((total, t.nrows), dtype=np.int64)
    kt[0] = r
    power, have = t, 1
    while have < total:
        need = min(have, total - have)
        kt[have:have + need] = _mul_arrays(kt[:need], power.a.T, t.field.p)
        have += need
        power = mat_mul(power, power)
    return kt.T


def krylov_columns(t: Matrix, r, width: int, *,
                   stats: KrylovStats | None = None) -> Matrix:
    """Columns [r | Tr | T^2 r | ... | T^(2*width-1) r].

    Two routes give the same residues.  The step route (``_krylov_steps``)
    runs when T has at least ``_STEP_MIN_DIM`` rows and at least half of
    them are unit rows, as in the transposed multiplication matrices of the
    change of ordering; every other T goes to the doubling
    (``_krylov_doubling``); both return the transpose view of the K^T they
    wrote.  ``stats`` counts the steps of the one route or the squarings
    and block products of the other, which the routes do not count.
    """
    if t.nrows != t.ncols:
        raise DimensionMismatch("Krylov iteration needs a square matrix")
    dim = t.nrows
    total = 2 * width
    if total < 1:
        raise DimensionMismatch("need a positive number of columns")
    p = t.field.p
    r = np.asarray(r, dtype=np.int64) % p
    if r.shape != (dim,):
        raise DimensionMismatch(f"start vector of shape {r.shape} for a {dim} x {dim} matrix")
    if dim >= _STEP_MIN_DIM:
        unit, src = _unit_rows(t.a)
        if 2 * np.count_nonzero(unit) >= dim:
            if stats is not None:
                stats.steps += total - 1
            return Matrix(t.field, _krylov_steps(t.a, r, total, p, unit, src))
    if stats is not None:
        stats.square_mults += (total - 1).bit_length()
        stats.rect_mults += (total - 1).bit_length()
    return Matrix(t.field, _krylov_doubling(t, r, total))
