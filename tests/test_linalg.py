import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import unit_ut_solve
from polysolve.errors import DimensionMismatch, SingularMatrix
from polysolve.field import PrimeField
from polysolve.linalg import (KrylovStats, Matrix, _digits, _krylov_steps, _mul_arrays,
                              _reduce, _row_echelon, _sub_mod, _unit_rows, krylov_columns,
                              mat_mul)


def _random_matrix(field, r, c, rng):
    return Matrix.from_rows(field, [[rng.randrange(field.p) for _ in range(c)]
                                    for _ in range(r)])


def _naive_mul(a: Matrix, b: Matrix) -> Matrix:
    p = a.field.p
    out = [[sum(a[i, k] * b[k, j] for k in range(a.ncols)) % p
            for j in range(b.ncols)] for i in range(a.nrows)]
    return Matrix.from_rows(a.field, out)


def _rref(m: Matrix) -> list[list[int]]:
    """The reduced row echelon form by ``_row_echelon``, zero rows last."""
    p = m.field.p
    new, _dep, pcols, ech = _row_echelon(m.a % p, m.ncols, p)
    out = np.zeros(m.shape, dtype=np.int64)
    out[:len(new)] = ech[np.argsort(pcols)]
    return out.tolist()


def test_matrix_construction_and_access(f7):
    m = Matrix.from_rows(f7, [[1, 9], [-1, 3]])
    assert m.tolist() == [[1, 2], [6, 3]]  # entries normalized mod 7
    assert m[1, 0] == 6
    assert m.shape == (2, 2)
    assert Matrix.identity(f7, 3).tolist() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert Matrix.zeros(f7, 2, 3).tolist() == [[0, 0, 0], [0, 0, 0]]
    a = Matrix.from_rows(f7, [[1, 2], [3, 4]])
    assert a.transpose().tolist() == [[1, 3], [2, 4]]
    assert mat_mul(a, Matrix.from_rows(f7, [[5, 6], [0, 1]])).tolist() == [[5, 1], [1, 1]]


def test_mat_mul_matches_naive_random():
    rng = random.Random(3)
    for p in (7, 101, 65521, 2 ** 26 - 5, 2 ** 31 - 1):
        field = PrimeField(p)
        for _ in range(5):
            r, k, c = rng.randrange(1, 9), rng.randrange(1, 9), rng.randrange(1, 9)
            a = _random_matrix(field, r, k, rng)
            b = _random_matrix(field, k, c, rng)
            assert mat_mul(a, b) == _naive_mul(a, b)
    # every entry p - 1 at inner dimensions on both sides of the float64
    # bound k (p-1)^2 < 2^53; past it the kernel cuts one operand into digits
    def float_k(p):
        return ((1 << 53) - 1) // (p - 1) ** 2

    worst = [(65521, float_k(65521)), (2 ** 26 - 5, float_k(2 ** 26 - 5)),
             (2 ** 26 - 5, float_k(2 ** 26 - 5) + 1)]
    worst += [(2 ** 31 - 1, k) for k in (1, 2, 3, 64)]
    for p, k in worst:
        field = PrimeField(p)
        a = Matrix(field, np.full((1, k), p - 1, dtype=np.int64))
        assert mat_mul(a, a.transpose()) == _naive_mul(a, a.transpose())
    # for p <= 2^16 + 1 one step past the float64 bound is already k >= 2^21,
    # where the 16-bit halves were no longer exact; two digits are
    row = Matrix(PrimeField(65521), np.full((1, float_k(65521) + 1), 65520, dtype=np.int64))
    assert mat_mul(row, row.transpose()) == _naive_mul(row, row.transpose())


def test_mat_mul_shape_check(f7):
    a = Matrix.zeros(f7, 2, 3)
    with pytest.raises(DimensionMismatch):
        mat_mul(a, a)


def test_rref_and_rank(f7):
    m = Matrix.from_rows(f7, [[2, 4, 6], [1, 2, 3], [0, 1, 1]])
    r = _rref(m)
    assert r == [[1, 0, 1], [0, 1, 1], [0, 0, 0]]
    assert m.rank() == 2
    assert _rref(Matrix.from_rows(f7, r)) == r  # idempotent
    assert Matrix.identity(f7, 4).rank() == 4
    assert Matrix.zeros(f7, 3, 3).rank() == 0


def test_inverse(f101):
    rng = random.Random(11)
    m = f101.random_nonsingular_matrix(5, rng)
    assert mat_mul(m, m.inverse()) == Matrix.identity(f101, 5)
    assert mat_mul(m.inverse(), m) == Matrix.identity(f101, 5)
    singular = Matrix.from_rows(f101, [[1, 2], [2, 4]])
    with pytest.raises(SingularMatrix):
        singular.inverse()


def _gauss_jordan_ints(rows, p: int):
    """Reduced row echelon form and pivot columns by Gauss-Jordan on Python
    integers: the reference for the halving elimination."""
    a = [[v % p for v in r] for r in rows]
    pivots = []
    for c in range(len(a[0]) if a else 0):
        r = len(pivots)
        piv = next((i for i in range(r, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = pow(a[r][c], -1, p)
        a[r] = [v * inv % p for v in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [(v - f * w) % p for v, w in zip(a[i], a[r])]
        pivots.append(c)
    return a, pivots


def _oracle_matrices(r: int, p: int, rng):
    """Square, wide, tall and rank-deficient matrices with r rows."""
    def deficient(cols):
        k = max(min(r, cols) - 1, 0)
        left, right = rng.integers(0, p, (r, k)), rng.integers(0, p, (k, cols))
        return (left.astype(object).dot(right) % p).astype(np.int64)

    return [rng.integers(0, p, (r, r)), rng.integers(0, p, (r, 2 * r + 3)),
            rng.integers(0, p, (r, r // 2 + 1)), deficient(r), deficient(r + 5)]


@pytest.mark.parametrize("p", [101, 65521, 2 ** 31 - 1])
@pytest.mark.parametrize("r", [1, 2, 5, 17, 31, 32, 33, 40])
def test_rref_rank_inverse_match_gauss_jordan(p, r):
    # 32 is the halving elimination's leaf size, so 33 and 40 rows recurse
    field = PrimeField(p)
    rng = np.random.default_rng(r * p)
    for a in _oracle_matrices(r, p, rng):
        m = Matrix(field, a)
        want, pivots = _gauss_jordan_ints(a.tolist(), p)
        assert _rref(m) == want
        assert m.rank() == len(pivots)
        if a.shape[0] != a.shape[1]:
            continue
        if len(pivots) < r:
            with pytest.raises(SingularMatrix):
                m.inverse()
            continue
        aug, _ = _gauss_jordan_ints(np.hstack([a, np.eye(r, dtype=np.int64)]).tolist(), p)
        assert m.inverse().tolist() == [row[r:] for row in aug]


def test_density(f7):
    m = Matrix.from_rows(f7, [[0, 1], [0, 0]])
    assert m.density() == 0.25
    assert Matrix.zeros(f7, 2, 2).density() == 0.0


def _back_substitute(t: np.ndarray, rhs: np.ndarray, p: int) -> np.ndarray:
    """T X = R for unit upper-triangular T, one row at a time in Python
    integers: the reference for the product-only solve."""
    t = t.astype(object)
    x = rhs.astype(object) % p
    for i in range(t.shape[0] - 2, -1, -1):
        x[i] = (x[i] - t[i, i + 1:].dot(x[i + 1:])) % p
    return x.astype(np.int64)


@pytest.mark.parametrize("p", [101, 65521, 2 ** 31 - 1])
@pytest.mark.parametrize("s", [0, 1, 2, 31, 32, 33, 64, 65, 130, 600])
def test_unit_triangular_solve_matches_back_substitution(p, s):
    # s = 0 is the solve of a chunk whose rows are all dependent; 32 and
    # 33 sit on either side of the inverse's leaf, larger sizes recurse.
    # In the corner T only the top-right quarter is nonzero, so M^2 = 0
    # and the leaf's product stops early.  The solve inverts only the
    # unknowns that other rows use: none when T = I, a block of columns in
    # the corner T, and columns scattered through the triangle in the last.
    rng = np.random.default_rng(s)
    dense = np.triu(rng.integers(0, p, (s, s)), 1)
    corner = np.zeros((s, s), dtype=np.int64)
    corner[:s // 2, s // 2:] = rng.integers(0, p, (s // 2, s - s // 2))
    identity = np.zeros((s, s), dtype=np.int64)
    scattered = np.triu(rng.integers(0, p, (s, s)), 1) * (rng.random(s) < 0.3)
    for t, w in itertools.product((dense, corner, identity, scattered), (0, 1, 7)):
        t = t + np.eye(s, dtype=np.int64)
        r = rng.integers(0, p, (s, w))
        got = unit_ut_solve(t, r, p)
        assert got.dtype == np.int64 and np.array_equal(got, _back_substitute(t, r, p))


def _naive_krylov(t: Matrix, r, width: int) -> Matrix:
    # Python integers: an int64 product overflows for p near 2^31
    p = t.field.p
    a = t.a.astype(object)
    cols = [np.asarray(r, dtype=object) % p]
    for _ in range(2 * width - 1):
        cols.append(a.dot(cols[-1]) % p)
    return Matrix(t.field, np.stack(cols, axis=1).astype(np.int64))


@pytest.mark.parametrize("p", [3, 65521, 2 ** 31 - 1])
def test_sub_mod_and_reduce_match_python_ints(p):
    res = [0, 1, p - 1]
    x, y = (np.array(v, dtype=np.int64) for v in zip(*itertools.product(res, res)))
    assert _sub_mod(x, y, p).tolist() == [(a - b) % p for a, b in zip(x.tolist(), y.tolist())]
    assert _sub_mod(0, x, p).tolist() == [-a % p for a in x.tolist()]
    # the largest values a product reduction meets, and negative ones
    big = [0, 1, p - 1, p, p * p - 1, (p - 1) ** 2 + p - 1, 2 ** 62, -1, -p, -(2 ** 62)]
    assert _reduce(np.array(big, dtype=np.int64), p).tolist() == [v % p for v in big]


def test_krylov_matches_naive_and_counts_products():
    rng = random.Random(4)
    for p in (65521, 2 ** 31 - 1):
        field = PrimeField(p)
        for dim in (2, 3, 5, 8, 16, 64):
            t = _random_matrix(field, dim, dim, rng)
            r = field.random_vector(dim, rng)
            stats = KrylovStats()
            fast = krylov_columns(t, r, dim, stats=stats)
            assert fast == _naive_krylov(t, r, dim)
            k = max(1, math.ceil(math.log2(2 * dim)))
            assert stats.square_mults == k
            assert stats.rect_mults == k


def _krylov_step_input(kind: str, dim: int, p: int, rng) -> np.ndarray:
    """A T whose rows are all dense, half unit rows (sources repeat, and a
    lone p - 1 stays a dense row), a permutation, or unit rows over zero
    dense rows.  Dense entries are at least 2, so no dense row is a unit row."""
    a = rng.integers(2, p, (dim, dim))
    if kind == "dense":
        return a
    if kind == "permutation":
        return np.eye(dim, dtype=np.int64)[rng.permutation(dim)]
    unit = rng.permutation(dim)[:(dim + 1) // 2]
    if kind == "zero-dense":
        a[:] = 0
    a[unit] = 0
    a[unit, rng.integers(0, dim, unit.size)] = 1
    if kind == "some-unit" and dim > unit.size:
        lone = np.setdiff1d(np.arange(dim), unit)[0]
        a[lone] = 0
        a[lone, 0] = p - 1
    return a


@pytest.mark.parametrize("p", [101, 65521, 2 ** 31 - 1])
@pytest.mark.parametrize("kind", ["dense", "some-unit", "permutation", "zero-dense"])
def test_krylov_steps_match_naive_iteration(p, kind):
    # the step route is called directly, below the size krylov_columns
    # routes to it; at 2^31 - 1 every step cuts x into digits
    rng = np.random.default_rng(p)
    field = PrimeField(p)
    for dim in range(1, 65):
        a = _krylov_step_input(kind, dim, p, rng)
        unit, src = _unit_rows(a)
        assert np.count_nonzero(unit) == {"dense": 0, "permutation": dim}.get(kind, (dim + 1) // 2)
        r = rng.integers(0, p, dim)
        got = _krylov_steps(a, r, 2 * dim, p, unit, src)
        assert got.T.flags.c_contiguous   # the rows of K^T, as the steps wrote them
        assert np.array_equal(got, _naive_krylov(Matrix(field, a), r, dim).a)


def _int64_krylov(a: np.ndarray, r: np.ndarray, total: int, p: int) -> np.ndarray:
    """[r | Ar | ... | A^(total-1) r] by integer products in int64 on the
    16-bit halves of A, exact for p < 2^31 and D < 2^16."""
    hi, lo = a >> 16, a & 0xFFFF
    cols = [r % p]
    for _ in range(total - 1):
        x = cols[-1]
        cols.append(((hi @ x) % p * (1 << 16) + (lo @ x) % p) % p)
    return np.stack(cols, axis=1)


@pytest.mark.parametrize("kind, dim", [("some-unit", 256), ("some-unit", 300), ("dense", 256),
                                       ("worst", 256)])
def test_krylov_steps_at_large_p_match_naive_iteration(kind, dim):
    # at D >= 256 krylov_columns takes the step route, and at p = 2^31 - 1
    # each step cuts x into three digits (four from D = 2050); "worst" has
    # dense entries p - 2 and starts from p - 1, whose middle digit is
    # 2^w - 1, so the first step's odd sums reach 2^53 if w is one too wide
    p = 2 ** 31 - 1
    assert _digits(dim, p)[1] == 3
    rng = np.random.default_rng(dim)
    a = _krylov_step_input("some-unit" if kind == "worst" else kind, dim, p, rng)
    r = rng.integers(0, p, dim)
    if kind == "worst":
        a[~_unit_rows(a)[0]] = p - 2
        r[:] = p - 1
    want = _int64_krylov(a, r, 2 * dim, p)
    if kind == "dense":
        unit, src = _unit_rows(a)
        assert np.array_equal(_krylov_steps(a, r, 2 * dim, p, unit, src), want)
        return
    stats = KrylovStats()
    got = krylov_columns(Matrix(PrimeField(p), a), r, dim, stats=stats)
    assert stats.steps == 2 * dim - 1
    assert np.array_equal(got.a, want)


def _check_krylov_rows_transposed(kind: str, dim: int, p: int):
    # both routes write K^T row by row, and K is its transpose view, not a copy
    rng = np.random.default_rng(dim + p)
    a = _krylov_step_input(kind, dim, p, rng)
    r = rng.integers(0, p, dim)
    stats = KrylovStats()
    k = krylov_columns(Matrix(PrimeField(p), a), r, dim, stats=stats).a
    products = (2 * dim - 1).bit_length()
    want = (2 * dim - 1, 0, 0) if dim >= 256 else (0, products, products)
    assert (stats.steps, stats.square_mults, stats.rect_mults) == want
    rows = k.base
    assert rows.shape == (2 * dim, dim) and rows.flags.c_contiguous
    assert np.shares_memory(k, rows) and np.array_equal(k.T, rows)
    assert np.array_equal(k, _int64_krylov(a, r, 2 * dim, p))


@pytest.mark.parametrize("p", [101, 65521, 2 ** 31 - 1])
@pytest.mark.parametrize("dim", [256, 300])
def test_step_route_returns_its_rows_transposed(p, dim):
    _check_krylov_rows_transposed("some-unit", dim, p)


@pytest.mark.parametrize("p", [101, 65521, 2 ** 31 - 1])
@pytest.mark.parametrize("kind, dim", [("dense", 1), ("dense", 8), ("dense", 200),
                                       ("some-unit", 128)])
def test_doubling_route_returns_its_rows_transposed(p, kind, dim):
    _check_krylov_rows_transposed(kind, dim, p)


def test_krylov_rejects_non_square(f7):
    with pytest.raises(DimensionMismatch):
        krylov_columns(Matrix.zeros(f7, 2, 3), [1, 1], 2)
    # a start vector of the wrong length, on the doubling and the step route
    with pytest.raises(DimensionMismatch):
        krylov_columns(Matrix.identity(f7, 3), [1, 1], 2)
    with pytest.raises(DimensionMismatch):
        krylov_columns(Matrix.identity(f7, 300), [1] * 299, 2)


def test_mul_arrays_rejects_an_inner_dimension_past_the_split():
    # k (p-1) >= 2^53 first at k = 2^22 + 1 for p = 2^31 - 1, where not even
    # one-bit digits are exact; refused before any digit is allocated
    p, k = 2 ** 31 - 1, (1 << 22) + 1
    a, b = np.ones((1, k), dtype=np.int64), np.ones((k, 1), dtype=np.int64)
    tracemalloc.start()
    try:
        with pytest.raises(DimensionMismatch):
            _mul_arrays(a, b, p)
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()


# (p, k, (w, nd)): the largest k of each digit count and the first k past it
DIGIT_TABLE = [
    (65521, 2098176, (16, 1)), (65521, 2098177, (15, 2)),
    (2 ** 26 - 5, 2, (26, 1)), (2 ** 26 - 5, 3, (25, 2)),
    (2 ** 26 - 5, 16386, (13, 2)), (2 ** 26 - 5, 16387, (12, 3)),
    (2 ** 31 - 1, 0, (31, 1)), (2 ** 31 - 1, 1, (22, 2)),
    (2 ** 31 - 1, 64, (16, 2)), (2 ** 31 - 1, 65, (15, 3)),
    (2 ** 31 - 1, 2049, (11, 3)), (2 ** 31 - 1, 2050, (10, 4)),
    (2 ** 31 - 1, 16448, (8, 4)), (2 ** 31 - 1, 16449, (7, 5)),
    (2 ** 31 - 1, 1 << 22, (1, 31)),
]


def test_digits_at_the_boundaries():
    for p, k, expect in DIGIT_TABLE:
        w, nd = _digits(k, p)
        assert (w, nd) == expect, (p, k)
        m = p - 1
        if nd == 1:
            assert k * m * m < 2 ** 53
        else:
            # w is the widest exact digit, and nd digits of w bits cover p - 1
            assert k * m * (2 ** w - 1) < 2 ** 53 <= k * m * (2 ** (w + 1) - 1)
            assert w * (nd - 1) < m.bit_length() <= w * nd
    for p in (65521, 2 ** 31 - 1):
        with pytest.raises(DimensionMismatch):
            _digits(-(-2 ** 53 // (p - 1)), p)


def _exact(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    return ((a.astype(np.int64).astype(object) @ b.astype(np.int64).astype(object)) % p
            ).astype(np.int64)


@pytest.mark.parametrize("p, k", [(p, k) for p, k, _ in DIGIT_TABLE if 0 < k < 1 << 15])
def test_mul_arrays_exact_at_each_digit_count(p, k):
    # every entry p - 1, and random entries, with the cut operand on either
    # side (a has fewer entries, then b), from int64 and from float64
    rng = np.random.default_rng(k)
    for r, c in ((2, 3), (3, 2)):
        for a, b in ((np.full((r, k), p - 1), np.full((k, c), p - 1)),
                     (rng.integers(0, p, (r, k)), rng.integers(0, p, (k, c)))):
            want = _exact(a, b, p)
            for dtype in (np.int64, np.float64):
                got = _mul_arrays(a.astype(dtype), b.astype(dtype), p)
                assert got.dtype == np.int64 and np.array_equal(got, want)


def _logged_product(a: np.ndarray, b: np.ndarray, p: int):
    """``_mul_arrays(a, b, p)`` and, for each operand, the dtypes its memory
    was converted to."""
    logs = ([], [])

    class Operand(np.ndarray):
        def astype(self, dtype, *args, **kwargs):
            for src, log in zip((a, b), logs):
                if np.may_share_memory(self, src):
                    log.append(np.dtype(dtype))
            return super().astype(dtype, *args, **kwargs)

    oa = a.view(Operand)
    return _mul_arrays(oa, oa if b is a else b.view(Operand), p), logs


@pytest.mark.parametrize("p, k", [(65521, 40), (2 ** 31 - 1, 40), (2 ** 31 - 1, 70)])
@pytest.mark.parametrize("dtype", [np.int64, np.float64])
def test_mul_arrays_converts_each_operand_once(p, k, dtype):
    # the operand with fewer entries is cut into digits from int64 (or is
    # its own digit), the other is read once as float64; a square converts
    # its operand to float64 once
    f64, i64 = np.dtype(np.float64), np.dtype(np.int64)
    cut = [i64] if _digits(k, p)[1] > 1 else [f64]
    rng = np.random.default_rng(k)
    a, b = rng.integers(0, p, (k, k)).astype(dtype), rng.integers(0, p, (k, 3)).astype(dtype)
    for x, y, logs in ((b.T, a, (cut, [f64])), (a, b, ([f64], cut)),
                       (a, a, ([i64, f64] if cut == [i64] else [f64],) * 2)):
        got, seen = _logged_product(x, y, p)
        assert np.array_equal(got, _exact(x, y, p))
        assert seen == logs


@pytest.mark.parametrize("p", [65521, 2 ** 31 - 1])
@pytest.mark.parametrize("r, k, c", [(0, 5, 3), (3, 0, 4), (3, 5, 0), (0, 70, 3), (3, 70, 0),
                                     (0, 0, 0)])
def test_mul_arrays_empty_operands(p, r, k, c):
    for a, b in ((np.ones((r, k), dtype=np.int64), np.ones((k, c), dtype=np.int64)),
                 (np.ones((r, k)), np.ones((k, c)))):
        got = _mul_arrays(a, b, p)
        assert got.shape == (r, c) and got.dtype == np.int64 and not got.any()


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2 ** 30))
def test_krylov_columns_are_iterated_images(dim, seed):
    rng = random.Random(seed)
    field = PrimeField(101)
    t = _random_matrix(field, dim, dim, rng)
    r = field.random_vector(dim, rng)
    k = krylov_columns(t, r, dim)
    assert k.ncols == 2 * dim
    # column j is T times column j - 1
    assert np.array_equal(mat_mul(t, k).a[:, :-1], k.a[:, 1:])
