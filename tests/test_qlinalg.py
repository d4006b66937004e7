import random
from itertools import combinations

import pytest

from charquo import laurent, qrep as qr
from charquo.laurent import ONE, ZERO, LaurentPoly2, qnum, qs_monomial
from charquo.qlinalg import ff_jordan, mat_mul, mat_transpose, nullspace


def C(n):
    return LaurentPoly2.const(n)


def int_matrix(rows):
    return [[C(v) for v in row] for row in rows]


def _det(M):
    """Laplace expansion along the first row."""
    if len(M) == 1:
        return M[0][0]
    acc = ZERO
    for j, a in enumerate(M[0]):
        if a.terms:
            term = a * _det([row[:j] + row[j + 1:] for row in M[1:]])
            acc = acc + (term if j % 2 == 0 else -term)
    return acc


def _minor_rank(A):
    """Largest k with a nonzero k x k minor: the rank over the fraction
    field, computed without elimination."""
    m, n = len(A), len(A[0]) if A else 0
    for k in range(min(m, n), 0, -1):
        for rs in combinations(range(m), k):
            for cs in combinations(range(n), k):
                if _det([[A[r][c] for c in cs] for r in rs]).terms:
                    return k
    return 0


def test_minor_rank_integer_cases():
    assert _minor_rank(int_matrix([[1, 2], [2, 4]])) == 1
    assert _minor_rank(int_matrix([[1, 0], [0, 1]])) == 2
    assert _minor_rank(int_matrix([[0, 0], [0, 0]])) == 0
    assert _minor_rank([]) == 0


def test_nullspace_verifies():
    rng = random.Random(4)
    for _ in range(40):
        m, n = rng.randrange(2, 5), rng.randrange(2, 6)
        A = [[rng.choice([ZERO, ONE, qs_monomial(1, 0), qs_monomial(0, -1), qnum(2)])
              for _ in range(n)] for _ in range(m)]
        kern = nullspace(A, ncols=n)
        assert len(kern) == n - _minor_rank(A)
        for vec in kern:
            img = mat_mul(A, [[v] for v in vec])
            assert all(e.is_zero() for row in img for e in row)
            assert any(v.terms for v in vec)


def test_nullspace_deterministic():
    A = [[qs_monomial(1, 0), qs_monomial(1, 0), ZERO], [ZERO, ZERO, ZERO]]
    k1 = nullspace(A, ncols=3)
    k2 = nullspace(A, ncols=3)
    assert len(k1) == 2
    assert all(a == b for va, vb in zip(k1, k2) for a, b in zip(va, vb))


def _check_jordan_form(A):
    """Every pivot entry equals the final pivot d, and each pivot column
    is zero above and below its pivot; returns the rank."""
    rows, pivots, d = ff_jordan(A)
    for k, c in enumerate(pivots):
        assert rows[k][c] == d
        for i in range(len(rows)):
            if i != k:
                assert rows[i][c].is_zero()
    return len(pivots)


def test_jordan_pivot_normalization():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randrange(2, 5)
        A = int_matrix([[rng.randrange(-4, 5) for _ in range(n)] for _ in range(n)])
        _check_jordan_form(A)


def test_ff_echelon_exactness():
    """Fraction-free elimination of 4 x 5 integer matrices stays exact:
    the reduced echelon form holds and the pivot count is the rank."""
    rng = random.Random(3)
    for _ in range(50):
        A = int_matrix([[rng.randrange(-5, 6) for _ in range(5)] for _ in range(4)])
        assert _check_jordan_form(A) == _minor_rank(A)
    # rank-deficient cases: a repeated row sum and a zero column
    for _ in range(50):
        rows = [[rng.randrange(-5, 6) for _ in range(5)] for _ in range(3)]
        rows.insert(rng.randrange(4), [a + b for a, b in zip(rows[0], rows[1])])
        zero = rng.randrange(5)
        A = int_matrix([[0 if c == zero else v for c, v in enumerate(r)] for r in rows])
        assert _check_jordan_form(A) == _minor_rank(A) <= 3


# -- the eager elimination as reference --------------------------------------

def _eager_pivot_row(rows, r, c):
    best = None
    for i in range(r, len(rows)):
        t = len(rows[i][c].terms)
        if t and (best is None or t < len(rows[best][c].terms)):
            best = i
            if t == 1:
                break
    return best


def _eager_ff_jordan(A):
    """One-step Bareiss Gauss-Jordan that updates every row at every
    step, rescaling rows with a zero head by piv / prev."""
    rows = [list(r) for r in A]
    m = len(rows)
    n = len(rows[0]) if m else 0
    prev = ONE
    pivots = []
    r = 0
    for c in range(n):
        if r >= m:
            break
        i = _eager_pivot_row(rows, r, c)
        if i is None:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        piv = rows[r][c]
        for i in range(m):
            if i == r:
                continue
            head = rows[i][c]
            if head.terms:
                rows[i] = [(rows[i][j] * piv - head * rows[r][j]).exact_div(prev)
                           for j in range(n)]
            else:
                rows[i] = [(e * piv).exact_div(prev) if e.terms else e
                           for e in rows[i]]
        prev = piv
        pivots.append(c)
        r += 1
    return rows, pivots, prev


def _assert_same_elimination(A):
    rows, pivots, d = ff_jordan(A)
    ref_rows, ref_pivots, ref_d = _eager_ff_jordan(A)
    assert pivots == ref_pivots
    assert d == ref_d
    assert len(rows) == len(ref_rows)
    for row, ref in zip(rows, ref_rows):
        assert row == ref
    return len(pivots)


def _random_poly(rng):
    if rng.random() < 0.55:
        return ZERO
    acc = ZERO
    for _ in range(rng.randrange(1, 4)):
        acc = acc + qs_monomial(rng.randrange(-2, 3), rng.randrange(-2, 3),
                                rng.choice([-3, -2, -1, 1, 1, 2]))
    return acc


def _random_system(rng, m, n, deficient=False, zero_col=False):
    A = [[_random_poly(rng) for _ in range(n)] for _ in range(m)]
    if deficient and m >= 3:
        # a ring combination of two rows replaces a third
        a, b = _random_poly(rng) or ONE, _random_poly(rng) or qs_monomial(1, 0)
        A[rng.randrange(2, m)] = [x * a + y * b for x, y in zip(A[0], A[1])]
    if zero_col:
        z = rng.randrange(n)
        for row in A:
            row[z] = ZERO
    return A


@pytest.mark.parametrize("seed", range(6))
def test_lazy_jordan_matches_eager(seed):
    rng = random.Random(seed)
    for _ in range(12):
        m, n = rng.randrange(1, 8), rng.randrange(1, 8)
        _assert_same_elimination(_random_system(
            rng, m, n, deficient=rng.random() < 0.4, zero_col=rng.random() < 0.3))
    # wide, tall and rank-deficient shapes all occur
    _assert_same_elimination(_random_system(rng, 3, 7))
    _assert_same_elimination(_random_system(rng, 7, 3, zero_col=True))
    _assert_same_elimination(_random_system(rng, 6, 6, deficient=True))
    assert _assert_same_elimination(_random_system(rng, 6, 6, deficient=True)) < 6


@pytest.mark.parametrize("ell", [1, 2])
def test_lazy_jordan_matches_eager_on_intertwiner_system(ell):
    mats = qr.braid_matrices(4, ell)
    rank = _assert_same_elimination(qr.commutation_system(mats))
    assert rank == mats.dim ** 2 - 1


def _reference_solve(A, B):
    """(X, d) with A (X / d) = B, A of full column rank, d the final
    pivot: Gauss-Jordan on [A | B], read off the pivot rows."""
    k = len(A[0])
    rows, pivots, d = ff_jordan([ra + rb for ra, rb in zip(A, B)])
    assert pivots == list(range(k))
    assert all(not e.terms for row in rows[k:] for e in row)
    return [row[k:] for row in rows[:k]], d


@pytest.mark.parametrize("n, ell", [(4, 2), (5, 3)])
def test_sigma_matches_reference_solve(n, ell):
    mats = qr.braid_matrices(n, ell)
    A = mat_transpose(mats.basis)
    for i in range(1, n):
        X, d = _reference_solve(A, mat_mul(qr.sigma_on_V(n, ell, i), A))
        assert [[d * e for e in row] for row in mats.sigma[i]] == X


def _dense_mat_mul(A, B):
    """The triple loop over every (i, j, t)."""
    m, k = len(A), len(B)
    n = len(B[0]) if B else 0
    out = []
    for i in range(m):
        row = []
        for j in range(n):
            acc = ZERO
            for t in range(k):
                if A[i][t].terms and B[t][j].terms:
                    acc = acc + A[i][t] * B[t][j]
            row.append(acc)
        out.append(row)
    return out


@pytest.mark.parametrize("seed", range(4))
def test_mat_mul_matches_dense_loop(seed, monkeypatch):
    """Equal entries, also with every entry summed in numpy.  Term order
    within an entry is not compared: the numpy path returns terms in key
    order, and no output depends on it (poly_json and repr sort terms)."""
    rng = random.Random(seed)
    shapes = [(0, 3, 2), (3, 0, 2), (3, 2, 0), (0, 0, 0), (1, 1, 1)]
    shapes += [tuple(rng.randrange(1, 7) for _ in range(3)) for _ in range(10)]
    for m, k, n in shapes:
        A = [[_random_poly(rng) for _ in range(k)] for _ in range(m)]
        B = [[_random_poly(rng) for _ in range(n)] for _ in range(k)]
        want = _dense_mat_mul(A, B)
        assert len(want) == m and mat_mul(A, B) == want
        with monkeypatch.context() as mp:
            mp.setattr(laurent, "NP_PAIRS", 1)
            assert mat_mul(A, B) == want
