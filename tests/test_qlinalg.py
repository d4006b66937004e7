import random
from itertools import combinations

import pytest

from charquo.laurent import ONE, ZERO, LaurentPoly2, qnum, qvar, svar
from charquo.qlinalg import (ScaledMatrix, ff_jordan, mat_eq, mat_mul,
                             nullspace, solve_in_span)


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
        A = [[rng.choice([ZERO, ONE, qvar(1), svar(-1), qnum(2)])
              for _ in range(n)] for _ in range(m)]
        kern = nullspace(A, ncols=n)
        assert len(kern) == n - _minor_rank(A)
        for vec in kern:
            img = mat_mul(A, [[v] for v in vec])
            assert all(e.is_zero() for row in img for e in row)
            assert any(v.terms for v in vec)


def test_nullspace_deterministic():
    A = [[qvar(1), qvar(1), ZERO], [ZERO, ZERO, ZERO]]
    k1 = nullspace(A, ncols=3)
    k2 = nullspace(A, ncols=3)
    assert len(k1) == 2
    assert all(a == b for va, vb in zip(k1, k2) for a, b in zip(va, vb))


def test_solve_in_span():
    A = [[ONE, qvar(1)], [ZERO, qnum(2)], [svar(1), ZERO]]
    X0 = [[qvar(-1)], [svar(2) + 1]]
    B = mat_mul(A, X0)
    sol = solve_in_span(A, B)
    lhs = mat_mul(A, sol.num)
    rhs = [[b * sol.den for b in row] for row in B]
    assert mat_eq(lhs, rhs)


def test_solve_in_span_rejects_outside():
    A = [[ONE], [ZERO]]
    B = [[ZERO], [ONE]]
    with pytest.raises(ValueError):
        solve_in_span(A, B)


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


def test_scaled_matrix_ops():
    A = ScaledMatrix([[qvar(1), ONE], [ZERO, qvar(1)]], qnum(2))
    B = ScaledMatrix([[qvar(2), qvar(1) * 2], [ZERO, qvar(2)]], qnum(2) * qnum(2))
    assert A @ A == B
    assert not A.is_scalar()
    S = ScaledMatrix([[qvar(3), ZERO], [ZERO, qvar(3)]], svar(1))
    assert S.is_scalar()
    got = A.eval_mod(2, 3, 101)
    den = qnum(2).eval_mod(2, 3, 101)
    assert got[0][0] == 2 * pow(den, 99, 101) % 101
