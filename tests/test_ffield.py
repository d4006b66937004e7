import random

import numpy as np
import pytest

from charquo.ffield import (ElementClass, NotConjugateError, PrimeField,
                            ProjMat2, adj, centralizer_element_of_class,
                            centralizer_pgl, classify, conjugator, conjugator_np,
                            det, exact_conjugator, inv_table, is_maximal, is_scalar,
                            legendre_table, mm, neg, order, pack_np,
                            pencil_annihilators, pgl_canon, pgl_canon_np,
                            psl_canon, psl_canon_np, residue, tr, tr_mm, unpack_np)
from charquo.numutil import is_prime
from charquo.orbit import MAX_PACKED_PRIME
from conftest import rand_psl2


def test_field_rejects_bad_modulus():
    for bad in (4, 9, 2, 3, 1):
        with pytest.raises(ValueError):
            PrimeField(bad)


def test_legendre_euler():
    F = PrimeField(19)
    squares = {x * x % 19 for x in range(1, 19)}
    for x in range(1, 19):
        assert F.legendre(x) == (1 if x in squares else -1)
    assert F.legendre(0) == 0


@pytest.mark.parametrize("p", [19, 509])
def test_legendre_table(p):
    F = PrimeField(p)
    t = legendre_table(p)
    assert t.tolist() == [F.legendre(x) for x in range(p)]
    assert not t.flags.writeable


def test_pencil_annihilators_cut_out_the_centralizer():
    p = 19
    F = PrimeField(p)
    rng = random.Random(5)
    # generic, lower and upper triangular, and diagonal matrices
    Ms = [rand_psl2(F, rng).m for _ in range(20)]
    Ms += [(3, 0, 5, 7), (3, 5, 0, 7), (3, 0, 0, 7)]
    for M in Ms:
        e1, e2 = pencil_annihilators(p, M)
        assert all(0 <= c < p for c in e1 + e2)
        # independent, so their common kernel is 2-dimensional ...
        assert any((e1[i] * e2[j] - e1[j] * e2[i]) % p
                   for i in range(4) for j in range(i + 1, 4))
        # ... and it holds I and M, so it is the pencil span(I, M)
        for m in ((1, 0, 0, 1), M):
            assert [sum(a * x for a, x in zip(e, m)) % p for e in (e1, e2)] == [0, 0]
    with pytest.raises(ValueError, match="scalar"):
        pencil_annihilators(p, (4, 0, 0, 4))


def test_canonical_sign():
    F = PrimeField(31)
    rng = random.Random(5)
    for _ in range(200):
        A = rand_psl2(F, rng)
        assert ProjMat2.of(F, neg(F.p, A.m)) == A
        first = next(x for x in A.m if x)
        assert 1 <= first <= (F.p - 1) // 2


def test_classify_against_bruteforce():
    F = PrimeField(1009)
    rng = random.Random(7)
    squares = None
    for _ in range(1000):
        M = rand_psl2(F, rng)
        cls = classify(M)
        t = M.trace()
        disc = (t * t - 4) % F.p
        if M.is_one():
            assert cls is ElementClass.IDENTITY
        elif t == 0:
            assert cls is ElementClass.INVOLUTION
        elif disc == 0:
            assert cls is ElementClass.UNIPOTENT
        else:
            if squares is None:
                squares = {x * x % F.p for x in range(1, F.p)}
            want = ElementClass.SPLIT if disc in squares else ElementClass.NONSPLIT
            assert cls is want


def test_classify_spec_examples():
    # trace 3 is split whenever 5 is a quadratic residue (p = +-1 mod 5)
    for p in (19, 31, 29, 41):
        F = PrimeField(p)
        M = ProjMat2.of(F, (0, p - 1, 1, 3))
        want = ElementClass.SPLIT if p % 5 in (1, 4) else ElementClass.NONSPLIT
        assert classify(M) is want
    F = PrimeField(19)
    assert classify(ProjMat2.identity(F)) is ElementClass.IDENTITY
    assert classify(ProjMat2.of(F, (1, 1, 0, 1))) is ElementClass.UNIPOTENT


def test_order_examples():
    F = PrimeField(31)
    assert order(ProjMat2.identity(F)) == 1
    assert order(ProjMat2.of(F, (1, 1, 0, 1))) == 31
    M = ProjMat2.of(F, (0, 30, 1, 3))
    assert order(M) == 15
    assert is_maximal(M)
    # a square of an even-order maximal split element is a proper power
    F2 = PrimeField(29)
    for t in range(3, 29):
        M2 = ProjMat2.of(F2, (0, 28, 1, t))
        if classify(M2) is ElementClass.SPLIT and order(M2) == 14:
            assert not is_maximal(M2 ** 2)
            break
    else:
        pytest.fail("no maximal split element of even order found")


def test_order_divides_centralizer_order():
    F = PrimeField(101)
    rng = random.Random(11)
    for _ in range(300):
        M = rand_psl2(F, rng)
        cls = classify(M)
        k = order(M)
        assert (M ** k).is_one()
        if cls is ElementClass.SPLIT:
            assert (F.p - 1) // 2 % k == 0
        elif cls is ElementClass.NONSPLIT:
            assert (F.p + 1) // 2 % k == 0
        elif cls is ElementClass.UNIPOTENT:
            assert k == F.p
            assert is_maximal(M)


def test_centralizer_sizes_and_classes():
    F = PrimeField(19)
    Msplit = ProjMat2.of(F, (0, 18, 1, 3))
    tor = centralizer_pgl(Msplit)
    assert len(tor) == 18
    assert {c for _, c in tor} == {1, -1}
    for g, c in tor:
        assert pgl_canon(F, mm(F.p, g, Msplit.m)) == pgl_canon(F, mm(F.p, Msplit.m, g))
    Mns = ProjMat2.of(F, (0, 18, 1, 5))
    assert classify(Mns) is ElementClass.NONSPLIT
    assert len(centralizer_pgl(Mns)) == 20
    with pytest.raises(ValueError):
        centralizer_pgl(ProjMat2.identity(F))
    z = centralizer_element_of_class(Msplit, -1)
    assert F.legendre(det(F.p, z)) == -1


def test_conjugator_weyl_and_errors():
    F = PrimeField(31)
    lam = 5
    M = ProjMat2.of(F, (lam, 0, 0, F.inv(lam)))
    p = F.p
    g, cls = conjugator(M, M.inv())
    assert pgl_canon(F, mm(p, mm(p, g, M.m), adj(p, g))) == pgl_canon(F, adj(p, M.m))
    g2, _ = conjugator(M, M)
    assert g2 == (1, 0, 0, 1) or mm(p, g2, M.m) == mm(p, M.m, g2)
    with pytest.raises(NotConjugateError):
        conjugator(ProjMat2.of(F, (0, 30, 1, 3)), ProjMat2.of(F, (0, 30, 1, 5)))
    # exact_conjugator: unequal trace, unequal determinant, scalar against
    # non-scalar (equal trace and determinant), equal scalars
    for M, N in (((0, 30, 1, 3), (0, 30, 1, 5)), ((2, 0, 0, 3), (1, 0, 0, 4)),
                 ((3, 0, 0, 3), (3, 1, 0, 3)), ((3, 1, 0, 3), (3, 0, 0, 3))):
        with pytest.raises(NotConjugateError):
            exact_conjugator(F, M, N)
    assert exact_conjugator(F, (7, 0, 0, 7), (7, 0, 0, 7)) == (1, 0, 0, 1)


def test_conjugator_random_pairs():
    for p in (19, 101, 509):
        F = PrimeField(p)
        rng = random.Random(3)
        for _ in range(100):
            M = rand_psl2(F, rng)
            g = rand_psl2(F, rng)
            N = g * M * g.inv()
            h, _ = conjugator(M, N)
            assert pgl_canon(F, mm(p, mm(p, h, M.m), adj(p, h))) == pgl_canon(F, N.m)

        # conjugator_np over arrays of any determinant: N = t M t^-1 for
        # invertible t, M non-scalar; every cyclic-vector branch occurs on
        # both sides (m21 != 0; m21 = 0 != m12; diagonal)
        M = np.array(_random_mats(F, rng, 600), dtype=np.int64)
        M[1::3, 2] = 0
        M[2::3, 1:3] = 0
        M[2::3, 3] = (M[2::3, 0] + 1) % p
        t = np.array(_random_mats(F, rng, 600), dtype=np.int64)
        t[1::3, 2] = 0
        t[2::3, 1:3] = 0
        # as entry-major blocks
        M, t = M.T, t.T
        keep = (det(p, t) != 0) & ~is_scalar(M)
        M, t = M[:, keep], t[:, keep]
        scale = inv_table(p)[det(p, t)]
        N = [x * scale % p for x in mm(p, mm(p, t, M), adj(p, t))]
        for X in (M, N):
            branch = np.where(X[2] != 0, 0, np.where(X[1] != 0, 1, 2))
            assert np.bincount(branch, minlength=3).min() >= 20
        assert (det(p, M) != 1).sum() >= 100
        g = conjugator_np(p, M, N)
        for m, n, gi in zip(M.T.tolist(), np.transpose(N).tolist(), np.transpose(g).tolist()):
            assert det(p, gi) != 0
            assert mm(p, gi, m) == mm(p, n, gi)


def test_psl_canon_of_negation():
    F = PrimeField(43)
    rng = random.Random(9)
    for _ in range(200):
        A = rand_psl2(F, rng).m
        assert psl_canon(F, neg(F.p, A)) == psl_canon(F, A)


# -- the 2x2 kernels ------------------------------------------------------

def _random_mats(F, rng, count):
    """Random nonzero 2x2 matrices of any determinant; half of them have
    leading zeros (first entry 0, or first two entries 0)."""
    p = F.p
    out = []
    for i in range(count):
        m = [rng.randrange(p) for _ in range(4)]
        if i % 4 == 1:
            m[0] = 0
        elif i % 4 == 3:
            m[0] = m[1] = 0
        if not any(m):
            m[3] = 1
        out.append(tuple(m))
    return out


@pytest.mark.parametrize("p", [19, MAX_PACKED_PRIME])
def test_kernels_against_references(p):
    """mm, adj, det, tr, tr_mm and neg agree on int tuples and on
    entry-major (4, m) blocks, and a tuple broadcasts against a block;
    the results are checked against np.matmul and np.trace on
    (m, 2, 2) reshapes, and A adj(A) = adj(A) A = det(A) I mod p."""
    F = PrimeField(p)
    rng = random.Random(p)
    A = np.array(_random_mats(F, rng, 400), dtype=np.int64)
    B = np.array(_random_mats(F, rng, 400), dtype=np.int64)
    assert (A[:, 0] == 0).sum() >= 100
    a0, b0 = tuple(A[0].tolist()), tuple(B[0].tolist())

    def both(kernel, *Xs):
        """kernel over the matrices of the (m, 4) arrays Xs, once per
        matrix on int tuples and once on blocks: equal, as (m, 4) or (m,)."""
        ints = [kernel(p, *ms) for ms in zip(*(map(tuple, X.tolist()) for X in Xs))]
        assert all(type(x) is int for r in ints for x in (r if type(r) is tuple else [r]))
        block = np.transpose(kernel(p, *(X.T for X in Xs)))
        assert np.array_equal(np.array(ints), block)
        return block

    def matmul(X, Y):
        return (X.reshape(-1, 2, 2) @ Y.reshape(-1, 2, 2) % p).reshape(-1, 4)

    def trace(X):
        return np.trace(X.reshape(-1, 2, 2), axis1=1, axis2=2) % p

    assert np.array_equal(both(mm, A, B), matmul(A, B))
    assert np.array_equal(np.transpose(mm(p, a0, B.T)), matmul(A[:1], B))
    assert np.array_equal(np.transpose(mm(p, A.T, b0)), matmul(A, B[:1]))
    assert np.array_equal(both(tr, A), trace(A))
    assert np.array_equal(both(tr_mm, A, B), trace(matmul(A, B)))
    assert np.array_equal(tr_mm(p, a0, B.T), trace(matmul(A[:1], B)))
    d, adjA = both(det, A), both(adj, A)
    scalar = d[:, None] * np.array([1, 0, 0, 1])
    assert np.array_equal(matmul(A, adjA), scalar)
    assert np.array_equal(matmul(adjA, A), scalar)
    assert (d != 0).sum() >= 200 and (d == 0).sum() >= 100
    minus = both(neg, A)
    assert ((A + minus) % p == 0).all() and 0 <= minus.min() and minus.max() < p


@pytest.mark.parametrize("p", [19, 509])
def test_np_kernels_match_scalar(p):
    F = PrimeField(p)
    rng = random.Random(p)
    A = _random_mats(F, rng, 400)
    An = np.array(A, dtype=np.int64)
    assert sum(a[0] == 0 for a in A) >= 100
    assert np.transpose(pgl_canon_np(p, An.T)).tolist() == [list(pgl_canon(F, a)) for a in A]
    S = [rand_psl2(F, rng).m for _ in range(200)]
    S += [(0, b, p - F.inv(b), rng.randrange(p)) for b in range(1, min(p, 101))]
    Sn = np.array(S, dtype=np.int64).T
    Sneg = (p - Sn) % p
    assert np.transpose(psl_canon_np(p, Sn)).tolist() == [list(psl_canon(F, s)) for s in S]
    assert np.transpose(psl_canon_np(p, Sneg)).tolist() == [list(psl_canon(F, s)) for s in S]


@pytest.mark.parametrize("p", [5, 19, 31, MAX_PACKED_PRIME])
def test_residue_equals_python_mod(p):
    """residue agrees with Python's % on ints and on int64 arrays of
    either sign, exact multiples of p included, up to 64 p^6 in absolute
    value: the largest unreduced intermediate of a kernel at p = 509
    (charvar.trace_coords's tr(M1 M2 M3))."""
    bound = 64 * MAX_PACKED_PRIME ** 6
    assert bound < 2 ** 60
    rng = np.random.default_rng(p)
    x = np.concatenate([rng.integers(-bound, bound, size=5000),
                        rng.integers(-bound // p, bound // p, size=1000) * p,
                        rng.integers(-3 * p, 3 * p, size=1000),
                        [0, p, -p, 1, -1, p - 1, 1 - p, bound, -bound,
                         bound // p * p, -(bound // p) * p]]).astype(np.int64)
    before = x.copy()
    want = [v % p for v in x.tolist()]
    got = residue(p, x)
    assert got.dtype == np.int64 and got.tolist() == want
    assert np.array_equal(x, before)  # the argument is not reduced in place
    ints = [residue(p, v) for v in x.tolist()]
    assert all(type(v) is int for v in ints) and ints == want
    # the multiples of p, and only they, reduce to 0
    assert ((got == 0) == (x.astype(object) % p == 0)).all()
    assert np.array_equal(residue(p, x.reshape(3, -1)), got.reshape(3, -1))


def test_pack_roundtrip_and_bound():
    rng = np.random.default_rng(11)
    for p, width in ((19, 4), (509, 7), (233, 8)):
        digits = rng.integers(0, p, size=(50, 3, width))
        keys = pack_np(p, digits)
        assert keys.shape == (50, 3)
        assert (unpack_np(p, keys, width) == digits).all()
        # order-preserving: keys sort as the digit vectors do
        flat = digits.reshape(-1, width).tolist()
        assert sorted(range(len(flat)), key=flat.__getitem__) == \
            np.argsort(keys.ravel(), kind="stable").tolist()
    assert int(pack_np(509, [508] * 7)) == 509 ** 7 - 1
    assert int(pack_np(233, [232] * 8)) == 233 ** 8 - 1
    for p, width in ((521, 7), (239, 8)):
        with pytest.raises(ValueError, match="overflow"):
            pack_np(p, np.zeros(width, dtype=np.int64))


def test_max_packed_prime_is_the_trace_key_bound():
    largest = max(p for p in range(2, 600) if is_prime(p) and p ** 7 < 2 ** 63)
    assert MAX_PACKED_PRIME == largest == 509
