import random

from charquo import braidquandle as bq
from charquo import charvar as cv
from charquo import witness as wt
from charquo.ffield import ProjMat2, det, mm
from conftest import rand_quad

LETTERS = [bq.S1, bq.S1i, bq.S2, bq.S2i, bq.S3, bq.S3i]


def test_from_quad_identity(F1009):
    one = ProjMat2.identity(F1009)
    assert cv.from_quad((one,) * 4) == (2,) * 7


def test_sigma_action_printed_examples():
    p = 101
    t = (1, 2, 3, 4, 5, 6, 7)
    assert cv.sigma_action(1, 1, t, p) == tuple(v % p for v in (1, -4, 3, -3, 5, 2, 4))
    assert cv.sigma_action(3, 1, t, p) == (1, 4, 3, 10, 5, 7, 15)


def test_sigma_action_roundtrips():
    p = 97
    rng = random.Random(1)
    for _ in range(10_000):
        t = tuple(rng.randrange(p) for _ in range(7))
        for i in (1, 2, 3):
            assert cv.sigma_action(i, -1, cv.sigma_action(i, 1, t, p), p) == t
            assert cv.sigma_action(i, 1, cv.sigma_action(i, -1, t, p), p) == t


def test_polynomial_braid_relations():
    p = 97
    rng = random.Random(2)

    def act(word, t):
        for i, e in word:
            t = cv.sigma_action(i, e, t, p)
        return t

    for _ in range(500):
        t = tuple(rng.randrange(p) for _ in range(7))
        assert act([bq.S1, bq.S2, bq.S1], t) == act([bq.S2, bq.S1, bq.S2], t)
        assert act([bq.S2, bq.S3, bq.S2], t) == act([bq.S3, bq.S2, bq.S3], t)
        assert act([bq.S1, bq.S3], t) == act([bq.S3, bq.S1], t)


def test_matrix_consistency_with_quandle(cfg19, rng):
    p = 19
    Q = cfg19.P
    for _ in range(150):
        Q = bq.apply_letter(rng.choice(LETTERS), Q)
        t = cv.from_quad(Q)
        assert cv.fricke_check(t, p)
        for L in LETTERS:
            lhs = cv.canonicalize(cv.sigma_action(L[0], L[1], t, p), p)
            rhs = cv.canonicalize(cv.from_quad(bq.apply_letter(L, Q)), p)
            assert lhs == rhs


def test_canonicalize():
    p = 11
    t = (1, 2, 3, 4, 5, 6, 7)
    assert cv.canonicalize(t, p) == t
    for signs in cv.FLIP_SIGNS:
        assert cv.canonicalize(cv.apply_flip(t, signs, p), p) == cv.canonicalize(t, p)
    assert cv.canonicalize((0,) * 7, p) == (0,) * 7


def test_fricke_examples():
    assert cv.fricke_check((2,) * 7, 101)
    assert not cv.fricke_check((0, 0, 0, 0, 0, 0, 1), 101)


def test_fricke_on_random_quads(F1009, rng):
    for _ in range(200):
        Q = rand_quad(F1009, rng)
        assert cv.fricke_check(cv.from_quad(Q), 1009)


def test_membership(cfg19, rng):
    params = cfg19.params
    Q = cfg19.P
    assert cv.membership(cv.from_quad(Q), params)
    for _ in range(50):
        Q = bq.apply_letter(rng.choice(LETTERS), Q)
        assert cv.membership(cv.from_quad(Q), params)
    assert not cv.membership((2,) * 7, wt.build(31).params)


def test_trace_key_invariant_under_centralizer_twists(cfg19, rng):
    """from_quad(ghat Q dhat) lies in the flip orbit of from_quad(Q) for
    equal-determinant-class centralizer pairs.

    The library never needs square roots, but this test does: the
    twisted components have square determinant and are rescaled to
    determinant 1 through a root table so from_quad applies verbatim.
    """
    params = cfg19.params
    F = params.F
    p = F.p
    sqrt_table = {}
    for x in range(1, p):
        sqrt_table.setdefault(x * x % p, x)
    pairs = params.equal_class_pairs()
    Q = cfg19.P
    for _ in range(40):
        Q = bq.apply_letter(rng.choice(LETTERS), Q)
        base = cv.canonicalize(cv.from_quad(Q), p)
        for _ in range(5):
            ghat, dhat = rng.choice(pairs)
            twisted = []
            for X in Q:
                m = mm(p, mm(p, ghat, X.m), dhat)
                lam = F.inv(sqrt_table[det(p, m)])
                twisted.append(ProjMat2.of(F, tuple(v * lam % p for v in m)))
            assert cv.canonicalize(cv.from_quad(tuple(twisted)), p) == base
            assert cv.are_equivalent(Q, tuple(twisted), params)
            assert cv.key_exact(tuple(twisted), params) == cv.key_exact(Q, params)


def test_key_exact_orbit_invariance(cfg19, rng):
    params = cfg19.params
    F = params.F
    Q = cfg19.P
    base = cv.key_exact(Q, params)
    assert cv.key_exact(Q, params) == base
    # equivalence test agrees with itself and distinguishes a braid image
    assert cv.are_equivalent(Q, Q, params)
    R = bq.apply_word([bq.S1, bq.S2], Q)
    assert not cv.are_equivalent(Q, R, params)
