"""The batched one-candidate equivalence kernel of the orbit engine,
set against the scalar centralizer-coset test charvar.are_equivalent on
the p = 19 orbit: twists of equal and of unequal determinant class,
inequivalent pairs and the reversal twist; parameters with gamma and
delta in tori of one type are refused."""

import numpy as np
import pytest

from charquo import charvar as cv
from charquo import orbit as orbit_mod
from charquo.charvar import Params
from charquo.ffield import ProjMat2, det, mm, pencil_annihilators, pgl_canon
from charquo.orbit import epsilon_conjugators, epsilon_perm, make_checker

SHEAR = (1, 1, 0, 1)


def _sqrt(F, x):
    return next(s for s in range(1, F.p) if s * s % F.p == x)


def _twist(F, Q, ghat, dhat):
    """ghat X dhat for each block X of Q.  Equal classes give
    determinant-1 lifts; otherwise the blocks keep their non-square
    determinant, which are_equivalent accepts, as it reads only the
    matrices."""
    p = F.p
    out = []
    for X in Q:
        m = mm(p, mm(p, ghat, X.m), dhat)
        d = det(p, m)
        if F.legendre(d) == 1:
            lam = F.inv(_sqrt(F, d))
            out.append(ProjMat2.of(F, tuple(v * lam % p for v in m)))
        else:
            out.append(ProjMat2(F, m))
    return tuple(out)


def _rows(quads):
    return np.array([[v for X in Q for v in X.m] for Q in quads], dtype=np.int64)


def _sample(orbit19, rng, k):
    return [orbit19.point(rng.randrange(orbit19.n)) for _ in range(k)]


def _pairs_of_class(params, equal):
    cg, cd = params.centralizer("gamma"), params.centralizer("delta")
    return [(g, d) for g, sg in cg for d, sd in cd if (sg == sd) == equal]


def test_equal_class_twists_accepted(orbit19, cfg19, rng):
    params = cfg19.params
    pairs = params.equal_class_pairs()
    Qs = _sample(orbit19, rng, 60)
    Rs = [_twist(params.F, Q, *rng.choice(pairs)) for Q in Qs]
    assert all(cv.are_equivalent(Q, R, params) for Q, R in zip(Qs, Rs))
    assert make_checker(params).equivalent(_rows(Qs), _rows(Rs)).all()


def test_unequal_class_twists_refused(orbit19, cfg19, rng):
    params = cfg19.params
    pairs = _pairs_of_class(params, equal=False)
    Qs = _sample(orbit19, rng, 60)
    Rs = [_twist(params.F, Q, *rng.choice(pairs)) for Q in Qs]
    assert not any(cv.are_equivalent(Q, R, params) for Q, R in zip(Qs, Rs))
    assert not make_checker(params).equivalent(_rows(Qs), _rows(Rs)).any()


def _off_torus_twist(params, rng):
    """(g, dhat) of equal determinant class, dhat in C(delta) and g
    invertible outside C(gamma) but in the kernel of the first pencil
    annihilator, so only the second one tells g from the torus."""
    F = params.F
    first, second = pencil_annihilators(F.p, params.gamma_mat)
    while True:
        g = tuple(rng.randrange(F.p) for _ in range(4))
        on = [sum(a * x for a, x in zip(ell, g)) % F.p for ell in (first, second)]
        if on[0] == 0 and on[1] and det(F.p, g):
            cls = F.legendre(det(F.p, g))
            return g, next(d for d, c in params.centralizer("delta") if c == cls)


def test_inequivalent_pairs_refused(orbit19, cfg19, rng):
    params = cfg19.params
    F = params.F
    pairs = params.equal_class_pairs()
    t = 2
    squeeze = (t, 0, 0, F.inv(t))
    Qs, Rs = [], []
    # a different orbit point
    for _ in range(30):
        i, j = rng.sample(range(orbit19.n), 2)
        Qs.append(orbit19.point(i))
        Rs.append(orbit19.point(j))
    # an equivalent twist with one block sheared on the right or
    # squeezed on the left, for each block
    for k in (0, 1, 2, 3) * 5:
        for perturb in (lambda m: mm(F.p, m, SHEAR), lambda m: mm(F.p, squeeze, m)):
            Q = orbit19.point(rng.randrange(orbit19.n))
            R = list(_twist(F, Q, *rng.choice(pairs)))
            R[k] = ProjMat2.of(F, perturb(R[k].m))
            Qs.append(Q)
            Rs.append(tuple(R))
    # a twist by a matrix off the gamma torus
    for _ in range(20):
        Q = orbit19.point(rng.randrange(orbit19.n))
        Qs.append(Q)
        Rs.append(_twist(F, Q, *_off_torus_twist(params, rng)))
    assert not any(cv.are_equivalent(Q, R, params) for Q, R in zip(Qs, Rs))
    assert not make_checker(params).equivalent(_rows(Qs), _rows(Rs)).any()


def test_one_torus_type_refused(cfg19):
    # gamma and delta in one torus: rows with A_Q = 1 and A_R in that
    # torus would fix no candidate, so the checker refuses the parameters
    # (and with it the BFS and the reversal twist)
    params = Params(cfg19.F, cfg19.params.gamma_mat, cfg19.params.gamma_mat)
    assert not params.satisfies_nonconjugation()
    with pytest.raises(ValueError, match="tori of different type"):
        make_checker(params)
    with pytest.raises(ValueError, match="tori of different type"):
        orbit_mod.enumerate_orbit(cfg19.P, params)


def _twisted_coset_equivalent(params, g, h, Q, R):
    """The test epsilon_perm made before the one-candidate kernel:
    m g eps(Q) h m' = R blockwise for some m in C(gamma), m' in C(delta)
    of equal determinant class."""
    F = params.F
    target = [pgl_canon(F, X.m) for X in R]
    for m, c in params.centralizer("gamma"):
        left = mm(F.p, m, g)
        for m2, c2 in params.centralizer("delta"):
            if c == c2:
                right = mm(F.p, h, m2)
                if all(pgl_canon(F, mm(F.p, mm(F.p, left, X.m), right)) == t
                       for X, t in zip(Q[::-1], target)):
                    return True
    return False


def test_epsilon_twisted_rows_match_twisted_coset(orbit19, cfg19, rng):
    params = cfg19.params
    g, h = epsilon_conjugators(params)
    eps = epsilon_perm(orbit19, params)
    sample = np.array(rng.sample(range(orbit19.n), 12), dtype=np.int64)
    rows = np.concatenate([sample, sample])
    targets = np.concatenate([eps[sample], eps[(sample + 1) % orbit19.n]])  # images, misses
    twisted = orbit_mod._twisted_reversal(params.F.p, g, h, orbit19.points[rows])
    got = make_checker(params).equivalent(twisted, orbit19.points[targets])
    want = [_twisted_coset_equivalent(params, g, h, orbit19.point(i), orbit19.point(j))
            for i, j in zip(rows, targets)]
    assert got.tolist() == want
    assert want[:12] == [True] * 12 and not any(want[12:])
