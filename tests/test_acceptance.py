"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.  Every tolerance is
exact (zero tolerance) and every stated budget is asserted against the
wall clock.
"""

import hashlib
import json
import random
import time
from math import comb, factorial

import numpy as np

from charquo import braidquandle as bq
from charquo import charvar as cv
from charquo import permgrp as pg
from charquo import qrep as qr
from charquo import witness as wt
from charquo.ffield import ElementClass, ProjMat2, coarse_type
from charquo.orbit import verify_edges
from charquo.qlinalg import mat_mul
from conftest import rand_psl2, rand_quad

LETTERS = [bq.S1, bq.S1i, bq.S2, bq.S2i, bq.S3, bq.S3i]
# byte-level oracles for refactors of the exact-key and X-enumeration code
EXACT_KEYS19_SHA256 = "6240ea4d5c4d293b0b3d7e4a12ea3ed7e6eabc193c6129eea52b887590350a81"
X_CLASSES19_SHA256 = "051dc090b81162b814043bd22c507f56ae78763a463359f28667b7260b0b1a7e"
EXACT_KEYS31_SHA256 = "849df0e941217514ef5b5333f6c9b6dd16aef7d2f7c199beac6095cbd76c8331"


def _report(k, detail):
    print(f"\nACCEPTANCE {k}: PASS ({detail})")


def test_criterion_01_algebraic_identities(F1009):
    t0 = time.time()
    rng = random.Random(101)
    for trial in range(1000):
        Q = rand_quad(F1009, rng)
        a, b, c, d = Q
        assert bq.triangle(a, a) == a
        assert bq.triangle(a, bq.triangle(b, c)) == \
            bq.triangle(bq.triangle(a, b), bq.triangle(a, c))
        assert bq.apply_word([bq.S1, bq.S2, bq.S1], Q) == \
            bq.apply_word([bq.S2, bq.S1, bq.S2], Q)
        assert bq.apply_word([bq.S2, bq.S3, bq.S2], Q) == \
            bq.apply_word([bq.S3, bq.S2, bq.S3], Q)
        assert bq.apply_word([bq.S1, bq.S3], Q) == bq.apply_word([bq.S3, bq.S1], Q)
        L = LETTERS[trial % 6]
        R = bq.apply_letter(L, Q)
        assert bq.gamma(R) == bq.gamma(Q) and bq.delta(R) == bq.delta(Q)
        bq.center_image(Q)  # checks the gamma...delta^-1 closed form
        assert bq.epsilon(bq.apply_letter(bq.S1, bq.epsilon(Q))) == \
            bq.apply_letter(bq.S3i, Q)
        g = rand_psl2(F1009, rng)
        assert bq.apply_letter(L, bq.left_mul(g, Q)) == \
            bq.left_mul(g, bq.apply_letter(L, Q))
        assert bq.apply_letter(L, bq.right_mul(Q, g)) == \
            bq.right_mul(bq.apply_letter(L, Q), g)
        w = bq.INNER_WORD
        assert bq.apply_word(w + [bq.S1], Q) == bq.apply_word([bq.S3] + w, Q)
    dt = time.time() - t0
    assert dt < 10, f"identity suite took {dt:.1f}s"
    _report(1, f"1000 quadruples over PSL2(F_1009), {dt:.1f}s")


def test_criterion_02_trace_coordinate_consistency():
    cfg = wt.build(101)
    p = 101
    rng = random.Random(202)
    Q = cfg.P
    for trial in range(1000):
        Q = bq.apply_letter(rng.choice(LETTERS), Q)
        t = cv.from_quad(Q)
        assert cv.fricke_check(t, p)
        for L in LETTERS:
            lhs = cv.canonicalize(cv.sigma_action(L[0], L[1], t, p), p)
            rhs = cv.canonicalize(cv.from_quad(bq.apply_letter(L, Q)), p)
            assert lhs == rhs
    _report(2, "1000 valid points at p=101, all 6 letters, exact")


def test_criterion_03_dual_key_agreement(orbit19, cfg19, orbit31, exact_keys31):
    # Every sigma_i and sigma_i^-1 edge is re-verified against the row it
    # names with the exact centralizer-coset equivalence, and representatives
    # carry pairwise-distinct trace keys by construction; together with
    # the flip-orbit invariance of the trace key this makes the two
    # partitions of the orbit literally equal.  The exact keys are also
    # recomputed independently below, for every point at p=19 and p=31.
    # (verify_edges checks the 2n + 1 sigma_i edges off the BFS tree and
    # the 3n sigma_i^-1 edges: 5n + 1, the report's edges_verified)
    verified = [verify_edges(orbit) for orbit in (orbit19, orbit31)]
    assert verified == [5 * orbit19.n + 1, 5 * orbit31.n + 1]
    keys19 = wt.orbit_exact_keys(orbit19, cfg19.params)
    assert len({(int(a), int(b)) for a, b in keys19}) == orbit19.n
    assert hashlib.sha256(keys19.tobytes()).hexdigest() == EXACT_KEYS19_SHA256
    assert len(np.unique(exact_keys31, axis=0)) == orbit31.n
    assert hashlib.sha256(exact_keys31.tobytes()).hexdigest() == EXACT_KEYS31_SHA256
    # scalar cross-check of the batched exact key on a few points
    pairs = cfg19.params.equal_class_pairs()
    for i in (0, orbit19.n // 3, orbit19.n - 1):
        scalar = cv.key_exact(orbit19.point(i), cfg19.params)
        packed = 0
        for v in scalar[:8]:
            packed = packed * 19 + v
        assert packed == int(keys19[i][0])
    _report(3, f"p=19: {orbit19.n} and p=31: {orbit31.n} exact keys all distinct; "
               f"p=31: {verified[1]} edges exact-verified")


def test_criterion_04_counting_oracle_agreement(cfg19, orbit19):
    t0 = time.time()
    count = wt.count_x(cfg19.params)
    dt = time.time() - t0
    assert dt < 60, f"count_x took {dt:.1f}s"
    n_exact, class_keys = wt.enumerate_x_classes(cfg19.params)
    assert count == n_exact
    digest = hashlib.sha256(json.dumps(class_keys).encode()).hexdigest()
    assert digest == X_CLASSES19_SHA256
    assert orbit19.n <= count
    _report(4, f"count_x(19) = {count} = independent exact enumeration, "
               f"count in {dt:.1f}s")


def test_criterion_05_witness_pipeline(orbit19, cfg19):
    t0 = time.time()
    rep = wt.run_pipeline(19, seed=7, include_permutations=False)
    assert rep["classification"] in ("Alternating", "Symmetric")
    assert rep["certificate"] is not None
    assert rep["f2_x_nontrivial"] and rep["f2_x_sign"] == 1

    # per-point cycle length equals the order of the sigma matrix
    for i, letter in ((1, bq.S1), (2, bq.S2), (3, bq.S3)):
        perm = orbit19.letter_perm(letter)
        orders = wt.orbit_sigma_orders(orbit19, i)
        cyclen = np.zeros(orbit19.n, dtype=np.int64)
        seen = np.zeros(orbit19.n, dtype=bool)
        for s in range(orbit19.n):
            if seen[s]:
                continue
            cyc = [s]
            j = int(perm[s])
            while j != s:
                cyc.append(j)
                j = int(perm[j])
            cyclen[cyc] = len(cyc)
            seen[cyc] = True
        assert (cyclen == orders).all()

    # all three element types occur among the sigma_1 matrices
    traces, ident = orbit19.sigma_matrix_traces(1)
    F = cfg19.F
    types = {coarse_type(ProjMat2.of(F, (0, F.p - 1, 1, int(t))))
             for t in set(traces[~ident].tolist())}
    assert types == {ElementClass.UNIPOTENT, ElementClass.SPLIT,
                     ElementClass.NONSPLIT}
    dt = time.time() - t0
    assert dt < 300, f"pipeline criterion took {dt:.1f}s"
    _report(5, f"n={rep['n']}, {rep['classification']}, certificate "
               f"q={rep['certificate']['q']}, F2 image even and nontrivial, {dt:.1f}s")


def test_criterion_06_unique_unipotent_decomposition(cfg31):
    t0 = time.time()
    classes = wt.unipotent_decompositions(cfg31.params)
    dt = time.time() - t0
    assert dt < 60, f"decomposition search took {dt:.1f}s"
    assert len(classes) == 1
    els, flags = wt.proper_decomposition(cfg31.P, "first")
    assert all(flags)
    dec = wt.normalize_unipotent_decomposition(cfg31.F, els)
    assert dec[0] + dec[1] + dec[2] + dec[3] in set(classes[0])
    _report(6, f"exactly one class of {len(classes[0])} decompositions at "
               f"p=31, contains the first decomposition of P, {dt:.1f}s")


def test_criterion_07_primitivity_spot_check(orbit19):
    gens = [orbit19.letter_perm(L).tolist() for L in (bq.S1, bq.S2, bq.S3)]
    assert pg.is_transitive(gens, orbit19.n)
    rng = random.Random(7)
    for _ in range(100):
        beta = rng.randrange(1, orbit19.n)
        block = pg.minimal_block(gens, 0, beta, orbit19.n)
        assert block is None, f"nontrivial block through (0, {beta})"
    _report(7, "100 sampled minimal-block computations all trivial at p=19")


def test_criterion_08_quantum_engine():
    t0 = time.time()
    for n in range(2, 6):
        for ell in range(4):
            mats = qr.braid_matrices(n, ell)  # verifies relations exactly
            assert mats.dim == comb(n + ell - 2, ell)
            assert n < 3 or qr.decomposition_check(mats)
    for ell in range(5):
        assert qr.braid_matrices(2, ell).sigma[1][0][0] == qr.expected_w2_eigenvalue(ell)
    for t in range(7):
        assert qr.qbinom_product_identity(t)
    for ell in range(5):
        assert qr.braid_relations_hold(qr.braid_matrices(3, ell).sigma_v, 3, mat_mul)
    assert all(qr.form_identities(1).values())
    for (n, ell) in ((4, 1), (4, 2)):
        J, info = qr.intertwiner_J(qr.braid_matrices(n, ell))
        assert info["unique_up_to_scalar"] and info["invertible"]
        assert info["conjugates_transpose"] and info["phi_squared_scalar"]
    dt = time.time() - t0
    assert dt < 120, f"quantum suite took {dt:.1f}s"
    _report(8, f"dims, relations, eigenvalues, decompositions, YB, starred "
               f"identities, intertwiners, all exact, {dt:.1f}s")


def test_criterion_09_specialization():
    mats = qr.braid_matrices(4, 2)
    J, _ = qr.intertwiner_J(mats)
    rep = qr.specialize(mats, 1009, 3, 5, J=J)
    assert rep["relations_hold"]
    assert not rep["sigma1_eq_sigma3_projectively"]
    assert rep["x_nonscalar"]
    _report(9, "W_4,2 at (q0,s0)=(3,5) over F_1009: relations hold, "
               "sigma1 != sigma3 projectively, x nonscalar")


def test_criterion_10_permutation_group_oracle():
    def cyc(n, *cycles):
        p = list(range(n))
        for c in cycles:
            for i, j in zip(c, c[1:]):
                p[i] = j
            p[c[-1]] = c[0]
        return p

    corpus = []
    for n in range(3, 9):
        corpus.append((f"S{n}", [cyc(n, tuple(range(n))), cyc(n, (0, 1))], n))
        an_second = cyc(n, tuple(range(n))) if n % 2 else cyc(n, tuple(range(1, n)))
        corpus.append((f"A{n}", [cyc(n, (0, 1, 2)), an_second], n))
        corpus.append((f"C{n}", [cyc(n, tuple(range(n)))], n))
    corpus += [
        ("Klein4", [cyc(4, (0, 1), (2, 3)), cyc(4, (0, 2), (1, 3))], 4),
        ("D6", [cyc(6, tuple(range(6))), [(6 - i) % 6 for i in range(6)]], 6),
        ("C2wrC3", [cyc(6, (0, 1)), cyc(6, (2, 3)), cyc(6, (4, 5)),
                    cyc(6, (0, 2, 4), (1, 3, 5))], 6),
        ("C2wrC4", [cyc(8, (0, 1)), cyc(8, (0, 2, 4, 6), (1, 3, 5, 7))], 8),
        ("S12", [cyc(12, tuple(range(12))), cyc(12, (0, 1))], 12),
        ("A12", [cyc(12, (0, 1, 2)), cyc(12, tuple(range(1, 12)))], 12),
    ]
    assert len(corpus) >= 20
    agree = 0
    for name, gens, n in corpus:
        order = pg.schreier_sims(gens, n).order
        cls = pg.classify_giant(gens, n, seed=11)
        if order == factorial(n):
            assert cls.kind == "Symmetric", name
        elif 2 * order == factorial(n):
            assert cls.kind == "Alternating", name
        else:
            assert cls.kind == "Inconclusive", name
        agree += 1
    _report(10, f"{agree}/{len(corpus)} groups: classify_giant agrees with "
                "exact Schreier-Sims orders")
