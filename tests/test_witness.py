from types import SimpleNamespace

import numpy as np
import pytest

from charquo import braidquandle as bq
from charquo import charvar as cv
from charquo import witness as wt
from charquo.ffield import (ElementClass, classify, mat_inv, mat_mul, mat_neg, mat_trace,
                            mm_np, pack_np, pgl_canon_np, psl_canon, torus_pencil)


def test_find_prime():
    assert wt.find_prime(2, "strict") == 271
    assert wt.find_prime(2, "relaxed") == 19
    assert wt.find_prime(20, "relaxed") == 31
    with pytest.raises(ValueError):
        wt.find_prime(2, "bogus")


def test_build_traces_and_classes(cfg31):
    assert cfg31.params.tgamma == 3
    assert cfg31.params.tdelta == 11
    assert classify(cfg31.params.gamma) is ElementClass.SPLIT
    assert classify(cfg31.params.delta) is ElementClass.NONSPLIT


def test_build_rejects_degenerate():
    for p in (5, 11, 13):
        with pytest.raises(wt.WitnessError):
            wt.build(p)


def test_sigma_matrices_of_P(cfg19):
    # A B^-1 = u, B C^-1 = v, C D^-1 = w on the canonical lifts
    F = cfg19.F
    A, B, C, D = (X.m for X in cfg19.P)
    from charquo.ffield import mat_inv, mat_mul
    assert psl_canon(F, mat_mul(F, A, mat_inv(F, B))) == psl_canon(F, cfg19.u)
    assert psl_canon(F, mat_mul(F, B, mat_inv(F, C))) == psl_canon(F, cfg19.v)
    assert psl_canon(F, mat_mul(F, C, mat_inv(F, D))) == psl_canon(F, cfg19.w)


def test_assumptions_at_desk_primes(cfg19, cfg31):
    r19 = wt.check_assumptions(cfg19)
    assert r19.nonconjugation_ok and r19.point_ok
    assert (r19.ord_gamma, r19.ord_delta) == (9, 10)
    assert not r19.large_orders_ok
    r31 = wt.check_assumptions(cfg31)
    assert (r31.ord_gamma, r31.ord_delta) == (15, 16)
    assert not r31.large_orders_ok
    assert r31.generation is True


def test_assumptions_at_271():
    rep = wt.check_assumptions(wt.build(271))
    assert rep.nonconjugation_ok and rep.point_ok
    assert rep.large_orders_ok
    assert max(rep.ord_gamma, rep.ord_delta) > 60


def test_generation_detects_reducible():
    F = wt.PrimeField(19)
    a = (1, 1, 0, 1)
    b = (1, 3, 0, 1)
    assert wt.generates_psl2(F, a, b) is not True


def test_proper_decomposition_first(cfg19):
    els, flags = wt.proper_decomposition(cfg19.P, "first")
    assert els[0] == cfg19.u
    assert els[2] == cfg19.w
    assert all(flags)
    with pytest.raises(ValueError):
        wt.proper_decomposition(cfg19.P, "third")


def test_proper_decomposition_products(cfg19, rng):
    letters = [bq.S1, bq.S1i, bq.S2, bq.S2i, bq.S3, bq.S3i]
    Q = cfg19.P
    for _ in range(60):
        Q = bq.apply_letter(rng.choice(letters), Q)
        for which in ("first", "second"):
            wt.proper_decomposition(Q, which)  # asserts x z and w y internally


def test_first_decomposition_invariant_under_s1_s3(cfg19, rng):
    F = cfg19.F
    Q = cfg19.P
    els0, _ = wt.proper_decomposition(Q, "first")
    canon0 = tuple(psl_canon(F, m) for m in els0)
    for _ in range(30):
        w = [rng.choice([bq.S1, bq.S1i, bq.S3, bq.S3i]) for _ in range(5)]
        Q = bq.apply_word(w, Q)
        els, _ = wt.proper_decomposition(Q, "first")
        assert tuple(psl_canon(F, m) for m in els) == canon0


def test_unipotent_enumeration_count():
    F = wt.PrimeField(19)
    unis = wt._trace2_unipotents(F)
    assert len(unis) == 19 * 19 - 1
    assert all(mat_trace(F, m) == 2 for m in unis)


def test_unipotent_decompositions_unique(cfg19):
    classes = wt.unipotent_decompositions(cfg19.params)
    assert len(classes) == 1
    els, _ = wt.proper_decomposition(cfg19.P, "first")
    dec = wt.normalize_unipotent_decomposition(cfg19.F, els)
    assert dec[0] + dec[1] + dec[2] + dec[3] in set(classes[0])


def test_count_x_budget(cfg19):
    with pytest.raises(wt.BudgetError):
        wt.count_x(cfg19.params, max_prime=7)


def test_count_x_bounds_orbit(cfg19, orbit19):
    count = wt.count_x(cfg19.params)
    assert orbit19.n <= count


def test_count_x_rejects_bad_params():
    # both gamma and delta split at p = 101: precondition fails
    cfg = wt.build(101)
    with pytest.raises(wt.WitnessError):
        wt.count_x(cfg.params, max_prime=101)


def test_run_pipeline_report_shape():
    rep = wt.run_pipeline(19, seed=7, include_permutations=True)
    assert rep["p"] == 19
    assert rep["classification"] in ("Alternating", "Symmetric")
    assert rep["f2_x_nontrivial"] and rep["f2_x_sign"] == 1
    assert rep["x_count"] == rep["n"]
    assert rep["exact_dedup_verified"]
    perms = rep["permutations"]
    assert sorted(perms) == ["epsilon", "sigma1", "sigma2", "sigma3", "x", "y"]
    n = rep["n"]
    for arr in perms.values():
        assert sorted(arr) == list(range(n))
    # the certificate and signs revalidate from the serialized permutations
    from charquo.permgrp import GiantCertificate, sign
    cert = rep["certificate"]
    gens = [perms["sigma1"], perms["sigma2"], perms["sigma3"], perms["epsilon"]]
    assert GiantCertificate([tuple(w) for w in cert["word"]], cert["q"], n).revalidate(gens)
    assert {k: sign(v) for k, v in
            zip(("sigma1", "sigma2", "sigma3", "epsilon"), gens)} == rep["generator_signs"]


def test_psl_order_table(cfg19):
    table = wt.psl_order_by_trace(cfg19.F)
    assert table[2] == 19      # unipotent trace
    assert table[0] == 2       # involution
    assert table[3] == 9       # split of full order at p = 19


def test_enumerate_x_classes_budget(cfg19):
    with pytest.raises(wt.BudgetError):
        wt.enumerate_x_classes(cfg19.params, max_prime=7)


def test_enumerate_x_classes_rejects_bad_params():
    # both gamma and delta split at p = 101: precondition fails
    cfg = wt.build(101)
    with pytest.raises(wt.WitnessError):
        wt.enumerate_x_classes(cfg.params, max_prime=101)


def _pack_pair(p, m2, m3):
    key = 0
    for v in m2 + m3:
        key = key * p + v
    return key


def _brute_orbit(F, taus, m2, m3):
    """Packed images of (M2, M3) under conjugation by taus and the lift
    signs, by scalar arithmetic."""
    p = F.p
    out = set()
    for t in taus:
        c2, c3 = wt._conj_by(F, t, m2), wt._conj_by(F, t, m3)
        for s2 in (c2, mat_neg(F, c2)):
            for s3 in (c3, mat_neg(F, c3)):
                out.add(_pack_pair(p, s2, s3))
    return out


def test_orbit_minima_match_brute_force():
    F = wt.PrimeField(11)
    p = F.p
    R1 = (0, p - 1, 1, 3)
    taus = [(1, 0, 0, 1)] + [g for g, _ in torus_pencil(F, R1)]
    sl2 = wt._all_sl2(F).tolist()
    rng = np.random.default_rng(5)
    orbits = {}
    for i, j in rng.integers(0, len(sl2), size=(40, 2)):
        orb = _brute_orbit(F, taus, tuple(sl2[i]), tuple(sl2[j]))
        orbits[min(orb)] = orb
    raw = np.array(sorted(set().union(*orbits.values())), dtype=np.int64)
    ops = wt._conj_operators(p, taus)
    reps = wt._orbit_minima(p, raw, ops, "toy")
    assert reps.tolist() == sorted(orbits)

    # a non-group operator set: the orbits no longer partition the pairs
    with pytest.raises(wt.WitnessError, match="gauge toy: the orbits of pairs .* overlap"):
        wt._orbit_minima(p, raw, ops[np.arange(len(ops)) != 2], "toy")
    # a pair set that is not a union of orbits
    missing = max(orbits[reps[0]])
    with pytest.raises(wt.WitnessError, match=f"gauge toy: .* leaves the solution set at pair {missing}$"):
        wt._orbit_minima(p, raw[raw != missing], ops, "toy")
    # a stray pair whose sign-canonical partners are absent gets no label
    stray = next(max(orb) for orb in (_brute_orbit(F, taus, tuple(a), tuple(b))
                                      for a, b in zip(sl2, sl2[::-1])) if not orb & set(raw.tolist()))
    with pytest.raises(wt.WitnessError, match=f"gauge toy: pair {stray} lies in no"):
        wt._orbit_minima(p, np.sort(np.append(raw, stray)), ops, "toy")


def _brute_exact_keys(p, rows, pair_g, pair_d):
    """The full (K, 16) transformed rows and their lexicographic minimum."""
    full = np.concatenate([pgl_canon_np(p, mm_np(p, mm_np(p, pair_g, rows[:, None, j:j + 4]), pair_d))
                           for j in range(0, 16, 4)], axis=-1)  # (m, K, 16)
    return [min(map(tuple, r)) for r in full.tolist()], full


def test_exact_keys_np_against_brute_force(cfg19, orbit19):
    F, params, p = cfg19.F, cfg19.params, 19
    pair_g, pair_d = wt._pair_arrays(params)
    rng = np.random.default_rng(11)
    idx = rng.choice(orbit19.n, size=40, replace=False)
    points = orbit19.points[idx]

    # rebuilt rows: the same classes reached through their trace triples
    rebuilt = []
    for row in points.tolist():
        A, B, C, D = (tuple(row[j:j + 4]) for j in range(0, 16, 4))
        rebuilt.append(wt._rebuild_quad_row(F, mat_mul(F, mat_inv(F, B), A),
                                            mat_mul(F, mat_inv(F, A), C),
                                            mat_mul(F, mat_inv(F, D), C), params))
    rebuilt = np.array(rebuilt, dtype=np.int64)
    assert (rebuilt != points).any(axis=1).all()

    # synthetic rows with forced ties: A and B are rank one with image
    # an eigenvector v of gamma, so ghat A = A projectively for every
    # ghat in C(gamma), and the (A, B) half depends on dhat alone
    gm = params.gamma_mat
    v = next((x, y) for x in range(p) for y in range(p) if (x, y) != (0, 0)
             and (gm[0] * x + gm[1] * y) * y % p == (gm[2] * x + gm[3] * y) * x % p)
    sl2 = wt._all_sl2(F)
    synthetic = []
    for _ in range(20):
        w1, w2 = rng.integers(1, p, size=2), rng.integers(1, p, size=2)
        C, D = sl2[rng.integers(0, len(sl2), size=2)]
        A = [v[0] * w1[0] % p, v[0] * w1[1] % p, v[1] * w1[0] % p, v[1] * w1[1] % p]
        B = [v[0] * w2[0] % p, v[0] * w2[1] % p, v[1] * w2[0] % p, v[1] * w2[1] % p]
        synthetic.append(A + B + list(C) + list(D))
    synthetic = np.array(synthetic, dtype=np.int64)

    rows = np.concatenate([points, rebuilt, synthetic])
    keys = wt._exact_keys_np(p, rows, pair_g, pair_d)
    brute, full = _brute_exact_keys(p, rows, pair_g, pair_d)
    assert keys.tolist() == [[int(pack_np(p, np.array(k[:8]))), int(pack_np(p, np.array(k[8:])))]
                             for k in brute]
    assert (keys[:len(idx)] == keys[len(idx):2 * len(idx)]).all()
    # the tie path ran: several pairs attain the minimal (A, B) half
    first = pack_np(p, full[2 * len(idx):, :, :8])
    assert ((first == first.min(axis=1, keepdims=True)).sum(axis=1) > 1).all()

    # both halves of the scalar key, on a few rows of each kind
    for row, key in zip(rows[::10].tolist(), keys[::10].tolist()):
        Q = [SimpleNamespace(m=tuple(row[j:j + 4])) for j in range(0, 16, 4)]
        scalar = cv.key_exact(Q, params)
        assert key == [int(pack_np(p, np.array(scalar[:8]))), int(pack_np(p, np.array(scalar[8:])))]


def test_rebuild_rejects_a_wrong_triple(cfg19):
    F = cfg19.F
    # M1 = M2 = M3 = 1: tr(M1 M2 M3 M2^-1) = 2 is not +-tr(gamma)
    with pytest.raises(wt.WitnessError, match="tr\\(gamma\\)"):
        wt._rebuild_quad_row(F, (1, 0, 0, 1), (1, 0, 0, 1), (1, 0, 0, 1), cfg19.params)


def test_enumerate_x_classes_names_gauge_and_pair(cfg19, monkeypatch):
    def fail(F, M1, M2, M3, params):
        raise wt.WitnessError("forced")

    monkeypatch.setattr(wt, "_rebuild_quad_row", fail)
    with pytest.raises(wt.WitnessError, match=r"^gauge uni, pair \d+: forced$"):
        wt.enumerate_x_classes(cfg19.params)
