import hashlib
import io
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from charquo import braidquandle as bq
from charquo import charvar as cv
from charquo import numutil
from charquo import witness as wt
from charquo.cli import to_json
from charquo.ffield import (I2, ElementClass, PrimeField, ProjMat2, adj, classify, eq,
                            exact_conjugator, first_nonzero_np, mm, neg, pack_np, pgl_canon,
                            pgl_canon_np, psl_canon, torus_pencil, tr, tr_mm, unpack_np)
from charquo.numutil import InvariantError

# sha256 of the to_json text of run_pipeline(19, seed=7) without "timings_ms"
REPORT19_SEED7_SHA256 = "befefe47cbc4a369cb549f99b8f678c6fa8bca83d14bbb63fbb610901b78c996"


def test_find_prime():
    assert wt.find_prime(2, "strict") == 271
    assert wt.find_prime(2, "relaxed") == 17
    assert wt.find_prime(20, "relaxed") == 23
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
    p = F.p
    A, B, C, D = (X.m for X in cfg19.P)
    assert psl_canon(F, mm(p, A, adj(p, B))) == psl_canon(F, cfg19.u)
    assert psl_canon(F, mm(p, B, adj(p, C))) == psl_canon(F, cfg19.v)
    assert psl_canon(F, mm(p, C, adj(p, D))) == psl_canon(F, cfg19.w)


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
    assert all(tr(F.p, m) == 2 for m in unis)


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


def _reference_solutions(params):
    """Every solution tuple of the membership equations, as an (N, 7)
    array: the full scan over both signs eps and every (a, b), without
    the flip-orbit slice that count_x uses."""
    F, p = params.F, params.F.p
    idx = np.arange(p, dtype=np.int64)
    c3, x3, z3 = (v.ravel() for v in np.meshgrid(idx, idx, idx, indexing="ij"))
    found = []
    for eps in (1, -1):
        y0 = eps * params.tdelta % p
        target = eps * (params.tgamma + params.tdelta) % p
        for a in range(p):
            for b in range(p):
                if b:
                    c, x, z = c3, x3, z3
                    p7 = (target - a * c3 + x3 * z3) % p * F.inv(b) % p
                else:
                    m0 = (a * c3 - x3 * z3) % p == target
                    c, x, z = (np.tile(v[m0], p) for v in (c3, x3, z3))
                    p7 = np.repeat(idx, int(m0.sum()))
                t = (a, b, c, x, y0, z, p7)
                m = cv.fricke_value(t, p) == 0
                found.append(np.stack([np.broadcast_to(v, m.shape)[m] for v in t], axis=-1))
    return np.concatenate(found)


@pytest.mark.parametrize("p", [17, 19, 23])
def test_count_x_matches_reference_scan(p):
    params = wt.build(p).params
    sols = _reference_solutions(params)
    assert wt.count_x(params) == len(np.unique(cv.canon_keys_np(p, sols)))


def test_flip_orbits_meet_the_count_slice(cfg19):
    # the reduction count_x relies on: the solution set is closed under
    # the 8 flips, and each flip orbit has a member in its slice
    p, params = cfg19.p, cfg19.params
    sols = _reference_solutions(params)
    packed = np.sort(pack_np(p, sols))
    half = (p - 1) // 2
    in_slice = np.zeros(len(sols), dtype=bool)
    for signs in cv.FLIP_SIGNS:
        img = np.where(np.array(signs) == 1, sols, (p - sols) % p)
        img_packed = pack_np(p, img)
        pos = np.minimum(np.searchsorted(packed, img_packed), len(packed) - 1)
        assert (packed[pos] == img_packed).all(), signs
        in_slice |= ((img[:, 4] == params.tdelta % p)
                     & (img[:, 0] <= half) & (img[:, 1] <= half))
    assert in_slice.all()


def test_count_x_equals_orbit_p31(cfg31, orbit31):
    assert wt.count_x(cfg31.params) == orbit31.n == 230400


def _companion(p, t):
    return (0, p - 1, 1, t % p)


def _halves(p, g, h):
    """The proof of x_size by brute force: every PSL2 quadruple (A, B, C,
    D), one lift per element, with A B^-1 C D^-1 = g exactly (D =
    g^-1 A B^-1 C), sorted by the relative sign e of A^-1 B C^-1 D = e h.
    Returns {e: (m, 16) rows}; C runs over the lifts one at a time."""
    sl2 = wt._all_sl2(PrimeField(p))
    psl = sl2[first_nonzero_np(sl2.T) <= (p - 1) // 2]
    A, B = np.repeat(psl, len(psl), axis=0).T, np.tile(psl, (len(psl), 1)).T
    ab, a_b, gi = mm(p, A, adj(p, B)), mm(p, adj(p, A), B), adj(p, g)
    rows = {1: [], -1: []}
    for C in psl.tolist():
        D = mm(p, gi, mm(p, ab, C))
        word = mm(p, mm(p, a_b, adj(p, C)), D)
        for e in rows:
            hit = eq(word, h if e == 1 else neg(p, h))
            Cs = np.broadcast_to(np.array(C)[:, None], (4, int(np.count_nonzero(hit))))
            rows[e].append(np.stack([*A[:, hit], *B[:, hit], *Cs, *(d[hit] for d in D)], axis=1))
    return {e: np.concatenate(r) for e, r in rows.items()}


def test_x_size_proof_by_brute_force_p7():
    # gamma split (trace 1) and delta non-split (trace 3) at p = 7: each
    # relative-sign half holds (p^2 - 1)^3 / 8 quadruples, and the
    # (p^2 - 1)/2 gauge pairs act freely on it (the exact key refuses a
    # tie), leaving ((p^2 - 1)/2)^2 classes
    p = 7
    g, h = _companion(p, 1), _companion(p, 3)
    F = PrimeField(p)
    assert (classify(ProjMat2.of(F, g)), classify(ProjMat2.of(F, h))) == \
        (ElementClass.SPLIT, ElementClass.NONSPLIT)
    pairs = wt._pair_arrays(cv.Params(F, g, h))
    assert pairs[0].shape == (4, (p * p - 1) // 2)
    for e, rows in _halves(p, g, h).items():
        assert len(rows) == (p * p - 1) ** 3 // 8 == 13824, e
        keys = wt._exact_keys_np(p, rows, *pairs)
        assert len(np.unique(keys, axis=0)) == wt.x_size(p) == 576, e


@pytest.mark.parametrize("p", [7, 11, 13, 17])
def test_x_size_is_count_x_at_every_trace_pair(p):
    # companions of every trace pair off {0, +-2} with one split and one
    # non-split: the theorem's count and the membership equations' agree
    F = PrimeField(p)
    kind = {t: classify(ProjMat2.of(F, _companion(p, t)))
            for t in range(p) if t not in (0, 2, p - 2)}
    pairs = [(a, b) for a in kind for b in kind
             if {kind[a], kind[b]} == {ElementClass.SPLIT, ElementClass.NONSPLIT}]
    assert pairs
    for a, b in pairs:
        params = cv.Params(F, _companion(p, a), _companion(p, b))
        assert wt.count_x(params) == wt.x_size(p), (a, b)


@pytest.mark.parametrize("p", [17, 19, 23, 31])
def test_x_size_is_count_x_at_the_witness(p):
    assert wt.count_x(wt.build(p).params) == wt.x_size(p)


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
    # the whole report, apart from the wall clock, is pinned byte for byte
    assert (cert["q"], len(cert["word"])) == (27941, 22)
    del rep["timings_ms"]
    buf = io.StringIO()
    to_json(rep, buf)
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == REPORT19_SEED7_SHA256


def test_run_pipeline_gamma_nonsplit():
    # at p = 17, gamma is non-split and delta split: the gate accepts
    # either assignment, and the pipeline certifies
    rep = wt.run_pipeline(17, seed=0, include_permutations=False)
    assert rep["assumptions"]["gamma_class"] == "nonsplit"
    assert rep["assumptions"]["delta_class"] == "split"
    assert rep["n"] == rep["x_count"] == 20736
    assert rep["classification"] in ("Alternating", "Symmetric")
    assert rep["f2_x_nontrivial"] and rep["f2_x_sign"] == 1
    assert rep["certificate"] is not None
    assert rep["edges_verified"] == 5 * rep["n"] + 1


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
    """Packed images of the pairs (M2, M3) under conjugation by taus and
    the lift signs, by 2x2 arithmetic on the entry-major blocks m2 and
    m3: one row of images for each conjugation and pair of signs."""
    p = F.p
    out = []
    for t in taus:
        c2, c3 = wt._conj_by(F, t, m2), wt._conj_by(F, t, m3)
        for s2 in (c2, neg(p, c2)):
            for s3 in (c3, neg(p, c3)):
                out.append(_pack_pair(p, s2, s3))
    return np.stack(out)


def _gauge_taus(F, R1):
    """The residual conjugations of the gauge R1, as enumerate_x_classes
    builds them: the torus of R1, extended by rho (rho R1 rho^-1 = -R1)
    when tr R1 = 0."""
    taus = [(1, 0, 0, 1)] + [g for g, _ in torus_pencil(F, R1)]
    if tr(F.p, R1) == 0:
        rho = exact_conjugator(F, R1, neg(F.p, R1))
        taus += [pgl_canon(F, mm(F.p, rho, t)) for t in taus]
    return taus


def _brute_exact_keys(p, rows, pair_g, pair_d):
    """The full (K, 16) transformed rows and their lexicographic minimum."""
    # each entry of a block as an (m, 1) column, against the (K,) pair entries
    full = np.stack([x for j in range(0, 16, 4) for x in pgl_canon_np(
        p, mm(p, mm(p, pair_g, [v[:, None] for v in rows[:, j:j + 4].T]), pair_d))],
        axis=-1)  # (m, K, 16)
    return [min(map(tuple, r)) for r in full.tolist()], full


def _rank_one_rows(params, rng):
    """20 rows whose block A is rank one with image an eigenvector v of
    gamma, so ghat A = A projectively for every ghat in C(gamma): every
    pair of one dhat attains the least image of A."""
    F = params.F
    p = F.p
    gm = params.gamma_mat
    v = next((x, y) for x in range(p) for y in range(p) if (x, y) != (0, 0)
             and (gm[0] * x + gm[1] * y) * y % p == (gm[2] * x + gm[3] * y) * x % p)
    w = rng.integers(1, p, size=(20, 2))
    A = np.stack([v[0] * w[:, 0], v[0] * w[:, 1], v[1] * w[:, 0], v[1] * w[:, 1]], axis=1) % p
    return np.concatenate([A, _random_rows(F, rng, 20)[:, 4:]], axis=1)


def _random_rows(F, rng, m):
    """m rows of four random SL2 blocks each, off X almost surely."""
    sl2 = wt._all_sl2(F)
    return sl2[rng.integers(0, len(sl2), size=(m, 4))].reshape(m, 16)


def _packed_brute_keys(p, rows, pair_g, pair_d):
    brute, _ = _brute_exact_keys(p, rows, pair_g, pair_d)
    return [[int(pack_np(p, np.array(k[:8]))), int(pack_np(p, np.array(k[8:])))] for k in brute]


def test_exact_keys_np_against_brute_force(cfg19, orbit19):
    F, params, p = cfg19.F, cfg19.params, 19
    pair_g, pair_d = wt._pair_arrays(params)
    rng = np.random.default_rng(11)
    idx = rng.choice(orbit19.n, size=40, replace=False)
    points = orbit19.points[idx]

    # rebuilt rows: the same classes reached through their trace triples
    triples = []
    for row in points.tolist():
        A, B, C, D = (tuple(row[j:j + 4]) for j in range(0, 16, 4))
        triples.append((mm(p, adj(p, B), A), mm(p, adj(p, A), C), mm(p, adj(p, D), C)))
    triples = np.array(triples, dtype=np.int64)
    pairs = pack_np(p, triples[:, 1:].reshape(-1, 8))
    rebuilt = wt._rebuild_rows(p, triples[:, 0].T, pairs, params, "orbit")
    assert (rebuilt != points).any(axis=1).all()

    rows = np.concatenate([points, rebuilt, _random_rows(F, rng, 40)])
    keys = wt._exact_keys_np(p, rows, pair_g, pair_d)
    _, full = _brute_exact_keys(p, rows, pair_g, pair_d)
    assert keys.tolist() == _packed_brute_keys(p, rows, pair_g, pair_d)
    assert (keys[:len(idx)] == keys[len(idx):2 * len(idx)]).all()

    # one pair attains the least image of each invertible block A
    first = pack_np(p, full[:, :, :4])
    assert ((first == first.min(axis=1, keepdims=True)).sum(axis=1) == 1).all()

    # both halves of the scalar key, on a few rows of each kind
    for row, key in zip(rows[::10].tolist(), keys[::10].tolist()):
        Q = [SimpleNamespace(m=tuple(row[j:j + 4])) for j in range(0, 16, 4)]
        scalar = cv.key_exact(Q, params)
        assert key == [int(pack_np(p, np.array(scalar[:8]))), int(pack_np(p, np.array(scalar[8:])))]


def test_exact_keys_np_refuses_a_tied_block_a(cfg19):
    # a rank-one A is fixed by all of C(gamma), so several pairs attain
    # its least image and the one-pair key would not be sound
    params, p = cfg19.params, 19
    rows = _rank_one_rows(params, np.random.default_rng(13))
    with pytest.raises(InvariantError, match=r"exact keys at p=19: \d+ pairs attain .* block A"):
        wt._exact_keys_np(p, rows, *wt._pair_arrays(params))


def test_exact_keys_np_in_small_chunks(cfg19, orbit19, monkeypatch):
    # distinct A blocks and rows both split into several chunks; one A
    # block recurs with other B, C, D in rows of different chunks
    F, params, p = cfg19.F, cfg19.params, 19
    pair_g, pair_d = wt._pair_arrays(params)
    rng = np.random.default_rng(12)
    points = orbit19.points[rng.choice(orbit19.n, size=30, replace=False)].astype(np.int64)
    shared = np.concatenate([np.repeat(points[:1, :4], 12, axis=0),
                             points[rng.integers(0, 30, size=12), 4:]], axis=1)
    rows = np.concatenate([points, shared, _random_rows(F, rng, 240)])  # 282 rows, 135 a chunk
    rows = rows[rng.permutation(len(rows))]

    row_chunks, a_calls = [], []
    slices, apply_np = numutil.slices, wt._apply_np

    def recorded(n, width=1):
        cut = slices(n, width)
        if width == 16:
            row_chunks.extend(cut)
        return cut

    monkeypatch.setattr(numutil, "SLICE_ENTRIES", 4 * pair_g.shape[1] * 3)
    monkeypatch.setattr(wt, "slices", recorded)
    monkeypatch.setattr(wt, "_apply_np", lambda p, X, ops: a_calls.append(len(X))
                        or apply_np(p, X, ops))
    keys = wt._exact_keys_np(p, rows, pair_g, pair_d)
    assert keys.tolist() == _packed_brute_keys(p, rows, pair_g, pair_d)

    distinct_a = len(np.unique(pack_np(p, rows[:, :4])))
    assert sum(a_calls) == distinct_a and len(a_calls) > 1 and max(a_calls) == 3
    assert sum(c.stop - c.start for c in row_chunks) == len(rows) and len(row_chunks) > 1
    assert sum((rows[c, :4] == points[0, :4]).all(axis=1).any() for c in row_chunks) > 1


def test_exact_keys_transient_bounded_by_slices(cfg19, orbit19):
    # the exact-key oracle's slices hold at most four int64 temporaries
    # of SLICE_ENTRIES entries at once (for the A blocks, the float64
    # product, its int64 copy and its residue in _apply_np, then that
    # residue, the pgl-canonical digits and their stack in _canon_packed;
    # for the rows, the widened rows, their operators and the product,
    # then its residue, digits and stack), beside 40 bytes per row of
    # whole-array bookkeeping (the packed A blocks, np.unique's sorted
    # copy and inverse); 2^20-entry slices peaked at about 25.5 MB here
    tracemalloc.start()
    try:
        keys = wt.orbit_exact_keys(orbit19, cfg19.params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < keys.nbytes + 40 * orbit19.n + 4 * 8 * numutil.SLICE_ENTRIES


def test_pair_keys_refuse_int64_overflow():
    top = 233 ** 4 - 1  # 233^8 < 2^63 < 239^8
    k2, k3 = np.array([0, 5, top]), np.array([7, 0, top])
    keys = wt._pair_keys(233, k2, k3)
    assert keys.tolist() == [7, 5 * 233 ** 4, 233 ** 8 - 1]
    assert (unpack_np(233 ** 4, keys, 2) == np.stack((k2, k3), axis=-1)).all()
    with pytest.raises(ValueError, match="overflow int64"):
        wt._pair_keys(239, k2, k3)


def _brute_pairs(p, sl2, R1, tg, td):
    """The packed (M2, M3) pairs of the gauge R1, listed over every M2."""
    S = sl2.T
    N = mm(p, mm(p, adj(p, S), R1), S)
    out = []
    for eps in (1, -1):
        M3s = sl2[tr_mm(p, R1, S) == eps * td % p]
        trace = sum(N[a][:, None] * M3s[:, b] for a, b in ((0, 0), (1, 2), (2, 1), (3, 3))) % p
        i, j = np.nonzero(trace == eps * tg % p)
        out.append(pack_np(p, sl2[i]) * p ** 4 + pack_np(p, M3s[j]))
    return np.unique(np.concatenate(out))


@pytest.mark.parametrize("p", [11, 13])
def test_representative_pairs_meet_every_orbit(p):
    # the M2 representatives are the least elements of their orbits, and
    # the orbits of the pairs listed for them (under the gauge's
    # conjugations and the lift signs) are all of the pairs listed over
    # every M2 and M3 of SL2
    F = wt.PrimeField(p)
    sl2 = wt._all_sl2(F)
    psl = sl2[first_nonzero_np(sl2.T) <= (p - 1) // 2]
    for name, R1 in wt._gauges(p):
        brute = _brute_pairs(p, sl2, R1, 3, 11)
        if name == "id":
            assert not len(brute) and not len(wt._list_pairs(p, np.array([I2]), psl, R1, 3, 11))
            continue
        taus = _gauge_taus(F, R1)
        reps = wt._m2_representatives(p, psl, R1, wt._conj_operators(p, taus), name)
        m2 = tuple(psl.T)
        least = np.min(_brute_orbit(F, taus, m2, m2), axis=0) // p ** 4  # packed M2 halves
        assert np.array_equal(reps, psl[pack_np(p, psl) == least]), name
        listed = wt._list_pairs(p, reps, psl, R1, 3, 11)
        assert len(np.unique(listed)) == len(listed), name
        digits = unpack_np(p, listed, 8).T
        covered = np.unique(_brute_orbit(F, taus, tuple(digits[:4]), tuple(digits[4:])))
        assert covered.tolist() == brute.tolist(), name


def test_rebuild_rejects_a_wrong_triple(cfg19):
    F, params, p = cfg19.F, cfg19.params, 19
    A, B, C, D = (X.m for X in cfg19.P)
    good = int(pack_np(p, np.array(mm(p, adj(p, A), C) + mm(p, adj(p, D), C))))
    good_m1 = mm(p, adj(p, B), A)
    one = (1, 0, 0, 1)
    ones = int(pack_np(p, np.array(one + one)))
    assert wt._rebuild_rows(p, good_m1, np.array([good]), params, "toy").shape == (1, 16)
    # M1 = M2 = M3 = 1: tr(M1 M2 M3 M2^-1) = 2 is not +-tr(gamma); the
    # first failing pair of the batch is named
    with pytest.raises(InvariantError,
                       match=f"^gauge toy, pair {ones}: tr\\(M1 M2 M3 M2\\^-1\\) = 2 is not "
                             "\\+-tr\\(gamma\\)"):
        wt._rebuild_rows(p, np.array([good_m1, one]).T, np.array([good, ones]), params, "toy")
    # M2 = M3 = 1: gamma(Q) = M1 passes with trace 3, delta(Q) = M1^-1
    # has trace 3, not 11
    with pytest.raises(InvariantError, match=f"^gauge toy, pair {ones}: tr\\(\\(M3 M1\\)\\^-1\\) = 3 "
                                              "does not match 11"):
        wt._rebuild_rows(p, (0, p - 1, 1, 3), np.array([ones]), params, "toy")


def test_enumerate_x_classes_names_gauge_and_pair(cfg19, monkeypatch):
    # a wrong conjugator (the identity) breaks the defining equation
    def identity(p, M, N):
        return tuple(np.full_like(M[0], x) for x in (1, 0, 0, 1))

    monkeypatch.setattr(wt, "conjugator_np", identity)
    with pytest.raises(InvariantError,
                       match=r"^gauge uni, pair \d+: rebuilt row \[.*\] has A B\^-1 C D\^-1 != gamma$"):
        wt.enumerate_x_classes(cfg19.params)


def test_enumerate_x_classes_orbit_fault_is_an_invariant(cfg19, monkeypatch):
    # a torus that is not a group breaks the oracle's own closure check:
    # an internal fault (exit 3 by class), not bad input
    conj_operators = wt._conj_operators
    monkeypatch.setattr(wt, "_conj_operators", lambda p, taus: conj_operators(p, taus)[:-1])
    with pytest.raises(InvariantError, match=r"^gauge uni: the least image \d+ of element \d+ "
                                             "is not a representative$") as ei:
        wt.enumerate_x_classes(cfg19.params)
    assert not isinstance(ei.value, ValueError)


def test_enumerate_x_classes_refuses_a_conjugation_that_moves_r1(cfg19, monkeypatch):
    # conjugation by the transpose of the unipotent gauge does not fix it,
    # so it would not map solution pairs to solution pairs
    conj_operators = wt._conj_operators
    monkeypatch.setattr(wt, "_conj_operators",
                        lambda p, taus: conj_operators(p, taus + [(1, 0, 1, 1)]))
    with pytest.raises(InvariantError, match=r"^gauge uni: conjugation 19 maps R1 to "
                                             r"\[\d+, \d+, \d+, \d+\], not \+-R1$"):
        wt.enumerate_x_classes(cfg19.params)


def test_enumerate_x_classes_p31_matches_orbit(cfg31, orbit31, exact_keys31):
    # an independent check of the trace key's injectivity at p = 31: the
    # classes of X~ are exactly the exact keys of the orbit's points
    count, class_keys = wt.enumerate_x_classes(cfg31.params)
    keys = pack_np(31, np.array(class_keys).reshape(-1, 2, 8))
    assert count == orbit31.n == 230400
    assert (keys == np.unique(exact_keys31, axis=0)).all()
