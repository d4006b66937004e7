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
from charquo.ffield import (ElementClass, adj, classify, eq, exact_conjugator, first_nonzero_np,
                            mm, neg, pack_np, pgl_canon, pgl_canon_np, psl_canon, torus_pencil,
                            tr, tr_mm, unpack_np)
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
    """Packed images of (M2, M3) under conjugation by taus and the lift
    signs, by scalar arithmetic."""
    p = F.p
    out = set()
    for t in taus:
        c2, c3 = wt._conj_by(F, t, m2), wt._conj_by(F, t, m3)
        for s2 in (c2, neg(p, c2)):
            for s3 in (c3, neg(p, c3)):
                out.add(_pack_pair(p, s2, s3))
    return out


def _gauge_taus(F, R1):
    """The residual conjugations of the gauge R1, as enumerate_x_classes
    builds them: the torus of R1, extended by rho (rho R1 rho^-1 = -R1)
    when tr R1 = 0."""
    taus = [(1, 0, 0, 1)] + [g for g, _ in torus_pencil(F, R1)]
    if tr(F.p, R1) == 0:
        rho = exact_conjugator(F, R1, neg(F.p, R1))
        taus += [pgl_canon(F, mm(F.p, rho, t)) for t in taus]
    return taus


def _toy_orbits(F, taus):
    """The orbits of 40 random pairs under taus and the lift signs,
    keyed by their minima, and their union as a sorted array."""
    sl2 = wt._all_sl2(F).tolist()
    rng = np.random.default_rng(5)
    orbits = {}
    for i, j in rng.integers(0, len(sl2), size=(40, 2)):
        orb = _brute_orbit(F, taus, tuple(sl2[i]), tuple(sl2[j]))
        orbits[min(orb)] = orb
    return orbits, np.array(sorted(set().union(*orbits.values())), dtype=np.int64)


def test_orbit_minima_match_brute_force(monkeypatch):
    F = wt.PrimeField(11)
    p = F.p
    apply_np = wt._apply_np
    # split torus, unipotent, and the dihedral trace-0 gauge (torus and rho)
    for R1, n_gens in (((0, p - 1, 1, 3), 1), ((1, 1, 0, 1), 1), ((0, p - 1, 1, 0), 2)):
        taus = _gauge_taus(F, R1)
        orbits, raw = _toy_orbits(F, taus)
        ops = wt._conj_operators(p, taus)
        # the label pass maps the sign-canonical quarter once per half,
        # by the few generators; only the partition check applies all
        # of ops
        calls = []
        with monkeypatch.context() as m:
            m.setattr(wt, "_apply_np",
                      lambda p, X, ops: calls.append((len(X), len(ops))) or apply_np(p, X, ops))
            reps = wt._orbit_minima(p, raw, ops, "toy")
        assert reps.tolist() == sorted(orbits), R1
        assert [c for c in calls if c[1] != len(ops)] == [(len(raw) // 4, n_gens)] * 2, R1

    taus = _gauge_taus(F, (0, p - 1, 1, 3))
    orbits, raw = _toy_orbits(F, taus)
    ops = wt._conj_operators(p, taus)
    reps = wt._orbit_minima(p, raw, ops, "toy")
    # a non-group operator set: its maps generate the whole torus, whose
    # orbits label the pairs, but the images under the set itself miss
    # pairs of those orbits
    kept = [t for i, t in enumerate(taus) if i != 2]
    covered = set().union(*(_brute_orbit(F, kept, tuple(d[:4]), tuple(d[4:]))
                            for d in unpack_np(p, reps, 8).tolist()))
    uncovered = min(set(raw.tolist()) - covered)
    with pytest.raises(InvariantError,
                       match=f"^gauge toy: pair {uncovered} lies in no representative's orbit$"):
        wt._orbit_minima(p, raw, ops[np.arange(len(ops)) != 2], "toy")
    # generators of a proper subgroup: their orbits split those of ops,
    # and the images under ops of two representatives overlap
    gens, orders = wt._generators(p, ops)
    square = (gens[0] @ gens[0] % p)[None], [orders[0] // 2]
    with monkeypatch.context() as m:
        m.setattr(wt, "_generators", lambda p, ops: square)
        with pytest.raises(InvariantError,
                           match=r"^gauge toy: the orbits of pairs \d+ and \d+ overlap at pair \d+$"):
            wt._orbit_minima(p, raw, ops, "toy")
    # a pair set that is not a union of orbits: a sign-canonical pair is
    # missed by the label pass, any other by the partition check
    for missing in (reps[0], max(orbits[reps[0]])):
        with pytest.raises(InvariantError, match=f"^gauge toy: the orbit of pair \\d+ leaves "
                                                 f"the solution set at pair {missing}$"):
            wt._orbit_minima(p, raw[raw != missing], ops, "toy")
    # a stray pair whose sign-canonical partners are absent gets no label
    sl2 = wt._all_sl2(F).tolist()
    stray = next(max(orb) for orb in (_brute_orbit(F, taus, tuple(a), tuple(b))
                                      for a, b in zip(sl2, sl2[::-1])) if not orb & set(raw.tolist()))
    with pytest.raises(InvariantError, match=f"^gauge toy: pair {stray} lies in no"):
        wt._orbit_minima(p, np.sort(np.append(raw, stray)), ops, "toy")
    # both at once: as many images as pairs, yet not the same ones
    missing = max(orbits[reps[0]])
    swapped = np.sort(np.append(raw[raw != missing], stray))
    with pytest.raises(InvariantError, match=f"^gauge toy: the orbit of pair \\d+ leaves "
                                             f"the solution set at pair {missing}$"):
        wt._orbit_minima(p, swapped, ops, "toy")


def _brute_exact_keys(p, rows, pair_g, pair_d):
    """The full (K, 16) transformed rows and their lexicographic minimum."""
    # each entry of a block as an (m, 1) column, against the (K,) pair entries
    full = np.stack([x for j in range(0, 16, 4) for x in pgl_canon_np(
        p, mm(p, mm(p, pair_g, [v[:, None] for v in rows[:, j:j + 4].T]), pair_d))],
        axis=-1)  # (m, K, 16)
    return [min(map(tuple, r)) for r in full.tolist()], full


def _tie_rows(params, rng):
    """40 rows with forced ties.  In the first 20, A and B are rank one
    with image an eigenvector v of gamma, so ghat A = A projectively for
    every ghat in C(gamma), and the (A, B) half depends on dhat alone;
    the last 20 tie on A alone: A as above, B generic, so B breaks the
    tie."""
    F = params.F
    p = F.p
    gm = params.gamma_mat
    v = next((x, y) for x in range(p) for y in range(p) if (x, y) != (0, 0)
             and (gm[0] * x + gm[1] * y) * y % p == (gm[2] * x + gm[3] * y) * x % p)
    sl2 = wt._all_sl2(F)

    def rank_one():
        w = rng.integers(1, p, size=2)
        return [v[0] * w[0] % p, v[0] * w[1] % p, v[1] * w[0] % p, v[1] * w[1] % p]

    synthetic = []
    for _ in range(20):
        A, B = rank_one(), rank_one()
        C, D = sl2[rng.integers(0, len(sl2), size=2)]
        synthetic.append(A + B + list(C) + list(D))
    for _ in range(20):
        A = rank_one()
        B, C, D = sl2[rng.integers(0, len(sl2), size=3)]
        synthetic.append(A + list(B) + list(C) + list(D))
    return np.array(synthetic, dtype=np.int64)


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

    synthetic = _tie_rows(params, rng)
    rows = np.concatenate([points, rebuilt, synthetic])
    keys = wt._exact_keys_np(p, rows, pair_g, pair_d)
    _, full = _brute_exact_keys(p, rows, pair_g, pair_d)
    assert keys.tolist() == _packed_brute_keys(p, rows, pair_g, pair_d)
    assert (keys[:len(idx)] == keys[len(idx):2 * len(idx)]).all()

    def ties(width):
        # the number of pairs attaining the minimal packed first width entries
        first = pack_np(p, full[2 * len(idx):, :, :width])
        return (first == first.min(axis=1, keepdims=True)).sum(axis=1)

    # both tie paths ran: several pairs attain the minimal (A, B) half of
    # the first synthetic rows; of the second, several attain the
    # minimal A and fewer the minimal (A, B)
    ties_a, ties_ab = ties(4), ties(8)
    assert (ties_ab[:20] > 1).all()
    assert (ties_a[20:] > 1).all() and (ties_ab[20:] < ties_a[20:]).all()

    # both halves of the scalar key, on a few rows of each kind
    for row, key in zip(rows[::10].tolist(), keys[::10].tolist()):
        Q = [SimpleNamespace(m=tuple(row[j:j + 4])) for j in range(0, 16, 4)]
        scalar = cv.key_exact(Q, params)
        assert key == [int(pack_np(p, np.array(scalar[:8]))), int(pack_np(p, np.array(scalar[8:])))]


def test_exact_keys_np_in_small_chunks(cfg19, orbit19, monkeypatch):
    # distinct A blocks and rows both split into several chunks; one A
    # block recurs with other B, C, D in rows of different chunks
    params, p = cfg19.params, 19
    pair_g, pair_d = wt._pair_arrays(params)
    rng = np.random.default_rng(12)
    points = orbit19.points[rng.choice(orbit19.n, size=30, replace=False)].astype(np.int64)
    shared = np.concatenate([np.repeat(points[:1, :4], 12, axis=0),
                             points[rng.integers(0, 30, size=12), 4:]], axis=1)
    rows = np.concatenate([points, shared, _tie_rows(params, rng)])
    rows = rows[rng.permutation(len(rows))]

    chunks, a_calls = [], []
    entry_major, apply_np = wt.entry_major, wt._apply_np
    monkeypatch.setattr(numutil, "SLICE_ENTRIES", 4 * pair_g.shape[1] * 3)
    monkeypatch.setattr(wt, "entry_major", lambda r: chunks.append(r) or entry_major(r))
    monkeypatch.setattr(wt, "_apply_np", lambda p, X, ops: a_calls.append(len(X))
                        or apply_np(p, X, ops))
    keys = wt._exact_keys_np(p, rows, pair_g, pair_d)
    assert keys.tolist() == _packed_brute_keys(p, rows, pair_g, pair_d)

    distinct_a = len(np.unique(pack_np(p, rows[:, :4])))
    assert sum(a_calls) == distinct_a and len(a_calls) > 1 and max(a_calls) == 3
    assert sum(map(len, chunks)) == len(rows) and len(chunks) > 1
    assert sum((c[:, :4] == points[0, :4]).all(axis=1).any() for c in chunks) > 1


def test_exact_keys_transient_bounded_by_slices(cfg19, orbit19):
    # the exact-key oracle's slices hold at most four int64 temporaries
    # of SLICE_ENTRIES entries at once (the float64 product, its int64
    # copy and its residue in _apply_np; then that residue, the
    # pgl-canonical digits and their stack in _canon_packed), beside 40
    # bytes per row of whole-array bookkeeping (the packed A blocks,
    # np.unique's sorted copy and inverse); 2^20-entry slices peaked at
    # about 25.5 MB here
    tracemalloc.start()
    try:
        keys = wt.orbit_exact_keys(orbit19, cfg19.params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < keys.nbytes + 40 * orbit19.n + 4 * 8 * numutil.SLICE_ENTRIES


@pytest.mark.parametrize("p", [7, 11])
def test_sign_canonical_matches_first_nonzero(p):
    values = np.arange(p ** 4, dtype=np.int64)
    want = first_nonzero_np(unpack_np(p, values, 4).T) <= (p - 1) // 2
    assert (wt._sign_canonical(p, values) == want).all()


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
def test_list_pairs_solves_once_per_distinct_n(p, monkeypatch):
    F = wt.PrimeField(p)
    sl2 = wt._all_sl2(F)
    trace_hits = wt._trace_hits
    seen = []
    monkeypatch.setattr(wt, "_trace_hits", lambda p, ncoeff, M3s, target:
                        seen.append(ncoeff) or trace_hits(p, ncoeff, M3s, target))
    for name, R1 in wt._gauges(p):
        seen.clear()
        raw = wt._list_pairs(p, sl2, R1, 3, 11)
        assert raw.tolist() == _brute_pairs(p, sl2, R1, 3, 11).tolist(), name
        # the trace products see each distinct N once: |SL2| / |C(R1)| rows
        centralizer = int(eq(mm(p, sl2.T, R1), mm(p, R1, sl2.T)).sum())
        assert seen and all(len(np.unique(n, axis=0)) == len(n) == len(sl2) // centralizer
                            for n in seen), name


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
    # a torus that is not a group breaks the oracle's own partition
    # check: an internal fault (exit 3 by class), not bad input
    conj_operators = wt._conj_operators
    monkeypatch.setattr(wt, "_conj_operators", lambda p, taus: conj_operators(p, taus)[:-1])
    with pytest.raises(InvariantError, match="^gauge uni: ") as ei:
        wt.enumerate_x_classes(cfg19.params)
    assert not isinstance(ei.value, ValueError)
