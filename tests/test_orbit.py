import cProfile
import hashlib
import struct
import sys
import tracemalloc

import numpy as np
import pytest

from charquo import braidquandle as bq
from charquo import charvar as cv
from charquo import numutil
from charquo import orbit as orbit_mod
from charquo import witness as wt
from charquo.cli import main
from charquo.ffield import entry_major, inv_table, mm
from charquo.orbit import (EpsilonOutsideOrbitError, KeyCollisionError,
                           OrbitBudgetError, check_f2_identities, enumerate_orbit, epsilon_perm,
                           fast_keys, quad_to_row, read_dump, verify_edges)
from conftest import rand_quad

LETTERS = [bq.S1, bq.S1i, bq.S2, bq.S2i, bq.S3, bq.S3i]
DUMP19_SHA256 = "c4cff0503cc6e32199d43f7b281fe71217d4efe851436925418f754c71246ee7"
DUMP31_SHA256 = "b36aebeddc5c2aa68e856bb61e48b1cfd24503e7dccf2e2839bf61c9eb7a69f2"
# sha256 of the int64 bytes of epsilon_perm and of f2_perms' x and y at
# p = 31 (the arrays are int32; they are widened before hashing)
PERMS31_SHA256 = {
    "epsilon": "8a15b94c4663849144cdc7188ac20f7309b5c13f16e25485c4051959e2e58854",
    "x": "3ecd6dc331d2c972f84cb3641ca61e644da214fe594d1b35cc89e6c998269969",
    "y": "27ec0032bba4f1822c60ce0009af14b81b699427795a3d7fbf426bbc5dc2fbf4",
}


def test_fast_keys_match_scalar(cfg19, rng):
    p = 19
    Q = cfg19.P
    for _ in range(60):
        Q = bq.apply_letter(rng.choice(LETTERS), Q)
        packed = int(fast_keys(p, quad_to_row(Q)[None, :])[0])
        t = cv.canonicalize(cv.from_quad(Q), p)
        want = 0
        for v in t:
            want = want * p + v
        assert packed == want


def test_apply_letter_np_matches_scalar(cfg19, rng):
    quads = [rand_quad(cfg19.F, rng) for _ in range(20)]
    rows = np.stack([quad_to_row(Q) for Q in quads])
    for L in LETTERS:
        want = np.stack([quad_to_row(bq.apply_letter(L, Q)) for Q in quads])
        assert (orbit_mod.apply_letter_np(19, rows, L) == want).all(), L


def test_orbit_contains_start_and_exceeds_p(orbit19, cfg19):
    assert orbit19.n >= 19
    orbit19.index_of_point(cfg19.P)


def test_orbit_closure_and_letter_perms(orbit19):
    n = orbit19.n
    for L in (bq.S1, bq.S2, bq.S3):
        perm = orbit19.letter_perm(L)
        inv = orbit19.letter_perm((L[0], -1))
        assert (perm[inv] == np.arange(n)).all()
        assert (np.sort(perm) == np.arange(n)).all()


def _word_perm(orbit, word):
    """Permutation of a braid word (leftmost letter applied first)."""
    out = np.arange(orbit.n, dtype=np.int32)
    for letter in word:
        out = np.take(orbit.perms[letter], out)
    return out


def test_perm_word_homomorphism(orbit19):
    w1 = [bq.S1, bq.S2i]
    w2 = [bq.S3, bq.S1]
    lhs = _word_perm(orbit19, w1 + w2)
    rhs = _word_perm(orbit19, w2)[_word_perm(orbit19, w1)]
    assert (lhs == rhs).all()
    assert (_word_perm(orbit19, []) == np.arange(orbit19.n)).all()
    assert (_word_perm(orbit19, [bq.S1, bq.S1i]) == np.arange(orbit19.n)).all()


def test_every_representative_satisfies_equations(orbit19, cfg19):
    # spot-check through the public quad interface
    params = cfg19.params
    for i in (0, orbit19.n // 2, orbit19.n - 1):
        Q = orbit19.point(i)
        g, d = bq.gamma(Q), bq.delta(Q)
        from charquo.ffield import psl_canon
        F = params.F
        assert g.m == psl_canon(F, params.gamma_mat)
        assert d.m == psl_canon(F, params.delta_mat)


def test_gamma_mismatch_rejected(cfg19, rng):
    Q = rand_quad(cfg19.F, rng)
    with pytest.raises(ValueError, match="gamma mismatch"):
        enumerate_orbit(Q, cfg19.params)


def test_budget_error(cfg19):
    with pytest.raises(OrbitBudgetError) as ei:
        enumerate_orbit(cfg19.P, cfg19.params, max_points=10)
    assert ei.value.partial_count > 10


def test_frontiers_are_consecutive_blocks_read_in_place(cfg19, monkeypatch):
    # each layer's frontier is the block of points that the layer before
    # found: the layers tile the points in order, and the letters read
    # slices of the stored rows, not gathered copies
    expand, apply = orbit_mod._expand, orbit_mod.apply_letter_np
    blocks, in_place, state = [], [], {"rows": None}

    def layer(p, seen, lo, *args):
        blocks.append((lo, len(seen.rows)))
        state["rows"] = seen.rows
        try:
            return expand(p, seen, lo, *args)
        finally:
            state["rows"] = None

    def spy(p, quads, letter):
        if state["rows"] is not None:
            in_place.append(quads.base is state["rows"])
        return apply(p, quads, letter)

    monkeypatch.setattr(orbit_mod, "_expand", layer)
    monkeypatch.setattr(orbit_mod, "apply_letter_np", spy)
    orbit = enumerate_orbit(cfg19.P, cfg19.params)
    assert blocks[0] == (0, 1) and blocks[-1][1] == orbit.n
    assert all(b[0] == a[1] for a, b in zip(blocks, blocks[1:]))
    assert in_place and all(in_place)


def test_exact_verification_ran(orbit19):
    # the 2n + 1 sigma_i edges off the BFS tree and the 3n sigma_i^-1
    # edges: 5n + 1, the report's edges_verified
    assert verify_edges(orbit19) == 5 * orbit19.n + 1


def test_tree_rows_are_parent_images(orbit19):
    # every point but the start has a tree letter k, and its row is
    # sigma_(k+1) of its preimage's row, byte for byte
    tree = orbit19.tree
    assert tree.dtype == np.uint8 and np.count_nonzero(tree == 255) == 1
    assert np.isin(tree, [0, 1, 2, 255]).all()
    for k, (i, _) in enumerate(orbit_mod.GENS):
        w = np.flatnonzero(tree == k)
        parents = orbit19.letter_perm((i, -1))[w]
        images = orbit_mod.apply_letter_np(19, orbit19.points[parents], (i, 1))
        assert images.tobytes() == orbit19.points[w].tobytes()


def test_chunk_size_invariance(orbit19, cfg19, monkeypatch, tmp_path):
    a_dump = tmp_path / "a.chqo"
    orbit19.write_dump(a_dump)
    a_perms = [orbit19.letter_perm(L) for L in LETTERS]
    a_eps = epsilon_perm(orbit19)

    # small odd slices leave a ragged last slice in every gather and
    # kernel; at 61 rows every large layer spans many slices per letter,
    # so most keys new in a layer recur in its later slices
    for rows in (997, 61):
        monkeypatch.setattr(numutil, "SLICE_ENTRIES", rows * 16)
        b = enumerate_orbit(cfg19.P, cfg19.params)
        assert (b.keys == orbit19.keys).all()
        assert (b.points == orbit19.points).all()
        assert (b.tree == orbit19.tree).all()
        assert verify_edges(b) == 5 * b.n + 1
        b_dump = tmp_path / "b.chqo"
        b.write_dump(b_dump)
        assert b_dump.read_bytes() == a_dump.read_bytes()
        for L, perm in zip(LETTERS, a_perms):
            assert (b.letter_perm(L) == perm).all()
        assert (epsilon_perm(b) == a_eps).all()
        x, y = b.f2_perms()
        check_f2_identities(19, {"sigma1": b.letter_perm(bq.S1), "sigma2": b.letter_perm(bq.S2),
                                 "sigma3": b.letter_perm(bq.S3), "epsilon": a_eps,
                                 "x": x, "y": y})


def test_bfs_transient_bounded_by_slices(cfg19, monkeypatch):
    # the BFS builds no whole layer: with 997-row slices (the largest
    # p = 19 frontier has 7 147 points) its tracemalloc peak stays below
    # the resting size of the index it returns, plus 40 bytes per point
    # of bookkeeping (the rank, the int32 successors, the inverse check) and 512 bytes per slice row; keying each letter's
    # images of that largest frontier at once would add about 2.9 MB
    monkeypatch.setattr(numutil, "SLICE_ENTRIES", 997 * 16)
    tracemalloc.start()
    try:
        orbit = enumerate_orbit(cfg19.P, cfg19.params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    resting = (orbit.points.nbytes + orbit.keys.nbytes
               + sum(perm.nbytes for perm in orbit.perms.values()))
    assert peak < resting + 40 * orbit.n + 512 * 997


def test_row_kernels_see_one_slice(cfg19, monkeypatch):
    # the kernels do not slice: every caller, in the BFS, the edge pass
    # and the reversal twist's index, passes at most one slice
    # of rows (the last two are called here, as the pipeline calls them)
    monkeypatch.setattr(numutil, "SLICE_ENTRIES", 997 * 16)
    widest = {}

    def watched(name, fn, rows_arg):
        def call(*args):
            widest[name] = max(widest.get(name, 0), len(args[rows_arg]))
            return fn(*args)
        return call

    for name in ("fast_keys", "apply_letter_np"):
        monkeypatch.setattr(orbit_mod, name, watched(name, getattr(orbit_mod, name), 1))
    monkeypatch.setattr(orbit_mod._ExactChecker, "equivalent",
                        watched("equivalent", orbit_mod._ExactChecker.equivalent, 1))
    orbit = enumerate_orbit(cfg19.P, cfg19.params)
    assert orbit.n == 32400
    verify_edges(orbit)
    epsilon_perm(orbit)
    assert sorted(widest) == ["apply_letter_np", "equivalent", "fast_keys"]
    assert max(widest.values()) <= 997, widest


def _profiled(how, fn):
    """fn() with a profiler or tracer installed the way `how` names."""
    if how == "cProfile":
        prof = cProfile.Profile()
        prof.enable()
        try:
            return fn()
        finally:
            prof.disable()
    get, install = {"setprofile": (sys.getprofile, sys.setprofile),
                    "settrace": (sys.gettrace, sys.settrace)}[how]
    before = get()
    install(lambda frame, event, arg: None)
    try:
        return fn()
    finally:
        install(before)


@pytest.mark.parametrize("how", ["cProfile", "setprofile", "settrace"])
def test_bfs_under_profilers(orbit19, cfg19, how):
    # a profiler or tracer holds extra references to the BFS's locals;
    # the rows still grow, and the result is the plain run's
    b = _profiled(how, lambda: enumerate_orbit(cfg19.P, cfg19.params))
    assert (b.points == orbit19.points).all()
    assert (b.keys == orbit19.keys).all()
    for L in LETTERS:
        assert (b.letter_perm(L) == orbit19.letter_perm(L)).all()
    assert (b.tree == orbit19.tree).all()
    assert verify_edges(b) == 5 * b.n + 1


def test_orbit_cli_under_cprofile(capsys):
    assert _profiled("cProfile", lambda: main(["orbit", "19", "--no-permutations"])) == 0
    assert "F2 surjects onto A_32400" in capsys.readouterr().out


def _bfs_layers(orbit):
    """Each point's BFS layer: its distance from the start point under
    sigma_1, sigma_2 and sigma_3."""
    layer = np.full(orbit.n, -1)
    frontier, d = np.flatnonzero(orbit.tree == 255), 0
    while len(frontier):
        layer[frontier] = d
        reached = np.concatenate([orbit.letter_perm(L)[frontier] for L in orbit_mod.GENS])
        frontier, d = np.unique(reached[layer[reached] < 0]), d + 1
    return layer


@pytest.fixture(params=["earlier-layer", "same-layer"])
def reject_sigma_edge(request, monkeypatch, orbit19):
    """Make exact verification in verify_edges reject one sigma_i edge
    off the BFS tree, from a point past the first 997-row slice: the
    first whose target the BFS had found before it expanded the source's
    layer, or the first whose target is a point new in that layer (whose
    row is another image).  state["key"] is the target's key, chosen
    here, so that it is known in this process also where the pipeline
    runs the check in a side process."""
    monkeypatch.setattr(numutil, "SLICE_ENTRIES", 997 * 16)
    layer = _bfs_layers(orbit19)
    src = np.arange(997, orbit19.n)
    for i, _ in orbit_mod.GENS:
        dst = orbit19.letter_perm((i, 1))[src]
        hit = (orbit19.tree[dst] != i - 1) & (
            layer[dst] <= layer[src] if request.param == "earlier-layer"
            else layer[dst] == layer[src] + 1)
        if hit.any():
            target = int(dst[np.argmax(hit)])
            break
    row = orbit19.points[target]
    apply, equivalent = orbit_mod.apply_letter_np, orbit_mod._ExactChecker.equivalent
    state = {"key": int(orbit19.keys[target]), "letter": None}

    def tracking(p, quads, letter):
        state["letter"] = letter
        return apply(p, quads, letter)

    def rejecting(self, Qs, Rs):
        ok = equivalent(self, Qs, Rs)
        if state["letter"] == (i, 1):  # one sigma_i edge ends at row
            ok &= ~(Rs == row).all(axis=1)
        return ok

    monkeypatch.setattr(orbit_mod, "apply_letter_np", tracking)
    monkeypatch.setattr(orbit_mod._ExactChecker, "equivalent", rejecting)
    return state


def test_forced_collision_names_key(orbit19, reject_sigma_edge):
    with pytest.raises(KeyCollisionError) as ei:
        verify_edges(orbit19)
    assert str(ei.value) == ("canonical trace key collision between inequivalent points "
                             f"(key {reject_sigma_edge['key']}); exact dedup falsified "
                             "at p=19")


def test_forced_collision_cli_exit(reject_sigma_edge, capsys, tmp_path):
    # the verification job rejects the edge: exit 3, and no dump
    code = main(["orbit", "19", "--no-permutations", "--dump", str(tmp_path / "o.chqo")])
    assert code == 3
    out = capsys.readouterr().out
    assert f"(key {reject_sigma_edge['key']})" in out
    assert list(tmp_path.iterdir()) == []


def test_epsilon_outside_orbit_cli_exit(monkeypatch, capsys):
    # a failed reversal twist is a failed hypothesis at that prime: exit 1
    def outside(orbit):
        raise EpsilonOutsideOrbitError(f"epsilon maps 1 points outside the orbit at p={orbit.p}")

    monkeypatch.setattr(wt, "epsilon_perm", outside)
    assert main(["orbit", "19", "--no-permutations"]) == 1
    out = capsys.readouterr().out
    assert "reversal twist fails at p = 19" in out and "outside the orbit" in out


def test_bfs_work_counts(cfg19, monkeypatch):
    # the BFS keys only the forward images (and the start row) and
    # checks no edge; verify_edges applies all six letters to every row
    # and keys none: 3n + 1 rows keyed, 9n applied, 5n + 1 edges checked
    # exactly
    rows = {"fast_keys": 0, "apply_letter_np": 0, "equivalent": 0}

    def counting(name, fn):
        def counted(*args):
            rows[name] += len(args[1])  # (p, quads, ...) and (self, Qs, Rs)
            return fn(*args)
        return counted

    monkeypatch.setattr(orbit_mod, "fast_keys", counting("fast_keys", orbit_mod.fast_keys))
    monkeypatch.setattr(orbit_mod, "apply_letter_np",
                        counting("apply_letter_np", orbit_mod.apply_letter_np))
    monkeypatch.setattr(orbit_mod._ExactChecker, "equivalent",
                        counting("equivalent", orbit_mod._ExactChecker.equivalent))
    orbit = enumerate_orbit(cfg19.P, cfg19.params)
    n = orbit.n
    assert rows == {"fast_keys": 3 * n + 1, "apply_letter_np": 3 * n, "equivalent": 0}
    assert verify_edges(orbit) == 5 * n + 1
    assert rows == {"fast_keys": 3 * n + 1, "apply_letter_np": 9 * n,
                    "equivalent": 5 * n + 1}


@pytest.fixture()
def reject_inverse_edge(monkeypatch):
    """Make exact verification reject one sigma_2^-1 edge of
    verify_edges: that of point index 1000, row 3 of the second
    997-row slice.  state["rejected"] records it in the process that
    ran the check: the pipeline runs it in a side process."""
    monkeypatch.setattr(numutil, "SLICE_ENTRIES", 997 * 16)
    verify, apply = orbit_mod.verify_edges, orbit_mod.apply_letter_np
    equivalent = orbit_mod._ExactChecker.equivalent
    state = {"edge_pass": False, "s2i_slices": 0, "rejected": False}

    def edge_pass(*args):
        state["edge_pass"] = True
        return verify(*args)

    def tracking(p, quads, letter):
        if state["edge_pass"] and letter == bq.S2i:
            state["s2i_slices"] += 1
        return apply(p, quads, letter)

    def rejecting(self, Qs, Rs):
        ok = equivalent(self, Qs, Rs)
        if state["s2i_slices"] == 2 and not state["rejected"]:
            ok[3] = False
            state["rejected"] = True
        return ok

    monkeypatch.setattr(wt, "verify_edges", edge_pass)
    monkeypatch.setattr(orbit_mod, "apply_letter_np", tracking)
    monkeypatch.setattr(orbit_mod._ExactChecker, "equivalent", rejecting)
    return state


def test_inverse_edge_rejected(cfg19, reject_inverse_edge):
    orbit = enumerate_orbit(cfg19.P, cfg19.params)
    with pytest.raises(orbit_mod.OrbitError) as ei:
        wt.verify_edges(orbit)
    assert reject_inverse_edge["rejected"]
    assert not isinstance(ei.value, KeyCollisionError)
    assert "sigma2^-1 at point index 1000 fails exact verification" in str(ei.value)


def test_inverse_edge_rejected_cli_exit(reject_inverse_edge, capsys):
    # the pipeline runs the check in its verification job, so the
    # rejection is read from the output, not from this process's state
    assert main(["orbit", "19", "--no-permutations"]) == 3
    out = capsys.readouterr().out
    assert out == ("internal invariant violated: the edge of sigma2^-1 at point index "
                   "1000 fails exact verification at p=19 (it inverts a verified sigma2 "
                   "edge)\n")


def test_orbit_not_closed_cli_exit(monkeypatch, capsys):
    # a BFS edge map that is not a permutation is an internal invariant: exit 3
    expand = orbit_mod._expand
    state = {"done": False}

    def redirect_one(*args):
        succ, tree = expand(*args)
        if not state["done"] and succ.shape[1] >= 2:
            succ[0, 0] = succ[0, 1]  # two frontier points now share a sigma1 image
            state["done"] = True
        return succ, tree

    monkeypatch.setattr(orbit_mod, "_expand", redirect_one)
    assert main(["orbit", "19", "--no-permutations"]) == 3
    out = capsys.readouterr().out
    assert state["done"]
    assert "internal invariant violated: orbit not closed" in out
    assert "sigma1 is not a bijection of the BFS points" in out


def _break_epsilon_involution(monkeypatch):
    """Make the reversal twist's key lookup send point 0 where point 1
    goes, so that its index map is no longer an involution."""
    index_of_keys = orbit_mod.OrbitIndex.index_of_keys

    def tampered(self, keys):
        idx = index_of_keys(self, keys)
        if len(idx) > 1:
            idx[0] = idx[1]
        return idx

    monkeypatch.setattr(orbit_mod.OrbitIndex, "index_of_keys", tampered)


def _first_non_involution(orbit19):
    eps = epsilon_perm(orbit19)
    eps[0] = eps[1]
    i = int(np.flatnonzero(eps[eps] != np.arange(orbit19.n))[0])
    return f"index {i} -> {int(eps[i])} -> {int(eps[eps[i]])}"


def test_epsilon_not_involution_rejected(orbit19, monkeypatch):
    want = _first_non_involution(orbit19)
    _break_epsilon_involution(monkeypatch)
    with pytest.raises(orbit_mod.OrbitError, match="not an involution") as ei:
        epsilon_perm(orbit19)
    assert want in str(ei.value)


def test_epsilon_not_involution_cli_exit(orbit19, monkeypatch, capsys):
    want = _first_non_involution(orbit19)
    _break_epsilon_involution(monkeypatch)
    assert main(["orbit", "19", "--no-permutations"]) == 3
    out = capsys.readouterr().out
    assert "internal invariant violated: epsilon is not an involution" in out
    assert want in out


def test_epsilon_off_the_identities_cli_exit(monkeypatch, capsys):
    # epsilon conjugated by a transposition is still an involution on the
    # orbit, so epsilon_perm's own passes would accept it; the F2
    # identities refuse it (exit 3), naming p and g
    def conjugated(orbit):
        eps = epsilon_perm(orbit)
        t = np.arange(orbit.n, dtype=np.int32)
        t[[0, 1]] = [1, 0]
        out = t.take(eps.take(t))
        assert (out.take(out) == t.take(t)).all() and (out != eps).any()
        return out

    monkeypatch.setattr(wt, "epsilon_perm", conjugated)
    assert main(["orbit", "19", "--no-permutations"]) == 3
    out = capsys.readouterr().out
    assert out.startswith("internal invariant violated: F2 identity fails at p = 19: "
                          "epsilon^-1 ")


def test_sigma2_off_the_identities_cli_exit(monkeypatch, capsys):
    # sigma2 with two images swapped, and its inverse with them: the F2
    # identities refuse it (exit 3), naming p and g.  y = s2 x s2^-1 is
    # built from the changed pair, so the first identity to fail is
    # sigma1's on y.  The verification job reads the index's own
    # permutations, so it passes.
    letter_perm = orbit_mod.OrbitIndex.letter_perm

    def swapped(self, letter):
        if letter not in (bq.S2, bq.S2i):
            return letter_perm(self, letter)
        s2 = letter_perm(self, bq.S2).copy()
        s2[[0, 1]] = s2[[1, 0]]
        if letter == bq.S2:
            return s2
        inverse = np.empty_like(s2)
        inverse[s2] = np.arange(self.n, dtype=np.int32)
        return inverse

    monkeypatch.setattr(orbit_mod.OrbitIndex, "letter_perm", swapped)
    assert main(["orbit", "19", "--no-permutations"]) == 3
    out = capsys.readouterr().out
    assert out.startswith("internal invariant violated: F2 identity fails at p = 19: "
                          "sigma1^-1 y sigma1 ")


def _reference_perm(orbit, letter):
    """A letter's index permutation by re-keying: apply the letter to
    every point, key the images and look the keys up in the index."""
    images = orbit_mod.apply_letter_np(orbit.p, orbit.points, letter)
    idx = orbit.index_of_keys(fast_keys(orbit.p, images))
    assert (idx >= 0).all()
    return idx


def test_letter_perms_match_rekeying_p19(orbit19):
    for L in LETTERS:
        assert (orbit19.letter_perm(L) == _reference_perm(orbit19, L)).all(), L


def test_letter_perms_match_rekeying_p31(orbit31):
    for L in (bq.S1, bq.S2i):
        assert (orbit31.letter_perm(L) == _reference_perm(orbit31, L)).all(), L


def test_letter_perms_apply_no_letter(cfg19, monkeypatch):
    # the permutations come from the BFS edges: after the BFS, reading
    # them (and composing x and y) applies no letter
    calls = []
    apply = orbit_mod.apply_letter_np

    def spy(*args):
        calls.append(args[2])
        return apply(*args)

    monkeypatch.setattr(orbit_mod, "apply_letter_np", spy)
    orbit = enumerate_orbit(cfg19.P, cfg19.params)
    in_bfs = len(calls)
    assert in_bfs > 0
    for L in LETTERS:
        orbit.letter_perm(L)
    orbit.f2_perms()
    assert len(calls) == in_bfs


def test_epsilon_involution_and_twist(orbit19):
    eps = epsilon_perm(orbit19)
    n = orbit19.n
    assert (eps[eps] == np.arange(n)).all()
    s1 = orbit19.letter_perm(bq.S1)
    s3i = orbit19.letter_perm(bq.S3i)
    assert (eps[s1[eps]] == s3i).all()
    s2 = orbit19.letter_perm(bq.S2)
    s2i = orbit19.letter_perm(bq.S2i)
    assert (eps[s2[eps]] == s2i).all()


def test_epsilon_lands_on_sigma13_leaf(orbit19, cfg19):
    # the twisted reversal of P stays on the <s1, s3>-leaf of P
    eps = epsilon_perm(orbit19)
    i0 = orbit19.index_of_point(cfg19.P)
    perms = [orbit19.letter_perm(L) for L in (bq.S1, bq.S1i, bq.S3, bq.S3i)]
    leaf = {i0}
    frontier = [i0]
    while frontier:
        nxt = []
        for i in frontier:
            for perm in perms:
                j = int(perm[i])
                if j not in leaf:
                    leaf.add(j)
                    nxt.append(j)
        frontier = nxt
    assert int(eps[i0]) in leaf


def test_f2_perms(orbit19):
    x, y = orbit19.f2_perms()
    n = orbit19.n
    assert (x != np.arange(n)).any()
    s2 = orbit19.letter_perm(bq.S2)
    s2i = orbit19.letter_perm(bq.S2i)
    assert (s2i[x[s2]] == y).all()
    from charquo.permgrp import sign
    assert sign(x.tolist()) == sign(y.tolist())


def test_sigma1_orders_cover_all_divisors(orbit19):
    # every nontrivial element order of PSL2(F_19) occurs among sigma_1
    # matrices over the orbit
    orders = set(wt.orbit_sigma_orders(orbit19, 1).tolist())
    need = {19}
    for m in (9, 10):
        need |= {d for d in range(2, m + 1) if m % d == 0}
    assert need <= orders


def test_sigma_powers_do_not_commute(orbit19):
    # non-commutation of s1^k and s2^k for small k
    s1 = orbit19.letter_perm(bq.S1)
    s2 = orbit19.letter_perm(bq.S2)
    a, b = s1, s2
    for k in range(1, 7):
        assert (a[b] != b[a]).any(), k
        a, b = s1[a], s2[b]


def test_dump_roundtrip(orbit19, tmp_path):
    path = tmp_path / "orbit.chqo"
    orbit19.write_dump(path)
    p, coords = read_dump(path)
    assert p == 19
    assert coords.shape == (orbit19.n, 7)
    packed = coords[:, 0].astype(np.int64)
    for j in range(1, 7):
        packed = packed * p + coords[:, j]
    assert (packed == orbit19.keys).all()
    assert hashlib.sha256(path.read_bytes()).hexdigest() == DUMP19_SHA256
    with pytest.raises(ValueError, match="magic"):
        bad = tmp_path / "bad.chqo"
        bad.write_bytes(b"NOPE" + b"\0" * 20)
        read_dump(bad)


def test_dump31_digest(orbit31, tmp_path):
    # the p = 31 refactor oracle: the dump must stay byte-identical
    path = tmp_path / "orbit31.chqo"
    orbit31.write_dump(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == DUMP31_SHA256


def test_perms31_digests(orbit31):
    # the p = 31 oracle of the permutation stage: the twist and the free
    # generators must stay byte-identical
    x, y = orbit31.f2_perms()
    perms = {"epsilon": epsilon_perm(orbit31), "x": x, "y": y}
    assert {name: (a.dtype, a.shape) for name, a in perms.items()} == \
        {name: (np.dtype(np.int32), (orbit31.n,)) for name in PERMS31_SHA256}
    assert {name: hashlib.sha256(a.astype(np.int64).tobytes()).hexdigest()
            for name, a in perms.items()} == PERMS31_SHA256


def test_point_permutations_are_int32(orbit19):
    # every point index is below 2^31, so the six letter permutations,
    # the reversal twist and the free generators are all int32
    x, y = orbit19.f2_perms()
    arrays = [*(orbit19.perms[L] for L in LETTERS), epsilon_perm(orbit19), x, y]
    assert [a.dtype for a in arrays] == [np.dtype(np.int32)] * 9
    word = _word_perm(orbit19, [bq.S1, bq.S3i])
    assert word.dtype == np.int32 and (word == x).all()


def _corrupt(orbit19, tmp_path, edit):
    """A p = 19 dump with its (n, 7) coordinate body changed by edit."""
    path = tmp_path / "orbit.chqo"
    orbit19.write_dump(path)
    data = path.read_bytes()
    body = np.frombuffer(data, dtype="<u8", offset=24).reshape(-1, 7).copy()
    path.write_bytes(edit(data[:24], body))
    return path


def _swap_rows(head, body):
    body[[10, 11]] = body[[11, 10]]
    return head + body.tobytes()


def _out_of_range(head, body):
    body[3, 2] = 19
    return head + body.tobytes()


@pytest.mark.parametrize("edit, defect", [
    (lambda head, body: b"CHQO\x01\x00", "truncated header"),
    (lambda head, body: head + body.tobytes()[:-10], "but a dump of n=32400"),
    (_out_of_range, "row 3 has a coordinate >= p=19"),
    (_swap_rows, "not strictly ascending at row 11"),
    (lambda head, body: head[:4] + struct.pack("<I", 2) + head[8:] + body.tobytes(),
     "unsupported dump version 2"),
    (lambda head, body: head[:8] + struct.pack("<Q", 1) + head[16:] + body.tobytes(),
     "p=1 outside the dump range 2..509"),
    (lambda head, body: head[:8] + struct.pack("<Q", 521) + head[16:] + body.tobytes(),
     "p=521 outside the dump range 2..509"),
])
def test_read_dump_rejects_bad_dumps(orbit19, tmp_path, capsys, edit, defect):
    path = _corrupt(orbit19, tmp_path, edit)
    with pytest.raises(ValueError, match=defect) as ei:
        read_dump(path)
    assert str(path) in str(ei.value)
    assert main(["count", "19", "--orbit", str(path)]) == 1
    out = capsys.readouterr().out
    assert defect in out and str(path) in out


# -- stored rows are narrow; every row kernel widens them --------------------

def test_row_dtype_holds_every_residue():
    assert np.iinfo(orbit_mod.ROW_DTYPE).max >= orbit_mod.MAX_PACKED_PRIME
    assert np.iinfo(orbit_mod.ROW_DTYPE).bits == 16


def _random_lifts(p, m, seed):
    """m rows of four random determinant-1 lifts over F_p, as int64."""
    gen = np.random.default_rng(seed)
    a = gen.integers(1, p, size=(m, 4))
    b, c = gen.integers(0, p, size=(2, m, 4))
    d = (1 + b * c) % p * inv_table(p)[a] % p
    return np.stack([a, b, c, d], axis=-1).reshape(m, 16)


@pytest.mark.parametrize("p", [19, 233, 509])
def test_row_kernels_agree_on_narrow_and_wide_rows(p, request):
    """Each row kernel gives the same output on uint16 rows as on int64
    copies: on p = 19 orbit rows, and on random lifts at p = 233 and 509,
    where a sum of two uint16 products of residues wraps."""
    if p == 19:
        params = request.getfixturevalue("cfg19").params
        rows = request.getfixturevalue("orbit19").points[::97]
    else:
        cfg = wt.build(p)
        params = cfg.params
        rows = np.concatenate([quad_to_row(cfg.P)[None, :],
                               _random_lifts(p, 300, seed=p).astype(orbit_mod.ROW_DTYPE)])
    assert rows.dtype == orbit_mod.ROW_DTYPE
    wide = rows.astype(np.int64)
    if p > 19:  # the arithmetic the kernels must not do: in uint16 it wraps
        assert ((rows[:, 0] * rows[:, 3] + rows[:, 1] * rows[:, 2])
                != (wide[:, 0] * wide[:, 3] + wide[:, 1] * wide[:, 2])).any()

    def same(kernel):
        """The kernel's output on the uint16 rows, equal to its output on
        int64 copies of them."""
        got, want = kernel(rows), kernel(wide)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        return got

    same(lambda r: fast_keys(p, r))
    for L in LETTERS:
        same(lambda r: orbit_mod.apply_letter_np(p, r, L))
    checker = orbit_mod.make_checker(params)
    assert same(lambda r: checker.equivalent(r, r)).all()
    assert not same(lambda r: checker.equivalent(r, np.roll(r, 1, axis=0))).all()
    on_x = same(lambda r: orbit_mod._on_x_mask(params, r))
    assert on_x.all() if p == 19 else on_x[0] and not on_x[1:].any()

    def index(r):
        return orbit_mod.OrbitIndex(params, r, fast_keys(p, r), {},
                                    np.full(len(r), 255, dtype=np.uint8))

    for i in (1, 2, 3):
        same(lambda r: np.stack(index(r).sigma_matrix_traces(i)))
    if p ** 8 < 2 ** 63:  # the exact key packs 8 base-p digits
        # 27 144 centralizer pairs per row at p = 233: a few rows do
        same(lambda r: wt.orbit_exact_keys(index(r), params, np.arange(0, len(r), 50)))


def test_unreduced_intermediates_exact_at_largest_packed_prime():
    """At p = MAX_PACKED_PRIME, where the unreduced intermediates of the
    row kernels are largest, the kernels agree with the int path:
    trace_coords on entry-major random lifts equals charvar.from_quad
    on the same lifts as ProjMat2, and the exact checker accepts rows
    twisted by an equal-class centralizer pair and refuses the rows it
    was not twisted from, as charvar.are_equivalent does."""
    p = orbit_mod.MAX_PACKED_PRIME
    params = wt.build(p).params
    F = params.F
    quads = [orbit_mod.row_to_quad(F, r) for r in _random_lifts(p, 300, seed=11)]
    rows = np.stack([quad_to_row(Q) for Q in quads])  # the sign-canonical lifts
    got = np.stack(cv.trace_coords(p, *entry_major(rows).reshape(4, 4, -1)))
    assert np.array_equal(got.T, np.array([cv.from_quad(Q) for Q in quads]))

    gen = np.random.default_rng(p)
    cg, cd = params.centralizer("gamma"), params.centralizer("delta")
    twisted = []
    for Q in quads:
        ghat, sg = cg[gen.integers(len(cg))]
        same_class = [h for h, sh in cd if sh == sg]
        dhat = same_class[gen.integers(len(same_class))]
        twisted.append([v for X in Q for v in mm(p, mm(p, ghat, X.m), dhat)])
    twisted = np.array(twisted, dtype=orbit_mod.ROW_DTYPE)
    assert (twisted != rows).any(axis=1).all()
    checker = orbit_mod.make_checker(params)
    assert checker.equivalent(twisted, rows).all()
    assert not checker.equivalent(twisted, np.roll(rows, 1, axis=0)).any()
    for Q, R in zip(quads[:5], quads[-1:] + quads[:4]):
        assert not cv.are_equivalent(Q, R, params)
