"""BFS enumeration of the braid orbit of a quadruple in X^(2), with
deterministic point indexing and generator-permutation extraction.

The engine stores full matrix quadruples as numpy arrays of shape
(n, 16) (four sign-canonical determinant-1 lifts, row-major) and
deduplicates on the packed canonical trace key.  The 2x2 kernels and the
base-p packing it runs on are ffield's, applied to entry-major copies of
the rows; the trace coordinates and their key are charvar's
(trace_coords, canon_keys_np).  This module owns the BFS, the
exact-equivalence checker, the index and the dump format.  Every
recurrent BFS edge, every sigma_i^-1 edge and every image of the
reversal twist is re-verified against the stored representative with
the centralizer-coset equivalence, so the enumeration is sound even
where the injectivity of the trace map is unproven.  The check solves
for one candidate centralizer pair per row, where the pencil
span(I, gamma) meets the pencil of pairs that the A blocks allow, and
tests only that pair (see _ExactChecker); there is no other path.  A
genuine trace-key collision between inequivalent points raises
KeyCollisionError (the OrbitIndex contract requires pairwise-distinct
keys).

Indices are assigned by ascending canonical key after enumeration
closes, so reports are byte-reproducible regardless of traversal order.

The BFS applies and keys only the forward letters sigma_1, sigma_2,
sigma_3: the orbit is finite, so closure under them is the group orbit.
Each layer is deduplicated without per-key Python code, in slices: each
letter in turn is applied to one slice of frontier points at a time
(the layer's letter-major image order), and each image's key is located
by searchsorted in the sorted visited keys (kept beside the point index
of each).  An image on a visited key is a recurrent edge, verified in
its slice against that older point.  The images on unvisited keys are kept,
key and row, until the layer closes.  Then one stable argsort groups
them by key: the first image of each group in letter-major order is its
representative, and every other member is a recurrent edge, verified
against it.  A letter maps distinct points to distinct keys, so the
representative does not depend on the frontier's order.  The groups
take the next point indices in ascending key order, and their keys are
merged into the visited keys once.

Each layer also returns where every image of its frontier landed: the
point index of the image's key group, as int32.  These successor
arrays are the verified forward edges; once the BFS closes they are
renumbered by ascending key into sigma_1, sigma_2 and sigma_3, one
letter at a time.  Each must be a bijection, and sigma_i^-1 is its
inverse.  Then a pass without keys applies sigma_i^-1 to every point
and verifies the image exactly against the row the inverse names.  The
edges verified are the 3n - (n - 1) = 2n + 1 recurrent forward edges
plus the 3n inverse edges, 5n + 1 in all.  No image is keyed twice.

Rows are stored as ROW_DTYPE (uint16): every entry is a residue below
p <= MAX_PACKED_PRIME.  The row kernels (fast_keys, apply_letter_np,
exact verification and the twist) widen their whole input, at most one
slice of rows from every caller, into an entry-major int64 (16, m) copy
(ffield.entry_major), whose slices of four rows are blocks for the
ffield kernels, so no narrow array reaches int arithmetic.  Every loop
here is cut by numutil.slices, with the int64 entries its temporaries
hold per item as width: 16 for rows (8 192 a slice), 1 for an int32
gather (numpy's intp copy of the indices) or scatter.

Memory.  What grows with the orbit is 32 bytes per point (the uint16
quadruple) plus 12 per visited key (int64 key, int32 point index) and,
during the BFS, 16 per point of int32 successors and frontiers (three
letters).  At rest the index keeps 64 bytes per point: the row, the key
and the six int32 letter permutations, 24 bytes of them.  A layer adds
its images on unvisited keys, 40 bytes each (row and key; there are
about 1.65 per new point at p = 19 and 31), and at its close their sort
order, groups and representatives.  All but the kept rows and the
representatives go before the rows grow by the new points
(ndarray.resize, which may move them; until the keys are merged, the
visited keys and indices are copied once).  The other temporaries of a
layer are those of one slice.  The permutations are filled one sigma_i
at a time, each letter's successors freed once read, its inverse
scattered beside it, and the rows are put into key order in place.
Point indices are int32 throughout, from the BFS successors to the
letter permutations, epsilon_perm and f2_perms, so max_points must stay
below 2^31.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from . import braidquandle as bq
from .charvar import Params, canon_keys_np, from_quad, trace_coords
from .ffield import (ProjMat2, adj_raw, conjugator, det, entry_major, eq, is_scalar,
                     legendre_table, mm, mm_raw, neg, pack_np, pencil_annihilators,
                     psl_canon_np, residue, tr, unpack_np)
from .numutil import BudgetError, InvariantError, slices

GENS = (bq.S1, bq.S2, bq.S3)

MAX_PACKED_PRIME = 509  # 7 base-p digits must fit in an int64

# dtype of the stored rows: every entry is a residue below p, so it
# must hold MAX_PACKED_PRIME - 1
ROW_DTYPE = np.uint16
if np.iinfo(ROW_DTYPE).max < MAX_PACKED_PRIME:
    raise InvariantError(f"{ROW_DTYPE.__name__} rows cannot hold residues mod {MAX_PACKED_PRIME}")

# Default cap on the orbit size (the enumerate_orbit and pipeline
# default, and that of `charquo orbit --max-points`).
MAX_POINTS = 2_000_000


class OrbitError(InvariantError):
    pass


class OrbitBudgetError(BudgetError):
    def __init__(self, message, partial_count):
        super().__init__(message)
        self.partial_count = partial_count


class KeyCollisionError(OrbitError):
    """Two inequivalent points share a canonical trace key (falsifies
    desk-scale injectivity of the trace map on this orbit)."""


class EpsilonOutsideOrbitError(ValueError):
    """The reversal twist maps some orbit point outside the orbit; this
    would block the extension from B4 to the full automorphism action at
    this prime, so it is reported (a failed hypothesis at this prime),
    never hidden."""


# -- row kernels on entry-major int64 copies --------------------------------

def fast_keys(p, quads):
    """Packed canonical trace key of each row of an (m, 16) batch."""
    t = np.stack(trace_coords(p, *entry_major(quads).reshape(4, 4, -1)))
    return canon_keys_np(p, t.T)  # (m, 7), coordinate-major


def apply_letter_np(p, quads, letter):
    """One braid letter acting on an (n, 16) batch: an (n, 16) ROW_DTYPE
    array.  The letter acts on the blocks x, y = i-1, i (sigma_i) or
    i, i-1 (sigma_i^-1): block x moves to y's place, and
    psl_canon(X Y^-1 X) takes x's.  X adj(Y) is left unreduced (below
    2p^2), so X Y^-1 X is reduced once, from below 4p^3."""
    i, e = letter
    x, y = (4 * (i - 1), 4 * i) if e == 1 else (4 * i, 4 * (i - 1))
    out = quads.astype(ROW_DTYPE)
    out[:, y:y + 4] = quads[:, x:x + 4]
    q = entry_major(quads)
    X, Y = q[x:x + 4], q[y:y + 4]
    for j, v in enumerate(psl_canon_np(p, mm(p, mm_raw(X, adj_raw(Y)), X)), x):
        out[:, j] = v
    return out


def quad_to_row(Q):
    out = []
    for X in Q:
        out.extend(X.m)
    return np.array(out, dtype=ROW_DTYPE)


def row_to_quad(F, row):
    return tuple(ProjMat2.of(F, tuple(int(v) for v in row[4 * k:4 * k + 4]))
                 for k in range(4))


# -- exact (centralizer-coset) equivalence, batched ----------------------

class _ExactChecker:
    """Batched test 'ghat Q dhat = R blockwise, projectively, for some
    ghat in C(gamma) and dhat in C(delta) of equal determinant class',
    with one candidate pair per row.

    Both centralizers are pencils: ghat lies in span(I, gamma), and
    dhat^-1 in span(I, delta).  With X = adj(A_Q), U = A_R X and
    V = A_R delta X, the A blocks force ghat = mu U + nu V up to a
    scalar, and the two pencil annihilators of gamma put a 2x2 linear
    system on (mu, nu).  A nonsingular system refuses the row.  A
    singular one fixes the single projective candidate
    ghat = mu U + nu V, dhat = adj(mu I + nu delta), which is accepted
    when both are invertible, their determinants have equal Legendre
    class and all four blocks match: ghat Q_k dhat adj(R_k) is a nonzero
    scalar matrix.

    Both annihilators vanish on U and V only if A_Q delta A_Q^-1 lies in
    F_p[gamma], i.e. only if gamma and delta lie in tori of one type.
    The split/non-split assumption excludes that, and the checker
    refuses parameters that break it, so every row gets its candidate
    (a row with a zero system would get g = 0 and be refused).

    The rows are lifts with invertible blocks.  The kernel works on
    entry-major copies of the rows, with entries in [0, p), and reduces
    (ffield.residue) only what a test or a table reads (the system's
    coefficients and determinant, the two determinants, the entries of
    each block's scalar test) and ghat, which keeps the block products
    small.  The rest stays unreduced (mm_raw, adj_raw): U and V below
    2p^2 in absolute value, the coefficients below 8p^3 before they are
    reduced, dhat below p^2, the block products ghat Q_k dhat adj(R_k)
    below 8p^5, and the difference of two of their entries below
    16p^5, the largest intermediate, far under 2^63 for
    p <= MAX_PACKED_PRIME.  Nothing is packed.
    """

    def __init__(self, params: Params):
        if not params.satisfies_nonconjugation():
            raise ValueError("exact equivalence needs gamma and delta in tori of "
                             "different type (one split, one non-split)")
        self.params = params
        self.p = p = params.F.p
        self.delta = tuple(params.delta_mat)
        self.ann = pencil_annihilators(p, params.gamma_mat)

    def equivalent(self, Qs, Rs):
        """Boolean mask over rows: Q_j ~ R_j.  Equal rows are equivalent
        (ghat = dhat = I); the others get the candidate test."""
        ok = (Qs == Rs).all(axis=1)
        rest = np.flatnonzero(~ok)
        ok[rest] = self._one_candidate(entry_major(Qs[rest]), entry_major(Rs[rest]))
        return ok

    def _one_candidate(self, q, r):
        """Accepted mask over the columns of the entry-major (16, m)
        arrays q and r."""
        p = self.p
        X = adj_raw(q[0:4])
        U = mm_raw(r[0:4], X)  # |U|, |V| < 2p^2
        V = mm_raw(mm(p, r[0:4], self.delta), X)
        # the system [l1(U) l1(V); l2(U) l2(V)] (mu, nu)^T = 0
        (lu1, lu2), (lv1, lv2) = [[residue(p, sum(c * x for c, x in zip(row, M) if c))
                                   for row in self.ann] for M in (U, V)]
        singular = det(p, (lu1, lv1, lu2, lv2)) == 0
        first = (lu1 != 0) | (lv1 != 0)
        # its kernel, read off the first nonzero row
        mu = np.where(first, lv1, lv2)
        nu = -np.where(first, lu1, lu2)
        g = [residue(p, mu * u + nu * v) for u, v in zip(U, V)]
        d0, d1, d2, d3 = self.delta
        dh = adj_raw((mu + nu * d0, nu * d1, nu * d2, mu + nu * d3))  # below p^2
        det_g, det_d = det(p, g), det(p, dh)
        leg = legendre_table(p)
        ok = singular & (det_g != 0) & (det_d != 0) & (leg[det_g] == leg[det_d])
        for k in range(0, 16, 4):
            s = mm_raw(mm_raw(mm_raw(g, q[k:k + 4]), dh), adj_raw(r[k:k + 4]))
            ok &= ((residue(p, s[1]) == 0) & (residue(p, s[2]) == 0)
                   & (residue(p, s[0] - s[3]) == 0) & (residue(p, s[0]) != 0))
        return ok


def make_checker(params: Params) -> _ExactChecker:
    """The exact-equivalence checker of the BFS edges and the reversal
    twist; ValueError unless params satisfy the split/non-split
    assumption."""
    return _ExactChecker(params)


# -- the orbit index ------------------------------------------------------

@dataclass
class OrbitIndex:
    params: Params
    points: np.ndarray  # (n, 16) ROW_DTYPE residues, ascending key order
    keys: np.ndarray    # (n,) packed canonical trace keys, ascending
    perms: dict         # letter -> (n,) int32 index permutation
    edges_verified: int = 0

    @property
    def n(self) -> int:
        return len(self.keys)

    @property
    def p(self) -> int:
        return self.params.F.p

    def point(self, i):
        return row_to_quad(self.params.F, self.points[i])

    def index_of_keys(self, keys):
        """Indices for an array of packed keys; -1 where absent."""
        pos = np.searchsorted(self.keys, keys)
        pos_ok = pos < self.n
        pos_c = np.where(pos_ok, pos, 0)
        good = pos_ok & (self.keys[pos_c] == keys)
        return np.where(good, pos_c, -1)

    def index_of_point(self, Q) -> int:
        key = canon_keys_np(self.p, np.array([from_quad(Q)], dtype=np.int64))
        i = int(self.index_of_keys(key)[0])
        if i < 0:
            raise ValueError("point is not on the orbit")
        return i

    def letter_perm(self, letter) -> np.ndarray:
        """Index permutation of one braid letter, not a second key lookup.
        For sigma_i it is the BFS's map of exact-verified edges (each
        image's key group, renumbered by ascending key), which
        enumerate_orbit checked to be a bijection; for sigma_i^-1 it is
        that map's inverse, each of whose edges enumerate_orbit verified
        exactly against the point it came from."""
        return self.perms[letter]

    def f2_perms(self):
        """Permutations of the free generators x = s1 s3^-1 and
        y = s2 x s2^-1, two gathers each: x = s3^-1[s1] and
        y = s2^-1[x[s2]], the latter a slice at a time, so that no
        whole intermediate is built."""
        s2, s2i = self.letter_perm(bq.S2), self.letter_perm(bq.S2i)
        x = self.letter_perm(bq.S3i).take(self.letter_perm(bq.S1))
        y = np.empty(self.n, dtype=np.int32)
        for c in slices(self.n, 2):  # two gathers, their intp index copies
            np.take(s2i, x.take(s2[c]), out=y[c])
        return x, y

    def sigma_matrix_traces(self, i: int):
        """Trace of the sigma_i matrix of every point, plus the mask of
        points where that matrix is the identity."""
        p = self.p
        x, y = 4 * (i - 1), 4 * i  # sigma_i's matrix is block i-1 times block i inverse
        traces = np.empty(self.n, dtype=np.int64)
        ident = np.empty(self.n, dtype=bool)
        for c in slices(self.n, 16):
            q = entry_major(self.points[c])
            m = mm(p, q[x:x + 4], adj_raw(q[y:y + 4]))
            traces[c] = tr(p, m)
            ident[c] = is_scalar(m)
        return traces, ident

    # -- dump format ------------------------------------------------------

    MAGIC = b"CHQO"
    VERSION = 1

    def write_dump(self, path):
        """Binary stream of the 7-tuple canonical keys: header (magic,
        version, p, n) then n*7 little-endian u64 scalars."""
        p = self.p
        with open(path, "wb") as fh:
            fh.write(self.MAGIC)
            fh.write(struct.pack("<IQQ", self.VERSION, p, self.n))
            for c in slices(self.n, 16):
                fh.write(unpack_np(p, self.keys[c], 7).astype("<u8"))


def read_dump(path):
    """Read an orbit dump; returns (p, array of shape (n, 7)).

    Raises ValueError, naming the file and the defect, unless the file
    has the full header, exactly 56 bytes per point after it, every
    coordinate below p and the packed keys strictly ascending.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != OrbitIndex.MAGIC:
        raise ValueError(f"{path}: not an orbit dump (bad magic)")
    if len(data) < 24:
        raise ValueError(f"{path}: truncated header ({len(data)} of 24 bytes)")
    version, p, n = struct.unpack_from("<IQQ", data, 4)
    if version != OrbitIndex.VERSION:
        raise ValueError(f"{path}: unsupported dump version {version}")
    if not 2 <= p <= MAX_PACKED_PRIME:
        raise ValueError(f"{path}: p={p} outside the dump range 2..{MAX_PACKED_PRIME}")
    if len(data) != 24 + 56 * n:
        raise ValueError(f"{path}: {len(data)} bytes, but a dump of n={n} points "
                         f"has {24 + 56 * n}")
    coords = np.frombuffer(data, dtype="<u8", offset=24).reshape(n, 7)
    bad = np.flatnonzero((coords >= p).any(axis=1))
    if len(bad):
        raise ValueError(f"{path}: row {int(bad[0])} has a coordinate >= p={p}")
    coords = coords.astype(np.int64)
    keys = pack_np(p, coords)
    bad = np.flatnonzero(keys[1:] <= keys[:-1])
    if len(bad):
        raise ValueError(f"{path}: keys not strictly ascending at row {int(bad[0]) + 1}")
    return int(p), coords


def _on_x(params: Params, A, B, C, D):
    """Whether the lifts (A, B, C, D) satisfy the defining equations:
    gamma = A B^-1 C D^-1 and delta = A^-1 B C^-1 D equal those of
    params up to one common sign.  Entrywise as the ffield kernels: a
    bool for ints, a mask for blocks."""
    p = params.F.p
    gm, dm = params.gamma_mat, params.delta_mat
    gam = mm(p, mm(p, A, adj_raw(B)), mm(p, C, adj_raw(D)))
    del_ = mm(p, mm(p, adj_raw(A), B), mm(p, adj_raw(C), D))
    return ((eq(gam, gm) & eq(del_, dm))
            | (eq(gam, neg(p, gm)) & eq(del_, neg(p, dm))))


def _on_x_mask(params: Params, rows) -> np.ndarray:
    """Mask over (m, 16) rows: _on_x of each."""
    ok = np.empty(len(rows), dtype=bool)
    for c in slices(len(rows), 16):
        ok[c] = _on_x(params, *entry_major(rows[c]).reshape(4, 4, -1))
    return ok


def validate_start(P, params: Params):
    """Raise ValueError unless the quadruple P lies in X for params:
    _on_x in Python ints, so exact at any p (the int64 products of
    _on_x_mask are exact only below about p = 2^31)."""
    if not _on_x(params, *(X.m for X in P)):
        raise ValueError("gamma mismatch: point does not lie in X for these parameters")


@dataclass
class _Visited:
    """What the BFS has found so far: the rows in point order, and the
    visited keys, ascending, beside the point index of each.  _expand
    replaces the keys and indices once per layer and grows the rows by
    ndarray.resize without its reference check.  That is safe because
    every read of the rows is a take, which copies, so no view of them
    exists when a layer closes; any other reference (a profiler's) is
    to the same object, which sees the new buffer."""

    rows: np.ndarray
    keys: np.ndarray
    idx: np.ndarray


def enumerate_orbit(P, params: Params, max_points=MAX_POINTS,
                    frontier_shuffle_seed=None) -> OrbitIndex:
    """Closure of P under sigma_1, sigma_2 and sigma_3 (on a finite orbit,
    the braid group orbit), every recurrent edge verified exactly, with
    the letter permutations read off the edges and every sigma_i^-1
    edge verified against the point it came from.
    frontier_shuffle_seed reorders each frontier (the result must not
    depend on it).  max_points must be below 2^31: point indices in
    the BFS are stored as int32."""
    F = params.F
    p = F.p
    if p > MAX_PACKED_PRIME:
        raise OrbitBudgetError(f"p={p} exceeds the packed-key engine bound "
                               f"{MAX_PACKED_PRIME} (orbit would be ~p^4 points)", 0)
    if max_points >= 2 ** 31:
        raise OrbitBudgetError(f"max_points={max_points} is not below 2^31, the bound "
                               "of the int32 BFS successor indices", 0)
    checker = make_checker(params)
    validate_start(P, params)

    rng = None
    if frontier_shuffle_seed is not None:
        rng = np.random.default_rng(frontier_shuffle_seed)

    start = quad_to_row(P)[None, :]
    seen = _Visited(start.copy(), fast_keys(p, start), np.zeros(1, dtype=np.int32))
    frontier = np.zeros(1, dtype=np.int32)
    edges_verified = 0
    layers = []  # (frontier, its int32 successors under each sigma_i) of each layer

    while len(frontier):
        if rng is not None:
            frontier = rng.permutation(frontier)
        n_now = len(seen.rows)
        verified, succ = _expand(p, seen, frontier, checker, max_points)
        # one array per letter, so that _letter_perms can free each once read
        layers.append((frontier, [s.copy() for s in succ]))
        edges_verified += verified
        frontier = np.arange(n_now, len(seen.rows), dtype=np.int32)

    pts, keys, idx = seen.rows, seen.keys, seen.idx
    del seen
    rank = np.empty(len(idx), dtype=np.int32)  # point index -> ascending-key index
    rank[idx] = np.arange(len(idx), dtype=np.int32)
    # the rows into ascending-key order in place: a row is four 8-byte
    # words, gathered one word column at a time
    words = pts.view(np.uint64)
    for j in range(words.shape[1]):
        words[:, j] = words[:, j].take(idx)
    del idx, words
    perms = _letter_perms(layers, rank)
    del rank
    edges_verified += _verify_inverse_edges(p, pts, perms, checker)

    # soundness backstop: every representative satisfies the defining equations
    if not _on_x_mask(params, pts).all():
        raise OrbitError("internal error: representative violates the defining equations")

    return OrbitIndex(params, pts, keys, perms, edges_verified)


def _letter_perms(layers, rank):
    """The six letter permutations in ascending-key numbering.  Each
    sigma_i is read off the per-layer successors (point numbering,
    renumbered by rank), one letter at a time, each letter's successors
    freed once read; OrbitError unless it is a bijection, and
    sigma_i^-1 is its inverse.  Bijectivity is read off the scatter of
    the inverse: a point no index lands on keeps the -1 it started
    with."""
    n = len(rank)
    succ = np.empty(n, dtype=np.int32)  # one letter's successors, point numbering
    perms = {}
    for k, (i, _) in enumerate(GENS):
        for frontier, s in layers:
            succ[frontier] = s[k]
            s[k] = None
        perm = np.empty(n, dtype=np.int32)
        inv = np.full(n, -1, dtype=np.int32)
        for c in slices(n):
            perm[rank[c]] = rank[succ[c]]
        for c in slices(n):
            inv[perm[c]] = np.arange(c.start, c.stop, dtype=np.int32)
        missed = np.flatnonzero(inv < 0)
        if len(missed):
            raise OrbitError(f"orbit not closed: sigma{i} is not a bijection of the "
                             f"BFS points (first point without a preimage: index "
                             f"{int(missed[0])}, of {len(missed)})")
        perms[(i, 1)], perms[(i, -1)] = perm, inv
    return perms


def _verify_inverse_edges(p, pts, perms, checker):
    """Exact check of every sigma_i^-1 edge: sigma_i^-1 of each point is
    equivalent to the row that the inverse permutation names.  Nothing
    is keyed.  Returns the number of edges verified, 3n; OrbitError
    names the letter and the first point whose edge fails."""
    for i, _ in GENS:
        inv = perms[(i, -1)]
        for c in slices(len(pts), 16):
            images = apply_letter_np(p, pts[c], (i, -1))
            ok = checker.equivalent(images, pts.take(inv[c], axis=0))
            if not ok.all():
                raise OrbitError(f"the edge of sigma{i}^-1 at point index "
                                 f"{c.start + int(np.argmin(ok))} fails exact "
                                 f"verification at p={p} (it inverts a verified "
                                 f"sigma{i} edge)")
    return len(GENS) * len(pts)


def _verify_recurrent(p, checker, images, reps, keys):
    """Exact check of recurrent edges: each image against the
    representative of its key.  Returns the number of edges verified;
    KeyCollisionError names the key of the first image that fails."""
    ok = checker.equivalent(images, reps)
    if not ok.all():
        raise KeyCollisionError(
            "canonical trace key collision between inequivalent points "
            f"(key {int(keys[np.argmin(ok)])}); exact dedup falsified at p={p}")
    return len(ok)


def _expand(p, seen, frontier, checker, max_points):
    """One BFS layer, in slices: each of sigma_1, sigma_2, sigma_3 in
    turn is applied to one slice of frontier points at a time, so the
    slices follow the layer's letter-major image order.  An image whose
    key is visited is verified against that older point in its slice.
    The others are kept, key and row, until the layer closes; then one
    stable sort groups them by key, the first image of each group in
    letter-major order is its representative, every other member is
    verified against it, and the groups become points n_now, n_now + 1,
    ... in ascending key order, merged into seen once.

    Returns (edges verified, successors): successors is the (3, m) int32
    point index of the image of each frontier point under each sigma_i.
    Apart from the layer's images on unvisited keys, the temporaries are
    those of one slice.
    """
    pts = seen.rows
    n_now, m = len(pts), len(frontier)
    # -1 marks an image on an unvisited key until the layer closes
    succ = np.empty((len(GENS), m), dtype=np.int32)
    new_keys, new_rows = [], []  # those images, in letter-major order
    verified = 0
    for k, L in enumerate(GENS):
        for c in slices(m, 16):
            images = apply_letter_np(p, pts.take(frontier[c], axis=0), L)
            ikeys = fast_keys(p, images)
            asc = np.argsort(ikeys)  # searchsorted is fastest on ascending needles
            pos = np.empty_like(asc)
            pos[asc] = np.minimum(np.searchsorted(seen.keys, ikeys[asc]), n_now - 1)
            old = seen.keys[pos] == ikeys
            at = np.where(old, seen.idx[pos], -1)
            verified += _verify_recurrent(p, checker, images[old],
                                          pts.take(at[old], axis=0), ikeys[old])
            succ[k, c] = at
            new_keys.append(ikeys[~old])
            new_rows.append(images[~old])

    keys = np.concatenate(new_keys)
    del new_keys
    order = np.argsort(keys, kind="stable")  # each group's first image first
    keys.sort()
    head = np.empty(len(keys), dtype=bool)
    head[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=head[1:])
    group = np.cumsum(head, dtype=np.int32)
    group -= 1  # each sorted image's new point, less n_now
    n_next = n_now + int(np.count_nonzero(head))
    if n_next > max_points:
        raise OrbitBudgetError(f"orbit exceeds max_points={max_points}", n_next)
    pending = np.concatenate(new_rows)
    del new_rows
    first = order[head]  # each new point's representative
    rec = np.flatnonzero(~head)
    for c in slices(len(rec), 16):
        r = rec[c]
        verified += _verify_recurrent(p, checker, pending.take(order[r], axis=0),
                                      pending.take(first[group[r]], axis=0), keys[r])
    dest = np.empty(len(order), dtype=np.int32)
    dest[order] = group
    dest += n_now
    succ[succ < 0] = dest  # in C order, the -1 entries are the kept images' order
    keys = keys[head]
    at = np.searchsorted(seen.keys, keys)
    seen.keys = np.insert(seen.keys, at, keys)
    seen.idx = np.insert(seen.idx, at, np.arange(n_now, n_next, dtype=np.int32))
    del keys, order, head, group, rec, dest, at  # freed before the rows grow
    seen.rows.resize((n_next, 16), refcheck=False)  # see _Visited
    np.take(pending, first, axis=0, out=seen.rows[n_now:])
    return verified, succ


# -- the reversal twist ---------------------------------------------------

_REVERSED = np.r_[12:16, 8:12, 4:8, 0:4]  # columns of (D, C, B, A)


def epsilon_conjugators(params: Params):
    """(g, h): g gamma^-1 g^-1 = gamma and h delta h^-1 = delta^-1, of
    equal determinant class, (-1 | p); InvariantError if they differ.

    Each conjugates a non-involution A (build refuses involutions) onto
    the lift adj(A) of A^-1 (-adj(A) has trace -tr(A) != tr(A)), by
    conjugator_np's g = [w | adj(A) w] adj([v | A v]).  adj(A) has A's
    cyclic vector, w = v, and det[v | adj(A) v] = -det[v | A v], so
    det g = -det[v | A v]^2.
    """
    g, cg = conjugator(params.gamma.inv(), params.gamma)
    h, ch = conjugator(params.delta, params.delta.inv())
    if cg != ch:
        raise InvariantError(f"reversal conjugators at p={params.F.p}: determinant class "
                             f"{cg} for gamma, {ch} for delta (both are (-1 | p) for a "
                             "non-involution)")
    return g, h


def epsilon_perm(orbit: OrbitIndex, params: Params) -> np.ndarray:
    """Index permutation of the reversal twist Q -> g eps(Q) h, an
    involution (OrbitError names the first point where it is not).

    The trace key of the image is independent of (g, h) (two-sided
    torus twists only flip lift signs), so the index map needs only the
    reversed quadruple; the conjugators are still required to exist
    with compatible classes.  Every image is verified against its
    representative through the twisted coset
    C(gamma) g x h C(delta): as class(g) = class(h), that is the plain
    equivalence test on the rows g eps(Q) h.
    """
    g, h = epsilon_conjugators(params)
    p = orbit.p
    idx = np.empty(orbit.n, dtype=np.int32)
    for c in slices(orbit.n, 16):
        idx[c] = orbit.index_of_keys(fast_keys(p, orbit.points[c][:, _REVERSED]))
    if (idx < 0).any():
        raise EpsilonOutsideOrbitError(
            f"epsilon maps {int((idx < 0).sum())} points outside the orbit at p={p}")
    for c in slices(orbit.n, 2):  # an intp index copy and an int64 arange
        bad = np.flatnonzero(idx.take(idx[c]) != np.arange(c.start, c.stop))
        if len(bad):
            i = c.start + int(bad[0])
            raise OrbitError(f"epsilon is not an involution on the orbit at p={p}: "
                             f"index {i} -> {int(idx[i])} -> {int(idx[idx[i]])}")
    checker = make_checker(params)
    for c in slices(orbit.n, 16):
        twisted = _twisted_reversal(p, g, h, orbit.points[c])
        if not checker.equivalent(twisted, orbit.points.take(idx[c], axis=0)).all():
            raise EpsilonOutsideOrbitError(
                "epsilon image fails exact equivalence with its representative")
    return idx


def _twisted_reversal(p, g, h, rows):
    """The rows g eps(Q) h, blockwise, as ROW_DTYPE: lifts of the twisted
    images with invertible blocks, which is all the checker needs.  g Q_k
    is left unreduced (below 2p^2), so each block is reduced once."""
    out = np.empty(rows.shape, dtype=ROW_DTYPE)
    q = entry_major(rows)
    for k in range(0, 16, 4):  # eps reverses the blocks
        for j, v in enumerate(mm(p, mm_raw(g, q[12 - k:16 - k]), h), k):
            out[:, j] = v
    return out
