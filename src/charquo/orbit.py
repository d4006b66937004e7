"""BFS enumeration of the braid orbit of a quadruple in X^(2), with
deterministic point indexing and generator-permutation extraction.

The engine stores full matrix quadruples as numpy arrays of shape
(n, 16) (four sign-canonical determinant-1 lifts, row-major) and
deduplicates on the packed canonical trace key.  The 2x2 kernels and the
base-p packing it runs on are ffield's, applied to entry-major copies of
the rows; the trace coordinates and their key are charvar's
(trace_coords, canon_keys_np).  This module owns the BFS, the
exact-equivalence checker, the index and the dump format.  The BFS only
enumerates.  verify_edges, a function of a finished index, re-verifies
every sigma_i and sigma_i^-1 edge against the stored row it names with
the centralizer-coset equivalence, so the enumeration is sound even
where the injectivity of the trace map is unproven; the pipeline
(witness.run_pipeline) runs it in a side process while it goes on with
the permutations.  The check solves for one candidate centralizer pair
per row, where the pencil span(I, gamma) meets the pencil of pairs that
the A blocks allow, and tests only that pair (see _ExactChecker); there
is no other path.  A genuine trace-key collision between inequivalent
points raises KeyCollisionError (the OrbitIndex contract requires
pairwise-distinct keys).

Indices are assigned by ascending canonical key after enumeration
closes, so reports are byte-reproducible regardless of traversal order.

The BFS applies and keys only the forward letters sigma_1, sigma_2,
sigma_3: the orbit is finite, so closure under them is the group orbit.
A layer's frontier is the block of points that the layer before it
found, so it is read by slices of the rows, not gathered.  Each layer
is deduplicated without per-key Python code, in slices: each letter in
turn is applied to one slice of the frontier at a time (the layer's
letter-major image order), and each image's key is located by
searchsorted in the sorted visited keys (kept beside the point index of
each).  The images on unvisited keys are kept, key and row, until the
layer closes.  Then one stable argsort groups them by key: the first
image of each group in letter-major order is its representative, whose
row is stored.  The groups take the next point indices in ascending key
order, and their keys are merged into the visited keys once.

Each layer also writes where every image of its frontier landed: the
point index of the image's key group, as int32, and for each new point
the letter whose image is its stored row (the BFS tree, OrbitIndex.tree).
Once the BFS closes, each letter's successors, in point order, are
renumbered by ascending key into sigma_1, sigma_2 and sigma_3, one
letter at a time.  Each must be a bijection, and sigma_i^-1 is its
inverse.  verify_edges is a pass
without keys: it applies each letter to every point and verifies the
image exactly against the row the permutation names.  Of the 3n
sigma_i edges it skips the n - 1 tree edges, whose image is the stored
row itself, and checks the other 2n + 1; with the 3n sigma_i^-1 edges
that is 5n + 1 in all.  No image is keyed twice.

The reversal twist's permutation (epsilon_perm) is read off keys alone.
What the quotient needs of the four generators, check_f2_identities
checks on the permutations themselves: braidquandle.F2_CONJUGATES, the
eight identities that make <x, y> normal and, by Nielsen's theorem, the
kernel of F2 acting through x and y characteristic.

Rows are stored as ROW_DTYPE (uint16): every entry is a residue below
p <= MAX_PACKED_PRIME.  The row kernels (fast_keys, apply_letter_np and
exact verification) widen their whole input, at most one slice of
rows from every caller, into an entry-major int64 (16, m) copy
(ffield.entry_major), whose slices of four rows are blocks for the
ffield kernels, so no narrow array reaches int arithmetic.  Every loop
here is cut by numutil.slices, with the int64 entries its temporaries
hold per item as width: 16 for rows (8 192 a slice), 1 for an int32
gather (numpy's intp copy of the indices) or scatter.

Memory.  An orbit has at most x_size(p) points, so enumerate_orbit
allocates its state once, before the first layer, for that many: 33
bytes per point of rows and tree letters (the uint16 quadruple, the
uint8 letter) and 12 of int32 successors (three letters).  The layers
write into it in place, and pages never written are never resident
(n = x_size(p) at every prime run so far).  The visited keys take 12
bytes per point (int64 key, int32 point index) and are merged once a
layer.  At rest the index keeps 65 bytes per point: the row, the key,
the tree letter and the six int32 letter permutations, 24 bytes of
them.  A layer adds its images on unvisited keys, 40 bytes each (row
and key; there are about 1.65 per new point at p = 19 and 31), and at
its close their sort order, groups and representatives.  The other
temporaries of a layer are those of one slice.  The permutations are
filled one sigma_i at a time, its inverse scattered beside it, and the
rows are put into key order in place.  Point indices are int32
throughout, from the BFS successors to the letter permutations,
epsilon_perm and f2_perms.  check_budget is the one size rule, and
enumerate_orbit calls it before anything else: it refuses x_size(p)
points when that is not below 2^31 or when x_size(p) * BYTES_PER_POINT
exceeds MemAvailable (not checked where /proc/meminfo does not exist).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from . import braidquandle as bq
from .charvar import Params, canon_keys_np, from_quad, trace_coords
from .ffield import (ProjMat2, adj_raw, det, entry_major, eq, is_scalar, legendre_table, mm,
                     mm_raw, neg, pack_np, pencil_annihilators, psl_canon_np, residue, tr,
                     unpack_np)
from .numutil import BudgetError, InvariantError, slices, write_atomic

GENS = (bq.S1, bq.S2, bq.S3)

MAX_PACKED_PRIME = 509  # 7 base-p digits must fit in an int64

# dtype of the stored rows: every entry is a residue below p, so it
# must hold MAX_PACKED_PRIME - 1
ROW_DTYPE = np.uint16
if np.iinfo(ROW_DTYPE).max < MAX_PACKED_PRIME:
    raise InvariantError(f"{ROW_DTYPE.__name__} rows cannot hold residues mod {MAX_PACKED_PRIME}")

# Bytes per orbit point that run_pipeline needs, parent and verification
# job together: 176-199 measured at p = 41 and 59, rounded up (README)
BYTES_PER_POINT = 250


def x_size(p: int) -> int:
    """|X^(2)| = ((p^2 - 1)/2)^2: the number of gauge classes in the half
    of the level set that holds the orbit, for any gamma and delta that
    pass witness.run_pipeline's gate (traces off +-2, so both are regular
    semisimple; one in a split torus, the other in a non-split one).

    Proof.  Let G = SL2(F_p), |G| = p (p^2 - 1), and fix SL2 lifts g of
    gamma and h of delta, one split and one non-split.
    1. The count formula.  The number N(g, h) of (A, B, C, D) in G^4 with
       A B^-1 C D^-1 = g and A^-1 B C^-1 D = h is
       |G|^2 sum_chi chi(g^-1) conj(chi(h)) / chi(1)^2, over the
       irreducible characters chi of G.  The first equation fixes
       D = g^-1 A B^-1 C.  Put W = C B^-1: the second becomes
       (A^-1 (g W)^-1 A)(B^-1 W B) = h, a product of an element of the
       class of (g W)^-1 and one of the class of W.  For fixed W there
       are |G| sum_chi chi((g W)^-1) chi(W) conj(chi(h)) / chi(1) pairs
       (A, B) (Frobenius), and Schur orthogonality sums over W:
       sum_W chi(W) chi(W^-1 g^-1) = |G| chi(g^-1) / chi(1).
    2. Only two characters count.  In the character table of SL2(F_p)
       (W. Fulton, J. Harris, Representation Theory, 5.2) every
       irreducible character but the trivial one and the Steinberg
       character St, of degree p, vanishes on the split regular classes
       or on the non-split ones.  St is 1 on the former and -1 on the
       latter, and -g, -h are regular of the same types as g, h.  So
       each of the four sign choices gives
       N(+-g, +-h) = |G|^2 (1 - 1/p^2) = (p^2 - 1)^3.
    3. Two halves.  Each block occurs once in each word, so negating the
       lift of one block negates both words: the relative sign e of the
       words (e1 g and e2 h, e = e1 e2) is one for all 16 lifts of a
       PSL2 quadruple Q with gamma(Q) = gamma and delta(Q) = delta.  Those
       lifts are the G^4 solutions for (g, e h) and (-g, -e h), so each
       half holds 2 (p^2 - 1)^3 / 16 = (p^2 - 1)^3 / 8 quadruples.  The
       braid letters act on lifts by the quandle formulas, which fix both
       words exactly in any group (braidquandle.gamma and delta), so an
       orbit lies in one half.
    4. Free gauge.  The gauge is the (p - 1)/2 * (p + 1)/2 * 2
       = (p^2 - 1)/2 pairs (ghat, dhat) of C(gamma) x C(delta) in PGL2
       with equal determinant class, acting by Q -> ghat Q dhat.  Scaled
       to det(ghat) det(dhat) = 1 they map lifts to lifts and fix both
       words (ghat commutes with g, dhat with h), so each half is a union
       of gauge orbits.  The action is free: ghat A dhat = A puts ghat in
       C(gamma) and in A C(delta) A^-1, a split torus and a non-split
       one, which meet only in the scalars (as witness._exact_keys_np
       argues), so ghat = dhat = 1 in PGL2.  So each half holds
       (p^2 - 1)^3 / 8 / ((p^2 - 1)/2) classes.

    The orbit's points are those classes, one trace key each, so n is at
    most this count, and equals it exactly when the orbit fills its half;
    enumerate_orbit sizes its buffers by it.  witness.count_x counts the
    trace keys of the membership equations' solutions instead; the two
    agree at every prime and trace pair tier-1 tries.
    """
    return ((p * p - 1) // 2) ** 2


def check_budget(p, n):
    """BudgetError unless n is below 2^31 (the point indices are int32)
    and n * BYTES_PER_POINT is within the memory available."""
    if n >= 2 ** 31:
        raise BudgetError(f"an orbit of n = {n} points at p = {p} is not below 2^31, "
                          "the bound of the int32 point indices")
    need, have = n * BYTES_PER_POINT, mem_available()
    if have is not None and need > have:
        raise BudgetError(f"an orbit of n = {n} points at p = {p} needs about "
                          f"{need / 1e6:.1f} MB, and {have / 1e6:.1f} MB is available")


def mem_available():
    """MemAvailable of /proc/meminfo in bytes; None where there is none."""
    try:
        with open("/proc/meminfo") as fh:
            return next((int(line.split()[1]) * 1024 for line in fh
                         if line.startswith("MemAvailable:")), None)
    except FileNotFoundError:
        return None


class OrbitError(InvariantError):
    pass


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
    return np.array([v for X in Q for v in X.m], dtype=ROW_DTYPE)


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
    """The exact-equivalence checker of verify_edges; ValueError unless
    params satisfy the split/non-split assumption."""
    return _ExactChecker(params)


# -- the orbit index ------------------------------------------------------

@dataclass
class OrbitIndex:
    params: Params
    points: np.ndarray  # (n, 16) ROW_DTYPE residues, ascending key order
    keys: np.ndarray    # (n,) packed canonical trace keys, ascending
    perms: dict         # letter -> (n,) int32 index permutation
    tree: np.ndarray    # (n,) uint8 k: the row is sigma_(k+1) of the BFS parent's
                        # row (255 at the start point)

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
        For sigma_i it is the BFS's map of edges (each image's key group,
        renumbered by ascending key), which enumerate_orbit checked to be
        a bijection; for sigma_i^-1 it is that map's inverse.
        verify_edges verifies the edges of all six exactly."""
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

    @staticmethod
    def write_dump(path, p, keys):
        """The dump of an orbit at p with the ascending packed keys, written
        through numutil.write_atomic: header (magic, version, p, n) then
        n*7 little-endian u64 scalars, the 7-tuple canonical keys.  It
        needs the keys alone, so the index can be dropped before."""
        def write(fh):
            fh.write(OrbitIndex.MAGIC)
            fh.write(struct.pack("<IQQ", OrbitIndex.VERSION, p, len(keys)))
            for c in slices(len(keys), 16):
                fh.write(unpack_np(p, keys[c], 7).astype("<u8"))

        write_atomic(path, write, "b")


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


def enumerate_orbit(P, params: Params) -> OrbitIndex:
    """Closure of P under sigma_1, sigma_2 and sigma_3 (on a finite orbit,
    the braid group orbit), with the letter permutations read off the
    edges and the BFS tree beside them.  It only enumerates: verify_edges
    checks the edges exactly.  check_budget(p, x_size(p)) runs first, so
    BudgetError comes before any allocation; then the rows, the int32
    successors of the three letters and the tree letters are allocated
    once for x_size(p) points, and the BFS fills them in place."""
    p = params.F.p
    size = x_size(p)
    check_budget(p, size)
    validate_start(P, params)
    rows = np.empty((size, 16), dtype=ROW_DTYPE)
    succ = np.empty((len(GENS), size), dtype=np.int32)
    tree = np.empty(size, dtype=np.uint8)
    rows[0], tree[0] = quad_to_row(P), 255
    keys, idx = fast_keys(p, rows[:1]), np.zeros(1, dtype=np.int32)
    lo = 0  # the frontier is the points lo .. len(keys) - 1
    while lo < len(keys):
        lo, (keys, idx) = len(keys), _expand(p, rows, succ, tree, keys, idx, lo)

    n = len(keys)
    pts, succ, tree = rows[:n], succ[:, :n], tree[:n]  # views, if ever n < size
    rank = np.empty(n, dtype=np.int32)  # point index -> ascending-key index
    rank[idx] = np.arange(n, dtype=np.int32)
    # the rows into ascending-key order in place: a row is four 8-byte
    # words, gathered one word column at a time
    words = pts.view(np.uint64)
    for j in range(words.shape[1]):
        words[:, j] = words[:, j].take(idx)
    tree = tree.take(idx)
    del idx, words
    perms = _letter_perms(succ, rank)
    del rank, succ

    # soundness backstop: every representative satisfies the defining equations
    if not _on_x_mask(params, pts).all():
        raise OrbitError("internal error: representative violates the defining equations")

    return OrbitIndex(params, pts, keys, perms, tree)


def _letter_perms(succ, rank):
    """The six letter permutations in ascending-key numbering.  Row k of
    succ is sigma_(k+1) in point numbering (the frontiers are
    consecutive blocks of points), renumbered here by rank, one letter
    at a time; OrbitError unless it is a bijection, and sigma_i^-1 is
    its inverse.  Bijectivity is read off the scatter of the inverse: a
    point no index lands on keeps the -1 it started with."""
    n = len(rank)
    perms = {}
    for k, (i, _) in enumerate(GENS):
        perm = np.empty(n, dtype=np.int32)
        for c in slices(n):
            perm[rank[c]] = rank[succ[k, c]]
        inv = np.full(n, -1, dtype=np.int32)
        for c in slices(n):
            inv[perm[c]] = np.arange(c.start, c.stop, dtype=np.int32)
        missed = np.flatnonzero(inv < 0)
        if len(missed):
            raise OrbitError(f"orbit not closed: sigma{i} is not a bijection of the "
                             f"BFS points (first point without a preimage: index "
                             f"{int(missed[0])}, of {len(missed)})")
        perms[(i, 1)], perms[(i, -1)] = perm, inv
    return perms


def verify_edges(orbit: OrbitIndex) -> int:
    """Exact check of every edge of the six letters, one slice of points
    at a time: the image of each point under sigma_i and sigma_i^-1 is
    equivalent to the row that the letter's permutation names.  A
    sigma_i edge into a point whose tree letter is i - 1 is skipped (the
    point has one preimage, its BFS parent, and its row is that image),
    and sigma_i is applied only to the rows of the other edges.  Nothing
    is keyed.  Returns the number of edges verified, 2n + 1 of
    sigma_i and 3n of sigma_i^-1.  A failed sigma_i edge raises
    KeyCollisionError naming the key that the BFS merged the image into;
    a failed sigma_i^-1 edge raises OrbitError naming the letter and the
    point; ValueError unless orbit.params satisfy the split/non-split
    assumption."""
    p, pts = orbit.p, orbit.points
    checker = make_checker(orbit.params)
    verified = 0
    for c in slices(len(pts), 16):
        for i, _ in GENS:
            to = orbit.perms[(i, 1)][c]
            off_tree = orbit.tree.take(to) != i - 1
            to = to[off_tree]
            ok = checker.equivalent(apply_letter_np(p, pts[c][off_tree], (i, 1)),
                                    pts.take(to, axis=0))
            if not ok.all():
                raise KeyCollisionError(
                    "canonical trace key collision between inequivalent points "
                    f"(key {int(orbit.keys[to[np.argmin(ok)]])}); exact dedup falsified "
                    f"at p={p}")
            back = orbit.perms[(i, -1)][c]
            ok = checker.equivalent(apply_letter_np(p, pts[c], (i, -1)), pts.take(back, axis=0))
            if not ok.all():
                raise OrbitError(f"the edge of sigma{i}^-1 at point index "
                                 f"{c.start + int(np.argmin(ok))} fails exact "
                                 f"verification at p={p} (it inverts a verified "
                                 f"sigma{i} edge)")
            verified += len(to) + len(back)
    return verified


def _expand(p, rows, succ, tree, keys, idx, lo):
    """One BFS layer, in slices, in place: the frontier is the points
    lo .. n_now - 1 (n_now = len(keys)) that the previous layer found,
    and each of sigma_1, sigma_2, sigma_3 in turn is applied to one slice
    of its rows at a time, so the slices follow the layer's letter-major
    image order.  keys are the visited keys, ascending, and idx the
    point index of each.  An image whose key is visited lands on that
    older point.  The others are kept, key and row, until the layer
    closes; then one stable sort groups them by key, the first image of
    each group in letter-major order is its representative, and the
    groups become points n_now, n_now + 1, ... in ascending key order.

    Writes succ[k, lo:n_now], the point index of the image of each
    frontier point under sigma_(k+1); the representatives' rows into
    rows[n_now:n_next]; and tree[n_now:n_next], for each new point the
    k whose letter its representative is an image under, read off each
    letter's running count of kept images.  Returns the visited keys and
    indices with the new points merged in, n_next of each.
    InvariantError, naming p, for a layer that would pass len(rows),
    which is x_size(p).  Apart from the layer's images on unvisited
    keys, the temporaries are those of one slice.
    """
    n_now = len(keys)
    new_keys, new_rows = [], []  # the images on unvisited keys, in letter-major order
    ends = []  # how many of them each letter's slices end at
    for k, L in enumerate(GENS):
        for c in slices(n_now - lo, 16):
            c = slice(lo + c.start, lo + c.stop)
            images = apply_letter_np(p, rows[c], L)
            ikeys = fast_keys(p, images)
            asc = np.argsort(ikeys)  # searchsorted is fastest on ascending needles
            pos = np.empty_like(asc)
            pos[asc] = np.minimum(np.searchsorted(keys, ikeys[asc]), n_now - 1)
            old = keys[pos] == ikeys
            succ[k, c] = np.where(old, idx[pos], -1)  # -1 until the layer closes
            new_keys.append(ikeys[~old])
            new_rows.append(images[~old])
        ends.append(sum(map(len, new_keys)))

    found = np.concatenate(new_keys)
    pending = np.concatenate(new_rows)
    del new_keys, new_rows
    order = np.argsort(found, kind="stable")  # each group's first image first
    found.sort()
    head = np.empty(len(found), dtype=bool)
    head[:1] = True
    np.not_equal(found[1:], found[:-1], out=head[1:])
    n_next = n_now + int(np.count_nonzero(head))
    if n_next > len(rows):  # the points are distinct gauge classes of the orbit's half
        raise InvariantError(f"orbit at p = {p}: a BFS layer reaches n = {n_next} > "
                             f"x_size = {len(rows)}")
    first = order[head]  # each new point's representative
    np.take(pending, first, axis=0, out=rows[n_now:n_next])
    del pending  # before the keys are merged: the caller holds the old ones until we return
    tree[n_now:n_next] = np.searchsorted(ends, first, side="right")
    group = np.cumsum(head, dtype=np.int32)
    group += n_now - 1  # each sorted image's new point
    dest = np.empty(len(order), dtype=np.int32)
    dest[order] = group
    layer = succ[:, lo:n_now]
    layer[layer < 0] = dest  # in C order, the -1 entries are the kept images' order
    del first, group, order, dest, layer  # likewise
    found = found[head]
    at = np.searchsorted(keys, found)
    return (np.insert(keys, at, found),
            np.insert(idx, at, np.arange(n_now, n_next, dtype=np.int32)))


# -- the reversal twist and the free generators ---------------------------

_REVERSED = np.r_[12:16, 8:12, 4:8, 0:4]  # columns of (D, C, B, A)


def epsilon_perm(orbit: OrbitIndex) -> np.ndarray:
    """Index permutation of the reversal twist Q -> g eps(Q) h (g and h
    conjugate gamma^-1 to gamma and delta to delta^-1), an involution
    (OrbitError names the first point where it is not).

    The trace key of the image does not depend on g and h (two-sided
    torus twists only flip lift signs), so the index map keys only the
    reversed quadruple.  EpsilonOutsideOrbitError when an image's key is
    not on the orbit.  No image is checked exactly: what the quotient
    needs of this permutation, check_f2_identities checks.
    """
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
    return idx


def check_f2_identities(p, perms):
    """Check braidquandle.F2_CONJUGATES on permutations: perms maps
    "sigma1", "sigma2", "sigma3", "epsilon", "x" and "y" to permutations
    of one degree (checked ones, as a report's arrays after
    permgrp.check_perm).  g^-1 w g = u is tested as "w, then g" against
    "g, then u", a slice of points at a time, so only y^-1 is built
    whole.  InvariantError names p, g and x or y at the first failure."""
    y = perms["y"]
    n = len(y)
    letters = {"x": perms["x"], "y": y, "Y": np.empty_like(y)}
    for c in slices(n):
        letters["Y"][y[c]] = np.arange(c.start, c.stop, dtype=y.dtype)
    for g, images in bq.F2_CONJUGATES.items():
        for w, u in zip("xy", images):
            for c in slices(n, 2):  # a gather and its intp index copy
                lhs = perms[g].take(letters[w][c])
                rhs = perms[g][c]
                for letter in u:
                    rhs = letters[letter].take(rhs)
                bad = np.flatnonzero(lhs != rhs)
                if len(bad):
                    word = u.replace("Y", "y^-1")
                    raise InvariantError(
                        f"F2 identity fails at p = {p}: {g}^-1 {w} {g} is not {word} "
                        f"(words read left to right), first at point index "
                        f"{c.start + int(bad[0])}")
