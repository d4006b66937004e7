"""Trace coordinates for quadruples: the 7-tuple model, its sign-flip
canonical keys, the explicit polynomial braid actions, the Fricke
relation and the membership equations.

A quadruple (A,B,C,D) of PSL2 elements maps to the triple
M1 = B^-1 A, M2 = A^-1 C, M3 = D^-1 C of SL2 lifts and then to the
seven traces

    a = tr(M1), b = tr(M2), c = tr(M3),
    x = tr(M2 M3), y = tr(M1 M3), z = tr(M1 M2), p7 = tr(M1 M2 M3).

The last coordinate is written p7 throughout the code to keep it apart
from the prime; reports print the tuple in the order (a,b,c,x,y,z,p).
Changing the sign of a lift M_i flips the four coordinates containing
it, giving the group of 8 flips below; the canonical key is the
lexicographic minimum of the flip orbit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .ffield import (ElementClass, Mat, PrimeField, ProjMat2, adj, adj_raw,
                     centralizer_pgl, classify, det, mm, mm_raw, pack_np, pgl_canon,
                     residue, tr, tr_mm)

TraceTuple = tuple  # (a, b, c, x, y, z, p7), entries in [0, p)

# Sign patterns of (a,b,c,x,y,z,p7) under flipping the lift of M1, M2, M3.
FLIP_SIGNS = []
for e1 in (1, -1):
    for e2 in (1, -1):
        for e3 in (1, -1):
            FLIP_SIGNS.append((e1, e2, e3, e2 * e3, e1 * e3, e1 * e2, e1 * e2 * e3))


def apply_flip(t: TraceTuple, signs, p: int) -> TraceTuple:
    return tuple((v if s == 1 else -v) % p for v, s in zip(t, signs))


def canonicalize(t: TraceTuple, p: int) -> TraceTuple:
    """Lexicographically minimal image of t under the 8 sign flips."""
    return min(apply_flip(t, s, p) for s in FLIP_SIGNS)


def canon_keys_np(p: int, t) -> np.ndarray:
    """Packed canonical key of each 7-tuple along the last axis of t:
    canonicalize then pack_np, as the minimum of the packed flips,
    taken one flip at a time.  Each flip sums 7 columns selected from
    the weighted digits t_j p^(6-j) and (-t_j mod p) p^(6-j)."""
    weights = pack_np(p, np.eye(7, dtype=np.int64))  # p^6 .. 1; checks p^7 < 2^63
    # coordinate-major layout, so each flip selects whole columns
    t = np.asfortranarray(t)
    pos = t * weights
    neg = residue(p, -t)
    neg *= weights
    best = None
    for signs in FLIP_SIGNS:
        cols = [pos[..., j] if s == 1 else neg[..., j] for j, s in enumerate(signs)]
        key = cols[0].copy()
        for col in cols[1:]:
            key += col
        best = key if best is None else np.minimum(best, key, out=best)
    return best


def trace_coords(p, A, B, C, D) -> TraceTuple:
    """The 7 trace coordinates of the lifts (A, B, C, D), entrywise as
    the ffield kernels: ints, or one coordinate array per matrix of
    entry-major blocks.

    Only the 7 traces are reduced.  For entries in [0, p), M1, M2 and
    M3 are unreduced products below 2p^2 in absolute value, M1 M2 below
    8p^4, and the largest sum, tr(M1 M2 M3), below 64 p^6 < 2^60 for
    p <= 509."""
    m1 = mm_raw(adj_raw(B), A)
    m2 = mm_raw(adj_raw(A), C)
    m3 = mm_raw(adj_raw(D), C)
    m12 = mm_raw(m1, m2)
    return (tr(p, m1), tr(p, m2), tr(p, m3), tr_mm(p, m2, m3), tr_mm(p, m1, m3),
            tr(p, m12), tr_mm(p, m12, m3))


def from_quad(Q) -> TraceTuple:
    """The 7 trace coordinates of a quadruple of ProjMat2."""
    return trace_coords(Q[0].field.p, *(X.m for X in Q))


def sigma_action(i: int, direction: int, t: TraceTuple, p: int) -> TraceTuple:
    """The printed polynomial action of sigma_i^(+-1) on 7-tuples."""
    a, b, c, x, y, z, p7 = t
    if i == 1:
        if direction == 1:
            out = (a, a * b - z, c, a * x - p7, y, b, x)
        else:
            out = (a, z, c, p7, y, a * z - b, a * p7 - x)
    elif i == 2:
        if direction == 1:
            out = (a * z - b, a, c * z - p7, a * c * z - a * p7 - b * c + x, y, z, c)
        else:
            out = (b, b * z - a, p7, x - b * c - a * p7 + b * p7 * z, y, z, p7 * z - c)
    elif i == 3:
        if direction == 1:
            out = (a, x, c, c * x - b, y, p7, c * p7 - z)
        else:
            out = (a, c * b - x, c, b, y, c * z - p7, z)
    else:
        raise ValueError(f"bad generator index {i}")
    return tuple(v % p for v in out)


def fricke_value(t: TraceTuple, p: int) -> int:
    """The Fricke quadratic evaluated at t (zero on every matrix-derived
    tuple)."""
    a, b, c, x, y, z, p7 = t
    s = a * x + b * y + c * z - a * b * c
    q = (a * a + b * b + c * c + x * x + y * y + z * z
         + x * y * z - a * b * z - b * c * x - c * a * y - 4)
    return (p7 * p7 - s * p7 + q) % p


def fricke_check(t: TraceTuple, p: int) -> bool:
    return fricke_value(t, p) == 0


# -- parameters (gamma, delta) ------------------------------------------

@dataclass
class Params:
    """Fixed SL2 representatives of (gamma, delta) with traces and
    cached PGL2 centralizer data."""

    F: PrimeField
    gamma_mat: Mat
    delta_mat: Mat
    _cent_cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        F = self.F
        p = F.p
        if det(p, self.gamma_mat) != 1 or det(p, self.delta_mat) != 1:
            raise ValueError("gamma, delta must be SL2 matrices")
        self.gamma = ProjMat2.of(F, self.gamma_mat)
        self.delta = ProjMat2.of(F, self.delta_mat)
        self.tgamma = tr(p, self.gamma_mat)
        self.tdelta = tr(p, self.delta_mat)

    def satisfies_nonconjugation(self) -> bool:
        """The standing assumption: both non-trivial non-involution
        non-unipotent, one split and the other non-split."""
        cg, cd = classify(self.gamma), classify(self.delta)
        return {cg, cd} == {ElementClass.SPLIT, ElementClass.NONSPLIT}

    def centralizer(self, which: str):
        """[(matrix, det_class)] for the PGL2 centralizer of gamma/delta."""
        if which not in self._cent_cache:
            M = self.gamma if which == "gamma" else self.delta
            self._cent_cache[which] = centralizer_pgl(M)
        return self._cent_cache[which]

    def equal_class_pairs(self):
        """All (ghat, dhat) in C(gamma) x C(delta) with equal determinant
        class; these are exactly the pairs acting on points of X."""
        if "pairs" not in self._cent_cache:
            cg = self.centralizer("gamma")
            cd = self.centralizer("delta")
            pairs = [(g, h) for g, sg in cg for h, sh in cd if sg == sh]
            self._cent_cache["pairs"] = pairs
        return self._cent_cache["pairs"]

    def delta_centralizer_lookup(self):
        """pgl-canonical matrix -> det_class for C_PGL2(delta)."""
        if "dlook" not in self._cent_cache:
            self._cent_cache["dlook"] = dict(self.centralizer("delta"))
        return self._cent_cache["dlook"]


def membership(t: TraceTuple, params: Params) -> bool:
    """Whether t is a character of a point of X^(2)_{gamma,delta}.

    Some flip of t, together with one of the two common-sign choices of
    (tr gamma, tr delta), must satisfy the Fricke relation, y = tr(delta)
    and ac + b*p7 - xz = tr(gamma) + tr(delta).
    """
    p = params.F.p
    for eps in (1, -1):
        tg = eps * params.tgamma % p
        td = eps * params.tdelta % p
        target = (tg + td) % p
        for signs in FLIP_SIGNS:
            a, b, c, x, y, z, p7 = apply_flip(t, signs, p)
            if y != td:
                continue
            if (a * c + b * p7 - x * z) % p != target:
                continue
            if fricke_check((a, b, c, x, y, z, p7), p):
                return True
    return False


# -- the exact (assumption-free) key ------------------------------------

def key_exact(Q, params: Params):
    """Exact equality key on X^(2): the lexicographically minimal
    pgl-canonical quadruple over all equal-class centralizer pairs.

    Assumption-free, unlike the trace key, but costs |C(gamma)| x
    |C(delta)| / 2 transformed quadruples per call.
    """
    F = params.F
    p = F.p
    best = None
    for ghat, dhat in params.equal_class_pairs():
        cand = []
        for X in Q:
            cand.extend(pgl_canon(F, mm(p, mm(p, ghat, X.m), dhat)))
        cand = tuple(cand)
        if best is None or cand < best:
            best = cand
    return best


def are_equivalent(Q, R, params: Params) -> bool:
    """Whether Q ~ R in X^(2) (exact centralizer-coset test).

    For each ghat in C(gamma) the A components force the candidate
    dhat = (ghat A_Q)^-1 A_R projectively; it must land in C(delta)
    with the same determinant class and match on B, C, D.

    This is the scalar reference that the tests compare the batched
    one-candidate checker of orbit with.  It reads only the matrices of
    the blocks, so it accepts any invertible lifts.
    """
    F = params.F
    p = F.p
    dlook = params.delta_centralizer_lookup()
    ra = R[0].m
    for ghat, sg in params.centralizer("gamma"):
        # dhat = ga^-1 ra up to scalar; the adjugate avoids a division
        ga = mm(p, ghat, Q[0].m)
        dhat = pgl_canon(F, mm(p, adj(p, ga), ra))
        sh = dlook.get(dhat)
        if sh is None or sh != sg:
            continue
        if all(pgl_canon(F, mm(p, mm(p, ghat, Q[k].m), dhat)) == pgl_canon(F, R[k].m)
               for k in (1, 2, 3)):
            return True
    return False
