"""The explicit witness construction over PSL2(F_p): primes, matrices,
the base point, assumption validation, proper decompositions, the
brute-force point-counting oracle for X^(2), and the end-to-end
quotient pipeline.

gamma = u w has trace 3 and delta = (u v w v^-1)^-1 has trace 11, so a
usable prime must keep 3 and 11 away from {0, +-2} mod p and put one of
gamma, delta in a split torus and the other in a non-split one: one of
tr(gamma)^2 - 4 = 5 and tr(delta)^2 - 4 = 117 = 9 * 13 a square mod p
and the other not.
"""

from __future__ import annotations

import contextlib
import os
import time
from dataclasses import dataclass

import numpy as np

from . import braidquandle as bq
from .charvar import Params, canon_keys_np
from .ffield import (I2, ElementClass, Mat, PrimeField, ProjMat2, adj, adj_raw, classify,
                     centralizer_element_of_class, conjugator_np, det, eq,
                     exact_conjugator, first_nonzero_np, inv_table, is_maximal, legendre_table,
                     mm, mm_raw, neg, order, pack_np, pgl_canon, pgl_canon_np, psl_canon,
                     psl_canon_np, residue, torus_pencil, tr, tr_mm, unpack_np)
from .numutil import BudgetError, InvariantError, SideJob, naming, next_prime, slices
from .orbit import (MAX_POINTS, ROW_DTYPE, EpsilonOutsideOrbitError, OrbitIndex,
                    check_f2_identities, enumerate_orbit, epsilon_perm, validate_start,
                    verify_edges)
from .permgrp import WORD_BUDGET, CertificateError, GiantCertificate, classify_giant, sign

TR_GAMMA = 3
TR_DELTA = 11

U0 = (1, 0, 1, 1)
V0 = (1, 1, 0, 1)
W0 = (-1, 1, -4, 3)


class WitnessError(ValueError):
    pass


def find_prime(minimum: int = 5, mode: str = "relaxed") -> int:
    """Least usable prime >= minimum: one where build succeeds (a
    WitnessError marks a degenerate prime) and check_assumptions passes
    run_pipeline's gate, the split/non-split and unipotent point
    assumptions.

    relaxed: the gate alone, which either assignment of split and
    non-split passes; unlocks desk-scale primes such as 17, 19 and 23.
    strict: also the congruences p = 1 (mod 5), p = -2 (mod 13).
    """
    if mode not in ("strict", "relaxed"):
        raise ValueError(f"unknown mode {mode!r}")
    p = next_prime(max(5, minimum))
    while not ((mode == "relaxed" or (p % 5 == 1 and p % 13 == 11)) and _passes_gate(p)):
        p = next_prime(p + 1)
    return p


def _passes_gate(p: int) -> bool:
    try:
        cfg = build(p)
    except WitnessError:  # a degenerate prime
        return False
    report = check_assumptions(cfg)
    return report.nonconjugation_ok and report.point_ok


@dataclass
class WitnessConfig:
    F: PrimeField
    u: Mat
    v: Mat
    w: Mat
    params: Params
    P: tuple  # quadruple of ProjMat2

    @property
    def p(self):
        return self.F.p


def build(p: int) -> WitnessConfig:
    """The witness matrices reduced mod p, with invariants verified."""
    F = PrimeField(p)
    u = tuple(x % p for x in U0)
    v = tuple(x % p for x in V0)
    w = tuple(x % p for x in W0)
    gamma = mm(p, u, w)
    delta = adj(p, mm(p, mm(p, u, v), mm(p, w, adj(p, v))))
    for name, m, want in (("gamma", gamma, TR_GAMMA), ("delta", delta, TR_DELTA)):
        if tr(p, m) != want % p:
            raise InvariantError(f"witness at p = {p}: tr({name}) = {tr(p, m)}, "
                                 f"expected {want % p}")
    for name, m in (("gamma", gamma), ("delta", delta)):
        cls = classify(ProjMat2.of(F, m))
        if cls in (ElementClass.IDENTITY, ElementClass.INVOLUTION, ElementClass.UNIPOTENT):
            raise WitnessError(f"degenerate prime {p}: {name} is {cls.value}")
    params = Params(F, gamma, delta)
    ui, vi, wi = adj(p, u), adj(p, v), adj(p, w)
    P = (ProjMat2.identity(F),
         ProjMat2.of(F, ui),
         ProjMat2.of(F, mm(p, vi, ui)),
         ProjMat2.of(F, mm(p, wi, mm(p, vi, ui))))
    validate_start(P, params)
    return WitnessConfig(F, u, v, w, params, P)


# -- assumptions ----------------------------------------------------------

@dataclass
class AssumptionReport:
    gamma_class: str
    delta_class: str
    nonconjugation_ok: bool       # 5.1: one split, one non-split
    sigma_unipotent: tuple        # 5.2: u, v, w unipotent
    distinct_fixed_lines: bool    # 5.2: pairwise distinct unipotent subgroups
    point_ok: bool
    ord_gamma: int
    ord_delta: int
    large_orders_ok: bool         # A.1: some order > 60
    generation: object            # True / False / None (unverified)

    def to_dict(self):
        return {
            "gamma_class": self.gamma_class,
            "delta_class": self.delta_class,
            "nonconjugation_5_1": self.nonconjugation_ok,
            "sigma_matrices_unipotent": list(self.sigma_unipotent),
            "distinct_unipotent_subgroups": self.distinct_fixed_lines,
            "point_5_2": self.point_ok,
            "ord_gamma": self.ord_gamma,
            "ord_delta": self.ord_delta,
            "large_orders_A_1": self.large_orders_ok,
            "generation": self.generation,
        }


def _fixed_line(F: PrimeField, M: Mat):
    """The unique projective fixed point of a unipotent, as a scaled key."""
    p = F.p
    s = M if tr(p, M) == 2 else neg(p, M)
    n1, n2, n3, n4 = (s[0] - 1) % p, s[1], s[2], (s[3] - 1) % p
    if n1 or n2:
        vec = ((-n2) % p, n1)
    elif n3 or n4:
        vec = ((-n4) % p, n3)
    else:
        raise ValueError("matrix is the identity, no unique fixed point")
    if vec[0]:
        return (1, vec[1] * F.inv(vec[0]) % p)
    return (0, 1)


def _commutes_proj(F, a, b):
    return pgl_canon(F, mm(F.p, a, b)) == pgl_canon(F, mm(F.p, b, a))


def generates_psl2(F: PrimeField, a: Mat, b: Mat):
    """Dickson-based generation test for a pair of SL2 matrices.

    True / False are certified; None means the quick criteria were
    inconclusive (possible dihedral or exceptional containment).
    """
    p = F.p
    A, B = ProjMat2.of(F, a), ProjMat2.of(F, b)
    comm = mm(p, mm(p, a, b), mm(p, adj(p, a), adj(p, b)))
    if tr(p, comm) == 2:
        return False  # reducible over the closure: inside a Borel or cyclic
    sq = [mm(p, m, m) for m in (a, b, mm(p, a, b))]
    pairwise = all(_commutes_proj(F, sq[i], sq[j])
                   for i in range(3) for j in range(i + 1, 3))
    if pairwise:
        return None  # squares inside one torus: dihedral not excluded
    orders = []
    for m in (a, b, mm(p, a, b)):
        Pm = ProjMat2.of(F, m)
        if not Pm.is_one():
            orders.append(order(Pm))
    if max(orders, default=1) <= 5:
        return None  # could sit inside A4, S4 or A5
    return True


def check_assumptions(cfg: WitnessConfig) -> AssumptionReport:
    F = cfg.F
    params = cfg.params
    cg, cd = classify(params.gamma), classify(params.delta)
    sigma_mats = (cfg.u, cfg.v, cfg.w)
    unip = tuple(classify(ProjMat2.of(F, m)) is ElementClass.UNIPOTENT for m in sigma_mats)
    if all(unip):
        lines = [_fixed_line(F, m) for m in sigma_mats]
        distinct = len(set(lines)) == 3
    else:
        distinct = False
    og, od = order(params.gamma), order(params.delta)
    return AssumptionReport(
        gamma_class=cg.value, delta_class=cd.value,
        nonconjugation_ok=params.satisfies_nonconjugation(),
        sigma_unipotent=unip,
        distinct_fixed_lines=distinct,
        point_ok=all(unip) and distinct,
        ord_gamma=og, ord_delta=od,
        large_orders_ok=max(og, od) > 60,
        generation=generates_psl2(F, params.gamma_mat, params.delta_mat),
    )


# -- proper decompositions ------------------------------------------------

def proper_decomposition(Q, which: str = "first"):
    """The (x, y, z, w) of the chosen foliation, with maximality flags.

    Verifies x z = gamma(Q) and w y = delta(Q)^-1 exactly on the
    canonical lifts.
    """
    F = Q[0].field
    p = F.p
    A, B, C, D = (X.m for X in Q)
    Bi, Ci, Di = adj(p, B), adj(p, C), adj(p, D)
    if which == "first":
        x = mm(p, A, Bi)
        y = mm(p, Bi, A)
        z = mm(p, C, Di)
        w = mm(p, Di, C)
    elif which == "second":
        x = mm(p, A, Ci)
        y = mm(p, Ci, A)
        z = mm(p, mm(p, C, Bi), mm(p, C, Di))
        w = mm(p, mm(p, Di, C), mm(p, Bi, C))
    else:
        raise ValueError(f"unknown foliation {which!r}")
    if (psl_canon(F, mm(p, x, z)) != bq.gamma(Q).m
            or psl_canon(F, mm(p, w, y)) != bq.delta(Q).inv().m):
        raise InvariantError(f"{which} decomposition at p = {F.p}: "
                             "x z != gamma or w y != delta^-1")

    def maximal_flag(m):
        M = ProjMat2.of(F, m)
        cls = classify(M)
        if cls in (ElementClass.IDENTITY, ElementClass.INVOLUTION):
            return False
        return is_maximal(M)

    elements = (x, y, z, w)
    return elements, tuple(maximal_flag(m) for m in elements)


# -- the all-unipotent decomposition search -------------------------------

def _trace2_unipotents(F: PrimeField):
    """All SL2 matrices with trace exactly 2, excluding the identity."""
    p = F.p
    out = []
    for n1 in range(p):
        for n2 in range(p):
            if n2 == 0:
                if n1 != 0:
                    continue
                for n3 in range(1, p):
                    out.append(((1 + n1) % p, n2, n3, (1 - n1) % p))
                continue
            n3 = (-n1 * n1) % p * F.inv(n2) % p
            out.append(((1 + n1) % p, n2, n3, (1 - n1) % p))
    if len(out) != p * p - 1:
        raise InvariantError(f"unipotent search at p = {p}: {len(out)} trace-2 "
                             f"matrices, expected {p * p - 1}")
    return out


def _uni_param_class(F: PrimeField, M: Mat) -> int:
    """SL2-conjugacy class of a +-unipotent: the square class of the
    off-diagonal parameter."""
    p = F.p
    s = M if tr(p, M) == 2 else neg(p, M)
    n12, n21 = s[1], (s[2]) % p
    if n12:
        return F.legendre(n12)
    return F.legendre((-n21) % p)


def _conj_by(F, g, M):
    """g M g^-1 for invertible g, exact in SL2."""
    p = F.p
    det_inv = F.inv(det(p, g))
    out = mm(p, mm(p, g, M), adj(p, g))
    return tuple(v * det_inv % p for v in out)


def unipotent_decompositions(params: Params):
    """All equivalence classes of proper decompositions of (gamma, delta)
    with x, y, z, w unipotent in PSL2.

    Brute force: x runs over trace-2 unipotents, z = x^-1 (+-gamma) must
    be one too; likewise (w, y) for +-delta^-1; the conjugacy
    constraints x ~ y and z ~ w filter; classes are generated as orbits
    under the equal-determinant-class centralizer pairs.
    """
    F = params.F
    p = F.p
    unis = _trace2_unipotents(F)

    def factor_pairs(target):
        out = []
        for x in unis:
            z = mm(p, adj(p, x), target)
            if tr(p, z) == 2 and z != I2:
                out.append((x, z))
        return out

    # the sign flips of the PSL lifts change x z and w y together, so a
    # decomposition of (gamma, delta) has x z = eps gamma and
    # w y = eps delta^-1 with one common sign
    candidates = {}
    for eps in (1, -1):
        tg = params.gamma_mat if eps == 1 else neg(p, params.gamma_mat)
        td = adj(p, params.delta_mat)
        td = td if eps == 1 else neg(p, td)
        Lg = factor_pairs(tg)
        Ld = factor_pairs(td)
        for x, z in Lg:
            cx, cz = _uni_param_class(F, x), _uni_param_class(F, z)
            for w, y in Ld:
                if _uni_param_class(F, y) == cx and _uni_param_class(F, w) == cz:
                    candidates[x + y + z + w] = (x, y, z, w)

    pairs = params.equal_class_pairs()
    classes = []
    seen = set()
    for key in sorted(candidates):
        if key in seen:
            continue
        x, y, z, w = candidates[key]
        members = set()
        for ghat, dhat in pairs:
            img = (_conj_by(F, ghat, x) + _conj_by(F, dhat, y)
                   + _conj_by(F, ghat, z) + _conj_by(F, dhat, w))
            members.add(img)
        if not members <= candidates.keys():
            raise InvariantError(f"unipotent decompositions at p = {p}: "
                                 "a centralizer orbit left the candidate set")
        seen |= members
        classes.append(sorted(members))
    return classes


def normalize_unipotent_decomposition(F, dec):
    """Flip the (x,y) and (z,w) pairs so both traces are +2, matching
    the search's normal form."""
    p = F.p
    x, y, z, w = dec
    if tr(p, x) != 2:
        x, y = neg(p, x), neg(p, y)
    if tr(p, z) != 2:
        z, w = neg(p, z), neg(p, w)
    return (x, y, z, w)


# -- counting X^(2) -------------------------------------------------------

# Default count gate: the largest p whose |X| count_x computes.
COUNT_MAX_PRIME = 59


def count_x(params: Params, max_prime: int = COUNT_MAX_PRIME) -> int:
    """Number of distinct canonical 7-tuple keys of the solution set S
    of the membership equations, counted without the orbit.

    S is the set of tuples (a, b, c, x, y, z, p7) with, for one sign
    eps = +-1, y = eps tr(delta), b p7 + a c - x z = eps (tr(gamma) +
    tr(delta)) and Fricke value 0.  Under a flip (e1, e2, e3) of
    charvar.FLIP_SIGNS the coordinates scale by (e1, e2, e3, e2 e3,
    e1 e3, e1 e2, e1 e2 e3), so y, a c, b p7 and x z all scale by
    e1 e3, and the Fricke value is invariant: S is closed under the 8
    flips, and a flip with e1 e3 = -1 swaps eps.  Hence every flip
    orbit in S meets the slice eps = +1, a <= (p-1)/2, b <= (p-1)/2:
    - (-1, 1, 1) moves a member with eps = -1 to eps = +1;
    - (-1, 1, -1) then negates a and keeps b and y;
    - (1, -1, 1) then negates b and keeps a and y.
    A canonical key is the minimum over all 8 flips, so the slice has
    exactly as many distinct keys as S.

    The scan runs over (a, b) in that slice and all (c, x, z), solves
    the linear equation for p7 when b != 0 (scans p7 when b = 0), keeps
    the tuples with Fricke value 0 and dedupes them by canonical key:
    ((p+1)/2)^2 slices of p^3 candidates each, O(p^5 / 4) work.
    """
    F = params.F
    p = F.p
    if p > max_prime:
        raise BudgetError(f"count_x refuses p={p} > {max_prime} "
                          f"(about {((p + 1) // 2) ** 2 * p ** 3} candidate tuples)")
    if not params.satisfies_nonconjugation():
        raise WitnessError("count_x requires the split/non-split assumption")
    idx = np.arange(p, dtype=np.int64)
    C3, X3, Z3 = np.meshgrid(idx, idx, idx, indexing="ij")
    c3, x3, z3 = C3.ravel(), X3.ravel(), Z3.ravel()
    y0 = params.tdelta % p
    target = (params.tgamma + params.tdelta) % p
    half = (p + 1) // 2  # a, b in [0, (p-1)/2]

    # The Fricke value of (a, b, c, x, y0, z, p7) is q + p7^2 - s p7 with
    # s = s0 - b (a c - y0), s0 = a x + c z, and q = w0 + b^2 - b v,
    # v = a z + c x, w0 = a^2 + c^2 + x^2 + y0^2 + z^2 + y0 x z - a y0 c - 4.
    # On a slice b p7 = lin = target - a c + x z (mod p), so it equals
    # p7 (p7 - s0) - b v + w + b^2 with w = w0 + (a c - y0) lin: the arrays
    # s0, v and w are built once per a, and a slice adds only the scalars
    # b and b^2.
    keys = np.empty(0, dtype=np.int64)
    for a in range(half):
        found = [keys]
        ac = a * c3
        lin = residue(p, target - ac + x3 * z3)
        s0, v = a * x3 + c3 * z3, a * z3 + c3 * x3
        w = ((c3 - y0 * a) * c3 + (x3 + y0 * z3) * x3 + z3 * z3 + (a * a + y0 * y0 - 4)
             + (ac - y0) * lin)
        for b in range(half):
            if b:
                c, x, z, sb, vb, wb = c3, x3, z3, s0, v, w
                p7 = residue(p, lin * F.inv(b))
            else:  # lin = 0 and p7 is free: every value is scanned
                m0 = lin == 0
                c, x, z, sb, vb, wb = (np.tile(u[m0], p) for u in (c3, x3, z3, s0, v, w))
                p7 = np.repeat(idx, int(m0.sum()))
            m = residue(p, p7 * (p7 - sb) - b * vb + wb + b * b) == 0
            if m.any():
                # the tuples (a, b, c, x, y0, z, p7): only c, x, z, p7 vary
                t = np.empty((7, int(np.count_nonzero(m))), dtype=np.int64)
                t[0], t[1], t[4] = a, b, y0
                for j, col in ((2, c), (3, x), (5, z), (6, p7)):
                    np.compress(m, col, out=t[j])
                found.append(canon_keys_np(p, t.T))
        keys = _sorted_unique(np.concatenate(found))
    return len(keys)


# -- independent exact enumeration of X^(2) -------------------------------

def _all_sl2(F: PrimeField):
    """All of SL2(F_p) as an (n, 4) int64 array, in ascending
    lexicographic order."""
    p = F.p
    rows = []
    for a in range(p):
        for b in range(p):
            for c in range(p):
                if a:
                    rows.append((a, b, c, (1 + b * c) * pow(a, p - 2, p) % p))
                elif b:
                    # a = 0: need -bc = 1
                    c0 = (-pow(b, p - 2, p)) % p
                    if c == c0:
                        for d in range(p):
                            rows.append((0, b, c0, d))
    arr = np.array(rows, dtype=np.int64)
    if len(arr) != p * (p * p - 1):
        raise InvariantError(f"listed {len(arr)} elements of SL2(F_{p}), not p(p^2 - 1)")
    return arr


def _operators(p, left, right):
    """The linear maps X -> left_k X right_k on 2x2 matrices (as
    4-vectors), for entry-major (4, K) blocks left and right: shape
    (K, 4, 4)."""
    return np.stack([np.stack(mm(p, mm(p, left, unit), right), axis=-1)
                     for unit in np.eye(4, dtype=np.int64)], axis=-1)


def _conj_operators(p, taus):
    """The conjugations M -> tau M tau^-1, exact in SL2 for invertible tau."""
    taus = np.array(taus, dtype=np.int64).T
    scale = inv_table(p)[det(p, taus)]
    return _operators(p, taus, [x * scale % p for x in adj(p, taus)])


def _apply_np(p, X, ops):
    """op X for each row of X (m, 4) and each operator of ops (K, 4, 4):
    shape (m, K, 4).  One float64 product, exact because every entry of
    it is a sum of four products of residues, below 4p^2."""
    K = len(ops)
    flat = X.astype(np.float64) @ ops.transpose(2, 0, 1).reshape(4, 4 * K).astype(np.float64)
    return residue(p, flat.astype(np.int64).reshape(len(X), K, 4))


def _sorted_unique(keys):
    """The distinct values of a 1-D array, ascending (np.unique, which
    hashes first, is far slower on int64 keys)."""
    keys = np.sort(keys)
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return keys[first]


def _pair_keys(p, k2, k3):
    """pack(M2) * p^4 + pack(M3) from the packed halves, by pack_np, which
    refuses p^8 >= 2^63; unpack_np(p ** 4, keys, 2) splits them."""
    return pack_np(p ** 4, np.stack((k2, k3), axis=-1))


def _canon_packed(p, canon, M):
    """pack_np of canon(p, M) (psl_canon_np or pgl_canon_np) for
    matrices M on the last axis."""
    return pack_np(p, np.stack(canon(p, np.moveaxis(M, -1, 0)), axis=-1))


def _where(mask, A, B):
    """A where mask holds, else B, entry by entry of two 4-sequences."""
    return tuple(np.where(mask, a, b) for a, b in zip(A, B))


def _gauges(p):
    """Conjugacy representatives for M1, named: the identity, one
    unipotent and the companions (0, -1, 1, t) of the traces t in
    [0, (p-1)/2] other than 2."""
    return ([("id", I2), ("uni", (1, 1, 0, 1))]
            + [(f"t{t}", (0, p - 1, 1, t)) for t in range((p - 1) // 2 + 1) if t != 2])


def _m2_representatives(p, psl, R1, ops, gauge):
    """The M2 representatives of the gauge R1: the rows of psl (one lift
    of each PSL2 element, in ascending packed order) whose packed key is
    the least of their psl-canonical images under the conjugations ops,
    mapped one slice at a time (numutil.slices).

    Each conjugation must map R1 to +-R1, so that it maps pairs to pairs;
    and when ops is closed under composition, an element's least image
    is the least element of its orbit, so a representative itself.  Both
    are checked: a failure raises InvariantError naming the gauge.
    """
    fixed = _apply_np(p, np.array([R1]), ops)[0]  # (K, 4)
    moved = ~(eq(fixed.T, R1) | eq(fixed.T, neg(p, R1)))
    if moved.any():
        raise InvariantError(f"gauge {gauge}: conjugation {int(np.argmax(moved))} maps R1 "
                             f"to {fixed[np.argmax(moved)].tolist()}, not +-R1")
    keys = pack_np(p, psl)
    least = np.empty_like(keys)
    for c in slices(len(psl), 4 * len(ops)):
        least[c] = _canon_packed(p, psl_canon_np, _apply_np(p, psl[c], ops)).min(axis=1)
    is_rep = least == keys
    at = np.searchsorted(keys, least).clip(max=len(keys) - 1)
    bad = ~((keys[at] == least) & is_rep[at])
    if bad.any():
        i = np.argmax(bad)
        raise InvariantError(f"gauge {gauge}: the least image {least[i]} of element {keys[i]} "
                             "is not a representative")
    return psl[is_rep]


def _list_pairs(p, reps, psl, R1, tg, td):
    """The packed pairs pack(M2) * p^4 + pack(M3), for M2 a row of reps
    and M3 a row of psl, with tr(R1 M3) = eps td and tr(N M3) = eps tg,
    N = M2^-1 R1 M2, for one sign eps.  For each sign, the trace tr(N M3)
    is the product of the entries of each N^T with those of the M3 that
    meet the first equation, over slices of reps (numutil.slices)."""
    S = reps.T
    N = mm(p, mm_raw(adj_raw(S), R1), S)  # S^-1 R1 unreduced, below 2p^2
    ncoeff = np.stack((N[0], N[2], N[1], N[3]), axis=1)
    m2_keys = pack_np(p, reps)
    tr_r1_m3 = tr_mm(p, R1, psl.T)
    pairs = []
    for eps in (1, -1):
        M3s = psl[tr_r1_m3 == eps * td % p]
        m3_keys = pack_np(p, M3s)
        for c in slices(len(reps), max(1, len(M3s))):
            i, j = np.nonzero(residue(p, ncoeff[c] @ M3s.T) == eps * tg % p)
            pairs.append(_pair_keys(p, m2_keys[c][i], m3_keys[j]))
    return np.concatenate(pairs)


def enumerate_x_classes(params: Params, max_prime: int = 31):
    """Full enumeration of X~^(2)/~ deduplicated by the exact
    centralizer-coset key; independent of the counting loop and of the
    orbit BFS (it shares only the ffield kernels).

    Triples (M1, M2, M3) satisfying the two trace conditions are listed
    with M1 gauge-fixed to conjugacy representatives R1 (_gauges) and M2
    gauge-fixed too.  The residual symmetries of a gauge are the
    conjugations by its torus (extended by a conjugator of R1 onto -R1
    for the involution gauge) and the lift signs of M2 and M3.  The M2
    representatives are the one-lift PSL2 elements that are the least of
    their images under those conjugations (_m2_representatives); for
    each, every M3 (one lift of each PSL2 element) meeting the trace
    conditions for one sign is listed (_list_pairs).

    That meets every class: by the two trace identities a conjugation
    fixing R1 up to sign maps the solution pairs to solution pairs, and
    a lift sign does too (with the other sign eps), so the orbit of any
    pair (M2, M3) holds one whose M2 is the least element of M2's orbit,
    a representative, and whose M3 is one of the listed lifts.  A pair
    in an orbit is the same class, so the same classes are hit as by
    listing every pair.  Representatives with a nontrivial stabilizer
    list a few pairs of one class twice; the exact key merges them.

    The pairs of each gauge are rebuilt into actual quadruples in one
    batch (_rebuild_rows, closed-form conjugators), and the quadruples
    of all gauges are deduplicated by the exact key (_exact_keys_np,
    which finds the one pair minimizing each distinct block A and
    transforms the rest of each row by that pair alone).

    Returns (count, class_keys) with class_keys the sorted exact keys.
    """
    F = params.F
    p = F.p
    if p > max_prime:
        raise BudgetError(f"enumerate_x_classes refuses p={p} > {max_prime}")
    if not params.satisfies_nonconjugation():
        raise WitnessError("enumeration requires the split/non-split assumption")
    sl2 = _all_sl2(F)
    psl = sl2[first_nonzero_np(sl2.T) <= (p - 1) // 2]  # one lift of each PSL2 element
    rows = []
    for name, R1 in _gauges(p):
        if name == "id":
            # N = 1 whatever M2 is: M2 = 1 lists a pair if any M2 does
            pairs = _list_pairs(p, np.array([I2]), psl, R1, params.tgamma, params.tdelta)
            if len(pairs):
                raise InvariantError(f"gauge id: identity gauge must be empty under 5.1, "
                                     f"found pair {pairs[0]}")
            continue
        taus = [I2] + [g for g, _ in torus_pencil(F, R1)]
        if tr(p, R1) == 0:
            rho = exact_conjugator(F, R1, neg(p, R1))
            taus = taus + [pgl_canon(F, mm(p, rho, t)) for t in taus]
        reps = _m2_representatives(p, psl, R1, _conj_operators(p, taus), name)
        pairs = _list_pairs(p, reps, psl, R1, params.tgamma, params.tdelta)
        if len(pairs):  # kept narrow, as the orbit's rows: _exact_keys_np widens slices
            rows.append(_rebuild_rows(p, R1, pairs, params, name).astype(ROW_DTYPE))

    # dedupe the rebuilt quadruples by the exact key (charvar.key_exact:
    # the lexicographically minimal transformed row)
    pair_g, pair_d = _pair_arrays(params)
    keys = _exact_keys_np(p, np.concatenate(rows), pair_g, pair_d)
    keys = np.unique(keys, axis=0)
    digits = unpack_np(p, keys, 8).reshape(-1, 16)
    class_keys = [tuple(k) for c in slices(len(digits), 16) for k in digits[c].tolist()]
    return len(class_keys), class_keys


def _rebuild_rows(p, M1, pairs, params: Params, gauge):
    """Projective quadruple rows in X~, one for each packed pair
    pack(M2) * p^4 + pack(M3) of pairs, with trace triple (M1, M2, M3);
    M1 is one matrix or an entry-major block of one per pair.

    Starts from (1, M1^-1, M2, M2 M3^-1), then conjugates gamma(Q) and
    delta(Q) onto +-gamma and +-delta (conjugator_np), moving g by a
    gamma-torus element of the other determinant class where the classes
    of g and h differ.  Raises InvariantError naming the gauge and the
    first pair whose traces, determinant classes or defining equation
    A B^-1 C D^-1 = gamma fail to match.
    """
    digits = unpack_np(p, pairs, 8).T
    M2, M3 = digits[:4], digits[4:]
    G0 = mm(p, mm(p, M1, M2), mm(p, M3, adj(p, M2)))  # M1 M2 M3 M2^-1
    D0 = adj(p, mm(p, M3, M1))
    flip = tr(p, G0) != params.tgamma % p
    tgt_g = _where(flip, neg(p, params.gamma_mat), params.gamma_mat)
    tgt_d = _where(flip, neg(p, params.delta_mat), params.delta_mat)
    g = conjugator_np(p, G0, tgt_g)
    h = conjugator_np(p, D0, tgt_d)

    def det_class(X):
        return legendre_table(p)[det(p, X)]

    z = centralizer_element_of_class(params.gamma, -1)
    g = _where(det_class(g) != det_class(h), mm(p, z, g), g)
    hi_adj = adj(p, h)  # h^-1 up to scalar
    A, B, C, D = [pgl_canon_np(p, mm(p, mm(p, g, x), hi_adj))
                  for x in (I2, adj(p, M1), M2, mm(p, M2, adj(p, M3)))]
    gg = pgl_canon_np(p, mm(p, mm(p, A, adj(p, B)), mm(p, C, adj(p, D))))
    rows = np.stack(A + B + C + D, axis=1)

    # the checks of each row, in order; the first failing pair is named
    tr_g, tr_d, cg, ch = tr(p, G0), tr(p, D0), det_class(g), det_class(h)
    failed = np.stack([tr_g != tr(p, tgt_g), tr_d != tr(p, tgt_d), cg != ch,
                       ~eq(gg, pgl_canon(params.F, params.gamma_mat))])
    if failed.any():
        i = int(np.argmax(failed.any(axis=0)))
        eps = -1 if flip[i] else 1
        messages = [f"tr(M1 M2 M3 M2^-1) = {tr_g[i]} is not +-tr(gamma) = +-{params.tgamma}",
                    f"tr((M3 M1)^-1) = {tr_d[i]} does not match {tr(p, tgt_d)[i]}, "
                    f"the sign-{eps} trace of delta",
                    f"conjugator determinant classes {cg[i]} and {ch[i]} differ",
                    f"rebuilt row {rows[i].tolist()} has A B^-1 C D^-1 != gamma"]
        raise InvariantError(f"gauge {gauge}, pair {pairs[i]}: "
                           f"{messages[int(np.argmax(failed[:, i]))]}")
    return rows


def _pair_arrays(params: Params):
    """The equal-class centralizer pairs as two entry-major (4, K) blocks
    (ghat, dhat)."""
    pairs = params.equal_class_pairs()
    return (np.array([g for g, _ in pairs], dtype=np.int64).T,
            np.array([d for _, d in pairs], dtype=np.int64).T)


def _exact_keys_np(p, rows, pair_g, pair_d):
    """Exact centralizer-coset key (charvar.key_exact) of each (m, 16)
    row, as an (m, 2) int64 array: the lexicographically minimal
    pgl-canonical transformed row over the pairs of the k-th matrices of
    the blocks pair_g and pair_d, packed into two base-p integers of 8
    digits each (order-preserving, so equal rows = equal exact keys).
    The rows may have any integer dtype, with entries in [0, p): each
    slice of them is widened to int64 first.

    For each distinct packed block A (np.unique), a slice of distinct
    blocks at a time, the one pair whose pgl-canonical image of A is
    least is found; then every block of each row is transformed by its
    A's pair alone, a slice of rows at a time.  That pair is unique, so
    it gives the lexicographic minimum over all pairs: if ghat A dhat is
    proportional to A for an invertible A, ghat lies in C(gamma) and in
    A C(delta) A^-1, a split torus and a non-split one (assumption 5.1),
    which meet only in the scalars.  Raises InvariantError naming p and
    the block when more than one pair attains the least image of A.
    """
    if not len(rows):
        return np.empty((0, 2), dtype=np.int64)
    ops = _operators(p, pair_g, pair_d)  # X -> ghat X dhat
    distinct, which = np.unique(pack_np(p, rows[:, :4]), return_inverse=True)
    best = np.empty(len(distinct), dtype=np.intp)
    for c in slices(len(distinct), 4 * len(ops)):
        ka = _canon_packed(p, pgl_canon_np, _apply_np(p, unpack_np(p, distinct[c], 4), ops))
        best[c] = ka.argmin(axis=1)
        ties = np.count_nonzero(ka == ka.min(axis=1, keepdims=True), axis=1)
        if (ties > 1).any():
            i = int(np.argmax(ties > 1))
            raise InvariantError(f"exact keys at p={p}: {ties[i]} pairs attain the least image "
                                 f"of block A {unpack_np(p, distinct[c][i], 4).tolist()}")

    right = np.ascontiguousarray(ops.transpose(0, 2, 1))  # x -> x ops[k]^T on row vectors x
    out = np.empty((len(rows), 2), dtype=np.int64)
    for c in slices(len(rows), 16):
        # the (B, block, entry) images, in temporaries that no name keeps
        # into the next slice; then the packed blocks A, B, C, D of each row
        packed = _canon_packed(p, pgl_canon_np, residue(
            p, rows[c].astype(np.int64).reshape(-1, 4, 4) @ right[best[which[c]]]))
        out[c] = pack_np(p ** 4, packed.reshape(-1, 2, 2))
    return out


def orbit_exact_keys(orbit: OrbitIndex, params: Params, indices=None):
    """Exact centralizer-coset key of orbit points, batched: an (m, 2)
    int64 array from _exact_keys_np."""
    rows = orbit.points if indices is None else orbit.points[indices]
    return _exact_keys_np(orbit.p, rows, *_pair_arrays(params))


# -- sigma-matrix orders over an orbit ------------------------------------

def psl_order_by_trace(F: PrimeField):
    """order of a PSL2 element as a function of its trace (identity is
    handled separately by callers)."""
    table = {}
    for t in range((F.p + 1) // 2 + 1):
        M = ProjMat2.of(F, (0, F.p - 1, 1, t))
        table[t] = order(M)
        table[(F.p - t) % F.p] = table[t]
    return table


def orbit_sigma_orders(orbit: OrbitIndex, i: int):
    """Order of the sigma_i matrix of every orbit point."""
    F = orbit.params.F
    table = psl_order_by_trace(F)
    by_trace = np.array([table[t] for t in range(F.p)], dtype=np.int64)
    traces, ident = orbit.sigma_matrix_traces(i)
    out = by_trace.take(traces)
    out[ident] = 1
    return out


# -- the pipeline ----------------------------------------------------------

def _discard(path):
    with contextlib.suppress(FileNotFoundError):
        os.unlink(path)


def run_pipeline(p: int, seed: int = 0, max_points: int = MAX_POINTS,
                 giant_budget: int = WORD_BUDGET,
                 count_budget: int = COUNT_MAX_PRIME,
                 include_permutations: bool = True, dump_path=None) -> dict:
    """Witness -> orbit -> permutations -> classification -> count ->
    verdict, with two of the checks in side processes (numutil.SideJob).

    Stage order of the main line:
    - witness: build and check_assumptions; then the count job
      (count_x) starts;
    - orbit: enumerate_orbit (the BFS, the letter permutations and the
      check of the rows on X); then the verification job (verify_edges,
      the exact check of every edge) starts, and the dump is written
      beside dump_path;
    - permutations: epsilon_perm (the twist's index and involution
      passes), f2_perms and check_f2_identities;
    - classification: classify_giant and the sign of x;
    - then the verification job and the count job are waited for, in
      that order, and the dump is moved to dump_path once the edge
      checks have passed.

    Every check runs, on the same rows, whatever the timing.  When two
    fail, the one earlier in the serial order is raised: witness, orbit
    (the BFS, the rows on X, the dump's write, then the edge checks),
    permutations, classification, count.  So a main-line failure after
    the dump is written first waits for the edge checks; an earlier
    failure kills the jobs.  The dump is at dump_path exactly when every
    edge check passed.  Both jobs are reaped on every way out.

    Returns the QuotientReport as a plain dict.  Its "permutations"
    (when included) are the six int32 arrays, not lists: cli.to_json
    writes them as JSON lists.  Failures name their stage: WitnessError
    for a failed assumption, EpsilonOutsideOrbitError for a reversal
    twist off the orbit, InvariantError for a failed F2 identity and
    CertificateError for a certificate that fails revalidation.
    timings_ms holds the main line's time in each stage; count_ms is the
    wait for the two jobs after classification.
    """
    timings = {}
    t0 = time.perf_counter()

    def lap(stage):
        nonlocal t0
        now = time.perf_counter()
        timings[stage] = int(round((now - t0) * 1000))
        t0 = now

    cfg = build(p)
    report = check_assumptions(cfg)
    lap("witness_ms")
    if not report.nonconjugation_ok:
        raise WitnessError("assumptions: split/non-split assumption fails")
    if not report.point_ok:
        raise WitnessError("assumptions: unipotent point assumption fails")

    with contextlib.ExitStack() as jobs:  # a job not waited for is killed on the way out
        count = None
        if p <= count_budget:
            count = jobs.enter_context(
                SideJob(f"the count job at p = {p}", count_x, cfg.params, count_budget))
        orbit = enumerate_orbit(cfg.P, cfg.params, max_points=max_points)
        verify = jobs.enter_context(
            SideJob(f"the verification job at p = {p}", verify_edges, orbit))
        staged = None
        if dump_path is not None:
            staged = f"{dump_path}.{os.urandom(4).hex()}"
            jobs.callback(_discard, staged)
            with naming(dump_path):
                orbit.write_dump(staged)
        lap("orbit_ms")

        failure = None
        try:
            try:
                eps = epsilon_perm(orbit)
            except EpsilonOutsideOrbitError as e:
                raise EpsilonOutsideOrbitError(f"reversal twist fails at p = {p}: {e}") from e
            gens = {"sigma1": orbit.letter_perm(bq.S1), "sigma2": orbit.letter_perm(bq.S2),
                    "sigma3": orbit.letter_perm(bq.S3), "epsilon": eps}
            x, y = orbit.f2_perms()
            n = orbit.n
            del orbit  # from here on only the permutations are needed
            check_f2_identities(p, {**gens, "x": x, "y": y})
            lap("permutations_ms")

            try:
                cls = classify_giant(list(gens.values()), n, seed=seed, budget=giant_budget)
            except CertificateError as e:
                raise CertificateError(f"classification at p = {p}: {e}") from e
            x_is_id = bool((x == np.arange(n)).all())
            x_sign = sign(x)
            lap("classification_ms")
        except Exception as e:  # raised after an edge check's failure, which comes first
            failure = e
        edges_verified = verify.result()
        if staged is not None:
            with naming(dump_path):
                os.replace(staged, dump_path)
        if failure is not None:
            raise failure
        x_count = None if count is None else count.result()
        lap("count_ms")

    signs = dict(zip(gens, cls.generator_signs))
    if cls.kind in ("Alternating", "Symmetric") and not x_is_id and x_sign == 1:
        verdict = (f"F2 surjects onto A_{n}: x = s1 s3^-1 acts nontrivially and "
                   "evenly, and a nontrivial normal subgroup of a giant containing "
                   "no odd permutations is the alternating group")
    elif cls.kind in ("Alternating", "Symmetric"):
        verdict = "giant certified but the F2 image is trivial or odd (unexpected)"
    else:
        verdict = "inconclusive: giant recognition did not certify"

    cert = None
    if isinstance(cls.certificate, GiantCertificate):
        cert = {"word": [[int(i), int(e)] for i, e in cls.certificate.word],
                "q": cls.certificate.q}

    out = {
        "p": p,
        "n": n,
        "x_count": x_count,
        "orbit_ratio": (n / x_count) if x_count else None,
        "classification": cls.kind,
        "generator_signs": signs,
        "f2_verdict": verdict,
        "f2_x_nontrivial": not x_is_id,
        "f2_x_sign": x_sign,
        "certificate": cert,
        "seed": seed,
        "assumptions": report.to_dict(),
        "exact_dedup_verified": True,
        "edges_verified": edges_verified,
        "timings_ms": timings,
    }
    if include_permutations:
        out["permutations"] = {**gens, "x": x, "y": y}
    return out
