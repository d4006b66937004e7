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

import time
from dataclasses import dataclass

import numpy as np

from . import braidquandle as bq
from .charvar import Params, canon_keys_np
from .ffield import (I2, ElementClass, Mat, PrimeField, ProjMat2, adj, adj_raw, classify,
                     centralizer_element_of_class, conjugator_np, det, entry_major, eq,
                     exact_conjugator, inv_table, is_maximal, legendre_table, mm, mm_raw,
                     neg, order, pack_np, pgl_canon, pgl_canon_np, psl_canon, psl_canon_np,
                     residue, torus_pencil, tr, tr_mm, unpack_np)
from .numutil import BudgetError, InvariantError, next_prime, slices
from .orbit import (MAX_POINTS, EpsilonOutsideOrbitError, OrbitIndex, enumerate_orbit,
                    epsilon_perm, validate_start)
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
    """All of SL2(F_p) as an (n, 4) int64 array."""
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


def _packed_signs(p, M):
    """pack_np of M and of -M, both reduced mod p."""
    return pack_np(p, M), pack_np(p, residue(p, -M))


def _canon_packed(p, canon, M):
    """pack_np of canon(p, M) (psl_canon_np or pgl_canon_np) for
    matrices M on the last axis."""
    return pack_np(p, np.stack(canon(p, np.moveaxis(M, -1, 0)), axis=-1))


def _where(mask, A, B):
    """A where mask holds, else B, entry by entry of two 4-sequences."""
    return tuple(np.where(mask, a, b) for a, b in zip(A, B))


def _generators(p, ops):
    """A generating set of the group of the (K, 4, 4) maps ops, as a
    (G, 4, 4) array: the maps in descending order of their order mod p,
    each kept when it lies outside the group the kept ones generate.
    For a cyclic torus that is one generator; for the torus extended by
    a reflection, one generator and the first reflection.  Returns
    (generators, their orders)."""
    def closure(gens):
        one = np.eye(4, dtype=np.int64)
        seen = {one.tobytes()}
        frontier = [one]
        while frontier:
            images = [g @ x % p for x in frontier for g in gens]
            frontier = [y for y in images if y.tobytes() not in seen]
            seen.update(y.tobytes() for y in frontier)
        return seen

    orders = [len(closure([op])) for op in ops]
    chosen = []
    group = closure(chosen)
    for k in sorted(range(len(ops)), key=lambda k: -orders[k]):
        if ops[k].tobytes() not in group:
            chosen.append(k)
            group = closure(ops[chosen])
    return ops[chosen], [orders[k] for k in chosen]


def _sign_canonical(p, packed):
    """Whether each packed 4-digit value is 0 or has its first nonzero
    digit in [1, (p-1)/2], as psl_canon_np leaves it.  A value whose
    leading power is p^j is so exactly when it lies below ((p+1)/2) p^j,
    that is when an even number of the bounds ((p+1)/2) p^j and p^(j+1)
    (j = 0, 1, 2) and ((p+1)/2) p^3 are at most it."""
    bounds = [b for j in range(4) for b in ((p + 1) // 2 * p ** j, p ** (j + 1))][:-1]
    return np.searchsorted(bounds, packed, side="right") % 2 == 0


def _orbit_minima(p, raw, ops, gauge):
    """Representatives of the packed (M2, M3) pairs raw (sorted, unique,
    pack(M2) * p^4 + pack(M3)) under the group of the conjugations ops
    and the independent lift signs of M2 and M3: the minimum of each
    orbit.

    Conjugation commutes with the signs, and the packed minimum of x and
    -x is the packed psl_canon(x); so an orbit's minimum lies in the
    sign-canonical quarter of raw (chosen on the packed halves by
    _sign_canonical, so only the quarter is unpacked), and the orbits of
    the quarter are those of its permutations tau: (M2, M3) -> psl_canon of
    (tau M2 tau^-1, tau M3 tau^-1), one for each of a few generators of
    ops (_generators).  Every pair is labelled by the minimum over its
    orbit: starting from its own key, min-label pointer doubling along
    each generator's permutation (ceil(log2 order) rounds make the label
    constant on its cycles), swept over the generators until a sweep
    changes nothing.  A pair that is its own label is a representative.

    That holds only if ops is a group and raw a union of orbits, so it
    is checked: each generator maps the quarter into itself, all 4K
    images of every representative under ops lie in raw, and the image
    sets partition raw, which proves that the generated orbits are
    those of all of ops.  The image sets partition raw exactly when
    their concatenation, sorted, equals raw; only when it does not are
    the images located in raw to find the fault.  Raises InvariantError
    naming the gauge and the offending packed pair.
    """
    m2, m3 = unpack_np(p ** 4, raw, 2).T  # not one interleaved array: searchsorted is slower on it
    keys = raw[_sign_canonical(p, m2) & _sign_canonical(p, m3)]
    quarter = unpack_np(p, keys, 8)
    gens, orders = _generators(p, ops)
    images = _pair_keys(p, _canon_packed(p, psl_canon_np, _apply_np(p, quarter[:, :4], gens)),
                        _canon_packed(p, psl_canon_np, _apply_np(p, quarter[:, 4:], gens)))  # (n, G)
    succ = np.searchsorted(keys, images).clip(max=len(keys) - 1)
    outside = np.nonzero(keys[succ] != images)
    if len(outside[0]):
        i, k = outside[0][0], outside[1][0]
        raise InvariantError(f"gauge {gauge}: the orbit of pair {keys[i]} leaves "
                             f"the solution set at pair {images[i, k]}")
    labels = keys
    changed = True
    while changed:
        before = labels
        for k, order_k in enumerate(orders):
            f = succ[:, k]
            for _ in range((order_k - 1).bit_length()):
                labels = np.minimum(labels, labels[f])
                f = f[f]
        changed = (labels != before).any()
    reps = keys[labels == keys]

    # the orbit of each representative, deduplicated within the orbit
    rep_digits = unpack_np(p, reps, 8)
    members, owners = [], []
    for c in slices(len(reps), 16 * len(ops)):
        block = rep_digits[c]
        k2 = _packed_signs(p, _apply_np(p, block[:, :4], ops))
        k3 = _packed_signs(p, _apply_np(p, block[:, 4:], ops))
        images = np.concatenate([_pair_keys(p, s2, s3) for s2 in k2 for s3 in k3], axis=1)
        images.sort(axis=1)  # (B, 4K)
        first = np.ones(images.shape, dtype=bool)
        first[:, 1:] = images[:, 1:] != images[:, :-1]
        members.append(images[first])
        owners.append(c.start + np.nonzero(first)[0])
    members = np.concatenate(members)
    if len(members) == len(raw) and (np.sort(members) == raw).all():
        return reps  # the orbits partition raw: none of the checks below fails

    owners = np.concatenate(owners)
    at = np.searchsorted(raw, members).clip(max=len(raw) - 1)
    outside = np.nonzero(raw[at] != members)[0]
    if len(outside):
        i = outside[0]
        raise InvariantError(f"gauge {gauge}: the orbit of pair {reps[owners[i]]} leaves "
                           f"the solution set at pair {members[i]}")
    hits = np.bincount(at, minlength=len(raw))  # orbits through each pair
    if (hits > 1).any():
        x = np.argmax(hits > 1)
        i, j = owners[at == x][:2]
        raise InvariantError(f"gauge {gauge}: the orbits of pairs {reps[i]} and {reps[j]} "
                           f"overlap at pair {raw[x]}")
    if (hits == 0).any():
        raise InvariantError(f"gauge {gauge}: pair {raw[np.argmax(hits == 0)]} lies in no "
                           "representative's orbit")
    return reps


def _gauges(p):
    """Conjugacy representatives for M1, named: the identity, one
    unipotent and the companions (0, -1, 1, t) of the traces t in
    [0, (p-1)/2] other than 2."""
    return ([("id", I2), ("uni", (1, 1, 0, 1))]
            + [(f"t{t}", (0, p - 1, 1, t)) for t in range((p - 1) // 2 + 1) if t != 2])


def _runs(first, size, groups):
    """The positions first[g], ..., first[g] + size[g] - 1 of each group
    g of groups, concatenated in order, and their counts size[groups]
    (the np.repeat counts of one entry per group)."""
    n = size[groups]
    return np.repeat(first[groups] - (np.cumsum(n) - n), n) + np.arange(n.sum()), n


def _trace_hits(p, ncoeff, M3s, target):
    """The (i, j) with tr(N_i M3_j) = target, for N given by the rows
    ncoeff of its transposed entries (so the trace is a dot product with
    the entries of M3), over row slices of ncoeff (numutil.slices) so the
    (rows, n_m3) products stay within the slice budget."""
    return np.concatenate([np.argwhere(residue(p, ncoeff[c] @ M3s.T) == target)
                           + [c.start, 0]
                           for c in slices(len(ncoeff), len(M3s))])


def _list_pairs(p, sl2, R1, tg, td):
    """The packed pairs pack(M2) * p^4 + pack(M3), sorted and unique, of
    M2, M3 in SL2 (the rows of sl2) with tr(R1 M3) = eps td and
    tr(M2^-1 R1 M2 M3) = eps tg for one sign eps.

    N = M2^-1 R1 M2 depends only on the coset C(R1) M2: the trace
    equation is solved once per distinct N (p(p^2 - 1) / |C(R1)| of
    them, about p^2 for a non-scalar R1), and each solution (N, M3) is
    expanded to every M2 of N's coset."""
    S = sl2.T  # SL2 as an entry-major block
    N = mm(p, mm_raw(adj_raw(S), R1), S)  # S^-1 R1 unreduced, below 2p^2
    distinct, which = np.unique(pack_np(p, np.stack(N, axis=1)), return_inverse=True)
    # the entries of each distinct N^T: tr(N M3) is their dot product with those of M3
    ncoeff = unpack_np(p, distinct, 4)[:, [0, 2, 1, 3]]
    order = np.argsort(which, kind="stable")  # the M2 of each distinct N, grouped
    size = np.bincount(which)
    first = np.cumsum(size) - size
    m2_keys = pack_np(p, sl2)
    tr_r1_m3 = tr_mm(p, R1, S)
    raw = []
    for eps in (1, -1):
        M3s = sl2[tr_r1_m3 == eps * td % p]
        if not len(M3s):
            continue
        hits = _trace_hits(p, ncoeff, M3s, eps * tg % p)
        at, n = _runs(first, size, hits[:, 0])
        raw.append(_pair_keys(p, m2_keys[order[at]], np.repeat(pack_np(p, M3s)[hits[:, 1]], n)))
    return _sorted_unique(np.concatenate(raw)) if raw else np.empty(0, dtype=np.int64)


def enumerate_x_classes(params: Params, max_prime: int = 23):
    """Full enumeration of X~^(2)/~ deduplicated by the exact
    centralizer-coset key; independent of the counting loop and of the
    orbit BFS (it shares only the ffield kernels).

    Triples (M1, M2, M3) satisfying the two trace conditions are listed
    with M1 gauge-fixed to conjugacy representatives (_gauges), as
    packed (M2, M3) pairs (_list_pairs, which solves the trace equation
    once per distinct M2^-1 M1 M2).  The residual symmetries (torus
    conjugation and lift sign flips) group them into orbits, each
    labelled by its minimum pair (_orbit_minima, which checks that the
    orbits partition the pairs).  The representatives of each gauge are
    rebuilt into actual quadruples in one batch (_rebuild_rows,
    closed-form conjugators), and the quadruples of all gauges are
    deduplicated by the exact key (_exact_keys_np, which keys block A
    once per distinct A).

    Returns (count, class_keys) with class_keys the sorted exact keys.
    """
    F = params.F
    p = F.p
    if p > max_prime:
        raise BudgetError(f"enumerate_x_classes refuses p={p} > {max_prime}")
    if not params.satisfies_nonconjugation():
        raise WitnessError("enumeration requires the split/non-split assumption")
    sl2 = _all_sl2(F)
    rows = []
    for name, R1 in _gauges(p):
        raw = _list_pairs(p, sl2, R1, params.tgamma, params.tdelta)
        if name == "id":
            if len(raw):
                raise InvariantError(f"gauge id: identity gauge must be empty under 5.1, "
                                   f"found pair {raw[0]}")
            continue
        if not len(raw):
            continue

        # residual symmetry: torus conjugation (extended by the sign
        # swap for the involution gauge), and independent sign flips
        taus = [I2] + [g for g, _ in torus_pencil(F, R1)]
        if tr(p, R1) == 0:
            rho = exact_conjugator(F, R1, neg(p, R1))
            taus = taus + [pgl_canon(F, mm(p, rho, t)) for t in taus]
        class_reps = _orbit_minima(p, raw, _conj_operators(p, taus), name)
        rows.append(_rebuild_rows(p, R1, class_reps, params, name))

    # dedupe the rebuilt quadruples by the exact key (charvar.key_exact:
    # the lexicographically minimal transformed row)
    pair_g, pair_d = _pair_arrays(params)
    keys = _exact_keys_np(p, np.concatenate(rows), pair_g, pair_d)
    keys = np.unique(keys, axis=0)
    class_keys = [tuple(k) for k in unpack_np(p, keys, 8).reshape(-1, 16).tolist()]
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
    the blocks pair_g and pair_d,
    packed into two base-p integers of 8 digits each (order-preserving,
    so equal rows = equal exact keys).  The rows may have any integer
    dtype, with entries in [0, p): each block of them is widened by
    entry_major first.

    The minimum is taken block by block.  The minimal packed image of
    block A over all pairs, and the pairs attaining it, depend on A
    alone: they are computed once per distinct packed A (np.unique), a
    slice of distinct blocks at a time.  Then, row by row, block B is
    transformed only for the pairs attaining the minimal A of its row,
    and blocks C and D only for the pairs that still attain the minimal
    packed (A, B), ties included.  That is the lexicographic minimum
    over all pairs.
    """
    if not len(rows):
        return np.empty((0, 2), dtype=np.int64)
    ops = _operators(p, pair_g, pair_d)  # X -> ghat X dhat

    def tied(block, r, k, js):
        """Packed images of the blocks js of the rows r under ops[k]."""
        digits = []
        for j in js:
            image = residue(p, np.matmul(ops[k], block[j:j + 4, r].T[..., None])[..., 0])  # (n, 4)
            digits.extend(pgl_canon_np(p, image.T))
        return pack_np(p, np.stack(digits, axis=-1))

    def row_minima(r, keys):
        # r is ascending and names every row of the block
        return np.minimum.reduceat(keys, np.flatnonzero(np.diff(r, prepend=-1)))

    # the minimal A of each distinct A, and the pairs attaining it,
    # grouped by distinct A (first and size index into pair)
    distinct, which = np.unique(pack_np(p, rows[:, :4]), return_inverse=True)
    min_a = np.empty(len(distinct), dtype=np.int64)
    owner, pair = [], []
    for c in slices(len(distinct), 4 * len(ops)):
        blocks = unpack_np(p, distinct[c], 4)
        ka = _canon_packed(p, pgl_canon_np, _apply_np(p, blocks, ops))  # (U, K)
        ma = min_a[c] = ka.min(axis=1)
        u, k = np.nonzero(ka == ma[:, None])
        owner.append(c.start + u)
        pair.append(k)
    pair = np.concatenate(pair)
    size = np.bincount(np.concatenate(owner), minlength=len(distinct))
    first = np.cumsum(size) - size

    out = np.empty((len(rows), 2), dtype=np.int64)
    for c in slices(len(rows), 16 * int(size.max())):  # bounds the ops[k] of tied
        block = entry_major(rows[c])  # (16, B) int64
        u = which[c]
        at, n = _runs(first, size, u)
        r, k = np.repeat(np.arange(len(u)), n), pair[at]  # every (row, pair) attaining it
        kb = tied(block, r, k, (4,))
        mb = row_minima(r, kb)
        tie = kb == mb[r]
        r, k = r[tie], k[tie]  # every (row, pair) attaining the minimal (A, B)
        out[c, 0] = _pair_keys(p, min_a[u], mb)
        out[c, 1] = row_minima(r, tied(block, r, k, (8, 12)))
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

def run_pipeline(p: int, seed: int = 0, max_points: int = MAX_POINTS,
                 giant_budget: int = WORD_BUDGET,
                 count_budget: int = COUNT_MAX_PRIME,
                 include_permutations: bool = True, dump_path=None) -> dict:
    """Witness -> orbit -> permutations -> classification -> verdict.

    Returns the QuotientReport as a plain dict.  Its "permutations"
    (when included) are the six int32 arrays, not lists: cli.to_json
    writes them as JSON lists.  Failures name their stage: WitnessError
    for a failed assumption, EpsilonOutsideOrbitError for a failed
    reversal twist and CertificateError for a certificate that fails
    revalidation.
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

    orbit = enumerate_orbit(cfg.P, cfg.params, max_points=max_points)
    if dump_path is not None:
        orbit.write_dump(dump_path)
    lap("orbit_ms")

    s1 = orbit.letter_perm(bq.S1)
    s2 = orbit.letter_perm(bq.S2)
    s3 = orbit.letter_perm(bq.S3)
    try:
        eps = epsilon_perm(orbit, cfg.params)
    except EpsilonOutsideOrbitError as e:
        raise EpsilonOutsideOrbitError(f"reversal twist fails at p = {p}: {e}") from e
    x, y = orbit.f2_perms()
    n, edges_verified = orbit.n, orbit.edges_verified
    del orbit  # from here on only the permutations are needed
    lap("permutations_ms")

    gens = {"sigma1": s1, "sigma2": s2, "sigma3": s3, "epsilon": eps}
    try:
        cls = classify_giant(list(gens.values()), n, seed=seed, budget=giant_budget)
    except CertificateError as e:
        raise CertificateError(f"classification at p = {p}: {e}") from e
    lap("classification_ms")

    x_is_id = bool((x == np.arange(n)).all())
    x_sign = sign(x)
    signs = dict(zip(gens, cls.generator_signs))
    if cls.kind in ("Alternating", "Symmetric") and not x_is_id and x_sign == 1:
        verdict = (f"F2 surjects onto A_{n}: x = s1 s3^-1 acts nontrivially and "
                   "evenly, and a nontrivial normal subgroup of a giant containing "
                   "no odd permutations is the alternating group")
    elif cls.kind in ("Alternating", "Symmetric"):
        verdict = "giant certified but the F2 image is trivial or odd (unexpected)"
    else:
        verdict = "inconclusive: giant recognition did not certify"

    x_count = None
    if p <= count_budget:
        x_count = count_x(cfg.params, max_prime=count_budget)
    lap("count_ms")

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
