"""The explicit witness construction over PSL2(F_p): primes, matrices,
the base point, assumption validation, proper decompositions, the
brute-force point-counting oracle for X^(2), and the end-to-end
quotient pipeline.

gamma = u w has trace 3 and delta = (u v w v^-1)^-1 has trace 11, so a
usable prime must keep 3 and 11 away from {0, +-2} mod p and make
tr(gamma)^2 - 4 = 5 a square while tr(delta)^2 - 4 = 117 = 9 * 13 is
not one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import braidquandle as bq
from .charvar import Params, canon_keys_np, fricke_value
from .ffield import (ElementClass, Mat, PrimeField, ProjMat2, classify,
                     centralizer_element_of_class, exact_conjugator, inv_table,
                     is_maximal, mat_det, mat_id, mat_inv, mat_mul, mat_neg,
                     mat_trace, minv_np, mm_np, order, pack_np, pgl_canon,
                     pgl_canon_np, psl_canon, torus_pencil, unpack_np)
from .numutil import next_prime
from .orbit import OrbitIndex, enumerate_orbit, epsilon_perm, validate_start
from .permgrp import GiantCertificate, classify_giant, sign

TR_GAMMA = 3
TR_DELTA = 11

U0 = (1, 0, 1, 1)
V0 = (1, 1, 0, 1)
W0 = (-1, 1, -4, 3)


class WitnessError(ValueError):
    pass


class BudgetError(RuntimeError):
    pass


def _degenerate(p: int) -> bool:
    bad = {0, 2, p - 2}
    return (TR_GAMMA % p) in bad or (TR_DELTA % p) in bad


def find_prime(minimum: int = 5, mode: str = "relaxed") -> int:
    """Least usable prime >= minimum.

    strict: the congruences p = 1 (mod 5), p = -2 (mod 13).
    relaxed: the underlying quadratic conditions (5 a square, 13 not),
    which they imply; unlocks desk-scale primes such as 19 and 31.
    Both modes reject primes where tr(gamma) or tr(delta) degenerates.
    """
    if mode not in ("strict", "relaxed"):
        raise ValueError(f"unknown mode {mode!r}")
    p = max(5, minimum)
    while True:
        p = next_prime(p)
        if mode == "strict":
            ok = p % 5 == 1 and p % 13 == 11
        else:
            F = PrimeField(p)
            ok = F.legendre(5) == 1 and F.legendre(13) == -1
        if ok and not _degenerate(p):
            return p
        p += 1


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
    gamma = mat_mul(F, u, w)
    delta = mat_inv(F, mat_mul(F, mat_mul(F, u, v), mat_mul(F, w, mat_inv(F, v))))
    assert mat_trace(F, gamma) == TR_GAMMA % p
    assert mat_trace(F, delta) == TR_DELTA % p
    for name, m in (("gamma", gamma), ("delta", delta)):
        cls = classify(ProjMat2.of(F, m))
        if cls in (ElementClass.IDENTITY, ElementClass.INVOLUTION, ElementClass.UNIPOTENT):
            raise WitnessError(f"degenerate prime {p}: {name} is {cls.value}")
    params = Params(F, gamma, delta)
    ui, vi, wi = mat_inv(F, u), mat_inv(F, v), mat_inv(F, w)
    P = (ProjMat2.identity(F),
         ProjMat2.of(F, ui),
         ProjMat2.of(F, mat_mul(F, vi, ui)),
         ProjMat2.of(F, mat_mul(F, wi, mat_mul(F, vi, ui))))
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
    s = M if mat_trace(F, M) == 2 else mat_neg(F, M)
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
    return pgl_canon(F, mat_mul(F, a, b)) == pgl_canon(F, mat_mul(F, b, a))


def generates_psl2(F: PrimeField, a: Mat, b: Mat):
    """Dickson-based generation test for a pair of SL2 matrices.

    True / False are certified; None means the quick criteria were
    inconclusive (possible dihedral or exceptional containment).
    """
    A, B = ProjMat2.of(F, a), ProjMat2.of(F, b)
    comm = mat_mul(F, mat_mul(F, a, b), mat_mul(F, mat_inv(F, a), mat_inv(F, b)))
    if mat_trace(F, comm) == 2:
        return False  # reducible over the closure: inside a Borel or cyclic
    sq = [mat_mul(F, m, m) for m in (a, b, mat_mul(F, a, b))]
    pairwise = all(_commutes_proj(F, sq[i], sq[j])
                   for i in range(3) for j in range(i + 1, 3))
    if pairwise:
        return None  # squares inside one torus: dihedral not excluded
    orders = []
    for m in (a, b, mat_mul(F, a, b)):
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
    nonconj = {cg, cd} == {ElementClass.SPLIT, ElementClass.NONSPLIT}
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
        nonconjugation_ok=nonconj,
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
    A, B, C, D = (X.m for X in Q)
    Bi, Ci, Di = mat_inv(F, B), mat_inv(F, C), mat_inv(F, D)
    if which == "first":
        x = mat_mul(F, A, Bi)
        y = mat_mul(F, Bi, A)
        z = mat_mul(F, C, Di)
        w = mat_mul(F, Di, C)
    elif which == "second":
        x = mat_mul(F, A, Ci)
        y = mat_mul(F, Ci, A)
        z = mat_mul(F, mat_mul(F, C, Bi), mat_mul(F, C, Di))
        w = mat_mul(F, mat_mul(F, Di, C), mat_mul(F, Bi, C))
    else:
        raise ValueError(f"unknown foliation {which!r}")
    gm = bq.gamma(Q)
    dm = bq.delta(Q)
    assert psl_canon(F, mat_mul(F, x, z)) == gm.m
    assert psl_canon(F, mat_mul(F, w, y)) == dm.inv().m

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
    assert len(out) == p * p - 1
    return out


def _uni_param_class(F: PrimeField, M: Mat) -> int:
    """SL2-conjugacy class of a +-unipotent: the square class of the
    off-diagonal parameter."""
    p = F.p
    s = M if mat_trace(F, M) == 2 else mat_neg(F, M)
    n12, n21 = s[1], (s[2]) % p
    if n12:
        return F.legendre(n12)
    return F.legendre((-n21) % p)


def _conj_by(F, g, M):
    """g M g^-1 for invertible g, exact in SL2."""
    p = F.p
    det_inv = F.inv(mat_det(F, g))
    out = mat_mul(F, mat_mul(F, g, M), mat_inv(F, g))
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
            z = mat_mul(F, mat_inv(F, x), target)
            if mat_trace(F, z) == 2 and z != mat_id():
                out.append((x, z))
        return out

    # the sign flips of the PSL lifts change x z and w y together, so a
    # decomposition of (gamma, delta) has x z = eps gamma and
    # w y = eps delta^-1 with one common sign
    candidates = {}
    for eps in (1, -1):
        tg = params.gamma_mat if eps == 1 else mat_neg(F, params.gamma_mat)
        td = mat_inv(F, params.delta_mat)
        td = td if eps == 1 else mat_neg(F, td)
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
        assert members <= set(candidates), "orbit left the candidate set"
        seen |= members
        classes.append(sorted(members))
    return classes


def normalize_unipotent_decomposition(F, dec):
    """Flip the (x,y) and (z,w) pairs so both traces are +2, matching
    the search's normal form."""
    x, y, z, w = dec
    if mat_trace(F, x) != 2:
        x, y = mat_neg(F, x), mat_neg(F, y)
    if mat_trace(F, z) != 2:
        z, w = mat_neg(F, z), mat_neg(F, w)
    return (x, y, z, w)


# -- counting X^(2) -------------------------------------------------------

def count_x(params: Params, max_prime: int = 47) -> int:
    """Number of canonical 7-tuple keys satisfying the membership
    equations: loop over (a, b, c, x, z), solve linearly for the last
    coordinate when b != 0 (scan it when b = 0), filter by the Fricke
    relation and y = tr(delta), dedupe by canonical key.
    """
    F = params.F
    p = F.p
    if p > max_prime:
        raise BudgetError(f"count_x refuses p={p} > {max_prime} (O(p^5) loop)")
    if not params.satisfies_nonconjugation():
        raise WitnessError("count_x requires the split/non-split assumption")
    idx = np.arange(p, dtype=np.int64)
    C3, X3, Z3 = np.meshgrid(idx, idx, idx, indexing="ij")
    c3, x3, z3 = C3.ravel(), X3.ravel(), Z3.ravel()
    keys = set()
    for eps in (1, -1):
        y0 = eps * params.tdelta % p
        target = eps * (params.tgamma + params.tdelta) % p
        for a in range(p):
            for b in range(p):
                if b:
                    c, x, z = c3, x3, z3
                    p7 = (target - a * c3 + x3 * z3) % p * F.inv(b) % p
                else:  # p7 is free: every value is scanned
                    m0 = (a * c3 - x3 * z3) % p == target
                    c, x, z = (np.tile(v[m0], p) for v in (c3, x3, z3))
                    p7 = np.repeat(idx, int(m0.sum()))
                t = (a, b, c, x, y0, z, p7)
                m = fricke_value(t, p) == 0
                if m.any():
                    cols = [np.broadcast_to(v, m.shape)[m] for v in t]
                    keys.update(canon_keys_np(p, np.stack(cols, axis=-1)).tolist())
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
        raise WitnessError(f"listed {len(arr)} elements of SL2(F_{p}), not p(p^2 - 1)")
    return arr


def _operators(p, left, right):
    """The linear maps X -> left_k X right_k on 2x2 matrices (as
    4-vectors), for (K, 4) arrays left and right: shape (K, 4, 4)."""
    unit = np.eye(4, dtype=np.int64)
    return np.stack([mm_np(p, mm_np(p, left, unit[i]), right) for i in range(4)], axis=-1)


def _conj_operators(p, taus):
    """The conjugations M -> tau M tau^-1, exact in SL2 for invertible tau."""
    taus = np.array(taus, dtype=np.int64)
    det = (taus[:, 0] * taus[:, 3] - taus[:, 1] * taus[:, 2]) % p
    return _operators(p, taus, minv_np(p, taus) * inv_table(p)[det][:, None] % p)


# entries per temporary in the chunked oracle kernels (about 8 MB each)
_CHUNK_ENTRIES = 1 << 20


def _apply_np(p, X, ops):
    """op X for each row of X (m, 4) and each operator of ops (K, 4, 4):
    shape (m, K, 4).  One float64 product, exact because every entry of
    it is a sum of four products of residues, below 4p^2."""
    K = len(ops)
    flat = X.astype(np.float64) @ ops.transpose(2, 0, 1).reshape(4, 4 * K).astype(np.float64)
    return flat.astype(np.int64).reshape(len(X), K, 4) % p


def _sorted_unique(keys):
    """The distinct values of a 1-D array, ascending (np.unique, which
    hashes first, is far slower on int64 keys)."""
    keys = np.sort(keys)
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return keys[first]


def _packed_signs(p, M):
    """pack_np of M and of -M, both reduced mod p."""
    return pack_np(p, M), pack_np(p, (p - M) % p)


def _orbit_minima(p, raw, ops, gauge):
    """Representatives of the packed (M2, M3) pairs raw (sorted, unique,
    pack(M2) * p^4 + pack(M3)) under the group of the conjugations ops
    and the independent lift signs of M2 and M3: the minimum of each
    orbit.

    Conjugation commutes with the signs, and the packed minimum of x and
    -x is the packed psl_canon(x); so each pair of the sign-canonical
    quarter of raw is labelled by the minimum over ops of
    pack(psl_canon(tau M2 tau^-1)) * p^4 + pack(psl_canon(tau M3 tau^-1)),
    and the labels are the orbit minima.  That holds only if ops is a
    group and raw a union of orbits, so it is checked: all 4K images of
    every representative lie in raw, and the image sets partition raw.
    Raises WitnessError naming the gauge and the offending packed pair.
    """
    shift = p ** 4
    digits = unpack_np(p, raw, 8)
    canon = np.ones(len(raw), dtype=bool)
    for half in (digits[:, :4], digits[:, 4:]):
        plus, minus = _packed_signs(p, half)
        canon &= plus <= minus
    quarter = digits[canon]
    step = max(1, _CHUNK_ENTRIES // (4 * len(ops)))
    labels = []
    for start in range(0, len(quarter), step):
        block = quarter[start:start + step]
        m2 = np.minimum(*_packed_signs(p, _apply_np(p, block[:, :4], ops)))
        m3 = np.minimum(*_packed_signs(p, _apply_np(p, block[:, 4:], ops)))
        labels.append((m2 * shift + m3).min(axis=1))
    reps = _sorted_unique(np.concatenate(labels))

    # the orbit of each representative, deduplicated within the orbit
    rep_digits = unpack_np(p, reps, 8)
    step = max(1, _CHUNK_ENTRIES // (16 * len(ops)))
    members, owners = [], []
    for start in range(0, len(reps), step):
        block = rep_digits[start:start + step]
        k2 = _packed_signs(p, _apply_np(p, block[:, :4], ops))
        k3 = _packed_signs(p, _apply_np(p, block[:, 4:], ops))
        images = np.concatenate([s2 * shift + s3 for s2 in k2 for s3 in k3], axis=1)
        images.sort(axis=1)  # (B, 4K)
        first = np.ones(images.shape, dtype=bool)
        first[:, 1:] = images[:, 1:] != images[:, :-1]
        members.append(images[first])
        owners.append(start + np.nonzero(first)[0])
    members = np.concatenate(members)
    owners = np.concatenate(owners)

    at = np.searchsorted(raw, members).clip(max=len(raw) - 1)
    outside = np.nonzero(raw[at] != members)[0]
    if len(outside):
        i = outside[0]
        raise WitnessError(f"gauge {gauge}: the orbit of pair {reps[owners[i]]} leaves "
                           f"the solution set at pair {members[i]}")
    hits = np.bincount(at, minlength=len(raw))  # orbits through each pair
    if (hits > 1).any():
        x = np.argmax(hits > 1)
        i, j = owners[at == x][:2]
        raise WitnessError(f"gauge {gauge}: the orbits of pairs {reps[i]} and {reps[j]} "
                           f"overlap at pair {raw[x]}")
    if (hits == 0).any():
        raise WitnessError(f"gauge {gauge}: pair {raw[np.argmax(hits == 0)]} lies in no "
                           "representative's orbit")
    return reps


def enumerate_x_classes(params: Params, max_prime: int = 23):
    """Full enumeration of X~^(2)/~ deduplicated by the exact
    centralizer-coset key; independent of the counting loop and of the
    orbit BFS (it shares only the ffield kernels).

    Triples (M1, M2, M3) satisfying the two trace conditions are listed
    with M1 gauge-fixed to conjugacy representatives, as packed (M2, M3)
    pairs.  The residual symmetries (torus conjugation and lift sign
    flips) group them into orbits, each labelled by its minimum pair
    (_orbit_minima, which checks that the orbits partition the pairs).
    One representative per orbit is rebuilt into an actual quadruple,
    and the quadruples are deduplicated by the exact key.

    Returns (count, class_keys) with class_keys the sorted exact keys.
    """
    F = params.F
    p = F.p
    if p > max_prime:
        raise BudgetError(f"enumerate_x_classes refuses p={p} > {max_prime}")
    if not params.satisfies_nonconjugation():
        raise WitnessError("enumeration requires the split/non-split assumption")
    sl2 = _all_sl2(F)
    tg, td = params.tgamma, params.tdelta

    # gauge representatives for M1: identity, one unipotent, companions
    reps = [("id", mat_id()), ("uni", (1, 1, 0, 1))]
    for t in range(0, (p - 1) // 2 + 1):
        if t == 2:
            continue
        reps.append((f"t{t}", (0, p - 1, 1, t)))

    # SL2 elements as (n,4); traces of R1 * M3 are linear in M3
    def trace_of_product_coeffs(R):
        # tr(R M) = R11 M11 + R21 M12 + R12 M21 + R22 M22
        return np.array([R[0], R[2], R[1], R[3]], dtype=np.int64)

    sl2_inv = minv_np(p, sl2)
    rows = []

    for name, R1 in reps:
        # admissible M3 for each sign branch
        coeff = trace_of_product_coeffs(R1)
        tr_r1_m3 = sl2 @ coeff % p
        branch_m3 = {eps: sl2[tr_r1_m3 == eps * td % p] for eps in (1, -1)}
        # N = M2^-1 R1 M2 for all M2
        R1v = np.array(R1, dtype=np.int64)
        N = mm_np(p, mm_np(p, sl2_inv, R1v[None, :]), sl2)
        ncoeff = np.stack([N[:, 0], N[:, 2], N[:, 1], N[:, 3]], axis=1)
        raw = []
        for eps in (1, -1):
            M3s = branch_m3[eps]
            if not len(M3s):
                continue
            prod = ncoeff @ M3s.T % p  # (n_sl2, n_m3) = tr(N M3)
            hits = np.argwhere(prod == eps * tg % p)
            # packed (M2, M3): 8 base-p digits, pack(M2) * p^4 + pack(M3)
            raw.append(pack_np(p, np.concatenate([sl2[hits[:, 0]], M3s[hits[:, 1]]], axis=1)))
        raw = _sorted_unique(np.concatenate(raw)) if raw else np.empty(0, dtype=np.int64)
        if name == "id":
            if len(raw):
                raise WitnessError(f"gauge id: identity gauge must be empty under 5.1, "
                                   f"found pair {raw[0]}")
            continue
        if not len(raw):
            continue

        # residual symmetry: torus conjugation (extended by the sign
        # swap for the involution gauge), and independent sign flips
        taus = [mat_id()] + [g for g, _ in torus_pencil(F, R1)]
        if mat_trace(F, R1) == 0:
            rho = exact_conjugator(F, R1, mat_neg(F, R1))
            taus = taus + [pgl_canon(F, mat_mul(F, rho, t)) for t in taus]
        class_reps = _orbit_minima(p, raw, _conj_operators(p, taus), name)
        for pair, (m2, m3) in zip(class_reps.tolist(),
                                  unpack_np(p, class_reps, 8).reshape(-1, 2, 4).tolist()):
            try:
                rows.append(_rebuild_quad_row(F, R1, m2, m3, params))
            except WitnessError as exc:
                raise WitnessError(f"gauge {name}, pair {pair}: {exc}") from None

    # dedupe the rebuilt quadruples by the exact key (charvar.key_exact:
    # the lexicographically minimal transformed row)
    pair_g, pair_d = _pair_arrays(params)
    keys = _exact_keys_np(p, np.array(rows, dtype=np.int64).reshape(-1, 16), pair_g, pair_d)
    keys = np.unique(keys, axis=0)
    class_keys = [tuple(k) for k in unpack_np(p, keys, 8).reshape(-1, 16).tolist()]
    return len(class_keys), class_keys


def _rebuild_quad_row(F: PrimeField, M1, M2, M3, params: Params):
    """A projective quadruple row in X~ with trace triple (M1, M2, M3).

    Starts from (1, M1^-1, M2, M2 M3^-1), then conjugates gamma(Q) and
    delta(Q) onto the true parameters with class-matched PGL2 elements.
    Raises WitnessError when a trace, the determinant classes or the
    defining equation fails to match.
    """
    p = F.p
    M1i = mat_inv(F, M1)
    M3i = mat_inv(F, M3)
    Q0 = (mat_id(), M1i, M2, mat_mul(F, M2, M3i))
    G0 = _conj_by(F, M2, M3)
    G0 = mat_mul(F, M1, G0)          # M1 M2 M3 M2^-1
    D0 = mat_inv(F, mat_mul(F, M3, M1))
    eps = 1 if mat_trace(F, G0) == params.tgamma % p else -1
    tgt_g = params.gamma_mat if eps == 1 else mat_neg(F, params.gamma_mat)
    tgt_d = params.delta_mat if eps == 1 else mat_neg(F, params.delta_mat)
    if mat_trace(F, G0) != mat_trace(F, tgt_g):
        raise WitnessError(f"tr(M1 M2 M3 M2^-1) = {mat_trace(F, G0)} is not "
                           f"+-tr(gamma) = +-{params.tgamma}")
    if mat_trace(F, D0) != mat_trace(F, tgt_d):
        raise WitnessError(f"tr((M3 M1)^-1) = {mat_trace(F, D0)} does not match "
                           f"{mat_trace(F, tgt_d)}, the sign-{eps} trace of delta")
    g = exact_conjugator(F, G0, tgt_g)
    h = exact_conjugator(F, D0, tgt_d)
    cg = F.legendre(mat_det(F, g))
    ch = F.legendre(mat_det(F, h))
    if cg != ch:
        z = centralizer_element_of_class(params.gamma, -1)
        g = mat_mul(F, z, g)
        cg = F.legendre(mat_det(F, g))
        if cg != ch:
            raise WitnessError(f"conjugator determinant classes {cg} and {ch} differ")
    hi_adj = mat_inv(F, h)  # h^-1 up to scalar
    row = []
    for x in Q0:
        row.extend(pgl_canon(F, mat_mul(F, mat_mul(F, g, x), hi_adj)))
    # defining equations at the projective level
    A, B, C, D = (tuple(row[4 * k:4 * k + 4]) for k in range(4))
    gg = mat_mul(F, mat_mul(F, A, mat_inv(F, B)), mat_mul(F, C, mat_inv(F, D)))
    if pgl_canon(F, gg) != pgl_canon(F, params.gamma_mat):
        raise WitnessError(f"rebuilt row {row} has A B^-1 C D^-1 != gamma")
    return row


def _pair_arrays(params: Params):
    """The equal-class centralizer pairs as two (K, 4) arrays (ghat, dhat)."""
    pairs = params.equal_class_pairs()
    return (np.array([g for g, _ in pairs], dtype=np.int64),
            np.array([d for _, d in pairs], dtype=np.int64))


def _exact_keys_np(p, rows, pair_g, pair_d):
    """Exact centralizer-coset key (charvar.key_exact) of each (m, 16)
    row, as an (m, 2) int64 array: the lexicographically minimal
    pgl-canonical transformed row over the pairs (pair_g[k], pair_d[k]),
    packed into two base-p integers of 8 digits each (order-preserving,
    so equal rows = equal exact keys).

    Blocks A and B are transformed for every pair; blocks C and D only
    for the pairs attaining the minimum of the packed (A, B) half, ties
    included.
    """
    ops = _operators(p, pair_g, pair_d)  # X -> ghat X dhat
    out = np.empty((len(rows), 2), dtype=np.int64)
    step = max(1, _CHUNK_ENTRIES // (8 * len(ops)))
    for start in range(0, len(rows), step):
        block = rows[start:start + step]
        first = [pgl_canon_np(p, _apply_np(p, block[:, j:j + 4], ops)) for j in (0, 4)]
        k1 = pack_np(p, np.concatenate(first, axis=-1))  # (B, K)
        m1 = k1.min(axis=1)
        r, k = np.nonzero(k1 == m1[:, None])  # every (row, pair) attaining it
        second = [pgl_canon_np(p, np.matmul(ops[k], block[r, j:j + 4, None])[..., 0] % p)
                  for j in (8, 12)]
        k2 = pack_np(p, np.concatenate(second, axis=-1))
        m2 = np.full(len(block), np.iinfo(np.int64).max)
        np.minimum.at(m2, r, k2)
        out[start:start + len(block), 0] = m1
        out[start:start + len(block), 1] = m2
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
    traces, ident = orbit.sigma_matrix_traces(i)
    out = np.array([table[int(t)] for t in traces], dtype=np.int64)
    out[ident] = 1
    return out


# -- the pipeline ----------------------------------------------------------

class PipelineError(RuntimeError):
    def __init__(self, stage, message):
        super().__init__(f"{stage}: {message}")
        self.stage = stage


def run_pipeline(p: int, seed: int = 0, max_points: int = 2_000_000,
                 giant_budget: int = 300, count_budget: int = 47,
                 include_permutations: bool = True, dump_path=None) -> dict:
    """Witness -> orbit -> permutations -> classification -> verdict.

    Returns the QuotientReport as a plain dict (JSON-ready).
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
        raise PipelineError("assumptions", "split/non-split assumption fails")
    if not report.point_ok:
        raise PipelineError("assumptions", "unipotent point assumption fails")

    orbit = enumerate_orbit(cfg.P, cfg.params, max_points=max_points)
    if dump_path is not None:
        orbit.write_dump(dump_path)
    lap("orbit_ms")

    s1 = orbit.letter_perm(bq.S1)
    s2 = orbit.letter_perm(bq.S2)
    s3 = orbit.letter_perm(bq.S3)
    eps = epsilon_perm(orbit, cfg.params)
    x, y = orbit.f2_perms()
    lap("permutations_ms")

    gens = [s1.tolist(), s2.tolist(), s3.tolist(), eps.tolist()]
    cls = classify_giant(gens, orbit.n, seed=seed, budget=giant_budget)
    lap("classification_ms")

    x_list = x.tolist()
    x_is_id = all(i == j for i, j in enumerate(x_list))
    x_sign = sign(x_list)
    signs = {"sigma1": sign(gens[0]), "sigma2": sign(gens[1]),
             "sigma3": sign(gens[2]), "epsilon": sign(gens[3])}
    if cls.kind in ("Alternating", "Symmetric") and not x_is_id and x_sign == 1:
        verdict = (f"F2 surjects onto A_{orbit.n}: x = s1 s3^-1 acts nontrivially and "
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
        "n": orbit.n,
        "x_count": x_count,
        "orbit_ratio": (orbit.n / x_count) if x_count else None,
        "classification": cls.kind,
        "generator_signs": signs,
        "f2_verdict": verdict,
        "f2_x_nontrivial": not x_is_id,
        "f2_x_sign": x_sign,
        "certificate": cert,
        "seed": seed,
        "assumptions": report.to_dict(),
        "exact_dedup_verified": orbit.exact_verified,
        "edges_verified": orbit.edges_verified,
        "timings_ms": timings,
    }
    if include_permutations:
        out["permutations"] = {
            "sigma1": gens[0], "sigma2": gens[1], "sigma3": gens[2],
            "epsilon": gens[3], "x": x_list, "y": y.tolist(),
        }
    return out
