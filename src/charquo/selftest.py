"""Quick self-check battery behind `charquo selftest`.

A fast subset of the acceptance checks, one PASS/FAIL line each; the
full suite lives in tests/.
"""

from __future__ import annotations

import random

import numpy as np

from . import braidquandle as bq
from . import charvar as cv
from . import qrep as qr
from . import witness as wt
from .ffield import PrimeField, ProjMat2, pack_np
from .orbit import enumerate_orbit
from .permgrp import classify_giant, schreier_sims


def _rand_elt(F, rng):
    while True:
        a, b, c = rng.randrange(F.p), rng.randrange(F.p), rng.randrange(F.p)
        if a:
            return ProjMat2.of(F, (a, b, c, (1 + b * c) * F.inv(a) % F.p))


def _rand_quad(F, rng):
    return tuple(_rand_elt(F, rng) for _ in range(4))


def _check_quandle(count):
    F = PrimeField(1009)
    rng = random.Random(0)
    for _ in range(count):
        Q = _rand_quad(F, rng)
        a, b, c, _ = Q
        if bq.triangle(a, a) != a:
            return False
        lhs = bq.triangle(a, bq.triangle(b, c))
        if lhs != bq.triangle(bq.triangle(a, b), bq.triangle(a, c)):
            return False
        if bq.apply_word([bq.S1, bq.S2, bq.S1], Q) != bq.apply_word([bq.S2, bq.S1, bq.S2], Q):
            return False
        bq.center_image(Q)
        if bq.epsilon(bq.apply_letter(bq.S1, bq.epsilon(Q))) != bq.apply_letter(bq.S3i, Q):
            return False
    return True


def _check_trace_actions(count):
    cfg = wt.build(19)
    p, rng = 19, random.Random(1)
    letters = [bq.S1, bq.S1i, bq.S2, bq.S2i, bq.S3, bq.S3i]
    Q = cfg.P
    for _ in range(count):
        Q = bq.apply_letter(rng.choice(letters), Q)
        t = cv.from_quad(Q)
        if not cv.fricke_check(t, p):
            return False
        for L in letters:
            lhs = cv.canonicalize(cv.sigma_action(L[0], L[1], t, p), p)
            if lhs != cv.canonicalize(cv.from_quad(bq.apply_letter(L, Q)), p):
                return False
    return True


def _check_permgrp():
    s4 = schreier_sims([[1, 2, 3, 0], [1, 0, 2, 3]])
    a4 = schreier_sims([[1, 2, 0, 3], [0, 2, 3, 1]])
    if s4.order != 24 or a4.order != 12:
        return False
    gens = [list(range(1, 100)) + [0], [1, 0] + list(range(2, 100))]
    return classify_giant(gens, 100, seed=1).kind == "Symmetric"


def _check_qrep():
    if not all(qr.qbinom_product_identity(t) for t in range(7)):
        return False
    if not qr.operator_relations_check(jmax=4, nmax=2):
        return False
    for ell in range(3):
        if qr.braid_matrices(2, ell).sigma[1][0][0] != qr.expected_w2_eigenvalue(ell):
            return False
    mats = qr.braid_matrices(4, 2)
    return mats.dim == 6


def _check_pipeline():
    rep = wt.run_pipeline(19, seed=0, include_permutations=False)
    return (rep["classification"] in ("Alternating", "Symmetric")
            and rep["f2_x_nontrivial"] and rep["f2_x_sign"] == 1
            and 0 < rep["n"] <= rep["x_count"])


def _check_x_classes():
    cfg = wt.build(19)
    orbit = enumerate_orbit(cfg.P, cfg.params)
    count, class_keys = wt.enumerate_x_classes(cfg.params)
    keys = np.unique(wt.orbit_exact_keys(orbit, cfg.params), axis=0)
    return count == orbit.n == len(keys) and (
        pack_np(19, np.array(class_keys).reshape(-1, 2, 8)) == keys).all()


def run_selftest(fast: bool = False) -> int:
    checks = [
        ("quandle and braid identities over PSL2(F_1009)",
         lambda: _check_quandle(60 if fast else 200)),
        ("trace-coordinate actions match the matrix action at p=19",
         lambda: _check_trace_actions(30 if fast else 100)),
        ("permutation-group oracle (S4, A4, S100 certificate)", _check_permgrp),
        ("quantum engine basics (identities, eigenvalues, W_4,2)", _check_qrep),
    ]
    if not fast:
        checks += [("end-to-end pipeline at p = 19", _check_pipeline),
                   ("X-class oracle agrees with the orbit at p = 19", _check_x_classes)]
    failures = 0
    for name, fn in checks:
        try:
            ok = fn()
        except Exception as e:  # a crash is a failure with a reason
            ok = False
            name = f"{name} ({type(e).__name__}: {e})"
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
        failures += 0 if ok else 1
    print(f"{len(checks) - failures}/{len(checks)} checks passed")
    return failures
