"""Correctness checks on the outputs of one repetition.

Every check returns a list of problems (empty when the output is
correct).  Orbit certificates are revalidated from the report's
permutation arrays with permgrp primitives only (check_perm, mult,
inverse, cycle_lengths, sign), never through the enumeration engine.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import struct

import numpy as np

from charquo import permgrp

# Values known for the witness orbits; the dumps are byte-stable (they
# hold only the sorted canonical keys, so they do not depend on --seed).
KNOWN = {
    19: {"n": 32400, "x_count": 32400, "edges_verified": 162001,
         "dump_sha256": "c4cff0503cc6e32199d43f7b281fe71217d4efe851436925418f754c71246ee7"},
    31: {"n": 230400, "x_count": 230400, "edges_verified": 1152001,
         "dump_sha256": "b36aebeddc5c2aa68e856bb61e48b1cfd24503e7dccf2e2839bf61c9eb7a69f2"},
}

QREP_CHECKS = {
    4: {"braid_relations", "qbinom_identity_t6", "operator_relations",
        "bn1_decomposition", "e_commutes", "starred_identities_v41",
        "reversal_conjugation", "constructive_intertwiner", "intertwiner"},
    5: {"braid_relations", "qbinom_identity_t6", "operator_relations",
        "bn1_decomposition", "e_commutes"},
}
QREP_DIM = {(4, 2): 6, (5, 3): 20}

_TIMINGS = re.compile(rb'"timings_ms": \{[^}]*\}')


def digest(path) -> str:
    """sha256 of a file, with a report's timings_ms block blanked."""
    with open(path, "rb") as fh:
        data = fh.read()
    return hashlib.sha256(_TIMINGS.sub(b'"timings_ms": {}', data)).hexdigest()


def timings_of(path):
    """The timings_ms of a report, or None when there is no such report."""
    try:
        with open(path, "rb") as fh:
            m = _TIMINGS.search(fh.read())
    except FileNotFoundError:
        return None
    return json.loads(m.group(0).split(b":", 1)[1]) if m else None


def _load(path):
    try:
        with open(path) as fh:
            return json.load(fh), []
    except (OSError, ValueError) as e:
        return None, [f"{path}: unreadable report ({e})"]


def _is_prime(q):
    if q < 2:
        return False
    d = 2
    while d * d <= q:
        if q % d == 0:
            return False
        d += 1
    return True


def check_orbit_report(path, p, seed):
    rep, problems = _load(path)
    if rep is None:
        return problems
    known = KNOWN[p]
    n = known["n"]
    expect = {"p": p, "n": n, "x_count": known["x_count"], "orbit_ratio": 1.0,
              "f2_x_sign": 1, "f2_x_nontrivial": True, "seed": seed,
              "exact_dedup_verified": True, "edges_verified": known["edges_verified"]}
    for key, want in expect.items():
        if rep.get(key) != want:
            problems.append(f"{key} = {rep.get(key)!r}, expected {want!r}")
    if rep.get("classification") not in ("Alternating", "Symmetric"):
        problems.append(f"classification {rep.get('classification')!r} is not a giant")
    perms = rep.get("permutations") or {}
    names = ("sigma1", "sigma2", "sigma3", "epsilon", "x", "y")
    for name in names:
        try:
            permgrp.check_perm(perms.get(name, []), n)
        except (ValueError, TypeError, IndexError) as e:
            problems.append(f"permutation {name}: {e}")
    if problems:
        return problems
    s1, s2, s3, eps, x, y = (perms[k] for k in names)
    if x != permgrp.mult(s1, permgrp.inverse(s3)):
        problems.append("x != sigma1 sigma3^-1")
    if y != permgrp.mult(permgrp.mult(s2, x), permgrp.inverse(s2)):
        problems.append("y != sigma2 x sigma2^-1")
    gens = [s1, s2, s3, eps]
    signs = {k: permgrp.sign(g) for k, g in zip(names, gens)}
    if rep.get("generator_signs") != signs:
        problems.append(f"generator_signs {rep.get('generator_signs')} != recomputed {signs}")
    if permgrp.sign(x) != 1:
        problems.append("x is odd")
    kind = "Alternating" if all(v == 1 for v in signs.values()) else "Symmetric"
    if rep["classification"] != kind:
        problems.append(f"classification {rep['classification']} but generator signs say {kind}")
    cert = rep.get("certificate") or {}
    q, word = cert.get("q"), cert.get("word")
    if not (isinstance(q, int) and _is_prime(q) and n < 2 * q and q < n - 2 and word):
        problems.append(f"certificate q = {q!r} is not a prime in (n/2, n-2)")
        return problems
    invs = [permgrp.inverse(h) for h in gens]
    g = permgrp.id_perm(n)
    for idx, e in word:
        g = permgrp.mult(g, gens[idx] if e == 1 else invs[idx])
    if q not in permgrp.cycle_lengths(g):
        problems.append(f"certificate word has no {q}-cycle")
    return problems


def check_dump(path, p):
    """Header, length, key order and range, then the known bytes."""
    known = KNOWN[p]
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as e:
        return [f"{path}: unreadable dump ({e})"]
    if len(data) < 24 or data[:4] != b"CHQO":
        return [f"{path}: bad dump header"]
    version, dp, n = struct.unpack("<IQQ", data[4:24])
    if (version, dp, n) != (1, p, known["n"]):
        return [f"{path}: header (version {version}, p {dp}, n {n})"]
    if len(data) != 24 + 56 * n:
        return [f"{path}: {len(data)} bytes, expected {24 + 56 * n}"]
    coords = np.frombuffer(data, dtype="<u8", offset=24).reshape(n, 7).astype(np.int64)
    if (coords >= p).any():
        return [f"{path}: coordinate out of range"]
    keys = np.zeros(n, dtype=np.int64)
    for j in range(7):
        keys = keys * p + coords[:, j]
    if not (np.diff(keys) > 0).all():
        return [f"{path}: keys not strictly ascending"]
    if hashlib.sha256(data).hexdigest() != known["dump_sha256"]:
        return [f"{path}: dump bytes differ from the known orbit at p = {p}"]
    return []


def check_count_report(path, p):
    rep, problems = _load(path)
    if rep is None:
        return problems
    n = KNOWN[p]["n"]
    want = {"p": p, "x_count": KNOWN[p]["x_count"], "orbit_n": n, "orbit_ratio": 1.0}
    return [f"count {k} = {rep.get(k)!r}, expected {v!r}"
            for k, v in want.items() if rep.get(k) != v]


def check_x_classes(path, p):
    rep, problems = _load(path)
    if rep is None:
        return problems
    if rep.get("class_count") != KNOWN[p]["n"]:
        return [f"X-enumeration found {rep.get('class_count')!r} classes, "
                f"orbit has {KNOWN[p]['n']} points"]
    return []


def check_exact_keys(path, p):
    rep, problems = _load(path)
    if rep is None:
        return problems
    n = KNOWN[p]["n"]
    if rep.get("points") != n or rep.get("distinct_keys") != n:
        return [f"exact keys: {rep.get('distinct_keys')!r} distinct over "
                f"{rep.get('points')!r} points, expected {n}"]
    return []


def check_qrep_report(path, n, ell, r, q0, s0):
    rep, problems = _load(path)
    if rep is None:
        return problems
    if (rep.get("n"), rep.get("ell"), rep.get("dim")) != (n, ell, QREP_DIM[(n, ell)]):
        problems.append(f"(n, ell, dim) = {(rep.get('n'), rep.get('ell'), rep.get('dim'))}")
    checks = rep.get("checks") or {}
    if set(checks) != QREP_CHECKS[n] or not all(v is True for v in checks.values()):
        problems.append(f"checks {checks}")
    if n == 4 and not all(v is True for v in (rep.get("intertwiner") or {"": False}).values()):
        problems.append(f"intertwiner {rep.get('intertwiner')}")
    spec = rep.get("specialization") or {}
    want = {"r": r, "q0": q0, "s0": s0, "relations_hold": True,
            "x_nonscalar": True, "sigma1_eq_sigma3_projectively": False}
    problems += [f"specialization {k} = {spec.get(k)!r}, expected {v!r}"
                 for k, v in want.items() if spec.get(k) != v]
    return problems


def check_op(op, workdir):
    """Problems with the outputs of one operation, and the files whose
    bytes must repeat across runs with the same seed."""
    def f(name):
        return os.path.join(workdir, name)

    pr = op.params
    if op.kind == "orbit":
        return (check_orbit_report(f("orbit.json"), pr["p"], pr["seed"])
                + check_dump(f("orbit.chqo"), pr["p"])), [f("orbit.json")]
    if op.kind == "count":
        return check_count_report(f("count.json"), pr["p"]), [f("count.json")]
    if op.kind == "x-classes":
        return check_x_classes(f("x-classes.json"), pr["p"]), [f("x-classes.json")]
    if op.kind == "exact-keys":
        return check_exact_keys(f("exact-keys.json"), pr["p"]), [f("exact-keys.json")]
    if op.kind == "qrep":
        out = f(f"qrep-{pr['n']}-{pr['ell']}.json")
        return check_qrep_report(out, pr["n"], pr["ell"], pr["r"], pr["q0"], pr["s0"]), [out]
    raise ValueError(f"unknown op kind {op.kind!r}")
