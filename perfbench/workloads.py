"""The benchmark's workloads: which commands and oracle checks one
repetition runs, and the inputs it derives from the workload seed.

Shared by the parent (run.py), which checks the outputs, and the child
(child.py), which runs the operations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# Orbit seeds feed `charquo orbit --seed`, which drives the Monte-Carlo
# giant recognition.  The number of random words it draws before a
# prime-cycle certificate turns up is geometric: over seeds 0..239 at
# p = 31 it ranged from 1 to over 100, which moved the classification
# stage between 3 s and 14 s.  A run measures one repetition of the
# orbit workloads, so the benchmark seed picks from the seeds (of 0..239
# at p = 31, 0..299 at p = 19) whose draw is typical: 16..28 words of
# 900..1700 letters in all, and a certificate word of 60..76 letters
# (it is revalidated letter by letter).  Run-to-run spread then
# measures the program rather than the draw.  Entries are (seed, words
# drawn, letters drawn, certificate length) under the random-word
# generator of permgrp; a change to that generator changes the draws,
# and the lists must be chosen again.
ORBIT_SEEDS = {
    19: [(9, 28, 1155, 75), (60, 27, 1330, 62), (69, 16, 1631, 60),
         (73, 23, 1326, 75), (142, 17, 1400, 76), (145, 23, 1155, 61),
         (153, 19, 936, 68), (207, 18, 1089, 61)],
    31: [(8, 21, 1231, 74), (17, 19, 1298, 65), (141, 26, 1137, 66),
         (179, 26, 1228, 67), (201, 24, 1016, 74), (211, 20, 1270, 70)],
}

# (q0, s0) over F_1009 at which both W_4,2 and W_5,3 specialize without
# a vanishing denominator, the braid relations hold, sigma_1 and
# sigma_3 differ projectively and x = sigma_1 sigma_3^-1 is not scalar.
QREP_MODULUS = 1009
QREP_POINTS = [
    (517, 897), (314, 544), (593, 415), (742, 681), (209, 69), (839, 772),
    (784, 601), (660, 1000), (182, 408), (991, 288), (649, 503), (998, 89),
    (822, 272), (675, 516), (509, 497), (388, 5),
]


@dataclass(frozen=True)
class Op:
    """One user-visible operation: a CLI command (argv) or an oracle
    check run by the child (argv None).  `kind` selects the checker."""

    name: str
    kind: str
    argv: tuple = None
    params: dict = field(default_factory=dict)


def orbit_seed(p: int, seed: int) -> int:
    table = ORBIT_SEEDS[p]
    return table[seed % len(table)][0]


def qrep_point(seed: int):
    return QREP_POINTS[seed % len(QREP_POINTS)]


def _orbit_op(p, seed):
    s = orbit_seed(p, seed)
    return Op("orbit", "orbit",
              ("orbit", str(p), "--seed", str(s), "--out", "orbit.json",
               "--dump", "orbit.chqo"),
              {"p": p, "seed": s})


def _plan_orbit_p31(seed):
    return [_orbit_op(31, seed)]


def _plan_oracle_p19(seed):
    return [
        _orbit_op(19, seed),
        Op("count", "count", ("count", "19", "--orbit", "orbit.chqo",
                              "--out", "count.json"), {"p": 19}),
        Op("x-classes", "x-classes", None, {"p": 19}),
        Op("exact-keys", "exact-keys", None, {"p": 19}),
    ]


def _plan_qrep_suite(seed):
    q0, s0 = qrep_point(seed)
    return [Op(f"qrep-{n}-{ell}", "qrep",
               ("qrep", str(n), str(ell), "--verify", "--specialize",
                str(QREP_MODULUS), str(q0), str(s0),
                "--out", f"qrep-{n}-{ell}.json"),
               {"n": n, "ell": ell, "r": QREP_MODULUS, "q0": q0, "s0": s0})
            for n, ell in ((4, 2), (5, 3))]


PLANS = {
    "orbit-p31": _plan_orbit_p31,
    "oracle-p19": _plan_oracle_p19,
    "qrep-suite": _plan_qrep_suite,
}

# The prime whose witness the child builds during set-up, per workload.
SETUP_PRIME = {"orbit-p31": 31, "oracle-p19": 19, "qrep-suite": None}
