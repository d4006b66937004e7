"""Command-line driver.

Subcommands: witness | orbit | count | qrep | selftest.  Every pipeline
emits one JSON document (the machine format; the text summary is
rendered from it), a failure too.  to_json writes it to its file as it
is produced, a slice at a time: to stdout for --json, through
write_atomic for --out and qrep --export.  Exit codes: 0 success, 1
precondition or assumption failure (ValueError, OSError; also a stdout
closed by its reader, with no report), 2 budget (BudgetError), 3
internal invariant violation (ArithmeticError, InvariantError among
them); run() alone maps an exception class to its code and report.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from . import qrep as qr
from . import witness as wt
from .numutil import BudgetError, slices
from .orbit import MAX_POINTS, read_dump
from .permgrp import WORD_BUDGET
from .qlinalg import mat_mul

EXIT_OK = 0
EXIT_PRECONDITION = 1
EXIT_BUDGET = 2
EXIT_INTERNAL = 3


def to_json(report, fh):
    """Write the report to fh as JSON text: json.dump(report,
    sort_keys=True, indent=2) and a newline, with the int arrays of
    report["permutations"] written as JSON lists.

    The json.dump text of the rest of the report is written around the
    arrays, where a placeholder string (a NUL and the array's name, which
    no report value is) stands in for each; an array is written a slice
    at a time, as json.dump writes a list at depth 2
    (an entry a line at 6 spaces, the bracket at 4).  So no text of the
    whole report or of a whole array is built.  json.dump with indent
    takes the pure-Python encoder, which would spend about a second on
    the six arrays of a p = 31 report, and would need them as lists;
    _entry_lines writes a piece of a permutation (non-negative entries)
    with numpy, making no Python int.
    """
    perms = report.get("permutations") or {}
    marks = {name: "\0" + name for name in perms}
    if perms:
        report = {**report, "permutations": marks}
    # built before the first write: a value json cannot write fails the
    # report before any of it reaches fh
    rest = json.dumps(report, sort_keys=True, indent=2) + "\n"
    for name in sorted(perms):  # the order of sort_keys
        head, rest = rest.split(json.dumps(marks[name]), 1)
        fh.write(head)
        a = np.asarray(perms[name])
        for c in slices(len(a), 8):  # _entry_lines' temporaries: about 8 int64 per entry
            fh.write(_entry_lines(a[c], first=c.start == 0))
        fh.write("\n    ]" if len(a) else "[]")
    fh.write(rest)


# bytes, made an array per piece: a numpy array built at import raised
# the peak of runs that write no array (qrep) by about 0.3 MB
_ENTRY_SEP = b",\n      "


def _entry_lines(a, first):
    """The non-negative ints a as json.dump writes list entries at depth
    2, each after ",\\n      " (after "[\\n      " for the first entry of
    a list), from a digit matrix: each row is the separator and the
    entry's digits padded with leading zeros, which a mask then drops
    (all but the last digit of 0)."""
    width = len(str(int(a.max())))
    sep = len(_ENTRY_SEP)
    text = np.empty((len(a), sep + width), dtype=np.uint8)
    text[:, :sep] = np.frombuffer(_ENTRY_SEP, dtype=np.uint8)
    rest = a.astype(np.int64)
    for j in range(sep + width - 1, sep - 1, -1):
        text[:, j] = rest % 10 + ord("0")
        rest //= 10
    keep = np.ones(text.shape, dtype=bool)
    np.logical_or.accumulate(text[:, sep:-1] != ord("0"), axis=1, out=keep[:, sep:-1])
    if first:
        text[0, 0] = ord("[")
    return text[keep].tobytes().decode("ascii")


def write_atomic(path: str, report):
    # a new file beside path, created under the umask and named after
    # path (so an OSError names it), replaces path once it is written
    tmp = f"{path}.{os.urandom(4).hex()}"
    fh = open(tmp, "x")
    try:
        with fh:
            to_json(report, fh)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def emit(report, args, summary_lines):
    # a run writes --out at most once: when that write fails, the error
    # report that follows goes to stdout only
    out, args.out = args.out, None
    if out:
        write_atomic(out, report)
    if args.json:
        to_json(report, sys.stdout)
    else:
        for line in summary_lines:
            print(line)
        if out:
            print(f"report written to {out}")


def cmd_witness(args) -> int:
    search = {k: v for k, v in (("minimum", args.min), ("mode", args.mode)) if v is not None}
    if args.p is None:
        args.p = wt.find_prime(**search)
    elif search:
        flag = "--min" if "minimum" in search else "--mode"
        raise ValueError(f"{flag} applies only when p is omitted, and p = {args.p} was given")
    p = args.p
    cfg = wt.build(p)
    rep = wt.check_assumptions(cfg)
    report = {
        "p": p,
        "matrices": {"u": list(cfg.u), "v": list(cfg.v), "w": list(cfg.w),
                     "gamma": list(cfg.params.gamma_mat),
                     "delta": list(cfg.params.delta_mat)},
        "traces": {"gamma": cfg.params.tgamma, "delta": cfg.params.tdelta},
        "assumptions": rep.to_dict(),
    }
    ok = rep.nonconjugation_ok and rep.point_ok
    lines = [
        f"p = {p}: tr(gamma) = {cfg.params.tgamma} ({rep.gamma_class}), "
        f"tr(delta) = {cfg.params.tdelta} ({rep.delta_class})",
        f"split/non-split assumption: {'ok' if rep.nonconjugation_ok else 'FAIL'}",
        f"unipotent point assumption: {'ok' if rep.point_ok else 'FAIL'}",
        f"orders: gamma {rep.ord_gamma}, delta {rep.ord_delta} "
        f"(large-order assumption "
        f"{'ok' if rep.large_orders_ok else 'fails'})",
        f"generation of PSL2 by (gamma, delta): {rep.generation}",
    ]
    emit(report, args, lines)
    return EXIT_OK if ok else EXIT_PRECONDITION


def at_least(name, value, least):
    """Refuse a numeric argument below its least meaningful value."""
    if value < least:
        raise ValueError(f"{name} must be at least {least}, not {value}")


def cmd_orbit(args) -> int:
    at_least("--max-points", args.max_points, 1)
    at_least("--words", args.words, 1)
    report = wt.run_pipeline(
        args.p, seed=args.seed, max_points=args.max_points,
        giant_budget=args.words, count_budget=args.count_budget,
        include_permutations=not args.no_permutations,
        dump_path=args.dump)
    lines = [
        f"p = {report['p']}: orbit of {report['n']} points "
        f"(|X| = {report['x_count']}, ratio {report['orbit_ratio']})",
        f"classification: {report['classification']}",
        f"generator signs: {report['generator_signs']}",
        f"verdict: {report['f2_verdict']}",
    ]
    if report.get("certificate"):
        lines.append(f"certificate: {report['certificate']['q']}-cycle, "
                     f"word length {len(report['certificate']['word'])}")
    emit(report, args, lines)
    good = (report["classification"] in ("Alternating", "Symmetric")
            and report["f2_x_nontrivial"] and report["f2_x_sign"] == 1)
    return EXIT_OK if good else EXIT_PRECONDITION


def cmd_count(args) -> int:
    cfg = wt.build(args.p)
    count = wt.count_x(cfg.params, max_prime=args.count_budget)
    report = {"p": args.p, "x_count": count}
    lines = [f"|X^(2)| at p = {args.p}: {count} points"]
    if args.orbit:
        p_dump, coords = read_dump(args.orbit)
        if p_dump != args.p:
            raise ValueError(f"{args.orbit}: orbit dump is for p = {p_dump}, not {args.p}")
        report["orbit_n"] = len(coords)
        report["orbit_ratio"] = len(coords) / count
        lines.append(f"orbit: {len(coords)} points, ratio {report['orbit_ratio']}")
    emit(report, args, lines)
    return EXIT_OK


def cmd_qrep(args) -> int:
    n, ell = args.n, args.ell
    at_least("n", n, 2)
    at_least("ell", ell, 0)
    if not (n <= args.max_n and ell <= args.max_ell):
        raise BudgetError(f"refusing (n, ell) = ({n}, {ell}) beyond caps "
                          f"({args.max_n}, {args.max_ell})")
    if n == 4 and (args.verify or args.specialize):
        qr.check_intertwiner_size(n, ell)  # before any work
    if args.specialize:
        qr.check_point(*args.specialize)
    mats = qr.braid_matrices(n, ell)
    report = {"n": n, "ell": ell, "dim": mats.dim}
    lines = [f"W_{n},{ell}: dimension {mats.dim}, braid relations verified exactly"]
    J = None  # the n = 4 intertwiner, computed once for --verify and --specialize

    if args.verify:
        checks = {"braid_relations": True,
                  "qbinom_identity_t6": all(qr.qbinom_product_identity(t)
                                            for t in range(7)),
                  "operator_relations": qr.operator_relations_check()}
        if n == 2:
            checks["w2_eigenvalue"] = mats.sigma[1][0][0] == qr.expected_w2_eigenvalue(ell)
            lines.append(f"eigenvalue: {mats.sigma[1][0][0]!r}")
        if n == 3:
            checks["yang_baxter_on_v"] = qr.braid_relations_hold(mats.sigma_v, 3, mat_mul)
        if n >= 3:
            checks["bn1_decomposition"] = qr.decomposition_check(mats)
            checks["e_commutes"] = qr.e_commutes_with_braiding(mats)
        if n == 4:
            # the form checks live on V_{4,1}: small and exact
            checks.update(qr.form_identities(1))
            J, info = qr.intertwiner_J(mats)
            checks["intertwiner"] = all(info.values())
            report["intertwiner"] = info
        report["checks"] = checks
        lines += [f"  {k}: {'ok' if v else 'FAIL'}" for k, v in checks.items()]
        if not all(checks.values()):
            emit(report, args, lines)
            return EXIT_INTERNAL

    if args.specialize:
        r, q0, s0 = args.specialize
        if n == 4 and J is None:
            J, _ = qr.intertwiner_J(mats)
        spec = qr.specialize(mats, r, q0, s0, J=J)
        report["specialization"] = spec
        lines.append(f"specialized at (q0, s0) = ({q0}, {s0}) over F_{r}: "
                     f"relations {'ok' if spec['relations_hold'] else 'FAIL'}")
        if "x_nonscalar" in spec:
            lines.append(f"  sigma1 != sigma3 projectively: "
                         f"{not spec['sigma1_eq_sigma3_projectively']}; "
                         f"x nonscalar: {spec['x_nonscalar']}")

    if args.export:
        write_atomic(args.export, qr.export_rep(mats))
        lines.append(f"matrices exported to {args.export}")

    emit(report, args, lines)
    return EXIT_OK


def cmd_selftest(args) -> int:
    from .selftest import run_selftest
    failures = run_selftest(fast=args.fast)
    return EXIT_OK if failures == 0 else EXIT_INTERNAL


def build_parser():
    ap = argparse.ArgumentParser(
        prog="charquo",
        description="Characteristic quotients of F2: braid orbits over "
                    "PSL2(F_p) and exact quantum braid representations.")
    ap.add_argument("--version", action="version", version=f"charquo {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--out", help="write the JSON report to this path (atomic)")
        sp.add_argument("--json", action="store_true",
                        help="print the JSON report to stdout instead of text")

    w = sub.add_parser("witness", help="build the witness configuration and "
                                       "validate the assumptions")
    w.add_argument("p", type=int, nargs="?", default=None)
    w.add_argument("--mode", choices=("strict", "relaxed"),
                   help="congruences the searched p meets (default relaxed)")
    w.add_argument("--min", type=int, help="smallest prime the search considers (default 5)")
    common(w)
    w.set_defaults(func=cmd_witness)

    o = sub.add_parser("orbit", help="enumerate the witness orbit and certify "
                                     "the induced permutation action")
    o.add_argument("p", type=int)
    o.add_argument("--seed", type=int, default=0)
    o.add_argument("--max-points", type=int, default=MAX_POINTS)
    o.add_argument("--words", type=int, default=WORD_BUDGET,
                   help="random-word budget for giant recognition")
    o.add_argument("--count-budget", type=int, default=wt.COUNT_MAX_PRIME,
                   help="largest p for the |X| counting loop")
    o.add_argument("--dump", help="write the orbit key dump (CHQO format)")
    o.add_argument("--no-permutations", action="store_true",
                   help="omit the permutation arrays from the report")
    common(o)
    o.set_defaults(func=cmd_orbit)

    c = sub.add_parser("count", help="count |X^(2)| by the membership equations")
    c.add_argument("p", type=int)
    c.add_argument("--orbit", help="orbit dump to compare against (ratio)")
    c.add_argument("--count-budget", type=int, default=wt.COUNT_MAX_PRIME)
    common(c)
    c.set_defaults(func=cmd_count)

    q = sub.add_parser("qrep", help="build and check the braid representation "
                                    "on a highest-weight space")
    q.add_argument("n", type=int)
    q.add_argument("ell", type=int)
    q.add_argument("--verify", action="store_true",
                   help="run the full identity suite for this (n, ell)")
    q.add_argument("--specialize", nargs=3, type=int, metavar=("R", "Q0", "S0"))
    q.add_argument("--export", help="write the exact matrices as JSON")
    q.add_argument("--max-n", type=int, default=5)
    q.add_argument("--max-ell", type=int, default=3)
    common(q)
    q.set_defaults(func=cmd_qrep)

    s = sub.add_parser("selftest", help="run the quick self-check battery")
    s.add_argument("--fast", action="store_true", help="skip the slower checks")
    s.set_defaults(func=cmd_selftest)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = run(args)
        sys.stdout.flush()  # a reader that closed stdout shows here, not at exit
        return code
    except BrokenPipeError:  # no report can reach stdout: what is buffered goes nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PRECONDITION


def run(args) -> int:
    try:
        return args.func(args)
    except BrokenPipeError:
        raise
    except BudgetError as e:
        kind, code, error = "budget exhausted", EXIT_BUDGET, e
    except ArithmeticError as e:
        # InvariantError, ExactDivisionError, bare raises: never bad input
        kind, code, error = "internal invariant violated", EXIT_INTERNAL, e
    except (ValueError, OSError) as e:
        kind, code, error = "error", EXIT_PRECONDITION, e
    report = {k: v for k, v in vars(args).items() if k in ("p", "n", "ell", "seed")}
    report["error"] = str(error)
    if hasattr(error, "partial_count"):
        report["partial_count"] = error.partial_count
    emit(report, args, [f"{kind}: {error}"])
    return code


if __name__ == "__main__":
    sys.exit(main())
