"""Command-line driver.

Subcommands: witness | orbit | count | qrep | selftest.  Every pipeline
emits one JSON document (the machine format; the text summary is
rendered from it).  Exit codes: 0 success, 1 precondition or assumption
failure, 2 budget, 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
import tempfile

from . import __version__
from . import qrep as qr
from . import witness as wt
from .orbit import (EpsilonOutsideOrbitError, OrbitBudgetError, OrbitError,
                    read_dump)
from .qrep import BadSpecializationError

EXIT_OK = 0
EXIT_PRECONDITION = 1
EXIT_BUDGET = 2
EXIT_INTERNAL = 3


def to_json(report) -> str:
    # json.dumps would first list one small string per array entry
    # (about 85 MB for the six permutations of a p = 31 report); json.dump
    # streams the same text into one buffer
    buf = io.StringIO()
    json.dump(report, buf, sort_keys=True, indent=2)
    buf.write("\n")
    return buf.getvalue()


def write_atomic(path: str, text: str):
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".charquo-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def emit(report, args, summary_lines):
    text = to_json(report)
    if args.out:
        write_atomic(args.out, text)
    if args.json:
        sys.stdout.write(text)
    else:
        for line in summary_lines:
            print(line)
        if args.out:
            print(f"report written to {args.out}")


def cmd_witness(args) -> int:
    if args.p is not None:
        p = args.p
    else:
        p = wt.find_prime(args.min, args.mode)
    try:
        cfg = wt.build(p)
    except wt.WitnessError as e:
        report = {"p": p, "error": str(e)}
        emit(report, args, [f"p = {p}: {e}"])
        return EXIT_PRECONDITION
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
        f"{'ok' if rep.large_orders_ok else 'fails - orbit dedup will be exact-verified'})",
        f"generation of PSL2 by (gamma, delta): {rep.generation}",
    ]
    emit(report, args, lines)
    return EXIT_OK if ok else EXIT_PRECONDITION


def cmd_orbit(args) -> int:
    try:
        report = wt.run_pipeline(
            args.p, seed=args.seed, max_points=args.max_points,
            giant_budget=args.words, count_budget=args.count_budget,
            include_permutations=not args.no_permutations,
            dump_path=args.dump)
    except OrbitBudgetError as e:
        report = {"p": args.p, "error": str(e), "partial_count": e.partial_count,
                  "seed": args.seed}
        emit(report, args, [f"budget exhausted: {e}"])
        return EXIT_BUDGET
    except wt.PipelineError as e:
        report = {"p": args.p, "error": str(e), "seed": args.seed}
        emit(report, args, [f"pipeline failed: {e}"])
        return EXIT_PRECONDITION
    except EpsilonOutsideOrbitError as e:
        report = {"p": args.p, "error": str(e), "seed": args.seed}
        emit(report, args, [f"reversal twist fails at p = {args.p}: {e}"])
        return EXIT_PRECONDITION
    except OrbitError as e:
        report = {"p": args.p, "error": str(e), "seed": args.seed}
        emit(report, args, [f"internal invariant violated: {e}"])
        return EXIT_INTERNAL
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
    try:
        count = wt.count_x(cfg.params, max_prime=args.count_budget)
    except wt.BudgetError as e:
        emit({"p": args.p, "error": str(e)}, args, [str(e)])
        return EXIT_BUDGET
    report = {"p": args.p, "x_count": count}
    lines = [f"|X^(2)| at p = {args.p}: {count} points"]
    if args.orbit:
        p_dump, coords = read_dump(args.orbit)
        if p_dump != args.p:
            emit({"p": args.p, "error": f"dump is for p={p_dump}"}, args,
                 [f"orbit dump is for p = {p_dump}, not {args.p}"])
            return EXIT_PRECONDITION
        report["orbit_n"] = len(coords)
        report["orbit_ratio"] = len(coords) / count
        lines.append(f"orbit: {len(coords)} points, ratio {report['orbit_ratio']}")
    emit(report, args, lines)
    return EXIT_OK


def cmd_qrep(args) -> int:
    n, ell = args.n, args.ell
    if not (2 <= n <= args.max_n and 0 <= ell <= args.max_ell):
        print(f"refusing (n, ell) = ({n}, {ell}) beyond caps "
              f"({args.max_n}, {args.max_ell})", file=sys.stderr)
        return EXIT_BUDGET
    try:
        mats = qr.braid_matrices(n, ell)
    except ArithmeticError as e:
        emit({"n": n, "ell": ell, "error": str(e)}, args, [str(e)])
        return EXIT_INTERNAL
    report = {"n": n, "ell": ell, "dim": mats.dim}
    lines = [f"W_{n},{ell}: dimension {mats.dim}, braid relations verified exactly"]

    if args.verify:
        checks = {"braid_relations": True,
                  "qbinom_identity_t6": all(qr.qbinom_product_identity(t)
                                            for t in range(7)),
                  "operator_relations": qr.operator_relations_check()}
        if n == 2:
            ev = qr.w2_eigenvalue(ell)
            checks["w2_eigenvalue"] = ev == qr.expected_w2_eigenvalue(ell)
            lines.append(f"eigenvalue: {mats.sigma[1].num[0][0]!r} "
                         f"/ {mats.sigma[1].den!r}")
        if n == 3:
            checks["yang_baxter_on_v"] = qr.yang_baxter_on_v(ell)
        if n >= 3:
            checks["bn1_decomposition"] = qr.decomposition_check(n, ell)
            checks["e_commutes"] = qr.e_commutes_with_braiding(n, ell)
        if n == 4:
            # the form checks live on V_{4,1}: small and exact
            checks["starred_identities_v41"] = qr.starred_identities_check(1)
            checks["reversal_conjugation"] = qr.reversal_conjugation_check(1)
            checks["constructive_intertwiner"] = qr.intertwiner_construction_check(1)
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
        J = None
        if n == 4:
            J, _ = qr.intertwiner_J(mats)
        try:
            spec = qr.specialize(mats, r, q0, s0, J=J)
        except BadSpecializationError as e:
            report["specialization_error"] = {"message": str(e), "entry": e.entry}
            emit(report, args, lines + [f"bad specialization point: {e}"])
            return EXIT_PRECONDITION
        report["specialization"] = spec
        lines.append(f"specialized at (q0, s0) = ({q0}, {s0}) over F_{r}: "
                     f"relations {'ok' if spec['relations_hold'] else 'FAIL'}")
        if "x_nonscalar" in spec:
            lines.append(f"  sigma1 != sigma3 projectively: "
                         f"{not spec['sigma1_eq_sigma3_projectively']}; "
                         f"x nonscalar: {spec['x_nonscalar']}")

    if args.export:
        write_atomic(args.export, to_json(qr.export_rep(mats)))
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
    w.add_argument("--mode", choices=("strict", "relaxed"), default="relaxed")
    w.add_argument("--min", type=int, default=5, help="smallest prime to consider")
    common(w)
    w.set_defaults(func=cmd_witness)

    o = sub.add_parser("orbit", help="enumerate the witness orbit and certify "
                                     "the induced permutation action")
    o.add_argument("p", type=int)
    o.add_argument("--seed", type=int, default=0)
    o.add_argument("--max-points", type=int, default=2_000_000)
    o.add_argument("--words", type=int, default=300,
                   help="random-word budget for giant recognition")
    o.add_argument("--count-budget", type=int, default=47,
                   help="largest p for the |X| counting loop")
    o.add_argument("--dump", help="write the orbit key dump (CHQO format)")
    o.add_argument("--no-permutations", action="store_true",
                   help="omit the permutation arrays from the report")
    common(o)
    o.set_defaults(func=cmd_orbit)

    c = sub.add_parser("count", help="count |X^(2)| by the membership equations")
    c.add_argument("p", type=int)
    c.add_argument("--orbit", help="orbit dump to compare against (ratio)")
    c.add_argument("--count-budget", type=int, default=47)
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
        return args.func(args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
