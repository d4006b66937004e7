import contextlib
import hashlib
import importlib.util
import io
import json
import os
import re
import stat
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from charquo import cli, numutil
from charquo.cli import main
from charquo.numutil import InvariantError
from charquo.orbit import OrbitIndex, check_f2_identities
from charquo.permgrp import check_perm


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_witness_ok(capsys):
    code, out = run(capsys, "witness", "31")
    assert code == 0
    assert "split" in out and "nonsplit" in out


def test_threads_setting_removed(capsys, monkeypatch):
    monkeypatch.setenv("CHARQUO_THREADS", "two")
    code, _ = run(capsys, "witness", "19")
    assert code == 0
    with pytest.raises(SystemExit):
        main(["witness", "19", "--threads", "2"])


def test_witness_degenerate(capsys):
    code, out = run(capsys, "witness", "11")
    assert code == 1
    assert "degenerate" in out


def test_witness_find_prime_json(capsys):
    code, out = run(capsys, "witness", "--mode", "relaxed", "--min", "2", "--json")
    assert code == 0
    rep = json.loads(out)
    assert rep["p"] == 17
    assert rep["assumptions"]["nonconjugation_5_1"]


def test_json_round_trips(capsys):
    code, out = run(capsys, "witness", "31", "--json")
    rep = json.loads(out)
    assert json.dumps(rep, sort_keys=True, indent=2) + "\n" == out


def test_orbit_report_and_determinism(tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    dump = tmp_path / "orbit.chqo"
    code, _ = run(capsys, "orbit", "19", "--seed", "7", "--no-permutations",
                  "--dump", str(dump), "--out", str(out1))
    assert code == 0
    code, _ = run(capsys, "orbit", "19", "--seed", "7", "--no-permutations",
                  "--out", str(out2))
    assert code == 0
    a = json.loads(out1.read_text())
    b = json.loads(out2.read_text())
    a["timings_ms"] = b["timings_ms"] = None  # wall clock is not deterministic
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    assert a["classification"] == "Alternating"

    code, out = run(capsys, "count", "19", "--orbit", str(dump), "--json")
    assert code == 0
    rep = json.loads(out)
    assert rep["x_count"] == 32400
    assert rep["orbit_ratio"] == 1.0


def test_benchmark_checks_pass_on_fresh_outputs(tmp_path, capsys):
    # the benchmark revalidates its reports through permgrp's list API
    # (check_perm, mult, inverse, id_perm, sign, cycle_lengths) and the
    # report contract: a change to either fails here, not only in a
    # benchmark run.  perfbench is not a package, so its checks are
    # loaded by path.
    path = Path(__file__).resolve().parent.parent / "perfbench" / "checks.py"
    spec = importlib.util.spec_from_file_location("perfbench_checks", path)
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    report, dump, count = (tmp_path / name for name in ("orbit.json", "orbit.chqo", "count.json"))
    assert main(["orbit", "19", "--seed", "9", "--out", str(report), "--dump", str(dump)]) == 0
    assert main(["count", "19", "--orbit", str(dump), "--out", str(count)]) == 0
    capsys.readouterr()
    assert checks.check_orbit_report(report, 19, 9) == []
    assert checks.check_dump(dump, 19) == []
    assert checks.check_count_report(count, 19) == []


def test_orbit_failed_certificate_exit(capsys, monkeypatch):
    from charquo.permgrp import GiantCertificate
    monkeypatch.setattr(GiantCertificate, "revalidate", lambda self, gens: False)
    code, out = run(capsys, "orbit", "19", "--seed", "7", "--no-permutations")
    assert code == 3
    assert "internal invariant violated: classification at p = 19" in out
    assert "q = 27941" in out


@pytest.mark.parametrize("command", [["witness", "19"], ["orbit", "19", "--no-permutations"]])
def test_witness_invariant_exit(capsys, monkeypatch, command):
    # a witness whose gamma trace disagrees with the recorded one is a bug: exit 3
    from charquo import witness as wt
    monkeypatch.setattr(wt, "TR_GAMMA", 4)
    assert main(command) == 3
    out = capsys.readouterr().out
    assert "internal invariant violated: witness at p = 19: tr(gamma) = 3, expected 4" in out


def _no_layer(*args):
    raise AssertionError("a BFS layer was expanded")


def test_orbit_budget_exit(capsys, monkeypatch):
    # an orbit whose estimate exceeds the memory available is refused
    # before any BFS layer, and its report is the error and the inputs
    from charquo import orbit as orbit_mod
    from charquo import witness as wt
    need = wt.x_size(19) * orbit_mod.BYTES_PER_POINT
    monkeypatch.setattr(orbit_mod, "_expand", _no_layer)
    monkeypatch.setattr(orbit_mod, "mem_available", lambda: need // 2)
    code, out = run(capsys, "orbit", "19", "--json")
    assert code == 2
    report = json.loads(out)
    assert set(report) == {"p", "seed", "error"}
    assert report["error"] == (f"an orbit of n = 32400 points at p = 19 needs about "
                               f"{need / 1e6:.1f} MB, and {need / 2e6:.1f} MB is available")


def test_orbit_int32_bound(capsys, monkeypatch):
    # point indices are int32: p = 313 passes the gate, and its orbit
    # could hold x_size(313) >= 2^31 points, so it is refused before any
    # BFS layer on any host
    from charquo import orbit as orbit_mod
    from charquo import witness as wt
    assert wt.x_size(313) == 2_399_432_256 >= 2 ** 31
    monkeypatch.setattr(orbit_mod, "_expand", _no_layer)
    code, out = run(capsys, "orbit", "313")
    assert code == 2
    assert out == ("budget exhausted: an orbit of n = 2399432256 points at p = 313 is not "
                   "below 2^31, the bound of the int32 point indices\n")


def test_orbit_more_points_than_x_size(capsys, monkeypatch):
    # x_size(p) bounds n: the BFS points are distinct gauge classes of
    # the orbit's half, so a layer that would pass it is an internal
    # fault, refused at that layer
    from charquo import orbit as orbit_mod
    monkeypatch.setattr(orbit_mod, "x_size", lambda p: 32400 - 1)
    code, out = run(capsys, "orbit", "19", "--no-permutations")
    assert code == 3
    assert out == ("internal invariant violated: orbit at p = 19: a BFS layer reaches "
                   "n = 32400 > x_size = 32399\n")


def test_count_budget_refusal(capsys):
    code, out = run(capsys, "count", "9973")
    assert code == 2


def test_qrep_verify(capsys):
    code, out = run(capsys, "qrep", "2", "3", "--verify")
    assert code == 0
    assert "dimension 1" in out
    code, out = run(capsys, "qrep", "4", "1", "--verify", "--json")
    assert code == 0
    rep = json.loads(out)
    assert all(rep["checks"].values())


def test_qrep_builds_sigma_on_v41_at_most_twice(capsys, monkeypatch):
    # once for the form identities, once as the level below W_4,2 in
    # e_commutes_with_braiding
    from collections import Counter

    from charquo import qrep as qr
    real, built = qr.sigma_on_V, Counter()

    def counted(n, ell, i):
        built[n, ell, i] += 1
        return real(n, ell, i)

    monkeypatch.setattr(qr, "sigma_on_V", counted)
    code, _ = run(capsys, "qrep", "4", "2", "--verify", "--json")
    assert code == 0
    assert all(1 <= built[4, 1, i] <= 2 for i in (1, 2, 3))


def test_qrep_internal_arithmetic_error_exit(capsys, monkeypatch):
    # the intertwiner kernel (the one system with d^2 = 9 unknowns at
    # W_4,1) comes back twice: intertwiner_J raises a bare ArithmeticError
    from charquo import qrep as qr
    real = qr.nullspace

    def doubled(A, ncols=None):
        kern = real(A, ncols)
        return kern + kern if kern and len(kern[0]) == 9 else kern

    monkeypatch.setattr(qr, "nullspace", doubled)
    assert main(["qrep", "4", "1", "--verify"]) == 3
    out = capsys.readouterr().out
    assert "internal invariant violated: intertwiner space has dimension 2" in out


@pytest.mark.parametrize("argv", [["witness", "4611686018427387847"],
                                  ["witness", "--min", "10000000000"]])
def test_witness_beyond_int64_products(capsys, argv):
    # the start point is checked in Python ints; int64 products would
    # overflow and report a false gamma mismatch
    code, out = run(capsys, *argv)
    assert code == 0
    assert "split/non-split assumption: ok" in out


def test_qrep_specialize_and_export(tmp_path, capsys):
    path = tmp_path / "w41.json"
    code, out = run(capsys, "qrep", "4", "1", "--specialize", "1009", "3", "5",
                    "--export", str(path))
    assert code == 0
    exported = json.loads(path.read_text())
    assert exported["dim"] == 3


def test_qrep_caps(capsys):
    code, _ = run(capsys, "qrep", "9", "9")
    assert code == 2


def test_qrep_intertwiner_refused_before_work(capsys, monkeypatch):
    # W_4,3 has dimension 10: its matrices are built and verified, but
    # --verify and --specialize, which need J, are refused up front
    from charquo import qrep as qr
    code, out = run(capsys, "qrep", "4", "3")
    assert code == 0
    assert "W_4,3: dimension 10, braid relations verified exactly" in out
    monkeypatch.setattr(qr, "braid_matrices", None)
    for flags in (["--verify"], ["--specialize", "1009", "3", "5"]):
        code, out = run(capsys, "qrep", "4", "3", *flags)
        assert code == 2
        assert "intertwiner of W_4,3: dimension 10 exceeds 6" in out


def test_qrep_modulus_refused_before_work(capsys, monkeypatch):
    from charquo import qrep as qr
    monkeypatch.setattr(qr, "braid_matrices", None)
    code, out = run(capsys, "qrep", "4", "2", "--specialize", "4", "3", "5")
    assert code == 1
    assert "modulus 4 is not prime" in out
    code, out = run(capsys, "qrep", "4", "2", "--specialize", "1009", "3", "1009")
    assert code == 1
    assert "q0 = 3 and s0 = 1009 must be units mod 1009" in out


# sha256 of `orbit 19 --seed S --no-permutations --json`, with timings_ms
# blanked as perfbench/checks.digest does; it pins each certificate word and q
ORBIT_REPORT_DIGESTS = {
    0: "a76ce87e38fff65f5f029211e60ed013eb005c81c21350068f4af28b41e8e8e5",
    7: "e143dd2d10016bf8ddc081a10f8cdca4ec910e359acac0c262b21c5ff9358d0f",
    9: "45dd45b47beb17e9a79bbf8ace3da0ec97d25f6b17fe4151f766611229251354",
}


@pytest.mark.parametrize("seed", sorted(ORBIT_REPORT_DIGESTS))
def test_orbit_report_digest(capsys, seed):
    code, out = run(capsys, "orbit", "19", "--seed", str(seed), "--no-permutations", "--json")
    assert code == 0
    blanked = re.sub(r'"timings_ms": \{[^}]*\}', '"timings_ms": {}', out)
    assert hashlib.sha256(blanked.encode()).hexdigest() == ORBIT_REPORT_DIGESTS[seed]


# sha256 of `orbit 19 --seed 9 --json` with its six permutation arrays
# and timings_ms blanked ("report"), and of the JSON text of each array
FULL_REPORT19_SEED9_DIGESTS = {
    "report": "7ae23afb0c43b641ff878e7a8f2593d2ff973b105f0435ac85e58375a9aca9e3",
    "epsilon": "3704b1fa5943b6c308abf522160dcc14c358dba03bb4d77e2aa4027f4e359eb6",
    "sigma1": "ea5a0078e373ac3556410fb68bfa3384c99c13c1dc38a25bfc284c91b9c51909",
    "sigma2": "d8232fbecdb8c0f61e4ad294d4c38975803ec82e5bfa13f2ce8b856cd9b7f09b",
    "sigma3": "65445e8328ca5547ef6a64ca77a9346bbf86ad1330d61bbf183b3ddce6e03548",
    "x": "44a4a0d2a9afcb7c6f0814a13be831f9fc09e5c6802ce916b2059017c00edd4a",
    "y": "aaaa08bd12aad33e574698d60e076a7309c57d653e875bfb3dff51d133b2a655",
}


@pytest.fixture(scope="module")
def full_report19_seed9():
    """Exit code and stdout of `orbit 19 --seed 9 --json`."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["orbit", "19", "--seed", "9", "--json"])
    return code, out.getvalue()


def test_full_orbit_report_digest(full_report19_seed9):
    # the arrays, the certificate and edges_verified of a report with
    # its permutations, byte for byte
    code, out = full_report19_seed9
    assert code == 0
    got = {}

    def blank(m):
        got[m.group(1)] = hashlib.sha256(m.group(2).encode()).hexdigest()
        return f'"{m.group(1)}": []'

    blanked = re.sub(r'"(epsilon|sigma1|sigma2|sigma3|x|y)": (\[[^\]]*\])', blank, out)
    blanked = re.sub(r'"timings_ms": \{[^}]*\}', '"timings_ms": {}', blanked)
    got["report"] = hashlib.sha256(blanked.encode()).hexdigest()
    assert got == FULL_REPORT19_SEED9_DIGESTS


def test_f2_identities_hold_on_report_permutations(full_report19_seed9):
    # the characteristic kernel is checkable from a report alone: its
    # six arrays, each checked to be a permutation, pass the eight
    # identities; two swapped images of sigma2 fail them, named
    code, out = full_report19_seed9
    report = json.loads(out)
    perms = {name: check_perm(a) for name, a in report["permutations"].items()}
    check_f2_identities(report["p"], perms)
    s2 = perms["sigma2"].copy()
    s2[[0, 1]] = s2[[1, 0]]
    with pytest.raises(InvariantError, match=r"^F2 identity fails at p = 19: sigma2\^-1 x sigma2 "):
        check_f2_identities(report["p"], {**perms, "sigma2": s2})


# sha256 of `qrep N ELL --verify --specialize 1009 517 897 --max-n N --json`
QREP_REPORT_DIGESTS = {
    (2, 3): "878c96f3fe07aa9cb8f8ac230b569f2f011c0f2a3f6492d97cea75455fd49360",
    (3, 3): "d69c00cc28bd114bb57d3fd5de066fc5ec7e4aed35f28aa36b43416c142a4ab5",
    (4, 1): "f4de7938076ce4a8364bce8b63a280b77f4e381dfa9bd3442fabeb5de4c7afd7",
    (4, 2): "468c636884ac11ccf8fe99f40b472ca31f4774892a09486f3a6781703b98c08f",
    (5, 3): "e28afae41508b762e66af3d2f1cbb64611bb80816739dd289572ea7cd2e6cf4a",
    (6, 3): "c2268089f220d27a2b0804ae8e7c10f03ee0658211308730d274b3099be43861",
}


@pytest.mark.parametrize("n, ell", sorted(QREP_REPORT_DIGESTS))
def test_qrep_report_digest(capsys, n, ell):
    code, out = run(capsys, "qrep", str(n), str(ell), "--verify", "--specialize",
                    "1009", "517", "897", "--max-n", str(n), "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == QREP_REPORT_DIGESTS[n, ell]


# sha256 of the file `qrep 5 3 --export` writes
QREP_EXPORT_DIGEST = "b0691a46a6a0bcddd918e4a940dc46a753ff6af67cccbe82d7c948fec292c976"


def test_qrep_export_digest(tmp_path, capsys):
    path = tmp_path / "w53.json"
    code, _ = run(capsys, "qrep", "5", "3", "--export", str(path))
    assert code == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == QREP_EXPORT_DIGEST


# (argv, exit code, patched witness constants, keys of the error report)
FAILURES = [
    (["witness", "4"], 1, {}, {"p"}),
    (["witness", "318665857834031151167461"], 1, {}, {"p"}),  # psi_12, composite
    (["witness", "--min", "10000000000000000000000000"], 1, {}, {"p"}),
    (["witness", "31", "--min", "40", "--mode", "strict"], 1, {}, {"p"}),
    (["witness", "31", "--mode", "relaxed"], 1, {}, {"p"}),
    (["count", "19", "--orbit", "{tmp}/missing.chqo"], 1, {}, {"p"}),
    (["qrep", "4", "2", "--specialize", "4", "3", "5"], 1, {}, {"n", "ell"}),
    (["qrep", "4", "1", "--specialize", "1009", "0", "5"], 1, {}, {"n", "ell"}),
    (["qrep", "1", "2"], 1, {}, {"n", "ell"}),
    (["qrep", "4", "-1"], 1, {}, {"n", "ell"}),
    # build = None: the refusal comes before the witness is built
    (["orbit", "19", "--words", "0"], 1, {"build": None}, {"p", "seed"}),
    (["orbit", "29"], 1, {}, {"p", "seed"}),  # fails the split/non-split assumption
    (["qrep", "9", "9"], 2, {}, {"n", "ell"}),
    (["qrep", "4", "3", "--verify"], 2, {}, {"n", "ell"}),
    (["qrep", "4", "3", "--specialize", "1009", "3", "5"], 2, {}, {"n", "ell"}),
    (["count", "61"], 2, {}, {"p"}),
    (["orbit", "313"], 2, {}, {"p", "seed"}),  # beyond the int32 point indices
    (["witness", "19"], 3, {"TR_GAMMA": 4}, {"p"}),
]
KINDS = {1: "error", 2: "budget exhausted", 3: "internal invariant violated"}


@pytest.mark.parametrize("argv, code, patches, keys", FAILURES,
                         ids=[" ".join(f[0]) for f in FAILURES])
def test_failure_reports(tmp_path, capsys, monkeypatch, argv, code, patches, keys):
    # every failure prints exactly one JSON document under --json, and
    # replaces a stale --out file with the same error report
    from charquo import witness as wt
    for name, value in patches.items():
        monkeypatch.setattr(wt, name, value)
    argv = [a.format(tmp=tmp_path) for a in argv]
    got, out = run(capsys, *argv, "--json")
    assert got == code
    report = json.loads(out)
    assert set(report) == keys | {"error"}
    assert report["error"]

    stale = tmp_path / "r.json"
    stale.write_text('{"stale": true}\n')
    got, out = run(capsys, *argv, "--out", str(stale))
    assert got == code
    assert out.startswith(f"{KINDS[code]}: {report['error']}\n")
    assert json.loads(stale.read_text()) == report


@pytest.mark.parametrize("argv, message", [
    (["orbit", "29"], "error: assumptions: split/non-split assumption fails"),
    (["count", "23", "--orbit", "{dump19}"], "orbit dump is for p = 19, not 23"),
])
def test_refusals_name_their_cause(orbit19, tmp_path, capsys, argv, message):
    dump = tmp_path / "orbit19.chqo"
    OrbitIndex.write_dump(dump, orbit19.p, orbit19.keys)
    code, out = run(capsys, *[a.format(dump19=dump) for a in argv])
    assert code == 1
    assert message in out


@pytest.mark.parametrize("defect", ["missing", "truncated", "other prime"])
def test_count_refuses_a_bad_dump_before_counting(orbit19, tmp_path, capsys, monkeypatch,
                                                  defect):
    # the dump and its prime are checked first: count_x, seconds at
    # p = 53, never runs for a dump that would be refused
    from charquo import witness as wt

    def no_count(*args, **kwargs):
        raise AssertionError("count_x ran before the dump was checked")

    monkeypatch.setattr(wt, "count_x", no_count)
    dump = tmp_path / "orbit19.chqo"
    message = f"[Errno 2] No such file or directory: '{dump}'"
    if defect != "missing":
        OrbitIndex.write_dump(dump, orbit19.p, orbit19.keys)
        message = f"{dump}: orbit dump is for p = 19, not 23"
    if defect == "truncated":
        dump.write_bytes(dump.read_bytes()[:-56])
        message = f"{dump}: {24 + 56 * 32399} bytes, but a dump of n=32400 points has " \
                  f"{24 + 56 * 32400}"
    code, out = run(capsys, "count", "23" if defect == "other prime" else "19",
                    "--orbit", str(dump))
    assert code == 1
    assert out == f"error: {message}\n"


@pytest.mark.parametrize("argv, name", [(["qrep", "1", "2"], "n"), (["qrep", "4", "-1"], "ell"),
                                        (["orbit", "19", "--words", "0"], "--words"),
                                        (["orbit", "19", "--words", "-3"], "--words")])
def test_out_of_range_arguments_are_named(capsys, argv, name):
    code, out = run(capsys, *argv)
    assert code == 1
    assert out.startswith(f"error: {name} must be at least ")


def test_unwritable_out(tmp_path, capsys):
    # the command line refuses a missing directory before the run; the
    # write itself, should the directory go later, names the path given,
    # not the file staged beside it
    path = tmp_path / "missing" / "r.json"
    assert main(["witness", "19", "--out", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == f"error: --out {path}: no such directory {path.parent}\n"
    assert captured.err == ""
    with pytest.raises(FileNotFoundError) as info:
        numutil.write_atomic(str(path), lambda fh: fh.write("{}"), "t")
    assert info.value.filename == str(path)
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("flag", ["--out", "--dump"])
def test_output_onto_a_directory_names_it(tmp_path, capsys, flag):
    # the staged file is written, and moving it onto the directory fails
    folder = tmp_path / "d"
    folder.mkdir()
    assert main(["orbit", "19", flag, str(folder)]) == 1
    out = capsys.readouterr().out
    assert out.splitlines()[-1] == f"error: [Errno 21] Is a directory: '{folder}'"
    assert os.listdir(tmp_path) == ["d"] and os.listdir(folder) == []


def test_unwritable_staged_dump_names_the_dump(tmp_path):
    from charquo import witness as wt

    path = tmp_path / "missing" / "o.chqo"
    with pytest.raises(FileNotFoundError) as info:
        wt.run_pipeline(19, dump_path=str(path))
    assert info.value.filename == str(path)
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("flag", ["--out", "--dump"])
def test_orbit_refuses_a_missing_directory_at_once(tmp_path, capsys, monkeypatch, flag):
    from charquo import witness as wt

    def never(*args, **kwargs):
        raise AssertionError("the run started")

    monkeypatch.setattr(wt, "build", never)
    monkeypatch.setattr(wt, "classify_giant", never)
    path = tmp_path / "missing" / "f"
    assert main(["orbit", "59", flag, str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == f"error: {flag} {path}: no such directory {path.parent}\n"
    assert captured.err == ""
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("argv, module, name", [
    (["count", "53", "--out"], "witness", "count_x"),
    (["qrep", "4", "2", "--export"], "qrep", "braid_matrices"),
], ids=["count --out", "qrep --export"])
def test_missing_output_directory_refused_before_work(tmp_path, capsys, monkeypatch,
                                                      argv, module, name):
    # count and qrep learn of a missing directory before they count or
    # build, as orbit does
    def never(*args, **kwargs):
        raise AssertionError("the run started")

    monkeypatch.setattr(f"charquo.{module}.{name}", never)
    path = tmp_path / "missing" / "f.json"
    assert main([*argv, str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == f"error: {argv[-1]} {path}: no such directory {path.parent}\n"
    assert captured.err == ""
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("argv, keep", [(["witness", "31"], 0),
                                        (["orbit", "19", "--json"], 3)])
def test_closed_stdout(argv, keep):
    # the reader keeps `keep` lines of stdout and closes it: the run exits
    # 1 without a traceback, and makes no second write that would fail at exit
    import charquo
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(charquo.__file__)))
    proc = subprocess.Popen([sys.executable, "-m", "charquo.cli", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    for _ in range(keep):
        proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait() == 1
    assert err == b""


def test_written_files_follow_umask(tmp_path, capsys):
    # --out and --export files are created under the umask, a replaced
    # report too
    old = os.umask(0o022)
    try:
        out, export = tmp_path / "r.json", tmp_path / "w.json"
        assert main(["qrep", "2", "1", "--export", str(export), "--out", str(out)]) == 0
        assert main(["witness", "19", "--out", str(out)]) == 0
    finally:
        os.umask(old)
    assert stat.S_IMODE(export.stat().st_mode) == 0o644
    assert stat.S_IMODE(out.stat().st_mode) == 0o644
    assert json.loads(out.read_text())["p"] == 19
    assert sorted(os.listdir(tmp_path)) == ["r.json", "w.json"]


def test_selftest_fast(capsys):
    code, out = run(capsys, "selftest", "--fast")
    assert code == 0
    assert "PASS" in out and "FAIL" not in out


def test_selftest_x_class_check(monkeypatch):
    # the full battery's oracle check passes, and fails when one class
    # is listed twice and another missed
    from charquo import selftest
    from charquo import witness as wt

    assert selftest._check_x_classes()
    count, keys = wt.enumerate_x_classes(wt.build(19).params)
    monkeypatch.setattr(wt, "enumerate_x_classes", lambda params: (count, keys[:1] + keys[:-1]))
    assert not selftest._check_x_classes()


def test_selftest_takes_no_report_options():
    for flag in (["--json"], ["--out", "report.json"]):
        with pytest.raises(SystemExit):
            main(["selftest", "--fast", *flag])


def _json_dump_text(report):
    """json.dump of the report with its arrays as lists, and a newline."""
    def as_lists(obj):
        if isinstance(obj, dict):
            return {k: as_lists(v) for k, v in obj.items()}
        return obj.tolist() if isinstance(obj, np.ndarray) else obj

    buf = io.StringIO()
    json.dump(as_lists(report), buf, sort_keys=True, indent=2)
    return buf.getvalue() + "\n"


@pytest.mark.parametrize("argv", [
    ["orbit", "19", "--seed", "7"],
    ["orbit", "19", "--no-permutations"],
    ["orbit", "313"],  # a budget error report
    ["qrep", "4", "2", "--verify"],
])
def test_to_json_writes_what_json_dump_writes(argv, tmp_path, capsys, monkeypatch):
    # --out and --json of one run write one text, the report's json.dump
    reports = []
    to_json = cli.to_json

    def recording(report, fh):
        reports.append(report)
        to_json(report, fh)

    monkeypatch.setattr(cli, "to_json", recording)
    path = tmp_path / "r.json"
    main(argv + ["--json", "--out", str(path)])
    out = capsys.readouterr().out
    assert path.read_text() == out
    report, again = reports
    assert again is report
    if argv[-1] == "7":  # the permutations reach the writer as arrays
        assert all(isinstance(a, np.ndarray) for a in report["permutations"].values())
    assert out == _json_dump_text(report)


def test_to_json_arrays_of_any_length(monkeypatch):
    # 0 and 1 entries, one piece, two pieces, two pieces and one entry
    # (5-entry pieces: the writer's width is 8)
    monkeypatch.setattr(numutil, "SLICE_ENTRIES", 5 * 8)
    lengths = {"d": 10, "a": 0, "e": 11, "b": 1, "c": 5}
    perms = {k: np.arange(n, dtype=np.int64)[::-1] * 3 for k, n in lengths.items()}
    report = {"permutations": perms, "n": 11, "z": [1, 2]}
    buf = io.StringIO()
    cli.to_json(report, buf)
    assert buf.getvalue() == _json_dump_text(report)


def test_to_json_entry_digits():
    # every digit count from 1 to 7 (0, 9, 10, 99, 100, ..., 10**6), in
    # arrays one entry shorter and longer than a piece, and all zeros
    edges = [0] + [v for k in range(1, 7) for v in (10 ** k - 1, 10 ** k)]
    piece = numutil.SLICE_ENTRIES // 8  # the writer's width is 8
    perms = {"a": np.resize(np.array(edges, dtype=np.int64), piece - 1),
             "b": np.resize(np.array(edges[::-1], dtype=np.int64), piece + 1),
             "c": np.zeros(piece + 1, dtype=np.int64)}
    report = {"permutations": perms, "n": len(edges)}
    buf = io.StringIO()
    cli.to_json(report, buf)
    assert buf.getvalue() == _json_dump_text(report)


def test_to_json_bounded_writes(monkeypatch):
    # each write of a p = 19 report carries one piece of one array (no
    # key, at most one slice of entries) or the text between two arrays
    from charquo import witness as wt
    monkeypatch.setattr(numutil, "SLICE_ENTRIES", 1000 * 8)  # the writer's width is 8
    report = wt.run_pipeline(19, seed=7)
    writes = []
    cli.to_json(report, SimpleNamespace(write=writes.append))
    assert "".join(writes) == _json_dump_text(report)
    entries = [len(re.findall(r"^ {6}\d+,?$", w, re.M)) for w in writes]
    assert max(entries) == 1000
    assert sum(entries) == 6 * report["n"]
    for w, k in zip(writes, entries):
        assert k == 0 or '"' not in w
