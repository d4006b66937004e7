"""Self-test of the benchmark's correctness checks.

A genuine p = 19 orbit report and dump pass; a report with one altered
permutation entry, a truncated dump, or a report that differs from an
earlier run with the same seed counts as a failed operation.

    python3 perfbench/test_checks.py      (or: python3 -m pytest perfbench)
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

sys.path.insert(0, run.SRC)

from workloads import PLANS  # noqa: E402


class CheckerSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        os.makedirs(run.WORK, exist_ok=True)
        cls.tmp = tempfile.mkdtemp(prefix="selftest-", dir=run.WORK)
        cls.op = PLANS["oracle-p19"](0)[0]  # charquo orbit 19 ... --out orbit.json --dump orbit.chqo
        cls.good = os.path.join(cls.tmp, "good")
        os.makedirs(cls.good)
        subprocess.run([sys.executable, "-m", "charquo.cli", *cls.op.argv], cwd=cls.good,
                       env=dict(os.environ, PYTHONPATH=run.SRC), check=True,
                       stdout=subprocess.DEVNULL)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp)

    def failed(self, repdir, digests=None):
        """Failed-op count that run.judge gives a child whose orbit
        command exited 0 with the outputs in repdir."""
        child = run.Child(0, {"ops": [{"name": self.op.name, "rc": 0, "error": None}]}, 0.0, 0.0)
        digests = {} if digests is None else digests
        return run.judge("selftest", 0, [self.op], child, repdir, digests)[1]

    def tampered(self, name, edit_report=None, edit_dump=None):
        repdir = os.path.join(self.tmp, name)
        shutil.copytree(self.good, repdir)
        if edit_report is not None:
            path = os.path.join(repdir, "orbit.json")
            with open(path) as fh:
                report = json.load(fh)
            edit_report(report)
            with open(path, "w") as fh:
                fh.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
        if edit_dump is not None:
            path = os.path.join(repdir, "orbit.chqo")
            with open(path, "rb") as fh:
                data = fh.read()
            with open(path, "wb") as fh:
                fh.write(edit_dump(data))
        return repdir

    def test_genuine_outputs_pass(self):
        self.assertEqual(self.failed(self.good), 0)

    def test_entry_that_breaks_a_permutation_fails(self):
        def edit(report):
            s1 = report["permutations"]["sigma1"]
            s1[0] = s1[1]
        self.assertEqual(self.failed(self.tampered("dup", edit)), 1)

    def test_swapped_entries_fail(self):
        # still permutations, but sigma1 no longer matches x = sigma1 sigma3^-1
        # and its sign flips
        def edit(report):
            s1 = report["permutations"]["sigma1"]
            s1[0], s1[1] = s1[1], s1[0]
        self.assertEqual(self.failed(self.tampered("swap", edit)), 1)

    def test_truncated_dump_fails(self):
        repdir = self.tampered("short", edit_dump=lambda data: data[:-56])
        self.assertEqual(self.failed(repdir), 1)

    def test_report_differing_from_same_seed_run_fails(self):
        digests = {}
        self.assertEqual(self.failed(self.good, digests), 0)

        def edit(report):
            report["f2_verdict"] += " "
        self.assertEqual(self.failed(self.tampered("verdict", edit), digests), 1)

    def test_timings_are_ignored_across_runs(self):
        digests = {}
        self.assertEqual(self.failed(self.good, digests), 0)

        def edit(report):
            report["timings_ms"]["orbit_ms"] += 1
        self.assertEqual(self.failed(self.tampered("timings", edit), digests), 0)


if __name__ == "__main__":
    unittest.main()
