"""The side processes: numutil.SideJob, and the pipeline's count job and
verification job (the sigma_i^-1 exact checks).
Every test here ends with no child process left to reap."""

import os
import pickle
import signal
import time

import pytest

from charquo import numutil
from charquo import witness as wt
from charquo.cli import main
from charquo.numutil import InvariantError, SideJob, SideJobKilled
from charquo.orbit import EpsilonOutsideOrbitError, OrbitBudgetError, OrbitError
from charquo.permgrp import CertificateError


@pytest.fixture(autouse=True)
def no_child_left():
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _raise(exc):
    raise exc


def _kill_self(*args):
    os.kill(os.getpid(), signal.SIGKILL)


# -- the helper ---------------------------------------------------------------

def test_side_job_returns_value_and_runs_in_a_child():
    with SideJob("a job", os.getpid) as job:
        assert job.result() != os.getpid()
    with SideJob("a job", sum, [1, 2, 3]) as job:
        assert job.result() == 6


@pytest.mark.parametrize("exc", [wt.WitnessError("assumption x fails"),
                                 OrbitError("sigma2^-1 at point index 1000"),
                                 MemoryError(), KeyboardInterrupt()])
def test_side_job_reraises_same_type_and_message(exc):
    with SideJob("a job", _raise, exc) as job:
        with pytest.raises(type(exc)) as ei:
            job.result()
    assert type(ei.value) is type(exc) and str(ei.value) == str(exc)


class _TwoArgumentError(Exception):
    """Takes two arguments, but pickles only its message."""

    def __init__(self, message, extra):
        super().__init__(message)
        self.extra = extra


def test_side_job_exception_that_cannot_be_rebuilt():
    with SideJob("the odd job at p = 7", _raise, _TwoArgumentError("too big", 5)) as job:
        with pytest.raises(InvariantError, match=r"^the odd job at p = 7: its exception "
                                                 r"_TwoArgumentError: too big cannot be sent back"):
            job.result()


def test_orbit_budget_error_pickles_with_partial_count():
    err = pickle.loads(pickle.dumps(OrbitBudgetError("orbit exceeds max_points=10", 12)))
    assert type(err) is OrbitBudgetError and err.partial_count == 12
    assert str(err) == "orbit exceeds max_points=10"


def test_side_job_orbit_budget_error_keeps_partial_count():
    with SideJob("a job", _raise, OrbitBudgetError("orbit exceeds max_points=10", 12)) as job:
        with pytest.raises(numutil.BudgetError) as ei:
            job.result()
    assert type(ei.value) is OrbitBudgetError and ei.value.partial_count == 12
    assert str(ei.value) == "orbit exceeds max_points=10"


def test_side_job_killed_by_a_signal():
    with SideJob("the count job at p = 19", _kill_self) as job:
        with pytest.raises(SideJobKilled) as ei:
            job.result()
    assert str(ei.value) == "the count job at p = 19 was killed by signal SIGKILL (9)"


def test_side_job_close_kills_a_running_child():
    t = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        with SideJob("a job", time.sleep, 30):
            raise KeyboardInterrupt
    assert time.perf_counter() - t < 10


def test_side_job_inline_without_fork(monkeypatch):
    monkeypatch.delattr(os, "fork")
    calls = []
    job = SideJob("a job", lambda: calls.append(os.getpid()) or 5)
    assert calls == [os.getpid()] and job.result() == 5
    job = SideJob("a job", _raise, OrbitError("late"))  # raised by result(), not here
    with pytest.raises(OrbitError, match="late"):
        job.result()


# -- the pipeline -------------------------------------------------------------

def _orbit19(capsys, tmp_path, *flags):
    """Exit code, stdout and the files left in tmp_path by an orbit 19
    run with --dump."""
    code = main(["orbit", "19", "--no-permutations", "--dump", str(tmp_path / "o.chqo"),
                 *flags])
    return code, capsys.readouterr().out, sorted(p.name for p in tmp_path.iterdir())


def test_pipeline_success_leaves_the_dump_alone(capsys, tmp_path):
    code, out, files = _orbit19(capsys, tmp_path)
    assert code == 0 and "F2 surjects onto A_32400" in out
    assert files == ["o.chqo"]


def test_pipeline_inline_without_fork(monkeypatch):
    # the one second path: where os.fork does not exist the jobs run
    # inline, with the same report
    forked = wt.run_pipeline(19, seed=7, include_permutations=False)
    monkeypatch.delattr(os, "fork")
    inline = wt.run_pipeline(19, seed=7, include_permutations=False)
    forked["timings_ms"] = inline["timings_ms"] = None
    assert forked == inline and inline["edges_verified"] == 5 * 32400 + 1


def _reject_inverse_edges(orbit):
    raise OrbitError("the edge of sigma2^-1 at point index 1000 fails exact verification "
                     "at p=19 (it inverts a verified sigma2 edge)")


def _late(fn, seconds=0.5):
    def late(*args):
        time.sleep(seconds)
        return fn(*args)
    return late


def test_sigma_inverse_failure_leaves_no_dump(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(wt, "verify_edges", _reject_inverse_edges)
    code, out, files = _orbit19(capsys, tmp_path)
    assert code == 3
    assert out == ("internal invariant violated: the edge of sigma2^-1 at point index 1000 "
                   "fails exact verification at p=19 (it inverts a verified sigma2 edge)\n")
    assert files == []


@pytest.mark.parametrize("main_line", ["twist index pass", "identity check",
                                       "classification"])
def test_sigma_inverse_failure_comes_first(monkeypatch, capsys, tmp_path, main_line):
    # the sigma_i^-1 failure arrives after the main line has failed, and
    # still wins: the orbit stage comes before all three
    monkeypatch.setattr(wt, "verify_edges", _late(_reject_inverse_edges))
    if main_line == "classification":
        monkeypatch.setattr(wt, "classify_giant",
                            lambda *a, **k: _raise(CertificateError("no certificate")))
    elif main_line == "identity check":
        monkeypatch.setattr(wt, "check_f2_identities", lambda *a: _raise(InvariantError(
            "F2 identity fails at p = 19: sigma2^-1 y sigma2 is not x")))
    else:
        monkeypatch.setattr(wt, "epsilon_perm",
                            lambda *a: _raise(EpsilonOutsideOrbitError("1 point outside")))
    code, out, files = _orbit19(capsys, tmp_path)
    assert code == 3 and "sigma2^-1 at point index 1000" in out
    assert files == []


@pytest.mark.parametrize("exc, code, kind", [
    (wt.WitnessError("count_x requires the split/non-split assumption"), 1, "error"),
    (numutil.BudgetError("count_x refuses p=19 > 7"), 2, "budget exhausted"),
])
def test_count_job_failure(monkeypatch, capsys, tmp_path, exc, code, kind):
    monkeypatch.setattr(wt, "count_x", lambda *a: _raise(exc))
    got, out, files = _orbit19(capsys, tmp_path)
    assert (got, out) == (code, f"{kind}: {exc}\n")
    assert files == ["o.chqo"]


def test_count_job_killed_when_an_earlier_stage_fails(monkeypatch, capsys, tmp_path):
    # the count job would run for a minute; the failed BFS ends it
    monkeypatch.setattr(wt, "count_x", lambda *a: time.sleep(60))
    t = time.perf_counter()
    code, out, files = _orbit19(capsys, tmp_path, "--max-points", "10")
    assert code == 2 and "orbit exceeds max_points=10" in out
    assert files == [] and time.perf_counter() - t < 30


def test_interrupt_kills_both_jobs(monkeypatch, capsys, tmp_path):
    # an interrupt in giant recognition, while both jobs still run: both
    # are killed and reaped (no_child_left), and no dump is left, staged
    # or in place
    monkeypatch.setattr(wt, "count_x", lambda *a: time.sleep(60))
    monkeypatch.setattr(wt, "verify_edges", lambda orbit: time.sleep(60))
    monkeypatch.setattr(wt, "classify_giant", lambda *a, **k: _raise(KeyboardInterrupt()))
    t = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        _orbit19(capsys, tmp_path)
    assert list(tmp_path.iterdir()) == [] and time.perf_counter() - t < 30


@pytest.mark.parametrize("patched, job", [("count_x", "the count job"),
                                          ("verify_edges", "the verification job")])
def test_killed_job_is_an_error_not_a_hang(monkeypatch, capsys, tmp_path, patched, job):
    monkeypatch.setattr(wt, patched, _kill_self)
    code, out, files = _orbit19(capsys, tmp_path)
    assert code == 2
    assert out == f"budget exhausted: {job} at p = 19 was killed by signal SIGKILL (9)\n"
    assert files == ([] if patched == "verify_edges" else ["o.chqo"])


@pytest.mark.parametrize("patched", ["classify_giant", "count_x"])
def test_memory_error_exit(monkeypatch, capsys, patched):
    # out of memory on the main line (classification) or in the count
    # job: one line and exit 2, not a traceback
    monkeypatch.setattr(wt, patched, lambda *a, **k: _raise(MemoryError()))
    assert main(["orbit", "19", "--no-permutations"]) == 2
    assert capsys.readouterr().out == \
        "budget exhausted: out of memory in charquo orbit at p = 19\n"
