"""charquo benchmark: time to a certified quotient, peak memory and
per-layer spans.

    python3 perfbench/run.py --workload orbit-p31 --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; it uses the checkout's src/.
Each repetition of the workload runs in a fresh child process
(child.py), one child at a time, and every output is checked
(checks.py).  Repetitions continue while another one fits in
--seconds (at least one runs).

--trace 0 reports the end-to-end metrics: setup_s (median over eight
set-up-only children plus each repetition's own set-up), and the
medians of time_to_result_s and peak_rss_mb over the repetitions.
The two times are scaled to the host's usual speed, which each child
samples while it runs (hostspeed.py).
--trace 1 alternates untraced and traced children and reports the
per-layer metrics of tracing.py (medians over the traced children,
unscaled) and the tracing overhead (scaled).

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the line before it records the run
context, the unscaled times and the mean host-speed sample.
Problems found by the checks go to stderr and make the exit code 1.
Without src/charquo the benchmark exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

# Every child gets these on top of the inherited environment: one BLAS /
# OpenMP thread, so that one child's load stays within the two cores the
# benchmark was sized on, and a fixed string-hash seed.
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}
SETUP_PROBES = 4  # set-up-only children before, and again after, the repetitions
RUN_LIMIT_S = 170  # a run must end within 180 s; children are killed at this mark

END_TO_END = {"setup_s": "s", "time_to_result_s": "s", "peak_rss_mb": "MB"}


@dataclass
class Child:
    rc: int
    result: dict  # the child's result file, or None when it failed
    setup_s: float
    rss_mb: float  # the child's own peak resident memory
    timings_ms: dict = None  # timings_ms of the orbit report it wrote
    host_s: list = None  # hostspeed samples taken while it ran
    wall_s: float = None  # time to result, wall clock
    time_s: float = None  # the same, scaled to the host's usual speed


def spawn(workload, seed, repdir, deadline, trace=False, setup_only=False) -> Child:
    """Run one child to completion and collect its result."""
    os.makedirs(repdir)
    result_path = os.path.join(repdir, "result.json")
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", workload,
           "--seed", str(seed), "--result", result_path]
    cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
    env = dict(os.environ, **CHILD_ENV)
    with open(os.path.join(repdir, "child.log"), "wb") as log:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=repdir, env=env, stdout=log, stderr=subprocess.STDOUT)
        timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            proc.wait()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
    result, setup_s, rss_mb = None, None, None
    if proc.returncode == 0:
        with open(result_path) as fh:
            result = json.load(fh)
        setup_s = result["ready_at"] - t_spawn
        rss_mb = result.get("peak_rss_mb")
    else:
        with open(os.path.join(repdir, "child.log"), "rb") as fh:
            tail = fh.read()[-2000:].decode(errors="replace")
        print(f"child exited with {proc.returncode}:\n{tail}", file=sys.stderr)
    child = Child(proc.returncode, result, setup_s, rss_mb)
    if result is not None and not setup_only:
        child.host_s = result["host_samples_s"]
        child.wall_s = result["time_to_result_s"]
        child.time_s = (child.wall_s - result["sampling_s"]) * _speed(child.host_s)
    return child


def _speed(host_s):
    """The factor that scales a time measured while hostspeed.sample()
    took host_s to the host's usual speed."""
    return hostspeed.REFERENCE_S / statistics.mean(host_s) if host_s else 0.0


def judge(workload, seed, ops, child, repdir, digests):
    """(attempted, failed) for one child's operations.  An op fails on a
    non-zero exit, on an output that fails its checks, or on an output
    whose bytes (timings_ms aside) differ from an earlier run with the
    same seed."""
    from checks import check_op, digest

    done = {o["name"]: o for o in (child.result or {}).get("ops", ())}
    failed = 0
    for op in ops:
        r = done.get(op.name)
        if r is None:
            problems = [f"did not run (child exit {child.rc})"]
        elif r["rc"] != 0:
            problems = [f"exit {r['rc']} {r['error'] or ''}"]
        else:
            problems, files = check_op(op, repdir)
            for path in filter(os.path.exists, files):
                key = f"{workload}|{op.name}|{sorted(op.params.items())}|{os.path.basename(path)}"
                d = digest(path)
                if digests.setdefault(key, d) != d:
                    problems.append(f"{os.path.basename(path)} differs from an "
                                    f"earlier run with the same inputs")
        if problems:
            failed += 1
            for p in problems:
                print(f"FAIL {workload} seed {seed} {op.name}: {p}", file=sys.stderr)
    return len(ops), failed


def _load_digests(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def _save_digests(path, digests):
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(digests, fh, sort_keys=True, indent=1)
    os.replace(tmp, path)


def context():
    import numpy

    with open("/proc/meminfo") as fh:
        mem_kb = next(int(line.split()[1]) for line in fh if line.startswith("MemTotal:"))
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "mem_total_mb": round(mem_kb / 1024), "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform(),
            "child_env": CHILD_ENV}


def _median(values):
    return statistics.median(values) if values else 0.0


def run(workload, seed, seconds, trace):
    """Measure one workload; returns (attempted, failed, metrics)."""
    from checks import timings_of
    from tracing import LAYER_METRICS, layer_metrics
    from workloads import PLANS

    t_start = time.monotonic()
    deadline = t_start + RUN_LIMIT_S
    ops = PLANS[workload](seed)
    workdir = os.path.join(WORK, f"{workload}-{os.getpid()}")
    digest_path = os.path.join(WORK, "digests.json")
    digests = _load_digests(digest_path)
    counter = itertools.count()
    attempted = failed = 0

    def one(trace=False, setup_only=False):
        nonlocal attempted, failed
        repdir = os.path.join(workdir, f"rep{next(counter)}")
        child = spawn(workload, seed, repdir, deadline, trace, setup_only)
        if not setup_only:
            a, f = judge(workload, seed, ops, child, repdir, digests)
            attempted += a
            failed += f
            child.timings_ms = timings_of(os.path.join(repdir, "orbit.json"))
        shutil.rmtree(repdir)
        return child

    def fits(t_rep):
        now = time.monotonic()
        return now - t_start + (now - t_rep) <= seconds

    try:
        if not trace:
            one(setup_only=True)  # fills the bytecode cache; not measured
            # set-up probes before and after the repetitions, so that a
            # short burst of load on the machine skews fewer of them
            children = [one(setup_only=True) for _ in range(SETUP_PROBES)]
            reps = []
            while True:
                t_rep = time.monotonic()
                reps.append(one())
                if not fits(t_rep):
                    break
            children += reps + [one(setup_only=True) for _ in range(SETUP_PROBES)]
            ok = [c for c in reps if c.result is not None]
            setup_wall = _median([c.setup_s for c in children if c.setup_s is not None])
            host_s = [t for c in ok for t in c.host_s]
            metrics = {
                "setup_s": setup_wall * _speed(host_s),
                "time_to_result_s": _median([c.time_s for c in ok]),
                "peak_rss_mb": _median([c.rss_mb for c in ok]),
            }
            unscaled = {"setup_s": setup_wall,
                        "time_to_result_s": _median([c.wall_s for c in ok])}
            units = END_TO_END
        else:
            plain, traced = [], []
            while True:
                t_rep = time.monotonic()
                plain.append(one())
                traced.append(one(trace=True))
                if not fits(t_rep):
                    break
            per_child = [layer_metrics(c.result["spans"], c.timings_ms)
                         for c in traced if c.result is not None]
            metrics = {name: _median([m[name] for m in per_child]) for name in LAYER_METRICS}
            metrics["trace.overhead_s"] = (_median([c.time_s for c in traced if c.result])
                                           - _median([c.time_s for c in plain if c.result]))
            unscaled = {
                "time_to_result_s": _median([c.wall_s for c in plain if c.result]),
                "traced_time_to_result_s": _median([c.wall_s for c in traced if c.result])}
            host_s = [t for c in plain + traced if c.result for t in c.host_s]
            units = LAYER_METRICS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        _save_digests(digest_path, digests)
    unscaled["host_sample_s"] = {"mean": statistics.mean(host_s) if host_s else 0.0,
                                 "count": len(host_s)}
    return attempted, failed, {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}, unscaled


def main(argv=None) -> int:
    from workloads import PLANS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(PLANS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SRC, "charquo", "__init__.py")):
        print(f"perfbench: no charquo sources under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    sys.path.insert(0, SRC)

    attempted, failed, metrics, unscaled = run(args.workload, args.seed, args.seconds, args.trace)
    correct = attempted > 0 and failed == 0
    print(json.dumps({"context": context(), "unscaled": unscaled}, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
