"""One repetition of a workload, in a fresh process started by run.py.

    python3 perfbench/child.py --workload W --seed S --result R [--trace] [--setup-only]

Set-up imports numpy and charquo from the checkout's src/ (refusing an
installed copy from elsewhere) and, for the orbit workloads, builds the witness and checks its assumptions; the
wall clock at the end of set-up is written to the result so that the
parent can time set-up from process start.  Then the workload's
operations run in order, in the working directory, and their total
wall time is the time to result; meanwhile hostspeed.Sampler samples
the speed of the core.  With --trace, spans are recorded
around each layer's public functions (tracing.py).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
import traceback

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

import charquo  # noqa: E402
import hostspeed  # noqa: E402
from charquo import cli  # noqa: E402
from charquo import witness as wt  # noqa: E402
from tracing import peak_rss_mb  # noqa: E402
from workloads import PLANS, SETUP_PRIME  # noqa: E402


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _x_classes(cfg, orbits):
    count, keys = wt.enumerate_x_classes(cfg.params)
    _write_json("x-classes.json", {
        "p": cfg.p, "class_count": count,
        "class_keys_sha256": hashlib.sha256(json.dumps(keys).encode()).hexdigest()})


def _exact_keys(cfg, orbits):
    orbit = orbits[-1]
    keys = wt.orbit_exact_keys(orbit, cfg.params)
    _write_json("exact-keys.json", {
        "p": cfg.p, "points": orbit.n,
        "distinct_keys": len(np.unique(keys, axis=0)),
        "keys_sha256": hashlib.sha256(np.ascontiguousarray(keys).tobytes()).hexdigest()})


ORACLES = {"x-classes": _x_classes, "exact-keys": _exact_keys}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    if not os.path.abspath(charquo.__file__).startswith(SRC + os.sep):
        print(f"charquo imported from {charquo.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    ops = PLANS[args.workload](args.seed)
    cfg = None
    if SETUP_PRIME[args.workload] is not None:
        cfg = wt.build(SETUP_PRIME[args.workload])
        wt.check_assumptions(cfg)
    result = {"ready_at": time.monotonic()}  # system-wide clock, as in the parent
    if args.setup_only:
        _write_json(args.result, result)
        return 0

    orbits = []  # the exact-key oracle runs over the orbit the CLI enumerated
    if any(op.kind == "exact-keys" for op in ops):
        enumerate_orbit = wt.enumerate_orbit

        def capture(*a, **k):
            orbits.append(enumerate_orbit(*a, **k))
            return orbits[-1]

        wt.enumerate_orbit = capture
    tracer = None
    if args.trace:
        from tracing import Tracer, install
        tracer = Tracer()
        install(tracer)

    done = []
    sampler = hostspeed.Sampler()
    sampler.start()
    t0 = time.perf_counter()
    for op in ops:
        if tracer is not None:
            tracer.op = op.name
        t = time.perf_counter()
        rc, error = None, None
        try:
            if op.argv is not None:
                rc = cli.main(list(op.argv))
            else:
                ORACLES[op.kind](cfg, orbits)
                rc = 0
        except (Exception, SystemExit) as e:  # record the failure, run the next op
            error = f"{type(e).__name__}: {e}"
            traceback.print_exc()
        done.append({"name": op.name, "rc": rc, "error": error,
                     "seconds": time.perf_counter() - t})
    result["time_to_result_s"] = time.perf_counter() - t0
    sampler.stop()
    result["host_samples_s"] = sampler.samples
    result["sampling_s"] = sampler.spent_s
    result["ops"] = done
    result["peak_rss_mb"] = peak_rss_mb()
    if tracer is not None:
        result["spans"] = tracer.spans
    _write_json(args.result, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
