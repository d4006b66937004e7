"""Spans around the calls into charquo's modules, and the per-layer
metrics derived from them.

The traced child wraps public functions of each layer, patching the
name in the module that calls it (`from ... import` binds a second
name, so both the defining and the calling module are patched where
they differ).  Spans are kept in memory and written out with the
child's result when it exits.  `laurent`, `charvar` and `ffield` are
below span granularity and show as self time of their callers.
"""

from __future__ import annotations

import functools
import sys
import time

# -- recording (child side) -------------------------------------------------


class Tracer:
    """In-memory span recorder.  A span is a dict with id, parent, op
    (the operation it belongs to), name, start and end (perf_counter
    seconds) plus optional counts noted at exit."""

    def __init__(self):
        self.spans = []
        self.op = None
        self.missing = []
        self._stack = []

    def wrap(self, owner, attr, name, note=None):
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        stack, spans = self._stack, self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(spans), "parent": stack[-1] if stack else None,
                    "op": self.op, "name": name, "start": time.perf_counter()}
            spans.append(span)
            stack.append(span["id"])
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span["end"] = time.perf_counter()
            if note is not None:
                span.update(note(args, result))
            return result

        setattr(owner, attr, traced)


def _rows(i):
    """Note the row count of positional argument i."""
    return lambda args, result: {"rows": len(args[i])}


def peak_rss_mb() -> float:
    """Peak resident memory of this process since it started its program.

    VmHWM, not ru_maxrss: on Linux, exec carries the spawning process's
    resident size into ru_maxrss, so a small child of a larger parent
    would report the parent's memory."""
    with open("/proc/self/status") as fh:
        kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    return kb / 1024.0


def _bfs_note(args, result):
    return {"points": int(result.n), "rss_mb": peak_rss_mb()}


def install(tracer: Tracer):
    """Wrap every traced function of charquo in the running process."""
    from charquo import cli, orbit, permgrp, qrep, witness

    w = tracer.wrap
    # orbit: the BFS and its kernels, the index reads, dump I/O
    w(witness, "enumerate_orbit", "orbit.enumerate_orbit", _bfs_note)
    w(orbit, "apply_letter_np", "orbit.apply_letter_np", _rows(1))
    w(orbit, "fast_keys", "orbit.fast_keys", _rows(1))
    make_checker = orbit.make_checker

    def traced_make_checker(params):
        checker = make_checker(params)
        w(checker, "equivalent", "orbit.exact_equivalent", _rows(0))
        return checker

    orbit.make_checker = traced_make_checker
    w(orbit.OrbitIndex, "letter_perm", "orbit.letter_perm")
    w(orbit.OrbitIndex, "f2_perms", "orbit.f2_perms")
    w(orbit.OrbitIndex, "write_dump", "orbit.write_dump")
    w(witness, "epsilon_perm", "orbit.epsilon_perm")
    w(cli, "read_dump", "orbit.read_dump")
    # permgrp: giant recognition and parity
    w(witness, "classify_giant", "permgrp.classify_giant")
    w(permgrp, "is_transitive", "permgrp.is_transitive")
    w(permgrp, "cycle_lengths", "permgrp.cycle_lengths")
    w(permgrp.GiantCertificate, "revalidate", "permgrp.revalidate")
    w(permgrp, "sign", "permgrp.sign")
    w(witness, "sign", "permgrp.sign")
    # witness: the pipeline, its set-up stages, the counter, the oracles
    w(witness, "run_pipeline", "witness.run_pipeline")
    w(witness, "build", "witness.build")
    w(witness, "check_assumptions", "witness.check_assumptions")
    w(witness, "count_x", "witness.count_x")
    w(witness, "enumerate_x_classes", "witness.enumerate_x_classes")
    w(witness, "orbit_exact_keys", "witness.orbit_exact_keys")
    # cli: report serialisation and the atomic write
    w(cli, "to_json", "cli.to_json")
    w(cli, "write_atomic", "cli.write_atomic")
    # qrep / qlinalg: the exact quantum engine
    w(qrep, "braid_matrices", "qrep.braid_matrices")
    w(qrep, "intertwiner_J", "qrep.intertwiner_J")
    w(qrep, "nullspace", "qlinalg.nullspace")
    w(qrep, "decomposition_check", "qrep.decomposition_check")
    w(qrep, "operator_relations_check", "qrep.operator_relations_check")
    w(qrep, "specialize", "qrep.specialize")
    if tracer.missing:
        print("perfbench: not traced (name not found): " + ", ".join(tracer.missing),
              file=sys.stderr)


# -- per-layer metrics (parent side) ----------------------------------------

STAGES = ("witness_ms", "orbit_ms", "permutations_ms", "classification_ms", "count_ms")

# name -> unit, in the order BENCHMARK.json lists them
LAYER_METRICS = {
    "orbit.enumerate_orbit.s": "s",
    "orbit.enumerate_orbit.self_s": "s",
    "orbit.apply_letter_np.s": "s",
    "orbit.fast_keys.s": "s",
    "orbit.exact_equivalent.s": "s",
    "orbit.bfs_layers": "count",
    "orbit.images_keyed": "count",
    "orbit.points": "count",
    "orbit.edges_verified": "count",
    "orbit.new_point_ratio": "ratio",
    "orbit.letter_perm.s": "s",
    "orbit.epsilon_perm.s": "s",
    "orbit.f2_perms.s": "s",
    "orbit.write_dump.s": "s",
    "orbit.read_dump.s": "s",
    "orbit.rss_after_bfs_mb": "MB",
    "permgrp.classify_giant.s": "s",
    "permgrp.is_transitive.s": "s",
    "permgrp.cycle_lengths.s": "s",
    "permgrp.cycle_lengths.calls": "count",
    "permgrp.revalidate.s": "s",
    "permgrp.sign.s": "s",
    "witness.count_x.s": "s",
    "witness.enumerate_x_classes.s": "s",
    "witness.orbit_exact_keys.s": "s",
    **{f"witness.stage.{s}": "ms" for s in STAGES},
    "cli.to_json.s": "s",
    "cli.write_atomic.s": "s",
    "qrep.braid_matrices.s": "s",
    "qrep.intertwiner_J.s": "s",
    "qrep.intertwiner_J.calls": "count",
    "qlinalg.nullspace.s": "s",
    "qrep.decomposition_check.s": "s",
    "qrep.operator_relations_check.s": "s",
    "qrep.specialize.s": "s",
    "trace.stage_coverage": "ratio",
    "trace.overhead_s": "s",
}


def layer_metrics(spans, timings_ms):
    """Per-layer values of one traced child.

    spans: the child's span list; timings_ms: the `timings_ms` of the
    orbit report it wrote, or None.  Durations are inclusive totals over
    the outermost spans of each name (letter_perm calls made inside
    f2_perms count in both).  Layers the workload never enters read 0.
    trace.overhead_s needs an untraced run and is filled in by the caller.
    """
    by_id = {s["id"]: s for s in spans}
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)

    def dur(s):
        return s["end"] - s["start"]

    def parent_name(s):
        return by_id[s["parent"]]["name"] if s["parent"] is not None else None

    def outermost(name):
        out = []
        for s in spans:
            if s["name"] != name:
                continue
            a = s["parent"]
            while a is not None and by_id[a]["name"] != name:
                a = by_id[a]["parent"]
            if a is None:
                out.append(s)
        return out

    def total(name):
        return sum(dur(s) for s in outermost(name))

    bfs = [s for s in spans if s["name"] == "orbit.enumerate_orbit"]
    in_bfs = [c for s in bfs for c in children.get(s["id"], ())]
    keyed = [c for c in in_bfs if c["name"] == "orbit.fast_keys"]
    images = sum(c["rows"] for c in in_bfs if c["name"] == "orbit.apply_letter_np")
    points = sum(s["points"] for s in bfs)
    words = [s for s in spans if s["name"] == "permgrp.cycle_lengths"
             and parent_name(s) == "permgrp.classify_giant"]

    m = {name: 0 for name in LAYER_METRICS}
    for name in LAYER_METRICS:
        if name.endswith(".s"):
            m[name] = total(name[:-2])
    m["orbit.enumerate_orbit.self_s"] = sum(dur(s) for s in bfs) - sum(dur(c) for c in in_bfs)
    # one fast_keys call keys the start point, then one per BFS layer
    m["orbit.bfs_layers"] = max(0, len(keyed) - len(bfs))
    m["orbit.images_keyed"] = images
    m["orbit.points"] = points
    m["orbit.edges_verified"] = sum(c["rows"] for c in in_bfs
                                    if c["name"] == "orbit.exact_equivalent")
    m["orbit.new_point_ratio"] = points / images if images else 0
    m["orbit.rss_after_bfs_mb"] = max((s["rss_mb"] for s in bfs), default=0)
    # random words tried: cycle scans made by the giant search itself
    # (sign and revalidate make their own, under their own spans)
    m["permgrp.cycle_lengths.s"] = sum(dur(s) for s in words)
    m["permgrp.cycle_lengths.calls"] = len(words)
    m["qrep.intertwiner_J.calls"] = len(outermost("qrep.intertwiner_J"))
    if timings_ms:
        for stage in STAGES:
            m[f"witness.stage.{stage}"] = timings_ms.get(stage, 0)
        pipeline = [s for s in spans if s["name"] == "witness.run_pipeline"]
        covered = sum(dur(c) for s in pipeline for c in children.get(s["id"], ()))
        m["trace.stage_coverage"] = covered / (sum(timings_ms.values()) / 1000.0)
    return m
