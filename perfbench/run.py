#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of cliffk.

    python3 perfbench/run.py --workload ktables|solve|checks --seed N \
        --seconds S --trace 0|1

Runs from a checkout of the repository and imports cliffk from its
``src``; no install is needed.  Each workload is a closed loop with one
client: the next op starts when the previous one has finished.  Every op
runs in a child forked from a server process that imported cliffk and
called none of it, so each op starts like a fresh ``cliffk`` invocation,
every ``lru_cache`` empty.  The loop runs whole rounds of ops (see
workloads.py) until the ops have taken ``--seconds`` in total and, in a
plain run, at least MIN_OPS ops have run.  Then every op's output is
checked against an answer worked out without cliffk.

``--trace 0`` prints the end-to-end metrics:

* ops_per_s - the median over rounds of ops per second of the children's
  wall time, fork and reap included;
* latency_p50_ms, latency_p90_ms - per-op time measured in the child around
  the call, over all ops of the run (the sample count is printed);
* success_ratio - ops whose output was right over ops attempted; an op
  fails when it raises, exits with an unexpected code or answers wrongly.
  It stands in for failed_ratio = 1 - success_ratio (also printed), so
  that no metric reads 0;
* setup_s - median over fresh interpreters of the time to import cliffk and
  be ready for the first op;
* peak_rss_mb - p90 over the op children of each child's peak resident set.

The three timings are scaled to a machine of fixed speed.  The machines
this runs on are shared: while a neighbour is busy the same op takes up to
a third longer, for minutes at a time.  So each op child first times a
fixed piece of pure-Python work that does not touch cliffk
(``reference_ms``, about 2 ms; it is not part of the op's time), and the
run's timings are multiplied by REFERENCE_NOMINAL_MS over the run's mean
reference time.  The unscaled timings, the factor and the median latency
of each op kind are printed above the result.

``--trace 1`` runs each op twice, plain and with the layer wrappers of
tracing.py, and prints the per-layer metrics from the traced copies, as
per-op means unless the name says max or ratio, plus
trace.overhead_ratio, the plain ops' ops_per_s over the traced ones'.
The spans of the run are written to .perfbench/trace-WORKLOAD.jsonl.gz.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics.  The lines above it stamp the result (backend,
Python, commit, source digest, nproc, seed) and report the run; results
are comparable only when their stamps match.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import hashlib
import io
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from pathlib import Path

import groups
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
OP_TIMEOUT_S = 60
MIN_OPS = 100  # so that at least ten latency samples lie above p90
SETUP_SAMPLES = 9
# the reference time the timings are scaled to: a typical reference_ms on
# an idle 2-vCPU x86-64 VM with CPython 3.11
REFERENCE_NOMINAL_MS = 2.2
SETUP_CODE = ("import time; t = time.perf_counter(); import cliffk.cli; "
              "print(time.perf_counter() - t)")


# ------------------------------------------------------------- op children

def _thom_stability(cliffk, n, r_max):
    report = cliffk.thom_stability(n, r_max)
    shifts = report.shift_checks
    return {"passed": bool(report),
            "shift": [[m, j] for m, j, *_rest in shifts],
            "coker": [str(low.coker) for _m, _j, low, _deg, _ok in shifts],
            "ker": [str(low.ker) for _m, _j, low, _deg, _ok in shifts]}


def _verify_classification(cliffk, p, q, field, max_total):
    return cliffk.verify_classification(
        cliffk.Signature(p, q), cliffk.ScalarField(field), max_total=max_total)


LIBRARY_CALLS = {"thom_stability": _thom_stability,
                 "verify_classification": _verify_classification}


def _execute(cliffk, op) -> dict:
    if "argv" in op:
        try:
            return {"exit": cliffk.cli.main(op["argv"])}
        except SystemExit as exc:
            return {"exit": exc.code if isinstance(exc.code, int) else 2}
    name, *args = op["call"]
    return {"value": LIBRARY_CALLS[name](cliffk, *args)}


def _reference_matrices() -> list:
    rng = random.Random(0)
    return [[[rng.randint(-9, 9) for _ in range(6)] for _ in range(5)]
            for _ in range(30)]


REFERENCE_MATRICES = _reference_matrices()


def reference_ms() -> float:
    """Time of a fixed piece of pure-Python integer work, no cliffk in it:
    Hermite normal forms of small integer matrices."""
    start = time.perf_counter()
    for mat in REFERENCE_MATRICES:
        groups.hnf(mat, len(mat[0]))
    return (time.perf_counter() - start) * 1e3


def _child(cliffk, op, traced: bool) -> dict:
    ref = reference_ms()
    tracer = None
    if traced:
        tracer = tracing.Tracer()
        tracer.install(cliffk)
    stdout = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(io.StringIO()):
            result = _execute(cliffk, op)
    except Exception:  # an op that raises is a failed op, not a dead run
        result = {"error": traceback.format_exc(limit=4)}
    result["ms"] = (time.perf_counter() - start) * 1e3
    result["ref_ms"] = ref
    result["stdout"] = stdout.getvalue()
    if tracer is not None:
        result["trace"] = tracer.result()
    return result


def run_op(cliffk, op, traced: bool) -> dict:
    """Fork, run one op in the child, collect its result and rusage."""
    read_fd, write_fd = os.pipe()
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read_fd)
            signal.alarm(OP_TIMEOUT_S)
            data = json.dumps(_child(cliffk, op, traced)).encode()
            with os.fdopen(write_fd, "wb") as fh:
                fh.write(data)
        finally:
            os._exit(0)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as fh:
        data = fh.read()
    _pid, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    if data:
        result = json.loads(data)
    else:
        result = {"error": f"op child ended with status {status} and no "
                           "result", "ms": wall * 1e3, "stdout": ""}
    result["wall_s"] = wall
    result["rss_mb"] = usage.ru_maxrss / 1024
    return result


class OpServer:
    """A process that forks the op children, one op at a time.

    It is forked once, right after cliffk is imported, and holds nothing
    but the op in flight, so every op child starts from the same memory
    whatever the run has collected so far, and peak_rss_mb does not grow
    with the length of the run.
    """

    def __init__(self, cliffk):
        request_r, request_w = os.pipe()
        reply_r, reply_w = os.pipe()
        sys.stdout.flush()
        sys.stderr.flush()
        pid = os.fork()
        if pid == 0:
            code = 0
            try:
                os.close(request_w)
                os.close(reply_r)
                self._serve(cliffk, os.fdopen(request_r, "rb"),
                            os.fdopen(reply_w, "wb"))
            except BaseException:  # report, then leave without cleanup
                traceback.print_exc()
                code = 1
            finally:
                os._exit(code)
        os.close(request_r)
        os.close(reply_w)
        self.pid = pid
        self._requests = os.fdopen(request_w, "wb")
        self._replies = os.fdopen(reply_r, "rb")

    @staticmethod
    def _serve(cliffk, requests, replies) -> None:
        for line in requests:
            msg = json.loads(line)
            data = json.dumps(run_op(cliffk, msg["op"], msg["traced"])).encode()
            replies.write(b"%d\n" % len(data) + data)
            replies.flush()

    def run(self, op, traced: bool) -> dict:
        self._requests.write(json.dumps({"op": op, "traced": traced}).encode()
                             + b"\n")
        self._requests.flush()
        header = self._replies.readline()
        if not header:
            raise RuntimeError("the op server has died")
        return json.loads(self._replies.read(int(header)))

    def close(self) -> None:
        self._requests.close()
        os.waitpid(self.pid, 0)
        self._replies.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


# ---------------------------------------------------------------- the run

def measure_setup() -> list[float]:
    """Seconds to import cliffk in each of several fresh interpreters."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env,
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=60, check=True)
        samples.append(float(proc.stdout))
    return samples


def run_loop(server, rounds, rng, scratch, seconds: float, traced: bool):
    """Whole rounds of ops until their children have run ``seconds`` (and
    a plain run has MIN_OPS ops).

    Returns one list of (op, plain result, traced result or None) per round.
    """
    done = []
    busy = 0.0
    ops = 0
    while busy < seconds or (not traced and ops < MIN_OPS):
        records = []
        for op in rounds(rng, scratch):
            plain = server.run(op, traced=False)
            busy += plain["wall_s"]
            copy = None
            if traced:
                copy = server.run(op, traced=True)
                busy += copy["wall_s"]
            records.append((op, plain, copy))
        done.append(records)
        ops += len(records)
    return done


def _quantiles(values):
    if len(values) < 2:
        return values[0], values[0]
    deciles = statistics.quantiles(values, n=10, method="inclusive")
    return deciles[4], deciles[8]


def end_to_end(rounds, setup) -> tuple[dict, dict]:
    """The unscaled timings, and the metrics of the plain ops with the
    timings scaled to the nominal machine speed.  Every round holds the
    same op mix, so each round gives one throughput sample; their median
    shrugs off a round that a busy neighbour slowed down."""
    plain = [r for records in rounds for _op, r, _copy in records]
    p50, p90 = _quantiles([r["ms"] for r in plain])
    _rss50, rss90 = _quantiles([r["rss_mb"] for r in plain])
    failed = sum(1 for r in plain if r.get("failure"))
    rates = [len(records) / sum(r["wall_s"] - r["ref_ms"] / 1e3
                                for _op, r, _c in records)
             for records in rounds]
    speed = REFERENCE_NOMINAL_MS / statistics.mean(r["ref_ms"] for r in plain)
    raw = {"ops_per_s": statistics.median(rates), "latency_p50_ms": p50,
           "latency_p90_ms": p90, "speed_factor": speed}
    return raw, {
        "ops_per_s": (raw["ops_per_s"] / speed, "1/s"),
        "latency_p50_ms": (p50 * speed, "ms"),
        "latency_p90_ms": (p90 * speed, "ms"),
        "success_ratio": ((len(plain) - failed) / len(plain), "ratio"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (rss90, "MB"),
    }


def per_layer(records) -> tuple[dict, dict]:
    """Per-layer metrics of the traced copies, and the span-path totals."""
    copies = [(op, c) for op, _plain, c in records]
    n = len(copies)
    calls, total_ms, self_ms = Counter(), Counter(), Counter()
    counts, maxima, paths = Counter(), Counter(), {}
    assignments = solutions = 0
    for op, c in copies:
        trace = c.get("trace", {})
        for _sid, _parent, name, start, end, own in trace.get("spans", []):
            calls[name] += 1
            total_ms[name] += (end - start) / 1e6
            self_ms[name.split(".")[0]] += own / 1e6
        counts.update(trace.get("counts", {}))
        for name, value in trace.get("maxima", {}).items():
            maxima[name] = max(maxima[name], value)
        for path, (k, ms) in tracing.span_paths(trace.get("spans", [])).items():
            entry = paths.setdefault(path, [0, 0.0])
            entry[0] += k
            entry[1] += ms
        if "assignments" in op["expect"]:
            assignments += op["expect"]["assignments"]
            with contextlib.suppress(ValueError, KeyError):
                solutions += json.loads(c["stdout"])["count"]

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for name in ("reps.restriction_multiplicities", "kernel.unit_pair_rank",
                 "reps.build_rep", "kernel.sparse_rank",
                 "abgroup.check_exact", "kernel.snf"):
        m[f"{name}.calls"] = (calls[name] / n, "1/op")
        m[f"{name}.ms"] = (total_ms[name] / n, "ms/op")
    m["kernel.unit_pair_rank.rows"] = (
        counts["kernel.unit_pair_rank.rows"] / n, "1/op")
    m["reps.restriction.cache_hit_ratio"] = (ratio(
        counts["reps.restriction_multiplicities.repeats"],
        calls["reps.restriction_multiplicities"]), "ratio")
    m["ktheory.point_k.calls"] = (calls["ktheory.point_k"] / n, "1/op")
    m["structure.classify.calls"] = (calls["structure.classify"] / n, "1/op")
    m["structure.classify.cache_hit_ratio"] = (ratio(
        counts["structure.classify.repeats"], calls["structure.classify"]),
        "ratio")
    m["reps.rep_dim.max"] = (maxima["reps.rep_dim.max"], "count")
    for name in ("reps.verify_classification", "abgroup.solve_exact",
                 "seqfile.parse_sequence_file"):
        m[f"{name}.ms"] = (total_ms[name] / n, "ms/op")
    for layer in ("ktheory", "blades", "cli"):
        m[f"{layer}.self_ms"] = (self_ms[layer] / n, "ms/op")
    m["abgroup.assignments"] = (assignments / n, "1/op")
    m["abgroup.solutions"] = (solutions / n, "1/op")
    m["abgroup.solution_ratio"] = (ratio(solutions, assignments), "ratio")
    m["abgroup.grouphom.built"] = (counts["abgroup.grouphom.built"] / n,
                                   "1/op")
    m["kernel.snf.max_cells"] = (maxima["kernel.snf.max_cells"], "count")
    m["kernel.snf.max_entry_bits"] = (maxima["kernel.snf.max_entry_bits"],
                                      "bits")
    plain_s = sum(p["wall_s"] for _op, p, _c in records)
    traced_s = sum(c["wall_s"] for _op, c in copies)
    m["trace.overhead_ratio"] = (traced_s / plain_s, "ratio")
    return m, paths


# ------------------------------------------------------------------ report

def stamp(cliffk, args) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "cliffk").iterdir()):
        if path.is_file():
            digest.update(path.name.encode())
            digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30, check=True).stdout.strip()
    return {"backend": cliffk.BACKEND, "python": platform.python_version(),
            "commit": commit, "source_sha256": digest.hexdigest(),
            "nproc": os.cpu_count(), "seed": args.seed,
            "workload": args.workload, "seconds": args.seconds,
            "trace": args.trace}


def write_trace(records, run_stamp, skipped, workload: str) -> Path:
    """One JSON line with the stamp, then one line of spans per traced op."""
    path = OUT / f"trace-{workload}.jsonl.gz"
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        fh.write(json.dumps({"stamp": run_stamp, "skipped": skipped}) + "\n")
        for op_id, (op, _plain, copy) in enumerate(records):
            fh.write(json.dumps({
                "op": op_id, "label": op["label"],
                "spans": copy.get("trace", {}).get("spans", [])}) + "\n")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("ktables", "solve", "checks"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cliffk" / "__init__.py").is_file():
        print(f"error: no cliffk sources under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import cliffk
    import cliffk.cli

    OUT.mkdir(exist_ok=True)
    with OpServer(cliffk) as server, \
            tempfile.TemporaryDirectory(dir=OUT) as scratch:
        setup = measure_setup()
        rounds = run_loop(server, workloads.ROUNDS[args.workload],
                          random.Random(args.seed), scratch, args.seconds,
                          bool(args.trace))
    run_stamp = stamp(cliffk, args)
    records = [record for records in rounds for record in records]

    attempted = failed = 0
    for op, plain, copy in records:
        for result in (plain, copy):
            if result is None:
                continue
            attempted += 1
            result["failure"] = workloads.check(op, result)
            if result["failure"]:
                failed += 1
                print(f"FAILED {op['label']} {op.get('argv', op.get('call'))}: "
                      f"{result['failure']}", file=sys.stderr)
    pin_error = workloads.check_pins() if args.workload == "solve" else None
    if pin_error:
        print(f"FAILED oracle pin: {pin_error}", file=sys.stderr)

    print("stamp " + json.dumps(run_stamp, sort_keys=True))
    if args.trace:
        metrics, paths = per_layer(records)
        skipped = sorted({name for _op, _plain, copy in records
                          for name in copy.get("trace", {}).get("skipped", [])})
        trace_path = write_trace(records, run_stamp, skipped, args.workload)
        print(f"traced ops: {len(records)}; spans in {trace_path}")
        if skipped:
            print("not traced, missing from this cliffk: " + ", ".join(skipped))
        print("note: rows reach kernel.unit_pair_rank lazily, so the time "
              "reps._emit_rows spends building them is inside that span")
        print("span paths by total ms:")
        for path, (k, ms) in sorted(paths.items(), key=lambda kv: -kv[1][1])[:15]:
            print(f"  {ms:10.1f} ms {k:8d} x  {path}")
    else:
        raw, metrics = end_to_end(rounds, setup)
        above = sum(1 for _op, r, _copy in records
                    if r["ms"] > raw["latency_p90_ms"])
        print(f"ops: {len(records)} in {len(rounds)} rounds; latency samples: "
              f"{len(records)}, {above} above p90; failed_ratio: "
              f"{1 - metrics['success_ratio'][0]:.6f}; setup samples (s): "
              + ", ".join(f"{s:.4f}" for s in setup))
        print("unscaled: " + ", ".join(
            f"{name} {value:.4f}" for name, value in raw.items()))
        kinds: dict[str, list] = {}
        for op, r, _copy in records:
            kinds.setdefault(op["label"], []).append(r["ms"])
        print("median ms by op kind: " + ", ".join(
            f"{label} {statistics.median(v):.1f} (n={len(v)})" for label, v
            in sorted(kinds.items(), key=lambda kv: statistics.median(kv[1]))))
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.4f} {unit}")
    print(json.dumps({
        "correct": failed == 0 and pin_error is None,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
