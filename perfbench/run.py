"""Benchmark for leibnizlat: four workloads, end-to-end metrics and a traced per-layer run.

Run from the root of a source checkout; the package is imported from ./src,
nothing is installed:

    python3 perfbench/run.py --workload corpus --seed 7 --seconds 20 --trace 0

Workloads are listed in ``workloads.py``. One run is one process on one thread.
Set-up (interpreter start, import, inputs built from the seed) is timed in
fresh child processes; the median is ``setup_s``. The run then repeats the
workload's lap, a fixed amount of work, at least ``MIN_LAPS`` times and while
another lap is expected to end within ``--seconds``. Each lap's outputs are
checked against the pinned oracles in ``oracles.py``.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs ``MIN_LAPS``
laps, each once untraced and once with every public layer function wrapped
(``spans.py``), and prints per-layer self times and exact work counters summed
over the traced laps. It runs a fixed amount of work and ignores ``--seconds``.
The spans are written to ``.perfbench/trace-<workload>-seed<seed>.json`` at exit.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracles
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

MIN_LAPS = 2
SETUP_PROBES = 5
# Layer self times must cover at least this share of the traced lap time.
COVERAGE_MIN_PCT = 98.0
CLOSURE_PARENTS = (
    "verify.lem-three",
    "verify.lem-two",
    "verify.lem-cyclic",
    "lattice.wqi_elementwise",
)
SELF_TIME_SPANS = (
    "lattice.enumerate_subalgebras",
    "lattice.is_modular",
    "lattice.is_upper_semimodular",
    "lattice.is_lower_semimodular_lattice",
    "lattice.all_subalgebras_wqi",
    "lattice.wqi_elementwise",
    "lattice.frattini_ideal",
    "lattice.build_structure_report",
    "algebra.subalgebra_closure",
    "algebra.product_space",
    "algebra.change_of_basis",
    "algebra.right_leibniz_check",
    "linalg.rref",
    "verify.run_suite",
    "specfile.export_json_report",
    "specfile.export_dot",
    "specfile.parse_spec",
    "specfile.emit_spec",
)
LAYERS = ("linalg", "algebra", "lattice", "verify", "specfile", "catalog", "bench")


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least pct% of samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def import_package():
    """Import leibnizlat from this checkout's src/, or exit 2 if it is not there."""
    if not (SRC / "leibnizlat" / "__init__.py").is_file():
        print("error: %s/leibnizlat not found; run from a source checkout" % SRC, file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import leibnizlat

    if Path(leibnizlat.__file__).resolve().parent != (SRC / "leibnizlat").resolve():
        print(
            "error: leibnizlat imported from %s, not %s" % (leibnizlat.__file__, SRC),
            file=sys.stderr,
        )
        sys.exit(2)
    return leibnizlat


def measure_setup(args) -> list:
    """Seconds from spawning a fresh interpreter to its inputs being ready."""
    cmd = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--setup-probe",
    ]
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, cwd=str(ROOT), stdout=subprocess.PIPE, text=True) as child:
            try:
                line = child.stdout.readline()
                ready = time.perf_counter()
                child.stdout.read()
                code = child.wait(timeout=60)
            except BaseException:
                child.kill()
                raise
        if line.strip() != "ready" or code != 0:
            raise RuntimeError("set-up probe failed (exit %s, said %r)" % (code, line))
        samples.append(ready - start)
    return samples


def provenance(args) -> dict:
    def cpu_model():
        try:
            with open("/proc/cpuinfo") as fh:
                for line in fh:
                    if line.startswith("model name"):
                        return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return platform.processor() or "unknown"

    def git_commit():
        head = ROOT / ".git" / "HEAD"
        try:
            ref = head.read_text().strip()
            if ref.startswith("ref: "):
                return (ROOT / ".git" / ref[5:]).read_text().strip()
            return ref
        except OSError:
            return None

    digest = hashlib.sha256()
    for path in sorted((SRC / "leibnizlat").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu_model": cpu_model(),
    }


def run_laps(workload, deadline):
    """Run at least MIN_LAPS laps, and more while the next is expected to end by the deadline."""
    laps, walls = [], []
    while True:
        inputs = workload.lap_inputs(len(laps))
        start = time.perf_counter()
        laps.append(workload.run(inputs))
        walls.append(time.perf_counter() - start)
        if len(laps) >= MIN_LAPS and time.perf_counter() + statistics.median(walls) > deadline:
            return laps, walls


def run_traced_laps(workload, pkg):
    """MIN_LAPS laps each run untraced and then traced, alternating so drift hits both."""
    inputs = [workload.lap_inputs(k) for k in range(MIN_LAPS)]
    setup_tracer, tracer = spans.Tracer(), spans.Tracer()
    with spans.installed(setup_tracer, pkg), setup_tracer.span("bench.setup"):
        workload.build_inputs()
    laps, walls, traced_laps, traced_walls = [], [], [], []
    for lap_inputs in inputs:
        start = time.perf_counter()
        laps.append(workload.run(lap_inputs))
        walls.append(time.perf_counter() - start)
        with spans.installed(tracer, pkg):
            start = time.perf_counter()
            with tracer.span("bench.lap"):
                traced_laps.append(workload.run(lap_inputs))
            traced_walls.append(time.perf_counter() - start)
    return laps, walls, traced_laps, traced_walls, tracer, setup_tracer


def check_laps(workload, laps):
    attempted = failed = 0
    problems = []
    for lap in laps:
        a, f, p = workload.check(lap)
        attempted, failed, problems = attempted + a, failed + f, problems + p
    if hasattr(workload, "check_whole"):
        a, f, p = workload.check_whole(laps)
        attempted, failed, problems = attempted + a, failed + f, problems + p
    return attempted, failed, problems


def end_to_end(laps, walls, setup_samples) -> dict:
    latencies_ms = [seconds * 1000.0 for lap in laps for _, seconds in lap.items]
    return {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "algebra_p50_ms": (percentile(latencies_ms, 50), "ms"),
        "algebra_p95_ms": (percentile(latencies_ms, 95), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(tracer, setup_tracer, walls, traced_walls) -> dict:
    m = {}
    lap_seconds = tracer.total_seconds()
    untraced, traced = statistics.median(walls), statistics.median(traced_walls)
    m["trace.wall_s"] = (traced, "s")
    m["trace.untraced_wall_s"] = (untraced, "s")
    m["trace.overhead_pct"] = (100.0 * (traced - untraced) / untraced, "%")
    m["trace.coverage_pct"] = (100.0 * (1 - tracer.total_self("bench.lap") / lap_seconds), "%")
    layers = tracer.self_by_layer()
    for layer in LAYERS:
        m["layer.%s.self_s" % layer] = (layers.get(layer, 0.0), "s")
    for name in SELF_TIME_SPANS:
        m[name + ".self_s"] = (tracer.total_self(name), "s")
    for check_id in oracles.CHECK_IDS:
        m["verify.%s.self_s" % check_id] = (tracer.total_self("verify." + check_id), "s")
    # children included: a check's total also holds the cached lattice layers it touched first
    for check_id in oracles.CHECK_IDS:
        m["verify.%s.total_s" % check_id] = (tracer.total_inclusive("verify." + check_id), "s")
    m["catalog.corpus.self_s"] = (setup_tracer.total_self("catalog.corpus"), "s")
    # exact work counters
    enum = "lattice.enumerate_subalgebras"
    filter_tests = tracer.calls.get(("algebra.product_space", enum), 0)
    m[enum + ".filter_tests"] = (filter_tests, "count")
    m[enum + ".order_tests"] = (tracer.total_count("linalg.leq", enum) - filter_tests, "count")
    m["lattice.nodes"] = (tracer.nodes, "count")
    m["lattice.all_subalgebras_wqi.brackets"] = (
        tracer.total_count("algebra.bracket", "lattice.all_subalgebras_wqi"),
        "count",
    )
    m["algebra.bracket.calls"] = (tracer.total_count("algebra.bracket"), "count")
    for name in ("algebra.subalgebra_closure", "algebra.product_space", "linalg.rref"):
        m[name + ".calls"] = (tracer.total_calls(name), "count")
    closure = "algebra.subalgebra_closure"
    m[closure + ".total_s"] = (tracer.total_inclusive(closure), "s")
    for parent in CLOSURE_PARENTS + ("other",):
        keys = [
            (name, p)
            for name, p in tracer.total_s
            if name == closure and (p == parent or (parent == "other" and p not in CLOSURE_PARENTS))
        ]
        m["%s.%s.total_s" % (closure, parent)] = (sum(tracer.total_s[k] for k in keys), "s")
        m["%s.%s.calls" % (closure, parent)] = (sum(tracer.calls[k] for k in keys), "count")
    return m


def write_trace(args, prov, tracer, metrics):
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    doc = {
        "provenance": prov,
        "metrics": {k: v for k, (v, _) in metrics.items()},
        "self_s": [[n, p, v] for (n, p), v in sorted(tracer.self_s.items(), key=str)],
        "calls": [[n, p, v] for (n, p), v in sorted(tracer.calls.items(), key=str)],
        "counts": [[n, p, v] for (n, p), v in sorted(tracer.counts.items(), key=str)],
        "spans": tracer.spans,
    }
    path = out_dir / ("trace-%s-seed%d.json" % (args.workload, args.seed))
    path.write_text(json.dumps(doc) + "\n")
    return path


def print_counter_changes(args, metrics):
    """Compare the work counters with the ones stored in baseline.json for this seed."""
    baseline = json.loads((Path(__file__).resolve().parent / "baseline.json").read_text())
    entry = baseline["workloads"].get(args.workload, {})
    if entry.get("seed") != args.seed:
        return
    for name, before in entry["counters"].items():
        now = metrics[name][0]
        if now != before:
            change = "%+.2f%%" % (100.0 * (now - before) / before) if before else "new"
            print("counter %s: %d, baseline %d (%s)" % (name, now, before, change))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    pkg = import_package()
    cls = workloads.WORKLOADS[args.workload]
    if args.setup_probe:
        cls(pkg, args.seed)
        print("ready", flush=True)
        return 0

    prov = provenance(args)
    print("provenance: %s" % json.dumps(prov, sort_keys=True))
    setup_samples = measure_setup(args)
    workload = cls(pkg, args.seed)

    if not args.trace:
        laps, walls = run_laps(workload, time.perf_counter() + args.seconds)
        attempted, failed, problems = check_laps(workload, laps)
        metrics = end_to_end(laps, walls, setup_samples)
        samples = sum(len(lap.items) for lap in laps)
        print("laps: %d, per-algebra samples: %d" % (len(laps), samples))
    else:
        laps, walls, traced_laps, traced_walls, tracer, setup_tracer = run_traced_laps(
            workload, pkg
        )
        a1, f1, p1 = check_laps(workload, laps)
        a2, f2, p2 = check_laps(workload, traced_laps)
        attempted, failed, problems = a1 + a2, f1 + f2, p1 + p2
        metrics = per_layer(tracer, setup_tracer, walls, traced_walls)
        coverage = metrics["trace.coverage_pct"][0]
        if coverage < COVERAGE_MIN_PCT:
            problems.append(
                "layer self times cover %.2f%% of the traced laps, below %.1f%%"
                % (coverage, COVERAGE_MIN_PCT)
            )
        path = write_trace(args, prov, tracer, metrics)
        print("traced laps: %d, spans written to %s" % (MIN_LAPS, path))
        print_counter_changes(args, metrics)

    rate = failed / attempted if attempted else 0.0
    print("error_rate: %d/%d = %.6f" % (failed, attempted, rate))
    for problem in problems:
        print("problem: %s" % problem)
    for name, (value, unit) in metrics.items():
        print("%-55s %16.6f %s" % (name, value, unit))
    result = {
        "correct": not problems and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
