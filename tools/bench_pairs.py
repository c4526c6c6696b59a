"""Alternating parent/change perfbench pairs, summarised as one BENCH_<n>.json.

Run from the root of a git checkout, with both commits present:

    python3 tools/bench_pairs.py --parent 7fee6bc --change HEAD \\
        --workload sparse-lattice --workload dense-lattice --out bench.json

Each side is a fresh ``git archive`` export of its commit's ``src/`` and
``perfbench/``, so neither holds a ``__pycache__``, and every child runs with
``PYTHONDONTWRITEBYTECODE=1``: a tree with a bytecode cache starts faster, and
``setup_s`` would read that. Each workload gets ``PAIRS`` pairs; pair k runs the
parent first when k is odd and the change first when k is even. A run is
``perfbench/run.py --workload W --seed S --trace 0`` at perfbench's default run
length; its final JSON line and its lap count are kept, since ``peak_rss_mb``
grows with the laps a run keeps. Each run times its own set-up probes, so the
pairs also give ``PAIRS`` alternating ``setup_s`` readings per tree. The source
digest and the host are read from the provenance line each run prints.

The summary gives, per workload and end-to-end metric of ``BENCHMARK.json``
(all lower-is-better), the medians and inclusive quartiles of each side, the
change/parent ratio of the medians, the pairs the change won, whether the gap of
the medians exceeds the parent's interquartile range, and a verdict against the
bound: ``unresolved``, ``worse`` or ``within bound`` (see ``compare``).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
PAIRS = 10  # the fewest pairs a claimed gain is judged on
RUN_SECONDS = 20  # perfbench/run.py's default --seconds, which every run keeps


def order(pair: int) -> tuple:
    """The sides of pair ``pair`` (from 1) in running order."""
    return SIDES if pair % 2 else SIDES[::-1]


def quartiles(values) -> list:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [round(q1, 6), round(q3, 6)]


def compare(parent: list, change: list, bound: float) -> dict:
    """One lower-is-better metric over paired runs: parent[k] and change[k] are pair k's.

    The verdict is ``unresolved`` when the parent's quartile spread exceeds the bound, as a
    share of its median, unless every change run beats every parent run; otherwise it is
    ``worse`` when the ratio of the medians exceeds 1 + bound, else ``within bound``.
    """
    pm, cm = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    if (q3 - q1) / pm > bound and max(change) >= min(parent):
        verdict = "unresolved"
    else:
        verdict = "worse" if cm / pm > 1 + bound else "within bound"
    return {
        "parent_median": round(pm, 6),
        "parent_quartiles": [q1, q3],
        "change_median": round(cm, 6),
        "change_quartiles": quartiles(change),
        "ratio": round(cm / pm, 4),
        "bound": bound,
        "change_wins": "%d/%d" % (sum(c < p for p, c in zip(parent, change)), len(parent)),
        "gap_exceeds_parent_iqr": abs(cm - pm) > q3 - q1,
        "verdict": verdict,
    }


def summarize(runs: list, bounds: dict) -> list:
    """One entry per workload, in first-run order; ``bounds`` maps each end-to-end metric
    name to its bound."""
    groups = {}
    for run in runs:
        groups.setdefault(run["workload"], []).append(run)
    out = []
    for workload, group in groups.items():
        sides = {
            s: sorted((r for r in group if r["side"] == s), key=lambda r: r["pair"]) for s in SIDES
        }
        if [r["pair"] for r in sides["parent"]] != [r["pair"] for r in sides["change"]]:
            raise ValueError("%s: unpaired runs" % workload)
        values = {
            s: {m: [r["final"]["metrics"][m]["value"] for r in sides[s]] for m in bounds}
            for s in SIDES
        }
        out.append({
            "workload": workload,
            "seed": group[0]["seed"],
            "pairs": len(sides["parent"]),
            "metrics": {
                m: compare(values["parent"][m], values["change"][m], bound)
                for m, bound in bounds.items()
            },
            "laps": {s: sorted(r["laps"] for r in sides[s]) for s in SIDES},
            "failed_share": {
                s: "%d/%d" % (sum(r["final"]["failed"] for r in sides[s]),
                              sum(r["final"]["attempted"] for r in sides[s]))
                for s in SIDES
            },
            "correct": all(r["final"]["correct"] for r in group),
        })
    return out


def export(rev: str, dest: Path) -> None:
    dest.mkdir(parents=True)
    archive = subprocess.Popen(["git", "archive", rev, "src", "perfbench"], cwd=str(REPO),
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    if archive.wait() != 0:
        raise RuntimeError("git archive %s failed" % rev)


def bench(tree: Path, workload: str, seed: int, env: dict) -> tuple:
    """(the run's record, its provenance) for one perfbench run in ``tree``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=str(tree), env=env, capture_output=True, text=True,
                          timeout=10 * RUN_SECONDS + 300)
    if proc.returncode != 0:
        raise RuntimeError("%s in %s exited %d: %s" % (workload, tree, proc.returncode,
                                                        proc.stderr))
    if any(tree.rglob("__pycache__")):
        raise RuntimeError("%s holds a __pycache__" % tree)
    lines = proc.stdout.splitlines()
    prov = json.loads(next(s.split(" ", 1)[1] for s in lines if s.startswith("provenance: ")))
    laps = next(int(s.split()[1].rstrip(",")) for s in lines if s.startswith("laps: "))
    return {"laps": laps, "final": json.loads(lines[-1])}, prov


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="commit of the parent tree")
    parser.add_argument("--change", required=True, help="commit of the changed tree")
    parser.add_argument("--workload", action="append", required=True,
                        help="a perfbench workload; repeat for several, run in the order given")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    benchmark = json.loads((REPO / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    revs = {s: subprocess.run(["git", "rev-parse", "--short", rev], cwd=str(REPO), check=True,
                              capture_output=True, text=True).stdout.strip()
            for s, rev in zip(SIDES, (args.parent, args.change))}
    doc = {
        "description": "perfbench --trace 0 --seconds %d --seed %d, %d alternating parent/change "
                       "pairs per workload (pair k runs the parent first when k is odd), each "
                       "tree a fresh git archive export of src/ and perfbench/ with no "
                       "__pycache__ and PYTHONDONTWRITEBYTECODE=1 (tools/bench_pairs.py)"
                       % (RUN_SECONDS, args.seed, PAIRS),
        "parent": revs["parent"],
        "change": revs["change"],
        "host": {},
        "summary": [],
        "src_sha256": {"how": "the src_sha256 of each tree's perfbench provenance line"},
        "runs": [],
    }
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {s: Path(tmp) / s for s in SIDES}
        for s in SIDES:
            export(revs[s], trees[s])
        for workload in args.workload:
            for pair in range(1, PAIRS + 1):
                for side in order(pair):
                    result, prov = bench(trees[side], workload, args.seed, env)
                    if doc["src_sha256"].setdefault(side, prov["src_sha256"]) != prov["src_sha256"]:
                        raise RuntimeError("the %s tree's source changed between runs" % side)
                    doc["host"] = {k: prov[k] for k in ("cpu_model", "nproc", "python")}
                    doc["runs"].append(dict(workload=workload, seed=args.seed, pair=pair,
                                            side=side, first=order(pair)[0], **result))
                    print("%s pair %d %s: %d laps, %s" % (
                        workload, pair, side, result["laps"],
                        {m: round(v["value"], 4) for m, v in result["final"]["metrics"].items()}),
                        flush=True)
                if pair > 1:  # a run cut short keeps every finished pair
                    doc["summary"] = summarize(doc["runs"], bounds)
                    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    for entry in doc["summary"]:
        ratios = {m: (v["ratio"], v["change_wins"], v["verdict"])
                  for m, v in entry["metrics"].items()}
        print(entry["workload"], ratios)
    return 0


if __name__ == "__main__":
    sys.exit(main())
