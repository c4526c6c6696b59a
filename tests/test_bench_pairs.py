"""The summary arithmetic of tools/bench_pairs.py, on hand-made runs."""

import importlib.util
import pathlib

import pytest

_PATH = pathlib.Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def _run(pair, side, wall, rss, laps, failed=0):
    metrics = {"wall_s": {"value": wall, "unit": "s"}, "peak_rss_mb": {"value": rss, "unit": "MB"}}
    return {
        "workload": "sparse-lattice", "seed": 7, "pair": pair, "side": side,
        "first": bench_pairs.order(pair)[0], "laps": laps,
        "final": {"correct": True, "attempted": 40, "failed": failed, "metrics": metrics},
    }


def test_pairs_alternate_their_first_side():
    assert [bench_pairs.order(k)[0] for k in (1, 2, 3, 4)] == ["parent", "change"] * 2
    assert bench_pairs.order(2) == ("change", "parent")


def test_summary_of_four_pairs():
    parent = [1.0, 2.0, 3.0, 4.0]
    change = [0.5, 2.5, 2.0, 4.0]  # pair 4 is a tie, which the change does not win
    runs = []
    for k in range(4):
        sides = {"parent": (parent[k], 30.0, 100 + k), "change": (change[k], 30.0 + k, 90 - k)}
        for side in bench_pairs.order(k + 1):
            wall, rss, laps = sides[side]
            failed = int(side == "change" and k == 3)
            runs.append(_run(k + 1, side, wall, rss, laps, failed))
    (entry,) = bench_pairs.summarize(runs, {"wall_s": 0.24, "peak_rss_mb": 0.05})
    assert entry["pairs"] == 4 and entry["seed"] == 7
    assert entry["metrics"]["wall_s"] == {
        "parent_median": 2.5,
        "parent_quartiles": [1.75, 3.25],  # inclusive: the sorted values' linear quartiles
        "change_median": 2.25,
        "change_quartiles": [1.625, 2.875],
        "ratio": 0.9,
        "bound": 0.24,
        "change_wins": "2/4",
        "gap_exceeds_parent_iqr": False,  # 0.25 against 1.5
    }
    rss = entry["metrics"]["peak_rss_mb"]  # the parent's flat 30.0 has no spread
    assert (rss["parent_median"], rss["change_median"], rss["ratio"]) == (30.0, 31.5, 1.05)
    assert rss["change_wins"] == "0/4" and rss["gap_exceeds_parent_iqr"] is True
    assert entry["laps"] == {"parent": [100, 101, 102, 103], "change": [87, 88, 89, 90]}
    assert entry["failed_share"] == {"parent": "0/160", "change": "1/160"}
    assert entry["correct"] is True


def test_unpaired_runs_are_refused():
    runs = [_run(1, "parent", 1.0, 30.0, 10), _run(2, "change", 1.0, 30.0, 10)]
    with pytest.raises(ValueError, match="unpaired"):
        bench_pairs.summarize(runs, {"wall_s": 0.24})
