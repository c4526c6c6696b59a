"""Self-tests for the benchmark's own logic.

Run from the repository root:

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import leibnizlat  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

GOLDEN_SEED7 = "fa52b6927f29aeceb341d81805f32f0a9902683be24987c4c9ad786adf3c8537"


def corpus_names():
    """The corpus algebra names, from the pins: members, three basis copies each, dim-2 sweep."""
    names = []
    for member in oracles.CORPUS_STATUS:
        if member.startswith("dim2_"):
            continue
        names.append(member)
        names += ["%s@basis%d" % (member, v) for v in (1, 2, 3)]
    return names + [m for m in oracles.CORPUS_STATUS if m.startswith("dim2_")]


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans_subtract_children(self):
        # root [0, 10] > a [1, 4] > b [2, 3]; root > c [5, 9]
        tracer = spans.Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 9, 10]))
        tracer.enter("bench.lap")
        tracer.enter("lattice.a")
        tracer.enter("algebra.b")
        tracer.exit()
        tracer.exit()
        tracer.enter("verify.c")
        tracer.exit()
        tracer.exit()
        self.assertEqual(tracer.self_s[("algebra.b", "lattice.a")], 1)
        self.assertEqual(tracer.self_s[("lattice.a", "bench.lap")], 2)
        self.assertEqual(tracer.self_s[("verify.c", "bench.lap")], 4)
        self.assertEqual(tracer.self_s[("bench.lap", None)], 3)
        self.assertEqual(tracer.total_seconds(), 10)
        self.assertEqual(
            tracer.self_by_layer(), {"bench": 3, "lattice": 2, "algebra": 1, "verify": 4}
        )
        parents = {name: parent for _, parent, name, _, _ in tracer.spans}
        ids = {name: span_id for span_id, _, name, _, _ in tracer.spans}
        self.assertEqual(parents["algebra.b"], ids["lattice.a"])
        self.assertIsNone(parents["bench.lap"])


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 21))
        self.assertEqual(run.percentile(values, 50), 10)
        self.assertEqual(run.percentile(values, 95), 19)
        self.assertEqual(run.percentile(values, 100), 20)
        self.assertEqual(run.percentile([7.5], 95), 7.5)
        self.assertEqual(run.percentile([3, 1, 2], 50), 2)
        with self.assertRaises(ValueError):
            run.percentile([], 50)


class CorpusOracleTest(unittest.TestCase):
    def test_pins_reproduce_golden_hash(self):
        names = corpus_names()
        self.assertEqual(len(names), 305)
        text = oracles.render_report(oracles.expected_summary(names, 7))
        self.assertEqual(oracles.sha256(text), GOLDEN_SEED7)
        for seed, digest in oracles.CORPUS_REPORT_SHA256.items():
            text = oracles.render_report(oracles.expected_summary(names, seed))
            self.assertEqual(oracles.sha256(text), digest, seed)

    def test_corrupted_report_is_flagged(self):
        names = corpus_names()[:40]
        good = oracles.render_report(oracles.expected_summary(names, 3))
        self.assertEqual(oracles.corpus_report_mismatches(good, names, 3), (18, 0, []))
        bad = good.replace('"pass": ', '"pass": 1', 1)
        ops, failed, problems = oracles.corpus_report_mismatches(bad, names, 3)
        self.assertEqual((ops, failed), (18, 2))
        self.assertIn("report sha256", problems[-1])

    def test_whole_corpus_hash_mismatch_is_flagged(self):
        names = corpus_names()
        workload = workloads.Corpus.__new__(workloads.Corpus)
        workload.seed = 7
        workload.algebras = [type("A", (), {"name": n})() for n in names]
        quarters = [[], [], [], []]
        for n in names:
            variant = n.partition("@basis")[2]
            quarters[int(variant) if variant else 0].append(n)
        laps = []
        for q in quarters:
            summary = oracles.expected_summary(q, 7)
            laps.append(workloads.Lap(outputs=[(q, summary, None, None)]))
        self.assertEqual(workload.check_whole(laps), (1, 0, []))
        laps[2].outputs[0][1]["checks"]["lem-two"]["pass"] += 1
        attempted, failed, problems = workload.check_whole(laps)
        self.assertEqual((attempted, failed), (1, 1))
        self.assertIn(GOLDEN_SEED7, problems[0])


class LatticeOracleTest(unittest.TestCase):
    def lap_for(self, key, pin):
        results = {
            "enumerate_subalgebras": pin.nodes,
            "lattice_stats": {
                "nodes": pin.nodes,
                "height": pin.height,
                "atoms": pin.atoms,
                "coatoms": pin.coatoms,
            },
            "is_modular": pin.modular,
            "is_upper_semimodular": pin.usm,
            "is_lower_semimodular_lattice": pin.lsm,
            "all_subalgebras_wqi": pin.all_wqi,
            "frattini_ideal": pin.frattini_dim,
            "export_dot": "".join('  n%d [label="x"];\n' % i for i in range(pin.nodes))
            + "  n0 -> n1;\n" * pin.covers,
        }
        return workloads.Lap(outputs=[(key, results, None)])

    def test_wrong_node_count_is_flagged(self):
        workload = workloads.DenseLattice.__new__(workloads.DenseLattice)
        key = "abelian(3)/F7"
        pin = oracles.LATTICE_PINS[key]
        self.assertEqual(workload.check(self.lap_for(key, pin)), (8, 0, []))
        attempted, failed, problems = workload.check(
            self.lap_for(key, pin._replace(nodes=pin.nodes + 1))
        )
        self.assertEqual((attempted, failed), (8, 3))
        self.assertTrue(all("pinned" in p for p in problems))


class TracedLibraryTest(unittest.TestCase):
    def traced_run(self):
        f3 = leibnizlat.Field.prime(3)
        l = leibnizlat.catalog.cyclic_solvable(3, f3)
        tracer = spans.Tracer()
        with spans.installed(tracer, leibnizlat), tracer.span("bench.lap"):
            lat = leibnizlat.lattice.enumerate_subalgebras(l)
            leibnizlat.verify.run_suite([l])
        return tracer, lat

    def test_counters_repeat_and_originals_return(self):
        before = leibnizlat.linalg.rref, leibnizlat.verify.CHECKS["lem-two"]
        first, lat = self.traced_run()
        second, _ = self.traced_run()
        self.assertEqual(dict(first.counts), dict(second.counts))
        self.assertEqual(dict(first.calls), dict(second.calls))
        self.assertEqual(first.nodes, 2 * len(lat.nodes))
        self.assertEqual((leibnizlat.linalg.rref, leibnizlat.verify.CHECKS["lem-two"]), before)
        # one filter test per subspace of F_3^3: 1 + 13 + 13 + 1
        enum = "lattice.enumerate_subalgebras"
        self.assertEqual(first.calls[("algebra.product_space", enum)], 2 * 28)
        self.assertGreater(first.total_self("verify.lem-two"), 0)
        self.assertAlmostEqual(sum(first.self_by_layer().values()), first.total_seconds())


class RationalOracleTest(unittest.TestCase):
    def test_basis_change_oracle(self):
        q = leibnizlat.Field.rational()
        base = leibnizlat.catalog.cyclic_solvable(4, q)
        rng = workloads.random.Random(1)
        p_matrix = workloads._integer_basis(4, rng)
        changed = base.change_of_basis(p_matrix)
        self.assertTrue(workloads._is_basis_change(base, changed, p_matrix))
        self.assertFalse(workloads._is_basis_change(base, base, p_matrix))
        # a signed permutation of the rows of the all-ones upper triangular matrix
        self.assertEqual(sorted(sum(abs(x) for x in row) for row in p_matrix), [1, 2, 3, 4])


if __name__ == "__main__":
    unittest.main()
