"""The four benchmark workloads.

A workload builds its inputs from the seed (set-up), then runs laps. A lap is
a fixed amount of work whose composition is the same on every lap and every
seed; only the random bases change. ``run`` times the library calls and
nothing else, and ``check`` compares the outputs with the pinned oracles
afterwards, outside the timed region.

Each ``run`` returns a ``Lap``: per-algebra seconds keyed by the algebra the
lap item stands for, and the raw outputs that ``check`` needs. ``check``
returns (operations attempted, operations failed, problems). A problem is an
oracle mismatch or an unexpected exception and makes the run incorrect; a
failure without a problem is a known, documented defect that is counted but
expected.
"""

from __future__ import annotations

import random
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Tuple

import oracles


@dataclass
class Lap:
    items: List[Tuple[str, float]] = field(default_factory=list)  # (key, seconds)
    outputs: list = field(default_factory=list)


def _error(exc: BaseException) -> str:
    frame = traceback.extract_tb(exc.__traceback__)[-1]
    return "%s: %s (%s:%d)" % (type(exc).__name__, exc, frame.filename, frame.lineno)


class _Workload:
    name = ""

    def __init__(self, pkg, seed: int):
        self.pkg, self.seed = pkg, seed
        self.build_inputs()

    def build_inputs(self):
        """Build everything the laps need from the seed; this is the timed set-up."""
        raise NotImplementedError


class _Stamped(list):
    """A list that timestamps each element as the consumer takes it."""

    def __iter__(self):
        self.stamps = []
        for item in list.__iter__(self):
            self.stamps.append(time.perf_counter())
            yield item
        self.stamps.append(time.perf_counter())


# -- corpus -------------------------------------------------------------------


class Corpus(_Workload):
    """``leibnizlat verify --corpus --seed S --json``, one corpus quarter per lap.

    The corpus holds each member once in its catalog basis and three times in
    seeded random bases, plus the F_2 dim-2 sweep. Lap k runs quarter k mod 4:
    quarter 0 is the catalog bases and the sweep, quarter v the ``@basis v``
    copies, so every lap has the same members and the same cost mix as the
    whole corpus. The verdicts do not depend on the order of the algebras.
    Four consecutive laps are the whole corpus; their merged report is also
    checked against the pinned report hash.
    """

    name = "corpus"

    def build_inputs(self):
        self.algebras = self.pkg.catalog.corpus(self.seed)
        self.quarters = [[], [], [], []]
        for l in self.algebras:
            variant = l.name.partition("@basis")[2]
            self.quarters[int(variant) if variant else 0].append(l)

    def lap_inputs(self, k: int):
        # Shuffled so that the many millisecond-scale algebras are spread over
        # the lap instead of sampling one short stretch of machine noise.
        quarter = list(self.quarters[k % 4])
        random.Random("%s:%d:%d" % (self.name, self.seed, k)).shuffle(quarter)
        return quarter

    def run(self, algebras) -> Lap:
        verify, specfile = self.pkg.verify, self.pkg.specfile
        lap = Lap()
        seq = _Stamped(algebras)
        try:
            summary = verify.run_suite(seq)
            summary["seed"] = self.seed
            text = specfile.export_json_report(summary)
            error = None
        except Exception as exc:  # a failed operation is counted, not fatal
            summary, text, error = None, None, _error(exc)
        stamps = getattr(seq, "stamps", [])
        for i in range(len(stamps) - 1):
            lap.items.append((oracles.member_of(algebras[i].name), stamps[i + 1] - stamps[i]))
        lap.outputs.append(([l.name for l in algebras], summary, text, error))
        return lap

    def check(self, lap: Lap):
        attempted = failed = 0
        problems = []
        for names, summary, text, error in lap.outputs:
            if error is not None:
                attempted += len(oracles.CHECK_IDS) + 1
                failed += len(oracles.CHECK_IDS) + 1
                problems.append("run_suite raised %s" % error)
                continue
            ops, bad, why = oracles.corpus_report_mismatches(text, names, self.seed)
            attempted += ops
            failed += bad
            problems += why
        return attempted, failed, problems

    def check_whole(self, laps: List[Lap]):
        """Merge four consecutive quarter reports and compare with the corpus hash."""
        if len(laps) < 4:
            return 0, 0, []
        merged = {"algebras": 0, "checks": {}, "notes": [], "ok": True, "seed": self.seed}
        for lap in laps[:4]:
            _, summary, _, error = lap.outputs[0]
            if error is not None:
                return 1, 1, ["whole corpus not checked: a quarter raised"]
            merged["algebras"] += summary["algebras"]
            merged["ok"] = merged["ok"] and summary["ok"]
            merged["notes"] += summary["notes"]
            for cid, entry in summary["checks"].items():
                into = merged["checks"].setdefault(
                    cid, {"pass": 0, "fail": 0, "not_applicable": 0, "failures": []}
                )
                for key in ("pass", "fail", "not_applicable"):
                    into[key] += entry[key]
                into["failures"] += entry["failures"]
        got = oracles.sha256(oracles.render_report(merged))
        want = oracles.expected_corpus_sha256([l.name for l in self.algebras], self.seed)
        if got != want:
            return 1, 1, ["whole-corpus report sha256 %s, pinned %s" % (got, want)]
        return 1, 0, []


# -- subalgebra lattices ----------------------------------------------------------


class _Lattice(_Workload):
    """The ``leibnizlat lattice`` pipeline on seeded basis changes of fixed algebras.

    The lattices have at most 200 nodes, so a lap takes about two seconds and
    a run has enough laps for its medians to hold still; the corpus already
    carries the 212-node lattices.
    """

    ALGEBRAS: Tuple[Tuple[str, tuple, int], ...] = ()  # (family, params, p)
    OPS = (
        "enumerate_subalgebras",
        "lattice_stats",
        "is_modular",
        "is_upper_semimodular",
        "is_lower_semimodular_lattice",
        "all_subalgebras_wqi",
        "frattini_ideal",
        "export_dot",
    )

    def build_inputs(self):
        catalog, field_ = self.pkg.catalog, self.pkg.linalg.Field
        self.bases = [
            catalog.FAMILIES[family][0](*params, field_.prime(p))
            for family, params, p in self.ALGEBRAS
        ]
        self.first = self._make_lap(0)

    def lap_inputs(self, k: int):
        return self.first if k == 0 else self._make_lap(k)

    def _make_lap(self, k: int):
        rng = random.Random("%s:%d:%d" % (self.name, self.seed, k))
        out = []
        for base in self.bases:
            p_matrix = self.pkg.catalog.random_invertible(base.field, base.dim, rng)
            out.append((base.name, base.change_of_basis(p_matrix)))
        return out

    def run(self, inputs) -> Lap:
        lattice, specfile = self.pkg.lattice, self.pkg.specfile
        lap = Lap()
        for key, l in inputs:
            results = {}
            error = None
            start = time.perf_counter()
            try:
                lat = lattice.enumerate_subalgebras(l)
                results["enumerate_subalgebras"] = len(lat.nodes)
                results["lattice_stats"] = lattice.lattice_stats(lat)
                results["is_modular"] = lattice.is_modular(lat).holds
                results["is_upper_semimodular"] = lattice.is_upper_semimodular(lat).holds
                results["is_lower_semimodular_lattice"] = lattice.is_lower_semimodular_lattice(
                    lat
                ).holds
                results["all_subalgebras_wqi"] = lattice.all_subalgebras_wqi(l, lat).holds
                results["frattini_ideal"] = lattice.frattini_ideal(l, lat).dim
                results["export_dot"] = specfile.export_dot(lat)
            except Exception as exc:  # a failed operation is counted, not fatal
                error = _error(exc)
            lap.items.append((key, time.perf_counter() - start))
            lap.outputs.append((key, results, error))
        return lap

    def check(self, lap: Lap):
        attempted = failed = 0
        problems = []
        for key, results, error in lap.outputs:
            pin = oracles.LATTICE_PINS[key]
            expected = {
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
                "export_dot": (pin.nodes, pin.covers),
            }
            if error is not None:
                problems.append("%s: %s" % (key, error))
            for op in self.OPS:
                attempted += 1
                if op not in results:
                    failed += 1
                    continue
                got = results[op]
                if op == "export_dot":
                    lines = got.splitlines()
                    got = (
                        sum(1 for s in lines if "[label=" in s),
                        sum(1 for s in lines if "->" in s),
                    )
                if got != expected[op]:
                    failed += 1
                    problems.append("%s %s: %r, pinned %r" % (key, op, got, expected[op]))
        return attempted, failed, problems


class DenseLattice(_Lattice):
    """Algebras in which every subspace is a subalgebra: every scan runs to the end."""

    name = "dense-lattice"
    ALGEBRAS = (
        ("almost_abelian_lie", (3,), 7),
        ("abelian", (3,), 7),
        ("almost_abelian_lie", (4,), 2),
        ("almost_abelian_lie", (3,), 5),
        ("abelian", (4,), 2),
    )


class SparseLattice(_Lattice):
    """Few subalgebras among many subspaces, or conditions that fail at once."""

    name = "sparse-lattice"
    ALGEBRAS = (
        ("cyclic_nilpotent", (4,), 7),
        ("cyclic_nilpotent", (4,), 5),
        ("cyclic_solvable", (4,), 5),
        ("heisenberg_lie", (), 13),
        ("heisenberg_lie", (), 11),
    )


# -- rational check / analyze -------------------------------------------------------


class RationalAnalyze(_Workload):
    """``check``, ``analyze`` and ``verify`` on algebras over Q in seeded integer bases.

    ``verify.run_suite`` over Q aborts with UnsupportedFieldError at this
    commit (ROADMAP item 4). Each abort is counted as a failed operation, so
    the error rate shows the defect until it is fixed.
    """

    name = "rational-analyze"
    ALGEBRAS = (
        ("heisenberg_lie", ()),
        ("extraspecial_plus_center", (2,)),
        ("cyclic_nilpotent", (5,)),
        ("family_sqrt", (2, 3)),
        ("cyclic_solvable", (6,)),
        ("symmetric_iv", (4,)),
        ("almost_abelian_lie", (7,)),
        ("almost_abelian_nonlie", (8,)),
        ("family_nonlie_ii", (3, 6)),
    )
    OPS = ("change_of_basis", "emit_spec", "parse_spec", "check", "analyze", "verify")
    KNOWN_ABORT = "UnsupportedFieldError"

    def build_inputs(self):
        q = self.pkg.linalg.Field.rational()
        self.bases = [
            self.pkg.catalog.FAMILIES[family][0](*params, q) for family, params in self.ALGEBRAS
        ]
        self.first = self._make_lap(0)

    def lap_inputs(self, k: int):
        return self.first if k == 0 else self._make_lap(k)

    def _make_lap(self, k: int):
        rng = random.Random("%s:%d:%d" % (self.name, self.seed, k))
        return [(base, _integer_basis(base.dim, rng)) for base in self.bases]

    def run(self, inputs) -> Lap:
        pkg = self.pkg
        lap = Lap()
        for base, p_matrix in inputs:
            results = {}
            error = None
            start = time.perf_counter()
            try:
                changed = base.change_of_basis(p_matrix)
                results["change_of_basis"] = changed
                text = pkg.specfile.emit_spec(changed)
                results["emit_spec"] = text
                parsed = pkg.specfile.parse_spec(text)
                results["parse_spec"] = parsed
                results["check"] = (
                    pkg.algebra.check_left_leibniz(parsed.field, parsed.table),
                    parsed.is_symmetric(),
                    parsed.is_lie(),
                )
                results["analyze"] = pkg.lattice.build_structure_report(parsed).to_dict()
                try:
                    results["verify"] = pkg.verify.run_suite([parsed])
                except Exception as exc:  # the known Q abort lands here
                    results["verify_error"] = (type(exc).__name__, _error(exc))
            except Exception as exc:  # a failed operation is counted, not fatal
                error = _error(exc)
            lap.items.append((base.name, time.perf_counter() - start))
            lap.outputs.append((base, p_matrix, results, error))
        return lap

    def check(self, lap: Lap):
        attempted = failed = 0
        problems = []
        for base, p_matrix, results, error in lap.outputs:
            key = base.name
            pin = oracles.RATIONAL_PINS[key]
            if error is not None:
                problems.append("%s: %s" % (key, error))
            attempted += len(self.OPS)
            bad = []
            changed = results.get("change_of_basis")
            if changed is None or not _is_basis_change(base, changed, p_matrix):
                bad.append("change_of_basis")
            text = results.get("emit_spec")
            parsed = results.get("parse_spec")
            if text is None or changed is None or '"dim": %d' % base.dim not in text:
                bad.append("emit_spec")
            if parsed is None or changed is None or parsed.table != changed.table:
                bad.append("parse_spec")
            want_check = (pin["is_symmetric"], pin["is_symmetric"], pin["is_lie"])
            if results.get("check") != want_check:
                bad.append("check")
            report = results.get("analyze")
            if report is None or any(report.get(k) != v for k, v in pin.items()):
                bad.append("analyze")
            failed += len(bad)
            problems += ["%s %s: differs from the pinned oracle" % (key, op) for op in bad]
            if "verify_error" in results:
                failed += 1
                kind, detail = results["verify_error"]
                if kind != self.KNOWN_ABORT:
                    problems.append("%s verify: %s" % (key, detail))
            elif "verify" in results:
                summary = results["verify"]
                if not summary.get("ok") or summary.get("algebras") != 1:
                    failed += 1
                    problems.append("%s verify: a check failed over Q" % key)
            else:
                failed += 1
        return attempted, failed, problems


def _integer_basis(n: int, rng: random.Random):
    """Rows of the all-ones upper triangular matrix, permuted and signed at random.

    The determinant is +-1 and every seed gives a table of the same density,
    so the seed changes the inputs but not how much work they take.
    """
    order = list(range(n))
    rng.shuffle(order)
    signs = [rng.choice((-1, 1)) for _ in range(n)]
    return tuple(tuple(s * int(j >= i) for j in range(n)) for i, s in zip(order, signs))


def _is_basis_change(base, changed, p_matrix) -> bool:
    """[f_i, f_j] = sum_k c'_ijk f_k with f_i = sum_m P[i][m] e_m, checked in the e basis."""
    n = base.dim
    if changed.dim != n:
        return False

    def bracket(x, y):
        out = [Fraction(0)] * n
        for a in range(n):
            if x[a]:
                for b in range(n):
                    if y[b]:
                        for k, c in enumerate(base.table[a][b]):
                            if c:
                                out[k] += x[a] * y[b] * c
        return out

    for i in range(n):
        for j in range(n):
            lhs = bracket(p_matrix[i], p_matrix[j])
            rhs = [Fraction(0)] * n
            for k, c in enumerate(changed.table[i][j]):
                if c:
                    for m in range(n):
                        rhs[m] += c * p_matrix[k][m]
            if lhs != rhs:
                return False
    return True


WORKLOADS = {w.name: w for w in (Corpus, DenseLattice, SparseLattice, RationalAnalyze)}
