"""Machine-checkable renderings of the named results, run over algebra corpora.

``CHECKS`` is built from one table of ``(id, hypotheses, conclusion)`` rows.
A hypothesis is a ``(name, test)`` pair whose test takes the
``AlgebraAnalysis``.  The hypotheses run in order, each only after the
earlier ones hold; the first that fails makes the report not_applicable with
detail "hypothesis failed: <name>", and the conclusion is never evaluated.
A conclusion takes the analysis and returns None on a pass, or
``(detail, witness)`` on a fail.  To add a check, add a row; a quantity that
several checks read belongs on ``AlgebraAnalysis``, so it is computed once
per algebra.  The checks verify conclusions of proved results, so a fail on
a shipped corpus indicates an implementation bug and the witness localizes
it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from typing import Dict, List, Optional, Sequence

from .linalg import BudgetExceeded, Field, Subspace
from .algebra import LeibnizAlgebra, Quotient
from . import lattice as lat_mod

ALMOST_OR_ABELIAN = {"abelian", "almost_abelian_lie", "almost_abelian_nonlie"}

DEFAULT_SCAN_BUDGET = 10 ** 6
DEFAULT_ELEMENTWISE_BUDGET = 10 ** 4


@dataclass
class TheoremReport:
    algebra: str
    check_id: str
    status: str  # pass | fail | not_applicable
    detail: str = ""
    witness: object = None

    def to_dict(self) -> dict:
        return {
            "algebra": self.algebra,
            "check": self.check_id,
            "status": self.status,
            "detail": self.detail,
            "witness": _jsonable(self.witness),
        }


def _jsonable(obj):
    if obj is None:
        return None
    if isinstance(obj, Subspace):
        return {
            "dim": obj.dim,
            "basis": [[Field.format_scalar(x) for x in row] for row in obj.basis],
        }
    if isinstance(obj, (tuple, list)):
        if obj and all(isinstance(x, (int, Fraction)) for x in obj):
            return [Field.format_scalar(x) for x in obj]
        return [_jsonable(x) for x in obj]
    if isinstance(obj, (int, Fraction)):
        return Field.format_scalar(obj)
    return str(obj)


class AlgebraAnalysis:
    """Lazy per-algebra cache shared by all checks."""

    def __init__(
        self,
        algebra: LeibnizAlgebra,
        scan_budget: int = DEFAULT_SCAN_BUDGET,
        elementwise_budget: int = DEFAULT_ELEMENTWISE_BUDGET,
        node_budget: int = lat_mod.DEFAULT_NODE_BUDGET,
    ):
        self.algebra = algebra
        self.scan_budget = scan_budget
        self.elementwise_budget = elementwise_budget
        self.node_budget = node_budget
        self._quotients: Dict[tuple, Quotient] = {}  # L/I by the basis of I, filled on demand
        self._quotient_shapes: Dict[tuple, str] = {}  # the shape of L/I, likewise
        self._lattice_error: Optional[BudgetExceeded] = None

    @cached_property
    def lattice(self):
        """Built at most once: an over-budget build keeps its error and raises it again."""
        if self._lattice_error is None:
            try:
                return lat_mod.enumerate_subalgebras(self.algebra, node_budget=self.node_budget)
            except BudgetExceeded as exc:
                self._lattice_error = exc
        raise self._lattice_error.with_traceback(None)

    @cached_property
    def solvable(self) -> bool:
        return self.algebra.is_solvable()[0]

    @cached_property
    def modular(self):
        return lat_mod.modular_verdict(self.lattice, self.usm.holds and self.lsm.holds)

    @cached_property
    def usm(self):
        return lat_mod.is_upper_semimodular(self.lattice)

    @cached_property
    def lsm(self):
        return lat_mod.is_lower_semimodular_lattice(self.lattice)

    @cached_property
    def wqi_all(self):
        return lat_mod.all_subalgebras_wqi(self.algebra, self.lattice)

    @cached_property
    def kernel(self) -> Subspace:
        return self.algebra.leibniz_kernel()

    @cached_property
    def frattini(self) -> Subspace:
        return lat_mod.frattini_ideal(self.algebra, self.lattice)

    @cached_property
    def j_subalgebra(self) -> Subspace:
        return lat_mod.join_of_atoms(self.lattice)

    @cached_property
    def j_shape(self) -> str:
        return self.algebra.restrict(self.j_subalgebra).classify_shape()

    @cached_property
    def shape(self) -> str:
        return self.algebra.classify_shape()

    @cached_property
    def symmetric(self) -> bool:
        return self.algebra.is_symmetric()

    @cached_property
    def symmetric_shape(self) -> Optional[str]:
        return symmetric_modular_shape(self)

    def quotient(self, ideal: Subspace) -> Quotient:
        """L/ideal, built at most once per ideal."""
        if ideal.basis not in self._quotients:
            self._quotients[ideal.basis] = self.algebra.quotient(ideal)
        return self._quotients[ideal.basis]

    def quotient_shape(self, ideal: Subspace) -> str:
        """The shape of L/ideal, classified at most once per ideal."""
        if ideal.basis not in self._quotient_shapes:
            self._quotient_shapes[ideal.basis] = self.quotient(ideal).algebra.classify_shape()
        return self._quotient_shapes[ideal.basis]

    @cached_property
    def square_zero_lines(self) -> List[tuple]:
        """The monic square-zero vectors, one per line: the atoms, in node order."""
        lat = self.lattice
        return [lat.nodes[i].basis[0] for i in lat.atoms()]

    def generated_by_square_zero_lines(self, count: int) -> bool:
        """Some ``count`` square-zero lines generate L: the join of their atoms is the top."""
        lat = self.lattice
        top = len(lat) - 1
        return any(
            reduce(lat.join_index, combo) == top
            for combo in itertools.combinations(lat.atoms(), count)
        )

    @cached_property
    def generators(self) -> List[tuple]:
        """The monic v with <v> = L, in line order: the lines whose cyclic node is the top."""
        lat = self.lattice  # its error comes first, then the line budget's
        lines = list(self.algebra.monic_lines(self.scan_budget))
        return [v for v, i in zip(lines, lat.cyclic_of_lines()) if i == len(lat) - 1]

    @cached_property
    def cyclic_generator(self):
        """A monic generator of the whole algebra, or None."""
        return self.generators[0] if self.generators else None

    def cyclic_canonical_form(self) -> Optional[str]:
        """'nilpotent' or 'solvable' if some generator has the canonical power table.
        As (sv)^k = s^k v^k, some s != 0 has (sv)^(n+1) = (sv)^n iff v^(n+1) is a
        nonzero multiple of v^n, so one power sequence per line decides it. For a
        generator v, the powers v, ..., v^n already span <v> = L."""
        l = self.algebra
        n = l.dim
        for v in self.generators:
            powers = [v]
            for _ in range(n):
                powers.append(l.bracket(powers[-1], v))
            if not any(powers[n]):
                return "nilpotent"
            if Subspace.span(l.field, n, powers[n - 1:]).dim == 1:
                return "solvable"
        return None


# -- modular symmetric shape detection ---------------------------------------------


def symmetric_modular_shape(a: AlgebraAnalysis) -> Optional[str]:
    """Which of the four modular symmetric shapes the algebra matches, if any.

    The extraspecial detector (shape iii) is a documented assumption: L^2
    one-dimensional and central, which makes L nilpotent of class 2 (L^3 = 0).
    """
    l = a.algebra
    if l.is_lie():
        return {"abelian": "i", "almost_abelian_lie": "ii"}.get(a.shape)
    full = l.full_subspace()
    l2 = l.product_space(full, full)
    center = l.center()
    if l2.dim == 1 and l2.leq(center):
        j = a.j_subalgebra
        if l.product_space(j, j).dim == 0 and l.is_ideal(j):
            return "iii"
    if (
        center.dim == 1
        and center == a.kernel
        and a.quotient_shape(center) == "almost_abelian_lie"
    ):
        return "iv"
    return None


# -- the check table -------------------------------------------------------


def _check(check_id, hypotheses, conclusion):
    """The callable for one table row: hypotheses in order, then the conclusion."""

    def run(a: AlgebraAnalysis) -> TheoremReport:
        name = a.algebra.name
        # each test runs only after the earlier hypotheses hold
        for hypothesis, test in hypotheses:
            if not test(a):
                detail = "hypothesis failed: %s" % hypothesis
                return TheoremReport(name, check_id, "not_applicable", detail)
        failure = conclusion(a)
        if failure is None:
            return TheoremReport(name, check_id, "pass")
        return TheoremReport(name, check_id, "fail", *failure)

    return run


def _nonabelian(a):
    full = a.algebra.full_subspace()
    return a.algebra.product_space(full, full).dim > 0


def _element_scan_fits(a):
    f = a.algebra.field
    return f.is_prime_field and f.p ** (2 * a.algebra.dim) <= a.elementwise_budget


def _proper_subalgebras_1dim(a):
    return all(s.dim == 1 for s in a.lattice.nodes if 0 < s.dim < a.algebra.dim)


def _generated_by_lines(count, words):
    return (
        "generated by %s distinct square-zero lines" % words,
        lambda a: len(a.square_zero_lines) >= count and a.generated_by_square_zero_lines(count),
    )


def _covered_family(*families):
    return ("built by a covered family constructor", lambda a: a.algebra.family in families)


# Hypotheses: (name, test), the test taking the AlgebraAnalysis.
_SOLVABLE = ("solvable", lambda a: a.solvable)
_USM = ("upper semi-modular", lambda a: a.usm.holds)
_ODD_CHARACTERISTIC = ("characteristic != 2", lambda a: a.algebra.field.characteristic != 2)
_ALL_WQI = ("all subalgebras WQI", lambda a: a.wqi_all.holds)
_J_ALMOST_ABELIAN = (
    "J almost abelian",
    lambda a: a.j_shape in ("almost_abelian_lie", "almost_abelian_nonlie"),
)
_NONABELIAN = ("non-abelian", _nonabelian)
_DIM_AT_LEAST_2 = ("dim >= 2", lambda a: a.algebra.dim >= 2)
_PROPER_1DIM = ("all proper nonzero subalgebras 1-dim", _proper_subalgebras_1dim)
_PHI_IN_KERNEL = ("phi(L) <= I", lambda a: a.frattini.leq(a.kernel))
_ELEMENT_SCAN = ("element-scan budget", _element_scan_fits)
_CYCLIC = ("cyclic", lambda a: a.cyclic_generator is not None)
_PHI_NONZERO = ("phi(L) != 0", lambda a: a.frattini.dim > 0)
_SYMMETRIC = ("symmetric", lambda a: a.symmetric)
_SYMMETRIC_SHAPE = ("matches a modular symmetric shape", lambda a: a.symmetric_shape is not None)


# Conclusions: each returns None when it holds, else (detail, witness).


def _j_almost_or_abelian(a):
    if a.j_shape not in ALMOST_OR_ABELIAN:
        return "J has shape %s" % a.j_shape, a.j_subalgebra


def _kernel_quotient_almost_or_abelian(a):
    tag = a.quotient_shape(a.kernel)
    if tag not in ALMOST_OR_ABELIAN:
        return "L/I has shape %s" % tag, a.kernel


def _j_is_everything(a):
    if a.j_subalgebra.dim != a.algebra.dim:
        return "J is proper", a.j_subalgebra


def _j_is_ideal(a):
    if not a.algebra.is_ideal(a.j_subalgebra):
        return "J is not an ideal", a.j_subalgebra


def _j_is_span(a):
    l = a.algebra
    span = Subspace.span(l.field, l.dim, a.square_zero_lines)
    if span != a.j_subalgebra:
        return "span of square-zero elements is not J", span


def _dim_two(a):
    if a.algebra.dim != 2:
        return "dim L = %d" % a.algebra.dim, None


def _centerless(a):
    center = a.algebra.center()
    if center.dim > 0:
        return "center is nonzero", center


def _dim_two_lie_or_cyclic(a):
    l = a.algebra
    if not (l.dim == 2 and (l.is_lie() or a.cyclic_generator is not None)):
        return "dim L = %d" % l.dim, None


def _kernel_passes_to_quotient(a):
    l = a.algebra
    quotient, project = a.quotient(a.frattini)
    projected = Subspace.span(l.field, quotient.dim, [project(b) for b in a.kernel.basis])
    if quotient.leibniz_kernel() != projected:
        return "kernel of L/phi != I/phi", projected


def _elementwise_agrees(a):
    elementwise = lat_mod.wqi_elementwise(a.algebra, a.lattice, budget=a.elementwise_budget)
    if elementwise.holds != a.wqi_all.holds:
        detail = "elementwise %s vs subalgebra-level %s" % (elementwise.holds, a.wqi_all.holds)
        return detail, elementwise.witness or a.wqi_all.witness


def _phi_quotient_almost_or_abelian(a):
    tag = a.quotient_shape(a.frattini)
    if tag not in ALMOST_OR_ABELIAN:
        return "L/phi has shape %s" % tag, a.frattini


def _canonical_form_iff_wqi(a):
    matches = a.cyclic_canonical_form() is not None
    if matches != a.wqi_all.holds:
        return "canonical form match %s vs all-WQI %s" % (matches, a.wqi_all.holds), None


def _kernel_meets_phi(a):
    if a.kernel.intersection(a.frattini).dim == 0:
        return "I ^ phi(L) = 0", a.frattini


def _all_wqi_with_phi_quotient(expected_shape):
    def conclusion(a):
        if not a.wqi_all.holds:
            return "not all subalgebras are WQI", a.wqi_all.witness
        tag = a.quotient_shape(a.frattini)
        if tag != expected_shape:
            return "L/phi has shape %s, expected %s" % (tag, expected_shape), None

    return conclusion


def _conditions_agree(a):
    verdicts = (a.modular.holds, a.usm.holds, a.wqi_all.holds)
    if len(set(verdicts)) > 1:
        witness = a.modular.witness or a.usm.witness or a.wqi_all.witness
        return "modular=%s usm=%s wqi=%s" % verdicts, witness


def _modular(a):
    if not a.modular.holds:
        return "not modular", a.modular.witness


CHECKS = {
    check_id: _check(check_id, hypotheses, conclusion)
    for check_id, hypotheses, conclusion in [
        ("thm-abalab", [_SOLVABLE, _USM], _j_almost_or_abelian),
        ("prop-usm2", [_SOLVABLE, _USM], _kernel_quotient_almost_or_abelian),
        ("thm-alab", [_SOLVABLE, _USM, _J_ALMOST_ABELIAN], _j_is_everything),
        ("thm-ideal", [_SOLVABLE, _USM, _ODD_CHARACTERISTIC], _j_is_ideal),
        ("cor-J-span", [_SOLVABLE, _USM], _j_is_span),
        ("lem-two", [_SOLVABLE, _USM, _generated_by_lines(2, "two")], _dim_two),
        (
            "lem-three",
            [_SOLVABLE, _USM, _NONABELIAN, _generated_by_lines(3, "three")],
            _centerless,
        ),
        ("lem-1dim", [_SOLVABLE, _DIM_AT_LEAST_2, _PROPER_1DIM], _dim_two_lie_or_cyclic),
        ("lem-kernel", [_PHI_IN_KERNEL], _kernel_passes_to_quotient),
        ("lem-qi", [_ELEMENT_SCAN], _elementwise_agrees),
        ("lem-wqi-phi", [_ALL_WQI], _phi_quotient_almost_or_abelian),
        ("lem-cyclic", [_CYCLIC], _canonical_form_iff_wqi),
        ("lem-int", [_ALL_WQI, _PHI_NONZERO], _kernel_meets_phi),
        (
            "thm-nonlie-suff",
            [_covered_family("almost_abelian_nonlie", "family_nonlie_ii")],
            _all_wqi_with_phi_quotient("almost_abelian_nonlie"),
        ),
        (
            "thm-sqrt-suff",
            [_covered_family("almost_abelian_lie", "family_sqrt"), _ODD_CHARACTERISTIC],
            _all_wqi_with_phi_quotient("almost_abelian_lie"),
        ),
        ("rem-equiv", [_SOLVABLE], _conditions_agree),
        ("thm-sym-suff", [_SYMMETRIC, _SYMMETRIC_SHAPE], _modular),
    ]
}


def run_check(check_id: str, l, analysis: Optional[AlgebraAnalysis] = None) -> TheoremReport:
    if check_id not in CHECKS:
        raise ValueError("unknown check id %r" % check_id)
    if analysis is None:
        analysis = AlgebraAnalysis(l)
    try:
        return CHECKS[check_id](analysis)
    except BudgetExceeded as exc:
        return TheoremReport(l.name, check_id, "not_applicable", "budget: %s" % exc)


def run_suite(
    algebras: Sequence[LeibnizAlgebra],
    check_ids: Optional[Sequence[str]] = None,
    scan_budget: int = DEFAULT_SCAN_BUDGET,
    elementwise_budget: int = DEFAULT_ELEMENTWISE_BUDGET,
) -> dict:
    """Run checks over a corpus; any fail is a hard suite failure. A repeated id
    runs once, at its first place."""
    ids = list(dict.fromkeys(check_ids or CHECKS))
    summary: Dict[str, dict] = {
        cid: {"pass": 0, "fail": 0, "not_applicable": 0, "failures": []} for cid in ids
    }
    notes: List[str] = []
    for l in algebras:
        analysis = AlgebraAnalysis(
            l, scan_budget=scan_budget, elementwise_budget=elementwise_budget
        )
        for cid in ids:
            report = run_check(cid, l, analysis)
            entry = summary[cid]
            entry[report.status] += 1
            if report.status == "fail":
                entry["failures"].append(report.to_dict())
        # report-only: modular symmetric algebras outside the classified shapes
        try:
            if (
                analysis.symmetric
                and analysis.modular.holds
                and analysis.symmetric_shape is None
            ):
                notes.append(
                    "modular symmetric algebra outside the classified shapes: %s" % l.name
                )
        except BudgetExceeded:
            pass
    return {
        "algebras": len(algebras),
        "checks": summary,
        "notes": notes,
        "ok": all(entry["fail"] == 0 for entry in summary.values()),
    }
