"""Machine-checkable renderings of the named results, run over algebra corpora.

Each check is a hypothesis list plus a conclusion.  A check never evaluates
its conclusion when a hypothesis fails; it reports not_applicable with the
failed hypothesis.  The checks verify conclusions of proved results, so a
fail on a shipped corpus indicates an implementation bug and the witness
localizes it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from typing import Dict, List, Optional, Sequence

from .linalg import BudgetExceeded, Field, Subspace
from .algebra import LeibnizAlgebra
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
        self._cyclic: Dict[tuple, Subspace] = {}  # <v>, filled on demand

    @cached_property
    def lattice(self):
        return lat_mod.enumerate_subalgebras(self.algebra, node_budget=self.node_budget)

    @cached_property
    def solvable(self) -> bool:
        return self.algebra.is_solvable()[0]

    @cached_property
    def modular(self):
        # lattice.is_modular on the cached usm and lsm verdicts (Birkhoff)
        if self.usm.holds and self.lsm.holds:
            return lat_mod.Verdict(True, None)
        return lat_mod.Verdict(False, lat_mod.modular_witness(self.lattice))

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
        return self.algebra.subalgebra_closure(self.square_zero_lines)

    @cached_property
    def j_shape(self) -> str:
        return self.algebra.restrict(self.j_subalgebra).classify_shape().tag

    @cached_property
    def shape(self) -> str:
        return self.algebra.classify_shape().tag

    @cached_property
    def symmetric(self) -> bool:
        return self.algebra.is_symmetric()

    def quotient_shape(self, ideal: Subspace) -> str:
        return self.algebra.quotient(ideal).algebra.classify_shape().tag

    @cached_property
    def square_zero_lines(self) -> List[tuple]:
        return self.algebra.square_zero_lines(self.scan_budget)

    def generated_by_square_zero_lines(self, count: int) -> bool:
        """Some ``count`` square-zero lines generate L: their join is the top node."""
        lat, l = self.lattice, self.algebra
        # each line is monic, so (v,) is already the RREF basis of its 1-dim node
        lines = [lat.index_of(Subspace(l.field, l.dim, (v,))) for v in self.square_zero_lines]
        top = len(lat) - 1
        return any(
            reduce(lat.join_index, combo) == top
            for combo in itertools.combinations(lines, count)
        )

    def cyclic(self, v: tuple) -> Subspace:
        """The subalgebra <v>, closed at most once per vector."""
        if v not in self._cyclic:
            self._cyclic[v] = self.algebra.subalgebra_closure([v])
        return self._cyclic[v]

    @cached_property
    def cyclic_generator(self):
        """A monic generator of the whole algebra, or None."""
        if self.algebra.dim == 0:
            return None
        for v in self.algebra.monic_lines():
            if self.cyclic(v).dim == self.algebra.dim:
                return v
        return None

    def cyclic_canonical_form(self) -> Optional[str]:
        """'nilpotent' or 'solvable' if some generator has the canonical power table."""
        l = self.algebra
        n = l.dim
        scalars = [s for s in l.field.elements() if s]
        for rep in l.monic_lines():
            if self.cyclic(rep).dim != n:
                continue
            # x^(n+1) = x^n is not scale-invariant, so try every scaling
            for s in scalars:
                v = tuple(l.field.mul(s, x) for x in rep)
                powers = [v]
                for _ in range(n - 1):
                    powers.append(l.bracket(powers[-1], v))
                if Subspace.span(l.field, n, powers).dim != n:
                    continue
                nxt = l.bracket(powers[-1], v)
                if not any(nxt):
                    return "nilpotent"
                if nxt == powers[-1]:
                    return "solvable"
        return None


# -- modular symmetric shape detection ---------------------------------------------


def symmetric_modular_shape(a: AlgebraAnalysis) -> Optional[str]:
    """Which of the four modular symmetric shapes the algebra matches, if any.

    The extraspecial detector (shape iii) is a documented assumption:
    nilpotent of class <= 2 with Z(L) = L^2 one-dimensional.
    """
    l = a.algebra
    full = l.full_subspace()
    l2 = l.product_space(full, full)
    if l2.dim == 0 and l.is_lie():
        return "i"
    if l.is_lie() and a.shape == "almost_abelian_lie":
        return "ii"
    if not l.is_lie():
        nilp, cls = l.is_nilpotent()
        if (
            nilp
            and cls is not None
            and cls <= 2
            and l2.dim == 1
            and l2.leq(l.center())
        ):
            j = a.j_subalgebra
            if l.product_space(j, j).dim == 0 and l.is_ideal(j):
                return "iii"
        center = l.center()
        if (
            center.dim == 1
            and center == a.kernel
            and a.quotient_shape(center) == "almost_abelian_lie"
        ):
            return "iv"
    return None


# -- the check table -------------------------------------------------------


def _report(a, check_id, status, detail="", witness=None):
    return TheoremReport(a.algebra.name, check_id, status, detail, witness)


def _with_hypotheses(a, check_id, hypotheses, conclusion):
    # each test runs only after the earlier hypotheses hold
    for name, test in hypotheses:
        if not test(a):
            return _report(a, check_id, "not_applicable", "hypothesis failed: %s" % name)
    return conclusion()


_SOLVABLE = ("solvable", lambda a: a.solvable)
_USM = ("upper semi-modular", lambda a: a.usm.holds)
_ODD_CHARACTERISTIC = ("characteristic != 2", lambda a: a.algebra.field.characteristic != 2)
_ALL_WQI = ("all subalgebras WQI", lambda a: a.wqi_all.holds)


def _check_thm_abalab(a: AlgebraAnalysis) -> TheoremReport:
    def concl():
        if a.j_shape in ALMOST_OR_ABELIAN:
            return _report(a, "thm-abalab", "pass")
        return _report(a, "thm-abalab", "fail", "J has shape %s" % a.j_shape, a.j_subalgebra)

    return _with_hypotheses(a, "thm-abalab", [_SOLVABLE, _USM], concl)


def _check_prop_usm2(a: AlgebraAnalysis) -> TheoremReport:
    def concl():
        tag = a.quotient_shape(a.kernel)
        if tag in ALMOST_OR_ABELIAN:
            return _report(a, "prop-usm2", "pass")
        return _report(a, "prop-usm2", "fail", "L/I has shape %s" % tag, a.kernel)

    return _with_hypotheses(a, "prop-usm2", [_SOLVABLE, _USM], concl)


def _check_thm_alab(a: AlgebraAnalysis) -> TheoremReport:
    def concl():
        if a.j_subalgebra.dim == a.algebra.dim:
            return _report(a, "thm-alab", "pass")
        return _report(a, "thm-alab", "fail", "J is proper", a.j_subalgebra)

    return _with_hypotheses(
        a,
        "thm-alab",
        [
            _SOLVABLE,
            _USM,
            (
                "J almost abelian",
                lambda a: a.j_shape in ("almost_abelian_lie", "almost_abelian_nonlie"),
            ),
        ],
        concl,
    )


def _check_thm_ideal(a: AlgebraAnalysis) -> TheoremReport:
    def concl():
        if a.algebra.is_ideal(a.j_subalgebra):
            return _report(a, "thm-ideal", "pass")
        return _report(a, "thm-ideal", "fail", "J is not an ideal", a.j_subalgebra)

    return _with_hypotheses(a, "thm-ideal", [_SOLVABLE, _USM, _ODD_CHARACTERISTIC], concl)


def _check_cor_j_span(a: AlgebraAnalysis) -> TheoremReport:
    def concl():
        l = a.algebra
        span = Subspace.span(l.field, l.dim, a.square_zero_lines)
        if span == a.j_subalgebra:
            return _report(a, "cor-J-span", "pass")
        return _report(a, "cor-J-span", "fail", "span of square-zero elements is not J", span)

    return _with_hypotheses(a, "cor-J-span", [_SOLVABLE, _USM], concl)


def _check_lem_two(a: AlgebraAnalysis) -> TheoremReport:
    def concl():
        if a.algebra.dim == 2:
            return _report(a, "lem-two", "pass")
        return _report(a, "lem-two", "fail", "dim L = %d" % a.algebra.dim)

    return _with_hypotheses(
        a,
        "lem-two",
        [
            _SOLVABLE,
            _USM,
            (
                "generated by two distinct square-zero lines",
                lambda a: len(a.square_zero_lines) >= 2 and a.generated_by_square_zero_lines(2),
            ),
        ],
        concl,
    )


def _check_lem_three(a: AlgebraAnalysis) -> TheoremReport:
    def concl():
        if a.algebra.center().dim == 0:
            return _report(a, "lem-three", "pass")
        return _report(a, "lem-three", "fail", "center is nonzero", a.algebra.center())

    def nonabelian(a):
        full = a.algebra.full_subspace()
        return a.algebra.product_space(full, full).dim > 0

    return _with_hypotheses(
        a,
        "lem-three",
        [
            _SOLVABLE,
            _USM,
            ("non-abelian", nonabelian),
            (
                "generated by three distinct square-zero lines",
                lambda a: len(a.square_zero_lines) >= 3 and a.generated_by_square_zero_lines(3),
            ),
        ],
        concl,
    )


def _check_lem_1dim(a: AlgebraAnalysis) -> TheoremReport:
    def concl():
        l = a.algebra
        if l.dim == 2 and (l.is_lie() or a.cyclic_generator is not None):
            return _report(a, "lem-1dim", "pass")
        return _report(a, "lem-1dim", "fail", "dim L = %d" % l.dim)

    return _with_hypotheses(
        a,
        "lem-1dim",
        [
            _SOLVABLE,
            ("dim >= 2", lambda a: a.algebra.dim >= 2),
            (
                "all proper nonzero subalgebras 1-dim",
                lambda a: all(s.dim == 1 for s in a.lattice.nodes if 0 < s.dim < a.algebra.dim),
            ),
        ],
        concl,
    )


def _check_lem_kernel(a: AlgebraAnalysis) -> TheoremReport:
    def concl():
        l = a.algebra
        quotient, project = l.quotient(a.frattini)
        projected = Subspace.span(
            l.field, quotient.dim, [project(b) for b in a.kernel.basis]
        )
        if quotient.leibniz_kernel() == projected:
            return _report(a, "lem-kernel", "pass")
        return _report(a, "lem-kernel", "fail", "kernel of L/phi != I/phi", projected)

    return _with_hypotheses(
        a, "lem-kernel", [("phi(L) <= I", lambda a: a.frattini.leq(a.kernel))], concl
    )


def _check_lem_qi(a: AlgebraAnalysis) -> TheoremReport:
    l = a.algebra
    if (
        not l.field.is_prime_field
        or l.field.p ** (2 * l.dim) > a.elementwise_budget
    ):
        return _report(a, "lem-qi", "not_applicable", "hypothesis failed: element-scan budget")
    elementwise = lat_mod.wqi_elementwise(l, budget=a.elementwise_budget)
    if elementwise.holds == a.wqi_all.holds:
        return _report(a, "lem-qi", "pass")
    return _report(
        a,
        "lem-qi",
        "fail",
        "elementwise %s vs subalgebra-level %s" % (elementwise.holds, a.wqi_all.holds),
        elementwise.witness or a.wqi_all.witness,
    )


def _check_lem_wqi_phi(a: AlgebraAnalysis) -> TheoremReport:
    def concl():
        tag = a.quotient_shape(a.frattini)
        if tag in ALMOST_OR_ABELIAN:
            return _report(a, "lem-wqi-phi", "pass")
        return _report(a, "lem-wqi-phi", "fail", "L/phi has shape %s" % tag, a.frattini)

    return _with_hypotheses(a, "lem-wqi-phi", [_ALL_WQI], concl)


def _check_lem_cyclic(a: AlgebraAnalysis) -> TheoremReport:
    def concl():
        matches = a.cyclic_canonical_form() is not None
        if matches == a.wqi_all.holds:
            return _report(a, "lem-cyclic", "pass")
        return _report(
            a,
            "lem-cyclic",
            "fail",
            "canonical form match %s vs all-WQI %s" % (matches, a.wqi_all.holds),
        )

    return _with_hypotheses(
        a, "lem-cyclic", [("cyclic", lambda a: a.cyclic_generator is not None)], concl
    )


def _check_lem_int(a: AlgebraAnalysis) -> TheoremReport:
    def concl():
        if a.kernel.intersection(a.frattini).dim > 0:
            return _report(a, "lem-int", "pass")
        return _report(a, "lem-int", "fail", "I ^ phi(L) = 0", a.frattini)

    return _with_hypotheses(
        a, "lem-int", [_ALL_WQI, ("phi(L) != 0", lambda a: a.frattini.dim > 0)], concl
    )


def _family_sufficiency(a, check_id, families, expected_shape):
    def concl():
        if not a.wqi_all.holds:
            return _report(
                a, check_id, "fail", "not all subalgebras are WQI", a.wqi_all.witness
            )
        tag = a.quotient_shape(a.frattini)
        if tag != expected_shape:
            return _report(
                a, check_id, "fail", "L/phi has shape %s, expected %s" % (tag, expected_shape)
            )
        return _report(a, check_id, "pass")

    hyps = [("built by a covered family constructor", lambda a: a.algebra.family in families)]
    if check_id == "thm-sqrt-suff":
        hyps.append(_ODD_CHARACTERISTIC)
    return _with_hypotheses(a, check_id, hyps, concl)


def _check_thm_nonlie_suff(a: AlgebraAnalysis) -> TheoremReport:
    return _family_sufficiency(
        a,
        "thm-nonlie-suff",
        ("almost_abelian_nonlie", "family_nonlie_ii"),
        "almost_abelian_nonlie",
    )


def _check_thm_sqrt_suff(a: AlgebraAnalysis) -> TheoremReport:
    return _family_sufficiency(
        a, "thm-sqrt-suff", ("almost_abelian_lie", "family_sqrt"), "almost_abelian_lie"
    )


def _check_rem_equiv(a: AlgebraAnalysis) -> TheoremReport:
    def concl():
        verdicts = (a.modular.holds, a.usm.holds, a.wqi_all.holds)
        if len(set(verdicts)) == 1:
            return _report(a, "rem-equiv", "pass")
        return _report(
            a,
            "rem-equiv",
            "fail",
            "modular=%s usm=%s wqi=%s" % verdicts,
            a.modular.witness or a.usm.witness or a.wqi_all.witness,
        )

    return _with_hypotheses(a, "rem-equiv", [_SOLVABLE], concl)


def _check_thm_sym_suff(a: AlgebraAnalysis) -> TheoremReport:
    def concl():
        if a.modular.holds:
            return _report(a, "thm-sym-suff", "pass")
        return _report(a, "thm-sym-suff", "fail", "not modular", a.modular.witness)

    return _with_hypotheses(
        a,
        "thm-sym-suff",
        [
            ("symmetric", lambda a: a.symmetric),
            (
                "matches a modular symmetric shape",
                lambda a: symmetric_modular_shape(a) is not None,
            ),
        ],
        concl,
    )


CHECKS = {
    "thm-abalab": _check_thm_abalab,
    "prop-usm2": _check_prop_usm2,
    "thm-alab": _check_thm_alab,
    "thm-ideal": _check_thm_ideal,
    "cor-J-span": _check_cor_j_span,
    "lem-two": _check_lem_two,
    "lem-three": _check_lem_three,
    "lem-1dim": _check_lem_1dim,
    "lem-kernel": _check_lem_kernel,
    "lem-qi": _check_lem_qi,
    "lem-wqi-phi": _check_lem_wqi_phi,
    "lem-cyclic": _check_lem_cyclic,
    "lem-int": _check_lem_int,
    "thm-nonlie-suff": _check_thm_nonlie_suff,
    "thm-sqrt-suff": _check_thm_sqrt_suff,
    "rem-equiv": _check_rem_equiv,
    "thm-sym-suff": _check_thm_sym_suff,
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
    """Run checks over a corpus; any fail is a hard suite failure."""
    ids = list(check_ids) if check_ids else list(CHECKS)
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
                and symmetric_modular_shape(analysis) is None
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
