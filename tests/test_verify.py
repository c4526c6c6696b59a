import collections
import hashlib
import itertools
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from leibnizlat import BudgetExceeded, Field, LeibnizAlgebra, Subspace, catalog, lattice, verify
from leibnizlat.lattice import Verdict

F2 = Field.prime(2)
F3 = Field.prime(3)
F5 = Field.prime(5)
F7 = Field.prime(7)


def test_checks_registry_complete():
    expected = {
        "thm-abalab",
        "prop-usm2",
        "thm-alab",
        "thm-ideal",
        "cor-J-span",
        "lem-two",
        "lem-three",
        "lem-1dim",
        "lem-kernel",
        "lem-qi",
        "lem-wqi-phi",
        "lem-cyclic",
        "lem-int",
        "thm-nonlie-suff",
        "thm-sqrt-suff",
        "rem-equiv",
        "thm-sym-suff",
    }
    assert set(verify.CHECKS) == expected


def test_unknown_check_rejected():
    with pytest.raises(ValueError):
        verify.run_check("no-such-check", catalog.abelian(1, F2))


def test_hypothesis_gating():
    # heisenberg is not solvable-and-USM in the way cor-J-span needs: it is
    # solvable but not USM, so the check must report not_applicable
    r = verify.run_check("cor-J-span", catalog.heisenberg_lie(F3))
    assert r.status == "not_applicable"
    assert "upper semi-modular" in r.detail

    r = verify.run_check("thm-ideal", catalog.cyclic_solvable(2, F2))
    assert r.status == "not_applicable"  # characteristic 2 excluded
    assert "characteristic" in r.detail


def test_lem_cyclic_line_scan_has_a_budget():
    # the generator search closes up to (p^n - 1)/(p - 1) lines; p^n bounds it
    l = catalog.abelian(3, F3)
    report = verify.run_check("lem-cyclic", l, verify.AlgebraAnalysis(l, scan_budget=26))
    assert (report.status, report.detail) == (
        "not_applicable", "budget: p^n = 27 exceeds budget 26"
    )
    report = verify.run_check("lem-cyclic", l, verify.AlgebraAnalysis(l, scan_budget=27))
    assert (report.status, report.detail) == ("not_applicable", "hypothesis failed: cyclic")


def test_lem_1dim_needs_dim_two():
    r = verify.run_check("lem-1dim", catalog.abelian(1, F3))
    assert r.status == "not_applicable"


def test_passes_on_families():
    cases = [
        ("lem-kernel", catalog.cyclic_solvable(3, F3)),
        ("lem-qi", catalog.almost_abelian_nonlie(3, F3)),
        ("lem-cyclic", catalog.cyclic_nilpotent(3, F3)),
        ("rem-equiv", catalog.family_sqrt(1, 1, F3)),
        ("thm-sym-suff", catalog.symmetric_iv(1, F5)),
        ("thm-nonlie-suff", catalog.family_nonlie_ii(2, 1, F2)),
        ("thm-sqrt-suff", catalog.family_sqrt(2, 1, F5)),
        ("cor-J-span", catalog.cyclic_solvable(2, F2)),
    ]
    for cid, l in cases:
        r = verify.run_check(cid, l)
        assert r.status == "pass", (cid, l.name, r.detail)


def test_lem_qi_budget_not_applicable():
    # F_5 at dim 3 exceeds the default elementwise pair budget of 10^4
    r = verify.run_check("lem-qi", catalog.cyclic_solvable(3, F5))
    assert r.status == "not_applicable"


def test_rem_equiv_on_negative_control():
    # heisenberg fails all three equivalent conditions, so the equivalence holds
    r = verify.run_check("rem-equiv", catalog.heisenberg_lie(F2))
    assert r.status == "pass"


def test_symmetric_modular_shape_tags():
    assert verify.symmetric_modular_shape(verify.AlgebraAnalysis(catalog.abelian(2, F3))) == "i"
    assert (
        verify.symmetric_modular_shape(verify.AlgebraAnalysis(catalog.extraspecial_plus_center(0, F3)))
        == "iii"
    )
    assert verify.symmetric_modular_shape(verify.AlgebraAnalysis(catalog.symmetric_iv(1, F5))) == "iv"
    assert verify.symmetric_modular_shape(verify.AlgebraAnalysis(catalog.heisenberg_lie(F3))) is None


def test_symmetric_modular_shape_once_per_algebra(monkeypatch):
    calls = collections.Counter()
    original = verify.symmetric_modular_shape

    def spy(a):
        calls[a.algebra.name] += 1
        return original(a)

    monkeypatch.setattr(verify, "symmetric_modular_shape", spy)
    # symmetric and modular: thm-sym-suff and the suite's note both read the shape
    algebras = [catalog.abelian(2, F3), catalog.symmetric_iv(1, F5)]
    assert verify.run_suite(algebras)["ok"]
    assert calls == {l.name: 1 for l in algebras}


def test_report_serialization():
    r = verify.run_check("lem-kernel", catalog.cyclic_nilpotent(2, F3))
    d = r.to_dict()
    assert d["check"] == "lem-kernel"
    assert d["status"] == "pass"
    assert d["algebra"] == "cyclic_nilpotent(2)/F3"


def test_run_suite_small():
    algebras = [
        catalog.cyclic_nilpotent(2, F3),
        catalog.cyclic_solvable(2, F3),
        catalog.heisenberg_lie(F2),
    ]
    summary = verify.run_suite(algebras, ["lem-kernel", "rem-equiv", "lem-cyclic"])
    assert summary["algebras"] == 3
    assert set(summary["checks"]) == {"lem-kernel", "rem-equiv", "lem-cyclic"}
    assert summary["ok"] is True
    for entry in summary["checks"].values():
        assert entry["fail"] == 0


def test_run_suite_runs_a_repeated_check_once():
    summary = verify.run_suite([catalog.heisenberg_lie(F3)], ["lem-qi", "lem-two", "lem-qi"])
    assert list(summary["checks"]) == ["lem-qi", "lem-two"]
    entry = summary["checks"]["lem-qi"]
    assert (entry["pass"], entry["fail"], entry["not_applicable"]) == (1, 0, 0)


def test_analysis_cached_lattice_shared():
    l = catalog.cyclic_solvable(3, F3)
    a = verify.AlgebraAnalysis(l)
    assert a.lattice is a.lattice  # cached_property
    r1 = verify.run_check("rem-equiv", l, a)
    r2 = verify.run_check("lem-wqi-phi", l, a)
    assert r1.status == "pass" and r2.status == "pass"


def _generated_by_closures(an, count):
    """The closure-per-combination computation that the lattice join replaced."""
    l = an.algebra
    return any(
        l.subalgebra_closure(list(combo)).dim == l.dim
        for combo in itertools.combinations(an.square_zero_lines, count)
    )


@pytest.mark.parametrize("count", [2, 3])
def test_generated_by_square_zero_lines_matches_closures(count):
    seen = {True: 0, False: 0}
    for l in catalog.corpus(7):
        if "@basis" in l.name:
            continue
        an = verify.AlgebraAnalysis(l)
        if len(an.square_zero_lines) < count:
            continue
        expected = _generated_by_closures(an, count)
        assert an.generated_by_square_zero_lines(count) == expected, l.name
        seen[expected] += 1
    assert seen[True] > 0 and seen[False] > 0, seen


@pytest.fixture(scope="module")
def base_members():
    return [l for l in catalog.corpus(7) if "@basis" not in l.name]


def _square_zero_lines_oracle(l):
    """Every square-zero vector scaled to monic form, each line kept at its first vector."""
    out = []
    for v in l.square_zero_vectors():
        lead = next((x for x in v if x), None)
        if lead is not None:
            scaled = tuple(l.field.div(c, lead) for c in v)
            if scaled not in out:
                out.append(scaled)
    return out


def _square_zero_routes_agree(l):
    """The atoms, J, the generators and analyze's J against scans over all vectors."""
    an = verify.AlgebraAnalysis(l)
    vectors = l.square_zero_vectors()
    lines = _square_zero_lines_oracle(l)
    lat = an.lattice
    assert [lat.nodes[i].basis[0] for i in lat.atoms()] == lines, l.name
    assert an.square_zero_lines == lines, l.name
    j = l.subalgebra_closure(vectors)
    assert an.j_subalgebra == j == l.square_zero_subalgebra(), l.name
    assert lattice.build_structure_report(l).dim_square_zero == j.dim, l.name
    generators = [v for v in l.monic_lines() if l.subalgebra_closure([v]).dim == l.dim]
    assert an.generators == generators, l.name
    assert an.cyclic_generator == next(iter(generators), None), l.name
    # the span that cor-J-span compares with J
    span = Subspace.span(l.field, l.dim, an.square_zero_lines)
    assert span == Subspace.span(l.field, l.dim, vectors), l.name


_FAMILY_MEMBERS = [
    catalog.abelian,
    catalog.cyclic_nilpotent,
    catalog.cyclic_solvable,
    catalog.almost_abelian_lie,
    catalog.almost_abelian_nonlie,
]


@given(st.data())
@settings(max_examples=60, deadline=None)
def _square_zero_routes_agree_after_a_basis_change(data):
    f = data.draw(st.sampled_from((F2, F3, F5, F7)))
    family = data.draw(st.sampled_from(_FAMILY_MEMBERS))
    low = 1 if family in _FAMILY_MEMBERS[:2] else 2
    n = data.draw(st.integers(low, 4 if f.p <= 3 else 3))
    rng = random.Random(data.draw(st.integers(0, 99)))
    _square_zero_routes_agree(family(n, f).change_of_basis(catalog.random_invertible(f, n, rng)))


def test_square_zero_lines_match_vector_scan():
    members = catalog.corpus(7)
    assert len(members) == 305
    for l in members:
        _square_zero_routes_agree(l)
    _square_zero_routes_agree_after_a_basis_change()


def _sl2(f):
    """e, f, h with [e,f] = h, [h,e] = 2e, [h,f] = -2f: Lie and perfect, so not solvable."""
    p = f.p
    table = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    for i, j, k, c in [(0, 1, 2, 1), (2, 0, 0, 2), (2, 1, 1, -2)]:
        table[i][j][k] = c % p
        table[j][i][k] = -c % p
    return LeibnizAlgebra("sl2/F%d" % p, f, 3, tuple(tuple(map(tuple, r)) for r in table))


def test_solvable_hypothesis_comes_before_the_lattice_budget():
    # a non-solvable algebra whose lattice is over budget reports the failed
    # hypothesis, not the budget: the lattice is never enumerated
    l = _sl2(F5)
    assert not l.is_solvable()[0]
    an = verify.AlgebraAnalysis(l, node_budget=1)
    for cid in ("thm-abalab", "prop-usm2", "thm-alab", "thm-ideal", "cor-J-span",
                "lem-two", "lem-three", "lem-1dim"):
        report = verify.run_check(cid, l, an)
        assert (report.status, report.detail) == (
            "not_applicable", "hypothesis failed: solvable"
        ), cid
    assert "lattice" not in vars(an) and an._lattice_error is None
    assert verify.run_check("rem-equiv", l, an).detail == "hypothesis failed: solvable"
    assert verify.run_check("lem-wqi-phi", l, an).detail.startswith("budget: ")


def test_an_over_budget_lattice_is_enumerated_once(monkeypatch):
    calls = collections.Counter()
    original = verify.lat_mod.enumerate_subalgebras

    def spy(l, **kwargs):
        calls[l.name] += 1
        return original(l, **kwargs)

    monkeypatch.setattr(verify.lat_mod, "enumerate_subalgebras", spy)
    # 16 and 8 subalgebras, over node budgets of 5 and 3; the checks that
    # reach the lattice report the budget, the others a failed hypothesis
    cases = ((catalog.abelian(3, F2), 5, 15), (catalog.heisenberg_lie(F3), 3, 14))
    for l, node_budget, over in cases:
        an = verify.AlgebraAnalysis(l, node_budget=node_budget)
        reports = [verify.run_check(cid, l, an) for cid in verify.CHECKS]
        assert all(r.status == "not_applicable" for r in reports)
        budget = "budget: subalgebra count exceeds node budget %d" % node_budget
        assert sum(r.detail == budget for r in reports) == over
        with pytest.raises(BudgetExceeded, match=budget[len("budget: "):]):
            an.modular
        assert calls[l.name] == 1, l.name


def test_hypotheses_stop_at_the_first_failure(monkeypatch):
    calls = []
    original = verify.AlgebraAnalysis.generated_by_square_zero_lines

    def spy(self, count):
        calls.append((self.algebra.name, count))
        return original(self, count)

    monkeypatch.setattr(verify.AlgebraAnalysis, "generated_by_square_zero_lines", spy)
    algebras = [catalog.heisenberg_lie(f) for f in (F2, F3, F5)]
    for l in algebras:
        an = verify.AlgebraAnalysis(l)
        assert an.solvable and not an.usm.holds and len(an.square_zero_lines) >= 3, l.name
    assert verify.run_suite(algebras)["ok"]
    assert calls == []


def _canonical_form_oracle(l):
    """Some generator v, over all nonzero vectors, has v^(n+1) = 0 or v^(n+1) = v^n."""
    n = l.dim
    for v in l.all_vectors():
        if not any(v) or l.subalgebra_closure([v]).dim != n:
            continue
        powers = [v]
        for _ in range(n - 1):
            powers.append(l.bracket(powers[-1], v))
        if Subspace.span(l.field, n, powers).dim == n:
            nxt = l.bracket(powers[-1], v)
            if not any(nxt):
                return "nilpotent"
            if nxt == powers[-1]:
                return "solvable"
    return None


def test_lem_cyclic_closes_no_line(base_members, monkeypatch):
    cases = []
    for l in base_members:
        an = verify.AlgebraAnalysis(l)
        an.wqi_all  # the all-WQI scan builds the line map off the node order
        generators = (v for v in l.monic_lines() if l.subalgebra_closure([v]).dim == l.dim)
        generator = next(generators, None)
        cases.append((an, generator, _canonical_form_oracle(l)))
    closed = []
    original = LeibnizAlgebra.subalgebra_closure
    spy = lambda self, v: closed.append(v) or original(self, v)
    monkeypatch.setattr(LeibnizAlgebra, "subalgebra_closure", spy)
    forms = collections.Counter()
    for an, generator, form in cases:
        closed.clear()
        verify.run_check("lem-cyclic", an.algebra, an)
        assert an.cyclic_generator == generator, an.algebra.name
        assert an.cyclic_canonical_form() == form, an.algebra.name
        assert not closed, an.algebra.name  # the generators are read off the line map
        forms[form] += 1
    assert forms["nilpotent"] and forms["solvable"] and forms[None], forms


def test_each_algebra_is_classified_once(base_members, monkeypatch):
    # the shapes of L, of J and of each quotient are kept on the analysis
    classified = collections.Counter()
    kept = []  # holds every classified algebra, so no id is reused
    original = LeibnizAlgebra.classify_shape

    def spy(self):
        classified[id(self)] += 1
        kept.append(self)
        return original(self)

    monkeypatch.setattr(LeibnizAlgebra, "classify_shape", spy)
    verify.run_suite(base_members)
    assert len(classified) > 100 and max(classified.values()) == 1, classified.most_common(1)


def test_shape_detectors_run_no_nilpotency_test(base_members, monkeypatch):
    # L^2 <= Z(L) gives L^3 = 0, so neither extraspecial test needs the series
    def refuse(self):
        raise AssertionError("is_nilpotent called on %s" % self.name)

    monkeypatch.setattr(LeibnizAlgebra, "is_nilpotent", refuse)
    tags = collections.Counter()
    for l in base_members:
        tags[l.classify_shape()] += 1
        if l.is_symmetric():
            tags[verify.symmetric_modular_shape(verify.AlgebraAnalysis(l))] += 1
    assert all(tags[t] for t in ("extraspecial", "other", "i", "ii", "iii", "iv", None)), tags


def test_each_quotient_is_built_once(base_members, monkeypatch):
    # L/phi, L/I and L/Z(L) are read by several checks through one memo per algebra
    built = collections.Counter()
    original = LeibnizAlgebra.quotient

    def spy(self, ideal):
        built[id(self), ideal.basis] += 1  # the members stay alive in the fixture
        return original(self, ideal)

    monkeypatch.setattr(LeibnizAlgebra, "quotient", spy)
    verify.run_suite(base_members)
    assert len(built) > 100 and max(built.values()) == 1, built.most_common(1)


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_lem_cyclic_scales_the_generator(n, p):
    # in the basis (2a, a^2, ..., a^n) every generator v has v^(n+1) = 2 v^n, so
    # only the scaling v/2 has the canonical power table (v/2)^(n+1) = (v/2)^n
    f = Field.prime(p)
    moved = [[2 if i == j == 0 else int(i == j) for j in range(n)] for i in range(n)]
    l = catalog.cyclic_solvable(n, f).change_of_basis(moved)
    an = verify.AlgebraAnalysis(l)
    v = an.cyclic_generator
    powers = [v]
    for _ in range(n):
        powers.append(l.bracket(powers[-1], v))
    assert powers[n] == tuple(f.scale_row(2, powers[n - 1])) != powers[n - 1]
    assert an.cyclic_canonical_form() == "solvable"
    assert verify.run_check("lem-cyclic", l).status == "pass"


def _line(l, *row):
    return Subspace.span(l.field, l.dim, [row])


_HOLDS = Verdict(True, None)

# One case per check: (check, algebra, planted analysis values, expected report).
# The planted values make every hypothesis hold and the conclusion fail, so
# each case reaches its check's fail branch; the two family checks cover the
# two fail branches they share.
_FAIL_CASES = [
    ("thm-abalab", catalog.heisenberg_lie(F3),
     lambda l: {"usm": _HOLDS, "j_shape": "nilpotent", "j_subalgebra": _line(l, 0, 0, 1)},
     ("J has shape nilpotent", {"dim": 1, "basis": [["0", "0", "1"]]})),
    ("prop-usm2", catalog.heisenberg_lie(F3),
     lambda l: {"usm": _HOLDS},
     ("L/I has shape extraspecial", {"dim": 0, "basis": []})),
    ("thm-alab", catalog.heisenberg_lie(F3),
     lambda l: {"usm": _HOLDS, "j_shape": "almost_abelian_lie", "j_subalgebra": _line(l, 0, 0, 1)},
     ("J is proper", {"dim": 1, "basis": [["0", "0", "1"]]})),
    ("thm-ideal", catalog.heisenberg_lie(F3),
     lambda l: {"usm": _HOLDS, "j_subalgebra": _line(l, 1, 0, 0)},
     ("J is not an ideal", {"dim": 1, "basis": [["1", "0", "0"]]})),
    ("cor-J-span", catalog.heisenberg_lie(F3),
     lambda l: {"usm": _HOLDS, "j_subalgebra": _line(l, 0, 0, 1)},
     ("span of square-zero elements is not J",
      {"dim": 3, "basis": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]})),
    ("lem-two", catalog.heisenberg_lie(F3),
     lambda l: {"usm": _HOLDS, "generated_by_square_zero_lines": lambda count: True},
     ("dim L = 3", None)),
    ("lem-three", catalog.heisenberg_lie(F3),
     lambda l: {"usm": _HOLDS, "generated_by_square_zero_lines": lambda count: True},
     ("center is nonzero", {"dim": 1, "basis": [["0", "0", "1"]]})),
    ("lem-1dim", catalog.cyclic_solvable(2, F3),
     lambda l: {"cyclic_generator": None},
     ("dim L = 2", None)),
    ("lem-kernel", catalog.heisenberg_lie(F3),
     lambda l: {"frattini": l.zero_subspace(), "kernel": _line(l, 0, 0, 1)},
     ("kernel of L/phi != I/phi", {"dim": 1, "basis": [["0", "0", "1"]]})),
    ("lem-qi", catalog.cyclic_solvable(2, F3),
     lambda l: {"wqi_all": Verdict(False, None)},
     ("elementwise True vs subalgebra-level False", None)),
    ("lem-wqi-phi", catalog.heisenberg_lie(F3),
     lambda l: {"wqi_all": _HOLDS, "frattini": l.zero_subspace()},
     ("L/phi has shape extraspecial", {"dim": 0, "basis": []})),
    ("lem-cyclic", catalog.cyclic_nilpotent(2, F3),
     lambda l: {"wqi_all": Verdict(False, None)},
     ("canonical form match True vs all-WQI False", None)),
    ("lem-int", catalog.heisenberg_lie(F3),
     lambda l: {"wqi_all": _HOLDS, "kernel": l.zero_subspace()},
     ("I ^ phi(L) = 0", {"dim": 1, "basis": [["0", "0", "1"]]})),
    ("thm-nonlie-suff", catalog.almost_abelian_nonlie(2, F3),
     lambda l: {"wqi_all": Verdict(False, (_line(l, 1, 0), _line(l, 0, 1)))},
     ("not all subalgebras are WQI",
      [{"dim": 1, "basis": [["1", "0"]]}, {"dim": 1, "basis": [["0", "1"]]}])),
    ("thm-sqrt-suff", catalog.family_sqrt(1, 1, F3),
     lambda l: {"frattini": l.full_subspace()},
     ("L/phi has shape abelian, expected almost_abelian_lie", None)),
    ("rem-equiv", catalog.heisenberg_lie(F3),
     lambda l: {"modular": _HOLDS, "usm": _HOLDS, "wqi_all": Verdict(False, (_line(l, 0, 1, 0),))},
     ("modular=True usm=True wqi=False", [{"dim": 1, "basis": [["0", "1", "0"]]}])),
    ("thm-sym-suff", catalog.abelian(2, F3),
     lambda l: {"modular": Verdict(False, (_line(l, 1, 0), _line(l, 0, 1)))},
     ("not modular", [{"dim": 1, "basis": [["1", "0"]]}, {"dim": 1, "basis": [["0", "1"]]}])),
]


@pytest.mark.parametrize("cid,l,plant,expected", _FAIL_CASES, ids=[c[0] for c in _FAIL_CASES])
def test_fail_branch(cid, l, plant, expected):
    an = verify.AlgebraAnalysis(l)
    # planted values shadow the cached properties and the instance's methods
    an.__dict__.update(plant(l))
    d = verify.run_check(cid, l, an).to_dict()
    assert (d["status"], d["detail"], d["witness"]) == ("fail",) + expected


def test_fail_cases_cover_every_check():
    assert [c[0] for c in _FAIL_CASES] == list(verify.CHECKS)


def test_every_report_matches_golden(base_members):
    # pins every status, detail string and witness, where the corpus hash sums statuses
    reports = []
    for l in base_members:
        an = verify.AlgebraAnalysis(l)
        reports.extend(verify.run_check(cid, l, an).to_dict() for cid in verify.CHECKS)
    assert len(reports) == 1462
    digest = hashlib.sha256(json.dumps(reports, sort_keys=True).encode()).hexdigest()
    assert digest == "635ce84ebe9a5c3a080e25497bf0a6bae1881fa69e75b2792dab756f31ed9531"
