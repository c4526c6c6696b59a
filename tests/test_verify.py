import collections
import itertools

import pytest

from leibnizlat import Field, LeibnizAlgebra, Subspace, catalog, verify

F2 = Field.prime(2)
F3 = Field.prime(3)
F5 = Field.prime(5)


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
        verify.symmetric_modular_shape(verify.AlgebraAnalysis(catalog.extraspecial_plus_center(F3, 0)))
        == "iii"
    )
    assert verify.symmetric_modular_shape(verify.AlgebraAnalysis(catalog.symmetric_iv(1, F5))) == "iv"
    assert verify.symmetric_modular_shape(verify.AlgebraAnalysis(catalog.heisenberg_lie(F3))) is None


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


def test_square_zero_lines_match_vector_scan(base_members):
    for l in base_members:
        an = verify.AlgebraAnalysis(l)
        vectors = l.square_zero_vectors()
        assert an.square_zero_lines == _square_zero_lines_oracle(l), l.name
        assert an.j_subalgebra == l.subalgebra_closure(vectors), l.name
        # the span that cor-J-span compares with J
        span = Subspace.span(l.field, l.dim, an.square_zero_lines)
        assert span == Subspace.span(l.field, l.dim, vectors), l.name


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
    assert "lattice" not in vars(an)
    assert verify.run_check("rem-equiv", l, an).detail == "hypothesis failed: solvable"
    assert verify.run_check("lem-wqi-phi", l, an).detail.startswith("budget: ")


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


def test_lem_cyclic_closes_each_line_once(base_members, monkeypatch):
    cases = []
    for l in base_members:
        an = verify.AlgebraAnalysis(l)
        an.wqi_all  # the all-WQI scan closes lines of its own
        generator = next((v for v in l.monic_lines() if l.generated_by([v])), None)
        cases.append((an, generator, _canonical_form_oracle(l)))
    closed = collections.Counter()
    original = LeibnizAlgebra.subalgebra_closure

    def spy(self, vectors):
        closed[tuple(vectors)] += 1
        return original(self, vectors)

    monkeypatch.setattr(LeibnizAlgebra, "subalgebra_closure", spy)
    forms = collections.Counter()
    for an, generator, form in cases:
        closed.clear()
        verify.run_check("lem-cyclic", an.algebra, an)
        assert an.cyclic_generator == generator, an.algebra.name
        assert an.cyclic_canonical_form() == form, an.algebra.name
        assert max(closed.values(), default=0) == 1, an.algebra.name
        forms[form] += 1
    assert forms["nilpotent"] and forms["solvable"] and forms[None], forms
