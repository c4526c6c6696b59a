import itertools

import pytest

from leibnizlat import Field, catalog, verify

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
