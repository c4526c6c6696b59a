import itertools

import pytest

from leibnizlat import AlgebraError, Field, algebra, catalog

F2 = Field.prime(2)
F3 = Field.prime(3)
F5 = Field.prime(5)


def test_cyclic_tables():
    l = catalog.cyclic_nilpotent(3, F3)
    a = l.basis_vector(0)
    assert l.bracket(a, a) == (0, 1, 0)
    assert l.bracket((0, 1, 0), a) == (0, 0, 1)
    assert l.bracket((0, 0, 1), a) == (0, 0, 0)
    s = catalog.cyclic_solvable(3, F3)
    assert s.bracket((0, 0, 1), a) == (0, 0, 1)
    # [L, I] = 0 in both
    for alg in (l, s):
        assert alg.bracket(a, (0, 1, 0)) == (0, 0, 0)


def test_cyclic_solvable_needs_two_dims():
    with pytest.raises(AlgebraError):
        catalog.cyclic_solvable(1, F3)


def test_almost_abelian_variants():
    lie = catalog.almost_abelian_lie(3, F5)
    non = catalog.almost_abelian_nonlie(3, F5)
    a, y = lie.basis_vector(0), lie.basis_vector(2)
    assert lie.bracket(a, y) == a
    assert lie.bracket(y, a) == tuple((-x) % 5 for x in a)
    assert non.bracket(a, y) == a
    assert non.bracket(y, a) == (0, 0, 0)
    assert lie.is_lie() and not non.is_lie()


def test_char2_guards():
    with pytest.raises(AlgebraError):
        catalog.family_sqrt(1, 1, F2)
    with pytest.raises(AlgebraError):
        catalog.symmetric_iv(1, F2)


def test_family_parameter_validation():
    with pytest.raises(AlgebraError):
        catalog.family_nonlie_ii(1, 0, F3)
    with pytest.raises(AlgebraError):
        catalog.family_sqrt(2, 0, F3)
    with pytest.raises(AlgebraError):
        catalog.abelian(-1, F3)


def test_symmetric_iv_is_symmetric():
    for m in (1, 2):
        l = catalog.symmetric_iv(m, F5)
        assert l.is_symmetric()
        assert not l.is_lie()


def test_extraspecial_detector_agrees():
    l = catalog.extraspecial_plus_center(0, F3)
    assert l.classify_shape() == "extraspecial"


def test_exhaustive_dim2_count_and_membership():
    algebras = list(catalog.exhaustive_dim2(F2))
    assert len(algebras) == 13
    tables = {a.table for a in algebras}
    assert len(tables) == 13
    # dual oracle: independent identity filter over all 256 tensors
    count = 0
    for flat in itertools.product((0, 1), repeat=8):
        t = (
            ((flat[0], flat[1]), (flat[2], flat[3])),
            ((flat[4], flat[5]), (flat[6], flat[7])),
        )
        ok = True
        vecs = [(0, 0), (0, 1), (1, 0), (1, 1)]

        def br(x, y):
            out = [0, 0]
            for i in range(2):
                for j in range(2):
                    if x[i] and y[j]:
                        out[0] ^= t[i][j][0]
                        out[1] ^= t[i][j][1]
            return tuple(out)

        for x, y, z in itertools.product(vecs, repeat=3):
            left = br(x, br(y, z))
            right = tuple(a ^ b for a, b in zip(br(br(x, y), z), br(br(x, z), y)))
            if left != right:
                ok = False
                break
        if ok:
            count += 1
            assert t in tables
    assert count == 13


def test_exhaustive_dim2_scans_each_tensor_once(monkeypatch):
    scans = []
    scan = algebra.right_leibniz_violation
    monkeypatch.setattr(algebra, "right_leibniz_violation", lambda *a: scans.append(a) or scan(*a))
    names = [l.name for l in catalog.exhaustive_dim2(F2)]
    assert names == ["dim2_F2_#%03d" % i for i in range(1, 14)]
    assert len(scans) == 256  # one per raw tensor, accepted or not


def test_exhaustive_dim2_rejects_other_fields():
    with pytest.raises(AlgebraError):
        list(catalog.exhaustive_dim2(F3))


def test_corpus_validates_each_member_once(monkeypatch):
    # 73 family constructions, 256 raw dim-2 tensors, one construction per @basis copy
    scans = []
    scan = algebra.right_leibniz_violation
    monkeypatch.setattr(algebra, "right_leibniz_violation", lambda *a: scans.append(a) or scan(*a))
    members = catalog.corpus(7)
    assert len(scans) == 548
    copies = [l for l in members if "@basis" in l.name]
    assert len(copies) == 219
    bases = {l.name: l for l in members if "@basis" not in l.name}
    assert all(l.family == bases[l.name.split("@")[0]].family for l in copies)


def test_corpus_deterministic():
    c1 = catalog.corpus(42)
    c2 = catalog.corpus(42)
    assert [a.name for a in c1] == [a.name for a in c2]
    assert [a.table for a in c1] == [a.table for a in c2]
    c3 = catalog.corpus(43)
    assert [a.table for a in c1] != [a.table for a in c3]


def test_corpus_composition():
    c = catalog.corpus(0)
    names = [a.name for a in c]
    assert len(names) == len(set(names))
    assert sum(1 for a in c if a.family == "exhaustive_dim2") == 13
    # every base member appears with its basis-changed copies
    assert "heisenberg/F3" in names
    assert "heisenberg/F3@basis2" in names
    # variants share the base's invariants
    by_name = {a.name: a for a in c}
    base = by_name["cyclic_solvable(3)/F3"]
    var = by_name["cyclic_solvable(3)/F3@basis1"]
    assert base.is_solvable() == var.is_solvable()
    assert base.leibniz_kernel().dim == var.leibniz_kernel().dim


def test_families_registry_builds():
    for name, (builder, usage) in catalog.FAMILIES.items():
        assert usage.startswith(name)
        nparams = len(usage.split()) - 1
        f = F3 if name in ("family_sqrt", "symmetric_iv") else F2
        params = {
            0: [],
            1: [2] if name != "symmetric_iv" else [1],
            2: [2, 1],
        }[nparams]
        l = builder(*params, f)
        assert algebra.right_leibniz_violation(l.field, l.table) is None
