import itertools
import random

import pytest

from leibnizlat import (
    AlgebraError,
    BudgetExceeded,
    Field,
    LeibnizAlgebra,
    Subspace,
    UnsupportedFieldError,
    catalog,
    check_left_leibniz,
    check_right_leibniz,
)

F2 = Field.prime(2)
F3 = Field.prime(3)
F5 = Field.prime(5)


def test_invalid_tensor_rejected():
    # [e0, e0] = e0 forces e0 = 0: not a Leibniz algebra
    table = (((1,),),)
    with pytest.raises(AlgebraError) as exc:
        LeibnizAlgebra(name="bad", field=F3, dim=1, table=table)
    assert "(0, 0, 0)" in str(exc.value)


def test_identity_checks_on_tables():
    heis = catalog.heisenberg_lie(F3)
    assert check_right_leibniz(F3, heis.table)
    assert check_left_leibniz(F3, heis.table)
    aan = catalog.almost_abelian_nonlie(2, F3)
    assert check_right_leibniz(F3, aan.table)
    assert not check_left_leibniz(F3, aan.table)


def test_bracket_bilinear():
    l = catalog.cyclic_solvable(3, F5)
    rng = random.Random(3)
    for _ in range(50):
        x, y, z = (tuple(rng.randrange(5) for _ in range(3)) for _ in range(3))
        lhs = l.bracket(tuple((a + b) % 5 for a, b in zip(x, y)), z)
        rhs = tuple((a + b) % 5 for a, b in zip(l.bracket(x, z), l.bracket(y, z)))
        assert lhs == rhs


def test_right_mult_is_derivation():
    # the defining property: R_z is a derivation of the bracket
    for l in (catalog.cyclic_solvable(4, F3), catalog.family_sqrt(2, 1, F5)):
        rng = random.Random(9)
        p = l.field.p
        for _ in range(60):
            x, y, z = (tuple(rng.randrange(p) for _ in range(l.dim)) for _ in range(3))
            lhs = l.bracket(x, l.bracket(y, z))
            rhs = tuple(
                (a - b) % p
                for a, b in zip(l.bracket(l.bracket(x, y), z), l.bracket(l.bracket(x, z), y))
            )
            assert lhs == rhs


def test_is_lie_is_symmetric():
    assert catalog.heisenberg_lie(F2).is_lie()
    assert catalog.almost_abelian_lie(3, F3).is_lie()
    assert not catalog.cyclic_nilpotent(2, F3).is_lie()
    assert catalog.symmetric_iv(1, F3).is_symmetric()
    assert catalog.extraspecial_plus_center(F3, 0).is_symmetric()
    assert not catalog.almost_abelian_nonlie(2, F3).is_symmetric()


def test_series_and_classes():
    cn4 = catalog.cyclic_nilpotent(4, F3)
    nil, cls = cn4.is_nilpotent()
    assert nil and cls == 4
    solv, length = cn4.is_solvable()
    assert solv and length == 2

    cs3 = catalog.cyclic_solvable(3, F3)
    assert cs3.is_nilpotent() == (False, None)
    assert cs3.is_solvable()[0]

    ab = catalog.abelian(3, F2)
    assert ab.is_nilpotent() == (True, 1)
    assert catalog.abelian(0, F2).is_nilpotent() == (True, 0)


def test_lower_central_series_cyclic():
    cn3 = catalog.cyclic_nilpotent(3, F3)
    dims = [s.dim for s in cn3.lower_central_series()]
    assert dims == [3, 2, 1, 0]


def test_kernel_center_j():
    aan = catalog.almost_abelian_nonlie(2, F3)
    assert aan.leibniz_kernel() == Subspace.span(F3, 2, [(1, 0)])
    assert aan.center().dim == 0
    # J = whole algebra: y and a - ... actually a has a^2 = 0 and y^2 = 0
    assert aan.square_zero_subalgebra() == Subspace.full(F3, 2)

    heis = catalog.heisenberg_lie(F3)
    assert heis.leibniz_kernel().dim == 0  # Lie algebra: no nonzero squares
    assert heis.center() == Subspace.span(F3, 3, [(0, 0, 1)])

    cn2 = catalog.cyclic_nilpotent(2, F3)
    assert cn2.leibniz_kernel() == Subspace.span(F3, 2, [(0, 1)])
    assert cn2.square_zero_subalgebra() == Subspace.span(F3, 2, [(0, 1)])


def test_kernel_quotient_is_lie():
    for l in (
        catalog.cyclic_solvable(3, F3),
        catalog.family_nonlie_ii(2, 1, F2),
        catalog.symmetric_iv(2, F5),
    ):
        i = l.leibniz_kernel()
        q = l.quotient(i).algebra
        assert q.is_lie()
        # [L, I] = 0
        assert l.product_space(l.full_subspace(), i).dim == 0


def test_square_zero_rational_guard():
    l = catalog.abelian(2, Field.rational())
    with pytest.raises(UnsupportedFieldError):
        l.square_zero_subalgebra()
    with pytest.raises(UnsupportedFieldError):
        l.square_zero_lines()


def test_square_zero_lines_share_the_vector_budget():
    # the line scan keeps the p^n bound and the message of the vector scan
    l = catalog.heisenberg_lie(F3)
    messages = []
    for scan in (l.square_zero_vectors, l.square_zero_lines):
        with pytest.raises(BudgetExceeded) as exc:
            scan(26)
        messages.append(str(exc.value))
    assert messages == ["p^n = 27 exceeds budget 26"] * 2
    assert len(l.square_zero_lines(27)) == 13  # [x,x] = 0 for every x in a Lie algebra


def test_subalgebra_closure_is_closure_operator():
    l = catalog.family_nonlie_ii(2, 1, F3)
    rng = random.Random(17)
    vecs = [tuple(rng.randrange(3) for _ in range(3)) for _ in range(4)]
    c1 = l.subalgebra_closure(vecs[:2])
    # extensive + idempotent
    for v in vecs[:2]:
        assert c1.contains(v)
    assert l.subalgebra_closure(list(c1.basis)) == c1
    # monotone
    c2 = l.subalgebra_closure(vecs)
    assert c1.leq(c2)
    # result is bracket-closed
    assert l.product_space(c1, c1).leq(c1)


def test_is_ideal_and_largest_ideal_in():
    cs3 = catalog.cyclic_solvable(3, F3)
    l2 = cs3.product_space(cs3.full_subspace(), cs3.full_subspace())
    assert cs3.is_ideal(l2)
    w = Subspace.span(F3, 3, [(2, 1, 0), (0, 2, 1)])  # a^2-a, a^3-a^2
    assert not cs3.is_ideal(w)
    # largest ideal inside w, brute force over all subspaces contained in w
    from leibnizlat import enumerate_subspaces

    best = Subspace.zero(F3, 3)
    for s in enumerate_subspaces(F3, 3):
        if s.leq(w) and cs3.is_ideal(s) and s.dim > best.dim:
            best = s
    assert cs3.largest_ideal_in(w) == best


def test_quotient_well_defined():
    l = catalog.family_sqrt(2, 1, F3)
    i = l.leibniz_kernel()
    q = l.quotient(i)
    rng = random.Random(5)
    for _ in range(40):
        x = tuple(rng.randrange(3) for _ in range(3))
        y = tuple(rng.randrange(3) for _ in range(3))
        # projection is a homomorphism
        assert q.project(l.bracket(x, y)) == q.algebra.bracket(q.project(x), q.project(y))


def test_quotient_rejects_non_ideal():
    cs3 = catalog.cyclic_solvable(3, F3)
    w = Subspace.span(F3, 3, [(2, 1, 0), (0, 2, 1)])
    with pytest.raises(AlgebraError):
        cs3.quotient(w)


def test_restrict_matches_subalgebra():
    l = catalog.family_nonlie_ii(3, 1, F3)
    u = l.subalgebra_closure([l.basis_vector(1)])  # <x^2> inside the cyclic part
    r = l.restrict(u)
    assert r.dim == u.dim
    nil, _ = r.is_nilpotent()
    assert nil or r.is_solvable()[0]


def test_classify_shapes():
    assert catalog.abelian(3, F3).classify_shape().tag == "abelian"
    assert catalog.almost_abelian_lie(3, F5).classify_shape().tag == "almost_abelian_lie"
    s = catalog.almost_abelian_nonlie(2, F3).classify_shape()
    assert s.tag == "almost_abelian_nonlie"
    assert s.radical == Subspace.span(F3, 2, [(1, 0)])
    assert catalog.heisenberg_lie(F3).classify_shape().tag == "extraspecial"
    assert catalog.cyclic_nilpotent(2, F5).classify_shape().tag == "extraspecial"
    assert catalog.cyclic_solvable(3, F3).classify_shape().tag == "other"


def test_classify_shape_invariant_under_basis_change():
    rng = random.Random(31)
    for base in (
        catalog.almost_abelian_lie(3, F3),
        catalog.almost_abelian_nonlie(3, F3),
        catalog.heisenberg_lie(F2),
    ):
        for _ in range(10):
            p = catalog.random_invertible(base.field, base.dim, rng)
            assert base.change_of_basis(p).classify_shape().tag == base.classify_shape().tag


def test_supersolvable():
    assert catalog.cyclic_nilpotent(3, F3).is_supersolvable()
    assert catalog.cyclic_solvable(3, F2).is_supersolvable()
    assert catalog.abelian(4, F2).is_supersolvable()
    assert catalog.heisenberg_lie(F3).is_supersolvable()


def test_change_of_basis_roundtrip():
    l = catalog.family_sqrt(2, 2, F3)
    rng = random.Random(13)
    p = catalog.random_invertible(F3, 4, rng)
    moved = l.change_of_basis(p)
    assert moved.dim == l.dim
    # invariants survive
    assert moved.is_lie() == l.is_lie()
    assert moved.is_nilpotent() == l.is_nilpotent()
    assert moved.is_solvable() == l.is_solvable()
    assert moved.leibniz_kernel().dim == l.leibniz_kernel().dim
    assert moved.center().dim == l.center().dim


def test_identity_change_of_basis_is_identity():
    l = catalog.cyclic_solvable(3, F5)
    ident = tuple(tuple(1 if i == j else 0 for j in range(3)) for i in range(3))
    assert l.change_of_basis(ident).table == l.table


def test_monic_lines_count():
    l = catalog.abelian(2, F3)
    lines = list(l.monic_lines())
    assert len(lines) == 4  # (3^2 - 1) / (3 - 1)
    assert len(set(lines)) == 4


def test_product_space_spans_brackets():
    l = catalog.heisenberg_lie(F2)
    full = l.full_subspace()
    l2 = l.product_space(full, full)
    assert l2 == Subspace.span(F2, 3, [(0, 0, 1)])
