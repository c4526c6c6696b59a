import collections
import hashlib
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from leibnizlat import (
    AlgebraError,
    BudgetExceeded,
    Field,
    LeibnizAlgebra,
    Subspace,
    UnsupportedFieldError,
    catalog,
    check_left_leibniz,
    enumerate_subalgebras,
)
from leibnizlat.algebra import (
    _images,
    _pack_table,
    _reversed,
    _row_leibniz_violation,
    _times,
    _unpack,
    left_leibniz_violation,
    right_leibniz_violation,
)
from leibnizlat.linalg import matrix_rank

F2 = Field.prime(2)
F3 = Field.prime(3)
F5 = Field.prime(5)
F31 = Field.prime(31)


def test_invalid_tensor_rejected():
    # [e0, e0] = e0 forces e0 = 0: not a Leibniz algebra
    table = (((1,),),)
    with pytest.raises(AlgebraError) as exc:
        LeibnizAlgebra(name="bad", field=F3, dim=1, table=table)
    assert "(0, 0, 0)" in str(exc.value)


def test_identity_checks_on_tables():
    heis = catalog.heisenberg_lie(F3)
    assert right_leibniz_violation(F3, heis.table) is None
    assert check_left_leibniz(F3, heis.table)
    aan = catalog.almost_abelian_nonlie(2, F3)
    assert right_leibniz_violation(F3, aan.table) is None
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
    assert catalog.extraspecial_plus_center(0, F3).is_symmetric()
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
    # the line scans keep the p^n bound and the message of the vector scan
    l = catalog.heisenberg_lie(F3)
    messages = []
    for scan in (l.square_zero_vectors, l.square_zero_lines, l.is_supersolvable):
        with pytest.raises(BudgetExceeded) as exc:
            scan(26)
        messages.append(str(exc.value))
    assert messages == ["p^n = 27 exceeds budget 26"] * 3
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
    assert catalog.abelian(3, F3).classify_shape() == "abelian"
    assert catalog.almost_abelian_lie(3, F5).classify_shape() == "almost_abelian_lie"
    assert catalog.almost_abelian_nonlie(2, F3).classify_shape() == "almost_abelian_nonlie"
    assert catalog.heisenberg_lie(F3).classify_shape() == "extraspecial"
    assert catalog.cyclic_nilpotent(2, F5).classify_shape() == "extraspecial"
    assert catalog.cyclic_solvable(3, F3).classify_shape() == "other"


def test_classify_shape_invariant_under_basis_change():
    rng = random.Random(31)
    for base in (
        catalog.almost_abelian_lie(3, F3),
        catalog.almost_abelian_nonlie(3, F3),
        catalog.heisenberg_lie(F2),
    ):
        for _ in range(10):
            p = catalog.random_invertible(base.field, base.dim, rng)
            assert base.change_of_basis(p).classify_shape() == base.classify_shape()


def test_classify_shape_over_the_corpus_matches_golden():
    # the tag of every seed-7 corpus algebra and of its quotient L/I by the Leibniz kernel
    rows = []
    for l in catalog.corpus(7):
        q = l.quotient(l.leibniz_kernel()).algebra
        rows.append((l.name, l.classify_shape(), q.classify_shape()))
    assert len(rows) == 305
    assert {tag for row in rows for tag in row[1:]} == {
        "abelian", "almost_abelian_lie", "almost_abelian_nonlie", "extraspecial", "other"
    }
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()
    assert digest == "989472ae7b2f1498fe25e67134c535954c12249480070514bd851874d45fb7de"


def test_supersolvable():
    assert catalog.cyclic_nilpotent(3, F3).is_supersolvable()
    assert catalog.cyclic_solvable(3, F2).is_supersolvable()
    assert catalog.abelian(4, F2).is_supersolvable()
    assert catalog.heisenberg_lie(F3).is_supersolvable()
    # sl2 has no 1-dim ideal, and every 1-dim ideal of sl2 + abelian(6) is central
    assert not _sl2_plus_abelian(0, F5).is_supersolvable()
    assert not _sl2_plus_abelian(6, F3).is_supersolvable()


def _supersolvable_backtracking_oracle(l):
    """A complete flag of ideals, searched by trying every 1-dim ideal at every level."""
    if l.dim == 0:
        return True
    for v in l.monic_lines():
        line = Subspace.span(l.field, l.dim, [v])
        if l.is_ideal(line) and _supersolvable_backtracking_oracle(l.quotient(line).algebra):
            return True
    return False


def _sl2_plus_abelian(k, f):
    """sl2 on e, f, h ([e,f] = h, [h,e] = 2e, [h,f] = -2f) plus a central k-dim ideal."""
    n = 3 + k
    table = [[[0] * n for _ in range(n)] for _ in range(n)]
    for i, j, m, c in [(0, 1, 2, 1), (2, 0, 0, 2), (2, 1, 1, -2)]:
        table[i][j][m] = c % f.p
        table[j][i][m] = -c % f.p
    return LeibnizAlgebra("sl2+abelian(%d)/F%d" % (k, f.p), f, n, table)


def test_supersolvable_matches_backtracking_oracle():
    members = [l for l in catalog.corpus(7) if "@basis" not in l.name]
    members += [_sl2_plus_abelian(k, F3) for k in range(4)]
    verdicts = [l.is_supersolvable() for l in members]
    assert verdicts == [_supersolvable_backtracking_oracle(l) for l in members]
    assert verdicts.count(False) == 4  # the sl2 cases; every base member is supersolvable


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


def _derived_algebras(l):
    """Quotients by and restrictions to the kernel, the center and L^2, with the projections."""
    full = l.full_subspace()
    out = []
    for ideal in (l.leibniz_kernel(), l.center(), l.product_space(full, full)):
        q = l.quotient(ideal)
        r = l.restrict(ideal)
        projected = [q.project(l.basis_vector(i)) for i in range(l.dim)]
        out.append((q.algebra.name, q.algebra.table, projected, r.name, r.family, r.table))
    return out


def _rational_bases(n, count, rng):
    """Invertible matrices over Q with small integer and half-integer entries."""
    q = Field.rational()
    entries = [Fraction(k, d) for k in range(-3, 4) for d in (1, 2)]
    while count:
        rows = tuple(tuple(rng.choice(entries) for _ in range(n)) for _ in range(n))
        if matrix_rank(q, rows) == n:
            count -= 1
            yield rows


def test_derived_algebra_tables_match_golden():
    # change_of_basis (the corpus basis copies), quotient and restrict: names,
    # families, tables and projections, with repr pinning int vs Fraction entries
    records = []
    for l in catalog.corpus(7):
        records.append((l.name, l.family, l.table, _derived_algebras(l)))
    assert len(records) == 305
    digest = hashlib.sha256(repr(records).encode()).hexdigest()
    assert digest == "ea8d5ed3696050a61f0549087b772e6ff96ad0c616dbd60d2c8fb0e5bd762335"
    base = catalog.cyclic_solvable(4, Field.rational())
    records = []
    for p in _rational_bases(4, 4, random.Random(41)):
        moved = base.change_of_basis(p)
        records.append((moved.name, moved.family, moved.table, _derived_algebras(moved)))
    entries = [x for _, _, table, _ in records for plane in table for row in plane for x in row]
    assert all(type(x) is Fraction for x in entries)
    digest = hashlib.sha256(repr(records).encode()).hexdigest()
    assert digest == "c44815ab2414d07c272cfd01d137f1823cdcc0fd0e0df1343f22095a1686582f"


# -- the packed identity scan against the row scan -----------------------------
# Over F_p the identity scans add packed rows; the row scan, the path over Q,
# is the oracle: the same first violating triple, right and left.


def _scans_agree(f, table):
    """(right, left) first violating triples, after checking both against the row scan."""
    found = (right_leibniz_violation(f, table), left_leibniz_violation(f, table))
    assert found == tuple(_row_leibniz_violation(f, table, left) for left in (False, True))
    return found


def test_packed_scan_matches_row_scan_on_dim0_the_corpus_and_every_dim2_tensor():
    tables = [(F5, ())] + [(l.field, l.table) for l in catalog.corpus(7)]
    tables += [
        (F2, ((flat[0:2], flat[2:4]), (flat[4:6], flat[6:8])))
        for flat in itertools.product(range(2), repeat=8)
    ]
    outcomes = collections.Counter()
    for f, table in tables:
        right, left = _scans_agree(f, table)
        outcomes[right is None, left is None] += 1
    assert len(tables) == 1 + 305 + 256
    assert len(outcomes) == 4, outcomes  # every mix of right and left verdicts


_PLANT_FAMILIES = (
    catalog.abelian,
    catalog.cyclic_nilpotent,
    catalog.cyclic_solvable,
    catalog.almost_abelian_lie,
    catalog.almost_abelian_nonlie,
)


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_packed_scan_finds_the_row_scans_first_planted_defect(data):
    f = data.draw(st.sampled_from((F2, F3, F5, F31)))
    family = data.draw(st.sampled_from(_PLANT_FAMILIES))
    n = data.draw(st.integers(1 if family in _PLANT_FAMILIES[:2] else 2, 6))
    l = family(n, f)
    if data.draw(st.booleans()):  # dense tables
        rng = random.Random(data.draw(st.integers(0, 99)))
        l = l.change_of_basis(catalog.random_invertible(f, n, rng))
    table = [[list(row) for row in plane] for plane in l.table]
    index = st.integers(0, n - 1)
    for _ in range(data.draw(st.integers(0, 3))):
        i, j, k = data.draw(index), data.draw(index), data.draw(index)
        table[i][j][k] = data.draw(st.integers(-f.p, 2 * f.p))  # raw entries are reduced
    _scans_agree(f, table)


def test_packed_scan_holds_on_a_dense_f31_algebra():
    # entries up to 30 in every field: a field width sized without the offset
    # carries here and reports a false violation
    l = catalog.cyclic_solvable(8, F31).change_of_basis(
        catalog.random_invertible(F31, 8, random.Random(5))
    )
    entries = [x for plane in l.table for row in plane for x in row]
    assert sum(1 for x in entries if x) > len(entries) // 2
    right, left = _scans_agree(F31, l.table)
    assert right is None and left is not None


def test_packed_scan_matches_row_scan_after_one_constant_changes():
    # one structure constant of each corpus tensor moved by a nonzero amount, the tensor read
    # over F_2 to F_31: the packed fields are narrowest over F_2 and widest over F_31
    rng = random.Random(27)
    outcomes = collections.Counter()
    for l in catalog.corpus(7):
        for f in (F2, F3, F5, Field.prime(7), F31):
            table = [[list(row) for row in plane] for plane in l.table]
            i, j, k = (rng.randrange(l.dim) for _ in range(3))
            table[i][j][k] += rng.randrange(1, f.p)
            right, left = _scans_agree(f, table)
            outcomes[right is None, left is None] += 1
    assert sum(outcomes.values()) == 5 * 305
    assert len(outcomes) == 4, outcomes  # every mix of right and left verdicts


@pytest.mark.parametrize("p, n", [(2, 1), (3, 4), (31, 3), (31, 8)])
def test_packed_product_holds_the_largest_sums(p, n):
    # every structure constant and coordinate p - 1, a table no Leibniz algebra has: each
    # field of a product reaches the bound n^2 (p-1)^3, and none may carry
    f = Field.prime(p)
    table = [[[p - 1] * n for _ in range(n)] for _ in range(n)]
    b, columns, rows = _pack_table(f, table)
    x = [p - 1] * n
    product = _times(_reversed(x, b), _images(columns, x), b, n)
    assert _unpack(product, b, n, p) == [n * n * (p - 1) ** 3 % p] * n
    assert len(rows) == 1


def test_right_annihilator_census():
    # m, the codimension of K_R = {y : [L, y] = 0} (the rank of the packed table's rows),
    # on the seed-7 corpus: m = 0 gives product_space no product, 0 < m < dim a proper
    # selection of the rows of V, and m = dim every row
    shapes = collections.Counter((l.dim, len(l._packed[2])) for l in catalog.corpus(7))
    census = collections.Counter()
    for (_, m), count in shapes.items():
        census[m] += count
    assert census == {0: 57, 1: 161, 2: 51, 3: 28, 4: 8}
    assert {(4, 0), (4, 1), (4, 3), (4, 4), (3, 2)} <= set(shapes)


def _cyclic_power_oracle(l, v):
    """<v> by the power loop with one Subspace.span per power: the oracle that
    subalgebra_closure([v]) and the lattice's line map are tested against."""
    u, power = Subspace.span(l.field, l.dim, [v]), v
    while True:
        power = l.bracket(power, v)
        if u.contains(power):
            return u
        u = Subspace.span(l.field, l.dim, u.basis + (power,))


def test_cyclic_subalgebra_is_the_closure_of_one_vector():
    # subalgebra_closure([v]) equals the power loop on all 4,379 monic lines of the seed-7
    # corpus, and over Q on random vectors, with the same scalar types in the RREF
    lines = 0
    for l in catalog.corpus(7):
        for v in l.monic_lines():
            assert l.subalgebra_closure([v]) == _cyclic_power_oracle(l, v), (l.name, v)
            lines += 1
    assert lines == 4379
    q, rng = Field.rational(), random.Random(7)
    entries = [Fraction(k, d) for k in range(-2, 3) for d in (1, 2)]
    base = (1, 1, 0, 0), (0, 1, 1, 0), (Fraction(1, 2), 0, 1, 1), (0, 0, 0, 1)
    algebras = [catalog.heisenberg_lie(q)]
    for make in (catalog.cyclic_solvable, catalog.cyclic_nilpotent, catalog.almost_abelian_nonlie):
        algebras += [make(4, q), make(4, q).change_of_basis(base)]
    dims = set()
    for l in algebras:
        vectors = [tuple(rng.choice(entries) for _ in range(l.dim)) for _ in range(25)]
        vectors += [l.basis_vector(i) for i in range(l.dim)] + [(0,) * l.dim]
        if l.dim == 4:
            vectors += [(Fraction(1, 2), -2, 3, 0), (0, 1, 1, 1)]
        for v in vectors:
            u = l.subalgebra_closure([v])
            assert repr(u.basis) == repr(_cyclic_power_oracle(l, v).basis), (l.name, v)
            dims.add(u.dim)
    assert dims == {0, 1, 2, 3, 4}


def test_cyclic_subalgebra_matches_the_power_loop():
    # the lattice's line map on a dense F_31 basis change of cyclic_solvable(3): every line's
    # node is the span of its powers; the algebra L = 0 has no line
    rng = random.Random(31)
    l = catalog.cyclic_solvable(3, F31).change_of_basis(catalog.random_invertible(F31, 3, rng))
    lat = enumerate_subalgebras(l)
    dims = collections.Counter()
    for v, i in zip(l.monic_lines(), lat.cyclic_of_lines()):
        assert lat.nodes[i] == _cyclic_power_oracle(l, v), v
        dims[lat.nodes[i].dim] += 1
    assert dims == {1: 32, 2: 31, 3: 930}  # the lines of L^2 square to 0
    zero = LeibnizAlgebra("zero/F3", F3, 0, ())  # no fields to read
    full = zero.full_subspace()
    assert enumerate_subalgebras(zero).cyclic_of_lines() == []
    assert zero.product_space(full, full) == Subspace.zero(F3, 0)
