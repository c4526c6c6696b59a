import itertools
import random

import pytest

from leibnizlat import (
    Field,
    LeibnizAlgebra,
    SubalgebraLattice,
    Subspace,
    all_subalgebras_wqi,
    build_structure_report,
    catalog,
    enumerate_subalgebras,
    enumerate_subspaces,
    frattini_ideal,
    is_lower_semimodular_lattice,
    is_modular,
    is_upper_semimodular,
    is_weak_quasi_ideal,
    lattice_stats,
    maximal_subalgebras,
    wqi_elementwise,
)
from leibnizlat.verify import AlgebraAnalysis

F2 = Field.prime(2)
F3 = Field.prime(3)
F5 = Field.prime(5)
F7 = Field.prime(7)


# -- oracles: the full scans that the library decides through theorems ------


def _wqi_violated(l, u, v):
    """[U,V] + [V,U] is not inside U + V: some basis bracket falls outside."""
    products = [w for a in u.basis for b in v.basis for w in (l.bracket(a, b), l.bracket(b, a))]
    products = [w for w in products if any(w)]
    return bool(products) and not all(map(u.sum(v).contains, products))


def _wqi_node_pair_oracle(l, lat):
    """Every node is a weak quasi-ideal, tested against every other node."""
    return not any(_wqi_violated(l, u, v) for u, v in itertools.combinations(lat.nodes, 2))


def _modular_triple_oracle(lat):
    """<U,V> ^ W = <U, V ^ W> over every node triple with U <= W."""
    n = len(lat)
    for u in range(n):
        for w in range(n):
            if not lat.leq(u, w):
                continue
            for v in range(n):
                left = lat.meet_index(lat.join_index(u, v), w)
                if left != lat.join_index(u, lat.meet_index(v, w)):
                    return False
    return True


def _usm_covering_oracle(lat):
    """Abstract covering form: if a and b both cover a ^ b, then a v b covers a and b."""
    n = len(lat)
    for a in range(n):
        for b in range(a + 1, n):
            m = lat.meet_index(a, b)
            if lat.covered_by(m, a) and lat.covered_by(m, b):
                j = lat.join_index(a, b)
                if not (lat.covered_by(a, j) and lat.covered_by(b, j)):
                    return False
    return True


def _wqi_elementwise_oracle(l):
    """[x,y] in <x> + <y> over every ordered pair of vectors, in lexicographic order."""
    vectors = list(l.all_vectors())
    generated = [l.subalgebra_closure([v]) for v in vectors]
    sums = {}
    for x, gx in zip(vectors, generated):
        for y, gy in zip(vectors, generated):
            w = l.bracket(x, y)
            if not any(w):
                continue
            key = (gx.basis, gy.basis)
            if key not in sums:
                sums[key] = gx.sum(gy)
            if not sums[key].contains(w):
                return (False, (x, y))
    return (True, None)


def _a2_ac(f):
    """[a,a] = b, [a,c] = d on basis a, b, c, d; every other bracket is 0."""
    n = 4
    table = [[[0] * n for _ in range(n)] for _ in range(n)]
    table[0][0][1] = 1
    table[0][2][3] = 1
    return LeibnizAlgebra("a2=b,ac=d/F%d" % f.p, f, n, tuple(tuple(map(tuple, p)) for p in table))


def _covers(lat, low, high):
    """high covers low among the nodes, by subspace containment."""
    return low.dim < high.dim and low.leq(high) and not any(
        low.dim < s.dim < high.dim and low.leq(s) and s.leq(high) for s in lat.nodes
    )


def _is_cyclic(l, u):
    return any(l.subalgebra_closure([v]) == u for v in u.vectors())


@pytest.fixture(scope="module")
def base_lattices():
    """The 86 base members of the seed-7 corpus (catalog bases and the F_2 dim-2 sweep)."""
    members = [a for a in catalog.corpus(7) if "@basis" not in a.name]
    assert len(members) == 86
    assert sum(a.family == "exhaustive_dim2" for a in members) == 13
    return [(a, enumerate_subalgebras(a)) for a in members]


def _assert_negative_controls(failing):
    # heisenberg over F_2 and F_3 fails every condition, so the failure path is exercised
    assert {"heisenberg/F2", "heisenberg/F3"} <= failing


def test_all_wqi_matches_node_pair_oracle(base_lattices):
    failing = set()
    for l, lat in base_lattices:
        verdict = all_subalgebras_wqi(l, lat)
        assert verdict.holds == _wqi_node_pair_oracle(l, lat), l.name
        if not verdict.holds:
            failing.add(l.name)
            u, v = verdict.witness
            assert _wqi_violated(l, u, v), l.name
            assert _is_cyclic(l, u) and _is_cyclic(l, v), l.name
    _assert_negative_controls(failing)


def test_modular_matches_triple_oracle(base_lattices):
    failing = set()
    for l, lat in base_lattices:
        verdict = is_modular(lat)
        assert verdict.holds == _modular_triple_oracle(lat), l.name
        if not verdict.holds:
            failing.add(l.name)
            u, v, w = verdict.witness
            assert u.leq(w), l.name
            left = l.subalgebra_closure(u.basis + v.basis).intersection(w)
            right = l.subalgebra_closure(u.basis + v.intersection(w).basis)
            assert left != right, l.name
    _assert_negative_controls(failing)


def test_usm_matches_covering_oracle(base_lattices):
    failing = set()
    for l, lat in base_lattices:
        verdict = is_upper_semimodular(lat)
        assert verdict.holds == _usm_covering_oracle(lat), l.name
        if not verdict.holds:
            failing.add(l.name)
            u, b = verdict.witness
            join = l.subalgebra_closure(u.basis + b.basis)
            assert _covers(lat, u.intersection(b), b), l.name
            assert not _covers(lat, u, join), l.name
    _assert_negative_controls(failing)


def test_all_wqi_needs_cyclic_subalgebras_beyond_lines():
    # Every line that is a subalgebra lies in span{b, c, d}, where all brackets
    # vanish, so only the 2-dim cyclic subalgebra <a> = span{a, b} exposes
    # [a, c] = d outside <a> + <c>.
    n = 4
    l = _a2_ac(F2)
    lat = enumerate_subalgebras(l)
    verdict = all_subalgebras_wqi(l, lat)
    assert not verdict.holds and not _wqi_node_pair_oracle(l, lat)
    assert not wqi_elementwise(l).holds
    u, v = verdict.witness
    assert _wqi_violated(l, u, v)
    assert Subspace.span(F2, n, [(1, 0, 0, 0), (0, 1, 0, 0)]) in (u, v)


def _partition_lattice(m):
    """Partitions of {0..m-1} by refinement: upper but not lower semimodular for m >= 4.

    The nodes are placeholder subspaces; the condition scans read only the order.
    """
    def partitions(items):
        if not items:
            yield []
            return
        head, rest = items[0], items[1:]
        for part in partitions(rest):
            yield [[head]] + part
            for i in range(len(part)):
                yield part[:i] + [[head] + part[i]] + part[i + 1:]

    parts = sorted((frozenset(map(frozenset, p)) for p in partitions(list(range(m)))), key=len)
    parts.reverse()  # finest first: a linear extension of the order
    k = len(parts)
    leq = [[all(any(b <= c for c in q) for b in p) for q in parts] for p in parts]
    upset = [sum(1 << j for j in range(k) if leq[i][j]) for i in range(k)]
    downset = [sum(1 << i for i in range(k) if leq[i][j]) for j in range(k)]
    covers_up = [
        sum(1 << j for j in range(k) if j != i and leq[i][j] and bin(upset[i] & downset[j]).count("1") == 2)
        for i in range(k)
    ]
    nodes = [Subspace(F2, k, (tuple(int(c == i) for c in range(k)),)) for i in range(k)]
    return SubalgebraLattice(None, nodes, upset, downset, covers_up)


def test_modular_needs_lower_semimodularity():
    lat = _partition_lattice(4)
    assert len(lat) == 15
    assert is_upper_semimodular(lat).holds and _usm_covering_oracle(lat)
    assert not is_lower_semimodular_lattice(lat).holds
    verdict = is_modular(lat)
    assert not verdict.holds and not _modular_triple_oracle(lat)
    u, v, w = (lat.index_of(x) for x in verdict.witness)
    assert lat.leq(u, w)
    assert lat.meet_index(lat.join_index(u, v), w) != lat.join_index(u, lat.meet_index(v, w))
    # the verify cache combines its own usm and lsm verdicts the same way
    analysis = AlgebraAnalysis(catalog.abelian(1, F2))
    analysis.lattice = lat  # shadows the cached_property
    assert analysis.modular == verdict


def _closed_subspaces(l):
    """Independent oracle: filter subspaces by pairwise bracket membership."""
    out = []
    for s in enumerate_subspaces(l.field, l.dim):
        vecs = list(s.vectors())
        if all(s.contains(l.bracket(x, y)) for x in vecs for y in vecs):
            out.append(s)
    return out


@pytest.mark.parametrize(
    "make",
    [
        lambda: catalog.heisenberg_lie(F2),
        lambda: catalog.cyclic_solvable(3, F3),
        lambda: catalog.almost_abelian_nonlie(3, F2),
        lambda: catalog.family_sqrt(1, 2, F3),
        lambda: catalog.abelian(4, F2),
    ],
)
def test_enumeration_matches_bruteforce(make):
    l = make()
    lat = enumerate_subalgebras(l)
    assert set(lat.nodes) == set(_closed_subspaces(l))


def test_node_order_and_bounds():
    l = catalog.cyclic_solvable(3, F3)
    lat = enumerate_subalgebras(l)
    assert lat.nodes[0].dim == 0
    assert lat.nodes[-1].dim == l.dim
    dims = [s.dim for s in lat.nodes]
    assert dims == sorted(dims)
    assert len(lat.nodes) == 8


def test_join_meet_against_definitions():
    l = catalog.heisenberg_lie(F3)
    lat = enumerate_subalgebras(l)
    for u, v in itertools.combinations(lat.nodes, 2):
        j = lat.join(u, v)
        assert j == l.subalgebra_closure(list(u.basis) + list(v.basis))
        m = lat.meet(u, v)
        assert m == u.intersection(v)  # meet of subalgebras is the intersection


def test_atoms_coatoms():
    l = catalog.cyclic_nilpotent(2, F3)
    lat = enumerate_subalgebras(l)
    assert len(lat.nodes) == 3  # 0 < Fa^2 < L
    assert lat.atoms() == [1]
    assert lat.coatoms() == [1]


def test_heisenberg_negative_control():
    for f in (F2, F3):
        l = catalog.heisenberg_lie(f)
        lat = enumerate_subalgebras(l)
        m = is_modular(lat)
        u = is_upper_semimodular(lat)
        w = all_subalgebras_wqi(l, lat)
        assert not m.holds and m.witness is not None
        assert not u.holds and u.witness is not None
        assert not w.holds and w.witness is not None
        # deterministic witness: same run twice
        lat2 = enumerate_subalgebras(l)
        assert is_modular(lat2).witness == m.witness
        # the witness actually violates modularity
        uu, vv, ww = m.witness
        assert uu.leq(ww)
        assert lat.join(uu, vv).intersection(ww) != lat.join(uu, vv.intersection(ww))


def test_modular_families():
    for l in (
        catalog.abelian(3, F3),
        catalog.cyclic_nilpotent(3, F2),
        catalog.cyclic_solvable(3, F3),
        catalog.almost_abelian_lie(3, F5),
        catalog.family_nonlie_ii(2, 1, F3),
        catalog.symmetric_iv(1, F5),
    ):
        lat = enumerate_subalgebras(l)
        assert is_modular(lat).holds, l.name
        assert is_upper_semimodular(lat).holds, l.name
        assert all_subalgebras_wqi(l, lat).holds, l.name


def test_usm_forms_agree():
    for l in (
        catalog.heisenberg_lie(F2),
        catalog.cyclic_solvable(3, F3),
        catalog.almost_abelian_nonlie(3, F3),
        catalog.extraspecial_plus_center(F3, 1),
    ):
        lat = enumerate_subalgebras(l)
        assert is_upper_semimodular(lat).holds == _usm_covering_oracle(lat)


def test_lower_semimodular():
    # cross-check the bitset implementation against a direct double loop
    for l in (catalog.cyclic_nilpotent(3, F2), catalog.heisenberg_lie(F3)):
        lat = enumerate_subalgebras(l)
        expected = True
        for i in range(len(lat.nodes)):
            for j in range(len(lat.nodes)):
                join = lat.join_index(i, j)
                meet = lat.meet_index(i, j)
                if lat.covered_by(j, join) and not lat.covered_by(meet, i):
                    expected = False
        assert is_lower_semimodular_lattice(lat).holds == expected


def test_wqi_single_subalgebra():
    l = catalog.heisenberg_lie(F2)
    lat = enumerate_subalgebras(l)
    # the center is an ideal, hence a weak quasi-ideal
    z = Subspace.span(F2, 3, [(0, 0, 1)])
    assert is_weak_quasi_ideal(l, lat, z)
    # Fx is not: [Fx, Fy] + [Fy, Fx] = Fz, not inside Fx + Fy
    fx = Subspace.span(F2, 3, [(1, 0, 0)])
    assert not is_weak_quasi_ideal(l, lat, fx)


def test_wqi_elementwise_matches_lattice_verdict():
    for l in (
        catalog.heisenberg_lie(F3),
        catalog.cyclic_solvable(2, F2),
        catalog.almost_abelian_nonlie(3, F3),
        catalog.family_sqrt(1, 1, F3),
    ):
        lat = enumerate_subalgebras(l)
        assert wqi_elementwise(l).holds == all_subalgebras_wqi(l, lat).holds, l.name


def test_wqi_elementwise_matches_all_vector_oracle(base_lattices):
    # exact (holds, witness) equality: the monic scan finds the same first failing pair;
    # the basis copies are those with p >= 3 that lem-qi scans in the corpus
    members = [l for l, _ in base_lattices]
    members += [
        l
        for l in catalog.corpus(7)
        if "@basis" in l.name and l.field.p >= 3 and l.field.p ** (2 * l.dim) <= 10 ** 4
    ]
    failing = set()
    for l in members:
        verdict = wqi_elementwise(l)
        assert tuple(verdict) == _wqi_elementwise_oracle(l), l.name
        if not verdict.holds:
            failing.add(l.name)
    assert {"heisenberg/F3", "heisenberg/F5", "heisenberg/F3@basis2"} <= failing


@pytest.mark.parametrize("field", [F3, F5, F7])
def test_wqi_elementwise_witness_on_failing_algebras(field):
    rng = random.Random(field.p)
    algebras = [catalog.heisenberg_lie(field)]
    if field.p ** 8 <= 10 ** 6:  # the 4-dim algebra over F_7 exceeds the default budget
        algebras.append(_a2_ac(field))
    for base in list(algebras):
        algebras.append(base.change_of_basis(catalog.random_invertible(field, base.dim, rng)))
    for l in algebras:
        verdict = wqi_elementwise(l, budget=10 ** 6)
        assert tuple(verdict) == _wqi_elementwise_oracle(l), l.name
        x, y = verdict.witness
        w = l.bracket(x, y)
        assert not l.subalgebra_closure([x]).sum(l.subalgebra_closure([y])).contains(w)


def test_maximal_subalgebras_cyclic_solvable():
    l = catalog.cyclic_solvable(3, F3)
    maxes = maximal_subalgebras(enumerate_subalgebras(l))
    assert len(maxes) == 2
    assert Subspace.span(F3, 3, [(0, 1, 0), (0, 0, 1)]) in maxes  # L^2
    assert Subspace.span(F3, 3, [(1, 0, 2), (0, 1, 2)]) in maxes  # <a - a^3>


def test_frattini_cyclic_nilpotent_is_derived():
    for n in (2, 3, 4):
        for f in (F2, F3):
            l = catalog.cyclic_nilpotent(n, f)
            l2 = l.product_space(l.full_subspace(), l.full_subspace())
            assert frattini_ideal(l) == l2


def test_frattini_cyclic_solvable_closed_form():
    # phi = sum_{i=2}^{n-1} F(a^i - a^(i+1)); in particular dim phi = n - 2
    for n in (2, 3, 4):
        for f in (F2, F3, F5):
            l = catalog.cyclic_solvable(n, f)
            gens = []
            for i in range(1, n - 1):  # 0-based: a^(i+1) - a^(i+2)
                v = [0] * n
                v[i] = f.one()
                v[i + 1] = f.neg(f.one())
                gens.append(tuple(v))
            assert frattini_ideal(l) == Subspace.span(f, n, gens)


def test_frattini_bruteforce_oracle():
    # independent computation: ideals contained in every maximal subalgebra
    for l in (catalog.cyclic_solvable(3, F3), catalog.heisenberg_lie(F2)):
        lat = enumerate_subalgebras(l)
        maxes = maximal_subalgebras(lat)
        inter = l.full_subspace()
        for m in maxes:
            inter = inter.intersection(m)
        best = Subspace.zero(l.field, l.dim)
        for s in enumerate_subspaces(l.field, l.dim):
            if s.leq(inter) and l.is_ideal(s) and s.dim > best.dim:
                best = s
        assert frattini_ideal(l, lat) == best


def test_frattini_family_nonlie_ii():
    # the abelian part never survives the maximal-intersection; what is left
    # is the same chain sum_i F(x^i - x^(i+1)) as in the pure cyclic case
    l = catalog.family_nonlie_ii(2, 2, F2)
    assert frattini_ideal(l).dim == 0
    l = catalog.family_nonlie_ii(3, 1, F3)
    assert frattini_ideal(l) == Subspace.span(F3, 4, [(0, 1, 2, 0)])


def test_lattice_stats_and_heights():
    lat = enumerate_subalgebras(catalog.abelian(2, F2))
    stats = lattice_stats(lat)
    assert stats == {"nodes": 5, "height": 2, "atoms": 3, "coatoms": 3}
    lat = enumerate_subalgebras(catalog.heisenberg_lie(F2))
    assert lattice_stats(lat)["nodes"] == 12


def test_structure_report():
    rep = build_structure_report(catalog.cyclic_solvable(3, F3))
    d = rep.to_dict()
    assert d["dim"] == 3
    assert d["is_solvable"] is True
    assert d["is_nilpotent"] is False
    assert d["dim_frattini"] == 1
    assert d["is_supersolvable"] is True
