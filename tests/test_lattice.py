import collections
import hashlib
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
    lattice_stats,
    wqi_elementwise,
)
from leibnizlat import algebra as algebra_module, lattice as lattice_module, linalg
from leibnizlat.algebra import left_leibniz_violation, right_leibniz_violation
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
    """The first node triple (U, V, W), U <= W, with <U,V> ^ W != <U, V ^ W>, or None.

    Triples run in (u, v, w) index order, so a failure's witness is the first
    failing triple of that scan: the witness the library reports.
    """
    n = len(lat)
    above = [[w for w in range(n) if lat.leq(u, w)] for u in range(n)]
    for u in range(n):
        for v in range(n):
            join = lat.join_index(u, v)
            for w in above[u]:
                if lat.meet_index(join, w) != lat.join_index(u, lat.meet_index(v, w)):
                    return (lat.nodes[u], lat.nodes[v], lat.nodes[w])
    return None


def _semimodular_pair_oracle(lat, upper):
    """The upper (or lower) semimodular pair scan, written out once per dual.

    Upper: the first node pair (U, B) with U ^ B covered by B while U is not
    covered by <U,B>. Lower: the first with B covered by <U,B> while U ^ B is
    not covered by U.
    """
    n = len(lat)
    if upper:
        for u in range(n):
            for b in range(n):
                m = lat.meet_index(u, b)
                if lat.covered_by(m, b) and not lat.covered_by(u, lat.join_index(u, b)):
                    return (False, (lat.nodes[u], lat.nodes[b]))
    else:
        for u in range(n):
            for b in range(n):
                j = lat.join_index(u, b)
                if lat.covered_by(b, j) and not lat.covered_by(lat.meet_index(u, b), u):
                    return (False, (lat.nodes[u], lat.nodes[b]))
    return (True, None)


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
        assert verdict.holds == (_modular_triple_oracle(lat) is None), l.name
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
    assert not wqi_elementwise(l, lat).holds
    u, v = verdict.witness
    assert _wqi_violated(l, u, v)
    assert Subspace.span(F2, n, [(1, 0, 0, 0), (0, 1, 0, 0)]) in (u, v)


def test_line_map_matches_the_general_closure(base_lattices):
    # <v> off the lattice's line map equals subalgebra_closure([v]), a route independent of
    # the node order the map reads; lem-qi's two sides share the map, so this check stands
    # in for their independence. On the base members and the ten workload algebras, and on
    # every line of the seed-7 corpus (the base members and their basis-changed copies)
    copies = [l for l in catalog.corpus(7) if "@basis" in l.name]
    workloads = [(l, enumerate_subalgebras(l)) for l in _workload_algebras()]
    lines = collections.Counter()
    for cases, key in ((base_lattices, "base"), (workloads, "workload"),
                       ([(l, enumerate_subalgebras(l)) for l in copies], "copies")):
        for l, lat in cases:
            line_map = lat.line_map()
            assert list(line_map) == list(l.monic_lines()), l.name
            for v, i in line_map.items():
                assert lat.nodes[i] == l.subalgebra_closure([v]), (l.name, v)
            lines[key] += len(line_map)
    assert lines["base"] + lines["workload"] == 2327
    assert lines["base"] + lines["copies"] == 4379


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
    nodes = [Subspace(F2, k, (tuple(int(c == i) for c in range(k)),)) for i in range(k)]
    return SubalgebraLattice(None, nodes, upset)


def test_modular_needs_lower_semimodularity():
    lat = _partition_lattice(4)
    assert len(lat) == 15
    assert is_upper_semimodular(lat).holds and _usm_covering_oracle(lat)
    assert not is_lower_semimodular_lattice(lat).holds
    verdict = is_modular(lat)
    assert not verdict.holds and _modular_triple_oracle(lat) is not None
    u, v, w = (lat.index_of(x) for x in verdict.witness)
    assert lat.leq(u, w)
    assert lat.meet_index(lat.join_index(u, v), w) != lat.join_index(u, lat.meet_index(v, w))
    # the verify cache combines its own usm and lsm verdicts the same way
    analysis = AlgebraAnalysis(catalog.abelian(1, F2))
    analysis.lattice = lat  # shadows the cached_property
    assert analysis.modular == verdict


# The ten algebras of the benchmark's dense- and sparse-lattice workloads, in catalog bases.
_WORKLOAD_ALGEBRAS = [
    ("almost_abelian_lie", (3,), 7),
    ("abelian", (3,), 7),
    ("almost_abelian_lie", (4,), 2),
    ("almost_abelian_lie", (3,), 5),
    ("abelian", (4,), 2),
    ("cyclic_nilpotent", (4,), 7),
    ("cyclic_nilpotent", (4,), 5),
    ("cyclic_solvable", (4,), 5),
    ("heisenberg_lie", (), 13),
    ("heisenberg_lie", (), 11),
]


def test_condition_verdicts_match_pair_and_triple_oracles(base_lattices):
    # exact (holds, witness) of USM, LSM and modularity, from the lattice
    # functions and from the verify cache, on the 86 base members, the
    # workload algebras and the partition lattices Pi_4 and Pi_5
    cases = list(base_lattices)
    for family, params, p in _WORKLOAD_ALGEBRAS:
        l = catalog.FAMILIES[family][0](*params, Field.prime(p))
        cases.append((l, enumerate_subalgebras(l)))
    cases += [(catalog.abelian(1, F2), _partition_lattice(m)) for m in (4, 5)]
    rows = []
    for l, lat in cases:
        triple = _modular_triple_oracle(lat)
        expected = [
            _semimodular_pair_oracle(lat, True),
            _semimodular_pair_oracle(lat, False),
            (triple is None, triple),
        ]
        got = [is_upper_semimodular(lat), is_lower_semimodular_lattice(lat), is_modular(lat)]
        assert list(map(tuple, got)) == expected, l.name
        analysis = AlgebraAnalysis(l)
        analysis.lattice = lat  # shadows the cached_property; Pi_m is no algebra's lattice
        cached = [analysis.usm, analysis.lsm, analysis.modular]
        assert list(map(tuple, cached)) == expected, l.name
        rows.append(expected)
    assert len(rows) == 98
    failing = [sum(not row[k][0] for row in rows) for k in range(3)]
    assert failing == [5, 2, 7]  # USM, LSM, modular; LSM fails on Pi_4 and Pi_5 only
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()
    assert digest == "fd43d906abe123dd6b0bef238e4ce1f793c91793950184def2c734178c3a8895"


def test_modular_witness_is_the_first_failing_triple_of_the_full_loop():
    # the pentagon read off the semimodular witness is the first failing triple of the full
    # node-triple loop on all 305 seed-7 members, heisenberg over F_2 to F_13 in its catalog
    # basis, and 20 random basis changes of heisenberg/F_5
    cases = list(catalog.corpus(7))
    assert len(cases) == 305
    heisenberg = [catalog.heisenberg_lie(Field.prime(p)) for p in (2, 3, 5, 7, 11, 13)]
    rng = random.Random(24)
    cases += heisenberg
    cases += [heisenberg[2].change_of_basis(catalog.random_invertible(F5, 3, rng))
              for _ in range(20)]
    witnesses = []
    for l in cases:
        lat = enumerate_subalgebras(l)
        triple = _modular_triple_oracle(lat)
        assert tuple(is_modular(lat)) == (triple is None, triple), l.name
        if triple is not None:
            witnesses.append(tuple(map(lat.index_of, triple)))
    assert len(witnesses) == 12 + 6 + 20  # the corpus's heisenberg copies, and the added ones
    assert witnesses[16:18] == [(2, 13, 134), (2, 15, 184)]  # heisenberg/F11, /F13


def _closure_lattices(rng, points):
    """A random closure system on a ground set of ``points`` points: the ground set and a
    few random subsets, closed under intersection, ordered by inclusion. Its lattice comes
    twice, with the nodes in size order and in a random linear extension; they are
    placeholder subspaces, as the condition scans read only the order."""
    ground = (1 << points) - 1
    sets = {ground}
    for _ in range(rng.randrange(1, 2 * points)):
        s = rng.randrange(ground)
        sets |= {s & t for t in sets}
    sized = sorted(sets, key=lambda s: (bin(s).count("1"), s))
    shuffled, rest = [], list(sized)
    while rest:
        shuffled.append(rng.choice([s for s in rest if not any(t != s and t & s == t
                                                               for t in rest)]))
        rest.remove(shuffled[-1])
    k = len(sized)
    nodes = [Subspace(F2, k, (tuple(int(c == i) for c in range(k)),)) for i in range(k)]
    return [SubalgebraLattice(None, nodes,
                              [sum(1 << j for j, t in enumerate(order) if s & t == s)
                               for s in order])
            for order in (sized, shuffled)]


def test_condition_verdicts_on_random_closure_lattices():
    # 200 seeded closure systems on 4 or 5 points, each in size order and in a random
    # linear extension; unlike the algebras' lattices, these fail LSM often
    rng = random.Random(30)
    lattices = [lat for i in range(200) for lat in _closure_lattices(rng, 4 + i % 2)]
    failing = [0, 0, 0]
    for lat in lattices:
        assert (lat.downset, lat.covers_up) == _covers_oracle(lat.upset)
        usm, lsm, modular = (is_upper_semimodular(lat), is_lower_semimodular_lattice(lat),
                             is_modular(lat))
        assert tuple(usm) == _semimodular_pair_oracle(lat, True)
        assert tuple(lsm) == _semimodular_pair_oracle(lat, False)
        assert usm.holds == _usm_covering_oracle(lat)
        assert modular.holds == (_modular_triple_oracle(lat) is None)
        if not modular.holds:  # a pentagon: u < w with equal joins and meets with v
            u, v, w = map(lat.index_of, modular.witness)
            assert u != w and lat.leq(u, w)
            assert lat.join_index(u, v) == lat.join_index(w, v)
            assert lat.meet_index(u, v) == lat.meet_index(w, v)
        failing = [f + (not c.holds) for f, c in zip(failing, (usm, lsm, modular))]
    assert failing == [190, 164, 196]  # USM, LSM, modular, of 400


def _workload_algebras(rng=None):
    """The ten workload algebras, in catalog bases or, given rng, after a seeded basis change."""
    out = [catalog.FAMILIES[f][0](*ps, Field.prime(p)) for f, ps, p in _WORKLOAD_ALGEBRAS]
    if rng is None:
        return out
    return [l.change_of_basis(catalog.random_invertible(l.field, l.dim, rng)) for l in out]


def _product_space_oracle(l, u, v):
    """[U, V] as the span of the basis brackets by Subspace.span."""
    return Subspace.span(l.field, l.dim, [l.bracket(a, b) for a in u.basis for b in v.basis])


def test_product_space_matches_the_span_of_brackets(base_lattices):
    # [S, S] on every subspace S of the 86 base members and the ten workload algebras, in
    # catalog bases and after a seeded basis change as perfbench makes, where K_R is no
    # coordinate subspace; that is the subalgebra filter's call. [U, V] on pairs of subspaces
    # of dense random basis changes over F_2 to F_31, whose fields are the widest the packed
    # table holds
    changed = _workload_algebras(random.Random(7))
    assert any(sum(map(bool, r)) > 1 for l in changed for r in l._packed[2])
    algebras = [l for l, _ in base_lattices] + _workload_algebras() + changed
    subspaces = 0
    for l in algebras:
        for s in enumerate_subspaces(l.field, l.dim):
            assert l.product_space(s, s) == _product_space_oracle(l, s, s), (l.name, s)
            subspaces += 1
    assert subspaces == 10650 + 6958
    rng = random.Random(31)
    pairs = 0
    for p in (2, 3, 5, 7, 31):
        f = Field.prime(p)
        for base in (catalog.cyclic_solvable(5, f), catalog.heisenberg_lie(f), _a2_ac(f)):
            l = base.change_of_basis(catalog.random_invertible(f, base.dim, rng))
            vectors = lambda k: [[rng.randrange(p) for _ in range(l.dim)] for _ in range(k)]
            spaces = [l.full_subspace(), l.zero_subspace()]
            spaces += [Subspace.span(f, l.dim, vectors(k)) for k in (1, 1, 2, 2, 3, 3, 4)]
            for u, v in itertools.product(spaces, repeat=2):
                assert l.product_space(u, v) == _product_space_oracle(l, u, v), (l.name, u, v)
                pairs += 1
    assert pairs == 15 * 81


def test_packed_rows_cut_out_the_right_annihilator(base_lattices):
    # K_R = {y : [e_i, y] = 0 for every i}, by brackets of every vector, is the common kernel
    # of the packed table's rows, on the 86 base members and the ten workload algebras in
    # catalog bases and after a seeded basis change, where K_R is no coordinate subspace
    algebras = [l for l, _ in base_lattices]
    algebras += _workload_algebras() + _workload_algebras(random.Random(27))
    algebras += [l.change_of_basis(catalog.random_invertible(l.field, l.dim, random.Random(i)))
                 for i, (l, _) in enumerate(base_lattices)]
    vectors = kernel = 0
    for l in algebras:
        p, rows, units = l.field.p, l._packed[2], [l.basis_vector(i) for i in range(l.dim)]
        for y in l.all_vectors():
            in_kernel = not any(sum(a * c for a, c in zip(r, y)) % p for r in rows)
            assert in_kernel == (not any(any(l.bracket(e, y)) for e in units)), (l.name, y)
            vectors += 1
            kernel += in_kernel
    assert (vectors, kernel) == (21688, 3510)


def test_product_space_forms_one_product_per_row_of_u_and_kept_row_of_v(monkeypatch):
    # cyclic_nilpotent(4) has m = 1, so [S, S] takes dim S packed products, or none when
    # S of dim >= 2 lies in K_R; a line forms no key and takes its one product even inside
    # K_R. The abelian algebra has m = 0 and takes none
    counts = collections.Counter()

    def spy(*args, _original=algebra_module._times):
        counts["products"] += 1
        return _original(*args)

    monkeypatch.setattr(algebra_module, "_times", spy)
    rng = random.Random(7)
    l = catalog.cyclic_nilpotent(4, F7).change_of_basis(catalog.random_invertible(F7, 4, rng))
    kernel = Subspace.span(F7, 4, linalg.nullspace(F7, l._packed[2]))
    assert kernel.dim == 3 and len(l._packed[2]) == 1
    for s in enumerate_subspaces(F7, 4):
        counts.clear()
        l.product_space(s, s)
        assert counts["products"] == (0 if s.dim != 1 and s.leq(kernel) else s.dim), s
    abelian = catalog.abelian(3, F7)
    counts.clear()
    for s in enumerate_subspaces(F7, 3):
        assert abelian.product_space(s, s).dim == 0
    assert counts["products"] == 0


def test_all_wqi_implies_modular():
    # when all-WQI holds, A + C is a subalgebra for any nodes A and C, so A v C = A + C and
    # dim(A v C) + dim(A ^ C) = dim A + dim C: dimension is a valuation, and a lattice of
    # finite length with one is modular (Birkhoff, Lattice Theory, 1967, ch. X), for every
    # L, solvable or not; rem-equiv covers solvable L only. Checked on the seed-7 corpus and
    # the ten workload algebras
    verdicts = collections.Counter()
    for l in catalog.corpus(7) + _workload_algebras():
        an = AlgebraAnalysis(l)
        wqi, modular = an.wqi_all.holds, an.modular.holds
        assert modular or not wqi, l.name
        verdicts[wqi, modular] += 1
    assert verdicts == {(True, True): 293 + 8, (False, False): 12 + 2}  # heisenberg fails both


def test_filter_and_line_map_call_no_rref_or_bracket(monkeypatch):
    # over F_p the subalgebra filter builds its spans from the packed table: no linalg.rref
    # and no LeibnizAlgebra.bracket call. The line map reads each line's node off the node
    # order, so it makes none of those, no product_space and no closure either
    cases = [catalog.FAMILIES[f][0](*ps, Field.prime(p)) for f, ps, p in _WORKLOAD_ALGEBRAS[5:8]]
    cases.append(cases[0].change_of_basis(((1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1), (0, 0, 0, 1))))
    calls = {}

    def watch(owner, name):
        def spy(*args, _original=getattr(owner, name)):
            calls[name] = calls.get(name, 0) + 1
            return _original(*args)

        monkeypatch.setattr(owner, name, spy)

    watch(linalg, "rref")
    watch(LeibnizAlgebra, "bracket")
    lattices = [enumerate_subalgebras(l) for l in cases]
    assert calls == {}
    watch(LeibnizAlgebra, "product_space")
    watch(LeibnizAlgebra, "subalgebra_closure")
    closed = sum(lat.nodes[i].dim > 1 for lat in lattices for i in lat.line_map().values())
    assert closed > 0 and calls == {}
    assert Subspace.span(F2, 1, [(1,)]).dim == 1 and calls == {"rref": 1}  # the spies are live


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


def _order_oracle(nodes):
    """Containment by Subspace.leq on every ordered node pair, with no dimension test,
    and the downsets and covers of _covers_oracle."""
    n = len(nodes)
    upset = [sum(1 << j for j in range(n) if nodes[i].leq(nodes[j])) for i in range(n)]
    return (upset,) + _covers_oracle(upset)


def _covers_oracle(upset):
    """Downsets by transposing the upsets; j covers i iff the interval [i, j] holds
    exactly the two nodes i != j."""
    n = len(upset)
    downset = [sum(1 << i for i in range(n) if upset[i] >> j & 1) for j in range(n)]
    covers_up = [0] * n
    for i in range(n):
        for j in range(n):
            if i != j and upset[i] & downset[j] == 1 << i | 1 << j:
                covers_up[i] |= 1 << j
    return downset, covers_up


def test_order_matches_all_pairs_oracle(base_lattices):
    # the 86 base members, the ten workload algebras and one random basis copy of
    # each, and abelian(4)/F_3 (every subspace of F_3^4 is a node)
    cases = [lat for _, lat in base_lattices]
    rng = random.Random(15)
    for family, params, p in _WORKLOAD_ALGEBRAS:
        l = catalog.FAMILIES[family][0](*params, Field.prime(p))
        copy = l.change_of_basis(catalog.random_invertible(l.field, l.dim, rng))
        cases += [enumerate_subalgebras(l), enumerate_subalgebras(copy)]
    cases.append(enumerate_subalgebras(catalog.abelian(4, F3)))
    assert len(cases) == 107 and len(cases[-1]) == 212
    for lat in cases:
        order = _order_oracle(lat.nodes)
        assert (lat.upset, lat.downset, lat.covers_up) == order
        # beside the diagonal, every containment is strict in dimension
        dims = [s.dim for s in lat.nodes]
        for i, up in enumerate(order[0]):
            assert all(dims[i] < dims[j] for j in range(len(dims)) if j != i and up >> j & 1)


def test_order_build_tests_only_pairs_of_lower_dimension(monkeypatch):
    # one leq per subspace in the filter, plus one per node pair with dim_i < dim_j;
    # testing every pair with dim_i <= dim_j made 32,735 and 71 calls
    calls = []
    original = Subspace.leq
    monkeypatch.setattr(Subspace, "leq", lambda u, v: calls.append(1) or original(u, v))
    for l, expected in ((catalog.abelian(4, F3), 12633), (catalog.cyclic_solvable(3, F3), 49)):
        calls.clear()
        enumerate_subalgebras(l)
        assert len(calls) == expected, l.name


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
        catalog.extraspecial_plus_center(1, F3),
    ):
        lat = enumerate_subalgebras(l)
        assert is_upper_semimodular(lat).holds == _usm_covering_oracle(lat)


def test_lower_semimodular():
    for l in (catalog.cyclic_nilpotent(3, F2), catalog.heisenberg_lie(F3)):
        lat = enumerate_subalgebras(l)
        assert tuple(is_lower_semimodular_lattice(lat)) == _semimodular_pair_oracle(lat, False)


def test_wqi_single_subalgebra():
    # the paper's example pins the node-pair oracle the all-WQI tests rely on
    l = catalog.heisenberg_lie(F2)
    lat = enumerate_subalgebras(l)
    # the center is an ideal, hence a weak quasi-ideal: it violates against no node
    z = Subspace.span(F2, 3, [(0, 0, 1)])
    assert z in lat.nodes
    assert not any(_wqi_violated(l, z, v) for v in lat.nodes)
    # Fx is not: [Fx, Fy] + [Fy, Fx] = Fz, not inside Fx + Fy
    fx = Subspace.span(F2, 3, [(1, 0, 0)])
    fy = Subspace.span(F2, 3, [(0, 1, 0)])
    assert fx in lat.nodes and fy in lat.nodes
    assert _wqi_violated(l, fx, fy)


def test_wqi_elementwise_matches_lattice_verdict():
    for l in (
        catalog.heisenberg_lie(F3),
        catalog.cyclic_solvable(2, F2),
        catalog.almost_abelian_nonlie(3, F3),
        catalog.family_sqrt(1, 1, F3),
    ):
        lat = enumerate_subalgebras(l)
        assert wqi_elementwise(l, lat).holds == all_subalgebras_wqi(l, lat).holds, l.name


def test_wqi_elementwise_matches_all_vector_oracle():
    # exact (holds, witness) equality: the monic scan finds the same first failing pair,
    # on the 86 base members and every seed-7 member within lem-qi's element budget
    corpus = catalog.corpus(7)
    in_budget = [l for l in corpus if l.field.p ** (2 * l.dim) <= 10 ** 4]
    assert len(in_budget) == 265
    members = in_budget + [l for l in corpus if "@basis" not in l.name and l not in in_budget]
    failing = set()
    for l in members:
        verdict = wqi_elementwise(l, enumerate_subalgebras(l))
        assert tuple(verdict) == _wqi_elementwise_oracle(l), l.name
        if not verdict.holds:
            failing.add(l.name)
    assert {"heisenberg/F2", "heisenberg/F3", "heisenberg/F5", "heisenberg/F3@basis2"} <= failing


def _planted_e0e1(f):
    """[e_0, e_1] = e_2 and every other bracket 0: e_2 is not in <e_0> + <e_1> = span{e_0, e_1}."""
    table = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    table[0][1][2] = 1
    return LeibnizAlgebra("e0e1=e2/F%d" % f.p, f, 3, tuple(tuple(map(tuple, p)) for p in table))


def test_wqi_elementwise_matches_oracle_in_small_dims_and_wide_fields():
    # dims 0 and 1, and the widest packed fields within budget 10^6: F_7 at dim 3, with a
    # planted failure (heisenberg/F7 is in the witness test below), and F_13 at dim 2, where
    # [x,y] lies in <x> + <y> always (span{x,y} is all of L, or y = cx and [x,cx] = c x^2)
    rng = random.Random(13)
    algebras = [catalog.abelian(0, F3), catalog.abelian(1, F2), catalog.abelian(1, Field.prime(31))]
    algebras.append(_planted_e0e1(F7))
    for base in (_planted_e0e1(F7), catalog.cyclic_solvable(3, F7)):
        algebras.append(base.change_of_basis(catalog.random_invertible(F7, 3, rng)))
    f13 = Field.prime(13)
    for make in (catalog.cyclic_solvable, catalog.almost_abelian_lie, catalog.almost_abelian_nonlie):
        algebras.append(make(2, f13).change_of_basis(catalog.random_invertible(f13, 2, rng)))
    failing = set()
    for l in algebras:
        verdict = wqi_elementwise(l, enumerate_subalgebras(l), budget=10 ** 6)
        assert tuple(verdict) == _wqi_elementwise_oracle(l), l.name
        if not verdict.holds:
            failing.add(l.name)
    assert failing == {"e0e1=e2/F7", "e0e1=e2/F7'"}


def test_wqi_elementwise_pair_loop_calls_no_bracket_or_contains(monkeypatch):
    # every cyclic pair of this algebra sums to a node, so the node-sum test passes every
    # line pair off the lattice's join and meet: with <x> from the line map, built here
    # before the spies, the pair loop makes no bracket, no contains and no sum
    l = catalog.cyclic_solvable(3, F3).change_of_basis(((1, 1, 0), (0, 1, 1), (0, 0, 1)))
    lat = enumerate_subalgebras(l)
    lat.line_map()
    calls = {}
    for cls, name in ((LeibnizAlgebra, "bracket"), (Subspace, "contains"), (Subspace, "sum")):
        def spy(*args, _name=name, _original=getattr(cls, name)):
            calls[_name] = calls.get(_name, 0) + 1
            return _original(*args)

        monkeypatch.setattr(cls, name, spy)
    assert wqi_elementwise(l, lat) == (True, None)
    assert calls == {}


def test_cyclic_pairs_with_a_node_sum_pass_the_pair_oracle(base_lattices):
    # wqi_elementwise passes a line pair at once when dim(A v C) + dim(A ^ C) = dim A + dim C
    # for its cyclic nodes A, C. That holds iff A + C is the join node, and then the
    # node-pair oracle's bracket test passes the pair, on the 86 base members and the ten
    # workload algebras
    cases = list(base_lattices)
    for family, params, p in _WORKLOAD_ALGEBRAS:
        l = catalog.FAMILIES[family][0](*params, Field.prime(p))
        cases.append((l, enumerate_subalgebras(l)))
    counts = collections.Counter()
    for l, lat in cases:
        for i, j in itertools.combinations(sorted(set(lat.line_map().values())), 2):
            a, c, join = lat.nodes[i], lat.nodes[j], lat.nodes[lat.join_index(i, j)]
            node_sum = join.dim + lat.nodes[lat.meet_index(i, j)].dim == a.dim + c.dim
            assert (a.sum(c) == join) == node_sum, (l.name, a, c)
            if node_sum:
                assert not _wqi_violated(l, a, c), (l.name, a, c)
            counts[node_sum] += 1
    # every pair that is no node sum is heisenberg's, 15,379 of them over F_13
    assert counts == {True: 14682, False: 23806}


def test_wqi_elementwise_keeps_its_verdicts_and_witnesses(monkeypatch):
    # (name, holds, witness) on the 265 in-budget seed-7 members and on heisenberg over F_2
    # and F_3 in the catalog basis, pinned from the scan that tested every line pair on
    # packed images and check functionals; the node-sum scan forms 8 subspace sums there
    members = [l for l in catalog.corpus(7) if l.field.p ** (2 * l.dim) <= 10 ** 4]
    assert len(members) == 265
    members += [catalog.heisenberg_lie(F2), catalog.heisenberg_lie(F3)]
    lattices = [enumerate_subalgebras(l) for l in members]
    sums = []

    def spy(u, v, _original=Subspace.sum):
        sums.append((u, v))
        return _original(u, v)

    monkeypatch.setattr(Subspace, "sum", spy)
    rows = [(l.name, tuple(wqi_elementwise(l, lat))) for l, lat in zip(members, lattices)]
    assert sum(not holds for _, (holds, _) in rows) == 10
    assert rows[-2:] == [(l.name, (False, ((0, 1, 0), (1, 0, 0)))) for l in members[-2:]]
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()
    assert digest == "717cdd865cdc3333ced6c5e6fdbaa952f5553f4e16a8cdf49e7c70abe39fc9d5"
    assert len(sums) == 10  # 8 on the corpus members, one per heisenberg


@pytest.mark.parametrize("field", [F3, F5, F7])
def test_wqi_elementwise_witness_on_failing_algebras(field):
    rng = random.Random(field.p)
    algebras = [catalog.heisenberg_lie(field)]
    if field.p ** 8 <= 10 ** 6:  # the 4-dim algebra over F_7 exceeds the default budget
        algebras.append(_a2_ac(field))
    for base in list(algebras):
        algebras.append(base.change_of_basis(catalog.random_invertible(field, base.dim, rng)))
    for l in algebras:
        verdict = wqi_elementwise(l, enumerate_subalgebras(l), budget=10 ** 6)
        assert tuple(verdict) == _wqi_elementwise_oracle(l), l.name
        x, y = verdict.witness
        w = l.bracket(x, y)
        assert not l.subalgebra_closure([x]).sum(l.subalgebra_closure([y])).contains(w)


def test_lattice_scans_make_no_per_scalar_field_calls(monkeypatch):
    # Rows are reduced by Field's row methods; a per-scalar loop creeping back
    # into the subspace filter, the order build, the line map, the element scan,
    # the F_p product_space, lem-cyclic's scaled candidates or the F_p identity
    # scans shows here.
    l = catalog.cyclic_solvable(3, F3)
    dense = l.change_of_basis(((1, 1, 0), (0, 1, 1), (0, 0, 1)))
    analysis = AlgebraAnalysis(l)
    calls = {}
    for name in ("add", "sub", "mul", "neg", "normalize"):
        def spy(self, *args, _name=name, _original=getattr(Field, name)):
            calls[_name] = calls.get(_name, 0) + 1
            return _original(self, *args)

        monkeypatch.setattr(Field, name, spy)
    wqi_elementwise(l, enumerate_subalgebras(l))
    for s in enumerate_subspaces(F3, 3):
        dense.product_space(s, dense.full_subspace())
    enumerate_subalgebras(dense).line_map()
    assert analysis.cyclic_canonical_form() == "solvable"
    assert right_leibniz_violation(F3, dense.table) is None
    assert left_leibniz_violation(F3, dense.table) is not None
    assert calls == {}
    assert F3.mul(2, 2) == 1 and calls == {"mul": 1}  # the spies are live


def test_maximal_subalgebras_cyclic_solvable():
    l = catalog.cyclic_solvable(3, F3)
    lat = enumerate_subalgebras(l)
    maxes = [lat.nodes[i] for i in lat.coatoms()]
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
        maxes = [lat.nodes[i] for i in lat.coatoms()]
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


# -- lower covers, coatoms, heights and the Frattini meet against the old scans --


def _coatoms_oracle(lat):
    """The coatoms by one covered_by probe per node against the top."""
    top = len(lat.nodes) - 1
    return [i for i in range(top) if lat.covered_by(i, top)]


def _heights_oracle(lat):
    """Node heights by an O(n^2) covered_by scan over all earlier nodes."""
    height = [0] * len(lat.nodes)
    for j in range(len(lat.nodes)):
        below = [i for i in range(j) if lat.covered_by(i, j)]
        if below:
            height[j] = 1 + max(height[i] for i in below)
    return height


def _frattini_intersection_oracle(l, lat):
    """Largest ideal in the Subspace.intersection chain over the coatom oracle's nodes."""
    inter = l.full_subspace()
    for i in _coatoms_oracle(lat):
        inter = inter.intersection(lat.nodes[i])
    return l.largest_ideal_in(inter)


def _pentagon():
    """N_5: 0 < a < b < 1 and 0 < c < 1, a lattice whose maximal chains differ in length."""
    upset = [0b11111, 0b10110, 0b10100, 0b11000, 0b10000]  # nodes 0, a, b, c, 1
    nodes = [Subspace(F2, 5, (tuple(int(c == i) for c in range(5)),)) for i in range(5)]
    return SubalgebraLattice(None, nodes, upset)


def test_lower_covers_coatoms_heights_and_frattini_match_scans(base_lattices):
    # on the 86 base members, the workload algebras, L = 0, Pi_4, Pi_5 and N_5; the
    # partition lattices and N_5 have no algebra, so only here are their covers checked
    cases = list(base_lattices)
    for family, params, p in _WORKLOAD_ALGEBRAS:
        l = catalog.FAMILIES[family][0](*params, Field.prime(p))
        cases.append((l, enumerate_subalgebras(l)))
    zero = LeibnizAlgebra("zero/F3", F3, 0, ())
    cases.append((zero, enumerate_subalgebras(zero)))
    lattices = [lat for _, lat in cases] + [_partition_lattice(m) for m in (4, 5)]
    lattices.append(_pentagon())
    assert len(lattices) == 100
    assert lattice_stats(lattices[-1])["height"] == 3 and lattices[-1].coatoms() == [2, 3]
    assert lattices[-1].covers_up == [0b01010, 0b00100, 0b10000, 0b10000, 0]
    for lat in lattices:
        n = len(lat)
        assert (lat.downset, lat.covers_up) == _covers_oracle(lat.upset)
        transpose = [sum(1 << i for i in range(n) if lat.covered_by(i, j)) for j in range(n)]
        assert lat.covers_down == transpose
        coatoms = _coatoms_oracle(lat)
        assert lat.coatoms() == coatoms
        assert lattice_stats(lat) == {
            "nodes": n,
            "height": _heights_oracle(lat)[-1],
            "atoms": len(lat.atoms()),
            "coatoms": len(coatoms),
        }
    for l, lat in cases:
        assert frattini_ideal(l, lat) == _frattini_intersection_oracle(l, lat), l.name
    assert frattini_ideal(zero) == Subspace.zero(F3, 0)


def test_lower_covers_are_built_once(monkeypatch):
    # the lower-semimodularity scan reads the lattice's own lower covers
    lat = enumerate_subalgebras(catalog.almost_abelian_lie(3, F3))  # modular
    seen = []
    original = lattice_module._semimodular

    def spy(lat_, meet, join, covers):
        seen.append(covers)
        return original(lat_, meet, join, covers)

    monkeypatch.setattr(lattice_module, "_semimodular", spy)
    is_lower_semimodular_lattice(lat)
    is_modular(lat)
    assert len(seen) == 3 and seen[0] is seen[2] is lat.covers_down
