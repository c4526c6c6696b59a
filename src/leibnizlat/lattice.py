"""Subalgebra lattices of finite-field Leibniz algebras and their lattice conditions.

The lattice is materialized as a sorted node list with containment, cover and
join/meet data held in integer bitsets, so the condition scans (modularity,
semi-modularity, weak quasi-ideals) are loops over O(1) bit operations.

Two shortcuts rest on theorems. Modularity: a lattice of finite length is
modular iff it is upper and lower semimodular (Birkhoff, *Lattice Theory*,
1967; Stern, *Semimodular Lattices*, 1999), so two node-pair scans decide it
and the node-triple scan runs only to find a failure's witness. All-WQI:
[U,V] is spanned by the brackets [u,v] (bilinearity), and [u,v] lies in
<u> + <v> <= U + V when the cyclic pair <u>, <v> passes, so pairs of cyclic
subalgebras decide it.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .linalg import BudgetExceeded, Subspace, enumerate_subspaces, vec_is_zero
from .algebra import LeibnizAlgebra, StructureReport, UnsupportedFieldError

DEFAULT_NODE_BUDGET = 5000

Verdict = namedtuple("Verdict", ["holds", "witness"])


def _bits(x: int):
    while x:
        b = x & -x
        yield b.bit_length() - 1
        x ^= b


class LatticeError(ValueError):
    pass


@dataclass
class SubalgebraLattice:
    algebra: LeibnizAlgebra
    nodes: List[Subspace]          # sorted by (dim, RREF key); nodes[0] = 0, nodes[-1] = L
    upset: List[int]               # bit j of upset[i] set iff nodes[i] <= nodes[j]
    downset: List[int]
    covers_up: List[int]           # bit j of covers_up[i] set iff nodes[i] is covered by nodes[j]

    _index: Dict[tuple, int] = None

    def __post_init__(self):
        self._index = {s.basis: i for i, s in enumerate(self.nodes)}

    def __len__(self):
        return len(self.nodes)

    def index_of(self, s: Subspace) -> int:
        try:
            return self._index[s.basis]
        except KeyError:
            raise LatticeError("subspace is not a subalgebra node") from None

    def leq(self, i: int, j: int) -> bool:
        return bool(self.upset[i] >> j & 1)

    def covered_by(self, i: int, j: int) -> bool:
        return bool(self.covers_up[i] >> j & 1)

    def join_index(self, i: int, j: int) -> int:
        common = self.upset[i] & self.upset[j]
        return (common & -common).bit_length() - 1

    def meet_index(self, i: int, j: int) -> int:
        common = self.downset[i] & self.downset[j]
        return common.bit_length() - 1

    def join(self, u: Subspace, v: Subspace) -> Subspace:
        return self.nodes[self.join_index(self.index_of(u), self.index_of(v))]

    def meet(self, u: Subspace, v: Subspace) -> Subspace:
        return self.nodes[self.meet_index(self.index_of(u), self.index_of(v))]

    def atoms(self) -> List[int]:
        return list(_bits(self.covers_up[0]))

    def coatoms(self) -> List[int]:
        top = len(self.nodes) - 1
        return [i for i in range(top) if self.covered_by(i, top)]


def enumerate_subalgebras(
    l: LeibnizAlgebra,
    node_budget: int = DEFAULT_NODE_BUDGET,
    subspace_budget: int = 10 ** 6,
) -> SubalgebraLattice:
    """Build the full subalgebra lattice of a finite-field algebra."""
    if not l.field.is_prime_field:
        raise UnsupportedFieldError("subalgebra enumeration needs a finite prime field")
    nodes = []
    for s in enumerate_subspaces(l.field, l.dim, budget=subspace_budget):
        if l.product_space(s, s).leq(s):
            nodes.append(s)
            if len(nodes) > node_budget:
                raise BudgetExceeded("subalgebra count exceeds node budget %d" % node_budget)
    # enumerate_subspaces already yields in (dim, key) order
    n = len(nodes)
    upset = [0] * n
    downset = [0] * n
    for i in range(n):
        for j in range(n):
            if nodes[i].dim <= nodes[j].dim and nodes[i].leq(nodes[j]):
                upset[i] |= 1 << j
                downset[j] |= 1 << i
    covers_up = [0] * n
    for i in range(n):
        for j in _bits(upset[i]):
            if j != i and (upset[i] & downset[j]).bit_count() == 2:
                covers_up[i] |= 1 << j
    return SubalgebraLattice(l, nodes, upset, downset, covers_up)


# -- lattice conditions ----------------------------------------------------


def is_modular(lat: SubalgebraLattice) -> Verdict:
    """<U,V> ^ W = <U, V ^ W> for all node triples with U <= W, as USM and LSM."""
    if is_upper_semimodular(lat).holds and is_lower_semimodular_lattice(lat).holds:
        return Verdict(True, None)
    return Verdict(False, modular_witness(lat))


def modular_witness(lat: SubalgebraLattice) -> Optional[Tuple[Subspace, Subspace, Subspace]]:
    """The first node triple (U, V, W) with U <= W and <U,V> ^ W != <U, V ^ W>."""
    n = len(lat.nodes)
    upset, downset = lat.upset, lat.downset
    for u in range(n):
        up_u = lat.upset[u]
        for v in range(n):
            common = upset[u] & upset[v]
            juv = (common & -common).bit_length() - 1
            down_juv = downset[juv]
            for w in _bits(up_u):
                left = (down_juv & downset[w]).bit_length() - 1
                m = (downset[v] & downset[w]).bit_length() - 1
                cu = upset[u] & upset[m]
                right = (cu & -cu).bit_length() - 1
                if left != right:
                    return (lat.nodes[u], lat.nodes[v], lat.nodes[w])
    return None


def is_upper_semimodular(lat: SubalgebraLattice) -> Verdict:
    """If U ^ B is maximal in B then U is maximal in <U,B> (for all node pairs)."""
    n = len(lat.nodes)
    for u in range(n):
        for b in range(n):
            m = lat.meet_index(u, b)
            if lat.covered_by(m, b) and not lat.covered_by(u, lat.join_index(u, b)):
                return Verdict(False, (lat.nodes[u], lat.nodes[b]))
    return Verdict(True, None)


def is_lower_semimodular_lattice(lat: SubalgebraLattice) -> Verdict:
    """Dual covering condition: if B is covered by <U,B> then U ^ B is covered by U."""
    n = len(lat.nodes)
    for u in range(n):
        for b in range(n):
            j = lat.join_index(u, b)
            if lat.covered_by(b, j) and not lat.covered_by(lat.meet_index(u, b), u):
                return Verdict(False, (lat.nodes[u], lat.nodes[b]))
    return Verdict(True, None)


def is_weak_quasi_ideal(l: LeibnizAlgebra, lat: SubalgebraLattice, u: Subspace) -> bool:
    """[U,V] + [V,U] <= U + V against every node V."""
    lat.index_of(u)
    return all(_wqi_pair(l, u, v) for v in lat.nodes)


def _wqi_pair(l: LeibnizAlgebra, u: Subspace, v: Subspace) -> bool:
    s = None
    for a in u.basis:
        for b in v.basis:
            for w in (l.bracket(a, b), l.bracket(b, a)):
                if vec_is_zero(w):
                    continue
                if s is None:
                    s = u.sum(v)
                if not s.contains(w):
                    return False
    return True


def _cyclic_nodes(l: LeibnizAlgebra, lat: SubalgebraLattice) -> List[int]:
    """Node indices of the distinct cyclic subalgebras <v>, in node order."""
    found = set()
    for v in l.monic_lines():
        # (v,) is the RREF key of the line Fv; a line that is a node is its own closure
        i = lat._index.get((v,))
        found.add(i if i is not None else lat.index_of(l.subalgebra_closure([v])))
    return sorted(found)


def all_subalgebras_wqi(l: LeibnizAlgebra, lat: SubalgebraLattice) -> Verdict:
    """Every node is a weak quasi-ideal, decided on pairs of cyclic subalgebras."""
    cyclic = _cyclic_nodes(l, lat)
    for a, i in enumerate(cyclic):
        for j in cyclic[a + 1:]:
            if not _wqi_pair(l, lat.nodes[i], lat.nodes[j]):
                return Verdict(False, (lat.nodes[i], lat.nodes[j]))
    return Verdict(True, None)


def wqi_elementwise(l: LeibnizAlgebra, budget: int = 10 ** 6) -> Verdict:
    """[x,y] in <x> + <y> over all element pairs; independent of the node scan.

    Scaling changes neither side ([cx,dy] = cd[x,y] and <cx> = <x>), so one
    monic vector per line decides it. The monic vector is the smallest on its
    line, so the first failing monic pair is the first failing pair of the
    lexicographic scan over all vectors. The budget still bounds p^(2n).
    """
    if not l.field.is_prime_field:
        raise UnsupportedFieldError("element scan needs a finite prime field")
    if l.field.p ** (2 * l.dim) > budget:
        raise BudgetExceeded(
            "p^(2n) = %d exceeds budget %d" % (l.field.p ** (2 * l.dim), budget)
        )
    lines = list(l.monic_lines())
    generated = [l.subalgebra_closure([v]) for v in lines]
    sums: Dict[Tuple[tuple, tuple], Subspace] = {}
    for x, gx in zip(lines, generated):
        for y, gy in zip(lines, generated):
            w = l.bracket(x, y)
            if vec_is_zero(w):
                continue
            key = (gx.basis, gy.basis)
            s = sums.get(key)
            if s is None:
                s = gx.sum(gy)
                sums[key] = s
            if not s.contains(w):
                return Verdict(False, (x, y))
    return Verdict(True, None)


# -- maximal subalgebras and the Frattini ideal ----------------------------


def maximal_subalgebras(lat: SubalgebraLattice) -> List[Subspace]:
    return [lat.nodes[i] for i in lat.coatoms()]


def frattini_ideal(l: LeibnizAlgebra, lat: Optional[SubalgebraLattice] = None) -> Subspace:
    """Largest ideal inside the intersection of all maximal subalgebras."""
    if l.dim == 0:
        return Subspace.zero(l.field, 0)
    if lat is None:
        lat = enumerate_subalgebras(l)
    maximals = maximal_subalgebras(lat)
    inter = l.full_subspace()
    for m in maximals:
        inter = inter.intersection(m)
    return l.largest_ideal_in(inter)


# -- summary ---------------------------------------------------------------


def lattice_stats(lat: SubalgebraLattice) -> dict:
    n = len(lat.nodes)
    height = [0] * n
    for j in range(n):
        below = [i for i in range(j) if lat.covered_by(i, j)]
        if below:
            height[j] = 1 + max(height[i] for i in below)
    return {
        "nodes": n,
        "height": height[-1] if n else 0,
        "atoms": len(lat.atoms()),
        "coatoms": len(lat.coatoms()),
    }


def build_structure_report(
    l: LeibnizAlgebra,
    budget: int = 10 ** 6,
    with_lattice: bool = True,
) -> StructureReport:
    """Full invariant report; lattice-derived fields are None over the rationals."""
    nilp, cls = l.is_nilpotent()
    solv, dlen = l.is_solvable()
    finite = l.field.is_prime_field
    dim_j = None
    dim_phi = None
    ssolv = None
    if finite:
        dim_j = l.square_zero_subalgebra(budget).dim
        ssolv = l.is_supersolvable(budget)
        if with_lattice:
            dim_phi = frattini_ideal(l).dim
    full = l.full_subspace()
    return StructureReport(
        name=l.name,
        dim=l.dim,
        field=repr(l.field),
        is_lie=l.is_lie(),
        is_symmetric=l.is_symmetric(),
        is_nilpotent=nilp,
        nilpotency_class=cls,
        is_solvable=solv,
        derived_length=dlen,
        is_supersolvable=ssolv,
        dim_kernel=l.leibniz_kernel().dim,
        dim_square=l.product_space(full, full).dim,
        dim_center=l.center().dim,
        dim_square_zero=dim_j,
        dim_frattini=dim_phi,
        shape=l.classify_shape().tag,
    )
