"""Subalgebra lattices of finite-field Leibniz algebras and their lattice conditions.

The lattice is materialized as a sorted node list with containment, cover and
join/meet data held in integer bitsets, so the condition scans (modularity,
semi-modularity, weak quasi-ideals) are loops over O(1) bit operations.

Two shortcuts rest on theorems. Modularity: a lattice of finite length is
modular iff it is upper and lower semimodular (Birkhoff, *Lattice Theory*,
1967; Stern, *Semimodular Lattices*, 1999), so the node-pair scan, run once on
the lattice and once on its dual, decides it. A non-modular lattice holds a
pentagon N_5 (Dedekind), and the failing pair names four of its nodes, so the
witness triple is read off that pair with no node-triple scan. All-WQI:
[U,V] is spanned by the brackets [u,v] (bilinearity), and [u,v] lies in
<u> + <v> <= U + V when the cyclic pair <u>, <v> passes, so pairs of cyclic
subalgebras decide it.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import namedtuple
from dataclasses import dataclass, field as dc_field
from functools import reduce
from typing import Callable, Dict, List, Optional

from .linalg import BudgetExceeded, Subspace, enumerate_subspaces, monic_combinations
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
    nodes: List[Subspace]          # a linear extension of the order; nodes[0] = 0, nodes[-1] = L
    upset: List[int]               # bit j of upset[i] set iff nodes[i] <= nodes[j]

    # Derived once, as plain attributes set here: a cached_property or any later attribute
    # writes through __dict__, which on CPython slows every later attribute read in the scans.
    _index: Dict[tuple, int] = dc_field(init=False)
    downset: List[int] = dc_field(init=False)  # bit i of downset[j] set iff nodes[i] <= nodes[j]
    covers_up: List[int] = dc_field(init=False)  # bit j of covers_up[i] set iff j covers i
    covers_down: List[int] = dc_field(init=False)  # covers_up transposed
    _line_map: Optional[Dict[tuple, int]] = dc_field(init=False, compare=False)

    def __post_init__(self):
        """Nodes come in a linear extension, so the lowest node left in a strict upset is
        minimal in it, an upper cover; clearing its upset leaves the nodes not above it. A
        downset is the node with the downsets of its lower covers, which come earlier, so
        each downset is whole when the loop passes it on to the node's upper covers."""
        n, upset = len(self.nodes), self.upset
        self._index = {s.basis: i for i, s in enumerate(self.nodes)}
        self.covers_up, self.covers_down = [0] * n, [0] * n
        self.downset = downset = [1 << i for i in range(n)]
        for i, up in enumerate(upset):
            rest = up ^ 1 << i
            while rest:
                j = (rest & -rest).bit_length() - 1
                self.covers_up[i] |= 1 << j
                self.covers_down[j] |= 1 << i
                downset[j] |= downset[i]
                rest &= ~upset[j]
        self._line_map = None

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
        return list(_bits(self.covers_down[-1]))

    def line_map(self) -> Dict[tuple, int]:
        """Each monic line v, in ``monic_lines()`` order, to the node index of <v>, built on
        first use. Every node holding v holds <v>, and nodes come sorted by dimension, so <v>
        is the first node holding v. One pass over the nodes' monic lines gives each line its
        first node; it stops once every line has one."""
        if self._line_map is None:
            l, first = self.algebra, {}
            lines = list(l.monic_lines())
            for i, node in enumerate(self.nodes):
                if len(first) == len(lines):
                    break
                for v in monic_combinations(l.field, node.basis):
                    first.setdefault(v, i)
            self._line_map = {v: first[v] for v in lines}
        return self._line_map


def enumerate_subalgebras(
    l: LeibnizAlgebra, node_budget: int = DEFAULT_NODE_BUDGET
) -> SubalgebraLattice:
    """Build the full subalgebra lattice of a finite-field algebra."""
    if not l.field.is_prime_field:
        raise UnsupportedFieldError("subalgebra enumeration needs a finite prime field")
    nodes = []
    for s in enumerate_subspaces(l.field, l.dim):
        if l.product_space(s, s).leq(s):
            nodes.append(s)
            if len(nodes) > node_budget:
                raise BudgetExceeded("subalgebra count exceeds node budget %d" % node_budget)
    # nodes come in (dim, key) order, and U <= V with dim U = dim V gives U = V
    n = len(nodes)
    dims = [s.dim for s in nodes]
    upset = [1 << i for i in range(n)]
    for i in range(n):
        for j in range(bisect_right(dims, dims[i]), n):
            if nodes[i].leq(nodes[j]):
                upset[i] |= 1 << j
    return SubalgebraLattice(l, nodes, upset)


# -- lattice conditions ----------------------------------------------------


def is_modular(lat: SubalgebraLattice) -> Verdict:
    """<U,V> ^ W = <U, V ^ W> for all node triples with U <= W, as USM and LSM."""
    return modular_verdict(lat, is_upper_semimodular(lat),
                           lambda: is_lower_semimodular_lattice(lat))


def modular_verdict(lat: SubalgebraLattice, usm: Verdict, lsm: Callable[[], Verdict]) -> Verdict:
    """Modular iff upper and lower semimodular; ``lsm`` is asked only when USM holds.

    A failing pair (U, B) names four nodes of a pentagon N_5. USM: B covers U ^ B, and X is
    the lowest-index upper cover of U below <U,B>; the witness is (U, B, X). LSM: <U,B>
    covers B, and X is the lowest-index upper cover of U ^ B below U; the witness is
    (X, B, U). Either way the witness (U', B, W') has U' < W' with equal joins and equal
    meets with B, so <U',B> ^ W' = W' != U' = <U', B ^ W'>.
    """
    verdict = usm if not usm.holds else lsm()
    if verdict.holds:
        return verdict
    u, b = map(lat.index_of, verdict.witness)
    low, high = (u, lat.join_index(u, b)) if verdict is usm else (lat.meet_index(u, b), u)
    between = lat.covers_up[low] & lat.downset[high]
    x = (between & -between).bit_length() - 1
    triple = (u, b, x) if verdict is usm else (x, b, u)
    return Verdict(False, tuple(lat.nodes[i] for i in triple))


def _semimodular(lat: SubalgebraLattice, meet, join, covers: List[int]) -> Verdict:
    """The first node pair (U, B) where B covers meet(U,B) but join(U,B) does not cover U.

    Bit j of covers[i] is set iff node j covers node i. With meet and join swapped
    and the lower covers, the same loop scans the dual lattice.
    """
    n = len(lat.nodes)
    for u in range(n):
        covers_u = covers[u]
        for b in range(n):
            if covers[meet(u, b)] >> b & 1 and not covers_u >> join(u, b) & 1:
                return Verdict(False, (lat.nodes[u], lat.nodes[b]))
    return Verdict(True, None)


def is_upper_semimodular(lat: SubalgebraLattice) -> Verdict:
    """If U ^ B is maximal in B then U is maximal in <U,B> (for all node pairs)."""
    return _semimodular(lat, lat.meet_index, lat.join_index, lat.covers_up)


def is_lower_semimodular_lattice(lat: SubalgebraLattice) -> Verdict:
    """Dual covering condition: if B is covered by <U,B> then U ^ B is covered by U."""
    return _semimodular(lat, lat.join_index, lat.meet_index, lat.covers_down)


def _wqi_pair(l: LeibnizAlgebra, u: Subspace, v: Subspace) -> bool:
    s = None
    for a in u.basis:
        for b in v.basis:
            for w in (l.bracket(a, b), l.bracket(b, a)):
                if not any(w):
                    continue
                if s is None:
                    s = u.sum(v)
                if not s.contains(w):
                    return False
    return True


def all_subalgebras_wqi(l: LeibnizAlgebra, lat: SubalgebraLattice) -> Verdict:
    """Every node is a weak quasi-ideal, decided on pairs of cyclic subalgebras."""
    cyclic = sorted(set(lat.line_map().values()))
    for a, i in enumerate(cyclic):
        for j in cyclic[a + 1:]:
            if not _wqi_pair(l, lat.nodes[i], lat.nodes[j]):
                return Verdict(False, (lat.nodes[i], lat.nodes[j]))
    return Verdict(True, None)


def wqi_elementwise(l: LeibnizAlgebra, lat: SubalgebraLattice, budget: int = 10 ** 6) -> Verdict:
    """[x,y] in <x> + <y> over all element pairs; <x> is read off the lattice's line map.

    Scaling changes neither side ([cx,dy] = cd[x,y] and <cx> = <x>), so one
    monic vector per line decides it. The monic vector is the smallest on its
    line, so the first failing monic pair is the first failing pair of the
    lexicographic scan over all vectors. The budget still bounds p^(2n).

    A pair with cyclic nodes A = <x>, C = <y> passes at once when A + C is a subalgebra,
    as [x,y] then lies in [A + C, A + C]. A + C <= A v C, and the meet A ^ C is the
    intersection, so A + C is a node iff dim(A v C) + dim(A ^ C) = dim A + dim C.
    Otherwise [x,y] is tested against A + C, formed once per cyclic pair.
    """
    p, n = l.field.p, l.dim
    if p ** (2 * n) > budget:
        raise BudgetExceeded("p^(2n) = %d exceeds budget %d" % (p ** (2 * n), budget))
    scan = lat.line_map().items()
    nodes, sums = lat.nodes, {}
    for x, a in scan:
        for y, c in scan:
            if (a, c) not in sums:
                dims = nodes[lat.join_index(a, c)].dim + nodes[lat.meet_index(a, c)].dim
                sums[a, c] = None if dims == nodes[a].dim + nodes[c].dim else nodes[a].sum(nodes[c])
            s = sums[a, c]
            if s is not None and not s.contains(l.bracket(x, y)):
                return Verdict(False, (x, y))
    return Verdict(True, None)


# -- the Frattini ideal and J ----------------------------------------------


def frattini_ideal(l: LeibnizAlgebra, lat: Optional[SubalgebraLattice] = None) -> Subspace:
    """Largest ideal inside the intersection of all maximal subalgebras, which is the
    meet of the coatoms in the lattice (the top node when there are none, as for L = 0)."""
    if lat is None:
        lat = enumerate_subalgebras(l)
    top = len(lat.nodes) - 1
    return l.largest_ideal_in(lat.nodes[reduce(lat.meet_index, lat.coatoms(), top)])


def join_of_atoms(lat: SubalgebraLattice) -> Subspace:
    """J, the subalgebra generated by the square-zero elements. [L, I] = 0 for the Leibniz
    kernel I, so v^2 = cv gives c^2 v = [v, v^2] = 0: a line Fv is a subalgebra iff v^2 = 0.
    And (v^2)^2 = 0, so <v> holds the square-zero line Fv or F v^2. The atoms are thus
    exactly the square-zero lines (none when L = 0), and J is their join."""
    return lat.nodes[reduce(lat.join_index, lat.atoms(), 0)]


# -- summary ---------------------------------------------------------------


def lattice_stats(lat: SubalgebraLattice) -> dict:
    n = len(lat.nodes)
    height = [0] * n
    for j, down in enumerate(lat.covers_down):  # lower covers come earlier in node order
        if down:
            height[j] = 1 + max(height[i] for i in _bits(down))
    return {
        "nodes": n,
        "height": height[-1] if n else 0,
        "atoms": len(lat.atoms()),
        "coatoms": len(lat.coatoms()),
    }


def build_structure_report(l: LeibnizAlgebra, budget: int = 10 ** 6) -> StructureReport:
    """Full invariant report; lattice-derived fields are None over the rationals.
    The budget bounds the line scan of the supersolvability test."""
    nilp, cls = l.is_nilpotent()
    solv, dlen = l.is_solvable()
    dim_j = dim_phi = ssolv = None
    if l.field.is_prime_field:
        ssolv = l.is_supersolvable(budget)
        lat = enumerate_subalgebras(l)
        dim_j = join_of_atoms(lat).dim
        dim_phi = frattini_ideal(l, lat).dim
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
        shape=l.classify_shape(),
    )
