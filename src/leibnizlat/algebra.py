"""Leibniz algebras by structure constants, and their linear-algebra invariants.

An algebra is a dimension, an exact field and a tensor c with
[e_i, e_j] = sum_k c[i][j][k] e_k.  The right Leibniz identity is validated at
construction; an invalid tensor is never wrapped in a LeibnizAlgebra.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from dataclasses import asdict, dataclass, field as dc_field
from typing import Iterator, List, Optional, Sequence, Tuple

from .linalg import (
    BudgetExceeded,
    Field,
    Scalar,
    Subspace,
    Vector,
    _insert,
    _span,
    invert_matrix,
    nullspace,
    unit_vector,
)


# Largest dimension a spec file or a catalog family may ask for, checked before
# the n^3 structure tensor is allocated. `leibnizlat check` runs n^3 identity
# triples; at dim 40 over F_3 it takes 0.4 s on a spec with no brackets and 1.5 s
# on a basis-changed cyclic_solvable(40) with 27,378 nonzero constants (3.2-3.9 s
# and 13.4-14.0 s with the row scan; 2-core x86-64, CPython 3.11).
MAX_DIM = 40


class AlgebraError(ValueError):
    """Invalid structure tensor or operation argument."""


class UnsupportedFieldError(AlgebraError):
    """Operation requires a finite prime field (or otherwise unsupported field)."""


def _normalize_table(f: Field, table) -> tuple:
    return tuple(tuple(tuple(f.normalize_row(row)) for row in plane) for plane in table)


def _pack_table(f: Field, table) -> tuple:
    """(b, columns, rows) over F_p. A vector is one int of b-bit fields, field k holding
    coordinate k; columns[j] holds [e_i, e_j] in its super-field i, of b n bits. rows is the
    RREF of the span of the vectors (c_{i,j,k})_j, whose common kernel is the right
    annihilator K_R = {y : [L, y] = 0}: R_y = [., y] depends on y only through (r . y).
    b is the bit length of n^2 (p-1)^3, so no field carries: for reduced x, y the right
    images [e_i, y] have fields up to n (p-1)^2, and each super-field of a product in
    _times sums at most n of them times x_i, up to n^2 (p-1)^3."""
    n, b = len(table), max(1, (len(table) ** 2 * (f.p - 1) ** 3).bit_length())
    columns = [sum([c << b * (k + n * i) for i, row in enumerate(col) for k, c in enumerate(row)])
               for col in zip(*table)]
    rows = {col for plane in table for col in zip(*plane) if any(col)}
    return b, columns, _span(f, n, rows, {}).basis


def _images(columns, y) -> int:
    """sum_j y_j columns[j]: every right image [e_i, y] at once, in super-field i."""
    return sum([c * col for c, col in zip(y, columns) if c])


def _reversed(x, b: int) -> int:
    """x with x_i in super-field n - 1 - i, of b n bits: the left factor of _times."""
    return sum([c << b * len(x) * i for i, c in enumerate(reversed(x)) if c])


def _times(rx: int, w: int, b: int, n: int) -> int:
    """[x, y] = sum_i x_i [e_i, y]: super-field n - 1 of rx = _reversed(x, b) times y's w."""
    return rx * w >> b * n * (n - 1) & (1 << b * n) - 1


def _unpack(w: int, b: int, n: int, p: int) -> list:
    return [(w >> s & (1 << b) - 1) % p for s in range(0, b * n, b)]


def _vector_bracket(f: Field, table, x: Vector, y: Vector) -> Vector:
    """Raw products summed per coordinate, reduced once per vector. The f.zero()
    seed keeps each untouched coordinate over Q one shared Fraction, not a new one."""
    idx = range(len(x))
    out = [f.zero()] * len(x)
    for i in idx:
        xi = x[i]
        if not xi:
            continue
        plane = table[i]
        for j in idx:
            yj = y[j]
            if not yj:
                continue
            coeff = xi * yj
            row = plane[j]
            for k in idx:
                c = row[k]
                if c:
                    out[k] += coeff * c
    return tuple(f.normalize_row(out))


def _leibniz_violation(f: Field, table, left: bool) -> Optional[Tuple[int, int, int]]:
    """First basis triple (i,j,k) with [e_i,[e_j,e_k]] != [[e_i,e_j],e_k] + t, where
    t = [e_j,[e_i,e_k]] (left identity) or t = [[e_i,e_k],-e_j] (right identity).

    Over F_p each row table[a][b] is one int of w-bit fields, so a term such as
    [e_i,[e_j,e_k]] = sum_m c_jk^m [e_i,e_m] is one multiply-add per nonzero constant.
    A term's field is at most n(p-1)^2; a per-field offset, a multiple of p covering
    two terms, keeps the difference's fields from borrowing or carrying."""
    if f.p is None:
        return _row_leibniz_violation(f, table, left)
    p, n = f.p, len(table)
    rows = [[f.normalize_row(row) for row in plane] for plane in table]
    term = n * (p - 1) ** 2
    offset = -(-2 * term // p) * p
    w = max(1, (offset + 2 * term).bit_length())  # n = 0 has no fields but needs a step
    mask, shifts = (1 << w) - 1, range(0, w * n, w)
    packed = [[sum([x << s for x, s in zip(row, shifts)]) for row in plane] for plane in rows]
    columns = list(zip(*packed))  # columns[b][a] = packed[a][b]
    nonzero = [[[(m, c) for m, c in enumerate(row) if c] for row in plane] for plane in rows]
    base = sum([offset << s for s in shifts])
    third = packed if left else columns  # [e_j, e_m] or [e_m, e_j]
    for i, j, k in itertools.product(range(n), repeat=3):
        lhs = sum([c * packed[i][m] for m, c in nonzero[j][k]])
        t1 = sum([c * columns[k][m] for m, c in nonzero[i][j]])
        t = sum([c * third[j][m] for m, c in nonzero[i][k]])
        d = lhs - t1 - t if left else lhs - t1 + t
        if d and any((((d + base) >> s) & mask) % p for s in shifts):
            return (i, j, k)
    return None


def _row_leibniz_violation(f: Field, table, left: bool) -> Optional[Tuple[int, int, int]]:
    """The identity scan by general brackets of rows: the path over Q, and the
    oracle the packed scan over F_p is tested against."""
    n = len(table)
    e = [unit_vector(f, n, i) for i in range(n)]
    minus_e = [tuple(f.scale_row(f.neg(f.one()), v)) for v in e]
    for i, j, k in itertools.product(range(n), repeat=3):
        lhs = _vector_bracket(f, table, e[i], table[j][k])
        t1 = _vector_bracket(f, table, table[i][j], e[k])
        if left:
            t = _vector_bracket(f, table, e[j], table[i][k])
        else:
            t = _vector_bracket(f, table, table[i][k], minus_e[j])
        if lhs != tuple(f.normalize_row([a + b for a, b in zip(t1, t)])):
            return (i, j, k)
    return None


def right_leibniz_violation(f: Field, table) -> Optional[Tuple[int, int, int]]:
    """First basis triple (i,j,k) violating [e_i,[e_j,e_k]] = [[e_i,e_j],e_k] - [[e_i,e_k],e_j]."""
    return _leibniz_violation(f, table, left=False)


def left_leibniz_violation(f: Field, table) -> Optional[Tuple[int, int, int]]:
    """First basis triple (i,j,k) violating [e_i,[e_j,e_k]] = [[e_i,e_j],e_k] + [e_j,[e_i,e_k]]."""
    return _leibniz_violation(f, table, left=True)


def check_left_leibniz(f: Field, table) -> bool:
    return left_leibniz_violation(f, table) is None


Quotient = namedtuple("Quotient", ["algebra", "project"])


@dataclass(frozen=True)
class LeibnizAlgebra:
    name: str
    field: Field
    dim: int
    table: tuple
    family: Optional[str] = dc_field(default=None, compare=False)
    _packed: Optional[tuple] = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        f, n = self.field, self.dim
        if len(self.table) != n or any(
            len(plane) != n or any(len(row) != n for row in plane) for plane in self.table
        ):
            raise AlgebraError("structure tensor must be %d x %d x %d" % (n, n, n))
        object.__setattr__(self, "table", _normalize_table(f, self.table))
        bad = right_leibniz_violation(f, self.table)
        if bad is not None:
            raise AlgebraError(
                "tensor violates the right Leibniz identity at basis triple %r" % (bad,)
            )
        object.__setattr__(self, "_packed", _pack_table(f, self.table) if f.p else None)

    # -- basic products ----------------------------------------------------

    def basis_vector(self, i: int) -> Vector:
        return unit_vector(self.field, self.dim, i)

    def bracket(self, x: Vector, y: Vector) -> Vector:
        if len(x) != self.dim or len(y) != self.dim:
            raise AlgebraError("vector length mismatch")
        return _vector_bracket(self.field, self.table, x, y)

    def _square_generators(self) -> Iterator[Vector]:
        """[e_i, e_i], then [e_i, e_j] + [e_j, e_i] for i < j: they span every square x^2."""
        f, t = self.field, self.table
        yield from (t[i][i] for i in range(self.dim))
        for i, j in itertools.combinations(range(self.dim), 2):
            yield f.normalize_row([a + b for a, b in zip(t[i][j], t[j][i])])

    def is_lie(self) -> bool:
        return not any(any(g) for g in self._square_generators())

    def is_symmetric(self) -> bool:
        return left_leibniz_violation(self.field, self.table) is None

    # -- subspace operations ----------------------------------------------

    def zero_subspace(self) -> Subspace:
        return Subspace.zero(self.field, self.dim)

    def full_subspace(self) -> Subspace:
        return Subspace.full(self.field, self.dim)

    def product_space(self, u: Subspace, v: Subspace) -> Subspace:
        """[U, V]. Over F_p, R_y depends on y only through (r . y) for the packed rows r, so
        the rows z of V with independent (r . z) give every R_y, y in V, as a combination
        of their R_z, and the dim U * |Z| products [a, z] span [U, V]."""
        if u.ambient_dim != self.dim or v.ambient_dim != self.dim:
            raise AlgebraError("ambient mismatch")
        f, n, packed = self.field, self.dim, self._packed
        if packed is None:
            return _span(f, n, (self.bracket(a, b) for a in u.basis for b in v.basis), {})
        (b, columns, rows), keys, kept = packed, {}, v.basis
        if len(rows) < n:  # at m = n every row of V is kept
            kept = [z for z in kept if len(keys) < len(rows)
                    and _insert(f, keys, [sum([a * c for a, c in zip(r, z)]) % f.p for r in rows])]
        images = [_images(columns, z) for z in kept]
        products = (_times(x, w, b, n) for a in u.basis for x in [_reversed(a, b)] for w in images)
        return _span(f, n, (_unpack(w, b, n, f.p) for w in products if w), {})

    def subalgebra_closure(self, vectors: Sequence[Vector]) -> Subspace:
        u = Subspace.span(self.field, self.dim, list(vectors))
        while True:
            products = [self.bracket(a, b) for a in u.basis for b in u.basis]
            bigger = Subspace.span(self.field, self.dim, list(u.basis) + products)
            if bigger.dim == u.dim:
                return u
            u = bigger

    def cyclic_subalgebra(self, v: Vector) -> Subspace:
        """<v> = span{v, v^2, ...} with v^(k+1) = [v^k, v], up to the first power already
        in the span. The squares span an ideal I with [L, I] = 0 (y = z in the right
        identity), so [v^i, v^j] = 0 for j >= 2 and the span of the powers is closed.
        Each power goes into one echelon; over F_p it is one packed product (_times)."""
        f, n, packed = self.field, self.dim, self._packed
        if len(v) != n:
            raise AlgebraError("vector length mismatch")
        power = x = f.normalize_row(v)
        right, echelon = _images(packed[1], x) if packed else None, {}
        while _insert(f, echelon, power):
            if packed is None:
                power = self.bracket(power, x)
            else:
                b = packed[0]
                power = _unpack(_times(_reversed(power, b), right, b, n), b, n, f.p)
        return _span(f, n, (), echelon)

    # -- series and solvability -------------------------------------------

    def lower_central_series(self) -> List[Subspace]:
        """[L^1, L^2, ...] down to the first stabilized term."""
        return self._series(lambda t: self.product_space(t, self.full_subspace()))

    def derived_series(self) -> List[Subspace]:
        return self._series(lambda t: self.product_space(t, t))

    def _series(self, step) -> List[Subspace]:
        """L, step(L), step(step(L)), ... until a term is 0 or repeats the previous dim."""
        terms = [self.full_subspace()]
        while True:
            terms.append(step(terms[-1]))
            if terms[-1].dim in (0, terms[-2].dim):
                return terms

    @staticmethod
    def _ends_at_zero(terms: List[Subspace]) -> Tuple[bool, Optional[int]]:
        """(True, number of nonzero terms) if the series reaches 0, else (False, None)."""
        if terms[-1].dim != 0:
            return False, None
        return True, sum(1 for t in terms if t.dim > 0)

    def is_nilpotent(self) -> Tuple[bool, Optional[int]]:
        """(verdict, class); class n means L^{n+1} = 0 but L^n != 0."""
        return self._ends_at_zero(self.lower_central_series())

    def is_solvable(self) -> Tuple[bool, Optional[int]]:
        """(verdict, derived length)."""
        return self._ends_at_zero(self.derived_series())

    # -- distinguished subspaces ------------------------------------------

    def leibniz_kernel(self) -> Subspace:
        """Span of all squares x^2."""
        return Subspace.span(self.field, self.dim, list(self._square_generators()))

    def center(self) -> Subspace:
        f, n = self.field, self.dim
        if n == 0:
            return self.zero_subspace()
        rows = []
        for i in range(n):
            for k in range(n):
                rows.append([self.table[j][i][k] for j in range(n)])  # [x, e_i] = 0
                rows.append([self.table[i][j][k] for j in range(n)])  # [e_i, x] = 0
        return Subspace.span(f, n, nullspace(f, rows))

    def _check_element_scan(self, budget: int) -> None:
        f = self.field
        if not f.is_prime_field:
            raise UnsupportedFieldError("element scans need a finite prime field")
        if f.p ** self.dim > budget:
            raise BudgetExceeded("p^n = %d exceeds budget %d" % (f.p ** self.dim, budget))

    def all_vectors(self, budget: int = 10 ** 6) -> Iterator[Vector]:
        self._check_element_scan(budget)
        yield from itertools.product(list(self.field.elements()), repeat=self.dim)

    def square_zero_vectors(self, budget: int = 10 ** 6) -> List[Vector]:
        return [v for v in self.all_vectors(budget) if not any(self.bracket(v, v))]

    def square_zero_lines(self, budget: int = 10 ** 6) -> List[Vector]:
        """Monic representatives of the square-zero lines, since [cv,cv] = c^2 [v,v]."""
        return [v for v in self.monic_lines(budget) if not any(self.bracket(v, v))]

    def square_zero_subalgebra(self, budget: int = 10 ** 6) -> Subspace:
        """The subalgebra generated by all square-zero elements (prime fields only).

        It closes over the monic square-zero lines, since [cv,cv] = c^2 [v,v].
        """
        return self.subalgebra_closure(self.square_zero_lines(budget))

    # -- ideals and quotients ---------------------------------------------

    def is_ideal(self, u: Subspace) -> bool:
        full = self.full_subspace()
        prod = self.product_space(u, full).sum(self.product_space(full, u))
        return prod.leq(u)

    def largest_ideal_in(self, w: Subspace) -> Subspace:
        """Largest ideal of L contained in w, by a descending fixpoint."""
        f, n = self.field, self.dim
        current = w
        while True:
            m = current.dim
            if m == 0:
                return current
            rows = []
            for i in range(n):
                ei = self.basis_vector(i)
                residuals_r = [current.reduce(self.bracket(b, ei)) for b in current.basis]
                residuals_l = [current.reduce(self.bracket(ei, b)) for b in current.basis]
                for k in range(n):
                    rows.append([residuals_r[j][k] for j in range(m)])
                    rows.append([residuals_l[j][k] for j in range(m)])
            vectors = [current.combination(coeffs) for coeffs in nullspace(f, rows)]
            nxt = Subspace.span(f, n, vectors)
            if nxt.dim == current.dim:
                return nxt
            current = nxt

    def quotient(self, k: Subspace) -> Quotient:
        """Quotient by an ideal, with the coordinate projection map."""
        if not self.is_ideal(k):
            raise AlgebraError("quotient requires an ideal")
        comp = [j for j in range(self.dim) if j not in k.pivots]

        def project(v: Vector) -> Vector:
            w = k.reduce(v)
            return tuple(w[j] for j in comp)

        name = "%s/(dim %d ideal)" % (self.name, k.dim)
        return Quotient(self._induced(name, [self.basis_vector(j) for j in comp], project), project)

    def restrict(self, u: Subspace) -> "LeibnizAlgebra":
        """The subalgebra u as an algebra in its own basis; u must be bracket-closed."""
        if not self.product_space(u, u).leq(u):
            raise AlgebraError("subspace is not closed under the bracket")
        # a vector of u has its coordinates in u's RREF basis at the pivot columns
        name = "%s|dim%d" % (self.name, u.dim)
        return self._induced(name, u.basis, lambda v: tuple(v[p] for p in u.pivots))

    def _induced(self, name: str, basis, coords, family: Optional[str] = None) -> "LeibnizAlgebra":
        """The algebra on ``basis`` with [b_i, b_j] = sum_k coords([b_i, b_j])[k] b_k."""
        table = tuple(tuple(coords(self.bracket(a, b)) for b in basis) for a in basis)
        return LeibnizAlgebra(name, self.field, len(basis), table, family)

    def monic_lines(self, budget: int = 10 ** 6) -> Iterator[Vector]:
        """One representative per 1-dim subspace: first nonzero coordinate is 1.

        Lines come in lexicographic order of their representatives, so later
        leading positions first. The budget bounds p^n, the size of the space.
        """
        self._check_element_scan(budget)
        n, elems = self.dim, range(self.field.p)
        for lead in reversed(range(n)):
            head = (0,) * lead + (1,)
            for tail in itertools.product(elems, repeat=n - 1 - lead):
                yield head + tail

    def is_supersolvable(self, budget: int = 10 ** 6) -> bool:
        """Complete flag of ideals. For a 1-dim ideal I, L is supersolvable iff L/I is
        (a flag of L maps onto one of L/I, and one of L/I lifts above I), so the
        first 1-dim ideal decides and the recursion runs once per dimension."""
        if self.dim == 0:
            return True
        for v in self.monic_lines(budget):
            line = Subspace.span(self.field, self.dim, [v])
            if self.is_ideal(line):
                return self.quotient(line).algebra.is_supersolvable(budget)
        return False

    # -- shape detection ---------------------------------------------------

    def classify_shape(self) -> str:
        """abelian | almost_abelian_lie | almost_abelian_nonlie | extraspecial | other"""
        full = self.full_subspace()
        l2 = self.product_space(full, full)
        if l2.dim == 0:
            return "abelian"
        almost = self._almost_abelian_shape(l2)
        if almost is not None:
            return almost
        # L^2 = Z(L) gives L^3 = 0, so L is nilpotent of class 2 without a series
        if l2.dim == 1 and self.center() == l2:
            return "extraspecial"
        return "other"

    def _almost_abelian_shape(self, l2: Subspace) -> Optional[str]:
        """L = A + Fv with A = L^2 abelian and [a, v] = c a (c != 0) for all a in A;
        Lie when [v, a] = -c a, non-Lie when [v, a] = 0."""
        f, n = self.field, self.dim
        if l2.dim != n - 1:
            return None
        if self.product_space(l2, l2).dim != 0:
            return None
        v = next(e for e in map(self.basis_vector, range(n)) if not l2.contains(e))
        # R_v restricted to A must be c * identity with c != 0
        c = None
        for a in l2.basis:
            image = self.bracket(a, v)
            # a is an RREF row, so its first nonzero entry is 1
            ca = image[next(j for j, x in enumerate(a) if x)]
            if image != tuple(f.scale_row(ca, a)):
                return None
            if c is None:
                c = ca
            elif ca != c:
                return None
        if not c:
            return None
        images = [self.bracket(v, a) for a in l2.basis]
        minus_c = f.neg(c)
        if all(img == tuple(f.scale_row(minus_c, a)) for img, a in zip(images, l2.basis)):
            return "almost_abelian_lie"
        if not any(any(img) for img in images):
            return "almost_abelian_nonlie"
        return None

    # -- basis changes -----------------------------------------------------

    def change_of_basis(self, p_matrix: Sequence[Sequence[Scalar]]) -> "LeibnizAlgebra":
        """New algebra on the basis f_i = sum_j P[i][j] e_j."""
        return _change_of_basis(self, p_matrix, self.name + "'")


def _change_of_basis(l: LeibnizAlgebra, p_matrix, name: str) -> LeibnizAlgebra:
    """l.change_of_basis(p_matrix) built under ``name``, so a copy that is named
    otherwise (the corpus's ``@basis`` copies) is validated once, not rebuilt."""
    f = l.field
    p = tuple(tuple(f.normalize_row(row)) for row in p_matrix)
    pinv_cols = list(zip(*invert_matrix(f, p)))

    def to_new_coords(v: Vector) -> Vector:
        sums = [sum((a * b for a, b in zip(v, c) if a and b), f.zero()) for c in pinv_cols]
        return tuple(f.normalize_row(sums))

    return l._induced(name, p, to_new_coords, l.family)


@dataclass
class StructureReport:
    """Computed invariants and classification tags for one algebra."""

    name: str
    dim: int
    field: str
    is_lie: bool
    is_symmetric: bool
    is_nilpotent: bool
    nilpotency_class: Optional[int]
    is_solvable: bool
    derived_length: Optional[int]
    is_supersolvable: Optional[bool]
    dim_kernel: int
    dim_square: int
    dim_center: int
    dim_square_zero: Optional[int]
    dim_frattini: Optional[int]
    shape: str

    def to_dict(self) -> dict:
        return asdict(self)
