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
    LinalgError,
    Matrix,
    Scalar,
    Subspace,
    Vector,
    invert_matrix,
    nullspace,
    vec_add,
    vec_is_zero,
    vec_scale,
    zero_vector,
)


class AlgebraError(ValueError):
    """Invalid structure tensor or operation argument."""


class UnsupportedFieldError(AlgebraError):
    """Operation requires a finite prime field (or otherwise unsupported field)."""


def _normalize_table(f: Field, table) -> tuple:
    return tuple(
        tuple(tuple(f.normalize(x) for x in row) for row in plane) for plane in table
    )


def _vector_bracket(f: Field, table, x: Vector, y: Vector) -> Vector:
    n = len(x)
    out = list(zero_vector(f, n))
    for i in range(n):
        xi = x[i]
        if not xi:
            continue
        plane = table[i]
        for j in range(n):
            yj = y[j]
            if not yj:
                continue
            coeff = f.mul(xi, yj)
            row = plane[j]
            for k in range(n):
                if row[k]:
                    out[k] = f.add(out[k], f.mul(coeff, row[k]))
    return tuple(out)


def right_leibniz_violation(f: Field, table) -> Optional[Tuple[int, int, int]]:
    """First basis triple (i,j,k) violating [e_i,[e_j,e_k]] = [[e_i,e_j],e_k] - [[e_i,e_k],e_j]."""
    n = len(table)
    for i in range(n):
        ei = _std_basis(f, n, i)
        for j in range(n):
            for k in range(n):
                lhs = _vector_bracket(f, table, ei, table[j][k])
                t1 = _vector_bracket(f, table, table[i][j], _std_basis(f, n, k))
                t2 = _vector_bracket(f, table, table[i][k], _std_basis(f, n, j))
                if lhs != tuple(f.sub(a, b) for a, b in zip(t1, t2)):
                    return (i, j, k)
    return None


def left_leibniz_violation(f: Field, table) -> Optional[Tuple[int, int, int]]:
    """First basis triple (i,j,k) violating [e_i,[e_j,e_k]] = [[e_i,e_j],e_k] + [e_j,[e_i,e_k]]."""
    n = len(table)
    for i in range(n):
        ei = _std_basis(f, n, i)
        for j in range(n):
            ej = _std_basis(f, n, j)
            for k in range(n):
                lhs = _vector_bracket(f, table, ei, table[j][k])
                t1 = _vector_bracket(f, table, table[i][j], _std_basis(f, n, k))
                t2 = _vector_bracket(f, table, ej, table[i][k])
                if lhs != tuple(f.add(a, b) for a, b in zip(t1, t2)):
                    return (i, j, k)
    return None


def check_right_leibniz(f: Field, table) -> bool:
    return right_leibniz_violation(f, table) is None


def check_left_leibniz(f: Field, table) -> bool:
    return left_leibniz_violation(f, table) is None


def _std_basis(f: Field, n: int, i: int) -> Vector:
    return tuple(f.one() if j == i else f.zero() for j in range(n))


Quotient = namedtuple("Quotient", ["algebra", "project"])


@dataclass(frozen=True)
class Shape:
    tag: str  # abelian | almost_abelian_lie | almost_abelian_nonlie | extraspecial | other
    radical: Optional[Subspace] = None  # the codimension-1 abelian ideal, when found
    scaled_generator: Optional[Vector] = None  # y with [a, y] = a for all a in radical


@dataclass(frozen=True)
class LeibnizAlgebra:
    name: str
    field: Field
    dim: int
    table: tuple
    family: Optional[str] = dc_field(default=None, compare=False)

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

    # -- basic products ----------------------------------------------------

    def basis_vector(self, i: int) -> Vector:
        return _std_basis(self.field, self.dim, i)

    def bracket(self, x: Vector, y: Vector) -> Vector:
        if len(x) != self.dim or len(y) != self.dim:
            raise AlgebraError("vector length mismatch")
        return _vector_bracket(self.field, self.table, x, y)

    def right_mult_matrix(self, x: Vector) -> Matrix:
        """Matrix of y -> [y, x] in the fixed basis (rows indexed by output coord)."""
        f, n = self.field, self.dim
        cols = [self.bracket(self.basis_vector(j), x) for j in range(n)]
        return tuple(tuple(cols[j][k] for j in range(n)) for k in range(n))

    def left_mult_matrix(self, x: Vector) -> Matrix:
        f, n = self.field, self.dim
        cols = [self.bracket(x, self.basis_vector(j)) for j in range(n)]
        return tuple(tuple(cols[j][k] for j in range(n)) for k in range(n))

    def is_lie(self) -> bool:
        f, n = self.field, self.dim
        for i in range(n):
            if not vec_is_zero(self.table[i][i]):
                return False
        for i in range(n):
            for j in range(i + 1, n):
                if not vec_is_zero(vec_add(f, self.table[i][j], self.table[j][i])):
                    return False
        return True

    def is_symmetric(self) -> bool:
        return left_leibniz_violation(self.field, self.table) is None

    # -- subspace operations ----------------------------------------------

    def zero_subspace(self) -> Subspace:
        return Subspace.zero(self.field, self.dim)

    def full_subspace(self) -> Subspace:
        return Subspace.full(self.field, self.dim)

    def product_space(self, u: Subspace, v: Subspace) -> Subspace:
        if u.ambient_dim != self.dim or v.ambient_dim != self.dim:
            raise AlgebraError("ambient mismatch")
        products = [self.bracket(a, b) for a in u.basis for b in v.basis]
        return Subspace.span(self.field, self.dim, products)

    def subalgebra_closure(self, vectors: Sequence[Vector]) -> Subspace:
        u = Subspace.span(self.field, self.dim, list(vectors))
        while True:
            products = [self.bracket(a, b) for a in u.basis for b in u.basis]
            bigger = Subspace.span(self.field, self.dim, list(u.basis) + products)
            if bigger.dim == u.dim:
                return u
            u = bigger

    def generated_by(self, vectors: Sequence[Vector]) -> bool:
        return self.subalgebra_closure(vectors).dim == self.dim

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

    def is_nilpotent(self) -> Tuple[bool, Optional[int]]:
        """(verdict, class); class n means L^{n+1} = 0 but L^n != 0."""
        terms = self.lower_central_series()
        if terms[-1].dim != 0:
            return False, None
        return True, sum(1 for t in terms if t.dim > 0)

    def is_solvable(self) -> Tuple[bool, Optional[int]]:
        terms = self.derived_series()
        if terms[-1].dim != 0:
            return False, None
        return True, sum(1 for t in terms if t.dim > 0)

    # -- distinguished subspaces ------------------------------------------

    def leibniz_kernel(self) -> Subspace:
        """Span of all squares x^2 (basis squares plus symmetrized basis products)."""
        f, n = self.field, self.dim
        gens = [self.table[i][i] for i in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                gens.append(vec_add(f, self.table[i][j], self.table[j][i]))
        return Subspace.span(f, n, gens)

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
        return [v for v in self.all_vectors(budget) if vec_is_zero(self.bracket(v, v))]

    def square_zero_lines(self, budget: int = 10 ** 6) -> List[Vector]:
        """Monic representatives of the square-zero lines, since [cv,cv] = c^2 [v,v].

        Same scope as square_zero_vectors: the budget still bounds p^n.
        """
        self._check_element_scan(budget)
        return [v for v in self.monic_lines() if vec_is_zero(self.bracket(v, v))]

    def square_zero_subalgebra(
        self,
        budget: int = 10 ** 6,
        witnesses: Optional[Sequence[Vector]] = None,
    ) -> Subspace:
        """The subalgebra generated by all square-zero elements.

        Over the rationals the square-zero set cannot be scanned exactly; an
        explicit witness list must be supplied and the result is only a lower
        bound for J.
        """
        if witnesses is not None:
            for w in witnesses:
                if not vec_is_zero(self.bracket(w, w)):
                    raise AlgebraError("witness %r does not square to zero" % (w,))
            return self.subalgebra_closure(list(witnesses))
        if not self.field.is_prime_field:
            raise UnsupportedFieldError(
                "J over the rationals needs an explicit witness list"
            )
        return self.subalgebra_closure(self.square_zero_vectors(budget))

    def square_zero_set_is_subspace(self, budget: int = 10 ** 6) -> bool:
        vecs = self.square_zero_vectors(budget)
        span = Subspace.span(self.field, self.dim, vecs)
        return len(vecs) == self.field.p ** span.dim

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
            vectors = []
            for coeffs in nullspace(f, rows):
                v = zero_vector(f, n)
                for c, b in zip(coeffs, current.basis):
                    if c:
                        v = vec_add(f, v, vec_scale(f, c, b))
                vectors.append(v)
            nxt = Subspace.span(f, n, vectors)
            if nxt.dim == current.dim:
                return nxt
            current = nxt

    def quotient(self, k: Subspace) -> Quotient:
        """Quotient by an ideal, with the coordinate projection map."""
        if not self.is_ideal(k):
            raise AlgebraError("quotient requires an ideal")
        f, n = self.field, self.dim
        piv = set(k.pivots)
        comp = [j for j in range(n) if j not in piv]

        def project(v: Vector) -> Vector:
            w = k.reduce(v)
            return tuple(w[j] for j in comp)

        m = len(comp)
        table = [[None] * m for _ in range(m)]
        for a in range(m):
            ea = self.basis_vector(comp[a])
            for b in range(m):
                table[a][b] = project(self.bracket(ea, self.basis_vector(comp[b])))
        algebra = LeibnizAlgebra(
            name="%s/(dim %d ideal)" % (self.name, k.dim),
            field=f,
            dim=m,
            table=tuple(tuple(row) for row in table),
        )
        return Quotient(algebra, project)

    def restrict(self, u: Subspace) -> "LeibnizAlgebra":
        """The subalgebra u as an algebra in its own basis; u must be bracket-closed."""
        if not self.product_space(u, u).leq(u):
            raise AlgebraError("subspace is not closed under the bracket")
        f, m = self.field, u.dim
        piv = u.pivots

        def coords(v: Vector) -> Vector:
            return tuple(v[p] for p in piv)

        table = tuple(
            tuple(coords(self.bracket(a, b)) for b in u.basis) for a in u.basis
        )
        return LeibnizAlgebra(
            name="%s|dim%d" % (self.name, m), field=f, dim=m, table=table
        )

    def monic_lines(self) -> Iterator[Vector]:
        """One representative per 1-dim subspace: first nonzero coordinate is 1."""
        f = self.field
        if not f.is_prime_field:
            raise UnsupportedFieldError("line enumeration needs a finite prime field")
        for v in itertools.product(list(f.elements()), repeat=self.dim):
            for x in v:
                if x:
                    break
            else:
                continue
            if x == 1:
                yield v

    def is_supersolvable(self, budget: int = 10 ** 6) -> bool:
        """Complete flag of ideals, by backtracking over 1-dim ideals."""
        if not self.field.is_prime_field:
            raise UnsupportedFieldError("supersolvability test needs a finite prime field")
        if self.field.p ** self.dim > budget:
            raise BudgetExceeded("p^n exceeds budget %d" % budget)
        if self.dim == 0:
            return True
        for v in self.monic_lines():
            line = Subspace.span(self.field, self.dim, [v])
            if self.is_ideal(line) and self.quotient(line).algebra.is_supersolvable(budget):
                return True
        return False

    # -- shape detection ---------------------------------------------------

    def classify_shape(self) -> Shape:
        f, n = self.field, self.dim
        full = self.full_subspace()
        l2 = self.product_space(full, full)
        if l2.dim == 0:
            return Shape("abelian")
        almost = self._almost_abelian_shape(l2)
        if almost is not None:
            return almost
        nilp, cls = self.is_nilpotent()
        if nilp and cls is not None and cls <= 2 and l2.dim == 1 and self.center() == l2:
            return Shape("extraspecial", radical=l2)
        return Shape("other")

    def _almost_abelian_shape(self, l2: Subspace) -> Optional[Shape]:
        f, n = self.field, self.dim
        if l2.dim != n - 1:
            return None
        if self.product_space(l2, l2).dim != 0:
            return None
        v = None
        for i in range(n):
            cand = self.basis_vector(i)
            if not l2.contains(cand):
                v = cand
                break
        if v is None:
            return None
        # R_v restricted to A must be c * identity with c != 0
        c = None
        for a in l2.basis:
            image = self.bracket(a, v)
            piv = next(j for j, x in enumerate(a) if x)
            ca = f.div(image[piv], a[piv])
            if image != vec_scale(f, ca, a):
                return None
            if c is None:
                c = ca
            elif ca != c:
                return None
        if c is None or f.is_zero(c):
            return None
        y = vec_scale(f, f.inv(c), v)
        images = [self.bracket(y, a) for a in l2.basis]
        if all(img == vec_scale(f, f.neg(f.one()), a) for img, a in zip(images, l2.basis)):
            return Shape("almost_abelian_lie", radical=l2, scaled_generator=y)
        if all(vec_is_zero(img) for img in images):
            return Shape("almost_abelian_nonlie", radical=l2, scaled_generator=y)
        return None

    # -- basis changes -----------------------------------------------------

    def change_of_basis(self, p_matrix: Sequence[Sequence[Scalar]]) -> "LeibnizAlgebra":
        """New algebra on the basis f_i = sum_j P[i][j] e_j."""
        f, n = self.field, self.dim
        p = tuple(tuple(f.normalize(x) for x in row) for row in p_matrix)
        pinv = invert_matrix(f, p)

        def to_new_coords(v: Vector) -> Vector:
            return tuple(
                _dot(f, v, tuple(pinv[m][k] for m in range(n)))
                for k in range(n)
            )

        table = []
        for i in range(n):
            plane = []
            for j in range(n):
                w = self.bracket(p[i], p[j])
                plane.append(to_new_coords(w))
            table.append(tuple(plane))
        return LeibnizAlgebra(
            name=self.name + "'",
            field=f,
            dim=n,
            table=tuple(table),
            family=self.family,
        )


def _dot(f: Field, u: Vector, v: Vector) -> Scalar:
    acc = f.zero()
    for a, b in zip(u, v):
        if a and b:
            acc = f.add(acc, f.mul(a, b))
    return acc


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
