"""Exact linear algebra over prime fields F_p and the rationals.

Scalars are plain Python ints in [0, p) for the prime case and
``fractions.Fraction`` for the rational case; a ``Field`` object carries the
arithmetic.  Subspaces are kept in reduced row echelon form, so equality of
subspaces is equality of their basis matrices.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field as dc_field
from functools import cached_property
from fractions import Fraction
from operator import attrgetter
from typing import Iterator, Optional, Sequence, Union

Scalar = Union[int, Fraction]
Vector = tuple  # tuple of Scalar
Matrix = tuple  # tuple of Vector


# Every rational zero that Field.zero() hands out is this one object, so the zero
# entries of a table over Q do not each hold a Fraction of their own.
_Q_ZERO = Fraction(0)


class LinalgError(ValueError):
    """Shape, field or argument mismatch in an exact linear algebra operation."""


class BudgetExceeded(RuntimeError):
    """An exhaustive enumeration would exceed the configured budget."""


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class Field:
    """F_p for a prime 2 <= p <= 31, or the rationals (p is None)."""

    p: Optional[int] = None

    def __post_init__(self):
        if self.p is not None:
            if not isinstance(self.p, int) or not _is_prime(self.p):
                raise LinalgError("field characteristic must be prime, got %r" % (self.p,))
            if not 2 <= self.p <= 31:
                raise LinalgError("prime fields are supported for 2 <= p <= 31, got %d" % self.p)

    @classmethod
    def prime(cls, p: int) -> "Field":
        return cls(p)

    @classmethod
    def rational(cls) -> "Field":
        return cls(None)

    @property
    def is_prime_field(self) -> bool:
        return self.p is not None

    @property
    def characteristic(self) -> int:
        return self.p if self.p is not None else 0

    def normalize(self, x) -> Scalar:
        if self.p is not None:
            if isinstance(x, Fraction):
                if x.denominator % self.p == 0:
                    raise LinalgError("denominator not invertible mod %d" % self.p)
                return (x.numerator * pow(x.denominator, -1, self.p)) % self.p
            return int(x) % self.p
        if isinstance(x, Fraction):
            return x
        return Fraction(x)

    # Row arithmetic: one comprehension per row, reduced mod p once per entry.

    def normalize_row(self, row) -> list:
        """The row as field elements; only entries of an unexpected type call normalize()."""
        p = self.p
        if p is None:
            return [x if type(x) is Fraction else self.normalize(x) for x in row]
        return [x % p if type(x) is int else self.normalize(x) for x in row]

    def scale_row(self, c: Scalar, row) -> list:
        """c * row, for a normalized scalar and row."""
        p = self.p
        if p is None:
            return [c * x for x in row]
        return [c * x % p for x in row]

    def sub_scaled_row(self, w, c: Scalar, row) -> list:
        """w - c * row, for normalized scalars and rows."""
        p = self.p
        if p is None:
            return [x - c * y for x, y in zip(w, row)]
        return [(x - c * y) % p for x, y in zip(w, row)]

    def zero(self) -> Scalar:
        return 0 if self.p is not None else _Q_ZERO

    def one(self) -> Scalar:
        return 1 if self.p is not None else Fraction(1)

    def add(self, a: Scalar, b: Scalar) -> Scalar:
        return (a + b) % self.p if self.p is not None else a + b

    def sub(self, a: Scalar, b: Scalar) -> Scalar:
        return (a - b) % self.p if self.p is not None else a - b

    def neg(self, a: Scalar) -> Scalar:
        return (-a) % self.p if self.p is not None else -a

    def mul(self, a: Scalar, b: Scalar) -> Scalar:
        return (a * b) % self.p if self.p is not None else a * b

    def inv(self, a: Scalar) -> Scalar:
        if not a:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p) if self.p is not None else 1 / a

    def div(self, a: Scalar, b: Scalar) -> Scalar:
        return self.mul(a, self.inv(b))

    def elements(self) -> Iterator[Scalar]:
        if self.p is None:
            raise LinalgError("cannot enumerate the rationals")
        return iter(range(self.p))

    def parse_scalar(self, text: str) -> Scalar:
        if "/" in text:
            num, den = text.split("/", 1)
            return self.normalize(Fraction(int(num), int(den)))
        return self.normalize(int(text))

    @staticmethod
    def format_scalar(x: Scalar) -> str:
        if isinstance(x, Fraction) and x.denominator != 1:
            return "%d/%d" % (x.numerator, x.denominator)
        return str(int(x))

    def __repr__(self):
        return "Field(F_%d)" % self.p if self.p is not None else "Field(Q)"


def unit_vector(f: Field, n: int, i: int) -> Vector:
    """The i-th standard basis vector of F^n."""
    v = [f.zero()] * n
    v[i] = f.one()
    return tuple(v)


def rref(f: Field, rows: Sequence[Sequence[Scalar]]):
    """RREF by inserting the rows into one echelon.  Returns (rref_rows, rank), no zero rows."""
    work = [f.normalize_row(row) for row in rows]
    if any(len(r) != len(work[0]) for r in work):
        raise LinalgError("ragged matrix")
    basis = _span(f, len(work[0]) if work else 0, work, {}).basis
    return basis, len(basis)


def _insert(f: Field, echelon: dict, v) -> bool:
    """Add the reduced row v to a fully reduced echelon {pivot: row}; False if v is in its span.
    The one elimination routine: every RREF in the package is built by it."""
    for piv, row in echelon.items():
        v = f.sub_scaled_row(v, v[piv], row) if v[piv] else v
    for lead, c in enumerate(v):
        if c:
            v = f.scale_row(f.inv(c), v)
            for piv, row in echelon.items():
                echelon[piv] = f.sub_scaled_row(row, row[lead], v) if row[lead] else row
            echelon[lead] = v
            return True
    return False


def _span(f: Field, n: int, rows, echelon: dict) -> Subspace:
    """Insert the reduced rows; the echelon's rows sorted by pivot are the span's RREF."""
    for v in rows:
        _insert(f, echelon, v)
    return Subspace(f, n, tuple(tuple(echelon[piv]) for piv in sorted(echelon)))


def _pivots_of(rows: Matrix) -> tuple:
    piv = []
    for row in rows:
        for j, x in enumerate(row):
            if x:
                piv.append(j)
                break
    return tuple(piv)


@dataclass(frozen=True)
class Subspace:
    """A subspace of F^n, stored by its canonical RREF basis (rows)."""

    field: Field
    ambient_dim: int
    basis: Matrix = dc_field(default=())

    @classmethod
    def span(cls, f: Field, n: int, vectors: Sequence[Sequence[Scalar]]) -> "Subspace":
        for v in vectors:
            if len(v) != n:
                raise LinalgError("vector length %d != ambient dimension %d" % (len(v), n))
        basis, _ = rref(f, vectors)
        return cls(f, n, basis)

    @classmethod
    def zero(cls, f: Field, n: int) -> "Subspace":
        return cls(f, n, ())

    @classmethod
    def full(cls, f: Field, n: int) -> "Subspace":
        return cls(f, n, tuple(unit_vector(f, n, i) for i in range(n)))

    @property
    def dim(self) -> int:
        return len(self.basis)

    @cached_property
    def pivots(self) -> tuple:
        return _pivots_of(self.basis)

    def _check_ambient(self, other: "Subspace"):
        if self.field is other.field and self.ambient_dim == other.ambient_dim:
            return
        if self.field != other.field or self.ambient_dim != other.ambient_dim:
            raise LinalgError("ambient space mismatch")

    def reduce(self, v: Vector) -> Vector:
        """Residual of v after subtracting its projection onto this subspace."""
        if len(v) != self.ambient_dim:
            raise LinalgError("vector length mismatch")
        return tuple(self._residual(self.field.normalize_row(v)))

    def _residual(self, w) -> list:
        """reduce() for a vector of the right length that is already normalized."""
        f = self.field
        for row, piv in zip(self.basis, self.pivots):
            c = w[piv]
            if c:
                w = f.sub_scaled_row(w, c, row)
        return w

    def contains(self, v: Vector) -> bool:
        return not any(self.reduce(v))

    def leq(self, other: "Subspace") -> bool:
        """Each RREF row reduces to 0 against other; False at once when dim self > dim other."""
        self._check_ambient(other)
        return self.dim <= other.dim and all(not any(other._residual(row)) for row in self.basis)

    def sum(self, other: "Subspace") -> "Subspace":
        """Other's basis inserted into an echelon seeded with this RREF."""
        self._check_ambient(other)
        return _span(self.field, self.ambient_dim, other.basis, dict(zip(self.pivots, self.basis)))

    def intersection(self, other: "Subspace") -> "Subspace":
        """Zassenhaus: in the RREF of the rows (u | u) and (v | 0), the rows whose left half is
        0 hold U ^ V in their right halves, already in RREF."""
        self._check_ambient(other)
        f, n = self.field, self.ambient_dim
        rows = [[*u, *u] for u in self.basis] + [[*v] + [f.zero()] * n for v in other.basis]
        both = _span(f, 2 * n, rows, {}).basis
        return Subspace(f, n, tuple(row[n:] for row in both if not any(row[:n])))

    def vectors(self) -> Iterator[Vector]:
        """All elements of the subspace (prime fields only)."""
        f = self.field
        if not f.is_prime_field:
            raise LinalgError("cannot enumerate a rational subspace")
        for coeffs in itertools.product(range(f.p), repeat=self.dim):
            yield self.combination(coeffs)

    def combination(self, coeffs: Sequence[Scalar]) -> Vector:
        """sum(c_i * b_i) over the basis rows b_i, for normalized coefficients."""
        f = self.field
        v = [f.zero()] * self.ambient_dim
        for c, row in zip(coeffs, self.basis):
            if c:
                v = f.sub_scaled_row(v, -c, row)  # v + c * row
        return tuple(v)

    def __repr__(self):
        return "Subspace(dim=%d/%d, basis=%r)" % (self.dim, self.ambient_dim, self.basis)


def nullspace(f: Field, rows: Sequence[Sequence[Scalar]]):
    """Basis of the kernel of the matrix (as row vectors of coefficient space)."""
    if not rows:
        return []
    ncols = len(rows[0])
    reduced, _ = rref(f, rows)
    piv = _pivots_of(reduced)
    free = [j for j in range(ncols) if j not in piv]
    minus_one = f.neg(f.one())
    basis = []
    for j in free:
        v = list(unit_vector(f, ncols, j))
        for p, x in zip(piv, f.scale_row(minus_one, [row[j] for row in reduced])):
            v[p] = x
        basis.append(tuple(v))
    return basis


def subspace_count(p: int, n: int) -> int:
    """Number of subspaces of F_p^n: the sum over k of the Gaussian binomials [n k]_p."""
    total = 0
    for k in range(n + 1):
        num = den = 1
        for i in range(k):
            num *= p ** (n - i) - 1
            den *= p ** (k - i) - 1
        total += num // den
    return total


def enumerate_subspaces(f: Field, n: int, budget: int = 10 ** 6) -> Iterator[Subspace]:
    """All subspaces of F_p^n, by dimension then lexicographic RREF basis.

    Iterates RREF shapes directly: choose pivot columns, then fill the free
    entries, so every subspace appears exactly once without deduplication.
    Each shape yields in basis order, and one merge per dimension interleaves
    them, so nothing is held but one pending subspace per shape.
    """
    if not f.is_prime_field:
        raise LinalgError("subspace enumeration needs a finite prime field")
    count = subspace_count(f.p, n)
    if count > budget:
        raise BudgetExceeded(
            "F_%d^%d has %d subspaces, over the subspace budget %d" % (f.p, n, count, budget)
        )
    for k in range(n + 1):
        shapes = [_shape_subspaces(f, n, pivots) for pivots in itertools.combinations(range(n), k)]
        yield from heapq.merge(*shapes, key=attrgetter("basis"))


def _shape_subspaces(f: Field, n: int, pivots: tuple) -> Iterator[Subspace]:
    """The subspaces whose RREF has these pivot columns, in basis order: the free
    entries run through F_p in row-major order, the order rows compare in."""
    rows = [[0] * n for _ in pivots]
    for r, c in enumerate(pivots):
        rows[r][c] = 1
    free = [(r, c) for r, piv in enumerate(pivots) for c in range(piv + 1, n) if c not in pivots]
    for values in itertools.product(range(f.p), repeat=len(free)):
        for (r, c), x in zip(free, values):
            rows[r][c] = x
        yield Subspace(f, n, tuple(map(tuple, rows)))


def monic_combinations(f: Field, rows: Matrix) -> Iterator[Vector]:
    """One vector per line of the span of RREF rows over F_p: the combinations whose first
    nonzero coefficient is 1. They are monic, as the rows have leading ones at increasing
    pivots. Later leading rows come first, then the other coefficients in lexicographic order."""
    for k in reversed(range(len(rows))):
        yield from _combinations(f.p, rows[k], rows[k + 1:])


def _combinations(p: int, v, rows) -> Iterator[Vector]:
    """v + c_1 rows[0] + c_2 rows[1] + ... over the coefficients in lexicographic order."""
    if not rows:
        yield tuple(v)
        return
    for c in range(p):
        w = [(x + c * y) % p for x, y in zip(v, rows[0])] if c else v
        yield from _combinations(p, w, rows[1:])


def matrix_rank(f: Field, rows: Sequence[Sequence[Scalar]]) -> int:
    return rref(f, rows)[1]


def invert_matrix(f: Field, rows: Sequence[Sequence[Scalar]]) -> Matrix:
    n = len(rows)
    augmented = [list(row) + list(unit_vector(f, n, i)) for i, row in enumerate(rows)]
    reduced, rank = rref(f, augmented)
    if rank < n or _pivots_of(reduced)[:n] != tuple(range(n)):
        raise LinalgError("matrix is singular")
    return tuple(tuple(row[n:]) for row in reduced)
