"""Constructors for the named algebra families, negative controls and corpora.

Random structure tensors are never sampled directly (the Leibniz identity cuts
out a measure-zero set); corpus diversity comes from families x parameters x
random changes of basis, plus an exhaustive sweep of all 2-dimensional
algebras over F_2.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterator, List

from .linalg import Field, LinalgError, matrix_rank
from .algebra import MAX_DIM, AlgebraError, LeibnizAlgebra, _change_of_basis


def _empty_table(f: Field, n: int):
    z = f.zero()
    return [[[z] * n for _ in range(n)] for _ in range(n)]


def _build(name: str, f: Field, n: int, entries, family: str) -> LeibnizAlgebra:
    if n > MAX_DIM:
        raise AlgebraError("dimension %d is above the limit %d" % (n, MAX_DIM))
    table = _empty_table(f, n)
    for i, j, k, v in entries:
        table[i][j][k] = v
    return LeibnizAlgebra(name=name, field=f, dim=n, table=table, family=family)


def _field_tag(f: Field) -> str:
    return "F%d" % f.p if f.is_prime_field else "Q"


def abelian(n: int, f: Field) -> LeibnizAlgebra:
    if n < 0:
        raise AlgebraError("dimension must be >= 0")
    return _build("abelian(%d)/%s" % (n, _field_tag(f)), f, n, [], "abelian")


def cyclic_nilpotent(n: int, f: Field) -> LeibnizAlgebra:
    """Basis a^1..a^n with [a^i, a] = a^(i+1); nilpotent of class n."""
    if n < 1:
        raise AlgebraError("cyclic algebras need n >= 1")
    entries = [(i, 0, i + 1, 1) for i in range(n - 1)]
    return _build(
        "cyclic_nilpotent(%d)/%s" % (n, _field_tag(f)), f, n, entries, "cyclic_nilpotent"
    )


def cyclic_solvable(n: int, f: Field) -> LeibnizAlgebra:
    """As cyclic_nilpotent but with [a^n, a] = a^n; solvable, not nilpotent.

    n = 1 would force [a, a] = a, which no Leibniz algebra admits, so n >= 2.
    """
    if n < 2:
        raise AlgebraError("solvable cyclic algebras need n >= 2")
    entries = [(i, 0, i + 1, 1) for i in range(n - 1)]
    entries.append((n - 1, 0, n - 1, 1))
    return _build(
        "cyclic_solvable(%d)/%s" % (n, _field_tag(f)), f, n, entries, "cyclic_solvable"
    )


def almost_abelian_lie(n: int, f: Field) -> LeibnizAlgebra:
    """A + Fy with [a,y] = a and [y,a] = -a on an abelian ideal A of dim n-1."""
    if n < 2:
        raise AlgebraError("almost abelian algebras need n >= 2")
    y = n - 1
    entries = [(i, y, i, 1) for i in range(n - 1)]
    entries += [(y, i, i, -1) for i in range(n - 1)]
    return _build(
        "almost_abelian_lie(%d)/%s" % (n, _field_tag(f)), f, n, entries, "almost_abelian_lie"
    )


def almost_abelian_nonlie(n: int, f: Field) -> LeibnizAlgebra:
    """A + Fy with [a,y] = a and [y,a] = 0."""
    if n < 2:
        raise AlgebraError("almost abelian algebras need n >= 2")
    y = n - 1
    entries = [(i, y, i, 1) for i in range(n - 1)]
    return _build(
        "almost_abelian_nonlie(%d)/%s" % (n, _field_tag(f)),
        f,
        n,
        entries,
        "almost_abelian_nonlie",
    )


def family_nonlie_ii(k: int, m: int, f: Field) -> LeibnizAlgebra:
    """Cyclic part x..x^k with x^(k+1) = x^k, plus abelian A with [a,x] = a.

    Basis: x = e_0, ..., x^k = e_(k-1), then the m generators of A.
    """
    if k < 2:
        raise AlgebraError("the cyclic part needs k >= 2")
    if m < 0:
        raise AlgebraError("dim A must be >= 0")
    n = k + m
    entries = [(i, 0, i + 1, 1) for i in range(k - 1)]
    entries.append((k - 1, 0, k - 1, 1))
    entries += [(k + a, 0, k + a, 1) for a in range(m)]
    return _build(
        "family_nonlie_ii(k=%d,m=%d)/%s" % (k, m, _field_tag(f)),
        f,
        n,
        entries,
        "family_nonlie_ii",
    )


def family_sqrt(k: int, m: int, f: Field) -> LeibnizAlgebra:
    """A + <x> with <x> nilpotent cyclic of dim k, [a,x] = a = -[x,a].

    Basis: x = e_0, ..., x^k = e_(k-1), then the m generators of A.
    Characteristic 2 is rejected (hypothesis of the classification).
    """
    if f.characteristic == 2:
        raise AlgebraError("this family requires characteristic != 2")
    if k < 1:
        raise AlgebraError("nilpotency index k must be >= 1")
    if m < 1:
        raise AlgebraError("A must be nonzero (m >= 1)")
    n = k + m
    entries = [(i, 0, i + 1, 1) for i in range(k - 1)]
    entries += [(k + a, 0, k + a, 1) for a in range(m)]
    entries += [(0, k + a, k + a, -1) for a in range(m)]
    return _build(
        "family_sqrt(k=%d,m=%d)/%s" % (k, m, _field_tag(f)), f, n, entries, "family_sqrt"
    )


def symmetric_iv(m: int, f: Field) -> LeibnizAlgebra:
    """B + Fy + Fy^2 with [b,y] = b = -[y,b], [y,y] = y^2 and central y^2."""
    if f.characteristic == 2:
        raise AlgebraError("this family requires characteristic != 2")
    if m < 1:
        raise AlgebraError("dim B must be >= 1")
    n = m + 2
    y, ysq = m, m + 1
    entries = [(b, y, b, 1) for b in range(m)]
    entries += [(y, b, b, -1) for b in range(m)]
    entries.append((y, y, ysq, 1))
    return _build(
        "symmetric_iv(m=%d)/%s" % (m, _field_tag(f)), f, n, entries, "symmetric_iv"
    )


def extraspecial_plus_center(z_dim: int, f: Field) -> LeibnizAlgebra:
    """Minimal extraspecial witness (e^2 = z) direct-summed with a central abelian part."""
    if z_dim < 0:
        raise AlgebraError("central dimension must be >= 0")
    n = 2 + z_dim
    entries = [(0, 0, 1, 1)]
    return _build(
        "extraspecial_plus_center(z=%d)/%s" % (z_dim, _field_tag(f)),
        f,
        n,
        entries,
        "extraspecial_plus_center",
    )


def heisenberg_lie(f: Field) -> LeibnizAlgebra:
    """Negative control: Lie, nilpotent of class 2, not modular."""
    entries = [(0, 1, 2, 1), (1, 0, 2, -1)]
    return _build("heisenberg/%s" % _field_tag(f), f, 3, entries, "heisenberg_lie")


# family id -> (constructor taking (*int_params, field), usage line)
FAMILIES = {
    "abelian": (abelian, "abelian <n>"),
    "cyclic_nilpotent": (cyclic_nilpotent, "cyclic_nilpotent <n>"),
    "cyclic_solvable": (cyclic_solvable, "cyclic_solvable <n>"),
    "almost_abelian_lie": (almost_abelian_lie, "almost_abelian_lie <n>"),
    "almost_abelian_nonlie": (almost_abelian_nonlie, "almost_abelian_nonlie <n>"),
    "family_nonlie_ii": (family_nonlie_ii, "family_nonlie_ii <k> <m>"),
    "family_sqrt": (family_sqrt, "family_sqrt <k> <m>"),
    "symmetric_iv": (symmetric_iv, "symmetric_iv <m>"),
    "extraspecial_plus_center": (extraspecial_plus_center, "extraspecial_plus_center <z_dim>"),
    "heisenberg_lie": (heisenberg_lie, "heisenberg_lie"),
}


def exhaustive_dim2(f: Field) -> Iterator[LeibnizAlgebra]:
    """Every valid 2-dimensional Leibniz algebra over F_2 (256 raw tensors, filtered)."""
    if f != Field.prime(2):
        raise AlgebraError("exhaustive sweep is supported for F_2 only")
    elems = list(f.elements())
    count = 0
    for flat in itertools.product(elems, repeat=8):
        table = (
            ((flat[0], flat[1]), (flat[2], flat[3])),
            ((flat[4], flat[5]), (flat[6], flat[7])),
        )
        try:
            l = LeibnizAlgebra("dim2_F2_#%03d" % (count + 1), f, 2, table, "exhaustive_dim2")
        except AlgebraError:  # the tensor violates the right Leibniz identity
            continue
        count += 1
        yield l


def random_invertible(f: Field, n: int, rng: random.Random):
    if not f.is_prime_field:
        raise LinalgError("random matrices need a finite prime field")
    elems = list(f.elements())
    while True:
        rows = tuple(tuple(rng.choice(elems) for _ in range(n)) for _ in range(n))
        if n == 0 or matrix_rank(f, rows) == n:
            return rows


def _base_members() -> List[LeibnizAlgebra]:
    # F_5 members are capped at dim 3: at dim 4 some lattices contain every
    # subspace (1120 nodes) and the pairwise scans stop being desk-scale.
    f2, f3, f5 = Field.prime(2), Field.prime(3), Field.prime(5)
    members: List[LeibnizAlgebra] = []
    for f, top in ((f2, 4), (f3, 4), (f5, 3)):
        for n in range(1, top + 1):
            members.append(abelian(n, f))
            members.append(cyclic_nilpotent(n, f))
        for n in range(2, top + 1):
            members.append(cyclic_solvable(n, f))
            members.append(almost_abelian_lie(n, f))
            members.append(almost_abelian_nonlie(n, f))
    for f in (f2, f3):
        for k, m in ((2, 0), (2, 1), (2, 2), (3, 0), (3, 1)):
            members.append(family_nonlie_ii(k, m, f))
    for f, pairs in ((f3, ((1, 1), (1, 2), (2, 1), (2, 2))), (f5, ((1, 1), (1, 2), (2, 1)))):
        for k, m in pairs:
            members.append(family_sqrt(k, m, f))
    for f, tops in ((f3, (1, 2)), (f5, (1,))):
        for m in tops:
            members.append(symmetric_iv(m, f))
    for f in (f3, f5):
        for z in (0, 1):
            members.append(extraspecial_plus_center(z, f))
    for f in (f2, f3, f5):
        members.append(heisenberg_lie(f))
    return members


def corpus(seed: int) -> List[LeibnizAlgebra]:
    """Deterministic verification corpus: families, basis-changed copies, dim-2 sweep."""
    rng = random.Random(seed)
    out: List[LeibnizAlgebra] = []
    for base in _base_members():
        out.append(base)
        for v in range(3):
            p = random_invertible(base.field, base.dim, rng)
            out.append(_change_of_basis(base, p, "%s@basis%d" % (base.name, v + 1)))
    out.extend(exhaustive_dim2(Field.prime(2)))
    return out
