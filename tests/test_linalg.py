import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from leibnizlat import (
    BudgetExceeded,
    Field,
    LinalgError,
    Subspace,
    enumerate_subspaces,
    nullspace,
    rref,
    solve_linear,
)
from leibnizlat.linalg import subspace_count

F2 = Field.prime(2)
F3 = Field.prime(3)
F5 = Field.prime(5)
Q = Field.rational()


def test_field_basics():
    assert F3.add(2, 2) == 1
    assert F3.mul(2, 2) == 1
    assert F3.neg(1) == 2
    assert F3.inv(2) == 2
    assert F5.div(3, 4) == F5.mul(3, F5.inv(4))
    assert Q.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)
    assert Q.inv(Fraction(2, 7)) == Fraction(7, 2)


def test_field_validation():
    with pytest.raises(LinalgError):
        Field.prime(4)
    with pytest.raises(LinalgError):
        Field.prime(37)  # supported range is 2..31
    with pytest.raises(ZeroDivisionError):
        F3.inv(0)


def test_scalar_io_roundtrip():
    for f, vals in ((F5, [0, 1, 4]), (Q, [Fraction(0), Fraction(-3, 7)])):
        for v in vals:
            assert f.parse_scalar(f.format_scalar(v)) == v


def test_rref_worked_example():
    # over F_5: rows reduce to the identity on the pivot columns
    rows, rank = rref(F5, [(2, 1, 0), (1, 1, 1), (3, 2, 1)])
    assert rank == 2
    assert rows == ((1, 0, 4), (0, 1, 2))


def test_rref_rational():
    rows, rank = rref(Q, [(Fraction(2), Fraction(4)), (Fraction(1), Fraction(3))])
    assert rank == 2
    assert rows == ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))


def _random_vectors(f, rng, count, n):
    elems = list(f.elements())
    return [tuple(rng.choice(elems) for _ in range(n)) for _ in range(count)]


def test_rref_canonical_under_shuffle():
    rng = random.Random(11)
    for _ in range(200):
        f = rng.choice([F2, F3, F5])
        n = rng.randrange(1, 5)
        vecs = _random_vectors(f, rng, rng.randrange(1, 4), n)
        a = Subspace.span(f, n, vecs)
        shuffled = vecs[:]
        rng.shuffle(shuffled)
        scaled = [tuple(f.mul(x, 1) for x in v) for v in shuffled]
        b = Subspace.span(f, n, scaled)
        assert a == b
        assert a.basis == b.basis


@given(st.integers(0, 3 ** 6 - 1), st.integers(0, 3 ** 6 - 1))
@settings(max_examples=60, deadline=None)
def test_span_contains_generators(x, y):
    def unpack(code):
        return tuple((code // 3 ** i) % 3 for i in range(6))

    u, v = unpack(x), unpack(y)
    s = Subspace.span(F3, 6, [u, v])
    assert s.contains(u) and s.contains(v)
    assert s.dim <= 2


def test_subspace_lattice_laws():
    rng = random.Random(23)
    for _ in range(100):
        f = rng.choice([F2, F3])
        n = 4
        a = Subspace.span(f, n, _random_vectors(f, rng, 2, n))
        b = Subspace.span(f, n, _random_vectors(f, rng, 2, n))
        c = Subspace.span(f, n, _random_vectors(f, rng, 1, n))
        assert a.intersection(b).leq(a)
        assert a.leq(a.sum(b))
        assert a.sum(b) == b.sum(a)
        assert a.intersection(b) == b.intersection(a)
        # dimension formula
        assert a.sum(b).dim + a.intersection(b).dim == a.dim + b.dim
        # modular law for subspaces (always holds): a <= c => (a+b) ∩ c = a + (b ∩ c)
        ac = a.sum(c)
        assert a.sum(b).intersection(ac) == a.sum(b.intersection(ac))


def test_zero_and_full():
    z = Subspace.zero(F3, 3)
    full = Subspace.full(F3, 3)
    assert z.dim == 0 and full.dim == 3
    assert z.leq(full)
    assert full.contains((1, 2, 0))
    assert not z.contains((1, 0, 0))
    assert z.contains((0, 0, 0))


def test_nullspace_oracle():
    # kernel of [[1,2,0],[0,0,1]] over F_3 is spanned by (1, 1, 0): x + 2y = 0
    ker = nullspace(F3, [(1, 2, 0), (0, 0, 1)])
    assert Subspace.span(F3, 3, ker) == Subspace.span(F3, 3, [(1, 1, 0)])


def test_solve_linear():
    sol, ker = solve_linear(F5, [(1, 2), (2, 4)], (3, 2))
    assert sol is None  # inconsistent: row 2 is twice row 1 but 2 != 2*3
    sol, ker = solve_linear(F5, [(1, 2), (2, 4)], (3, 1))
    assert sol is not None
    x, y = sol
    assert (x + 2 * y) % 5 == 3
    assert len(ker) == 1


def _gauss_count(p, n):
    # total number of subspaces of F_p^n: sum of Gaussian binomials
    total = 0
    for k in range(n + 1):
        num, den = 1, 1
        for i in range(k):
            num *= p ** (n - i) - 1
            den *= p ** (k - i) - 1
        total += num // den
    return total


@pytest.mark.parametrize("p,n", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4)])
def test_enumerate_subspaces_count(p, n):
    f = Field.prime(p)
    subs = list(enumerate_subspaces(f, n))
    assert len(subs) == _gauss_count(p, n)
    assert len(set(subs)) == len(subs)
    # ordered by dimension, deterministic
    dims = [s.dim for s in subs]
    assert dims == sorted(dims)
    assert subs == list(enumerate_subspaces(f, n))


def test_enumerate_subspaces_budget():
    with pytest.raises(BudgetExceeded):
        list(enumerate_subspaces(F5, 9))  # 5^9 ~ 2e6 > 10^6


def test_enumerate_subspaces_budget_counts_subspaces():
    # p^n = 1024 is small, but F_2^10 has 229,755,605 subspaces
    assert subspace_count(2, 10) == _gauss_count(2, 10) == 229755605
    subspaces = enumerate_subspaces(F2, 10)
    with pytest.raises(BudgetExceeded, match="229755605 subspaces"):
        next(subspaces)
    assert len(list(enumerate_subspaces(F2, 4, budget=subspace_count(2, 4)))) == 67
    with pytest.raises(BudgetExceeded):
        next(enumerate_subspaces(F2, 4, budget=66))


def test_enumerate_subspaces_rational_rejected():
    with pytest.raises(LinalgError):
        list(enumerate_subspaces(Q, 2))
