import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from leibnizlat import (
    BudgetExceeded,
    Field,
    LinalgError,
    Subspace,
    catalog,
    enumerate_subspaces,
    nullspace,
    rref,
)
from leibnizlat.linalg import _pivots_of, subspace_count

F2 = Field.prime(2)
F3 = Field.prime(3)
F5 = Field.prime(5)
F31 = Field.prime(31)
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


# -- streamed canonical forms ---------------------------------------------
# The library merges the echelon shapes of one dimension as they stream and
# makes each monic line from its leading 1. These are the code they replaced:
# every dimension built whole and sorted, and every vector filtered.

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
# every (p, n) with p^n <= 3^5 (F_2^6 and F_2^7 among them), and F_7^4
STREAM_CASES = [(p, n) for p in PRIMES for n in range(8) if p ** n <= 3 ** 5] + [(7, 4)]


def _batch_sorted_subspaces(f, n):
    def scalar_key(x):
        return (x.numerator, x.denominator) if isinstance(x, Fraction) else (x, 1)

    def sort_key(s):
        return (s.dim, tuple(tuple(scalar_key(x) for x in row) for row in s.basis))

    elems = list(f.elements())
    for k in range(n + 1):
        batch = []
        for pivots in itertools.combinations(range(n), k):
            free_positions = [
                (r, c) for r in range(k) for c in range(pivots[r] + 1, n) if c not in pivots
            ]
            for values in itertools.product(elems, repeat=len(free_positions)):
                rows = [[f.zero()] * n for _ in range(k)]
                for r, p in enumerate(pivots):
                    rows[r][p] = f.one()
                for (r, c), val in zip(free_positions, values):
                    rows[r][c] = val
                batch.append(Subspace(f, n, tuple(tuple(row) for row in rows)))
        batch.sort(key=sort_key)
        yield from batch


def _filtered_monic_vectors(p, n):
    for v in itertools.product(range(p), repeat=n):
        nonzero = [x for x in v if x]
        if nonzero and nonzero[0] == 1:
            yield v


@pytest.mark.parametrize("p,n", STREAM_CASES)
def test_enumerate_subspaces_matches_batch_sort_oracle(p, n):
    f = Field.prime(p)
    streamed = list(enumerate_subspaces(f, n))
    assert len(streamed) == subspace_count(p, n)
    assert streamed == list(_batch_sorted_subspaces(f, n))


@pytest.mark.parametrize("p,n", STREAM_CASES)
def test_monic_lines_match_vector_filter_oracle(p, n):
    lines = list(catalog.abelian(n, Field.prime(p)).monic_lines())
    assert len(lines) == (p ** n - 1) // (p - 1)
    assert lines == list(_filtered_monic_vectors(p, n))


def test_enumerate_subspaces_streams():
    # F_2^6 has 2,825 subspaces, 1,395 of them of dim 3; holding one dimension
    # whole to sort it peaked at about 2.5 MB
    tracemalloc.start()
    try:
        count = sum(1 for _ in enumerate_subspaces(F2, 6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == 2825
    assert peak < 1 << 20, "peak %d bytes" % peak


# -- per-scalar reference kernels ------------------------------------------
# The library reduces whole rows per field. These are the loops it replaced,
# one Field call per scalar; the row kernels must return the same values of
# the same types.


def _ref_rref(f, rows):
    work = [list(f.normalize(x) for x in row) for row in rows]
    if work and any(len(r) != len(work[0]) for r in work):
        raise LinalgError("ragged matrix")
    nrows = len(work)
    ncols = len(work[0]) if work else 0
    rank = 0
    for col in range(ncols):
        pivot_row = next((r for r in range(rank, nrows) if work[r][col]), None)
        if pivot_row is None:
            continue
        work[rank], work[pivot_row] = work[pivot_row], work[rank]
        inv = f.inv(work[rank][col])
        work[rank] = [f.mul(inv, x) for x in work[rank]]
        for r in range(nrows):
            if r != rank and work[r][col]:
                c = work[r][col]
                work[r] = [f.sub(x, f.mul(c, y)) for x, y in zip(work[r], work[rank])]
        rank += 1
        if rank == nrows:
            break
    result = tuple(tuple(row) for row in work[:rank] if any(row))
    return result, len(result)


def _ref_reduce(f, basis, v):
    w = [f.normalize(x) for x in v]
    for row, piv in zip(basis, _pivots_of(basis)):
        c = w[piv]
        if c:
            w = [f.sub(x, f.mul(c, y)) for x, y in zip(w, row)]
    return tuple(w)


def _ref_leq(f, a, b):
    return all(not any(_ref_reduce(f, b, row)) for row in a)


def _ref_nullspace(f, rows):
    if not rows:
        return []
    ncols = len(rows[0])
    reduced, _ = _ref_rref(f, rows)
    piv = _pivots_of(reduced)
    basis = []
    for j in [j for j in range(ncols) if j not in piv]:
        v = [f.zero()] * ncols
        v[j] = f.one()
        for row, p in zip(reduced, piv):
            v[p] = f.neg(row[j])
        basis.append(tuple(v))
    return basis


def _ref_intersection(f, n, a, b):
    """RREF basis of span(a) ∩ span(b), for RREF bases a and b."""
    if not a or not b:
        return ()
    if _ref_leq(f, a, b):
        return a
    if _ref_leq(f, b, a):
        return b
    rows = [[row[c] for row in a] + [f.neg(row[c]) for row in b] for c in range(n)]
    vectors = []
    for coeffs in _ref_nullspace(f, rows):
        v = (f.zero(),) * n
        for c, row in zip(coeffs, a):
            if c:
                v = tuple(f.add(x, f.mul(c, y)) for x, y in zip(v, row))
        vectors.append(v)
    return _ref_rref(f, vectors)[0]


def _ref_bracket(f, table, x, y):
    n = len(x)
    out = [f.zero()] * n
    for i in range(n):
        for j in range(n):
            if x[i] and y[j]:
                coeff = f.mul(x[i], y[j])
                for k in range(n):
                    if table[i][j][k]:
                        out[k] = f.add(out[k], f.mul(coeff, table[i][j][k]))
    return tuple(out)


ORACLE_FIELDS = (F2, F3, F5, F31, Q)


def _scalar(f):
    """Ints below 0 and at or above p; over F_5 also 3/2, which normalises to 4."""
    if f == Q:
        return st.one_of(st.integers(-4, 4), st.fractions(-3, 3, max_denominator=5))
    ints = st.integers(-2 * f.p, 3 * f.p)
    return st.one_of(ints, st.just(Fraction(3, 2))) if f == F5 else ints


@st.composite
def _oracle_case(draw):
    f = draw(st.sampled_from(ORACLE_FIELDS))
    n = draw(st.integers(1, 5))
    vec = st.lists(_scalar(f), min_size=n, max_size=n)
    return f, n, draw(st.lists(vec, max_size=4)), draw(st.lists(vec, max_size=4)), draw(vec)


@given(_oracle_case())
@settings(max_examples=300, deadline=None)
def test_row_kernels_match_per_scalar_reference(case):
    f, n, rows, other, v = case
    assert repr(rref(f, rows)) == repr(_ref_rref(f, rows))
    assert repr(nullspace(f, rows)) == repr(_ref_nullspace(f, rows))
    a, b = Subspace.span(f, n, rows), Subspace.span(f, n, other)
    assert repr(a.reduce(v)) == repr(_ref_reduce(f, a.basis, v))
    assert a.contains(v) == (not any(_ref_reduce(f, a.basis, v)))
    assert a.leq(b) == _ref_leq(f, a.basis, b.basis)
    assert repr(a.intersection(b).basis) == repr(_ref_intersection(f, n, a.basis, b.basis))


_UNITRIANGULAR = ((1, 1, 0), (0, 1, 1), (0, 0, 1))
BRACKET_ALGEBRAS = [
    l.change_of_basis(_UNITRIANGULAR)  # dense tables
    for f in ORACLE_FIELDS
    for l in (catalog.cyclic_solvable(3, f), catalog.almost_abelian_nonlie(3, f))
]


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_bracket_matches_per_scalar_reference(data):
    l = data.draw(st.sampled_from(BRACKET_ALGEBRAS))
    scalar = st.fractions(-3, 3, max_denominator=5) if l.field == Q else st.integers(-70, 100)
    x, y = (tuple(data.draw(st.lists(scalar, min_size=3, max_size=3))) for _ in range(2))
    assert repr(l.bracket(x, y)) == repr(_ref_bracket(l.field, l.table, x, y))


def test_fraction_scalars_over_fp():
    bad = [(Fraction(1, 5), 1)]
    for kernel in (rref, _ref_rref):
        with pytest.raises(LinalgError, match="mod 5"):
            kernel(F5, bad)
    with pytest.raises(LinalgError, match="mod 5"):
        Subspace.full(F5, 2).reduce(bad[0])
    assert rref(F5, [(Fraction(3, 2), 1)]) == (((1, 4),), 1)  # 3/2 = 4 and 1/4 = 4 mod 5


def test_pivots_are_kept_with_each_subspace():
    for s in enumerate_subspaces(F3, 3):
        assert s.pivots == _pivots_of(s.basis)


# -- the one elimination routine -------------------------------------------
# rref, Subspace.span and Subspace.sum all insert rows into one fully reduced
# echelon (linalg._insert); the sum seeds it with the first subspace's RREF rows.


def test_rref_edge_cases_match_the_column_sweep():
    cases = [
        (F3, []),
        (F5, [(0, 0, 0), (0, 0, 0)]),
        (Q, [(0, 0), (Fraction(0), 0)]),
        (F2, [(1, 0, 1), (1, 0, 1), (1, 0, 1)]),
        (F31, [(3, 7), (6, 14), (3, 7), (0, 0)]),
        (Q, [(Fraction(1, 2), 1, 0), (1, 2, 0), (1, 2, 0)]),
    ]
    for f, rows in cases:
        assert repr(rref(f, rows)) == repr(_ref_rref(f, rows)), (f, rows)
    assert rref(F3, []) == ((), 0)
    assert rref(F5, [(0, 0, 0)]) == ((), 0)
    assert rref(F2, [(1, 0, 1)] * 3) == (((1, 0, 1),), 1)
    for f, ragged in ((F3, [(1, 2), (1, 2, 0)]), (Q, [(1,), ()])):
        for kernel in (rref, _ref_rref):
            with pytest.raises(LinalgError, match="ragged"):
                kernel(f, ragged)


def _assert_sum_is_the_span(u, v):
    expected = Subspace.span(u.field, u.ambient_dim, u.basis + v.basis)
    got = u.sum(v)
    assert repr(got.basis) == repr(expected.basis), (u, v)
    assert got.pivots == _pivots_of(expected.basis)


@pytest.mark.parametrize("f", [F2, F3], ids=["F2", "F3"])
def test_sum_is_the_span_on_every_subspace_pair(f):
    subspaces = list(enumerate_subspaces(f, 3))
    for u, v in itertools.product(subspaces, repeat=2):
        _assert_sum_is_the_span(u, v)
    assert len(subspaces) == {2: 16, 3: 28}[f.p]


def test_sum_is_the_span_on_random_pairs():
    rng = random.Random(5)
    fractions = [Fraction(k, d) for k in range(-3, 4) for d in (1, 2, 3)]
    for f in (F5, F31, Q):
        scalars = fractions if f == Q else list(f.elements())
        for _ in range(150):
            n = rng.randrange(1, 6)
            u, v = ([[rng.choice(scalars) for _ in range(n)] for _ in range(rng.randrange(n + 1))]
                    for _ in range(2))
            _assert_sum_is_the_span(Subspace.span(f, n, u), Subspace.span(f, n, v))


def _power_span_oracle(l, v):
    """<v> as the span of v, v^2, ..., v^(n+1), each power a bracket: the powers past the
    first one already in the span add nothing, since right multiplication by v is linear."""
    powers = [tuple(v)]
    for _ in range(l.dim):
        powers.append(l.bracket(powers[-1], v))
    return Subspace.span(l.field, l.dim, powers)


def test_cyclic_subalgebra_over_q_matches_the_power_span():
    # the subalgebra generated by one vector, subalgebra_closure([v]), over Q
    rng = random.Random(7)
    entries = [Fraction(k, d) for k in range(-2, 3) for d in (1, 2)]
    base = (1, 1, 0, 0), (0, 1, 1, 0), (Fraction(1, 2), 0, 1, 1), (0, 0, 0, 1)
    algebras = []
    for make in (catalog.cyclic_solvable, catalog.cyclic_nilpotent, catalog.almost_abelian_nonlie):
        l = make(4, Q)
        algebras += [l, l.change_of_basis(base)]
    algebras.append(catalog.heisenberg_lie(Q))
    dims = set()
    for l in algebras:
        vectors = [tuple(rng.choice(entries) for _ in range(l.dim)) for _ in range(25)]
        vectors += [tuple(l.basis_vector(i)) for i in range(l.dim)] + [(0,) * l.dim]
        for v in vectors:
            u = l.subalgebra_closure([v])
            assert repr(u.basis) == repr(_power_span_oracle(l, v).basis), (l.name, v)
            dims.add(u.dim)
    assert dims == {0, 1, 2, 3, 4}
