"""Acceptance suite: ten numbered criteria, one printed verdict line each.

A session fixture precomputes the shared per-algebra analyses (lattice,
modularity/semimodularity/WQI verdicts) once; the timed criteria then measure
their own incremental work on top of that shared cache.
"""

import random
import subprocess
import sys
import time

import pytest

from leibnizlat import (
    Field,
    Subspace,
    catalog,
    enumerate_subalgebras,
    enumerate_subspaces,
    frattini_ideal,
    verify,
    wqi_elementwise,
)
from leibnizlat.verify import AlgebraAnalysis

F2 = Field.prime(2)
F3 = Field.prime(3)
F5 = Field.prime(5)

SEED = 7


@pytest.fixture(scope="session")
def corpus():
    return catalog.corpus(SEED)


@pytest.fixture(scope="session")
def analyses(corpus):
    cache = {}
    for a in corpus:
        an = AlgebraAnalysis(a)
        an.lattice
        an.modular
        an.usm
        an.wqi_all
        cache[a.name] = an
    return cache


def _verdict(capsys, number, ok, detail):
    with capsys.disabled():
        print("criterion %02d: %s — %s" % (number, "PASS" if ok else "FAIL", detail))
    assert ok, detail


def test_criterion_01_enumeration_oracle(corpus, analyses, capsys):
    t0 = time.time()
    checked = 0
    mismatches = []
    for a in corpus:
        if a.field.p ** a.dim > 81:
            continue
        checked += 1
        lat = analyses[a.name].lattice
        expected = set()
        small = a.field.p ** a.dim <= 27
        for s in enumerate_subspaces(a.field, a.dim):
            vecs = list(s.vectors()) if small else [list(b) for b in s.basis]
            if all(s.contains(a.bracket(x, y)) for x in vecs for y in vecs):
                expected.add(s)
        if set(lat.nodes) != expected:
            mismatches.append(a.name)
    elapsed = time.time() - t0
    ok = not mismatches and elapsed < 10.0
    _verdict(
        capsys,
        1,
        ok,
        "subalgebra enumeration vs brute-force filter on %d algebras, %.1fs (mismatches: %s)"
        % (checked, elapsed, mismatches or "none"),
    )


def test_criterion_02_elementwise_wqi_equivalence(corpus, analyses, capsys):
    t0 = time.time()
    checked = 0
    sweep = 0
    violations = []
    for a in corpus:
        if a.field.p not in (2, 3):
            continue
        checked += 1
        if a.family == "exhaustive_dim2":
            sweep += 1
        elementwise = wqi_elementwise(a, enumerate_subalgebras(a))
        if elementwise.holds != analyses[a.name].wqi_all.holds:
            violations.append(a.name)
    elapsed = time.time() - t0
    ok = not violations and checked >= 60 and sweep == 13 and elapsed < 30.0
    _verdict(
        capsys,
        2,
        ok,
        "elementwise vs subalgebra-level WQI on %d F_2/F_3 algebras (%d from the dim-2 sweep), "
        "%.1fs (violations: %s)" % (checked, sweep, elapsed, violations or "none"),
    )


def _frattini_oracle(l):
    """Largest ideal inside every maximal subalgebra, by filtering all subspaces.

    Subalgebras and maximal subalgebras are found here by bracket tests on
    every subspace of L; frattini_ideal, largest_ideal_in and the lattice
    enumeration are not used. The ideals inside every maximal subalgebra are
    closed under sums, so the largest one is unique.
    """
    subspaces = list(enumerate_subspaces(l.field, l.dim))
    proper = [
        s
        for s in subspaces
        if s.dim < l.dim and all(s.contains(l.bracket(x, y)) for x in s.basis for y in s.basis)
    ]
    maximal = [m for m in proper if not any(m != t and m.leq(t) for t in proper)]
    return max(
        (s for s in subspaces if all(s.leq(m) for m in maximal) and l.is_ideal(s)),
        key=lambda s: s.dim,
    )


def _power_differences(f, n, lows):
    """span{a^i - a^(i+1) : i in lows}, with a^i the 0-based basis row i - 1."""
    gens = []
    for i in lows:
        v = [0] * n
        v[i - 1] = f.one()
        v[i] = f.neg(f.one())
        gens.append(tuple(v))
    return Subspace.span(f, n, gens)


def test_criterion_03_cyclic_frattini_closed_forms(capsys):
    failures = []
    for f in (F2, F3):
        for n in (2, 3, 4):
            l = catalog.cyclic_nilpotent(n, f)
            l2 = l.product_space(l.full_subspace(), l.full_subspace())
            if frattini_ideal(l) != l2:
                failures.append("%s: phi != L^2" % l.name)
            s = catalog.cyclic_solvable(n, f)
            chain = _power_differences(f, n, range(2, n))
            phi = frattini_ideal(s)
            if phi != chain:
                failures.append("%s: phi = %r, expected chain = %r" % (s.name, phi, chain))
            oracle = _frattini_oracle(s)
            if oracle != chain:
                failures.append(
                    "%s: brute-force oracle = %r, expected chain = %r" % (s.name, oracle, chain)
                )
            # The form once expected here, span{a^(i+1) - a^i : 1 <= i <= n-1},
            # is refuted. L^2 = span{a^2, ..., a^n} has codimension 1, so it is a
            # maximal subalgebra and phi <= L^2, but a^2 - a is not in L^2. Nor
            # is the span an ideal: [L, I] = 0 gives [a, a^2 - a] = -a^2, whose
            # coordinate sum is 1 while every vector of the span sums to 0.
            refuted = _power_differences(f, n, range(1, n))
            l2 = s.product_space(s.full_subspace(), s.full_subspace())
            lat = enumerate_subalgebras(s)
            if l2 not in [lat.nodes[i] for i in lat.coatoms()]:
                failures.append("%s: L^2 = %r is not a maximal subalgebra" % (s.name, l2))
            if refuted.leq(l2):
                failures.append("%s: refuted span %r lies in L^2" % (s.name, refuted))
            if s.is_ideal(refuted):
                failures.append("%s: refuted span %r is an ideal" % (s.name, refuted))
    detail = (
        "cyclic Frattini closed forms: phi = L^2 (nilpotent), "
        "phi = span{a^i - a^(i+1) : 2 <= i <= n-1} = brute-force oracle (solvable); "
        "the refuted span{a^(i+1) - a^i : 1 <= i <= n-1} is outside L^2 and not an ideal"
    )
    if failures:
        detail += ": " + "; ".join(failures)
    _verdict(capsys, 3, not failures, detail)


def test_criterion_04_solvable_equivalence(corpus, analyses, capsys):
    t0 = time.time()
    checked = 0
    violations = []
    for a in corpus:
        an = analyses[a.name]
        if not an.solvable:
            continue
        checked += 1
        verdicts = (an.modular.holds, an.usm.holds, an.wqi_all.holds)
        if len(set(verdicts)) != 1:
            violations.append((a.name, verdicts))
    elapsed = time.time() - t0
    ok = not violations and elapsed < 120.0
    _verdict(
        capsys,
        4,
        ok,
        "modular = upper semi-modular = all-WQI on %d solvable algebras, %.1fs (violations: %s)"
        % (checked, elapsed, violations or "none"),
    )


def test_criterion_05_structural_suite(corpus, analyses, capsys):
    ids = ["thm-abalab", "prop-usm2", "thm-alab", "thm-ideal", "cor-J-span", "lem-two", "lem-three"]
    fails = []
    applicable_abalab = 0
    for a in corpus:
        an = analyses[a.name]
        for cid in ids:
            r = verify.run_check(cid, a, an)
            if r.status == "fail":
                fails.append((a.name, cid, r.detail))
            if cid == "thm-abalab" and r.status == "pass":
                applicable_abalab += 1
    ok = not fails and applicable_abalab >= 10
    _verdict(
        capsys,
        5,
        ok,
        "seven structural checks, zero fails, %d algebras applicable to thm-abalab (fails: %s)"
        % (applicable_abalab, fails[:3] or "none"),
    )


def test_criterion_06_family_sufficiency(capsys):
    problems = []
    members = []
    for f in (F2, F3):
        for k in (2, 3):
            for m in (0, 1, 2):
                members.append((catalog.family_nonlie_ii(k, m, f), "almost_abelian_nonlie"))
    for f in (F3, F5):
        for k in (1, 2):
            for m in (1, 2):
                members.append((catalog.family_sqrt(k, m, f), "almost_abelian_lie"))
    for l, expected in members:
        an = AlgebraAnalysis(l)
        if not an.wqi_all.holds:
            problems.append("%s: not all-WQI" % l.name)
            continue
        tag = an.quotient_shape(an.frattini)
        if tag != expected:
            problems.append("%s: L/phi is %s" % (l.name, tag))
    _verdict(
        capsys,
        6,
        not problems,
        "all-WQI and L/phi classification on %d family members (problems: %s)"
        % (len(members), problems or "none"),
    )


def test_criterion_07_symmetric_modular(capsys):
    problems = []
    members = []
    for f in (F3, F5):
        for m in (1, 2):
            members.append(catalog.symmetric_iv(m, f))
        for z in (0, 1):
            members.append(catalog.extraspecial_plus_center(z, f))
    for l in members:
        an = AlgebraAnalysis(l)
        if not l.is_symmetric():
            problems.append("%s: not symmetric" % l.name)
        elif not an.modular.holds:
            problems.append("%s: not modular" % l.name)
    _verdict(
        capsys,
        7,
        not problems,
        "symmetric and modular on %d members (problems: %s)" % (len(members), problems or "none"),
    )


def test_criterion_08_negative_control(capsys):
    problems = []
    for f in (F2, F3):
        l = catalog.heisenberg_lie(f)
        first = AlgebraAnalysis(l)
        second = AlgebraAnalysis(catalog.heisenberg_lie(f))
        for label, v1, v2 in (
            ("modular", first.modular, second.modular),
            ("upper semi-modular", first.usm, second.usm),
            ("all-WQI", first.wqi_all, second.wqi_all),
        ):
            if v1.holds:
                problems.append("%s unexpectedly %s" % (l.name, label))
            if v1.witness is None or v1.witness != v2.witness:
                problems.append("%s: %s witness not deterministic" % (l.name, label))
    _verdict(
        capsys,
        8,
        not problems,
        "heisenberg fails all three conditions with reproducible witnesses (problems: %s)"
        % (problems or "none"),
    )


def _lattice_verdicts(l):
    an = AlgebraAnalysis(l)
    return (an.modular.holds, an.usm.holds, an.lsm.holds, an.wqi_all.holds)


def test_criterion_09_kernel_laws_and_invariance(corpus, capsys):
    problems = []
    for a in corpus:
        i = a.leibniz_kernel()
        if not a.quotient(i).algebra.is_lie():
            problems.append("%s: L/I not Lie" % a.name)
        if a.product_space(a.full_subspace(), i).dim != 0:
            problems.append("%s: [L, I] != 0" % a.name)
    rng = random.Random(SEED)
    bases = [a for a in corpus if a.family != "exhaustive_dim2" and "@" not in a.name]
    bases += [a for a in corpus if a.family == "exhaustive_dim2"]
    for base in bases:
        ref_dims = (
            base.leibniz_kernel().dim,
            base.square_zero_subalgebra().dim,
            base.center().dim,
        )
        nodes = len(AlgebraAnalysis(base).lattice.nodes)
        lattice_rounds = 50 if nodes <= 20 else (8 if nodes <= 64 else 2)
        ref_verdicts = _lattice_verdicts(base)
        for round_no in range(50):
            p = catalog.random_invertible(base.field, base.dim, rng)
            moved = base.change_of_basis(p)
            dims = (
                moved.leibniz_kernel().dim,
                moved.square_zero_subalgebra().dim,
                moved.center().dim,
            )
            if dims != ref_dims:
                problems.append("%s: dims I/J/Z changed under basis change" % base.name)
                break
            if round_no < lattice_rounds and _lattice_verdicts(moved) != ref_verdicts:
                problems.append("%s: lattice verdicts changed under basis change" % base.name)
                break
    _verdict(
        capsys,
        9,
        not problems,
        "kernel laws on %d algebras and basis-change invariance on %d base members (problems: %s)"
        % (len(corpus), len(bases), problems[:3] or "none"),
    )


def test_criterion_10_determinism(tmp_path, capsys):
    reports = []
    for tag in ("a", "b"):
        out = tmp_path / ("report_%s.json" % tag)
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "leibnizlat.cli",
                "verify",
                "--corpus",
                "--seed",
                str(SEED),
                "--json",
                str(out),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        reports.append(out.read_bytes())
    ok = reports[0] == reports[1] and len(reports[0]) > 0
    _verdict(
        capsys,
        10,
        ok,
        "two corpus verify runs with seed %d produce byte-identical JSON (%d bytes)"
        % (SEED, len(reports[0])),
    )
