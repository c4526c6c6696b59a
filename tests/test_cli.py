import hashlib
import json
import subprocess
import sys

import pytest

from leibnizlat import Field, algebra, catalog, emit_spec, lattice, verify
from leibnizlat.algebra import MAX_DIM
from leibnizlat.cli import EXIT_CHECK_FAILED, EXIT_INPUT_ERROR, EXIT_OK, main


@pytest.fixture
def spec_path(tmp_path):
    path = tmp_path / "cs3.json"
    path.write_text(emit_spec(catalog.cyclic_solvable(3, Field.prime(3))))
    return str(path)


def test_check(spec_path, capsys, monkeypatch):
    scans = []
    scan = algebra.left_leibniz_violation
    monkeypatch.setattr(algebra, "left_leibniz_violation", lambda *a: scans.append(a) or scan(*a))
    assert main(["check", spec_path]) == EXIT_OK
    out = capsys.readouterr().out
    assert "right_leibniz: true" in out
    assert "left_leibniz: false\nsymmetric: false\nlie: false\n" in out
    assert len(scans) == 1  # one left-identity scan prints both lines


def test_check_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert main(["check", str(bad)]) == EXIT_INPUT_ERROR
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "mangle,fragment",
    [
        (lambda d: d.update(dim=True), "'dim' must be a non-negative integer"),
        (lambda d: d["brackets"].append(list(d["brackets"][0])), "duplicate entry"),
        (
            lambda d: d.update(dim=MAX_DIM + 1),
            "'dim' is %d, above the limit %d" % (MAX_DIM + 1, MAX_DIM),
        ),
    ],
    ids=["dim-true", "duplicate", "dim-above-limit"],
)
def test_check_rejects_malformed_spec(spec_path, mangle, fragment, capsys):
    with open(spec_path) as fh:
        doc = json.load(fh)
    mangle(doc)
    with open(spec_path, "w") as fh:
        json.dump(doc, fh)
    assert main(["check", spec_path]) == EXIT_INPUT_ERROR
    assert fragment in capsys.readouterr().err


def test_check_accepts_dim_at_limit(tmp_path, capsys):
    path = tmp_path / "empty.json"
    doc = {"name": "empty", "field": {"type": "prime", "p": 2}, "dim": MAX_DIM, "brackets": []}
    path.write_text(json.dumps(doc))
    assert main(["check", str(path)]) == EXIT_OK
    assert "symmetric: true" in capsys.readouterr().out


def test_check_rejects_a_deeply_nested_spec(tmp_path, capsys):
    # the JSON decoder runs out of recursion depth, which is an input error, not a crash
    path = tmp_path / "nested.json"
    path.write_text("[" * 200000)
    assert main(["check", str(path)]) == EXIT_INPUT_ERROR
    assert capsys.readouterr().err.startswith("error: %s: invalid JSON: " % path)


@pytest.mark.parametrize("route", ["spec", "field-option"])
def test_a_huge_characteristic_is_refused_at_once(tmp_path, route):
    # 2^61 - 1 is prime: the range is checked before trial division, which would not
    # return, so the run ends in its own process well inside the timeout
    p = 2 ** 61 - 1
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(
        {"name": "huge", "field": {"type": "prime", "p": p}, "dim": 1, "brackets": []}))
    argv = (["check", str(path)] if route == "spec"
            else ["catalog", "emit", "abelian", "1", "--field", "p=%d" % p])
    proc = subprocess.run([sys.executable, "-m", "leibnizlat.cli"] + argv,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == EXIT_INPUT_ERROR, proc.stderr
    assert "prime fields are supported for 2 <= p <= 31, got %d\n" % p in proc.stderr
    assert proc.stdout == ""


def test_check_missing_file(capsys):
    assert main(["check", "/no/such/file.json"]) == EXIT_INPUT_ERROR


def test_check_rejects_a_spec_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe")
    assert main(["check", str(path)]) == EXIT_INPUT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read %s: 'utf-8' codec can't decode" % path), err


@pytest.mark.parametrize(
    "command",
    [
        ["lattice", "SPEC", "--dot"],
        ["lattice", "SPEC", "--json"],
        ["verify", "SPEC", "--checks", "lem-kernel", "--json"],
        ["catalog", "emit", "abelian", "2", "--out"],
    ],
    ids=["lattice-dot", "lattice-json", "verify-json", "catalog-out"],
)
def test_unwritable_output_path_is_an_input_error(spec_path, tmp_path, capsys, command):
    out = str(tmp_path / "no-such-dir" / "out")
    argv = [spec_path if a == "SPEC" else a for a in command] + [out]
    assert main(argv) == EXIT_INPUT_ERROR
    assert capsys.readouterr().err.startswith("error: cannot write %s: " % out)


@pytest.mark.parametrize(
    "command,message",
    [
        (["lattice", "SPEC", "--dot", ""], "cannot write "),
        (["lattice", "SPEC", "--json", ""], "cannot write "),
        (["verify", "SPEC", "--json", ""], "cannot write "),
        (["verify", "SPEC", "--checks", ""], "unknown check ids: ''"),
        (["catalog", "emit", "abelian", "2", "--out", ""], "cannot write "),
    ],
    ids=["lattice-dot", "lattice-json", "verify-json", "verify-checks", "catalog-out"],
)
def test_an_empty_option_value_is_an_input_error(spec_path, capsys, command, message):
    # an empty value is a value: an empty path names no file, and an empty list names the
    # empty check id, so none of these runs the work or writes to stdout
    assert main([spec_path if a == "SPEC" else a for a in command]) == EXIT_INPUT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: " + message) and "''" in captured.err


@pytest.mark.parametrize(
    "command,work",
    [
        (["lattice", "SPEC", "--dot", "OUT"], (lattice, "enumerate_subalgebras")),
        (["lattice", "SPEC", "--json", "OUT"], (lattice, "enumerate_subalgebras")),
        (["verify", "SPEC", "--json", "OUT"], (verify, "run_suite")),
        (["verify", "--corpus", "--seed", "7", "--json", "OUT"], (verify, "run_suite")),
    ],
    ids=["lattice-dot", "lattice-json", "verify-json", "verify-corpus-json"],
)
def test_unwritable_output_fails_before_the_work(
    spec_path, tmp_path, capsys, monkeypatch, command, work
):
    module, name = work
    calls = []
    monkeypatch.setattr(module, name, lambda *a, **k: calls.append(a))
    out = str(tmp_path / "no-such-dir" / "out")
    argv = [spec_path if a == "SPEC" else out if a == "OUT" else a for a in command]
    assert main(argv) == EXIT_INPUT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write %s: " % out)
    assert calls == []


@pytest.mark.parametrize(
    "command",
    [
        ["lattice", "SPEC", "--dot", "OUT"],
        ["lattice", "SPEC", "--json", "OUT"],
        ["lattice", "SPEC", "--dot", "OUT", "--json", "OUT2"],
        ["verify", "SPEC", "--json", "OUT"],
    ],
    ids=["lattice-dot", "lattice-json", "lattice-both", "verify-json"],
)
def test_a_failed_run_keeps_an_old_output_and_leaves_no_new_one(tmp_path, capsys, command):
    # a spec over Q has no subalgebra lattice, so the run fails after opening its outputs
    spec = tmp_path / "heisenberg-q.json"
    spec.write_text(emit_spec(catalog.heisenberg_lie(Field.rational())))
    for name in ("old", "fresh"):
        out, out2 = tmp_path / (name + ".out"), tmp_path / (name + ".out2")
        if name == "old":
            out.write_text("old bytes\n")
            out2.write_text("old bytes 2\n")
        subs = {"SPEC": str(spec), "OUT": str(out), "OUT2": str(out2)}
        assert main([subs.get(a, a) for a in command]) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.err == "error: subalgebra enumeration needs a finite prime field\n"
    assert (tmp_path / "old.out").read_text() == "old bytes\n"
    assert (tmp_path / "old.out2").read_text() == "old bytes 2\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "heisenberg-q.json", "old.out", "old.out2"
    ]


@pytest.mark.parametrize(
    "command",
    [
        ["lattice", "SPEC", "--dot", "OUT"],
        ["lattice", "SPEC", "--json", "OUT"],
        ["verify", "SPEC", "--checks", "lem-kernel", "--json", "OUT"],
    ],
    ids=["lattice-dot", "lattice-json", "verify-json"],
)
def test_a_run_replaces_a_longer_old_output(spec_path, tmp_path, capsys, command):
    fresh, old = tmp_path / "fresh.out", tmp_path / "old.out"
    old.write_text("x" * 10 ** 5)
    for out in (fresh, old):
        argv = [spec_path if a == "SPEC" else str(out) if a == "OUT" else a for a in command]
        assert main(argv) == EXIT_OK
    assert old.read_text() == fresh.read_text() != ""


def test_analyze(spec_path, capsys):
    assert main(["analyze", spec_path]) == EXIT_OK
    out = capsys.readouterr().out
    assert "is_solvable: True" in out
    assert "dim_frattini: 1" in out


_ANALYZE_SPECS = [
    ("cyclic_solvable", ["3"]),
    ("almost_abelian_lie", ["3"]),
    ("almost_abelian_nonlie", ["3"]),
    ("family_nonlie_ii", ["2", "1"]),
    ("family_sqrt", ["1", "1"]),
    ("symmetric_iv", ["1"]),
    ("extraspecial_plus_center", ["1"]),
    ("heisenberg_lie", []),
]


def test_analyze_output_is_pinned(tmp_path, capsys):
    # every emitted spec over F_2, F_3 and F_5 that the family builds (22 of 24)
    outputs = []
    for family, params in _ANALYZE_SPECS:
        for p in (2, 3, 5):
            path = tmp_path / ("%s_%d.json" % (family, p))
            emit = ["catalog", "emit", family, *params, "--field", "p=%d" % p, "--out", str(path)]
            if main(emit) != EXIT_OK:
                capsys.readouterr()
                continue
            assert main(["analyze", str(path)]) == EXIT_OK
            outputs.append(capsys.readouterr().out)
    assert len(outputs) == 22
    digest = hashlib.sha256("".join(outputs).encode()).hexdigest()
    assert digest == "59f75d66bf33b6901c6b7b59cccb11bdbc76e0ffb56f3aed6033e78c0fdffd9a"
    # the element-scan budget is met first: 3^3 vectors against 10
    over_budget = ["analyze", str(tmp_path / "cyclic_solvable_3.json"), "--budget", "10"]
    assert main(over_budget) == EXIT_INPUT_ERROR
    assert capsys.readouterr().err == "error: p^n = 27 exceeds budget 10\n"


def test_lattice_with_exports(spec_path, tmp_path, capsys, monkeypatch):
    scans = []
    for name in ("is_upper_semimodular", "is_lower_semimodular_lattice"):
        scan = getattr(lattice, name)
        monkeypatch.setattr(
            lattice, name, lambda lat, name=name, scan=scan: scans.append(name) or scan(lat)
        )
    dot = tmp_path / "lat.dot"
    js = tmp_path / "lat.json"
    assert main(["lattice", spec_path, "--dot", str(dot), "--json", str(js)]) == EXIT_OK
    # modularity is read off the two semimodularity verdicts, so each scan runs once
    assert sorted(scans) == ["is_lower_semimodular_lattice", "is_upper_semimodular"]
    out = capsys.readouterr().out
    assert "nodes: 8" in out
    assert "modular: true" in out
    assert dot.read_text().startswith("digraph")
    doc = json.loads(js.read_text())
    assert doc["modular"] is True
    assert doc["schema_version"] == 1


def test_verify_single_file(spec_path, capsys):
    assert main(["verify", spec_path, "--checks", "lem-kernel,rem-equiv"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "result: ok" in out


def test_verify_over_the_scan_budget_returns(tmp_path, capsys):
    # 3^13 vectors and its subspace count are over the default budgets: every check is n/a
    path = tmp_path / "ab13.json"
    path.write_text(emit_spec(catalog.abelian(13, Field.prime(3))))
    assert main(["verify", str(path)]) == EXIT_OK
    rows = capsys.readouterr().out.splitlines()[1:18]
    assert len(rows) == 17
    assert all(row.split()[1:] == ["0", "0", "1"] for row in rows), rows


def test_verify_unknown_check(spec_path):
    assert main(["verify", spec_path, "--checks", "nope"]) == EXIT_INPUT_ERROR


def test_verify_quotes_unknown_check_ids(spec_path, capsys):
    # a trailing comma names the empty id, which the message must show, not leave blank
    assert main(["verify", spec_path, "--checks", "lem-qi,,nope"]) == EXIT_INPUT_ERROR
    assert "unknown check ids: '', 'nope'" in capsys.readouterr().err


def test_verify_counts_a_repeated_check_once(tmp_path, capsys):
    path = tmp_path / "heisenberg.json"
    path.write_text(emit_spec(catalog.heisenberg_lie(Field.prime(3))))
    assert main(["verify", str(path), "--checks", "lem-qi,lem-kernel,lem-qi"]) == EXIT_OK
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:3]]
    assert rows == [["lem-kernel", "0", "0", "1"], ["lem-qi", "1", "0", "0"]]


def test_verify_needs_input():
    assert main(["verify"]) == EXIT_INPUT_ERROR


def test_catalog_list(capsys):
    assert main(["catalog", "list"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "cyclic_solvable <n>" in out
    assert "family_sqrt <k> <m>" in out


def test_catalog_emit_roundtrip(tmp_path, capsys):
    out_path = tmp_path / "emitted.json"
    rc = main(
        ["catalog", "emit", "family_sqrt", "2", "1", "--field", "p=5", "--out", str(out_path)]
    )
    assert rc == EXIT_OK
    doc = json.loads(out_path.read_text())
    assert doc["dim"] == 3
    assert doc["field"] == {"p": 5, "type": "prime"}


def test_catalog_emit_stdout(capsys):
    assert main(["catalog", "emit", "heisenberg_lie", "--field", "p=2"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["name"] == "heisenberg/F2"


@pytest.mark.parametrize(
    "params,message",
    [
        (["cyclic_solvable", "1"], "cyclic_solvable(1): solvable cyclic algebras need n >= 2"),
        (
            ["family_sqrt", "1", "1", "--field", "p=2"],
            "family_sqrt(1, 1): this family requires characteristic != 2",
        ),
    ],
    ids=["one-param", "two-params"],
)
def test_catalog_emit_build_error_names_the_call(capsys, params, message):
    assert main(["catalog", "emit"] + params) == EXIT_INPUT_ERROR
    assert capsys.readouterr().err == "error: cannot build %s\n" % message


def test_catalog_emit_errors(capsys):
    assert main(["catalog", "emit", "nope"]) == EXIT_INPUT_ERROR
    assert main(["catalog", "emit", "family_sqrt", "1", "1", "--field", "p=2"]) == EXIT_INPUT_ERROR
    assert main(["catalog", "emit", "abelian", "x"]) == EXIT_INPUT_ERROR
    assert main(["catalog", "emit", "abelian", "2", "--field", "p=9"]) == EXIT_INPUT_ERROR
    capsys.readouterr()
    # the dimension k + m of a two-parameter family is capped like a spec's dim
    assert main(["catalog", "emit", "family_nonlie_ii", "2", str(MAX_DIM - 1)]) == EXIT_INPUT_ERROR
    assert "dimension %d is above the limit %d" % (MAX_DIM + 1, MAX_DIM) in capsys.readouterr().err
    # refused before the family makes its entries, which would exhaust memory at this size
    assert main(["catalog", "emit", "cyclic_nilpotent", str(10 ** 12)]) == EXIT_INPUT_ERROR
    assert capsys.readouterr().err == (
        "error: cannot build cyclic_nilpotent(%d): dimension %d is above the limit %d\n"
        % (10 ** 12, 10 ** 12, MAX_DIM))


@pytest.mark.parametrize(
    "params,usage",
    [
        (["cyclic_solvable"], "cyclic_solvable <n>"),
        (["heisenberg_lie", "3"], "heisenberg_lie"),
        (["family_sqrt", "1"], "family_sqrt <k> <m>"),
    ],
)
def test_catalog_emit_checks_the_parameter_count(capsys, params, usage):
    assert main(["catalog", "emit"] + params) == EXIT_INPUT_ERROR
    assert capsys.readouterr().err == "error: wrong number of parameters; usage: %s\n" % usage


def test_verify_corpus_requires_work_but_is_deterministic(tmp_path):
    # tiny determinism probe at the CLI level: same seed, same bytes
    j1, j2 = tmp_path / "a.json", tmp_path / "b.json"
    args = ["verify", "--corpus", "--seed", "3", "--checks", "lem-kernel", "--json"]
    assert main(args + [str(j1)]) == EXIT_OK
    assert main(args + [str(j2)]) == EXIT_OK
    assert j1.read_bytes() == j2.read_bytes()
