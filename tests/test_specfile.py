import json

import pytest

from leibnizlat import (
    Field,
    SpecError,
    catalog,
    emit_spec,
    enumerate_subalgebras,
    export_dot,
    export_json_report,
    parse_spec,
)

F2 = Field.prime(2)
F3 = Field.prime(3)


def test_roundtrip_families():
    for l in (
        catalog.cyclic_solvable(3, F3),
        catalog.heisenberg_lie(F2),
        catalog.symmetric_iv(1, Field.prime(5)),
        catalog.abelian(2, Field.rational()),
    ):
        text = emit_spec(l)
        back = parse_spec(text)
        assert back.name == l.name
        assert back.field == l.field
        assert back.table == l.table


def test_emit_deterministic():
    l = catalog.family_sqrt(2, 1, F3)
    assert emit_spec(l) == emit_spec(l)


def test_parse_rational_scalars():
    doc = {
        "name": "ratl",
        "field": {"type": "rational"},
        "dim": 2,
        "brackets": [[0, 0, 1, "1/2"]],
    }
    l = parse_spec(json.dumps(doc))
    assert str(l.table[0][0][1]) == "1/2"


@pytest.mark.parametrize(
    "mangle,fragment",
    [
        (lambda d: d.pop("dim"), "missing key 'dim'"),
        (lambda d: d.update(dim=-1), "'dim' must be"),
        (lambda d: d.update(field={"type": "prime"}), "integer 'p'"),
        (lambda d: d.update(field={"type": "prime", "p": 6}), ""),
        (lambda d: d["brackets"].append([0, 0, 7, "1"]), "out of range"),
        (lambda d: d["brackets"].append([0, 0, "1"]), "brackets[1]"),
        (lambda d: d["brackets"].append([0, 0, 1, "x"]), "bad scalar"),
    ],
)
def test_parse_errors(mangle, fragment):
    doc = {
        "name": "t",
        "field": {"type": "prime", "p": 3},
        "dim": 2,
        "brackets": [[0, 0, 1, "1"]],
    }
    mangle(doc)
    with pytest.raises(SpecError) as exc:
        parse_spec(json.dumps(doc))
    assert fragment in str(exc.value)


@pytest.mark.parametrize(
    "mangle,fragment",
    [
        (lambda d: d.update(dim=True), "'dim' must be"),
        (lambda d: d.update(field={"type": "prime", "p": True}), "integer 'p'"),
        (lambda d: d["brackets"].append([True, 0, 1, "1"]), "brackets[1] must be"),
        (lambda d: d["brackets"].append([0, 1, False, "1"]), "brackets[1] must be"),
        (
            lambda d: d["brackets"].append([0, 0, 1, "2"]),
            "brackets[1]: duplicate entry [0, 0, 1], first given at brackets[0]",
        ),
    ],
    ids=["dim-true", "p-true", "index-true", "index-false", "duplicate"],
)
def test_parse_rejects_booleans_and_duplicates(mangle, fragment):
    doc = {
        "name": "t",
        "field": {"type": "prime", "p": 3},
        "dim": 2,
        "brackets": [[0, 0, 1, "1"]],
    }
    mangle(doc)
    with pytest.raises(SpecError) as exc:
        parse_spec(json.dumps(doc))
    assert fragment in str(exc.value)


def test_parse_invalid_json():
    with pytest.raises(SpecError):
        parse_spec("{not json")


def test_parse_rejects_leibniz_violation():
    doc = {
        "name": "bad",
        "field": {"type": "prime", "p": 3},
        "dim": 1,
        "brackets": [[0, 0, 0, "1"]],
    }
    with pytest.raises(SpecError) as exc:
        parse_spec(json.dumps(doc))
    assert "(0, 0, 0)" in str(exc.value)


def test_export_dot_abelian2():
    lat = enumerate_subalgebras(catalog.abelian(2, F2))
    dot = export_dot(lat)
    assert dot.startswith("digraph")
    assert dot.count(" -> ") == 6  # 3 atoms up, 3 atoms down in the diamond
    assert dot.count("[label=") == 5


def test_export_dot_heisenberg_edges():
    lat = enumerate_subalgebras(catalog.heisenberg_lie(F2))
    dot = export_dot(lat)
    # edge count equals the number of covering pairs
    covers = sum(bin(c).count("1") for c in lat.covers_up)
    assert dot.count(" -> ") == covers


def test_export_json_report():
    text = export_json_report({"alpha": 1})
    doc = json.loads(text)
    assert doc == {"alpha": 1, "schema_version": 1}
    assert text == export_json_report({"alpha": 1})
