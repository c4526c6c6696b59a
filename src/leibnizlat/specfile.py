"""Algebra spec files (JSON), DOT export of Hasse diagrams, JSON reports.

Spec schema:
    {"name": str,
     "field": {"type": "prime", "p": int} | {"type": "rational"},
     "dim": int,
     "brackets": [[i, j, k, "value"], ...]}
Indices are 0-based; omitted tensor entries are zero; values are decimal
integers (prime case) or "num/den" strings (rational case).
"""

from __future__ import annotations

import json

from .linalg import Field
from .algebra import MAX_DIM, AlgebraError, LeibnizAlgebra
from .lattice import SubalgebraLattice, _bits

SCHEMA_VERSION = 1


class SpecError(ValueError):
    """Malformed algebra spec file."""


def parse_spec(text: str) -> LeibnizAlgebra:
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # deep nesting overflows the decoder
        raise SpecError("invalid JSON: %s" % exc) from None
    if not isinstance(doc, dict):
        raise SpecError("top level must be an object")
    for key in ("name", "field", "dim", "brackets"):
        if key not in doc:
            raise SpecError("missing key %r" % key)
    name = doc["name"]
    if not isinstance(name, str):
        raise SpecError("'name' must be a string")
    f = _parse_field(doc["field"])
    dim = doc["dim"]
    if not _is_int(dim) or dim < 0:
        raise SpecError("'dim' must be a non-negative integer")
    if dim > MAX_DIM:
        raise SpecError("'dim' is %d, above the limit %d" % (dim, MAX_DIM))
    brackets = doc["brackets"]
    if not isinstance(brackets, list):
        raise SpecError("'brackets' must be a list")
    table = [[[f.zero()] * dim for _ in range(dim)] for _ in range(dim)]
    seen = {}
    for pos, entry in enumerate(brackets):
        if (
            not isinstance(entry, list)
            or len(entry) != 4
            or not all(_is_int(x) for x in entry[:3])
            or not isinstance(entry[3], str)
        ):
            raise SpecError("brackets[%d] must be [i, j, k, \"value\"]" % pos)
        i, j, k, value = entry
        if not all(0 <= x < dim for x in (i, j, k)):
            raise SpecError("brackets[%d]: index out of range for dim %d" % (pos, dim))
        try:
            table[i][j][k] = f.parse_scalar(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise SpecError("brackets[%d]: bad scalar %r (%s)" % (pos, value, exc)) from None
        if (i, j, k) in seen:
            raise SpecError(
                "brackets[%d]: duplicate entry [%d, %d, %d], first given at brackets[%d]"
                % (pos, i, j, k, seen[i, j, k])
            )
        seen[i, j, k] = pos
    try:
        return LeibnizAlgebra(name=name, field=f, dim=dim, table=table)
    except AlgebraError as exc:
        raise SpecError(str(exc)) from None


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)  # JSON true/false are not integers


def _parse_field(doc) -> Field:
    if not isinstance(doc, dict) or "type" not in doc:
        raise SpecError("'field' must be an object with a 'type'")
    if doc["type"] == "rational":
        return Field.rational()
    if doc["type"] == "prime":
        if "p" not in doc or not _is_int(doc["p"]):
            raise SpecError("prime field needs an integer 'p'")
        try:
            return Field.prime(doc["p"])
        except ValueError as exc:
            raise SpecError(str(exc)) from None
    raise SpecError("unknown field type %r" % doc["type"])


def emit_spec(l: LeibnizAlgebra) -> str:
    f = l.field
    brackets = []
    for i in range(l.dim):
        for j in range(l.dim):
            for k in range(l.dim):
                v = l.table[i][j][k]
                if v:
                    brackets.append([i, j, k, f.format_scalar(v)])
    field_doc = {"type": "prime", "p": f.p} if f.is_prime_field else {"type": "rational"}
    doc = {"name": l.name, "field": field_doc, "dim": l.dim, "brackets": brackets}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def export_dot(lat: SubalgebraLattice) -> str:
    """DOT digraph of the covering relation, bottom-up."""
    lines = ["digraph subalgebras {", "  rankdir=BT;"]
    for i, node in enumerate(lat.nodes):
        basis = [[lat.algebra.field.format_scalar(x) for x in row] for row in node.basis]
        label = "%d:%s" % (node.dim, json.dumps(basis, separators=(",", ":")))
        lines.append('  n%d [label="%s"];' % (i, label.replace('"', "'")))
    for i in range(len(lat.nodes)):
        for j in _bits(lat.covers_up[i]):
            lines.append("  n%d -> n%d;" % (i, j))
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_json_report(report: dict) -> str:
    doc = dict(report)
    doc["schema_version"] = SCHEMA_VERSION
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
