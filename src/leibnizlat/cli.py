"""Command-line front end.

Exit codes: 0 success, 1 property-check failure (e.g. a failing verify
check), 2 input error.  All randomness flows from --seed; given identical
inputs and seeds, outputs are byte-identical across runs.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from typing import Optional, Sequence

from .linalg import BudgetExceeded, Field, LinalgError
from .algebra import AlgebraError, LeibnizAlgebra, check_left_leibniz
from . import catalog, lattice as lat_mod, verify as verify_mod
from .specfile import SpecError, emit_spec, export_dot, export_json_report, parse_spec

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2


class CliError(Exception):
    pass


def _parse_field(spec: str) -> Field:
    if spec in ("q", "Q", "rational"):
        return Field.rational()
    if spec.startswith("p="):
        try:
            return Field.prime(int(spec[2:]))
        except (ValueError, LinalgError) as exc:
            raise CliError("bad field %r: %s" % (spec, exc)) from None
    raise CliError("field must be 'p=<prime>' or 'rational', got %r" % spec)


def _load(path: str) -> LeibnizAlgebra:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError("cannot read %s: %s" % (path, exc)) from None
    try:
        return parse_spec(text)
    except SpecError as exc:
        raise CliError("%s: %s" % (path, exc)) from None


@contextlib.contextmanager
def _open_out(path: Optional[str]):
    """Open an output file before the work, so a bad path fails at once; no path, no file.
    Append mode truncates nothing, so a failed run leaves an old file and removes a new one."""
    created = path is not None and not os.path.lexists(path)
    try:
        fh = open(path, "a") if path is not None else contextlib.nullcontext()
    except OSError as exc:
        raise CliError("cannot write %s: %s" % (path, exc)) from None
    with fh as out, contextlib.ExitStack() as on_failure:
        if created:
            on_failure.callback(os.remove, path)
        yield out
        on_failure.pop_all()


def _write(fh, text: str) -> None:
    try:
        if fh is not sys.stdout and fh.seekable() and fh.tell():
            fh.truncate(0)  # an output file opens for append, after its earlier bytes
        fh.write(text)
        fh.flush()
    except OSError as exc:
        raise CliError("cannot write %s: %s" % (fh.name, exc)) from None


def _cmd_check(args) -> int:
    l = _load(args.file)
    print("name: %s" % l.name)
    print("right_leibniz: true")  # construction would have failed otherwise
    # a right Leibniz algebra is symmetric exactly when the left identity holds too
    left = str(check_left_leibniz(l.field, l.table)).lower()
    print("left_leibniz: %s" % left)
    print("symmetric: %s" % left)
    print("lie: %s" % str(l.is_lie()).lower())
    return EXIT_OK


def _cmd_analyze(args) -> int:
    l = _load(args.file)
    report = lat_mod.build_structure_report(l, budget=args.budget)
    for key, value in report.to_dict().items():
        print("%s: %s" % (key, value))
    return EXIT_OK


def _cmd_lattice(args) -> int:
    l = _load(args.file)
    with _open_out(args.dot) as dot, _open_out(args.json) as js:
        # the verify cache decides modularity from the usm and lsm verdicts it keeps
        an = verify_mod.AlgebraAnalysis(l)
        stats = lat_mod.lattice_stats(an.lattice)
        for key, value in stats.items():
            print("%s: %d" % (key, value))
        verdicts = {
            "modular": an.modular.holds,
            "upper_semimodular": an.usm.holds,
            "lower_semimodular": an.lsm.holds,
            "all_wqi": an.wqi_all.holds,
        }
        for key, holds in verdicts.items():
            print("%s: %s" % (key, str(holds).lower()))
        print("frattini_dim: %d" % an.frattini.dim)
        if dot:
            _write(dot, export_dot(an.lattice))
        if js:
            _write(js, export_json_report({"algebra": l.name, "stats": stats, **verdicts}))
    return EXIT_OK


def _cmd_verify(args) -> int:
    if args.corpus:
        algebras = catalog.corpus(args.seed)
    elif args.file:
        algebras = [_load(args.file)]
    else:
        raise CliError("verify needs a file or --corpus")
    ids = args.checks.split(",") if args.checks is not None else None
    unknown = [i for i in ids or () if i not in verify_mod.CHECKS]
    if unknown:
        raise CliError("unknown check ids: %s" % ", ".join(map(repr, unknown)))
    with _open_out(args.json) as js:
        summary = verify_mod.run_suite(algebras, ids)
        summary["seed"] = args.seed if args.corpus else None
        if js:
            _write(js, export_json_report(summary))
    print("%-16s %6s %6s %6s" % ("check", "pass", "fail", "n/a"))
    for cid in sorted(summary["checks"]):
        entry = summary["checks"][cid]
        print(
            "%-16s %6d %6d %6d"
            % (cid, entry["pass"], entry["fail"], entry["not_applicable"])
        )
    for note in summary["notes"]:
        print("note: %s" % note)
    print("result: %s" % ("ok" if summary["ok"] else "FAILED"))
    return EXIT_OK if summary["ok"] else EXIT_CHECK_FAILED


def _cmd_catalog(args) -> int:
    if args.action == "list":
        for name, (_, usage) in sorted(catalog.FAMILIES.items()):
            print(usage)
        return EXIT_OK
    # emit
    if not args.family:
        raise CliError("catalog emit needs a family name")
    if args.family not in catalog.FAMILIES:
        raise CliError("unknown family %r (try 'catalog list')" % args.family)
    builder, usage = catalog.FAMILIES[args.family]
    f = _parse_field(args.field)
    try:
        params = [int(x) for x in args.params]
    except ValueError:
        raise CliError("family parameters must be integers") from None
    if len(params) != usage.count("<"):  # one <...> slot per parameter
        raise CliError("wrong number of parameters; usage: %s" % usage)
    try:
        l = builder(*params, f)
    except AlgebraError as exc:
        call = "%s(%s)" % (args.family, ", ".join(map(str, params)))
        raise CliError("cannot build %s: %s" % (call, exc)) from None
    with _open_out(args.out) as out:
        _write(out or sys.stdout, emit_spec(l))
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leibnizlat",
        description="Exact computations on finite-dimensional Leibniz algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate a spec file and print identity verdicts")
    p.add_argument("file")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("analyze", help="print the structure report")
    p.add_argument("file")
    p.add_argument("--budget", type=int, default=10 ** 6)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("lattice", help="build the subalgebra lattice and print verdicts")
    p.add_argument("file")
    p.add_argument("--dot", metavar="PATH")
    p.add_argument("--json", metavar="PATH")
    p.set_defaults(func=_cmd_lattice)

    p = sub.add_parser("verify", help="run theorem checks on a file or the corpus")
    p.add_argument("file", nargs="?")
    p.add_argument("--corpus", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--checks", metavar="ID,ID,...")
    p.add_argument("--json", metavar="PATH")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("catalog", help="list families or emit a spec file")
    p.add_argument("action", choices=["list", "emit"])
    p.add_argument("family", nargs="?")
    p.add_argument("params", nargs="*")
    p.add_argument("--field", default="p=3")
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(func=_cmd_catalog)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, BudgetExceeded, AlgebraError, LinalgError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
