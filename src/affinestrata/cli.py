"""Command-line interface.

All results are single JSON documents on stdout; diagnostics go to stderr as
JSON.  Exit codes: 0 success (or equivalent / all checks passed), 1 domain
negatives (not equivalent, undecided, failed checks, classification errors),
internal faults and a closed stdout, 2 usage or parse errors.  Rationals are
rendered as strings everywhere.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .exact import rational, rational_str
from .models import CATALOG, CatalogError, ModelParseError, parse_model, serialize_model
from .curvature import ricci, split_ricci
from .group_action import UndecidedError, isotropy_type_a, solve_equivalence_a, solve_equivalence_b
from .classify import CHECKS, classify_model, verify_theorems
from .strata import COEFF_FAMILIES


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage diagnostic like any input error, not argparse's usage text
        raise _UsageError(f"{self.prog}: {message}")


def _read_model(source: str):
    """Model input: inline JSON, '@path' for a file, or '-' for stdin."""
    if source == "-":
        if sys.stdin is None:  # the process was started with standard input closed
            raise _UsageError("cannot read standard input: it is closed")
        text = sys.stdin.read()
    elif source.startswith("@"):
        try:
            with open(source[1:], "r", encoding="utf-8") as handle:
                text = handle.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise _UsageError(f"cannot read {source[1:]}: {exc}") from exc
    else:
        text = source
    return parse_model(text)


def _emit(doc):
    json.dump(doc, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _diagnostic(kind: str, detail: str):
    json.dump({"error": kind, "detail": detail}, sys.stderr)
    sys.stderr.write("\n")


def _cmd_classify(args) -> int:
    report = classify_model(_read_model(args.model))
    _emit(report.to_dict())
    return 0 if not report.errors else 1


def _cmd_ricci(args) -> int:
    m = _read_model(args.model)
    r = ricci(m)
    split = split_ricci(r)
    _emit(
        {
            "model": serialize_model(m),
            "cleared": r.cleared,
            "ricci": r.to_strings(),
            "symmetric": split.symmetric.to_strings(),
            "alternating": rational_str(split.alt),
        }
    )
    return 0


def _cmd_equiv(args) -> int:
    m1 = _read_model(args.model1)
    m2 = _read_model(args.model2)
    if m1.kind != m2.kind:
        raise _UsageError("equivalence is defined between models of the same type")
    result = (solve_equivalence_a if m1.kind == "A" else solve_equivalence_b)(m1, m2)
    doc = {"model1": serialize_model(m1), "model2": serialize_model(m2)}
    doc.update(result.to_dict())
    _emit(doc)
    return 0 if result.is_equivalent else 1


def _cmd_isotropy(args) -> int:
    m = _read_model(args.model)
    if m.kind != "A":
        raise _UsageError("isotropy solving is only available for Type A models")
    try:
        group = isotropy_type_a(m)
    except UndecidedError as exc:
        _emit({"model": serialize_model(m), "status": "undecided", "reason": str(exc)})
        return 1
    doc = {"model": serialize_model(m), "status": "solved"}
    doc.update(group.to_dict())
    _emit(doc)
    return 0


def _cmd_param(args) -> int:
    try:
        params = [rational(p) for p in args.params]
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    entry = CATALOG.get(args.family) or COEFF_FAMILIES.get(args.family)
    if entry is None:
        raise _UsageError(f"unknown family or catalog id {args.family!r}")
    _emit(serialize_model(entry.model(params)))
    return 0


def _cmd_catalog(_args) -> int:
    _emit(
        {
            "catalog": [entry.describe() for entry in CATALOG.values()],
            "parametrizations": [entry.describe() for entry in COEFF_FAMILIES.values()],
        }
    )
    return 0


def _cmd_verify(args) -> int:
    checks = args.check if args.check else None
    if args.samples < 1:
        raise _UsageError("--samples must be at least 1")
    unknown = [c for c in checks or () if c not in CHECKS]
    if unknown:
        raise _UsageError(f"unknown check ids: {unknown}; known: {', '.join(CHECKS)}")
    report = verify_theorems(seed=args.seed, samples=args.samples, checks=checks)
    _emit(report.to_dict())
    return 0 if report.all_passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="affinestrata",
        description="Exact classification of locally homogeneous affine surface models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="full stratum report for one model")
    p.add_argument("model", help="inline JSON, @file, or - for stdin")
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("ricci", help="Ricci matrix and its split for one model")
    p.add_argument("model")
    p.set_defaults(fn=_cmd_ricci)

    p = sub.add_parser("equiv", help="decide linear equivalence of two models")
    p.add_argument("model1")
    p.add_argument("model2")
    p.set_defaults(fn=_cmd_equiv)

    p = sub.add_parser("isotropy", help="isotropy group of a Type A model")
    p.add_argument("model")
    p.set_defaults(fn=_cmd_isotropy)

    p = sub.add_parser("param", help="build a model from a catalog id or parametrized family")
    p.add_argument("family")
    p.add_argument("params", nargs="*")
    p.set_defaults(fn=_cmd_param)

    p = sub.add_parser("catalog", help="list catalog entries and parametrizations")
    p.set_defaults(fn=_cmd_catalog)

    p = sub.add_parser("verify", help="run the seeded verification suite")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--check", action="append", help="restrict to one check id (repeatable)")
    p.set_defaults(fn=_cmd_verify)
    return parser


def run_cli(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    # keep argparse from reading negative rationals like -1/2 as options
    if argv[:1] == ["param"] and "--" not in argv and len(argv) >= 2:
        argv = argv[:2] + ["--"] + argv[2:]
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except SystemExit as exc:  # --help, after printing the help to stdout
        return 2 if exc.code not in (0, None) else 0
    except (ModelParseError, CatalogError, _UsageError) as exc:
        _diagnostic("usage", str(exc))
        return 2
    except (ValueError, ZeroDivisionError) as exc:
        _diagnostic("domain", str(exc))
        return 1
    except (AssertionError, OverflowError) as exc:
        # a failed exact self-check, or an overflow no solver is meant to
        # raise: a fault of the engine, reported without a traceback
        _diagnostic("internal", f"{type(exc).__name__}: {exc}")
        return 1


def main() -> None:
    try:
        code = run_cli()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: send what is still buffered to devnull,
        # so the flush at interpreter exit raises nothing either
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
