"""Command-line surface.

Commands::

    evenpairs analyze INPUT           precondition report (exit 1 on failure)
    evenpairs even-pair INPUT         structured even-pair search
    evenpairs contract-color INPUT    contraction sequence and coloring
    evenpairs decompose INPUT         2-join split and blocks
    evenpairs classify INPUT          basic-class certificate
    evenpairs verify --nmax N --scope graphs|trigraphs_in_F

INPUT is a file path or an inline literal, in graph6 or the trigraph text
format (sniffed, or forced with --format).  All commands print one ASCII
JSON document with sorted keys and a two-space indent, byte for byte what
``json.dumps(..., sort_keys=True, indent=2)`` writes; --emit-cert writes
the involved witnesses as compact sorted-key JSON lines.  Exit codes:
0 success, 1 precondition failure, 2 input error (an unreadable input or
unwritable certificate path included), 3 a TheoremContradictionError,
which every internal cross-check raises.  A reader that closes stdout
early does not change the exit code.

Worker count for ``verify`` comes from the EVENPAIRS_WORKERS variable, an
integer >= 1 (default 1; any other value is an input error).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from json.encoder import encode_basestring_ascii

from . import certs
from .basic import classify_basic
from .contraction import derive_coloring, run_contraction_sequence
from .decomposition import build_block, find_2join, find_complement_2join
from .engine import check_preconditions, find_even_pair_structured, verify_main_theorem
from .errors import InputError, NonBergeError, TheoremContradictionError
from .formats import load
from .trigraph import switchable_vertices

EXIT_OK = 0
EXIT_PRECONDITION = 1
EXIT_INPUT = 2
EXIT_CONTRADICTION = 3


# scalar writers by exact type; any other scalar (a float, a subclass)
# goes through json.dumps
_SCALARS = {str: encode_basestring_ascii, int: int.__repr__,
            bool: lambda b: "true" if b else "false", type(None): lambda _: "null"}


def _dumps(obj, newline: str = "\n") -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)`` for the data that
    ``certs.to_jsonable`` returns (string keys), written directly: with an
    indent, CPython runs its pure-Python encoder.  ``newline`` is the line
    break and indent before a closing bracket at this depth.  Scalar items
    are written in place, so only containers recurse."""
    scalar = _SCALARS.get(type(obj))
    if scalar is not None:
        return scalar(obj)
    inner = newline + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = []
        for x in obj:
            scalar = _SCALARS.get(type(x))
            items.append(scalar(x) if scalar is not None else _dumps(x, inner))
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for k in sorted(obj):
            x = obj[k]
            scalar = _SCALARS.get(type(x))
            items.append(encode_basestring_ascii(k) + ": "
                         + (scalar(x) if scalar is not None else _dumps(x, inner)))
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    return json.dumps(obj)


def _emit(document: dict, cert_objects: list, cert_path: str | None) -> None:
    # certificates first, so an unwritable path prints no document
    if cert_path:
        with open(cert_path, "w", encoding="ascii") as fh:
            for obj in cert_objects:
                if obj is not None:
                    fh.write(json.dumps(certs.to_jsonable(obj), sort_keys=True) + "\n")
    try:
        print(_dumps(certs.to_jsonable(document)), flush=True)
    except BrokenPipeError:
        # the reader is gone, which is no input error: the command keeps its
        # exit code, and stdout points at devnull so the exit flush is quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _cmd_analyze(args) -> int:
    T = load(args.input, args.format)
    report = check_preconditions(T)
    witnesses = [c.witness for c in report.checks if not c.passed]
    _emit({"command": "analyze", "report": report}, witnesses, args.emit_cert)
    return EXIT_OK if report.ok else EXIT_PRECONDITION


def _cmd_even_pair(args) -> int:
    T = load(args.input, args.format)
    result = find_even_pair_structured(T)
    if result.outcome == "even_pair" and args.need_disjoint:
        if switchable_vertices(T) & set(result.pair):
            _emit({"command": "even-pair", "result": result,
                   "error": "no even pair disjoint from the switchable component"},
                  [], args.emit_cert)
            return EXIT_PRECONDITION
    _emit({"command": "even-pair", "result": result}, [result], args.emit_cert)
    return EXIT_OK if result.outcome != "precondition_failed" else EXIT_PRECONDITION


def _cmd_contract_color(args) -> int:
    seq = run_contraction_sequence(load(args.input, args.format))
    coloring = derive_coloring(seq) if seq.outcome == "complete" else None
    _emit({"command": "contract-color", "sequence": seq, "coloring": coloring},
          [seq, coloring], args.emit_cert)
    return EXIT_OK


def _cmd_decompose(args) -> int:
    T = load(args.input, args.format)
    split = find_2join(T)
    blocks = None
    if split is not None and split.proper and split.parity is not None:
        blocks = [build_block(T, split, 1), build_block(T, split, 2)]
    co_split = find_complement_2join(T)
    _emit({"command": "decompose", "two_join": split, "blocks": blocks,
           "complement_two_join": co_split},
          [split, co_split] + (blocks or []), args.emit_cert)
    return EXIT_OK


def _cmd_classify(args) -> int:
    T = load(args.input, args.format)
    classification = classify_basic(T)
    _emit({"command": "classify", "classification": classification},
          [classification], args.emit_cert)
    return EXIT_OK


def _cmd_verify(args) -> int:
    summary = verify_main_theorem(args.nmax, args.scope, sample=args.sample,
                                  seed=args.seed, log_path=args.emit_cert)
    _emit({"command": "verify", "summary": summary}, [], None)
    return EXIT_OK if summary.ok else EXIT_CONTRADICTION


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and then reused."""
    parser = argparse.ArgumentParser(
        prog="evenpairs",
        description="Even pairs and decompositions of Berge graphs, "
                    "with checkable certificates.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(p):
        p.add_argument("input", help="file path or inline graph6/trigraph literal")
        p.add_argument("--format", choices=["graph6", "trigraph"], default=None)
        p.add_argument("--emit-cert", metavar="PATH", default=None,
                       help="write witness certificates as JSON lines")

    p = sub.add_parser("analyze", help="run the precondition checks")
    add_input(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("even-pair", help="structured even-pair search")
    add_input(p)
    p.add_argument("--need-disjoint", action="store_true",
                   help="fail unless the pair avoids the switchable component")
    p.set_defaults(func=_cmd_even_pair)

    p = sub.add_parser("contract-color", help="contraction sequence and coloring")
    add_input(p)
    p.set_defaults(func=_cmd_contract_color)

    p = sub.add_parser("decompose", help="2-join split and blocks")
    add_input(p)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("classify", help="basic-class recognition")
    add_input(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("verify", help="exhaustive theorem harness")
    p.add_argument("--nmax", type=int, required=True,
                   help="largest order: 1..9, or 10 with --sample")
    p.add_argument("--scope", choices=["graphs", "trigraphs_in_F"],
                   default="graphs")
    p.add_argument("--sample", type=int, default=None,
                   help="sample this many isomorphism classes at n = nmax")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--emit-cert", metavar="PATH", default=None,
                   help="write the per-instance JSON-lines log")
    p.set_defaults(func=_cmd_verify)
    parser.commands = sub.choices  # each command's own parser, by name
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser()
    # a known command goes straight to its own parser, where the full parser
    # would send it; anything else gets the full parser and its messages
    command = parser.commands.get(argv[0]) if argv else None
    if command is not None:
        args, extra = command.parse_known_args(argv[1:])
    if command is None or extra:
        args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NonBergeError as exc:
        print(json.dumps({"precondition_failure": str(exc)}), file=sys.stderr)
        return EXIT_PRECONDITION
    except (InputError, OSError, UnicodeDecodeError) as exc:
        # OSError and UnicodeDecodeError: an input or certificate path that
        # cannot be read or written, or input that is not ASCII text
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return EXIT_INPUT
    except TheoremContradictionError as exc:
        print(json.dumps({"theorem_contradiction": str(exc)}), file=sys.stderr)
        return EXIT_CONTRADICTION


if __name__ == "__main__":
    sys.exit(main())
