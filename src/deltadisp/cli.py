"""Command-line front end for the dispersion solver suite.

Exit codes: 0 success/accept, 1 reject or infeasible, 2 usage or input
error, 3 resource guard tripped (the oracle's candidate cap or timeout, or
the one size limit: of the grid at numerators 1 and 2, of the tree route's
answer, of ``subdivide`` and of ``gadget``; a timeout names the verified
lower bound the oracle had found), 4 internal error (a structural guarantee
failed; a bug, not bad input).
"""

from __future__ import annotations

import argparse
import re
import sys
from fractions import Fraction
from functools import cache
from pathlib import Path
from typing import Callable, TypeVar

from .certify import Verdict, format_witness, parse_certificate, verify_certificate
from .core import format_graph, parse_graph, subdivide
from .dispatch import disp
from .errors import (
    InternalConsistencyError,
    NPHardRegimeError,
    OracleTimeoutError,
    SizeGuardExceededError,
)
from .gadget import build_gadget, format_gadget_map, predicted_bound
from .oracle import DEFAULT_CANDIDATE_CAP, brute_disp

_DELTA_RE = re.compile(r"^([0-9]+)(?:/([0-9]+))?$")
_T = TypeVar("_T")


def _parse_delta(text: str) -> Fraction:
    match = _DELTA_RE.match(text.strip())
    if not match:
        raise argparse.ArgumentTypeError(
            f"delta must be a positive integer or fraction 'a/b', got {text!r}"
        )
    num = int(match.group(1))
    den = int(match.group(2)) if match.group(2) else 1
    if num == 0 or den == 0:
        raise argparse.ArgumentTypeError("delta must be positive")
    return Fraction(num, den)


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each command's own parser, by command name.

    Each command's parser sets ``command`` to its name, so it parses a
    command's arguments on its own.
    """
    parser = argparse.ArgumentParser(
        prog="deltadisp",
        description="Exact dispersion numbers for unit-edge graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # each shared option defined once; a parser takes those of its parents
    graph = argparse.ArgumentParser(add_help=False)
    graph.add_argument("graph", type=Path)
    spacing = argparse.ArgumentParser(add_help=False, parents=[graph])
    spacing.add_argument("--delta", type=_parse_delta, required=True)
    search = argparse.ArgumentParser(add_help=False, parents=[spacing])
    search.add_argument("--witness", type=Path, help="write the witness to this file")
    search.add_argument(
        "--cap", type=int, default=DEFAULT_CANDIDATE_CAP, help="candidate cap of the oracle"
    )
    search.add_argument(
        "--timeout", type=float, default=None, help="time budget in seconds of the oracle"
    )

    solve = sub.add_parser(
        "solve", parents=[search], help="dispersion number via the best exact algorithm"
    )
    solve.add_argument(
        "--brute-force",
        action="store_true",
        help="allow the exponential oracle for numerators >= 3 on non-trees; "
        "--cap and --timeout apply to it alone, and trees ignore them",
    )
    sub.add_parser("oracle", parents=[search], help="brute-force value and witness")
    verify = sub.add_parser("verify", parents=[spacing], help="check a certificate file")
    verify.add_argument("--certificate", type=Path, required=True)
    gadget = sub.add_parser(
        "gadget", parents=[spacing], help="emit a hard instance from a cubic graph"
    )
    gadget.add_argument("--out", default="gadget", help="output file prefix")
    subdiv = sub.add_parser("subdivide", parents=[graph], help="emit the c-subdivision of a graph")
    subdiv.add_argument("--factor", type=int, required=True)

    for name, command in sub.choices.items():
        command.set_defaults(command=name)
    return parser, sub.choices


def _write(*outputs: tuple[Path, str]) -> None:
    """Write ``(path, text)`` output files, all or none.

    When a write fails, the files this call has already written are
    removed, so a failure leaves no partial output set behind.  A failure
    is a ValueError naming the path, so it is reported as one ``error:``
    line with exit code 2.
    """
    written: list[Path] = []
    for path, text in outputs:
        try:
            path.write_text(text)
        except OSError as exc:
            for done in written:
                done.unlink(missing_ok=True)
            raise ValueError(f"{path}: {exc.strerror or exc}") from None
        written.append(path)


def _read(path: Path, parse: Callable[[str], _T]) -> _T:
    """`parse` applied to the text of the input file at `path`.

    A failed read, and a ValueError while parsing (a format or decoding
    error, or an id the graph lacks), is a ValueError naming the path,
    worded as :func:`_write` words a failed write.
    """
    try:
        return parse(path.read_text())
    except OSError as exc:
        raise ValueError(f"{path}: {exc.strerror or exc}") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


#: one set of parsers per process: building them costs more than most commands
_shared_parsers = cache(build_parser)


def _parse(argv: list[str]) -> argparse.Namespace:
    """`argv` parsed once, by the named command's own parser.

    Only an empty `argv`, a leading option such as ``--help`` or an
    unknown command goes through the top-level parser, whose subcommand
    action would otherwise parse every argument a second time.
    """
    parser, commands = _shared_parsers()
    command = commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    return command.parse_args(argv[1:])


def run(argv: list[str]) -> int:
    try:
        args = _parse(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        graph = _read(args.graph, parse_graph)
        if args.command in ("solve", "oracle"):
            value, witness = (
                disp(graph, args.delta, args.brute_force, args.cap, args.timeout)
                if args.command == "solve"
                else brute_disp(graph, args.delta, cap=args.cap, timeout=args.timeout)
            )
            if args.witness:
                _write((args.witness, format_witness(graph, witness)))
            print(value)
            if args.command == "oracle" and not args.witness:
                sys.stdout.write(format_witness(graph, witness))
            return 0

        if args.command == "verify":
            # an id the graph lacks is the certificate's fault: check it as it is read
            def check(text: str) -> Verdict:
                k, cert = parse_certificate(text)
                return verify_certificate(graph, args.delta, cert, k)

            verdict = _read(args.certificate, check)
            if verdict.accepted:
                print("accept")
                return 0
            print(f"reject: {verdict.reason}")
            return 1

        if args.command == "gadget":
            inst = build_gadget(graph, args.delta)
            _write(
                (Path(f"{args.out}.graph"), format_graph(inst.g)),
                (Path(f"{args.out}.map"), format_gadget_map(inst)),
            )
            c, mh = inst.coeffs, inst.h.edge_count
            print(
                f"x1={c.x1} y1={c.y1} x2={c.x2} y2={c.y2} parity={c.parity} "
                f"source_edges={mh}"
            )
            print(
                f"predicted bound: k + (2*{c.y1} + {c.y2}) * {mh}"
                f" = k + {predicted_bound(inst, 0)}"
            )
            print(f"wrote {args.out}.graph and {args.out}.map")
            return 0

        if args.command == "subdivide":
            sys.stdout.write(format_graph(subdivide(graph, args.factor)))
            return 0

    except NPHardRegimeError as exc:
        print(f"error: {exc} (use --brute-force)", file=sys.stderr)
        return 2
    except OracleTimeoutError as exc:
        bound = "" if exc.best is None else f"; verified lower bound {exc.best}"
        print(f"error: {exc}{bound}", file=sys.stderr)
        return 3
    except SizeGuardExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InternalConsistencyError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    raise AssertionError("unreachable")


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
