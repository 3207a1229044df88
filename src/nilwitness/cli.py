"""Command-line surface over the text formats.

Exit codes: 0 success (negative findings such as `not nilpotent` or
`not-row-equivalent` are answers, not failures), 1 usage error, 2 parse
error, 3 domain error. Diagnostics go to stderr; results to stdout.
`-` reads a file argument from standard input (at most one per call).
"""

from __future__ import annotations

import argparse
import sys

from .errors import LinalgError, ParseError
from .kernel import null_space_basis
from .matrix import Matrix
from .textio import matrix_to_text, parse_matrix, parse_script, script_to_text
from .witness import catalog_3x3, nilpotent_index, row_equivalent, witness


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; the contract here is 1
    def error(self, message):
        raise _UsageError(message)


def _read_text(path: str) -> str:
    """A file's or standard input's bytes as strict UTF-8; bad bytes are a ParseError."""
    if path == "-":
        data = getattr(sys.stdin, "buffer", sys.stdin).read()
    else:
        with open(path, "rb") as handle:
            data = handle.read()
    if isinstance(data, str):  # a text stream standing in for stdin
        return data
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        source = "standard input" if path == "-" else path
        raise ParseError(f"{source}: not valid UTF-8 at byte {exc.start}") from exc


def _read_matrix(path: str) -> Matrix:
    return parse_matrix(_read_text(path))


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _check_single_stdin(*paths: str) -> None:
    if sum(1 for p in paths if p == "-") > 1:
        raise _UsageError("standard input may be used for at most one argument")


def _cmd_rref(args) -> int:
    result = _read_matrix(args.matrix).rref()
    print(matrix_to_text(result.rref))
    print(f"# rank: {result.rank}")
    pivots = " ".join(str(p) for p in result.pivot_cols)
    print(f"# pivot columns: {pivots}" if pivots else "# pivot columns:")
    if args.script is not None:
        text = script_to_text(result.script)
        _write_text(args.script, text + "\n" if text else "")
    return 0


def _cmd_kernel(args) -> int:
    basis = null_space_basis(_read_matrix(args.matrix))
    if basis.vectors:
        print("\n\n".join(matrix_to_text(v) for v in basis.vectors))
    return 0


def _cmd_witness(args) -> int:
    certificate = witness(_read_matrix(args.matrix))
    report = certificate.to_report()
    print(report)
    if args.report is not None:
        _write_text(args.report, report + "\n")
    return 0


def _cmd_index(args) -> int:
    k = nilpotent_index(_read_matrix(args.matrix))
    print("not nilpotent" if k is None else k)
    return 0


def _cmd_certify(args) -> int:
    _check_single_stdin(args.matrix_a, args.matrix_b)
    a = _read_matrix(args.matrix_a)
    b = _read_matrix(args.matrix_b)
    print("row-equivalent" if row_equivalent(a, b) else "not-row-equivalent")
    return 0


def _cmd_apply(args) -> int:
    _check_single_stdin(args.matrix, args.script)
    matrix = _read_matrix(args.matrix)
    script = parse_script(_read_text(args.script), matrix.field)
    print(matrix_to_text(matrix.apply(script)))
    return 0


def _cmd_catalog3(args) -> int:
    from .fields import Q

    params = {}
    for name in ("a", "b", "c"):
        token = getattr(args, name)
        if token is not None:
            params[name] = Q.parse(token)
    print(matrix_to_text(catalog_3x3(args.rank, args.form, **params)))
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="nilwitness", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rref", help="reduce a matrix; print the RREF, rank, and pivot columns")
    p.add_argument("matrix", help="matrix file, or - for stdin")
    p.add_argument("--script", metavar="OUT", help="also write the reduction script to OUT")
    p.set_defaults(handler=_cmd_rref)

    p = sub.add_parser("kernel", help="print the null-space basis, one n x 1 block per vector")
    p.add_argument("matrix", help="matrix file, or - for stdin")
    p.set_defaults(handler=_cmd_kernel)

    p = sub.add_parser("witness", help="build and verify a nilpotent witness certificate")
    p.add_argument("matrix", help="singular square matrix file, or - for stdin")
    p.add_argument("--report", metavar="OUT", help="also write the certificate report to OUT")
    p.set_defaults(handler=_cmd_witness)

    p = sub.add_parser("index", help="print the nilpotent index, or 'not nilpotent'")
    p.add_argument("matrix", help="square matrix file, or - for stdin")
    p.set_defaults(handler=_cmd_index)

    p = sub.add_parser("certify", help="report whether two matrices are row equivalent")
    p.add_argument("matrix_a", help="first matrix file, or - for stdin")
    p.add_argument("matrix_b", help="second matrix file")
    p.set_defaults(handler=_cmd_certify)

    p = sub.add_parser("apply", help="apply a row-operation script to a matrix")
    p.add_argument("matrix", help="matrix file, or - for stdin")
    p.add_argument("script", help="script file")
    p.set_defaults(handler=_cmd_apply)

    p = sub.add_parser("catalog3", help="print a 3x3 reduced form from the rank-1/rank-2 catalog")
    p.add_argument("--rank", type=int, required=True, choices=(1, 2))
    p.add_argument("--form", type=int, required=True, choices=(1, 2, 3))
    p.add_argument("--a", help="scalar token for parameter a")
    p.add_argument("--b", help="scalar token for parameter b")
    p.add_argument("--c", help="scalar token for parameter c")
    p.set_defaults(handler=_cmd_catalog3)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LinalgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
