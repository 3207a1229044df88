"""Text formats for matrices and row-operation scripts.

Matrix files:
    line 1: ``Q`` or ``GF p`` (p prime)
    line 2: ``m n``
    next m lines: n whitespace-separated scalar tokens
Blank lines and lines whose first non-blank character is ``#`` are skipped.
Serialization always emits reduced canonical scalars, so format-then-parse
is the identity.

Script files hold one operation per line:
    ``swap i j`` | ``scale i c`` | ``addmul i c j``
where ``addmul i c j`` means row i <- row i + c * row j. Coefficients use
the scalar token syntax of the field the script will be applied over.
"""

from __future__ import annotations

from .errors import DivisionByZero, InvalidOp, ParseError
from .fields import GF, Q, Field
from .matrix import AddMul, Matrix, RowScript, Scale, Swap


def _is_decimal(token: str) -> bool:
    """ASCII digits only: str.isdigit also accepts '²' and other scripts' digits."""
    return token.isascii() and token.isdigit()


def _significant_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line


def _parse_field(line: str, lineno: int) -> Field:
    parts = line.split()
    if parts == ["Q"]:
        return Q
    if len(parts) == 2 and parts[0] == "GF" and _is_decimal(parts[1]):
        try:
            return GF(int(parts[1]))
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from exc
    raise ParseError(f"line {lineno}: expected field header 'Q' or 'GF p', got {line!r}")


def _parse_block(items: list[tuple[int, str]], pos: int) -> tuple[Matrix, int]:
    if pos >= len(items):
        raise ParseError("empty input: no matrix found")
    lineno, header = items[pos]
    field = _parse_field(header, lineno)
    pos += 1
    if pos >= len(items):
        raise ParseError(f"line {lineno}: missing dimension line after field header")
    lineno, dims = items[pos]
    parts = dims.split()
    if len(parts) != 2 or not all(_is_decimal(p) for p in parts):
        raise ParseError(f"line {lineno}: expected 'm n', got {dims!r}")
    m, n = int(parts[0]), int(parts[1])
    if m < 1 or n < 1:
        raise ParseError(f"line {lineno}: dimensions must be positive, got {m} {n}")
    pos += 1
    rows = []
    for _ in range(m):
        if pos >= len(items):
            raise ParseError(f"expected {m} rows, found {len(rows)}")
        lineno, line = items[pos]
        tokens = line.split()
        if len(tokens) != n:
            raise ParseError(f"line {lineno}: expected {n} entries, got {len(tokens)}")
        try:
            rows.append([field.parse(tok) for tok in tokens])
        except (ParseError, DivisionByZero) as exc:
            raise ParseError(f"line {lineno}: {exc}") from exc
        pos += 1
    return Matrix(field, rows), pos


def parse_matrix(text: str) -> Matrix:
    """Parse exactly one matrix; trailing non-comment content is an error."""
    items = list(_significant_lines(text))
    matrix, pos = _parse_block(items, 0)
    if pos != len(items):
        lineno, line = items[pos]
        raise ParseError(f"line {lineno}: unexpected trailing content {line!r}")
    return matrix


def parse_matrix_stream(text: str) -> list[Matrix]:
    """Parse zero or more concatenated matrix blocks."""
    items = list(_significant_lines(text))
    out = []
    pos = 0
    while pos < len(items):
        matrix, pos = _parse_block(items, pos)
        out.append(matrix)
    return out


def matrix_to_text(matrix: Matrix) -> str:
    lines = [str(matrix.field), f"{matrix.nrows} {matrix.ncols}"]
    lines.extend(" ".join(str(e) for e in row) for row in matrix.rows)
    return "\n".join(lines)


def _parse_index(token: str, lineno: int) -> int:
    if not _is_decimal(token) or int(token) < 1:
        raise ParseError(f"line {lineno}: row index must be a positive integer, got {token!r}")
    return int(token)


def _parse_coeff(token: str, field: Field, lineno: int):
    try:
        return field.parse(token)
    except (ParseError, DivisionByZero) as exc:
        raise ParseError(f"line {lineno}: {exc}") from exc


def parse_script(text: str, field: Field) -> RowScript:
    """Parse a script file; coefficients are read over the given field."""
    ops = []
    for lineno, line in _significant_lines(text):
        parts = line.split()
        try:
            if parts[0] == "swap" and len(parts) == 3:
                ops.append(Swap(_parse_index(parts[1], lineno), _parse_index(parts[2], lineno)))
            elif parts[0] == "scale" and len(parts) == 3:
                ops.append(Scale(_parse_index(parts[1], lineno), _parse_coeff(parts[2], field, lineno)))
            elif parts[0] == "addmul" and len(parts) == 4:
                ops.append(
                    AddMul(
                        _parse_index(parts[1], lineno),
                        _parse_coeff(parts[2], field, lineno),
                        _parse_index(parts[3], lineno),
                    )
                )
            else:
                raise ParseError(f"line {lineno}: unrecognized operation {line!r}")
        except InvalidOp as exc:
            raise ParseError(f"line {lineno}: {exc}") from exc
    return RowScript(ops)


def script_to_text(script: RowScript) -> str:
    lines = []
    for op in script:
        if isinstance(op, Swap):
            lines.append(f"swap {op.i} {op.j}")
        elif isinstance(op, Scale):
            lines.append(f"scale {op.i} {op.c}")
        else:
            lines.append(f"addmul {op.i} {op.c} {op.j}")
    return "\n".join(lines)
