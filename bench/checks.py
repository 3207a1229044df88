"""Output checks for every benchmark operation, by the benchmark's own arithmetic.

Each check returns a list of problems; an empty list means the output is
right. The library's own `verify()` is never used here: a certificate is
re-derived from its parts with `exact`, and CLI output is parsed from text
with the small parser below, not with `nilwitness.textio`.
"""

from __future__ import annotations

from dataclasses import dataclass

import exact


@dataclass
class Claim:
    """A certificate's parts as plain values (see `exact` for the encoding)."""

    source: list
    nilpotent: list
    index: int
    nullity: int
    rref: list
    ops: list
    kernel: list | None  # column vectors as lists; None when not reported


def certificate_problems(claim: Claim, m, rank: int, p) -> list[str]:
    """Check a certificate for the input m, of known rank, over Q (p None) or GF(p)."""
    problems = []
    n = len(m)
    nullity = n - rank
    if claim.source != m:
        problems.append("certificate source is not the input")
    if claim.nullity != nullity:
        problems.append(f"nullity {claim.nullity}, input has nullity {nullity}")
    if claim.index != n - nullity + 1:
        problems.append(f"index {claim.index} != n - nullity + 1 = {n - nullity + 1}")
    own_index = exact.nilpotent_index(claim.nilpotent, p)
    if own_index != claim.index:
        problems.append(f"nilpotent index is {own_index}, certificate says {claim.index}")
    if exact.rref(m, p)[0] != claim.rref:
        problems.append("RREF of the input differs from the reported RREF")
    if exact.rref(claim.nilpotent, p)[0] != claim.rref:
        problems.append("RREF of N differs from the reported RREF")
    try:
        if exact.replay(m, claim.ops, p) != claim.nilpotent:
            problems.append("script does not take the input to N")
    except ValueError as exc:
        problems.append(f"script is invalid: {exc}")
    if claim.kernel is not None:
        problems += kernel_problems(claim.kernel, m, claim.nilpotent, nullity, p)
    return problems


def kernel_problems(vectors, m, nilpotent, nullity, p) -> list[str]:
    """A basis of the shared null space: nullity many, independent, killed by M and N."""
    problems = []
    if len(vectors) != nullity:
        return [f"{len(vectors)} kernel vectors, nullity is {nullity}"]
    if vectors and exact.rank(vectors, p) != nullity:
        problems.append("kernel vectors are linearly dependent")
    columns = [[[x] for x in v] for v in vectors]
    for col in columns:
        if not exact.is_zero(exact.matmul(m, col, p)):
            problems.append("a kernel vector is not killed by M")
        if nilpotent is not None and not exact.is_zero(exact.matmul(nilpotent, col, p)):
            problems.append("a kernel vector is not killed by N")
    return problems


# ---- the text formats ------------------------------------------------------


def _lines(text: str) -> list[str]:
    stripped = (line.strip() for line in text.splitlines())
    return [line for line in stripped if line and not line.startswith("#")]


def parse_matrix(text: str):
    """(p, rows) from one matrix block; p is None over Q. Raises ValueError."""
    lines = _lines(text)
    if len(lines) < 2:
        raise ValueError("matrix block too short")
    header = lines[0].split()
    if header == ["Q"]:
        p = None
    elif len(header) == 2 and header[0] == "GF":
        p = int(header[1])
    else:
        raise ValueError(f"bad field header {lines[0]!r}")
    m, n = (int(x) for x in lines[1].split())
    if len(lines) != 2 + m:
        raise ValueError(f"expected {m} rows, got {len(lines) - 2}")
    rows = [[exact.parse_value(tok, p) for tok in line.split()] for line in lines[2:]]
    if any(len(row) != n for row in rows):
        raise ValueError(f"expected {n} entries per row")
    return p, rows


def format_matrix(rows, p) -> str:
    header = "Q" if p is None else f"GF {p}"
    body = "\n".join(" ".join(str(x) for x in row) for row in rows)
    return f"{header}\n{len(rows)} {len(rows[0])}\n{body}\n"


def parse_script(text: str, p) -> list:
    ops = []
    for line in _lines(text):
        parts = line.split()
        if parts[0] == "swap" and len(parts) == 3:
            ops.append(("swap", int(parts[1]), int(parts[2])))
        elif parts[0] == "scale" and len(parts) == 3:
            ops.append(("scale", int(parts[1]), exact.parse_value(parts[2], p)))
        elif parts[0] == "addmul" and len(parts) == 4:
            ops.append(("addmul", int(parts[1]), exact.parse_value(parts[2], p), int(parts[3])))
        else:
            raise ValueError(f"bad script line {line!r}")
    return ops


REPORT_SECTIONS = ("[input]", "[nilpotent]", "[index]", "[nullity]", "[rref]", "[script]")


def parse_report(text: str, p) -> Claim:
    """A `witness` report, sections in their documented order. Raises ValueError."""
    lines = text.split("\n")
    try:
        starts = [lines.index(s) for s in REPORT_SECTIONS]
    except ValueError as exc:
        raise ValueError("report section missing") from exc
    if starts != sorted(starts):
        raise ValueError("report sections out of order")
    ends = starts[1:] + [len(lines)]
    body = {s: "\n".join(lines[a + 1 : b]) for s, a, b in zip(REPORT_SECTIONS, starts, ends)}
    blocks = {}
    for section in ("[input]", "[nilpotent]", "[rref]"):
        field, rows = parse_matrix(body[section])
        if field != p:
            raise ValueError(f"{section} is over the wrong field")
        blocks[section] = rows
    return Claim(
        source=blocks["[input]"],
        nilpotent=blocks["[nilpotent]"],
        index=int(body["[index]"]),
        nullity=int(body["[nullity]"]),
        rref=blocks["[rref]"],
        ops=parse_script(body["[script]"], p),
        kernel=None,
    )


def parse_vectors(text: str, p) -> list:
    """`kernel` output: n x 1 blocks separated by blank lines."""
    vectors = []
    for block in text.strip().split("\n\n") if text.strip() else []:
        field, rows = parse_matrix(block)
        if field != p or any(len(r) != 1 for r in rows):
            raise ValueError("kernel block is not a column over the input field")
        vectors.append([r[0] for r in rows])
    return vectors
