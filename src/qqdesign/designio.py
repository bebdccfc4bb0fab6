"""Reading and writing design files.

Text format: '#' lines are comments; the first data line is ``n p q``,
the second the p+q level counts, then n rows of p+q tokens.  In the
quantitative block an integer token is a lattice level and a decimal
token is a raw unit-interval value, so ``3`` means level 3 while ``0.5``
means the value one half.  A JSON mirror carries the same content under
the keys n, p, q, levels, rows.
"""

from __future__ import annotations

import json
from pathlib import Path

from .errors import DomainError, ParseError
from .model import Design, DesignSpec, _lattice_levels, _unit


def _parse_int(token: str, where: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"{where}: expected an integer, got {token!r}") from None


def loads_design_text(text: str) -> Design:
    lines = [
        line.strip()
        for line in text.splitlines()
        if line.strip() and not line.lstrip().startswith("#")
    ]
    if len(lines) < 2:
        raise ParseError("design file needs a header of two lines: 'n p q' and level counts")
    head = lines[0].split()
    if len(head) != 3:
        raise ParseError(f"line 1: expected 'n p q', got {lines[0]!r}")
    n, p, q = (_parse_int(tok, "line 1") for tok in head)
    levels = tuple(_parse_int(tok, "line 2") for tok in lines[1].split())
    spec = DesignSpec(n=n, p=p, q=q, levels=levels)
    rows = [
        [_token_value(tok, r, k) for k, tok in enumerate(line.split())]
        for r, line in enumerate(lines[2:])
    ]
    return _design_from_rows(spec, rows)


def _token_value(token: str, r: int, k: int) -> int | float:
    """The number a text token stands for, typed as JSON would type it."""
    try:
        return int(token) if _is_int_token(token) else float(token)
    except ValueError:
        raise ParseError(f"row {r}, column {k}: not a number: {token!r}") from None


def _is_int_token(token: str) -> bool:
    body = token[1:] if token[:1] in "+-" else token
    return body.isdecimal()


def _entry_value(entry, s: int, r: int, k: int, qualitative: bool) -> int | float:
    """Decode one entry: an integer is a level of the s-level factor, a decimal a raw value."""
    if isinstance(entry, bool) or not isinstance(entry, (int, float)):
        raise ParseError(f"row {r}, column {k}: expected a number, got {entry!r}")
    if isinstance(entry, float):
        if qualitative:
            raise ParseError(f"row {r}, column {k}: expected an integer, got {entry!r}")
        return entry
    if not qualitative and not 0 <= entry < s:  # Design checks qualitative levels
        raise DomainError(f"row {r}, column {k}: level {entry} outside 0..{s - 1}")
    return entry if qualitative else _unit(entry, s)


def _design_from_rows(spec: DesignSpec, rows: list) -> Design:
    if len(rows) != spec.n:
        raise ParseError(f"expected {spec.n} data rows, found {len(rows)}")
    qual, quant = [], []
    for r, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != spec.m:
            raise ParseError(f"row {r}: expected {spec.m} entries, got {row!r}")
        values = [
            _entry_value(entry, s, r, k, k < spec.p)
            for k, (entry, s) in enumerate(zip(row, spec.levels))
        ]
        qual.append(values[: spec.p])
        quant.append(values[spec.p :])
    return Design(spec, qual, quant)


def _json_int(value, field: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"design JSON field {field!r}: expected an integer, got {value!r}")
    return value


def design_from_json_dict(data: dict) -> Design:
    for key in ("n", "p", "q", "levels", "rows"):
        if key not in data:
            raise ParseError(f"design JSON is missing the {key!r} field")
    for key in ("levels", "rows"):
        if not isinstance(data[key], list):
            raise ParseError(f"design JSON field {key!r} must be a list, got {data[key]!r}")
    spec = DesignSpec(
        n=_json_int(data["n"], "n"),
        p=_json_int(data["p"], "p"),
        q=_json_int(data["q"], "q"),
        levels=tuple(_json_int(s, "levels") for s in data["levels"]),
    )
    return _design_from_rows(spec, data["rows"])


def read_design(path) -> Design:
    """Parse a design file; JSON when the content starts with '{'; ParseError if unreadable."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read design file {str(path)!r}: {exc}") from None
    if text.lstrip().startswith("{"):
        try:
            data = json.loads(text)
        except (ValueError, RecursionError) as exc:
            raise ParseError(f"invalid JSON design file: {exc}") from None
        return design_from_json_dict(data)
    return loads_design_text(text)


def _quant_values(design: Design) -> list[list]:
    """Per quantitative column: int levels where it is lattice-valued, float values otherwise."""
    spec = design.spec
    cols: list[list] = []
    for j, s in enumerate(spec.quantitative_levels):
        levels = _lattice_levels(design.quantitative[:, j], s)
        cols.append((levels if levels.min() >= 0 else design.quantitative[:, j]).tolist())
    return cols


def dumps_design_text(design: Design) -> str:
    spec = design.spec
    lines = []
    lines.append(f"{spec.n} {spec.p} {spec.q}")
    lines.append(" ".join(str(s) for s in spec.levels))
    quant_cols = _quant_values(design)
    for r in range(spec.n):
        parts = [str(int(v)) for v in design.qualitative[r]]
        parts.extend(repr(quant_cols[j][r]) for j in range(spec.q))
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def design_to_json_dict(design: Design) -> dict:
    spec = design.spec
    quant_cols = _quant_values(design)
    rows = [
        [int(v) for v in design.qualitative[r]] + [quant_cols[j][r] for j in range(spec.q)]
        for r in range(spec.n)
    ]
    return {
        "n": spec.n,
        "p": spec.p,
        "q": spec.q,
        "levels": list(spec.levels),
        "rows": rows,
    }


def write_design(design: Design, path) -> None:
    """Write the text format, or the JSON mirror for a '.json' path."""
    path = Path(path)
    if path.suffix.lower() == ".json":
        path.write_text(json.dumps(design_to_json_dict(design), indent=1) + "\n")
    else:
        path.write_text(dumps_design_text(design))
