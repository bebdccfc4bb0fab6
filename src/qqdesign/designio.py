"""Reading and writing design files.

Text format: '#' lines are comments; the first data line is ``n p q``,
the second the p+q level counts, then n rows of p+q tokens.  In the
quantitative block an integer token is a lattice level and a decimal
token is a raw unit-interval value, so ``3`` means level 3 while ``0.5``
means the value one half.  A JSON mirror carries the same content under
the keys n, p, q, levels, rows.  Files are UTF-8, with or without a BOM.

Text rows are parsed by one C-level call, ``np.loadtxt``, JSON rows by
``json``; both are then typed a column at a time.  A refused token, or a
column that cannot be typed exactly (signed integers, integers mixed
with decimals), sends the rows through the row-major walk
``_design_from_rows``, which raises what an entry-by-entry decoder
would, in its order: the first unparseable token, the row count, each
row's width then entries, then Design's checks.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import DomainError, ParseError
from .model import Design, DesignSpec, _unit


def _parse_int(token: str, where: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"{where}: expected an integer, got {token!r}") from None


def loads_design_text(text: str) -> Design:
    lines = [line for line in map(str.strip, text.splitlines()) if line and line[0] != "#"]
    if len(lines) < 2:
        raise ParseError("design file needs a header of two lines: 'n p q' and level counts")
    head = lines[0].split()
    if len(head) != 3:
        raise ParseError(f"line 1: expected 'n p q', got {lines[0]!r}")
    n, p, q = (_parse_int(tok, "line 1") for tok in head)
    levels = tuple(_parse_int(tok, "line 2") for tok in lines[1].split())
    spec = DesignSpec(n=n, p=p, q=q, levels=levels)
    rows = lines[2:]  # if the parse cannot type them exactly, the row-major walk decides
    return _parse_block(spec, rows) or _design_from_rows(spec, [
        [_token_value(t, r, k) for k, t in enumerate(row.split())] for r, row in enumerate(rows)
    ])


def _token_value(token: str, r: int, k: int) -> int | float:
    """The number a text token stands for, typed as JSON would type it."""
    body = token[1:] if token[:1] in "+-" else token
    try:
        return int(token) if body.isdecimal() else float(token)
    except ValueError:
        raise ParseError(f"row {r}, column {k}: not a number: {token!r}") from None


def _parse_block(spec: DesignSpec, data: list) -> Design | None:
    """The Design of the data lines parsed in C, or None to let the walk decide.

    Unsigned integer tokens are levels, exact in float64 below 2^53.  Other
    quantitative tokens are raw values unless one is whole or infinite, as
    a signed integer is.
    """
    tokens = " ".join(data).split()
    if len(tokens) != spec.n * spec.m:
        return None
    try:  # refuses rows of unequal width and tokens float() might still take
        block = np.loadtxt(data, comments=None, ndmin=2)
    except ValueError:
        return None
    if block.shape != (spec.n, spec.m):  # with the count, the C fields are the tokens
        return None
    for k, s in enumerate(spec.levels):
        values = block[:, k]
        if "".join(tokens[k :: spec.m]).isdecimal():  # every token, as none is empty
            if values.max() >= min(s, 2**53):  # out of range, or not exact: the walk decides
                return None
            if k >= spec.p:
                block[:, k] = _unit(values, s)
        elif k < spec.p or (values == np.floor(values)).any():
            return None
    return Design(spec, block[:, : spec.p].astype(np.int64), block[:, spec.p :])


def _column(values, s: int, qualitative: bool) -> np.ndarray | None:
    """A column as int64 levels or unit values; None if the walk refuses it or int64 overflows."""
    kinds = set(map(type, values))
    if not kinds <= ({int} if qualitative else {int, float}):
        return None
    if kinds == {float}:
        return np.array(values)
    mixed = float in kinds  # its decimals are raw values, its integers levels
    ints = [v if type(v) is int else 0 for v in values] if mixed else values
    try:
        levels = np.array(ints, np.int64)
    except OverflowError:
        return None
    if qualitative:
        return levels
    if levels.min() < 0 or levels.max() >= s:
        return None
    units = _unit(levels, s)
    return np.where([type(v) is float for v in values], values, units) if mixed else units


def _decode_columns(spec: DesignSpec, rows: list) -> Design | None:
    """The Design of JSON ``rows`` decoded a column at a time, or None when an entry is refused."""
    if len(rows) != spec.n or set(map(type, rows)) != {list} or set(map(len, rows)) != {spec.m}:
        return None
    qual = np.empty((spec.n, spec.p), np.int64)
    quant = np.empty((spec.n, spec.q))
    for k, (column, s) in enumerate(zip(zip(*rows), spec.levels)):
        array = _column(column, s, k < spec.p)
        if array is None:
            return None
        if k < spec.p:
            qual[:, k] = array
        else:
            quant[:, k - spec.p] = array
    return Design(spec, qual, quant)


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
    return _decode_columns(spec, data["rows"]) or _design_from_rows(spec, data["rows"])


def read_design(path) -> Design:
    """Parse a design file; JSON when the content starts with '{'; ParseError if unreadable."""
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read design file {str(path)!r}: {exc}") from None
    if text.lstrip().startswith("{"):
        try:
            data = json.loads(text)
        except (ValueError, RecursionError) as exc:
            raise ParseError(f"invalid JSON design file: {exc}") from None
        return design_from_json_dict(data)
    return loads_design_text(text)


def dumps_design_text(design: Design) -> str:
    """The text format: the header, then ``design_to_json_dict``'s rows, each entry in repr."""
    spec = design.spec
    lines = [f"{spec.n} {spec.p} {spec.q}", " ".join(map(str, spec.levels))]
    lines += (" ".join(map(repr, row)) for row in design_to_json_dict(design)["rows"])
    return "\n".join(lines) + "\n"


def design_to_json_dict(design: Design) -> dict:
    """The JSON mirror; its rows hold int levels for lattice columns, float values otherwise."""
    spec = design.spec
    columns = design.qualitative.T.tolist()
    lattice = design._lattice
    for k, low in enumerate(lattice.min(axis=0).tolist()):  # one reduction for all columns
        columns.append((lattice[:, k] if low >= 0 else design.quantitative[:, k]).tolist())
    return {
        "n": spec.n,
        "p": spec.p,
        "q": spec.q,
        "levels": list(spec.levels),
        "rows": list(map(list, zip(*columns))),
    }


def write_design(design: Design, path) -> None:
    """Write the text format, or the JSON mirror for a '.json' path."""
    path = Path(path)
    if path.suffix.lower() == ".json":
        path.write_text(json.dumps(design_to_json_dict(design), indent=1) + "\n")
    else:
        path.write_text(dumps_design_text(design))
