"""Fuzz the design parser and the CLI: bad input ends in a typed error, never a traceback."""

import contextlib
import io
import json
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from qqdesign import (
    Design,
    DesignSpec,
    DomainError,
    ParseError,
    QQDesignError,
    designio,
    read_design,
)
from qqdesign.cli import main

FUZZ = settings(max_examples=100, deadline=None)

TOKENS = st.sampled_from(
    ["0", "1", "2", "3", "4", "-1", "+2", "0.5", "1.0", "1e400", "nan", "x", "#",
     "2^2", "²", "٣", "9223372036854775807", "99999999999999999999",
     "99999999999999999999999", ""]
)
SMALL_INTS = st.integers(min_value=-1, max_value=4)
HUGE_INTS = st.sampled_from([2**63 - 1, 2**63, 10**20, 10**23, -(10**20)])

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | SMALL_INTS | HUGE_INTS | st.floats()
    | st.sampled_from(["", "1", "x"]),
    lambda inner: st.lists(inner, max_size=4),
    max_leaves=12,
)


def _line(tokens) -> str:
    return " ".join(tokens)


TEXT_DOCUMENTS = st.one_of(
    st.lists(st.lists(TOKENS, max_size=5).map(_line), max_size=8).map("\n".join),
    st.builds(
        lambda header, levels, rows: "\n".join([_line(map(str, header)), _line(levels), *rows]),
        st.tuples(SMALL_INTS, SMALL_INTS, SMALL_INTS),
        st.lists(TOKENS, max_size=4),
        st.lists(st.lists(TOKENS, max_size=4).map(_line), max_size=5),
    ),
)

JSON_DOCUMENTS = st.fixed_dictionaries(
    {},
    optional={
        "n": SMALL_INTS | JSON_VALUES,
        "p": SMALL_INTS | JSON_VALUES,
        "q": SMALL_INTS | JSON_VALUES,
        "levels": st.lists(SMALL_INTS, max_size=4) | JSON_VALUES,
        "rows": st.lists(st.lists(SMALL_INTS | JSON_VALUES, max_size=4), max_size=4)
        | JSON_VALUES,
    },
).map(json.dumps)


# tokens that mostly decode, for documents whose header and row count fit
ENTRY_TOKENS = TOKENS | st.sampled_from(["0", "1", "2", "3", "+1", "-0", "٣", "0.5", "1e-3"])


def _json_token(token):
    try:
        return json.loads(token)
    except ValueError:
        return token


def _shaped_document(header, rows, as_json) -> str:
    n, p, levels = header
    if not as_json:
        header = [f"{n} {p} {len(levels) - p}", _line(map(str, levels))]
        return "\n".join(header + list(map(_line, rows)))
    typed = [[_json_token(t) for t in row] for row in rows]
    return json.dumps({"n": n, "p": p, "q": len(levels) - p, "levels": levels, "rows": typed})


SHAPED_DOCUMENTS = st.tuples(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=2),
    st.lists(st.integers(min_value=1, max_value=4), min_size=2, max_size=3),
).flatmap(
    lambda header: st.builds(
        _shaped_document,
        st.just(header),
        st.lists(
            st.lists(ENTRY_TOKENS, min_size=len(header[2]), max_size=len(header[2])),
            min_size=header[0],
            max_size=header[0],
        ),
        st.booleans(),
    )
)


def _read_typed(path, content) -> None:
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)
    try:
        read_design(path)
    except QQDesignError:
        pass


@FUZZ
@given(content=TEXT_DOCUMENTS | JSON_DOCUMENTS | st.binary(max_size=32))
@example(content="1 1 0\n99999999999999999999999\n99999999999999999999")
@example(content='{"n": 1, "p": 0, "q": 1, "levels": [100000000000000000000], "rows": [[5]]}')
def test_read_design_raises_only_typed_errors(tmp_path_factory, content):
    _read_typed(tmp_path_factory.getbasetemp() / "fuzz-design.txt", content)


@FUZZ
@given(
    levels=st.text(alphabet="0123456789,^ -+.x", max_size=12),
    p=st.integers(min_value=0, max_value=3),
    q=st.integers(min_value=0, max_value=3),
)
def test_bounds_levels_end_in_a_documented_exit_code(levels, p, q):
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = main(
            ["bounds", "--n", "12", "--p", str(p), "--q", str(q), f"--levels={levels}"]
        )
    assert code in (0, 1, 2)
    assert "Traceback" not in stderr.getvalue()


@FUZZ
@given(
    n=st.integers(min_value=-2, max_value=16),
    p=st.integers(min_value=0, max_value=2),
    q=st.integers(min_value=0, max_value=2),
    levels=st.lists(st.integers(min_value=-1, max_value=16), min_size=4, max_size=4),
    budget=st.integers(min_value=-2, max_value=50),
    restarts=st.integers(min_value=-1, max_value=3),
    seed=st.integers(min_value=-10, max_value=2**40),
)
@example(n=4, p=1, q=1, levels=[2, 2, 2, 2], budget=10, restarts=1, seed=-1)
def test_search_flags_end_in_a_documented_exit_code(n, p, q, levels, budget, restarts, seed):
    argv = [
        "search", "--n", str(n), "--p", str(p), "--q", str(q),
        # one level count per factor, so that most specs get past the parser
        f"--levels={','.join(map(str, levels[: p + q]))}",
        "--budget", str(budget), "--restarts", str(restarts), "--seed", str(seed),
    ]
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = main(argv)
    assert code in (0, 1, 2, 4)
    assert "Traceback" not in stderr.getvalue()


# The entry-by-entry decoder that read_design replaced, kept as the
# reference for the column decoder: every row, then every token in it.


def _reference_int(token, where):
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"{where}: expected an integer, got {token!r}") from None


def _reference_token(token, r, k):
    body = token[1:] if token[:1] in "+-" else token
    try:
        return int(token) if body.isdecimal() else float(token)
    except ValueError:
        raise ParseError(f"row {r}, column {k}: not a number: {token!r}") from None


def _reference_entry(entry, s, r, k, qualitative):
    if isinstance(entry, bool) or not isinstance(entry, (int, float)):
        raise ParseError(f"row {r}, column {k}: expected a number, got {entry!r}")
    if isinstance(entry, float):
        if qualitative:
            raise ParseError(f"row {r}, column {k}: expected an integer, got {entry!r}")
        return entry
    if not qualitative and not 0 <= entry < s:
        raise DomainError(f"row {r}, column {k}: level {entry} outside 0..{s - 1}")
    return entry if qualitative else (entry + 0.5) / s


def _reference_rows(spec, rows):
    if len(rows) != spec.n:
        raise ParseError(f"expected {spec.n} data rows, found {len(rows)}")
    qual, quant = [], []
    for r, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != spec.m:
            raise ParseError(f"row {r}: expected {spec.m} entries, got {row!r}")
        values = [
            _reference_entry(entry, s, r, k, k < spec.p)
            for k, (entry, s) in enumerate(zip(row, spec.levels))
        ]
        qual.append(values[: spec.p])
        quant.append(values[spec.p :])
    return Design(spec, qual, quant)


def _reference_json_int(value, field):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"design JSON field {field!r}: expected an integer, got {value!r}")
    return value


def _reference_read(path):
    text = Path(path).read_text()
    if text.lstrip().startswith("{"):
        try:
            data = json.loads(text)
        except (ValueError, RecursionError) as exc:
            raise ParseError(f"invalid JSON design file: {exc}") from None
        for key in ("n", "p", "q", "levels", "rows"):
            if key not in data:
                raise ParseError(f"design JSON is missing the {key!r} field")
        for key in ("levels", "rows"):
            if not isinstance(data[key], list):
                raise ParseError(f"design JSON field {key!r} must be a list, got {data[key]!r}")
        spec = DesignSpec(
            n=_reference_json_int(data["n"], "n"),
            p=_reference_json_int(data["p"], "p"),
            q=_reference_json_int(data["q"], "q"),
            levels=tuple(_reference_json_int(s, "levels") for s in data["levels"]),
        )
        return _reference_rows(spec, data["rows"])
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
    n, p, q = (_reference_int(tok, "line 1") for tok in head)
    levels = tuple(_reference_int(tok, "line 2") for tok in lines[1].split())
    spec = DesignSpec(n=n, p=p, q=q, levels=levels)
    rows = [
        [_reference_token(tok, r, k) for k, tok in enumerate(line.split())]
        for r, line in enumerate(lines[2:])
    ]
    return _reference_rows(spec, rows)


def _outcome(read, path):
    """The Design as spec, dtypes, strides and bytes, or the refusal as type and message."""
    try:
        design = read(path)
    except QQDesignError as exc:
        return type(exc), str(exc)
    arrays = (design.qualitative, design.quantitative)
    return design.spec, [(a.dtype, a.strides, a.tobytes()) for a in arrays]


BIG = str(2**63)


@FUZZ
@given(content=TEXT_DOCUMENTS | JSON_DOCUMENTS | SHAPED_DOCUMENTS)
@example(content="3 1 1\n4 4\n+2 +1\n٣ 0.5\n0 ٣")  # signed and Arabic-Indic levels
@example(content="2 1 1\n2 2\n-1 0\n0 1")
@example(content="2 1 1\n2 2\n0 -1\n1 0")
@example(content="2 0 1\n2\n0.5\n-1")
@example(content="1 1 0\n2\n" + "1" * 5000)  # over int()'s digit limit
@example(content="2 0 1\n2\n0.5\n-" + "9" * 5000)
@example(content="2 0 1\n2\n0.5\n+" + "9" * 400)  # a whole token that floats to inf
@example(content=f"1 1 1\n2 2\n{BIG} 0")
@example(content=f"1 1 1\n2 2\n-{BIG}0 0")
@example(content=f"1 0 1\n2\n{BIG}")
@example(content=f"2 1 1\n2 9223372036854775807\n0 {2**63 - 2}\n1 {2**62 + 1}")
@example(content=f'{{"n": 1, "p": 1, "q": 1, "levels": [2, 2], "rows": [[{BIG}, 0]]}}')
@example(content=f'{{"n": 1, "p": 1, "q": 1, "levels": [2, 2], "rows": [[0, {BIG}]]}}')
@example(content="2 1 0\n2\n0\n1.0")  # a decimal in a qualitative column
@example(content="3 0 1\n4\n1\n0.25\n3")  # integers and decimals in one column
@example(content='{"n": 2, "p": 0, "q": 1, "levels": [4], "rows": [[1], [0.25]]}')
@example(content="3 1 1\n2 2\n0 5\n0 0 0\n1 1")  # a bad entry before a wrong width
@example(content="3 1 1\n2 2\n0 5\n0 0 0\n1 x")  # ... and an unparseable token after both
@example(content="2 1 1\n2 2\n0 1\n1 0 1\n1 1")  # too many rows
@example(content="2 2 1\n2 2 2\n5 0 1.5\n0 -3 0")  # Design's column-major checks
# hazards of the C-level parse of the data block
@example(content="2 0 1\n2\n0.2_5\n0.5")  # float() takes an underscore, the C parse does not
@example(content="2 1 1\n2 2\n0 0.5 # a note\n1 0.25")  # '#' mid-row is a token
@example(content="2 0 1\n2\n0.5\nnan")
@example(content="2 0 1\n2\n0.5\n-inf")
@example(content="2 0 1\n2\n0.5\nInfinity")
@example(content="2 0 1\n2\n0.5\n-0.0")
@example(content="2 0 1\n4\n0.5\n+1")  # a signed level among raw values
@example(content="2 0 1\n2\n0.5\n١.٥")  # Arabic-Indic digits: float() only
@example(content="2 1 1\r\n2 2\r\n0\t0.5\r\n1\t0.25\r\n")  # tab and CRLF
@example(content="2 1 1\n2 2\n0\x0c0.5\n1 0.25")  # a form feed also ends a line
@example(content="2 1 1\n2 2\n0\u20030.5\n1\u20030.25")  # an em space separates tokens
@example(content="2 1 1\n2 4\n0000000000000001 0000000000000003\n0 00000000000000000002")
@example(content="2 1 1\n2 2\n0 1 1\n1")  # n*m tokens in rows one too wide and one too narrow
def test_read_design_matches_the_entry_by_entry_decoder(tmp_path_factory, content):
    path = tmp_path_factory.getbasetemp() / "differential-design.txt"
    path.write_text(content)
    assert _outcome(read_design, path) == _outcome(_reference_read, path)


@st.composite
def _level_documents(draw):
    """Text documents whose data block holds only ASCII digits, spaces, tabs and line ends."""
    n, p = draw(st.integers(1, 4)), draw(st.integers(0, 2))
    counts = st.sampled_from([1, 2, 3, 4, 7, 2**50, 2**53, 2**53 + 2])
    levels = draw(st.lists(counts, min_size=max(p, 1), max_size=3))
    p = min(p, len(levels))
    sep = draw(st.sampled_from([" ", "\t", " \t ", "  "]))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))

    def token(s):
        value = draw(st.integers(0, s - 1) | st.sampled_from([s, 2**53 - 1, 2**53, 2**63, 10**19]))
        return "0" * draw(st.sampled_from([0, 0, 0, 1, 20])) + str(value)

    lines = [f"{n} {p} {len(levels) - p}", " ".join(map(str, levels))]
    for _ in range(draw(st.sampled_from([n, n, n, n, n - 1, n + 1, 0]))):
        width = len(levels) + draw(st.sampled_from([0] * 8 + [-1, 1]))
        lines.append(sep.join(token(s) for s in (levels + levels[-1:])[:width]))
        lines += draw(st.lists(st.sampled_from(["", "  ", "\t", " \t"]), max_size=1))
    return end.join(lines) + draw(st.sampled_from(["", end, end + " \t" + end]))


def _walked(text):
    """The Design the entry-by-entry walk gives for a level document, or its refusal."""
    head, counts, *rows = [line for line in map(str.strip, text.splitlines()) if line]
    n, p, q = map(int, head.split())
    spec = DesignSpec(n=n, p=p, q=q, levels=tuple(map(int, counts.split())))
    return designio._design_from_rows(spec, [
        [designio._token_value(t, r, k) for k, t in enumerate(row.split())]
        for r, row in enumerate(rows)
    ])


def _decoded_outcome(read, text):
    """The Design as spec, arrays, decode and exactness, or the refusal as type and message."""
    try:
        design = read(text)
    except QQDesignError as exc:
        return type(exc), str(exc)
    arrays = (design.qualitative, design.quantitative, design._lattice)
    return design.spec, [(a.dtype, a.strides, a.flags.writeable, a.tobytes()) for a in arrays], \
        design._exact


@settings(max_examples=200, deadline=None)
@given(content=_level_documents())
@example(content="2 1 1\r2 2\r0 1\r\r1 0\r")  # CR line ends and a blank line
@example(content="2 1 1\r\n2 2\r\n0\t1\r\n \t\r\n1\t0\r\n")  # CRLF, tabs, a whitespace line
@example(content="2 1 1\n2 4\n00000000000000000000001 003\n0 00000000000000000002\n")
@example(content="2 1 1\n2 4\n0 4\n1 0\n")  # a quantitative level at s
@example(content="2 1 1\n2 4\n2 0\n1 0\n")  # a qualitative level at s
@example(content=f"2 1 1\n{2**53 + 2} 2\n{2**53} 0\n0 1\n")  # past the float parse's range
@example(content=f"2 0 1\n{2**53 + 2}\n{2**53}\n0\n")
@example(content=f"2 0 1\n{2**53}\n{2**53 - 1}\n0\n")
@example(content="1 1 0\n2\n99999999999999999999\n")  # past int64
@example(content="1 0 1\n2\n18446744073709551616\n")
@example(content="2 1 1\n2 2\n")  # no data rows
@example(content="2 1 1\n2 2\n \t\r\n\n")
@example(content="3 1 1\n2 2\n0 1\n1 0\n")  # fewer rows than n
@example(content="2 1 1\n2 2\n0 1 1\n1\n")  # n*m tokens in rows of the wrong widths
def test_a_block_of_levels_reads_as_the_entry_walk_decodes_it(content):
    read = designio.loads_design_text
    outcome = _decoded_outcome(read, content)
    assert outcome == _decoded_outcome(_walked, content)
    if isinstance(outcome[0], DesignSpec) and max(outcome[0].levels) <= 2**50:
        assert "_lattice" in read(content).__dict__  # parsed as int64, its decode handed over
