import json
import warnings

import numpy as np
import pytest

from qqdesign import (
    Design,
    DesignSpec,
    DomainError,
    ParseError,
    design_from_json_dict,
    design_from_levels,
    design_to_json_dict,
    dumps_design_text,
    loads_design_text,
    random_utype,
    read_design,
    write_design,
)
from qqdesign import designio
from qqdesign.reference import load_reference_design

SIMPLE = """\
# a comment line
4 1 1
2 2

0 0
0 1
1 0
1 1
"""


def test_text_parsing_skips_comments_and_blanks():
    design = loads_design_text(SIMPLE)
    assert design.spec == DesignSpec(n=4, p=1, q=1, levels=(2, 2))
    assert design.quantitative[1, 0] == 0.75


def test_integer_tokens_are_levels_and_decimals_are_raw():
    design = loads_design_text("2 0 1\n4\n3\n0.5\n")
    assert design.quantitative[0, 0] == 0.875  # level 3 of 4
    assert design.quantitative[1, 0] == 0.5  # verbatim


def test_a_negative_zero_token_hashes_as_the_equal_design_with_zero(tmp_path):
    text = "2 0 1\n4\n{}\n0.5\n"
    negative, zero = (loads_design_text(text.format(token)) for token in ("-0.0", "0.0"))
    assert np.signbit(negative.quantitative[0, 0]) and negative == zero
    path = tmp_path / "d.txt"
    path.write_text(text.format("-0.0"))
    for design in (negative, read_design(path)):
        assert design == zero and hash(design) == hash(zero)
        assert len({design, zero}) == 1


def test_text_round_trip_lattice(tmp_path):
    design = load_reference_design("mcd_16run_2")
    path = tmp_path / "d.txt"
    write_design(design, path)
    assert read_design(path) == design
    # lattice columns are written back as integer levels
    rows = [l for l in path.read_text().splitlines() if l and not l.startswith("#")][2:]
    assert rows and all("." not in line for line in rows)


def test_text_round_trip_raw(tmp_path):
    design = load_reference_design("ccd_full_3")
    path = tmp_path / "d.txt"
    write_design(design, path)
    assert read_design(path) == design


def test_json_round_trip(tmp_path):
    for name in ("mcd_8run_1", "ccd_full_1"):
        design = load_reference_design(name)
        path = tmp_path / f"{name}.json"
        write_design(design, path)
        assert read_design(path) == design


@pytest.mark.parametrize(
    "design",
    [
        random_utype(DesignSpec(n=4, p=0, q=2, levels=(2, 4)), 3),
        Design(DesignSpec(n=3, p=0, q=2, levels=(3, 3)), np.zeros((3, 0)),
               [[0.1, 0.5], [1 / 3, 1.0], [0.0, 5 / 6]]),
        random_utype(DesignSpec(n=4, p=2, q=0, levels=(2, 4)), 3),
    ],
    ids=["p=0-lattice", "p=0-raw", "q=0"],
)
def test_text_is_the_header_and_the_json_rows(design, tmp_path):
    spec = design.spec
    rows = design_to_json_dict(design)["rows"]
    lines = [f"{spec.n} {spec.p} {spec.q}", " ".join(map(str, spec.levels))]
    lines += [" ".join(map(repr, row)) for row in rows]
    assert dumps_design_text(design) == "\n".join(lines) + "\n"
    for name in ("d.txt", "d.json"):
        write_design(design, tmp_path / name)
        assert read_design(tmp_path / name) == design


def test_json_dict_mirror_fields():
    design = load_reference_design("bound_attaining_4run")
    data = design_to_json_dict(design)
    assert set(data) == {"n", "p", "q", "levels", "rows"}
    assert data["rows"][0] == [0, 0, 1]
    assert design_from_json_dict(json.loads(json.dumps(data))) == design


def test_parse_error_row_count():
    with pytest.raises(ParseError, match="expected 4 data rows"):
        loads_design_text("4 1 0\n2\n0\n0\n1\n")


def test_parse_error_bad_token_location():
    with pytest.raises(ParseError, match="row 1, column 0"):
        loads_design_text("2 1 0\n2\n0\nx\n")


def test_domain_error_level_out_of_range_location():
    with pytest.raises(DomainError, match="row 1, column 1"):
        loads_design_text("2 1 1\n2 2\n0 0\n1 5\n")


def test_parse_error_bad_header():
    with pytest.raises(ParseError, match="line 1"):
        loads_design_text("4 1\n2\n")


@pytest.mark.parametrize(
    "text, error, message",
    [
        ("2 1 1\n2 2\n", ParseError, "expected 2 data rows, found 0"),
        ("2 1 1\n2 2\n\n \t\r\n  ", ParseError, "expected 2 data rows, found 0"),
        ("3 1 1\n2 2\n0 1\n1 0\n", ParseError, "expected 3 data rows, found 2"),
        ("3 1 1\r2 2\r0 1\r\r1 0\r", ParseError, "expected 3 data rows, found 2"),
        ("2 1 1\n2 2\n0 1\n1 2\n", DomainError, "row 1, column 1: level 2 outside 0..1"),
        ("2 1 1\n2 2\n2 1\n1 0\n", DomainError,
         "qualitative entry 2 at row 0, column 0 outside 0..1"),
    ],
    ids=["header-only", "blank-block", "short", "short-cr", "quantitative-level",
         "qualitative-level"],
)
def test_a_block_of_levels_is_refused_as_the_walk_refuses_it_without_a_warning(
    text, error, message
):
    # numpy's loadtxt warns on a block without data rows: none may reach it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error) as refusal:
            loads_design_text(text)
    assert str(refusal.value) == message


def test_dumps_text_reparses_identically():
    design = load_reference_design("juxtaposed_16run_2")
    assert loads_design_text(dumps_design_text(design)) == design


def _counted(base, calls):
    """A stand-in for the builtin ``base`` that records each token it converts.

    Its results are its own instances, so they pass designio's type tests by that name.
    """

    class Counted(base):
        def __new__(cls, token):
            calls.append(token)
            return super().__new__(cls, token)

    return Counted


def test_a_valid_file_is_decoded_without_the_entry_walk(tmp_path, monkeypatch):
    lattice = random_utype(DesignSpec(n=2048, p=2, q=2, levels=(4, 4, 16, 32)), 0)
    raw = Design(lattice.spec, lattice.qualitative, lattice.quantitative * 0.999)
    calls, conversions = [], []

    def counted(*args):
        calls.append(args)
        return entry_value(*args)

    entry_value = designio._entry_value
    monkeypatch.setattr(designio, "_entry_value", counted)
    for design in (lattice, raw):
        for name in ("design.txt", "design.json"):
            write_design(design, tmp_path / name)
            assert read_design(tmp_path / name) == design
        # text files, also with CRLF line ends or tabs, convert no token in Python:
        # only the two header lines reach int()
        text = dumps_design_text(design)
        header = text.split(None, 3 + design.spec.m)[:-1]
        for copy in (text, text.replace("\n", "\r\n"), text.replace(" ", "\t")):
            (tmp_path / "copy.txt").write_bytes(copy.encode())
            with monkeypatch.context() as patch:
                patch.setattr(designio, "int", _counted(int, conversions), raising=False)
                patch.setattr(designio, "float", _counted(float, conversions), raising=False)
                assert read_design(tmp_path / "copy.txt") == design
            assert conversions == header
            conversions.clear()
    assert calls == []
    # a refused entry still takes it, to name the refusal
    with pytest.raises(DomainError, match="row 1, column 1"):
        loads_design_text("2 1 1\n2 2\n0 0\n1 5\n")
    assert calls


def test_the_parse_gives_each_raw_value_as_float_does(monkeypatch):
    # raw tokens as repr, %e and %f write them, over the whole exponent range
    # of the unit interval, subnormals included; none is whole, so no column
    # leaves the C parse for the walk
    rng = np.random.default_rng(2028)
    values = rng.random(5000) * 10.0 ** -rng.integers(0, 324, 5000)
    digits = rng.integers(1, 25, 5000).tolist()
    tokens = [repr(v) for v in values.tolist()]
    tokens += [f"{v:.{k}e}" for v, k in zip(values.tolist(), digits)]
    tokens += [f"{v:.{k}f}" for v, k in zip(values.tolist(), digits)]
    tokens = [t for t in tokens if 0.0 < float(t) < 1.0][: 8 * 1250]
    monkeypatch.setattr(designio, "_design_from_rows", None)  # the walk would fail
    rows = [" ".join(tokens[r : r + 8]) for r in range(0, len(tokens), 8)]
    design = loads_design_text("\n".join([f"{len(rows)} 0 8", " ".join(["2"] * 8), *rows]))
    assert len(tokens) == 8 * 1250
    expected = np.array([float(t) for t in tokens]).reshape(len(rows), 8)
    assert design.quantitative.tobytes() == expected.tobytes()


def test_columns_typed_token_by_token_keep_their_meaning():
    # signed and Arabic-Indic integers are levels, decimals raw values, even
    # in one column; the typing is per token, as for an all-integer column
    design = loads_design_text("3 1 1\n4 4\n+2 +1\n٣ 0.5\n-0 ٣\n")
    assert design.qualitative.ravel().tolist() == [2, 3, 0]
    assert design.quantitative.ravel().tolist() == [0.375, 0.5, 0.875]
    mirror = {"n": 2, "p": 0, "q": 1, "levels": [4], "rows": [[1], [0.5]]}
    assert design_from_json_dict(mirror).quantitative.ravel().tolist() == [0.375, 0.5]
    with pytest.raises(ParseError, match="row 1, column 0: expected an integer, got 1.0"):
        loads_design_text("2 1 0\n2\n0\n1.0\n")
