"""Fuzz the design parser and the CLI: bad input ends in a typed error, never a traceback."""

import contextlib
import io
import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from qqdesign import QQDesignError, read_design
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
