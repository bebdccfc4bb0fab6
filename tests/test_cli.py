import codecs
import json
from importlib.resources import files

import numpy as np
import pytest

from qqdesign import (
    DesignSpec,
    SearchConfig,
    dd,
    qqd_squared,
    random_utype,
    read_design,
    search_uniform,
    wd_squared,
    write_design,
)
from qqdesign.cli import main
from qqdesign.search import BOUND_TOL


def data_path(name: str) -> str:
    return str(files("qqdesign").joinpath("data", f"{name}.txt"))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------------------- eval

def test_eval_qqd_text_output(capsys):
    code, out, _ = run(capsys, "eval", data_path("mcd_8run_2"), "--criterion", "qqd")
    assert code == 0
    value = float(out.splitlines()[0].split("=")[1])
    assert abs(value - 0.0164) < 5e-5
    assert "quadratic form" in out


def test_eval_qqd_json_matches_text_precision(capsys):
    code, out, _ = run(capsys, "eval", data_path("mcd_8run_2"), "--json")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["value"] - 0.0164) < 5e-5
    assert payload["cross_check"] < 1e-10
    code, text_out, _ = run(capsys, "eval", data_path("mcd_8run_2"))
    printed = text_out.splitlines()[0].split("=")[1].strip()
    assert printed == f"{payload['value']:.6f}"


def test_eval_dd_on_full_factorial(capsys, tmp_path):
    path = tmp_path / "ff.txt"
    path.write_text("4 2 0\n2 2\n0 0\n0 1\n1 0\n1 1\n")
    code, out, _ = run(capsys, "eval", str(path), "--criterion", "dd")
    assert code == 0
    assert "dd = 0.000000" in out


def test_eval_prints_a_value_that_rounds_to_zero_without_a_sign(capsys, tmp_path):
    # C and the pair sum cancel, leaving a few units of rounding below zero
    balanced = tmp_path / "n182.txt"
    write_design(random_utype(DesignSpec(n=182, p=1, q=2, levels=(2, 7, 13)), 0), str(balanced))
    cases = [["--criterion", "dd", data_path(f"mcd_16run_{k}")] for k in (1, 2, 3)]
    for argv in cases + [["--criterion", "dd", "--a", "3.7", "--b", "0.4", str(balanced)]]:
        code, out, _ = run(capsys, "eval", *argv)
        assert code == 0
        assert out.endswith(" route: dd = 0.000000\n")
        _, out, _ = run(capsys, "eval", "--json", *argv)
        assert -1e-15 < json.loads(out)["value"] < 0.0  # --json keeps the exact value


def test_fixed_point_text_drops_only_the_sign_of_a_rounded_zero():
    from qqdesign.cli import _fixed

    assert [_fixed(v) for v in (-0.0, -4.4e-16, 4.4e-16, -4e-7, -6e-7, -12.5)] == [
        "0.000000", "0.000000", "0.000000", "0.000000", "-0.000001", "-12.500000"
    ]
    assert [_fixed(v, 9) for v in (-1e-17, -0.25, 3.0)] == [" 0.000000", "-0.250000", " 3.000000"]


def test_eval_swd_reports_value_and_refuses_a_mode(capsys):
    code, out, _ = run(capsys, "eval", data_path("juxtaposed_16run_2"), "--criterion", "swd")
    assert code == 0
    assert abs(float(out.split("=")[1]) - 1.1055) < 5e-5
    code, _, err = run(
        capsys, "eval", data_path("juxtaposed_16run_2"), "--criterion", "swd", "--swd-mode", "wd"
    )
    assert code == 1
    assert "unrecognized arguments: --swd-mode" in err


@pytest.mark.parametrize(
    "design, flags, route",
    [
        ("mcd_8run_2", (), "closed"),
        ("mcd_8run_2", ("--criterion", "wd"), "closed"),
        ("mcd_8run_2", ("--criterion", "dd"), "closed"),
        ("juxtaposed_16run_2", ("--criterion", "swd"), "slices"),
    ],
)
def test_eval_names_the_route_of_its_value(capsys, design, flags, route):
    code, out, _ = run(capsys, "eval", data_path(design), "--json", *flags)
    assert code == 0
    payload = json.loads(out)
    assert list(payload)[:2] == ["criterion", "value"]
    assert list(payload)[-1] == "route" and payload["route"] == route
    code, out, _ = run(capsys, "eval", data_path(design), *flags)
    assert code == 0
    assert out.startswith(f"{route} route: ")


def _design_file(path, design, quantitative):
    """Write ``design`` as text with ``quantitative`` as its quantitative block, in repr."""
    spec = design.spec
    rows = [" ".join(map(repr, [*q, *x]))
            for q, x in zip(design.qualitative.tolist(), quantitative.tolist())]
    path.write_text("\n".join([f"{spec.n} {spec.p} {spec.q}", " ".join(map(str, spec.levels)),
                               *rows]) + "\n")
    return str(path)


def _route_files(tmp_path):
    """(file, the route of each of eval wd, eval dd and compare) on both sides of the rule."""
    lattice = random_utype(DesignSpec(n=182, p=1, q=2, levels=(2, 7, 13)), 0)
    near = lattice.quantitative.round(12)  # inside LATTICE_TOL, off the lattice points
    raw = np.random.default_rng(0).random(near.shape)
    wide = random_utype(DesignSpec(n=512, p=2, q=2, levels=(4, 4, 8, 16)), 1)
    return [
        (_design_file(tmp_path / "lattice.txt", lattice, lattice.quantitative),
         ("quadratic", "quadratic", "quadratic")),
        (_design_file(tmp_path / "wide.txt", wide, wide.quantitative),
         ("quadratic", "quadratic", "quadratic")),
        (_design_file(tmp_path / "near.txt", lattice, near), ("closed", "quadratic", "closed")),
        (_design_file(tmp_path / "raw.txt", lattice, raw), ("closed", "quadratic", "closed")),
        (data_path("mcd_16run_1"), ("closed", "closed", "closed")),  # one row block
    ]


def test_eval_and_compare_take_the_cheaper_route(capsys, tmp_path):
    for path, routes in _route_files(tmp_path):
        design = read_design(path)
        for (flags, closed), route in zip(
            [(("eval", "--criterion", "wd"), wd_squared), (("eval", "--criterion", "dd"), dd),
             (("compare",), qqd_squared)],
            routes,
        ):
            code, out, _ = run(capsys, *flags, "--json", path)
            assert code == 0
            payload = json.loads(out)
            if flags[0] == "compare":
                [payload] = payload
                assert list(payload) == ["rank", "file", "qqd_squared", "gap", "route"]
                value = payload["qqd_squared"]
            else:
                value = payload["value"]
                assert list(payload)[-1] == "route"
            assert payload["route"] == route, (path, flags)
            if route == "closed":
                assert value == closed(design)
            else:
                assert abs(value - closed(design)) <= 1e-12
            code, out, _ = run(capsys, *flags, path)
            assert code == 0
            if flags[0] == "compare":
                assert out.split()[3] == route
            else:
                assert out.startswith(f"{route} route: ")


def test_dd_refuses_overflowing_weights_on_both_routes(capsys, tmp_path):
    lattice, routes = _route_files(tmp_path)[0]
    assert routes[1] == "quadratic"
    for path in (lattice, data_path("juxtaposed_16run_2")):
        code, out, err = run(capsys, "eval", "--criterion", "dd", "--a", "1e308", "--b", "1e-308",
                             path)
        assert code == 2
        assert out == ""
        assert "kernel weights overflow" in err and err.count("\n") == 1


@pytest.mark.parametrize(
    "flags, named",
    [
        (("--criterion", "wd", "--a", "9", "--b", "1"), "--a"),
        (("--criterion", "wd", "--b", "1"), "--b"),
        (("--criterion", "swd", "--a", "9", "--b", "1"), "--a"),
    ],
)
def test_eval_refuses_flags_its_criterion_ignores(capsys, flags, named):
    code, out, err = run(capsys, "eval", data_path("juxtaposed_16run_2"), *flags)
    assert code == 1
    assert out == ""
    assert err == f"error: {named} does not apply to --criterion {flags[1]}\n"


def test_eval_non_lattice_design_skips_quadratic(capsys):
    code, out, _ = run(capsys, "eval", data_path("ccd_full_1"))
    assert code == 0
    assert "not applicable" in out


def test_eval_accepts_json_design_files(capsys, tmp_path):
    from qqdesign import read_design, write_design

    design = read_design(data_path("mcd_8run_2"))
    path = tmp_path / "d.json"
    write_design(design, path)
    code, out, _ = run(capsys, "eval", str(path))
    assert code == 0
    assert abs(float(out.splitlines()[0].split("=")[1]) - 0.0164) < 5e-5


def test_eval_missing_file(capsys):
    code, _, err = run(capsys, "eval", "no-such-file.txt")
    assert code == 1
    assert "error" in err


def test_eval_domain_error_exit_code(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 1 1\n2 2\n0 0\n1 7\n")
    code, _, err = run(capsys, "eval", str(path))
    assert code == 2
    assert "row 1" in err


def test_usage_error_exit_code(capsys):
    code, _, _ = run(capsys, "eval", data_path("mcd_8run_1"), "--criterion", "nope")
    assert code == 1


VALID_JSON = {"n": 2, "p": 1, "q": 1, "levels": [2, 2], "rows": [[0, 0], [1, 1]]}


@pytest.mark.parametrize(
    "column, entry", [(c, e) for c in (0, 1) for e in ("1", None, True)]
)
def test_eval_rejects_json_entries_that_are_not_numbers(capsys, tmp_path, column, entry):
    rows = [[0, 0], [1, 1]]
    rows[1][column] = entry
    path = tmp_path / "d.json"
    path.write_text(json.dumps({**VALID_JSON, "rows": rows}))
    code, _, err = run(capsys, "eval", str(path))
    assert code == 1
    assert f"row 1, column {column}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("field, value", [("n", "x"), ("levels", [2, "2"]), ("rows", 5)])
def test_eval_rejects_json_fields_of_the_wrong_type(capsys, tmp_path, field, value):
    path = tmp_path / "d.json"
    path.write_text(json.dumps({**VALID_JSON, field: value}))
    code, _, err = run(capsys, "eval", str(path))
    assert code == 1
    assert repr(field) in err
    assert "Traceback" not in err


def test_eval_directory_is_an_unreadable_file(capsys, tmp_path):
    code, _, err = run(capsys, "eval", str(tmp_path))
    assert code == 1
    assert "cannot read design file" in err
    assert "Traceback" not in err


def test_eval_binary_file_is_an_unreadable_file(capsys, tmp_path):
    path = tmp_path / "d.bin"
    path.write_bytes(bytes(range(128, 256)))
    code, _, err = run(capsys, "eval", str(path))
    assert code == 1
    assert "cannot read design file" in err
    assert "Traceback" not in err


def test_design_files_are_read_as_utf8_with_or_without_a_byte_order_mark(capsys, tmp_path):
    design = read_design(data_path("ccd_full_3"))
    for name in ("design.txt", "design.json"):
        plain, marked = tmp_path / name, tmp_path / f"bom-{name}"
        write_design(design, plain)
        marked.write_bytes(codecs.BOM_UTF8 + plain.read_bytes())
        assert read_design(marked) == read_design(plain) == design
        code, out, err = run(capsys, "eval", "--json", str(marked))
        assert (code, err) == (0, "")
        assert json.loads(out)["value"] == qqd_squared(design)
    invalid = tmp_path / "invalid.txt"
    invalid.write_bytes(b"2 1 1\n2 2\n0 0.5\n1 0.\xe9\n")
    code, out, err = run(capsys, "eval", str(invalid))
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: cannot read design file {str(invalid)!r}: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "text, message",
    [
        ("1 1 0\n99999999999999999999999\n99999999999999999999\n", "level count"),
        ("1 0 1\n99999999999999999999999\n99999999999999999999\n", "level count"),
        ("1 1 0\n2\n99999999999999999999\n", "64-bit"),
        ("1 1 0\n2\n-99999999999999999999\n", "64-bit"),
    ],
)
def test_eval_rejects_integers_beyond_int64(capsys, tmp_path, text, message):
    path = tmp_path / "d.txt"
    path.write_text(text)
    code, _, err = run(capsys, "eval", str(path))
    assert code == 2
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "weights, message",
    [
        (("--a", "inf", "--b", "1"), "kernel weights need finite"),
        (("--a", "1e308", "--b", "1e-308"), "kernel weights overflow"),
        (("--criterion", "dd", "--a", "1e308", "--b", "1e-308"), "kernel weights overflow"),
        # (a/b)^2 overflows numpy's power: no warning may precede the error
        (("--a", "1e300", "--b", "1"), "kernel weights overflow"),
    ],
)
def test_eval_refuses_non_finite_kernel_weights(capsys, weights, message):
    # two qualitative factors, so the table of (a/b)^k reaches k = 2
    code, out, err = run(capsys, "eval", "--json", *weights, data_path("juxtaposed_16run_2"))
    assert code == 2
    assert out == ""
    assert message in err
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_eval_prints_an_out_of_range_quantitative_entry_as_a_plain_float(capsys, tmp_path):
    path = tmp_path / "d.txt"
    path.write_text("2 1 1\n2 2\n0 1.5\n1 0.25\n")
    code, out, err = run(capsys, "eval", str(path))
    assert code == 2
    assert out == ""
    assert err == "error: quantitative entry 1.5 at row 0, column 1 outside [0, 1]\n"


def test_search_out_into_a_directory_exits_1(capsys, tmp_path):
    code, _, err = run(
        capsys, "search", "--n", "4", "--p", "1", "--q", "1", "--levels", "2,2",
        "--budget", "10", "--restarts", "1", "--out", str(tmp_path),
    )
    assert code == 1
    assert "Traceback" not in err


# ----------------------------------------------------------------------- bounds

def test_bounds_4run_spec(capsys):
    code, out, _ = run(
        capsys, "bounds", "--n", "4", "--p", "1", "--q", "2", "--levels", "4,2,2"
    )
    assert code == 0
    lb2_line = next(l for l in out.splitlines() if l.startswith("LB2"))
    assert abs(float(lb2_line.split("=")[1]) - 0.1706) < 5e-5
    assert "(lb2)" in out


def test_bounds_level_repeat_syntax(capsys):
    code, out, _ = run(
        capsys, "bounds", "--n", "8", "--p", "7", "--q", "7", "--levels", "2^7,4^7"
    )
    assert code == 0
    lb1_line = next(l for l in out.splitlines() if l.startswith("LB1"))
    assert abs(float(lb1_line.split("=")[1]) - 17.0235) < 5e-4


def test_bounds_lb2_not_applicable(capsys):
    code, out, _ = run(
        capsys, "bounds", "--n", "6", "--p", "1", "--q", "1", "--levels", "2,3"
    )
    assert code == 0
    assert "LB2 = n/a" in out


def test_bounds_full_factorial_reference(capsys):
    code, out, _ = run(
        capsys, "bounds", "--n", "8", "--p", "1", "--q", "1", "--levels", "2,2", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert "full_factorial" in payload


@pytest.mark.parametrize("levels", ["4,x,2", "2^x"])
def test_bounds_unreadable_levels_are_a_usage_error(capsys, levels):
    code, _, err = run(
        capsys, "bounds", "--n", "4", "--p", "1", "--q", "2", "--levels", levels
    )
    assert code == 1
    assert "--levels" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["bounds", "--n", "12", "--p", "0", "--q", "0", "--levels=--"], "--levels"),
        (["eval", data_path("mcd_8run_1"), "--a=--"], "--a"),
        (["search", "--n", "4", "--p", "1", "--q", "1", "--levels", "2,2", "--out=--"], "--out"),
    ],
)
def test_option_value_of_two_dashes_is_a_usage_error(capsys, argv, flag):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == f"error: argument {flag}: expected one argument\n"


def test_bounds_refuses_a_level_count_over_lb1s_cap_at_once(capsys):
    s = str(2**40)
    code, out, err = run(capsys, "bounds", "--n", s, "--p", "1", "--q", "1", "--levels", f"{s},{s}")
    assert code == 2
    assert out == ""
    assert err == f"error: quantitative level count {s} exceeds lb1's cap {2**20}\n"


def test_bounds_refuses_lb2_work_over_its_cap(capsys):
    argv = ["bounds", "--n", "64", "--p", "200", "--q", "300", "--levels", "4^200,2^300"]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == ("error: lb2 at p=200, q=300 exceeds its cap: "
                   "(p+1)(q+1)(p+q)^2 = 15125250000 > 10000000000\n")


def test_bounds_that_overflow_a_float_end_in_one_error_line(capsys):
    argv = ["bounds", "--n", "2", "--p", "0", "--q", "2500", "--levels", "2^2500"]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == "error: lb1 overflows a float at p=0, q=2500\n"


def test_bounds_has_no_tol_flag(capsys):
    code, _, err = run(
        capsys, "bounds", "--n", "4", "--p", "1", "--q", "2", "--levels", "4,2,2",
        "--tol", "5",
    )
    assert code == 1
    assert "--tol" in err


def test_bounds_infeasible_spec(capsys):
    code, _, err = run(
        capsys, "bounds", "--n", "5", "--p", "1", "--q", "1", "--levels", "2,5"
    )
    assert code == 2
    assert "does not divide" in err


@pytest.mark.parametrize("command", ["bounds", "search"])
@pytest.mark.parametrize("p, q", [("-3", "1"), ("1", "-1")])
def test_a_negative_factor_count_is_refused_before_the_levels(capsys, command, p, q):
    # the level list is not measured against a negative p + q
    code, out, err = run(capsys, command, "--n", "4", "--p", p, "--q", q, "--levels", "2")
    assert code == 2
    assert out == ""
    assert err == "error: factor counts must be non-negative\n"


@pytest.mark.parametrize("command", ["bounds", "search"])
@pytest.mark.parametrize("levels", ["2", "", "2,x"])
def test_no_factors_is_refused_before_the_levels(capsys, command, levels):
    # p + q = 0 gives the spec's refusal, whatever --levels says
    code, out, err = run(capsys, command, "--n", "4", "--p", "0", "--q", "0", "--levels", levels)
    assert code == 2
    assert out == ""
    assert err == "error: at least one factor is required\n"


# ---------------------------------------------------------------------- balance

def test_balance_command(capsys):
    code, out, _ = run(capsys, "balance", data_path("bound_attaining_4run"), "--json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["aggregate"]) == 3
    assert payload["aggregate"][0] == 0.0


def test_balance_text_with_components(capsys):
    code, out, _ = run(capsys, "balance", data_path("bound_attaining_4run"), "--components")
    assert code == 0
    assert "B_1" in out and "columns" in out


def test_balance_json_components_payload_and_key_order(capsys):
    code, out, _ = run(capsys, "balance", data_path("ccd_factorial_3"), "--json", "--components")
    assert code == 0
    # byte for byte, so the components keep their order: by size, then lexicographic
    assert out == (
        '{"aggregate": [0.0, 1.3333333333333333, 2.0], "components": {"0": 0.0, "1": 0.0, '
        '"2": 0.0, "0,1": 4.0, "0,2": 0.0, "1,2": 0.0, "0,1,2": 2.0}}\n'
    )


def test_balance_aggregate_comes_from_the_row_form_beyond_the_subset_cap(
    capsys, monkeypatch, tmp_path
):
    import qqdesign.balance as balance_module
    from qqdesign import DesignSpec, balance_pattern_rowform, random_utype, write_design

    def refuse(*args):
        raise AssertionError("balance without --components must not list subsets")

    monkeypatch.setattr(balance_module, "_subset_agreements", refuse)
    design = random_utype(DesignSpec(n=2, p=11, q=11, levels=(2,) * 22), 3)
    path = tmp_path / "wide.txt"
    write_design(design, str(path))
    code, out, _ = run(capsys, "balance", str(path), "--json")
    assert code == 0
    assert json.loads(out) == {"aggregate": list(balance_pattern_rowform(design).aggregate)}


def test_balance_rejects_mixed_level_types(capsys):
    code, _, err = run(capsys, "balance", data_path("mcd_16run_1"))
    assert code == 0  # 2-level qualitative, 16-level quantitative: still two-type
    code, _, err = run(capsys, "balance", data_path("ccd_full_1"))
    assert code == 2  # not U-type
    assert "U-type" in err


# ---------------------------------------------------------------------- compare

def test_compare_ranks_the_16run_trio(capsys):
    code, out, _ = run(
        capsys,
        "compare",
        data_path("mcd_16run_1"),
        data_path("mcd_16run_2"),
        data_path("mcd_16run_3"),
    )
    assert code == 0
    lines = [l for l in out.splitlines() if l.strip() and not l.startswith("note")]
    assert "mcd_16run_3" in lines[0]
    assert "mcd_16run_2" in lines[1]
    assert "mcd_16run_1" in lines[2]
    values = [float(l.split()[1]) for l in lines]
    assert values == sorted(values)


def test_compare_juxtaposed_pair(capsys):
    code, out, _ = run(
        capsys,
        "compare",
        data_path("juxtaposed_16run_1"),
        data_path("juxtaposed_16run_2"),
        "--json",
    )
    assert code == 0
    rows = json.loads(out)
    assert rows[0]["file"].endswith("juxtaposed_16run_2.txt")
    assert abs(rows[0]["qqd_squared"] - 0.0545) < 5e-5
    assert abs(rows[1]["qqd_squared"] - 0.0822) < 5e-5


def test_compare_file_with_itself_ties(capsys):
    code, out, _ = run(
        capsys, "compare", data_path("mcd_8run_1"), data_path("mcd_8run_1")
    )
    assert code == 0
    assert "ties" in out
    ranks = [int(l.split()[0]) for l in out.splitlines() if not l.startswith("note")]
    assert ranks == [1, 1]


def test_compare_spec_mismatch(capsys):
    code, _, err = run(
        capsys, "compare", data_path("mcd_8run_1"), data_path("mcd_16run_1")
    )
    assert code == 2
    assert "differs" in err


# ----------------------------------------------------------------------- search

def test_search_attains_bound_and_round_trips(capsys, tmp_path):
    out_path = tmp_path / "best.txt"
    code, out, _ = run(
        capsys,
        "search",
        "--n", "4", "--p", "1", "--q", "2", "--levels", "4,2,2",
        "--budget", "10000", "--seed", "1", "--out", str(out_path), "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["terminated_by"] == "bound"
    assert abs(payload["best_value"] - 0.1706) < 5e-5
    written = read_design(out_path)
    from qqdesign import qqd_squared

    assert qqd_squared(written) == pytest.approx(payload["best_value"], abs=1e-12)


def test_search_json_design_output(capsys, tmp_path):
    out_path = tmp_path / "best.json"
    code, out, _ = run(
        capsys,
        "search",
        "--n", "4", "--p", "1", "--q", "2", "--levels", "4,2,2",
        "--budget", "5000", "--seed", "1", "--out", str(out_path), "--json",
    )
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert set(payload) == {"n", "p", "q", "levels", "rows"}
    best = json.loads(out)
    from qqdesign import qqd_squared

    assert qqd_squared(read_design(out_path)) == pytest.approx(
        best["best_value"], abs=1e-12
    )


def test_search_json_reports_proposal_stats(capsys):
    code, out, _ = run(
        capsys,
        "search",
        "--n", "8", "--p", "1", "--q", "2", "--levels", "2,8,8",
        "--budget", "400", "--restarts", "2", "--seed", "3", "--json",
    )
    stats = json.loads(out)["stats"]
    assert set(stats) == {
        "proposals", "noops", "accepted", "improving", "equal", "worsening", "rejected"
    }
    assert stats["proposals"] == 800
    assert stats["proposals"] == stats["noops"] + stats["accepted"] + stats["rejected"]
    assert stats["accepted"] == stats["improving"] + stats["equal"] + stats["worsening"]


def test_search_negative_seed_exits_2_in_one_line(capsys):
    code, out, err = run(
        capsys, "search", "--n", "4", "--p", "1", "--q", "2", "--levels", "4,2,2",
        "--seed", "-1",
    )
    assert code == 2
    assert out == ""
    assert err == "error: seed must be >= 0, got -1\n"


def test_search_drift_exit_code_without_traceback(capsys, monkeypatch):
    import qqdesign.search as search_module

    monkeypatch.setattr(search_module, "qqd_squared", lambda design: -1.0)
    code, out, err = run(
        capsys,
        "search",
        "--n", "4", "--p", "1", "--q", "2", "--levels", "4,2,2",
        "--budget", "100", "--seed", "1", "--json",
    )
    assert code == 5
    assert out == ""
    assert err.startswith("error: incremental objective drifted")
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


def test_search_zero_budget(capsys):
    code, out, _ = run(
        capsys,
        "search",
        "--n", "8", "--p", "1", "--q", "2", "--levels", "2,8,8",
        "--budget", "0", "--restarts", "1", "--seed", "21", "--json",
    )
    payload = json.loads(out)
    assert len(payload["trace"]) == 1  # initial design only
    assert code == 4  # bound not attained


@pytest.mark.parametrize("budget", [0, 3, 200])
def test_search_exits_0_exactly_when_it_stopped_at_a_bound_within_tolerance(capsys, budget):
    # U(4; 2.2) and U(8; 2.2^2) reach their bounds, U(6; 2.3) never does,
    # and U(1; 1.1)'s one design is its bound
    outcomes = set()
    for n, p, q, levels in [(4, 1, 1, "2,2"), (8, 1, 2, "2,2,2"), (6, 1, 1, "2,3"),
                            (1, 1, 1, "1,1")]:
        for seed in range(8):
            code, out, _ = run(
                capsys, "search", "--json", "--n", str(n), "--p", str(p), "--q", str(q),
                "--levels", levels, "--budget", str(budget), "--restarts", "2",
                "--seed", str(seed),
            )
            payload = json.loads(out)
            attained = code == 0
            assert code in (0, 4)
            assert attained == (payload["terminated_by"] == "bound")
            assert attained == (payload["gap"] <= BOUND_TOL)
            outcomes.add(attained)
    assert outcomes == {True, False}


def test_search_flag_defaults_are_search_config_defaults(capsys):
    # U(6; 2.3) never reaches its bound, so every restart spends the whole budget
    spec = DesignSpec(n=6, p=1, q=1, levels=(2, 3))
    code, out, _ = run(capsys, "search", "--json", "--n", "6", "--p", "1", "--q", "1",
                       "--levels", "2,3")
    payload = json.loads(out)
    result = search_uniform(spec, SearchConfig())
    assert code == 4
    assert payload["stats"]["proposals"] == result.stats.proposals == 4 * 10_000
    assert payload["trace"] == [list(t) for t in result.trace]
    assert payload["best_value"] == result.best_value


def test_search_from_a_start_file(capsys, tmp_path):
    spec = ("--n", "4", "--p", "1", "--q", "2", "--levels", "4,2,2")
    start = data_path("bound_attaining_4run")
    code, out, _ = run(capsys, "search", "--json", *spec, "--start", start)
    payload = json.loads(out)
    assert code == 0
    assert payload["terminated_by"] == "bound"
    assert payload["stats"]["proposals"] == 0
    assert payload["trace"] == [[0, payload["best_value"]]]
    # a start file of another spec is a usage error
    code, out, err = run(capsys, "search", *spec, "--start", data_path("mcd_8run_1"))
    assert (code, out) == (1, "")
    assert err == f"error: --start {data_path('mcd_8run_1')}: spec differs from the one searched\n"
    # the bound certifies only U-type designs
    code, out, err = run(capsys, "search", "--n", "10", "--p", "1", "--q", "2", "--levels",
                         "2,5,5", "--start", data_path("ccd_full_1"))
    assert (code, out) == (2, "")
    assert err == "error: start must be a U-type design; column 0: level 0 occurs 6 times, expected 5\n"
    code, _, err = run(capsys, "search", *spec, "--start", str(tmp_path / "missing.txt"))
    assert code == 1
    assert "Traceback" not in err


def test_search_n_equals_N_attains_formula(capsys):
    code, out, _ = run(
        capsys,
        "search",
        "--n", "4", "--p", "1", "--q", "1", "--levels", "2,2",
        "--budget", "2000", "--seed", "0", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["best_value"] - 11 / 192) < 1e-9


# -------------------------------------------------------------------- reproduce

def test_reproduce_all_pass(capsys):
    code, out, _ = run(capsys, "reproduce")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
    assert len(lines) >= 20
    assert all(l.startswith("PASS") for l in lines)


def test_reproduce_json(capsys):
    code, out, _ = run(capsys, "reproduce", "--json")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) >= 20
    assert all(r["passed"] for r in rows)


def test_reproduce_loads_and_evaluates_each_reference_design_once(capsys, monkeypatch):
    import qqdesign.reference as reference

    calls = {"load_reference_design": 0, "qqd_squared": 0, "swd": 0}
    for name in calls:
        def counted(*args, _orig=getattr(reference, name), _name=name):
            calls[_name] += 1
            return _orig(*args)

        monkeypatch.setattr(reference, name, counted)
    code, _, _ = run(capsys, "reproduce", "--json")
    assert code == 0
    assert calls == {"load_reference_design": 18, "qqd_squared": 18, "swd": 2}


def test_reproduce_fails_under_impossible_tolerance(capsys):
    code, out, _ = run(capsys, "reproduce", "--tol", "1e-9")
    assert code == 3
    assert "FAIL" in out
    assert out.splitlines()[-1].endswith("/29 checks passed")


@pytest.mark.parametrize("tol", ["nan", "-1", "inf", "1e999"])
@pytest.mark.parametrize(
    "argv", [["compare", data_path("mcd_16run_1"), data_path("mcd_16run_2")], ["reproduce"]],
    ids=["compare", "reproduce"],
)
def test_tol_refuses_nan_and_negative_values(capsys, argv, tol):
    code, out, err = run(capsys, *argv, "--tol", tol)
    assert code == 1
    assert out == ""
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert errors == [f"error: argument --tol: expected a finite non-negative number, got '{tol}'"]


# ----------------------------------------------------------------- output forms

REPRODUCE_TEXT = """\
PASS  qqd^2 mcd_8run_1                                        expected    0.0213  computed    0.021284  |err| 1.57e-05
PASS  qqd^2 mcd_8run_2                                        expected    0.0164  computed    0.016402  |err| 1.50e-06
PASS  qqd^2 mcd_16run_1                                       expected    0.0066  computed    0.006585  |err| 1.48e-05
PASS  qqd^2 mcd_16run_2                                       expected    0.0063  computed    0.006274  |err| 2.60e-05
PASS  qqd^2 mcd_16run_3                                       expected    0.0060  computed    0.006010  |err| 1.03e-05
PASS  qqd^2 juxtaposed_16run_1                                expected    0.0822  computed    0.082248  |err| 4.83e-05
PASS  qqd^2 juxtaposed_16run_2                                expected    0.0545  computed    0.054538  |err| 3.83e-05
PASS  qqd^2 juxtaposed_16run_same                             expected    0.0813  computed    0.081272  |err| 2.83e-05
PASS  qqd^2 bound_attaining_4run                              expected    0.1706  computed    0.170573  |err| 2.71e-05
PASS  qqd^2 bound_attaining_8run                              expected   17.0235  computed   17.023528  |err| 2.77e-05
PASS  qqd^2 ccd_factorial_1                                   expected    0.2255  computed    0.225477  |err| 2.26e-05
PASS  qqd^2 ccd_factorial_2                                   expected    0.2255  computed    0.225477  |err| 2.26e-05
PASS  qqd^2 ccd_factorial_3                                   expected    0.1766  computed    0.176649  |err| 4.93e-05
PASS  qqd^2 ccd_factorial_4                                   expected    0.1571  computed    0.157118  |err| 1.81e-05
PASS  qqd^2 ccd_full_1                                        expected    0.0763  computed    0.076316  |err| 1.65e-05
PASS  qqd^2 ccd_full_2                                        expected    0.0795  computed    0.079477  |err| 2.33e-05
PASS  qqd^2 ccd_full_3                                        expected    0.0792  computed    0.079209  |err| 8.60e-06
PASS  qqd^2 ccd_full_4                                        expected    0.0653  computed    0.065281  |err| 1.91e-05
PASS  is_mcd mcd_8run_1                                       expected    1.0000  computed    1.000000  |err| 0.00e+00
PASS  is_mcd mcd_8run_2                                       expected    1.0000  computed    1.000000  |err| 0.00e+00
PASS  is_mcd mcd_16run_1                                      expected    1.0000  computed    1.000000  |err| 0.00e+00
PASS  is_mcd mcd_16run_2                                      expected    1.0000  computed    1.000000  |err| 0.00e+00
PASS  is_mcd mcd_16run_3                                      expected    1.0000  computed    1.000000  |err| 0.00e+00
PASS  swd juxtaposed_16run_2                                  expected    1.1055  computed    1.105527  |err| 2.75e-05
PASS  swd juxtaposed_16run_same                               expected    1.0999  computed    1.099944  |err| 4.39e-05
PASS  ordering qqd^2: duplicated-column variant is worse      expected    1.0000  computed    1.000000  |err| 0.00e+00  [difference +0.026733]
PASS  ordering swd: naive criterion prefers the worse design  expected    1.0000  computed    1.000000  |err| 0.00e+00  [difference -0.005584]
PASS  lb2(n=4, p=1, q=2, s=4)                                 expected    0.1706  computed    0.170573  |err| 2.71e-05
PASS  lb1 for U(8, 2^7 4^7)                                   expected   17.0235  computed   17.023528  |err| 2.77e-05
29/29 checks passed
"""


@pytest.mark.parametrize(
    "argv, text",
    [
        (["balance", "--components", data_path("ccd_factorial_3")], """\
B_1 = 0.000000
B_2 = 1.333333
B_3 = 2.000000
  columns (0,): 0.000000
  columns (0, 1): 4.000000
  columns (0, 1, 2): 2.000000
  columns (0, 2): 0.000000
  columns (1,): 0.000000
  columns (1, 2): 0.000000
  columns (2,): 0.000000
"""),
        (["balance", "--components", data_path("juxtaposed_16run_1")], """\
B_1 = 0.000000
B_2 = 10.666667
B_3 = 16.000000
B_4 = 12.000000
  columns (0,): 0.000000
  columns (0, 1): 0.000000
  columns (0, 1, 2): 48.000000
  columns (0, 1, 2, 3): 12.000000
  columns (0, 1, 3): 0.000000
  columns (0, 2): 32.000000
  columns (0, 2, 3): 8.000000
  columns (0, 3): 0.000000
  columns (1,): 0.000000
  columns (1, 2): 32.000000
  columns (1, 2, 3): 8.000000
  columns (1, 3): 0.000000
  columns (2,): 0.000000
  columns (2, 3): 0.000000
  columns (3,): 0.000000
"""),
        (["bounds", "--n", "8", "--p", "1", "--q", "2", "--levels", "2,2,2"], """\
LB1 = 0.137872
LB2 = 0.155165
LB  = 0.155165 (lb2)
full factorial qqd^2 = 0.155165 (n is a multiple of N)
"""),
        (["compare", *(data_path(f"mcd_16run_{k}") for k in (1, 2, 3))], f"""\
   1  0.006010   0.011728  closed     {data_path("mcd_16run_3")}
   2  0.006274   0.011992  closed     {data_path("mcd_16run_2")}
   3  0.006585   0.012303  closed     {data_path("mcd_16run_1")}
"""),
        (["search", "--n", "6", "--p", "1", "--q", "1", "--levels", "2,3", "--budget", "50",
          "--restarts", "1"], """\
best qqd^2 = 0.025463
bound      = 0.020039 (lb1)
gap        = 5.424115e-03
terminated by schedule
"""),
        (["reproduce"], REPRODUCE_TEXT),
    ],
    ids=["balance-ccd_factorial_3", "balance-juxtaposed_16run_1", "bounds", "compare", "search",
         "reproduce"],
)
def test_text_output_byte_for_byte(capsys, argv, text):
    code, out, err = run(capsys, *argv)
    assert code == (4 if argv[0] == "search" else 0)
    assert (out, err) == (text, "")


def test_json_output_builds_no_text(capsys, monkeypatch, tmp_path):
    import qqdesign.cli as cli

    spec = ("--n", "4", "--p", "1", "--q", "2", "--levels", "4,2,2")
    design = data_path("bound_attaining_4run")
    cases = [
        ("eval", design),
        ("bounds", *spec),
        ("balance", "--components", design),
        ("compare", data_path("mcd_16run_1"), data_path("mcd_16run_2")),
        ("search", *spec, "--budget", "100", "--seed", "1", "--out", str(tmp_path / "d.txt")),
        ("search", "--n", "6", "--p", "1", "--q", "1", "--levels", "2,3", "--budget", "20"),
        ("reproduce",),
    ]
    expected = [run(capsys, *argv, "--json") for argv in cases]
    written = (tmp_path / "d.txt").read_text()
    (tmp_path / "d.txt").unlink()

    def refuse(*args):
        raise AssertionError("--json must not format text lines")

    monkeypatch.setattr(cli, "_fixed", refuse)
    assert [run(capsys, *argv, "--json") for argv in cases] == expected
    assert [code for code, _, _ in expected] == [0, 0, 0, 0, 0, 4, 0]
    assert (tmp_path / "d.txt").read_text() == written  # --out is written all the same


def test_balance_json_component_keys_follow_the_pattern_on_12_factors(capsys, tmp_path):
    from itertools import combinations

    from qqdesign import balance_pattern

    design = random_utype(DesignSpec(n=64, p=3, q=9, levels=(2,) * 12), 0)
    path = tmp_path / "m12.txt"
    write_design(design, str(path))
    pattern = balance_pattern(design)
    assert list(pattern.components) == [
        cols for k in range(1, 13) for cols in combinations(range(12), k)
    ]
    code, out, _ = run(capsys, "balance", "--json", "--components", str(path))
    assert code == 0
    components = json.loads(out)["components"]
    assert list(components) == [",".join(map(str, cols)) for cols in pattern.components]
    assert list(components.values()) == list(pattern.components.values())


# ------------------------------------------------------------------------- main

def test_main_builds_no_parser_after_import(capsys, monkeypatch, tmp_path):
    import argparse

    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    spec = ("--n", "4", "--p", "1", "--q", "2", "--levels", "4,2,2")
    design = data_path("bound_attaining_4run")
    codes = [
        run(capsys, "eval", design)[0],
        run(capsys, "bounds", *spec)[0],
        run(capsys, "balance", design)[0],
        run(capsys, "compare", design, design)[0],
        run(capsys, "search", *spec, "--budget", "10", "--out", str(tmp_path / "d.txt"))[0],
        run(capsys, "reproduce")[0],
        run(capsys, "bounds", "--no-such-flag")[0],
    ]
    assert codes == [0, 0, 0, 0, 0, 0, 1]
    assert built == []
