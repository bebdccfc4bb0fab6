import math
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qqdesign import (
    CheckReport,
    CriterionConfig,
    CapacityError,
    Defect,
    Design,
    DesignSpec,
    DomainError,
    StructureError,
    balance_component,
    coincidence_number,
    design_from_levels,
    frequency_vector,
    full_factorial,
    is_mcd,
    kernel_matrix,
    level_to_unit,
    random_utype,
    unit_to_level,
    validate_utype,
)
from qqdesign.reference import load_reference_design


# ---------------------------------------------------------------- DesignSpec

def test_spec_derived_fields():
    spec = DesignSpec(n=8, p=1, q=2, levels=(2, 8, 8))
    assert spec.m == 3
    assert spec.N == 128
    assert spec.qualitative_levels == (2,)
    assert spec.quantitative_levels == (8, 8)


def test_spec_product_is_exact_for_huge_level_counts():
    levels = (10**6,) * 5
    spec = DesignSpec(n=10**6, p=0, q=5, levels=levels)
    assert spec.N == 10**30  # no wrap-around


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(n=0, p=1, q=0, levels=(2,)),
        dict(n=4, p=0, q=0, levels=()),
        dict(n=4, p=1, q=1, levels=(2,)),
        dict(n=4, p=1, q=1, levels=(2, 0)),
        dict(n=4, p=-1, q=2, levels=(2,)),
    ],
)
def test_spec_rejects_bad_parameters(kwargs):
    with pytest.raises(DomainError):
        DesignSpec(**kwargs)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(n=4.0, p=1, q=1, levels=(2, 2)),
        dict(n=4, p=1.0, q=1, levels=(2, 2)),
        dict(n=4, p=1, q=True, levels=(2, 2)),
        dict(n=4, p=1, q=1, levels=(2.5, 2)),
        dict(n=4, p=1, q=1, levels=(2, np.float64(2))),
    ],
)
def test_spec_refuses_non_integer_counts(kwargs):
    with pytest.raises(DomainError, match="must be an integer"):
        DesignSpec(**kwargs)
    spec = DesignSpec(n=np.int64(4), p=1, q=1, levels=(np.int64(2), 2))  # numpy integers are fine
    assert spec.levels == (2, 2)


SPEC_4 = DesignSpec(n=4, p=1, q=1, levels=(2, 2))
DESIGN_4 = design_from_levels(SPEC_4, [[0], [1], [0], [1]], [[0], [0], [1], [1]])


@pytest.mark.parametrize(
    "call, named",
    [
        pytest.param(lambda: full_factorial(SPEC_4, 1.5), "repetitions", id="full_factorial-1.5"),
        pytest.param(lambda: full_factorial(SPEC_4, True), "repetitions", id="full_factorial-True"),
        pytest.param(lambda: coincidence_number(DESIGN_4, 0, 1.0), "row index",
                     id="coincidence_number-1.0"),
        pytest.param(lambda: kernel_matrix(1.0, SPEC_4), "factor index", id="kernel_matrix-1.0"),
        pytest.param(lambda: balance_component(DESIGN_4, [1.9]), "column index",
                     id="balance_component-1.9"),
        pytest.param(lambda: balance_component(DESIGN_4, ["1"]), "column index",
                     id="balance_component-str"),
        pytest.param(lambda: level_to_unit(1, 2.0), "level count", id="level_to_unit-s-2.0"),
        pytest.param(lambda: unit_to_level(0.75, 2.0), "level count", id="unit_to_level-s-2.0"),
        pytest.param(lambda: level_to_unit(True, 2), "level", id="level_to_unit-True"),
    ],
)
def test_public_helpers_refuse_integer_arguments_that_are_not_integers(call, named):
    with pytest.raises(DomainError, match=f"^{named} must be an integer, got "):
        call()


def test_public_helpers_take_numpy_integers():
    i = np.int64
    assert full_factorial(SPEC_4, i(2)).spec.n == 8
    assert coincidence_number(DESIGN_4, i(0), np.int32(2)) == 1
    assert kernel_matrix(i(0), SPEC_4).tolist() == [[1.5, 1.25], [1.25, 1.5]]
    assert balance_component(DESIGN_4, [i(1)]) == 0.0
    assert level_to_unit(i(1), i(2)) == 0.75 and unit_to_level(0.75, i(2)) == 1


# ------------------------------------------------------------- level_to_unit

def test_level_to_unit_two_level_values():
    assert level_to_unit(0, 2) == 0.25
    assert level_to_unit(1, 2) == 0.75


def test_level_to_unit_reflection_symmetry():
    for s in range(1, 10):
        for x in range(s):
            assert level_to_unit(s - 1 - x, s) == pytest.approx(
                1 - level_to_unit(x, s), abs=1e-15
            )


def test_level_to_unit_strictly_increasing_and_invertible():
    for s in (1, 2, 3, 5, 8, 12):
        values = [level_to_unit(x, s) for x in range(s)]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert [unit_to_level(v, s) for v in values] == list(range(s))


def test_level_to_unit_out_of_range():
    with pytest.raises(DomainError):
        level_to_unit(2, 2)
    with pytest.raises(DomainError):
        level_to_unit(-1, 4)
    with pytest.raises(DomainError):
        unit_to_level(0.3, 2)
    for value in (math.nan, math.inf):
        with pytest.raises(DomainError, match="not a lattice point"):
            unit_to_level(value, 2)


def test_level_conversions_refuse_an_empty_factor_or_a_fractional_level():
    with pytest.raises(DomainError, match="level count must be >= 1"):
        unit_to_level(0.5, 0)
    with pytest.raises(DomainError, match="level must be an integer"):
        level_to_unit(2.5, 4)


def test_lattice_decoding_is_exact_at_the_int64_level_count():
    s = 2**63 - 1
    values = [[level_to_unit(0, s)], [level_to_unit(s - 1, s)]]
    design = Design(DesignSpec(n=2, p=0, q=1, levels=(s,)), [[], []], values)
    assert design.quantitative_as_levels()[:, 0].tolist() == [0, s - 1]
    assert unit_to_level(1.0, s) == s - 1


def test_quantitative_as_levels_names_the_first_off_lattice_entry():
    spec = DesignSpec(n=3, p=1, q=2, levels=(3, 3, 3))
    design = Design(spec, [[0], [1], [2]], [[0.5, 1 / 6], [0.5, 0.4], [0.3, 5 / 6]])
    with pytest.raises(DomainError, match=r"row 2, column 1: value 0.3 is not a lattice point"):
        design.quantitative_as_levels()
    assert not design.is_lattice()
    report = validate_utype(design)
    assert [d.column for d in report.defects] == [1, 2]
    assert all(d.message == "non-lattice quantitative column" for d in report.defects)


def _two_bad(entries, bad_a, bad_b):
    """A copy of ``entries`` with bad_a at (row 3, column 0) and bad_b at (row 0, column 1)."""
    entries = np.array(entries)
    entries[3, 0], entries[0, 1] = bad_a, bad_b
    return entries


FIRST_BAD_SPEC = DesignSpec(n=4, p=2, q=2, levels=(2, 2, 4, 4))
FIRST_BAD_QUAL = [[0, 0], [0, 1], [1, 0], [1, 1]]
FIRST_BAD_LEVELS = [[0, 1], [1, 2], [2, 3], [3, 0]]
FIRST_BAD_QUANT = [[0.125, 0.375], [0.375, 0.625], [0.625, 0.875], [0.875, 0.125]]


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Design(FIRST_BAD_SPEC, _two_bad(FIRST_BAD_QUAL, 2, 5), FIRST_BAD_QUANT),
         "qualitative entry 2 at row 3, column 0 outside 0..1"),
        (lambda: Design(FIRST_BAD_SPEC, FIRST_BAD_QUAL, _two_bad(FIRST_BAD_QUANT, 1.5, -0.5)),
         "quantitative entry 1.5 at row 3, column 2 outside [0, 1]"),
        (lambda: design_from_levels(FIRST_BAD_SPEC, FIRST_BAD_QUAL,
                                    _two_bad(FIRST_BAD_LEVELS, 4, -1)),
         "quantitative level 4 at row 3, column 2 outside 0..3"),
        (lambda: Design(FIRST_BAD_SPEC, FIRST_BAD_QUAL,
                        _two_bad(FIRST_BAD_QUANT, 0.3, 0.4)).quantitative_as_levels(),
         "row 3, column 2: value 0.3 is not a lattice point of a factor with 4 levels"),
    ],
    ids=["qualitative-range", "unit-interval", "level-range", "lattice"],
)
def test_checks_name_the_first_bad_entry_of_the_first_bad_column(build, message):
    # (0, 1) comes first row by row; the checks go column by column
    with pytest.raises(DomainError, match=re.escape(message)):
        build()


@pytest.mark.parametrize(
    "a, b", [(math.inf, 1.0), (math.nan, 1.0), (2.0, math.inf), (2.0, math.nan), (1.0, 1.0)]
)
def test_criterion_config_refuses_non_finite_or_unordered_weights(a, b):
    with pytest.raises(DomainError, match="kernel weights need finite a > b > 0"):
        CriterionConfig(a=a, b=b)


TYPED_SPEC = DesignSpec(n=4, p=1, q=1, levels=(4, 2))
TYPED_QUANT = [[0.25], [0.75], [0.25], [0.75]]


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Design(TYPED_SPEC, [[0.7], [1.2], [2], [3]], TYPED_QUANT),
         "qualitative levels: entry 0.7 at row 0, column 0 is not an integer"),
        (lambda: design_from_levels(TYPED_SPEC, [[0], [1], [2], [3]], [[0.5], [1], [0], [1]]),
         "quantitative levels: entry 0.5 at row 0, column 1 is not an integer"),
        (lambda: design_from_levels(TYPED_SPEC, [[0.9], [1], [2], [3]], [[0], [1], [0], [1]]),
         "qualitative levels: entry 0.9 at row 0, column 0 is not an integer"),
        # with both blocks bad, the qualitative columns come first
        (lambda: design_from_levels(TYPED_SPEC, [[0.9], [1], [2], [3]], [[0.5], [1], [0], [1]]),
         "qualitative levels: entry 0.9 at row 0, column 0 is not an integer"),
        (lambda: design_from_levels(TYPED_SPEC, [[4], [1], [2], [3]], [[0], [2], [0], [1]]),
         "qualitative entry 4 at row 0, column 0 outside 0..3"),
        (lambda: Design(TYPED_SPEC, np.array([[True], [False], [True], [False]]), TYPED_QUANT),
         "qualitative levels must be numbers, got bool entries"),
        (lambda: design_from_levels(TYPED_SPEC, [[0], [1], [2], [3]], np.ones((4, 1), bool)),
         "quantitative levels must be numbers, got bool entries"),
        (lambda: Design(TYPED_SPEC, [[0], [1], [math.inf], [3]], TYPED_QUANT),
         "qualitative levels: entry inf at row 2, column 0 is not an integer"),
        (lambda: design_from_levels(TYPED_SPEC, [[0], [1], [2], [3]], [[0], [math.nan], [0], [1]]),
         "quantitative levels: entry nan at row 1, column 1 is not an integer"),
        (lambda: Design(TYPED_SPEC, [[0], [1], [2]], TYPED_QUANT),
         "qualitative levels must have shape (4, 1): cannot reshape array of size 3"),
        (lambda: Design(TYPED_SPEC, [[0], [1], [2], [3]], TYPED_QUANT[:3]),
         "quantitative values must have shape (4, 1)"),
        (lambda: Design(TYPED_SPEC, [[0], [1], [2], [[3]]], TYPED_QUANT),
         "qualitative levels must have shape (4, 1)"),
        (lambda: Design(TYPED_SPEC, [["a"], ["b"], ["c"], ["d"]], TYPED_QUANT),
         "qualitative levels must be numbers, got <U1 entries"),
        (lambda: Design(TYPED_SPEC, [[0], [1], [2], [3]], [["x"], [0.75], [0.25], [0.75]]),
         "quantitative values must be numbers"),
        (lambda: Design(TYPED_SPEC, [[0], [1], [None], [3]], TYPED_QUANT),
         "qualitative levels: entry None at row 2, column 0 is not an integer"),
        (lambda: Design(TYPED_SPEC, [[0], [1], [2], [10**20]], TYPED_QUANT),
         "qualitative levels: an entry does not fit in a 64-bit integer"),
        (lambda: Design(TYPED_SPEC, [[0], [1], [2], [2**63]], TYPED_QUANT),  # uint64, not wrapped
         "qualitative levels: an entry does not fit in a 64-bit integer"),
        (lambda: unit_to_level("abc", 2), "a lattice value must be a number, got 'abc'"),
        (lambda: CriterionConfig(a="x"), "kernel weight a must be a number, got 'x'"),
        (lambda: CriterionConfig(a=None), "kernel weight a must be a number, got None"),
        (lambda: CriterionConfig(b=True), "kernel weight b must be a number, got True"),
    ],
    ids=["fractional-level", "fractional-quantitative-level", "fractional-qualitative-level",
         "fractional-levels-in-both-blocks", "levels-out-of-range-in-both-blocks",
         "bool-levels", "bool-quantitative-levels", "infinite-level", "nan-quantitative-level",
         "short-block", "short-values", "ragged-block", "string-levels", "string-values",
         "none-level", "level-beyond-int64", "uint64-level", "string-lattice-value",
         "string-weight", "missing-weight", "bool-weight"],
)
def test_constructors_refuse_what_is_not_a_number_of_their_kind(build, message):
    with pytest.raises(DomainError, match=re.escape(message)):
        build()


def test_integral_float_levels_are_levels():
    design = Design(TYPED_SPEC, [[0.0], [1.0], [2.0], [3]], TYPED_QUANT)
    assert design.qualitative.dtype == np.int64
    assert design.qualitative[:, 0].tolist() == [0, 1, 2, 3]
    levels = design_from_levels(TYPED_SPEC, [[0], [1], [2], [3]], [[0.0], [1.0], [0], [1]])
    assert levels == design


# --------------------------------------------------------------- constructors

def test_design_from_levels_two_level_lattice():
    design = load_reference_design("bound_attaining_4run")
    assert set(np.unique(design.quantitative)) == {0.25, 0.75}


def test_design_from_levels_empty_quantitative_part():
    spec = DesignSpec(n=4, p=1, q=0, levels=(2,))
    design = design_from_levels(spec, [[0], [0], [1], [1]], np.zeros((4, 0)))
    assert design.quantitative.shape == (4, 0)
    assert design.is_lattice()


def test_design_from_levels_full_factorial_rows_distinct():
    design = full_factorial(DesignSpec(n=4, p=1, q=1, levels=(2, 2)))
    rows = {(int(design.qualitative[r, 0]), float(design.quantitative[r, 0])) for r in range(4)}
    assert len(rows) == 4


def test_design_from_levels_reports_location():
    spec = DesignSpec(n=2, p=1, q=1, levels=(2, 4))
    with pytest.raises(DomainError, match=r"row 1, column 1"):
        design_from_levels(spec, [[0], [1]], [[0], [4]])
    with pytest.raises(DomainError, match=r"row 0, column 0"):
        design_from_levels(spec, [[2], [1]], [[0], [1]])


@pytest.mark.parametrize("s", [2, 3, 2**53 + 1, 2**62, 2**63 - 1])
def test_design_from_levels_places_levels_up_to_the_int64_level_count(s):
    levels = [0, 1, s // 2, s - 2, s - 1]
    spec = DesignSpec(n=len(levels), p=0, q=1, levels=(s,))
    design = design_from_levels(spec, [[]] * len(levels), [[x] for x in levels])
    for x, value in zip(levels, design.quantitative[:, 0].tolist()):
        assert 0.0 <= value <= 1.0
        expected = level_to_unit(x, s)
        assert abs(value - expected) <= math.ulp(expected)


def test_design_from_raw_axial_transform():
    r2 = math.sqrt(2)
    transform = lambda x: (x + r2) / (2 * r2)
    spec = DesignSpec(n=3, p=0, q=1, levels=(5,))
    design = Design(spec, np.zeros((3, 0)), [[transform(r2)], [transform(0)], [transform(-1)]])
    assert design.quantitative[0, 0] == 1.0
    assert design.quantitative[1, 0] == 0.5
    assert design.quantitative[2, 0] == pytest.approx((r2 - 1) / (2 * r2), abs=1e-15)


def test_design_from_raw_rejects_out_of_interval():
    spec = DesignSpec(n=1, p=0, q=1, levels=(2,))
    with pytest.raises(DomainError, match="row 0"):
        Design(spec, np.zeros((1, 0)), [[1.2]])


def test_design_arrays_are_immutable():
    design = load_reference_design("mcd_8run_1")
    with pytest.raises(ValueError):
        design.qualitative[0, 0] = 1
    with pytest.raises(ValueError):
        design.quantitative[0, 0] = 0.5


# -------------------------------------------------------------- validate_utype

def test_validate_utype_passes_on_reference_mcd():
    assert validate_utype(load_reference_design("mcd_8run_1")).passed


def test_validate_utype_indivisible_level_count():
    spec = DesignSpec(n=3, p=1, q=0, levels=(2,))
    design = design_from_levels(spec, [[0], [0], [1]], np.zeros((3, 0)))
    report = validate_utype(design)
    assert not report.passed
    assert "does not divide" in report.defects[0].message


def test_validate_utype_unbalanced_column():
    spec = DesignSpec(n=4, p=1, q=0, levels=(2,))
    design = design_from_levels(spec, [[0], [0], [0], [1]], np.zeros((4, 0)))
    report = validate_utype(design)
    assert not report.passed
    assert report.defects[0].column == 0


def test_validate_utype_ccd_is_not_utype():
    report = validate_utype(load_reference_design("ccd_full_1"))
    assert not report.passed
    assert any("non-lattice" in d.message for d in report.defects)


def _per_column_defects(design):
    """validate_utype's report, one column at a time by counting its entries."""
    spec = design.spec
    defects = []
    for k, s in enumerate(spec.levels):
        if spec.n % s:
            defects.append(Defect(f"level count {s} does not divide run count {spec.n}", column=k))
            continue
        values = (design.qualitative[:, k] if k < spec.p
                  else design.quantitative[:, k - spec.p] * s - 0.5)
        if k >= spec.p and np.abs(values - np.rint(values)).max() > 1e-6:
            defects.append(Defect("non-lattice quantitative column", column=k))
            continue
        counts = Counter(np.rint(values).astype(np.int64).tolist())
        want = spec.n // s
        off = [lev for lev in range(s) if counts[lev] != want]
        if off:
            message = f"level {off[0]} occurs {counts[off[0]]} times, expected {want}"
            defects.append(Defect(message, column=k, level=off[0]))
    return tuple(defects)


@st.composite
def _checkable_designs(draw):
    """Designs with balanced, unbalanced and off-lattice columns, and counts not dividing n."""
    n = draw(st.sampled_from([1, 2, 6, 12, 16, 24]))
    p, q = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    if p + q == 0:
        p = 1
    divisors = [s for s in range(1, n + 1) if n % s == 0]
    levels = tuple(
        draw(st.one_of(st.sampled_from(divisors), st.integers(1, 2 * n + 3)))
        for _ in range(p + q)
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = []
    for s in levels:
        kind = draw(st.sampled_from(["balanced", "random", "one off"]))
        if kind == "balanced" and n % s == 0:
            col = rng.permutation(np.repeat(np.arange(s), n // s))
        else:
            col = rng.integers(0, s, n)
            if kind == "one off" and n % s == 0:
                col = rng.permutation(np.repeat(np.arange(s), n // s))
                col[rng.integers(n)] = rng.integers(s)
        columns.append(col.astype(np.int64))
    spec = DesignSpec(n=n, p=p, q=q, levels=levels)
    qual = np.column_stack(columns[:p]) if p else np.zeros((n, 0), np.int64)
    quant = np.column_stack([(c + 0.5) / s for c, s in zip(columns[p:], levels[p:])]) if q \
        else np.zeros((n, 0))
    for j in range(q):
        if draw(st.booleans()) and draw(st.booleans()):  # a quarter of them off the lattice
            quant[rng.integers(n), j] = 0.25 / levels[p + j] + 1e-3 * rng.random()
    return Design(spec, qual, quant)


@settings(max_examples=200, deadline=None)
@given(design=_checkable_designs())
def test_validate_utype_matches_a_per_column_count(design):
    assert validate_utype(design).defects == _per_column_defects(design)


def test_validate_utype_on_every_full_factorial():
    for levels in [(2, 2), (3, 2), (4, 2, 2), (2, 3, 4)]:
        spec = DesignSpec(n=1, p=1, q=len(levels) - 1, levels=levels)
        assert validate_utype(full_factorial(spec, 2)).passed


# ------------------------------------------------------------------- is_mcd

@pytest.mark.parametrize(
    "name", ["mcd_8run_1", "mcd_8run_2", "mcd_16run_1", "mcd_16run_2", "mcd_16run_3"]
)
def test_is_mcd_reference_designs(name):
    assert is_mcd(load_reference_design(name)).passed


def test_is_mcd_duplicate_levels_is_not_lhd():
    spec = DesignSpec(n=4, p=1, q=1, levels=(2, 4))
    design = design_from_levels(spec, [[0], [0], [1], [1]], [[0], [0], [2], [3]])
    report = is_mcd(design)
    assert not report.passed
    assert "Latin hypercube" in report.defects[0].message


def test_is_mcd_broken_slice():
    # LHD columns, but level-0 rows land in the same coarse cell
    spec = DesignSpec(n=4, p=1, q=1, levels=(2, 4))
    design = design_from_levels(spec, [[0], [0], [1], [1]], [[0], [1], [2], [3]])
    report = is_mcd(design)
    assert not report.passed
    assert report.defects[0].factor == 0


def test_is_mcd_unbalanced_qualitative_column_skips_its_slices():
    # mcd_8run_1 with row 4 moved from level 1 to level 0: 5 zeros, 3 ones
    design = load_reference_design("mcd_8run_1")
    qual = design.qualitative.copy()
    qual[4, 0] = 0
    report = is_mcd(Design(design.spec, qual, design.quantitative))
    assert not report.passed
    assert [(d.factor, d.level, d.column) for d in report.defects] == [(0, 0, None)]
    assert report.defects[0].message == "qualitative column is not balanced"


def test_check_report_passed_is_derived_from_its_defects():
    report = CheckReport(())
    assert report.passed and bool(report)
    report = CheckReport((Defect("level 0 occurs 3 times, expected 2", column=0, level=0),))
    assert not report.passed and not report
    assert report.defects[0].factor is None


def test_is_mcd_structure_errors():
    spec = DesignSpec(n=4, p=1, q=0, levels=(2,))
    design = design_from_levels(spec, [[0], [0], [1], [1]], np.zeros((4, 0)))
    with pytest.raises(StructureError):
        is_mcd(design)
    spec = DesignSpec(n=4, p=1, q=1, levels=(2, 2))  # quantitative levels != n
    design = design_from_levels(spec, [[0], [0], [1], [1]], [[0], [1], [0], [1]])
    with pytest.raises(StructureError, match="needs n=4 levels"):
        is_mcd(design)
    spec = DesignSpec(n=4, p=1, q=1, levels=(3, 4))
    design = Design(spec, [[0], [1], [2], [2]], [[0.125], [0.375], [0.625], [0.875]])
    with pytest.raises(StructureError, match="does not divide"):
        is_mcd(design)


# ------------------------------------------------------------ frequency_vector

def test_frequency_vector_full_factorial_is_all_ones():
    spec = DesignSpec(n=1, p=1, q=1, levels=(2, 2))
    fv = frequency_vector(full_factorial(spec))
    assert np.array_equal(fv, np.ones(4, dtype=int))
    assert fv.sum() == 4


def test_frequency_vector_repetition_is_constant():
    for levels, p, c in [((2, 2), 1, 2), ((2, 3), 1, 3), ((2, 2, 4), 2, 2)]:
        spec = DesignSpec(n=1, p=p, q=len(levels) - p, levels=levels)
        fv = frequency_vector(full_factorial(spec, c))
        assert np.array_equal(fv, np.full(spec.N, c))


def test_frequency_vector_four_run_design_counts():
    fv = frequency_vector(load_reference_design("bound_attaining_4run"))
    assert fv.sum() == 4
    assert np.count_nonzero(fv == 1) == 4
    assert np.count_nonzero(fv == 0) == 12


def test_frequency_vector_row_permutation_invariant():
    design = load_reference_design("mcd_8run_2")
    rng = np.random.default_rng(11)
    perm = rng.permutation(design.spec.n)
    shuffled = Design(
        design.spec, design.qualitative[perm], design.quantitative[perm]
    )
    assert np.array_equal(
        frequency_vector(design), frequency_vector(shuffled)
    )


def test_frequency_vector_is_read_only():
    fv = frequency_vector(load_reference_design("bound_attaining_4run"))
    assert fv.dtype == np.int64
    with pytest.raises(ValueError):
        fv[0] = 7


def test_frequency_vector_rejects_non_lattice():
    with pytest.raises(DomainError, match="lattice"):
        frequency_vector(load_reference_design("ccd_full_1"))


def test_frequency_vector_refuses_more_level_combinations_than_an_array_can_index():
    spec = DesignSpec(n=2, p=0, q=2, levels=(2**40, 2**40))
    design = design_from_levels(spec, [[], []], [[0, 1], [1, 0]])
    with pytest.raises(CapacityError, match="1208925819614629174706176 level combinations"):
        frequency_vector(design)


@pytest.mark.parametrize("s", [2**31, 2**29])  # numpy: "array is too big", MemoryError
def test_frequency_vector_refuses_level_combinations_it_cannot_allocate(s):
    spec = DesignSpec(n=2, p=0, q=2, levels=(s, s))
    design = design_from_levels(spec, [[], []], [[0, 1], [1, 0]])
    with pytest.raises(CapacityError, match=f"{s * s} level combinations"):
        frequency_vector(design)


def test_frequency_vector_lexicographic_order_first_factor_slowest():
    spec = DesignSpec(n=2, p=1, q=1, levels=(2, 3))
    design = design_from_levels(spec, [[1], [1]], [[0], [2]])
    counts = frequency_vector(design)
    # index = qualitative * 3 + quantitative
    assert counts[3] == 1 and counts[5] == 1 and counts.sum() == 2


# ------------------------------------------------------------- full_factorial

def test_full_factorial_row_counts():
    spec = DesignSpec(n=1, p=1, q=1, levels=(2, 2))
    assert full_factorial(spec, 1).spec.n == 4
    assert full_factorial(spec, 2).spec.n == 8
    spec = DesignSpec(n=1, p=2, q=2, levels=(2, 2, 4, 4))
    assert full_factorial(spec, 1).spec.n == 64


def test_full_factorial_capacity_error():
    spec = DesignSpec(n=1, p=0, q=4, levels=(100, 100, 100, 100))
    with pytest.raises(CapacityError):
        full_factorial(spec)


def test_random_utype_always_passes_validate_utype():
    spec = DesignSpec(n=8, p=1, q=2, levels=(2, 8, 8))
    for seed in range(5):
        assert validate_utype(random_utype(spec, seed)).passed
