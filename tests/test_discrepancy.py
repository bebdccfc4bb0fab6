import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qqdesign import (
    CapacityError,
    CriterionConfig,
    Design,
    DesignSpec,
    DomainError,
    PairCache,
    balance_pattern,
    balance_pattern_rowform,
    coincidence_number,
    dd,
    design_from_levels,
    frequency_vector,
    full_factorial,
    kernel_matrix,
    qqd_squared,
    qqd_squared_quadratic,
    random_utype,
    swd,
    wd_squared,
)
from qqdesign import balance, discrepancy
from qqdesign.reference import DESIGN_NAMES, load_reference_design

# specs for randomized cross-checks; all have N <= 10^4
RANDOM_SPECS = [
    DesignSpec(n=8, p=1, q=2, levels=(2, 8, 8)),
    DesignSpec(n=16, p=1, q=2, levels=(2, 16, 16)),
    DesignSpec(n=16, p=2, q=2, levels=(2, 2, 4, 4)),
    DesignSpec(n=4, p=1, q=2, levels=(4, 2, 2)),
    DesignSpec(n=8, p=3, q=3, levels=(2, 2, 2, 4, 4, 4)),
    DesignSpec(n=12, p=2, q=1, levels=(2, 3, 4)),
    DesignSpec(n=6, p=1, q=1, levels=(3, 2)),
    DesignSpec(n=10, p=2, q=2, levels=(5, 2, 2, 5)),
    DesignSpec(n=9, p=1, q=1, levels=(3, 9)),
    DesignSpec(n=8, p=2, q=3, levels=(4, 2, 2, 4, 8)),
    DesignSpec(n=12, p=0, q=2, levels=(6, 4)),
    DesignSpec(n=12, p=2, q=0, levels=(6, 4)),
]


# --------------------------------------------------------- coincidence_number

def test_coincidence_identical_rows_is_p():
    design = load_reference_design("juxtaposed_16run_1")
    assert coincidence_number(design, 3, 3) == 2


def test_coincidence_fully_different_rows():
    spec = DesignSpec(n=2, p=2, q=0, levels=(2, 2))
    design = design_from_levels(spec, [[0, 0], [1, 1]], np.zeros((2, 0)))
    assert coincidence_number(design, 0, 1) == 0
    assert coincidence_number(design, 0, 0) == 2


def test_coincidence_mcd_rows_zero():
    design = load_reference_design("mcd_8run_1")
    assert coincidence_number(design, 0, 4) == 0  # qualitative levels 0 vs 1


def test_coincidence_index_error():
    with pytest.raises(DomainError):
        coincidence_number(load_reference_design("mcd_8run_1"), 0, 8)


# ----------------------------------------------------------------- qqd_squared

def test_qqd_reference_pair():
    assert qqd_squared(load_reference_design("mcd_8run_1")) == pytest.approx(0.0213, abs=5e-5)
    assert qqd_squared(load_reference_design("mcd_8run_2")) == pytest.approx(0.0164, abs=5e-5)


def test_qqd_full_factorial_without_quantitative_part_is_zero():
    for levels in [(2,), (3, 4), (2, 2, 2)]:
        spec = DesignSpec(n=1, p=len(levels), q=0, levels=levels)
        assert qqd_squared(full_factorial(spec, 2)) == pytest.approx(0.0, abs=1e-14)


def test_qqd_raw_ccd_design():
    assert qqd_squared(load_reference_design("ccd_full_4")) == pytest.approx(0.0653, abs=5e-5)


def test_qqd_single_point_design():
    # lone diagonal term: C + (3/2)^(p+q)
    spec = DesignSpec(n=1, p=1, q=1, levels=(1, 1))
    design = design_from_levels(spec, [[0]], [[0]])
    expected = -(6 / 4) * (4 / 3) + 1.5**2
    assert qqd_squared(design) == pytest.approx(expected, abs=1e-14)


def test_qqd_general_kernel_weights_hand_case():
    # n identical rows, p=1, s=2: C = -(a+b)/2 and the sum gives a, so (a-b)/2
    spec = DesignSpec(n=6, p=1, q=0, levels=(2,))
    design = design_from_levels(spec, np.zeros((6, 1), dtype=int), np.zeros((6, 0)))
    assert qqd_squared(design, CriterionConfig(a=2.0, b=1.0)) == pytest.approx(0.5, abs=1e-14)
    assert qqd_squared(design, CriterionConfig(a=1.75, b=1.5)) == pytest.approx(0.125, abs=1e-14)


def test_diagonal_terms_contribute_three_halves_power():
    # the i = j terms of the double sum contribute (1/n)(3/2)^(p+q)
    design = load_reference_design("mcd_16run_3")
    n, p, q = design.spec.n, design.spec.p, design.spec.q
    from qqdesign.discrepancy import _constant_term, _row_weights

    ratio_powers = (1.5 / 1.25) ** np.arange(p + 1)
    w = 1.25**p * _row_weights(
        design.qualitative, design.quantitative, slice(None), ratio_powers
    )
    off_diag = w - np.diag(np.diag(w))
    value_without_diag = (
        _constant_term(design.spec.qualitative_levels, q, 1.5, 1.25)
        + off_diag.sum() / n**2
    )
    assert qqd_squared(design) - value_without_diag == pytest.approx(
        (1 / n) * 1.5 ** (p + q), abs=1e-12
    )


def _dense_qqd_squared(design, a=1.5, b=1.25):
    """The closed form written out: one n x n product, summed with fsum."""
    spec = design.spec
    w = np.full((spec.n, spec.n), b**spec.p)
    for col in design.qualitative.T:
        w = w * np.where(col[:, None] == col[None, :], a / b, 1.0)
    for col in design.quantitative.T:
        d = np.abs(col[:, None] - col[None, :])
        w = w * (1.5 - d + d * d)
    head = math.prod((a + (s - 1) * b) / s for s in spec.qualitative_levels)
    return -head * (4 / 3) ** spec.q + math.fsum(w.ravel().tolist()) / spec.n**2


def test_closed_form_over_row_blocks_matches_dense_sum():
    n = 600
    step = discrepancy.PAIR_BLOCK // n
    assert n > step and n % step  # several blocks, the last one short
    design = random_utype(DesignSpec(n=n, p=2, q=2, levels=(3, 4, 600, 5)), 3)
    assert abs(qqd_squared(design) - _dense_qqd_squared(design)) < 1e-12
    config = CriterionConfig(a=2.0, b=0.5)
    assert abs(qqd_squared(design, config) - _dense_qqd_squared(design, 2.0, 0.5)) < 1e-12


def test_closed_form_does_not_depend_on_the_block_size(monkeypatch):
    design = random_utype(DesignSpec(n=24, p=2, q=2, levels=(4, 4, 2, 2)), 5)
    value, pattern = qqd_squared(design), balance_pattern_rowform(design)
    monkeypatch.setattr(discrepancy, "PAIR_BLOCK", 50)  # blocks of two rows
    assert qqd_squared(design) == pytest.approx(value, abs=1e-15)
    assert balance_pattern_rowform(design) == pattern
    assert pattern.aggregate == balance_pattern(design).aggregate


def test_closed_form_peak_memory_is_below_one_dense_matrix():
    n = 2048
    design = random_utype(DesignSpec(n=n, p=2, q=2, levels=(4, 8, n, 16)), 0)
    tracemalloc.start()
    try:
        qqd_squared(design)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8  # one dense n x n float64 array: 32 MB


def test_row_weights_from_a_column_start_match_the_full_rows():
    ratio_powers = (1.5 / 1.25) ** np.arange(3)
    mixed = random_utype(DesignSpec(n=24, p=2, q=2, levels=(4, 3, 24, 8)), 2)
    lone = random_utype(DesignSpec(n=6, p=1, q=0, levels=(3,)), 2)
    blocks = [(slice(5, 9), 5), (slice(0, 24), 0), (slice(20, 24), 20), (slice(3, 4), 10)]
    cases = [(mixed, rows, start, skip) for rows, start in blocks for skip in (None, 0, 3)]
    cases += [(lone, slice(2, 4), 2, None), (lone, slice(2, 4), 2, 0)]  # skip 0: all ones
    for design, rows, start, skip in cases:
        qual, quant = design.qualitative, design.quantitative
        full = discrepancy._row_weights(qual, quant, rows, ratio_powers, skip)
        part = discrepancy._row_weights(qual, quant, rows, ratio_powers, skip, start)
        assert part.shape == full[:, start:].shape
        assert part.tobytes() == full[:, start:].tobytes()


def test_closed_form_builds_each_unordered_pair_once(monkeypatch):
    n = 600
    step = discrepancy.PAIR_BLOCK // n
    design = random_utype(DesignSpec(n=n, p=2, q=1, levels=(3, 4, n)), 1)
    built = []
    row_weights = discrepancy._row_weights

    def counted(*args, **kwargs):
        weights = row_weights(*args, **kwargs)
        built.append(weights.size)
        return weights

    monkeypatch.setattr(discrepancy, "_row_weights", counted)
    qqd_squared(design)
    assert len(built) > 1
    # block [s, s + step) against rows [s, n): n(n + step)/2 in all when
    # step divides n, where full rows would build n^2
    assert sum(built) <= n * (n + 1) // 2 + n * step // 2


def test_single_block_closed_form_is_one_sum_bit_for_bit():
    designs = [
        load_reference_design("mcd_16run_3"),
        random_utype(DesignSpec(n=180, p=2, q=1, levels=(3, 4, 180)), 4),
        random_utype(DesignSpec(n=180, p=0, q=2, levels=(180, 6)), 4),
    ]
    for design in designs:
        spec = design.spec
        n, p = spec.n, spec.p
        assert n <= discrepancy.PAIR_BLOCK // n  # one block
        w = discrepancy._row_weights(
            design.qualitative, design.quantitative, slice(None), (1.5 / 1.25) ** np.arange(p + 1)
        )
        C = discrepancy._constant_term(spec.qualitative_levels, spec.q, 1.5, 1.25)
        assert qqd_squared(design) == C + float(float(np.sum(w)) * np.float64(1.25) ** p / n**2)


def test_agreement_histogram_over_several_blocks_counts_every_ordered_pair():
    n = 200
    step = discrepancy.PAIR_BLOCK // n
    assert n > step and n % step  # several blocks, the last one short
    design = random_utype(DesignSpec(n=n, p=3, q=2, levels=(4, 4, 4, 2, 2)), 6)
    levels = design.all_levels()
    hist = balance._agreement_histogram(levels)
    assert int(hist.sum()) == n * n
    agree = (levels[:, None, :] == levels[None, :, :]).sum(axis=2)
    assert hist.tolist() == np.bincount(agree.ravel(), minlength=6).tolist()
    assert balance_pattern_rowform(design).aggregate == balance_pattern(design).aggregate


def test_pair_cache_starts_at_the_closed_form_value_bit_for_bit():
    designs = [load_reference_design(name) for name in DESIGN_NAMES]
    for seed in range(20):
        designs.append(random_utype(DesignSpec(n=12, p=2, q=1, levels=(3, 2, 12)), seed))
        designs.append(random_utype(DesignSpec(n=8, p=0, q=2, levels=(8, 4)), seed))
        designs.append(random_utype(DesignSpec(n=9, p=1, q=0, levels=(3,)), seed))
    for design in designs:
        assert PairCache(design).value() == qqd_squared(design)
    config = CriterionConfig(a=2.0, b=0.5)
    assert PairCache(designs[0], config).value() == qqd_squared(designs[0], config)


# -------------------------------------------------------------- kernel_matrix

def test_kernel_matrix_two_level_factors_coincide():
    spec = DesignSpec(n=4, p=1, q=1, levels=(2, 2))
    expected = np.array([[1.5, 1.25], [1.25, 1.5]])
    assert np.allclose(kernel_matrix(0, spec), expected, atol=1e-15)
    assert np.allclose(kernel_matrix(1, spec), expected, atol=1e-15)


def test_kernel_matrix_four_level_quantitative_entry():
    spec = DesignSpec(n=4, p=0, q=1, levels=(4,))
    entries = kernel_matrix(0, spec)
    assert entries[0, 2] == pytest.approx(1.25, abs=1e-15)  # distance 2: 3/2 - 2*2/16
    assert entries[0, 1] == pytest.approx(1.5 - 3 / 16, abs=1e-15)


def test_kernel_matrix_respects_general_weights():
    spec = DesignSpec(n=6, p=1, q=0, levels=(3,))
    factor = kernel_matrix(0, spec, CriterionConfig(a=2.0, b=0.5))
    assert factor[0, 0] == 2.0
    assert factor[0, 1] == 0.5


def test_kernel_matrix_index_error():
    spec = DesignSpec(n=4, p=1, q=1, levels=(2, 2))
    with pytest.raises(DomainError):
        kernel_matrix(2, spec)


def test_kernel_row_sums():
    for s in range(2, 13):
        spec = DesignSpec(n=s, p=1, q=1, levels=(s, s))
        qual = kernel_matrix(0, spec)
        quant = kernel_matrix(1, spec)
        assert np.allclose(qual.sum(axis=1), 1.5 + 1.25 * (s - 1), atol=1e-12)
        assert np.allclose(quant.sum(axis=1), 4 * s / 3 + 1 / (6 * s), atol=1e-12)


# ----------------------------------------------------- qqd_squared_quadratic

def test_quadratic_equals_closed_form_on_reference_designs():
    for name in ("mcd_8run_2", "bound_attaining_4run", "juxtaposed_16run_1"):
        design = load_reference_design(name)
        assert qqd_squared_quadratic(design) == pytest.approx(
            qqd_squared(design), abs=1e-10
        )


@pytest.mark.filterwarnings("error")
def test_closed_form_refuses_overflowing_agreement_weights():
    # two qualitative factors: (a/b)^2 = 1e600 overflows, with no warning
    design = load_reference_design("juxtaposed_16run_2")
    config = CriterionConfig(a=1e300, b=1.0)
    with pytest.raises(DomainError, match="kernel weights overflow"):
        qqd_squared(design, config)
    with pytest.raises(DomainError, match="kernel weights overflow"):
        PairCache(design, config)


@pytest.mark.filterwarnings("error")
def test_quadratic_form_refuses_non_finite_kernel_weights():
    design = load_reference_design("mcd_16run_3")
    with pytest.raises(DomainError, match="kernel weights overflow"):
        qqd_squared_quadratic(design, CriterionConfig(a=1e308, b=1e-308))


def test_quadratic_full_factorial_exact_value():
    spec = DesignSpec(n=4, p=1, q=1, levels=(2, 2))
    value = qqd_squared_quadratic(full_factorial(spec))
    assert value == pytest.approx(float(Fraction(11, 192)), abs=1e-12)


def test_quadratic_matches_explicit_kronecker_product():
    # independent route: materialize A = A1 (x) A2 (x) A3 and fold y through it
    design = load_reference_design("bound_attaining_4run")
    spec = design.spec
    A = np.ones((1, 1))
    for k in range(spec.m):
        A = np.kron(A, kernel_matrix(k, spec))
    y = frequency_vector(design).astype(float)
    C = -(21 / 16) * (4 / 3) ** 2
    direct = C + y @ A @ y / spec.n**2
    assert qqd_squared_quadratic(design) == pytest.approx(direct, abs=1e-13)


def test_quadratic_capacity_error():
    spec = DesignSpec(n=8, p=7, q=7, levels=(2,) * 7 + (4,) * 7)
    design = load_reference_design("bound_attaining_8run")
    assert design.spec == spec
    with pytest.raises(CapacityError, match="qqd_squared"):
        qqd_squared_quadratic(design)


def test_cross_form_agreement_on_random_designs():
    for spec in RANDOM_SPECS:
        for seed in range(3):
            design = random_utype(spec, seed)
            assert abs(qqd_squared(design) - qqd_squared_quadratic(design)) < 1e-10


# -------------------------------------------------------------------- wd / dd

def test_wd_squared_single_two_level_column():
    spec = DesignSpec(n=2, p=0, q=1, levels=(2,))
    design = design_from_levels(spec, np.zeros((2, 0)), [[0], [1]])
    assert wd_squared(design) == pytest.approx(1 / 24, abs=1e-14)
    assert wd_squared(design) == pytest.approx(qqd_squared(design), abs=1e-14)


def test_wd_squared_identical_points():
    spec = DesignSpec(n=5, p=0, q=2, levels=(4, 4))
    design = design_from_levels(spec, np.zeros((5, 0)), np.ones((5, 2), dtype=int))
    assert wd_squared(design) == pytest.approx(-(4 / 3) ** 2 + 1.5**2, abs=1e-13)


def test_wd_squared_reflection_invariant():
    design = load_reference_design("mcd_8run_2")
    reflected = Design(
        design.spec, design.qualitative, 1.0 - design.quantitative
    )
    assert wd_squared(reflected) == pytest.approx(wd_squared(design), abs=1e-13)


def test_wd_squared_requires_quantitative():
    spec = DesignSpec(n=2, p=1, q=0, levels=(2,))
    with pytest.raises(DomainError):
        wd_squared(design_from_levels(spec, [[0], [1]], np.zeros((2, 0))))


def test_dd_cannot_separate_the_mcd_pair():
    # all three columns treated as qualitative: both designs share one value
    values = []
    for name in ("mcd_8run_1", "mcd_8run_2"):
        design = load_reference_design(name)
        spec = DesignSpec(n=8, p=3, q=0, levels=(2, 8, 8))
        as_qual = design_from_levels(
            spec,
            np.hstack([design.qualitative, design.quantitative_as_levels()]),
            np.zeros((8, 0)),
        )
        values.append(dd(as_qual))
    assert values[0] == pytest.approx(values[1], abs=1e-14)


def test_dd_full_factorial_is_zero():
    spec = DesignSpec(n=1, p=2, q=0, levels=(2, 3))
    assert dd(full_factorial(spec)) == pytest.approx(0.0, abs=1e-14)


def test_dd_identical_rows():
    spec = DesignSpec(n=6, p=1, q=0, levels=(2,))
    design = design_from_levels(spec, np.zeros((6, 1), dtype=int), np.zeros((6, 0)))
    assert dd(design) == pytest.approx(1 / 8, abs=1e-14)


def test_dd_requires_qualitative():
    spec = DesignSpec(n=2, p=0, q=1, levels=(2,))
    with pytest.raises(DomainError):
        dd(design_from_levels(spec, np.zeros((2, 0)), [[0], [1]]))


def test_reduction_consistency():
    for spec in RANDOM_SPECS:
        design = random_utype(spec, 99)
        if spec.q:
            quant_view = Design(
                DesignSpec(n=spec.n, p=0, q=spec.q, levels=spec.quantitative_levels),
                np.zeros((spec.n, 0)),
                design.quantitative,
            )
            assert wd_squared(design) == pytest.approx(
                qqd_squared(quant_view), abs=1e-13
            )
        if spec.p:
            qual_view = design_from_levels(
                DesignSpec(n=spec.n, p=spec.p, q=0, levels=spec.qualitative_levels),
                design.qualitative,
                np.zeros((spec.n, 0)),
            )
            assert dd(design) == pytest.approx(qqd_squared(qual_view), abs=1e-13)


# ------------------------------------------------------------------------ swd

def test_swd_reference_values():
    assert swd(load_reference_design("juxtaposed_16run_2")) == pytest.approx(
        1.1055, abs=5e-5
    )
    assert swd(load_reference_design("juxtaposed_16run_same")) == pytest.approx(
        1.0999, abs=5e-5
    )


def test_swd_additivity_over_identical_slices():
    # quantitative part identical across every slice of the one qualitative factor
    spec = DesignSpec(n=6, p=1, q=1, levels=(3, 2))
    design = design_from_levels(
        spec, [[0], [0], [1], [1], [2], [2]], [[0], [1], [0], [1], [0], [1]]
    )
    slice_design = design_from_levels(
        DesignSpec(n=2, p=1, q=1, levels=(1, 2)), [[0], [0]], [[0], [1]]
    )
    one = swd(slice_design)  # single factor, single level: one slice
    assert swd(design) == pytest.approx(3 * one, abs=1e-12)


def test_swd_empty_level_class():
    spec = DesignSpec(n=4, p=1, q=1, levels=(4, 2))
    design = design_from_levels(spec, [[0], [0], [1], [1]], [[0], [1], [0], [1]])
    with pytest.raises(DomainError, match="level 2"):
        swd(design)


def test_swd_requires_both_factor_types():
    spec = DesignSpec(n=2, p=0, q=1, levels=(2,))
    with pytest.raises(DomainError):
        swd(design_from_levels(spec, np.zeros((2, 0)), [[0], [1]]))


# ------------------------------------------------------------ swap evaluator

def _swapped(design, column, i, j):
    qual = np.array(design.qualitative)
    quant = np.array(design.quantitative)
    col = qual[:, column] if column < design.spec.p else quant[:, column - design.spec.p]
    col[i], col[j] = col[j], col[i]
    return Design(design.spec, qual, quant)


def test_swap_and_swap_back_restores_design_exactly():
    design = load_reference_design("mcd_16run_1")
    cache = PairCache(design)
    before = cache.value()
    forward = cache.delta(1, 2, 9)
    value = cache.apply_swap(1, 2, 9)
    assert value != before
    assert value == before + forward
    back = cache.delta(1, 2, 9)
    assert back == -forward  # same terms, negated, summed in the same order
    value = cache.apply_swap(1, 2, 9)
    assert value == pytest.approx(before, abs=1e-15)
    assert Design(cache.spec, *cache.levels()) == design
    # unscored commits compute their own change, never reuse a stale one
    cache.apply_swap(1, 2, 9)
    assert cache.apply_swap(1, 2, 9) == pytest.approx(before, abs=1e-15)


def test_swap_within_constant_column_changes_nothing():
    spec = DesignSpec(n=4, p=1, q=1, levels=(1, 2))
    design = design_from_levels(spec, [[0]] * 4, [[0], [1], [0], [1]])
    cache = PairCache(design)
    before = cache.value()
    assert cache.columns[0][0] == cache.columns[0][3]
    assert cache.delta(0, 0, 3) == 0.0
    assert cache.apply_swap(0, 0, 3) == before
    assert Design(cache.spec, *cache.levels()) == design


def test_swap_equal_rows_is_noop():
    design = load_reference_design("mcd_8run_1")
    cache = PairCache(design)
    assert cache.delta(0, 3, 3) == 0.0
    value = cache.apply_swap(0, 3, 3)
    assert value == cache.value() == pytest.approx(qqd_squared(design), abs=1e-12)


def test_swap_matches_full_recompute_on_random_designs():
    rng = np.random.default_rng(5)
    for spec in RANDOM_SPECS[:8]:
        design = random_utype(spec, 7)
        cache = PairCache(design)
        for _ in range(6):
            col = int(rng.integers(spec.m))
            i, j = (int(v) for v in rng.choice(spec.n, size=2, replace=False))
            before = cache.value()
            change = cache.delta(col, i, j)
            value = cache.apply_swap(col, i, j)
            assert value == before + change
            assert value == pytest.approx(qqd_squared(Design(cache.spec, *cache.levels())), abs=1e-10)


def test_swap_rejects_out_of_range_indices():
    cache = PairCache(load_reference_design("mcd_8run_1"))
    for args in [(3, 0, 1), (-1, 0, 1), (0, 0, 8), (1, -1, 2)]:
        for method in (cache.delta, cache.apply_swap):
            with pytest.raises(DomainError, match="out of range"):
                method(*args)


def test_pair_cache_supports_general_weights():
    config = CriterionConfig(a=2.0, b=1.0)
    design = load_reference_design("bound_attaining_4run")
    cache = PairCache(design, config)
    assert cache.value() == pytest.approx(qqd_squared(design, config), abs=1e-12)
    for col, i, j in [(0, 0, 1), (1, 0, 3), (2, 1, 2)]:
        change = cache.delta(col, i, j)
        after = qqd_squared(_swapped(Design(cache.spec, *cache.levels()), col, i, j), config)
        assert change == pytest.approx(after - cache.value(), abs=1e-12)
        cache.apply_swap(col, i, j)


def _pair_sum(design):
    # the pair summands written out from coincidence numbers and the kernel
    n, p, q = design.spec.n, design.spec.p, design.spec.q
    total = 0.0
    for i in range(n):
        for j in range(n):
            product = 1.25**p * 1.2 ** coincidence_number(design, i, j)
            for k in range(q):
                d = abs(design.quantitative[i, k] - design.quantitative[j, k])
                product *= 1.5 - d + d * d
            total += product
    return total


def test_pair_cache_entries_reproduce_pair_summands():
    # the value and every scored swap follow from the written-out pair summands
    design = random_utype(DesignSpec(n=8, p=2, q=2, levels=(2, 4, 4, 2)), 13)
    cache = PairCache(design)
    constant = -(2.75 / 2) * (5.25 / 4) * (4 / 3) ** 2
    assert cache.value() == pytest.approx(constant + _pair_sum(design) / 64, abs=1e-12)
    for col, i, j in [(0, 0, 5), (1, 2, 7), (2, 1, 3), (3, 4, 6)]:
        after = _swapped(design, col, i, j)
        expected = (_pair_sum(after) - _pair_sum(design)) / 64
        assert cache.delta(col, i, j) == pytest.approx(expected, abs=1e-12)


@st.composite
def _feasible_specs(draw):
    n = draw(st.sampled_from([2, 4, 6, 8, 9, 10, 12, 15]))
    divisors = [s for s in range(1, n + 1) if n % s == 0]
    p = draw(st.integers(0, 2))
    q = draw(st.integers(0 if p else 1, 2))
    levels = tuple(draw(st.sampled_from(divisors)) for _ in range(p + q))
    return DesignSpec(n=n, p=p, q=q, levels=levels)


@settings(max_examples=150, deadline=None)
@given(
    spec=_feasible_specs(),
    seed=st.integers(0, 2**32 - 1),
    weights=st.sampled_from([(1.5, 1.25), (2.0, 1.0), (3.7, 0.4)]),
    data=st.data(),
)
def test_delta_matches_recompute_property(spec, seed, weights, data):
    config = CriterionConfig(a=weights[0], b=weights[1])
    design = random_utype(spec, seed)
    cache = PairCache(design, config)
    before = cache.value()
    col = data.draw(st.integers(0, spec.m - 1))
    i = data.draw(st.integers(0, spec.n - 1))
    j = data.draw(st.integers(0, spec.n - 1))
    change = cache.delta(col, i, j)
    # scoring mutates nothing
    assert cache.value() == before
    assert Design(cache.spec, *cache.levels()) == design
    after = _swapped(design, col, i, j)
    if cache.columns[col][i] == cache.columns[col][j]:
        assert change == 0.0
        assert after == design
    expected = qqd_squared(after, config) - qqd_squared(design, config)
    assert change == pytest.approx(expected, abs=1e-12)


def test_tracked_value_does_not_drift_over_long_runs():
    spec = DesignSpec(n=30, p=2, q=2, levels=(3, 5, 6, 30))
    cache = PairCache(random_utype(spec, 17))
    rng = np.random.default_rng(23)
    commits = 0
    while commits < 5000:
        col = int(rng.integers(spec.m))
        i, j = (int(v) for v in rng.integers(spec.n, size=2))
        if cache.columns[col][i] == cache.columns[col][j]:
            continue
        cache.apply_swap(col, i, j)
        commits += 1
        assert abs(cache.value() - qqd_squared(Design(cache.spec, *cache.levels()))) <= 1e-12


# ------------------------------------------------------------------ symmetry

def test_row_permutation_invariance():
    design = load_reference_design("juxtaposed_16run_2")
    rng = np.random.default_rng(3)
    perm = rng.permutation(design.spec.n)
    shuffled = Design(design.spec, design.qualitative[perm], design.quantitative[perm])
    assert qqd_squared(shuffled) == pytest.approx(qqd_squared(design), abs=1e-13)


def test_qualitative_relabel_invariance():
    design = load_reference_design("bound_attaining_4run")
    relabeled = Design(
        design.spec, (design.qualitative + 2) % 4, design.quantitative
    )
    assert qqd_squared(relabeled) == pytest.approx(qqd_squared(design), abs=1e-13)


def test_quantitative_reflection_invariance():
    for name in ("mcd_8run_2", "juxtaposed_16run_2", "ccd_full_2"):
        design = load_reference_design(name)
        reflected = Design(
            design.spec, design.qualitative, 1.0 - design.quantitative
        )
        assert qqd_squared(reflected) == pytest.approx(qqd_squared(design), abs=1e-12)


def test_quantitative_cyclic_shift_invariance():
    design = load_reference_design("mcd_16run_3")
    levels = design.quantitative_as_levels()
    shifted = design_from_levels(
        design.spec, design.qualitative, (levels + 1) % 16
    )
    assert qqd_squared(shifted) == pytest.approx(qqd_squared(design), abs=1e-12)
