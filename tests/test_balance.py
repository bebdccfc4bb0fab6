import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qqdesign import (
    DEFAULT_CONFIG,
    DesignSpec,
    DomainError,
    balance_component,
    balance_pattern,
    balance_pattern_rowform,
    design_from_levels,
    full_factorial,
    lb2,
    qqd_from_balance,
    qqd_squared,
    random_utype,
)
from qqdesign.balance import _full_factorial
from qqdesign.discrepancy import _lattice_kernel
from qqdesign.reference import load_reference_design

# U(n, s^p 2^q) specs for the randomized balance-form suites
BALANCE_SPECS = [
    DesignSpec(n=8, p=1, q=3, levels=(4, 2, 2, 2)),
    DesignSpec(n=8, p=2, q=2, levels=(2, 2, 2, 2)),
    DesignSpec(n=12, p=2, q=3, levels=(3, 3, 2, 2, 2)),
    DesignSpec(n=16, p=3, q=2, levels=(4, 4, 4, 2, 2)),
    DesignSpec(n=6, p=1, q=1, levels=(3, 2)),
    DesignSpec(n=4, p=2, q=2, levels=(2, 2, 2, 2)),
]


def _oa_8_4_2_2():
    """OA(8, 4, 2, 2): three independent 2-level columns plus one interaction."""
    a = np.array([0, 0, 0, 0, 1, 1, 1, 1])
    b = np.array([0, 0, 1, 1, 0, 0, 1, 1])
    c = np.array([0, 1, 0, 1, 0, 1, 0, 1])
    ab = a ^ b
    spec = DesignSpec(n=8, p=2, q=2, levels=(2, 2, 2, 2))
    return design_from_levels(spec, np.column_stack([a, b]), np.column_stack([c, ab]))


# ----------------------------------------------------------- balance_component

def test_single_balanced_column_component_is_zero():
    design = load_reference_design("juxtaposed_16run_2")
    for col in range(4):
        assert balance_component(design, [col]) == 0.0


def test_two_identical_two_level_columns():
    spec = DesignSpec(n=4, p=2, q=0, levels=(2, 2))
    design = design_from_levels(
        spec, np.array([[0, 0], [0, 0], [1, 1], [1, 1]]), np.zeros((4, 0))
    )
    assert balance_component(design, [0, 1]) == 4.0


def test_full_factorial_pair_is_strength_two():
    design = full_factorial(DesignSpec(n=1, p=2, q=0, levels=(2, 2)))
    assert balance_component(design, [0, 1]) == 0.0


def test_balance_component_rejections():
    design = load_reference_design("juxtaposed_16run_2")
    with pytest.raises(DomainError):
        balance_component(design, [])
    with pytest.raises(DomainError):
        balance_component(design, [0, 0])
    with pytest.raises(DomainError):
        balance_component(design, [4])
    mixed = DesignSpec(n=12, p=2, q=0, levels=(2, 3))
    not_symmetric = design_from_levels(
        mixed,
        np.column_stack([np.repeat([0, 1], 6), np.tile([0, 1, 2], 4)]),
        np.zeros((12, 0)),
    )
    with pytest.raises(DomainError, match="common level count"):
        balance_component(not_symmetric, [0, 1])
    spec = DesignSpec(n=4, p=1, q=1, levels=(2, 2))
    lopsided = design_from_levels(spec, [[0], [0], [0], [1]], [[0], [1], [0], [1]])
    with pytest.raises(DomainError, match="U-type"):
        balance_component(lopsided, [0])


# ------------------------------------------------------------- balance_pattern

def test_full_factorial_pattern_is_zero_everywhere():
    design = full_factorial(DesignSpec(n=1, p=2, q=2, levels=(2, 2, 2, 2)))
    pattern = balance_pattern(design)
    assert pattern.aggregate == (0.0, 0.0, 0.0, 0.0)
    rowform = balance_pattern_rowform(design)
    assert rowform.aggregate == (0.0, 0.0, 0.0, 0.0)


def test_single_balanced_column_pattern():
    spec = DesignSpec(n=8, p=1, q=0, levels=(2,))
    design = design_from_levels(spec, np.repeat([0, 1], 4)[:, None], np.zeros((8, 0)))
    assert balance_pattern(design).aggregate == (0.0,)


def test_pattern_equals_rowform_on_random_designs():
    for spec in BALANCE_SPECS:
        for seed in range(5):
            design = random_utype(spec, seed)
            subset = balance_pattern(design)
            rows = balance_pattern_rowform(design)
            assert subset.aggregate == rows.aggregate  # exact, not approximate


def test_rowform_rejects_non_utype():
    spec = DesignSpec(n=4, p=1, q=1, levels=(2, 2))
    design = design_from_levels(spec, [[0]] * 4, [[0], [1], [0], [1]])
    with pytest.raises(DomainError, match="U-type"):
        balance_pattern_rowform(design)


def test_pattern_components_match_direct_components():
    design = random_utype(DesignSpec(n=8, p=2, q=2, levels=(2, 2, 2, 2)), 42)
    pattern = balance_pattern(design)
    for cols, value in pattern.components.items():
        assert value == balance_component(design, cols)


@st.composite
def _two_type_utype_designs(draw):
    """U-type designs with s1 qualitative levels (1..4), s2 quantitative levels (2..4)."""
    m = draw(st.integers(1, 7))
    p = draw(st.integers(0, m))
    s1, s2 = draw(st.integers(1, 4)), draw(st.integers(2, 4))
    unit = math.lcm(s1 if p else 1, s2 if m > p else 1)
    n = unit * draw(st.integers(1, 24 // unit))
    spec = DesignSpec(n=n, p=p, q=m - p, levels=(s1,) * p + (s2,) * (m - p))
    return random_utype(spec, draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=100, deadline=None)
@given(design=_two_type_utype_designs())
def test_pattern_components_and_aggregates_match_direct_counts(design):
    pattern = balance_pattern(design)
    assert len(pattern.components) == 2**design.spec.m - 1
    for cols, value in pattern.components.items():
        assert value == balance_component(design, cols)
    assert pattern.aggregate == balance_pattern_rowform(design).aggregate


@pytest.mark.parametrize(
    "spec",
    [
        DesignSpec(n=64, p=3, q=9, levels=(2,) * 12),
        DesignSpec(n=4, p=1, q=0, levels=(2,)),
        DesignSpec(n=12, p=2, q=2, levels=(2, 2, 3, 3)),
        DesignSpec(n=2, p=8, q=8, levels=(2,) * 16),
    ],
)
def test_pattern_does_not_count_level_combinations_per_subset(monkeypatch, spec):
    import qqdesign.balance as balance_module

    def refuse(*args):
        raise AssertionError("balance_pattern must not count each subset's combinations")

    design = random_utype(spec, 3)
    monkeypatch.setattr(balance_module, "_component_exact", refuse)
    pattern = balance_pattern(design)
    assert len(pattern.components) == 2**spec.m - 1
    assert list(pattern.components) == [
        cols for k in range(1, spec.m + 1) for cols in itertools.combinations(range(spec.m), k)
    ]
    assert pattern.aggregate == balance_pattern_rowform(design).aggregate


def test_oa_strength_two_detection():
    design = _oa_8_4_2_2()
    pattern = balance_pattern(design)
    assert pattern.aggregate[0] == 0.0
    assert pattern.aggregate[1] == 0.0
    assert pattern.aggregate[2] > 0.0  # strength exactly 2, not 3
    zero_subsets = [cols for cols, v in pattern.components.items() if len(cols) == 3 and v == 0]
    assert len(zero_subsets) < len([c for c in pattern.components if len(c) == 3])


def test_column_permutation_invariance_within_blocks():
    spec = DesignSpec(n=8, p=2, q=2, levels=(2, 2, 2, 2))
    design = random_utype(spec, 7)
    swapped_qual = design_from_levels(
        spec, design.qualitative[:, ::-1], design.quantitative_as_levels()
    )
    swapped_quant = design_from_levels(
        spec, design.qualitative, design.quantitative_as_levels()[:, ::-1]
    )
    base = balance_pattern(design).aggregate
    assert balance_pattern(swapped_qual).aggregate == base
    assert balance_pattern(swapped_quant).aggregate == base


# ------------------------------------------------------------ qqd_from_balance

def test_balance_form_reference_design():
    design = load_reference_design("bound_attaining_4run")
    assert qqd_from_balance(design) == pytest.approx(0.1706, abs=5e-5)
    assert qqd_from_balance(design) == pytest.approx(qqd_squared(design), abs=1e-12)


def test_balance_form_full_factorial():
    design = full_factorial(DesignSpec(n=1, p=1, q=2, levels=(2, 2, 2)))
    assert qqd_from_balance(design) == pytest.approx(0.155165, abs=5e-7)


def test_balance_form_matches_closed_form_on_random_designs():
    spec = DesignSpec(n=8, p=1, q=3, levels=(4, 2, 2, 2))
    for seed in range(50):
        design = random_utype(spec, seed)
        assert abs(qqd_from_balance(design) - qqd_squared(design)) < 1e-12


def test_balance_form_kernel_ratio_equals_the_qualitative_ratio():
    # the balance form writes every pair product as a power of a/b, which
    # needs the two-level wrap-around kernel to have the same ratio
    a, b = Fraction(DEFAULT_CONFIG.a), Fraction(DEFAULT_CONFIG.b)
    f0, f1 = Fraction(_lattice_kernel(0, 2)), Fraction(_lattice_kernel(1, 2))
    assert a / b == f0 / f1 == Fraction(6, 5)


def test_balance_form_rejects_wide_quantitative_levels():
    design = load_reference_design("mcd_8run_1")
    with pytest.raises(DomainError, match="2-level"):
        qqd_from_balance(design)


def test_subset_enumeration_capacity_cap():
    from qqdesign import CapacityError

    spec = DesignSpec(n=2, p=13, q=12, levels=(2,) * 25)
    design = random_utype(spec, 0)
    with pytest.raises(CapacityError, match="cap"):
        balance_pattern(design)


def test_subset_listing_refuses_21_factors_before_counting(monkeypatch):
    import qqdesign.balance as balance_module
    from qqdesign import CapacityError

    def refuse(*args):
        raise AssertionError("the cap must refuse before any pair is counted")

    monkeypatch.setattr(balance_module, "_subset_agreements", refuse)
    design = random_utype(DesignSpec(n=2, p=11, q=10, levels=(2,) * 21), 0)
    with pytest.raises(CapacityError, match="21 factors exceeds cap 20"):
        balance_pattern(design)


def test_balance_form_has_no_factor_cap(monkeypatch):
    import qqdesign.balance as balance_module

    def refuse(*args):
        raise AssertionError("the balance value must not enumerate subsets")

    spec = DesignSpec(n=2, p=13, q=12, levels=(2,) * 25)
    design = random_utype(spec, 0)
    monkeypatch.setattr(balance_module, "combinations", refuse)
    monkeypatch.setattr(balance_module, "_component_exact", refuse)
    # the value is about 1.1e4, where one ulp is 1.8e-12
    assert qqd_from_balance(design) == pytest.approx(qqd_squared(design), rel=1e-12, abs=0)


# ------------------------------------------------- per-term Fraction references
#
# The library sums every size over one common integer denominator and
# rounds once; these references take one Fraction per term, as a direct
# reading of the formulas, and the results must agree bit for bit.

def _fraction_component(levels, cols, p, s1, s2):
    """Squared count deviations of one column subset, by counting its level combinations."""
    n = levels.shape[0]
    k1 = sum(1 for c in cols if c < p)
    counts = Counter(map(tuple, levels[:, list(cols)].tolist()))
    return sum(c * c for c in counts.values()) - Fraction(n * n, s1**k1 * s2 ** (len(cols) - k1))


def _fraction_balance_form(n, p, q, s, sums):
    a, b = Fraction(DEFAULT_CONFIG.a), Fraction(DEFAULT_CONFIG.b)
    f1 = Fraction(_lattice_kernel(1, 2))
    acc = sum((a / b - 1) ** k * v for k, v in enumerate(sums, start=1))
    return float(_full_factorial((s,) * p, (2,) * q) + b**p * f1**q / (n * n) * acc)


def _fraction_lb2(n, p, q, s):
    def residues(k):
        total = Fraction(0)
        for k1 in range(max(0, k - q), min(p, k) + 1):
            cells = s**k1 * 2 ** (k - k1)
            r = n % cells
            total += math.comb(p, k1) * math.comb(q, k - k1) * Fraction(r * (cells - r), cells)
        return total

    return _fraction_balance_form(n, p, q, s, (residues(k) for k in range(1, p + q + 1)))


def _fraction_pattern(design):
    """Every component and each size's mean component, one Fraction per subset."""
    spec = design.spec
    s1 = spec.qualitative_levels[0] if spec.p else 2
    s2 = spec.quantitative_levels[0] if spec.q else 2
    levels = design.all_levels()
    components = {
        cols: _fraction_component(levels, cols, spec.p, s1, s2)
        for k in range(1, spec.m + 1)
        for cols in itertools.combinations(range(spec.m), k)
    }
    sums = [sum(v for cols, v in components.items() if len(cols) == k)
            for k in range(1, spec.m + 1)]
    return components, sums


@settings(max_examples=150, deadline=None)
@given(
    p=st.integers(0, 4),
    q=st.integers(0, 6),
    s=st.one_of(st.integers(1, 9), st.integers(0, 40).map(lambda e: 2**e),
                st.integers(2, 2**40)),
    runs=st.integers(1, 9),
)
def test_lb2_matches_a_per_term_fraction_sum(p, q, s, runs):
    # s up to 2^40: the cell counts s^k1 2^k2 run far past 64 bits
    if p + q == 0:
        p = 1
    n = math.lcm(s if p else 1, 2 if q else 1) * runs
    assert lb2(n, p, q, s) == _fraction_lb2(n, p, q, s)


# U(64; 64^9) has cells up to 2^54 and n^2 cells = 2^66; the 4-level
# qualitative block takes them to 2^58.  Those cell counts are powers of
# two; U(60; 3 60^9)'s are not, so its numerators pairs * cells - n^2,
# past 2^60, are not floats
PATTERN_SPECS = [
    DesignSpec(n=64, p=0, q=9, levels=(64,) * 9),
    DesignSpec(n=64, p=2, q=9, levels=(4, 4) + (64,) * 9),
    DesignSpec(n=60, p=1, q=9, levels=(3,) + (60,) * 9),
    DesignSpec(n=16, p=3, q=4, levels=(4, 4, 4, 2, 2, 2, 2)),
    DesignSpec(n=64, p=2, q=8, levels=(4, 4) + (2,) * 8),
    DesignSpec(n=12, p=2, q=3, levels=(3, 3, 2, 2, 2)),
    DesignSpec(n=8, p=0, q=1, levels=(2,)),
    DesignSpec(n=6, p=1, q=0, levels=(3,)),
]


@settings(max_examples=20, deadline=None)
@given(spec=st.sampled_from(PATTERN_SPECS), seed=st.integers(0, 2**32 - 1))
def test_pattern_matches_a_per_subset_fraction_reference(spec, seed):
    design = random_utype(spec, seed)
    components, sums = _fraction_pattern(design)
    pattern = balance_pattern(design)
    assert list(pattern.components) == list(components)
    assert pattern.components == {cols: float(v) for cols, v in components.items()}
    means = tuple(float(v / math.comb(spec.m, k)) for k, v in enumerate(sums, start=1))
    assert pattern.aggregate == means
    assert balance_pattern_rowform(design).aggregate == means
    if set(spec.quantitative_levels) <= {2}:
        s = spec.qualitative_levels[0] if spec.p else 2
        want = _fraction_balance_form(spec.n, spec.p, spec.q, s, sums)
        assert qqd_from_balance(design) == want
