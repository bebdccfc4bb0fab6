import math
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest

from qqdesign import (
    CapacityError,
    DesignSpec,
    DomainError,
    design_from_levels,
    full_factorial,
    full_factorial_qqd,
    lb,
    lb1,
    lb2,
    lb_symmetric,
    qqd_from_balance,
    qqd_squared,
    random_utype,
    wd_squared,
)

# U-type-feasible specs for the dominance sweep (>= 20 of them)
DOMINANCE_SPECS = [
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
    DesignSpec(n=8, p=7, q=7, levels=(2,) * 7 + (4,) * 7),
    DesignSpec(n=6, p=2, q=2, levels=(2, 3, 2, 3)),
    DesignSpec(n=4, p=2, q=2, levels=(2, 2, 2, 2)),
    DesignSpec(n=15, p=1, q=1, levels=(3, 5)),
    DesignSpec(n=8, p=1, q=3, levels=(8, 2, 4, 8)),
    DesignSpec(n=18, p=2, q=1, levels=(3, 3, 2)),
    DesignSpec(n=5, p=1, q=1, levels=(5, 5)),
    DesignSpec(n=12, p=1, q=2, levels=(6, 3, 4)),
    DesignSpec(n=14, p=1, q=2, levels=(2, 7, 14)),
]


# -------------------------------------------------------------------------- lb1

def test_lb1_reference_value():
    spec = DesignSpec(n=8, p=7, q=7, levels=(2,) * 7 + (4,) * 7)
    assert lb1(spec) == pytest.approx(17.0235, abs=5e-4)


def test_lb1_matches_exhaustive_wd_minimum():
    # p=0, q=1, s=3, n=3: the bound is tight over all 3-level balanced columns
    spec = DesignSpec(n=3, p=0, q=1, levels=(3,))
    best = math.inf
    for perm in set(permutations([0, 1, 2])):
        design = design_from_levels(spec, np.zeros((3, 0)), np.array(perm)[:, None])
        best = min(best, wd_squared(design))
    assert lb1(spec) == pytest.approx(best, abs=1e-12)


def test_lb1_all_odd_quantitative_levels():
    spec = DesignSpec(n=15, p=1, q=2, levels=(3, 3, 5))
    value = lb1(spec)
    assert math.isfinite(value)
    # even-level product is empty; value must still be dominated by any design
    design = random_utype(spec, 0)
    assert qqd_squared(design) >= value - 1e-10


def test_lb1_single_run_degenerate():
    spec = DesignSpec(n=1, p=1, q=1, levels=(1, 1))
    design = design_from_levels(spec, [[0]], [[0]])
    assert lb1(spec) == pytest.approx(qqd_squared(design), abs=1e-14)


def test_lb1_rejects_infeasible_spec():
    with pytest.raises(DomainError, match="does not divide"):
        lb1(DesignSpec(n=5, p=1, q=1, levels=(2, 5)))


@pytest.mark.parametrize("p, q", [(0, 2500), (2500, 0), (1, 1750)])
def test_lb1_refuses_a_bound_that_overflows_a_float(p, q):
    # a float power raises at p or q = 2500; at q = 1750 the bound is inf
    with pytest.raises(DomainError, match=f"lb1 overflows a float at p={p}, q={q}"):
        lb1(DesignSpec(n=2, p=p, q=q, levels=(2,) * (p + q)))


# ------------------------------------------------------------------ lb_symmetric

def test_lb_symmetric_reference_value():
    assert lb_symmetric(8, 7, 7, 2, 4) == pytest.approx(17.0235, abs=5e-4)


def test_lb_symmetric_q_zero_matches_lb1():
    for n, p, s1 in [(8, 3, 2), (9, 2, 3), (12, 4, 2)]:
        assert lb_symmetric(n, p, 0, s1, 2) == pytest.approx(
            lb1(DesignSpec(n=n, p=p, q=0, levels=(s1,) * p)), abs=1e-12
        )


def test_lb_symmetric_equals_lb1_on_random_tuples():
    rng = np.random.default_rng(17)
    checked = 0
    while checked < 20:
        s1 = int(rng.choice([2, 3, 4]))
        s2 = int(rng.choice([2, 3, 4, 5]))
        n = s1 * s2 * int(rng.integers(1, 4))
        p = int(rng.integers(1, 5))
        q = int(rng.integers(1, 5))
        spec = DesignSpec(n=n, p=p, q=q, levels=(s1,) * p + (s2,) * q)
        assert lb_symmetric(n, p, q, s1, s2) == pytest.approx(lb1(spec), abs=1e-12)
        checked += 1


@pytest.mark.parametrize(
    "n, p, q, s1, s2",
    [(0, 1, 1, 2, 2), (4, 1, 1, 0, 2), (4, 1, 1, 2, 0), (4, -1, 1, 2, 2), (4, 0, 0, 2, 2)],
)
def test_lb_symmetric_refuses_inputs_outside_its_domain(n, p, q, s1, s2):
    with pytest.raises(DomainError, match="lb_symmetric needs"):
        lb_symmetric(n, p, q, s1, s2)


@pytest.mark.parametrize(
    "n, p, q, s1, s2",
    [(5, 1, 1, 2, 2), (6, 1, 1, 4, 2), (6, 1, 1, 2, 4), (6, 0, 2, 5, 4), (9, 2, 0, 2, 5)],
)
def test_lb_symmetric_refuses_classes_with_no_utype_designs(n, p, q, s1, s2):
    spec = DesignSpec(n=n, p=p, q=q, levels=(s1,) * p + (s2,) * q)
    with pytest.raises(DomainError, match="no U-type designs exist") as symmetric_refusal:
        lb_symmetric(n, p, q, s1, s2)
    with pytest.raises(DomainError) as lb1_refusal:
        lb1(spec)
    assert str(symmetric_refusal.value) == str(lb1_refusal.value)


@pytest.mark.parametrize(
    "args", [(4.0, 1, 1, 2, 2), (4, 1.0, 1, 2, 2), (4, 1, 1, 2.5, 2), (4, 1, 1, 2, True)]
)
def test_lb_symmetric_refuses_non_integer_arguments(args):
    with pytest.raises(DomainError, match="lb_symmetric argument must be an integer"):
        lb_symmetric(*args)


# -------------------------------------------------------------------------- lb2

def test_lb2_reference_value_exact():
    assert lb2(4, 1, 2, 4) == pytest.approx(float(Fraction(131, 768)), abs=1e-15)
    assert lb2(4, 1, 2, 4) == pytest.approx(0.1706, abs=5e-5)


def test_lb2_zero_residuals_equal_full_factorial_value():
    value = lb2(8, 1, 2, 2)
    spec = DesignSpec(n=8, p=1, q=2, levels=(2, 2, 2))
    assert value == pytest.approx(float(Fraction(715, 4608)), abs=1e-15)
    assert value == pytest.approx(full_factorial_qqd(spec), abs=1e-15)


def test_lb2_residual_terms_vanish_when_all_cells_divide():
    # n divisible by every s^k1 2^k2 => the bound equals its constant part
    base = lb2(32, 1, 2, 4)
    spec = DesignSpec(n=32, p=1, q=2, levels=(4, 2, 2))
    assert base == pytest.approx(full_factorial_qqd(spec), abs=1e-15)


def test_lb2_handles_wide_designs_exactly():
    # moduli overflow 64-bit integers; exact arithmetic must survive
    value = lb2(6, 30, 30, 3)
    assert math.isfinite(value)


def test_lb2_refuses_work_past_its_cap_once_its_constant_is_finite(monkeypatch):
    import qqdesign.bounds as bounds_module

    # (p + 1)(q + 1)(p + q)^2 = 201 * 301 * 500^2 = 1.5e10, no split summed
    def unsummed(*args):
        raise AssertionError("the refusal must come before any split is summed")

    monkeypatch.setattr(bounds_module, "_split_sum", unsummed)
    message = "lb2 at p=200, q=300 exceeds its cap: (p+1)(q+1)(p+q)^2 = 15125250000 > 10000000000"
    with pytest.raises(CapacityError) as refusal:
        lb2(64, 200, 300, 4)
    assert str(refusal.value) == message
    # a constant that overflows a float is refused as that first, however wide
    with pytest.raises(DomainError, match="overflows a float"):
        lb2(4, 2622, 1, 4)
    monkeypatch.undo()
    # the widest evaluated sums stay within the cap
    assert (1752 + 1) * 1752**2 <= bounds_module.LB2_WORK_CAP
    assert math.isfinite(lb2(64, 100, 100, 4))


@pytest.mark.parametrize("args", [(4, 1, 1, 2.5), (4, 1.0, 1, 2), (4.0, 1, 1, 2), (4, 1, True, 2)])
def test_lb2_refuses_non_integer_arguments(args):
    with pytest.raises(DomainError, match="lb2 argument must be an integer"):
        lb2(*args)
    assert lb2(np.int64(4), 1, 1, np.int64(2)) == lb2(4, 1, 1, 2)  # numpy integers are fine


@pytest.mark.parametrize("n, p, q, s", [(5, 1, 1, 2), (6, 1, 1, 4), (3, 0, 1, 2), (9, 2, 0, 2)])
def test_lb2_refuses_classes_with_no_utype_designs(n, p, q, s):
    spec = DesignSpec(n=n, p=p, q=q, levels=(s,) * p + (2,) * q)
    with pytest.raises(DomainError, match="no U-type designs exist") as lb2_refusal:
        lb2(n, p, q, s)
    with pytest.raises(DomainError) as lb1_refusal:
        lb1(spec)
    assert str(lb2_refusal.value) == str(lb1_refusal.value)


# --------------------------------------------------------------------------- lb

def test_lb_prefers_lb2_on_the_4run_spec():
    report = lb(DesignSpec(n=4, p=1, q=2, levels=(4, 2, 2)))
    assert report.source == "lb2"
    assert report.value == pytest.approx(0.1706, abs=5e-5)
    assert report.lb2 is not None and report.lb1 < report.lb2


def test_lb_lb2_inapplicable_for_wide_levels():
    report = lb(DesignSpec(n=8, p=7, q=7, levels=(2,) * 7 + (4,) * 7))
    assert report.source == "lb1"
    assert report.lb2 is None
    assert report.value == pytest.approx(17.0235, abs=5e-4)
    # a 1-level quantitative factor is not a 2-level one either
    assert lb(DesignSpec(n=4, p=1, q=1, levels=(2, 1))).lb2 is None


def test_lb_applies_lb2_when_a_factor_type_is_absent():
    assert lb(DesignSpec(n=6, p=2, q=0, levels=(3, 3))).lb2 == lb2(6, 2, 0, 3)
    assert lb(DesignSpec(n=4, p=0, q=2, levels=(2, 2))).lb2 == lb2(4, 0, 2, 2)


def test_lb_tie_reports_max():
    # both bounds evaluate to exactly 7/96 on this spec
    report = lb(DesignSpec(n=2, p=1, q=1, levels=(2, 2)))
    assert report.source == "max"
    assert report.value == pytest.approx(float(Fraction(7, 96)), abs=1e-15)
    assert report.lb1 == pytest.approx(report.lb2, abs=1e-15)


def test_lb_is_max_of_applicable_bounds():
    for spec in [
        DesignSpec(n=4, p=2, q=2, levels=(2, 2, 2, 2)),
        DesignSpec(n=8, p=1, q=3, levels=(4, 2, 2, 2)),
        DesignSpec(n=12, p=2, q=1, levels=(3, 3, 2)),
    ]:
        report = lb(spec)
        assert report.value >= report.lb1 - 1e-15
        assert report.lb2 is None or report.value >= report.lb2 - 1e-15


# ------------------------------------------------------------ full_factorial_qqd

def test_full_factorial_qqd_no_quantitative_is_zero():
    for levels in [(2,), (3, 4), (2, 5, 6)]:
        spec = DesignSpec(n=1, p=len(levels), q=0, levels=levels)
        assert full_factorial_qqd(spec) == 0.0


def test_full_factorial_qqd_exact_values():
    spec = DesignSpec(n=4, p=1, q=1, levels=(2, 2))
    assert full_factorial_qqd(spec) == pytest.approx(float(Fraction(11, 192)), abs=1e-16)
    spec = DesignSpec(n=8, p=1, q=2, levels=(2, 2, 2))
    assert full_factorial_qqd(spec) == pytest.approx(0.155165, abs=5e-7)


def test_full_factorial_achieves_the_formula_for_each_repetition():
    for levels, p in [((2, 2), 1), ((2, 3), 1), ((2, 2, 4), 2)]:
        spec = DesignSpec(n=1, p=p, q=len(levels) - p, levels=levels)
        want = full_factorial_qqd(spec)
        values = [qqd_squared(full_factorial(spec, c)) for c in (1, 2, 3)]
        for got in values:
            assert got == pytest.approx(want, abs=1e-10)
        # repetition invariance, directly between c=1 and c=2
        assert values[0] == pytest.approx(values[1], abs=1e-12)


def test_exact_values_that_overflow_a_float_are_refused():
    with pytest.raises(DomainError, match="overflows a float"):
        full_factorial_qqd(DesignSpec(n=2, p=0, q=2500, levels=(2,) * 2500))
    with pytest.raises(DomainError, match="overflows a float"):
        lb2(4, 0, 2000, 2)


def test_balance_form_refuses_a_clear_overflow_before_any_exact_sum(monkeypatch):
    import qqdesign.balance as balance_module
    import qqdesign.bounds as bounds_module

    terms = []

    def spy(p, q, s1, s2, k, term):
        def recorded(cells):
            terms.append(cells)
            return term(cells)

        return balance_module._split_sum(p, q, s1, s2, k, recorded)

    def unhistogrammed(*args):
        raise AssertionError("the refusal must come before the row pairs are counted")

    monkeypatch.setattr(bounds_module, "_split_sum", spy)
    # the full-factorial part alone is about e^764, past the largest float's e^709.8
    with pytest.raises(DomainError, match="overflows a float"):
        lb2(2, 0, 2400, 2)
    assert terms == []
    monkeypatch.setattr(balance_module, "_agreement_histogram", unhistogrammed)
    with pytest.raises(DomainError, match="overflows a float"):
        qqd_from_balance(random_utype(DesignSpec(n=2, p=0, q=2400, levels=(2,) * 2400), 0))
    # near the edge the exact path decides: lb2 overflows from q = 1753 at n = 2
    with pytest.raises(DomainError, match="overflows a float"):
        lb2(2, 0, 1753, 2)
    assert terms
    assert math.isfinite(lb2(2, 0, 1752, 2))
    # the exact full-factorial part alone overflows from q = 2229 at n = 2, p = 0,
    # s = 2 and from p = 2622 at q = 1, s = 4: no sum is read from there on
    for args in [(2, 0, 2229, 2), (2, 0, 2231, 2), (4, 2622, 1, 4)]:
        terms.clear()
        with pytest.raises(DomainError, match="overflows a float"):
            lb2(*args)
        assert terms == []


def test_full_factorial_powers_each_level_count_exactly():
    from qqdesign.balance import _full_factorial

    a, b = Fraction(3, 2), Fraction(5, 4)
    rng = np.random.default_rng(5)
    for _ in range(40):
        s_qual, s_quant = (rng.choice([1, 2, 3, 5, 16], rng.integers(0, 30)).tolist()
                           for _ in range(2))
        head = math.prod(((a + (s - 1) * b) / s for s in s_qual), start=Fraction(1))
        tail = math.prod((Fraction(8 * s * s + 1, 6 * s * s) for s in s_quant), start=Fraction(1))
        want = head * (tail - Fraction(4, 3) ** len(s_quant))
        got = _full_factorial(s_qual, s_quant)
        assert isinstance(got, Fraction) and got == want


def test_lb_is_memoised_per_spec_and_never_memoises_a_refusal():
    spec = DesignSpec(n=16, p=1, q=2, levels=(4, 2, 2))
    report = lb(spec)
    assert lb(DesignSpec(n=16, p=1, q=2, levels=(4, 2, 2))) is report
    with pytest.raises(AttributeError):
        report.value = 0.0  # frozen
    infeasible = DesignSpec(n=6, p=1, q=1, levels=(4, 2))
    for _ in range(2):
        with pytest.raises(DomainError, match="does not divide"):
            lb(infeasible)


# ------------------------------------------------------------------- dominance

def test_dominance_on_randomized_utype_designs():
    checked = 0
    for spec in DOMINANCE_SPECS:
        bound = lb(spec).value
        for seed in range(25):
            design = random_utype(spec, seed)
            assert qqd_squared(design) >= bound - 1e-10, (spec, seed)
            checked += 1
    assert checked >= 500


def test_dominance_on_permuted_full_factorials():
    rng = np.random.default_rng(23)
    for levels, p in [((2, 2), 1), ((4, 2, 2), 1), ((2, 3), 1), ((3, 2, 2), 2)]:
        spec = DesignSpec(n=1, p=p, q=len(levels) - p, levels=levels)
        design = full_factorial(spec, 1)
        bound = lb(design.spec).value
        for _ in range(5):
            perm = rng.permutation(design.spec.n)
            value = qqd_squared(
                design_from_levels(
                    design.spec,
                    design.qualitative[perm],
                    design.quantitative_as_levels()[perm],
                )
            )
            assert value >= bound - 1e-10
