"""Acceptance suite: every bundled reference value and structural claim.

One test per criterion; each prints a PASS/FAIL line (visible with
``pytest tests/test_acceptance.py -v -s``).
"""

import time
from fractions import Fraction

import numpy as np

from qqdesign import (
    Design,
    DesignSpec,
    SearchConfig,
    balance_pattern,
    balance_pattern_rowform,
    design_from_levels,
    exhaustive_uniform,
    frequency_vector,
    full_factorial,
    full_factorial_qqd,
    is_mcd,
    kernel_matrix,
    lb,
    lb1,
    lb2,
    qqd_from_balance,
    qqd_squared,
    qqd_squared_quadratic,
    random_utype,
    search_uniform,
    swd,
)
from qqdesign.reference import load_reference_design

CROSS_FORM_SPECS = [
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

BALANCE_SPECS = [
    DesignSpec(n=8, p=1, q=3, levels=(4, 2, 2, 2)),
    DesignSpec(n=8, p=2, q=2, levels=(2, 2, 2, 2)),
    DesignSpec(n=12, p=2, q=3, levels=(3, 3, 2, 2, 2)),
    DesignSpec(n=16, p=3, q=2, levels=(4, 4, 4, 2, 2)),
    DesignSpec(n=6, p=1, q=1, levels=(3, 2)),
    DesignSpec(n=4, p=2, q=2, levels=(2, 2, 2, 2)),
]


def _report(num: int, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, detail


def test_criterion_1_eight_run_pair():
    start = time.perf_counter()
    v1 = qqd_squared(load_reference_design("mcd_8run_1"))
    v2 = qqd_squared(load_reference_design("mcd_8run_2"))
    elapsed = time.perf_counter() - start
    ok = abs(v1 - 0.0213) < 5e-5 and abs(v2 - 0.0164) < 5e-5 and elapsed < 1.0
    _report(1, ok, f"qqd^2 = {v1:.6f} / {v2:.6f} vs 0.0213 / 0.0164 in {elapsed:.3f}s")


def test_criterion_2_sixteen_run_trio():
    expected = {"mcd_16run_1": 0.0066, "mcd_16run_2": 0.0063, "mcd_16run_3": 0.0060}
    errors = {}
    mcd_flags = {}
    for name, want in expected.items():
        design = load_reference_design(name)
        errors[name] = abs(qqd_squared(design) - want)
        mcd_flags[name] = is_mcd(design).passed
    ok = all(e < 5e-5 for e in errors.values()) and all(mcd_flags.values())
    _report(
        2,
        ok,
        "errors "
        + ", ".join(f"{e:.1e}" for e in errors.values())
        + f"; is_mcd {sorted(mcd_flags.values())}",
    )


def test_criterion_3_juxtaposition_and_swd():
    d1 = load_reference_design("juxtaposed_16run_1")
    d2 = load_reference_design("juxtaposed_16run_2")
    dsame = load_reference_design("juxtaposed_16run_same")
    q1, q2, qsame = qqd_squared(d1), qqd_squared(d2), qqd_squared(dsame)
    values_ok = (
        abs(q1 - 0.0822) < 5e-5 and abs(q2 - 0.0545) < 5e-5 and abs(qsame - 0.0813) < 5e-5
    )
    s2, ssame = swd(d2), swd(dsame)
    swd_ok = abs(s2 - 1.1055) < 5e-5 and abs(ssame - 1.0999) < 5e-5
    ordering_ok = qsame > q2 and ssame < s2
    ok = values_ok and swd_ok and ordering_ok
    _report(
        3,
        ok,
        f"qqd^2 {q1:.4f}/{q2:.4f}/{qsame:.4f}; swd {s2:.4f}/{ssame:.4f}; "
        f"orderings {'hold' if ordering_ok else 'violated'}",
    )


def test_criterion_4_lb2_attained_and_searchable():
    bound = lb2(4, 1, 2, 4)
    design_value = qqd_squared(load_reference_design("bound_attaining_4run"))
    result = search_uniform(
        DesignSpec(n=4, p=1, q=2, levels=(4, 2, 2)), SearchConfig(budget=10_000, seed=1)
    )
    ok = (
        abs(bound - 0.1706) < 5e-5
        and abs(design_value - bound) < 5e-5
        and result.terminated_by == "bound"
        and abs(result.best_value - bound) <= 1e-9
    )
    _report(
        4,
        ok,
        f"lb2 = {bound:.6f}, design = {design_value:.6f}, "
        f"search {result.best_value:.6f} ({result.terminated_by})",
    )


def test_criterion_5_lb1_attained():
    spec = DesignSpec(n=8, p=7, q=7, levels=(2,) * 7 + (4,) * 7)
    bound = lb1(spec)
    design_value = qqd_squared(load_reference_design("bound_attaining_8run"))
    ok = abs(bound - 17.0235) < 5e-4 and abs(design_value - 17.0235) < 5e-4
    _report(5, ok, f"lb1 = {bound:.6f}, design = {design_value:.6f} vs 17.0235")


def test_criterion_6_ccd_values():
    expected = {
        "ccd_factorial_1": 0.2255,
        "ccd_factorial_2": 0.2255,
        "ccd_factorial_3": 0.1766,
        "ccd_factorial_4": 0.1571,
        "ccd_full_1": 0.0763,
        "ccd_full_2": 0.0795,
        "ccd_full_3": 0.0792,
        "ccd_full_4": 0.0653,
    }
    errors = {
        name: abs(qqd_squared(load_reference_design(name)) - want)
        for name, want in expected.items()
    }
    ok = all(e < 5e-5 for e in errors.values())
    worst = max(errors, key=errors.get)
    _report(6, ok, f"8 values checked; worst |err| {errors[worst]:.1e} ({worst})")


def test_criterion_7_cross_form_suite():
    checked_quadratic = 0
    worst_quadratic = 0.0
    for spec in CROSS_FORM_SPECS:
        assert spec.N <= 10_000
        for seed in range(17):
            design = random_utype(spec, seed)
            diff = abs(qqd_squared(design) - qqd_squared_quadratic(design))
            worst_quadratic = max(worst_quadratic, diff)
            checked_quadratic += 1
    checked_balance = 0
    worst_balance = 0.0
    for spec in BALANCE_SPECS:
        for seed in range(17):
            design = random_utype(spec, seed)
            diff = abs(qqd_squared(design) - qqd_from_balance(design))
            worst_balance = max(worst_balance, diff)
            checked_balance += 1
            if seed < 5:
                subset = balance_pattern(design)
                rows = balance_pattern_rowform(design)
                assert subset.aggregate == rows.aggregate
    ok = (
        checked_quadratic >= 200
        and len(CROSS_FORM_SPECS) >= 10
        and worst_quadratic < 1e-10
        and checked_balance >= 100
        and worst_balance < 1e-12
    )
    _report(
        7,
        ok,
        f"{checked_quadratic} designs closed-vs-quadratic (worst {worst_quadratic:.1e}); "
        f"{checked_balance} designs closed-vs-balance (worst {worst_balance:.1e}); "
        "rowform == subset form exactly",
    )


def test_criterion_8_bounds_and_optimality():
    worst_violation = 0.0
    checked = 0
    for spec in CROSS_FORM_SPECS:
        bound = lb(spec).value
        for seed in range(17):
            value = qqd_squared(random_utype(spec, seed))
            worst_violation = min(worst_violation, value - bound)
            checked += 1
    dominance_ok = worst_violation >= -1e-10

    result = exhaustive_uniform(DesignSpec(n=4, p=1, q=1, levels=(2, 2)))
    exact = float(Fraction(11, 192))
    optimum_ok = abs(result.optimum - exact) < 1e-9
    attained_by_ff = np.array_equal(
        frequency_vector(result.design), np.ones(4, dtype=int)
    )

    repetition_ok = True
    for levels, p in [((2, 2), 1), ((2, 3), 1), ((2, 2, 4), 2)]:
        spec = DesignSpec(n=1, p=p, q=len(levels) - p, levels=levels)
        want = full_factorial_qqd(spec)
        for c in (1, 2, 3):
            if abs(qqd_squared(full_factorial(spec, c)) - want) > 1e-10:
                repetition_ok = False

    ok = dominance_ok and optimum_ok and attained_by_ff and repetition_ok
    _report(
        8,
        ok,
        f"dominance over {checked} designs (worst slack {worst_violation:.1e}); "
        f"exhaustive optimum {result.optimum:.6f} = 11/192, full-factorial attained: "
        f"{attained_by_ff}; repetition invariance: {repetition_ok}",
    )


def test_criterion_9_kernel_invariants():
    worst_row = 0.0
    for s in range(2, 13):
        spec = DesignSpec(n=s, p=1, q=1, levels=(s, s))
        qual = kernel_matrix(0, spec).sum(axis=1)
        quant = kernel_matrix(1, spec).sum(axis=1)
        worst_row = max(
            worst_row,
            float(np.max(np.abs(qual - (1.5 + 1.25 * (s - 1))))),
            float(np.max(np.abs(quant - (4 * s / 3 + 1 / (6 * s))))),
        )
    rows_ok = worst_row < 1e-12

    worst_sym = 0.0
    for name in ("mcd_8run_2", "juxtaposed_16run_2", "bound_attaining_4run"):
        design = load_reference_design(name)
        base = qqd_squared(design)
        reflected = Design(
            design.spec, design.qualitative, 1.0 - design.quantitative
        )
        levels = design.quantitative_as_levels()
        shifted = design_from_levels(
            design.spec,
            design.qualitative,
            (levels + 1) % np.array(design.spec.quantitative_levels),
        )
        worst_sym = max(
            worst_sym,
            abs(qqd_squared(reflected) - base),
            abs(qqd_squared(shifted) - base),
        )
    sym_ok = worst_sym < 1e-12
    _report(
        9,
        rows_ok and sym_ok,
        f"row sums worst |err| {worst_row:.1e}; wrap symmetries worst |err| {worst_sym:.1e}",
    )
