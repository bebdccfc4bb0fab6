import math
import tracemalloc
from fractions import Fraction
from functools import partial

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
    balance_component,
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
from qqdesign import discrepancy
from qqdesign.model import DEFAULT_CONFIG
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
    from qqdesign.discrepancy import _buffers, _closed_form_steps, _constant_term, _row_weights

    ratio_powers = (1.5 / 1.25) ** np.arange(p + 1)
    steps, _ = _closed_form_steps(design.qualitative, design.quantitative, design.spec.levels,
                                  DEFAULT_CONFIG, ratio_powers)
    w = 1.25**p * _row_weights(steps, slice(None), 0, _buffers(n, n))
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


# the walks the row-pair tests run at: PAIR_BLOCK below n (a row per block), the
# default (a short last block at the n tested) and n^2 (one block)
WALKS = pytest.mark.parametrize("walk", ["one-row", "ragged", "one-block"])


def _walk_at(monkeypatch, n, walk):
    """Set PAIR_BLOCK so that ``_row_blocks`` walks n rows as ``walk`` says; check that walk."""
    size = {"one-row": n - 1, "ragged": discrepancy.PAIR_BLOCK, "one-block": n * n}[walk]
    monkeypatch.setattr(discrepancy, "PAIR_BLOCK", size)
    height = discrepancy._block_height(n)
    blocks = list(discrepancy._row_blocks(n, discrepancy._agreement_buffers(height, n)))
    heights = [rows.stop - rows.start for rows, _, _ in blocks]
    assert {"one-row": heights == [1] * n, "one-block": heights == [n],
            "ragged": len(heights) > 1 and 0 < heights[-1] < heights[0]}[walk], heights
    stop = 0
    for rows, start, views in blocks:
        assert rows.start == start == stop and rows.step is None
        stop = rows.stop
        for view, first in zip(views, blocks[0][2]):  # views on one buffer set
            assert view.shape == (rows.stop - start, n - start) and view.flags.c_contiguous
            assert np.shares_memory(view, first)
    assert stop == n


@WALKS
def test_closed_form_over_row_blocks_matches_dense_sum(monkeypatch, walk):
    n = 600
    _walk_at(monkeypatch, n, walk)
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


def _dirty_buffers(rows, cols):
    """``_buffers`` filled with NaN and 7, so a value left in them would show."""
    out = discrepancy._buffers(rows, cols)
    for buffer in out:
        buffer[...] = np.nan if buffer.dtype.kind == "f" else 7
    return out


def test_row_weights_from_a_column_start_match_the_full_rows():
    ratio_powers = (1.5 / 1.25) ** np.arange(3)
    mixed = random_utype(DesignSpec(n=24, p=2, q=2, levels=(4, 3, 24, 8)), 2)
    lone = random_utype(DesignSpec(n=6, p=1, q=0, levels=(3,)), 2)
    qual, (wide, narrow) = mixed.qualitative, mixed.quantitative.T
    kernel, agreement, gather = (discrepancy._kernel_step, discrepancy._agreement_step,
                                 discrepancy._gather)
    # every step kind: formula kernels (also unbuffered), agreements without a column, both
    # tables' rows; a gather copies whole rows into scratch of the block's height by n
    kernels = [partial(kernel, wide), partial(kernel, narrow)]
    unbuffered = [partial(kernel, wide, subtract=discrepancy._unbuffered_subtract)]
    quantitative_codes = mixed._exact_columns()[1]
    qualitative_codes = np.ravel_multi_index(tuple(qual.T), (4, 3))
    full_rows = np.full((24, 24), np.nan)
    step_lists = [
        [*kernels, partial(agreement, qual, ratio_powers, None)],
        [*kernels, partial(agreement, qual, ratio_powers, 0)],
        [kernels[0], partial(agreement, qual, ratio_powers, 3)],
        [*unbuffered, partial(agreement, qual, ratio_powers, 1)],
        [partial(gather, quantitative_codes,
                 discrepancy._quantitative_table(8).take(quantitative_codes, 1), full_rows),
         partial(gather, qualitative_codes,
                 discrepancy._qualitative_table((4, 3), DEFAULT_CONFIG).take(qualitative_codes, 1),
                 full_rows)],
    ]
    blocks = [(slice(5, 9), 5), (slice(0, 24), 0), (slice(20, 24), 20), (slice(3, 4), 10)]
    cases = [(24, steps, rows, start) for rows, start in blocks for steps in step_lists]
    lone_steps = [partial(agreement, lone.qualitative, ratio_powers, None)]
    cases += [(6, lone_steps, slice(2, 4), 2), (6, [], slice(2, 4), 2)]  # no step: all ones
    for n, steps, rows, start in cases:
        height = len(range(n)[rows])
        full = discrepancy._row_weights(steps, rows, 0, _dirty_buffers(height, n))
        out = _dirty_buffers(height, n - start)
        part = discrepancy._row_weights(steps, rows, start, out)
        assert part is out[0]
        assert part.tobytes() == full[:, start:].tobytes()
        if not steps:
            assert part.tobytes() == np.ones(part.shape).tobytes()


def test_in_place_kernel_is_the_formula_bit_for_bit():
    rng = np.random.default_rng(3)
    lattice = (2 * rng.integers(0, 16, 40) + 1) / 32  # repeated points: d = 0
    inputs = [
        (rng.random((5, 1)), rng.random(40)),
        (lattice[:6, None], lattice),
        (lattice[:1, None], lattice[:1]),  # d = 0 alone
        (np.zeros((2, 1)), np.array([0.0, 1.0, 0.5])),  # d = 0, 1 and 1/2
    ]
    for x, z in inputs:
        d = np.abs(x - z)
        want = 1.5 - d + d * d
        # one column holding x, then z: rows x against rows z
        values, rows = np.concatenate((x[:, 0], z)), slice(0, len(x))
        out = _dirty_buffers(*want.shape)
        got = discrepancy._kernel_step(values, rows, len(x), out[1], out)
        assert got is out[1]
        assert got.tobytes() == want.tobytes()
    # the only column skipped leaves no step: all ones, whatever the buffers held
    design = random_utype(DesignSpec(n=6, p=0, q=1, levels=(6,)), 1)
    others, own = PairCache(design)._row_steps(0)
    assert others == [] and own.func is discrepancy._kernel_step
    weights = discrepancy._row_weights(others, slice(2, 4), 2, _dirty_buffers(2, 4))
    assert weights.tobytes() == np.ones((2, 4)).tobytes()


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
        steps, _ = discrepancy._closed_form_steps(
            design.qualitative, design.quantitative, spec.levels, DEFAULT_CONFIG,
            (1.5 / 1.25) ** np.arange(p + 1),
        )
        # one block takes no table: every step is the formula's
        assert {step.func for step in steps} <= {discrepancy._kernel_step,
                                               discrepancy._agreement_step}
        w = discrepancy._row_weights(steps, slice(None), 0, discrepancy._buffers(n, n))
        C = discrepancy._constant_term(spec.qualitative_levels, spec.q, 1.5, 1.25)
        assert qqd_squared(design) == C + float(float(np.sum(w)) * np.float64(1.25) ** p / n**2)


def _formula_closed_form(qualitative, quantitative, s_qual, config=DEFAULT_CONFIG):
    """A frozen copy of the closed form that builds every pair weight from the formula.

    The same row blocks, product order (quantitative columns in column
    order, then (a/b)^delta) and sums (``np.sum`` per square part and per
    rest, ``math.fsum`` across them) as ``qqd_squared``, without tables.
    """
    n, p = qualitative.shape
    with np.errstate(all="ignore"):
        ratio_powers = (config.a / config.b) ** np.arange(p + 1)
        step = min(max(1, discrepancy.PAIR_BLOCK // n), n)
        partials = []
        for start in range(0, n, step):
            rows = slice(start, min(start + step, n))
            weights = None
            for x in quantitative.T:
                d = np.abs(x[rows, None] - x[start:])
                kernel = (1.5 - d) + d * d
                weights = kernel if weights is None else weights * kernel
            if p:
                agree = sum((c[rows, None] == c[start:]).astype(np.intp) for c in qualitative.T)
                weights = ratio_powers[agree] if weights is None else weights * ratio_powers[agree]
            square = weights.shape[0]
            partials.append(float(np.sum(weights[:, :square])))
            if square < weights.shape[1]:
                partials.append(2.0 * float(np.sum(weights[:, square:])))
        pairs = float(math.fsum(partials) * np.float64(config.b) ** p / n**2)
    constant = discrepancy._constant_term(s_qual, quantitative.shape[1], config.a, config.b)
    return discrepancy._finite(constant, pairs, config)


# (n, qualitative levels, quantitative levels): sqrt(PAIR_BLOCK) is 181.02, so
# n = 181 is one block and 182 two, s = 181 takes a table and 182 the formula,
# and Q = 181 qualitative level combinations take a table and Q = 13 * 14 agreements
TABLE_SHAPES = {
    "one-block": (181, (4, 3), (16, 181)),
    "two-blocks": (182, (4, 3), (16, 181, 182)),
    "qualitative-table-at-its-cap": (182, (181,), (2,)),
    "qualitative-agreements-above-its-cap": (182, (13, 14), (8,)),
    "p=0": (200, (), (4, 32)),
    "q=0": (200, (2, 3, 5), ()),
    "ragged-blocks": (420, (2, 2, 3), (7, 64)),
}


@pytest.mark.parametrize("shape", TABLE_SHAPES.values(), ids=TABLE_SHAPES.keys())
@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kinds=st.lists(st.sampled_from(["lattice", "near-lattice", "raw"]), min_size=3, max_size=3),
    ratio=st.floats(1.01, 4.0),
    b=st.floats(0.05, 3.0),
)
def test_table_gathers_equal_the_formula_bit_for_bit(shape, seed, kinds, ratio, b):
    assert 181**2 <= discrepancy.PAIR_BLOCK < 182**2
    n, s_qual, s_quant = shape
    rng = np.random.default_rng(seed)
    spec = DesignSpec(n=n, p=len(s_qual), q=len(s_quant), levels=s_qual + s_quant)
    qual, levels = (np.array([rng.integers(0, s, n) for s in counts]).reshape(-1, n).T
                    for counts in (s_qual, s_quant))
    quant = design_from_levels(spec, qual, levels).quantitative.copy()
    for k, kind in enumerate(kinds[: spec.q]):
        if kind == "near-lattice":  # inside LATTICE_TOL of the lattice, some rows off it
            rows = rng.choice(n, 5, replace=False)
            quant[rows, k] += rng.choice([-1, 1], 5) * rng.uniform(1e-14, 1e-10, 5)
        elif kind == "raw":
            quant[:, k] = rng.random(n)
    design = Design(spec, qual, quant)
    assert design.is_lattice() == ("raw" not in kinds[: spec.q])
    config = CriterionConfig(a=b * ratio, b=b)
    for weights in (DEFAULT_CONFIG, config):
        want = _formula_closed_form(design.qualitative, design.quantitative, s_qual, weights)
        assert qqd_squared(design, weights) == want
        if spec.p:
            assert dd(design, weights) == _formula_closed_form(
                design.qualitative, np.zeros((n, 0)), s_qual, weights
            )
    if spec.q:
        assert wd_squared(design) == _formula_closed_form(
            np.zeros((n, 0), np.int64), design.quantitative, ()
        )
    # the tables are taken exactly where they pay: several blocks, s^2 and Q^2 within a block
    steps, _ = discrepancy._closed_form_steps(
        design.qualitative, design.quantitative, spec.levels, DEFAULT_CONFIG, np.ones(spec.p + 1),
        design._exact_columns,
    )
    several = n * n > discrepancy.PAIR_BLOCK
    gather, kernel, agreement = (discrepancy._gather, discrepancy._kernel_step,
                                 discrepancy._agreement_step)
    expected = [gather if several and kind == "lattice" and s * s <= discrepancy.PAIR_BLOCK
                else kernel for s, kind in zip(s_quant, kinds)]
    if spec.p:
        fits = several and math.prod(s_qual) ** 2 <= discrepancy.PAIR_BLOCK
        expected.append(gather if fits else agreement)
    assert [step.func for step in steps] == expected


def _eval_large_designs():
    """Designs shaped as the benchmark's eval_large files: n = 2048 over (4, 4, 16, 32), p = 2.

    One on the lattice, whose three factors read table rows, and one with
    the same qualitative columns at raw quantitative values, whose two
    kernels run from the formula.
    """
    spec = DesignSpec(n=2048, p=2, q=2, levels=(4, 4, 16, 32))
    lattice = random_utype(spec, 0)
    raw = Design(spec, lattice.qualitative, np.random.default_rng(0).random((2048, 2)))
    return lattice, raw


def test_closed_form_is_the_formula_bit_for_bit_at_the_benchmark_sizes():
    for design in _eval_large_designs():
        qual, quant = design.qualitative, design.quantitative
        assert qqd_squared(design) == _formula_closed_form(qual, quant, (4, 4))
        assert wd_squared(design) == _formula_closed_form(np.zeros((2048, 0), np.int64), quant, ())
        assert dd(design) == _formula_closed_form(qual, np.zeros((2048, 0)), (4, 4))
    # search_large's U(1024; 4 * 1024^2): two formula kernels and the qualitative table
    design = random_utype(DesignSpec(n=1024, p=1, q=2, levels=(4, 1024, 1024)), 0)
    assert qqd_squared(design) == _formula_closed_form(design.qualitative, design.quantitative, (4,))


def test_closed_form_leaves_numpys_buffer_size_as_it_found_it():
    size = np.getbufsize()
    # several blocks: 512-level columns run the formula, with an unbuffered subtract
    design = random_utype(DesignSpec(n=512, p=2, q=2, levels=(4, 4, 512, 512)), 0)
    steps, _ = discrepancy._closed_form_steps(
        design.qualitative, design.quantitative, design.spec.levels, DEFAULT_CONFIG,
        np.ones(3), design._exact_columns,
    )
    assert [step.keywords for step in steps[:2]] == [
        {"subtract": discrepancy._unbuffered_subtract}] * 2
    qqd_squared(design)
    assert np.getbufsize() == size
    # (a/b)^2 = 1e600 overflows, so the pair sum does
    with pytest.raises(DomainError, match="the pair sum of the kernel weights overflow"):
        qqd_squared(design, CriterionConfig(a=1e300, b=1.0))
    assert np.getbufsize() == size
    with pytest.raises(ValueError):  # shapes that do not broadcast
        discrepancy._unbuffered_subtract(np.ones(3), np.ones(4), np.empty(3))
    assert np.getbufsize() == size


def test_closed_form_allocates_its_walk_once_and_iterates_the_subtract_unbuffered():
    lattice, raw = _eval_large_designs()
    for design, table_rows in ((raw, 16), (lattice, 16 + 32 + 16)):
        qqd_squared(design)  # the design's cached decode is made outside the trace
        tracemalloc.start()
        try:
            qqd_squared(design)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one allocation: the walk's buffers (three float64 and two intp 16 x 2048
        # blocks and a bool one, 1.28 MB), one block of full rows for the gathers
        # (256 KB) and each table's rows T[:, codes] (2048 floats a row: the raw
        # design's qualitative table, 16 rows, 256 KB; the lattice's 16 + 32 + 16
        # rows, 1 MB).  Beyond it: the sums' 64 KB reduction buffer and the
        # qualitative codes (16 KB).  numpy's buffered broadcast subtract took
        # 132 KB on top of the walk, and per-block indexed copies 256 KB
        block = 16 * 2048
        walk = (3 * 8 + 2 * np.dtype(np.intp).itemsize + 1) * block + 8 * (16 + table_rows) * 2048
        assert walk < peak < walk + 112 * 1024


def test_agreement_histogram_builds_its_blocks_in_one_buffer_set():
    # eight 2-level columns at n = 2048: blocks of 16 rows, 2^15 intp codes (256 KB)
    levels = random_utype(DesignSpec(n=2048, p=4, q=4, levels=(2,) * 8), 0).all_levels()
    for masks, codes in ((True, 1 << np.arange(8)), (False, np.ones(8, np.intp))):
        size = codes.sum() + 1
        want = sum(np.bincount((row == levels) @ codes, minlength=size) for row in levels)
        discrepancy._agreement_histogram(levels, masks)
        tracemalloc.start()
        try:
            hist = discrepancy._agreement_histogram(levels, masks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert hist.tolist() == want.tolist()
        # two intp blocks and one bool block make 544 KB; a fresh block per row
        # block, its ravelled copy and a casting add per column peaked at 672 KB
        assert peak < 640 * 1024


@WALKS
def test_agreement_histogram_over_several_blocks_counts_every_ordered_pair(monkeypatch, walk):
    n = 200
    _walk_at(monkeypatch, n, walk)
    design = random_utype(DesignSpec(n=n, p=3, q=2, levels=(4, 4, 4, 2, 2)), 6)
    levels = design.all_levels()
    hist = discrepancy._agreement_histogram(levels, masks=False)
    assert int(hist.sum()) == n * n
    same = levels[:, None, :] == levels[None, :, :]
    assert hist.tolist() == np.bincount(same.sum(axis=2).ravel(), minlength=6).tolist()
    masks = (same << np.arange(5)).sum(axis=2)  # bit c: the rows agree on column c
    want = np.bincount(masks.ravel(), minlength=32).tolist()
    assert discrepancy._agreement_histogram(levels, masks=True).tolist() == want
    pattern = balance_pattern(design)
    assert balance_pattern_rowform(design).aggregate == pattern.aggregate
    assert len(pattern.components) == 31
    for cols, value in pattern.components.items():
        assert value == balance_component(design, cols), cols


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
    with pytest.raises(DomainError, match="the pair sum of the kernel weights overflow"):
        qqd_squared(design, config)
    with pytest.raises(DomainError, match="the pair sum of the kernel weights overflow"):
        PairCache(design, config)


def test_closed_form_refuses_a_constant_term_that_overflows():
    # (4/3)^2500 overflows a float power, which raises instead of giving inf
    design = random_utype(DesignSpec(n=2, p=0, q=2500, levels=(2,) * 2500), 0)
    with pytest.raises(DomainError, match="the constant term and the pair sum .* overflow"):
        qqd_squared(design)


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


def test_quadratic_form_memory_is_linear_in_the_levels():
    # one s = 2000 factor: its dense kernel alone would be 32 MB
    design = random_utype(DesignSpec(n=2000, p=0, q=1, levels=(2000,)), 0)
    tracemalloc.start()
    try:
        value = qqd_squared_quadratic(design)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert abs(value - qqd_squared(design)) < 1e-10
    # kernels over several row blocks next to a small factor, either type
    for levels in ((5, 1000), (1000, 5)):
        design = random_utype(DesignSpec(n=1000, p=1, q=1, levels=levels), 2)
        assert abs(qqd_squared_quadratic(design) - qqd_squared(design)) < 1e-10


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


# ----------------------------------------------- the cheaper route of a value

# criterion -> (reads the qualitative block, reads the quantitative block, closed form)
CRITERIA = {
    "qqd": (True, True, qqd_squared),
    "wd": (False, True, lambda design, config: wd_squared(design)),
    "dd": (True, False, dd),
}

# (spec, the criteria that take the quadratic form on its lattice designs): it
# needs n^2 > PAIR_BLOCK (n >= 182), and N <= QUADRATIC_FORM_CAP and
# N * sum(s_k) <= n^2 over the blocks the criterion reads
ROUTE_SPECS = {
    "several-shapes": (DesignSpec(n=182, p=1, q=2, levels=(2, 7, 13)), {"qqd", "wd", "dd"}),
    "grid-cost-at-n-squared": (DesignSpec(n=182, p=0, q=1, levels=(182,)), {"qqd", "wd"}),
    "grid-cost-over-n-squared": (DesignSpec(n=200, p=0, q=2, levels=(200, 2)), set()),
    "quantitative-grid-too-costly": (DesignSpec(n=256, p=1, q=2, levels=(2, 64, 64)), {"dd"}),
    "four-factors": (DesignSpec(n=512, p=2, q=2, levels=(4, 4, 8, 16)), {"qqd", "wd", "dd"}),
    "grid-over-the-cap": (DesignSpec(n=2048, p=2, q=2, levels=(4, 4, 16, 64)), {"wd", "dd"}),
    "single-block": (DesignSpec(n=181, p=1, q=1, levels=(181, 181)), set()),
}


@pytest.mark.parametrize("spec, quadratic", ROUTE_SPECS.values(), ids=ROUTE_SPECS.keys())
@pytest.mark.parametrize("config", [DEFAULT_CONFIG, CriterionConfig(a=3.7, b=0.4)])
def test_cheaper_route_takes_the_quadratic_form_where_the_rule_says(spec, quadratic, config):
    design = random_utype(spec, 0)
    for name, (qualitative, quantitative, closed) in CRITERIA.items():
        value = discrepancy._cheaper_quadratic_form(design, config, qualitative, quantitative)
        if name not in quadratic:
            assert value is None, name
        elif name != "wd" or config == DEFAULT_CONFIG:  # wd reads no weight
            assert abs(value - closed(design, config)) <= 1e-12, name


def test_cheaper_route_keeps_the_closed_form_off_the_exact_lattice_and_on_one_block():
    design = random_utype(DesignSpec(n=182, p=1, q=2, levels=(2, 7, 13)), 0)
    near = design.quantitative.copy()
    near[5, 1] += 1e-12  # inside LATTICE_TOL, off the lattice point
    raw = np.random.default_rng(0).random(near.shape)
    for quantitative in (near, raw):
        off = Design(design.spec, design.qualitative, quantitative)
        assert discrepancy._cheaper_quadratic_form(off, DEFAULT_CONFIG, True, True) is None
        assert discrepancy._cheaper_quadratic_form(off, DEFAULT_CONFIG, False, True) is None
        # dd reads no quantitative column
        value = discrepancy._cheaper_quadratic_form(off, DEFAULT_CONFIG, True, False)
        assert abs(value - dd(off)) <= 1e-12
    assert Design(design.spec, design.qualitative, near).is_lattice()
    for spec in RANDOM_SPECS:  # every one walks a single block
        for kinds in ((True, True), (False, True), (True, False)):
            assert discrepancy._cheaper_quadratic_form(random_utype(spec, 0), DEFAULT_CONFIG,
                                                       *kinds) is None


@pytest.mark.filterwarnings("error")
def test_cheaper_route_refuses_non_finite_kernel_weights():
    design = random_utype(DesignSpec(n=182, p=1, q=2, levels=(2, 7, 13)), 0)
    with pytest.raises(DomainError, match="kernel weights overflow"):
        discrepancy._cheaper_quadratic_form(design, CriterionConfig(a=1e308, b=1e-308), True, False)


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


def _routes(designs, config=None):
    """Whether PairCache takes the cell route, per design."""
    return [PairCache(design, config)._cell_route for design in designs]


def test_swap_and_swap_back_restores_design_exactly():
    # the MCD has N = 32 n and is scored from rows, the juxtaposed design N = 4 n in cells
    designs = [load_reference_design(name) for name in ("mcd_16run_1", "juxtaposed_16run_1")]
    assert _routes(designs) == [False, True]
    for design in designs:
        cache = PairCache(design)
        before = cache.value()
        forward = cache.delta(1, 2, 9)
        value = cache.apply_swap(1, 2, 9)
        assert value != before
        assert value == before + forward
        back = cache.delta(1, 2, 9)
        # rows: the same terms, negated, summed in the same order; cells: exact
        assert back == -forward
        value = cache.apply_swap(1, 2, 9)
        assert value == pytest.approx(before, abs=1e-15)
        assert Design(cache.spec, *cache.levels()) == design
        # apply_swap without delta scores the swap it commits itself
        cache.apply_swap(1, 2, 9)
        assert cache.apply_swap(1, 2, 9) == pytest.approx(before, abs=1e-15)


def test_swap_within_constant_column_changes_nothing():
    spec = DesignSpec(n=4, p=1, q=1, levels=(1, 2))
    design = design_from_levels(spec, [[0]] * 4, [[0], [1], [0], [1]])
    configs = [DEFAULT_CONFIG, CriterionConfig(a=3.7, b=0.4)]
    assert [_routes([design], config) for config in configs] == [[True], [False]]
    for config in configs:
        cache = PairCache(design, config)
        before = cache.value()
        assert cache.columns[0][0] == cache.columns[0][3]
        assert cache.delta(0, 0, 3) == 0.0
        assert cache.apply_swap(0, 0, 3) == before
        assert Design(cache.spec, *cache.levels()) == design


def test_swap_equal_rows_is_noop():
    designs = [load_reference_design(name) for name in ("mcd_8run_1", "juxtaposed_16run_1")]
    assert _routes(designs) == [False, True]
    for design in designs:
        cache = PairCache(design)
        assert cache.delta(0, 3, 3) == 0.0
        value = cache.apply_swap(0, 3, 3)
        assert value == cache.value() == pytest.approx(qqd_squared(design), abs=1e-12)


def test_swap_matches_full_recompute_on_random_designs():
    rng = np.random.default_rng(5)
    designs = [random_utype(spec, 7) for spec in RANDOM_SPECS[:8]]
    assert set(_routes(designs)) == {False, True}
    for design in designs:
        spec = design.spec
        cache = PairCache(design)
        for _ in range(6):
            col = int(rng.integers(spec.m))
            i, j = (int(v) for v in rng.choice(spec.n, size=2, replace=False))
            before = cache.value()
            change = cache.delta(col, i, j)
            value = cache.apply_swap(col, i, j)
            assert value == before + change
            assert value == pytest.approx(qqd_squared(Design(cache.spec, *cache.levels())), abs=1e-10)
            assert cache.lattice().tolist() == Design(spec, *cache.levels())._lattice.tolist()


@pytest.mark.parametrize("config", [DEFAULT_CONFIG, CriterionConfig(a=3.7, b=0.4),
                                    CriterionConfig(a=1.0 + 2**-40, b=1.0)])
def test_row_route_scores_a_qualitative_column_as_its_weights_bit_for_bit(config):
    # the own step writes agreements as a/b - 1; the weights' difference,
    # (a/b)^agreement of the column from the formula, must give the same bits
    design = random_utype(DesignSpec(n=64, p=2, q=2, levels=(4, 2, 64, 64)), 0)
    cache, weights = PairCache(design, config), PairCache(design, config)
    assert not cache._cell_route
    for column in range(2):
        others, own = weights._row_steps(column)
        assert own.func is discrepancy._same_step and own.args[1] == config.a / config.b - 1.0
        formula = partial(discrepancy._agreement_step, weights._qual[:, column : column + 1],
                          weights._ratio_powers, None)
        weights._steps[column] = (others, formula)
    rng = np.random.default_rng(2)
    scored = 0
    while scored < 60:
        column = int(rng.integers(2))
        i, j = (int(v) for v in rng.choice(64, size=2, replace=False))
        if cache.columns[column][i] != cache.columns[column][j]:
            assert cache.delta(column, i, j).hex() == weights.delta(column, i, j).hex()
            cache.apply_swap(column, i, j)
            weights.apply_swap(column, i, j)
            scored += 1


@pytest.mark.parametrize("kind", ["near", "raw"])
def test_swaps_carry_the_decode_of_values_off_the_lattice(kind):
    # the decode is per entry, so swapping it with the values decodes the swapped values
    design = random_utype(DesignSpec(n=12, p=1, q=2, levels=(2, 3, 4)), 3)
    rng = np.random.default_rng(1)
    quant = design.quantitative.copy()
    if kind == "near":  # inside LATTICE_TOL, off the lattice points: every value still decodes
        quant[::3] += 1e-12
    else:
        quant[::3, 1] = rng.random(4)  # column 2 decodes to -1 in these rows
    start = Design(design.spec, design.qualitative, quant)
    cache = PairCache(start)
    assert not cache._cell_route
    for _ in range(30):
        col = int(rng.integers(3))
        i, j = (int(v) for v in rng.choice(12, size=2, replace=False))
        cache.apply_swap(col, i, j)
        current = Design(start.spec, *cache.levels())
        assert cache.lattice().tolist() == current._lattice.tolist()
    assert (cache.lattice().min() >= 0) == (kind == "near")


def test_swap_rejects_out_of_range_indices():
    cache = PairCache(load_reference_design("mcd_8run_1"))
    for args in [(3, 0, 1), (-1, 0, 1), (0, 0, 8), (1, -1, 2)]:
        for method in (cache.delta, cache.apply_swap):
            with pytest.raises(DomainError, match="out of range"):
                method(*args)


@pytest.mark.parametrize("method", ["delta", "apply_swap"])
@pytest.mark.parametrize(
    "config, cell_route",
    [(CriterionConfig(a=2.0, b=1.0), True), (CriterionConfig(a=3.7, b=0.4), False)],
    ids=["cell", "row"],
)
@pytest.mark.parametrize(
    "args, named",
    [((0, 1.0, 2), "row index"), ((0, True, 2), "row index"), ((True, 1, 2), "column index"),
     ((1.0, 1, 2), "column index")],
    ids=["float-row", "bool-row", "bool-column", "float-column"],
)
def test_swap_refuses_indices_that_are_not_integers(method, config, cell_route, args, named):
    design = random_utype(DesignSpec(n=8, p=1, q=2, levels=(2, 2, 2)), 0)
    cache = PairCache(design, config)
    assert cache._cell_route is cell_route
    with pytest.raises(DomainError, match=f"{named} must be an integer"):
        getattr(cache, method)(*args)
    # numpy integers are integers, and score a swap of unequal entries as Python ints do
    column = design.qualitative[:, 0].tolist()
    j = column.index(1 - column[0])
    expected = getattr(PairCache(design, config), method)(0, 0, j)
    assert getattr(cache, method)(np.int64(0), np.int64(0), np.int64(j)) == expected


@pytest.mark.parametrize("raw", [False, True], ids=["cell", "row"])
def test_the_search_calls_and_the_public_calls_commit_the_same_swaps(raw):
    # a: _score and _commit of the proposals the search makes; b: apply_swap
    # alone; c: delta, up to three times, before each apply_swap
    design = random_utype(DesignSpec(n=12, p=1, q=2, levels=(2, 3, 4)), 3)
    if raw:  # raw values in column 2 decode to -1, and send the cache to rows
        quant = design.quantitative.copy()
        quant[::3, 1] = np.random.default_rng(1).random(4)
        design = Design(design.spec, design.qualitative, quant)
    a, b, c = (PairCache(design) for _ in range(3))
    assert a._cell_route is (not raw)
    rng = np.random.default_rng(4)
    committed = 0
    for _ in range(300):
        column, i, j = int(rng.integers(3)), int(rng.integers(12)), int(rng.integers(12))
        if i != j and a.columns[column][i] != a.columns[column][j]:
            a._commit(column, i, j, a._score(column, i, j))
            committed += 1
        b.apply_swap(column, i, j)
        state = (c.value(), *c.levels(), c.lattice())
        for _ in range(int(rng.integers(4))):
            c.delta(column, i, j)
        after = (c.value(), *c.levels(), c.lattice())
        assert state[0] == after[0] and all(map(np.array_equal, state[1:], after[1:]))
        c.apply_swap(column, i, j)
    assert committed > 100
    for cache in (b, c):
        assert cache.value().hex() == a.value().hex()
        assert all(map(np.array_equal, cache.levels(), a.levels()))
        assert np.array_equal(cache.lattice(), a.lattice())
    assert a.value() == pytest.approx(qqd_squared(Design(a.spec, *a.levels())), abs=1e-12)
    # a scored swap does not let a bool, a float or an out-of-range index through
    i = 0
    j = next(r for r in range(12) if a.columns[1][r] != a.columns[1][i])
    before = a.value()
    a.delta(1, i, j)
    for args in [(True, i, j), (1.0, i, j), (1, True, j), (1, float(i), j), (1, i, 12), (3, i, j)]:
        with pytest.raises(DomainError):
            a.apply_swap(*args)
    assert a.value() == before


def test_pair_cache_supports_general_weights():
    # 4a and 4b are integers for (2, 1), so it takes the cell route; (3.7, 0.4) takes rows
    configs = [CriterionConfig(a=2.0, b=1.0), CriterionConfig(a=3.7, b=0.4)]
    design = load_reference_design("bound_attaining_4run")
    assert [_routes([design], config) for config in configs] == [[True], [False]]
    for config in configs:
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


def _exact_pair_sum(levels, spec, config):
    """The pair sum of a lattice design in exact rationals, from its integer levels."""
    a, b = Fraction(config.a), Fraction(config.b)
    total = Fraction(0)
    for x in levels:
        for z in levels:
            product = Fraction(1)
            for k, s in enumerate(spec.levels):
                if k < spec.p:
                    product *= a if x[k] == z[k] else b
                else:
                    d = Fraction(abs(x[k] - z[k]), s)
                    product *= Fraction(3, 2) - d + d * d
            total += product
    return total


@st.composite
def _cell_route_specs(draw):
    n = draw(st.sampled_from([2, 4, 6, 8, 12]))
    p = draw(st.integers(0, 2))
    q = draw(st.integers(0 if p else 1, 2))
    levels = []
    for _ in range(p + q):  # keep N <= CELL_RATIO * n
        room = discrepancy.CELL_RATIO * n // math.prod(levels)
        fits = [s for s in range(1, n + 1) if n % s == 0 and s <= room]
        levels.append(draw(st.sampled_from(fits)))
    return DesignSpec(n=n, p=p, q=q, levels=tuple(levels))


@settings(max_examples=100, deadline=None)
@given(
    spec=_cell_route_specs(),
    seed=st.integers(0, 2**32 - 1),
    # integer weights too: 4a must read as an integer whatever a's type
    weights=st.sampled_from([(1.5, 1.25), (2, 1), (2.25, 0.5)]),
    data=st.data(),
)
def test_cell_route_change_is_the_exact_change_rounded_once(spec, seed, weights, data):
    config = CriterionConfig(a=weights[0], b=weights[1])
    design = random_utype(spec, seed)
    cache = PairCache(design, config)
    assert cache._cell_route
    for _ in range(3):
        col = data.draw(st.integers(0, spec.m - 1))
        i = data.draw(st.integers(0, spec.n - 1))
        j = data.draw(st.integers(0, spec.n - 1))
        change = cache.delta(col, i, j)
        current = Design(spec, *cache.levels())
        after = _swapped(current, col, i, j)
        exact = (_exact_pair_sum(after.all_levels(), spec, config)
                 - _exact_pair_sum(current.all_levels(), spec, config)) / spec.n**2
        assert change == float(exact)  # bit for bit
        if cache.columns[col][i] != cache.columns[col][j]:
            assert change == pytest.approx(cache._row_change(col, i, j), abs=1e-12)
            assert cache.delta(col, j, i) == change
        cache.apply_swap(col, i, j)


def test_row_route_keeps_shapes_the_cell_route_does_not_fit():
    # search_large's MCD shape: N = 4 * 1024^2, far beyond CELL_RATIO * n
    large = random_utype(DesignSpec(n=1024, p=1, q=2, levels=(4, 1024, 1024)), 0)
    small = random_utype(DesignSpec(n=16, p=1, q=2, levels=(4, 2, 2)), 0)
    raw = Design(small.spec, small.qualitative, small.quantitative * 0.999)
    # within the lattice tolerance, but not on the lattice points
    near = Design(small.spec, small.qualitative, small.quantitative + 1e-12)
    assert not raw.is_lattice() and near.is_lattice()
    assert _routes([large, raw, near, small]) == [False, False, False, True]
    # weights that do not scale to integers, and weights whose products leave no int64 headroom
    for config in (CriterionConfig(a=3.7, b=0.4), CriterionConfig(a=2.0**45, b=1.0)):
        assert _routes([small], config) == [False]
    # N = CELL_RATIO * n still takes cells, twice that takes rows
    ratio = discrepancy.CELL_RATIO
    edge, wide = (random_utype(DesignSpec(n=16, p=1, q=3, levels=(4, 2, 2, s)), 0)
                  for s in (ratio, 2 * ratio))
    assert _routes([edge, wide]) == [True, False]


def _frozen_row_change(qualitative, quantitative, config, column, row_i, row_j):
    """A frozen copy of the row route's swap score, each kernel built from the formula.

    The same products (the other quantitative columns in column order, then
    (a/b)^delta over the other qualitative columns), the same f ((a/b - 1)
    times the change of agreement for a qualitative column) and the same
    dot product and scale as ``PairCache`` on rows.
    """
    n, p = qualitative.shape
    a, b = config.a, config.b
    ratio_powers = (a / b) ** np.arange(p + 1)
    lo, hi = min(row_i, row_j), max(row_i, row_j)
    rows = [lo, hi]
    weights = None
    for k, x in enumerate(quantitative.T):
        if p + k != column:
            d = np.abs(x[rows, None] - x)
            kernel = (1.5 - d) + d * d
            weights = kernel if weights is None else weights * kernel
    others = [c for k, c in enumerate(qualitative.T) if k != column]
    if others:
        agree = sum((c[rows, None] == c).astype(np.intp) for c in others)
        weights = ratio_powers[agree] if weights is None else weights * ratio_powers[agree]
    if weights is None:  # the only column is swapped
        weights = np.ones((2, n))
    if column < p:
        col = qualitative[:, column]
        same = (col[rows, None] == col).astype(np.float64)
        f = (a / b - 1.0) * (same[1] - same[0])
    else:
        x = quantitative[:, column - p]
        d = np.abs(x[rows, None] - x)
        kernel = (1.5 - d) + d * d
        f = kernel[1] - kernel[0]
    f[lo] = f[hi] = 0.0
    return 2.0 * b**p / n**2 * float(np.dot(weights[0] - weights[1], f))


@st.composite
def _row_route_designs(draw):
    """Designs of any level counts, m = 1 and p or q = 0 among them, their columns
    on the lattice, within the lattice tolerance of it or raw."""
    n = draw(st.integers(2, 40))
    p = draw(st.integers(0, 2))
    q = draw(st.integers(0 if p else 1, 2))
    levels = tuple(draw(st.integers(1, n)) for _ in range(p + q))
    spec = DesignSpec(n=n, p=p, q=q, levels=levels)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    qual, quant_levels = (np.array([rng.integers(0, s, n) for s in counts]).reshape(-1, n).T
                          for counts in (levels[:p], levels[p:]))
    quant = design_from_levels(spec, qual, quant_levels).quantitative.copy()
    for k in range(q):
        kind = draw(st.sampled_from(["lattice", "near-lattice", "raw"]))
        if kind == "near-lattice":
            rows = rng.choice(n, min(n, 3), replace=False)
            quant[rows, k] += rng.choice([-1, 1], len(rows)) * rng.uniform(1e-14, 1e-10, len(rows))
        elif kind == "raw":
            quant[:, k] = rng.random(n)
    return Design(spec, qual, np.clip(quant, 0.0, 1.0))


@settings(max_examples=150, deadline=None)
@given(
    design=_row_route_designs(),
    weights=st.one_of(st.just((1.5, 1.25)),
                      st.tuples(st.floats(1.01, 4.0), st.floats(0.05, 3.0))
                      .map(lambda t: (t[0] * t[1], t[1]))),
    data=st.data(),
)
def test_row_route_score_is_the_frozen_formula_bit_for_bit(design, weights, data):
    spec = design.spec
    config = CriterionConfig(a=weights[0], b=weights[1])
    cache = PairCache(design, config)
    # the cell route scores exactly; its rows are scored the row route's way here
    score = cache._row_change if cache._cell_route else cache.delta
    for _ in range(4):
        column = data.draw(st.integers(0, spec.m - 1))
        i, j = data.draw(st.lists(st.integers(0, spec.n - 1), min_size=2, max_size=2,
                                  unique=True))
        if cache.columns[column][i] == cache.columns[column][j]:
            continue
        want = _frozen_row_change(*cache.levels(), config, column, i, j)
        assert score(column, i, j) == want
        cache.apply_swap(column, i, j)  # later scores read the committed columns


def test_row_route_delta_allocates_nothing_of_size_n():
    n = 4096
    cache = PairCache(random_utype(DesignSpec(n=n, p=1, q=2, levels=(4, n, n)), 0))
    assert not cache._cell_route
    rng = np.random.default_rng(4)
    # swaps in the qualitative column and in both quantitative ones
    swaps = [(column, int(i), int(j)) for column in range(3)
             for i, j in rng.integers(0, n, (17, 2))][:50]
    cache.delta(*swaps[-1])  # the first score makes the route's (2, n) buffer set
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for swap in swaps:
            cache.delta(*swap)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - base < n * 8  # one n-float array: 32 KB


def test_tracked_value_does_not_drift_over_long_runs():
    # N = 90 n takes the row route, N = 6 n the cell route
    specs = [DesignSpec(n=30, p=2, q=2, levels=(3, 5, 6, 30)),
             DesignSpec(n=30, p=2, q=2, levels=(3, 5, 6, 2))]
    designs = [random_utype(spec, 17) for spec in specs]
    assert _routes(designs) == [False, True]
    for design in designs:
        spec = design.spec
        cache = PairCache(design)
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
