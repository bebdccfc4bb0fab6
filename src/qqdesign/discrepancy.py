"""The qualitative-quantitative discrepancy and its relatives.

The criterion measures non-uniformity of a mixed design through a product
kernel: qualitative factors contribute a^[same level] * b^[different
level] (defaults a=3/2, b=5/4) and quantitative factors contribute the
wrap-around kernel 3/2 - |t - z| + |t - z|^2.  The squared discrepancy of
a design with rows x_1..x_n is

    QQD^2 = C + (1/n^2) * sum_{i,j} b^p (a/b)^{delta_ij} *
            prod_k (3/2 - |x_ik - x_jk| + |x_ik - x_jk|^2)

where delta_ij counts the qualitative columns on which rows i and j
agree, the double sum includes i = j, and
C = -prod_k [(a + (s_k - 1) b)/s_k] * (4/3)^q.

Every route that reads row pairs walks them with one generator and
builds their agreements with one routine.  The kernel is symmetric in i
and j, so ``_row_blocks`` yields each unordered pair once: blocks of
rows [s, e) against rows [s, n), as views on one buffer set per walk
(memory O(n*B) for B-row blocks), whose square part (rows [s, e)) counts
once and whose rest twice.  ``_agreements`` sums exact integer codes of
the columns a pair agrees on: 1 per column for delta_ij, 2^c for column
c for an agreement mask.  ``_row_weights`` multiplies a block's
per-factor weights in the order of a list of steps, one per factor,
that its caller makes once: ``_kernel_step`` (a quantitative column),
``_agreement_step`` ((a/b)^(agreements) of a qualitative block) or
``_gather`` (rows of a table).  The closed form (``_closed_form_steps``)
takes the quantitative columns in column order, then the qualitative
block, and sums the square parts plus twice the rests (``np.add.reduce``
per part, ``math.fsum`` across them).  Where the walk has several blocks
it reads tables cached per level count: an s-level quantitative column
whose values are exactly its lattice points (its caller passes
``Design._exact_columns``; swd's rescaled slices and dd pass none) reads
T[u, v], the kernel ``_kernel_step`` gives between levels u and v, and
the qualitative block (a/b)^(agreements) over its Q level combinations,
indexed by mixed-radix codes, while s^2 or Q^2 fits in a block.  Per
call it takes each such table's rows at the n codes, T[:, codes] (s * n
floats), so a block row is one contiguous copy; these rows, one block of
full rows and the walk's buffers are one allocation.  There a kernel's
broadcast subtract runs without numpy's iteration buffers
(``_unbuffered_subtract``), which would cost more than the subtract at
rows shorter than about 3000; the sums keep numpy's default buffer,
since their bits depend on it.  A table entry is the formula on the same
floats, so every value is the formula's, bit for bit.  The swap
evaluator's row route takes, per swapped column, the other factors'
steps and the column's own: its kernel, or for a qualitative column its
agreements scaled by a/b - 1 (``_same_step``).  Both balance-pattern routes histogram every block's
codes (``_agreement_histogram``).  Setting p = 0 recovers the wrap-around
discrepancy (WD), q = 0 the discrete discrepancy (DD).

For lattice designs the same value is C + y' A y / n^2, a quadratic form
in the frequency vector y over the N level combinations, with A the
Kronecker product of per-factor kernel matrices.  ``_kronecker_apply``
applies A factor by factor, never materialized, each kernel in row
blocks: in floats for ``_quadratic_form``, and in exact int64 integers
for the swap evaluator's cell route, which keeps z = A y and scores a
swap from four entries of it in O(m), whenever N is small against n
(``PairCache``).  Both keep each circulant kernel as its first row.
``_quadratic_form`` is ``qqd_squared_quadratic``'s body over integer
level columns, so it also evaluates a block of a design: it costs about
N * sum(s_k) multiply-adds against the closed form's n^2 pair entries,
and ``_cheaper_quadratic_form`` is the one rule by which a value without
a cross-check (the CLI's wd, dd and compare) takes it instead of the
closed form.  The closed forms ``qqd_squared``, ``wd_squared`` and
``dd`` themselves never switch route.
"""

from __future__ import annotations

import ctypes
import functools
import math
from functools import partial
from typing import NamedTuple

import numpy as np

from .errors import CapacityError, DomainError
from .model import (
    DEFAULT_CONFIG,
    CriterionConfig,
    Design,
    DesignSpec,
    _combination_counts,
    _require_int,
    _unit,
)

QUADRATIC_FORM_CAP = 10_000  # largest N for which the quadratic form is evaluated
# pair entries a row block holds at a time: at 2^15 a block's buffers (three
# float64, two intp, one bool: 1.3 MB) fit a 2 MB per-core L2 cache; timed
# over 2^13..2^18 at n = 1024 and 2048 (2-vCPU Xeon), 2^14..2^16 were equally
# fast and 2^18 about twice as slow.  Keep it: it fixes the closed form's
# partial sums, so the last bits of every value and every search trace
PAIR_BLOCK = 1 << 15
# PairCache scores swaps in cell space while N <= CELL_RATIO * n: a score
# there costs O(m) against O(n m) on rows, but a commit O(N m) against O(1).
# Timed over 2000-proposal searches (2-vCPU Xeon), cells were faster up to
# N = 64 n (the largest tried) at n = 16, to about 256 n at n = 64, 16-64 n
# at n = 256, 16 n at n = 512 and 8-16 n at n = 1024, as the share of scored
# swaps that the search commits rises from 5-17% to 94%
CELL_RATIO = 8
# largest n^2 * max(scaled kernel) the cell route accepts: every integer it
# keeps or sums stays below this, far from int64's 2^63
INTEGER_HEADROOM = 1 << 60


def coincidence_number(design: Design, i: int, j: int) -> int:
    """Number of qualitative columns on which rows i and j agree."""
    n = design.spec.n
    _require_int("row index", i, j)
    if not (0 <= i < n and 0 <= j < n):
        raise DomainError(f"row index out of range for n={n}: ({i}, {j})")
    return int(np.sum(design.qualitative[i] == design.qualitative[j]))


def _lattice_kernel(d, s):
    """Wrap-around kernel at lattice distance d/s: 3/2 - d (s - d) / s^2."""
    return 1.5 - d * (s - d) / s**2


def _agreement_buffers(rows: int, cols: int):
    """rows x cols buffers for ``_agreements``: codes and matched intp, same bool."""
    return (*np.empty((2, rows, cols), np.intp), np.empty((rows, cols), np.bool_))


def _buffers(rows: int, cols: int):
    """rows x cols buffers for ``_row_weights``: three float64, then ``_agreement_buffers``' three."""
    return _buffer_set(rows, cols, 0)[0]


def _buffer_set(rows: int, cols: int, spare: int):
    """``_buffers(rows, cols)`` and ``spare`` more float64 entries, all in one allocation.

    The float64 ones start on a 64-byte cache line: the n = 1024 closed form
    ran about 20% slower on buffers 16 bytes off one (2-vCPU Xeon).  One
    allocation, not one per buffer: when the closed form freed its buffers
    and table rows as separate arrays of a few hundred KB each, glibc's
    malloc handed their pages back, and each n = 512 call faulted about 200
    pages in again; one allocation per call faulted none.
    """
    size = rows * cols
    intp = np.dtype(np.intp).itemsize
    # float64 buffers, spare and intp ones all keep the 8-byte steps; the bool one goes last
    ends = np.cumsum([0, 8 * 3 * size, 8 * spare, intp * 2 * size, size])
    raw = np.empty(ends[-1] + 63, np.uint8)
    raw = raw[-ctypes.addressof(ctypes.c_char.from_buffer(raw)) % 64 :]  # raw.ctypes is slower
    floats, spare, ints, same = (raw[a:b] for a, b in zip(ends, ends[1:]))
    buffers = (*floats.view(np.float64).reshape(3, rows, cols),
               *ints.view(np.intp).reshape(2, rows, cols), same.view(np.bool_).reshape(rows, cols))
    return buffers, spare.view(np.float64)


def _block_height(n: int) -> int:
    """Rows per block of an n-row walk: at most PAIR_BLOCK pair entries, at least one row."""
    return min(max(1, PAIR_BLOCK // n), n)


def _row_blocks(n: int, buffers):
    """Each unordered pair of n rows once: row blocks [start, stop) against rows [start, n).

    Yields ``(rows, start, views)``: the block's row slice, its first row,
    and C-contiguous (stop - start) x (n - start) views on the leading
    entries of ``buffers``, a buffer set shaped as the first and largest
    block, ``_block_height(n)`` x n (at most PAIR_BLOCK entries), so memory
    is O(n*B).  The first stop - start columns are the square part; the
    rests hold each pair i < j exactly once, so the double sum over i and j
    is the squares plus twice the rests.  Views hold a block only until the
    next one.
    """
    step = _block_height(n)
    for start in range(0, n, step):
        stop = min(start + step, n)
        views, size = buffers, (stop - start) * (n - start)
        if start:
            views = tuple(b.reshape(-1)[:size].reshape(stop - start, n - start) for b in buffers)
        yield slice(start, stop), start, views


def _agreements(levels, rows, start, out, masks=False, skip=None):
    """Exact per-pair sums of the agreeing columns' codes: rows ``rows`` against rows start..n-1.

    Column c's code is 2^c when ``masks`` is set, so a sum is the pair's
    agreement mask, and 1 otherwise, so it counts agreeing columns; column
    ``skip`` is left out, and at least one column must be left in.  The
    sums go into the codes array of ``out`` (``_agreement_buffers`` of
    their shape); the others are overwritten.
    """
    codes, matched, same = out
    counted = False
    for c in range(levels.shape[1]):
        if c != skip:
            np.equal(levels[rows, c, None], levels[start:, c], same)
            # a casting copy, then a plain add: a casting add allocates iteration buffers per call
            code = matched if counted else codes
            np.copyto(code, same)
            if masks and c:
                np.left_shift(code, c, code)
            if counted:
                np.add(codes, matched, codes)
            counted = True


def _gather(codes, table_rows, full_rows, rows, start, target, out):
    """T[codes[i], codes[j]]: a factor's weights copied from its table rows.

    ``table_rows`` is T[:, codes], the factor's table T read at the n
    rows' codes: row i of the block is row codes[i] of it from column
    start.  ``np.take`` copies the block's whole rows into ``full_rows``
    (at least the block's height by n), one contiguous run each, and
    their columns from start on are then copied into ``target``.  A
    ``take`` from the strided columns would copy them whole first, indexing
    rows and columns allocates a block per call, and a Python copy per row
    cost 0.45 us a row.
    """
    taken = np.take(table_rows, codes[rows], 0, full_rows[: target.shape[0]], "clip")
    np.copyto(target, taken[:, start:])
    return target


def _unbuffered_subtract(x, z, out):
    """``np.subtract(x, z, out)`` run without numpy's iteration buffers.

    numpy 2.x buffers a broadcast ufunc whose rows are short against its
    buffer (8192 entries by default): a (16, 2048) block of a column
    against itself took 32 us buffered, allocating 132 KB, and 9 us
    unbuffered (2-vCPU Xeon, numpy 2.4).  At the smallest buffer numpy
    iterates the rows in place, and the difference has the same bits.
    Only the subtract: the bits of a sum depend on the buffer size, and the
    agreement comparison ran faster buffered.  Setting the size twice costs
    about 2.3 us, which a block of a several-block walk repays; the row
    route's two-row scores and single-block walks keep ``np.subtract``.
    """
    size = np.setbufsize(16)
    try:
        return np.subtract(x, z, out)
    finally:
        np.setbufsize(size)


def _kernel_step(values, rows, start, target, out, subtract=np.subtract):
    """Wrap-around kernel (3/2 - |x - z|) + |x - z|^2 of one column, step by step.

    x runs over rows ``rows``, z over rows start..n-1; ``out[2]`` is
    scratch.  ``subtract`` forms x - z (``_unbuffered_subtract`` in the
    closed form's several-block walks).
    """
    work = out[2]
    subtract(values[rows, None], values[start:], work)
    np.abs(work, work)
    np.multiply(work, work, target)  # d * d
    np.subtract(1.5, work, work)
    return np.add(work, target, target)


def _agreement_step(levels, ratio_powers, skip, rows, start, target, out):
    """(a/b)^(agreements) over the columns of ``levels`` but ``skip``, from the formula."""
    _agreements(levels, rows, start, out[3:], False, skip)
    # mode="clip" lets take write into the buffer unbuffered; counts are in range
    return ratio_powers.take(out[3], None, target, "clip")


def _same_step(levels, scale, rows, start, target, out):
    """``scale`` where a pair agrees on one qualitative column, else 0.0; ``out[5]`` is scratch."""
    same = out[5]
    np.equal(levels[rows, None], levels[start:], same)
    np.copyto(target, same)  # a bool operand of multiply would be cast through a buffer
    return np.multiply(target, scale, target)


def _row_weights(steps, rows, start, out):
    """The product of per-factor pair weights of the rows ``rows`` against rows start..n-1.

    ``step(rows, start, target, out)``, an executor with its leading
    arguments bound by ``partial``, writes one factor's weights (b^p left
    out) into ``target`` and overwrites only scratch after ``out``'s first
    two arrays.  The steps multiply in list order into ``out[0]`` (``out``
    is ``_buffers`` of its shape), which is returned; no steps: all ones.
    """
    weights, kernel = out[:2]
    if not steps:
        weights.fill(1.0)
        return weights
    steps[0](rows, start, weights, out)
    for step in steps[1:]:
        step(rows, start, kernel, out)
        np.multiply(weights, kernel, weights)
    return weights


def _closed_form_steps(qualitative, quantitative, levels, config, ratio_powers, exact=None):
    """The closed form's steps and its walk's buffer set.

    The steps take each quantitative column in turn, then the qualitative
    block.  A quantitative column with exact levels reads its level table,
    and the qualitative block its agreement table over the Q level
    combinations, where a table pays: small against a block (s^2 or Q^2 <=
    PAIR_BLOCK) and reused over several (n^2 > PAIR_BLOCK).  ``exact`` is
    the design's ``_exact_columns``, called only then, or None: no column
    is.  Such a step holds the table's rows at the n codes, T[:, codes]
    (s * n floats, s and Q at most 181), and copies a block row from them
    whole (``_gather``).  The others compute their weights from the
    formula; in several blocks a kernel's broadcast subtract runs
    unbuffered (``_unbuffered_subtract``), while the walk's sums keep
    numpy's buffers, on which their bits depend.  The buffers, one block of
    full rows for ``_gather`` and the table rows are one allocation
    (``_buffer_set``).
    """
    n, p = qualitative.shape
    several = n * n > PAIR_BLOCK
    columns = exact() if exact and several else [None] * quantitative.shape[1]
    kernel = partial(_kernel_step, subtract=_unbuffered_subtract) if several else _kernel_step
    # a step, or the (table, codes) that its gather reads
    plan = [partial(kernel, values) if codes is None or s * s > PAIR_BLOCK
            else (_quantitative_table(s), codes)
            for values, s, codes in zip(quantitative.T, levels[p:], columns)]
    s_qual = levels[:p]
    if several and p and math.prod(s_qual) ** 2 <= PAIR_BLOCK:
        plan.append((_qualitative_table(s_qual, config),
                     np.ravel_multi_index(tuple(qualitative.T), s_qual)))
    elif p:
        plan.append(partial(_agreement_step, qualitative, ratio_powers, None))
    height = _block_height(n)
    held = sum(len(entry[0]) for entry in plan if isinstance(entry, tuple))  # table rows
    buffers, spare = _buffer_set(height, n, (height + held) * n if held else 0)
    spare = spare.reshape(-1, n)
    full_rows, at = spare[:height], height
    steps = []
    for entry in plan:
        if isinstance(entry, tuple):
            table, codes = entry
            # clip writes into the spare rows unbuffered; codes are in range
            table_rows = np.take(table, codes, 1, spare[at : at + len(table)], "clip")
            entry = partial(_gather, codes, table_rows, full_rows)
            at += len(table)
        steps.append(entry)
    return steps, buffers


def _ratio_powers(config: CriterionConfig, p: int) -> np.ndarray:
    """(a/b)^k for k = 0..p, the weight of k agreements; inf where it overflows.

    numpy warns on that overflow unless the caller's ``np.errstate`` ignores it.
    """
    return (config.a / config.b) ** np.arange(p + 1)


# a table has at most PAIR_BLOCK float64 entries (256 KB), so each cache holds at most 2 MB
@functools.lru_cache(maxsize=8)
def _quantitative_table(s: int) -> np.ndarray:
    """Read-only s x s T: T[u, v] is ``_kernel_step`` at the lattice points of levels u and v."""
    x = _unit(np.arange(s), s)
    # the s points against themselves; out[2] is the only scratch a kernel step takes
    table = _kernel_step(x, slice(None), 0, np.empty((s, s)), (None, None, np.empty((s, s))))
    table.setflags(write=False)
    return table


@functools.lru_cache(maxsize=8)
def _qualitative_table(s_qual: tuple[int, ...], config: CriterionConfig) -> np.ndarray:
    """Read-only R[u, v] = (a/b)^(factors on which combinations u and v agree).

    u and v are ``ravel_multi_index`` codes of level combinations of the
    qualitative factors, first factor slowest.  Built under the closed
    form's ``np.errstate``, as its ``_ratio_powers``.
    """
    digits = np.indices(s_qual).reshape(len(s_qual), -1)
    table = _ratio_powers(config, len(s_qual))[sum(d[:, None] == d for d in digits)]
    table.setflags(write=False)
    return table


def _agreement_histogram(levels: np.ndarray, masks: bool) -> np.ndarray:
    """Entry v: the number of ordered row pairs whose agreeing columns' codes sum to v (exact).

    The codes are ``_agreements``', over all columns; ``levels`` are
    non-negative.  One ``_row_blocks`` walk, as the closed form's.
    """
    n, m = levels.shape
    # numpy buffers a broadcast comparison operand in chunks of its dtype
    levels = levels.astype(np.min_scalar_type(levels.max()))
    size = 1 << m if masks else m + 1
    hist = np.zeros(size, np.intp)
    for rows, start, out in _row_blocks(n, _agreement_buffers(_block_height(n), n)):
        _agreements(levels, rows, start, out, masks)
        codes = out[0]
        # pairs within the block once, the rest twice; ravel is a view of the whole block
        hist += 2 * np.bincount(codes.ravel(), minlength=size)
        hist -= np.bincount(codes[:, : codes.shape[0]].ravel(), minlength=size)
    return hist


def _constant_term(s_qual, q: int, a: float, b: float) -> float:
    """The constant C, or -inf once (4/3)^q overflows, for the callers' finiteness checks."""
    try:
        return -math.prod((a + (s - 1) * b) / s for s in s_qual) * (4.0 / 3.0) ** q
    except OverflowError:  # a float power raises where numpy's gives inf
        return -math.inf


def _qqd_squared_arrays(
    qualitative: np.ndarray, quantitative: np.ndarray, levels, config: CriterionConfig, exact=None
) -> float:
    """The closed form of the columns, whose level counts are ``levels`` (qualitative first).

    A quantitative column reads its table only with its exact levels from
    ``exact`` (``_closed_form_steps``); a table entry is the formula on the
    same floats, so either step gives the formula's value.
    """
    n, p = qualitative.shape
    # np.sum per square part and per rest, and fsum across those partials,
    # keep the closed form and the quadratic form within ~1e-13 at n around
    # 10^3; weights that overflow (numpy's power gives inf) are refused below
    with np.errstate(all="ignore"):
        ratio_powers = _ratio_powers(config, p)
        steps, buffers = _closed_form_steps(qualitative, quantitative, levels, config,
                                            ratio_powers, exact)
        partials = []
        for rows, start, out in _row_blocks(n, buffers):
            weights = _row_weights(steps, rows, start, out)
            square = weights.shape[0]
            # np.sum's reduction without its wrapper: the same bits
            partials.append(float(np.add.reduce(weights[:, :square], None)))
            if square < weights.shape[1]:  # the last block has no rest
                partials.append(2.0 * float(np.add.reduce(weights[:, square:], None)))
        total = math.fsum(partials)
        pairs = float(total * np.float64(config.b) ** p / n**2)
    C = _constant_term(levels[:p], quantitative.shape[1], config.a, config.b)
    return _finite(C, pairs, config)


def _finite(constant: float, pairs: float, config: CriterionConfig) -> float:
    """constant + pairs, refused with DomainError naming each term that overflowed.

    C <= 0 <= the pair sum, so a non-finite value has a non-finite term.
    """
    value = constant + pairs
    if not math.isfinite(value):
        terms = [name for name, term in (("the constant term", constant),
                                         ("the pair sum of the kernel weights", pairs))
                 if not math.isfinite(term)]
        raise DomainError(
            f"the squared discrepancy is {value} for a={config.a}, b={config.b}: "
            f"{' and '.join(terms)} {'overflow' if len(terms) > 1 else 'overflows'}"
        )
    return value


def qqd_squared(design: Design, config: CriterionConfig | None = None) -> float:
    """Squared qualitative-quantitative discrepancy via the pairwise closed form."""
    config = config or DEFAULT_CONFIG
    return _qqd_squared_arrays(design.qualitative, design.quantitative, design.spec.levels, config,
                               design._exact_columns)


def wd_squared(design: Design) -> float:
    """Squared wrap-around discrepancy of the quantitative columns alone."""
    if design.spec.q == 0:
        raise DomainError("wd_squared needs at least one quantitative factor")
    empty = np.zeros((design.spec.n, 0), dtype=np.int64)
    return _qqd_squared_arrays(empty, design.quantitative, design.spec.quantitative_levels,
                               DEFAULT_CONFIG, design._exact_columns)


def dd(design: Design, config: CriterionConfig | None = None) -> float:
    """Discrete discrepancy of the qualitative columns alone (general a, b honored)."""
    if design.spec.p == 0:
        raise DomainError("dd needs at least one qualitative factor")
    config = config or DEFAULT_CONFIG
    empty = np.zeros((design.spec.n, 0), dtype=np.float64)
    return _qqd_squared_arrays(
        design.qualitative, empty, design.spec.qualitative_levels, config
    )


def _rescaled_quantitative(design: Design) -> np.ndarray:
    """Affinely map each quantitative column so its extreme values sit on 0 and 1.

    For a lattice column carrying all its levels this sends level x of an
    s-level factor to x/(s-1); a constant column maps to all zeros (its
    kernel contribution does not depend on the placement).
    """
    out = np.array(design.quantitative, dtype=np.float64)
    for k in range(out.shape[1]):
        lo = out[:, k].min()
        hi = out[:, k].max()
        out[:, k] = 0.0 if hi == lo else (out[:, k] - lo) / (hi - lo)
    return out


def swd(design: Design) -> float:
    """Sum of slice WD values: one slice per level of each qualitative factor.

    Each slice is the quantitative sub-design of the rows at one level of
    one qualitative factor, evaluated after the columns of the full design
    are rescaled to span [0, 1] exactly.  The summands are WD values, the
    square roots of the slices' squared discrepancies.
    """
    spec = design.spec
    if spec.p == 0 or spec.q == 0:
        raise DomainError("swd needs at least one factor of each type")
    scaled = _rescaled_quantitative(design)
    total = []
    for k, s in enumerate(spec.qualitative_levels):
        col = design.qualitative[:, k]
        for lev in range(s):
            rows = col == lev
            if not rows.any():
                raise DomainError(
                    f"qualitative factor {k} has no rows at level {lev}"
                )
            sub = scaled[rows]
            value = _qqd_squared_arrays(
                np.zeros((sub.shape[0], 0), dtype=np.int64), sub, spec.quantitative_levels,
                DEFAULT_CONFIG,
            )
            total.append(math.sqrt(value))
    return math.fsum(total)


def _kernel_row(s: int, qualitative: bool, config: CriterionConfig) -> np.ndarray:
    """First row of an s-level factor's kernel, which is circulant.

    d (s - d) is symmetric in d and s - d, bit for bit.
    """
    if qualitative:
        row = np.full(s, config.b)
        row[0] = config.a
        return row
    return _lattice_kernel(np.arange(s), s)


def kernel_matrix(
    k: int, spec: DesignSpec, config: CriterionConfig | None = None
) -> np.ndarray:
    """s x s kernel matrix of factor ``k`` (0-based, qualitative factors first).

    Qualitative: entries a on the diagonal, b off it.  Quantitative with s
    levels: entry (i, j) is 3/2 - |i-j| (s - |i-j|) / s^2, the wrap-around
    kernel evaluated at lattice points.  Rows sum to a + b(s-1) and
    4s/3 + 1/(6s) respectively.
    """
    config = config or DEFAULT_CONFIG
    _require_int("factor index", k)
    if not 0 <= k < spec.m:
        raise DomainError(f"factor index {k} out of range for {spec.m} factors")
    return np.array(_circulant(_kernel_row(spec.levels[k], k < spec.p, config)))


def qqd_squared_quadratic(design: Design, config: CriterionConfig | None = None) -> float:
    """Squared discrepancy as the quadratic form C + (1/n^2) y' A y.

    ``y`` is the frequency vector and A the Kronecker product of the
    per-factor kernel matrices; A is applied factor by factor, never
    materialized, and so is each kernel (``_kronecker_apply``): memory is
    O(N + PAIR_BLOCK).  Requires a lattice-valued design and N <= ``QUADRATIC_FORM_CAP``.
    """
    config = config or DEFAULT_CONFIG
    spec = design.spec
    if spec.N > QUADRATIC_FORM_CAP:
        raise CapacityError(
            f"N={spec.N} exceeds the quadratic-form cap {QUADRATIC_FORM_CAP}; "
            "use qqd_squared instead"
        )
    return _quadratic_form(design.all_levels(), spec.levels, spec.p, config)


def _quadratic_form(levels: np.ndarray, counts: tuple[int, ...], p: int,
                    config: CriterionConfig) -> float:
    """C + y' A y / n^2 of n x m integer levels, the first p columns qualitative.

    ``counts`` are the columns' level counts, y their frequency vector and
    A the Kronecker product of their kernels, applied by ``_kronecker_apply``.
    """
    y = _combination_counts(levels, counts).astype(np.float64)
    kernels = [_circulant(_kernel_row(s, k < p, config)) for k, s in enumerate(counts)]
    with np.errstate(all="ignore"):  # overflow is refused by _finite
        value = float(np.dot(y, _kronecker_apply(kernels, y.reshape(counts)).ravel()))
    C = _constant_term(counts[:p], len(counts) - p, config.a, config.b)
    return _finite(C, value / levels.shape[0] ** 2, config)


def _cheaper_quadratic_form(design: Design, config: CriterionConfig, qualitative: bool,
                            quantitative: bool) -> float | None:
    """QQD^2 of the qualitative and/or quantitative block, if the quadratic form is cheaper.

    The rule by which a value without a cross-check picks its route: None,
    for the closed form, unless the block has columns, every quantitative
    one exactly its lattice points (so both routes read the same numbers),
    the closed form would walk several row blocks (n^2 > PAIR_BLOCK), and
    the level grid is small: N <= QUADRATIC_FORM_CAP and N * sum(s_k) <=
    n^2, the Kronecker product's multiply-adds against the pair count.
    """
    spec, n = design.spec, design.spec.n
    p = spec.p if qualitative else 0
    s_quant = spec.quantitative_levels if quantitative else ()
    counts = spec.qualitative_levels[:p] + s_quant
    N = math.prod(counts)
    if not counts or n * n <= PAIR_BLOCK or N > QUADRATIC_FORM_CAP or N * sum(counts) > n * n:
        return None
    if quantitative and not all(design._exact):
        return None
    quant = design._lattice if quantitative else design.qualitative[:, :0]  # dd decodes nothing
    return _quadratic_form(np.concatenate((design.qualitative[:, :p], quant), axis=1),
                           counts, p, config)


def _kronecker_apply(kernels, y: np.ndarray) -> np.ndarray:
    """A y for A the Kronecker product of ``kernels``, applied factor by factor.

    ``y`` has the shape of the level counts (first factor slowest), and so
    does the C-contiguous result; its dtype follows the kernels' and y's.
    A kernel, which may be a ``_circulant`` view, is copied contiguous and
    applied in row blocks of at most PAIR_BLOCK entries.
    """
    z, before = y, 1
    for A in kernels:
        s = A.shape[0]
        z = z.reshape(before, s, -1)  # factor k acts on axis 1
        step = max(1, PAIR_BLOCK // s)
        out = np.empty(z.shape, np.result_type(A, z))
        for start in range(0, s, step):
            block = slice(start, start + step)
            np.matmul(np.ascontiguousarray(A[block]), z, out=out[:, block])
        z = out
        before *= s
    return z.reshape(y.shape)


class _CellTables(NamedTuple):
    """What the cell route reads of a spec and config; shared, so never written.

    ``rows[k]`` is the first row of kernel k scaled to integers; the
    kernels are circulant, so entry (u, v) is ``rows[k][v - u]`` with
    Python's negative indices wrapping.  ``axes[k][u]`` is column u of
    kernel k shaped to broadcast along axis k of the level grid.
    """

    rows: tuple[tuple[int, ...], ...]
    kernels: tuple[np.ndarray, ...]
    axes: tuple[tuple[np.ndarray, ...], ...]
    others: tuple[tuple[int, ...], ...]  # the factors other than k
    strides: tuple[int, ...]  # cell index step of one level of factor k
    other_diagonals: tuple[int, ...]  # product of the other factors' diagonal entries
    denominator: int  # S n^2 for A_int = S A


@functools.lru_cache(maxsize=64)
def _cell_tables(spec: DesignSpec, config: CriterionConfig) -> _CellTables | None:
    """The cell route's tables, or None when the kernels do not scale to safe integers.

    A qualitative kernel is scaled by 4 (a = 3/2 -> 6, b = 5/4 -> 5), an
    s-level quantitative one by 2 s^2 (entry 3 s^2 - 2 d (s - d)), so S
    is 4^p prod_k 2 s_k^2.  Every entry is at most its diagonal, so the
    scaled pair sum y' A_int y is at most n^2 times the product of the
    diagonals; None unless that stays within ``INTEGER_HEADROOM``.
    """
    a, b = 4 * float(config.a), 4 * float(config.b)
    if not (a.is_integer() and b.is_integer()):
        return None
    rows = [(int(a),) + (int(b),) * (s - 1) for s in spec.qualitative_levels]
    rows += [tuple(3 * s * s - 2 * d * (s - d) for d in range(s)) for s in spec.quantitative_levels]
    if spec.n**2 * math.prod(row[0] for row in rows) > INTEGER_HEADROOM:
        return None
    shape, m = spec.levels, spec.m
    kernels = tuple(_circulant(np.array(row, dtype=np.int64)) for row in rows)
    others = tuple(tuple(l for l in range(m) if l != k) for k in range(m))
    scale = 4**spec.p * math.prod(2 * s * s for s in spec.quantitative_levels)
    return _CellTables(
        rows=tuple(rows),
        kernels=kernels,
        axes=tuple(
            tuple(kernel.reshape((s,) + tuple(s if l == k else 1 for l in range(m))))
            for k, (kernel, s) in enumerate(zip(kernels, shape))
        ),
        others=others,
        strides=tuple(math.prod(shape[k + 1 :]) for k in range(m)),
        other_diagonals=tuple(math.prod(rows[l][0] for l in other) for other in others),
        denominator=scale * spec.n**2,
    )


def _circulant(row: np.ndarray) -> np.ndarray:
    """The read-only s x s circulant matrix with first row ``row``, a view of 2s entries."""
    s = len(row)
    line = np.concatenate((row, row))
    line.setflags(write=False)
    # row u is line[s - u : 2s - u]: start at entry s, step back one entry per row
    return np.ndarray((s, s), line.dtype, buffer=line, offset=s * line.itemsize,
                      strides=(-line.itemsize, line.itemsize))


class PairCache:
    """Incremental evaluator for entry-swap moves: score first, commit second.

    Swapping two entries of one column keeps the column balanced.  ``delta``
    scores a swap and changes nothing; ``apply_swap`` commits it, adding its
    change to the tracked value; both validate every call.  The search, whose
    proposals are valid and of different entries, calls ``_score`` and ``_commit``.  The
    initial value is ``qqd_squared``'s, bit for bit; afterwards ``value``
    is O(1).  The tracked value collects rounding from every commit, so
    callers that need it exact re-verify with ``qqd_squared``.
    Single-owner mutable: not for concurrent use.

    Two routes score a swap, picked at set-up from the design and the
    config alone.

    *Cell route*, when the design is exactly lattice-valued, 4a and 4b are
    integers, n^2 times the largest scaled kernel entry fits in
    ``INTEGER_HEADROOM``, and N <= ``CELL_RATIO`` * n.  The squared
    discrepancy is C + y' A y / n^2 (see ``qqd_squared_quadratic``); with
    the kernels scaled to integers (``_cell_tables``, A_int = S A) the
    route keeps each row's cell and z = A_int y in int64, O(N) memory.  A
    swap of levels u, v in column k moves row i from cell c_i to c_i' and
    row j from c_j to c_j'; the four cells differ only in coordinate k, so
    with dy the change of y

        dy' A_int dy = 4 (K_k[u, u] - K_k[u, v]) (D_k - R_ij),

    D_k the product of the other factors' diagonal entries and R_ij that
    of their entries between rows i and j.  ``delta`` returns
    (2 dy' z + dy' A_int dy) / (S n^2), one correctly rounded int / int
    division: O(m), ties are exact, and a swap and its reverse give
    exactly opposite changes.  A commit adds A_int dy to z, one broadcast
    product of kernel columns, O(N m).

    *Row route*, otherwise.  Only the pairs (i, r) and (j, r) with r
    outside {i, j} change.  With B the pair weight without the swapped
    column (b^p factored out) and f that column's kernel,

        delta = (2 b^p / n^2) * sum_{r not in {i, j}}
                (B_ir - B_jr) * (f(x_j, x_r) - f(x_i, x_r)).

    ``delta`` rebuilds B for rows i and j with ``_row_weights``, the
    closed form's routine, from the other factors' steps, and f from the
    column's own step, so a proposal costs O(n*m), a commit O(1), and no
    n x n state is kept.  The steps, per column, and one (2, n) buffer
    set for B, f and B_i - B_j are made on first use, so later scores
    allocate nothing of size n.

    The cache carries the start's ``Design._lattice`` and swaps its
    entries with every committed quantitative swap.  A decode is per
    entry, so it stays the decode of the current values, near-lattice
    ones included; ``lattice()`` copies it for a design built from
    ``levels()`` to take over.  The route test reads the start's
    ``Design._exact``, which ``design_from_levels`` hands over.
    """

    def __init__(self, design: Design, config: CriterionConfig | None = None):
        config = config or DEFAULT_CONFIG
        self.spec = spec = design.spec
        n, p = spec.n, spec.p
        self._qual = np.array(design.qualitative)
        self._quant = np.array(design.quantitative)
        self._value = _qqd_squared_arrays(self._qual, self._quant, spec.levels, config,
                                          design._exact_columns)
        self._ratio_powers = _ratio_powers(config, p)
        self._scale = 2.0 * config.b**p / n**2
        # live views of the level columns, qualitative first: read, never write
        self.columns = [*self._qual.T, *self._quant.T]
        # the decode of the values, swapped along with them (a decode is per entry)
        self._lattice = np.array(design._lattice)
        self._decoded = [None] * p + [*self._lattice.T]
        tables = _cell_tables(spec, config) if spec.N <= CELL_RATIO * n else None
        self._cell_route = tables is not None and all(design._exact)
        self._buffers, self._steps = None, {}  # the row route's, made on first use
        if self._cell_route:
            self._set_up_cells(np.concatenate((self._qual, self._lattice), axis=1), tables)

    def _set_up_cells(self, levels: np.ndarray, tables: _CellTables) -> None:
        self._tables = tables
        cells = levels @ np.array(tables.strides)  # first factor slowest, as in frequency_vector
        y = np.bincount(cells, minlength=self.spec.N).reshape(self.spec.levels)
        # z = A_int y in the shape of the levels; contiguous, so the flat view
        # for scalar lookups sees every commit
        self._z = _kronecker_apply(tables.kernels, y)
        self._z_flat = self._z.reshape(-1)
        self._cell = cells.tolist()
        self._level = levels.T.tolist()  # per column, as Python ints

    def levels(self) -> tuple[np.ndarray, np.ndarray]:
        """Copies of the current qualitative levels and quantitative values."""
        return self._qual.copy(), self._quant.copy()

    def lattice(self) -> np.ndarray:
        """A copy of the current quantitative values' ``Design._lattice`` decode.

        The start's decode with every committed swap made in it too, so a
        design built from ``levels()`` can take it over (``model._hand_over``).
        """
        return self._lattice.copy()

    def value(self) -> float:
        """Current squared discrepancy as tracked through the committed swaps."""
        return self._value

    def _column(self, column: int, row_i: int, row_j: int) -> np.ndarray:
        _require_int("column index", column)
        _require_int("row index", row_i, row_j)
        spec = self.spec
        if not 0 <= column < len(self.columns):  # m columns, without the property call
            raise DomainError(f"column index {column} out of range for {spec.m} factors")
        n = spec.n
        if not (0 <= row_i < n and 0 <= row_j < n):
            raise DomainError(f"row index out of range for n={n}: ({row_i}, {row_j})")
        return self.columns[column]

    def delta(self, column: int, row_i: int, row_j: int) -> float:
        """Change in the squared discrepancy if the two entries were swapped.

        Validates the indices and changes nothing.  Equal entries give exactly 0.0.
        """
        col = self._column(column, row_i, row_j)
        return 0.0 if col[row_i] == col[row_j] else self._score(column, row_i, row_j)

    def _score(self, column: int, row_i: int, row_j: int) -> float:
        """``delta`` of two different entries at valid indices, unchecked."""
        if self._cell_route:
            return self._cell_change(column, row_i, row_j)
        return self._row_change(column, row_i, row_j)

    def _cell_change(self, column: int, row_i: int, row_j: int) -> float:
        level, tables = self._level, self._tables
        rows = tables.rows
        u, v = level[column][row_i], level[column][row_j]
        between = 1  # R_ij
        for other in tables.others[column]:
            between *= rows[other][level[other][row_j] - level[other][row_i]]
        shift = (v - u) * tables.strides[column]
        ci, cj = self._cell[row_i], self._cell[row_j]
        z = self._z_flat
        linear = z.item(ci + shift) + z.item(cj - shift) - z.item(ci) - z.item(cj)
        row = rows[column]
        quadratic = 4 * (row[0] - row[v - u]) * (tables.other_diagonals[column] - between)
        return (2 * linear + quadratic) / tables.denominator

    def _row_steps(self, column: int):
        """The steps of the factors other than ``column``, and that column's own step.

        A qualitative column's weight is 1 or a/b, so its difference between
        two rows is that of their agreements scaled by a/b - 1: its own step
        writes each agreement as a/b - 1.  The differences round as the
        weights' do, 1 - a/b being the negation of a/b - 1.
        """
        p, ratio_powers = self.spec.p, self._ratio_powers
        others = [partial(_kernel_step, values) for k, values in enumerate(self.columns)
                  if p <= k != column]
        if p - (column < p):  # a qualitative column is left in
            others.append(partial(_agreement_step, self._qual, ratio_powers, column))
        if column < p:
            return others, partial(_same_step, self.columns[column], ratio_powers[1] - 1.0)
        return others, partial(_kernel_step, self.columns[column])

    def _row_change(self, column: int, row_i: int, row_j: int) -> float:
        # the change is symmetric in i and j, so order them and take both
        # rows as a strided view instead of a fancy-indexed copy
        lo, hi = min(row_i, row_j), max(row_i, row_j)
        rows = slice(lo, hi + 1, hi - lo)
        if self._buffers is None:
            self._buffers = _buffers(2, self.spec.n)
        buffers = self._buffers
        if column not in self._steps:
            self._steps[column] = self._row_steps(column)
        others, own = self._steps[column]
        # weights: the pair weights of rows lo and hi without the swapped column
        weights = _row_weights(others, rows, 0, buffers)
        _, kernel, work = buffers[:3]
        # f: that column's kernel against every row r, row hi minus row lo
        own(rows, 0, kernel, buffers)
        f = np.subtract(kernel[1], kernel[0], work[0])
        f[lo] = f[hi] = 0.0
        return self._scale * float(np.dot(np.subtract(weights[0], weights[1], kernel[0]), f))

    def _commit_cells(self, column: int, row_i: int, row_j: int) -> None:
        """z += A_int dy, then move rows i and j to their new cells.

        dy adds rows i and j at their new cells and removes them at the old
        ones, so A_int dy = (G_i - G_j) x (K_k[:, v] - K_k[:, u]), G_i the
        outer product of the other factors' kernel columns at row i's levels.
        """
        level, tables = self._level, self._tables
        axes = tables.axes
        u, v = level[column][row_i], level[column][row_j]
        if tables.others[column]:  # with one factor a swap leaves y as it is
            g_i = g_j = None
            for other in tables.others[column]:
                kernel, at = axes[other], level[other]
                g_i = kernel[at[row_i]] if g_i is None else g_i * kernel[at[row_i]]
                g_j = kernel[at[row_j]] if g_j is None else g_j * kernel[at[row_j]]
            self._z += (g_i - g_j) * (axes[column][v] - axes[column][u])
        shift = (v - u) * tables.strides[column]
        self._cell[row_i] += shift
        self._cell[row_j] -= shift
        level[column][row_i], level[column][row_j] = v, u

    def _commit(self, column: int, row_i: int, row_j: int, change: float) -> float:
        """Swap two different entries and their decode, unchecked; the value plus ``change``."""
        if self._cell_route:
            self._commit_cells(column, row_i, row_j)
        col = self.columns[column]
        col[row_i], col[row_j] = col[row_j], col[row_i]
        decoded = self._decoded[column]
        if decoded is not None:
            decoded[row_i], decoded[row_j] = decoded[row_j], decoded[row_i]
        self._value += change
        return self._value

    def apply_swap(self, column: int, row_i: int, row_j: int) -> float:
        """Validate, then swap two entries of one column (equal: a no-op); the new value."""
        col = self._column(column, row_i, row_j)
        if col[row_i] == col[row_j]:
            return self._value
        return self._commit(column, row_i, row_j, self._score(column, row_i, row_j))
