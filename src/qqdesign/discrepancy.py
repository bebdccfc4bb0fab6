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

One routine, ``_row_weights``, builds the kernel products of a block of
rows against a range of rows.  Since the kernel is symmetric in i and j,
``_row_blocks`` builds each unordered pair once: a block of rows [s, e)
against rows [s, n), split into its square part (rows [s, e)) and the
rest.  The closed form is the sum of the square parts plus twice the sum
of the rests (``np.sum`` per part, ``math.fsum`` across the parts), so
its memory is O(n*B) for blocks of B rows; the balance pattern's
agreement histogram uses the same traversal, and the swap evaluator
takes its two rows from ``_row_weights`` against all n.  Setting p = 0
recovers the wrap-around discrepancy (WD), q = 0 the discrete
discrepancy (DD).  For lattice designs the same value is a quadratic
form y' A y in the frequency vector y, with A a Kronecker product of
per-factor kernel matrices.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CapacityError, DomainError
from .model import (
    DEFAULT_CONFIG,
    CriterionConfig,
    Design,
    DesignSpec,
    frequency_vector,
)

QUADRATIC_FORM_CAP = 10_000  # largest N for which the quadratic form is evaluated
# pair entries a row block holds at a time: at 2^15 a float64 temporary is
# 256 KB, so a block's few live temporaries fit a 2 MB per-core L2 cache;
# timed over 2^13..2^18 at n = 1024 and 2048 (2-vCPU Xeon), 2^14..2^16 were
# equally fast and 2^18 about twice as slow
PAIR_BLOCK = 1 << 15


def coincidence_number(design: Design, i: int, j: int) -> int:
    """Number of qualitative columns on which rows i and j agree."""
    n = design.spec.n
    if not (0 <= i < n and 0 <= j < n):
        raise DomainError(f"row index out of range for n={n}: ({i}, {j})")
    return int(np.sum(design.qualitative[i] == design.qualitative[j]))


def _quant_kernel(x, z):
    """Wrap-around kernel 3/2 - |x - z| + |x - z|^2, broadcast over x and z."""
    d = np.abs(x - z)
    return 1.5 - d + d * d


def _lattice_kernel(d, s):
    """Wrap-around kernel at lattice distance d/s: 3/2 - d (s - d) / s^2."""
    return 1.5 - d * (s - d) / s**2


def _row_weights(qualitative, quantitative, rows, ratio_powers, skip=None, start=0):
    """Kernel products (a/b)^delta prod_k f_k of the rows ``rows`` against rows start..n-1.

    b^p is left out, and so is column ``skip`` (0-based, qualitative
    first) when given.  ``ratio_powers[k]`` is the weight of k agreements;
    the table arange(p + 1) returns the agreement counts themselves.
    """
    p = qualitative.shape[1]
    agree = weights = None
    for k in range(p):
        if k != skip:
            same = qualitative[rows, k, None] == qualitative[start:, k]
            agree = same.astype(np.intp) if agree is None else np.add(agree, same, out=agree)
    for k in range(quantitative.shape[1]):
        if p + k != skip:
            kern = _quant_kernel(quantitative[rows, k, None], quantitative[start:, k])
            weights = kern if weights is None else np.multiply(weights, kern, out=weights)
    if agree is not None:
        weights = ratio_powers[agree] if weights is None else weights * ratio_powers[agree]
    if weights is None:  # the only column is skipped
        weights = np.ones((qualitative[rows].shape[0], qualitative.shape[0] - start))
    return weights


def _row_blocks(qualitative, quantitative, ratio_powers):
    """Each unordered row pair once: ``_row_weights`` over row blocks, split at the diagonal.

    For a block of rows [s, e) yields ``(square, rest)``, its kernel
    products against rows [s, e) and against rows [e, n).  Every pair
    (i, j) with i < j lies in exactly one ``rest``, so the full double sum
    over i and j is the sum of the squares plus twice the sum of the rests.
    A block holds at most PAIR_BLOCK entries, so memory is O(n*B).
    """
    n = qualitative.shape[0]
    step = max(1, PAIR_BLOCK // n)
    for start in range(0, n, step):
        rows = slice(start, start + step)
        weights = _row_weights(qualitative, quantitative, rows, ratio_powers, start=start)
        size = weights.shape[0]
        yield weights[:, :size], weights[:, size:]


def _qualitative_head(s_qual, a, b):
    """prod_k (a + (s_k - 1) b) / s_k; exact when a and b are Fractions."""
    return math.prod((a + (s - 1) * b) / s for s in s_qual)


def _constant_term(s_qual, q: int, a: float, b: float) -> float:
    return -_qualitative_head(s_qual, a, b) * (4.0 / 3.0) ** q


def _qqd_squared_arrays(
    qualitative: np.ndarray, quantitative: np.ndarray, s_qual, config: CriterionConfig
) -> float:
    n, p = qualitative.shape
    # np.sum per square part and per rest, and fsum across those partials,
    # keep the closed form and the quadratic form within ~1e-13 at n around
    # 10^3; weights that overflow (numpy's power gives inf) are refused below
    with np.errstate(all="ignore"):
        ratio_powers = (config.a / config.b) ** np.arange(p + 1)
        partials = []
        for square, rest in _row_blocks(qualitative, quantitative, ratio_powers):
            partials += (float(np.sum(square)), 2.0 * float(np.sum(rest)))
        total = math.fsum(partials)
        pairs = float(total * np.float64(config.b) ** p / n**2)
    value = _constant_term(s_qual, quantitative.shape[1], config.a, config.b) + pairs
    return _finite(value, config)


def _finite(value: float, config: CriterionConfig) -> float:
    """``value``, refused with DomainError when the kernel weights overflowed it."""
    if not math.isfinite(value):
        raise DomainError(
            f"the squared discrepancy is {value} for a={config.a}, b={config.b}: "
            "the kernel weights overflow"
        )
    return value


def qqd_squared(design: Design, config: CriterionConfig | None = None) -> float:
    """Squared qualitative-quantitative discrepancy via the pairwise closed form."""
    config = config or DEFAULT_CONFIG
    return _qqd_squared_arrays(
        design.qualitative,
        design.quantitative,
        design.spec.qualitative_levels,
        config,
    )


def wd_squared(design: Design) -> float:
    """Squared wrap-around discrepancy of the quantitative columns alone."""
    if design.spec.q == 0:
        raise DomainError("wd_squared needs at least one quantitative factor")
    empty = np.zeros((design.spec.n, 0), dtype=np.int64)
    return _qqd_squared_arrays(empty, design.quantitative, (), DEFAULT_CONFIG)


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
                np.zeros((sub.shape[0], 0), dtype=np.int64), sub, (), DEFAULT_CONFIG
            )
            total.append(math.sqrt(value))
    return math.fsum(total)


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
    if not 0 <= k < spec.m:
        raise DomainError(f"factor index {k} out of range for {spec.m} factors")
    s = spec.levels[k]
    if k < spec.p:
        entries = np.full((s, s), config.b)
        np.fill_diagonal(entries, config.a)
        return entries
    i = np.arange(s)
    return _lattice_kernel(np.abs(i[:, None] - i[None, :]), s)


def qqd_squared_quadratic(design: Design, config: CriterionConfig | None = None) -> float:
    """Squared discrepancy as the quadratic form C + (1/n^2) y' A y.

    ``y`` is the frequency vector and A the Kronecker product of the
    per-factor kernel matrices; A is applied factor by factor, never
    materialized.  Requires a lattice-valued design and
    N <= ``QUADRATIC_FORM_CAP``.
    """
    config = config or DEFAULT_CONFIG
    spec = design.spec
    if spec.N > QUADRATIC_FORM_CAP:
        raise CapacityError(
            f"N={spec.N} exceeds the quadratic-form cap {QUADRATIC_FORM_CAP}; "
            "use qqd_squared instead"
        )
    y = frequency_vector(design).astype(np.float64)
    z = y.reshape(spec.levels)
    with np.errstate(all="ignore"):  # overflow is refused by _finite
        for k in range(spec.m):
            A = kernel_matrix(k, spec, config)
            z = np.moveaxis(np.tensordot(A, z, axes=(1, k)), 0, k)
        value = float(np.dot(y, z.ravel()))
    C = _constant_term(spec.qualitative_levels, spec.q, config.a, config.b)
    return _finite(C + value / spec.n**2, config)


class PairCache:
    """Incremental evaluator for entry-swap moves: score first, commit second.

    Swapping two entries of one column keeps the column balanced and
    changes only the pairs (i, r) and (j, r) with r outside {i, j}.  With
    B the pair weight without the swapped column (b^p factored out) and f
    that column's kernel, the change in the squared discrepancy is

        delta = (2 b^p / n^2) * sum_{r not in {i, j}}
                (B_ir - B_jr) * (f(x_j, x_r) - f(x_i, x_r)).

    ``delta`` rebuilds B for rows i and j from the level columns with
    ``_row_weights``, the closed form's routine, so a proposal costs
    O(n*m) and no n x n state is kept; ``apply_swap`` commits a swap and
    adds its change to the tracked value, reusing the change just scored
    for the same swap.  The initial value is ``qqd_squared``'s, bit for
    bit; afterwards ``value`` is O(1).  The tracked value collects
    rounding from every commit, so callers that need it exact re-verify
    with ``qqd_squared``.  Single-owner mutable: not for concurrent use.
    """

    def __init__(self, design: Design, config: CriterionConfig | None = None):
        config = config or DEFAULT_CONFIG
        self.spec = design.spec
        a, b = config.a, config.b
        n, p = self.spec.n, self.spec.p
        self._qual = np.array(design.qualitative)
        self._quant = np.array(design.quantitative)
        self._value = _qqd_squared_arrays(
            self._qual, self._quant, self.spec.qualitative_levels, config
        )
        self._ratio = a / b
        self._ratio_powers = self._ratio ** np.arange(p + 1)
        self._scale = 2.0 * b**p / n**2
        self._scored: tuple[int, int, int, float] | None = None
        # live views of the level columns, qualitative first: read, never write
        self.columns = [*self._qual.T, *self._quant.T]

    def levels(self) -> tuple[np.ndarray, np.ndarray]:
        """Copies of the current qualitative levels and quantitative values."""
        return self._qual.copy(), self._quant.copy()

    def value(self) -> float:
        """Current squared discrepancy as tracked through the committed swaps."""
        return self._value

    def _column(self, column: int, row_i: int, row_j: int) -> np.ndarray:
        spec = self.spec
        if not 0 <= column < spec.m:
            raise DomainError(f"column index {column} out of range for {spec.m} factors")
        n = spec.n
        if not (0 <= row_i < n and 0 <= row_j < n):
            raise DomainError(f"row index out of range for n={n}: ({row_i}, {row_j})")
        return self.columns[column]

    def delta(self, column: int, row_i: int, row_j: int) -> float:
        """Change in the squared discrepancy if the two entries were swapped.

        Leaves the design and the tracked value unchanged; it only
        remembers the result for ``apply_swap``.  Equal entries give
        exactly 0.0.
        """
        col = self._column(column, row_i, row_j)
        xi, xj = col[row_i], col[row_j]
        if xi == xj:
            return 0.0
        # the change is symmetric in i and j, so order them and take both
        # rows as a strided view instead of a fancy-indexed copy
        lo, hi = min(row_i, row_j), max(row_i, row_j)
        rows = slice(lo, hi + 1, hi - lo)
        # f: the swapped column's kernel against every row r, row hi minus row lo;
        # weights: the pair weights of rows lo and hi without that column
        if column < self.spec.p:
            same = col[rows, None] == col
            f = (self._ratio - 1.0) * (same[1] - same[0].astype(np.float64))
        else:
            kern = _quant_kernel(col[rows, None], col)
            f = kern[1] - kern[0]
        weights = _row_weights(self._qual, self._quant, rows, self._ratio_powers, column)
        f[lo] = f[hi] = 0.0
        change = self._scale * float(np.dot(weights[0] - weights[1], f))
        self._scored = (column, row_i, row_j, change)
        return change

    def apply_swap(self, column: int, row_i: int, row_j: int) -> float:
        """Swap two entries within one column; returns the new tracked value.

        Equal entries are a no-op.  The change comes from the preceding
        ``delta`` call when it scored the same swap, and is computed
        otherwise.
        """
        col = self._column(column, row_i, row_j)
        if col[row_i] == col[row_j]:
            return self._value
        scored = self._scored
        if scored is not None and scored[:3] == (column, row_i, row_j):
            change = scored[3]
        else:
            change = self.delta(column, row_i, row_j)
        self._scored = None
        col[row_i], col[row_j] = col[row_j], col[row_i]
        self._value += change
        return self._value
