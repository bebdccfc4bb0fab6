"""Balance patterns of two-level-type U-type designs.

For a design whose p qualitative factors share s1 levels and whose q
quantitative factors share s2 levels, the balance component of a column
subset S is the sum of squared deviations of its level-combination counts
from perfect uniformity; it vanishes exactly when S forms an orthogonal
array of full strength.  The balance pattern averages the components over
all subsets of each size.

The sum of squared counts of S is the number of ordered row pairs that
agree on every column of S, so both routes count row pairs instead of
level combinations.  ``balance_pattern`` (which also lists the
components, capped at ``SUBSET_FACTOR_CAP`` factors) histograms each
pair's m-bit agreement mask and sums the histogram over supersets, which
gives every subset's pair count at once.  ``balance_pattern_rowform`` (no
cap) histograms the number of agreeing columns per pair and sums the
binomials of those counts.  Counts accumulate as exact integers and only
the final normalization is floating point, so the two routes agree
exactly; ``balance_component`` counts one subset's level combinations
directly.  ``balance_form`` turns the per-size sums into the squared
discrepancy; ``qqd_from_balance`` feeds it the row-form sums and
``bounds.lb2`` feeds it lower bounds on them.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from .discrepancy import PAIR_BLOCK, _lattice_kernel, _qualitative_head, _row_blocks
from .errors import CapacityError, DomainError
from .model import DEFAULT_CONFIG, Design, validate_utype

# the listing holds one Python entry per subset (about 230 MB at 20 factors)
# besides a 2^(p+q) int64 table of pair counts (8 MB); refuse beyond this
SUBSET_FACTOR_CAP = 20


@dataclass(frozen=True)
class BalancePattern:
    """Aggregate balance vector plus (optionally) the per-subset components.

    ``aggregate[k-1]`` is the mean component over all k-column subsets;
    zero certifies orthogonal-array strength k.  ``components`` maps each
    column subset to its component; the pairwise row form produces only
    the aggregate, so there it is None.
    """

    aggregate: tuple[float, ...]
    components: dict[tuple[int, ...], float] | None = None


def _two_type_levels(design: Design) -> tuple[np.ndarray, int, int]:
    """Integer levels plus the common (s1, s2); rejects unsuitable designs."""
    spec = design.spec
    qual_set = set(spec.qualitative_levels)
    quant_set = set(spec.quantitative_levels)
    if len(qual_set) > 1 or len(quant_set) > 1:
        raise DomainError(
            "balance pattern needs one common level count per factor type, "
            f"got qualitative {sorted(qual_set)} and quantitative {sorted(quant_set)}"
        )
    s1 = qual_set.pop() if qual_set else 1
    s2 = quant_set.pop() if quant_set else 1
    report = validate_utype(design)
    if not report.passed:
        first = report.defects[0]
        raise DomainError(
            f"balance pattern needs a U-type design; column {first.column}: {first.message}"
        )
    return design.all_levels(), s1, s2


def _component_exact(
    levels: np.ndarray, cols: tuple[int, ...], p: int, s1: int, s2: int, n: int
) -> Fraction:
    k1 = sum(1 for c in cols if c < p)
    k2 = len(cols) - k1
    counts = Counter(map(tuple, levels[:, cols]))
    sum_sq = sum(c * c for c in counts.values())
    return sum_sq - Fraction(n * n, s1**k1 * s2**k2)


def balance_component(design: Design, columns) -> float:
    """Squared count deviations of one column subset (0-based indices)."""
    cols = tuple(sorted(int(c) for c in columns))
    spec = design.spec
    if not cols:
        raise DomainError("column subset must be nonempty")
    if cols[0] < 0 or cols[-1] >= spec.m:
        raise DomainError(f"column subset {cols} out of range for {spec.m} factors")
    if len(set(cols)) != len(cols):
        raise DomainError(f"column subset {cols} has repeats")
    levels, s1, s2 = _two_type_levels(design)
    return float(_component_exact(levels, cols, spec.p, s1, s2, spec.n))


def balance_pattern(design: Design) -> BalancePattern:
    """Balance pattern with every subset's component, from one pass over the row pairs.

    The component of subset S is (pairs agreeing on S) - n^2/cells(S), with
    the pair counts from ``_subset_agreements``; each is rounded once from
    the exact rational, and ``components`` lists the subsets by size, then
    in ``combinations`` order.
    """
    spec = design.spec
    if spec.m > SUBSET_FACTOR_CAP:
        raise CapacityError(
            f"subset enumeration over {spec.m} factors exceeds cap {SUBSET_FACTOR_CAP}"
        )
    levels, s1, s2 = _two_type_levels(design)
    n, p, q, m = spec.n, spec.p, spec.q, spec.m
    agreeing = _subset_agreements(levels).tolist()
    bits, qual_bits = [1 << c for c in range(m)], (1 << p) - 1
    components: dict[tuple[int, ...], float] = {}
    aggregate = []
    for k in range(1, m + 1):
        cells = [s1**k1 * s2 ** (k - k1) for k1 in range(k + 1)]
        total = 0
        for cols, col_bits in zip(combinations(range(m), k), combinations(bits, k)):
            mask = sum(col_bits)
            pairs, cell_count = agreeing[mask], cells[(mask & qual_bits).bit_count()]
            components[cols] = (pairs * cell_count - n * n) / cell_count  # int / int rounds once
            total += pairs
        reference = _reference_sum(n, p, q, s1, s2, k)
        aggregate.append(float((total - reference) / math.comb(m, k)))
    return BalancePattern(aggregate=tuple(aggregate), components=components)


def _subset_agreements(levels: np.ndarray) -> np.ndarray:
    """Entry S (bit c for column c): the number of ordered row pairs agreeing on all of S (exact).

    Each unordered pair is visited once, in row blocks of at most
    PAIR_BLOCK entries as in ``_row_blocks``, and its agreement mask is
    histogrammed; summing the histogram over supersets (the zeta
    transform, one pass per column) gives every subset's count.
    """
    n, m = levels.shape
    table = np.zeros(1 << m, dtype=np.int64)
    step = max(1, PAIR_BLOCK // n)
    for start in range(0, n, step):
        block = levels[start : start + step]
        masks = np.zeros((block.shape[0], n - start), dtype=np.intp)
        for c in range(m):
            masks |= np.left_shift(block[:, c, None] == levels[start:, c], c, dtype=np.intp)
        size = block.shape[0]  # the pairs i != j count twice
        table += np.bincount(masks[:, :size].ravel(), minlength=1 << m)
        table += 2 * np.bincount(masks[:, size:].ravel(), minlength=1 << m)
    for c in range(m):
        halves = table.reshape(-1, 2, 1 << c)
        halves[:, 0] += halves[:, 1]  # a mask with bit c also agrees on S without c
    return table


def _agreement_histogram(levels: np.ndarray) -> np.ndarray:
    """Entry k: the number of ordered row pairs agreeing on exactly k columns (exact)."""
    n, m = levels.shape
    counts, no_quant = np.arange(m + 1), np.zeros((n, 0))  # weight k agreements by k
    # each unordered pair is built once, so the pairs i != j count twice
    return sum(
        np.bincount(square.ravel(), minlength=m + 1)
        + 2 * np.bincount(rest.ravel(), minlength=m + 1)
        for square, rest in _row_blocks(levels, no_quant, counts)
    )


def _size_sums(design: Design) -> list[Fraction]:
    """Exact sum of the components over all k-column subsets (index k-1).

    A subset contributes to the pair (i, j) iff the rows agree on all its
    columns, so the subset sum collapses to binomials of the per-pair
    agreement count (``_agreement_histogram``); only the uniform reference
    term still needs the per-size column split.
    """
    spec = design.spec
    levels, s1, s2 = _two_type_levels(design)
    n, p, q, m = spec.n, spec.p, spec.q, spec.m
    agree_hist = _agreement_histogram(levels)
    sums = []
    for k in range(1, m + 1):
        pairs = sum(
            int(agree_hist[a]) * math.comb(a, k) for a in range(k, m + 1)
        )
        sums.append(pairs - _reference_sum(n, p, q, s1, s2, k))
    return sums


def _reference_sum(n: int, p: int, q: int, s1: int, s2: int, k: int) -> Fraction:
    """Sum of n^2/cells over all k-column subsets: the uniform part of the size-k sum."""
    return sum(
        math.comb(p, k1) * math.comb(q, k - k1) * Fraction(n * n, s1**k1 * s2 ** (k - k1))
        for k1 in range(max(0, k - q), min(p, k) + 1)
    )


def balance_pattern_rowform(design: Design) -> BalancePattern:
    """Balance pattern from the histogram of row agreement counts."""
    m = design.spec.m
    aggregate = (v / math.comb(m, k) for k, v in enumerate(_size_sums(design), start=1))
    return BalancePattern(aggregate=tuple(float(v) for v in aggregate), components=None)


def balance_form(n: int, p: int, q: int, s: int, sums) -> float:
    """Squared discrepancy of a U(n; s^p 2^q) design from per-size balance sums.

    ``sums[k-1]`` is the sum of the balance components over all k-column
    subsets.  The two-level wrap-around kernel takes the values f0
    (distance 0) and f1 (distance 1/2); f0/f1 equals the qualitative
    ratio a/b of DEFAULT_CONFIG (both 6/5), so every pair product is
    b^p f1^q (a/b)^(agreements), a polynomial in the per-column agreement
    indicators and hence in the balance components.  Exact rationals
    throughout; one final float rounding.
    """
    a, b = Fraction(DEFAULT_CONFIG.a), Fraction(DEFAULT_CONFIG.b)
    f0, f1 = Fraction(_lattice_kernel(0, 2)), Fraction(_lattice_kernel(1, 2))
    head = _qualitative_head((s,) * p, a, b)
    const = head * ((f0 + f1) / 2) ** q - head * Fraction(4, 3) ** q
    acc = sum((a / b - 1) ** k * v for k, v in enumerate(sums, start=1))
    return float(const + b**p * f1**q / (n * n) * acc)


def qqd_from_balance(design: Design) -> float:
    """Squared discrepancy assembled from the balance pattern.

    Valid for designs whose quantitative factors all have two levels (see
    ``balance_form``).  The per-size component sums come from the row
    agreement histogram, so the cost is O(n^2 m) with no subset
    enumeration and no factor cap.
    """
    spec = design.spec
    for j, s in enumerate(spec.quantitative_levels):
        if s != 2:
            raise DomainError(
                "the balance form needs 2-level quantitative factors "
                f"(factor {spec.p + j} has {s})"
            )
    s1 = spec.qualitative_levels[0] if spec.p else 1
    return balance_form(spec.n, spec.p, spec.q, s1, _size_sums(design))
