"""Balance patterns of two-level-type U-type designs.

For a design whose p qualitative factors share s1 levels and whose q
quantitative factors share s2 levels, the balance component of a column
subset is the sum of squared deviations of its level-combination counts
from perfect uniformity; it vanishes exactly when the subset forms an
orthogonal array of full strength.  The balance pattern averages the
components over all subsets of each size.

Two routes give the per-size sums: enumerating every column subset
(``balance_pattern``, which also lists the components, capped at
``SUBSET_FACTOR_CAP`` factors) and the histogram of pairwise row
agreement counts (``balance_pattern_rowform``, no cap).  Counts
accumulate as exact integers and only the final normalization is
floating point, so the two routes agree exactly.  ``balance_form`` turns
the per-size sums into the squared discrepancy; ``qqd_from_balance``
feeds it the row-form sums and ``bounds.lb2`` feeds it lower bounds on
them.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from .discrepancy import _lattice_kernel, _qualitative_head, _row_blocks, _row_weights
from .errors import CapacityError, DomainError
from .model import DEFAULT_CONFIG, Design, validate_utype

SUBSET_FACTOR_CAP = 24  # subset enumeration is 2^(p+q); refuse beyond this


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
    """Balance pattern by direct enumeration of all column subsets."""
    spec = design.spec
    if spec.m > SUBSET_FACTOR_CAP:
        raise CapacityError(
            f"subset enumeration over {spec.m} factors exceeds cap {SUBSET_FACTOR_CAP}"
        )
    levels, s1, s2 = _two_type_levels(design)
    components: dict[tuple[int, ...], float] = {}
    aggregate = []
    for k in range(1, spec.m + 1):
        acc = Fraction(0)
        for cols in combinations(range(spec.m), k):
            comp = _component_exact(levels, cols, spec.p, s1, s2, spec.n)
            components[cols] = float(comp)
            acc += comp
        aggregate.append(float(acc / math.comb(spec.m, k)))
    return BalancePattern(aggregate=tuple(aggregate), components=components)


def _size_sums(design: Design) -> list[Fraction]:
    """Exact sum of the components over all k-column subsets (index k-1).

    A subset contributes to the pair (i, j) iff the rows agree on all its
    columns, so the subset sum collapses to binomials of the per-pair
    agreement count, histogrammed one row block at a time; only the
    uniform reference term still needs the per-size column split.
    """
    spec = design.spec
    levels, s1, s2 = _two_type_levels(design)
    n, p, q, m = spec.n, spec.p, spec.q, spec.m
    counts, no_quant = np.arange(m + 1), np.zeros((n, 0))  # weight k agreements by k
    agree_hist = sum(
        np.bincount(_row_weights(levels, no_quant, rows, counts).ravel(), minlength=m + 1)
        for rows in _row_blocks(n)
    )
    sums = []
    for k in range(1, m + 1):
        pairs = sum(
            int(agree_hist[a]) * math.comb(a, k) for a in range(k, m + 1)
        )
        reference = sum(
            math.comb(p, k1) * math.comb(q, k - k1) * Fraction(n * n, s1**k1 * s2 ** (k - k1))
            for k1 in range(max(0, k - q), min(p, k) + 1)
        )
        sums.append(pairs - reference)
    return sums


def balance_pattern_rowform(design: Design) -> BalancePattern:
    """Balance pattern from the histogram of row agreement counts."""
    m = design.spec.m
    aggregate = (v / math.comb(m, k) for k, v in enumerate(_size_sums(design), start=1))
    return BalancePattern(aggregate=tuple(float(v) for v in aggregate), components=None)


def balance_form(n: int, p: int, q: int, s: int, sums) -> float:
    """Squared discrepancy of a U(n; s^p 2^q) design from per-size balance sums.

    ``sums[k-1]`` is the sum of the balance components over all k-column
    subsets.  The two-level wrap-around kernel takes the values f0
    (distance 0) and f1 (distance 1/2); when f0/f1 equals the qualitative
    ratio a/b, every pair product is b^p f1^q (a/b)^(agreements), a
    polynomial in the per-column agreement indicators and hence in the
    balance components.  Exact rationals throughout; one final float
    rounding.
    """
    a, b = Fraction(DEFAULT_CONFIG.a), Fraction(DEFAULT_CONFIG.b)
    f0, f1 = Fraction(_lattice_kernel(0, 2)), Fraction(_lattice_kernel(1, 2))
    if a / b != f0 / f1:
        raise DomainError(f"the balance form needs a/b = f0/f1 = {f0 / f1}, got {a / b}")
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
