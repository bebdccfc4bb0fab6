"""Balance patterns of two-level-type U-type designs, and the balance form.

For a design whose p qualitative factors share s1 levels and whose q
quantitative factors share s2 levels (``_two_type_shape``), the balance
component of a column subset S is the sum of squared deviations of its
level-combination counts from perfect uniformity; it vanishes exactly
when S forms an orthogonal array of full strength.  The balance pattern
averages the components over all subsets of each size.

The sum of squared counts of S is the number of ordered row pairs that
agree on every column of S, so both routes read one exact histogram of
row pairs, ``discrepancy._agreement_histogram``, built by the closed
form's walker (``_row_blocks``) and agreement routine (``_agreements``).
``balance_pattern`` (which also lists the components, capped at
``SUBSET_FACTOR_CAP`` factors) histograms each pair's agreement mask and
sums over supersets;
``balance_pattern_rowform`` (no cap) histograms the number of agreeing
columns and sums binomials of those counts.  Only the final normalization
is floating point, so the two routes agree exactly; ``balance_component``
counts one subset's level combinations directly.  ``balance_form`` turns
per-size sums into the squared discrepancy, with the exact full-factorial
value as its constant; ``qqd_from_balance`` feeds it the row-form sums
and ``bounds.lb2`` residue bounds on them.  ``_split_sum`` sums a term of
the cell count over the qualitative/quantitative splits of each size, for
the uniform reference term here and for lb2's residues.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from .discrepancy import _agreement_histogram, _lattice_kernel
from .errors import CapacityError, DomainError
from .model import DEFAULT_CONFIG, Design, _require_int, validate_utype

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


def _two_type_shape(spec) -> tuple[int, int] | None:
    """(s1, s2) when the qualitative factors share s1 levels and the quantitative s2, else None.

    A type without factors reads 2, which never enters a cell count.
    """
    qual, quant = set(spec.qualitative_levels) or {2}, set(spec.quantitative_levels) or {2}
    return (qual.pop(), quant.pop()) if len(qual) == len(quant) == 1 else None


def _two_type_levels(design: Design) -> tuple[np.ndarray, int, int]:
    """Integer levels plus the common (s1, s2); rejects unsuitable designs."""
    spec = design.spec
    shape = _two_type_shape(spec)
    if shape is None:
        raise DomainError(
            "balance pattern needs one common level count per factor type, "
            f"got qualitative {sorted(set(spec.qualitative_levels))} "
            f"and quantitative {sorted(set(spec.quantitative_levels))}"
        )
    report = validate_utype(design)
    if not report.passed:
        first = report.defects[0]
        raise DomainError(
            f"balance pattern needs a U-type design; column {first.column}: {first.message}"
        )
    return design.all_levels(), *shape


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
    cols = tuple(columns)
    _require_int("column index", *cols)
    cols = tuple(sorted(map(int, cols)))
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
        reference = _split_sum(p, q, s1, s2, k, lambda cells: Fraction(n * n, cells))
        aggregate.append(float((total - reference) / math.comb(m, k)))
    return BalancePattern(aggregate=tuple(aggregate), components=components)


def _subset_agreements(levels: np.ndarray) -> np.ndarray:
    """Entry S (bit c for column c): the number of ordered row pairs agreeing on all of S (exact).

    The pairs' agreement-mask histogram summed over supersets (the zeta transform).
    """
    table = _agreement_histogram(levels, masks=True)
    for c in range(levels.shape[1]):
        halves = table.reshape(-1, 2, 1 << c)
        halves[:, 0] += halves[:, 1]  # a mask with bit c also agrees on S without c
    return table


def _size_sums(levels: np.ndarray, p: int, q: int, s1: int, s2: int):
    """Exact sums of the components over all k-column subsets, for k = 1..m in turn.

    A subset counts the pair (i, j) iff the rows agree on all its columns,
    so the pair counts collapse to binomials of the per-pair agreement
    count; only the uniform reference term needs the column split.  A
    generator: the row pairs are histogrammed when the first sum is asked for.
    """
    n, m = levels.shape
    # the pairs agree on few distinct counts, and C(a, k) is 0 for a < k
    hist = [(a, h) for a, h in enumerate(_agreement_histogram(levels, masks=False).tolist()) if h]
    for k in range(1, m + 1):
        yield (sum(h * math.comb(a, k) for a, h in hist)
               - _split_sum(p, q, s1, s2, k, lambda cells: Fraction(n * n, cells)))


def _split_sum(p: int, q: int, s1: int, s2: int, k: int, term) -> Fraction:
    """Exact sum of ``term(cells)`` over all k-column subsets.

    C(p, k1) C(q, k - k1) subsets have k1 qualitative columns and
    cells = s1^k1 s2^(k - k1) level combinations.
    """
    return sum(
        math.comb(p, k1) * math.comb(q, k - k1) * term(s1**k1 * s2 ** (k - k1))
        for k1 in range(max(0, k - q), min(p, k) + 1)
    )


def balance_pattern_rowform(design: Design) -> BalancePattern:
    """Balance pattern from the histogram of row agreement counts."""
    spec = design.spec
    levels, s1, s2 = _two_type_levels(design)
    sums = _size_sums(levels, spec.p, spec.q, s1, s2)
    aggregate = (v / math.comb(spec.m, k) for k, v in enumerate(sums, start=1))
    return BalancePattern(aggregate=tuple(float(v) for v in aggregate), components=None)


def _full_factorial(s_qual, s_quant) -> Fraction:
    """Exact squared discrepancy of any repetition of the full factorial on these level counts.

    The pair sum is the product of the kernels' row means: (a + (s - 1) b)/s
    per qualitative factor, (8 s^2 + 1)/(6 s^2) per quantitative.  Each
    distinct level count's mean is raised to its multiplicity: one
    big-integer power per level count, however many factors share it.
    """
    a, b = Fraction(DEFAULT_CONFIG.a), Fraction(DEFAULT_CONFIG.b)
    head = math.prod(((a + (s - 1) * b) / s) ** c for s, c in Counter(s_qual).items())
    tail = math.prod(Fraction(8 * s * s + 1, 6 * s * s) ** c for s, c in Counter(s_quant).items())
    return head * (tail - Fraction(4, 3) ** len(s_quant))


def _to_float(value: Fraction) -> float:
    """The exact ``value`` rounded once; DomainError when it overflows a float."""
    try:
        return float(value)
    except OverflowError:
        raise DomainError("the exact value overflows a float") from None


def balance_form(n: int, p: int, q: int, s: int, sums) -> float:
    """Squared discrepancy of a U(n; s^p 2^q) design from per-size balance sums.

    ``sums`` yields, for k = 1..p+q, the sum of the balance components
    over all k-column subsets.  The two-level wrap-around kernel takes the
    values f0 (distance 0) and f1 (distance 1/2); f0/f1 equals the
    qualitative ratio a/b of DEFAULT_CONFIG (both 6/5), so every pair
    product is b^p f1^q (a/b)^(agreements), a polynomial in the per-column
    agreement indicators and hence in the balance components.  With every
    component zero the value is the full factorial's, the constant term
    here.  Every sum is non-negative, so the value is at least that
    constant: it is rounded by ``_to_float`` before ``sums`` is read, and
    a constant that overflows a float refuses the whole value unread.
    Exact rationals throughout; one final float rounding.
    """
    constant = _full_factorial((s,) * p, (2,) * q)
    _to_float(constant)  # the value is at least this: refuse before any sum is read
    a, b = Fraction(DEFAULT_CONFIG.a), Fraction(DEFAULT_CONFIG.b)
    f1 = Fraction(_lattice_kernel(1, 2))
    acc = sum((a / b - 1) ** k * v for k, v in enumerate(sums, start=1))
    return _to_float(constant + b**p * f1**q / (n * n) * acc)


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
    levels, s, _ = _two_type_levels(design)  # refuses mixed qualitative level counts
    return balance_form(spec.n, spec.p, spec.q, s, _size_sums(levels, spec.p, spec.q, s, 2))
