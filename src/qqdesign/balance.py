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
and ``bounds.lb2`` residue bounds on them.  ``_split_sum`` sums an integer
numerator over the cell count across the qualitative/quantitative splits
of each size, for the uniform reference term here and for lb2's residues.

Every exact sum is an integer over one common denominator, the size's
largest cell count (and, in ``balance_form``, its product with the
kernel ratio's powers): a size's sum is one (numerator, denominator)
pair, never a chain of rationals, and each value is rounded once by
one integer division.  Cell counts reach s^m, past 64 bits, so the
arithmetic stays on Python integers.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, repeat
from operator import mul, sub, truediv

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
    in ``combinations`` order.  The subsets are put in that order by numpy
    (``_combination_masks``) and their values computed by C-level maps over
    exact integers, with no Python statement per subset.
    """
    spec = design.spec
    if spec.m > SUBSET_FACTOR_CAP:
        raise CapacityError(
            f"subset enumeration over {spec.m} factors exceeds cap {SUBSET_FACTOR_CAP}"
        )
    levels, s1, s2 = _two_type_levels(design)
    n, p, q, m = spec.n, spec.p, spec.q, spec.m
    masks, k1, k2 = _combination_masks(m, p)
    pairs = _subset_agreements(levels)[masks].tolist()
    # cells(S) = s1^k1 s2^k2, read from a table by its column split (k1, k2)
    cell_table = [s1**i * s2**j for i in range(p + 1) for j in range(q + 1)]
    cells = list(map(cell_table.__getitem__, (k1 * (q + 1) + k2).tolist()))
    numerators = map(sub, map(mul, pairs, cells), repeat(n * n))
    keys = chain.from_iterable(combinations(range(m), k) for k in range(1, m + 1))
    components = dict(zip(keys, map(truediv, numerators, cells)))  # each int / int rounds once
    aggregate, start = [], 0
    for k in range(1, m + 1):
        count = math.comb(m, k)
        reference, common = _split_sum(p, q, s1, s2, k, lambda cells: n * n)
        total = sum(pairs[start : start + count])
        aggregate.append((total * common - reference) / (common * count))
        start += count
    return BalancePattern(aggregate=tuple(aggregate), components=components)


def _combination_masks(m: int, p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every nonempty column subset as a mask (bit c for column c), in ``combinations`` order.

    That order is by size, then by the bit-mirrored mask (column 0 as the
    top bit) descending.  Also returns each subset's qualitative column
    count k1 (columns below p) and its quantitative count k2.
    """
    size = 1 << m
    ones = np.zeros(size, np.uint8)  # ones[v]: the set bits of v (a radix-sortable key)
    mirror = np.zeros(size, np.intp)
    for c in range(m):
        ones[1 << c : 2 << c] = ones[: 1 << c] + 1
        mirror[1 << c : 2 << c] = mirror[: 1 << c] + (1 << (m - 1 - c))
    # mirror is its own inverse and keeps the bit count: walk the mirrored
    # masks down from 2^m - 1 to 1, then sort stably by size
    masks = mirror[:0:-1][np.argsort(ones[:0:-1], kind="stable")]
    k1 = ones[masks & ((1 << p) - 1)].astype(np.intp)
    return masks, k1, ones[masks] - k1


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
    count; only the uniform reference term needs the column split.  Each
    sum is a (numerator, denominator) pair of integers, over ``_split_sum``'s
    common denominator.  A generator: the row pairs are histogrammed when
    the first sum is asked for.
    """
    n, m = levels.shape
    # the pairs agree on few distinct counts, and C(a, k) is 0 for a < k
    hist = [(a, h) for a, h in enumerate(_agreement_histogram(levels, masks=False).tolist()) if h]
    for k in range(1, m + 1):
        reference, common = _split_sum(p, q, s1, s2, k, lambda cells: n * n)
        yield sum(h * math.comb(a, k) for a, h in hist) * common - reference, common


def _split_sum(p: int, q: int, s1: int, s2: int, k: int, term) -> tuple[int, int]:
    """Exact sum of ``term(cells) / cells`` over all k-column subsets, as (numerator, denominator).

    C(p, k1) C(q, k - k1) subsets have k1 qualitative columns and
    cells = s1^k1 s2^(k - k1) level combinations; ``term`` gives each
    split's integer numerator.  Every split's cell count divides the
    size's largest, s1^min(p, k) s2^min(q, k), so each term is multiplied
    up to that common denominator and the sum is one integer over it.
    """
    top1, top2 = min(p, k), min(q, k)
    total = 0
    for k1 in range(max(0, k - q), top1 + 1):
        k2 = k - k1
        scale = s1 ** (top1 - k1) * s2 ** (top2 - k2)  # the common denominator over cells
        total += math.comb(p, k1) * math.comb(q, k2) * term(s1**k1 * s2**k2) * scale
    return total, s1**top1 * s2**top2


def balance_pattern_rowform(design: Design) -> BalancePattern:
    """Balance pattern from the histogram of row agreement counts."""
    spec = design.spec
    levels, s1, s2 = _two_type_levels(design)
    sums = _size_sums(levels, spec.p, spec.q, s1, s2)
    aggregate = (v / (d * math.comb(spec.m, k)) for k, (v, d) in enumerate(sums, start=1))
    return BalancePattern(aggregate=tuple(aggregate), components=None)


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


def _to_float(numerator: int, denominator: int) -> float:
    """The exact ``numerator / denominator`` rounded once; DomainError when it overflows a float."""
    try:
        return numerator / denominator  # int / int is correctly rounded
    except OverflowError:
        raise DomainError("the exact value overflows a float") from None


def balance_form(n: int, p: int, q: int, s: int, sums) -> float:
    """Squared discrepancy of a U(n; s^p 2^q) design from per-size balance sums.

    ``sums`` yields, for k = 1..p+q, the sum of the balance components
    over all k-column subsets as a (numerator, denominator) pair of
    integers.  The two-level wrap-around kernel takes the values f0
    (distance 0) and f1 (distance 1/2); f0/f1 equals the qualitative ratio
    a/b of DEFAULT_CONFIG (both 6/5), so every pair product is
    b^p f1^q (a/b)^(agreements), a polynomial in the per-column agreement
    indicators and hence in the balance components.  With every component
    zero the value is the full factorial's, the constant term here.  Every
    sum is non-negative, so the value is at least that constant: it is
    rounded by ``_to_float`` before ``sums`` is read, and a constant that
    overflows a float refuses the whole value unread.  The terms
    (a/b - 1)^k v_k are multiplied up to one common denominator and
    summed as integers; the value is one integer fraction, rounded once.
    """
    c_num, c_den = _full_factorial((s,) * p, (2,) * q).as_integer_ratio()
    _to_float(c_num, c_den)  # the value is at least this: refuse before any sum is read
    a, b = Fraction(DEFAULT_CONFIG.a), Fraction(DEFAULT_CONFIG.b)
    ratio = a / b - 1
    terms = [
        (ratio.numerator**k * v, ratio.denominator**k * d)
        for k, (v, d) in enumerate(sums, start=1)
    ]
    common = math.lcm(*(d for _, d in terms))
    acc = sum(v * (common // d) for v, d in terms)
    scale = b**p * Fraction(_lattice_kernel(1, 2)) ** q / (n * n)
    # constant + scale * acc / common, over one denominator
    return _to_float(
        c_num * scale.denominator * common + c_den * scale.numerator * acc,
        c_den * scale.denominator * common,
    )


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
