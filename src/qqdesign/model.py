"""Designs with mixed qualitative and quantitative factors.

A design is an n x (p+q) array whose first p columns are qualitative
(integer levels 0..s_k-1, unordered categories) and whose last q columns
are quantitative (reals in the closed unit interval).  An s-level
quantitative factor is "lattice-valued" when every entry equals
(2*level + 1)/(2*s) for some integer level; that placement centers the s
levels in equal cells of [0, 1].  Raw (non-lattice) quantitative values
are also supported, e.g. rescaled axial points of a central composite
design.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DomainError, StructureError

# |value - nearest lattice point| below this counts as lattice-valued;
# loose enough to survive decimal round-trips through files.
LATTICE_TOL = 1e-9

# full_factorial refuses to enumerate more rows than this
FULL_FACTORIAL_ROW_CAP = 1_000_000
# levels are stored as int64, so no level count may exceed this
LEVEL_COUNT_MAX = int(np.iinfo(np.int64).max)


def _require_int(name: str, *values, low: int | None = None) -> None:
    """DomainError unless every value is an integer (not a bool) and, given ``low``, >= low."""
    for value in values:
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise DomainError(f"{name} must be an integer, got {value!r}")
        if low is not None and value < low:
            raise DomainError(f"{name} must be >= {low}, got {value}")


@dataclass(frozen=True)
class DesignSpec:
    """Run count and factor structure of a design class.

    The first ``p`` entries of ``levels`` are the qualitative level
    counts, the remaining ``q`` the quantitative ones.  ``N`` is the
    number of level combinations.
    """

    n: int
    p: int
    q: int
    levels: tuple[int, ...]

    def __post_init__(self) -> None:
        _require_int("run count", self.n, low=1)
        _require_int("factor count", self.p, self.q)
        _require_int("level count", *self.levels)
        object.__setattr__(self, "levels", tuple(int(s) for s in self.levels))
        if self.p < 0 or self.q < 0:
            raise DomainError("factor counts must be non-negative")
        if self.p + self.q < 1:
            raise DomainError("at least one factor is required")
        if len(self.levels) != self.p + self.q:
            raise DomainError(
                f"expected {self.p + self.q} level counts, got {len(self.levels)}"
            )
        if any(not 1 <= s <= LEVEL_COUNT_MAX for s in self.levels):
            raise DomainError(f"every level count must be in 1..{LEVEL_COUNT_MAX}")

    @property
    def m(self) -> int:
        return self.p + self.q

    @property
    def N(self) -> int:
        """Number of level combinations (exact integer arithmetic)."""
        return math.prod(self.levels)

    @property
    def qualitative_levels(self) -> tuple[int, ...]:
        return self.levels[: self.p]

    @property
    def quantitative_levels(self) -> tuple[int, ...]:
        return self.levels[self.p :]

    def is_utype_feasible(self) -> bool:
        """True when every level count divides the run count."""
        return all(self.n % s == 0 for s in self.levels)

    def require_utype_feasible(self) -> None:
        """Raise DomainError naming the first level count that does not divide n."""
        for k, s in enumerate(self.levels):
            if self.n % s != 0:
                raise DomainError(
                    f"no U-type designs exist: level count {s} of factor {k} "
                    f"does not divide n={self.n}"
                )


@dataclass(frozen=True)
class CriterionConfig:
    """Kernel weights.

    ``a`` and ``b`` are the same-level and different-level weights of the
    qualitative kernel.  The defaults 3/2 and 5/4 give the qualitative
    kernel the same range as the quantitative one, so both factor types
    carry equal weight.
    """

    a: float = 1.5
    b: float = 1.25

    def __post_init__(self) -> None:
        for name, weight in (("a", self.a), ("b", self.b)):
            if isinstance(weight, bool) or not isinstance(weight, numbers.Real):
                raise DomainError(f"kernel weight {name} must be a number, got {weight!r}")
        if not (math.isfinite(self.a) and self.a > self.b > 0.0):
            raise DomainError(
                f"kernel weights need finite a > b > 0, got a={self.a}, b={self.b}"
            )


DEFAULT_CONFIG = CriterionConfig()


def _unit(level, s: int):
    """(2*level + 1)/(2*s) for a level, or an array of levels, of an s-level factor.

    Bit-identical to that expression for s up to 2^52, and unlike it in
    int64 does not wrap from level 2^62 on.
    """
    return (level + 0.5) / s


def level_to_unit(level: int, s: int) -> float:
    """Place ``level`` of an s-level factor at (2*level + 1)/(2*s) in (0, 1)."""
    _require_int("level count", s, low=1)
    _require_int("level", level)
    if not 0 <= level < s:
        raise DomainError(f"level {level} out of range for {s}-level factor")
    return _unit(level, s)


def _lattice_levels(values, s: int) -> np.ndarray:
    """Integer levels behind lattice values of an s-level factor; -1 marks an off-lattice value."""
    values = np.asarray(values, dtype=np.float64)
    level = np.clip(np.rint(values * s - 0.5), 0, s - 1)
    on = np.abs(values - _unit(level, s)) <= LATTICE_TOL
    # float(s - 1) rounds up to s for level counts beyond 2^53
    level = np.minimum(np.where(on, level, 0).astype(np.uint64), s - 1)
    return np.where(on, level.astype(np.int64), -1)


def _first_bad(mask: np.ndarray) -> tuple[int, int] | None:
    """(row, column) of the first True entry of an n x k mask, column by column; None if none."""
    if not mask.any():  # the common case, without the column-major walk
        return None
    columns, rows = np.nonzero(mask.T)
    return int(rows[0]), int(columns[0])


def _block(values, n: int, k: int, what: str) -> np.ndarray:
    """``values`` as an n x k array, not converted; DomainError for ragged rows or another size."""
    try:
        return np.asarray(values).reshape(n, k)
    except ValueError as exc:
        raise DomainError(f"{what} must have shape ({n}, {k}): {exc}") from None


def _floats(array: np.ndarray, what: str) -> np.ndarray:
    """A float64 copy of a block of numbers; DomainError for booleans and non-numbers."""
    if array.dtype.kind not in "iufO":
        raise DomainError(f"{what} must be numbers, got {array.dtype} entries")
    try:
        return array.astype(np.float64)
    except (TypeError, ValueError, OverflowError) as exc:  # an object that is not a number
        raise DomainError(f"{what} must be numbers: {exc}") from None


def _levels(values, n: int, k: int, what: str, first: int) -> np.ndarray:
    """``values`` as a new n x k int64 block of levels whose column 0 is design column ``first``.

    An integer array costs one dtype test.  Other input must be numbers;
    its first fractional, NaN or infinite entry, column by column, is
    refused with DomainError, so 2.0 is a level and 0.7 is not.
    """
    array = _block(values, n, k, what)
    if array.dtype.kind != "i":
        floats = _floats(array, what)
        bad = _first_bad(~(np.isfinite(floats) & (np.trunc(floats) == floats)))
        if bad:
            r, c = bad
            raise DomainError(  # tolist gives the Python number: 0.7, not np.float64(0.7)
                f"{what}: entry {array[r].tolist()[c]!r} at row {r}, column {first + c} "
                "is not an integer"
            )
        array = array.astype(object)  # Python numbers: beyond int64 raises instead of wrapping
    try:
        return np.array(array, dtype=np.int64)
    except OverflowError:
        raise DomainError(f"{what}: an entry does not fit in a 64-bit integer") from None


def unit_to_level(value: float, s: int) -> int:
    """Recover the integer level behind a lattice value; inverse of level_to_unit."""
    _require_int("level count", s, low=1)
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise DomainError(f"a lattice value must be a number, got {value!r}")
    level = int(_lattice_levels([value], s)[0])
    if level < 0:
        raise DomainError(f"value {value!r} is not a lattice point of a factor with {s} levels")
    return level


def _qualitative_levels(values, spec: DesignSpec) -> np.ndarray:
    """``values`` as a new n x p int64 block of qualitative levels, each within its count.

    DomainError names the first entry that is not an integer, else the
    first out of range, column by column.
    """
    qual = _levels(values, spec.n, spec.p, "qualitative levels", 0)
    counts = np.array(spec.qualitative_levels, dtype=np.int64)
    bad = _first_bad((qual < 0) | (qual >= counts))
    if bad:
        r, k = bad
        raise DomainError(
            f"qualitative entry {qual[r, k]} at row {r}, column {k} "
            f"outside 0..{counts[k] - 1}"
        )
    return qual


@dataclass(frozen=True, eq=False)
class Design:
    """An immutable design: qualitative integer levels and quantitative unit-interval values."""

    spec: DesignSpec
    qualitative: np.ndarray
    quantitative: np.ndarray

    def __post_init__(self) -> None:
        n = self.spec.n
        qual = _qualitative_levels(self.qualitative, self.spec)
        quant = _floats(_block(self.quantitative, n, self.spec.q, "quantitative values"),
                        "quantitative values")
        bad = _first_bad(~((quant >= 0.0) & (quant <= 1.0)))
        if bad:
            r, k = bad
            raise DomainError(
                f"quantitative entry {float(quant[r, k])!r} at row {r}, column {self.spec.p + k} "
                "outside [0, 1]"
            )
        qual.setflags(write=False)
        quant.setflags(write=False)
        object.__setattr__(self, "qualitative", qual)
        object.__setattr__(self, "quantitative", quant)

    def quantitative_as_levels(self) -> np.ndarray:
        """Integer-level view of the quantitative columns; raises DomainError off-lattice."""
        out = np.empty((self.spec.n, self.spec.q), dtype=np.int64)
        for k, s in enumerate(self.spec.quantitative_levels):
            out[:, k] = _lattice_levels(self.quantitative[:, k], s)
        bad = _first_bad(out < 0)
        if bad:
            r, k = bad
            raise DomainError(
                f"row {r}, column {self.spec.p + k}: value {float(self.quantitative[r, k])!r}"
                " is not a lattice point of a factor with"
                f" {self.spec.quantitative_levels[k]} levels"
            )
        return out

    def is_lattice(self) -> bool:
        return all(
            _lattice_levels(col, s).min() >= 0
            for col, s in zip(self.quantitative.T, self.spec.quantitative_levels)
        )

    def all_levels(self) -> np.ndarray:
        """n x (p+q) integer-level matrix (requires lattice-valued quantitative columns)."""
        return np.hstack([self.qualitative, self.quantitative_as_levels()])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Design):
            return NotImplemented
        return (
            self.spec == other.spec
            and np.array_equal(self.qualitative, other.qualitative)
            and np.array_equal(self.quantitative, other.quantitative)
        )

    def __hash__(self) -> int:
        return hash((self.spec, self.qualitative.tobytes(), self.quantitative.tobytes()))


def design_from_levels(
    spec: DesignSpec, qualitative_levels, quantitative_levels
) -> Design:
    """Build a lattice-valued design from integer levels for every column."""
    counts = np.array(spec.quantitative_levels, dtype=np.int64)
    try:
        # a new block: masks over a column slice of a wider level matrix are slow
        quant_levels = _levels(quantitative_levels, spec.n, spec.q, "quantitative levels", spec.p)
        bad = _first_bad((quant_levels < 0) | (quant_levels >= counts))
        if bad:
            r, k = bad
            raise DomainError(
                f"quantitative level {quant_levels[r, k]} at row {r}, column {spec.p + k} "
                f"outside 0..{counts[k] - 1}"
            )
    except DomainError:
        _qualitative_levels(qualitative_levels, spec)  # its columns come first: name theirs
        raise
    return Design(spec, np.asarray(qualitative_levels), _unit(quant_levels, counts))


@dataclass(frozen=True)
class Defect:
    """One finding of a structure check; the fields that do not apply are None."""

    message: str
    column: int | None = None
    level: int | None = None
    factor: int | None = None


@dataclass(frozen=True)
class CheckReport:
    """Outcome of a structure check: defects are reported, never raised."""

    defects: tuple[Defect, ...]

    @property
    def passed(self) -> bool:
        return not self.defects

    def __bool__(self) -> bool:
        return self.passed


def validate_utype(design: Design) -> CheckReport:
    """Check that every column takes each of its levels exactly n/s times.

    Quantitative columns must be lattice-valued to be checkable; a
    non-lattice column is a defect, an unbalanced one names its first off level.
    """
    spec = design.spec
    defects: list[Defect] = []
    for k, s in enumerate(spec.levels):
        if spec.n % s != 0:
            defects.append(
                Defect(f"level count {s} does not divide run count {spec.n}", column=k)
            )
            continue
        if k < spec.p:
            col = design.qualitative[:, k]
        else:
            col = _lattice_levels(design.quantitative[:, k - spec.p], s)
            if col.min() < 0:
                defects.append(Defect("non-lattice quantitative column", column=k))
                continue
        defects += _balance_defects(col, s, k)
    return CheckReport(tuple(defects))


def _balance_defects(col: np.ndarray, s: int, k: int) -> list[Defect]:
    """Balance defects of column k, given as integer levels: [] or its first off level.

    A balanced column takes each of its s levels len(col)/s times.
    """
    counts = np.bincount(col, minlength=s)
    want = col.shape[0] // s
    off = np.nonzero(counts != want)[0]
    if not off.size:
        return []
    lev = int(off[0])
    message = f"level {lev} occurs {int(counts[lev])} times, expected {want}"
    return [Defect(message, column=k, level=lev)]


def is_mcd(design: Design) -> CheckReport:
    """Check the marginally coupled structure.

    Requires a spec with p >= 1 qualitative factors whose level counts
    divide n and q >= 1 quantitative factors declared with n levels each
    (structure errors otherwise).  Passes iff ``validate_utype`` does, so
    the quantitative part is a Latin hypercube, and, for every level of
    every qualitative factor, the rows at that level fill the n/s coarse
    cells (s consecutive levels each) exactly once per quantitative
    column.  Balance defects come first, in column order; an unbalanced
    qualitative factor's slices are not checked.
    """
    spec = design.spec
    if spec.p < 1 or spec.q < 1:
        raise StructureError("marginal coupling needs at least one factor of each type")
    for k, s in enumerate(spec.qualitative_levels):
        if spec.n % s != 0:
            raise StructureError(
                f"qualitative factor {k}: level count {s} does not divide n={spec.n}"
            )
    for j, s in enumerate(spec.quantitative_levels):
        if s != spec.n:
            raise StructureError(
                f"quantitative factor {spec.p + j}: needs n={spec.n} levels, declared {s}"
            )
    try:
        levels = design.all_levels()
    except DomainError as exc:
        raise StructureError(f"quantitative columns must be lattice-valued: {exc}") from None

    # every level count divides n and every column is on the lattice, so
    # validate_utype's only possible defects are these balance defects
    defects = [
        Defect("qualitative column is not balanced", level=d.level, factor=d.column)
        if d.column < spec.p
        else Defect(f"not a Latin hypercube column: {d.message}", column=d.column)
        for k, (col, s) in enumerate(zip(levels.T, spec.levels))
        for d in _balance_defects(col, s, k)
    ]
    unbalanced = {d.factor for d in defects}
    for k, s in enumerate(spec.qualitative_levels):
        if k in unbalanced:
            continue
        col = design.qualitative[:, k]
        for lev in range(s):
            rows = col == lev
            for j in range(spec.q):
                bins = levels[rows, spec.p + j] // s  # n/s cells of s consecutive levels
                if not np.array_equal(np.sort(bins), np.arange(spec.n // s)):
                    message = "slice does not form a smaller Latin hypercube"
                    defects.append(Defect(message, column=spec.p + j, level=lev, factor=k))
    return CheckReport(tuple(defects))


def frequency_vector(design: Design) -> np.ndarray:
    """Read-only int64 counts of the level combinations (first factor slowest), summing to n."""
    spec = design.spec
    levels = design.all_levels()
    if spec.N > np.iinfo(np.intp).max:
        raise CapacityError(f"{spec.N} level combinations are more than an array can index")
    counts = _combination_counts(levels, spec.levels)
    counts.setflags(write=False)
    return counts


def _combination_counts(levels: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """int64 counts of the level combinations of n x m integer levels (first factor slowest).

    ``shape`` holds the columns' level counts, whose product numpy can index.
    """
    flat = np.ravel_multi_index(tuple(levels.T), dims=shape)
    return np.bincount(flat, minlength=math.prod(shape)).astype(np.int64)


def full_factorial(spec: DesignSpec, repetitions: int = 1) -> Design:
    """Every level combination exactly ``repetitions`` times; n of the result is repetitions * N.

    The run count of ``spec`` is ignored; only its factor structure is used.
    """
    _require_int("repetitions", repetitions, low=1)
    rows = spec.N * repetitions
    if rows > FULL_FACTORIAL_ROW_CAP:
        raise CapacityError(
            f"full factorial would need {rows} rows (cap {FULL_FACTORIAL_ROW_CAP})"
        )
    grid = np.indices(spec.levels).reshape(spec.m, spec.N).T  # first factor slowest
    grid = np.tile(grid, (repetitions, 1))
    out_spec = dataclasses.replace(spec, n=rows)
    return design_from_levels(out_spec, grid[:, : spec.p], grid[:, spec.p :])
