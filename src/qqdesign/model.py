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
    if s < 1:
        raise DomainError(f"level count must be >= 1, got {s}")
    if not isinstance(level, (int, np.integer)):
        raise DomainError(f"level must be an integer, got {level!r}")
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


def unit_to_level(value: float, s: int) -> int:
    """Recover the integer level behind a lattice value; inverse of level_to_unit."""
    if s < 1:
        raise DomainError(f"level count must be >= 1, got {s}")
    level = int(_lattice_levels([value], s)[0])
    if level < 0:
        raise DomainError(f"value {value!r} is not a lattice point of an {s}-level factor")
    return level


@dataclass(frozen=True, eq=False)
class Design:
    """An immutable design: qualitative integer levels and quantitative unit-interval values."""

    spec: DesignSpec
    qualitative: np.ndarray
    quantitative: np.ndarray

    def __post_init__(self) -> None:
        try:
            qual = np.array(self.qualitative, dtype=np.int64).reshape(self.spec.n, self.spec.p)
        except OverflowError:
            raise DomainError("a qualitative entry does not fit in a 64-bit integer") from None
        quant = np.array(self.quantitative, dtype=np.float64).reshape(self.spec.n, self.spec.q)
        for k in range(self.spec.p):
            s = self.spec.levels[k]
            bad = np.nonzero((qual[:, k] < 0) | (qual[:, k] >= s))[0]
            if bad.size:
                r = int(bad[0])
                raise DomainError(
                    f"qualitative entry {qual[r, k]} at row {r}, column {k} "
                    f"outside 0..{s - 1}"
                )
        for k in range(self.spec.q):
            col = quant[:, k]
            bad = np.nonzero(~((col >= 0.0) & (col <= 1.0)))[0]
            if bad.size:
                r = int(bad[0])
                raise DomainError(
                    f"quantitative entry {float(col[r])!r} at row {r}, column {self.spec.p + k} "
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
            bad = np.nonzero(out[:, k] < 0)[0]
            if bad.size:
                r = int(bad[0])
                raise DomainError(
                    f"row {r}, column {self.spec.p + k}: value {float(self.quantitative[r, k])!r}"
                    f" is not a lattice point of an {s}-level factor"
                )
        return out

    def is_lattice(self) -> bool:
        try:
            self.quantitative_as_levels()
        except DomainError:
            return False
        return True

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
    quant_levels = np.asarray(quantitative_levels, dtype=np.int64).reshape(spec.n, spec.q)
    values = np.empty((spec.n, spec.q), dtype=np.float64)
    for k, s in enumerate(spec.quantitative_levels):
        col = quant_levels[:, k]
        bad = np.nonzero((col < 0) | (col >= s))[0]
        if bad.size:
            r = int(bad[0])
            raise DomainError(
                f"quantitative level {col[r]} at row {r}, column {spec.p + k} "
                f"outside 0..{s - 1}"
            )
        values[:, k] = _unit(col, s)
    return Design(spec, np.asarray(qualitative_levels), values)


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
        quant = design.quantitative_as_levels()
    except DomainError as exc:
        raise StructureError(f"quantitative columns must be lattice-valued: {exc}") from None

    # every level count divides n and every column is on the lattice, so
    # validate_utype's only possible defects are these balance defects
    columns = np.hstack([design.qualitative, quant]).T
    defects = [
        Defect("qualitative column is not balanced", level=d.level, factor=d.column)
        if d.column < spec.p
        else Defect(f"not a Latin hypercube column: {d.message}", column=d.column)
        for k, (col, s) in enumerate(zip(columns, spec.levels))
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
                bins = quant[rows, j] // s  # n/s cells of s consecutive levels
                if not np.array_equal(np.sort(bins), np.arange(spec.n // s)):
                    message = "slice does not form a smaller Latin hypercube"
                    defects.append(Defect(message, column=spec.p + j, level=lev, factor=k))
    return CheckReport(tuple(defects))


def frequency_vector(design: Design) -> np.ndarray:
    """Read-only int64 counts of the level combinations (first factor slowest), summing to n."""
    spec = design.spec
    levels = design.all_levels()
    flat = np.ravel_multi_index(tuple(levels.T), dims=spec.levels)
    counts = np.bincount(flat, minlength=spec.N).astype(np.int64)
    counts.setflags(write=False)
    return counts


def full_factorial(spec: DesignSpec, repetitions: int = 1) -> Design:
    """Every level combination exactly ``repetitions`` times; n of the result is repetitions * N.

    The run count of ``spec`` is ignored; only its factor structure is used.
    """
    if repetitions < 1:
        raise DomainError(f"repetitions must be >= 1, got {repetitions}")
    rows = spec.N * repetitions
    if rows > FULL_FACTORIAL_ROW_CAP:
        raise CapacityError(
            f"full factorial would need {rows} rows (cap {FULL_FACTORIAL_ROW_CAP})"
        )
    grid = np.indices(spec.levels).reshape(spec.m, spec.N).T  # first factor slowest
    grid = np.tile(grid, (repetitions, 1))
    out_spec = dataclasses.replace(spec, n=rows)
    return design_from_levels(out_spec, grid[:, : spec.p], grid[:, spec.p :])
