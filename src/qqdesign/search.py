"""Threshold-accepting search for uniform designs, plus an exhaustive oracle.

The search walks the space of U-type designs by swapping two entries
within one column (which preserves column balance) and lowers its
acceptance threshold over a fixed schedule.  Each restart begins at a
random U-type design, or at ``SearchConfig.start`` when one is given.
Swaps of two equal entries are counted and skipped.  Every other
proposal is valid by construction, so it is scored by ``PairCache._score``
without a check or a change to the design (O(n*m) from two rows, or
O(m) in cell space on small lattice specs); one whose change is at most
the current threshold is committed with that change by
``PairCache._commit``, and a rejected one costs nothing more.  The
objective is the squared qualitative-quantitative discrepancy; the
incrementally tracked value of the winner is re-verified by a full
recomputation at the end, and a disagreement raises ``DriftError``.  A
start or new best within ``BOUND_TOL`` of the combined analytic lower
bound is provably uniform, so ``_attains``, the one stop rule, always
ends the search there.

Each new best copies the evaluator's levels and the lattice decode it
carries; the winner is built from them once per restart and takes the
decode and the start's exactness over (``model._hand_over``), so the
final check and a writer recompute neither.  A random start comes from
``design_from_levels``, which hands over its own, so such a search
decodes no design at all.

All randomness flows from numpy's PCG64 generator: each restart draws
from its own child of the configured seed's sequence, so identical
inputs give bit-identical results on every platform.  ``_proposals``
draws a restart's proposals ``_BLOCK`` integer codes at a time, uniform
on range(m * n * (n - 1)), so memory does not grow with the budget; two
divmods split a code into a column and an ordered pair of distinct rows,
each equally likely.  The generator gives the same codes however its
draws are split; codes left when a restart stops at the bound are
discarded.

The oracle ``exhaustive_uniform`` scores every U-type design exactly: one row
of last-factor candidates per matrix-vector product of ``kernel_matrix`` weights.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import product

import numpy as np

from .bounds import lb
from .discrepancy import PairCache, _constant_term, kernel_matrix, qqd_squared
from .errors import CapacityError, DomainError, DriftError
from .model import (
    DEFAULT_CONFIG,
    Design,
    DesignSpec,
    _hand_over,
    _require_int,
    design_from_levels,
    validate_utype,
)


def _balanced_column(spec_n: int, s: int, rng: np.random.Generator) -> np.ndarray:
    return rng.permutation(np.repeat(np.arange(s), spec_n // s))


def random_utype(spec: DesignSpec, seed) -> Design:
    """Uniformly random balanced columns; deterministic for a given seed."""
    spec.require_utype_feasible()
    rng = seed
    if not isinstance(seed, np.random.Generator):
        _require_int("seed", seed, low=0)
        rng = np.random.default_rng(seed)
    try:
        cols = [_balanced_column(spec.n, s, rng) for s in spec.levels]
    except (MemoryError, OverflowError):  # numpy cannot allocate or size n entries
        raise CapacityError(f"cannot allocate a random design with n={spec.n}") from None
    levels = np.column_stack(cols)
    return design_from_levels(spec, levels[:, : spec.p], levels[:, spec.p :])


@dataclass(frozen=True)
class SearchConfig:
    """Stochastic search knobs.

    ``budget`` is the iteration cap per restart.  Each of the 20 steps of
    the threshold ladder (``_default_schedule``: geometric from 5% of the
    restart's initial bound gap, then 0) runs max(1, budget // 20)
    proposals until the cap.  Zero-threshold moves (no worsening) are
    always accepted so plateaus stay traversable; nothing turns off the
    stop at the bound.
    ``start`` is the U-type design every restart begins at, or None for a
    random one per restart; with a start, restarts differ only in their
    proposals.
    """

    budget: int = 10_000
    restarts: int = 4
    seed: int = 0
    start: Design | None = None

    def __post_init__(self) -> None:
        _require_int("budget", self.budget, low=0)
        _require_int("restarts", self.restarts, low=1)
        _require_int("seed", self.seed, low=0)
        if self.start is not None:
            if not isinstance(self.start, Design):
                raise DomainError(
                    f"start must be a Design or None, got {type(self.start).__name__}"
                )
            # the bound certifies only U-type designs
            report = validate_utype(self.start)
            if not report.passed:
                first = report.defects[0]
                raise DomainError(
                    f"start must be a U-type design; column {first.column}: {first.message}"
                )


@dataclass(frozen=True)
class SearchStats:
    """Proposal counts summed over the restarts a search ran.

    Every proposal is exactly one of: a no-op (two equal entries, skipped
    unscored), accepted or rejected.  Accepted ones split by the sign of
    their change into improving, equal and worsening.  The counts are
    deterministic for a given seed.
    """

    proposals: int = 0
    noops: int = 0
    improving: int = 0
    equal: int = 0
    worsening: int = 0
    rejected: int = 0

    @property
    def accepted(self) -> int:
        return self.improving + self.equal + self.worsening

    def __add__(self, other: SearchStats) -> SearchStats:
        # a dataclass's __dict__ holds its fields in order
        return SearchStats(*map(operator.add, vars(self).values(), vars(other).values()))


@dataclass(frozen=True)
class SearchResult:
    best_design: Design
    best_value: float
    bound: float
    bound_source: str
    gap: float
    trace: tuple[tuple[int, float], ...]
    terminated_by: str  # "budget" | "bound" | "schedule"
    stats: SearchStats


# the ladder's 19 geometric ratios, from 1 down to 1/1000, computed once
_LADDER = tuple(10.0 ** (-k / 6) for k in range(19))


def _default_schedule(initial_gap: float) -> tuple[float, ...]:
    top = 0.05 * initial_gap  # > 0: a start at the bound builds no ladder
    return tuple(top * ratio for ratio in _LADDER) + (0.0,)  # then 0


# codes per draw: a whole search_small (200) or search_large (1000) restart in one
_BLOCK = 1 << 12


def _proposals(rng: np.random.Generator, m: int, n: int, count: int):
    """``count`` uniform proposals (column, i, j != i), drawn ``_BLOCK`` codes at a time.

    Each (column, i, j) with i != j comes from exactly one code in range(m * n * (n - 1)).
    """
    pairs = n * (n - 1)
    for done in range(0, count, _BLOCK):
        column, pair = divmod(rng.integers(m * pairs, size=min(_BLOCK, count - done)), pairs)
        row_i, row_j = divmod(pair, n - 1)
        yield from zip(column.tolist(), row_i.tolist(), (row_j + (row_j >= row_i)).tolist())


def _run_restart(spec: DesignSpec, config: SearchConfig, rng: np.random.Generator, bound: float):
    design = random_utype(spec, rng) if config.start is None else config.start
    cache = PairCache(design, DEFAULT_CONFIG)
    value = cache.value()
    best_value = value
    trace = [(0, value)]
    # an n = 1 spec has one design, which meets lb1, so a restart that goes on has n >= 2
    if _attains(best_value, bound):
        return best_value, design, trace, "bound", SearchStats()

    schedule = _default_schedule(value - bound)
    chunk = max(1, config.budget // len(schedule))
    # each ladder value for chunk proposals; range, not repeat, takes any budget
    thresholds = (threshold for threshold in schedule for _ in range(chunk))
    proposals = _proposals(rng, spec.m, spec.n, min(config.budget, len(schedule) * chunk))
    terminated = "budget" if config.budget < len(schedule) * chunk else "schedule"
    columns, score, commit = cache.columns, cache._score, cache._commit
    best_levels = None
    iteration = noops = improving = equal = worsening = rejected = 0
    for threshold, (column, row_i, row_j) in zip(thresholds, proposals):
        iteration += 1
        col = columns[column]
        if col[row_i] == col[row_j]:
            noops += 1
            continue
        change = score(column, row_i, row_j)
        if change > threshold:
            rejected += 1
            continue
        value = commit(column, row_i, row_j, change)
        if change > 0.0:
            worsening += 1
        elif change == 0.0:
            equal += 1
        else:
            improving += 1
        if value < best_value:
            best_value = value
            best_levels = (*cache.levels(), cache.lattice())
            trace.append((iteration, value))
            if _attains(value, bound):
                terminated = "bound"
                break
    if best_levels is not None:  # validated once; swaps keep each column's exactness
        qualitative, quantitative, lattice = best_levels
        design = _hand_over(Design(spec, qualitative, quantitative), lattice, design._exact)
    stats = SearchStats(iteration, noops, improving, equal, worsening, rejected)
    return best_value, design, trace, terminated, stats


# a value this close to the lower bound counts as attaining it
BOUND_TOL = 1e-9
# largest accepted gap between the tracked and the recomputed best value
DRIFT_TOL = 1e-10


def _attains(value: float, bound: float) -> bool:
    """The one stop rule; the same test as ``SearchResult.gap <= BOUND_TOL``."""
    return value - bound <= BOUND_TOL


def search_uniform(spec: DesignSpec, config: SearchConfig | None = None) -> SearchResult:
    """Best U-type design found across ``config.restarts`` independent restarts.

    Restarts draw from children of one seed sequence; results merge by
    minimum value with ties broken by restart index, so the outcome does
    not depend on execution order.  The incrementally tracked objective of
    the winner is re-verified against a full recomputation; a disagreement
    beyond ``DRIFT_TOL`` raises ``DriftError``.  ``stats`` sums the
    proposal counts of every restart that ran.  A start of another spec
    raises ``DomainError``.
    """
    config = config or SearchConfig()
    if config.start is not None and config.start.spec != spec:
        raise DomainError("the start design's spec differs from the one searched")
    report = lb(spec)  # refuses a spec with no U-type designs
    # one child per restart as it starts: a search that stops early spawns no more
    seeds = np.random.SeedSequence(config.seed)
    best = None
    stats = SearchStats()
    for _ in range(config.restarts):
        rng = np.random.Generator(np.random.PCG64(seeds.spawn(1)[0]))
        value, design, trace, terminated, restart_stats = _run_restart(
            spec, config, rng, report.value
        )
        stats = stats + restart_stats
        if best is None or value < best[0]:
            best = (value, design, trace, terminated)
        if terminated == "bound":
            break
    value, design, trace, terminated = best
    recomputed = qqd_squared(design)
    if abs(recomputed - value) > DRIFT_TOL:
        raise DriftError(
            f"incremental objective drifted: tracked {value!r} vs recomputed {recomputed!r}"
        )
    return SearchResult(
        best_design=design,
        best_value=value,
        bound=report.value,
        bound_source=report.source,
        gap=value - report.value,
        trace=tuple(trace),
        terminated_by=terminated,
        stats=stats,
    )


def _distinct_balanced_columns(n: int, s: int) -> list[tuple[int, ...]]:
    """All distinct permutations of the balanced level multiset, lexicographic."""
    columns: list[tuple[int, ...]] = [()]
    for _ in range(n):
        columns = [c + (lev,) for c in columns for lev in range(s) if c.count(lev) < n // s]
    return columns


def _column_count(n: int, s: int) -> int:
    """Number of distinct balanced columns of an s-level factor: n! / ((n/s)!)^s."""
    return math.factorial(n) // math.factorial(n // s) ** s


def count_utype_designs(spec: DesignSpec) -> int:
    """Exact size of the U-type design space (columns chosen independently)."""
    spec.require_utype_feasible()
    return math.prod(_column_count(spec.n, s) for s in spec.levels)


@dataclass(frozen=True)
class ExhaustiveResult:
    optimum: float
    design: Design
    count: int  # optima within 1e-12 * max(1, |optimum|) of the minimum


# exhaustive_uniform refuses to enumerate more U-type designs than this,
EXHAUSTIVE_CAP = 10_000_000
# and to tabulate more pair weights (n^2 float64 per candidate column, 512 MB)
EXHAUSTIVE_WEIGHT_CAP = 1 << 26


def exhaustive_uniform(spec: DesignSpec) -> ExhaustiveResult:
    """Exact minimum of the squared discrepancy over every U-type design.

    Raw enumeration over all column combinations (no canonicalization, so
    the optimum count is over the full space), batched as the module says.
    """
    total = count_utype_designs(spec)
    if total > EXHAUSTIVE_CAP:
        raise CapacityError(f"{total} U-type designs exceed the enumeration cap {EXHAUSTIVE_CAP}")
    n = spec.n
    entries = sum(_column_count(n, s) for s in spec.levels) * n * n
    if entries > EXHAUSTIVE_WEIGHT_CAP:
        raise CapacityError(f"{entries} pair weights exceed the table cap {EXHAUSTIVE_WEIGHT_CAP}")

    factor_columns = [np.array(_distinct_balanced_columns(n, s)) for s in spec.levels]
    weights = [
        kernel_matrix(k, spec)[cols[:, :, None], cols[:, None, :]].reshape(len(cols), n * n)
        for k, cols in enumerate(factor_columns)
    ]
    # the batched factor; every other one-candidate factor folds into a constant base
    last = max((k for k, w in enumerate(weights) if len(w) > 1), default=spec.m - 1)
    others = [k for k in range(spec.m) if k != last]
    free = [k for k in others if len(weights[k]) > 1]
    base = math.prod((weights[k][0] for k in others if k not in free), start=np.ones(n * n))
    C = _constant_term(spec.qualitative_levels, spec.q, DEFAULT_CONFIG.a, DEFAULT_CONFIG.b)
    best, count, picks = math.inf, 0, {}
    for choice in product(*(range(len(weights[k])) for k in free)):
        prefix = base
        for k, c in zip(free, choice):
            prefix = prefix * weights[k][c]
        values = C + weights[last] @ prefix / n**2
        # the sequential tie rule, per row: a new best resets the count
        low = float(values.min())
        if low < best - 1e-12 * max(1.0, abs(low)):
            first = int(np.argmax(values <= low + 1e-12 * max(1.0, abs(low))))
            best, count, picks = float(values[first]), 0, dict([*zip(free, choice), (last, first)])
        count += int(np.count_nonzero(np.abs(values - best) <= 1e-12 * max(1.0, abs(best))))
    levels = np.column_stack([cols[picks.get(k, 0)] for k, cols in enumerate(factor_columns)])
    design = design_from_levels(spec, levels[:, : spec.p], levels[:, spec.p :])
    return ExhaustiveResult(optimum=best, design=design, count=count)
