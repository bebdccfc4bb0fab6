"""Threshold-accepting search for uniform designs, plus an exhaustive oracle.

The search walks the space of U-type designs by swapping two entries
within one column (which preserves column balance) and lowers its
acceptance threshold over a fixed schedule.  Each proposal is scored
first by ``PairCache.delta`` without touching the design (O(n*m) from
two rows, or O(m) in cell space on small lattice specs); a
proposal whose change is at most the current threshold is committed with
``PairCache.apply_swap``, and a rejected one costs nothing more.  Swaps
of two equal entries are counted and skipped.  The objective is the
squared qualitative-quantitative discrepancy; the incrementally tracked
value of the winner is re-verified by a full recomputation at the end,
and a disagreement raises ``DriftError``.  The combined analytic lower
bound doubles as an early-stopping certificate: a design within
``BOUND_TOL`` of the bound is provably uniform.

All randomness flows from numpy's PCG64 generator: each restart draws
from its own child of the configured seed's sequence, so identical
inputs give bit-identical results on every platform.  A threshold step
draws all of its proposals with one call, as integer codes uniform on
range(m * n * (n - 1)); ``_decode`` splits a code with two divmods into a
column and an ordered pair of distinct rows, so each column and each
ordered pair is equally likely.  Draws left over when a restart stops at
the bound are discarded.

The oracle ``exhaustive_uniform`` scores every U-type design exactly: one row
of last-factor candidates per matrix-vector product of ``kernel_matrix`` weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from itertools import product

import numpy as np

from .bounds import lb
from .discrepancy import PairCache, _constant_term, kernel_matrix, qqd_squared
from .errors import CapacityError, DomainError, DriftError
from .model import DEFAULT_CONFIG, Design, DesignSpec, _require_int, design_from_levels


def _balanced_column(spec_n: int, s: int, rng: np.random.Generator) -> np.ndarray:
    return rng.permutation(np.repeat(np.arange(s), spec_n // s))


def random_utype(spec: DesignSpec, seed) -> Design:
    """Uniformly random balanced columns; deterministic for a given seed."""
    spec.require_utype_feasible()
    rng = seed
    if not isinstance(seed, np.random.Generator):
        _require_int("seed", seed, low=0)
        rng = np.random.default_rng(seed)
    cols = [_balanced_column(spec.n, s, rng) for s in spec.levels]
    levels = np.column_stack(cols)
    return design_from_levels(spec, levels[:, : spec.p], levels[:, spec.p :])


@dataclass(frozen=True)
class SearchConfig:
    """Stochastic search knobs.

    ``budget`` is the iteration cap per restart.  ``threshold_schedule``
    must be non-increasing and end at 0; when omitted, a 20-step geometric
    ladder from 5% of the initial bound gap down to 0 is built per
    restart.  Zero-threshold moves (no worsening) are always accepted so
    plateaus stay traversable.
    """

    budget: int = 10_000
    restarts: int = 4
    threshold_schedule: tuple[float, ...] | None = None
    seed: int = 0
    stop_at_bound: bool = True

    def __post_init__(self) -> None:
        _require_int("budget", self.budget, low=0)
        _require_int("restarts", self.restarts, low=1)
        _require_int("seed", self.seed, low=0)
        if self.threshold_schedule is not None:
            try:
                sched = tuple(float(t) for t in self.threshold_schedule)
            except (TypeError, ValueError):
                raise DomainError(
                    f"threshold schedule must be numbers, got {self.threshold_schedule!r}"
                ) from None
            if not sched or sched[-1] != 0.0:
                raise DomainError("threshold schedule must end at 0")
            # a NaN step would compare false everywhere and accept every proposal
            if any(not t >= 0 for t in sched) or any(
                x < y for x, y in zip(sched, sched[1:])
            ):
                raise DomainError("threshold schedule must be non-increasing and >= 0")
            object.__setattr__(self, "threshold_schedule", sched)


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
        return SearchStats(*(getattr(self, f.name) + getattr(other, f.name) for f in fields(self)))


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


def _default_schedule(initial_gap: float) -> tuple[float, ...]:
    top = 0.05 * max(initial_gap, 0.0)
    if top <= 0.0:
        return (0.0,) * 20
    # 19 geometric steps from top down to top / 1000, then 0
    return tuple(top * 10.0 ** (-k / 6) for k in range(19)) + (0.0,)


def _decode(codes, n: int):
    """Columns, rows i and rows j != i of an array of codes in range(m * n * (n - 1)).

    Every (column, i, j) with i != j comes from exactly one code, so
    uniform codes give a uniform column and a uniform ordered pair of
    distinct rows.
    """
    column, pair = divmod(codes, n * (n - 1))
    row_i, row_j = divmod(pair, n - 1)
    return column, row_i, row_j + (row_j >= row_i)


def _run_restart(
    spec: DesignSpec,
    config: SearchConfig,
    rng: np.random.Generator,
    bound: float,
):
    design = random_utype(spec, rng)
    cache = PairCache(design, DEFAULT_CONFIG)
    value = cache.value()
    best_value = value
    trace = [(0, value)]
    if config.stop_at_bound and best_value <= bound + BOUND_TOL:
        return best_value, design, trace, "bound", SearchStats()
    n = spec.n
    if n < 2:
        return best_value, design, trace, "schedule", SearchStats()

    schedule = config.threshold_schedule or _default_schedule(value - bound)
    chunk = max(1, config.budget // len(schedule))
    codes_per_draw = spec.m * n * (n - 1)
    columns, delta, apply_swap = cache.columns, cache.delta, cache.apply_swap
    best_levels = None
    iteration = noops = improving = equal = worsening = rejected = 0
    terminated = None
    for threshold in schedule:
        steps = min(chunk, config.budget - iteration)
        if steps <= 0:
            terminated = "budget"
            break
        draws = _decode(rng.integers(codes_per_draw, size=steps), n)
        for column, row_i, row_j in zip(*(d.tolist() for d in draws)):
            iteration += 1
            col = columns[column]
            if col[row_i] == col[row_j]:
                noops += 1
                continue
            change = delta(column, row_i, row_j)
            if change > threshold:
                rejected += 1
                continue
            value = apply_swap(column, row_i, row_j)
            if change > 0.0:
                worsening += 1
            elif change == 0.0:
                equal += 1
            else:
                improving += 1
            if value < best_value:
                best_value = value
                best_levels = cache.levels()
                trace.append((iteration, value))
                if config.stop_at_bound and value <= bound + BOUND_TOL:
                    terminated = "bound"
                    break
        if terminated:
            break
    if best_levels is not None:
        design = Design(spec, *best_levels)
    stats = SearchStats(iteration, noops, improving, equal, worsening, rejected)
    return best_value, design, trace, terminated or "schedule", stats


# a value this close to the lower bound counts as attaining it
BOUND_TOL = 1e-9
# largest accepted gap between the tracked and the recomputed best value
DRIFT_TOL = 1e-10


def search_uniform(spec: DesignSpec, config: SearchConfig | None = None) -> SearchResult:
    """Best U-type design found across ``config.restarts`` independent restarts.

    Restarts draw from children of one seed sequence; results merge by
    minimum value with ties broken by restart index, so the outcome does
    not depend on execution order.  The incrementally tracked objective of
    the winner is re-verified against a full recomputation; a disagreement
    beyond ``DRIFT_TOL`` raises ``DriftError``.  ``stats`` sums the
    proposal counts of every restart that ran.
    """
    config = config or SearchConfig()
    spec.require_utype_feasible()
    report = lb(spec)
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
