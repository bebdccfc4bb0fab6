import math
import tracemalloc
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

import qqdesign.search as search
from qqdesign import (
    CapacityError,
    DesignSpec,
    DomainError,
    DriftError,
    SearchConfig,
    SearchStats,
    count_utype_designs,
    design_from_levels,
    exhaustive_uniform,
    frequency_vector,
    full_factorial_qqd,
    lb,
    lb2,
    qqd_squared,
    random_utype,
    search_uniform,
    validate_utype,
)
from qqdesign.search import EXHAUSTIVE_CAP, EXHAUSTIVE_WEIGHT_CAP, _distinct_balanced_columns

SPEC_4RUN = DesignSpec(n=4, p=1, q=2, levels=(4, 2, 2))
SPEC_PAIR = DesignSpec(n=8, p=1, q=2, levels=(2, 8, 8))


# ------------------------------------------------------------------ random_utype

def test_random_utype_is_valid_and_deterministic():
    a = random_utype(SPEC_PAIR, 3)
    b = random_utype(SPEC_PAIR, 3)
    c = random_utype(SPEC_PAIR, 4)
    assert validate_utype(a).passed
    assert a == b
    assert a != c


def test_random_utype_rejects_infeasible_spec():
    with pytest.raises(DomainError):
        random_utype(DesignSpec(n=5, p=1, q=1, levels=(2, 5)), 0)


@pytest.mark.parametrize("seed", [-1, np.int64(-5)])
def test_random_utype_rejects_negative_seed(seed):
    with pytest.raises(DomainError, match="seed must be >= 0"):
        random_utype(SPEC_PAIR, seed)


@pytest.mark.parametrize("seed", [1.5, -1.5, 2.0, True, None])
def test_random_utype_refuses_a_seed_that_is_not_an_integer(seed):
    with pytest.raises(DomainError, match="seed must be an integer"):
        random_utype(SPEC_PAIR, seed)


def test_random_utype_covers_all_balanced_column_pairs():
    spec = DesignSpec(n=4, p=1, q=1, levels=(2, 2))
    seen = set()
    for seed in range(300):
        design = random_utype(spec, seed)
        seen.add(
            (
                tuple(design.qualitative[:, 0]),
                tuple(design.quantitative_as_levels()[:, 0]),
            )
        )
    assert len(seen) == 36  # 6 balanced columns per factor


# ---------------------------------------------------------------- search_uniform

def test_search_attains_the_4run_bound():
    result = search_uniform(SPEC_4RUN, SearchConfig(budget=10_000, seed=1))
    assert result.terminated_by == "bound"
    assert result.best_value == pytest.approx(0.1706, abs=5e-5)
    assert result.best_value == pytest.approx(result.bound, abs=1e-9)
    assert result.bound_source == "lb2"
    assert validate_utype(result.best_design).passed


def test_search_finds_full_factorial_optimum_when_n_equals_N():
    spec = DesignSpec(n=8, p=1, q=2, levels=(2, 2, 2))
    result = search_uniform(spec, SearchConfig(budget=4000, seed=5))
    assert result.best_value == pytest.approx(full_factorial_qqd(spec), abs=1e-9)


def test_search_beats_or_ties_the_known_good_design():
    result = search_uniform(SPEC_PAIR, SearchConfig(budget=20_000, restarts=4, seed=0))
    assert result.best_value <= 0.0164 + 5e-5


def test_search_is_deterministic():
    config = SearchConfig(budget=2000, restarts=2, seed=11)
    a = search_uniform(SPEC_4RUN, config)
    b = search_uniform(SPEC_4RUN, config)
    assert a.best_value == b.best_value
    assert a.trace == b.trace
    assert a.best_design == b.best_design
    assert a.terminated_by == b.terminated_by


def test_search_trace_strictly_decreases():
    result = search_uniform(
        SPEC_PAIR, SearchConfig(budget=5000, restarts=1, seed=2, stop_at_bound=False)
    )
    values = [v for _, v in result.trace]
    assert all(x > y for x, y in zip(values, values[1:]))
    assert result.gap >= -1e-9


def test_search_incremental_value_matches_recompute():
    result = search_uniform(SPEC_PAIR, SearchConfig(budget=3000, restarts=1, seed=9))
    assert abs(qqd_squared(result.best_design) - result.best_value) < 1e-9


def test_search_zero_budget_returns_initial_design():
    config = SearchConfig(budget=0, restarts=1, seed=21, stop_at_bound=False)
    result = search_uniform(SPEC_PAIR, config)
    rng = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(21).spawn(1)[0])
    )
    assert result.best_design == random_utype(SPEC_PAIR, rng)
    assert len(result.trace) == 1


def test_search_stats_account_for_every_proposal():
    config = SearchConfig(budget=3000, restarts=3, seed=4, stop_at_bound=False)
    result = search_uniform(SPEC_PAIR, config)
    stats = result.stats
    assert stats.proposals == 3 * 3000
    assert stats.proposals == stats.noops + stats.accepted + stats.rejected
    assert stats.accepted == stats.improving + stats.equal + stats.worsening
    # the 2-level qualitative column makes equal-entry swaps common
    assert stats.noops > 0 and stats.improving > 0 and stats.rejected > 0
    assert stats.improving >= len(result.trace) - 1
    assert search_uniform(SPEC_PAIR, config).stats == stats


def test_search_stats_sum_over_restarts():
    one = search_uniform(SPEC_PAIR, SearchConfig(budget=500, restarts=1, seed=8))
    assert one.stats.proposals == 500
    config = SearchConfig(budget=0, restarts=2, seed=8, stop_at_bound=False)
    assert search_uniform(SPEC_PAIR, config).stats == SearchStats()
    assert SearchStats(1, 2, 3, 4, 5, 6) + SearchStats(6, 5, 4, 3, 2, 1) == SearchStats(
        *([7] * 6)
    )


def test_search_drift_raises_typed_error(monkeypatch):
    import qqdesign.search as search_module

    monkeypatch.setattr(search_module, "qqd_squared", lambda design: 1.0e3)
    with pytest.raises(DriftError, match="drifted") as info:
        search_uniform(SPEC_4RUN, SearchConfig(budget=100, seed=1))
    assert isinstance(info.value, RuntimeError)  # older callers catch RuntimeError


def test_search_rejects_infeasible_spec():
    with pytest.raises(DomainError, match="U-type.*level count 4 of factor 0"):
        search_uniform(DesignSpec(n=6, p=1, q=1, levels=(4, 2)))


@pytest.mark.parametrize(
    "spec, restarts, ran",
    [(SPEC_4RUN, 1000, 1), (DesignSpec(n=6, p=1, q=1, levels=(2, 3)), 3, 3)],
)
def test_search_spawns_each_restart_seed_as_the_restart_starts(monkeypatch, spec, restarts, ran):
    sizes, keys = [], []

    class SpawnSpy(np.random.SeedSequence):
        def spawn(self, n_children):
            sizes.append(n_children)
            children = super().spawn(n_children)
            keys.extend(child.spawn_key for child in children)
            return children

    monkeypatch.setattr(np.random, "SeedSequence", SpawnSpy)
    search_uniform(spec, SearchConfig(budget=200, restarts=restarts, seed=1))
    assert sizes == [1] * ran
    # the children spawn(ran) would give at once, so the streams are unchanged
    assert keys == [(k,) for k in range(ran)]


def test_search_config_validation():
    with pytest.raises(DomainError):
        SearchConfig(budget=-1)
    with pytest.raises(DomainError):
        SearchConfig(restarts=0)
    with pytest.raises(DomainError):
        SearchConfig(seed=-1)
    with pytest.raises(DomainError):
        SearchConfig(threshold_schedule=(0.1, 0.2, 0.0))
    with pytest.raises(DomainError):
        SearchConfig(threshold_schedule=(0.1, 0.05))
    # NaN compares false with every change, so it would accept every proposal
    for schedule in [(math.nan, 0.0), (0.1, math.nan, 0.0)]:
        with pytest.raises(DomainError, match="non-increasing and >= 0"):
            SearchConfig(threshold_schedule=schedule)
    with pytest.raises(DomainError, match="must be numbers"):
        SearchConfig(threshold_schedule=("a",))
    SearchConfig(threshold_schedule=(0.1, 0.05, 0.0))  # fine
    SearchConfig(threshold_schedule=(math.inf, 0.0))  # an infinite first step accepts anything


@pytest.mark.parametrize(
    "kwargs",
    [dict(budget=2.5), dict(budget=True), dict(restarts=2.0), dict(seed=1.5), dict(seed=False)],
)
def test_search_config_refuses_non_integer_counts(kwargs):
    with pytest.raises(DomainError, match=f"{next(iter(kwargs))} must be an integer"):
        SearchConfig(**kwargs)
    SearchConfig(**{name: np.int64(2) for name in kwargs})  # numpy integers are fine


def test_search_explicit_schedule_runs():
    config = SearchConfig(
        budget=300, restarts=1, seed=3, threshold_schedule=(0.01, 0.0), stop_at_bound=False
    )
    result = search_uniform(SPEC_4RUN, config)
    assert result.terminated_by in ("schedule", "budget")


# U(6; 2.3): the exhaustive optimum (0.02546) lies above the bound (0.02004),
# so no search on it can stop at the bound
SPEC_UNREACHABLE = DesignSpec(n=6, p=1, q=1, levels=(2, 3))


@pytest.mark.parametrize("stop_at_bound", [True, False])
@pytest.mark.parametrize(
    "budget, schedule, proposals, terminated_by",
    [
        (0, None, 0, "budget"),
        (5, None, 5, "budget"),  # 20 default steps: one proposal per step
        (203, None, 200, "schedule"),  # 10 per step; the 3 left over go unused
        (300, (0.01, 0.0), 300, "schedule"),
        (3, (0.01, 0.0), 2, "schedule"),
        (1, (0.01, 0.0), 1, "budget"),
    ],
)
def test_search_termination_and_stats_follow_the_budget_rules(
    budget, schedule, proposals, terminated_by, stop_at_bound
):
    config = SearchConfig(
        budget=budget, restarts=2, seed=7, threshold_schedule=schedule,
        stop_at_bound=stop_at_bound,
    )
    result = search_uniform(SPEC_UNREACHABLE, config)
    assert result.terminated_by == terminated_by
    assert result.stats.proposals == 2 * proposals
    iterations = [i for i, _ in result.trace]
    assert iterations[0] == 0
    assert all(x < y for x, y in zip(iterations, iterations[1:]))
    assert iterations[-1] <= proposals


def test_search_stopped_at_the_bound_counts_proposals_up_to_the_hit():
    config = SearchConfig(budget=10_000, restarts=1, seed=1)
    result = search_uniform(SPEC_4RUN, config)
    assert result.terminated_by == "bound"
    assert result.stats.proposals == result.trace[-1][0]
    config = SearchConfig(budget=203, restarts=1, seed=1, stop_at_bound=False)
    result = search_uniform(SPEC_4RUN, config)
    assert (result.terminated_by, result.stats.proposals) == ("schedule", 200)


@pytest.mark.parametrize("n", [2, 3, 8])
@pytest.mark.parametrize("m", [1, 3])
def test_proposal_decode_covers_every_column_and_ordered_row_pair_once(n, m):
    from qqdesign.search import _decode

    codes = np.arange(m * n * (n - 1))
    decoded = list(zip(*(d.tolist() for d in _decode(codes, n))))
    expected = [(c, i, j) for c in range(m) for i in range(n) for j in range(n) if i != j]
    assert sorted(decoded) == expected


# ------------------------------------------------------------- exhaustive oracle

def test_exhaustive_two_level_pair():
    spec = DesignSpec(n=4, p=1, q=1, levels=(2, 2))
    assert count_utype_designs(spec) == 36
    result = exhaustive_uniform(spec)
    assert result.optimum == pytest.approx(float(Fraction(11, 192)), abs=1e-12)
    assert result.count == 24
    # the returned optimum is a full factorial: constant frequency vector
    assert np.array_equal(frequency_vector(result.design), np.ones(4, dtype=int))


def test_exhaustive_trivial_qualitative_spec():
    spec = DesignSpec(n=2, p=1, q=0, levels=(2,))
    result = exhaustive_uniform(spec)
    assert result.optimum == pytest.approx(0.0, abs=1e-14)


def test_exhaustive_4run_spec_attains_lb2():
    result = exhaustive_uniform(SPEC_4RUN)
    assert result.optimum == pytest.approx(lb2(4, 1, 2, 4), abs=1e-12)


def test_exhaustive_capacity_error():
    spec = DesignSpec(n=16, p=1, q=2, levels=(2, 16, 16))
    with pytest.raises(CapacityError):
        exhaustive_uniform(spec)


def test_oracle_sandwich():
    # lb <= exhaustive optimum <= search best, on every desk-scale spec
    for spec in [
        DesignSpec(n=4, p=1, q=1, levels=(2, 2)),
        SPEC_4RUN,
        DesignSpec(n=4, p=2, q=1, levels=(2, 2, 4)),
        DesignSpec(n=6, p=1, q=1, levels=(2, 3)),
    ]:
        bound = lb(spec).value
        optimum = exhaustive_uniform(spec).optimum
        best = search_uniform(spec, SearchConfig(budget=2000, seed=0)).best_value
        assert bound <= optimum + 1e-10
        assert optimum <= best + 1e-10


def test_exhaustive_optimum_never_beats_bound_on_tiny_spaces():
    # no U-type design beats max(LB1, LB2); at n = N the full factorial attains it
    for spec in [
        DesignSpec(n=4, p=1, q=1, levels=(2, 2)),
        DesignSpec(n=4, p=1, q=2, levels=(2, 2, 2)),
        DesignSpec(n=6, p=1, q=1, levels=(2, 3)),
        DesignSpec(n=4, p=2, q=1, levels=(2, 2, 4)),
        DesignSpec(n=6, p=1, q=1, levels=(3, 2)),
    ]:
        result = exhaustive_uniform(spec)
        assert result.optimum >= lb(spec).value - 1e-10
        if spec.n % spec.N == 0:
            assert result.optimum == pytest.approx(full_factorial_qqd(spec), abs=1e-10)


def _brute_force(spec):
    """Score every U-type design with qqd_squared under the oracle's sequential tie rule."""
    best, first, count = math.inf, None, 0
    for columns in product(*(_distinct_balanced_columns(spec.n, s) for s in spec.levels)):
        levels = np.column_stack(columns)
        design = design_from_levels(spec, levels[:, : spec.p], levels[:, spec.p :])
        value = qqd_squared(design)
        if value < best - 1e-12 * max(1.0, abs(value)):
            best, first, count = value, design, 1
        elif abs(value - best) <= 1e-12 * max(1.0, abs(best)):
            count += 1
    return best, first, count


@pytest.mark.parametrize(
    "spec",
    [
        DesignSpec(n=4, p=1, q=1, levels=(2, 2)),
        DesignSpec(n=6, p=1, q=1, levels=(2, 3)),
        DesignSpec(n=4, p=2, q=1, levels=(2, 2, 4)),
        DesignSpec(n=4, p=1, q=2, levels=(2, 2, 1)),  # a one-level last factor
    ],
)
def test_exhaustive_matches_brute_force_over_qqd_squared(spec):
    best, first, count = _brute_force(spec)
    result = exhaustive_uniform(spec)
    assert result.optimum == pytest.approx(best, abs=1e-12)
    assert result.count == count
    assert result.design == first


@pytest.mark.parametrize(
    "spec, optimum, count",
    [
        (DesignSpec(n=8, p=1, q=2, levels=(2, 2, 2)), lb2(8, 1, 2, 2), 40_320),
        (DesignSpec(n=6, p=2, q=2, levels=(2, 2, 3, 3)), 0.11223636831275696, 25_920),
    ],
)
def test_exhaustive_pinned_optima(spec, optimum, count):
    result = exhaustive_uniform(spec)
    assert result.optimum == pytest.approx(optimum, abs=1e-12)
    assert result.count == count


def test_exhaustive_keeps_no_array_per_design():
    # 2 * 20 + 2 * 90 candidate columns, 36 pair weights each: about 63 KB
    spec = DesignSpec(n=6, p=2, q=2, levels=(2, 2, 3, 3))
    tracemalloc.start()
    try:
        exhaustive_uniform(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_exhaustive_refuses_weight_tables_over_the_cap_before_listing(monkeypatch):
    def unlisted(n, s):
        raise AssertionError("candidate columns listed")

    monkeypatch.setattr(search, "_distinct_balanced_columns", unlisted)
    spec = DesignSpec(n=12, p=1, q=0, levels=(6,))
    assert count_utype_designs(spec) <= EXHAUSTIVE_CAP  # 7,484,400 designs
    with pytest.raises(CapacityError, match=f"exceed the table cap {EXHAUSTIVE_WEIGHT_CAP}"):
        exhaustive_uniform(spec)
