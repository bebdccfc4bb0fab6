from fractions import Fraction

import numpy as np
import pytest

from qqdesign import (
    CapacityError,
    DesignSpec,
    DomainError,
    DriftError,
    SearchConfig,
    SearchStats,
    count_utype_designs,
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


def test_search_config_validation():
    with pytest.raises(DomainError):
        SearchConfig(budget=-1)
    with pytest.raises(DomainError):
        SearchConfig(restarts=0)
    with pytest.raises(DomainError):
        SearchConfig(threshold_schedule=(0.1, 0.2, 0.0))
    with pytest.raises(DomainError):
        SearchConfig(threshold_schedule=(0.1, 0.05))
    SearchConfig(threshold_schedule=(0.1, 0.05, 0.0))  # fine


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
        exhaustive_uniform(spec, cap=1000)


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
