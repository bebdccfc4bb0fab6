import hashlib
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
    PairCache,
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
from qqdesign.cli import main
from qqdesign.reference import load_reference_design
from qqdesign.search import EXHAUSTIVE_CAP, EXHAUSTIVE_WEIGHT_CAP, _distinct_balanced_columns

SPEC_4RUN = DesignSpec(n=4, p=1, q=2, levels=(4, 2, 2))
SPEC_PAIR = DesignSpec(n=8, p=1, q=2, levels=(2, 8, 8))
# U(6; 2.3): the exhaustive optimum (0.02546) lies above the bound (0.02004),
# so every search on it runs to its budget or schedule
SPEC_UNREACHABLE = DesignSpec(n=6, p=1, q=1, levels=(2, 3))
UNREACHABLE_START = random_utype(SPEC_UNREACHABLE, 0)


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


@pytest.mark.parametrize("n", [2 * 10**15, 10**30], ids=["memory", "overflow"])
def test_a_search_refuses_a_random_design_it_cannot_allocate(n, capsys):
    # 14.2 PiB of int64 columns, or more entries than a C long counts: neither is allocated
    argv = ["search", "--n", str(n), "--p", "1", "--q", "1", "--levels", "2,2", "--budget", "1"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot allocate a random design with n={n}\n"


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
    result = search_uniform(SPEC_PAIR, SearchConfig(budget=5000, restarts=1, seed=2))
    values = [v for _, v in result.trace]
    assert all(x > y for x, y in zip(values, values[1:]))
    assert result.gap >= -1e-9


def test_search_incremental_value_matches_recompute():
    result = search_uniform(SPEC_PAIR, SearchConfig(budget=3000, restarts=1, seed=9))
    assert abs(qqd_squared(result.best_design) - result.best_value) < 1e-9


@pytest.mark.parametrize(
    "spec, budget, cell_route",
    [(DesignSpec(n=16, p=1, q=2, levels=(4, 2, 2)), 2000, True),
     (DesignSpec(n=64, p=1, q=2, levels=(4, 64, 64)), 50, False)],
    ids=["cell", "row"],
)
def test_search_scores_and_commits_without_the_public_swap_calls(spec, budget, cell_route,
                                                                monkeypatch):
    # the proposals are valid by construction, so no public call checks them again
    assert PairCache(random_utype(spec, 0))._cell_route is cell_route

    def refuse(*args):
        raise AssertionError("the search made a public PairCache swap call")

    monkeypatch.setattr(PairCache, "delta", refuse)
    monkeypatch.setattr(PairCache, "apply_swap", refuse)
    result = search_uniform(spec, SearchConfig(budget=budget, restarts=1, seed=0))
    assert result.stats.accepted > 0 and result.stats.rejected > 0


def test_search_zero_budget_returns_initial_design():
    config = SearchConfig(budget=0, restarts=1, seed=21)
    result = search_uniform(SPEC_PAIR, config)
    rng = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(21).spawn(1)[0])
    )
    assert result.best_design == random_utype(SPEC_PAIR, rng)
    assert len(result.trace) == 1


def test_search_stats_account_for_every_proposal():
    config = SearchConfig(budget=3000, restarts=3, seed=4)
    result = search_uniform(SPEC_UNREACHABLE, config)
    stats = result.stats
    assert stats.proposals == 3 * 3000
    assert stats.proposals == stats.noops + stats.accepted + stats.rejected
    assert stats.accepted == stats.improving + stats.equal + stats.worsening
    # the 2-level qualitative column makes equal-entry swaps common
    assert stats.noops > 0 and stats.improving > 0 and stats.rejected > 0
    assert stats.improving >= len(result.trace) - 1
    assert search_uniform(SPEC_UNREACHABLE, config).stats == stats


def test_search_stats_sum_over_restarts():
    one = search_uniform(SPEC_PAIR, SearchConfig(budget=500, restarts=1, seed=8))
    assert one.stats.proposals == 500
    config = SearchConfig(budget=0, restarts=2, seed=8)
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


@pytest.mark.parametrize(
    "kwargs",
    [dict(budget=2.5), dict(budget=True), dict(restarts=2.0), dict(seed=1.5), dict(seed=False)],
)
def test_search_config_refuses_non_integer_counts(kwargs):
    with pytest.raises(DomainError, match=f"{next(iter(kwargs))} must be an integer"):
        SearchConfig(**kwargs)
    SearchConfig(**{name: np.int64(2) for name in kwargs})  # numpy integers are fine


@pytest.mark.parametrize("numpy_counts", [True, False])
@pytest.mark.parametrize(
    "budget, start, proposals, terminated_by",
    [
        (0, None, 0, "budget"),
        (5, None, 5, "budget"),  # 20 threshold steps: one proposal per step
        (203, None, 200, "schedule"),  # 10 per step; the 3 left over go unused
        (300, UNREACHABLE_START, 300, "schedule"),  # 15 per step, none left over
        (59, UNREACHABLE_START, 40, "schedule"),  # 2 per step; the 19 left over go unused
        (1, UNREACHABLE_START, 1, "budget"),  # below the step count: the cap ends step 2
    ],
)
def test_search_termination_and_stats_follow_the_budget_rules(
    budget, start, proposals, terminated_by, numpy_counts
):
    # numpy integer counts run the same search as Python ints; a given start
    # (None: a random one per restart) follows the same budget rules
    to_count = np.int64 if numpy_counts else int
    config = SearchConfig(
        budget=to_count(budget), restarts=to_count(2), seed=to_count(7), start=start,
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


@pytest.mark.parametrize("budget", [0, 200])
def test_search_on_one_run_stops_at_the_bound_before_any_proposal(budget):
    # an n = 1 spec admits only 1-level factors, and its one design meets lb1
    for m in range(1, 5):
        for p in range(m + 1):
            spec = DesignSpec(n=1, p=p, q=m - p, levels=(1,) * m)
            result = search_uniform(spec, SearchConfig(budget=budget, restarts=2))
            assert result.terminated_by == "bound", spec
            assert result.stats == SearchStats()
            assert len(result.trace) == 1


# ------------------------------------------------------------------- given start

def test_search_from_a_start_at_the_bound_makes_no_proposal():
    start = load_reference_design("bound_attaining_4run")
    result = search_uniform(SPEC_4RUN, SearchConfig(budget=1000, restarts=3, start=start))
    assert result.terminated_by == "bound"
    assert result.stats == SearchStats()
    assert result.best_design is start
    assert result.trace == ((0, result.best_value),)


@pytest.mark.parametrize("seed", range(4))
def test_search_from_a_start_never_ends_above_it(seed):
    start = load_reference_design("mcd_16run_3")
    config = SearchConfig(budget=400, restarts=2, seed=seed, start=start)
    result = search_uniform(start.spec, config)
    assert result.trace[0] == (0, pytest.approx(qqd_squared(start), abs=1e-12))
    assert result.best_value <= result.trace[0][1]
    assert result.stats.proposals == 2 * 400  # U(16; 2.16^2)'s bound is out of reach
    assert search_uniform(start.spec, config).trace == result.trace  # deterministic


def test_search_restarts_from_a_start_differ_only_in_their_proposals(monkeypatch):
    start = random_utype(SPEC_UNREACHABLE, 4)
    restarts = []

    def recorded(*args, _run_restart=search._run_restart):
        restarts.append(_run_restart(*args))
        return restarts[-1]

    monkeypatch.setattr(search, "_run_restart", recorded)
    search_uniform(SPEC_UNREACHABLE, SearchConfig(budget=200, restarts=3, seed=6, start=start))
    opening = (0, pytest.approx(qqd_squared(start)))
    assert [trace[0] for _, _, trace, _, _ in restarts] == [opening] * 3
    # each restart draws from its own child stream
    assert len({stats for *_, stats in restarts}) == 3


def test_search_refuses_a_start_of_another_spec_or_not_u_type():
    start = random_utype(SPEC_PAIR, 0)
    with pytest.raises(DomainError, match="spec differs"):
        search_uniform(SPEC_4RUN, SearchConfig(start=start))
    unbalanced = design_from_levels(
        SPEC_4RUN, [[0], [0], [1], [2]], [[0, 0], [1, 1], [0, 0], [1, 1]]
    )
    with pytest.raises(DomainError, match="start must be a U-type design; column 0"):
        SearchConfig(start=unbalanced)
    with pytest.raises(DomainError, match="start must be a Design or None"):
        SearchConfig(start="design.txt")


def test_search_config_with_a_start_stays_comparable():
    start = random_utype(SPEC_PAIR, 0)
    same = design_from_levels(SPEC_PAIR, start.qualitative, start.all_levels()[:, 1:])
    assert SearchConfig(start=start) == SearchConfig(start=same)
    assert hash(SearchConfig(start=start)) == hash(SearchConfig(start=same))
    assert SearchConfig(start=start) != SearchConfig()
    assert SearchConfig(start=start) != SearchConfig(start=random_utype(SPEC_PAIR, 1))


class _Consecutive:
    """A stand-in generator whose draws are the codes 0, 1, 2, ... in order."""

    def __init__(self):
        self.drawn = []

    def integers(self, high, size):
        start = sum(self.drawn)
        self.drawn.append(size)
        assert start + size <= high
        return np.arange(start, start + size)


@pytest.mark.parametrize("n", [2, 3, 8])
@pytest.mark.parametrize("m", [1, 3])
def test_proposal_decode_covers_every_column_and_ordered_row_pair_once(n, m, monkeypatch):
    monkeypatch.setattr(search, "_BLOCK", 5)  # several draws, the last one short
    rng, count = _Consecutive(), m * n * (n - 1)
    decoded = list(search._proposals(rng, m, n, count))
    expected = [(c, i, j) for c in range(m) for i in range(n) for j in range(n) if i != j]
    assert sorted(decoded) == expected
    assert rng.drawn == [5] * (count // 5) + [count % 5] * (count % 5 > 0)


class _BoundedDraws(np.random.Generator):
    """A generator that refuses a draw of more than ``search._BLOCK`` values."""

    def integers(self, *args, size=None, **kwargs):
        assert size is None or np.prod(size) <= search._BLOCK, f"a draw of {size} values"
        return super().integers(*args, size=size, **kwargs)


@pytest.mark.parametrize("budget", [10**12, 10**30], ids=["1e12", "1e30"])
def test_a_huge_budget_is_drawn_in_bounded_blocks_up_to_the_bound(budget, monkeypatch):
    monkeypatch.setattr(np.random, "Generator", _BoundedDraws)
    result = search_uniform(DesignSpec(n=8, p=1, q=2, levels=(2, 2, 2)),
                            SearchConfig(budget=budget, seed=0))
    assert result.terminated_by == "bound"


# ----------------------------------------------------------------- golden digests

def _start_file(path, n, levels, seed, near=False):
    """A U-type design file with one qualitative factor: integer levels, or values near them."""
    rng = np.random.default_rng(seed)
    cols = [rng.permutation(np.repeat(np.arange(s), n // s)) for s in levels]
    lines = [f"{n} 1 {len(levels) - 1}", " ".join(map(str, levels))]
    for r in range(n):
        tokens = [str(cols[0][r])]
        for k, s in enumerate(levels[1:], 1):
            level = int(cols[k][r])
            # within LATTICE_TOL of the lattice point, not on it: scored from rows
            tokens.append(repr((level + 0.5) / s + (r % 3 - 1) * 1e-12) if near else str(level))
        lines.append(" ".join(tokens))
    path.write_text("\n".join(lines) + "\n")


SEARCH_SMALL = [("8", "2,2,2"), ("12", "3,2,2"), ("16", "4,2,2")]
# one sha256 per group over each job's exit code, search --json stdout and --out
# file, recorded at the commit before the winner kept its decode; a change to a
# search trace or to the writer changes them, and must say why
GOLDEN = {
    # the benchmark's search_small specs, scored in cell space, seeds 0-39 each
    "cells": (
        [["--n", n, "--levels", levels, "--seed", str(seed)]
         for n, levels in SEARCH_SMALL for seed in range(40)],
        "299390b8a3a357ea4e8b7a17c4b5fac33bd53442d06619bfc783ccd2b454a77b",
    ),
    # U(64; 4.64^2) is scored from rows
    "rows": (
        [["--n", "64", "--levels", "4,64,64", "--seed", str(seed)] for seed in range(3)],
        "ccde1d507a69d6b35652375d9129dcd43838e84dfa214064c326e4ac567a97f3",
    ),
    # a lattice start on each route, and a near-lattice one, which is scored from rows
    "start": (
        [["--n", "16", "--levels", "4,2,2", "--start", "cells.txt"],
         ["--n", "64", "--levels", "4,64,64", "--start", "rows.txt"],
         ["--n", "16", "--levels", "4,2,2", "--start", "near.txt"]],
        "624a6096f7cb07da44e1bf8816549b0e8e8daefcc4e2781bc83587c1ab3abf68",
    ),
}


@pytest.mark.skipif(np.lib.NumpyVersion(np.__version__) < "2.0.0",
                    reason="the digests were recorded with numpy 2")
@pytest.mark.parametrize("group", sorted(GOLDEN))
def test_search_output_matches_the_golden_digests(group, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    _start_file(tmp_path / "cells.txt", 16, (4, 2, 2), 0)
    _start_file(tmp_path / "rows.txt", 64, (4, 64, 64), 1)
    _start_file(tmp_path / "near.txt", 16, (4, 2, 2), 2, near=True)
    jobs, expected = GOLDEN[group]
    digest = hashlib.sha256()
    for argv in jobs:
        code = main(["search", "--json", "--p", "1", "--q", "2", *argv, "--budget", "200",
                     "--restarts", "2", "--out", "design.txt"])
        digest.update(f"{code}\n{capsys.readouterr().out}".encode())
        digest.update((tmp_path / "design.txt").read_bytes())
    assert digest.hexdigest() == expected


def _search_bytes(spec, budget, seed):
    result = search_uniform(spec, SearchConfig(budget=budget, restarts=2, seed=seed))
    best = result.best_design
    return (result.best_value.hex(), [(i, v.hex()) for i, v in result.trace], result.stats,
            result.terminated_by, best.qualitative.tobytes(), best.quantitative.tobytes())


# no numpy-version skip: the golden digests check the default block on numpy 2 only
@pytest.mark.parametrize("spec, budget, seed", [
    *((DesignSpec(n=int(n), p=1, q=2, levels=tuple(map(int, levels.split(",")))), 200, seed)
      for n, levels in SEARCH_SMALL for seed in range(4)),
    (DesignSpec(n=64, p=1, q=2, levels=(4, 64, 64)), 50, 0),
])
def test_the_proposal_block_size_changes_no_search(spec, budget, seed, monkeypatch):
    expected = _search_bytes(spec, budget, seed)
    for block in (1, 7):
        monkeypatch.setattr(search, "_BLOCK", block)
        assert _search_bytes(spec, budget, seed) == expected


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
