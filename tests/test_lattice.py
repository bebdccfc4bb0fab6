"""The lattice decode: one decoder in model.py, run at most once per design.

``_tolerant_levels`` and ``_exact_levels`` below are the two per-column
rules every reader applied on its own before the decode moved behind
``Design``: the tolerant one (within LATTICE_TOL) for U-type checks,
``is_lattice`` and writing, the bit-exact one for every route choice.
They are the reference the property test holds the shared decode to.
"""

import copy
import functools
import json
import math
import pickle
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qqdesign.discrepancy as discrepancy
import qqdesign.model as model
from qqdesign import (
    DEFAULT_CONFIG,
    Design,
    DesignSpec,
    DomainError,
    PairCache,
    SearchConfig,
    design_from_levels,
    design_to_json_dict,
    frequency_vector,
    is_mcd,
    qqd_from_balance,
    qqd_squared,
    qqd_squared_quadratic,
    random_utype,
    search_uniform,
    validate_utype,
    wd_squared,
    write_design,
)
from qqdesign.cli import main
from qqdesign.model import LATTICE_TOL
from qqdesign.reference import load_reference_design


def _tolerant_levels(values, s):
    """One column's levels within LATTICE_TOL of the lattice, -1 off it."""
    level = np.clip(np.rint(values * s - 0.5), 0, s - 1)
    on = np.abs(values - (level + 0.5) / s) <= LATTICE_TOL
    level = np.minimum(np.where(on, level, 0).astype(np.uint64), s - 1)
    return np.where(on, level.astype(np.int64), -1)


def _exact_levels(values, s):
    """Levels of values that are all exactly lattice points of s levels, else None."""
    level = np.rint(values * s - 0.5)
    return level.astype(np.intp) if ((level + 0.5) / s == values).all() else None


def _reference_defects(design):
    spec = design.spec
    defects = []
    for k, s in enumerate(spec.levels):
        if spec.n % s:
            defects.append(model.Defect(f"level count {s} does not divide run count {spec.n}",
                                        column=k))
            continue
        col = (design.qualitative[:, k] if k < spec.p
               else _tolerant_levels(design.quantitative[:, k - spec.p], s))
        counts = np.bincount(col[col >= 0], minlength=s)
        off = np.nonzero(counts != spec.n // s)[0]
        if col.min() < 0:
            defects.append(model.Defect("non-lattice quantitative column", column=k))
        elif off.size:
            lev = int(off[0])
            defects.append(model.Defect(f"level {lev} occurs {int(counts[lev])} times, "
                                        f"expected {spec.n // s}", column=k, level=lev))
    return tuple(defects)


@contextmanager
def _closed_form_step_kinds():
    """Each closed form's step functions, quantitative columns first, in call order."""
    calls, real = [], discrepancy._closed_form_steps

    def record(*args, **kwargs):
        steps, buffers = real(*args, **kwargs)
        calls.append([step.func for step in steps])
        return steps, buffers

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(discrepancy, "_closed_form_steps", record)
        yield calls


# n = 12 is one row block, n = 182 and 240 several; 2^53 + 1 and 2^62 - 1
# levels meet the float clamp
RUNS = {12: (2, 3, 4, 6, 12), 182: (2, 7, 13, 91, 182, 183), 240: (2, 4, 5, 16, 240)}
HUGE = (2**53 + 1, 2**62 - 1)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.sampled_from(sorted(RUNS)),
    p=st.integers(0, 2),
    kinds=st.lists(st.sampled_from(["exact", "near", "raw", "ends"]), min_size=1, max_size=3),
    huge=st.booleans(),
)
def test_shared_decode_keeps_the_per_column_rules(seed, n, p, kinds, huge):
    rng = np.random.default_rng(seed)
    q = len(kinds)
    s_qual = tuple(rng.choice(RUNS[n][:3], p).tolist())
    s_quant = tuple(rng.choice(RUNS[n], q).tolist())
    if huge:
        s_quant = s_quant[:-1] + (HUGE[seed % 2],)
    spec = DesignSpec(n=n, p=p, q=q, levels=s_qual + s_quant)

    def column(s):  # balanced where s divides n
        if n % s == 0:
            return rng.permutation(np.repeat(np.arange(s), n // s))
        return rng.integers(0, s, n)

    qual = np.array([column(s) for s in s_qual], dtype=np.int64).reshape(p, n).T
    quant = np.array([(column(s) + 0.5) / s for s in s_quant]).T
    for k, kind in enumerate(kinds):
        rows = rng.choice(n, 5, replace=False)
        if kind == "near":  # inside LATTICE_TOL, some rows off the lattice points
            moved = quant[rows, k] + rng.choice([-1, 1], 5) * rng.uniform(1e-14, 1e-10, 5)
            quant[rows, k] = np.clip(moved, 0.0, 1.0)
        elif kind == "raw":
            quant[:, k] = rng.random(n)
        elif kind == "ends":
            quant[rows, k] = rng.choice([0.0, 1.0], 5)
    design = Design(spec, qual, quant)

    tolerant = np.column_stack([_tolerant_levels(quant[:, k], s) for k, s in enumerate(s_quant)])
    exact = [_exact_levels(quant[:, k], s) for k, s in enumerate(s_quant)]
    on = tolerant.min(axis=0) >= 0

    assert design.is_lattice() == bool(on.all())
    assert validate_utype(design).defects == _reference_defects(design)
    if on.all():
        assert design.quantitative_as_levels().tolist() == tolerant.tolist()
    else:
        k = int(np.nonzero(~on)[0][0])
        r = int(np.nonzero(tolerant[:, k] < 0)[0][0])
        message = (f"row {r}, column {p + k}: value {float(quant[r, k])!r} is not a lattice"
                   f" point of a factor with {s_quant[k]} levels")
        with pytest.raises(DomainError) as info:
            design.quantitative_as_levels()
        assert str(info.value) == message
    columns = design.qualitative.T.tolist() + [
        (tolerant[:, k] if on[k] else quant[:, k]).tolist() for k in range(q)
    ]
    assert design_to_json_dict(design)["rows"] == list(map(list, zip(*columns)))

    # every route choice reads the exact rule
    several = n * n > discrepancy.PAIR_BLOCK
    tables = [several and s * s <= discrepancy.PAIR_BLOCK and codes is not None
              for s, codes in zip(s_quant, exact)]
    with _closed_form_step_kinds() as calls:
        qqd_squared(design)
        wd_squared(design)
        cache = PairCache(design)
    for kinds_of_steps in calls:
        assert kinds_of_steps[:q] == [discrepancy._gather if table else discrepancy._kernel_step
                                      for table in tables]
    all_exact = all(codes is not None for codes in exact)
    cells = (spec.N <= discrepancy.CELL_RATIO * n
             and discrepancy._cell_tables(spec, DEFAULT_CONFIG) is not None and all_exact)
    assert cache._cell_route == cells
    for qualitative, quantitative in [(True, True), (False, True), (True, False)]:
        counts = s_qual * qualitative + s_quant * quantitative
        N = math.prod(counts)
        cheaper = (bool(counts) and several and N <= discrepancy.QUADRATIC_FORM_CAP
                   and N * sum(counts) <= n * n and (all_exact or not quantitative))
        value = discrepancy._cheaper_quadratic_form(design, DEFAULT_CONFIG, qualitative,
                                                    quantitative)
        assert (value is not None) == cheaper


@pytest.mark.parametrize("levels", [(4, 2, 2), (3, 7, 2**50), (2, 2**50 + 1, 2**62 - 1)])
def test_levels_filled_by_design_from_levels_equal_the_decode(levels):
    spec = DesignSpec(n=12, p=1, q=2, levels=levels)
    rng = np.random.default_rng(0)
    quant = np.array([rng.integers(0, s, 12) for s in levels[1:]]).T
    quant[:2] = [[0, 0], [s - 1 for s in levels[1:]]]  # the ends of each column
    built = design_from_levels(spec, rng.integers(0, levels[0], (12, 1)), quant)
    decoded = Design(spec, built.qualitative, built.quantitative)
    # filled from the levels up to 2^50 levels, decoded on first use above
    assert ("_lattice" in built.__dict__) == ("_exact" in built.__dict__) == (max(levels[1:]) <= 2**50)
    assert "_lattice" not in decoded.__dict__ and "_exact" not in decoded.__dict__
    for design in (built, decoded):
        assert not design._lattice.flags.writeable
    assert built._lattice.dtype == decoded._lattice.dtype == np.int64
    assert built._lattice.tolist() == decoded._lattice.tolist()
    assert built._exact == decoded._exact == (True, True)


def test_level_arrays_are_fresh_and_the_decode_read_only():
    design = load_reference_design("mcd_16run_1")
    levels, every = design.quantitative_as_levels(), design.all_levels()
    levels[:] = -7
    every[:] = -7
    assert design.quantitative_as_levels().min() >= 0 and design.all_levels().min() >= 0
    with pytest.raises(ValueError):
        design._lattice[0, 0] = 1
    # a copy or an unpickled design is rebuilt, read-only, and decodes its own values
    for twin in (copy.copy(design), copy.deepcopy(design), pickle.loads(pickle.dumps(design))):
        assert twin == design and "_lattice" not in twin.__dict__
        for array in (twin.qualitative, twin.quantitative, twin._lattice):
            assert not array.flags.writeable


@contextmanager
def _decodes():
    """The blocks ``model._lattice_levels`` decodes, in call order."""
    shapes, real = [], model._lattice_levels

    def count(values, counts):
        shapes.append(np.shape(values))
        return real(values, counts)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model, "_lattice_levels", count)
        yield shapes


@contextmanager
def _exactness_tests():
    """The quantitative blocks whose ``Design._exact`` is computed, in call order."""
    shapes, real = [], model.Design.__dict__["_exact"].func

    def count(design):
        shapes.append(design.quantitative.shape)
        return real(design)

    counted = functools.cached_property(count)
    counted.__set_name__(model.Design, "_exact")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model.Design, "_exact", counted)
        yield shapes


def _fresh(design):
    """The same design, built from its values, so nothing is decoded yet."""
    return Design(design.spec, design.qualitative, design.quantitative)


def test_each_design_is_decoded_at_most_once(tmp_path, capsys):
    """And its exactness tested at most once."""
    lattice = tmp_path / "lattice.txt"
    write_design(random_utype(DesignSpec(n=512, p=2, q=2, levels=(4, 4, 8, 16)), 0), lattice)
    two_level = tmp_path / "two-level.txt"
    write_design(random_utype(DesignSpec(n=64, p=4, q=8, levels=(2,) * 12), 0), two_level)

    with _decodes() as shapes, _exactness_tests() as tested:
        assert main(["eval", "--json", str(lattice)]) == 0
    assert "cross_check" in json.loads(capsys.readouterr().out)
    assert shapes == tested == [(512, 2)]

    with _decodes() as shapes, _exactness_tests() as tested:
        assert main(["balance", "--json", str(two_level)]) == 0
    capsys.readouterr()
    assert shapes == [(64, 8)] and tested == []

    mcd = _fresh(load_reference_design("mcd_16run_1"))
    with _decodes() as shapes, _exactness_tests() as tested:
        assert validate_utype(mcd).passed and is_mcd(mcd).passed
    assert shapes == [(16, mcd.spec.q)] and tested == []

    design = _fresh(random_utype(DesignSpec(n=64, p=4, q=8, levels=(2,) * 12), 1))
    with _decodes() as shapes, _exactness_tests() as tested:
        assert qqd_squared_quadratic(design) == pytest.approx(qqd_from_balance(design), abs=1e-12)
        assert frequency_vector(design).sum() == 64
    assert shapes == [(64, 8)] and tested == []

    design = _fresh(random_utype(DesignSpec(n=256, p=1, q=2, levels=(2, 4, 8)), 0))
    with _decodes() as shapes, _exactness_tests() as tested:
        assert PairCache(design)._cell_route
    assert shapes == tested == [(256, 2)]

    # n^2 > PAIR_BLOCK, so the final check reads the winner's exactness: a search
    # hands over its start's, which a random start has and a start file tests once
    search = ["search", "--json", "--n", "256", "--p", "1", "--q", "2", "--levels", "2,4,8",
              "--budget", "40", "--restarts", "2"]
    written = tmp_path / "winner.txt"
    for extra, once in [(["--out", str(written)], []), (["--start", str(written)], [(256, 2)])]:
        with _decodes() as shapes, _exactness_tests() as tested:
            assert main([*search, *extra]) in (0, 4)
        assert json.loads(capsys.readouterr().out)["trace"][-1][0] > 0  # the winner is not the start
        assert shapes == tested == once


@pytest.mark.parametrize("n, levels, cells", [("16", "4,2,2", True), ("64", "4,64,64", False)],
                         ids=["cells", "rows"])
def test_a_search_decodes_only_a_start_it_reads(n, levels, cells, tmp_path, capsys):
    spec = DesignSpec(n=int(n), p=1, q=2, levels=tuple(map(int, levels.split(","))))
    assert PairCache(random_utype(spec, 0))._cell_route == cells
    search = ["search", "--json", "--n", n, "--p", "1", "--q", "2", "--levels", levels,
              "--budget", "200", "--restarts", "2"]
    written = tmp_path / "random.txt"
    # random starts hand their levels over, and the winner the decode it was searched with
    with _decodes() as shapes:
        assert main([*search, "--out", str(written)]) in (0, 4)
    assert json.loads(capsys.readouterr().out)["trace"][-1][0] > 0  # the winner is not the start
    assert shapes == []
    with _decodes() as shapes:
        assert main([*search, "--start", str(written), "--seed", "1",
                     "--out", str(tmp_path / "from-start.txt")]) in (0, 4)
    capsys.readouterr()
    assert shapes == [(spec.n, 2)]


def test_the_winner_takes_over_the_decode_of_its_values():
    spec = DesignSpec(n=16, p=1, q=2, levels=(4, 2, 2))
    lattice = random_utype(spec, 5)
    nudge = np.where(np.arange(16)[:, None] % 2, 1e-12, -1e-12)  # inside LATTICE_TOL
    near = Design(spec, lattice.qualitative, lattice.quantitative + nudge)
    for start in (None, near):
        result = search_uniform(spec, SearchConfig(budget=200, restarts=2, seed=3, start=start))
        winner = result.best_design
        assert len(result.trace) > 1 and winner is not start
        assert "_lattice" in winner.__dict__ and not winner._lattice.flags.writeable
        assert winner._lattice.tolist() == _fresh(winner)._lattice.tolist()
        assert winner._exact == _fresh(winner)._exact == (start is None,) * 2
