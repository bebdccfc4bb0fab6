"""The benchmark's four workloads: generated inputs, fixed op lists, output checks.

Every input comes from the workload seed and reaches qqdesign only as a
design file or a command line.  An op drives qqdesign through
``qqdesign.cli.main`` in-process or through a public library function,
and its check raises ``OutputMismatch`` when the output is wrong; the
runner counts that, or any exception, as a failed op.

Why these workloads (the same rationale is in BENCHMARK.json):

* ``search_small``: many short ``search`` jobs on specs whose lower bound
  is attained, so jobs stop at the bound.  Per-proposal interpreter
  overhead dominates; this measures time to bound and solution quality.
  U(8; 2.2^3) and U(16; 4.2^3) are not used: at 2000 x 2 proposals they
  reached the bound in under 60% and 10% of seeds, so their jobs end at
  the budget and the run time follows the hit count, not the code.
* ``search_large``: fixed-budget search at n = 1024 on an MCD-shaped spec
  with a vacuous bound, so every job runs to budget and each proposal
  reduces the whole n x n pair matrix.
* ``eval_large``: ``eval`` and ``compare`` on n = 2048 files, lattice ones
  (with the quadratic cross-check) and a raw-valued one; the closed-form
  pair reduction dominates and the search layer is idle.
* ``verify_mixed``: ``reproduce``, balance patterns, bounds, MCD checks
  and three-route agreement on two-level designs with up to 12 factors;
  exact rational arithmetic and subset enumeration dominate.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

WORKLOADS = ("search_small", "search_large", "eval_large", "verify_mixed")

ROUTE_TOL = 1e-10  # closed, quadratic and balance forms must agree this closely
BOUND_SLACK = 1e-9  # a value may sit this far under its lower bound (float noise)


class OutputMismatch(Exception):
    """An op ran but its output is wrong."""


@dataclass(frozen=True)
class Op:
    """One timed call into qqdesign and the check of what it returned.

    ``check`` raises ``OutputMismatch`` on a wrong output and may return
    facts (such as a search's best value) for the report.
    """

    label: str
    run: Callable[[], object]
    check: Callable[[object], dict | None]


@dataclass(frozen=True)
class CliResult:
    code: int
    stdout: str
    stderr: str


def _cli(qq, argv: list[str]) -> CliResult:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = qq.cli.main(argv)
    return CliResult(code, out.getvalue(), err.getvalue())


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise OutputMismatch(message)


def _json_output(res: CliResult, codes=(0,)):
    _expect(res.code in codes, f"exit code {res.code}: {res.stderr.strip()[:200]}")
    return json.loads(res.stdout)


# -- input generation -------------------------------------------------------


def _balanced_columns(rng: np.random.Generator, n: int, levels) -> np.ndarray:
    cols = [rng.permutation(np.repeat(np.arange(s), n // s)) for s in levels]
    return np.column_stack(cols) if cols else np.zeros((n, 0), dtype=np.int64)


def _write_design(path: Path, levels: tuple[int, ...], p: int, qual, quant) -> Path:
    """Design text file: integer quantitative tokens are lattice levels, floats raw values."""
    qual = np.asarray(qual)
    quant = np.asarray(quant)
    n = qual.shape[0]
    lines = [f"{n} {p} {len(levels) - p}", " ".join(map(str, levels))]
    raw = quant.dtype.kind == "f"
    for r in range(n):
        tokens = [str(int(v)) for v in qual[r]]
        tokens += [repr(float(v)) if raw else str(int(v)) for v in quant[r]]
        lines.append(" ".join(tokens))
    path.write_text("\n".join(lines) + "\n")
    return path


def _mcd_levels(rng: np.random.Generator, n: int, s: int, q: int):
    """A marginally coupled design: one s-level factor, q Latin-hypercube columns.

    For every qualitative level, its n/s rows take each coarse cell
    (s consecutive quantitative levels) exactly once per column.
    """
    qual = rng.permutation(np.repeat(np.arange(s), n // s))
    quant = np.empty((n, q), dtype=np.int64)
    for j in range(q):
        offsets = np.array([rng.permutation(s) for _ in range(n // s)])  # cell x level
        for level in range(s):
            rows = rng.permutation(np.nonzero(qual == level)[0])
            quant[rows, j] = np.arange(n // s) * s + offsets[:, level]
    return qual[:, None], quant


# -- checks -------------------------------------------------------------------


def _check_search(qq, res: CliResult, out_path: Path) -> dict:
    out = _json_output(res, codes=(0, 4))
    design = qq.read_design(out_path)
    out_path.unlink()  # so a later run of this op cannot pass on a stale file
    _expect(qq.validate_utype(design).passed, "--out design is not U-type")
    value = qq.qqd_squared(design)
    best = out["best_value"]
    _expect(abs(value - best) <= ROUTE_TOL, f"--out qqd^2 {value!r} != best_value {best!r}")
    _expect(best >= out["bound"] - BOUND_SLACK, f"best_value {best!r} under bound {out['bound']!r}")
    attained = out["terminated_by"] == "bound" or out["gap"] <= BOUND_SLACK
    _expect(res.code == (0 if attained else 4), f"exit code {res.code} vs attained={attained}")
    return {"best_value": best, "hit": out["terminated_by"] == "bound"}


def _check_eval(res: CliResult, lattice: bool, criterion: str) -> None:
    out = _json_output(res)
    value = out["value"]
    _expect(math.isfinite(value) and value >= -BOUND_SLACK, f"{criterion} value {value!r}")
    if lattice and criterion == "qqd":
        _expect("cross_check" in out, "lattice design without the quadratic cross-check")
        _expect(out["cross_check"] <= ROUTE_TOL, f"cross_check {out['cross_check']!r}")


def _check_compare(res: CliResult, files: list[Path], lattice: set[str]) -> None:
    rows = _json_output(res)
    _expect(sorted(r["file"] for r in rows) == sorted(map(str, files)), "compare lost a file")
    values = [r["qqd_squared"] for r in rows]
    _expect(values == sorted(values), "compare rows are not ranked by value")
    for r in rows:
        bound = r["qqd_squared"] - r["gap"]
        if r["file"] in lattice:  # U-type, so the lower bound applies
            _expect(r["gap"] >= -BOUND_SLACK, f"{r['file']}: value under the bound {bound!r}")


def _check_reproduce(res: CliResult) -> None:
    rows = _json_output(res)
    passed = sum(r["passed"] for r in rows)
    _expect(len(rows) == 29 and passed == 29, f"reproduce {passed}/{len(rows)}")


def _check_balance(result, m: int) -> None:
    res, rowform = result
    out = _json_output(res)
    aggregate = out["aggregate"]
    components = out["components"]
    _expect(len(aggregate) == m, f"{len(aggregate)} balance sizes, expected {m}")
    _expect(len(components) == 2**m - 1, f"{len(components)} components, expected {2**m - 1}")
    _expect(min(components.values()) >= -BOUND_SLACK, "negative balance component")
    for k, (subset, row) in enumerate(zip(aggregate, rowform.aggregate), start=1):
        _expect(abs(subset - row) <= 1e-9 * max(1.0, abs(subset)),
                f"B_{k}: subset form {subset!r} vs row form {row!r}")


def _check_bounds(res: CliResult) -> None:
    out = _json_output(res)
    both = [v for v in (out["lb1"], out["lb2"]) if v is not None]
    _expect(out["lb"] == max(both), f"lb {out['lb']!r} is not the larger of {both}")


def _check_routes(qq, values) -> None:
    spec, closed, quadratic, balance = values
    _expect(abs(closed - quadratic) <= ROUTE_TOL, f"closed {closed!r} vs quadratic {quadratic!r}")
    _expect(abs(closed - balance) <= ROUTE_TOL, f"closed {closed!r} vs balance {balance!r}")
    bound = qq.lb(spec).value
    _expect(closed >= bound - BOUND_SLACK, f"qqd^2 {closed!r} under lb {bound!r}")


# -- workloads ---------------------------------------------------------------


def _search_ops(qq, work: Path, rng, specs, jobs_per_spec: int, budget: int, restarts: int):
    ops = []
    for n, p, levels in specs:
        for seed in rng.integers(0, 2**31 - 1, size=jobs_per_spec).tolist():
            out_path = work / f"search-{n}-{seed}.txt"
            argv = [
                "search", "--json", "--n", str(n), "--p", str(p),
                "--q", str(len(levels) - p), "--levels", ",".join(map(str, levels)),
                "--budget", str(budget), "--restarts", str(restarts),
                "--seed", str(seed), "--out", str(out_path),
            ]
            ops.append(Op(
                label=f"search n={n} seed={seed}",
                run=lambda argv=argv: _cli(qq, argv),
                check=lambda res, out_path=out_path: _check_search(qq, res, out_path),
            ))
    return ops


def _search_workload(qq, work: Path, rng, specs, jobs_per_spec: int, budget: int, restarts: int):
    """The job list, and as warm-up a zero-budget job, whose cost does not depend on the seed."""
    ops = _search_ops(qq, work, rng, specs, jobs_per_spec, budget, restarts)
    warmup = _search_ops(qq, work, rng, specs[:1], 1, budget=0, restarts=1)[0]
    return warmup, ops


def search_small(qq, work: Path, rng, tiny: bool):
    specs = [(8, 1, (2, 2, 2)), (12, 1, (3, 2, 2)), (16, 1, (4, 2, 2))]
    return _search_workload(qq, work, rng, specs, 1 if tiny else 600, budget=200, restarts=2)


def search_large(qq, work: Path, rng, tiny: bool):
    n = 64 if tiny else 1024
    return _search_workload(qq, work, rng, [(n, 1, (4, n, n))], 1 if tiny else 4,
                            budget=50 if tiny else 1000, restarts=1)


def eval_large(qq, work: Path, rng, tiny: bool):
    n = 64 if tiny else 2048
    levels = (4, 4, 4, 8) if tiny else (4, 4, 16, 32)  # N = 512 or 8192: quadratic form applies
    p = 2
    files = {}
    for name in ("lattice-1", "lattice-2"):
        files[name] = _write_design(
            work / f"{name}.txt", levels, p,
            _balanced_columns(rng, n, levels[:p]), _balanced_columns(rng, n, levels[p:]),
        )
    files["raw-1"] = _write_design(
        work / "raw-1.txt", levels, p, _balanced_columns(rng, n, levels[:p]),
        rng.random((n, len(levels) - p)),
    )
    ops = []
    for name, path in files.items():
        lattice = name.startswith("lattice")
        for criterion in ("qqd", "wd", "dd"):
            argv = ["eval", "--json", "--criterion", criterion, str(path)]
            ops.append(Op(
                label=f"eval {criterion} {name}",
                run=lambda argv=argv: _cli(qq, argv),
                check=lambda res, lattice=lattice, c=criterion: _check_eval(res, lattice, c),
            ))
    paths = list(files.values())
    lattice_files = {str(files["lattice-1"]), str(files["lattice-2"])}
    ops.append(Op(
        label="compare",
        run=lambda: _cli(qq, ["compare", "--json", *map(str, paths)]),
        check=lambda res: _check_compare(res, paths, lattice_files),
    ))
    return ops[0], ops


def verify_mixed(qq, work: Path, rng, tiny: bool):
    n = 16 if tiny else 64
    # (qualitative factors, their level count, two-level quantitative factors)
    shapes = [(2, 2, 2), (1, 4, 4)] if tiny else [(2, 2, 6), (2, 4, 8), (3, 2, 9)]
    ops = [Op(
        label="reproduce",
        run=lambda: _cli(qq, ["reproduce", "--json"]),
        check=_check_reproduce,
    )]
    for (p, s, q), k in itertools.product(shapes, range(2)):
        levels = (s,) * p + (2,) * q
        m = p + q
        path = _write_design(
            work / f"two-level-{m}-{k}.txt", levels, p,
            _balanced_columns(rng, n, levels[:p]), _balanced_columns(rng, n, levels[p:]),
        )

        def balance(path=path):
            return (_cli(qq, ["balance", "--json", "--components", str(path)]),
                    qq.balance_pattern_rowform(qq.read_design(path)))

        def routes(path=path):
            design = qq.read_design(path)
            return (design.spec, qq.qqd_squared(design),
                    qq.qqd_squared_quadratic(design), qq.qqd_from_balance(design))

        bounds_argv = ["bounds", "--json", "--n", str(n), "--p", str(p), "--q", str(q),
                       "--levels", f"{s}^{p},2^{q}"]
        ops += [
            Op(f"balance m={m} #{k}", balance, lambda res, m=m: _check_balance(res, m)),
            Op(f"bounds m={m} #{k}", lambda argv=bounds_argv: _cli(qq, argv), _check_bounds),
            Op(f"routes m={m} #{k}", routes, lambda values: _check_routes(qq, values)),
        ]
    for k in range(2):
        s = 4
        qual, quant = _mcd_levels(rng, n, s, 2)
        path = _write_design(work / f"mcd-{k}.txt", (s, n, n), 1, qual, quant)

        def mcd(path=path):
            return qq.is_mcd(qq.read_design(path))

        ops.append(Op(f"is_mcd {k}", mcd,
                      lambda report: _expect(report.passed, "constructed MCD rejected")))
    return ops[0], ops


BUILDERS = {
    "search_small": search_small,
    "search_large": search_large,
    "eval_large": eval_large,
    "verify_mixed": verify_mixed,
}


def build(name: str, qq, work: Path, seed: int, tiny: bool = False) -> tuple[Op, list[Op]]:
    """Write the workload's inputs under ``work``; return its warm-up op and fixed op list."""
    work.mkdir(parents=True, exist_ok=True)
    return BUILDERS[name](qq, work, np.random.default_rng(seed), tiny)
