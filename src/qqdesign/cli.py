"""Command-line front end.

Subcommands: eval, bounds, balance, compare, search, reproduce.  Exit
codes: 0 success, 1 usage, parse or file error, 2 domain/structure/capacity
error, 3 reproduction failure, 4 search finished without reaching the
lower bound, 5 the search's incrementally tracked objective disagreed
with its full recomputation (an internal fault).  eval refuses, with exit
1, a flag its criterion would ignore: --a and --b with wd or swd.  eval
names the route of its value: "closed" (the closed-form pair sum, qqd's
value, cross-checked against the quadratic form), "quadratic" (the
quadratic form over the level grid, which wd, dd and each of compare's
values take where it is the cheaper route) or "slices" (swd); compare
names each row's.  Values print at six decimals (banker's rounding);
--json emits full precision.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

from .balance import balance_pattern, balance_pattern_rowform
from .bounds import full_factorial_qqd, lb
from .designio import read_design, write_design
from .discrepancy import (
    QUADRATIC_FORM_CAP,
    _cheaper_quadratic_form,
    dd,
    qqd_squared,
    qqd_squared_quadratic,
    swd,
    wd_squared,
)
from .errors import DomainError, DriftError, ParseError, QQDesignError
from .model import DEFAULT_CONFIG, CriterionConfig, DesignSpec
from .reference import run_checks
from .search import BOUND_TOL, SearchConfig, search_uniform

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_REPRODUCE = 3
EXIT_BOUND_NOT_REACHED = 4
EXIT_DRIFT = 5


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _parse_levels(text: str, m: int) -> tuple[int, ...]:
    """Comma list with optional repeats: '4,2,2' or '2^7,4^7'; at most m counts."""
    levels: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        base, caret, count = part.partition("^")
        try:
            level, repeats = int(base), int(count) if caret else 1
            if repeats < 0:
                raise ValueError(part)
        except ValueError:
            raise ParseError(
                f"--levels: expected 'count' or 'count^repeats', got {part!r}"
            ) from None
        if len(levels) + repeats > m:  # refuse before building an oversized list
            raise DomainError(f"expected {m} level counts, --levels {text!r} gives more")
        levels.extend([level] * repeats)
    if not levels:
        raise DomainError(f"no level counts in {text!r}")
    return tuple(levels)


def _tolerance(text: str) -> float:
    """--tol: a finite non-negative number; NaN would fail every check, infinity pass every one."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0.0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"expected a finite non-negative number, got {text!r}")
    return value


def _spec_from_args(args) -> DesignSpec:
    levels = _parse_levels(args.levels, args.p + args.q)
    return DesignSpec(n=args.n, p=args.p, q=args.q, levels=levels)


def _add_spec_flags(sub) -> None:
    sub.add_argument("--n", type=int, required=True, help="run count")
    sub.add_argument("--p", type=int, required=True, help="qualitative factor count")
    sub.add_argument("--q", type=int, required=True, help="quantitative factor count")
    sub.add_argument(
        "--levels",
        required=True,
        help="per-factor level counts, e.g. '4,2,2' or '2^7,4^7'",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qqdesign", description=__doc__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", parents=[common], help="evaluate a criterion on a design file")
    p_eval.add_argument("file")
    p_eval.add_argument(
        "--criterion", choices=("qqd", "wd", "dd", "swd"), default="qqd"
    )
    # None marks a weight not given, so a criterion that ignores it can refuse it
    p_eval.add_argument("--a", type=float, default=None, help="same-level kernel weight")
    p_eval.add_argument("--b", type=float, default=None, help="different-level kernel weight")

    p_bounds = sub.add_parser("bounds", parents=[common], help="lower bounds for a spec")
    _add_spec_flags(p_bounds)

    p_bal = sub.add_parser("balance", parents=[common], help="balance pattern of a design file")
    p_bal.add_argument("file")
    p_bal.add_argument(
        "--components", action="store_true", help="also list per-subset components"
    )

    p_cmp = sub.add_parser("compare", parents=[common], help="rank design files by qqd^2")
    p_cmp.add_argument("files", nargs="+")
    p_cmp.add_argument(
        "--tol", type=_tolerance, default=1e-10, help="values this close share a rank"
    )

    p_search = sub.add_parser("search", parents=[common], help="search for a uniform design")
    _add_spec_flags(p_search)
    p_search.add_argument("--budget", type=int, default=10_000)
    p_search.add_argument("--restarts", type=int, default=4)
    p_search.add_argument("--seed", type=int, default=0)
    p_search.add_argument("--out", default=None, help="write the best design here")

    p_repro = sub.add_parser(
        "reproduce", parents=[common], help="recompute the bundled reference values"
    )
    p_repro.add_argument(
        "--tol", type=_tolerance, default=None, help="one tolerance for every value check"
    )
    return parser


def _cheaper_route(design, config, qualitative, quantitative, closed):
    """(value, route) of a value without a cross-check, by discrepancy's rule for the cheaper route.

    "quadratic" is the quadratic form over the level grid of the blocks read;
    "closed" is ``closed()``, the closed-form pair sum.
    """
    value = _cheaper_quadratic_form(design, config, qualitative, quantitative)
    return (closed(), "closed") if value is None else (value, "quadratic")


# criterion -> (text label, eval flags it reads, its (value, route)).  qqd's
# value is the closed form, cross-checked by _cmd_eval against the quadratic
# form; wd and dd take the cheaper route; swd's route, "slices", sums over the
# qualitative slices.  The lambdas look the library functions up in this
# module at call time, so rebinding those names here (as the benchmark's
# tracer does) reaches every call.
_CRITERIA = {
    "qqd": ("qqd^2", ("a", "b"), lambda d, config: (qqd_squared(d, config), "closed")),
    "wd": ("wd^2", (), lambda d, config: _cheaper_route(d, config, False, True,
                                                        lambda: wd_squared(d))),
    "dd": ("dd", ("a", "b"), lambda d, config: _cheaper_route(d, config, True, False,
                                                              lambda: dd(d, config))),
    "swd": ("swd", (), lambda d, config: (swd(d), "slices")),
}


def _cmd_eval(args):
    label, reads, value_of = _CRITERIA[args.criterion]
    for flag in ("a", "b"):
        if getattr(args, flag) is not None and flag not in reads:
            raise ParseError(f"--{flag} does not apply to --criterion {args.criterion}")
    design = read_design(args.file)
    config = CriterionConfig(
        a=DEFAULT_CONFIG.a if args.a is None else args.a,
        b=DEFAULT_CONFIG.b if args.b is None else args.b,
    )
    value, route = value_of(design, config)
    out: dict = {"criterion": args.criterion, "value": value}
    lines = [f"{route} route: {label} = {value:.6f}"]
    if args.criterion == "qqd":
        if design.is_lattice() and design.spec.N <= QUADRATIC_FORM_CAP:
            quad = qqd_squared_quadratic(design, config)
            out["quadratic_value"] = quad
            out["cross_check"] = abs(quad - value)
            lines.append(
                f"quadratic form = {quad:.6f} (|difference| = {abs(quad - value):.3e})"
            )
        else:
            lines.append("quadratic form not applicable (non-lattice design or N over cap)")
    out["route"] = route
    return EXIT_OK, out, lines


def _cmd_bounds(args):
    spec = _spec_from_args(args)
    report = lb(spec)
    out = {
        "lb1": report.lb1,
        "lb2": report.lb2,
        "lb": report.value,
        "source": report.source,
    }
    lines = [f"LB1 = {report.lb1:.6f}"]
    if report.lb2 is None:
        lines.append("LB2 = n/a (needs one qualitative level count and 2-level quantitative factors)")
    else:
        lines.append(f"LB2 = {report.lb2:.6f}")
    lines.append(f"LB  = {report.value:.6f} ({report.source})")
    if spec.n % spec.N == 0:
        ff = full_factorial_qqd(spec)
        out["full_factorial"] = ff
        lines.append(f"full factorial qqd^2 = {ff:.6f} (n is a multiple of N)")
    return EXIT_OK, out, lines


def _cmd_balance(args):
    # only the listing needs the subset form; the row form has no factor cap
    form = balance_pattern if args.components else balance_pattern_rowform
    pattern = form(read_design(args.file))
    out: dict = {"aggregate": list(pattern.aggregate)}
    lines = [f"B_{k} = {value:.6f}" for k, value in enumerate(pattern.aggregate, start=1)]
    if args.components:
        out["components"] = {
            ",".join(map(str, cols)): v for cols, v in pattern.components.items()
        }
        lines.extend(
            f"  columns {cols}: {value:.6f}" for cols, value in sorted(pattern.components.items())
        )
    return EXIT_OK, out, lines


def _cmd_compare(args):
    designs = [(path, read_design(path)) for path in args.files]
    spec = designs[0][1].spec
    for path, design in designs[1:]:
        if design.spec != spec:
            raise DomainError(f"{path}: spec differs from {args.files[0]}")
    bound = lb(spec).value if spec.is_utype_feasible() else None
    scored = []
    for path, d in designs:
        value, route = _cheaper_route(d, DEFAULT_CONFIG, True, True, lambda: qqd_squared(d))
        scored.append((value, path, route))
    scored.sort(key=lambda t: t[:2])
    rows = []
    lines = []
    rank = 0
    previous = None
    for i, (value, path, route) in enumerate(scored, start=1):
        if previous is None or abs(value - previous) > args.tol:
            rank = i
        previous = value
        gap = None if bound is None else value - bound
        rows.append({"rank": rank, "file": path, "qqd_squared": value, "gap": gap,
                     "route": route})
        gap_text = "      n/a" if gap is None else f"{gap:9.6f}"
        lines.append(f"{rank:>4}  {value:.6f}  {gap_text}  {route:<9}  {path}")
    if len({r["rank"] for r in rows}) < len(rows):
        lines.append("note: equal ranks are ties")
    return EXIT_OK, rows, lines


def _cmd_search(args):
    spec = _spec_from_args(args)
    config = SearchConfig(budget=args.budget, restarts=args.restarts, seed=args.seed)
    result = search_uniform(spec, config)
    if args.out:
        write_design(result.best_design, args.out)
    out = {
        "best_value": result.best_value,
        "bound": result.bound,
        "bound_source": result.bound_source,
        "gap": result.gap,
        "terminated_by": result.terminated_by,
        "trace": [list(t) for t in result.trace],
        "stats": {**dataclasses.asdict(result.stats), "accepted": result.stats.accepted},
        "out": args.out,
    }
    lines = [
        f"best qqd^2 = {result.best_value:.6f}",
        f"bound      = {result.bound:.6f} ({result.bound_source})",
        f"gap        = {result.gap:.6e}",
        f"terminated by {result.terminated_by}",
    ]
    if args.out:
        lines.append(f"wrote {args.out}")
    attained = result.terminated_by == "bound" or result.gap <= BOUND_TOL
    return (EXIT_OK if attained else EXIT_BOUND_NOT_REACHED), out, lines


def _cmd_reproduce(args):
    rows = run_checks(tol=args.tol)
    keys = ("label", "expected", "computed", "error", "tol", "passed", "note")
    width = max(len(r.label) for r in rows)
    lines = []
    for r in rows:
        status = "PASS" if r.passed else "FAIL"
        note = f"  [{r.note}]" if r.note else ""
        lines.append(
            f"{status}  {r.label:<{width}}  expected {r.expected:>9.4f}"
            f"  computed {r.computed:>11.6f}  |err| {r.error:.2e}{note}"
        )
    passed = sum(r.passed for r in rows)
    lines.append(f"{passed}/{len(rows)} checks passed")
    code = EXIT_OK if passed == len(rows) else EXIT_REPRODUCE
    return code, [{key: getattr(r, key) for key in keys} for r in rows], lines


# Each command returns (exit code, --json payload, text lines) and prints
# nothing itself; main prints one of the two forms.
_COMMANDS = {
    "eval": _cmd_eval,
    "bounds": _cmd_bounds,
    "balance": _cmd_balance,
    "compare": _cmd_compare,
    "search": _cmd_search,
    "reproduce": _cmd_reproduce,
}

# built once per process: argparse looks sys.stdout and sys.stderr up when it
# prints, so redirecting them after import still captures its output
_PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        for name, value in vars(args).items():
            if value == []:  # some argparse versions parse "--levels=--" to []
                raise ParseError(f"argument --{name.replace('_', '-')}: expected one argument")
        code, payload, lines = _COMMANDS[args.command](args)
        print(json.dumps(payload) if args.json else "\n".join(lines))
        return code
    except (ParseError, OSError) as exc:
        code, message = EXIT_USAGE, str(exc)
    except DriftError as exc:
        code, message = EXIT_DRIFT, str(exc)
    except QQDesignError as exc:  # domain, structure and capacity errors
        code, message = EXIT_DOMAIN, str(exc)
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
