"""Bundled reference designs and the values they must reproduce.

The data files under ``data/`` hold a small benchmark suite of designs
with documented 4-decimal criterion values: two 8-run and three 16-run
marginally coupled designs, the 16-run column-juxtaposition trio with its
naive-criterion comparison, two bound-attaining designs, and a central
composite design under four qualitative assignments.  ``run_checks``
recomputes every value and reports per-row pass/fail; it is hermetic (no
randomness, no network).
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib.resources import files

from .bounds import lb1, lb2
from .designio import loads_design_text
from .discrepancy import qqd_squared, swd
from .model import Design, DesignSpec
from .model import is_mcd as _is_mcd

#: default absolute tolerance against 4-decimal reference values
VALUE_TOL = 5e-5
#: looser tolerance for the one value reported with only 4 significant decimals
LARGE_VALUE_TOL = 5e-4

QQD_EXPECTED = {
    "mcd_8run_1": 0.0213,
    "mcd_8run_2": 0.0164,
    "mcd_16run_1": 0.0066,
    "mcd_16run_2": 0.0063,
    "mcd_16run_3": 0.0060,
    "juxtaposed_16run_1": 0.0822,
    "juxtaposed_16run_2": 0.0545,
    "juxtaposed_16run_same": 0.0813,
    "bound_attaining_4run": 0.1706,
    "bound_attaining_8run": 17.0235,
    "ccd_factorial_1": 0.2255,
    "ccd_factorial_2": 0.2255,
    "ccd_factorial_3": 0.1766,
    "ccd_factorial_4": 0.1571,
    "ccd_full_1": 0.0763,
    "ccd_full_2": 0.0795,
    "ccd_full_3": 0.0792,
    "ccd_full_4": 0.0653,
}

DESIGN_NAMES = tuple(QQD_EXPECTED)

MCD_NAMES = ("mcd_8run_1", "mcd_8run_2", "mcd_16run_1", "mcd_16run_2", "mcd_16run_3")

SWD_EXPECTED = {
    "juxtaposed_16run_2": 1.1055,
    "juxtaposed_16run_same": 1.0999,
}

LB2_CASE = {"n": 4, "p": 1, "q": 2, "s": 4, "expected": 0.1706}
LB1_CASE = {
    "spec": dict(n=8, p=7, q=7, levels=(2,) * 7 + (4,) * 7),
    "expected": 17.0235,
}


# the bundled data directory, resolved once
_DATA = files("qqdesign").joinpath("data")


def load_reference_design(name: str) -> Design:
    if name not in DESIGN_NAMES:
        raise KeyError(f"unknown reference design {name!r}")
    return loads_design_text(_DATA.joinpath(f"{name}.txt").read_text())


@dataclass(frozen=True)
class CheckRow:
    label: str
    expected: float
    computed: float
    tol: float
    note: str = ""

    @property
    def error(self) -> float:
        return abs(self.computed - self.expected)

    @property
    def passed(self) -> bool:
        return self.error <= self.tol


def run_checks(tol: float | None = None) -> list[CheckRow]:
    """Recompute every reference value; one row per check."""
    value_tol = VALUE_TOL if tol is None else tol
    large_tol = LARGE_VALUE_TOL if tol is None else tol
    rows: list[CheckRow] = []

    designs = {name: load_reference_design(name) for name in DESIGN_NAMES}
    qqd = {name: qqd_squared(designs[name]) for name in QQD_EXPECTED}
    swd_values = {name: swd(designs[name]) for name in SWD_EXPECTED}

    for name, expected in QQD_EXPECTED.items():
        row_tol = large_tol if expected > 1 else value_tol
        rows.append(CheckRow(f"qqd^2 {name}", expected, qqd[name], row_tol))

    for name in MCD_NAMES:
        report = _is_mcd(designs[name])
        note = "" if report.passed else report.defects[0].message
        rows.append(CheckRow(f"is_mcd {name}", 1.0, float(report.passed), 0.0, note))

    for name, expected in SWD_EXPECTED.items():
        rows.append(CheckRow(f"swd {name}", expected, swd_values[name], value_tol))

    juxta_qqd = qqd["juxtaposed_16run_same"] - qqd["juxtaposed_16run_2"]
    rows.append(
        CheckRow(
            "ordering qqd^2: duplicated-column variant is worse",
            1.0, float(juxta_qqd > 0), 0.0, f"difference {juxta_qqd:+.6f}",
        )
    )
    juxta_swd = swd_values["juxtaposed_16run_same"] - swd_values["juxtaposed_16run_2"]
    rows.append(
        CheckRow(
            "ordering swd: naive criterion prefers the worse design",
            1.0, float(juxta_swd < 0), 0.0, f"difference {juxta_swd:+.6f}",
        )
    )

    rows.append(
        CheckRow(
            "lb2(n=4, p=1, q=2, s=4)",
            LB2_CASE["expected"],
            lb2(LB2_CASE["n"], LB2_CASE["p"], LB2_CASE["q"], LB2_CASE["s"]),
            value_tol,
        )
    )
    rows.append(
        CheckRow(
            "lb1 for U(8, 2^7 4^7)",
            LB1_CASE["expected"],
            lb1(DesignSpec(**LB1_CASE["spec"])),
            large_tol,
        )
    )
    return rows
