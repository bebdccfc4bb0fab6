"""Uniformity criteria for designs with qualitative and quantitative factors.

Evaluate the qualitative-quantitative discrepancy through three
independent routes (pairwise closed form, frequency-vector quadratic
form, balance-pattern form), compute its analytic lower bounds, and
search for uniform U-type designs by threshold accepting.
"""

from .balance import (
    BalancePattern,
    balance_component,
    balance_pattern,
    balance_pattern_rowform,
    qqd_from_balance,
)
from .bounds import BoundReport, full_factorial_qqd, lb, lb1, lb2, lb_symmetric
from .designio import (
    design_from_json_dict,
    design_to_json_dict,
    dumps_design_text,
    loads_design_text,
    read_design,
    write_design,
)
from .discrepancy import (
    PairCache,
    coincidence_number,
    dd,
    kernel_matrix,
    qqd_squared,
    qqd_squared_quadratic,
    swd,
    wd_squared,
)
from .errors import (
    CapacityError,
    DomainError,
    DriftError,
    ParseError,
    QQDesignError,
    StructureError,
)
from .model import (
    DEFAULT_CONFIG,
    CheckReport,
    CriterionConfig,
    Defect,
    Design,
    DesignSpec,
    design_from_levels,
    design_from_raw,
    frequency_vector,
    full_factorial,
    is_mcd,
    level_to_unit,
    unit_to_level,
    validate_utype,
)
from .search import (
    ExhaustiveResult,
    SearchConfig,
    SearchResult,
    SearchStats,
    count_utype_designs,
    exhaustive_uniform,
    random_utype,
    search_uniform,
)

__version__ = "0.1.0"

__all__ = [
    "BalancePattern",
    "BoundReport",
    "CapacityError",
    "CheckReport",
    "CriterionConfig",
    "DEFAULT_CONFIG",
    "Defect",
    "Design",
    "DesignSpec",
    "DomainError",
    "DriftError",
    "ExhaustiveResult",
    "PairCache",
    "ParseError",
    "QQDesignError",
    "SearchConfig",
    "SearchResult",
    "SearchStats",
    "StructureError",
    "balance_component",
    "balance_pattern",
    "balance_pattern_rowform",
    "coincidence_number",
    "count_utype_designs",
    "dd",
    "design_from_json_dict",
    "design_from_levels",
    "design_from_raw",
    "design_to_json_dict",
    "dumps_design_text",
    "exhaustive_uniform",
    "frequency_vector",
    "full_factorial",
    "full_factorial_qqd",
    "is_mcd",
    "kernel_matrix",
    "lb",
    "lb1",
    "lb2",
    "lb_symmetric",
    "level_to_unit",
    "loads_design_text",
    "qqd_from_balance",
    "qqd_squared",
    "qqd_squared_quadratic",
    "random_utype",
    "read_design",
    "search_uniform",
    "swd",
    "unit_to_level",
    "validate_utype",
    "wd_squared",
    "write_design",
]
