"""Analytic lower bounds on the squared discrepancy of U-type designs.

Two bounds are implemented.  The kernel-sum bound (lb1) applies to any
U-type spec: over all designs with balanced columns, the multiset of
off-diagonal pair products is fixed, so by the arithmetic-geometric mean
inequality the pair sum is minimized when all products equal their
geometric mean.  The balance-pattern bound (lb2) applies to specs of the
form s^p 2^q: it is ``balance.balance_form`` at residue sums, each balance
component bounded by the residue of n modulo the cell count.  ``lb``
reports the larger applicable bound with its provenance.

``balance`` owns the exact arithmetic that lb2, ``lb`` and
``full_factorial_qqd`` share: the shape test, the per-size split sum, the
full-factorial value and its one rounding.  lb1's kernel comes from
``discrepancy`` and ``DEFAULT_CONFIG``; ``lb_symmetric`` alone writes its
constants out, so that it stays an independent check on ``lb1``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .balance import _full_factorial, _split_sums, _to_float, _two_type_shape, balance_form
from .discrepancy import _constant_term, _lattice_kernel
from .errors import CapacityError, DomainError
from .model import DEFAULT_CONFIG, DesignSpec, _require_int

# lb1 loops over the s/2 + 1 lattice distances of s quantitative levels (~0.2 s at the cap)
LB1_LEVEL_CAP = 1 << 20
# lb2 sums (p + 1)(q + 1) - 1 split terms of integers about p + q digits long, so
# its time grows as (p + 1)(q + 1)(p + q)^2: about 4e-11 s a unit (2-vCPU Xeon;
# lb2(64, 200, 200, 4) took 0.23 s and lb2(2, 0, 1752, 2) 0.22 s), ~0.4 s at the cap
LB2_WORK_CAP = 10**10


def lb1(spec: DesignSpec) -> float:
    """Kernel-sum lower bound for any U-type-feasible spec.

    Evaluated in the log domain: the bound multiplies ~s_k fractional
    powers per factor and plain products lose precision multiplicatively.
    A bound that overflows a float is refused with DomainError.
    """
    spec.require_utype_feasible()
    top = max(spec.quantitative_levels, default=1)
    if top > LB1_LEVEL_CAP:
        raise CapacityError(f"quantitative level count {top} exceeds lb1's cap {LB1_LEVEL_CAP}")
    n, p, q = spec.n, spec.p, spec.q
    a, b = DEFAULT_CONFIG.a, DEFAULT_CONFIG.b
    try:
        C = _constant_term(spec.qualitative_levels, q, a, b)
        # a row paired with itself: weight a per qualitative factor, the
        # wrap-around kernel at distance 0 per quantitative one
        diag = a**p * _lattice_kernel(0, 1) ** q
        if n == 1:
            # single-point design: the double sum is the lone diagonal term
            value = C + diag
        else:
            logs = [(n - s) / (s * (n - 1)) * math.log(a / b) for s in spec.qualitative_levels]
            for s in spec.quantitative_levels:
                for d in range(s // 2 + 1):
                    # s times the share of off-diagonal pairs at lattice distance d/s
                    weight = n - s if d == 0 else n if 2 * d == s else 2 * n
                    logs.append(weight / (s * (n - 1)) * math.log(_lattice_kernel(d, s)))
            geo = math.exp(math.fsum(logs))
            value = C + (1 / n) * diag + ((n - 1) / n) * b**p * geo
    except OverflowError:  # a float power or exp raises where products give inf
        value = math.inf
    if not math.isfinite(value):
        raise DomainError(f"lb1 overflows a float at p={p}, q={q}")
    return value


def lb_symmetric(n: int, p: int, q: int, s1: int, s2: int) -> float:
    """Kernel-sum bound for symmetric specs: p factors at s1 levels, q at s2.

    Written out directly (odd/even branch on s2) rather than delegating to
    lb1, so the two can cross-check each other.
    """
    _require_int("lb_symmetric argument", n, p, q, s1, s2)
    if n < 1 or p < 0 or q < 0 or p + q < 1 or s1 < 1 or s2 < 1:
        raise DomainError("lb_symmetric needs n >= 1, s1, s2 >= 1 and at least one factor")
    DesignSpec(n, p, q, (s1,) * p + (s2,) * q).require_utype_feasible()
    C = -(((5 * s1 + 1) / (4 * s1)) ** p) * (4 / 3) ** q
    if n == 1:
        return C + 1.5 ** (p + q)
    value = 1.25**p * (6 / 5) ** (p * (n - s1) / (s1 * (n - 1)))
    if q > 0:
        value *= (3 / 2) ** (q * (n - s2) / (s2 * (n - 1)))
        if s2 % 2 == 0:
            value *= (5 / 4) ** (n * q / (s2 * (n - 1)))
            top = s2 // 2 - 1
        else:
            top = (s2 - 1) // 2
        for i in range(1, top + 1):
            value *= (1.5 - 2 * i * (2 * s2 - 2 * i) / (4 * s2**2)) ** (
                2 * n * q / (s2 * (n - 1))
            )
    return C + (1 / n) * 1.5 ** (p + q) + ((n - 1) / n) * value


def lb2(n: int, p: int, q: int, s: int) -> float:
    """Balance-pattern lower bound for designs in U(n, s^p 2^q).

    A k1 + k2 column subset has at least r (1 - r / cells) as its
    component, with cells = s^k1 * 2^k2 and r = n mod cells.  Residuals
    are taken in exact integer arithmetic (the moduli outgrow 64 bits
    quickly): each split's r (cells - r) is the integer numerator that
    ``balance._split_sums`` sums over each size's common denominator, and
    ``balance_form`` sums the sizes as integers and rounds once.
    """
    _require_int("lb2 argument", n, p, q, s)
    if n < 1 or p < 0 or q < 0 or p + q < 1 or s < 1:
        raise DomainError("lb2 needs n >= 1, s >= 1 and at least one factor")
    DesignSpec(n, p, q, (s,) * p + (2,) * q).require_utype_feasible()
    return balance_form(n, p, q, s, _residue_sums(n, p, q, s))


def _residue_sums(n: int, p: int, q: int, s: int):
    """lb2's per-size sums; CapacityError past ``LB2_WORK_CAP``, once the first is asked for.

    ``balance_form`` asks only after its constant has not overflowed, so
    a bound that overflows a float is refused as that, however wide.
    """
    work = (p + 1) * (q + 1) * (p + q) ** 2
    if work > LB2_WORK_CAP:
        raise CapacityError(
            f"lb2 at p={p}, q={q} exceeds its cap: (p+1)(q+1)(p+q)^2 = {work} > {LB2_WORK_CAP}"
        )
    yield from _split_sums(p, q, s, 2, lambda cells: n % cells * (cells - n % cells))


@dataclass(frozen=True)
class BoundReport:
    """Combined bound with provenance: which bound supplied the value.

    ``source`` is "max" when both bounds apply and agree to within float
    noise (1e-12 relative); the two are computed by different routes, so
    mathematical ties need not be bitwise ones.
    """

    value: float
    source: str  # "lb1" | "lb2" | "max" (tie between applicable bounds)
    lb1: float
    lb2: float | None


# lb is memoised per spec (DesignSpec is frozen and hashable), since every
# search job asks for it; an error is raised afresh on every call, never cached
@functools.lru_cache(maxsize=256)
def lb(spec: DesignSpec) -> BoundReport:
    """The largest applicable bound with its name; lb2 only for s^p 2^q specs.

    The first named of equal values wins; "max" when another bound agrees
    with the winner to within 1e-12 relative.
    """
    bounds = {"lb1": lb1(spec)}
    shape = _two_type_shape(spec)
    if shape is not None and shape[1] == 2:
        bounds["lb2"] = lb2(spec.n, spec.p, spec.q, shape[0])
    source = max(bounds, key=bounds.get)
    value = bounds[source]
    if sum(abs(value - v) <= 1e-12 * max(1.0, abs(value), abs(v)) for v in bounds.values()) > 1:
        source = "max"
    return BoundReport(value=value, source=source, lb1=bounds["lb1"], lb2=bounds.get("lb2"))


def full_factorial_qqd(spec: DesignSpec) -> float:
    """Squared discrepancy of any repetition of the full factorial (exact rationals).

    The value does not depend on the repetition count: it is the minimum
    over designs whose frequency vector is constant.
    """
    exact = _full_factorial(spec.qualitative_levels, spec.quantitative_levels)
    return _to_float(*exact.as_integer_ratio())
