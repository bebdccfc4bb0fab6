"""Analytic lower bounds on the squared discrepancy of U-type designs.

Two bounds are implemented.  The kernel-sum bound (lb1) applies to any
U-type spec: over all designs with balanced columns, the multiset of
off-diagonal pair products is fixed, so by the arithmetic-geometric mean
inequality the pair sum is minimized when all products equal their
geometric mean.  The balance-pattern bound (lb2) applies to specs of the
form s^p 2^q: it bounds each balance component by the residue of n modulo
the cell count and passes those bounds to ``balance.balance_form``.
``lb`` reports the larger applicable bound with its provenance.

The kernel (the weights a and b, the constant term and the wrap-around
values at lattice distances) comes from ``discrepancy`` and
``DEFAULT_CONFIG``.  ``lb_symmetric`` alone writes its constants out, so
that it stays an independent check on ``lb1``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .balance import balance_form
from .discrepancy import _constant_term, _lattice_kernel, _qualitative_head
from .errors import DomainError
from .model import DEFAULT_CONFIG, DesignSpec


def lb1(spec: DesignSpec) -> float:
    """Kernel-sum lower bound for any U-type-feasible spec.

    Evaluated in the log domain: the bound multiplies ~s_k fractional
    powers per factor and plain products lose precision multiplicatively.
    """
    spec.require_utype_feasible()
    n, p, q = spec.n, spec.p, spec.q
    a, b = DEFAULT_CONFIG.a, DEFAULT_CONFIG.b
    C = _constant_term(spec.qualitative_levels, q, a, b)
    # a row paired with itself: weight a per qualitative factor, the
    # wrap-around kernel at distance 0 per quantitative one
    diag = a**p * _lattice_kernel(0, 1) ** q
    if n == 1:
        # single-point design: the double sum is the lone diagonal term
        return C + diag
    logs = [(n - s) / (s * (n - 1)) * math.log(a / b) for s in spec.qualitative_levels]
    for s in spec.quantitative_levels:
        for d in range(s // 2 + 1):
            # s times the share of off-diagonal pairs at lattice distance d/s
            weight = n - s if d == 0 else n if 2 * d == s else 2 * n
            logs.append(weight / (s * (n - 1)) * math.log(_lattice_kernel(d, s)))
    geo = math.exp(math.fsum(logs))
    return C + (1 / n) * diag + ((n - 1) / n) * b**p * geo


def lb_symmetric(n: int, p: int, q: int, s1: int, s2: int) -> float:
    """Kernel-sum bound for symmetric specs: p factors at s1 levels, q at s2.

    Written out directly (odd/even branch on s2) rather than delegating to
    lb1, so the two can cross-check each other.
    """
    if p > 0 and n % s1 != 0:
        raise DomainError(f"not U-type feasible: {s1} does not divide n={n}")
    if q > 0 and n % s2 != 0:
        raise DomainError(f"not U-type feasible: {s2} does not divide n={n}")
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
    quickly) and ``balance_form`` rounds the exact value once.
    """
    if n < 1 or p < 0 or q < 0 or p + q < 1 or s < 1:
        raise DomainError("lb2 needs n >= 1, s >= 1 and at least one factor")
    sums = []
    for k in range(1, p + q + 1):
        inner = Fraction(0)
        for k1 in range(max(0, k - q), min(p, k) + 1):
            k2 = k - k1
            cells = s**k1 * 2**k2
            r = n % cells
            inner += (
                math.comb(p, k1)
                * math.comb(q, k2)
                * Fraction(r)
                * (1 - Fraction(r, cells))
            )
        sums.append(inner)
    return balance_form(n, p, q, s, sums)


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


def _lb2_shape(spec: DesignSpec) -> int | None:
    """The common qualitative level count when the spec matches s^p 2^q, else None."""
    if any(s != 2 for s in spec.quantitative_levels):
        return None
    qual = set(spec.qualitative_levels)
    if len(qual) > 1:
        return None
    return qual.pop() if qual else 2


def lb(spec: DesignSpec) -> BoundReport:
    """max(lb1, lb2) with a tag naming the winner; lb2 only for s^p 2^q specs."""
    v1 = lb1(spec)
    s = _lb2_shape(spec)
    if s is None:
        return BoundReport(value=v1, source="lb1", lb1=v1, lb2=None)
    v2 = lb2(spec.n, spec.p, spec.q, s)
    if abs(v1 - v2) <= 1e-12 * max(1.0, abs(v1), abs(v2)):
        return BoundReport(value=max(v1, v2), source="max", lb1=v1, lb2=v2)
    if v1 > v2:
        return BoundReport(value=v1, source="lb1", lb1=v1, lb2=v2)
    return BoundReport(value=v2, source="lb2", lb1=v1, lb2=v2)


def full_factorial_qqd(spec: DesignSpec) -> float:
    """Squared discrepancy of any repetition of the full factorial (exact rationals).

    The value does not depend on the repetition count: it is the minimum
    over designs whose frequency vector is constant.
    """
    head = _qualitative_head(
        spec.qualitative_levels, Fraction(DEFAULT_CONFIG.a), Fraction(DEFAULT_CONFIG.b)
    )
    tail = math.prod(
        Fraction(4, 3) + Fraction(1, 6 * s * s) for s in spec.quantitative_levels
    )
    return float(-head * Fraction(4, 3) ** spec.q + head * tail)
