"""Analytic lower bounds on the squared discrepancy of U-type designs.

Two bounds are implemented.  The kernel-sum bound (lb1) applies to any
U-type spec: over all designs with balanced columns, the multiset of
off-diagonal pair products is fixed, so by the arithmetic-geometric mean
inequality the pair sum is minimized when all products equal their
geometric mean.  The balance-pattern bound (lb2) applies to specs of the
form s^p 2^q and bounds each balance component by the residue of n modulo
the cell count.  ``lb`` reports the larger applicable bound with its
provenance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError
from .model import DesignSpec


def lb1(spec: DesignSpec) -> float:
    """Kernel-sum lower bound for any U-type-feasible spec.

    Evaluated in the log domain: the bound multiplies ~s_k fractional
    powers per factor and plain products lose precision multiplicatively.
    """
    spec.require_utype_feasible()
    n, p, q = spec.n, spec.p, spec.q
    C = -math.prod((5 * s + 1) / (4 * s) for s in spec.qualitative_levels) * (4 / 3) ** q
    if n == 1:
        # single-point design: the double sum is the lone diagonal term
        return C + 1.5 ** (p + q)
    logs = []
    for s in spec.qualitative_levels:
        logs.append((n - s) / (s * (n - 1)) * math.log(6 / 5))
    for s in spec.quantitative_levels:
        logs.append((n - s) / (s * (n - 1)) * math.log(3 / 2))
        if s % 2 == 0:
            # antipodal lattice distance 1/2 appears n^2/s times
            logs.append(n / (s * (n - 1)) * math.log(5 / 4))
            top = s // 2 - 1
        else:
            top = (s - 1) // 2
        for i in range(1, top + 1):
            logs.append(
                2 * n / (s * (n - 1)) * math.log(1.5 - i * (s - i) / s**2)
            )
    geo = math.exp(math.fsum(logs))
    return C + (1 / n) * 1.5 ** (p + q) + ((n - 1) / n) * 1.25**p * geo


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

    Residuals r = n mod (s^k1 * 2^k2) are taken in exact integer
    arithmetic (the moduli outgrow 64 bits quickly); the value is
    assembled as an exact rational and rounded once.
    """
    if n < 1 or p < 0 or q < 0 or p + q < 1 or s < 1:
        raise DomainError("lb2 needs n >= 1, s >= 1 and at least one factor")
    head = Fraction(5 * s + 1, 4 * s) ** p
    const = -head * Fraction(4, 3) ** q + head * Fraction(11, 8) ** q
    acc = Fraction(0)
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
        acc += Fraction(1, 5**k) * inner
    return float(const + Fraction(1, n**2) * Fraction(5, 4) ** (p + q) * acc)


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

    @property
    def lb2_applicable(self) -> bool:
        return self.lb2 is not None


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
    head = math.prod(Fraction(5 * s + 1, 4 * s) for s in spec.qualitative_levels)
    tail = math.prod(
        Fraction(4, 3) + Fraction(1, 6 * s * s) for s in spec.quantitative_levels
    )
    return float(-head * Fraction(4, 3) ** spec.q + head * tail)
