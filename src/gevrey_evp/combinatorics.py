"""Exact rational arithmetic for falling-factorial and multiindex identities.

Everything in this module is exact: values are ``fractions.Fraction`` or
``int``, never floats.  The one exception is :func:`square_domination_check`,
which evaluates closed-form derivatives in floating point because its claims
are about real-valued functions.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

__all__ = [
    "Multiindex",
    "ff_half",
    "factorial_ratio",
    "binomial_ff_sum",
    "vandermonde_slice",
    "ff_convolution_bound",
    "ff_double_convolution_bound",
    "square_domination_check",
    "identity_checks",
    "SUPPORT_CAP",
]

# Enumeration over all m <= nu is exponential in the support size; cap it.
SUPPORT_CAP = 8


class Multiindex:
    """Finitely supported sequence of nonnegative integer exponents.

    Entries are keyed by 1-based dimension index; zero entries are never
    stored.  Supports the componentwise partial order, subtraction of a
    smaller index, and exact multiindex binomial coefficients.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries: Iterable[int] | dict[int, int] = ()):
        if isinstance(entries, dict):
            items = entries.items()
        else:
            items = enumerate(entries, start=1)
        cleaned = {}
        for j, v in items:
            j = int(j)
            v = int(v)
            if j < 1:
                raise ValueError(f"dimension index must be >= 1, got {j}")
            if v < 0:
                raise ValueError(f"exponent must be >= 0, got {v}")
            if v:
                cleaned[j] = v
        self._entries = dict(sorted(cleaned.items()))
        if len(self._entries) > SUPPORT_CAP:
            raise ValueError(
                f"support size {len(self._entries)} exceeds cap {SUPPORT_CAP}"
            )

    @property
    def entries(self) -> dict[int, int]:
        return dict(self._entries)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(self._entries)

    def order(self) -> int:
        """Total order |nu| = sum of exponents."""
        return sum(self._entries.values())

    def __getitem__(self, j: int) -> int:
        return self._entries.get(j, 0)

    def __eq__(self, other) -> bool:
        return isinstance(other, Multiindex) and self._entries == other._entries

    def __hash__(self) -> int:
        return hash(tuple(self._entries.items()))

    def __le__(self, other: "Multiindex") -> bool:
        return all(v <= other[j] for j, v in self._entries.items())

    def __lt__(self, other: "Multiindex") -> bool:
        return self <= other and self != other

    def __sub__(self, other: "Multiindex") -> "Multiindex":
        if not other <= self:
            raise ValueError("can only subtract a componentwise smaller multiindex")
        return Multiindex({j: self[j] - other[j] for j in self._entries})

    def binom(self, m: "Multiindex") -> int:
        """Multiindex binomial coefficient C(self, m), exact integer."""
        if not m <= self:
            raise ValueError("binomial coefficient requires m <= nu")
        out = 1
        for j, mj in m._entries.items():
            out *= math.comb(self[j], mj)
        return out

    def submultiindices(self) -> Iterator["Multiindex"]:
        """All m with 0 <= m <= self, by odometer enumeration over the support."""
        dims = self.support
        ranges = [range(self[j] + 1) for j in dims]
        for combo in itertools.product(*ranges):
            yield Multiindex(dict(zip(dims, combo)))

    def slice(self, r: int) -> Iterator["Multiindex"]:
        """All m <= self with |m| = r."""
        for m in self.submultiindices():
            if m.order() == r:
                yield m

    def __repr__(self) -> str:
        return f"Multiindex({self._entries})"


def ff_half(n: int) -> Fraction:
    """Absolute value of the falling factorial (1/2)(1/2-1)...(1/2-n+1).

    Exact: the value is (product of odd integers)/2^n.  Returns 1 for n = 0.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    num = 1
    for k in range(n):
        num *= abs(1 - 2 * k)
    return Fraction(num, 2**n)


def factorial_ratio(n: int) -> Fraction:
    """Exact ratio n! / ff_half(n); lies in [1, 2*2^n]."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return Fraction(math.factorial(n)) / ff_half(n)


_VARIANT_RANGES = {
    "inner": lambda n: range(1, n),
    "mid": lambda n: range(1, n + 1),
    "full": lambda n: range(0, n + 1),
}


def binomial_ff_sum(n: int, variant: str = "inner") -> Fraction:
    """Exact sum of binom(n,i) * ff_half(i) * ff_half(n-i) over a range of i.

    ``variant`` selects the summation range: "inner" is i = 1..n-1,
    "mid" is i = 1..n, "full" is i = 0..n.  For n >= 2 the three sums
    equal 2, 3 and 4 times ff_half(n) respectively; for n in {0, 1} the
    empty/partial sums fall below those multiples.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    try:
        rng = _VARIANT_RANGES[variant](n)
    except KeyError:
        raise ValueError(f"unknown variant {variant!r}") from None
    total = Fraction(0)
    for i in rng:
        total += math.comb(n, i) * ff_half(i) * ff_half(n - i)
    return total


def vandermonde_slice(nu: Multiindex, r: int) -> int:
    """Sum of binom(nu, m) over all m <= nu with |m| = r.

    Equals binom(|nu|, r) (Vandermonde convolution); the equality is
    asserted before returning.
    """
    order = nu.order()
    if not 0 <= r <= order:
        raise ValueError(f"need 0 <= r <= |nu| = {order}, got r = {r}")
    total = sum(nu.binom(m) for m in nu.slice(r))
    expected = math.comb(order, r)
    if total != expected:
        raise AssertionError(
            f"slice sum {total} != binom({order},{r}) = {expected} for {nu}"
        )
    return total


def ff_convolution_bound(nu: Multiindex) -> tuple[Fraction, Fraction, bool]:
    """Single-convolution falling-factorial bound over 0 < m <= nu.

    Returns (lhs, rhs, equal) with
    lhs = sum over 0 < m <= nu of binom(nu,m) ff_half(|nu-m|) ff_half(|m|)
    and rhs = 3 ff_half(|nu|).  lhs <= rhs always, with equality exactly
    when |nu| >= 2.
    """
    lhs = Fraction(0)
    for m in nu.submultiindices():
        if m.order() == 0:
            continue
        lhs += nu.binom(m) * ff_half((nu - m).order()) * ff_half(m.order())
    rhs = 3 * ff_half(nu.order())
    return lhs, rhs, lhs == rhs


def ff_double_convolution_bound(nu: Multiindex) -> tuple[Fraction, Fraction]:
    """Double-convolution falling-factorial bound over 0 < m < nu, 0 <= l <= m.

    Returns (lhs, rhs) with
    lhs = sum binom(nu,m) binom(m,l) ff_half(|nu-m|) ff_half(|m-l|) ff_half(|l|)
    and rhs = 8 ff_half(|nu|); lhs <= rhs.
    """
    lhs = Fraction(0)
    for m in nu.submultiindices():
        if m.order() == 0 or m == nu:
            continue
        cm = nu.binom(m)
        ff_outer = ff_half((nu - m).order())
        for ell in m.submultiindices():
            lhs += (
                cm
                * m.binom(ell)
                * ff_outer
                * ff_half((m - ell).order())
                * ff_half(ell.order())
            )
    rhs = 8 * ff_half(nu.order())
    return lhs, rhs


@dataclass
class DominationReport:
    """Result of the square-of-series derivative domination check."""

    max_ratio: float          # max over (n, y) of |g^(n)| / |f^(n)|
    max_equality_defect: float  # worst relative defect of the n >= 2 equality
    ok: bool


def _f_derivative(n: int, y: float) -> float:
    """n-th derivative of f(y) = (1 - sqrt(1-y))/2, closed form."""
    if n == 0:
        return 0.5 * (1.0 - math.sqrt(1.0 - y))
    return 0.5 * float(ff_half(n)) * (1.0 - y) ** (0.5 - n)


def _g_derivative(n: int, y: float) -> float:
    """n-th derivative of g = f^2 via the closed form g(y) = f(y) - y/4."""
    if n == 0:
        return _f_derivative(0, y) - y / 4.0
    if n == 1:
        return _f_derivative(1, y) - 0.25
    return _f_derivative(n, y)


def square_domination_check(n_max: int, y_grid: Iterable[float]) -> DominationReport:
    """Check |g^(n)(y)| <= |f^(n)(y)| for g = f^2, f(y) = (1-sqrt(1-y))/2.

    Derivatives are evaluated in closed form (no differencing).  The bound
    must hold for all n <= n_max on the grid, with equality (within 1e-12
    relative) for n >= 2.  Grid points must lie in [-3, 1).
    """
    tol = 1e-12
    grid = tuple(float(y) for y in y_grid)
    for y in grid:
        if y >= 1.0 or y < -3.0:
            raise ValueError(f"grid point {y} outside [-3, 1)")
    max_ratio = 0.0
    max_defect = 0.0
    ok = True
    for y in grid:
        for n in range(n_max + 1):
            fd = abs(_f_derivative(n, y))
            gd = abs(_g_derivative(n, y))
            if fd == 0.0:
                if gd != 0.0:
                    ok = False
                continue
            ratio = gd / fd
            max_ratio = max(max_ratio, ratio)
            if ratio > 1.0 + tol:
                ok = False
            if n >= 2:
                defect = abs(gd - fd) / fd
                max_defect = max(max_defect, defect)
                if defect > tol:
                    ok = False
    return DominationReport(max_ratio, max_defect, ok)


def identity_checks(n_max: int, nu_max: int) -> list[tuple[str, bool]]:
    """Every identity and bound of this module as (label, ok) rows, for
    n <= n_max and |nu| <= nu_max; a Vandermonde mismatch raises.  The rows
    of ``gevrey-evp checks combinatorics`` and of acceptance criterion 1.
    """
    rows: list[tuple[str, bool]] = []

    ok = True
    for n in range(0, n_max + 1):
        ratio = factorial_ratio(n)
        ok &= ff_half(n) * ratio == Fraction(math.factorial(n))
        ok &= 1 <= ratio <= 2 * 2**n
    rows.append((f"n! = ratio * ff_half(n), bounds, n <= {n_max}", ok))

    ok = True
    for n in range(0, n_max + 1):
        for variant, mult in (("inner", 2), ("mid", 3), ("full", 4)):
            total, bound = binomial_ff_sum(n, variant), mult * ff_half(n)
            ok &= (total == bound) if n >= 2 else (total <= bound)
    rows.append((f"binomial ff sums equal {{2,3,4}} ff_half, n = 2..{n_max}", ok))

    # Multiindex drops zero entries, so the parts tuples of the longest
    # length alone enumerate every multiindex of that dimension or less once
    ok = True
    eq_ok = True
    for parts in itertools.product(range(nu_max + 1), repeat=4):
        total = sum(parts)
        if total > nu_max:
            continue
        nu = Multiindex(parts)
        for r in range(total + 1):
            vandermonde_slice(nu, r)  # raises on mismatch
        lhs, rhs, equal = ff_convolution_bound(nu)
        ok &= lhs <= rhs
        eq_ok &= equal == (total >= 2)
    rows.append((f"slice sums match binomials, |nu| <= {nu_max}, dim <= 4", ok))
    rows.append(("convolution bound equality iff |nu| >= 2", eq_ok))

    ok = True
    for parts in itertools.product(range(4), repeat=3):
        if sum(parts) == 0 or sum(parts) > 6:
            continue
        lhs, rhs = ff_double_convolution_bound(Multiindex(parts))
        ok &= lhs <= rhs
    rows.append(("double convolution bound <= 8 ff_half", ok))

    report = square_domination_check(12, [-2.5, -1.0, 0.0, 0.5, 0.9])
    rows.append(("square of sqrt-series is derivative-dominated", report.ok))
    return rows
