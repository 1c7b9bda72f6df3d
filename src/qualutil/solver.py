"""Exact partitioning of the open unit interval by comparison verdicts.

The preference questions this package answers all reduce to classifying a
weight ``a`` in (0, 1) by comparing two values that depend on ``a`` affinely,
with coefficients in the nonstandard ring.  Every per-exponent coefficient of
such a value is an affine rational function of ``a``, so each one changes
sign at most once.  Collecting those finitely many roots as breakpoints
partitions (0, 1) into open cells on which the comparison verdict is
constant; one exact sample per cell plus the breakpoints themselves decide
the whole interval.  No approximation is involved anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Hashable, Iterable, TypeVar

from .nsreal import NSReal, QOrdering, qcompare

__all__ = [
    "AffineValue",
    "RationalInterval",
    "RationalIntervalSet",
    "partition_unit_interval",
    "partition_affine_comparison",
    "compare",
]

K = TypeVar("K", bound=Hashable)

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class RationalInterval:
    """A nonempty subinterval of (0, 1) with rational endpoints."""

    lo: Fraction
    hi: Fraction
    lo_open: bool
    hi_open: bool

    def __post_init__(self) -> None:
        if self.lo > self.hi or (self.lo == self.hi and (self.lo_open or self.hi_open)):
            raise ValueError(f"empty interval ({self.lo}, {self.hi})")

    def is_point(self) -> bool:
        return self.lo == self.hi

    def contains(self, value: Fraction) -> bool:
        if value < self.lo or value > self.hi:
            return False
        if value == self.lo and self.lo_open:
            return False
        if value == self.hi and self.hi_open:
            return False
        return True

    def witness(self) -> Fraction:
        """Some element of the interval; the midpoint unless degenerate."""
        if self.is_point():
            return self.lo
        return (self.lo + self.hi) / 2

    def render(self) -> str:
        if self.is_point():
            return f"{{{self.lo}}}"
        left = "(" if self.lo_open else "["
        right = ")" if self.hi_open else "]"
        return f"{left}{self.lo}, {self.hi}{right}"


@dataclass(frozen=True)
class RationalIntervalSet:
    """A finite union of disjoint intervals inside (0, 1), sorted ascending."""

    intervals: tuple[RationalInterval, ...] = ()

    @property
    def is_empty(self) -> bool:
        return not self.intervals

    def contains(self, value: Fraction) -> bool:
        return any(piece.contains(value) for piece in self.intervals)

    def witness(self) -> Fraction | None:
        """An element of the set, or None when empty."""
        if not self.intervals:
            return None
        return self.intervals[0].witness()

    def is_entire_unit_interval(self) -> bool:
        return (
            len(self.intervals) == 1
            and self.intervals[0].lo == _ZERO
            and self.intervals[0].hi == _ONE
            and self.intervals[0].lo_open
            and self.intervals[0].hi_open
        )

    def complement_witness(self) -> Fraction | None:
        """An element of (0, 1) outside the set, or None if the set is all
        of (0, 1).  Used to certify failures of universally quantified
        mixture statements."""
        if self.is_empty:
            return Fraction(1, 2)
        cursor = _ZERO          # supremum of the region settled so far
        cursor_covered = True   # 0 itself lies outside the open domain
        for piece in self.intervals:
            if piece.lo > cursor:
                return (cursor + piece.lo) / 2
            if not cursor_covered and piece.lo_open and cursor > _ZERO:
                # Two open pieces meeting at a single excluded point.
                return cursor
            cursor = piece.hi
            cursor_covered = not piece.hi_open
        if cursor < _ONE:
            return (cursor + _ONE) / 2
        return None

    def render(self) -> str:
        if not self.intervals:
            return "{}"
        return " u ".join(piece.render() for piece in self.intervals)


def partition_unit_interval(
    breakpoints: Iterable[Fraction],
    classify: Callable[[Fraction], K],
) -> dict[K, RationalIntervalSet]:
    """Split (0, 1) at ``breakpoints`` and label every piece by ``classify``.

    ``classify`` must be constant on each open cell between consecutive
    breakpoints; it is sampled once per cell (at the exact rational
    midpoint) and once per breakpoint.  Returns, for every label that
    occurs, the maximal merged interval set carrying it.
    """
    points = sorted({p for p in breakpoints if _ZERO < p < _ONE})
    # Alternating walk: open cell, breakpoint, open cell, ...
    segments: list[tuple[Fraction, Fraction, bool]] = []  # (lo, hi, is_point)
    previous = _ZERO
    for p in points:
        segments.append((previous, p, False))
        segments.append((p, p, True))
        previous = p
    segments.append((previous, _ONE, False))

    labelled: list[tuple[Fraction, Fraction, bool, K]] = []
    for lo, hi, is_point in segments:
        sample = lo if is_point else (lo + hi) / 2
        labelled.append((lo, hi, is_point, classify(sample)))

    result: dict[K, list[RationalInterval]] = {}
    index = 0
    while index < len(labelled):
        lo, hi, is_point, label = labelled[index]
        run_end = index
        while run_end + 1 < len(labelled) and labelled[run_end + 1][3] == label:
            run_end += 1
        last_lo, last_hi, last_point, _ = labelled[run_end]
        interval = RationalInterval(
            lo=lo,
            hi=last_hi,
            lo_open=not is_point,
            hi_open=not last_point,
        )
        result.setdefault(label, []).append(interval)
        index = run_end + 1
    return {label: RationalIntervalSet(tuple(pieces)) for label, pieces in result.items()}


@dataclass(frozen=True)
class AffineValue:
    """The ring-valued function ``a -> a*at_one + (1 - a)*at_zero``."""

    at_one: NSReal
    at_zero: NSReal

    def value_at(self, a: Fraction) -> NSReal:
        return a * self.at_one + (1 - a) * self.at_zero

    def coefficient_roots(self) -> set[Fraction]:
        """Weights in (0, 1) where some per-exponent coefficient vanishes.

        The coefficient at exponent e is ``a*x_e + (1 - a)*y_e``, affine in
        ``a``; it has a root only when x_e differs from y_e.
        """
        exponents = {e for e, _ in self.at_one.terms} | {e for e, _ in self.at_zero.terms}
        x = dict(self.at_one.terms)
        y = dict(self.at_zero.terms)
        roots: set[Fraction] = set()
        for e in exponents:
            xe = x.get(e, _ZERO)
            ye = y.get(e, _ZERO)
            if xe != ye:
                root = ye / (ye - xe)
                if _ZERO < root < _ONE:
                    roots.add(root)
        return roots


def _quantitative(left: NSReal, right: NSReal) -> QOrdering:
    s = left._compare_sign(right)
    if s > 0:
        return QOrdering.GREATER
    if s < 0:
        return QOrdering.LESS
    return QOrdering.EQUIVALENT


def _standard_part_compare(left: NSReal, right: NSReal) -> QOrdering:
    lhs = left.standard_part()
    rhs = right.standard_part()
    if lhs > rhs:
        return QOrdering.GREATER
    if lhs < rhs:
        return QOrdering.LESS
    return QOrdering.EQUIVALENT


_COMPARATORS: dict[str, Callable[[NSReal, NSReal], QOrdering]] = {
    "qualitative": qcompare,
    "quantitative": _quantitative,
    "standard-part": _standard_part_compare,
}


def compare(left: NSReal, right: NSReal, comparison: str) -> QOrdering:
    """Compare two values by the order named ``comparison``, one of the
    names :func:`partition_affine_comparison` accepts."""
    return _COMPARATORS[comparison](left, right)


def partition_affine_comparison(
    left: AffineValue,
    right: AffineValue,
    comparison: str,
) -> dict[QOrdering, RationalIntervalSet]:
    """Classify every weight in (0, 1) by comparing ``left`` to ``right``.

    ``comparison`` selects the verdict function: "qualitative" for the
    order that discards relatively infinitesimal gaps, "quantitative" for
    the plain ring order, "standard-part" for comparison after collapsing
    infinitesimals.  Breakpoints come from the coefficient roots of both
    operands and of their difference, which is enough for the verdict to be
    constant on every open cell regardless of operand signs.
    """
    comparator = _COMPARATORS[comparison]
    difference = AffineValue(left.at_one - right.at_one, left.at_zero - right.at_zero)
    breakpoints = (
        difference.coefficient_roots()
        | left.coefficient_roots()
        | right.coefficient_roots()
    )

    def classify(a: Fraction) -> QOrdering:
        return comparator(left.value_at(a), right.value_at(a))

    return partition_unit_interval(breakpoints, classify)
