"""Exact partitioning of the open unit interval by comparison verdicts.

The preference questions this package answers all reduce to classifying a
weight ``a`` in (0, 1) by comparing two values that depend on ``a`` affinely,
with coefficients in the nonstandard ring.  Every per-exponent coefficient of
such a value is an affine rational function of ``a``, so each one changes
sign at most once.  Collecting those finitely many roots as breakpoints
partitions (0, 1) into open cells on which the comparison verdict is
constant; one exact sample per cell plus the breakpoints themselves decide
the whole interval.  No approximation is involved anywhere.

:func:`partition_affine_comparison` needs those samples only in the last
of its three routes.  The first two write the partition down directly, as
the threshold partition of one linear function ``d0 + a*(d1 - d0)`` of the
weight: its only breakpoint is ``d0/(d0 - d1)``, so there are at most three
cells.

1. *Order of standard parts; ring order on standard operands* (the STD and
   NS_PROB regimes).  Taking the standard part is additive and
   multiplicative on finite values, so ``d1`` and ``d0`` are the
   differences of the standard parts of the operands at ``a = 1`` and
   ``a = 0``.  An infinite operand has no standard part and raises
   :class:`~qualutil.errors.InfiniteValue`.
2. *Qualitative order on operands of one sign* (NS_UTIL).  Among values of
   one sign the qualitative order ranks by leading term: order of magnitude
   first, zero being of lower order than any other value, and coefficient
   second.  A mixture of two such values cannot cancel at the smaller of
   their leading exponents, so each side keeps one leading exponent on all
   of (0, 1), and its coefficient there is linear in ``a``.  Sides of
   different order take one label throughout: the larger order is the
   greater among nonnegative values, the lesser among nonpositive ones.
   Sides of one order compare their leading coefficients by the threshold.
3. *Everything else*: the qualitative order on operands of mixed sign and
   the ring order on nonstandard operands (the lexicographic contrast).
   Each sample ``a*at_one + (1 - a)*at_zero`` is built by ``NSReal``
   arithmetic and decided by the order's key (:data:`ORDER_KEYS`), the
   breakpoints being the coefficient roots of both operands and of their
   difference.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Hashable, Iterable, Iterator, TypeVar

from .errors import InvalidParameter
from .nsreal import NSReal, QOrdering, _lead, _ordering, _qkey

__all__ = [
    "AffineValue",
    "RationalInterval",
    "RationalIntervalSet",
    "partition_unit_interval",
    "partition_affine_comparison",
    "compare",
    "ORDER_KEYS",
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
            raise InvalidParameter(f"empty interval ({self.lo}, {self.hi})")

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
        return _midpoint(self.lo, self.hi)

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
    labelled: list[tuple[Fraction, Fraction, bool, K]] = []  # (lo, hi, is_point, label)
    previous = _ZERO
    for p in points:
        labelled.append((previous, p, False, classify(_midpoint(previous, p))))
        labelled.append((p, p, True, classify(p)))
        previous = p
    labelled.append((previous, _ONE, False, classify(_midpoint(previous, _ONE))))

    # Merge each run of equal labels into one interval.
    result: dict[K, list[RationalInterval]] = {}
    run_start = 0
    last = len(labelled) - 1
    for index, (_, hi, is_point, label) in enumerate(labelled):
        if index < last and labelled[index + 1][3] == label:
            continue
        lo, _, lo_point, _ = labelled[run_start]
        result.setdefault(label, []).append(_interval(lo, hi, not lo_point, not is_point))
        run_start = index + 1
    return {label: RationalIntervalSet(tuple(pieces)) for label, pieces in result.items()}


def _midpoint(lo: Fraction, hi: Fraction) -> Fraction:
    """``(lo + hi) / 2``, normalised once."""
    return Fraction(
        lo.numerator * hi.denominator + hi.numerator * lo.denominator,
        2 * lo.denominator * hi.denominator,
    )


_new_interval = object.__new__


def _interval(lo: Fraction, hi: Fraction, lo_open: bool, hi_open: bool) -> RationalInterval:
    """A ``RationalInterval`` whose bounds are known to be nonempty, taken
    without the check."""
    piece = _new_interval(RationalInterval)
    piece.__dict__.update(lo=lo, hi=hi, lo_open=lo_open, hi_open=hi_open)
    return piece


@dataclass(frozen=True)
class AffineValue:
    """The ring-valued function ``a -> a*at_one + (1 - a)*at_zero``."""

    at_one: NSReal
    at_zero: NSReal


def _sign_label(n: int) -> QOrdering:
    """The verdict read off the sign of ``n``."""
    if n > 0:
        return QOrdering.GREATER
    if n < 0:
        return QOrdering.LESS
    return QOrdering.EQUIVALENT


# The sort key of each order :func:`partition_affine_comparison` accepts:
# two values compare as their keys do.
ORDER_KEYS: dict[str, Callable[[NSReal], object]] = {
    "qualitative": _qkey,
    "quantitative": lambda value: value,
    "standard-part": NSReal.standard_part,
}


def compare(left: NSReal, right: NSReal, comparison: str) -> QOrdering:
    """Compare two values by the order named ``comparison``, one of the
    names :func:`partition_affine_comparison` accepts."""
    key = ORDER_KEYS[comparison]
    return _ordering(key(left), key(right))


def partition_affine_comparison(
    left: AffineValue,
    right: AffineValue,
    comparison: str,
) -> dict[QOrdering, RationalIntervalSet]:
    """Classify every weight in (0, 1) by comparing ``left`` to ``right``.

    ``comparison`` names the order (:data:`ORDER_KEYS`): "qualitative" for the
    order that discards relatively infinitesimal gaps, "quantitative" for
    the plain ring order, "standard-part" for comparison after collapsing
    infinitesimals.  One of three routes decides (module docstring):

    1. the order of standard parts, and the ring order on standard
       operands, take the threshold partition of the standard parts; an
       infinite operand raises :class:`~qualutil.errors.InfiniteValue`;
    2. the qualitative order on operands of one sign takes the leading
       terms of both sides: one label throughout when they differ in order
       of magnitude, else the threshold partition of their coefficients;
    3. everything else is sampled by definition, at breakpoints from the
       coefficient roots of both operands and of their difference.
    """
    operands = (left.at_one, left.at_zero, right.at_one, right.at_zero)
    if comparison == "standard-part" or (
        comparison == "quantitative" and all(x.is_standard() for x in operands)
    ):
        return _threshold_partition(*(x.standard_part() for x in operands))
    if comparison == "qualitative":
        signs = {x.sign() for x in operands}
        if not {1, -1} <= signs:
            left_exponent, l1, l0 = _leading_row(left)
            right_exponent, r1, r0 = _leading_row(right)
            if left_exponent == right_exponent:
                return _threshold_partition(l1, l0, r1, r0)
            # The larger order of magnitude is the greater among nonnegative
            # values and the lesser among nonpositive ones.
            larger = QOrdering.LESS if -1 in signs else QOrdering.GREATER
            return {larger if left_exponent < right_exponent else larger.flipped(): _WHOLE}

    difference = AffineValue(left.at_one - right.at_one, left.at_zero - right.at_zero)
    breakpoints = {t for value in (left, right, difference) for t in _coefficient_roots(value)}

    def classify(a: Fraction) -> QOrdering:
        b = 1 - a
        return compare(
            a * left.at_one + b * left.at_zero, a * right.at_one + b * right.at_zero, comparison
        )

    return partition_unit_interval(breakpoints, classify)


_WHOLE = RationalIntervalSet((_interval(_ZERO, _ONE, True, True),))


def _threshold_partition(
    x1: Fraction, x0: Fraction, y1: Fraction, y0: Fraction
) -> dict[QOrdering, RationalIntervalSet]:
    """The partition of ``a*x1 + (1-a)*x0`` against ``a*y1 + (1-a)*y0`` in
    the order of the rationals, for the standard parts of four operands or
    the leading coefficients of two sides of one order: the sign of ``d0 + a*(d1 - d0)``, which
    crosses zero inside (0, 1) exactly when ``d0`` and ``d1`` have opposite
    signs, at ``d0/(d0 - d1)``; otherwise it is the sign of ``d0 + d1``
    throughout.  Labels are keyed in increasing order of weight.

    Each difference is held as an unreduced ``n/m`` with ``m > 0``, so the
    threshold is the only ``Fraction`` built."""
    n1 = x1.numerator * y1.denominator - y1.numerator * x1.denominator
    n0 = x0.numerator * y0.denominator - y0.numerator * x0.denominator
    if (n0 > 0 > n1) or (n0 < 0 < n1):
        m1 = x1.denominator * y1.denominator
        m0 = x0.denominator * y0.denominator
        t = Fraction(n0 * m1, n0 * m1 - n1 * m0)
        return {
            _sign_label(n0): RationalIntervalSet((_interval(_ZERO, t, True, True),)),
            QOrdering.EQUIVALENT: RationalIntervalSet((_interval(t, t, False, False),)),
            _sign_label(n1): RationalIntervalSet((_interval(t, _ONE, True, True),)),
        }
    return {_sign_label(n0 + n1): _WHOLE}


def _leading_row(value: AffineValue) -> tuple[float, Fraction, Fraction]:
    """The leading exponent of ``value`` on (0, 1), the smaller of its two
    endpoints' (``inf`` for zero), and that exponent's coefficients at
    ``a = 1`` and ``a = 0``; an endpoint that does not lead there has none."""
    e1, c1 = _lead(value.at_one)
    e0, c0 = _lead(value.at_zero)
    if e1 < e0:
        return e1, c1, _ZERO
    if e0 < e1:
        return e0, _ZERO, c0
    return e0, c1, c0


def _coefficient_roots(value: AffineValue) -> Iterator[Fraction]:
    """The weights at which a coefficient of ``value`` vanishes: ``c0/(c0 -
    c1)`` for each exponent whose coefficients at ``a = 1`` and ``a = 0``
    differ; those outside (0, 1) are left for the caller to drop."""
    one, zero = dict(value.at_one.terms), dict(value.at_zero.terms)
    for e in one.keys() | zero.keys():
        c1, c0 = one.get(e, _ZERO), zero.get(e, _ZERO)
        if c1 != c0:
            yield c0 / (c0 - c1)
