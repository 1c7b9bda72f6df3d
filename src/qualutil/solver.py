"""Exact partitioning of the open unit interval by comparison verdicts.

The preference questions this package answers all reduce to classifying a
weight ``a`` in (0, 1) by comparing two values that depend on ``a`` affinely,
with coefficients in the nonstandard ring.  Every per-exponent coefficient of
such a value is an affine rational function of ``a``, so each one changes
sign at most once.  Collecting those finitely many roots as breakpoints
partitions (0, 1) into open cells on which the comparison verdict is
constant; one exact sample per cell plus the breakpoints themselves decide
the whole interval.  No approximation is involved anywhere.

:func:`partition_affine_comparison` reads the two operands once into
coefficient rows: for each exponent ``e`` of either operand, ``(e, slope,
base)``, the coefficient at weight ``a`` being ``base + a*slope``.  The rows
give every breakpoint in the same pass: the roots ``-base/slope`` in (0, 1)
of the left rows, of the right rows and of their difference, row by row.  A
sample is built from the rows with one multiply-add per exponent, already
in canonical order; a right operand that does not depend on ``a`` (the
solvability chains, :func:`~qualutil.auditor.solve_mixture_relation`,
property P) is taken as it is.  Each sample is then decided by the single
comparator of the requested order: :func:`~qualutil.nsreal.qcompare`, the
ring order, or the order of standard parts.

Two orders need no samples.  Under the order of standard parts, on finite
operands, and under the ring order, on standard operands, the verdict at
``a`` is the sign of one linear function ``d0 + a*(d1 - d0)``, where ``d1``
and ``d0`` are the differences of the (standard parts of the) operands at
``a = 1`` and ``a = 0``: taking the standard part is additive and
multiplicative on finite values.  Its only breakpoint is the threshold
``d0/(d0 - d1)``, so the partition is written down directly, with at most
three cells.  These are the comparisons of the STD and NS_PROB regimes.
The qualitative order (NS_UTIL) is not linear, and the ring order on
nonstandard operands (the lexicographic contrast) is lexicographic in the
exponents; both are sampled from the rows.  An infinite operand under the
order of standard parts goes to the rows as well, whose first sample
raises :class:`~qualutil.errors.InfiniteValue`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Hashable, Iterable, TypeVar

from .errors import InvalidParameter
from .nsreal import NSReal, QOrdering, _wrap, qcompare

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


def _quantitative(left: NSReal, right: NSReal) -> QOrdering:
    return _sign_label(left._compare_sign(right))


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
    constant on every open cell regardless of operand signs.  Both operands
    are read once into coefficient rows (module docstring); every sample is
    built from the rows and decided by the same comparator.  The standard-part
    order on finite operands and the quantitative order on standard ones
    take the threshold partition instead (module docstring).
    """
    operands = (left.at_one, left.at_zero, right.at_one, right.at_zero)
    if (comparison == "standard-part" and all(x.is_finite() for x in operands)) or (
        comparison == "quantitative" and all(x.is_standard() for x in operands)
    ):
        return _threshold_partition(*(x.standard_part() for x in operands))
    comparator = _COMPARATORS[comparison]
    x1, x0 = dict(left.at_one.terms), dict(left.at_zero.terms)
    y1, y0 = dict(right.at_one.terms), dict(right.at_zero.terms)
    left_rows: list[_Row] = []
    right_rows: list[_Row] = []
    breakpoints: set[Fraction] = set()
    for e in sorted(x1.keys() | x0.keys() | y1.keys() | y0.keys()):
        left_slope, left_base = _slope_base(x1.get(e), x0.get(e))
        right_slope, right_base = _slope_base(y1.get(e), y0.get(e))
        if left_slope or left_base:
            left_rows.append((e, left_slope, left_base))
            _add_root(breakpoints, left_slope, left_base)
        if right_slope or right_base:
            right_rows.append((e, right_slope, right_base))
            _add_root(breakpoints, right_slope, right_base)
        _add_root(
            breakpoints, _minus(left_slope, right_slope), _minus(left_base, right_base)
        )

    if right.at_one == right.at_zero:
        target = right.at_zero

        def classify(a: Fraction) -> QOrdering:
            return comparator(_value_at(left_rows, a), target)

    else:

        def classify(a: Fraction) -> QOrdering:
            return comparator(_value_at(left_rows, a), _value_at(right_rows, a))

    return partition_unit_interval(breakpoints, classify)


_WHOLE = RationalIntervalSet((_interval(_ZERO, _ONE, True, True),))


def _threshold_partition(
    x1: Fraction, x0: Fraction, y1: Fraction, y0: Fraction
) -> dict[QOrdering, RationalIntervalSet]:
    """The partition of ``a*x1 + (1-a)*x0`` against ``a*y1 + (1-a)*y0`` in
    the order of the rationals: the sign of ``d0 + a*(d1 - d0)``, which
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


# One exponent of an affine value: (e, slope, base), the coefficient at
# weight a being base + a*slope.
_Row = tuple[int, Fraction, Fraction]


def _slope_base(one: Fraction | None, zero: Fraction | None) -> tuple[Fraction, Fraction]:
    """``(slope, base)`` of the coefficient ``a*one + (1 - a)*zero``; None
    stands for an absent term."""
    if zero is None:
        return (_ZERO if one is None else one), _ZERO
    if one is None:
        return -zero, zero
    return one - zero, zero


def _minus(x: Fraction, y: Fraction) -> Fraction:
    """``x - y``, with no Fraction arithmetic when either is zero."""
    if not y:
        return x
    if not x:
        return -y
    return x - y


def _add_root(roots: set[Fraction], slope: Fraction, base: Fraction) -> None:
    """Add the root of ``base + a*slope`` when it lies in (0, 1): the two
    must have opposite signs and ``|base| < |slope|``."""
    s, b = slope.numerator, base.numerator
    if s < 0 < b or b < 0 < s:
        root = -base / slope
        if root < _ONE:
            roots.add(root)


def _value_at(rows: list[_Row], a: Fraction) -> NSReal:
    """The value of ``rows`` at weight ``a``: one multiply-add per exponent,
    ``base + a*slope`` over one common denominator, in exponent order, zero
    coefficients dropped."""
    p, q = a.numerator, a.denominator
    terms = []
    for e, slope, base in rows:
        if slope:
            sn, sd = slope.numerator, slope.denominator
            bn, bd = base.numerator, base.denominator
            n = bn * sd * q + p * sn * bd
            if n:
                terms.append((e, Fraction(n, bd * sd * q)))
        else:
            terms.append((e, base))
    return _wrap(tuple(terms))
