"""Exact arithmetic on a computable fragment of the nonstandard reals.

A value is a finitely supported Laurent polynomial in a fixed positive
infinitesimal ``eps``, with arbitrary-precision rational coefficients:

    sum of  c_k * eps**k   over finitely many integer exponents k.

``eps`` is smaller than every positive rational, so the term with the
*minimal* exponent dominates: ``eps**-1`` is infinite, ``eps**0`` terms are
ordinary rationals, ``eps**2`` is infinitesimal relative to ``eps``.  The
values form an ordered commutative ring (not a field; no division is
defined), and every quantity in this package lives in it.  Floats are
rejected outright.

Every value is held in one canonical form: a tuple of ``(exponent,
coefficient)`` pairs with plain ``int`` exponents in strictly increasing
order and nonzero ``Fraction`` coefficients, the empty tuple being zero.
Inputs are validated where they enter: :meth:`NSReal.from_terms`,
:func:`rational`, :func:`eps`, and the coercion of ``int``/``Fraction``
operands.  Every operation keeps the form by construction -- addition and
subtraction merge the two sorted term tuples in one walk, a scalar scales
the coefficients or touches exponent 0 only -- and so wraps its result
without checking or sorting it again.

Two comparisons are provided.  The ordinary total order (``<``, ``<=`` and
friends) is decided by the sign of the difference, i.e. by the sign of its
leading coefficient, read off the two term tuples by walking them to the
first exponent where they differ, without building the difference.  The
*qualitative* order :func:`qcompare` is coarser: it ignores differences
that are infinitesimal relative to the operands, so ``1 + eps`` is
qualitatively equivalent to ``1`` while ``eps`` still exceeds ``eps/12``.
Opposite-sign operands are ordered by sign, and values of one sign by their
leading terms alone: order of magnitude first, leading coefficient second.
That order is the order of a sort key read off one term of each operand.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, unique
from fractions import Fraction
from math import inf
from typing import Iterable, Union

from .errors import InfiniteValue

__all__ = [
    "NSReal",
    "QOrdering",
    "ZERO",
    "ONE",
    "EPS",
    "eps",
    "qcompare",
    "rational",
]

Scalar = Union[int, Fraction]
Terms = tuple[tuple[int, Fraction], ...]


@unique
class QOrdering(Enum):
    """Outcome of a qualitative comparison."""

    GREATER = "greater"
    EQUIVALENT = "equivalent"
    LESS = "less"

    def flipped(self) -> "QOrdering":
        if self is QOrdering.GREATER:
            return QOrdering.LESS
        if self is QOrdering.LESS:
            return QOrdering.GREATER
        return self


def _scalar(value: object) -> Fraction | None:
    """``value`` as an exact ``Fraction`` if it is an int or a Fraction (but
    not a bool), else None."""
    if type(value) is Fraction:
        return value
    if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        return Fraction(value)
    return None


def _as_fraction(value: Scalar) -> Fraction:
    c = _scalar(value)
    if c is not None:
        return c
    if isinstance(value, (bool, float)):
        raise TypeError(f"exact arithmetic only, got {type(value).__name__}")
    raise TypeError(f"cannot interpret {type(value).__name__} as a rational")


@dataclass(frozen=True, slots=True)
class NSReal:
    """An immutable ring element.

    ``terms`` holds ``(exponent, coefficient)`` pairs with plain ``int``
    exponents in strictly increasing order and nonzero ``Fraction``
    coefficients; the empty tuple is zero.  Every operation returns a value
    in this form.  Use :meth:`from_terms`, :func:`rational` or :func:`eps`,
    which validate their input, rather than the raw constructor, which
    trusts its argument.

    Costs: comparisons build no difference and no ``Fraction``, and
    ``int``/``Fraction`` operands are used as they are rather than wrapped
    in an ``NSReal``.
    """

    terms: Terms = ()

    @staticmethod
    def from_terms(pairs: Iterable[tuple[int, Scalar]]) -> "NSReal":
        acc: dict[int, Fraction] = {}
        for exponent, coefficient in pairs:
            if not isinstance(exponent, int) or isinstance(exponent, bool):
                raise TypeError("exponents must be plain ints")
            c = _as_fraction(coefficient)
            acc[exponent] = acc.get(exponent, Fraction(0)) + c
        return _wrap(tuple(sorted((e, c) for e, c in acc.items() if c)))

    # -- queries ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def sign(self) -> int:
        """-1, 0 or +1: the sign of the value, i.e. of its leading coefficient."""
        if not self.terms:
            return 0
        return 1 if self.terms[0][1].numerator > 0 else -1

    def leading(self) -> tuple[int, Fraction] | None:
        """The dominant ``(exponent, coefficient)`` pair, or None for zero."""
        return self.terms[0] if self.terms else None

    def leading_exponent(self) -> int | None:
        return self.terms[0][0] if self.terms else None

    def is_infinitesimal(self) -> bool:
        """True when the magnitude is below every positive rational.

        Zero counts as infinitesimal.
        """
        return not self.terms or self.terms[0][0] > 0

    def is_finite(self) -> bool:
        return not self.terms or self.terms[0][0] >= 0

    def is_standard(self) -> bool:
        """True for plain rationals (including zero): no ``eps`` dependence."""
        return not self.terms or (len(self.terms) == 1 and self.terms[0][0] == 0)

    def standard_part(self) -> Fraction:
        """Collapse infinitesimals: the unique rational at distance
        infinitesimal from the value.  Raises InfiniteValue if the value has
        a term of negative exponent."""
        if not self.is_finite():
            raise InfiniteValue(f"no standard part: leading term {self.terms[0]}")
        for exponent, coefficient in self.terms:
            if exponent == 0:
                return coefficient
        return Fraction(0)

    # -- ring operations -------------------------------------------------

    def __add__(self, other: object) -> "NSReal":
        if isinstance(other, NSReal):
            return _wrap(_merged(self.terms, other.terms, False))
        s = _scalar(other)
        if s is None:
            return NotImplemented
        return _wrap(_plus_scalar(self.terms, s))

    __radd__ = __add__

    def __neg__(self) -> "NSReal":
        return _wrap(_negated(self.terms))

    def __sub__(self, other: object) -> "NSReal":
        if isinstance(other, NSReal):
            return _wrap(_merged(self.terms, other.terms, True))
        s = _scalar(other)
        if s is None:
            return NotImplemented
        return _wrap(_plus_scalar(self.terms, -s))

    def __rsub__(self, other: object) -> "NSReal":
        s = _scalar(other)
        if s is None:
            return NotImplemented
        return _wrap(_plus_scalar(_negated(self.terms), s))

    def __mul__(self, other: object) -> "NSReal":
        if isinstance(other, NSReal):
            left, right = self.terms, other.terms
            if len(left) > len(right):
                left, right = right, left
            if not left:
                return ZERO
            if len(left) == 1:
                # A monomial shifts the exponents and scales the coefficients.
                (e1, c1), = left
                return _wrap(tuple([(e1 + e2, c1 * c2) for e2, c2 in right]))
            acc: dict[int, Fraction] = {}
            for e1, c1 in left:
                for e2, c2 in right:
                    e = e1 + e2
                    acc[e] = acc[e] + c1 * c2 if e in acc else c1 * c2
            return _wrap(tuple(sorted((e, c) for e, c in acc.items() if c)))
        s = _scalar(other)
        if s is None:
            return NotImplemented
        if not s:
            return ZERO
        return _wrap(tuple([(e, c * s) for e, c in self.terms]))

    __rmul__ = __mul__

    def __pow__(self, power: int) -> "NSReal":
        if not isinstance(power, int) or isinstance(power, bool) or power < 0:
            raise TypeError("only nonnegative integer powers are defined")
        result = ONE
        for _ in range(power):
            result = result * self
        return result

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- total (quantitative) order --------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, NSReal):
            return self.terms == other.terms
        s = _scalar(other)
        if s is None:
            return NotImplemented
        return self.terms == _scalar_terms(s)

    def __hash__(self) -> int:
        # Values equal to a plain rational hash like that rational, keeping
        # the eq/hash contract intact when scalars are compared in.
        if not self.terms:
            return hash(0)
        if len(self.terms) == 1 and self.terms[0][0] == 0:
            return hash(self.terms[0][1])
        return hash(self.terms)

    def _compare_sign(self, other: object) -> int | None:
        """The sign of ``self - other``, or None for an unsupported operand."""
        if isinstance(other, NSReal):
            return _difference_sign(self.terms, other.terms)
        s = _scalar(other)
        if s is None:
            return None
        return _difference_sign(self.terms, _scalar_terms(s))

    def __lt__(self, other: object) -> bool:
        s = self._compare_sign(other)
        if s is None:
            return NotImplemented
        return s < 0

    def __le__(self, other: object) -> bool:
        s = self._compare_sign(other)
        if s is None:
            return NotImplemented
        return s <= 0

    def __gt__(self, other: object) -> bool:
        s = self._compare_sign(other)
        if s is None:
            return NotImplemented
        return s > 0

    def __ge__(self, other: object) -> bool:
        s = self._compare_sign(other)
        if s is None:
            return NotImplemented
        return s >= 0

    def __repr__(self) -> str:
        from .formats import render_nsreal

        return f"NSReal({render_nsreal(self)!r})"


# -- the kernel: operations on canonical term tuples ------------------------

_new_nsreal = object.__new__
_set_terms = NSReal.terms.__set__  # the slot's own setter, past the frozen guard


def _wrap(terms: Terms) -> NSReal:
    """The value of an already-canonical term tuple, taken as it is."""
    value = _new_nsreal(NSReal)
    _set_terms(value, terms)
    return value


def _scalar_terms(s: Fraction) -> Terms:
    return ((0, s),) if s else ()


def _negated(terms: Terms) -> Terms:
    return tuple([(e, -c) for e, c in terms])


def _merged(a: Terms, b: Terms, subtract: bool) -> Terms:
    """The terms of ``a + b``, or of ``a - b`` when ``subtract`` is set, in
    one walk over both sorted tuples."""
    out = []
    i = j = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        ea, ca = a[i]
        eb, cb = b[j]
        if ea < eb:
            out.append(a[i])
            i += 1
        elif eb < ea:
            out.append((eb, -cb) if subtract else b[j])
            j += 1
        else:
            c = ca - cb if subtract else ca + cb
            if c:
                out.append((ea, c))
            i += 1
            j += 1
    if i < na:
        out.extend(a[i:])
    if j < nb:
        out.extend(_negated(b[j:]) if subtract else b[j:])
    return tuple(out)


def _plus_scalar(terms: Terms, s: Fraction) -> Terms:
    """The terms of ``terms + s``: only exponent 0 changes."""
    if not s:
        return terms
    for k, (e, c) in enumerate(terms):
        if e == 0:
            c = c + s
            return terms[:k] + ((0, c),) + terms[k + 1:] if c else terms[:k] + terms[k + 1:]
        if e > 0:
            return terms[:k] + ((0, s),) + terms[k:]
    return terms + ((0, s),)


def _difference_sign(a: Terms, b: Terms) -> int:
    """The sign of ``a - b``: that of its leading term, read off the first
    exponent where the two term tuples differ; 0 when they are equal."""
    for (ea, ca), (eb, cb) in zip(a, b):
        if ea != eb:
            if ea < eb:
                return 1 if ca.numerator > 0 else -1
            return -1 if cb.numerator > 0 else 1
        if ca != cb:
            return 1 if ca > cb else -1
    na, nb = len(a), len(b)
    if na > nb:
        return 1 if a[nb][1].numerator > 0 else -1
    if nb > na:
        return -1 if b[na][1].numerator > 0 else 1
    return 0


def rational(value: Scalar | str) -> NSReal:
    """Embed a rational (int, Fraction, or a string like ``"5/6"``)."""
    if isinstance(value, str):
        value = Fraction(value)
    return _wrap(_scalar_terms(_as_fraction(value)))


def eps(exponent: int = 1) -> NSReal:
    """The basis element ``eps**exponent``; negative exponents are infinite."""
    if not isinstance(exponent, int) or isinstance(exponent, bool):
        raise TypeError("exponent must be a plain int")
    return _wrap(((exponent, Fraction(1)),))


ZERO = NSReal()
ONE = rational(1)
EPS = eps()


# The leading term of zero: below every term in order of magnitude.
_NO_TERM = (inf, Fraction(0))


def _lead(value: NSReal) -> tuple[float, Fraction]:
    """The leading ``(exponent, coefficient)`` of ``value``, ``(inf, 0)`` for
    zero: what :func:`_qkey` reads of a value."""
    return value.terms[0] if value.terms else _NO_TERM


def _term_key(exponent: float, coefficient: Scalar) -> tuple[int, float, Scalar]:
    """The sort key of the qualitative order for the leading term
    ``(exponent, coefficient)`` of a value, ``(inf, 0)`` for zero, with an
    ``int`` or ``Fraction`` coefficient: sign class first, then order of
    magnitude (the larger the greater among nonnegative values, the lesser
    among negative ones), then leading coefficient."""
    return (0, exponent, coefficient) if coefficient.numerator < 0 else (1, -exponent, coefficient)


def _qkey(value: NSReal) -> tuple[int, float, Fraction]:
    """The sort key of the qualitative order; zero's is ``(1, -inf, 0)``."""
    return _term_key(*_lead(value))


def _ordering(left: object, right: object) -> QOrdering:
    """The verdict of comparing two sort keys, or a number's sign with 0."""
    if left > right:
        return QOrdering.GREATER
    return QOrdering.LESS if left < right else QOrdering.EQUIVALENT


def qcompare(x: NSReal, y: NSReal) -> QOrdering:
    """Qualitative comparison: strict only when the gap is non-negligible
    relative to the operands.

    Any nonnegative value strictly exceeds any negative one.  Values of one
    sign class are ranked by their leading terms: order of magnitude first
    (zero being of lower order than any other value), the larger order being
    the greater among nonnegative values and the lesser among negative ones;
    leading coefficient second.  So the result refines the total order
    (GREATER implies ``x > y``) and the induced equivalence is exactly
    "identical leading term, same sign class": the order of :func:`_qkey`.
    """
    return _ordering(_qkey(x), _qkey(y))
