"""Lotteries, utility assignments, and the preference comparisons they induce.

A lottery assigns exact nonnegative probabilities summing to one to finitely
many outcome ids; a utility assignment maps outcome ids to ring values.
Preference between lotteries is always decided through expected utility, but
the comparison applied to the two expected values depends on the regime.
Each :class:`Regime` is one row: its tag, the name of its comparison and
that comparison's sort key, and whether it requires standard probabilities
and standard utilities, the two flags every standardness test in the
package reads.

* ``STD``: everything standard, plain comparison of rationals.
* ``NS_UTIL``: standard probabilities, possibly nonstandard utilities; the
  qualitative order on expected utilities decides preference, so gaps that
  are infinitesimal relative to the stakes do not register.
* ``NS_PROB``: nonstandard probabilities, standard utilities; preference
  compares the standard parts of expected utilities.

:func:`qualitative_prefers` exposes the regime-free qualitative comparison
of exact expected utilities directly; it coincides with ``prefers`` in the
first two regimes and is what the command line ``compare`` subcommand
reports.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum, unique
from fractions import Fraction
from operator import add
from typing import Callable, Iterable, Mapping, Union

from .errors import (
    ClosureTooLarge,
    InvalidParameter,
    InvalidWeight,
    MissingUtility,
    PreconditionViolated,
)
from .nsreal import NSReal, ONE, QOrdering, ZERO, _lead, _wrap, qcompare, rational
from .solver import ORDER_KEYS, AffineValue, RationalIntervalSet, partition_affine_comparison

__all__ = [
    "Regime",
    "PrefOrdering",
    "Lottery",
    "UtilityAssignment",
    "mix",
    "expected_utility",
    "case1_functional",
    "compare_values",
    "prefers",
    "qualitative_prefers",
    "overrides",
    "overrides_values",
    "close_under_mixtures",
    "grid_weights",
    "is_negligible",
    "check_property_P",
    "PropertyPReport",
]

Weight = Union[int, Fraction, NSReal]


@unique
class Regime(Enum):
    """One row per regime: ``value`` is its tag, ``comparison`` the name of
    the order it compares expected utilities by and ``key`` that order's
    sort key (:data:`~qualutil.solver.ORDER_KEYS`), looked up once here, and
    ``standard_probabilities`` and ``standard_utilities`` whether it
    requires them standard."""

    STD = ("std", "quantitative", True, True)
    NS_UTIL = ("ns-util", "qualitative", True, False)
    NS_PROB = ("ns-prob", "standard-part", False, True)

    def __new__(cls, tag: str, comparison: str, probabilities: bool, utilities: bool) -> "Regime":
        member = object.__new__(cls)
        member._value_ = tag
        member.comparison = comparison
        member.key = ORDER_KEYS[comparison]
        member.standard_probabilities = probabilities
        member.standard_utilities = utilities
        return member


@unique
class PrefOrdering(Enum):
    BETTER = "better"
    INDIFFERENT = "indifferent"
    WORSE = "worse"

    def flipped(self) -> "PrefOrdering":
        if self is PrefOrdering.BETTER:
            return PrefOrdering.WORSE
        if self is PrefOrdering.WORSE:
            return PrefOrdering.BETTER
        return self


_PREF_FROM_Q = {
    QOrdering.GREATER: PrefOrdering.BETTER,
    QOrdering.EQUIVALENT: PrefOrdering.INDIFFERENT,
    QOrdering.LESS: PrefOrdering.WORSE,
}


def _coerce_weight(value: Weight) -> NSReal:
    if isinstance(value, NSReal):
        return value
    if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        return rational(value)
    raise TypeError(f"cannot use {type(value).__name__} as a mixture weight")


@dataclass(frozen=True)
class Lottery:
    """A finite probability distribution over outcome ids.

    ``probs`` is sorted by outcome id and stores no zero entries, so equal
    distributions compare and hash equal.
    """

    probs: tuple[tuple[str, NSReal], ...]

    @staticmethod
    def from_mapping(mapping: Mapping[str, Weight]) -> "Lottery":
        entries = []
        total = ZERO
        for outcome in sorted(mapping):
            p = _coerce_weight(mapping[outcome])
            if p.sign() < 0:
                raise InvalidParameter(f"negative probability for outcome {outcome!r}")
            total = total + p
            if not p.is_zero():
                entries.append((outcome, p))
        if not entries:
            raise InvalidParameter("a lottery needs at least one outcome")
        if total != ONE:
            raise InvalidParameter("probabilities must sum to exactly 1")
        return Lottery(tuple(entries))

    @staticmethod
    def degenerate(outcome: str) -> "Lottery":
        return Lottery(((outcome, ONE),))

    @property
    def support(self) -> tuple[str, ...]:
        return tuple(outcome for outcome, _ in self.probs)

    def probability(self, outcome: str) -> NSReal:
        for candidate, p in self.probs:
            if candidate == outcome:
                return p
        return ZERO

    def is_standard(self) -> bool:
        return all(p.is_standard() for _, p in self.probs)


@dataclass(frozen=True)
class UtilityAssignment:
    """Outcome utilities.  Values must be nonnegative unless ``signed``."""

    utilities: tuple[tuple[str, NSReal], ...]
    signed: bool = False

    @staticmethod
    def from_mapping(mapping: Mapping[str, NSReal], signed: bool = False) -> "UtilityAssignment":
        entries = []
        for outcome in sorted(mapping):
            value = mapping[outcome]
            if not isinstance(value, NSReal):
                raise TypeError(f"utility of {outcome!r} must be an NSReal")
            if not signed and value.sign() < 0:
                raise InvalidParameter(
                    f"negative utility for outcome {outcome!r}; pass signed=True on purpose"
                )
            entries.append((outcome, value))
        return UtilityAssignment(tuple(entries), signed)

    @property
    def outcomes(self) -> tuple[str, ...]:
        return tuple(outcome for outcome, _ in self.utilities)

    def utility(self, outcome: str) -> NSReal:
        for candidate, value in self.utilities:
            if candidate == outcome:
                return value
        raise MissingUtility(f"no utility assigned to outcome {outcome!r}")

    def values(self) -> tuple[NSReal, ...]:
        return tuple(value for _, value in self.utilities)

    def is_standard(self) -> bool:
        return all(value.is_standard() for _, value in self.utilities)


def _check_unit_weight(weight: NSReal) -> None:
    if weight.sign() <= 0 or weight >= ONE:
        raise InvalidWeight("mixture weight must lie strictly between 0 and 1")


def mix(weight: Weight, first: Lottery, second: Lottery, regime: Regime | None = None) -> Lottery:
    """The compound lottery ``weight*first + (1 - weight)*second``.

    A regime that requires standard probabilities (STD, NS_UTIL) requires
    a standard weight; NS_PROB admits nonstandard weights.  Pass
    ``regime=None`` to skip the standardness restriction.
    """
    w = _coerce_weight(weight)
    _check_unit_weight(w)
    if regime is not None and regime.standard_probabilities and not w.is_standard():
        raise InvalidWeight(f"regime {regime.value} requires a standard mixture weight")
    combined: dict[str, NSReal] = {}
    for outcome, p in first.probs:
        combined[outcome] = combined.get(outcome, ZERO) + w * p
    complement = ONE - w
    for outcome, p in second.probs:
        combined[outcome] = combined.get(outcome, ZERO) + complement * p
    return Lottery.from_mapping(combined)


def expected_utility(lottery: Lottery, assignment: UtilityAssignment) -> NSReal:
    """Exact expected utility; linear in the lottery by construction."""
    total = ZERO
    for outcome, p in lottery.probs:
        total = total + p * assignment.utility(outcome)
    return total


def case1_functional(lottery: Lottery, assignment: UtilityAssignment) -> Fraction:
    """Standard part of the expected utility.

    This is the standard-valued functional that decides preference when
    probabilities are nonstandard but utilities are standard; it is
    pseudo-linear rather than linear: mixing commutes with it only up to
    an infinitesimal.
    """
    return expected_utility(lottery, assignment).standard_part()


def compare_values(left: NSReal, right: NSReal, regime: Regime) -> PrefOrdering:
    """Order two expected utilities as their keys by the regime's sort key,
    ``regime.key``, compare.  Under NS_PROB an infinite value has no key and
    raises :class:`~qualutil.errors.InfiniteValue`."""
    key = regime.key
    left, right = key(left), key(right)
    if left > right:
        return PrefOrdering.BETTER
    return PrefOrdering.WORSE if left < right else PrefOrdering.INDIFFERENT


def prefers(
    first: Lottery,
    second: Lottery,
    assignment: UtilityAssignment,
    regime: Regime,
) -> PrefOrdering:
    """Preference between two lotteries under the regime's comparison rule."""
    return compare_values(
        expected_utility(first, assignment),
        expected_utility(second, assignment),
        regime,
    )


def qualitative_prefers(
    first: Lottery,
    second: Lottery,
    assignment: UtilityAssignment,
) -> PrefOrdering:
    """Preference by qualitative comparison of exact expected utilities.

    Regime-free: nonstandard probabilities and utilities both feed the same
    qualitative order, which is what makes an infinitesimal chance of a
    prize still worth more than a twelfth of that chance.
    """
    return _PREF_FROM_Q[
        qcompare(expected_utility(first, assignment), expected_utility(second, assignment))
    ]


def overrides_values(dominant: NSReal, dominated: NSReal) -> bool:
    """Value-level overriding: the dominated stake is negligible besides the
    dominant one, so mixtures weighted toward ``dominant`` drown it out.

    Both values must be nonnegative.  True exactly when ``dominant`` is of
    strictly larger order of magnitude than ``dominated``: its leading
    exponent is the smaller, zero being of lower order than any other value.
    Such a ``dominant`` also qualitatively exceeds ``dominated``.
    """
    if dominant.sign() < 0 or dominated.sign() < 0:
        raise PreconditionViolated("overriding is defined for nonnegative values only")
    return _lead(dominant)[0] < _lead(dominated)[0]


def overrides(
    first: Lottery,
    second: Lottery,
    assignment: UtilityAssignment,
) -> bool:
    """Whether ``first`` does not merely beat ``second`` but overrides it:
    mixing in any amount of ``first`` makes the comparison against anything
    below ``second`` collapse to indifference.

    Decided by the exact order-of-magnitude rule on expected utilities;
    the equivalence of that rule with the definitional quantifier over
    weights and lower alternatives is covered by the test suite.  Requires
    a nonnegative (unsigned) utility assignment.
    """
    if assignment.signed:
        raise PreconditionViolated("overriding requires nonnegative utilities")
    return overrides_values(
        expected_utility(first, assignment),
        expected_utility(second, assignment),
    )


def _require_int(name: str, size: object) -> None:
    """Refuse a size that is not an ``int`` (a ``bool`` is not one), naming it."""
    if type(size) is not int:
        raise InvalidParameter(f"{name} must be an int, got {size!r}")


def _require_denominator(denominator: object, name: str = "denominator") -> None:
    """Refuse a grid denominator that is not an ``int`` of at least 2."""
    _require_int(name, denominator)
    if denominator < 2:
        raise InvalidParameter("grid denominator must be at least 2")


def _closure_generators(
    lotteries: Iterable[Lottery], denominator: object, depth: object
) -> tuple[Lottery, ...]:
    """The lotteries as passed in, repeats included, after refusing a bad
    grid denominator, a depth that is not an ``int`` of at least 0, or no
    lottery."""
    _require_denominator(denominator)
    _require_int("depth", depth)
    if depth < 0:
        raise InvalidParameter(f"depth must be nonnegative, got {depth}")
    generators = tuple(lotteries)
    if not generators:
        raise InvalidParameter("need at least one lottery to close")
    return generators


def grid_weights(denominator: int) -> tuple[Fraction, ...]:
    """The standard weights k/denominator, 0 < k < denominator."""
    _require_denominator(denominator)
    return tuple(Fraction(k, denominator) for k in range(1, denominator))


def _probability_error(
    vector: tuple[int, ...], coordinates: tuple[tuple[str, int], ...], scale: int
) -> str | None:
    """The message :meth:`Lottery.from_mapping` raises on the lottery whose
    scaled coordinates are ``vector``, or None if it raises none: checked in
    sorted outcome order, an outcome whose leading coordinate is negative,
    then no nonzero coordinate, then a row sum other than ``scale`` at
    exponent 0 and 0 at every other exponent."""
    sums: dict[int, int] = {}
    led = None
    for (outcome, exponent), c in zip(coordinates, vector):
        if c:
            if outcome != led:
                if c < 0:
                    return f"negative probability for outcome {outcome!r}"
                led = outcome
            sums[exponent] = sums.get(exponent, 0) + c
    if not sums:
        return "a lottery needs at least one outcome"
    if {exponent: total for exponent, total in sums.items() if total} != {0: scale}:
        return "probabilities must sum to exactly 1"
    return None


def _closure_vectors(
    lotteries: Iterable[Lottery], denominator: object, depth: object, limit: int | None = None
) -> tuple[tuple[Lottery, ...], tuple[tuple[str, int], ...], int, list[tuple[int, ...]]]:
    """The integer rounds of :func:`close_under_mixtures`: the distinct
    generators, the sorted (outcome, ``eps`` exponent) coordinates, the
    final scale S and every member's vector of coefficients times S, the
    generators' first, in order of first appearance.  Refusals are those of
    :func:`close_under_mixtures`, raised in the round that passes
    ``limit``.

    The generators are deduplicated on their vectors, which hash as tuples
    of ints, where hashing a ``Lottery`` hashes every ``Fraction`` of it.
    Equal lotteries have equal vectors; a lottery built with the raw
    constructor (out of order, or with a zero entry) can share a vector
    with one it does not equal, and is kept beside it, as deduplicating the
    lotteries would keep it."""
    lotteries = _closure_generators(lotteries, denominator, depth)
    coordinates = tuple(
        sorted({(o, e) for g in lotteries for o, p in g.probs for e, _ in p.terms})
    )
    position = {key: i for i, key in enumerate(coordinates)}
    scale = math.lcm(
        *(c.denominator for g in lotteries for _, p in g.probs for _, c in p.terms)
    )
    generators, items, kept = [], [], {}
    for lottery in lotteries:
        vector = [0] * len(coordinates)
        for outcome, p in lottery.probs:
            for exponent, c in p.terms:
                vector[position[outcome, exponent]] += c.numerator * (scale // c.denominator)
        vector = tuple(vector)
        same = kept.setdefault(vector, [])
        if not any(lottery is other or lottery == other for other in same):
            same.append(lottery)
            generators.append(lottery)
            items.append(vector)
    generators = tuple(generators)
    if limit is not None and len(generators) > limit:
        raise ClosureTooLarge(
            f"the {len(generators)} distinct generators alone exceed the limit of {limit} lotteries"
        )
    check_every_mix = any(_probability_error(vector, coordinates, scale) for vector in items)
    for round_number in range(1, depth + 1):
        scale *= denominator
        items = [tuple([c * denominator for c in vector]) for vector in items]
        seen = set(items)
        additions = []
        for i, first in enumerate(items):
            for second in items[i + 1 :]:
                step = [(a - b) // denominator for a, b in zip(first, second)]
                mixed = second
                for _ in range(denominator - 1):
                    mixed = tuple(map(add, mixed, step))
                    if check_every_mix:
                        message = _probability_error(mixed, coordinates, scale)
                        if message is not None:
                            raise InvalidParameter(message)
                    if mixed not in seen:
                        seen.add(mixed)
                        additions.append(mixed)
                        if limit is not None and len(items) + len(additions) > limit:
                            raise ClosureTooLarge(
                                f"the mixture closure exceeds {limit} lotteries in round "
                                f"{round_number} of {depth}"
                            )
        if not additions:
            break
        items += additions
    return generators, coordinates, scale, items


def _member_builder(
    coordinates: tuple[tuple[str, int], ...], scale: int
) -> Callable[[tuple[int, ...]], Lottery]:
    """The function that builds the closure member whose scaled coordinates
    are a vector, with the raw :class:`Lottery` constructor and coefficients
    ``Fraction(c, scale)``.  Members it builds share one (outcome, NSReal)
    entry per distinct run of an outcome's coordinates: fewer live objects,
    so less garbage-collector work."""
    runs = []
    start = 0
    for outcome, keys in itertools.groupby(coordinates, key=lambda key: key[0]):
        exponents = tuple(e for _, e in keys)
        runs.append((outcome, start, start + len(exponents), exponents, {}))
        start += len(exponents)

    def build(vector: tuple[int, ...]) -> Lottery:
        probs: list[tuple[str, NSReal]] = []
        for outcome, start, stop, exponents, known in runs:
            coords = vector[start:stop]
            entry = known.get(coords)
            if entry is None:
                terms = tuple([(e, Fraction(c, scale)) for e, c in zip(exponents, coords) if c])
                entry = known[coords] = ((outcome, _wrap(terms)),) if terms else ()
            probs += entry
        return Lottery(tuple(probs))

    return build


def close_under_mixtures(
    lotteries: Iterable[Lottery],
    denominator: int = 8,
    depth: int = 2,
    *,
    limit: int | None = None,
) -> tuple[Lottery, ...]:
    """Close a finite lottery set under grid-weight mixing.

    Each round mixes every unordered pair of the current set with every
    weight k/denominator and adds the (exactly deduplicated) results;
    ``depth`` rounds are applied.  Deterministic: order of first appearance
    is preserved.  With ``limit``, raises :class:`ClosureTooLarge`, naming
    the round, as soon as the set holds more than ``limit`` lotteries, so
    an oversized closure is refused before the rest of it is built.

    The rounds are one private kernel, which mixes integer vectors, not
    lotteries; the audit reads its vectors directly.  There is one
    coordinate per (outcome, ``eps`` exponent) found in the generators,
    sorted, at a scale S that starts at L, the lcm of the denominators of
    the generators' coefficients.  Each round first multiplies S and every
    vector by the denominator, so S is ``L * denominator**r`` after round
    r, and the mix at k/denominator,
    ``(k*a + (denominator - k)*b) / denominator``, is the integer
    ``b + k*step`` with ``step = (a - b) // denominator`` exact.  Rounds
    that never run cost no digits, so a huge ``depth`` refused by ``limit``
    in an early round costs no more than that round.  Scaling is a
    bijection, so deduplicating the vectors keeps the order of first
    appearance.  The generators are returned as passed in; each new member
    is built once, at the end, with the raw :class:`Lottery` constructor
    and coefficients ``Fraction(c, S)``.

    A mix with positive weights keeps every row sum and the sign of each
    outcome's leading coordinate, so if every generator passes the checks
    of :meth:`Lottery.from_mapping` (its rows sum to S at exponent 0 and to
    0 elsewhere, and no outcome leads with a negative coordinate), so does
    every mix.  If one does not (it was built with the raw constructor),
    every mix is checked in integers, and the first that fails raises the
    :class:`InvalidParameter` that ``from_mapping`` raises on it.
    """
    generators, coordinates, scale, vectors = _closure_vectors(
        lotteries, denominator, depth, limit
    )
    build = _member_builder(coordinates, scale)
    return generators + tuple(map(build, vectors[len(generators) :]))


def is_negligible(
    weight: Weight,
    assignment: UtilityAssignment,
    generators: Iterable[Lottery],
    denominator: int = 8,
    depth: int = 1,
) -> bool:
    """Whether a mixture weight is too small to ever matter here: mixing any
    lottery of the closed set in with this weight leaves every lottery of
    the set indifferent, under NS_PROB, to what it was.

    No closure is built.  ``w*v_p + (1-w)*v_q`` has the standard part of
    ``v_q`` exactly when ``st(w) * (st(v_p) - st(v_q))`` is 0, so the weight
    is negligible iff it is infinitesimal or the closure's values share one
    standard part.  A mix at a grid weight k/denominator has the k/denominator
    mix of its parents' standard parts, so the closure, which holds the
    generators, shares one exactly when the generators do.  The standard
    parts are taken before the weight is read, so an infinite value raises
    :class:`~qualutil.errors.InfiniteValue` whatever the weight.  The definition, mixing every pair of the closure, is
    ``oracle_is_negligible`` in ``tests/oracles.py``.
    """
    w = _coerce_weight(weight)
    _check_unit_weight(w)
    generators = _closure_generators(generators, denominator, depth)
    parts = {expected_utility(lottery, assignment).standard_part() for lottery in generators}
    return w.is_infinitesimal() or len(parts) == 1


@dataclass(frozen=True)
class PropertyPReport:
    """Existence and shape of the indifference weight between a best, a
    middle, and a worst lottery.

    ``indifference_set`` collects every standard weight a with
    ``a*best + (1-a)*worst`` indifferent to the middle lottery; ``better_set``
    and ``worse_set`` partition the rest of (0, 1).  ``holds`` means some
    indifference weight exists; ``unique_weight`` is set when it is a single
    rational.  ``monotone`` records the threshold shape, worse below,
    indifferent across, better above, and is always True: best beats worst,
    so the mixture increases with a in the ring order, and every regime's
    sort key is nondecreasing in that order.  ``failure`` is None when the
    property holds, otherwise "all_better" (no weight is worse),
    "all_worse" (none is better), or "no_indifference".
    """

    holds: bool
    indifference_set: RationalIntervalSet
    better_set: RationalIntervalSet
    worse_set: RationalIntervalSet
    unique_weight: Fraction | None
    monotone: bool
    failure: str | None


def check_property_P(
    middle: Lottery,
    best: Lottery,
    worst: Lottery,
    assignment: UtilityAssignment,
    regime: Regime,
) -> PropertyPReport:
    """Look for a calibration weight: mixing best and worst to hit exact
    indifference with the middle lottery.

    Requires ``best > middle > worst`` under the regime's comparison.  The
    answer is computed exactly over all standard weights in (0, 1); with
    overriding stakes in play the indifference set can be empty, every
    standard mixture landing strictly on one side.
    """
    if prefers(best, middle, assignment, regime) is not PrefOrdering.BETTER:
        raise PreconditionViolated("best lottery must beat the middle one")
    if prefers(middle, worst, assignment, regime) is not PrefOrdering.BETTER:
        raise PreconditionViolated("middle lottery must beat the worst one")

    mixture = AffineValue(
        expected_utility(best, assignment), expected_utility(worst, assignment)
    )
    target_value = expected_utility(middle, assignment)
    target = AffineValue(target_value, target_value)
    parts = partition_affine_comparison(mixture, target, regime.comparison)
    empty = RationalIntervalSet()
    indifference = parts.get(QOrdering.EQUIVALENT, empty)
    better = parts.get(QOrdering.GREATER, empty)
    worse = parts.get(QOrdering.LESS, empty)

    unique_weight = None
    if len(indifference.intervals) == 1 and indifference.intervals[0].is_point():
        unique_weight = indifference.intervals[0].lo

    failure: str | None = None
    if indifference.is_empty:
        if worse.is_empty:
            failure = "all_better"
        elif better.is_empty:
            failure = "all_worse"
        else:
            failure = "no_indifference"

    return PropertyPReport(
        holds=not indifference.is_empty,
        indifference_set=indifference,
        better_set=better,
        worse_set=worse,
        unique_weight=unique_weight,
        monotone=True,
        failure=failure,
    )
