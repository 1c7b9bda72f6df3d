"""Worst-case (maximin) preference encoded as expected utility.

Rank n outcomes ``x0 < x1 < ... < x{n-1}`` and give outcome ``x_i`` the
utility ``-eps**-(n-1-i)``, so the worst outcome carries the most negative
infinite value and the best carries -1.  Under qualitative comparison of
expected utilities a two-outcome gamble is then judged by its worst outcome
first and by the probability of that worst outcome second, which is exactly
the worst-case ordering :func:`maximin_compare_oracle` states directly.

The tempting positive mirror image, utility ``eps**(n-1-i)``, does not work:
with positive infinitesimal powers the *largest* term dominates an expected
value, so comparisons collapse onto the best outcome instead of the worst.
:func:`best_case_power_utilities` keeps that assignment around as a
regression contrast; a test documents the disagreement.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import cycle, groupby
from math import lcm
from operator import itemgetter
from typing import Hashable, Iterable, Iterator, Mapping, Sequence, Union

from .errors import IndexOrder, IndexOutOfRange, InvalidParameter, InvalidWeight
from .nsreal import NSReal, eps
from .prefcore import (
    _require_int,
    Lottery,
    PrefOrdering,
    Regime,
    UtilityAssignment,
    grid_weights,
)

__all__ = [
    "MaximinSpec",
    "maximin_utilities",
    "best_case_power_utilities",
    "maximin_compare_oracle",
    "maximin_sweep",
    "two_point_lottery",
]

Weight = Union[int, Fraction]


@dataclass(frozen=True)
class MaximinSpec:
    """A linearly ordered outcome set ``x0 ... x{n-1}``, worst first."""

    n: int

    def __post_init__(self) -> None:
        _require_int("n", self.n)
        if self.n < 2:
            raise InvalidParameter("need at least two ranked outcomes")

    @property
    def outcome_ids(self) -> tuple[str, ...]:
        return tuple(f"x{i}" for i in range(self.n))

    def outcome(self, index: int) -> str:
        if not 0 <= index < self.n:
            raise IndexOutOfRange(f"outcome index {index} out of range 0..{self.n - 1}")
        return f"x{index}"


def maximin_utilities(spec: MaximinSpec) -> UtilityAssignment:
    """The signed assignment ``u(x_i) = -eps**-(n-1-i)``.

    Worst outcome most negative and infinitely so, best outcome -1; the
    expected value of any gamble is dominated by its worst outcome's term.
    """
    return _maximin_assignment(spec, range(spec.n))


def _maximin_assignment(spec: MaximinSpec, indices: Iterable[int]) -> UtilityAssignment:
    """The assignment of :func:`maximin_utilities` on the outcomes of
    ``indices`` alone, so that comparing a few bets costs nothing in n."""
    return UtilityAssignment.from_mapping(
        {spec.outcome(i): -eps(-(spec.n - 1 - i)) for i in indices}, signed=True
    )


def best_case_power_utilities(spec: MaximinSpec) -> UtilityAssignment:
    """The nonnegative contrast ``u(x_i) = eps**(n-1-i)``.

    Kept only to document why it fails as a worst-case encoding: the best
    outcome's term has the smallest exponent and therefore dominates, so
    qualitative comparison ranks gambles by their *best* outcome.
    """
    return UtilityAssignment.from_mapping(
        {spec.outcome(i): eps(spec.n - 1 - i) for i in range(spec.n)}
    )


def _check_pair(spec: MaximinSpec, low: int, high: int) -> None:
    if not (0 <= low < spec.n and 0 <= high < spec.n):
        raise IndexOutOfRange(f"outcome indices ({low}, {high}) out of range 0..{spec.n - 1}")
    if low >= high:
        raise IndexOrder(f"expected low < high, got ({low}, {high})")


def _check_weight(weight: Weight) -> Fraction:
    w = Fraction(weight)
    if not 0 < w < 1:
        raise InvalidWeight("gamble weight must lie strictly between 0 and 1")
    return w


def two_point_lottery(spec: MaximinSpec, low: int, weight: Weight, high: int) -> Lottery:
    """The gamble paying ``x_low`` with probability ``weight``, else ``x_high``."""
    _check_pair(spec, low, high)
    w = _check_weight(weight)
    return Lottery.from_mapping({spec.outcome(low): w, spec.outcome(high): 1 - w})


def maximin_compare_oracle(
    spec: MaximinSpec,
    low: int,
    weight: Weight,
    high: int,
    other_low: int,
    other_weight: Weight,
    other_high: int,
) -> PrefOrdering:
    """Worst-case ordering of two two-point gambles, stated directly.

    The gamble with the worse worst outcome loses; between equal worst
    outcomes the higher probability of hitting that worst outcome loses;
    otherwise the gambles are indifferent (upside is ignored entirely).
    """
    _check_pair(spec, low, high)
    _check_pair(spec, other_low, other_high)
    w = _check_weight(weight)
    other_w = _check_weight(other_weight)
    return _worst_case_rule(low, w, other_low, other_w)


def _worst_case_key(low: int, w: Weight) -> tuple[int, Weight]:
    """The rule of :func:`maximin_compare_oracle` as a sort key: a bet ranks
    above another exactly when its key is the greater.  The higher worst
    outcome wins, and between equal ones the lower chance of it."""
    return low, -w


# A verdict indexed by the sign of a key comparison.
_VERDICTS = (PrefOrdering.INDIFFERENT, PrefOrdering.BETTER, PrefOrdering.WORSE)


def _worst_case_rule(low: int, w: Fraction, other_low: int, other_w: Fraction) -> PrefOrdering:
    """The rule of :func:`maximin_compare_oracle` on already validated bets."""
    key, other = _worst_case_key(low, w), _worst_case_key(other_low, other_w)
    return _VERDICTS[(key > other) - (key < other)]


def _bet_values(
    spec: MaximinSpec, assignment: UtilityAssignment, weights: Sequence[Fraction]
) -> Iterator[tuple[int, int, Fraction, NSReal]]:
    """``(low, high, w, value)`` for every two-point bet on ``weights``, by
    ``low``, then ``high``, then ``w``.  ``value`` is the two-term sum
    ``w*u(x_low) + (1-w)*u(x_high)`` that ``expected_utility`` takes of
    ``two_point_lottery(spec, low, w, high)``; each term is formed once per
    outcome and weight.  The grid and the outcome pairs make every bet valid,
    so no lottery is built or validated."""
    utilities = [assignment.utility(outcome) for outcome in spec.outcome_ids]
    low_terms = [[w * u for w in weights] for u in utilities]
    high_terms = [[(1 - w) * u for w in weights] for u in utilities]
    for low in range(spec.n):
        for high in range(low + 1, spec.n):
            for w, low_term, high_term in zip(weights, low_terms[low], high_terms[high]):
                yield low, high, w, low_term + high_term


def maximin_sweep(spec: MaximinSpec, denominator: int) -> tuple[int, int]:
    """Compare every two-point bet with weight k/denominator on its low
    outcome against every other such bet, by qualitative expected utility
    and by the rule of :func:`maximin_compare_oracle`.  Returns the number
    of comparisons and how many of them the two disagree on.

    Each of the ``B = C(N,2)*(denominator-1)`` bets is valued once, as the
    sum of its two terms ``w*u(x_low)`` and ``(1-w)*u(x_high)``
    (:func:`_bet_values`), with no :class:`Lottery` built.  Values compare
    as their ``Regime.NS_UTIL.key`` (:func:`compare_values`) and the rule
    reads only ``(low, w)``, so bets sharing ``(key, low, w)`` form one of
    ``G <= B`` groups with the same verdicts.  A group holds its key with
    the coefficient scaled to an integer, and the grid index of ``w``: each
    orders as what it stands for, and no ``Fraction`` is hashed or compared
    while the groups are formed and counted.  The disagreements are counted
    from the two orders of the groups (:func:`_group_disagreements`), so a
    sweep costs ``2*N*(denominator-1)`` products, ``B`` sums, and a sort and
    a Fenwick pass over the ``G`` groups: ``O(B + G log G)`` comparisons.
    Under :func:`maximin_utilities` a key ignores ``high``, so
    ``G = (N-1)*(denominator-1)``."""
    assignment, key = maximin_utilities(spec), Regime.NS_UTIL.key
    weights = grid_weights(denominator)
    # _bet_values runs through the weights innermost, so this is each
    # bet's grid index.
    indices = cycle(range(len(weights)))
    keyed = [
        (key(value), low, index)
        for index, (low, _, _, value) in zip(indices, _bet_values(spec, assignment, weights))
    ]
    # A key's coefficient times the common denominator of them all is an
    # integer in the same order, so the groups hash and sort as ints.
    scale = lcm(*(c.denominator for (_, _, c), _, _ in keyed))
    groups = Counter(
        ((sign, e, c.numerator * (scale // c.denominator)), low, index)
        for (sign, e, c), low, index in keyed
    )
    return len(keyed) ** 2, _group_disagreements(groups)


def _group_disagreements(groups: Mapping[tuple[Hashable, int, Weight], int]) -> int:
    """How many ordered pairs of bets the value order and the rule order
    judge differently, given how many bets share each ``(key, low, w)``.

    The two verdicts on a pair agree exactly when both orders tie, which
    happens only within a group, or when both put the pair the same way
    round.  So with ``T`` bets in all, groups of ``m`` bets, and ``C`` the
    ``m*m'``-weighted count of pairs of groups that both orders rank
    strictly the same way round, ``T**2 - sum(m**2) - 2*C`` pairs disagree.

    Each group is ranked once by :func:`_worst_case_key`, densely, and no
    two groups are compared directly.  ``C`` is counted by walking the
    groups in increasing value key, a block of equal keys at a time, and
    asking a Fenwick tree over the rule ranks how many bets of earlier
    blocks rank below each group.  A block is queried whole before it is
    added, so pairs tied in value count as no agreement."""
    entries = [(k, _worst_case_key(low, w), m) for (k, low, w), m in groups.items()]
    ranks = {r: i for i, r in enumerate(sorted({r for _, r, _ in entries}), 1)}
    entries.sort(key=itemgetter(0))
    tree = [0] * (len(ranks) + 1)
    concordant = 0
    for _, block in groupby(entries, itemgetter(0)):
        block = [(ranks[r], m) for _, r, m in block]
        for rank, m in block:
            i = rank - 1
            while i:
                concordant += m * tree[i]
                i &= i - 1
        for rank, m in block:
            i = rank
            while i < len(tree):
                tree[i] += m
                i += i & -i
    total = sum(groups.values())
    return total * total - sum(m * m for m in groups.values()) - 2 * concordant
