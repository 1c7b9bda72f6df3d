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
from itertools import groupby, repeat
from math import inf, lcm
from operator import add, itemgetter
from typing import Hashable, Iterable, Mapping, Union

from .errors import IndexOrder, IndexOutOfRange, InvalidParameter, InvalidWeight
from .nsreal import NSReal, _lead, _ordering, _term_key, eps
from .prefcore import (
    _PREF_FROM_Q,
    _require_denominator,
    _require_int,
    Lottery,
    PrefOrdering,
    UtilityAssignment,
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


def _worst_case_rule(low: int, w: Fraction, other_low: int, other_w: Fraction) -> PrefOrdering:
    """The rule of :func:`maximin_compare_oracle` on already validated bets."""
    return _PREF_FROM_Q[_ordering(_worst_case_key(low, w), _worst_case_key(other_low, other_w))]


# A ``Regime.NS_UTIL.key`` with its coefficient scaled by :func:`_bet_keys`.
Key = tuple[int, float, Union[int, Fraction]]


def _bet_keys(
    spec: MaximinSpec, assignment: UtilityAssignment, denominator: int
) -> tuple[int, list[tuple[Key, int, int]]]:
    """``(scale, keyed)``: ``keyed`` holds ``(key, low, k)`` for every
    two-point bet with weight ``w = k/denominator`` on ``x_low``, by ``low``,
    then ``high``, then ``k``.  ``key`` is the ``Regime.NS_UTIL.key`` of the
    bet's expected utility ``w*u(x_low) + (1-w)*u(x_high)`` with its
    coefficient times ``scale``, a positive integer common to every key, so
    the keys order as the values do.

    The key reads only leading terms.  Each utility's is read once, as an
    exponent (``inf`` for zero) and an integer coefficient ``a`` scaled by
    the common denominator of them all, so that the bet's two terms are
    ``k*a`` and ``(denominator-k)*b`` in units of ``1/scale``.  Where the
    exponents differ, the smaller one's term leads.  Where they are equal
    the key is their sum, unless the sum is zero: only then does a deeper
    term lead, and only that bet is valued in full (:func:`_cancelled_key`).
    No :class:`NSReal` is added or multiplied otherwise."""
    utilities = [assignment.utility(outcome) for outcome in spec.outcome_ids]
    leads = [_lead(u) for u in utilities]
    common = lcm(*(c.denominator for _, c in leads))
    exponents = [e for e, _ in leads]
    coefficients = [c.numerator * (common // c.denominator) for _, c in leads]
    scale = common * denominator
    ks = range(1, denominator)
    low_terms = [[k * a for k in ks] for a in coefficients]
    high_terms = [[(denominator - k) * b for k in ks] for b in coefficients]
    low_keys = [[_term_key(e, c) for c in cs] for e, cs in zip(exponents, low_terms)]
    high_keys = [[_term_key(e, c) for c in cs] for e, cs in zip(exponents, high_terms)]
    keyed: list[tuple[Key, int, int]] = []
    for low in range(spec.n):
        e = exponents[low]
        for high in range(low + 1, spec.n):
            other = exponents[high]
            if e < other or e == other == inf:
                keys = low_keys[low]
            elif e > other:
                keys = high_keys[high]
            else:
                keys = [
                    _term_key(e, c) if c
                    else _cancelled_key(utilities[low], utilities[high], Fraction(k, denominator), scale)
                    for k, c in zip(ks, map(add, low_terms[low], high_terms[high]))
                ]
            keyed.extend(zip(keys, repeat(low), ks))
    return scale, keyed


def _cancelled_key(u_low: NSReal, u_high: NSReal, w: Fraction, scale: int) -> Key:
    """The key of :func:`_bet_keys` for a bet whose two leading terms cancel,
    read off the exact sum ``w*u_low + (1-w)*u_high``."""
    e, c = _lead(w * u_low + (1 - w) * u_high)
    return _term_key(e, c * scale)


def maximin_sweep(spec: MaximinSpec, denominator: int) -> tuple[int, int]:
    """Compare every two-point bet with weight k/denominator on its low
    outcome against every other such bet, by qualitative expected utility
    and by the rule of :func:`maximin_compare_oracle`.  Returns the number
    of comparisons and how many of them the two disagree on.

    Values compare as their ``Regime.NS_UTIL.key`` (:func:`compare_values`)
    and the rule reads only ``(low, w)``, so bets sharing ``(key, low, w)``
    form one of ``G <= B`` groups with the same verdicts, where
    ``B = C(N,2)*(denominator-1)`` is the number of bets.  Each bet's key is
    formed from the utilities' leading terms in integers (:func:`_bet_keys`),
    with no :class:`Lottery` built and no value computed, and ``w`` is held
    as its grid index ``k``: each orders as what it stands for, and no
    ``Fraction`` is hashed or compared while the groups are formed and
    counted, bar a bet whose leading terms cancel.  The disagreements are
    counted from the two orders of the groups (:func:`_group_disagreements`),
    so a sweep costs ``O(N*denominator)`` integer products, ``B`` tuples
    (and an integer sum per bet where two leading exponents are equal), and
    a sort and a Fenwick pass over the ``G`` groups: ``O(B + G log G)``
    comparisons.  Under :func:`maximin_utilities` a bet's low outcome has
    the smaller exponent, so its key ignores ``high`` and
    ``G = (N-1)*(denominator-1)``."""
    _require_denominator(denominator)
    _, keyed = _bet_keys(spec, maximin_utilities(spec), denominator)
    return len(keyed) ** 2, _group_disagreements(Counter(keyed))


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
