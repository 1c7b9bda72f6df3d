"""Tests for the worst-case preference encoding."""

import itertools
import random
from collections import Counter
from fractions import Fraction
from math import comb, inf

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qualutil.criteria
from conftest import nsreals
from oracles import (
    oracle_group_disagreements,
    oracle_maximin_sweep,
    oracle_worst_case_rule,
    positive_ladder_utilities,
)
from qualutil import (
    IndexOrder,
    InvalidWeight,
    MaximinSpec,
    PrefOrdering,
    UtilityAssignment,
    best_case_power_utilities,
    eps,
    expected_utility,
    grid_weights,
    maximin_compare_oracle,
    maximin_utilities,
    qualitative_prefers,
    two_point_lottery,
)
from qualutil.cli import MAXIMIN_SWEEP_LIMIT
from qualutil.criteria import _group_disagreements, _worst_case_key, maximin_sweep

F = Fraction


def test_spec_requires_at_least_two_outcomes():
    with pytest.raises(ValueError):
        MaximinSpec(1)
    spec = MaximinSpec(3)
    assert spec.outcome_ids == ("x0", "x1", "x2")
    assert spec.outcome(2) == "x2"
    with pytest.raises(IndexError):
        spec.outcome(3)
    with pytest.raises(IndexError):
        spec.outcome(-1)


def test_utilities_are_signed_negative_powers():
    spec = MaximinSpec(3)
    utilities = maximin_utilities(spec)
    assert utilities.signed
    assert utilities.utility("x0") == -eps(-2)
    assert utilities.utility("x1") == -eps(-1)
    assert utilities.utility("x2") == -eps(0)
    # Worst outcome carries the most negative value.
    assert utilities.utility("x0") < utilities.utility("x1") < utilities.utility("x2")


def test_two_point_lottery_shape_and_validation():
    spec = MaximinSpec(4)
    gamble = two_point_lottery(spec, 1, F(1, 4), 3)
    assert gamble.probability("x1") == F(1, 4)
    assert gamble.probability("x3") == F(3, 4)
    with pytest.raises(IndexOrder):
        two_point_lottery(spec, 2, F(1, 2), 2)
    with pytest.raises(IndexOrder):
        two_point_lottery(spec, 3, F(1, 2), 1)
    with pytest.raises(IndexError):
        two_point_lottery(spec, 0, F(1, 2), 4)
    with pytest.raises(InvalidWeight):
        two_point_lottery(spec, 0, F(0), 1)
    with pytest.raises(InvalidWeight):
        two_point_lottery(spec, 0, F(5, 4), 1)


def test_oracle_ranks_by_worst_outcome_then_its_probability():
    spec = MaximinSpec(4)
    # Different worst outcomes: the better floor wins regardless of weights.
    assert (
        maximin_compare_oracle(spec, 1, F(7, 8), 2, 0, F(1, 8), 3)
        is PrefOrdering.BETTER
    )
    # Same floor: less chance of hitting it wins.
    assert (
        maximin_compare_oracle(spec, 1, F(1, 4), 3, 1, F(1, 2), 2)
        is PrefOrdering.BETTER
    )
    # Same floor, same chance: upside is ignored entirely.
    assert (
        maximin_compare_oracle(spec, 1, F(1, 2), 3, 1, F(1, 2), 2)
        is PrefOrdering.INDIFFERENT
    )


def test_expected_utility_comparison_matches_oracle_exhaustively():
    spec = MaximinSpec(3)
    utilities = maximin_utilities(spec)
    weights = [F(k, 4) for k in range(1, 4)]
    gambles = [
        (low, w, high)
        for low, high in itertools.combinations(range(3), 2)
        for w in weights
    ]
    for first, second in itertools.product(gambles, repeat=2):
        expected = maximin_compare_oracle(spec, *first, *second)
        actual = qualitative_prefers(
            two_point_lottery(spec, *first),
            two_point_lottery(spec, *second),
            utilities,
        )
        assert actual is expected, (first, second)


def test_expected_utility_comparison_matches_oracle_sampled_at_larger_n():
    spec = MaximinSpec(6)
    utilities = maximin_utilities(spec)
    rng = random.Random(6)
    for _ in range(300):
        low, high = sorted(rng.sample(range(6), 2))
        other_low, other_high = sorted(rng.sample(range(6), 2))
        w = F(rng.randint(1, 11), 12)
        other_w = F(rng.randint(1, 11), 12)
        expected = maximin_compare_oracle(
            spec, low, w, high, other_low, other_w, other_high
        )
        actual = qualitative_prefers(
            two_point_lottery(spec, low, w, high),
            two_point_lottery(spec, other_low, other_w, other_high),
            utilities,
        )
        assert actual is expected


def test_positive_power_contrast_ranks_by_best_outcome_instead():
    # The nonnegative mirror image grades gambles by their upside, so it
    # disagrees with the worst-case oracle: raising the floor from x0 to x1
    # while keeping the x2 upside should matter, but the contrast encoding
    # is indifferent to it.
    spec = MaximinSpec(3)
    contrast = best_case_power_utilities(spec)
    assert not contrast.signed
    floor_raised = two_point_lottery(spec, 1, F(1, 2), 2)
    floor_low = two_point_lottery(spec, 0, F(1, 2), 2)
    assert (
        maximin_compare_oracle(spec, 1, F(1, 2), 2, 0, F(1, 2), 2)
        is PrefOrdering.BETTER
    )
    assert (
        qualitative_prefers(floor_raised, floor_low, contrast)
        is PrefOrdering.INDIFFERENT
    )


@pytest.mark.parametrize("n", range(2, 8))
def test_sweep_equals_the_per_comparison_oracle(n):
    spec = MaximinSpec(n)
    for d in range(2, 9):
        bets = comb(n, 2) * (d - 1)
        assert bets**2 <= MAXIMIN_SWEEP_LIMIT
        assert maximin_sweep(spec, d) == oracle_maximin_sweep(spec, d) == (bets**2, 0)


@pytest.mark.parametrize("n, d", [(3, 4), (4, 6), (5, 8), (6, 3)])
def test_sweep_and_oracle_count_the_same_contrast_disagreements(monkeypatch, n, d):
    # Under the best-case encoding the two must still count every
    # disagreement alike, so the sweep's fast path cannot hide one.
    monkeypatch.setattr(qualutil.criteria, "maximin_utilities", best_case_power_utilities)
    spec = MaximinSpec(n)
    total, disagreements = maximin_sweep(spec, d)
    assert disagreements > 0
    assert (total, disagreements) == oracle_maximin_sweep(spec, d)


@pytest.mark.parametrize("n, d, expected", [(3, 4, 66), (4, 6, 830), (5, 5, 1480)])
def test_sweep_counts_each_disagreement_of_a_group_by_its_size(monkeypatch, n, d, expected):
    # Positive infinite ladders key a bet by its worst outcome's term, as
    # the maximin encoding does, so several bets share each key, and they
    # rank the worst outcome first: every group disagrees with the rule
    # somewhere and must count once per pair of bets it holds.
    monkeypatch.setattr(qualutil.criteria, "maximin_utilities", positive_ladder_utilities)
    spec = MaximinSpec(n)
    bets = comb(n, 2) * (d - 1)
    assert maximin_sweep(spec, d) == oracle_maximin_sweep(spec, d) == (bets**2, expected)
    assert expected > 0


@pytest.mark.parametrize("n, d", [(2, 2), (3, 4), (5, 8), (10, 8)])
def test_sweep_ranks_each_group_once_and_compares_no_pair_of_groups(monkeypatch, n, d):
    # The work of a sweep is fixed: under the maximin encoding a bet's key
    # ignores its upper outcome, so each of the (N-1)*(D-1) groups gets one
    # rule key, and the count comes from the two orders, not from the rule
    # applied to pairs of groups.
    calls = 0
    rule_key = qualutil.criteria._worst_case_key

    def counted(*args):
        nonlocal calls
        calls += 1
        return rule_key(*args)

    def refuse(*args):
        raise AssertionError("the sweep compared a pair of groups")

    monkeypatch.setattr(qualutil.criteria, "_worst_case_key", counted)
    monkeypatch.setattr(qualutil.criteria, "_worst_case_rule", refuse)
    assert maximin_sweep(MaximinSpec(n), d) == ((comb(n, 2) * (d - 1)) ** 2, 0)
    assert calls == (n - 1) * (d - 1)


@pytest.mark.parametrize("n", range(2, 6))
def test_the_rule_is_the_order_of_its_key(n):
    # maximin_compare_oracle and the sweep read the rule through one key;
    # its order must be the rule stated case by case on every pair of bets.
    spec = MaximinSpec(n)
    for d in range(2, 7):
        bets = [
            (low, w, high)
            for low in range(n)
            for high in range(low + 1, n)
            for w in grid_weights(d)
        ]
        for (low, w, high), (low2, w2, high2) in itertools.product(bets, repeat=2):
            key, other = _worst_case_key(low, w), _worst_case_key(low2, w2)
            by_key = (
                PrefOrdering.BETTER if key > other
                else PrefOrdering.WORSE if key < other
                else PrefOrdering.INDIFFERENT
            )
            assert by_key is oracle_worst_case_rule(low, w, low2, w2), (n, d, low, w, low2, w2)
            assert by_key is maximin_compare_oracle(spec, low, w, high, low2, w2, high2)


# Value keys of the qualitative shape, zero's among them, few enough that
# groups often tie on the key, on (low, w), or on neither.
_GROUP_KEYS = [(0, -1, F(-2)), (0, 0, F(-1, 2)), (1, -inf, F(0)), (1, 0, F(1, 3)), (1, 0, F(2, 3))]
_groups = st.dictionaries(
    st.tuples(
        st.sampled_from(_GROUP_KEYS),
        st.integers(min_value=0, max_value=2),
        st.sampled_from([F(1, 4), F(1, 2), F(3, 4)]),
    ),
    st.integers(min_value=1, max_value=4),
    max_size=12,
).map(Counter)


@given(_groups)
@example(Counter({(_GROUP_KEYS[0], 0, F(1, 2)): 1, (_GROUP_KEYS[0], 1, F(1, 4)): 1}))
@example(Counter({(_GROUP_KEYS[0], 1, F(1, 2)): 1, (_GROUP_KEYS[3], 1, F(1, 2)): 1}))
@example(Counter({(_GROUP_KEYS[1], 0, F(3, 4)): 3, (_GROUP_KEYS[4], 2, F(1, 4)): 2}))
@example(Counter())
def test_ranked_group_count_equals_the_pairwise_count(groups):
    # The examples tie on the value key only, on (low, w) only, and hold
    # several bets a group.
    assert _group_disagreements(groups) == oracle_group_disagreements(groups)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=4), st.integers(min_value=2, max_value=4), st.data())
def test_sweep_counts_exactly_on_any_signed_assignment(n, d, data):
    # The sweep scales each key's coefficient by the common denominator of
    # them all; on utilities of any sign, zero included, with coefficients
    # of several denominators, it must still count what the plain loop does.
    utilities = data.draw(st.lists(nsreals, min_size=n, max_size=n))
    spec = MaximinSpec(n)
    assignment = UtilityAssignment.from_mapping(dict(zip(spec.outcome_ids, utilities)), signed=True)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(qualutil.criteria, "maximin_utilities", lambda spec: assignment)
        assert maximin_sweep(spec, d) == oracle_maximin_sweep(spec, d)


def test_sweep_values_each_bet_as_its_expected_utility(monkeypatch):
    # The sweep sums each bet's two terms without building its lottery; the
    # sums must be the validated path's expected utilities, bet by bet.
    for utilities in (maximin_utilities, best_case_power_utilities, positive_ladder_utilities):
        for n in range(2, 8):
            spec = MaximinSpec(n)
            assignment = utilities(spec)
            for d in range(2, 9):
                values = list(qualutil.criteria._bet_values(spec, assignment, grid_weights(d)))
                assert [(low, high, w) for low, high, w, _ in values] == [
                    (low, high, F(k, d))
                    for low in range(n)
                    for high in range(low + 1, n)
                    for k in range(1, d)
                ]
                for low, high, w, value in values:
                    lottery = two_point_lottery(spec, low, w, high)
                    assert value == expected_utility(lottery, assignment), (n, d, low, high, w)

    def refuse(*args):
        raise AssertionError("the sweep built a lottery")

    monkeypatch.setattr(qualutil.criteria, "two_point_lottery", refuse)
    for n, d in [(2, 2), (4, 5), (6, 8)]:
        assert maximin_sweep(MaximinSpec(n), d) == ((comb(n, 2) * (d - 1)) ** 2, 0)
