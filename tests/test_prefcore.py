"""Tests for lotteries, expected utility, and the preference comparisons."""

import itertools
import random
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import qualutil.prefcore
from conftest import nonnegative_nsreals, nsreals, unit_weights
from oracles import (
    brute_force_overrides,
    oracle_close_under_mixtures,
    oracle_compare_values,
    oracle_property_P_failure,
    oracle_rank,
    oracle_threshold_shaped,
    random_structure,
    random_tilted_lottery,
    three_outcome_structure,
)
from qualutil import (
    AAModel,
    ClosureTooLarge,
    Counterexample,
    EPS,
    InfiniteValue,
    InvalidParameter,
    InvalidWeight,
    Lottery,
    MaximinSpec,
    MissingUtility,
    NSReal,
    ONE,
    PreconditionViolated,
    PrefOrdering,
    PrefStructure,
    RationalInterval,
    Regime,
    UtilityAssignment,
    ZERO,
    check_property_P,
    close_under_mixtures,
    compare_values,
    constant_act,
    eps,
    expected_utility,
    grid_weights,
    is_negligible,
    lexicographic_mix,
    load_model,
    mix,
    overrides,
    overrides_values,
    prefers,
    qualitative_prefers,
    rational,
    replay,
)
from qualutil.criteria import maximin_sweep
from qualutil.fixtures import consolation_document, dice_document, fixture_path

F = Fraction


def lottery(**probs):
    return Lottery.from_mapping(
        {name: rational(F(value)) if not hasattr(value, "terms") else value
         for name, value in probs.items()}
    )


STANDARD_UTILITIES = UtilityAssignment.from_mapping(
    {"best": rational(1), "mid": rational(F(1, 2)), "worst": rational(0)}
)


# --- lotteries ---------------------------------------------------------------


def test_lottery_sorts_support_and_drops_zero_entries():
    lot = Lottery.from_mapping(
        {"b": rational(F(1, 2)), "a": rational(F(1, 2)), "c": rational(0)}
    )
    assert lot.support == ("a", "b")
    assert lot.probability("c") == ZERO
    assert lot.probability("a") == F(1, 2)


def test_lottery_requires_exact_unit_mass():
    with pytest.raises(ValueError, match="sum"):
        Lottery.from_mapping({"a": rational(F(1, 3)), "b": rational(F(1, 3))})
    with pytest.raises(ValueError, match="negative"):
        Lottery.from_mapping({"a": rational(F(3, 2)), "b": rational(F(-1, 2))})
    with pytest.raises(ValueError):
        Lottery.from_mapping({})


@pytest.mark.parametrize(
    "mapping", [{}, {"a": rational(0), "b": rational(0)}], ids=["empty", "all-zero"]
)
def test_lottery_without_outcomes_is_refused_as_such(mapping):
    with pytest.raises(InvalidParameter, match="a lottery needs at least one outcome"):
        Lottery.from_mapping(mapping)


def test_lottery_mass_can_include_infinitesimals():
    tilted = Lottery.from_mapping(
        {"a": rational(F(1, 2)) + EPS, "b": rational(F(1, 2)) - EPS}
    )
    assert not tilted.is_standard()
    assert tilted.probability("a") == rational(F(1, 2)) + EPS


def test_degenerate_lottery():
    sure = Lottery.degenerate("win")
    assert sure.support == ("win",)
    assert sure.probability("win") == ONE


def test_equal_lotteries_hash_equal():
    a = Lottery.from_mapping({"x": rational(F(1, 4)), "y": rational(F(3, 4))})
    b = mix(F(1, 4), Lottery.degenerate("x"), Lottery.degenerate("y"))
    assert a == b
    assert len({a, b}) == 1


# --- utility assignments -----------------------------------------------------


def test_assignment_rejects_negative_values_unless_signed():
    with pytest.raises(ValueError, match="signed"):
        UtilityAssignment.from_mapping({"a": rational(-1)})
    signed = UtilityAssignment.from_mapping({"a": rational(-1)}, signed=True)
    assert signed.utility("a") == rational(-1)
    assert signed.signed


def test_assignment_unknown_outcome_raises():
    with pytest.raises(MissingUtility):
        STANDARD_UTILITIES.utility("nosuch")


def test_expected_utility_weighs_outcomes():
    fifty = lottery(best=F(1, 2), worst=F(1, 2))
    assert expected_utility(fifty, STANDARD_UTILITIES) == rational(F(1, 2))
    sure = Lottery.degenerate("mid")
    assert expected_utility(sure, STANDARD_UTILITIES) == rational(F(1, 2))


def test_expected_utility_missing_outcome_raises():
    orphan = Lottery.degenerate("nosuch")
    with pytest.raises(MissingUtility):
        expected_utility(orphan, STANDARD_UTILITIES)


# --- mixing ------------------------------------------------------------------


def test_mix_combines_probabilities_exactly():
    a = lottery(best=1)
    b = lottery(worst=1)
    mixed = mix(F(1, 3), a, b)
    assert mixed.probability("best") == F(1, 3)
    assert mixed.probability("worst") == F(2, 3)


def test_mix_rejects_degenerate_weights():
    a, b = lottery(best=1), lottery(worst=1)
    for bad in (F(0), F(1), F(3, 2), F(-1, 4)):
        with pytest.raises(InvalidWeight):
            mix(bad, a, b)


def test_mix_weight_standardness_depends_on_regime():
    a, b = lottery(best=1), lottery(worst=1)
    for regime in (Regime.STD, Regime.NS_UTIL):
        with pytest.raises(InvalidWeight):
            mix(EPS, a, b, regime=regime)
    tilted = mix(EPS, a, b, regime=Regime.NS_PROB)
    assert tilted.probability("best") == EPS
    assert mix(EPS, a, b).probability("best") == EPS


@given(unit_weights)
def test_expected_utility_is_linear_in_mixing(weight):
    a = lottery(best=F(1, 2), mid=F(1, 2))
    b = lottery(worst=F(2, 3), best=F(1, 3))
    mixed = mix(weight, a, b)
    direct = expected_utility(mixed, STANDARD_UTILITIES)
    combined = (
        expected_utility(a, STANDARD_UTILITIES) * weight
        + expected_utility(b, STANDARD_UTILITIES) * (1 - weight)
    )
    assert direct == combined


# --- comparisons -------------------------------------------------------------


def test_compare_values_std_is_plain_order():
    assert compare_values(rational(1), rational(0), Regime.STD) is PrefOrdering.BETTER
    assert (
        compare_values(rational(1), rational(1), Regime.STD)
        is PrefOrdering.INDIFFERENT
    )
    # Even an infinitesimal gap decides in the plain ring order.
    assert compare_values(ONE + EPS, ONE, Regime.STD) is PrefOrdering.BETTER


def test_compare_values_ns_util_discards_relative_infinitesimals():
    assert (
        compare_values(ONE + EPS, ONE, Regime.NS_UTIL) is PrefOrdering.INDIFFERENT
    )
    assert compare_values(EPS, EPS * F(1, 12), Regime.NS_UTIL) is PrefOrdering.BETTER
    assert compare_values(EPS, ZERO, Regime.NS_UTIL) is PrefOrdering.BETTER


def test_compare_values_ns_prob_compares_standard_parts():
    assert (
        compare_values(rational(F(1, 2)) + EPS, rational(F(1, 2)), Regime.NS_PROB)
        is PrefOrdering.INDIFFERENT
    )
    assert compare_values(EPS, ZERO, Regime.NS_PROB) is PrefOrdering.INDIFFERENT
    assert (
        compare_values(rational(F(2, 3)), rational(F(1, 3)), Regime.NS_PROB)
        is PrefOrdering.BETTER
    )


@pytest.mark.parametrize("regime", list(Regime), ids=lambda regime: regime.value)
@given(x=nsreals, y=nsreals)
def test_compare_values_is_the_definitional_order(regime, x, y):
    # Signed, zero and infinite operands, and pairs level in NS_UTIL and
    # NS_PROB yet apart in STD: x against x * (1 + eps).
    for left, right in ((x, y), (y, x), (x, ZERO), (ZERO, y), (x, x), (x, x * (ONE + EPS))):
        try:
            expected = oracle_compare_values(left, right, regime)
        except InfiniteValue:
            with pytest.raises(InfiniteValue):
                compare_values(left, right, regime)
        else:
            assert compare_values(left, right, regime) is expected


def test_compare_values_and_ranks_are_the_definitional_order_on_a_seeded_corpus():
    # Zero and twenty signed values of up to three terms, each beside
    # v * (1 + eps).  The definitional ranking, against which the audit's
    # integer ranking is tested, must order every pair as the oracle does.
    rng = random.Random(18)
    values = [ZERO]
    while len(values) < 40:
        terms = [
            (rng.randint(-2, 2), F(rng.randint(-4, 4), rng.randint(1, 3)))
            for _ in range(rng.randint(1, 3))
        ]
        value = NSReal.from_terms(terms)
        values += [value, value * (ONE + EPS)]
    orderings = {1: PrefOrdering.BETTER, 0: PrefOrdering.INDIFFERENT, -1: PrefOrdering.WORSE}
    for regime in Regime:
        for x, y in itertools.product(values, repeat=2):
            try:
                expected = oracle_compare_values(x, y, regime)
            except InfiniteValue:
                with pytest.raises(InfiniteValue):
                    compare_values(x, y, regime)
            else:
                assert compare_values(x, y, regime) is expected, (regime, x, y)
        pool = [v for v in values if regime is not Regime.NS_PROB or v.is_finite()]
        rank, _ = oracle_rank(pool, regime)
        for i, j in itertools.product(range(len(pool)), repeat=2):
            ordering = orderings[(rank[i] > rank[j]) - (rank[i] < rank[j])]
            assert ordering is oracle_compare_values(pool[i], pool[j], regime), (regime, i, j)


def test_prefers_and_flipped_are_consistent():
    best, worst = lottery(best=1), lottery(worst=1)
    for regime in Regime:
        verdict = prefers(best, worst, STANDARD_UTILITIES, regime)
        assert verdict is PrefOrdering.BETTER
        assert prefers(worst, best, STANDARD_UTILITIES, regime) is verdict.flipped()


def test_qualitative_prefers_values_tiny_chances():
    prize = UtilityAssignment.from_mapping(
        {"win": rational(1), "nothing": rational(0)}
    )
    big_chance = Lottery.from_mapping({"win": EPS, "nothing": ONE - EPS})
    small_chance = Lottery.from_mapping(
        {"win": EPS * F(1, 12), "nothing": ONE - EPS * F(1, 12)}
    )
    assert qualitative_prefers(big_chance, small_chance, prize) is PrefOrdering.BETTER
    assert qualitative_prefers(small_chance, big_chance, prize) is PrefOrdering.WORSE
    # Under standard-part comparison the two collapse together.
    assert prefers(big_chance, small_chance, prize, Regime.NS_PROB) is (
        PrefOrdering.INDIFFERENT
    )


# --- overriding --------------------------------------------------------------


def test_overrides_values_requires_nonnegative_inputs():
    with pytest.raises(PreconditionViolated):
        overrides_values(rational(1), rational(-1))
    with pytest.raises(PreconditionViolated):
        overrides_values(rational(-1), rational(0))


def test_overrides_values_spot_checks():
    assert overrides_values(ONE, EPS)
    assert overrides_values(ONE, ZERO)
    assert overrides_values(EPS, eps(2))
    assert not overrides_values(ONE, rational(F(1, 2)))
    assert not overrides_values(EPS, EPS * F(1, 12))
    assert not overrides_values(EPS, ONE)
    assert not overrides_values(ONE, ONE)
    assert not overrides_values(ONE + EPS, ONE)


def test_overrides_lottery_level_requires_unsigned_assignment():
    signed = UtilityAssignment.from_mapping(
        {"up": rational(1), "down": rational(-1)}, signed=True
    )
    with pytest.raises(PreconditionViolated):
        overrides(Lottery.degenerate("up"), Lottery.degenerate("down"), signed)


def test_overrides_matches_expected_utility_rule():
    prize = UtilityAssignment.from_mapping(
        {"jackpot": rational(1), "token": EPS, "nothing": rational(0)}
    )
    assert overrides(
        Lottery.degenerate("jackpot"), Lottery.degenerate("token"), prize
    )
    assert overrides(Lottery.degenerate("token"), Lottery.degenerate("nothing"), prize)
    fifty = Lottery.from_mapping(
        {"jackpot": rational(F(1, 2)), "nothing": rational(F(1, 2))}
    )
    assert not overrides(Lottery.degenerate("jackpot"), fifty, prize)


@given(nonnegative_nsreals, nonnegative_nsreals, st.integers(0, 2**30))
def test_overrides_values_agrees_with_definitional_sweep(top, bottom, seed):
    rng = random.Random(seed)
    pool = [top, bottom, rational(1), EPS, rational(F(1, 2)) + EPS]
    rng.shuffle(pool)
    assert overrides_values(top, bottom) == brute_force_overrides(top, bottom, pool)


# --- grids and closures ------------------------------------------------------


def test_grid_weights_exclude_endpoints():
    assert grid_weights(4) == (F(1, 4), F(1, 2), F(3, 4))
    with pytest.raises(InvalidParameter, match="^grid denominator must be at least 2$"):
        grid_weights(1)


def test_close_under_mixtures_grows_then_stabilizes():
    a, b = lottery(best=1), lottery(worst=1)
    base = close_under_mixtures([a, b], denominator=2, depth=0)
    assert base == (a, b)
    once = close_under_mixtures([a, b], denominator=2, depth=1)
    assert len(once) == 3
    assert mix(F(1, 2), a, b) in once
    twice = close_under_mixtures([a, b], denominator=2, depth=2)
    assert set(once) <= set(twice)
    assert len(twice) == 5


def test_close_under_mixtures_deduplicates_exactly():
    a = lottery(best=F(1, 2), worst=F(1, 2))
    b = lottery(best=F(1, 2), worst=F(1, 2))
    assert close_under_mixtures([a, b], denominator=2, depth=1) == (a,)


def test_close_under_mixtures_refuses_only_past_its_limit():
    a, b = lottery(best=1), lottery(worst=1)
    twice = close_under_mixtures([a, b], denominator=2, depth=2)
    assert close_under_mixtures([a, b], denominator=2, depth=2, limit=5) == twice
    with pytest.raises(ClosureTooLarge, match="4 lotteries in round 2 of 2"):
        close_under_mixtures([a, b], denominator=2, depth=2, limit=4)
    with pytest.raises(ClosureTooLarge, match="generators alone"):
        close_under_mixtures([a, b], denominator=2, depth=0, limit=1)


def test_huge_closure_depth_costs_only_the_rounds_it_builds():
    # The scale grows by one grid step per round, so refusing in round 2
    # costs no digits for the rounds after it.
    generators = load_model(fixture_path("dice")).structure().generators
    tracemalloc.start()
    try:
        with pytest.raises(ClosureTooLarge, match="round 2 of 1000000$"):
            close_under_mixtures(generators, 8, 10**6, limit=64)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_close_under_mixtures_rejects_empty_input():
    with pytest.raises(ValueError):
        close_under_mixtures([], denominator=2, depth=1)


def closure_or_error(build, *args, **kwargs):
    """``build(*args, **kwargs)``, or the type and message of the
    ``InvalidParameter`` or ``ClosureTooLarge`` it raises."""
    try:
        return build(*args, **kwargs)
    except (InvalidParameter, ClosureTooLarge) as error:
        return type(error), str(error)


def random_generators(rng, family):
    """One to four generators: standard ones drawn as for an STD or NS_UTIL
    structure, nonstandard ones as for NS_PROB, or ones carrying up to
    three powers of eps."""
    count = rng.randint(1, 4)
    if family == "ns-prob-eps-powers":
        return [random_tilted_lottery(rng, ["a", "b", "c", "d"]) for _ in range(count)]
    return list(random_structure(rng, Regime(family), generator_count=count).generators)


@pytest.mark.parametrize("family", ["std", "ns-util", "ns-prob", "ns-prob-eps-powers"])
def test_close_under_mixtures_matches_the_mix_oracle(family):
    """Equal tuples in equal order at depth 0-2 and grid 2-8, and equal
    refusals at limits 1, 3, n - 1 and n."""
    for seed in range(21):
        rng = random.Random(f"{family}-{seed}")
        generators = random_generators(rng, family)
        depth, denominator = seed % 3, 2 + seed // 3
        closure = close_under_mixtures(generators, denominator, depth)
        assert closure == oracle_close_under_mixtures(generators, denominator, depth)
        for limit in sorted({1, 3, len(closure) - 1, len(closure)}):
            assert closure_or_error(
                close_under_mixtures, generators, denominator, depth, limit=limit
            ) == closure_or_error(
                oracle_close_under_mixtures, generators, denominator, depth, limit=limit
            )


@pytest.mark.parametrize(
    "generators, message",
    [
        ([lottery(best=1), Lottery((("best", rational(F(1, 2))),))], "sum to exactly 1"),
        ([Lottery((("best", rational(F(1, 2))),)), lottery(best=1)], "sum to exactly 1"),
        ([lottery(best=1), Lottery((("best", rational(2)), ("worst", rational(-1))))],
         "negative probability for outcome 'worst'"),
        ([Lottery(()), lottery(worst=1)], "sum to exactly 1"),
        ([lottery(best=1), Lottery((("best", rational(F(-1, 2))),))], "at least one outcome"),
    ],
    ids=["second-sums-to-half", "first-sums-to-half", "negative", "empty", "mixes-to-nothing"],
)
def test_close_under_mixtures_rejects_a_raw_generator_like_the_oracle(generators, message):
    """A generator built with the raw constructor that ``Lottery.from_mapping``
    would reject raises the same ``InvalidParameter`` on its first mix."""
    for depth in (1, 2):
        for limit in (None, 2, 3):
            result = closure_or_error(close_under_mixtures, generators, 3, depth, limit=limit)
            assert result == closure_or_error(
                oracle_close_under_mixtures, generators, 3, depth, limit=limit
            )
    with pytest.raises(InvalidParameter, match=message):
        close_under_mixtures(generators, 3, 1)
    assert close_under_mixtures(generators, 3, 0) == tuple(generators)


def test_generators_are_deduplicated_as_lotteries():
    """Repeats of a lottery, the same object or an equal one, collapse to
    the first passed in.  A raw-constructed lottery with the same
    probabilities out of order, or with a zero entry, has the same vector
    but is a different ``Lottery``, so it stays a generator of its own, as
    deduplicating the lotteries keeps it."""
    half = lottery(best=F(1, 2), worst=F(1, 2))
    equal = lottery(best=F(1, 2), worst=F(1, 2))
    unsorted = Lottery((("worst", rational(F(1, 2))), ("best", rational(F(1, 2)))))
    padded = Lottery((("best", rational(F(1, 2))), ("middle", ZERO), ("worst", rational(F(1, 2)))))
    generators = [half, equal, unsorted, half, padded, unsorted, lottery(best=1)]
    for depth in (0, 1):
        closure = close_under_mixtures(generators, 3, depth)
        assert closure == oracle_close_under_mixtures(generators, 3, depth)
        assert closure[:4] == (half, unsorted, padded, lottery(best=1))
        assert closure[0] is half and closure[1] is unsorted and closure[2] is padded
    for limit in (3, 4):
        assert closure_or_error(
            close_under_mixtures, generators, 3, 0, limit=limit
        ) == closure_or_error(oracle_close_under_mixtures, generators, 3, 0, limit=limit)


@pytest.mark.parametrize(
    "name, members, against_oracle",
    [
        ("three-outcome", 942, True),
        ("dice", 4181, True),
        ("maximin3", 4680, False),
        ("surgery", 8611, False),
        ("consolation", 11204, False),
    ],
)
def test_depth_two_grid_eight_closure_sizes(name, members, against_oracle):
    """The closures ROADMAP's depth-2 plans are measured on; the oracle
    comparison is limited to the two smallest to keep the suite fast."""
    if name == "three-outcome":
        generators = three_outcome_structure().generators
    else:
        generators = load_model(fixture_path(name)).structure().generators
    closure = close_under_mixtures(generators, 8, 2)
    assert len(closure) == members
    assert closure[: len(set(generators))] == tuple(dict.fromkeys(generators))
    if against_oracle:
        assert closure == oracle_close_under_mixtures(generators, 8, 2)


@pytest.mark.parametrize("name", ["consolation", "dice", "maximin3", "surgery"])
def test_bundled_closures_at_depth_one_match_the_mix_oracle(name):
    generators = load_model(fixture_path(name)).structure().generators
    for grid in (3, 4):
        closure = close_under_mixtures(generators, grid, 1)
        assert closure == oracle_close_under_mixtures(generators, grid, 1), grid


# --- negligible weights ------------------------------------------------------


def test_is_negligible_on_separating_generators():
    gens = [lottery(best=1), lottery(worst=1)]
    assert is_negligible(EPS, STANDARD_UTILITIES, gens)
    assert is_negligible(EPS * F(1, 2), STANDARD_UTILITIES, gens)
    assert not is_negligible(F(1, 2), STANDARD_UTILITIES, gens)
    assert not is_negligible(ONE - EPS, STANDARD_UTILITIES, gens)


def test_is_negligible_trivially_true_on_indifferent_generators():
    # Every mixture of indifferent lotteries stays indifferent, so every
    # weight is negligible relative to this degenerate set.
    gens = [lottery(best=1), lottery(best=1)]
    assert is_negligible(F(1, 2), STANDARD_UTILITIES, gens)


def test_is_negligible_validates_weight():
    gens = [lottery(best=1), lottery(worst=1)]
    with pytest.raises(InvalidWeight):
        is_negligible(F(0), STANDARD_UTILITIES, gens)
    with pytest.raises(InvalidWeight):
        is_negligible(F(1), STANDARD_UTILITIES, gens)
    with pytest.raises(TypeError):
        is_negligible(0.5, STANDARD_UTILITIES, gens)


def test_is_negligible_refuses_bad_arguments():
    gens = [lottery(best=1), lottery(worst=1)]
    for denominator in (1, 2.0, True):
        with pytest.raises(InvalidParameter):
            is_negligible(EPS, STANDARD_UTILITIES, gens, denominator=denominator)
    for depth in (-1, 1.0, True):
        with pytest.raises(InvalidParameter):
            is_negligible(EPS, STANDARD_UTILITIES, gens, depth=depth)
    with pytest.raises(InvalidParameter):
        is_negligible(EPS, STANDARD_UTILITIES, [])
    with pytest.raises(MissingUtility):
        is_negligible(EPS, STANDARD_UTILITIES, [lottery(best=1), lottery(other=1)])


def test_is_negligible_takes_standard_parts_before_reading_the_weight():
    # An infinitesimal weight would be negligible on any set, but an
    # infinite value has no standard part.
    infinite = UtilityAssignment.from_mapping({"best": eps(-1), "worst": rational(0)})
    gens = [lottery(best=1), lottery(worst=1)]
    for weight in (EPS, F(1, 2)):
        with pytest.raises(InfiniteValue):
            is_negligible(weight, infinite, gens)


def test_is_negligible_builds_no_closure(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a closure was built")

    monkeypatch.setattr(qualutil.prefcore, "close_under_mixtures", refuse)
    dice = dice_document().structure()
    for depth in (2, 10**9):
        start = time.perf_counter()
        assert is_negligible(EPS, dice.utilities, dice.generators, 8, depth)
        assert not is_negligible(F(1, 2), dice.utilities, dice.generators, 8, depth)
        assert time.perf_counter() - start < 0.5


# --- the calibration property ------------------------------------------------


def test_property_p_standard_case_has_unique_threshold():
    report = check_property_P(
        Lottery.degenerate("mid"),
        Lottery.degenerate("best"),
        Lottery.degenerate("worst"),
        STANDARD_UTILITIES,
        Regime.STD,
    )
    assert report.holds
    assert report.unique_weight == F(1, 2)
    assert report.indifference_set.render() == "{1/2}"
    assert report.better_set.render() == "(1/2, 1)"
    assert report.worse_set.render() == "(0, 1/2)"
    assert report.monotone
    assert report.failure is None


def test_property_p_requires_strict_ordering():
    with pytest.raises(PreconditionViolated):
        check_property_P(
            Lottery.degenerate("best"),
            Lottery.degenerate("mid"),
            Lottery.degenerate("worst"),
            STANDARD_UTILITIES,
            Regime.STD,
        )


def test_property_p_fails_with_overriding_stakes():
    # Middle holds an infinitesimal prize; every standard mixture of the
    # top and bottom prizes lands strictly above it, so no calibration
    # weight exists.
    stakes = UtilityAssignment.from_mapping(
        {"top": rational(1), "tiny": EPS, "zero": rational(0)}
    )
    report = check_property_P(
        Lottery.degenerate("tiny"),
        Lottery.degenerate("top"),
        Lottery.degenerate("zero"),
        stakes,
        Regime.NS_UTIL,
    )
    assert not report.holds
    assert report.failure == "all_better"
    assert report.indifference_set.is_empty
    assert report.better_set.is_entire_unit_interval()


def test_property_p_ns_util_with_commensurate_stakes():
    stakes = UtilityAssignment.from_mapping(
        {"top": rational(1), "half": rational(F(1, 2)), "zero": rational(0)}
    )
    report = check_property_P(
        Lottery.degenerate("half"),
        Lottery.degenerate("top"),
        Lottery.degenerate("zero"),
        stakes,
        Regime.NS_UTIL,
    )
    assert report.holds
    assert report.unique_weight == F(1, 2)


def test_property_p_ns_prob_indifference_can_be_an_interval():
    # With nonstandard probabilities the standard-part comparison flattens
    # an infinitesimal tilt, so indifference holds at the threshold point
    # only; spot-check the interval arithmetic stays exact.
    prize = UtilityAssignment.from_mapping(
        {"win": rational(1), "nothing": rational(0)}
    )
    middle = Lottery.from_mapping({"win": rational(F(1, 3)), "nothing": rational(F(2, 3))})
    report = check_property_P(
        middle,
        Lottery.degenerate("win"),
        Lottery.degenerate("nothing"),
        prize,
        Regime.NS_PROB,
    )
    assert report.holds
    assert report.unique_weight == F(1, 3)


def _property_P_on(best, middle, worst, regime=Regime.NS_UTIL):
    """Property P on three sure lotteries worth the three values."""
    utilities = UtilityAssignment.from_mapping(
        {"best": best, "middle": middle, "worst": worst}, signed=True
    )
    return check_property_P(
        Lottery.degenerate("middle"),
        Lottery.degenerate("best"),
        Lottery.degenerate("worst"),
        utilities,
        regime,
    )


def test_property_p_all_worse_when_the_worst_stake_dominates():
    # -(1-a)/eps leads every mixture of -eps and -1/eps: all below -1.
    report = _property_P_on(-EPS, rational(-1), -eps(-1))
    assert report.failure == "all_worse"
    assert report.worse_set.is_entire_unit_interval()
    assert report.monotone


def test_property_p_no_indifference_when_the_mixture_crosses_zero():
    # 2a - 1 jumps from below eps to above it at a = 1/2, where it is 0.
    report = _property_P_on(rational(1), EPS, rational(-1))
    assert report.failure == "no_indifference"
    assert report.worse_set.render() == "(0, 1/2]"
    assert report.better_set.render() == "(1/2, 1)"
    assert report.monotone


def test_property_p_requires_the_middle_to_beat_the_worst():
    with pytest.raises(PreconditionViolated, match="^middle lottery must beat the worst one$"):
        _property_P_on(rational(1), rational(0), rational(0), Regime.STD)


standard_values = st.fractions(min_value=F(-4), max_value=F(4), max_denominator=6).map(rational)
infinitesimal_tilts = st.fractions(min_value=F(1, 4), max_value=F(2), max_denominator=4).map(
    lambda c: c * EPS
)
P_FAMILIES = {
    "std": (Regime.STD, standard_values),
    "ns-prob": (Regime.NS_PROB, standard_values),
    "ns-util": (Regime.NS_UTIL, nonnegative_nsreals),
    "ns-util-nonpositive": (Regime.NS_UTIL, nonnegative_nsreals.map(lambda value: -value)),
    "ns-util-mixed": (Regime.NS_UTIL, nsreals),
}


@pytest.mark.parametrize("family", sorted(P_FAMILIES))
@given(data=st.data())
def test_property_p_is_threshold_shaped_by_theorem(family, data):
    """Every report is monotone by the scan of the oracle, and its failure
    label is the one read off whole-interval tests.  Three values of
    distinct keys are drawn and given best first.  Under NS_PROB the best
    and middle lotteries leak an infinitesimal chance to the worst outcome,
    which moves no standard part."""
    regime, values = P_FAMILIES[family]
    three = data.draw(st.lists(values, min_size=3, max_size=3, unique_by=regime.key))
    three.sort(key=regime.key, reverse=True)
    utilities = UtilityAssignment.from_mapping(dict(zip(("b", "m", "w"), three)), signed=True)
    best, middle, worst = (Lottery.degenerate(outcome) for outcome in "bmw")
    if regime is Regime.NS_PROB:
        leak, other = data.draw(infinitesimal_tilts), data.draw(infinitesimal_tilts)
        best = Lottery.from_mapping({"b": ONE - leak, "w": leak})
        middle = Lottery.from_mapping({"m": ONE - other, "w": other})
    report = check_property_P(middle, best, worst, utilities, regime)
    parts = report.worse_set, report.indifference_set, report.better_set
    assert report.monotone and oracle_threshold_shaped(*parts)
    assert report.failure == oracle_property_P_failure(*parts)
    assert report.holds == (report.failure is None)


# --- typed user errors -------------------------------------------------------

HALF = rational(F(1, 2))


def _model(states, belief, regime=Regime.STD):
    return AAModel(tuple(states), tuple(belief), STANDARD_UTILITIES, regime)


TWO_GENERATORS = (Lottery.degenerate("best"), Lottery.degenerate("worst"))


def _structure(**sizes):
    return PrefStructure(Regime.STD, STANDARD_UTILITIES, (Lottery.degenerate("best"),), **sizes)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: lottery(best=F(-1, 2), worst=F(3, 2)), "negative probability"),
        (lambda: lottery(best=F(1, 2)), "sum to exactly 1"),
        (
            lambda: UtilityAssignment.from_mapping({"best": rational(-1)}),
            "pass signed=True on purpose",
        ),
        (lambda: _model((), ()), "state space must be nonempty"),
        (lambda: _model(("s", "s"), (("s", HALF), ("s", HALF))), "unique"),
        (lambda: _model(("s", "t"), (("s", ONE),)), "exactly the states"),
        (lambda: _model(("s", "t"), (("s", -ONE), ("t", ONE + ONE))), "negative belief"),
        (lambda: _model(("s", "t"), (("s", HALF), ("t", ZERO))), "sum to exactly 1"),
        (
            lambda: _model(("s", "t"), (("s", ONE - EPS), ("t", EPS)), Regime.NS_UTIL),
            "requires a standard belief",
        ),
        (lambda: close_under_mixtures([]), "at least one lottery"),
        (
            lambda: replay(
                Counterexample("nonsense", ()),
                PrefStructure(Regime.STD, STANDARD_UTILITIES, (Lottery.degenerate("best"),)),
            ),
            "unknown certificate kind 'nonsense'",
        ),
        # Anchored: these pin the whole message, and the first shares its
        # text with the state-space case above.
        (lambda: constant_act(lottery(best=1), []), "^state space must be nonempty$"),
        (
            lambda: lexicographic_mix(F(1), (F(1), F(0)), (F(0), F(0))),
            "^mixture weight must lie strictly between 0 and 1$",
        ),
        (
            lambda: consolation_document(F(0)),
            "^the raffle chance must lie strictly between 0 and 1$",
        ),
        (
            lambda: RationalInterval(F(1, 2), F(1, 3), True, True),
            r"^empty interval \(1/2, 1/3\)$",
        ),
        (
            lambda: AAModel.from_mappings(("s", "t"), {"s": ONE}, STANDARD_UTILITIES, Regime.STD),
            "^belief must weigh exactly the states of the space$",
        ),
        (
            lambda: AAModel.from_mappings(
                ("s",), {"s": ONE, "t": ZERO}, STANDARD_UTILITIES, Regime.STD
            ),
            "^belief must weigh exactly the states of the space$",
        ),
        (lambda: _structure(grid_denominator=2.5), r"^grid_denominator must be an int, got 2\.5$"),
        (
            lambda: _structure(grid_denominator=F(3)),
            r"^grid_denominator must be an int, got Fraction\(3, 1\)$",
        ),
        (lambda: _structure(closure_depth=1.0), r"^closure_depth must be an int, got 1\.0$"),
        (lambda: _structure(closure_depth=True), "^closure_depth must be an int, got True$"),
        (lambda: MaximinSpec(2.5), r"^n must be an int, got 2\.5$"),
        (lambda: MaximinSpec(True), "^n must be an int, got True$"),
        (lambda: grid_weights(2.5), r"^denominator must be an int, got 2\.5$"),
        (lambda: grid_weights(F(3)), r"^denominator must be an int, got Fraction\(3, 1\)$"),
        (lambda: grid_weights(True), "^denominator must be an int, got True$"),
        (
            lambda: close_under_mixtures(TWO_GENERATORS, 2.5, 1),
            r"^denominator must be an int, got 2\.5$",
        ),
        (
            lambda: close_under_mixtures(TWO_GENERATORS, 3, 1.5),
            r"^depth must be an int, got 1\.5$",
        ),
        (
            lambda: close_under_mixtures(TWO_GENERATORS, 3, -1),
            "^depth must be nonnegative, got -1$",
        ),
        (lambda: maximin_sweep(MaximinSpec(3), 2.5), r"^denominator must be an int, got 2\.5$"),
    ],
    ids=lambda value: value if isinstance(value, str) else "case",
)
def test_library_user_errors_are_invalid_parameters(build, message):
    with pytest.raises(InvalidParameter, match=message):
        build()
