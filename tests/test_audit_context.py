"""The audit engine against the definitional checks, and the work and memory
one audit takes: one closure, which B2 also decides negligibility on, one
weight partition per strict chain in the one pass that decides the
solvability family, one independence partition per strict pair and class of
third lotteries, no sampled partition in the linear regimes or on values of
one sign, and nothing kept once the audit returns."""

import gc
import random
import weakref
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import qualutil.auditor
import qualutil.prefcore
import qualutil.solver
from conftest import nonnegative_nsreals, nsreals, standard_fractions, unit_weights
from oracles import AUDIT_ORACLES, oracle_B2, random_structure
from qualutil import (
    EPS,
    ONE,
    AffineValue,
    Lottery,
    NSReal,
    PrefOrdering,
    PrefStructure,
    QOrdering,
    Regime,
    UtilityAssignment,
    audit,
    check_A3,
    check_A3doubleprime,
    check_A3prime,
    check_B2,
    check_gamma_property,
    compare_values,
    eps,
    expected_utility,
    grid_weights,
    is_negligible,
    load_model,
    mixture_closure,
    partition_affine_comparison,
    qcompare,
    rational,
    render_report,
)
from qualutil.auditor import _build_context
from qualutil.fixtures import fixture_path
from qualutil.solver import compare

MODELS = ("dice", "consolation", "surgery", "maximin3")

SOLVABILITY_CHECKS = {
    "A3": check_A3,
    "A3p": check_A3prime,
    "A3pp": check_A3doubleprime,
    "gamma": check_gamma_property,
}


def bundled(name, **changes):
    return replace(load_model(fixture_path(name)), **changes).structure()


def assert_matches_oracles(structure):
    compared = 0
    for verdict in audit(structure).verdicts:
        if verdict.postulate in AUDIT_ORACLES:
            assert verdict == AUDIT_ORACLES[verdict.postulate](structure), verdict.postulate
            compared += 1
    assert compared


@pytest.mark.parametrize(
    "name, depth, grid",
    [(name, 0, None) for name in MODELS]
    + [(name, 1, 3) for name in MODELS]
    + [("maximin3", 1, 4)],
)
def test_audit_matches_oracles_on_bundled_models(name, depth, grid):
    changes = {"closure_depth": depth}
    if grid is not None:
        changes["grid_denominator"] = grid
    assert_matches_oracles(bundled(name, **changes))


# Signed kinds: "mixed" closures scan every third lottery, "nonpositive" ones
# one per leading exponent of negative values.  Grid 5 has four grid weights
# where grid 3 has two, so the first weight A2 and B2 scan stands for four:
# in STD and NS_PROB, and on NS_UTIL values of one sign, nonnegative or
# nonpositive.  Explicit ids keep the names of the unsigned grid-3 cases as
# pytest would derive them from (regime, seed).
@pytest.mark.parametrize(
    "regime, seed, signs, grid, count",
    [
        pytest.param(Regime.STD, 501, None, 3, 20, id="Regime.STD-501"),
        pytest.param(Regime.NS_UTIL, 502, None, 3, 20, id="Regime.NS_UTIL-502"),
        pytest.param(Regime.NS_PROB, 701, None, 3, 20, id="Regime.NS_PROB-701"),
        pytest.param(Regime.NS_UTIL, 503, "mixed", 3, 20, id="Regime.NS_UTIL-503-mixed"),
        pytest.param(
            Regime.NS_UTIL, 504, "nonpositive", 3, 20, id="Regime.NS_UTIL-504-nonpositive"
        ),
        pytest.param(Regime.STD, 505, None, 5, 8, id="Regime.STD-505-grid5"),
        pytest.param(Regime.NS_PROB, 702, None, 5, 8, id="Regime.NS_PROB-702-grid5"),
        pytest.param(Regime.NS_UTIL, 506, None, 5, 6, id="Regime.NS_UTIL-506-grid5"),
        pytest.param(
            Regime.NS_UTIL, 507, "nonpositive", 5, 6, id="Regime.NS_UTIL-507-nonpositive-grid5"
        ),
    ],
)
def test_audit_matches_oracles_on_random_structures(regime, seed, signs, grid, count):
    rng = random.Random(seed)
    for _ in range(count):
        assert_matches_oracles(
            random_structure(rng, regime, grid_denominator=grid, closure_depth=1, signs=signs)
        )


def strict_better(structure):
    values = [expected_utility(l, structure.utilities) for l in mixture_closure(structure)]
    better = [
        [compare_values(vi, vj, structure.regime) is PrefOrdering.BETTER for vj in values]
        for vi in values
    ]
    return values, better


def strict_chain_count(structure):
    _, better = strict_better(structure)
    n = len(better)
    return sum(better[i][j] and better[j][k] for i in range(n) for j in range(n) for k in range(n))


def audit_counting_partitions(monkeypatch, structure, checks):
    """Audit ``structure``, counting its closures and, per auditor function
    named in ``checks``, the weight partitions made inside it."""
    counts = Counter()
    active = []

    def counted(name, original):
        def wrapper(*args, **kwargs):
            if name == "mixture_closure":
                counts["closures"] += 1
            elif name == "partition_affine_comparison" and active:
                counts[active[-1]] += 1
            elif name in checks:
                active.append(name)
            try:
                return original(*args, **kwargs)
            finally:
                if name in checks:
                    active.pop()

        return wrapper

    for name in ("mixture_closure", "partition_affine_comparison", *checks):
        monkeypatch.setattr(qualutil.auditor, name, counted(name, getattr(qualutil.auditor, name)))
    return audit(structure), counts


def test_one_audit_builds_one_closure_solves_each_chain_once_and_keeps_nothing(monkeypatch):
    # Every solvability postulate holds, so the one pass partitions every
    # strict chain, and each exactly once.
    structure = bundled("consolation", closure_depth=1, grid_denominator=3)
    report, counts = audit_counting_partitions(monkeypatch, structure, ("_solvability",))
    assert [v.postulate for v in report.verdicts] == ["A1", "A2", "A2p", "A3p", "A3pp", "gamma"]
    assert all(report.verdict(name).holds for name in ("A3p", "A3pp", "gamma"))
    assert counts["closures"] == 1
    assert counts["_solvability"] == strict_chain_count(structure) == 910

    audited = weakref.ref(structure)
    del structure, report
    gc.collect()
    assert audited() is None


@pytest.mark.parametrize("name, grid", [(name, 3) for name in MODELS] + [("maximin3", 4)])
def test_each_solvability_check_alone_matches_the_joint_pass(name, grid):
    structure = bundled(name, closure_depth=1, grid_denominator=grid)
    report = audit(structure)
    decided = [v.postulate for v in report.verdicts if v.postulate in SOLVABILITY_CHECKS]
    assert decided
    for postulate in decided:
        check = SOLVABILITY_CHECKS[postulate]
        assert check(structure) == report.verdict(postulate), postulate
        assert check(structure, context=_build_context(structure)) == report.verdict(postulate)


def test_A2prime_partitions_once_per_strict_pair_and_leading_exponent(monkeypatch):
    structure = bundled("consolation", closure_depth=1, grid_denominator=3)
    _, counts = audit_counting_partitions(monkeypatch, structure, ("check_A2prime",))
    values, better = strict_better(structure)
    pairs = sum(map(sum, better))
    leads = {value.leading_exponent() for value in values}
    assert (pairs, len(leads)) == (215, 3)
    assert 0 < counts["check_A2prime"] <= pairs * len(leads)


def test_linear_regimes_take_the_closed_form(monkeypatch):
    # Every partition of an STD or NS_PROB audit, and of an NS_UTIL audit on
    # values of one sign, is a threshold partition, written down without
    # sampling; NS_UTIL on values of both signs still samples.
    dice = bundled("dice", closure_depth=1, grid_denominator=3)
    std = random_structure(random.Random(505), Regime.STD, grid_denominator=3, closure_depth=1)
    mixed = random_structure(
        random.Random(503), Regime.NS_UTIL, grid_denominator=3, closure_depth=1, signs="mixed"
    )
    assert strict_chain_count(mixed) > 0
    one_signed = [
        bundled("consolation", closure_depth=1, grid_denominator=3),
        bundled("surgery", closure_depth=1, grid_denominator=3),
        bundled("maximin3", closure_depth=1, grid_denominator=3),
        bundled("maximin3", closure_depth=1, grid_denominator=4),
    ]
    unpatched_reports = [render_report(audit(structure)) for structure in one_signed]

    def refuse(breakpoints, classify):
        raise AssertionError("sampled partition")

    monkeypatch.setattr(qualutil.solver, "partition_unit_interval", refuse)
    assert audit(dice).all_hold
    assert audit(std).all_hold
    assert [render_report(audit(structure)) for structure in one_signed] == unpatched_reports
    with pytest.raises(AssertionError, match="sampled partition"):
        audit(mixed)


def count_closures(monkeypatch, structure, check=audit):
    """``check(structure)`` and the number of mixture closures it built."""
    calls = 0
    original = qualutil.prefcore.close_under_mixtures

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return original(*args, **kwargs)

    for module in (qualutil.auditor, qualutil.prefcore):
        monkeypatch.setattr(module, "close_under_mixtures", counted)
    return check(structure), calls


def test_dice_audit_builds_at_most_one_closure_beyond_its_own(monkeypatch):
    report, closures = count_closures(
        monkeypatch, bundled("dice", closure_depth=1, grid_denominator=3)
    )
    assert report.verdict("B2").holds
    assert closures == 1


def test_B2_at_depth_two_builds_no_closure_beyond_its_own(monkeypatch):
    # Negligibility is decided on the audit's depth-2 closure, not on a
    # depth-1 pool of its own.
    rng = random.Random(703)
    for _ in range(10):
        structure = random_structure(
            rng, Regime.NS_PROB, generator_count=2, grid_denominator=2, closure_depth=2
        )
        verdict, closures = count_closures(monkeypatch, structure, check_B2)
        assert verdict == oracle_B2(structure)
        assert closures == 1


def test_B2_decides_negligibility_without_the_sweep(monkeypatch):
    # The sweep of is_negligible compares through prefcore's binding; B2's
    # own scan goes through the auditor's.
    def refuse(*args):
        raise AssertionError("negligibility sweep")

    monkeypatch.setattr(qualutil.prefcore, "compare_values", refuse)
    assert check_B2(bundled("dice", closure_depth=1, grid_denominator=3)).holds


# --- B2's negligible weights -------------------------------------------------
#
# A weight in (0, 1) is negligible exactly when it is infinitesimal, or when
# the values of the set share one standard part, so that no weight moves a
# mixture's standard part.

B2_WEIGHTS = (*grid_weights(3), EPS, Fraction(1, 2) * EPS, ONE - EPS)


def eps_bets(depth):
    """Two bets on a prize at chances eps and eps/12: one standard part."""
    utilities = UtilityAssignment.from_mapping({"prize": rational(1), "nothing": rational(0)})
    generators = tuple(
        Lottery.from_mapping({"prize": chance, "nothing": ONE - chance})
        for chance in (EPS, Fraction(1, 12) * EPS)
    )
    return PrefStructure(
        Regime.NS_PROB, utilities, generators, grid_denominator=3, closure_depth=depth
    )


def negligible_by_rule(weight, structure, depth):
    values = [
        expected_utility(lottery, structure.utilities)
        for lottery in mixture_closure(structure, depth)
    ]
    infinitesimal = isinstance(weight, NSReal) and weight.is_infinitesimal()
    return infinitesimal or len({value.standard_part() for value in values}) == 1


def test_is_negligible_is_the_closed_form_rule():
    rng = random.Random(811)
    structures = [eps_bets(0)] + [
        random_structure(rng, Regime.NS_PROB, generator_count=2 + index % 2, grid_denominator=3)
        for index in range(30)
    ]
    separating = 0
    for structure in structures:
        separating += not negligible_by_rule(Fraction(1, 2), structure, 0)
        for depth in (0, 1):
            for weight in B2_WEIGHTS:
                negligible = is_negligible(
                    weight, structure.utilities, structure.generators, denominator=3, depth=depth
                )
                assert negligible == negligible_by_rule(weight, structure, depth)
    assert 0 < separating < len(structures)


@pytest.mark.parametrize("depth", [0, 1, 2])
def test_B2_holds_on_a_set_that_does_not_separate(depth):
    structure = eps_bets(depth)
    verdict = check_B2(structure)
    assert verdict.holds
    assert verdict == oracle_B2(structure)


@pytest.mark.parametrize("name, partitions", [("consolation", 1_549), ("surgery", 2_358)])
def test_audit_solves_a_fixed_number_of_partitions(monkeypatch, name, partitions):
    # The work of an audit is fixed: a cheaper partition must not come from
    # solving fewer of them.
    structure = bundled(name, closure_depth=1, grid_denominator=3)
    calls = 0
    original = qualutil.auditor.partition_affine_comparison

    def counted(*args):
        nonlocal calls
        calls += 1
        return original(*args)

    monkeypatch.setattr(qualutil.auditor, "partition_affine_comparison", counted)
    audit(structure)
    assert calls == partitions


# --- the class rule ----------------------------------------------------------
#
# Mixing both sides of a comparison with one third value vk: the verdict
# depends on vk not at all under the quantitative and standard-part orders,
# and only through its leading exponent under the qualitative order when no
# operand changes sign.

finite_nsreals = nsreals.filter(lambda value: value.is_finite())

# The standard grid weights and the nonstandard weights B2 mixes at.
mixing_weights = st.one_of(unit_weights, st.sampled_from([EPS, Fraction(1, 2) * EPS, ONE - EPS]))


@given(finite_nsreals, finite_nsreals, finite_nsreals, finite_nsreals, mixing_weights)
def test_third_value_never_changes_quantitative_or_standard_part_verdicts(vi, vj, vk, vl, w):
    for comparison in ("quantitative", "standard-part"):
        verdicts = {
            compare(w * vi + (1 - w) * v, w * vj + (1 - w) * v, comparison) for v in (vk, vl)
        }
        assert len(verdicts) == 1, comparison


# The weight classes of the linear orders: w*vi + (1-w)*vk against
# w*vj + (1-w)*vk reads w only through whether it is infinitesimal.
non_infinitesimal_weights = st.one_of(unit_weights, st.just(ONE - EPS))
standard_nsreals = standard_fractions.map(rational)


@given(
    finite_nsreals,
    finite_nsreals,
    finite_nsreals,
    st.tuples(standard_nsreals, standard_nsreals, standard_nsreals),
    non_infinitesimal_weights,
    non_infinitesimal_weights,
)
def test_weights_of_one_class_give_one_verdict_in_the_linear_orders(
    vi, vj, vk, standard_values, w1, w2
):
    def verdicts(values, weights, comparison):
        vi, vj, vk = values
        return {compare(w * vi + (1 - w) * vk, w * vj + (1 - w) * vk, comparison) for w in weights}

    assert len(verdicts((vi, vj, vk), (w1, w2), "standard-part")) == 1
    assert len(verdicts((vi, vj, vk), (EPS, Fraction(1, 2) * EPS), "standard-part")) == 1
    assert len(verdicts(standard_values, (w1, w2), "quantitative")) == 1


@st.composite
def same_lead_pairs(draw):
    """Two nonnegative values with the same leading exponent: a positive
    multiple of the first plus terms of higher order."""
    first = draw(nonnegative_nsreals)
    lead = first.leading_exponent()
    if lead is None:
        return first, first
    scale = draw(st.fractions(min_value=Fraction(1, 8), max_value=Fraction(8), max_denominator=8))
    tail = draw(nonnegative_nsreals) * eps(lead + 4)
    return first, scale * first + tail


@pytest.mark.parametrize("sign", [1, -1])
@given(nonnegative_nsreals, nonnegative_nsreals, same_lead_pairs())
def test_qualitative_verdict_sees_third_value_only_through_its_leading_exponent(
    sign, vi, vj, third_values
):
    vi, vj = sign * vi, sign * vj
    if qcompare(vi, vj) is QOrdering.LESS:
        vi, vj = vj, vi
    assume(qcompare(vi, vj) is QOrdering.GREATER)
    labels = []
    for vk in third_values:
        parts = partition_affine_comparison(
            AffineValue(vi, sign * vk), AffineValue(vj, sign * vk), "qualitative"
        )
        ((label, weights),) = parts.items()
        assert weights.is_entire_unit_interval()
        labels.append(label)
    assert labels[0] is labels[1]
