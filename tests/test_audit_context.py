"""The audit engine against the definitional checks, and the work and memory
one audit takes: one closure, and no enumerated grid unless A2 scans NS_UTIL
values of both signs; in the one pass that decides the solvability family,
no weight partition but on NS_UTIL values of both signs, where every strict
chain gets one, and elsewhere integer witness weights only for the chains
of the four witnesses each postulate keeps; for A2, B2 and A2p, outside
values of both signs, no partition and no mixture but a failing
certificate's; and nothing kept once the audit returns.  A4 and A5p are
checked against their loops over acts and states, A4 by theorem outside
NS_UTIL utilities of both signs."""

import gc
import itertools
import math
import random
import tracemalloc
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
from oracles import (
    AUDIT_ORACLES,
    oracle_A2,
    oracle_A2prime,
    oracle_A4,
    oracle_A5prime,
    oracle_B2,
    oracle_context,
    oracle_is_negligible,
    oracle_partition_affine_comparison,
    oracle_rank,
    oracle_solvability,
    one_magnitude_structure,
    random_acts_structure,
    random_signed_acts_structure,
    random_structure,
    random_tilted_acts_structure,
    relation_rule,
    signed_A4_structure,
)
from qualutil import (
    EPS,
    ONE,
    ZERO,
    AAModel,
    Act,
    AffineValue,
    ClosureTooLarge,
    InfiniteValue,
    Lottery,
    NSReal,
    PrefOrdering,
    PrefStructure,
    QOrdering,
    Regime,
    UtilityAssignment,
    audit,
    check_A2,
    check_A2prime,
    check_A3,
    check_A3doubleprime,
    check_A3prime,
    check_A4,
    check_A5prime,
    check_B2,
    check_gamma_property,
    close_under_mixtures,
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
    replay,
)
from qualutil.auditor import (
    _Context,
    _build_context,
    _mixture_partition,
    _solvability,
    _triples,
    _witness_weights,
)
from qualutil.fixtures import fixture_path
from qualutil.nsreal import _lead
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
    """The audit of ``structure``, each verdict checked against its oracle.
    The oracles keep every witness; a verdict keeps the first four and
    counts them all."""
    report = audit(structure)
    compared = 0
    for verdict in report.verdicts:
        if verdict.postulate in AUDIT_ORACLES:
            oracle = AUDIT_ORACLES[verdict.postulate](structure)
            expected = replace(
                oracle,
                witnesses=oracle.witnesses[:4],
                witness_count=len(oracle.witnesses),
            )
            assert verdict == expected, verdict.postulate
            compared += 1
    assert compared
    return report


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


# Signed kinds: on "mixed" closures A2 mixes every third lottery at every
# weight; on "nonpositive" ones, as on unsigned ones, the leading-exponent
# rule decides it.  Grid 5 has four grid weights where grid 3 has two, and
# the rule's verdict stands for every one of them: in STD and NS_PROB, and
# on NS_UTIL values of one sign, nonnegative or nonpositive.  Explicit ids
# keep the names of the unsigned grid-3 cases as pytest would derive them
# from (regime, seed).  A case naming a postulate in ``fails`` must see it
# fail on some structure, so that the certificate of a rule-decided failure
# is compared too.
@pytest.mark.parametrize(
    "regime, seed, signs, grid, count, fails",
    [
        pytest.param(Regime.STD, 501, None, 3, 20, None, id="Regime.STD-501"),
        pytest.param(Regime.NS_UTIL, 502, None, 3, 20, None, id="Regime.NS_UTIL-502"),
        pytest.param(Regime.NS_PROB, 701, None, 3, 20, None, id="Regime.NS_PROB-701"),
        pytest.param(Regime.NS_UTIL, 503, "mixed", 3, 20, None, id="Regime.NS_UTIL-503-mixed"),
        pytest.param(
            Regime.NS_UTIL, 504, "nonpositive", 3, 20, None, id="Regime.NS_UTIL-504-nonpositive"
        ),
        pytest.param(Regime.STD, 505, None, 5, 8, None, id="Regime.STD-505-grid5"),
        pytest.param(Regime.NS_PROB, 702, None, 5, 8, None, id="Regime.NS_PROB-702-grid5"),
        pytest.param(Regime.NS_UTIL, 506, None, 5, 6, None, id="Regime.NS_UTIL-506-grid5"),
        pytest.param(
            Regime.NS_UTIL, 507, "nonpositive", 5, 6, None,
            id="Regime.NS_UTIL-507-nonpositive-grid5",
        ),
        pytest.param(
            Regime.NS_UTIL, 508, "nonpositive", 3, 20, "A2",
            id="Regime.NS_UTIL-508-nonpositive-A2",
        ),
    ],
)
def test_audit_matches_oracles_on_random_structures(regime, seed, signs, grid, count, fails):
    rng = random.Random(seed)
    failed = 0
    for _ in range(count):
        report = assert_matches_oracles(
            random_structure(rng, regime, grid_denominator=grid, closure_depth=1, signs=signs)
        )
        failed += fails is not None and not report.verdict(fails).holds
    assert (failed > 0) == (fails is not None)


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
    """Audit ``structure``, counting its closures (calls of the closure
    kernel) and, per auditor function named in ``checks``, the weight
    partitions made inside it, under its name, and the chains whose witness
    weights it solved from integers, under ``("integers", name)``."""
    counts = Counter()
    active = []

    def counted(name, original):
        def wrapper(*args, **kwargs):
            if name == "_closure_vectors":
                counts["closures"] += 1
            elif name == "partition_affine_comparison" and active:
                counts[active[-1]] += 1
            elif name == "_witness_weights" and active:
                counts["integers", active[-1]] += 1
            elif name in checks:
                active.append(name)
            try:
                return original(*args, **kwargs)
            finally:
                if name in checks:
                    active.pop()

        return wrapper

    for name in ("_closure_vectors", "partition_affine_comparison", "_witness_weights", *checks):
        monkeypatch.setattr(qualutil.auditor, name, counted(name, getattr(qualutil.auditor, name)))
    return audit(structure), counts


def test_one_audit_builds_one_closure_solves_each_chain_once_and_keeps_nothing(monkeypatch):
    # Every solvability postulate holds on values of one sign, so the one
    # pass decides all 910 strict chains by rule, partitions none, and
    # solves the weights of only the chains of the witnesses it keeps, each
    # once, from the context's integers.
    structure = bundled("consolation", closure_depth=1, grid_denominator=3)
    report, counts = audit_counting_partitions(monkeypatch, structure, ("_solvability",))
    assert [v.postulate for v in report.verdicts] == ["A1", "A2", "A2p", "A3p", "A3pp", "gamma"]
    assert all(report.verdict(name).holds for name in ("A3p", "A3pp", "gamma"))
    assert strict_chain_count(structure) == report.verdict("A3p").witness_count == 910
    assert counts["closures"] == 1
    kept_chains = {
        (witness.first, witness.middle, witness.second)
        for verdict in report.verdicts
        for witness in verdict.witnesses
    }
    assert counts["_solvability"] == 0
    assert counts["integers", "_solvability"] == len(kept_chains) == 7

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


def test_independence_checks_solve_no_partition_and_mix_only_a_certificate(monkeypatch):
    # Outside NS_UTIL values of both signs, A2, B2 and A2p are decided by
    # leading-exponent rules: a failing verdict mixes its certificate's
    # triple once, and a holding one mixes nothing.
    checks = ("check_A2", "check_B2", "check_A2prime")
    mixed = Counter()
    original = qualutil.auditor._independence_failure

    def counted(postulate, *args):
        mixed[postulate] += 1
        return original(postulate, *args)

    monkeypatch.setattr(qualutil.auditor, "_independence_failure", counted)
    failing = {}
    for name in ("consolation", "surgery", "dice"):
        mixed.clear()
        with monkeypatch.context() as patched:
            report, partitions = audit_counting_partitions(
                patched, bundled(name, closure_depth=1, grid_denominator=3), checks
            )
        assert not any(partitions[check] for check in checks), name
        failing[name] = {
            v.postulate: 1
            for v in report.verdicts
            if v.postulate in ("A2", "B2", "A2p") and not v.holds
        }
        assert mixed == failing[name], name
    assert failing == {"consolation": {"A2": 1}, "surgery": {"A2": 1}, "dice": {}}


class CountedRanks(tuple):
    """A ranking that counts how often it is read by index."""

    reads = 0

    def __getitem__(self, index):
        self.reads += 1
        return super().__getitem__(index)


def test_A2_on_values_of_one_sign_reads_the_ranking_in_O_closure(monkeypatch):
    # A2 finds its first failing triple, or shows there is none, by ranges
    # of ranks: a bounded number of reads per lottery, where a walk over
    # pairs of classes takes O(classes**2) of them.  Depth 2 is past the
    # audit's closure cap, lifted here.
    monkeypatch.setattr(qualutil.auditor, "AUDIT_SIZE_LIMIT", 20_000)
    cases = [
        (one_magnitude_structure(closure_depth=2, grid_denominator=8), True),
        (bundled("maximin3", closure_depth=2, grid_denominator=8), False),
    ]
    for structure, holds in cases:
        context = _build_context(structure)
        assert not context.mixed_signs
        assert len(context.classes) ** 2 > 3 * context.size
        rank = CountedRanks(context.rank)
        verdict = check_A2(structure, context=replace(context, rank=rank))
        assert verdict.holds is holds
        assert 0 < rank.reads <= 3 * context.size, (context.size, rank.reads)


def test_A2_holds_on_a_closure_of_one_magnitude_like_its_oracle():
    for grid in (3, 4):
        structure = one_magnitude_structure(closure_depth=1, grid_denominator=grid)
        verdict = check_A2(structure)
        assert verdict.holds
        assert verdict == oracle_A2(structure)


@pytest.mark.parametrize("name", MODELS)
@pytest.mark.parametrize("grid", [3, 4])
def test_A2_matches_its_oracle_on_bundled_models(monkeypatch, name, grid):
    monkeypatch.setattr(qualutil.auditor, "AUDIT_SIZE_LIMIT", 10_000)
    structure = bundled(name, closure_depth=1, grid_denominator=grid)
    assert check_A2(structure) == oracle_A2(structure)


def test_independence_checks_match_their_oracles_on_random_structures():
    # Independence fails only through overriding, under nonstandard
    # utilities: A2 scans only NS_UTIL, and B2 and A2p hold by theorem.  One
    # generator draws every family's structures in turn.
    rng = random.Random(19)
    families = [
        (Regime.STD, None),
        (Regime.NS_PROB, None),
        (Regime.NS_UTIL, None),
        (Regime.NS_UTIL, "nonpositive"),
        (Regime.NS_UTIL, "mixed"),
    ]
    for regime, signs in families:
        for index in range(24):
            structure = random_structure(
                rng,
                regime,
                generator_count=2 + index % 2,
                grid_denominator=3 + index % 2,
                closure_depth=index % 2,
                signs=signs,
            )
            pairs = [(check_A2, oracle_A2)]
            if regime is Regime.NS_PROB:
                pairs = [(check_B2, oracle_B2)]
            elif signs is None:
                pairs.append((check_A2prime, oracle_A2prime))
            for check, oracle in pairs:
                assert check(structure) == oracle(structure), (regime, signs, index, check)


# Only A2 on NS_UTIL values of both signs scans the grid; nothing else
# enumerates it, not even to validate the denominator, so a fine grid costs
# no memory where the closure stays small.
FINE_GRID = 10**5


def traced_peak_mb(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name", MODELS)
def test_a_fine_grid_audits_at_depth_zero_without_enumerating_it(name):
    structure = bundled(name, closure_depth=0, grid_denominator=FINE_GRID)
    assert traced_peak_mb(lambda: audit(structure)) < 1


@pytest.mark.parametrize("name", MODELS)
def test_a_fine_grid_closure_is_refused_without_enumerating_it(name):
    generators = bundled(name).generators

    def close():
        with pytest.raises(ClosureTooLarge):
            close_under_mixtures(generators, FINE_GRID, 1, limit=64)

    assert traced_peak_mb(close) < 1


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
    """``check(structure)`` and the number of mixture closures it built:
    calls of the closure kernel, which every closure runs."""
    calls = 0
    original = qualutil.prefcore._closure_vectors

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return original(*args, **kwargs)

    for module in (qualutil.auditor, qualutil.prefcore):
        monkeypatch.setattr(module, "_closure_vectors", counted)
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
    # Neither B2 nor is_negligible compares two values, through prefcore's
    # binding or any other.
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


def test_is_negligible_matches_its_definitional_oracle():
    rng = random.Random(812)
    structures = [eps_bets(0)] + [
        random_structure(rng, Regime.NS_PROB, generator_count=2 + index % 2, grid_denominator=3)
        for index in range(20)
    ]
    verdicts = Counter()
    for structure in structures:
        for depth in (0, 1):
            for weight in B2_WEIGHTS:
                args = (weight, structure.utilities, structure.generators, 3, depth)
                negligible = is_negligible(*args)
                assert negligible == oracle_is_negligible(*args)
                verdicts[negligible] += 1
    assert set(verdicts) == {False, True}


@pytest.mark.parametrize("depth", [0, 1, 2])
def test_B2_holds_on_a_set_that_does_not_separate(depth):
    structure = eps_bets(depth)
    verdict = check_B2(structure)
    assert verdict.holds
    assert verdict == oracle_B2(structure)


@pytest.mark.parametrize("name, chains", [("consolation", 7), ("surgery", 7)])
def test_audit_solves_a_fixed_number_of_partitions(monkeypatch, name, chains):
    # The work of an audit is fixed: a cheaper solve must not come from
    # solving fewer chains.  On values of one sign no weight partition is
    # made; each chain of a kept solvability witness is solved once, from
    # the context's integer terms.
    structure = bundled(name, closure_depth=1, grid_denominator=3)
    calls = Counter()

    def counted(name, original):
        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        return wrapper

    for function in ("partition_affine_comparison", "_witness_weights"):
        original = getattr(qualutil.auditor, function)
        monkeypatch.setattr(qualutil.auditor, function, counted(function, original))
    audit(structure)
    assert calls == {"_witness_weights": chains}


def test_mixed_sign_closure_partitions_every_strict_chain(monkeypatch):
    # No rule covers values of both signs: while some solvability postulate
    # holds, the pass partitions each strict chain once, and a kept witness
    # reads the same partition.
    rng = random.Random(503)
    checked = 0
    for _ in range(20):
        structure = random_structure(
            rng, Regime.NS_UTIL, grid_denominator=3, closure_depth=1, signs="mixed"
        )
        if not _build_context(structure).mixed_signs:
            continue
        report, counts = audit_counting_partitions(monkeypatch, structure, ("_solvability",))
        if not report.verdict("A3p").holds:
            continue
        assert counts["_solvability"] == strict_chain_count(structure) > 0
        assert counts["integers", "_solvability"] == 0
        checked += 1
    assert checked >= 5


def test_a_failing_kind_is_named_by_its_first_lottery_in_closure_order():
    # On values <= 0, a*p + (1-a)*r lies below q unless q and r share an
    # order of magnitude, so A3p and gamma fail on p > q > r for r = r1 and
    # r = r2, one kind below q.  r2's class ranks lowest, yet r1 comes first
    # in closure order, so the certificates name r1, as a scan of the chains
    # in order would.
    utilities = UtilityAssignment.from_mapping(
        {"p": -eps(), "q": rational(-1), "r1": -eps(-1), "r2": -eps(-2)}, signed=True
    )
    generators = tuple(Lottery.degenerate(name) for name in ("p", "q", "r1", "r2"))
    report = assert_matches_oracles(
        PrefStructure(Regime.NS_UTIL, utilities, generators, closure_depth=0)
    )
    for postulate in ("A3p", "gamma"):
        assert report.verdict(postulate).counterexample.get("r") == generators[2]


def test_holding_solvability_verdicts_keep_four_witnesses_and_count_all():
    # The human report prints "(1622 / 1508 further witnesses omitted)".
    report = audit(bundled("surgery", closure_depth=1, grid_denominator=3))
    counts = {
        v.postulate: (len(v.witnesses), v.witness_count)
        for v in report.verdicts
        if v.postulate in SOLVABILITY_CHECKS
    }
    assert counts == {"A3p": (4, 1_626), "A3pp": (4, 1_512), "gamma": (4, 1_512)}
    assert "  (1622 further witnesses omitted)" in render_report(report).splitlines()


# --- the solvability pass against the class-pair walk it replaced -------------


def solvability_postulates(structure):
    """The solvability postulates a ``check_*`` admits on ``structure``."""
    if structure.regime is Regime.NS_PROB:
        return ("A3",)
    if structure.utilities.signed:
        return ("A3", "A3p", "gamma")
    return ("A3", "A3p", "A3pp", "gamma")


def assert_solvability_matches_oracle(structure):
    """Whole verdicts of the pass, all admitted postulates at once and each
    alone, against ``oracle_solvability``; returns them."""
    context = _build_context(structure)
    postulates = solvability_postulates(structure)
    verdicts = _solvability(postulates, structure, context)
    assert verdicts == oracle_solvability(postulates, structure, context)
    for verdict in verdicts:
        assert _solvability((verdict.postulate,), structure, context) == (verdict,)
    return verdicts


# Values of both signs partition every chain, which is slower: fewer cases.
@pytest.mark.parametrize(
    "regime, signs, count",
    [
        (Regime.STD, None, 24),
        (Regime.NS_PROB, None, 24),
        (Regime.NS_UTIL, None, 24),
        (Regime.NS_UTIL, "nonpositive", 24),
        (Regime.NS_UTIL, "mixed", 8),
    ],
)
def test_solvability_pass_matches_its_oracle_on_random_structures(regime, signs, count):
    rng = random.Random(2300)
    witnessed = 0
    for index in range(count):
        structure = random_structure(
            rng,
            regime,
            generator_count=2 + index % 3,
            grid_denominator=3 + index % 2,
            closure_depth=index % 2,
            signs=signs,
        )
        verdicts = assert_solvability_matches_oracle(structure)
        witnessed += sum(verdict.witness_count > 0 for verdict in verdicts)
    # Holding verdicts with witnesses are met in every family.
    assert witnessed


@pytest.mark.parametrize("name", MODELS)
@pytest.mark.parametrize("depth, grid", [(0, 3), (0, 4), (1, 3), (1, 4), (2, 3), (2, 4)])
def test_solvability_pass_matches_its_oracle_on_bundled_models(monkeypatch, name, depth, grid):
    # Depth 2 is past the audit's closure cap, lifted here for the pass.
    # Surgery at depth 2, grid 4 has 716 lotteries.
    monkeypatch.setattr(qualutil.auditor, "AUDIT_SIZE_LIMIT", 10_000)
    assert_solvability_matches_oracle(bundled(name, closure_depth=depth, grid_denominator=grid))


@pytest.mark.parametrize("regime", [Regime.STD, Regime.NS_UTIL])
def test_a_zero_value_at_the_bottom_leads_at_infinity(regime):
    # Zero's leading exponent is inf, its own run, and it ranks lowest.
    values = {"one": rational(1), "half": rational(Fraction(1, 2)), "zero": rational(0)}
    if regime is Regime.NS_UTIL:
        values["tiny"] = eps()
    utilities = UtilityAssignment.from_mapping(values)
    generators = tuple(Lottery.degenerate(name) for name in utilities.outcomes)
    structure = PrefStructure(regime, utilities, generators, grid_denominator=2, closure_depth=1)
    context = _build_context(structure)
    bottom = context.classes[0]
    assert [context.values[i].sign() for i in bottom] == [0]
    assert context.leads[bottom[0]] == float("inf")
    verdicts = assert_solvability_matches_oracle(structure)
    for verdict in verdicts:
        oracle = AUDIT_ORACLES[verdict.postulate](structure)
        assert verdict == replace(
            oracle, witnesses=oracle.witnesses[:4], witness_count=len(oracle.witnesses)
        )
    assert any(verdict.witness_count for verdict in verdicts)


@pytest.mark.parametrize("regime", list(Regime))
def test_a_one_class_closure_has_no_chain(regime):
    # Every lottery is indifferent to every other: no strict chain, so each
    # postulate holds with nothing to count or keep.
    utilities = UtilityAssignment.from_mapping({"a": rational(1), "b": rational(1)})
    generators = (Lottery.degenerate("a"), Lottery.degenerate("b"))
    structure = PrefStructure(regime, utilities, generators, grid_denominator=3, closure_depth=1)
    assert len(_build_context(structure).classes) == 1
    verdicts = assert_solvability_matches_oracle(structure)
    assert [(v.holds, v.witness_count, v.witnesses) for v in verdicts] == [(True, 0, ())] * len(
        verdicts
    )


def test_A3_alone_on_nonnegative_values_fails_at_the_first_chain_across_exponents():
    # Scan order meets (two, one, tiny) and (two, one, zero) first, where
    # e(p) == e(q): all three relations.  (two, tiny, zero) is the first with
    # e(p) != e(q), where every mixture lies above q, so no weight is "beta".
    utilities = UtilityAssignment.from_mapping(
        {"two": rational(2), "one": rational(1), "tiny": eps(), "zero": rational(0)}
    )
    generators = tuple(Lottery.degenerate(name) for name in ("two", "one", "tiny", "zero"))
    structure = PrefStructure(Regime.NS_UTIL, utilities, generators, closure_depth=0)
    verdict = check_A3(structure)
    assert not verdict.holds
    assert verdict == AUDIT_ORACLES["A3"](structure)
    certificate = verdict.counterexample
    assert [certificate.get(x) for x in "pqr"] == [generators[0], generators[2], generators[3]]
    assert (certificate.get("missing"), certificate.get("relation")) == ("beta", "less")
    assert replay(certificate, structure)


def test_on_nonpositive_values_the_first_chain_across_exponents_fails():
    # On values <= 0, (top, minus_one, minus_two) comes first in scan order,
    # with e(q) == e(r) == 0: all three relations.  (top, minus_one, huge) is
    # the first with e(q) != e(r), where every mixture lies below q.
    utilities = UtilityAssignment.from_mapping(
        {"top": -eps(), "minus_one": rational(-1), "minus_two": rational(-2), "huge": -eps(-1)},
        signed=True,
    )
    names = ("top", "minus_one", "minus_two", "huge")
    generators = tuple(Lottery.degenerate(name) for name in names)
    structure = PrefStructure(Regime.NS_UTIL, utilities, generators, closure_depth=0)
    report = assert_matches_oracles(structure)
    assert_solvability_matches_oracle(structure)
    for postulate in ("A3p", "gamma"):
        certificate = report.verdict(postulate).counterexample
        assert [certificate.get(x) for x in "pqr"] == [generators[i] for i in (0, 1, 3)]


# Unsigned utilities and standard beliefs never fail A4; the signed variant's
# act utilities cancel, and its case must see A4 fail, so that certificates
# are compared too.
@pytest.mark.parametrize(
    "regime, signed, seed, count",
    [pytest.param(regime, False, 404, 12, id=f"Regime.{regime.name}") for regime in Regime]
    + [pytest.param(Regime.NS_UTIL, True, 405, 24, id="Regime.NS_UTIL-signed")],
)
def test_A4_matches_the_patch_by_patch_oracle(regime, signed, seed, count):
    rng = random.Random(seed)
    failed = 0
    for _ in range(count):
        state_count = rng.randint(2, 4)
        if signed:
            structure = random_signed_acts_structure(rng, state_count)
        else:
            structure = random_acts_structure(rng, regime, state_count=state_count)
        verdict = check_A4(structure)
        assert verdict == oracle_A4(structure)
        failed += not verdict.holds
    assert (failed > 0) == signed


def test_A5prime_matches_the_oracle_that_asks_the_sweep():
    # A5p asks the nullity rule, is_null; the oracle asks the definitional
    # null_state_sweep.
    rng = random.Random(406)
    structures = [
        random_acts_structure(rng, Regime.NS_UTIL, state_count=rng.randint(2, 4))
        for _ in range(12)
    ]
    # A windfall at an infinitesimally likely state overrides the act that
    # carries it, yet the state is not null: A5p fails.
    utilities = UtilityAssignment.from_mapping({"good": rational(1), "bad": rational(0)})
    good, bad = Lottery.degenerate("good"), Lottery.degenerate("bad")
    model = AAModel.from_mappings(
        ["s", "t"], {"s": ONE - EPS, "t": EPS}, utilities, Regime.NS_UTIL, validate=False
    )
    acts = (Act.from_mapping({"s": bad, "t": good}), Act.from_mapping({"s": bad, "t": bad}))
    structures.append(
        PrefStructure(
            Regime.NS_UTIL, utilities, (good, bad), closure_depth=0, model=model, acts=acts
        )
    )
    verdicts = [check_A5prime(structure) for structure in structures]
    assert verdicts == [oracle_A5prime(structure) for structure in structures]
    assert [verdict.holds for verdict in verdicts] == [True] * 12 + [False]


def test_A4_certificate_matches_the_oracle_on_signed_utilities():
    structure = signed_A4_structure()
    verdict = check_A4(structure)
    assert not verdict.holds
    assert verdict == oracle_A4(structure)
    assert replay(verdict.counterexample, structure)


A4_SIGNS = (None, "mixed", "nonpositive")


@pytest.mark.parametrize("signs", A4_SIGNS, ids=str)
@pytest.mark.parametrize("regime", list(Regime), ids=lambda regime: regime.name)
def test_A4_by_theorem_matches_the_oracle_under_infinitesimal_beliefs(regime, signs):
    # Beliefs of 0, eps, eps/3 and eps**2 beside standard ones, on
    # utilities >= 0, of both signs and all <= 0: A4 fails only on NS_UTIL
    # utilities of both signs, the one case still decided patch by patch.
    rng = random.Random(3100 + 3 * list(Regime).index(regime) + A4_SIGNS.index(signs))
    failed = 0
    for _ in range(40):
        structure = random_tilted_acts_structure(
            rng, regime, signs is not None, rng.randint(2, 4), signs=signs or "mixed"
        )
        verdict = check_A4(structure)
        assert verdict == oracle_A4(structure)
        failed += not verdict.holds
    if not (regime is Regime.NS_UTIL and signs == "mixed"):
        assert failed == 0


def one_signed_solvability(structure):
    """The solvability postulates that apply to the structure's regime."""
    postulates = ["A3", "A3p", "gamma"]
    if structure.regime is Regime.NS_UTIL and not structure.utilities.signed:
        postulates.append("A3pp")
    return _solvability(postulates, structure, None)


def test_A4_and_the_one_signed_solvability_pass_add_and_multiply_no_value(monkeypatch):
    # A4 by theorem, and witness weights from the context's integer terms:
    # outside NS_UTIL values of both signs neither adds nor multiplies an
    # NSReal, and each gives what it gave before the ring operations went.
    rng = random.Random(3102)
    acts = [random_acts_structure(rng, regime, state_count=3) for regime in Regime]
    lotteries = [
        bundled("consolation", closure_depth=1, grid_denominator=3),
        bundled("maximin3", closure_depth=1, grid_denominator=4),
    ]
    assert _build_context(lotteries[1]).negative
    solved = [one_signed_solvability(structure) for structure in lotteries + acts]
    verdicts = [check_A4(structure) for structure in acts]
    assert all(verdict.holds for verdict in verdicts)
    assert any(witness for verdict in solved[0] for witness in verdict.witnesses)

    def refuse(*args):
        raise AssertionError("NSReal arithmetic")

    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__"):
        monkeypatch.setattr(NSReal, name, refuse)
    assert [one_signed_solvability(structure) for structure in lotteries + acts] == solved
    assert [check_A4(structure) for structure in acts] == verdicts


def test_witness_weights_are_the_partition_witnesses_on_every_strict_chain():
    # The integer threshold gives each relation the weight that
    # RationalIntervalSet.witness() reads off the chain's sampled partition,
    # on every strict chain outside NS_UTIL values of both signs.
    rng = random.Random(3103)
    structures = [bundled(name, closure_depth=1, grid_denominator=3) for name in MODELS]
    structures += [
        random_structure(rng, regime, grid_denominator=3, closure_depth=1, signs=signs)
        for regime, signs in [
            (Regime.STD, None),
            (Regime.NS_PROB, None),
            (Regime.NS_UTIL, None),
            (Regime.NS_UTIL, "nonpositive"),
        ]
        for _ in range(3)
    ]
    chains = 0
    for structure in structures:
        context = _build_context(structure)
        assert not context.mixed_signs
        comparison = context.regime.comparison
        for chain in itertools.islice(_triples(context, lambda a: (1, a)), 300):
            p, q, r = (context.values[x] for x in chain)
            parts = oracle_partition_affine_comparison(
                AffineValue(p, r), AffineValue(q, q), comparison
            )
            expected = {relation: part.witness() for relation, part in parts.items()}
            heads = (context.heads[x] for x in chain)
            assert _witness_weights(*heads, context.negative) == expected, chain
            chains += 1
    assert chains > 1000


def _one_signed_terms(negative):
    """Three (exponent, integer coefficient) terms of one sign, zero's
    ``(inf, 0)`` among them, over few exponents so that they often tie."""
    sign = -1 if negative else 1
    term = st.one_of(
        st.just((math.inf, 0)),
        st.tuples(st.integers(-2, 2), st.integers(1, 60).map(sign.__mul__)),
    )
    return st.tuples(st.just(negative), st.tuples(term, term, term))


@given(st.booleans().flatmap(_one_signed_terms))
def test_witness_weights_are_the_partition_witnesses_on_any_one_signed_terms(drawn):
    # Any three terms, not only chains of a closure: the threshold rule in
    # integers against the sampled partition of the values they lead.
    negative, heads = drawn
    p, q, r = (ZERO if c == 0 else c * eps(e) for e, c in heads)
    parts = oracle_partition_affine_comparison(
        AffineValue(p, r), AffineValue(q, q), "qualitative"
    )
    expected = {relation: part.witness() for relation, part in parts.items()}
    assert _witness_weights(*heads, negative) == expected


# --- the solvability rule ----------------------------------------------------
#
# On a strict chain p > q > r, the relations in which a*p + (1-a)*r stands to
# q follow from leading exponents outside NS_UTIL values of both signs.


def relation_rule_on(regime, values):
    """The rule of a context holding only what it reads: the regime, values
    of one sign and their leading exponents."""
    leads = tuple(_lead(value)[0] for value in values)
    return relation_rule(
        _Context(
            regime,
            (),
            tuple(values),
            leads,
            heads=(),
            mixed_signs=False,
            negative=any(value.sign() < 0 for value in values),
            rank=(),
            classes=(),
            start=(),
            end=(),
        )
    )


# A standard part plus an infinitesimal tail: every finite value, drawn
# without filtering.
finite_nsreals_with_tails = st.builds(
    lambda standard, tail: rational(standard) + tail * eps(4), standard_fractions, nsreals
)


@pytest.mark.parametrize(
    "regime, values",
    [
        pytest.param(Regime.STD, standard_fractions.map(rational), id="std"),
        pytest.param(Regime.NS_PROB, finite_nsreals_with_tails, id="ns-prob"),
        pytest.param(Regime.NS_UTIL, nonnegative_nsreals, id="ns-util-nonnegative"),
        pytest.param(
            Regime.NS_UTIL, nonnegative_nsreals.map(lambda v: -v), id="ns-util-nonpositive"
        ),
    ],
)
@given(data=st.data())
def test_relation_rule_is_the_set_of_partition_labels(regime, values, data):
    drawn = data.draw(st.lists(values, min_size=3, max_size=3))
    chains = [
        chain
        for chain in itertools.permutations(drawn)
        if compare_values(chain[0], chain[1], regime) is PrefOrdering.BETTER
        and compare_values(chain[1], chain[2], regime) is PrefOrdering.BETTER
    ]
    assume(chains)
    p, q, r = chains[0]
    assert relation_rule_on(regime, (p, q, r))(0, 1, 2) == set(_mixture_partition(p, r, q, regime))


# --- the ranking -------------------------------------------------------------
#
# An audit ranks its closure once: lottery i is strictly above lottery j
# exactly when rank[i] > rank[j], in every regime and on values of any sign.

ORDERING_OF_RANKS = {1: PrefOrdering.BETTER, 0: PrefOrdering.INDIFFERENT, -1: PrefOrdering.WORSE}


@pytest.mark.parametrize(
    "regime, values",
    [
        pytest.param(Regime.STD, standard_fractions.map(rational), id="std"),
        pytest.param(Regime.NS_PROB, finite_nsreals_with_tails, id="ns-prob"),
        pytest.param(Regime.NS_UTIL, nonnegative_nsreals, id="ns-util-nonnegative"),
        pytest.param(
            Regime.NS_UTIL, nonnegative_nsreals.map(lambda v: -v), id="ns-util-nonpositive"
        ),
        pytest.param(Regime.NS_UTIL, nsreals, id="ns-util-mixed"),
    ],
)
@given(data=st.data())
def test_ranks_reproduce_the_comparison_on_every_pair(regime, values, data):
    drawn = data.draw(st.lists(values, min_size=1, max_size=6))
    ties = data.draw(st.lists(st.sampled_from(drawn), max_size=3))
    if regime is not Regime.STD:
        # Level with a drawn value yet not equal to it: an infinitesimal
        # relative change moves neither a standard part nor a leading term.
        ties += [value * (ONE + EPS) for value in ties]
    pool = data.draw(st.permutations(drawn + ties))
    rank, classes = oracle_rank(pool, regime)
    for i, j in itertools.product(range(len(pool)), repeat=2):
        ordering = ORDERING_OF_RANKS[(rank[i] > rank[j]) - (rank[i] < rank[j])]
        assert compare_values(pool[i], pool[j], regime) is ordering
    assert classes == tuple(
        tuple(i for i in range(len(pool)) if rank[i] == r) for r in range(len(classes))
    )
    assert all(classes)


# --- the integer context -----------------------------------------------------
#
# The audit ranks its closure from the closure kernel's integer vectors, and
# builds a lottery or a value only when it is read.  Every field must equal
# the definitional context of tests/oracles.py, which values each member with
# expected_utility and ranks the NSReal values by their sort keys.

CONTEXT_FIELDS = (
    "regime", "rank", "classes", "leads", "start", "end", "mixed_signs", "negative"
)


def assert_context_matches_oracle(structure):
    """``_build_context`` against ``oracle_context``, field by field and
    item by item of the lazily built values and lotteries; returns it."""
    context, expected = _build_context(structure), oracle_context(structure)
    for field in CONTEXT_FIELDS:
        assert getattr(context, field) == getattr(expected, field), field
    assert context.size == expected.size
    for index in range(context.size):
        value = context.values[index]
        assert value.terms == expected.values[index].terms, index
        assert context.lotteries[index] == expected.lotteries[index], index
        assert context.values[index] is value
    return context


@pytest.mark.parametrize("name", MODELS)
@pytest.mark.parametrize("depth, grid", [(d, g) for d in (0, 1, 2) for g in (3, 4, 8)])
def test_integer_context_matches_the_definitional_one_on_bundled_models(
    monkeypatch, name, depth, grid
):
    # Depth 2 is past the audit's closure cap, lifted here: consolation at
    # grid 8 has 11,204 lotteries.
    monkeypatch.setattr(qualutil.auditor, "AUDIT_SIZE_LIMIT", 20_000)
    assert_context_matches_oracle(bundled(name, closure_depth=depth, grid_denominator=grid))


@pytest.mark.parametrize(
    "regime, signs",
    [
        (Regime.STD, None),
        (Regime.NS_PROB, None),
        (Regime.NS_UTIL, None),
        (Regime.NS_UTIL, "nonpositive"),
        (Regime.NS_UTIL, "mixed"),
    ],
)
def test_integer_context_matches_the_definitional_one_on_random_structures(regime, signs):
    rng = random.Random(2600)
    mixed = 0
    for index in range(24):
        structure = random_structure(
            rng,
            regime,
            generator_count=2 + index % 3,
            grid_denominator=3 + index % 3,
            closure_depth=index % 2,
            signs=signs,
        )
        mixed += assert_context_matches_oracle(structure).mixed_signs
    assert (mixed > 0) == (signs == "mixed")


def test_integer_context_matches_the_definitional_one_on_act_structures():
    rng = random.Random(2601)
    structures = [
        random_acts_structure(rng, regime, state_count=2 + index % 3)
        for index in range(4)
        for regime in Regime
    ]
    structures += [random_signed_acts_structure(rng, 2 + index % 3) for index in range(8)]
    structures += [
        random_tilted_acts_structure(rng, regime, signed=signed)
        for regime in Regime
        for signed in (False, True)
        if not signed or regime is Regime.NS_UTIL
    ]
    for structure in structures:
        assert_context_matches_oracle(structure)


# Signed utilities that include zero, an infinite value and negative values,
# on lotteries over them at standard probabilities.
context_utilities = st.one_of(
    st.sampled_from([rational(0), eps(-1), -eps(-1), rational(-1), -eps()]), nsreals
)


@given(
    utilities=st.lists(context_utilities, min_size=1, max_size=4),
    weights=st.lists(
        st.lists(st.integers(min_value=0, max_value=3), min_size=4, max_size=4),
        min_size=1,
        max_size=3,
    ),
    depth=st.integers(min_value=0, max_value=1),
    grid=st.integers(min_value=2, max_value=3),
)
def test_integer_context_matches_the_definitional_one_on_drawn_utilities(
    utilities, weights, depth, grid
):
    outcomes = [f"o{index}" for index in range(len(utilities))]
    generators = []
    for row in weights:
        row = row[: len(outcomes)]
        assume(sum(row))
        generators.append(
            Lottery.from_mapping(
                {o: rational(Fraction(w, sum(row))) for o, w in zip(outcomes, row) if w}
            )
        )
    assignment = UtilityAssignment.from_mapping(dict(zip(outcomes, utilities)), signed=True)
    structure = PrefStructure(Regime.NS_UTIL, assignment, tuple(generators), grid, depth)
    assert_context_matches_oracle(structure)


def test_an_infinite_value_raises_on_both_paths_under_NS_PROB():
    # A raw lottery with an infinite probability: its value eps**-1 has no
    # standard part, so the ranking raises, integer and definitional alike.
    utilities = UtilityAssignment.from_mapping({"a": rational(1), "b": rational(0)})
    infinite = Lottery((("a", eps(-1)), ("b", ONE - eps(-1))))
    structure = PrefStructure(
        Regime.NS_PROB, utilities, (Lottery.degenerate("b"), infinite), closure_depth=0
    )
    messages = []
    for build in (_build_context, oracle_context):
        with pytest.raises(InfiniteValue) as raised:
            build(structure)
        messages.append(str(raised.value))
    assert messages[0] == messages[1]


def test_the_context_values_no_member_and_builds_only_the_lotteries_it_names(monkeypatch):
    # The ranking is taken from integers: expected_utility is never called,
    # in prefcore or in the auditor.  An audit builds a closure lottery only
    # when a witness or a certificate names it.
    def refuse(*args):
        raise AssertionError("expected_utility called")

    mixed = random_structure(
        random.Random(503), Regime.NS_UTIL, grid_denominator=3, closure_depth=1, signs="mixed"
    )
    structures = [bundled(name, closure_depth=1, grid_denominator=3) for name in MODELS]
    with monkeypatch.context() as patched:
        patched.setattr(qualutil.auditor, "expected_utility", refuse)
        patched.setattr(qualutil.prefcore, "expected_utility", refuse)
        for structure in [*structures, mixed]:
            _build_context(structure)

    structure = bundled("consolation", closure_depth=1, grid_denominator=3)
    built = 0
    original = Lottery.__init__

    def counted(self, *args, **kwargs):
        nonlocal built
        built += 1
        original(self, *args, **kwargs)

    monkeypatch.setattr(Lottery, "__init__", counted)
    report = audit(structure)
    monkeypatch.undo()
    named = {
        lottery
        for verdict in report.verdicts
        for witness in verdict.witnesses
        for lottery in (witness.first, witness.middle, witness.second)
    }
    named.update(
        value
        for verdict in report.verdicts
        if verdict.counterexample is not None
        for _, value in verdict.counterexample.payload
        if isinstance(value, Lottery)
    )
    members = report.closure_size - len(structure.generators)
    assert 0 < built <= len(named - set(structure.generators)) < members


# --- the independence rule -------------------------------------------------
#
# Mixing both sides of a strict pair p > q with a third value r at a standard
# weight w keeps p strictly above q in STD and NS_PROB.  On NS_UTIL values of
# one sign it does so exactly unless r is of larger order of magnitude than
# both, e(r) < min(e(p), e(q)), at every weight alike.


@pytest.mark.parametrize(
    "regime, values",
    [
        pytest.param(Regime.STD, standard_fractions.map(rational), id="std"),
        pytest.param(Regime.NS_PROB, finite_nsreals_with_tails, id="ns-prob"),
        pytest.param(Regime.NS_UTIL, nonnegative_nsreals, id="ns-util-nonnegative"),
        pytest.param(
            Regime.NS_UTIL, nonnegative_nsreals.map(lambda v: -v), id="ns-util-nonpositive"
        ),
    ],
)
@given(data=st.data())
def test_independence_rule_is_the_mixed_comparison(regime, values, data):
    drawn = data.draw(st.lists(values, min_size=3, max_size=3))
    pairs = [
        (p, q, r)
        for p, q, r in itertools.permutations(drawn)
        if compare_values(p, q, regime) is PrefOrdering.BETTER
    ]
    assume(pairs)
    p, q, r = pairs[0]
    lead = lambda value: _lead(value)[0]
    kept = regime is not Regime.NS_UTIL or not lead(r) < min(lead(p), lead(q))
    for w in grid_weights(8):
        mixed = compare_values(w * p + (1 - w) * r, w * q + (1 - w) * r, regime)
        assert (mixed is PrefOrdering.BETTER) == kept, w


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
