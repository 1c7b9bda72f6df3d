"""Tests for the postulate auditor: checks, certificates, and replay."""

import random
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
import qualutil.auditor
from conftest import standard_fractions
from oracles import (
    negative_transitivity_scan,
    oracle_lexicographic_mixture_partition,
    random_acts_structure,
    random_structure,
    signed_A4_structure,
)
from qualutil import (
    AAModel,
    Act,
    AuditReport,
    AUDIT_SIZE_LIMIT,
    ClosureTooLarge,
    ConsistencyError,
    Counterexample,
    EPS,
    InvalidParameter,
    Lottery,
    MissingModel,
    MissingUtility,
    ONE,
    PrefOrdering,
    PrefStructure,
    QOrdering,
    RationalInterval,
    RationalIntervalSet,
    Regime,
    RegimeMismatch,
    UtilityAssignment,
    audit,
    check_A1,
    check_A2,
    check_A2prime,
    check_A3,
    check_A3doubleprime,
    check_A3prime,
    check_A4,
    check_A5prime,
    check_B2,
    check_gamma_property,
    eps,
    lexicographic_compare,
    lexicographic_mix,
    lexicographic_mixture_partition,
    mixture_closure,
    qcompare,
    rational,
    render_report,
    replay,
    solve_mixture_relation,
)
from qualutil.fixtures import dice_document, maximin_document

F = Fraction

B = PrefOrdering.BETTER
W = PrefOrdering.WORSE
I = PrefOrdering.INDIFFERENT


def degenerates(*outcomes):
    return tuple(Lottery.degenerate(outcome) for outcome in outcomes)


def structure_over(values, regime=Regime.NS_UTIL, signed=False, **kwargs):
    utilities = UtilityAssignment.from_mapping(
        {name: value for name, value in values.items()}, signed=signed
    )
    kwargs.setdefault("closure_depth", 0)
    return PrefStructure(
        regime=regime,
        utilities=utilities,
        generators=degenerates(*values),
        **kwargs,
    )


# The canonical overriding instance: a standard prize, an infinitesimal
# consolation, and nothing.
OVERRIDING = structure_over(
    {"top": rational(1), "tiny": EPS, "zero": rational(0)}
)

COMMENSURATE = structure_over(
    {"top": rational(1), "mid": rational(F(1, 2)), "zero": rational(0)}
)


# --- structure validation ----------------------------------------------------


def test_structure_requires_generators_and_sane_parameters():
    utilities = UtilityAssignment.from_mapping({"a": rational(1)})
    with pytest.raises(ValueError, match="generator"):
        PrefStructure(Regime.STD, utilities, ())
    with pytest.raises(ValueError, match="denominator"):
        PrefStructure(Regime.STD, utilities, degenerates("a"), grid_denominator=1)
    with pytest.raises(ValueError, match="depth"):
        PrefStructure(Regime.STD, utilities, degenerates("a"), closure_depth=-1)


def test_structure_requires_utility_coverage():
    utilities = UtilityAssignment.from_mapping({"a": rational(1)})
    with pytest.raises(MissingUtility):
        PrefStructure(Regime.STD, utilities, degenerates("a", "b"))


def test_structure_enforces_regime_standardness():
    utilities = UtilityAssignment.from_mapping({"a": rational(1), "b": rational(0)})
    tilted = Lottery.from_mapping({"a": ONE - EPS, "b": EPS})
    for regime in (Regime.STD, Regime.NS_UTIL):
        with pytest.raises(RegimeMismatch):
            PrefStructure(regime, utilities, (tilted,))
    assert PrefStructure(Regime.NS_PROB, utilities, (tilted,)).generators == (tilted,)

    nonstandard_utilities = UtilityAssignment.from_mapping(
        {"a": EPS, "b": rational(0)}
    )
    for regime in (Regime.STD, Regime.NS_PROB):
        with pytest.raises(RegimeMismatch):
            PrefStructure(regime, nonstandard_utilities, degenerates("a", "b"))


def test_structure_acts_need_a_model():
    utilities = UtilityAssignment.from_mapping({"a": rational(1)})
    act = Act.from_mapping({"s": Lottery.degenerate("a")})
    with pytest.raises(MissingModel):
        PrefStructure(Regime.STD, utilities, degenerates("a"), acts=(act,))


def test_structure_refuses_a_model_with_other_utilities():
    # Acts are valued with the model's utilities and lotteries with the
    # structure's, so the two must agree: a signed model beside unsigned
    # structure utilities would make audit() raise from check_A5prime.
    values = {"a": EPS, "b": rational(0)}
    unsigned = UtilityAssignment.from_mapping(values)
    act = Act.from_mapping({"s": Lottery.degenerate("a"), "t": Lottery.degenerate("b")})
    belief = {"s": rational(F(1, 2)), "t": rational(F(1, 2))}
    others = (
        UtilityAssignment.from_mapping(values, signed=True),
        UtilityAssignment.from_mapping({"a": 2 * EPS, "b": rational(0)}),
    )
    for utilities in others:
        model = AAModel.from_mappings(("s", "t"), belief, utilities, Regime.NS_UTIL)
        with pytest.raises(InvalidParameter, match="utilities differ"):
            PrefStructure(Regime.NS_UTIL, unsigned, degenerates("a", "b"), model=model, acts=(act,))
    model = AAModel.from_mappings(("s", "t"), belief, unsigned, Regime.NS_UTIL)
    structure = PrefStructure(
        Regime.NS_UTIL, unsigned, degenerates("a", "b"), closure_depth=0, model=model, acts=(act,)
    )
    assert audit(structure).verdict("A5p").holds


def test_mixture_closure_depth_override():
    assert len(mixture_closure(OVERRIDING)) == 3
    deeper = mixture_closure(OVERRIDING, depth=1)
    assert len(deeper) > 3
    assert set(mixture_closure(OVERRIDING)) <= set(deeper)


# --- weight solving ----------------------------------------------------------


def test_solve_mixture_relation_standard_threshold():
    one, half, zero = rational(1), rational(F(1, 2)), rational(0)
    level = solve_mixture_relation(one, zero, half, QOrdering.EQUIVALENT, Regime.STD)
    assert level.render() == "{1/2}"
    upper = solve_mixture_relation(one, zero, half, QOrdering.GREATER, Regime.STD)
    assert upper.render() == "(1/2, 1)"
    lower = solve_mixture_relation(one, zero, half, QOrdering.LESS, Regime.STD)
    assert lower.render() == "(0, 1/2)"


def test_solve_mixture_relation_overriding_chain_has_one_sided_answer():
    one, tiny, zero = rational(1), EPS, rational(0)
    upper = solve_mixture_relation(one, zero, tiny, QOrdering.GREATER, Regime.NS_UTIL)
    assert upper.is_entire_unit_interval()
    for relation in (QOrdering.LESS, QOrdering.EQUIVALENT):
        assert solve_mixture_relation(
            one, zero, tiny, relation, Regime.NS_UTIL
        ).is_empty


def test_solve_mixture_relation_membership_matches_direct_comparison():
    rng = random.Random(99)
    pool = [rational(1), rational(0), EPS, eps(2), rational(F(1, 2)) + EPS, rational(2)]
    for _ in range(25):
        vi, vk, vj = (rng.choice(pool) for _ in range(3))
        sets = {
            relation: solve_mixture_relation(vi, vk, vj, relation, Regime.NS_UTIL)
            for relation in QOrdering
        }
        for _ in range(25):
            a = F(rng.randint(1, 47), 48)
            holders = [rel for rel, s in sets.items() if s.contains(a)]
            assert len(holders) == 1
            assert holders[0] is qcompare(a * vi + (1 - a) * vk, vj)


# --- A1 ----------------------------------------------------------------------


def test_A1_holds_on_numeric_preferences_in_every_regime():
    rng = random.Random(1)
    for regime in Regime:
        for _ in range(5):
            verdict = check_A1(random_structure(rng, regime))
            assert verdict.holds, verdict
    assert check_A1(maximin_document().structure()).holds


def test_negative_transitivity_violation_finder_on_crafted_matrices():
    # p beats r, yet neither p over q nor q over r: a negative
    # transitivity failure at (0, 1, 2).
    matrix = (
        (I, I, B),
        (I, I, I),
        (W, I, I),
    )
    assert negative_transitivity_scan(matrix) == (0, 1, 2)

    # A clean total order has no violation.
    ordered = (
        (I, B, B),
        (W, I, B),
        (W, W, I),
    )
    assert negative_transitivity_scan(ordered) is None


def test_negative_transitivity_finder_scales_past_the_scan_limit():
    # A chain of 50 ordered by index has no violation.
    n = 50
    big = tuple(
        tuple(B if i < j else W if i > j else I for j in range(n)) for i in range(n)
    )
    assert negative_transitivity_scan(big) is None

    # Intransitive indifference (0 ~ 1 and 1 ~ 2, yet 0 beats 2): the scan
    # pins the triple.
    rows = [list(row) for row in big]
    for a, b in ((0, 1), (1, 2)):
        rows[a][b] = I
        rows[b][a] = I
    flawed = tuple(tuple(row) for row in rows)
    assert negative_transitivity_scan(flawed) == (0, 1, 2)


# --- A2 and its primed variant ----------------------------------------------


def test_A2_holds_for_commensurate_stakes():
    assert check_A2(COMMENSURATE).holds
    rng = random.Random(2)
    for _ in range(5):
        assert check_A2(random_structure(rng, Regime.STD)).holds


def test_A2_fails_under_overriding_and_certificate_replays():
    verdict = check_A2(OVERRIDING)
    assert not verdict.holds
    certificate = verdict.counterexample
    assert certificate is not None
    assert certificate.kind == "independence"
    # Mixing in the standard prize collapses the tiny-versus-nothing gap.
    assert certificate.get("p") == Lottery.degenerate("tiny")
    assert certificate.get("q") == Lottery.degenerate("zero")
    assert certificate.get("r") == Lottery.degenerate("top")
    assert certificate.get("actual") == "indifferent"
    assert replay(certificate, OVERRIDING)


def test_A2_certificate_does_not_replay_against_fixed_stakes():
    verdict = check_A2(OVERRIDING)
    certificate = verdict.counterexample
    repaired = structure_over(
        {"top": rational(1), "tiny": rational(F(1, 2)), "zero": rational(0)}
    )
    assert not replay(certificate, repaired)


def test_A2prime_exempts_overriding_third_lotteries():
    verdict = check_A2prime(OVERRIDING)
    assert verdict.holds
    assert "eligible" in verdict.domain


@pytest.mark.parametrize(
    "pieces, reason",
    [
        (
            ((F(0), F(1, 2), True, False), (F(1, 2), F(1), True, True)),
            "no weight in (0, 1) lies outside it",
        ),
        (((F(0), F(1, 2), True, True),), "the weight 3/4 outside it keeps p above q"),
    ],
)
def test_A2prime_guard_names_the_triple_and_the_preserving_set(monkeypatch, pieces, reason):
    # A2p is decided by rule; its definitional scan, the oracle, solves the
    # preserving set of each triple, and one that is not all of (0, 1) must
    # yield a failing weight.
    preserving = RationalIntervalSet(tuple(RationalInterval(*piece) for piece in pieces))
    monkeypatch.setattr(
        oracles,
        "oracle_partition_affine_comparison",
        lambda *args: {QOrdering.GREATER: preserving},
    )
    with pytest.raises(ConsistencyError) as raised:
        oracles.oracle_A2prime(COMMENSURATE)
    message = str(raised.value)
    assert f"the preserving set {preserving.render()} of closure triple (" in message
    assert message.endswith(reason)


def test_A2_rule_guard_names_the_triple(monkeypatch):
    # A triple the leading-exponent rule calls failing must fail when mixed;
    # the guard holds under python -O, where an assert would not.
    monkeypatch.setattr(qualutil.auditor, "_independence_failure", lambda *args: None)
    with pytest.raises(ConsistencyError) as raised:
        check_A2(OVERRIDING)
    message = str(raised.value)
    assert message.startswith("A2: closure triple (1, 2, 0) with values (")
    assert message.endswith("yet mixing at 1/8 keeps p above q")


def test_A2prime_requires_unsigned_qualitative_setting():
    signed = maximin_document().structure()
    with pytest.raises(RegimeMismatch):
        check_A2prime(signed)
    ns_prob = dice_document().structure()
    with pytest.raises(RegimeMismatch):
        check_A2prime(ns_prob)


# --- solvability family ------------------------------------------------------


def test_A3_holds_with_witnesses_on_commensurate_stakes():
    verdict = check_A3(COMMENSURATE)
    assert verdict.holds
    labels = {witness.label for witness in verdict.witnesses}
    assert labels == {"alpha", "beta"}
    chain_witnesses = [
        witness
        for witness in verdict.witnesses
        if witness.first == Lottery.degenerate("top")
        and witness.middle == Lottery.degenerate("mid")
        and witness.second == Lottery.degenerate("zero")
    ]
    by_label = {witness.label: witness.weight for witness in chain_witnesses}
    assert by_label["alpha"] == F(3, 4)
    assert by_label["beta"] == F(1, 4)


def test_A3_fails_below_an_overriding_middle():
    verdict = check_A3(OVERRIDING)
    assert not verdict.holds
    certificate = verdict.counterexample
    assert certificate.get("postulate") == "A3"
    assert certificate.get("missing") == "beta"
    assert certificate.get("relation") == "less"
    assert replay(certificate, OVERRIDING)
    assert not replay(certificate, COMMENSURATE.__class__(
        regime=COMMENSURATE.regime,
        utilities=UtilityAssignment.from_mapping(
            {"top": rational(1), "tiny": rational(F(1, 2)), "zero": rational(0)}
        ),
        generators=degenerates("top", "tiny", "zero"),
        closure_depth=0,
    ))


def test_A3prime_holds_on_the_overriding_instance():
    verdict = check_A3prime(OVERRIDING)
    assert verdict.holds
    half_witnesses = [
        witness for witness in verdict.witnesses if witness.label == "alpha"
    ]
    assert half_witnesses
    # Every strict chain admits an upper weight; for top > tiny > zero any
    # standard weight works and the witness is the midpoint of (0, 1).
    top_chain = [
        witness
        for witness in half_witnesses
        if witness.first == Lottery.degenerate("top")
        and witness.middle == Lottery.degenerate("tiny")
    ]
    assert top_chain and top_chain[0].weight == F(1, 2)


def test_A3doubleprime_skips_overridden_chains_and_holds():
    verdict = check_A3doubleprime(OVERRIDING)
    assert verdict.holds
    assert "non-overriding" in verdict.domain


def test_A3doubleprime_finds_beta_on_commensurate_chains():
    verdict = check_A3doubleprime(COMMENSURATE)
    assert verdict.holds
    betas = {witness.weight for witness in verdict.witnesses}
    assert F(1, 4) in betas


def test_gamma_property_holds_with_exact_crossing():
    verdict = check_gamma_property(COMMENSURATE)
    assert verdict.holds
    gamma_weights = {witness.weight for witness in verdict.witnesses}
    assert F(1, 2) in gamma_weights


def test_gamma_property_vacuous_when_no_mixture_falls_below():
    verdict = check_gamma_property(OVERRIDING)
    assert verdict.holds
    assert verdict.witnesses == ()


# --- nonstandard probability checks -----------------------------------------


def test_B2_requires_the_nonstandard_probability_regime():
    with pytest.raises(RegimeMismatch):
        check_B2(COMMENSURATE)


def test_B2_holds_on_the_tilted_dice_instance():
    verdict = check_B2(dice_document().structure())
    assert verdict.holds
    assert "nonstandard" in verdict.domain


def test_B2_holds_on_random_tilted_instances():
    rng = random.Random(3)
    for _ in range(5):
        structure = random_structure(rng, Regime.NS_PROB)
        assert check_B2(structure).holds
        assert check_A3(structure).holds
        assert check_A1(structure).holds


# --- act-level checks --------------------------------------------------------


def test_A4_and_A5prime_require_acts():
    with pytest.raises(MissingModel):
        check_A4(COMMENSURATE)
    with pytest.raises(MissingModel):
        check_A5prime(COMMENSURATE)


def test_A4_holds_on_random_act_pools():
    rng = random.Random(4)
    for regime in (Regime.STD, Regime.NS_UTIL):
        for _ in range(5):
            structure = random_acts_structure(rng, regime)
            assert check_A4(structure).holds


def test_A5prime_holds_with_standard_beliefs():
    rng = random.Random(5)
    for _ in range(5):
        structure = random_acts_structure(rng, Regime.NS_UTIL)
        assert check_A5prime(structure).holds


def _infinitesimal_belief_structure():
    utilities = UtilityAssignment.from_mapping(
        {"good": rational(1), "bad": rational(0)}
    )
    model = AAModel.from_mappings(
        ["s", "t"],
        {"s": ONE - EPS, "t": EPS},
        utilities,
        Regime.NS_UTIL,
        validate=False,
    )
    good, bad = Lottery.degenerate("good"), Lottery.degenerate("bad")
    windfall = Act.from_mapping({"s": bad, "t": good})
    nothing = Act.from_mapping({"s": bad, "t": bad})
    return PrefStructure(
        regime=Regime.NS_UTIL,
        utilities=utilities,
        generators=(good, bad),
        closure_depth=0,
        model=model,
        acts=(windfall, nothing),
    )


def test_A5prime_fails_on_infinitesimal_belief_and_certificate_replays():
    structure = _infinitesimal_belief_structure()
    verdict = check_A5prime(structure)
    assert not verdict.holds
    certificate = verdict.counterexample
    assert certificate.kind == "null-state"
    assert certificate.get("state") == "t"
    assert replay(certificate, structure)
    # The same certificate proves nothing once the belief is standard: the
    # windfall arm no longer overrides the act carrying it.
    utilities = structure.utilities
    even_model = AAModel.from_mappings(
        ["s", "t"],
        {"s": rational(F(1, 2)), "t": rational(F(1, 2))},
        utilities,
        Regime.NS_UTIL,
    )
    standard = PrefStructure(
        regime=Regime.NS_UTIL,
        utilities=utilities,
        generators=structure.generators,
        closure_depth=0,
        model=even_model,
        acts=structure.acts,
    )
    assert not replay(certificate, standard)


# --- audit orchestration -----------------------------------------------------


def test_audit_check_sets_per_regime():
    std = audit(random_structure(random.Random(10), Regime.STD))
    assert [v.postulate for v in std.verdicts] == ["A1", "A2", "A3", "gamma"]

    unsigned = audit(OVERRIDING)
    assert [v.postulate for v in unsigned.verdicts] == [
        "A1", "A2", "A2p", "A3p", "A3pp", "gamma",
    ]
    assert unsigned.notes == ()

    ns_prob = audit(dice_document().structure())
    assert [v.postulate for v in ns_prob.verdicts] == ["A1", "A3", "B2"]
    assert ns_prob.all_hold

    signed = audit(maximin_document().structure())
    assert [v.postulate for v in signed.verdicts] == ["A1", "A2", "A3p", "gamma"]
    assert any("signed" in note for note in signed.notes)


def test_audit_includes_act_checks_when_acts_present():
    report = audit(_infinitesimal_belief_structure())
    postulates = [v.postulate for v in report.verdicts]
    assert postulates[-2:] == ["A4", "A5p"]
    assert report.verdict("A4").holds
    assert not report.verdict("A5p").holds
    assert not report.all_hold


def test_audit_report_structure_fields():
    report = audit(COMMENSURATE)
    assert isinstance(report, AuditReport)
    assert report.regime is Regime.NS_UTIL
    assert report.generator_count == 3
    assert report.closure_size == 3
    assert report.all_hold
    with pytest.raises(KeyError):
        report.verdict("B2")


def test_audit_verdicts_on_the_maximin_instance():
    report = audit(maximin_document().structure())
    assert report.verdict("A1").holds
    assert not report.verdict("A2").holds
    assert not report.verdict("A3p").holds
    assert not report.verdict("gamma").holds
    structure = maximin_document().structure()
    for postulate in ("A2", "A3p", "gamma"):
        certificate = report.verdict(postulate).counterexample
        assert certificate is not None
        assert replay(certificate, structure), postulate


def test_audit_refuses_oversized_closures():
    big = PrefStructure(
        regime=Regime.NS_UTIL,
        utilities=OVERRIDING.utilities,
        generators=OVERRIDING.generators,
        grid_denominator=8,
        closure_depth=2,
    )
    with pytest.raises(ClosureTooLarge, match="closure-depth"):
        audit(big)
    assert AUDIT_SIZE_LIMIT == 64


def test_oversized_closure_is_refused_before_it_is_built():
    # Six generators, grid 8: round 1 alone makes 105 mixtures, past the
    # limit, and round 2 would mix every pair of the 111 lotteries it
    # leaves (about 10 MB of integer vectors).  Refusing as soon as the
    # closure passes the limit holds part of round 1 only, about 11 kB;
    # finishing round 1 first would take about 23 kB.
    six = structure_over(
        {name: rational(value) for value, name in enumerate("abcdef")},
        regime=Regime.STD,
        grid_denominator=8,
        closure_depth=2,
    )
    tracemalloc.start()
    try:
        with pytest.raises(ClosureTooLarge, match="round 1 of 2") as excinfo:
            audit(six)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert "closure-depth" in str(excinfo.value)
    assert peak < 20_000


def test_replay_rejects_unknown_certificate_kind():
    from qualutil import Counterexample

    with pytest.raises(ValueError):
        replay(Counterexample(kind="nonsense", payload=()), COMMENSURATE)


# No check emits A1's definitional certificate kinds: the audit ranks its
# closure, so A1 holds by construction, and replay treats them as unknown.
@pytest.mark.parametrize("kind", ["asymmetry", "negative-transitivity"])
def test_replay_rejects_the_definitional_A1_certificate_kinds(kind):
    from qualutil import Counterexample

    with pytest.raises(ValueError):
        replay(Counterexample(kind=kind, payload=()), COMMENSURATE)


def test_signed_acts_audit_omits_A5p_and_renders_the_A4_certificate():
    report = audit(signed_A4_structure())
    assert [v.postulate for v in report.verdicts] == ["A1", "A2", "A3p", "gamma", "A4"]
    assert report.notes == (
        "A2p and A3pp omitted: overriding is undefined for signed utilities",
        "A5p omitted: overriding is undefined for signed utilities",
    )
    human = render_report(report).splitlines()
    assert human[human.index("VERDICT A4 FAIL") + 2 :][:5] == [
        "  counterexample (act-independence):",
        "    a = [s -> {one: 1}, t -> {debt: 1}]",
        "    b = [s -> {nearly: 1}, t -> {debt: 1}]",
        "    state = s",
        "    arm_comparison = indifferent",
    ]
    assert (
        "VERDICT A4 FAIL kind=act-independence a=[s->{one:1},t->{debt:1}] "
        "b=[s->{nearly:1},t->{debt:1}] state=s arm_comparison=indifferent"
    ) in render_report(report, machine=True).splitlines()


def _forged(certificate, **changes):
    payload = tuple((key, changes.get(key, value)) for key, value in certificate.payload)
    return Counterexample(certificate.kind, payload)


def test_replay_refuses_forged_certificates():
    independence = check_A2(OVERRIDING).counterexample
    p, q = independence.get("p"), independence.get("q")
    assert replay(independence, OVERRIDING)
    assert not replay(_forged(independence, p=q, q=p), OVERRIDING)

    top, tiny, zero = degenerates("top", "tiny", "zero")
    chain = Counterexample(
        "existential",
        (("p", top), ("q", tiny), ("r", zero), ("postulate", "A3pp"), ("relation", "less")),
    )
    # The chain is strict, but its top overrides its middle: exempt from A3pp.
    assert not replay(chain, OVERRIDING)
    assert not replay(_forged(chain, p=tiny, q=top), OVERRIDING)
    assert not replay(_forged(chain, q=zero, r=tiny), OVERRIDING)

    signed = signed_A4_structure()
    acts = check_A4(signed).counterexample
    assert replay(acts, signed)
    assert not replay(_forged(acts, a=acts.get("b"), b=acts.get("a")), signed)
    assert not replay(acts, replace(signed, model=None, acts=()))

    overriding_belief = _infinitesimal_belief_structure()
    null_state = check_A5prime(overriding_belief).counterexample
    assert replay(null_state, overriding_belief)
    assert not replay(null_state, replace(overriding_belief, model=None, acts=()))


# --- lexicographic contrast --------------------------------------------------


def test_lexicographic_compare_is_a_total_order_without_thresholds():
    best = (F(2), F(0))
    middle = (F(1), F(10))
    worst = (F(0), F(0))
    assert lexicographic_compare(best, middle) is B
    assert lexicographic_compare(middle, worst) is B
    assert lexicographic_compare(best, worst) is B
    assert lexicographic_compare(middle, middle) is I
    # First coordinate ties break on the second.
    assert lexicographic_compare((F(1), F(1)), (F(1), F(0))) is B


def test_lexicographic_mix_is_coordinatewise():
    mixed = lexicographic_mix(F(2, 5), (F(2), F(0)), (F(0), F(0)))
    assert mixed == (F(4, 5), F(0))
    with pytest.raises(ValueError):
        lexicographic_mix(F(0), (F(1), F(0)), (F(0), F(0)))


def test_lexicographic_partition_has_no_indifference_weight():
    best = (F(2), F(0))
    middle = (F(1), F(10))
    worst = (F(0), F(0))
    parts = lexicographic_mixture_partition(best, worst, middle)
    better = parts[B]
    worse = parts[W]
    assert I not in parts
    assert worse.contains(F(2, 5))
    assert worse.contains(F(1, 2))  # the tie on coordinate one goes down
    assert better.contains(F(3, 4))
    assert worse.render() == "(0, 1/2]"
    assert better.render() == "(1/2, 1)"


# Coordinates drawn often from a few values, so that ties, zero and
# degenerate (constant) coordinates come up.
lex_coordinates = st.one_of(st.sampled_from([F(0), F(1), F(-1)]), standard_fractions)
lex_values = st.tuples(lex_coordinates, lex_coordinates)


@given(lex_values, lex_values)
def test_lexicographic_compare_is_tuple_order(first, second):
    expected = B if first > second else W if first < second else I
    assert lexicographic_compare(first, second) is expected


@given(lex_values, lex_values, lex_values)
def test_lexicographic_partition_matches_the_breakpoint_oracle(endpoint, other_endpoint, target):
    parts = lexicographic_mixture_partition(endpoint, other_endpoint, target)
    expected = oracle_lexicographic_mixture_partition(endpoint, other_endpoint, target)
    assert list(parts.items()) == list(expected.items())
