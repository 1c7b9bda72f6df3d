"""Tests for state-contingent acts, beliefs, and null states."""

import random
from fractions import Fraction

import pytest

import qualutil.acts
from oracles import random_acts_structure, random_signed_acts_structure, random_tilted_acts_structure
from qualutil import (
    AAModel,
    Act,
    EPS,
    Lottery,
    MissingModel,
    ONE,
    PrefOrdering,
    PrefStructure,
    Regime,
    UnknownState,
    UtilityAssignment,
    act_prefers,
    act_utility,
    check_A5prime,
    constant_act,
    eps,
    is_null,
    null_state_analytic,
    null_state_sweep,
    rational,
    replay,
)

F = Fraction

UTILITIES = UtilityAssignment.from_mapping(
    {"good": rational(1), "bad": rational(0)}
)
SURE_GOOD = Lottery.degenerate("good")
SURE_BAD = Lottery.degenerate("bad")
COIN = Lottery.from_mapping({"good": rational(F(1, 2)), "bad": rational(F(1, 2))})


def model_over(beliefs, regime=Regime.STD, utilities=UTILITIES, validate=True):
    return AAModel.from_mappings(
        list(beliefs), beliefs, utilities, regime, validate=validate
    )


def test_act_sorts_states_and_looks_up_arms():
    act = Act.from_mapping({"t": SURE_BAD, "s": SURE_GOOD})
    assert act.states == ("s", "t")
    assert act.arm("s") == SURE_GOOD
    with pytest.raises(UnknownState):
        act.arm("nosuch")


def test_act_replacing_swaps_one_arm_only():
    act = Act.from_mapping({"s": SURE_GOOD, "t": SURE_BAD})
    patched = act.replacing("t", COIN)
    assert patched.arm("t") == COIN
    assert patched.arm("s") == SURE_GOOD
    assert act.arm("t") == SURE_BAD
    with pytest.raises(UnknownState):
        act.replacing("nosuch", COIN)


def test_constant_act_covers_every_state():
    act = constant_act(COIN, ["s", "t"])
    assert act.states == ("s", "t")
    assert act.arm("s") == act.arm("t") == COIN
    with pytest.raises(ValueError):
        constant_act(COIN, [])


def test_model_validates_belief_vector():
    with pytest.raises(ValueError, match="sum"):
        model_over({"s": rational(F(1, 2)), "t": rational(F(1, 4))})
    with pytest.raises(ValueError, match="negative"):
        model_over({"s": rational(F(3, 2)), "t": rational(F(-1, 2))})
    with pytest.raises(ValueError, match="nonempty"):
        AAModel.from_mappings([], {}, UTILITIES, Regime.STD)
    with pytest.raises(ValueError, match="exactly the states"):
        AAModel(
            states=("s",),
            belief=(("s", rational(F(1, 2))), ("t", rational(F(1, 2)))),
            utilities=UTILITIES,
            regime=Regime.STD,
        )
    with pytest.raises(ValueError, match="unique"):
        AAModel(
            states=("s", "s"),
            belief=(("s", rational(F(1, 2))), ("s", rational(F(1, 2)))),
            utilities=UTILITIES,
            regime=Regime.STD,
        )


def test_model_requires_standard_belief_outside_ns_prob():
    tilted = {"s": ONE - EPS, "t": EPS}
    for regime in (Regime.STD, Regime.NS_UTIL):
        with pytest.raises(ValueError, match="standard belief"):
            model_over(tilted, regime=regime)
    assert model_over(tilted, regime=Regime.NS_PROB).belief_at("t") == EPS
    escape_hatch = model_over(tilted, regime=Regime.NS_UTIL, validate=False)
    assert escape_hatch.belief_at("t") == EPS


def test_belief_lookup_unknown_state():
    model = model_over({"s": rational(1)})
    with pytest.raises(UnknownState):
        model.belief_at("nosuch")


def test_act_utility_weighs_arms_by_belief():
    model = model_over({"s": rational(F(1, 3)), "t": rational(F(2, 3))})
    act = Act.from_mapping({"s": SURE_GOOD, "t": COIN})
    assert act_utility(act, model) == rational(F(1, 3) + F(2, 3) * F(1, 2))


def test_act_prefers_uses_model_regime():
    model = model_over({"s": rational(F(1, 2)), "t": rational(F(1, 2))})
    better = Act.from_mapping({"s": SURE_GOOD, "t": SURE_GOOD})
    worse = Act.from_mapping({"s": SURE_GOOD, "t": COIN})
    assert act_prefers(better, worse, model) is PrefOrdering.BETTER
    assert act_prefers(worse, better, model) is PrefOrdering.WORSE
    assert act_prefers(better, better, model) is PrefOrdering.INDIFFERENT


def test_act_prefers_ns_prob_flattens_infinitesimal_edges():
    model = model_over(
        {"s": ONE - EPS, "t": EPS}, regime=Regime.NS_PROB
    )
    all_good = Act.from_mapping({"s": SURE_GOOD, "t": SURE_GOOD})
    hedged = Act.from_mapping({"s": SURE_GOOD, "t": SURE_BAD})
    assert act_prefers(all_good, hedged, model) is PrefOrdering.INDIFFERENT


def test_zero_belief_state_is_null():
    model = model_over({"s": rational(1), "t": rational(0)})
    acts = [
        Act.from_mapping({"s": SURE_GOOD, "t": SURE_BAD}),
        Act.from_mapping({"s": COIN, "t": SURE_GOOD}),
    ]
    assert is_null("t", model, acts)
    assert not is_null("s", model, acts)


def test_null_requires_an_act_pool():
    model = model_over({"s": rational(1)})
    with pytest.raises(MissingModel):
        null_state_sweep("s", model, [])
    with pytest.raises(MissingModel):
        null_state_analytic("s", model, [])


def test_infinitesimal_belief_state_can_be_null_despite_positive_belief():
    # Qualitative comparison absorbs the infinitesimally weighted arm as
    # long as every act keeps a standard stake elsewhere.
    tilted = model_over(
        {"s": ONE - EPS, "t": EPS}, regime=Regime.NS_UTIL, validate=False
    )
    standard_stakes = [
        Act.from_mapping({"s": SURE_GOOD, "t": SURE_BAD}),
        Act.from_mapping({"s": SURE_GOOD, "t": SURE_GOOD}),
        Act.from_mapping({"s": COIN, "t": COIN}),
    ]
    assert is_null("t", tilted, standard_stakes)

    # A zero-valued act removes the absorbing stake: rewriting the arm at
    # the infinitesimal state now changes preference, so it is not null.
    with_zero = standard_stakes + [
        Act.from_mapping({"s": SURE_BAD, "t": SURE_BAD})
    ]
    assert not is_null("t", tilted, with_zero)


def test_null_sweep_matches_analytic_rule_on_random_models():
    rng = random.Random(20260822)
    for _ in range(40):
        structure = random_acts_structure(
            rng, rng.choice([Regime.STD, Regime.NS_UTIL])
        )
        model = structure.model
        for state in model.states:
            swept = null_state_sweep(state, model, structure.acts)
            analytic = null_state_analytic(state, model, structure.acts)
            assert swept == analytic
            assert is_null(state, model, structure.acts) == swept


SIGNED = UtilityAssignment.from_mapping({"good": rational(1), "bad": rational(-1)}, signed=True)


def test_signed_utilities_are_decided_by_the_rule():
    model = model_over({"s": rational(1), "t": rational(0)}, utilities=SIGNED)
    acts = [
        Act.from_mapping({"s": SURE_GOOD, "t": SURE_BAD}),
        Act.from_mapping({"s": SURE_BAD, "t": SURE_GOOD}),
    ]
    assert is_null("t", model, acts)
    assert not is_null("s", model, acts)


def test_infinitesimally_likely_state_is_null_under_ns_prob():
    # Rewriting the arm at t moves each act by eps at most, which no
    # standard part sees, though the leading terms of 0 and eps differ.
    model = model_over({"s": ONE - EPS, "t": EPS}, regime=Regime.NS_PROB)
    acts = [
        Act.from_mapping({"s": SURE_BAD, "t": SURE_BAD}),
        Act.from_mapping({"s": SURE_BAD, "t": SURE_GOOD}),
    ]
    assert null_state_sweep("t", model, acts)
    assert is_null("t", model, acts)


@pytest.mark.parametrize("signed", [False, True], ids=["unsigned", "signed"])
@pytest.mark.parametrize("regime", list(Regime), ids=lambda regime: regime.name)
def test_null_rule_matches_the_sweep_under_infinitesimal_beliefs(regime, signed):
    rng = random.Random(2022 + 2 * list(Regime).index(regime) + signed)
    verdicts = set()
    for _ in range(40):
        structure = random_tilted_acts_structure(rng, regime, signed, rng.randint(2, 4))
        model = structure.model
        for state in model.states:
            swept = null_state_sweep(state, model, structure.acts)
            assert is_null(state, model, structure.acts) == swept
            verdicts.add(swept)
    assert verdicts == {False, True}


def test_is_null_and_replay_never_run_the_sweep(monkeypatch):
    def refuse(*args):
        raise AssertionError("the definitional sweep ran")

    monkeypatch.setattr(qualutil.acts, "null_state_sweep", refuse)
    rng = random.Random(2023)
    structures = [random_signed_acts_structure(rng)]
    for regime in Regime:
        for signed in (False, True):
            structures.append(random_tilted_acts_structure(rng, regime, signed))
    for structure in structures:
        for state in structure.model.states:
            is_null(state, structure.model, structure.acts)

    # A windfall at an infinitesimally likely state overrides its act, and
    # the state is not null: A5p fails, and replay re-decides nullity.
    model = model_over({"s": ONE - EPS, "t": EPS}, regime=Regime.NS_UTIL, validate=False)
    acts = (
        Act.from_mapping({"s": SURE_BAD, "t": SURE_GOOD}),
        Act.from_mapping({"s": SURE_BAD, "t": SURE_BAD}),
    )
    structure = PrefStructure(
        Regime.NS_UTIL, UTILITIES, (SURE_GOOD, SURE_BAD), closure_depth=0, model=model, acts=acts
    )
    certificate = check_A5prime(structure).counterexample
    assert certificate.kind == "null-state"
    assert replay(certificate, structure)
