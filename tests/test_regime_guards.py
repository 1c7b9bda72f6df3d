"""Which checks apply to which structures: the guard matrix.

Every ``check_*`` runs against one small structure per regime (and per sign
of the utilities where that matters), once with a model and acts and once
without.  The table pins, for every combination, whether the check runs or
refuses, with which exception type and exactly which message.
"""

import dataclasses
from fractions import Fraction

import pytest

from qualutil import (
    AAModel,
    Act,
    EPS,
    Lottery,
    MissingModel,
    ONE,
    PrefStructure,
    Regime,
    RegimeMismatch,
    UtilityAssignment,
    Verdict,
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
    rational,
)

CHECKS = {
    "A1": check_A1,
    "A2": check_A2,
    "A3": check_A3,
    "B2": check_B2,
    "A2p": check_A2prime,
    "A3p": check_A3prime,
    "A3pp": check_A3doubleprime,
    "gamma": check_gamma_property,
    "A4": check_A4,
    "A5p": check_A5prime,
}

# name -> (regime, utilities, signed)
STRUCTURES = {
    "std": (Regime.STD, {"a": rational(1), "b": rational(0)}, False),
    "std-signed": (Regime.STD, {"a": rational(1), "b": rational(-1)}, True),
    "ns-util": (Regime.NS_UTIL, {"a": rational(1), "b": EPS}, False),
    "ns-util-signed": (Regime.NS_UTIL, {"a": rational(1), "b": -EPS}, True),
    "ns-prob": (Regime.NS_PROB, {"a": rational(1), "b": rational(0)}, False),
}

SIGNED = "relies on the overriding relation, undefined for signed utilities"
STANDARD_PROBABILITIES = "applies to standard-probability regimes"
HALF = rational(Fraction(1, 2))
NO_ACTS = (MissingModel, "this check needs a model and generator acts")

# (check, structure) -> the refusal, for every combination that refuses when
# the structure carries a model and acts.  Everything else runs.
REFUSALS = {
    ("B2", "std"): (RegimeMismatch, "B2 applies to nonstandard probabilities only"),
    ("B2", "std-signed"): (RegimeMismatch, "B2 applies to nonstandard probabilities only"),
    ("B2", "ns-util"): (RegimeMismatch, "B2 applies to nonstandard probabilities only"),
    ("B2", "ns-util-signed"): (
        RegimeMismatch,
        "B2 applies to nonstandard probabilities only",
    ),
    ("A2p", "std-signed"): (RegimeMismatch, f"A2p {SIGNED}"),
    ("A2p", "ns-util-signed"): (RegimeMismatch, f"A2p {SIGNED}"),
    ("A2p", "ns-prob"): (RegimeMismatch, f"A2p {STANDARD_PROBABILITIES}"),
    ("A3p", "ns-prob"): (RegimeMismatch, f"A3p {STANDARD_PROBABILITIES}"),
    ("A3pp", "std-signed"): (RegimeMismatch, f"A3pp {SIGNED}"),
    ("A3pp", "ns-util-signed"): (RegimeMismatch, f"A3pp {SIGNED}"),
    ("A3pp", "ns-prob"): (RegimeMismatch, f"A3pp {STANDARD_PROBABILITIES}"),
    ("gamma", "ns-prob"): (RegimeMismatch, f"the gamma property {STANDARD_PROBABILITIES}"),
    ("A5p", "std"): (RegimeMismatch, "A5p applies to the nonstandard-utility regime"),
    ("A5p", "std-signed"): (RegimeMismatch, "A5p applies to the nonstandard-utility regime"),
    ("A5p", "ns-util-signed"): (
        RegimeMismatch,
        "A5p relies on overriding, undefined for signed utilities",
    ),
    ("A5p", "ns-prob"): (RegimeMismatch, "A5p applies to the nonstandard-utility regime"),
}


def _structure(name: str, with_acts: bool) -> PrefStructure:
    regime, values, signed = STRUCTURES[name]
    utilities = UtilityAssignment.from_mapping(values, signed=signed)
    generators = (
        Lottery.degenerate("a"),
        Lottery.degenerate("b"),
        Lottery.from_mapping({"a": HALF, "b": HALF}),
    )
    if not with_acts:
        return PrefStructure(regime, utilities, generators, grid_denominator=2, closure_depth=0)
    belief = {"s": HALF, "t": HALF}
    if regime is Regime.NS_PROB:
        belief = {"s": ONE - EPS, "t": EPS}
    model = AAModel.from_mappings(("s", "t"), belief, utilities, regime)
    acts = (
        Act.from_mapping({"s": generators[0], "t": generators[1]}),
        Act.from_mapping({"s": generators[1], "t": generators[0]}),
        Act.from_mapping({"s": generators[2], "t": generators[2]}),
    )
    return PrefStructure(
        regime,
        utilities,
        generators,
        grid_denominator=2,
        closure_depth=0,
        model=model,
        acts=acts,
    )


def _expected(check: str, name: str, with_acts: bool):
    if not with_acts and check in ("A4", "A5p"):
        return NO_ACTS
    return REFUSALS.get((check, name))


@pytest.mark.parametrize("with_acts", [True, False], ids=["acts", "no-acts"])
@pytest.mark.parametrize("name", sorted(STRUCTURES))
@pytest.mark.parametrize("check", sorted(CHECKS))
def test_guard_matrix(check, name, with_acts):
    structure = _structure(name, with_acts)
    refusal = _expected(check, name, with_acts)
    if refusal is None:
        verdict = CHECKS[check](structure)
        assert isinstance(verdict, Verdict)
        assert verdict.postulate == check
        return
    error_type, message = refusal
    with pytest.raises(error_type) as raised:
        CHECKS[check](structure)
    assert type(raised.value) is error_type
    assert str(raised.value) == message


def test_every_refusal_names_a_known_check_and_structure():
    for check, name in REFUSALS:
        assert check in CHECKS and name in STRUCTURES


MODEL_MISMATCHES = [
    (name, model_regime)
    for name in sorted(STRUCTURES)
    for model_regime in Regime
    if model_regime is not STRUCTURES[name][0]
]


@pytest.mark.parametrize(
    "name, model_regime",
    MODEL_MISMATCHES,
    ids=[f"{name}-{regime.value}-model" for name, regime in MODEL_MISMATCHES],
)
def test_a_model_of_another_regime_is_refused_at_construction(name, model_regime):
    # Otherwise audit() would pick A5p by the structure's regime and
    # check_A5prime would refuse by the model's, raising mid-audit.
    structure = _structure(name, with_acts=True)
    model = AAModel.from_mappings(
        ("s", "t"), {"s": HALF, "t": HALF}, structure.utilities, model_regime
    )
    with pytest.raises(RegimeMismatch) as raised:
        dataclasses.replace(structure, model=model)
    assert type(raised.value) is RegimeMismatch
    assert str(raised.value) == (
        f"the model's regime {model_regime.value} differs from "
        f"the structure's regime {structure.regime.value}"
    )
