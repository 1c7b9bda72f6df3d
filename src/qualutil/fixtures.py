"""Built-in example models and the gate that re-checks all of them.

Each worked example ships twice: as a readable model file under
``qualutil/models/`` and as a programmatic builder here.  ``run_examples``
cross-checks the two and then re-establishes every headline claim; the
``examples`` CLI subcommand and the acceptance tests both go through it, so
a drifted fixture file fails loudly rather than silently.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from pathlib import Path

from .auditor import (
    audit,
    lexicographic_compare,
    lexicographic_mixture_partition,
    LexValue,
    replay,
)
from .criteria import MaximinSpec, maximin_sweep, maximin_utilities, two_point_lottery
from .errors import InvalidParameter, UnknownIdentifier
from .formats import ModelDocument, load_model, render_nsreal
from .nsreal import EPS, NSReal, ONE, ZERO, eps
from .prefcore import (
    Lottery,
    PrefOrdering,
    Regime,
    UtilityAssignment,
    check_property_P,
    expected_utility,
    mix,
    prefers,
    qualitative_prefers,
)

__all__ = [
    "available_fixtures",
    "fixture_path",
    "load_fixture",
    "dice_document",
    "consolation_document",
    "surgery_document",
    "maximin_document",
    "lexicographic_chain",
    "ExampleCheck",
    "run_examples",
]


def _models_root():
    return resources.files("qualutil").joinpath("models")


def available_fixtures() -> tuple[str, ...]:
    names = [
        entry.name[: -len(".model")]
        for entry in _models_root().iterdir()
        if entry.name.endswith(".model")
    ]
    return tuple(sorted(names))


def fixture_path(name: str) -> Path:
    path = Path(str(_models_root().joinpath(f"{name}.model")))
    if not path.is_file():
        raise UnknownIdentifier(
            f"no built-in model {name!r}; available: {', '.join(available_fixtures())}"
        )
    return path


def load_fixture(name: str) -> ModelDocument:
    return load_model(fixture_path(name))


# ---------------------------------------------------------------------------
# Programmatic builders


def _document(
    regime: Regime,
    utilities: UtilityAssignment,
    lotteries: list[tuple[str, Lottery]],
    closure_depth: int = 0,
) -> ModelDocument:
    return ModelDocument(
        regime=regime,
        utilities=utilities,
        lotteries=tuple(lotteries),
        states=(),
        model=None,
        acts=(),
        grid_denominator=8,
        closure_depth=closure_depth,
    )


def dice_document() -> ModelDocument:
    """A die that can land on a face or, infinitesimally often, an edge."""
    face = NSReal.from_terms([(0, Fraction(1, 6)), (1, Fraction(-1, 6))])
    utilities = UtilityAssignment.from_mapping({"win": ONE, "lose": ZERO})

    def bet(win: NSReal) -> Lottery:
        return Lottery.from_mapping({"win": win, "lose": ONE - win})

    face_or_edges = NSReal.from_terms([(0, Fraction(1, 6)), (1, Fraction(5, 6))])
    return _document(
        Regime.NS_PROB,
        utilities,
        [
            ("b6", bet(face)),
            ("b4", bet(face)),
            ("e6", bet(face_or_edges)),
            ("e", bet(EPS)),
            ("f", bet(Fraction(1, 12) * EPS)),
        ],
    )


def consolation_document(chance: Fraction = Fraction(1, 2)) -> ModelDocument:
    """Raffles for a trip whose consolation prize has infinitesimal worth."""
    if not 0 < chance < 1:
        raise InvalidParameter("the raffle chance must lie strictly between 0 and 1")
    utilities = UtilityAssignment.from_mapping(
        {"hawaii": ONE, "paris": ONE, "magazine": EPS, "nothing": ZERO}
    )
    rest = 1 - chance
    return _document(
        Regime.NS_UTIL,
        utilities,
        [
            ("one", Lottery.from_mapping({"hawaii": chance, "nothing": rest})),
            ("two", Lottery.from_mapping({"hawaii": chance, "magazine": rest})),
            ("three", Lottery.from_mapping({"paris": chance, "nothing": rest})),
            ("magazine_sure", Lottery.degenerate("magazine")),
            ("nothing_sure", Lottery.degenerate("nothing")),
        ],
    )


def surgery_document() -> ModelDocument:
    """A choice with an infinitely valuable outcome and no standard
    indifference threshold against the sure middle option."""
    utilities = UtilityAssignment.from_mapping(
        {"long_life": eps(-1), "status_quo": ONE, "death": ZERO}
    )
    return _document(
        Regime.NS_UTIL,
        utilities,
        [
            ("l", Lottery.degenerate("long_life")),
            ("p", Lottery.degenerate("status_quo")),
            ("d", Lottery.degenerate("death")),
            ("surgery", Lottery.from_mapping({"long_life": Fraction(1, 2), "death": Fraction(1, 2)})),
            (
                "surgery_micro",
                Lottery.from_mapping({"long_life": Fraction(1, 100), "death": Fraction(99, 100)}),
            ),
        ],
    )


def maximin_document() -> ModelDocument:
    """Worst-case-first preferences over three ranked outcomes."""
    spec = MaximinSpec(3)
    utilities = maximin_utilities(spec)
    half = Fraction(1, 2)
    return _document(
        Regime.NS_UTIL,
        utilities,
        [
            ("worst", Lottery.degenerate(spec.outcome(0))),
            ("middle", Lottery.degenerate(spec.outcome(1))),
            ("best", Lottery.degenerate(spec.outcome(2))),
            ("half_best_worst", two_point_lottery(spec, 0, half, 2)),
            ("half_middle_worst", two_point_lottery(spec, 0, half, 1)),
        ],
    )


def lexicographic_chain() -> tuple[LexValue, LexValue, LexValue]:
    """Three two-coordinate values ordered lexicographically: the middle one
    wins its tie on the second coordinate, yet no mixture of the endpoints
    is ever exactly indifferent to it."""
    return (
        (Fraction(2), Fraction(0)),
        (Fraction(1), Fraction(10)),
        (Fraction(0), Fraction(0)),
    )


# ---------------------------------------------------------------------------
# The example gate


@dataclass(frozen=True)
class ExampleCheck:
    name: str
    passed: bool
    detail: str


def _result(name: str, failures: list[str], success: str) -> ExampleCheck:
    if failures:
        return ExampleCheck(name, False, "; ".join(failures))
    return ExampleCheck(name, True, success)


def _check_dice() -> ExampleCheck:
    failures: list[str] = []
    built = dice_document()
    if load_fixture("dice") != built:
        failures.append("shipped dice.model disagrees with the programmatic builder")
    u = built.utilities
    pairs = [
        ("b6", "b4", PrefOrdering.INDIFFERENT),
        ("e6", "b6", PrefOrdering.INDIFFERENT),
        ("e", "f", PrefOrdering.BETTER),
    ]
    for first, second, expected in pairs:
        got = qualitative_prefers(built.lottery(first), built.lottery(second), u)
        if got is not expected:
            failures.append(f"{first} vs {second}: {got.value}, expected {expected.value}")
    for name, text in (("e", "eps"), ("f", "1/12*eps")):
        rendered = render_nsreal(expected_utility(built.lottery(name), u))
        if rendered != text:
            failures.append(f"utility of {name} renders {rendered!r}, expected {text!r}")
    return _result("dice", failures, "edge bets compare and render exactly")


def _check_consolation() -> ExampleCheck:
    failures: list[str] = []
    if load_fixture("consolation") != consolation_document(Fraction(1, 2)):
        failures.append("shipped consolation.model disagrees with the builder")
    for chance in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
        doc = consolation_document(chance)
        u = doc.utilities
        raffles = [doc.lottery(name) for name in ("one", "two", "three")]
        for i in range(3):
            for j in range(3):
                got = prefers(raffles[i], raffles[j], u, Regime.NS_UTIL)
                if got is not PrefOrdering.INDIFFERENT:
                    failures.append(f"raffles {i} vs {j} at chance {chance}: {got.value}")
        sure = prefers(
            doc.lottery("magazine_sure"), doc.lottery("nothing_sure"), u, Regime.NS_UTIL
        )
        if sure is not PrefOrdering.BETTER:
            failures.append(f"magazine vs nothing at chance {chance}: {sure.value}")
    return _result(
        "consolation", failures, "prize matters alone, vanishes inside the raffles"
    )


def _check_surgery() -> ExampleCheck:
    failures: list[str] = []
    built = surgery_document()
    if load_fixture("surgery") != built:
        failures.append("shipped surgery.model disagrees with the builder")
    u = built.utilities
    long_shot = built.lottery("l")
    sure = built.lottery("p")
    nothing = built.lottery("d")
    for weight in (Fraction(1, 1000), Fraction(1, 100), Fraction(1, 2), Fraction(999, 1000)):
        mixture = mix(weight, long_shot, nothing)
        got = prefers(mixture, sure, u, Regime.NS_UTIL)
        if got is not PrefOrdering.BETTER:
            failures.append(f"mixture at {weight} vs sure option: {got.value}")
    report = check_property_P(sure, long_shot, nothing, u, Regime.NS_UTIL)
    if report.holds or not report.indifference_set.is_empty:
        failures.append("an indifference weight exists where none should")
    if report.failure is None:
        failures.append("missing failure label on the threshold report")
    return _result("surgery", failures, "no standard weight calibrates the long shot")


def _check_maximin() -> ExampleCheck:
    failures: list[str] = []
    built = maximin_document()
    if load_fixture("maximin3") != built:
        failures.append("shipped maximin3.model disagrees with the builder")
    _, disagreements = maximin_sweep(MaximinSpec(3), 8)
    if disagreements:
        failures.append(f"{disagreements} oracle disagreements on two-point bets")
    report = audit(built.structure())
    verdict = report.verdict("A2")
    if verdict.holds:
        failures.append("independence unexpectedly holds")
    elif verdict.counterexample is None:
        failures.append("independence failed without a certificate")
    elif not replay(verdict.counterexample, built.structure()):
        failures.append("the independence certificate does not replay")
    return _result("maximin", failures, "worst-case order matches, independence fails")


def _check_lexicographic() -> ExampleCheck:
    failures: list[str] = []
    top, target, bottom = lexicographic_chain()
    chain = [
        (top, target, PrefOrdering.BETTER),
        (target, bottom, PrefOrdering.BETTER),
        (top, bottom, PrefOrdering.BETTER),
    ]
    for first, second, expected in chain:
        got = lexicographic_compare(first, second)
        if got is not expected:
            failures.append(f"{first} vs {second}: {got.value}")
    parts = lexicographic_mixture_partition(top, bottom, target)
    below = parts.get(PrefOrdering.WORSE)
    if below is None or not below.contains(Fraction(2, 5)):
        failures.append("weight 2/5 should land strictly below the target")
    level = parts.get(PrefOrdering.INDIFFERENT)
    if level is not None and not level.is_empty:
        failures.append("an exact indifference weight exists where none should")
    return _result(
        "lexicographic", failures, "mixtures pass below the target, never through it"
    )


def run_examples() -> tuple[ExampleCheck, ...]:
    """Re-check every built-in example; the CLI and tests treat this as a
    single gate that must be all green."""
    return (
        _check_dice(),
        _check_consolation(),
        _check_surgery(),
        _check_maximin(),
        _check_lexicographic(),
    )
