"""Textual formats: number literals, model documents, audit reports.

The literal grammar is the wire format for exact values::

    NSREAL   := [sign] TERM (("+" | "-") TERM)*
    TERM     := RATIONAL | RATIONAL "*" EPS | EPS
    EPS      := "eps" ["^" SIGNED_INT]
    RATIONAL := INT ["/" POSINT]

Whitespace between tokens is insignificant.  Rendering is canonical: terms
in increasing exponent order, exponent 0 as a bare rational, exponent 1 as
"eps", unit coefficients dropped, so parsing then rendering normalizes any
well-formed literal and rendering then parsing is the identity.

Model documents are INI-style section files (parsed with configparser):

    [model]            regime, plus optional grid-denominator,
                       closure-depth, signed-utilities
    [outcomes]         outcome id = utility literal
    [lottery NAME]     outcome id = probability literal
    [states]           one bare state id per line
    [belief]           state id = probability literal
    [act NAME]         state id = lottery name

Validation errors carry a ``section/key`` path.  Reports render
deterministically; machine mode emits one token-prefixed line per fact with
no spaces inside a token, so output is diffable and splittable.
"""

from __future__ import annotations

import configparser
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .acts import AAModel, Act
from .auditor import _WITNESS_DISPLAY_CAP, AuditReport, Counterexample, PrefStructure, Verdict
from .errors import ParseError, SchemaError, UnknownIdentifier, ZeroDenominator
from .nsreal import NSReal
from .prefcore import Lottery, Regime, UtilityAssignment
from .solver import RationalIntervalSet

__all__ = [
    "parse_nsreal",
    "render_nsreal",
    "ModelDocument",
    "parse_model",
    "load_model",
    "render_lottery",
    "render_act",
    "render_interval_set",
    "render_report",
    "display_name",
]


# ---------------------------------------------------------------------------
# Number literals

_TOKEN_RE = re.compile(r"(?P<INT>\d+)|(?P<EPS>eps)|(?P<OP>[+\-*/^])")


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    position: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    index = 0
    length = len(text)
    while index < length:
        if text[index].isspace():
            index += 1
            continue
        match = _TOKEN_RE.match(text, index)
        if match is None:
            raise ParseError(f"unexpected character {text[index]!r}", index)
        kind = match.lastgroup
        assert kind is not None
        tokens.append(_Token(kind, match.group(), index))
        index = match.end()
    return tokens


class _LiteralParser:
    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0

    def peek(self) -> _Token | None:
        if self.index < len(self.tokens):
            return self.tokens[self.index]
        return None

    def take(self) -> _Token:
        token = self.peek()
        if token is None:
            raise ParseError("unexpected end of literal", len(self.text))
        self.index += 1
        return token

    def at_op(self, *symbols: str) -> bool:
        token = self.peek()
        return token is not None and token.kind == "OP" and token.text in symbols

    def parse(self) -> NSReal:
        if self.peek() is None:
            raise ParseError("empty literal", 0)
        terms: list[tuple[int, Fraction]] = []
        sign = 1
        if self.at_op("+", "-"):
            sign = -1 if self.take().text == "-" else 1
        while True:
            exponent, magnitude = self.parse_term()
            terms.append((exponent, sign * magnitude))
            if not self.at_op("+", "-"):
                break
            sign = -1 if self.take().text == "-" else 1
        trailing = self.peek()
        if trailing is not None:
            raise ParseError(f"unexpected {trailing.text!r}", trailing.position)
        return NSReal.from_terms(terms)

    def parse_term(self) -> tuple[int, Fraction]:
        token = self.peek()
        if token is None:
            raise ParseError("expected a term", len(self.text))
        if token.kind == "EPS":
            self.take()
            return self.parse_exponent(), Fraction(1)
        if token.kind != "INT":
            raise ParseError(f"expected a number or eps, found {token.text!r}", token.position)
        self.take()
        numerator = int(token.text)
        if self.at_op("/"):
            self.take()
            denom_token = self.peek()
            if denom_token is None or denom_token.kind != "INT":
                position = denom_token.position if denom_token else len(self.text)
                raise ParseError("expected a denominator", position)
            self.take()
            denominator = int(denom_token.text)
            if denominator == 0:
                raise ZeroDenominator("denominator is zero", denom_token.position)
            magnitude = Fraction(numerator, denominator)
        else:
            magnitude = Fraction(numerator)
        if self.at_op("*"):
            star = self.take()
            eps_token = self.peek()
            if eps_token is None or eps_token.kind != "EPS":
                raise ParseError("expected eps after '*'", star.position + 1)
            self.take()
            return self.parse_exponent(), magnitude
        return 0, magnitude

    def parse_exponent(self) -> int:
        if not self.at_op("^"):
            return 1
        caret = self.take()
        sign = 1
        if self.at_op("+", "-"):
            sign = -1 if self.take().text == "-" else 1
        token = self.peek()
        if token is None or token.kind != "INT":
            position = token.position if token else len(self.text)
            raise ParseError("expected an integer exponent", position)
        self.take()
        return sign * int(token.text)


def parse_nsreal(text: str) -> NSReal:
    """Parse a number literal such as ``"1/6 - 1/6*eps"`` or ``"eps^-1"``.

    Raises :class:`ParseError` (with the offending position) on malformed
    input and :class:`ZeroDenominator` on a zero denominator.
    """
    return _LiteralParser(text).parse()


def render_nsreal(value: NSReal, compact: bool = False) -> str:
    """Canonical literal for a value; ``compact`` drops the spaces around
    the term separators (machine output)."""
    if not value.terms:
        return "0"
    plus, minus = ("+", "-") if compact else (" + ", " - ")
    parts: list[str] = []
    for position, (exponent, coefficient) in enumerate(value.terms):
        magnitude = abs(coefficient)
        if exponent == 0:
            body = str(magnitude)
        else:
            power = "eps" if exponent == 1 else f"eps^{exponent}"
            body = power if magnitude == 1 else f"{magnitude}*{power}"
        if position == 0:
            parts.append(body if coefficient > 0 else f"-{body}")
        else:
            parts.append(f"{plus}{body}" if coefficient > 0 else f"{minus}{body}")
    return "".join(parts)


# ---------------------------------------------------------------------------
# Model documents


@dataclass(frozen=True)
class ModelDocument:
    """A parsed and validated model file."""

    regime: Regime
    utilities: UtilityAssignment
    lotteries: tuple[tuple[str, Lottery], ...]
    states: tuple[str, ...]
    model: AAModel | None
    acts: tuple[tuple[str, Act], ...]
    grid_denominator: int
    closure_depth: int

    def lottery(self, name: str) -> Lottery:
        for candidate, value in self.lotteries:
            if candidate == name:
                return value
        raise UnknownIdentifier(f"unknown lottery {name!r}")

    def lottery_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.lotteries)

    def act(self, name: str) -> Act:
        for candidate, value in self.acts:
            if candidate == name:
                return value
        raise UnknownIdentifier(f"unknown act {name!r}")

    def structure(self) -> PrefStructure:
        return PrefStructure(
            regime=self.regime,
            utilities=self.utilities,
            generators=tuple(value for _, value in self.lotteries),
            grid_denominator=self.grid_denominator,
            closure_depth=self.closure_depth,
            model=self.model,
            acts=tuple(value for _, value in self.acts),
        )


_MODEL_KEYS = {"regime", "grid-denominator", "closure-depth", "signed-utilities"}
_BOOLEAN = {"yes": True, "true": True, "1": True, "no": False, "false": False, "0": False}


def _schema(message: str, path: str) -> SchemaError:
    return SchemaError(message, path)


def _parse_literal(text: str | None, path: str) -> NSReal:
    if text is None or not text.strip():
        raise _schema("a value literal is required", path)
    try:
        return parse_nsreal(text)
    except ParseError as error:
        raise _schema(f"bad literal {text!r}: {error}", path) from error


def _positive_int(text: str, path: str, minimum: int) -> int:
    try:
        value = int(text)
    except ValueError as error:
        raise _schema(f"expected an integer, found {text!r}", path) from error
    if value < minimum:
        raise _schema(f"value must be at least {minimum}", path)
    return value


def parse_model(
    text: str,
    regime_override: Regime | None = None,
) -> ModelDocument:
    """Parse a model document, validating referential integrity and the
    regime's standardness constraints.  ``regime_override`` swaps the
    document's regime tag before validation (the CLI --regime flag)."""
    parser = configparser.ConfigParser(
        delimiters=("=",),
        comment_prefixes=("#",),
        inline_comment_prefixes=None,
        allow_no_value=True,
        strict=True,
        interpolation=None,
    )
    parser.optionxform = str  # type: ignore[method-assign]
    try:
        parser.read_string(text)
    except configparser.Error as error:
        raise SchemaError(f"malformed document: {error}") from error

    if not parser.has_section("model"):
        raise _schema("a [model] section is required", "model")
    model_section = parser["model"]
    for key in model_section:
        if key not in _MODEL_KEYS:
            raise _schema(f"unknown key {key!r}", f"model/{key}")
    regime_text = model_section.get("regime")
    if regime_text is None or not regime_text.strip():
        raise _schema("regime is required (std, ns-util, or ns-prob)", "model/regime")
    try:
        regime = Regime(regime_text.strip())
    except ValueError as error:
        raise _schema(f"unknown regime {regime_text.strip()!r}", "model/regime") from error
    if regime_override is not None:
        regime = regime_override
    denominator = 8
    if model_section.get("grid-denominator") is not None:
        denominator = _positive_int(
            model_section["grid-denominator"], "model/grid-denominator", 2
        )
    depth = 2
    if model_section.get("closure-depth") is not None:
        depth = _positive_int(model_section["closure-depth"], "model/closure-depth", 0)
    signed = False
    if model_section.get("signed-utilities") is not None:
        flag = model_section["signed-utilities"].strip().lower()
        if flag not in _BOOLEAN:
            raise _schema(f"expected yes or no, found {flag!r}", "model/signed-utilities")
        signed = _BOOLEAN[flag]

    section_names = parser.sections()
    for section in section_names:
        if section in ("model", "outcomes", "states", "belief"):
            continue
        head, _, rest = section.partition(" ")
        if head in ("lottery", "act") and rest.strip():
            continue
        raise _schema(f"unknown section [{section}]", section)

    if not parser.has_section("outcomes") or not parser["outcomes"]:
        raise _schema("at least one outcome is required", "outcomes")
    utility_map: dict[str, NSReal] = {}
    for outcome, literal in parser["outcomes"].items():
        path = f"outcomes/{outcome}"
        value = _parse_literal(literal, path)
        if not signed and value.sign() < 0:
            raise _schema(
                "negative utility requires signed-utilities = yes in [model]", path
            )
        if regime.standard_utilities and not value.is_standard():
            raise _schema(
                f"regime {regime.value} requires standard utilities", path
            )
        utility_map[outcome] = value
    utilities = UtilityAssignment.from_mapping(utility_map, signed=signed)

    lotteries: list[tuple[str, Lottery]] = []
    for section in section_names:
        head, _, rest = section.partition(" ")
        if head != "lottery" or not rest.strip():
            continue
        name = rest.strip()
        if not parser[section]:
            raise _schema("a lottery needs at least one outcome", section)
        probabilities: dict[str, NSReal] = {}
        for outcome, literal in parser[section].items():
            path = f"{section}/{outcome}"
            if outcome not in utility_map:
                raise _schema(f"unknown outcome {outcome!r}", path)
            probability = _parse_literal(literal, path)
            if probability.sign() < 0:
                raise _schema("probabilities cannot be negative", path)
            if regime.standard_probabilities and not probability.is_standard():
                raise _schema(
                    f"regime {regime.value} requires standard probabilities", path
                )
            probabilities[outcome] = probability
        try:
            lotteries.append((name, Lottery.from_mapping(probabilities)))
        except ValueError as error:
            raise _schema(str(error), section) from error
    if not lotteries:
        raise _schema("at least one [lottery NAME] section is required", "lottery")
    seen = set()
    for name, _ in lotteries:
        if name in seen:
            raise _schema(f"duplicate lottery name {name!r}", f"lottery {name}")
        seen.add(name)

    states: tuple[str, ...] = ()
    if parser.has_section("states"):
        for state, value in parser["states"].items():
            if value not in (None, ""):
                raise _schema("state lines carry no value", f"states/{state}")
        states = tuple(parser["states"].keys())
        if not states:
            raise _schema("the states section is empty", "states")

    belief: dict[str, NSReal] | None = None
    if parser.has_section("belief"):
        if not states:
            raise _schema("belief requires a [states] section", "belief")
        belief = {}
        for state, literal in parser["belief"].items():
            path = f"belief/{state}"
            if state not in states:
                raise _schema(f"unknown state {state!r}", path)
            weight = _parse_literal(literal, path)
            if weight.sign() < 0:
                raise _schema("belief weights cannot be negative", path)
            if regime.standard_probabilities and not weight.is_standard():
                raise _schema(
                    f"regime {regime.value} requires a standard belief", path
                )
            belief[state] = weight
        for state in states:
            if state not in belief:
                raise _schema(f"missing belief for state {state!r}", f"belief/{state}")

    model: AAModel | None = None
    if belief is not None:
        try:
            model = AAModel.from_mappings(states, belief, utilities, regime)
        except ValueError as error:
            raise _schema(str(error), "belief") from error

    lottery_map = dict(lotteries)
    acts: list[tuple[str, Act]] = []
    for section in section_names:
        head, _, rest = section.partition(" ")
        if head != "act" or not rest.strip():
            continue
        name = rest.strip()
        if model is None:
            raise _schema("acts require [states] and [belief] sections", section)
        arms: dict[str, Lottery] = {}
        for state, lottery_name in parser[section].items():
            path = f"{section}/{state}"
            if state not in states:
                raise _schema(f"unknown state {state!r}", path)
            if lottery_name is None or lottery_name.strip() not in lottery_map:
                raise _schema(f"unknown lottery {lottery_name!r}", path)
            arms[state] = lottery_map[lottery_name.strip()]
        for state in states:
            if state not in arms:
                raise _schema(f"missing lottery for state {state!r}", f"{section}/{state}")
        acts.append((name, Act.from_mapping(arms)))
    seen = set()
    for name, _ in acts:
        if name in seen:
            raise _schema(f"duplicate act name {name!r}", f"act {name}")
        seen.add(name)

    return ModelDocument(
        regime=regime,
        utilities=utilities,
        lotteries=tuple(lotteries),
        states=states,
        model=model,
        acts=tuple(acts),
        grid_denominator=denominator,
        closure_depth=depth,
    )


def load_model(path: str | Path, regime_override: Regime | None = None) -> ModelDocument:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as error:
        raise SchemaError(f"not UTF-8 text: {error}") from error
    return parse_model(text, regime_override)


# ---------------------------------------------------------------------------
# Report rendering

_DISPLAY_NAMES = {
    "A2p": "A2'",
    "A3p": "A3'",
    "A3pp": "A3''",
    "A5p": "A5'",
}


def display_name(postulate: str) -> str:
    return _DISPLAY_NAMES.get(postulate, postulate)


def render_lottery(lottery: Lottery, compact: bool = False) -> str:
    separator = "," if compact else ", "
    gap = ":" if compact else ": "
    body = separator.join(
        f"{outcome}{gap}{render_nsreal(p, compact)}" for outcome, p in lottery.probs
    )
    return "{" + body + "}"


def render_act(act: Act, compact: bool = False) -> str:
    separator = "," if compact else ", "
    arrow = "->" if compact else " -> "
    body = separator.join(
        f"{state}{arrow}{render_lottery(lottery, compact)}" for state, lottery in act.arms
    )
    return "[" + body + "]"


def render_interval_set(piece_set: RationalIntervalSet, compact: bool = False) -> str:
    rendered = piece_set.render()
    return rendered.replace(", ", ",") if compact else rendered


def _render_payload_value(value: object, compact: bool) -> str:
    if isinstance(value, Lottery):
        return render_lottery(value, compact)
    if isinstance(value, Act):
        return render_act(value, compact)
    if isinstance(value, NSReal):
        return render_nsreal(value, compact)
    if isinstance(value, RationalIntervalSet):
        return render_interval_set(value, compact)
    return str(value)


def _render_counterexample_human(certificate: Counterexample) -> list[str]:
    lines = [f"  counterexample ({certificate.kind}):"]
    for key, value in certificate.payload:
        lines.append(f"    {key} = {_render_payload_value(value, compact=False)}")
    return lines


def _render_counterexample_machine(certificate: Counterexample) -> str:
    parts = [f"kind={certificate.kind}"]
    for key, value in certificate.payload:
        parts.append(f"{key}={_render_payload_value(value, compact=True)}")
    return " ".join(parts)


def render_report(report: AuditReport, machine: bool = False) -> str:
    """Deterministic text for an audit report.

    Machine mode emits token-prefixed lines (AUDIT, VERDICT, NOTE, RESULT)
    whose fields contain no spaces; human mode adds domains, witnesses, and
    indented counterexamples.
    """
    lines: list[str] = []
    header = (
        f"AUDIT regime={report.regime.value} generators={report.generator_count} "
        f"closure={report.closure_size} depth={report.closure_depth} "
        f"grid={report.grid_denominator}"
    )
    lines.append(header)
    for verdict in report.verdicts:
        label = "HOLD" if verdict.holds else "FAIL"
        if machine:
            line = f"VERDICT {verdict.postulate} {label}"
            if verdict.counterexample is not None:
                line += " " + _render_counterexample_machine(verdict.counterexample)
            lines.append(line)
            continue
        lines.append(f"VERDICT {display_name(verdict.postulate)} {label}")
        lines.append(f"  checked: {verdict.domain}")
        if verdict.counterexample is not None:
            lines.extend(_render_counterexample_human(verdict.counterexample))
        if verdict.witnesses:
            shown = verdict.witnesses[:_WITNESS_DISPLAY_CAP]
            for witness in shown:
                lines.append(
                    f"  witness {witness.label}={witness.weight} for "
                    f"{render_lottery(witness.first)} > {render_lottery(witness.middle)}"
                    f" > {render_lottery(witness.second)}"
                )
            hidden = verdict.witness_count - len(shown)
            if hidden > 0:
                lines.append(f"  ({hidden} further witnesses omitted)")
    for note in report.notes:
        lines.append(f"NOTE {note}")
    lines.append(f"RESULT {'PASS' if report.all_hold else 'FAIL'}")
    return "\n".join(lines)
