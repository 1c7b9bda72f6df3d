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

Model documents are INI-style section files, read in one pass by
``_read_sections`` the same on every Python: ``[section]`` headers, ``=``
as the only delimiter, ``#`` whole-line comments, case-sensitive keys, bare
keys, indented continuation lines and ``[DEFAULT]`` keys inherited by every
section -- what configparser reads with those options, which the tests keep
as the reader's oracle.  The sections:

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
import io
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Sequence

from .acts import AAModel, Act
from .auditor import AuditReport, Counterexample, PrefStructure
from .errors import (
    ParseError,
    PreconditionViolated,
    SchemaError,
    UnknownIdentifier,
    ZeroDenominator,
)
from .nsreal import NSReal, _wrap
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

# One group per token kind, numbered as the kinds are; the last takes any
# other character that is not whitespace, which no literal may hold.
_TOKEN_RE = re.compile(r"(\d+)|(eps)|([+\-*/^])|(\S)")
_INT, _EPS, _OP, _BAD = 1, 2, 3, 4
_UNIT = Fraction(1)


# A bad literal or token is quoted in an error up to this many characters,
# and a longer one by that prefix and its length, so the line stays short.
_QUOTED_PREFIX = 40


def _quoted(text: str) -> str:
    """``text`` as an error message quotes it: its repr, or its first
    ``_QUOTED_PREFIX`` characters' and its length."""
    if len(text) > _QUOTED_PREFIX:
        return f"{text[:_QUOTED_PREFIX]!r}... ({len(text)} characters)"
    return repr(text)


# The error for an integer literal longer than the interpreter's limit.
_PAST_DIGIT_LIMIT = "integer of {} digits is past this Python's limit for integer strings"


def _named(name: str) -> str:
    """A document's section or key name as an error path holds it: as it
    is, or by :func:`_quoted` when longer than ``_QUOTED_PREFIX``."""
    return name if len(name) <= _QUOTED_PREFIX else _quoted(name)


def parse_nsreal(text: str) -> NSReal:
    """Parse a number literal such as ``"1/6 - 1/6*eps"`` or ``"eps^-1"``.

    Raises :class:`ParseError` (with the offending position) on malformed
    input or an integer past the interpreter's limit for integer strings, and
    :class:`ZeroDenominator` on a zero denominator.
    """
    tokens = [
        (match.lastindex, match.group(), match.start()) for match in _TOKEN_RE.finditer(text)
    ]
    if not tokens:
        raise ParseError("empty literal", 0)
    for kind, token, position in tokens:
        if kind == _BAD:
            raise ParseError(f"unexpected character {_quoted(token)}", position)
    end = len(text)
    tokens.append((None, "", end))  # the end of the literal, at its length
    terms: dict[int, Fraction] = {}
    kind, token, position = tokens[0]
    index = 0
    negative = kind == _OP and token == "-"
    if kind == _OP and token in "+-":
        index = 1
    try:
        while True:
            # TERM := RATIONAL | RATIONAL "*" EPS | EPS, then EPS's exponent.
            kind, token, position = tokens[index]
            index += 1
            power = kind == _EPS
            if power:
                magnitude = _UNIT
            elif kind == _INT:
                numerator = int(token)
                kind, token, position = tokens[index]
                if kind == _OP and token == "/":
                    kind, token, position = tokens[index + 1]
                    if kind != _INT:
                        raise ParseError("expected a denominator", position)
                    index += 2
                    denominator = int(token)
                    if denominator == 0:
                        raise ZeroDenominator("denominator is zero", position)
                    magnitude = Fraction(numerator, denominator)
                    kind, token, position = tokens[index]
                else:
                    magnitude = Fraction(numerator)
                if kind == _OP and token == "*":
                    if tokens[index + 1][0] != _EPS:
                        raise ParseError("expected eps after '*'", position + 1)
                    index += 2
                    power = True
            elif kind is None:
                raise ParseError("expected a term", end)
            else:
                raise ParseError(f"expected a number or eps, found {_quoted(token)}", position)
            exponent = 0
            if power:
                exponent = 1
                kind, token, _ = tokens[index]
                if kind == _OP and token == "^":
                    kind, sign, _ = tokens[index + 1]
                    index += 2 if kind == _OP and sign in "+-" else 1
                    kind, token, position = tokens[index]
                    if kind != _INT:
                        raise ParseError("expected an integer exponent", position)
                    index += 1
                    exponent = -int(token) if sign == "-" else int(token)
            if negative:
                magnitude = -magnitude
            terms[exponent] = terms[exponent] + magnitude if exponent in terms else magnitude
            kind, token, position = tokens[index]
            if not (kind == _OP and token in "+-"):
                break
            negative = token == "-"
            index += 1
    except ParseError:
        raise
    except ValueError as error:
        # int() refuses a token of more digits than the interpreter's integer
        # string limit; token and position are still that token's.
        raise ParseError(_PAST_DIGIT_LIMIT.format(len(token)), position) from error
    if kind is not None:
        raise ParseError(f"unexpected {_quoted(token)}", position)
    return _wrap(tuple(sorted([(exponent, c) for exponent, c in terms.items() if c])))


def render_nsreal(value: NSReal, compact: bool = False) -> str:
    """Canonical literal for a value; ``compact`` drops the spaces around
    the term separators (machine output).  A coefficient whose numerator or
    denominator has more digits than the interpreter's limit for integer
    strings raises :class:`PreconditionViolated`, which names the count."""
    if not value.terms:
        return "0"
    plus, minus = ("+", "-") if compact else (" + ", " - ")
    parts: list[str] = []
    for position, (exponent, coefficient) in enumerate(value.terms):
        magnitude = _render_rational(abs(coefficient))
        if exponent == 0:
            body = magnitude
        else:
            power = "eps" if exponent == 1 else f"eps^{exponent}"
            body = power if magnitude == "1" else f"{magnitude}*{power}"
        if position == 0:
            parts.append(body if coefficient > 0 else f"-{body}")
        else:
            parts.append(f"{plus}{body}" if coefficient > 0 else f"{minus}{body}")
    return "".join(parts)


def _render_rational(q: Fraction) -> str:
    try:
        return str(q)
    except ValueError as error:
        # str() refuses an integer of more digits than the interpreter's
        # integer string limit.
        digits = max(_digit_count(q.numerator), _digit_count(q.denominator))
        raise PreconditionViolated(
            f"a coefficient of {digits} digits is past this Python's limit for integer strings"
        ) from error


def _digit_count(n: int) -> int:
    """The decimal digits of ``abs(n)``, counted without ``str``."""
    n = abs(n) or 1
    # bit_length * log10(2) overestimates the digits by at most one.
    digits = int(n.bit_length() * 0.30102999566398120) + 1
    return digits - 1 if n < 10 ** (digits - 1) else digits


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
        raise UnknownIdentifier(f"unknown lottery {_quoted(name)}")

    def lottery_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.lotteries)

    def act(self, name: str) -> Act:
        for candidate, value in self.acts:
            if candidate == name:
                return value
        raise UnknownIdentifier(f"unknown act {_quoted(name)}")

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


def _parse_literal(text: str | None, path: str) -> NSReal:
    if text is None or not text.strip():
        raise SchemaError("a value literal is required", path)
    try:
        return parse_nsreal(text)
    except ParseError as error:
        raise SchemaError(f"bad literal {_quoted(text)}: {error}", path) from error


def _positive_int(text: str, path: str, minimum: int) -> int:
    try:
        value = int(text)
    except ValueError as error:
        message = f"expected an integer, found {_quoted(text)}"
        digits = re.fullmatch(r"\s*[+-]?(\d+)\s*", text)
        if digits:  # int() refuses more digits than the interpreter's limit
            message = _PAST_DIGIT_LIMIT.format(len(digits[1]))
        raise SchemaError(message, path) from error
    if value < minimum:
        raise SchemaError(f"value must be at least {minimum}", path)
    return value


def _weight_literal(
    text: str | None, path: str, regime: Regime, kind: str, standard: str
) -> NSReal:
    """A probability or belief literal: nonnegative, and standard where the
    regime requires standard probabilities.  ``kind`` and ``standard`` name
    the weights in the two messages."""
    weight = _parse_literal(text, path)
    if weight.sign() < 0:
        raise SchemaError(f"{kind} cannot be negative", path)
    if regime.standard_probabilities and not weight.is_standard():
        raise SchemaError(f"regime {regime.value} requires {standard}", path)
    return weight


def _require_unique_names(kind: str, named: Sequence[tuple[str, object]]) -> None:
    seen = set()
    for name, _ in named:
        if name in seen:
            raise SchemaError(f"duplicate {kind} name {_quoted(name)}", _named(f"{kind} {name}"))
        seen.add(name)


_HEADER_RE = re.compile(r"\[(?P<header>.+)\]")
_SOURCE = "<string>"  # the source configparser names for a document read from a string


def _read_sections(text: str) -> dict[str, dict[str, str | None]]:
    """The sections of a document, each a dict of its keys in document
    order, ``None`` for a bare key; the keys of ``[DEFAULT]`` come first in
    every section.

    Reads what ``configparser.ConfigParser(delimiters=("=",),
    comment_prefixes=("#",), allow_no_value=True, interpolation=None)``
    with case-sensitive keys reads, quirks included, and raises its errors.
    The one difference: an indented line under a bare key raises
    :class:`SchemaError` where configparser before 3.13 fails on a ``None``.
    """
    sections: dict[str, dict[str, list[str] | None]] = {}
    defaults: dict[str, list[str] | None] = {}
    section: dict[str, list[str] | None] | None = None
    name = key = ""  # the current section, and the key whose value may continue
    lines: list[str] | None = None  # that key's value lines, None for a bare key
    key_indent = 0
    bad_lines = []
    for lineno, line in enumerate(io.StringIO(text), start=1):  # lines end at "\n" only
        value = line.strip()
        if not value or value[0] == "#":
            # A blank line belongs to the value above it; a comment does not.
            if not value and key and lines is not None:
                lines.append("")
            continue
        indent = len(line) - len(line.lstrip())
        if key and indent > key_indent:
            if lines is None:
                raise SchemaError(
                    f"line {lineno} is indented under a key with no value: {_quoted(value)}",
                    f"{_named(name)}/{_named(key)}",
                )
            lines.append(value)
            continue
        header = _HEADER_RE.match(value)
        if header:
            name, key = header["header"], ""
            if name in sections:
                raise configparser.DuplicateSectionError(name, _SOURCE, lineno)
            if name == "DEFAULT":
                section = defaults
            else:
                section = sections[name] = {}
        elif section is None:
            raise configparser.MissingSectionHeaderError(_SOURCE, lineno, line)
        else:
            key, delimiter, rest = value.partition("=")
            key = key.rstrip()
            key_indent = indent
            if not key:
                bad_lines.append((lineno, line))
            if key in section:
                raise configparser.DuplicateOptionError(name, key, _SOURCE, lineno)
            lines = section[key] = [rest.strip()] if delimiter else None
    if bad_lines:
        # Worded as configparser words it up to 3.12, on every Python.
        error = configparser.ParsingError(_SOURCE)
        error.errors = bad_lines
        error.message += "".join(f"\n\t[line {lineno:2d}]: {line!r}" for lineno, line in bad_lines)
        raise error
    inherited = {key: _joined(lines) for key, lines in defaults.items()}
    return {
        name: {**inherited, **{key: _joined(lines) for key, lines in options.items()}}
        for name, options in sections.items()
    }


def _joined(lines: list[str] | None) -> str | None:
    return None if lines is None else "\n".join(lines).rstrip()


def parse_model(
    text: str,
    regime_override: Regime | None = None,
) -> ModelDocument:
    """Parse a model document, validating referential integrity and the
    regime's standardness constraints.  ``regime_override`` swaps the
    document's regime tag before validation (the CLI --regime flag)."""
    try:
        sections = _read_sections(text)
    except configparser.Error as error:
        raise SchemaError(f"malformed document: {error}") from error
    return _document(sections, regime_override)


def _document(
    sections: dict[str, dict[str, str | None]], regime_override: Regime | None
) -> ModelDocument:
    """Validate a document's sections, as :func:`_read_sections` reads them."""
    model_section = sections.get("model")
    if model_section is None:
        raise SchemaError("a [model] section is required", "model")
    for key in model_section:
        if key not in _MODEL_KEYS:
            raise SchemaError(f"unknown key {_quoted(key)}", f"model/{_named(key)}")
    regime_text = model_section.get("regime")
    if regime_text is None or not regime_text.strip():
        raise SchemaError("regime is required (std, ns-util, or ns-prob)", "model/regime")
    try:
        regime = Regime(regime_text.strip())
    except ValueError as error:
        message = f"unknown regime {_quoted(regime_text.strip())}"
        raise SchemaError(message, "model/regime") from error
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
            message = f"expected yes or no, found {_quoted(flag)}"
            raise SchemaError(message, "model/signed-utilities")
        signed = _BOOLEAN[flag]

    # [lottery NAME] and [act NAME] sections, each as (section, name), in
    # document order.
    named: dict[str, list[tuple[str, str]]] = {"lottery": [], "act": []}
    for section in sections:
        if section in ("model", "outcomes", "states", "belief"):
            continue
        head, _, rest = section.partition(" ")
        if head not in named or not rest.strip():
            raise SchemaError(f"unknown section [{_named(section)}]", _named(section))
        named[head].append((section, rest.strip()))

    if not sections.get("outcomes"):
        raise SchemaError("at least one outcome is required", "outcomes")
    utility_map: dict[str, NSReal] = {}
    for outcome, literal in sections["outcomes"].items():
        path = f"outcomes/{_named(outcome)}"
        value = _parse_literal(literal, path)
        if not signed and value.sign() < 0:
            raise SchemaError(
                "negative utility requires signed-utilities = yes in [model]", path
            )
        if regime.standard_utilities and not value.is_standard():
            raise SchemaError(f"regime {regime.value} requires standard utilities", path)
        utility_map[outcome] = value
    utilities = UtilityAssignment.from_mapping(utility_map, signed=signed)

    lotteries: list[tuple[str, Lottery]] = []
    for section, name in named["lottery"]:
        if not sections[section]:
            raise SchemaError("a lottery needs at least one outcome", _named(section))
        probabilities: dict[str, NSReal] = {}
        for outcome, literal in sections[section].items():
            path = f"{_named(section)}/{_named(outcome)}"
            if outcome not in utility_map:
                raise SchemaError(f"unknown outcome {_quoted(outcome)}", path)
            probabilities[outcome] = _weight_literal(
                literal, path, regime, "probabilities", "standard probabilities"
            )
        try:
            lotteries.append((name, Lottery.from_mapping(probabilities)))
        except ValueError as error:
            raise SchemaError(str(error), _named(section)) from error
    if not lotteries:
        raise SchemaError("at least one [lottery NAME] section is required", "lottery")
    _require_unique_names("lottery", lotteries)

    states: tuple[str, ...] = ()
    if "states" in sections:
        for state, value in sections["states"].items():
            if value not in (None, ""):
                raise SchemaError("state lines carry no value", f"states/{_named(state)}")
        states = tuple(sections["states"])
        if not states:
            raise SchemaError("the states section is empty", "states")

    model: AAModel | None = None
    if "belief" in sections:
        if not states:
            raise SchemaError("belief requires a [states] section", "belief")
        belief: dict[str, NSReal] = {}
        for state, literal in sections["belief"].items():
            path = f"belief/{_named(state)}"
            if state not in states:
                raise SchemaError(f"unknown state {_quoted(state)}", path)
            belief[state] = _weight_literal(
                literal, path, regime, "belief weights", "a standard belief"
            )
        for state in states:
            if state not in belief:
                message = f"missing belief for state {_quoted(state)}"
                raise SchemaError(message, f"belief/{_named(state)}")
        try:
            model = AAModel.from_mappings(states, belief, utilities, regime)
        except ValueError as error:
            raise SchemaError(str(error), "belief") from error

    lottery_map = dict(lotteries)
    acts: list[tuple[str, Act]] = []
    for section, name in named["act"]:
        if model is None:
            raise SchemaError("acts require [states] and [belief] sections", _named(section))
        arms: dict[str, Lottery] = {}
        for state, lottery_name in sections[section].items():
            path = f"{_named(section)}/{_named(state)}"
            if state not in states:
                raise SchemaError(f"unknown state {_quoted(state)}", path)
            if lottery_name is None or lottery_name.strip() not in lottery_map:
                shown = "None" if lottery_name is None else _quoted(lottery_name)
                raise SchemaError(f"unknown lottery {shown}", path)
            arms[state] = lottery_map[lottery_name.strip()]
        for state in states:
            if state not in arms:
                message = f"missing lottery for state {_quoted(state)}"
                raise SchemaError(message, f"{_named(section)}/{_named(state)}")
        acts.append((name, Act.from_mapping(arms)))
    _require_unique_names("act", acts)

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
            for witness in verdict.witnesses:
                lines.append(
                    f"  witness {witness.label}={witness.weight} for "
                    f"{render_lottery(witness.first)} > {render_lottery(witness.middle)}"
                    f" > {render_lottery(witness.second)}"
                )
            hidden = verdict.witness_count - len(verdict.witnesses)
            if hidden > 0:
                lines.append(f"  ({hidden} further witnesses omitted)")
    for note in report.notes:
        lines.append(f"NOTE {note}")
    lines.append(f"RESULT {'PASS' if report.all_hold else 'FAIL'}")
    return "\n".join(lines)
