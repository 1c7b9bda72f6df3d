"""Tests for the numeric literal grammar and the model file format."""

import configparser
import re
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import nsreals
from oracles import READER_QUIRKS, oracle_parse_nsreal, oracle_read_sections
from qualutil import (
    ParseError,
    Regime,
    SchemaError,
    UnknownIdentifier,
    ZeroDenominator,
    load_model,
    parse_model,
    parse_nsreal,
    render_nsreal,
)
from qualutil.fixtures import fixture_path
from qualutil.formats import _digit_count, _document, _read_sections, display_name, render_lottery

F = Fraction


# --- literal parsing ---------------------------------------------------------


@pytest.mark.parametrize(
    "text, terms",
    [
        ("0", ()),
        ("2", ((0, F(2)),)),
        ("-3/4", ((0, F(-3, 4)),)),
        ("eps", ((1, F(1)),)),
        ("-eps", ((1, F(-1)),)),
        ("eps^2", ((2, F(1)),)),
        ("eps^-1", ((-1, F(1)),)),
        ("5/6*eps", ((1, F(5, 6)),)),
        ("1/2 + eps", ((0, F(1, 2)), (1, F(1)))),
        ("2*eps^-1 - 1", ((-1, F(2)), (0, F(-1)))),
        ("1/6 - 1/6*eps + eps", ((0, F(1, 6)), (1, F(5, 6)))),
        ("1 - 1", ()),
    ],
)
def test_parse_nsreal_examples(text, terms):
    assert parse_nsreal(text).terms == terms


def test_parse_accepts_arbitrary_spacing():
    assert parse_nsreal("1/2+eps") == parse_nsreal("1/2 + eps")
    assert parse_nsreal("  2  ") == parse_nsreal("2")


@pytest.mark.parametrize(
    "text",
    ["", "foo", "1 +", "2 2", "eps^", "1*", "0.5", "--1", "1//2", "eps*2"],
)
def test_parse_rejects_malformed_literals(text):
    with pytest.raises(ParseError):
        parse_nsreal(text)


def test_parse_accepts_explicit_leading_sign():
    assert parse_nsreal("+1/2") == parse_nsreal("1/2")
    assert parse_nsreal("+eps") == parse_nsreal("eps")


def test_parse_error_reports_position():
    with pytest.raises(ParseError, match="position 2"):
        parse_nsreal("2 2")
    with pytest.raises(ParseError, match="position 0"):
        parse_nsreal("foo")


# 0 where the interpreter has no limit for integer strings (CPython before
# 3.10.7) or where it is switched off.
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(not DIGIT_LIMIT, reason="no limit for integer strings")
@pytest.mark.parametrize(
    "template, position", [("{}", 0), ("1/{}", 2), ("eps^-{}", 5), ("1 + {}*eps", 4)]
)
def test_an_integer_past_the_digit_limit_is_a_parse_error(template, position):
    with pytest.raises(ParseError) as excinfo:
        parse_nsreal(template.format("1" * (DIGIT_LIMIT + 1)))
    assert excinfo.value.position == position
    assert f"integer of {DIGIT_LIMIT + 1} digits" in str(excinfo.value)


@pytest.mark.skipif(not DIGIT_LIMIT, reason="no limit for integer strings")
def test_an_integer_past_the_digit_limit_is_a_schema_error():
    text = BASIC.replace("draw = eps", f"draw = {'1' * (DIGIT_LIMIT + 1)}*eps")
    with pytest.raises(SchemaError) as excinfo:
        parse_model(text)
    assert excinfo.value.path == "outcomes/draw"
    assert isinstance(excinfo.value.__cause__, ParseError)


def test_digit_count_is_the_length_of_the_decimal_string():
    # The count names a refused coefficient in errors, so it is taken without
    # str(); at each power of ten the bit-length estimate is one too many.
    cases = [0, 1, 9, 10, 11, 99, 100, 2**64, 3**500]
    cases += [10**k + d for k in range(1, 400) for d in (-1, 0, 1)]
    for n in cases + [-n for n in cases]:
        assert _digit_count(n) == len(str(abs(n))), n


def test_zero_denominator_is_its_own_error():
    with pytest.raises(ZeroDenominator):
        parse_nsreal("1/0")
    with pytest.raises(ParseError):
        # Still catchable as a plain parse failure.
        parse_nsreal("3/0*eps")


@pytest.mark.parametrize(
    "text, rendered",
    [
        ("0", "0"),
        ("eps", "eps"),
        ("-eps", "-eps"),
        ("1/6 - 1/6*eps + eps", "1/6 + 5/6*eps"),
        ("eps^-1", "eps^-1"),
        ("1 + eps^2", "1 + eps^2"),
        ("2*eps^-1 - 1", "2*eps^-1 - 1"),
        ("1/2+eps", "1/2 + eps"),
    ],
)
def test_render_canonical_form(text, rendered):
    assert render_nsreal(parse_nsreal(text)) == rendered


def test_render_compact_drops_spaces():
    value = parse_nsreal("1/6 + 5/6*eps")
    assert render_nsreal(value, compact=True) == "1/6+5/6*eps"


def test_render_unit_coefficients_omit_the_star():
    assert render_nsreal(parse_nsreal("1*eps")) == "eps"
    assert render_nsreal(parse_nsreal("-1*eps^2")) == "-eps^2"


@given(nsreals)
def test_round_trip_value(value):
    assert parse_nsreal(render_nsreal(value)) == value
    assert parse_nsreal(render_nsreal(value, compact=True)) == value


@given(nsreals)
def test_render_is_canonical_fixed_point(value):
    rendered = render_nsreal(value)
    assert render_nsreal(parse_nsreal(rendered)) == rendered


def _outcome(parse, text):
    """A parse's value, or its exception's type, message and position."""
    try:
        return parse(text)
    except ParseError as error:
        return type(error), str(error), error.position


# Digits (one a non-ASCII ``\d``), eps and its prefix, every operator,
# whitespace that str.isspace knows, and a stray letter.
literal_texts = st.lists(
    st.sampled_from(
        ["0", "1", "7", "12", "\u0661", "eps", "e", "+", "-", "*", "/", "^", " ", "\t", "\x0c", "x"]
    ),
    max_size=12,
).map("".join)


@settings(max_examples=500)
@given(literal_texts)
@example("\u0661/\u0662*eps^-\u0663")
@example("2 eps")
@example("1/0*eps")
@example("3 * 4")
@example("eps^+")
@example("-")
@example("1 " + "2" * 5000)
@example("* " + "9" * 60)
def test_literal_scanner_matches_the_descent_parser(text):
    assert _outcome(parse_nsreal, text) == _outcome(oracle_parse_nsreal, text)


@pytest.mark.parametrize(
    "text, message",
    [
        ("1 " + "2" * 5000, "unexpected '" + "2" * 40 + "'... (5000 characters) (at position 2)"),
        ("1 " + "2" * 40, "unexpected '" + "2" * 40 + "' (at position 2)"),
        ("* " + "9" * 41, "expected a number or eps, found '*' (at position 0)"),
    ],
)
def test_a_parse_error_quotes_a_long_token_by_a_prefix_and_its_length(text, message):
    with pytest.raises(ParseError) as raised:
        parse_nsreal(text)
    assert str(raised.value) == message
    assert _outcome(parse_nsreal, text) == _outcome(oracle_parse_nsreal, text)


# --- model documents ---------------------------------------------------------


BASIC = textwrap.dedent(
    """
    [model]
    regime = ns-util
    grid-denominator = 4
    closure-depth = 1

    [outcomes]
    win = 1
    draw = eps
    loss = 0

    [lottery even]
    win = 1/2
    loss = 1/2

    [lottery hedge]
    draw = 1
    """
)

WITH_ACTS = textwrap.dedent(
    """
    [model]
    regime = std

    [outcomes]
    good = 1
    bad = 0

    [lottery sure]
    good = 1

    [lottery coin]
    good = 1/2
    bad = 1/2

    [states]
    rain
    shine

    [belief]
    rain = 1/2
    shine = 1/2

    [act umbrella]
    rain = sure
    shine = coin

    [act gamble]
    rain = coin
    shine = coin
    """
)


def test_parse_model_reads_sections():
    doc = parse_model(BASIC)
    assert doc.regime is Regime.NS_UTIL
    assert doc.grid_denominator == 4
    assert doc.closure_depth == 1
    assert doc.lottery_names() == ("even", "hedge")
    assert doc.lottery("even").probability("win") == F(1, 2)
    assert doc.utilities.utility("draw").is_infinitesimal()
    assert doc.states == ()
    assert doc.acts == ()


def test_model_defaults():
    doc = parse_model("[model]\nregime = std\n[outcomes]\na = 1\n[lottery l]\na = 1\n")
    assert doc.grid_denominator == 8
    assert doc.closure_depth == 2


def test_document_builds_structure():
    structure = parse_model(BASIC).structure()
    assert structure.regime is Regime.NS_UTIL
    assert len(structure.generators) == 2
    assert structure.grid_denominator == 4
    assert structure.closure_depth == 1
    assert structure.model is None


def test_parse_model_with_acts():
    doc = parse_model(WITH_ACTS)
    assert doc.states == ("rain", "shine")
    assert [name for name, _ in doc.acts] == ["umbrella", "gamble"]
    act = doc.act("umbrella")
    assert act.arm("rain").support == ("good",)
    structure = doc.structure()
    assert len(structure.acts) == 2
    assert structure.model is not None
    assert structure.model.belief_at("rain") == F(1, 2)


def test_unknown_lottery_and_act_lookups():
    doc = parse_model(WITH_ACTS)
    with pytest.raises(UnknownIdentifier):
        doc.lottery("nosuch")
    with pytest.raises(UnknownIdentifier):
        doc.act("nosuch")


def test_regime_override_changes_interpretation():
    doc = parse_model(WITH_ACTS, regime_override=Regime.NS_PROB)
    assert doc.regime is Regime.NS_PROB
    assert doc.structure().regime is Regime.NS_PROB


def test_load_model_round_trips_through_file(tmp_path):
    path = tmp_path / "m.model"
    path.write_text(BASIC)
    doc = load_model(path)
    assert doc.lottery_names() == ("even", "hedge")


def test_comments_and_blank_lines_ignored():
    text = BASIC.replace("[outcomes]", "# header comment\n[outcomes]")
    assert parse_model(text).lottery_names() == ("even", "hedge")


@pytest.mark.parametrize(
    "mutate, path_fragment",
    [
        (lambda t: t.replace("regime = ns-util\n", ""), "model/regime"),
        (lambda t: t.replace("ns-util", "turbo"), "model/regime"),
        (lambda t: t.replace("grid-denominator = 4", "grid-denominator = 1"), "model/grid-denominator"),
        (lambda t: t.replace("closure-depth = 1", "closure-depth = -2"), "model/closure-depth"),
        (lambda t: t.replace("closure-depth = 1", "closure-depth = soon"), "model/closure-depth"),
        (lambda t: t + "\n[mystery]\nx = 1\n", "mystery"),
        (lambda t: t.replace("grid-denominator = 4", "fancy = yes"), "model/fancy"),
        (lambda t: t.replace("win = 1/2", "win = 1/3"), "lottery even"),
        (lambda t: t.replace("loss = 1/2", "mystery = 1/2"), "lottery even/mystery"),
        (lambda t: t.replace("draw = eps", "draw = -1"), "outcomes/draw"),
        (lambda t: t.replace("win = 1\n", "win = oops\n"), "outcomes/win"),
    ],
)
def test_schema_errors_carry_paths(mutate, path_fragment):
    with pytest.raises(SchemaError) as excinfo:
        parse_model(mutate(BASIC))
    assert path_fragment in str(excinfo.value)


def test_standardness_enforced_per_regime():
    std_nonstandard_utility = BASIC.replace("ns-util", "std")
    with pytest.raises(SchemaError, match="standard utilities"):
        parse_model(std_nonstandard_utility)

    ns_prob_keeps_standard_utilities = BASIC.replace("ns-util", "ns-prob")
    with pytest.raises(SchemaError, match="standard utilities"):
        parse_model(ns_prob_keeps_standard_utilities)

    nonstandard_probability = BASIC.replace("win = 1/2", "win = 1/2 + eps").replace(
        "loss = 1/2", "loss = 1/2 - eps"
    )
    with pytest.raises(SchemaError, match="standard"):
        parse_model(nonstandard_probability)


def test_nonstandard_probabilities_allowed_in_ns_prob():
    text = textwrap.dedent(
        """
        [model]
        regime = ns-prob

        [outcomes]
        win = 1
        loss = 0

        [lottery tilted]
        win = 1/2 + eps
        loss = 1/2 - eps
        """
    )
    doc = parse_model(text)
    assert not doc.lottery("tilted").is_standard()


def test_signed_utilities_require_opt_in():
    signed = BASIC.replace("draw = eps", "draw = -1/2")
    with pytest.raises(SchemaError, match="signed-utilities"):
        parse_model(signed)
    allowed = signed.replace(
        "regime = ns-util", "regime = ns-util\nsigned-utilities = yes"
    )
    doc = parse_model(allowed)
    assert doc.utilities.signed
    assert doc.utilities.utility("draw") == F(-1, 2)


def test_belief_requires_full_coverage_both_ways():
    missing = WITH_ACTS.replace("shine = 1/2\n", "")
    with pytest.raises(SchemaError, match="belief/shine"):
        parse_model(missing)
    extra = WITH_ACTS.replace("[belief]", "[belief]\nfog = 0")
    with pytest.raises(SchemaError, match="fog"):
        parse_model(extra)


def test_acts_validated_against_states_and_lotteries():
    with pytest.raises(SchemaError, match="act umbrella/shine"):
        parse_model(WITH_ACTS.replace("shine = coin\n", "", 1))
    with pytest.raises(SchemaError, match="unknown lottery"):
        parse_model(WITH_ACTS.replace("rain = sure", "rain = nosuch"))


def test_duplicate_lottery_name_rejected():
    duplicated = BASIC + "\n[lottery even]\nwin = 1\n"
    with pytest.raises(SchemaError, match="even"):
        parse_model(duplicated)


def test_display_names_for_postulates():
    assert display_name("A2p") == "A2'"
    assert display_name("A3pp") == "A3''"
    assert display_name("A5p") == "A5'"
    assert display_name("gamma") == "gamma"
    assert display_name("A1") == "A1"


def test_render_lottery_sorts_outcomes():
    lot = parse_model(WITH_ACTS).lottery("coin")
    assert render_lottery(lot) == "{bad: 1/2, good: 1/2}"
    assert render_lottery(lot, compact=True) == "{bad:1/2,good:1/2}"


@pytest.mark.parametrize(
    "text, path, message",
    [
        (BASIC.replace("[model]", "[setup]"), "model", "a [model] section is required"),
        (BASIC.replace("win = 1\n", "win =\n"), "outcomes/win", "a value literal is required"),
        (
            BASIC.replace("closure-depth = 1", "signed-utilities = maybe"),
            "model/signed-utilities",
            "expected yes or no, found 'maybe'",
        ),
        (
            BASIC.replace("win = 1\ndraw = eps\nloss = 0\n", ""),
            "outcomes",
            "at least one outcome is required",
        ),
        (BASIC + "\n[lottery empty]\n", "lottery empty", "a lottery needs at least one outcome"),
        (
            BASIC.replace("win = 1/2\nloss = 1/2", "win = -1/2\nloss = 3/2"),
            "lottery even/win",
            "probabilities cannot be negative",
        ),
        (
            BASIC.split("[lottery even]")[0],
            "lottery",
            "at least one [lottery NAME] section is required",
        ),
        (BASIC + "\n[lottery even ]\nwin = 1\n", "lottery even", "duplicate lottery name 'even'"),
        (
            WITH_ACTS.replace("rain\nshine\n", "rain\nshine = 1\n"),
            "states/shine",
            "state lines carry no value",
        ),
        (
            WITH_ACTS.replace("rain\nshine\n", ""),
            "states",
            "the states section is empty",
        ),
        (
            WITH_ACTS.replace("[states]\nrain\nshine\n", ""),
            "belief",
            "belief requires a [states] section",
        ),
        (
            WITH_ACTS.replace("rain = 1/2\nshine = 1/2", "rain = -1/2\nshine = 3/2"),
            "belief/rain",
            "belief weights cannot be negative",
        ),
        (
            WITH_ACTS.replace("rain = 1/2\nshine = 1/2", "rain = 1/2 + eps\nshine = 1/2 - eps"),
            "belief/rain",
            "regime std requires a standard belief",
        ),
        (
            WITH_ACTS.replace("rain = 1/2\nshine = 1/2", "rain = 1/3\nshine = 1/3"),
            "belief",
            "belief weights must sum to exactly 1",
        ),
        (
            WITH_ACTS.replace("[belief]\nrain = 1/2\nshine = 1/2\n", ""),
            "act umbrella",
            "acts require [states] and [belief] sections",
        ),
        (
            WITH_ACTS.replace("[act umbrella]\n", "[act umbrella]\nfog = sure\n"),
            "act umbrella/fog",
            "unknown state 'fog'",
        ),
        (
            WITH_ACTS + "\n[act gamble ]\nrain = sure\nshine = sure\n",
            "act gamble",
            "duplicate act name 'gamble'",
        ),
    ],
    ids=[
        "no-model",
        "empty-literal",
        "signed-utilities",
        "no-outcomes",
        "empty-lottery",
        "negative-probability",
        "no-lottery",
        "duplicate-lottery",
        "state-with-value",
        "empty-states",
        "belief-without-states",
        "negative-belief",
        "nonstandard-belief",
        "belief-sum",
        "acts-without-model",
        "act-unknown-state",
        "duplicate-act",
    ],
)
def test_each_schema_error_names_its_path(text, path, message):
    with pytest.raises(SchemaError) as excinfo:
        parse_model(text)
    assert excinfo.value.path == path
    assert str(excinfo.value) == f"{path}: {message}"


def test_indented_line_under_a_bare_key_is_a_schema_error():
    # configparser before 3.13 fails here on appending to the bare key's
    # None; the reader names the key and the line on every Python.
    text = WITH_ACTS.replace("rain\nshine\n", "rain\n  shine\n")
    with pytest.raises(SchemaError) as excinfo:
        parse_model(text)
    assert excinfo.value.path == "states/rain"
    assert str(excinfo.value) == "states/rain: line 18 is indented under a key with no value: 'shine'"


def _sections_or_error(read, text):
    """The sections ``read`` finds in ``text``, or the error it raises: its
    class and message before 3.13, which rewords ``ParsingError``, and from
    3.13 only that the document is rejected."""
    try:
        return read(text)
    except configparser.Error as error:
        return (type(error), str(error)) if sys.version_info < (3, 13) else configparser.Error


def _readme_model():
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    return re.search(r"```ini\n(.*?)```", readme, re.DOTALL).group(1)


@pytest.mark.parametrize(
    "text",
    [
        *READER_QUIRKS,
        *(
            pytest.param(fixture_path(name).read_text(encoding="utf-8"), id=name)
            for name in ("consolation", "dice", "maximin3", "surgery")
        ),
        pytest.param(_readme_model(), id="readme"),
    ],
)
def test_section_reader_reads_what_configparser_reads(text):
    assert _sections_or_error(_read_sections, text) == _sections_or_error(oracle_read_sections, text)


# Line pieces: headers (repeated, [DEFAULT], closed early, empty), option
# lines (empty key, bare key, empty value, a second "="), comments and
# blank lines, each after an optional indent and before an optional tail.
# Lines join on "\n" only, so \r, \x0c, \u2028 and \ufeff stay inside one.
document_texts = st.lists(
    st.tuples(
        st.sampled_from(["", "", " ", "  ", "\t", "\x0c", "\ufeff", "\u2028", "\r"]),
        st.sampled_from(
            ["[DEFAULT]", "[a]", "[a]x", "[b]", "[lottery a ]", "[]", "[a", "[a]b]"]
            + ["k = 1", "k=1", "K = 2", "= 1", "k", "j =", "k = = 2", "j = v"]
            + ["# c", "#", "", " "]
        ),
        st.sampled_from(["", "", " ", "\r", "\x0c", "\u2028", "\ufeff"]),
    ).map("".join),
    max_size=10,
).map("\n".join)


@settings(max_examples=500)
@given(document_texts)
@example("[a]\nk = 1\n\n  2\n# c\n\t3\n[DEFAULT]\nj\n")
@example("[a]\n= 1\n[b]\n=2\n")
def test_section_reader_matches_configparser(text):
    try:
        expected = _sections_or_error(oracle_read_sections, text)
    except AttributeError:
        # configparser's own crash, before 3.13, on an indented line under a
        # bare key.
        expected = SchemaError
    try:
        got = _sections_or_error(_read_sections, text)
    except SchemaError:
        # The reader rejects that line on every Python; configparser 3.13
        # rejects the document.
        got = SchemaError if sys.version_info < (3, 13) else configparser.Error
    assert got == expected


def test_model_documents_are_read_without_configparser(monkeypatch):
    # Each document read by configparser and validated must be the document
    # parse_model builds with configparser unusable.
    names = ("consolation", "dice", "maximin3", "surgery")
    texts = [fixture_path(name).read_text(encoding="utf-8") for name in names] + [WITH_ACTS]
    expected = [_document(oracle_read_sections(text), None) for text in texts]

    def refuse(*args, **kwargs):
        raise AssertionError("parse_model built a ConfigParser")

    monkeypatch.setattr(configparser, "ConfigParser", refuse)
    assert [parse_model(text) for text in texts] == expected


def test_readme_model_example_parses():
    document = parse_model(_readme_model())
    assert document.lottery_names() == ("ticket",)
    assert document.states == ("rain", "shine")
    assert [name for name, _ in document.acts] == ["umbrella"]
