"""End-to-end tests for the command line interface."""

import sys
import textwrap
import time
import tracemalloc

import pytest

import qualutil.cli
import qualutil.criteria
from qualutil import ConsistencyError, IndexOutOfRange, InvalidParameter, UnknownIdentifier
from qualutil.cli import main
from qualutil.fixtures import fixture_path

DICE = str(fixture_path("dice"))
CONSOLATION = str(fixture_path("consolation"))
SURGERY = str(fixture_path("surgery"))
MAXIMIN = str(fixture_path("maximin3"))

STD_MODEL = textwrap.dedent(
    """
    [model]
    regime = std
    closure-depth = 0

    [outcomes]
    good = 1
    mid = 1/2
    bad = 0

    [lottery g]
    good = 1

    [lottery m]
    mid = 1

    [lottery b]
    bad = 1
    """
)

ACTS_MODEL = textwrap.dedent(
    """
    [model]
    regime = std
    closure-depth = 0

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

    [act safe]
    rain = sure
    shine = sure

    [act risky]
    rain = coin
    shine = coin

    [belief]
    rain = 1/2
    shine = 1/2
    """
)


@pytest.fixture
def std_model(tmp_path):
    path = tmp_path / "std.model"
    path.write_text(STD_MODEL)
    return str(path)


@pytest.fixture
def acts_model(tmp_path):
    path = tmp_path / "acts.model"
    path.write_text(ACTS_MODEL)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- eval --------------------------------------------------------------------


def test_eval_prints_exact_utility(capsys):
    code, out, _ = run(capsys, "eval", "--model", DICE, "e")
    assert code == 0
    assert "u(e) = eps" in out
    assert "standard part = 0" in out


def test_eval_machine_tokens(capsys):
    code, out, _ = run(capsys, "eval", "--model", DICE, "f", "--output", "machine")
    assert code == 0
    assert out.splitlines() == ["UTILITY 1/12*eps", "STANDARD 0"]


def test_eval_std_model_has_no_standard_part_line(capsys, std_model):
    code, out, _ = run(capsys, "eval", "--model", std_model, "g")
    assert code == 0
    assert out.strip() == "u(g) = 1"


def test_eval_resolves_acts(capsys, acts_model):
    code, out, _ = run(capsys, "eval", "--model", acts_model, "safe")
    assert code == 0
    assert out.strip() == "u(safe) = 1"


def test_eval_unknown_name_exits_3(capsys, std_model):
    code, out, err = run(capsys, "eval", "--model", std_model, "nosuch")
    assert code == 3
    assert "unknown lottery" in err


def test_eval_missing_file_exits_2(capsys, tmp_path):
    code, _, err = run(capsys, "eval", "--model", str(tmp_path / "nope.model"), "g")
    assert code == 2
    assert "error" in err


# --- compare -----------------------------------------------------------------


def test_compare_human_shows_utilities(capsys):
    code, out, _ = run(capsys, "compare", "--model", DICE, "e", "f")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "Better"
    assert "u(e) = eps" in lines[1]
    assert "u(f) = 1/12*eps" in lines[2]


def test_compare_machine_prints_bare_verdict(capsys):
    code, out, _ = run(capsys, "compare", "--model", DICE, "e", "f", "--output", "machine")
    assert (code, out.strip()) == (0, "BETTER")
    code, out, _ = run(capsys, "compare", "--model", DICE, "f", "e", "--output", "machine")
    assert (code, out.strip()) == (0, "WORSE")


def test_compare_dice_face_bets_are_indifferent(capsys):
    # Bets on two different faces carry identical win chances, and adding
    # the edge events to a face bet is only an infinitesimal improvement,
    # which the comparison discards.
    code, out, _ = run(capsys, "compare", "--model", DICE, "b6", "b4", "--output", "machine")
    assert (code, out.strip()) == (0, "INDIFFERENT")
    code, out, _ = run(capsys, "compare", "--model", DICE, "e6", "b6", "--output", "machine")
    assert (code, out.strip()) == (0, "INDIFFERENT")


def test_compare_acts(capsys, acts_model):
    code, out, _ = run(capsys, "compare", "--model", acts_model, "safe", "risky", "--output", "machine")
    assert (code, out.strip()) == (0, "BETTER")


def test_compare_mixing_act_and_lottery_exits_3(capsys, acts_model):
    code, _, err = run(capsys, "compare", "--model", acts_model, "safe", "coin")
    assert code == 3
    assert "unknown act" in err


# --- audit -------------------------------------------------------------------


def test_audit_dice_passes(capsys):
    code, out, _ = run(capsys, "audit", "--model", DICE, "--output", "machine")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("AUDIT regime=ns-prob")
    assert "VERDICT A1 HOLD" in lines
    assert "VERDICT A3 HOLD" in lines
    assert "VERDICT B2 HOLD" in lines
    assert lines[-1] == "RESULT PASS"


def test_audit_consolation_fails_independence_only(capsys):
    code, out, _ = run(capsys, "audit", "--model", CONSOLATION, "--output", "machine")
    assert code == 1
    lines = out.splitlines()
    a2_lines = [line for line in lines if line.startswith("VERDICT A2 ")]
    assert len(a2_lines) == 1 and "FAIL" in a2_lines[0]
    assert "kind=independence" in a2_lines[0]
    for token in ("A2p", "A3p", "A3pp", "gamma"):
        assert f"VERDICT {token} HOLD" in lines
    assert lines[-1] == "RESULT FAIL"


def test_audit_surgery_fails_like_consolation(capsys):
    code, out, _ = run(capsys, "audit", "--model", SURGERY, "--output", "machine")
    assert code == 1
    assert any("VERDICT A2 FAIL" in line for line in out.splitlines())


def test_audit_maximin_reports_signed_note(capsys):
    code, out, _ = run(capsys, "audit", "--model", MAXIMIN)
    assert code == 1
    assert "VERDICT A2 FAIL" in out
    assert "VERDICT A3' FAIL" in out
    assert "VERDICT gamma FAIL" in out
    assert "VERDICT A1 HOLD" in out
    assert "NOTE" in out and "signed" in out
    assert out.rstrip().endswith("RESULT FAIL")


def test_audit_human_mode_shows_counterexample_details(capsys):
    code, out, _ = run(capsys, "audit", "--model", CONSOLATION)
    assert code == 1
    assert "counterexample (independence):" in out
    assert "lambda = " in out
    assert "checked:" in out


def test_audit_acts_model_includes_A4(capsys, acts_model):
    code, out, _ = run(capsys, "audit", "--model", acts_model, "--output", "machine")
    assert code == 0
    assert "VERDICT A4 HOLD" in out.splitlines()


def test_audit_oversized_closure_exits_2(capsys, std_model):
    code, _, err = run(capsys, "audit", "--model", std_model, "--closure-depth", "2")
    assert code == 2
    assert "closure" in err
    assert "closure-depth" in err


def test_audit_closure_depth_flag_overrides_model(capsys, std_model):
    code, out, _ = run(
        capsys, "audit", "--model", std_model, "--closure-depth", "1",
        "--grid-denominator", "2", "--output", "machine",
    )
    assert code == 0
    assert "depth=1" in out.splitlines()[0]
    assert "grid=2" in out.splitlines()[0]


# --- witness -----------------------------------------------------------------


def test_witness_prints_exact_weight_set(capsys, std_model):
    code, out, _ = run(capsys, "witness", "--model", std_model, "g", "m", "b", "equivalent")
    assert code == 0
    assert "{1/2}" in out
    assert "a = 1/2" in out


def test_witness_machine_tokens(capsys, std_model):
    code, out, _ = run(
        capsys, "witness", "--model", std_model, "g", "m", "b", "equivalent",
        "--output", "machine",
    )
    assert code == 0
    assert out.splitlines() == ["SET {1/2}", "WITNESS 1/2"]


def test_witness_empty_set_exits_1(capsys, std_model):
    code, out, _ = run(
        capsys, "witness", "--model", std_model, "m", "g", "b", "greater",
        "--output", "machine",
    )
    assert code == 1
    assert out.splitlines() == ["SET {}"]


def test_witness_relation_sets_partition(capsys, std_model):
    code, out, _ = run(
        capsys, "witness", "--model", std_model, "g", "m", "b", "greater",
        "--output", "machine",
    )
    assert code == 0
    assert out.splitlines()[0] == "SET (1/2,1)"


# --- maximin -----------------------------------------------------------------


def test_maximin_sweep_agrees_with_rule(capsys):
    code, out, _ = run(capsys, "maximin", "3", "--output", "machine")
    assert code == 0
    assert out.strip() == "SWEEP n=3 grid=8 total=441 disagreements=0"


def test_maximin_sweep_human(capsys):
    code, out, _ = run(capsys, "maximin", "4", "--grid-denominator", "4")
    assert code == 0
    assert "0 disagreements" in out


def test_maximin_explicit_comparison(capsys):
    code, out, _ = run(
        capsys, "maximin", "3", "--compare", "0", "1/2", "2", "0", "1/4", "1",
        "--output", "machine",
    )
    assert code == 0
    assert out.strip() == "COMPARE 0,1/2,2 0,1/4,1 WORSE WORSE"


def test_maximin_comparisons_in_human_mode_and_a_disagreement(capsys, monkeypatch):
    pairs = ["--compare", "0", "1/2", "2", "0", "1/4", "1"]
    pairs += ["--compare", "1", "1/3", "2", "0", "1/2", "2"]
    code, out, _ = run(capsys, "maximin", "3", *pairs)
    assert code == 0
    assert out.splitlines() == [
        "(x0 1/2 x2) vs (x0 1/4 x1): Worse  [rule: Worse]",
        "(x1 1/3 x2) vs (x0 1/2 x2): Better  [rule: Better]",
    ]
    # A rule that calls every pair level disagrees with both comparisons.
    monkeypatch.setattr(
        qualutil.cli, "maximin_compare_oracle", lambda *bet: qualutil.PrefOrdering.INDIFFERENT
    )
    code, out, _ = run(capsys, "maximin", "3", *pairs, "--output", "machine")
    assert code == 1
    assert out.splitlines() == [
        "COMPARE 0,1/2,2 0,1/4,1 WORSE INDIFFERENT",
        "COMPARE 1,1/3,2 0,1/2,2 BETTER INDIFFERENT",
    ]


def test_maximin_comparison_builds_only_the_compared_outcomes(capsys):
    # A million ranked outcomes: the four compared ones get utilities, the
    # rest cost nothing.
    tracemalloc.start()
    try:
        code = main(["maximin", "1000000", "--compare", "0", "1/2", "1", "0", "1/3", "1"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert capsys.readouterr().out == "(x0 1/2 x1) vs (x0 1/3 x1): Worse  [rule: Worse]\n"
    assert peak < 1_000_000


def test_maximin_bad_index_exits_3(capsys):
    code, _, err = run(capsys, "maximin", "3", "--compare", "0", "1/2", "5", "0", "1/2", "1")
    assert code == 3
    assert "out of range" in err


def test_maximin_misordered_pair_exits_2(capsys):
    code, _, err = run(capsys, "maximin", "3", "--compare", "2", "1/2", "1", "0", "1/2", "1")
    assert code == 2
    assert "low < high" in err


def test_maximin_unparseable_argument_exits_2(capsys):
    code, _, err = run(capsys, "maximin", "3", "--compare", "zero", "1/2", "1", "0", "1/2", "1")
    assert code == 2


class _WorkStarted(Exception):
    pass


def _forbid_sweep_work(monkeypatch):
    def refuse(*args):
        raise _WorkStarted

    monkeypatch.setattr(qualutil.cli, "two_point_lottery", refuse)
    monkeypatch.setattr(qualutil.criteria, "two_point_lottery", refuse)
    monkeypatch.setattr(qualutil.criteria, "_bet_keys", refuse)


def test_oversized_maximin_sweep_is_refused_before_any_work(capsys, monkeypatch):
    _forbid_sweep_work(monkeypatch)
    code, out, err = run(capsys, "maximin", "10", "--grid-denominator", "16")
    assert code == 2
    assert out == ""
    assert "455625 comparisons" in err
    assert f"limit of {qualutil.cli.MAXIMIN_SWEEP_LIMIT}" in err
    assert qualutil.cli.MAXIMIN_SWEEP_LIMIT == 250_000


def test_maximin_sweep_limit_admits_ten_outcomes_at_the_default_grid(capsys, monkeypatch):
    # (C(10,2)*7)**2 = 99,225 comparisons: past the guard, into the sweep.
    _forbid_sweep_work(monkeypatch)
    with pytest.raises(_WorkStarted):
        main(["maximin", "10"])
    with pytest.raises(_WorkStarted):
        main(["maximin", "3", "--compare", "0", "1/2", "2", "0", "1/4", "1"])


def test_maximin_grid_below_two_is_an_invalid_parameter(capsys):
    code, _, err = run(capsys, "maximin", "3", "--grid-denominator", "-1000")
    assert code == 2
    assert "grid denominator must be at least 2" in err


# Work that grows with a number given is bounded: a closure depth of 10**9
# is refused in round 2, a grid of 10**9 audits at depth 0 without being
# enumerated, and a comparison among 10**9 ranked outcomes values only the
# compared ones.  Each takes milliseconds.
HUGE = "1000000000"


@pytest.mark.parametrize(
    "argv, codes",
    [
        pytest.param(["audit", "--model", DICE, "--closure-depth", HUGE], {2}, id="dice-depth"),
        *(
            pytest.param(
                ["audit", "--model", str(fixture_path(name)), "--closure-depth", "0",
                 "--grid-denominator", HUGE],
                {0, 1},
                id=f"{name}-grid",
            )
            for name in ("consolation", "dice", "maximin3", "surgery")
        ),
        pytest.param(
            ["maximin", HUGE, "--compare", "0", "1/2", "1", "0", "1/3", "1"], {0}, id="maximin"
        ),
    ],
)
def test_huge_sizes_cost_only_the_work_they_ask_for(capsys, argv, codes):
    start = time.perf_counter()
    code = main(argv)
    assert time.perf_counter() - start < 1
    assert code in codes


def _audit_raising(monkeypatch, error):
    def broken(structure):
        raise error

    monkeypatch.setattr(qualutil.cli, "audit", broken)


@pytest.mark.parametrize(
    "error",
    [IndexOutOfRange("outcome index 5 out of range 0..2"), UnknownIdentifier("no lottery 'z'")],
)
def test_lookup_errors_of_the_package_exit_3(capsys, monkeypatch, std_model, error):
    _audit_raising(monkeypatch, error)
    code, _, err = run(capsys, "audit", "--model", std_model)
    assert code == 3
    assert err == f"error: {error}\n"


@pytest.mark.parametrize(
    "error",
    [ConsistencyError("sweep disagrees"), KeyError("bug"), IndexError("bug"), ValueError("bug")],
)
def test_bugs_propagate_instead_of_exiting(monkeypatch, std_model, error):
    # A failed internal cross-check, or a bare lookup error, is a bug in the
    # package: it must not read as bad input or an unknown identifier.
    _audit_raising(monkeypatch, error)
    with pytest.raises(type(error)) as excinfo:
        main(["audit", "--model", std_model])
    assert excinfo.value is error


@pytest.mark.parametrize(
    "argv, message",
    [
        (["maximin", "1"], "at least two ranked outcomes"),
        (["maximin", "3", "--compare", "0", "1/0", "1", "0", "1/2", "1"], "'1/0'"),
        (["maximin", "3", "--compare", "0", "half", "1", "0", "1/2", "1"], "'half'"),
        (["maximin", "3", "--compare", "0", "1/2", "1", "0", "1/2", "1.0"], "'1.0'"),
        (["audit", "--model", "{model}", "--grid-denominator", "1"], "at least 2"),
        (["audit", "--model", "{model}", "--closure-depth", "-1"], "nonnegative"),
    ],
)
def test_user_errors_are_package_errors_and_exit_2(capsys, monkeypatch, std_model, argv, message):
    # A bare ValueError is a bug (it propagates); bad input must raise the
    # package's own errors, which are ValueErrors too.
    caught = []
    original = qualutil.cli._HANDLERS[argv[0]]

    def recording(args):
        try:
            return original(args)
        except Exception as error:
            caught.append(error)
            raise

    monkeypatch.setitem(qualutil.cli._HANDLERS, argv[0], recording)
    code, _, err = run(capsys, *(arg.format(model=std_model) for arg in argv))
    assert code == 2
    assert message in err
    [error] = caught
    assert isinstance(error, InvalidParameter) and isinstance(error, ValueError)


def test_undecodable_model_file_is_a_schema_error(capsys, tmp_path):
    path = tmp_path / "binary.model"
    path.write_bytes(b"\xff\xfe\x00[model]")
    code, _, err = run(capsys, "audit", "--model", str(path))
    assert code == 2
    assert "not UTF-8 text" in err


# --- model loading and overrides --------------------------------------------


def test_schema_error_exits_2(capsys, tmp_path):
    path = tmp_path / "broken.model"
    path.write_text("[model]\n[outcomes]\na = 1\n[lottery l]\na = 1\n")
    code, _, err = run(capsys, "audit", "--model", str(path))
    assert code == 2
    assert "regime" in err


# 0 where the interpreter has no limit for integer strings (CPython before
# 3.10.7) or where it is switched off.
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(not DIGIT_LIMIT, reason="no limit for integer strings")
def test_an_integer_past_the_digit_limit_exits_2(capsys, tmp_path):
    path = tmp_path / "long.model"
    path.write_text(STD_MODEL.replace("good = 1\n", f"good = {'1' * (DIGIT_LIMIT + 1)}\n"))
    code, out, err = run(capsys, "audit", "--model", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: outcomes/good: bad literal")


def test_a_bad_literal_is_quoted_by_a_prefix_and_its_length(capsys, tmp_path):
    # The literal is bad at its last character whatever the digit limit.
    path = tmp_path / "long.model"
    path.write_text(STD_MODEL.replace("good = 1\n", f"good = {'1' * 5000}x\n"))
    code, out, err = run(capsys, "audit", "--model", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: outcomes/good: bad literal '111")
    assert "(5001 characters)" in err
    assert "unexpected character 'x' (at position 5000)" in err
    assert len(err) < 200


def test_a_long_unexpected_token_is_quoted_by_a_prefix_and_its_length(capsys, tmp_path):
    # The literal and the token the parser stops at are each quoted by a
    # prefix and a length, so the error line stays short.
    path = tmp_path / "long.model"
    path.write_text(STD_MODEL.replace("good = 1\n", f"good = 1 {'2' * 5000}\n"))
    code, out, err = run(capsys, "audit", "--model", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: outcomes/good: bad literal '1 222")
    assert "(5002 characters)" in err
    assert "unexpected '2222" in err
    assert "'... (5000 characters) (at position 2)" in err
    assert len(err) < 200


@pytest.mark.skipif(not DIGIT_LIMIT, reason="no limit for integer strings")
def test_a_value_past_the_digit_limit_is_refused_when_rendered(capsys, tmp_path):
    # Each utility parses, but the lottery's value has a numerator of
    # DIGIT_LIMIT + 2 digits, which str() refuses.
    path = tmp_path / "wide.model"
    path.write_text(
        "[model]\nregime = std\n\n[outcomes]\n"
        f"a = {'9' * (DIGIT_LIMIT - 1)}\nb = 0\n\n"
        "[lottery x]\na = 999/1000\nb = 1/1000\n"
    )
    code, out, err = run(capsys, "eval", "--model", str(path), "x")
    assert code == 2
    assert out == ""
    assert err == (
        f"error: a coefficient of {DIGIT_LIMIT + 2} digits is past this Python's "
        "limit for integer strings\n"
    )


def test_indented_line_under_a_state_exits_2(capsys, tmp_path):
    path = tmp_path / "indented.model"
    path.write_text(ACTS_MODEL.replace("rain\nshine\n", "rain\n  shine\n"))
    code, out, err = run(capsys, "audit", "--model", str(path))
    assert code == 2
    assert out == ""
    assert "states/rain" in err
    assert "Traceback" not in err


def test_regime_override_flag(capsys, std_model):
    # Reinterpreting the standard model under qualitative comparison is
    # allowed from the command line without editing the file.
    code, out, _ = run(
        capsys, "audit", "--model", std_model, "--regime", "ns-util",
        "--output", "machine",
    )
    assert code == 0
    assert out.splitlines()[0].startswith("AUDIT regime=ns-util")
    assert "VERDICT A2p HOLD" in out.splitlines()


def test_argparse_rejects_unknown_relation(std_model):
    with pytest.raises(SystemExit) as excinfo:
        main(["witness", "--model", std_model, "g", "m", "b", "sideways"])
    assert excinfo.value.code == 2


# --- one parser per process --------------------------------------------------


@pytest.fixture
def parser_builds(monkeypatch):
    """The parsers ``main`` builds from here on, starting from no parser."""
    builds = []
    build = qualutil.cli.build_parser

    def counting():
        builds.append(None)
        return build()

    monkeypatch.setattr(qualutil.cli, "build_parser", counting)
    qualutil.cli._parser.cache_clear()
    yield builds
    qualutil.cli._parser.cache_clear()


def test_main_builds_one_parser_for_all_its_calls(capsys, parser_builds, std_model):
    assert parser_builds == []
    for argv in (
        ["maximin", "3"],
        ["eval", "--model", std_model, "g"],
        ["audit", "--model", std_model, "--output", "machine"],
        ["maximin", "2", "--compare", "0", "1/2", "1", "0", "1/2", "1"],
    ):
        assert run(capsys, *argv)[0] == 0
    assert len(parser_builds) == 1
    assert qualutil.cli.build_parser() is not qualutil.cli.build_parser()


def test_the_shared_parser_carries_nothing_from_one_call_to_the_next(
    capsys, parser_builds, std_model
):
    sweep = (0, ["SWEEP n=4 grid=8 total=1764 disagreements=0"])
    compare = ["maximin", "4", "--compare", "0", "1/2", "1", "0", "1/3", "1"]
    for _ in range(2):
        code, out, _ = run(capsys, *compare, "--output", "machine")
        assert (code, out.splitlines()) == (0, ["COMPARE 0,1/2,1 0,1/3,1 WORSE WORSE"])
    code, out, _ = run(capsys, "maximin", "4", "--output", "machine")
    assert (code, out.splitlines()) == sweep

    audit = ["audit", "--model", std_model, "--output", "machine"]
    code, out, _ = run(capsys, *audit, "--regime", "ns-util")
    assert code == 0 and out.splitlines()[0].startswith("AUDIT regime=ns-util")
    code, out, _ = run(capsys, *audit)
    assert code == 0 and out.splitlines()[0].startswith("AUDIT regime=std")

    with pytest.raises(SystemExit) as excinfo:
        main(compare[:5])
    assert excinfo.value.code == 2
    capsys.readouterr()
    code, out, _ = run(capsys, "maximin", "4", "--output", "machine")
    assert (code, out.splitlines()) == sweep
    assert len(parser_builds) == 1


# --- examples ----------------------------------------------------------------


def test_examples_all_pass(capsys):
    code, out, _ = run(capsys, "examples", "--output", "machine")
    assert code == 0
    lines = out.splitlines()
    for name in ("dice", "consolation", "surgery", "maximin", "lexicographic"):
        assert f"EXAMPLE {name} PASS" in lines
    assert lines[-1] == "RESULT PASS"


def test_examples_human_mode(capsys):
    code, out, _ = run(capsys, "examples")
    assert code == 0
    assert "all examples check out" in out or "PASS" in out
