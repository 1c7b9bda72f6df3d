"""Command-line front end.

Subcommands: ``eval`` (exact utility of a lottery or act), ``compare``
(order two of them), ``audit`` (run the postulate checks for the model's
regime), ``witness`` (solve for mixture weights realizing a relation),
``maximin`` (worst-case-first comparisons against the closed-form rule),
and ``examples`` (re-check every built-in example model).

Exit codes: 0 when everything requested holds, 1 when a check fails or a
comparison disagrees, 2 on load or usage errors (a maximin sweep past
``MAXIMIN_SWEEP_LIMIT`` comparisons among them), 3 on unknown identifiers.
Both kinds of error are ``QualUtilError``s, apart from an ``OSError`` while
reading a model.  Other exceptions, ``ConsistencyError`` and a bare
``ValueError`` among them, are bugs and propagate.
Output is human-oriented by default; ``--output machine`` switches to
stable token-prefixed lines.
:func:`main` parses with one parser per process, built on its first call.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import replace
from fractions import Fraction
from math import comb
from typing import Sequence

from .acts import act_prefers, act_utility
from .auditor import audit, solve_mixture_relation
from .criteria import (
    _maximin_assignment,
    MaximinSpec,
    maximin_compare_oracle,
    maximin_sweep,
    two_point_lottery,
)
from .errors import (
    ConsistencyError,
    InvalidParameter,
    QualUtilError,
    SweepTooLarge,
    UnknownIdentifier,
)
from .formats import (
    ModelDocument,
    load_model,
    render_interval_set,
    render_nsreal,
    render_report,
)
from .nsreal import QOrdering
from .prefcore import (
    Regime,
    expected_utility,
    prefers,
    qualitative_prefers,
)
from .fixtures import run_examples

__all__ = ["MAXIMIN_SWEEP_LIMIT", "build_parser", "main", "console_main"]

# Most comparisons an exhaustive ``maximin N --grid-denominator D`` sweep may
# decide: every two-point bet against every other, (C(N,2)*(D-1))**2
# comparisons, though it counts them from the groups of bets that share a
# key, with no pair of groups compared.  A sweep past this point is refused
# before any bet is built.
# ``maximin 10`` at the default grid (99,225 comparisons) fits.
MAXIMIN_SWEEP_LIMIT = 250_000

_RELATIONS = {
    "greater": QOrdering.GREATER,
    "equivalent": QOrdering.EQUIVALENT,
    "less": QOrdering.LESS,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qualutil",
        description="Exact qualitative expected-utility evaluation and postulate audits.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--output",
        choices=("human", "machine"),
        default="human",
        help="human-readable text or stable token-prefixed lines",
    )
    model_options = argparse.ArgumentParser(add_help=False, parents=[common])
    model_options.add_argument("--model", required=True, help="path to a model file")
    model_options.add_argument(
        "--regime",
        choices=[regime.value for regime in Regime],
        help="override the model's regime tag (revalidates the document)",
    )
    model_options.add_argument(
        "--grid-denominator",
        type=int,
        metavar="D",
        help="audit mixture weights are k/D (default: the model's, else 8)",
    )
    model_options.add_argument(
        "--closure-depth",
        type=int,
        metavar="N",
        help="mixture-closure rounds for audits (default: the model's, else 2)",
    )

    commands = parser.add_subparsers(dest="command", required=True)

    eval_parser = commands.add_parser(
        "eval", parents=[model_options], help="print the exact utility of a lottery or act"
    )
    eval_parser.add_argument("name", help="lottery or act name from the model")

    compare_parser = commands.add_parser(
        "compare", parents=[model_options], help="order two lotteries or two acts"
    )
    compare_parser.add_argument("first")
    compare_parser.add_argument("second")

    commands.add_parser(
        "audit", parents=[model_options], help="check the postulates for the model's regime"
    )

    witness_parser = commands.add_parser(
        "witness",
        parents=[model_options],
        help="solve for the weights a with a*FIRST + (1-a)*THIRD in a relation to TARGET",
    )
    witness_parser.add_argument("first")
    witness_parser.add_argument("target")
    witness_parser.add_argument("third")
    witness_parser.add_argument("relation", choices=sorted(_RELATIONS))

    maximin_parser = commands.add_parser(
        "maximin",
        parents=[common],
        help="compare worst-case-first bets against the closed-form rule",
    )
    maximin_parser.add_argument("n", type=int, help="number of ranked outcomes (>= 2)")
    maximin_parser.add_argument(
        "--compare",
        nargs=6,
        action="append",
        metavar=("LOW", "WEIGHT", "HIGH", "LOW2", "WEIGHT2", "HIGH2"),
        help="two two-point bets: outcome indices and the weight on the low one",
    )
    maximin_parser.add_argument(
        "--grid-denominator",
        type=int,
        default=8,
        metavar="D",
        help="grid for the exhaustive sweep when no --compare is given",
    )

    commands.add_parser(
        "examples", parents=[common], help="re-check every built-in example model"
    )
    return parser


def _load(args: argparse.Namespace) -> ModelDocument:
    override = Regime(args.regime) if args.regime else None
    document = load_model(args.model, regime_override=override)
    if args.grid_denominator is not None:
        document = replace(document, grid_denominator=args.grid_denominator)
    if args.closure_depth is not None:
        document = replace(document, closure_depth=args.closure_depth)
    return document


def _utility_of(document: ModelDocument, name: str):
    try:
        return expected_utility(document.lottery(name), document.utilities)
    except UnknownIdentifier:
        if not document.acts:
            raise
    act = document.act(name)
    assert document.model is not None
    return act_utility(act, document.model)


def _run_eval(args: argparse.Namespace) -> int:
    document = _load(args)
    value = _utility_of(document, args.name)
    machine = args.output == "machine"
    if machine:
        print(f"UTILITY {render_nsreal(value, compact=True)}")
    else:
        print(f"u({args.name}) = {render_nsreal(value)}")
    if not document.regime.standard_probabilities:
        print(f"{'STANDARD' if machine else 'standard part ='} {value.standard_part()}")
    return 0


def _run_compare(args: argparse.Namespace) -> int:
    document = _load(args)
    names = (args.first, args.second)
    try:
        lotteries = tuple(document.lottery(name) for name in names)
    except UnknownIdentifier:
        if not document.acts:
            raise
        acts = tuple(document.act(name) for name in names)
        assert document.model is not None
        verdict = act_prefers(acts[0], acts[1], document.model)
        values = tuple(act_utility(act, document.model) for act in acts)
    else:
        # The qualitative comparison of exact utilities is the headline
        # relation in every regime; regime-specific functionals drive the
        # audits instead.
        verdict = qualitative_prefers(lotteries[0], lotteries[1], document.utilities)
        values = tuple(expected_utility(l, document.utilities) for l in lotteries)
    if args.output == "machine":
        print(verdict.value.upper())
    else:
        print(verdict.value.capitalize())
        for name, value in zip(names, values):
            print(f"  u({name}) = {render_nsreal(value)}")
    return 0


def _run_audit(args: argparse.Namespace) -> int:
    document = _load(args)
    report = audit(document.structure())
    print(render_report(report, machine=args.output == "machine"))
    return 0 if report.all_hold else 1


def _run_witness(args: argparse.Namespace) -> int:
    document = _load(args)
    values = tuple(
        expected_utility(document.lottery(name), document.utilities)
        for name in (args.first, args.target, args.third)
    )
    relation = _RELATIONS[args.relation]
    solved = solve_mixture_relation(
        values[0], values[2], values[1], relation, document.regime
    )
    machine = args.output == "machine"
    if machine:
        print(f"SET {render_interval_set(solved, compact=True)}")
        sample = solved.witness()
        if sample is not None:
            print(f"WITNESS {sample}")
    else:
        print(
            f"weights a with a*{args.first} + (1-a)*{args.third} "
            f"{args.relation} {args.target}: {render_interval_set(solved)}"
        )
        sample = solved.witness()
        if sample is not None:
            print(f"example: a = {sample}")
    return 0 if not solved.is_empty else 1


def _parse_maximin_pair(spec: MaximinSpec, raw: Sequence[str]):
    try:
        low, high = int(raw[0]), int(raw[2])
    except ValueError:
        raise InvalidParameter(
            f"outcome indices must be integers, got {raw[0]!r} and {raw[2]!r}"
        ) from None
    try:
        weight = Fraction(raw[1])
    except (ValueError, ZeroDivisionError):
        raise InvalidParameter(f"weight must be a rational like 1/4, got {raw[1]!r}") from None
    return (low, weight, high), two_point_lottery(spec, low, weight, high)


def _check_sweep_size(n: int, denominator: int) -> None:
    # A denominator below 2 makes no grid; grid_weights says so.
    comparisons = (comb(n, 2) * max(denominator - 1, 0)) ** 2
    if comparisons > MAXIMIN_SWEEP_LIMIT:
        raise SweepTooLarge(
            f"maximin sweep of n={n}, grid={denominator} needs {comparisons} comparisons, "
            f"more than the limit of {MAXIMIN_SWEEP_LIMIT}"
        )


def _run_maximin(args: argparse.Namespace) -> int:
    spec = MaximinSpec(args.n)
    machine = args.output == "machine"
    if not args.compare:
        _check_sweep_size(spec.n, args.grid_denominator)
        total, disagreements = maximin_sweep(spec, args.grid_denominator)
        if machine:
            print(
                f"SWEEP n={spec.n} grid={args.grid_denominator} total={total} "
                f"disagreements={disagreements}"
            )
        else:
            print(
                f"exhaustive sweep, n={spec.n}, weights k/{args.grid_denominator}: "
                f"{total} comparisons, {disagreements} disagreements with the rule"
            )
        return 0 if disagreements == 0 else 1
    disagreements = 0
    for raw in args.compare:
        (low, w, high), left = _parse_maximin_pair(spec, raw[:3])
        (low2, w2, high2), right = _parse_maximin_pair(spec, raw[3:])
        assignment = _maximin_assignment(spec, (low, high, low2, high2))
        got = prefers(left, right, assignment, Regime.NS_UTIL)
        expected = maximin_compare_oracle(spec, low, w, high, low2, w2, high2)
        if got is not expected:
            disagreements += 1
        if machine:
            print(
                f"COMPARE {low},{w},{high} {low2},{w2},{high2} "
                f"{got.value.upper()} {expected.value.upper()}"
            )
        else:
            print(
                f"({spec.outcome(low)} {w} {spec.outcome(high)}) vs "
                f"({spec.outcome(low2)} {w2} {spec.outcome(high2)}): "
                f"{got.value.capitalize()}  [rule: {expected.value.capitalize()}]"
            )
    return 0 if disagreements == 0 else 1


def _run_examples(args: argparse.Namespace) -> int:
    machine = args.output == "machine"
    checks = run_examples()
    for check in checks:
        label = "PASS" if check.passed else "FAIL"
        if machine:
            print(f"EXAMPLE {check.name} {label}")
        else:
            print(f"{check.name}: {label} ({check.detail})")
    all_passed = all(check.passed for check in checks)
    print(f"RESULT {'PASS' if all_passed else 'FAIL'}")
    return 0 if all_passed else 1


_HANDLERS = {
    "eval": _run_eval,
    "compare": _run_compare,
    "audit": _run_audit,
    "witness": _run_witness,
    "maximin": _run_maximin,
    "examples": _run_examples,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`main`: parsing keeps no state in it, so it is
    built once, on the first call rather than at import."""
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except ConsistencyError:
        raise  # an analytic rule disagreed with its guard: a bug, not bad input
    except QualUtilError as error:
        print(f"error: {error}", file=sys.stderr)
        return 3 if isinstance(error, LookupError) else 2
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
