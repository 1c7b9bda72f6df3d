"""Seeded inputs, the timed operation, and the output checks of each workload.

A workload is an endless, deterministic stream of ops grouped in blocks.
``op_input(i)`` depends only on the seeds and the op index ``i``; ``run_op``
is the one call that is timed; ``verify`` and ``counters`` run outside the
timed span and use only the public API of ``qualutil``.

The random structures are generated here, in the shape of the acceptance
suite's generators, on purpose without importing the tests: a later change
to the tests must not change what the benchmark measures.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import os
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from pathlib import Path

import qualutil.cli

from qualutil import (
    AAModel,
    Act,
    AuditReport,
    Lottery,
    PrefOrdering,
    PrefStructure,
    Regime,
    UtilityAssignment,
    audit,
    compare_values,
    eps,
    expected_utility,
    fixture_path,
    mix,
    mixture_closure,
    parse_model,
    prefers,
    rational,
    render_report,
    replay,
)
from qualutil.cli import main as cli_main

# Model files of the bundled audits are written here, one per op, and removed
# after the op; the directory is inside the checkout and ignored by git.
MODEL_DIR = Path(__file__).resolve().parent.parent / ".perfbench" / "models"

# Postulates each regime's audit runs, in audit order, and the subset that the
# theory (acceptance criteria 5, 7 and 8) guarantees to hold on unsigned
# random structures.  A postulate outside the guaranteed set may fail, but
# then its certificate must replay.
AUDIT_CHECKS = {
    Regime.STD: ("A1", "A2", "A3", "gamma"),
    Regime.NS_UTIL: ("A1", "A2", "A2p", "A3p", "A3pp", "gamma"),
    Regime.NS_PROB: ("A1", "A3", "B2"),
}
ACT_CHECKS = {Regime.STD: ("A4",), Regime.NS_UTIL: ("A4", "A5p"), Regime.NS_PROB: ("A4",)}
MUST_HOLD = {
    Regime.STD: {"A1", "A2", "A3", "gamma", "A4"},
    Regime.NS_UTIL: {"A1", "A2p", "A3p", "A3pp", "A5p"},
    Regime.NS_PROB: {"A1", "B2"},
}

# Relation each witness label claims for a*first + (1-a)*second against middle.
WITNESS_RELATION = {
    "alpha": PrefOrdering.BETTER,
    "beta": PrefOrdering.WORSE,
    "gamma": PrefOrdering.INDIFFERENT,
}

REGIMES = (Regime.STD, Regime.NS_UTIL, Regime.NS_PROB)


def op_rng(seed: int, index: int) -> random.Random:
    """The generator for one op: a function of the seed and the op index only."""
    return random.Random(seed * 1_000_003 + index)


# ---------------------------------------------------------------------------
# Checks shared by the two audit workloads


def rendered_witness_counts(report: AuditReport) -> list[int]:
    """How many witnesses the human report prints under each verdict, in
    verdict order."""
    counts: list[int] = []
    for line in render_report(report).splitlines():
        if line.startswith("VERDICT "):
            counts.append(0)
        elif line.startswith("  witness "):
            counts[-1] += 1
    return counts


def check_report(report: AuditReport, structure: PrefStructure, must_hold) -> list[str]:
    """Failures replay, rendered witnesses realise their relation, and the
    postulates in ``must_hold`` hold."""
    problems = []
    shown = rendered_witness_counts(report)
    for verdict, count in zip(report.verdicts, shown):
        if not verdict.holds:
            if verdict.postulate in must_hold:
                problems.append(f"{verdict.postulate} failed but must hold")
            if verdict.counterexample is None or not replay(verdict.counterexample, structure):
                problems.append(f"{verdict.postulate} certificate does not replay")
        for witness in verdict.witnesses[:count]:
            mixed = mix(witness.weight, witness.first, witness.second)
            got = prefers(mixed, witness.middle, structure.utilities, structure.regime)
            if got is not WITNESS_RELATION[witness.label]:
                problems.append(f"{verdict.postulate} witness {witness.label} does not realise")
    return problems


def strict_matrix(structure: PrefStructure) -> list[list[bool]]:
    """Which closure lottery is strictly preferred to which, recomputed
    through the public API."""
    values = [expected_utility(l, structure.utilities) for l in mixture_closure(structure)]
    return [
        [compare_values(vi, vj, structure.regime) is PrefOrdering.BETTER for vj in values]
        for vi in values
    ]


def strict_chains(better) -> list[tuple[int, int, int]]:
    n = len(better)
    return [
        (i, j, k)
        for i, j in itertools.product(range(n), repeat=2)
        if better[i][j]
        for k in range(n)
        if better[j][k]
    ]


def audit_counters(report: AuditReport, structure: PrefStructure) -> dict[str, int]:
    """Work counts of one audit; every one is a pure function of the input."""
    better = strict_matrix(structure)
    pairs = sum(map(sum, better))
    weights = structure.grid_denominator - 1
    if structure.regime is Regime.NS_PROB:
        weights += 3  # B2 adds eps, eps/2 and 1-eps to the grid
    shown = rendered_witness_counts(report)
    return {
        "closure_size": report.closure_size,
        "strict_pairs": pairs,
        "strict_chains": len(strict_chains(better)),
        "scan_candidates": pairs * report.closure_size * weights,
        "witnesses_stored": sum(len(v.witnesses) for v in report.verdicts),
        "witnesses_rendered": sum(shown),
        "failed_verdicts": sum(not v.holds for v in report.verdicts),
    }


# ---------------------------------------------------------------------------
# audit-random


_STANDARD_POOL = (0, 1, Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(1, 4),
                  Fraction(3, 4), 2, Fraction(5, 2))


def _nonstandard_pool():
    return (
        rational(0), rational(1), rational(Fraction(1, 2)), rational(2), eps(),
        eps() * Fraction(1, 3), eps(2), rational(1) + eps(),
        rational(Fraction(1, 2)) - eps(), eps(-1),
    )


def _simplex(rng: random.Random, size: int, denominator: int) -> list[Fraction]:
    cuts = sorted(rng.randrange(denominator + 1) for _ in range(size - 1))
    bounds = [0, *cuts, denominator]
    return [Fraction(hi - lo, denominator) for lo, hi in zip(bounds, bounds[1:])]


def _lottery(rng: random.Random, outcomes) -> Lottery:
    while True:
        chosen = rng.sample(outcomes, rng.randint(1, 3))
        mapping = {o: w for o, w in zip(chosen, _simplex(rng, len(chosen), 6)) if w}
        if mapping:
            return Lottery.from_mapping(mapping)


def _tilted_lottery(rng: random.Random, outcomes) -> Lottery:
    """A lottery whose first two outcomes trade an infinitesimal amount."""
    lottery = _lottery(rng, outcomes)
    items = {o: p for o, p in lottery.probs}
    if len(items) >= 2 and rng.random() < 0.7:
        tilt = eps() * Fraction(1, rng.randint(1, 4))
        first, second = sorted(items)[:2]
        items[first] += tilt
        items[second] -= tilt
        if all(p.sign() > 0 for p in items.values()):
            return Lottery.from_mapping(items)
    return lottery


class AuditRandom:
    """Many small audits: 3 generators over 4 outcomes, depth 1, grid 3.

    A block audits a fixed sample of the generator: its first 96 draws at
    ``sample_seed``, each kept as drawn; the seed only orders them in each
    block.  Natural draws differ enough in work that ops_per_s moved by 17%
    between two seeds that picked their own structures, repeatably
    (README.md).
    Regimes rotate STD, NS_UTIL, NS_PROB over the draws and every fourth
    draw carries a 3-state, 3-act model, so every 12 draws hold each
    combination once.  Outcome ids carry the op index, so no op audits a
    structure an earlier op audited.
    """

    name = "audit-random"
    block = 96

    def __init__(self, seed: int, sample_seed: int) -> None:
        self.seed = seed
        self.sample_seed = sample_seed

    def op_input(self, index: int) -> PrefStructure:
        order = list(range(self.block))
        op_rng(self.seed, index // self.block).shuffle(order)
        draw = order[index % self.block]
        return self._draw(op_rng(self.sample_seed, draw), draw, index)

    def forget(self, index: int) -> None:
        pass

    @staticmethod
    def _draw(rng: random.Random, draw: int, index: int) -> PrefStructure:
        outcomes = [f"{o}{index}" for o in "abcd"]
        regime = REGIMES[draw % 3]
        if regime is Regime.NS_UTIL:
            pool = rng.sample(_nonstandard_pool(), 4)
        else:
            pool = [rational(v) for v in rng.sample(_STANDARD_POOL, 4)]
        utilities = UtilityAssignment.from_mapping(dict(zip(outcomes, pool)))
        build = _tilted_lottery if regime is Regime.NS_PROB else _lottery
        generators = tuple(build(rng, outcomes) for _ in range(3))
        model, acts = None, ()
        if draw % 4 == 3:
            states = ("s0", "s1", "s2")
            belief = _simplex(rng, 3, 6)
            if belief[0] == 1:
                belief = [Fraction(1, 2), Fraction(1, 2), Fraction(0)]
            model = AAModel.from_mappings(
                states, {s: rational(w) for s, w in zip(states, belief)}, utilities, regime
            )
            acts = tuple(
                Act.from_mapping({
                    s: rng.choice(generators) if rng.random() < 0.5 else _lottery(rng, outcomes)
                    for s in states
                })
                for _ in range(3)
            )
        return PrefStructure(regime, utilities, generators, 3, 1, model, acts)

    def run_op(self, structure: PrefStructure) -> AuditReport:
        return audit(structure)

    def verify(self, structure: PrefStructure, report: AuditReport) -> list[str]:
        expected = AUDIT_CHECKS[structure.regime]
        if structure.acts:
            expected += ACT_CHECKS[structure.regime]
        got = tuple(v.postulate for v in report.verdicts)
        problems = [f"verdict vector {got}"] if got != expected else []
        return problems + check_report(report, structure, MUST_HOLD[structure.regime])

    def counters(self, structure: PrefStructure, report: AuditReport) -> dict[str, int]:
        return audit_counters(report, structure)

    def label(self, structure: PrefStructure) -> str:
        return structure.regime.value + ("+acts" if structure.acts else "")


# ---------------------------------------------------------------------------
# audit-bundled-d1

# The bundled models at closure depth 1, at grids that keep each closure at
# 16-29 lotteries, with the verdict vector and exit code that
# `qualutil audit --closure-depth 1 --output machine` gives for them.
# maximin3 runs at two grids so that a block holds an odd number of audits:
# the nearest-rank median then falls inside one group of similar audits.
_MAXIMIN3 = (("A1", True), ("A2", False), ("A3p", False), ("gamma", False))
BUNDLED = (
    ("dice", 3, (("A1", True), ("A3", True), ("B2", True)), 0),
    ("consolation", 3, (("A1", True), ("A2", False), ("A2p", True), ("A3p", True),
                        ("A3pp", True), ("gamma", True)), 1),
    ("surgery", 3, (("A1", True), ("A2", False), ("A2p", True), ("A3p", True),
                    ("A3pp", True), ("gamma", True)), 1),
    ("maximin3", 3, _MAXIMIN3, 1),
    ("maximin3", 4, _MAXIMIN3, 1),
)

_KEY_LINE = re.compile(r"^(\s*)([^#\s=][^=]*?)(\s*=)")


def tag_outcomes(text: str, tag: str) -> str:
    """Prefix every outcome id in a model document with ``tag``.

    The renamed model is the same model: the common prefix keeps the sorted
    order of the outcomes, so every lottery, closure and scan order is
    unchanged.  It only makes the structure a new key, so that no op finds
    the closure of an earlier op in the auditor's per-process cache, just as
    each CLI audit starts in a fresh process.
    """
    lines = []
    section = ""
    for line in text.splitlines():
        stripped = line.strip()
        if stripped.startswith("["):
            section = stripped.strip("[]").split()[0]
        elif section in ("outcomes", "lottery"):
            line = _KEY_LINE.sub(lambda m: f"{m.group(1)}{tag}{m.group(2)}{m.group(3)}", line)
        lines.append(line)
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class BundledAudit:
    index: int
    model: str
    grid: int
    path: Path
    verdicts: tuple[tuple[str, bool], ...]
    exit_code: int

    def argv(self) -> list[str]:
        return [
            "audit", "--model", str(self.path), "--closure-depth", "1",
            "--grid-denominator", str(self.grid), "--output", "machine",
        ]


@dataclass(frozen=True)
class BundledResult:
    exit_code: int
    output: str
    report: AuditReport
    structure: PrefStructure


@contextlib.contextmanager
def captured_audit():
    """Keep the structure and the report of the ``audit`` call the CLI makes.

    The CLI prints the report and returns only an exit code; the checks need
    the report itself.  This swaps ``qualutil.cli.audit`` for a pass-through
    that records both, for the length of one call."""
    calls: list[tuple[PrefStructure, AuditReport]] = []
    original = qualutil.cli.audit

    def recording(structure):
        report = original(structure)
        calls.append((structure, report))
        return report

    qualutil.cli.audit = recording
    try:
        yield calls
    finally:
        qualutil.cli.audit = original


def run_cli(argv: list[str]) -> tuple[int, str]:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli_main(argv)
    return code, buffer.getvalue()


def run_bundled(item: BundledAudit) -> BundledResult:
    with captured_audit() as calls:
        code, output = run_cli(item.argv())
    [(structure, report)] = calls
    return BundledResult(code, output, report, structure)


class AuditBundledD1:
    """The four bundled models through ``qualutil audit --closure-depth 1
    --grid-denominator G --output machine`` (``cli.main``); a block runs each
    entry of BUNDLED once, in a seeded order.  Each op reads a model file of
    its own, written before the op and removed after it."""

    name = "audit-bundled-d1"
    block = len(BUNDLED)

    def __init__(self, seed: int, sample_seed: int) -> None:
        self.seed = seed  # the sample seed is unused: the models are fixed
        self.texts = {
            name: fixture_path(name).read_text(encoding="utf-8") for name, *_ in BUNDLED
        }
        for name, text in self.texts.items():
            parse_model(text)  # a broken bundled model fails set-up, not the run

    def _path(self, index: int) -> Path:
        return MODEL_DIR / f"op{index}-{os.getpid()}.model"

    def op_input(self, index: int) -> BundledAudit:
        order = list(BUNDLED)
        op_rng(self.seed, index // self.block).shuffle(order)
        name, grid, verdicts, code = order[index % self.block]
        path = self._path(index)
        MODEL_DIR.mkdir(parents=True, exist_ok=True)
        path.write_text(tag_outcomes(self.texts[name], f"op{index}_"), encoding="utf-8")
        return BundledAudit(index, name, grid, path, verdicts, code)

    def forget(self, index: int) -> None:
        self._path(index).unlink(missing_ok=True)

    def run_op(self, item: BundledAudit) -> BundledResult:
        return run_bundled(item)

    def verify(self, item: BundledAudit, result: BundledResult) -> list[str]:
        problems = []
        if result.exit_code != item.exit_code:
            problems.append(f"exit code {result.exit_code}, expected {item.exit_code}")
        printed = tuple(
            (line.split()[1], line.split()[2] == "HOLD")
            for line in result.output.splitlines()
            if line.startswith("VERDICT ")
        )
        if printed != item.verdicts:
            problems.append(f"printed verdicts {printed}")
        must_hold = {postulate for postulate, holds in item.verdicts if holds}
        return problems + check_report(result.report, result.structure, must_hold)

    def counters(self, item: BundledAudit, result: BundledResult) -> dict[str, int]:
        return audit_counters(result.report, result.structure)

    def label(self, item: BundledAudit) -> str:
        return f"{item.model}@{item.grid}"


# ---------------------------------------------------------------------------
# maximin-sweep

# Every (N, D) with N in 4..7 and D in 4..8 whose sweep stays within
# (C(6,2)*7)^2 = 11,025 comparisons, except the smallest (N=4, D=4: 324
# comparisons): 17 shapes, an odd number, so that the nearest-rank median
# falls inside one kind of sweep.
MAXIMIN_SHAPES = tuple(
    (n, d)
    for n in range(4, 8)
    for d in range(4, 9)
    if 324 < (comb(n, 2) * (d - 1)) ** 2 <= 11_025
)


def sweep_total(n: int, d: int) -> int:
    return (comb(n, 2) * (d - 1)) ** 2


@dataclass(frozen=True)
class Sweep:
    index: int
    n: int
    d: int


@dataclass(frozen=True)
class SweepResult:
    exit_code: int
    output: str


class MaximinSweep:
    """``qualutil maximin N --grid-denominator D --output machine`` through
    ``cli.main``; a block runs every shape once, in a seeded order."""

    name = "maximin-sweep"
    block = len(MAXIMIN_SHAPES)

    def __init__(self, seed: int, sample_seed: int) -> None:
        self.seed = seed  # the sample seed is unused: the shapes are fixed

    def op_input(self, index: int) -> Sweep:
        order = list(MAXIMIN_SHAPES)
        op_rng(self.seed, index // self.block).shuffle(order)
        n, d = order[index % self.block]
        return Sweep(index, n, d)

    def forget(self, index: int) -> None:
        pass

    def run_op(self, item: Sweep) -> SweepResult:
        return SweepResult(*run_cli(
            ["maximin", str(item.n), "--grid-denominator", str(item.d), "--output", "machine"]
        ))

    def verify(self, item: Sweep, result: SweepResult) -> list[str]:
        expected = (
            f"SWEEP n={item.n} grid={item.d} total={sweep_total(item.n, item.d)} "
            "disagreements=0"
        )
        problems = []
        if result.exit_code != 0:
            problems.append(f"exit code {result.exit_code}")
        if result.output.strip() != expected:
            problems.append(f"printed {result.output.strip()!r}")
        return problems

    def counters(self, item: Sweep, result: SweepResult) -> dict[str, int]:
        return {"comparisons": sweep_total(item.n, item.d)}

    def label(self, item: Sweep) -> str:
        return f"n{item.n}d{item.d}"


WORKLOADS = {w.name: w for w in (AuditRandom, AuditBundledD1, MaximinSweep)}
