"""The traced run: each op again, with a span around every call into a layer.

Spans are taken from outside the program, so nothing under ``src/`` changes.
During the op itself, the public functions a module calls are swapped, as
attributes of the calling module, for timed pass-throughs: the postulate
checks, ``mixture_closure``, ``is_negligible`` and the solver's
``partition_affine_comparison`` as the auditor calls them, and
``load_model``, ``audit`` and ``render_report`` as the CLI calls them.  The
solver calls are also counted.  After the op, the traced run replays the
layer calls that are too many or too small to wrap on the op's own
operands: lottery construction, expected utilities, the comparison matrix,
act utilities and null-state tests, the maximin oracle, and the NSReal
operations on the op's values.  Spans are aggregated in memory by name
(calls and seconds) and written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import operator
from collections import defaultdict
from time import perf_counter

import qualutil.auditor
import qualutil.cli
from qualutil import (
    Lottery,
    MaximinSpec,
    Regime,
    act_utility,
    audit,
    compare_values,
    expected_utility,
    grid_weights,
    is_null,
    maximin_compare_oracle,
    maximin_utilities,
    mixture_closure,
    qcompare,
    render_report,
    two_point_lottery,
)

from workloads import run_bundled

# Functions of qualutil.auditor timed, and counted, while it audits: the
# attribute of the module -> the span.
AUDITOR_SPANS = {
    "check_A1": "auditor.check_A1",
    "check_A2": "auditor.check_A2",
    "check_A3": "auditor.check_A3",
    "check_B2": "auditor.check_B2",
    "check_A2prime": "auditor.check_A2p",
    "check_A3prime": "auditor.check_A3p",
    "check_A3doubleprime": "auditor.check_A3pp",
    "check_gamma_property": "auditor.check_gamma",
    "check_A4": "auditor.check_A4",
    "check_A5prime": "auditor.check_A5p",
    "mixture_closure": "prefcore.closure",
    "is_negligible": "prefcore.is_negligible",
    "partition_affine_comparison": "solver.partition",
}
# The same for qualutil.cli while it runs `qualutil audit`.
CLI_SPANS = {
    "load_model": "formats.load_model",
    "audit": "auditor.audit",
    "render_report": "formats.render_report",
}

# NSReal operations are timed on at most this many operand pairs per op.
PAIR_SAMPLE = 64


def spread_sample(items, limit: int) -> list:
    """At most ``limit`` items, evenly spread; deterministic."""
    if len(items) <= limit:
        return list(items)
    step = len(items) / limit
    return [items[int(k * step)] for k in range(limit)]


class Tracer:
    """Calls and summed amount per name: busy seconds for a span, or any
    other quantity added with ``add`` (``nsreal.terms`` sums operand terms).

    ``op_s`` is the length of the last op's own span, without the replay
    after it, and ``op_counts`` the work counted on its calls."""

    def __init__(self) -> None:
        self.totals: dict[str, list] = defaultdict(lambda: [0, 0.0])
        self.op_s = 0.0
        self.op_counts: dict[str, int] = {}

    def add(self, name: str, calls: int, amount: float) -> None:
        total = self.totals[name]
        total[0] += calls
        total[1] += amount

    def calls(self, name: str) -> int:
        return self.totals[name][0] if name in self.totals else 0

    def timed(self, name: str, fn, *args):
        start = perf_counter()
        result = fn(*args)
        self.add(name, 1, perf_counter() - start)
        return result

    def each(self, name: str, fn, arglist: list) -> list:
        """Call ``fn`` once per argument tuple; one span covers the batch."""
        start = perf_counter()
        results = [fn(*args) for args in arglist]
        self.add(name, len(arglist), perf_counter() - start)
        return results

    def mean(self, name: str) -> float:
        calls, amount = self.totals.get(name, (0, 0.0))
        return amount / calls if calls else 0.0

    def _wrap(self, name: str, fn):
        def span(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.add(name, 1, perf_counter() - start)

        return span

    @contextlib.contextmanager
    def patched(self, module, spans: dict[str, str]):
        """Swap each ``module.attr`` of ``spans`` for a timed pass-through."""
        originals = {attr: getattr(module, attr) for attr in spans}
        for attr, name in spans.items():
            setattr(module, attr, self._wrap(name, originals[attr]))
        try:
            yield
        finally:
            for attr, original in originals.items():
                setattr(module, attr, original)

    def op(self, name: str, fn, *args):
        """Run the op itself as span ``name``, with the auditor's calls
        timed, and count its solver partitions."""
        before = self.calls("solver.partition")
        with self.patched(qualutil.auditor, AUDITOR_SPANS):
            start = perf_counter()
            result = fn(*args)
            self.op_s = perf_counter() - start
        self.add(name, 1, self.op_s)
        self.op_counts = {"partitions": self.calls("solver.partition") - before}
        return result


def _mixture(w, x, y):
    return w * x + (1 - w) * y


def trace_nsreal(tracer: Tracer, values: list, weights) -> None:
    pairs = spread_sample(
        [(x, y) for i, x in enumerate(values) for j, y in enumerate(values) if i != j],
        PAIR_SAMPLE,
    )
    if not pairs:
        return
    weighted = [(weights[k % len(weights)], x, y) for k, (x, y) in enumerate(pairs)]
    tracer.each("nsreal.add", operator.add, pairs)
    tracer.each("nsreal.mul", operator.mul, [(w, x) for w, x, _ in weighted])
    tracer.each("nsreal.lt", operator.lt, pairs)
    tracer.each("nsreal.qcompare", qcompare, pairs)
    tracer.each("nsreal.mix", _mixture, weighted)
    tracer.add("nsreal.terms", 2 * len(pairs), sum(len(x.terms) + len(y.terms) for x, y in pairs))


def trace_audit_layers(tracer: Tracer, structure) -> None:
    """Replay the smaller layer calls of one audit on its own structure."""
    regime = structure.regime
    lotteries = mixture_closure(structure)
    tracer.each("prefcore.lottery_build", Lottery.from_mapping, [(dict(l.probs),) for l in lotteries])
    values = tracer.each(
        "prefcore.expected_utility", expected_utility, [(l, structure.utilities) for l in lotteries]
    )
    tracer.each(
        "prefcore.compare_values", compare_values, [(vi, vj, regime) for vi in values for vj in values]
    )
    if structure.acts:
        model = structure.model
        tracer.each("acts.act_utility", act_utility, [(act, model) for act in structure.acts])
        for state in model.states:
            tracer.timed("acts.is_null", is_null, state, model, structure.acts)
    trace_nsreal(tracer, values, grid_weights(structure.grid_denominator))


def trace_random(tracer: Tracer, workload, structure):
    report = tracer.op("auditor.audit", audit, structure)
    tracer.timed("formats.render_report", render_report, report)
    trace_audit_layers(tracer, structure)
    return report


def trace_bundled(tracer: Tracer, workload, item):
    with tracer.patched(qualutil.cli, CLI_SPANS):
        result = tracer.op("cli.audit", run_bundled, item)
    trace_audit_layers(tracer, result.structure)
    return result


def trace_maximin(tracer: Tracer, workload, item):
    result = tracer.op("cli.maximin", workload.run_op, item)
    spec = MaximinSpec(item.n)
    utilities = maximin_utilities(spec)
    gambles = [
        (low, w, high)
        for low in range(spec.n)
        for high in range(low + 1, spec.n)
        for w in grid_weights(item.d)
    ]
    lotteries = tracer.each(
        "criteria.two_point_lottery", two_point_lottery, [(spec, *g) for g in gambles]
    )
    tracer.each(
        "prefcore.lottery_build",
        Lottery.from_mapping,
        [({spec.outcome(low): w, spec.outcome(high): 1 - w},) for low, w, high in gambles],
    )
    values = tracer.each("prefcore.expected_utility", expected_utility, [(l, utilities) for l in lotteries])
    tracer.each(
        "prefcore.compare_values",
        compare_values,
        [(x, y, Regime.NS_UTIL) for x in values for y in values],
    )
    tracer.each(
        "criteria.oracle",
        maximin_compare_oracle,
        [(spec, *left, *right) for left in gambles for right in gambles],
    )
    trace_nsreal(tracer, values, grid_weights(item.d))
    return result


TRACERS = {
    "audit-random": trace_random,
    "audit-bundled-d1": trace_bundled,
    "maximin-sweep": trace_maximin,
}
