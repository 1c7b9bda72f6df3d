"""One workload in one process: set up, run, and print one JSON line.

    python3 perfbench/worker.py {setup,run,trace} WORKLOAD SEED SECONDS SAMPLE_SEED

``setup`` only imports the package and builds the workload; ``run`` times
each op with tracing off; ``trace`` runs the same ops with spans.  Both
loops run whole blocks of ops, as many as bring the op time closest to
SECONDS (no more once the wall time, checks included, reaches twice that),
so every run measures whole blocks and the first block, whose work
counters are reported, is always complete.  Set-up and every op are bracketed by a fixed
reference loop, timed just before and just after; in ``run`` the loop also
runs during each op (see ``Probes``).  ``run.py`` uses the mean of these
times to express the duration at a fixed host speed.  ``run.py`` starts
this script; it is not meant to be called by hand.
"""

from __future__ import annotations

import gc
import json
import resource
import signal
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter


def reference_seconds() -> float:
    """Time a fixed loop of stdlib Fraction arithmetic, about 20 ms.

    It shares no code with qualutil, and runs with the collector off so that
    objects the program under test keeps alive cannot slow it down."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        x, acc = Fraction(1, 3), Fraction(0)
        for k in range(1, 2000):
            acc += x * Fraction(k, k + 1)
            if acc > 10:
                acc -= 10
        return perf_counter() - start
    finally:
        if collecting:
            gc.enable()


class Probes:
    """The reference loop, run every ``interval`` seconds while an op runs.

    A timer signal interrupts the op and its handler, run in the op's own
    thread, times the loop.  ``spent`` is the wall time the handler took, which the
    op's time leaves out.  A loop timed before and after an op of seconds
    misses the host's speed changes during it: on the bundled audits the
    per-op noise left after scaling fell from 12% to 5% with these probes.
    """

    def __init__(self, interval: float | None) -> None:
        self.interval = interval
        self.times: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame) -> None:
        start = perf_counter()
        self.times.append(reference_seconds())
        self.spent += perf_counter() - start

    def start(self) -> None:
        self.times, self.spent = [], 0.0
        if self.interval:
            signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> None:
        """Disarm the timer; a signal still pending is dropped."""
        if self.interval:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_IGN)


ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

# Set-up starts here: the package under test must be the checkout's own copy.
_reference_before_setup = reference_seconds()
_start = perf_counter()
import qualutil  # noqa: E402

if Path(qualutil.__file__).resolve().parent != ROOT / "src" / "qualutil":
    sys.exit(f"qualutil imported from {qualutil.__file__}, not from {ROOT / 'src'}")

from metrics import LAYER_COUNTS, LAYER_TIMES, SCALE, time_unit  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Failures kept in the output for diagnosis; the count is always exact.
_PROBLEM_LIMIT = 5
# Seconds between reference loops during an untraced op (a loop takes about
# 20 ms, so they hold about 7% of the op's wall time, left out of its time).
# The traced run takes none: they would land inside its spans.
PROBE_INTERVAL_S = 0.25


def _another_block(busy: float, blocks: int, seconds: float, wall: float) -> bool:
    """Whether one more block brings the op time closer to ``seconds``."""
    if blocks == 0:
        return True
    return wall < 2 * seconds and busy + busy / blocks / 2 < seconds


def _loop(workload, seconds: float, op, tracer=None):
    """Run ``op`` over whole blocks of inputs, as many as come closest to
    filling ``seconds``.

    Returns (seconds of each op that succeeded, the mean of the reference
    loops before, during and after each, the block of each, attempted,
    failed, first problems, counters of the first block, seconds spent in
    probes).  With a ``tracer``, an op's seconds are those of its own span,
    without the replay after it, and its counters add the work the tracer
    counted."""
    times, references, blocks, problems, counters = [], [], [], [], []
    attempted = failed = 0
    busy = probing = 0.0
    index = 0
    probes = Probes(None if tracer else PROBE_INTERVAL_S)
    begin = perf_counter()
    while index % workload.block or _another_block(
        busy, index // workload.block, seconds, perf_counter() - begin
    ):
        item = workload.op_input(index)
        attempted += 1
        before = reference_seconds()
        probes.start()
        start = perf_counter()
        try:
            result = op(item)
        except Exception:  # an op that raises is a failed op, not a crash
            probes.stop()
            elapsed = perf_counter() - start - probes.spent
            issues = [traceback.format_exc(limit=3)]
        else:
            probes.stop()
            elapsed = perf_counter() - start - probes.spent
            after = reference_seconds()
            issues = workload.verify(item, result)
            if index < workload.block:
                counters.append({
                    "op": workload.label(item),
                    **workload.counters(item, result),
                    **(tracer.op_counts if tracer else {}),
                })
        busy += elapsed
        probing += probes.spent
        if issues:
            failed += 1
            problems.extend(f"op {index} ({workload.label(item)}): {p}" for p in issues)
        else:
            times.append(tracer.op_s if tracer else elapsed)
            references.append(sum([before, *probes.times, after]) / (len(probes.times) + 2))
            blocks.append(index // workload.block)
        workload.forget(index)
        index += 1
    return (
        times, references, blocks, attempted, failed, problems[:_PROBLEM_LIMIT], counters, probing
    )


def _layer_metrics(tracer, counters) -> dict[str, float]:
    layers = {
        metric: tracer.mean(span) * SCALE[time_unit(metric)]
        for metric, span in LAYER_TIMES.items()
    }
    for metric, key in LAYER_COUNTS.items():
        layers[metric] = sum(c.get(key, 0) for c in counters) / max(len(counters), 1)
    stored = sum(c.get("witnesses_stored", 0) for c in counters)
    rendered = sum(c.get("witnesses_rendered", 0) for c in counters)
    layers["auditor.witness_keep_ratio"] = rendered / stored if stored else 0.0
    layers["nsreal.terms_mean"] = tracer.mean("nsreal.terms")
    return layers


def main(argv: list[str]) -> int:
    mode, name, seed, seconds, sample_seed = argv[0], argv[1], int(argv[2]), float(argv[3]), int(argv[4])
    workload = WORKLOADS[name](seed, sample_seed)
    out = {"setup_s": perf_counter() - _start}
    out["setup_ref_s"] = (_reference_before_setup + reference_seconds()) / 2
    if mode != "setup":
        if mode == "run":
            op, tracer = workload.run_op, None
        else:
            from tracing import TRACERS, Tracer

            tracer, trace = Tracer(), TRACERS[name]

            def op(item):
                return trace(tracer, workload, item)

        times, references, blocks, attempted, failed, problems, counters, probing = _loop(
            workload, seconds, op, tracer
        )
        out.update(
            op_s=times, ref_s=references, block=blocks, attempted=attempted, failed=failed,
            problems=problems, counters=counters, probe_s=probing,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        )
        if mode == "trace":
            out["layers"] = _layer_metrics(tracer, counters)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
