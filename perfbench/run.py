"""The qualutil benchmark: one workload per call, results as JSON.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads: audit-random,
audit-bundled-d1, maximin-sweep (see README.md).  Each measurement runs in
a worker process of its own (``worker.py``), single-threaded, one op at a
time.

With ``--trace 0`` the last line of standard output carries the end-to-end
metrics; with ``--trace 1`` it carries the per-layer metrics of a traced
run, measured next to an untraced one for the tracing overhead.  The line
before it holds the details: environment, sample counts, failures and the
work counters of the first block of ops.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

from metrics import END_TO_END, LAYER_TIMES, per_layer_units  # noqa: E402

WORKLOADS = ("audit-random", "audit-bundled-d1", "maximin-sweep")
# The seeds to use while writing a change; README.md names the held-out ones.
DEFAULT_SEED = 1
DEFAULT_SAMPLE_SEED = 0
# Fresh processes that only set up; setup_s is the median over these and the
# measuring worker's own set-up.
SETUP_PROBES = 5
# Every duration is reported at the host speed at which the workers'
# reference loop takes this long (its fast level on the 2-core box this was
# written on): each op's time is scaled by this over the mean time of the
# reference loops run before, during and after it, because host speed can
# move by 70% within seconds (README.md gives the figures).  Raw values are
# in the detail line.
REFERENCE_S = 0.0125
# A call must end within 180 s; workers are stopped when this much has passed.
DEADLINE_S = 170
COUNTER_STORE = ROOT / ".perfbench" / "counters"


class BenchError(Exception):
    pass


def worker(mode: str, args, seconds: float, deadline: float) -> dict:
    command = [
        sys.executable, str(HERE / "worker.py"), mode, args.workload, str(args.seed),
        repr(seconds), str(args.sample_seed),
    ]
    try:
        proc = subprocess.run(
            command, capture_output=True, text=True, cwd=ROOT,
            timeout=max(deadline - time.monotonic(), 1.0),
        )
    except subprocess.TimeoutExpired as error:
        raise BenchError(f"{mode} worker still running after {DEADLINE_S} s") from error
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def source_digest() -> str:
    """Digest of the package and of the benchmark: the code behind the counters."""
    digest = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*"), *HERE.rglob("*")]):
        if path.is_file() and path.suffix in (".py", ".model"):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def environment(args, source: str) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "commit": git_commit(),
        "source_sha256": source,
        "workload": args.workload,
        "seed": args.seed,
        "sample_seed": args.sample_seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
    }


def check_counters(args, source: str, counters: list) -> str | None:
    """Compare the first block's work counters with an earlier run of the same
    seed, tracing and source; remember them if there was none."""
    COUNTER_STORE.mkdir(parents=True, exist_ok=True)
    key = f"{args.workload}-{args.seed}-{args.sample_seed}-t{args.trace}-{source[:16]}"
    path = COUNTER_STORE / f"{key}.json"
    if path.is_file():
        if json.loads(path.read_text()) != counters:
            return f"work counters differ from an earlier run with seed {args.seed}"
        return None
    staging = path.with_suffix(f".{os.getpid()}.tmp")
    staging.write_text(json.dumps(counters))
    os.replace(staging, path)
    return None


def spec_units(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {entry["name"]: entry["unit"] for entry in spec[kind]}


def scaled(seconds: list[float], references: list[float]) -> list[float]:
    return [t * REFERENCE_S / ref for t, ref in zip(seconds, references)]


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile: the smallest value with at least ``share`` of
    the values at or below it."""
    return sorted(values)[math.ceil(share * len(values)) - 1]


def block_percentile(times: list[float], blocks: list[int], share: float) -> float:
    """The median over the run's blocks of each block's percentile.

    Every block holds the same op kinds, so a block's percentile is an op of
    the same kind in every block, and the figure does not depend on how many
    blocks the run held."""
    groups = defaultdict(list)
    for value, block in zip(times, blocks):
        groups[block].append(value)
    return statistics.median(percentile(group, share) for group in groups.values())


def end_to_end(setups: list[dict], run: dict, scale=scaled) -> dict[str, float]:
    """End-to-end metrics, with durations passed through ``scale``."""
    times = scale(run["op_s"], run["ref_s"])
    return {
        "ops_per_s": len(times) / sum(times),
        "op_p50_ms": block_percentile(times, run["block"], 0.5) * 1e3,
        "op_p90_ms": block_percentile(times, run["block"], 0.9) * 1e3,
        "setup_s": statistics.median(
            scale([out["setup_s"] for out in setups], [out["setup_ref_s"] for out in setups])
        ),
        "peak_rss_mb": run["peak_rss_mb"],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--sample-seed", type=int, default=DEFAULT_SAMPLE_SEED,
        help="generator seed of the random structures of audit-random",
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qualutil" / "__init__.py").is_file():
        print(f"error: no package to measure at {ROOT / 'src' / 'qualutil'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    deadline = time.monotonic() + DEADLINE_S
    source = source_digest()
    try:
        setups = [
            worker("setup", args, 0, deadline) for _ in range(SETUP_PROBES)
        ]
        # A traced call splits its time between an untraced and a traced worker.
        seconds = args.seconds / 2 if args.trace else args.seconds
        run = worker("run", args, seconds, deadline)
        traced = worker("trace", args, seconds, deadline) if args.trace else None
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1

    attempted, failed = run["attempted"], run["failed"]
    problems = list(run["problems"])
    counters = run["counters"]
    if traced is not None:
        attempted += traced["attempted"]
        failed += traced["failed"]
        problems += traced["problems"]
        # The traced run counts more (solver partitions); the rest must agree.
        shared = [{key: c[key] for key in u} for c, u in zip(traced["counters"], counters)]
        if shared != counters:
            problems.append("traced and untraced runs disagree on the work counters")
        counters = traced["counters"]
    flag = check_counters(args, source, counters)
    if flag:
        problems.append(flag)
        print(f"FLAG: {flag}", file=sys.stderr)

    times = run["op_s"]
    if traced is None:
        if len(times) < 2:
            print("error: fewer than two ops succeeded", file=sys.stderr)
            return 1
        values = end_to_end(setups + [run], run)
        units = END_TO_END
        spec = spec_units("end_to_end")
    else:
        # Spans are scaled as a whole, by the traced worker's median factor.
        factor = REFERENCE_S / statistics.median(traced["ref_s"])
        values = {
            name: value * factor if name in LAYER_TIMES else value
            for name, value in traced["layers"].items()
        }
        # The traced op spans, replay left out, against the untraced time of
        # the ops both workers ran.
        common = min(len(times), len(traced["op_s"]))
        values["trace.overhead_ratio"] = sum(
            scaled(traced["op_s"][:common], traced["ref_s"][:common])
        ) / sum(scaled(times[:common], run["ref_s"][:common]))
        units = per_layer_units()
        spec = spec_units("per_layer")
    if spec != units:
        print("error: metrics disagree with BENCHMARK.json", file=sys.stderr)
        return 3

    block_size = max(Counter(run["block"]).values(), default=0)
    detail = {
        "env": environment(args, source),
        "samples": len(times),
        "blocks": len(set(run["block"])),
        "samples_beyond_p90_per_block": block_size - math.ceil(0.9 * block_size),
        "failed_ops": failed / attempted,
        "problems": problems,
        "reference_ms": 1e3 * statistics.median(run["ref_s"]),
        # Wall time the reference loops took during the untraced ops.
        "probe_share": run["probe_s"] / (run["probe_s"] + sum(run["op_s"])),
        "raw": end_to_end(setups + [run], run, lambda t, ref: t) if traced is None else None,
        "counters": counters,
    }
    print(json.dumps({"detail": detail}))
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
