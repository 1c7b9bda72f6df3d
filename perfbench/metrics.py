"""Names and units of every metric the benchmark prints (stdlib only).

BENCHMARK.json lists the same names and units; ``run.py`` refuses to print a
result when the two disagree.
"""

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Mean time per call of a span recorded by the traced run: metric -> span.
# A span a workload never records reads 0.
_CHECKS = ("A1", "A2", "A3", "B2", "A2p", "A3p", "A3pp", "gamma", "A4", "A5p")
LAYER_TIMES = {
    "nsreal.add_us": "nsreal.add",
    "nsreal.mul_us": "nsreal.mul",
    "nsreal.lt_us": "nsreal.lt",
    "nsreal.qcompare_us": "nsreal.qcompare",
    "nsreal.mix_us": "nsreal.mix",
    "solver.partition_us": "solver.partition",
    "auditor.audit_ms": "auditor.audit",
    **{f"auditor.check_{p}_ms": f"auditor.check_{p}" for p in _CHECKS},
    "prefcore.closure_ms": "prefcore.closure",
    "prefcore.is_negligible_ms": "prefcore.is_negligible",
    "prefcore.lottery_build_us": "prefcore.lottery_build",
    "prefcore.expected_utility_us": "prefcore.expected_utility",
    "prefcore.compare_values_us": "prefcore.compare_values",
    "criteria.two_point_lottery_us": "criteria.two_point_lottery",
    "criteria.oracle_us": "criteria.oracle",
    "acts.act_utility_us": "acts.act_utility",
    "acts.is_null_ms": "acts.is_null",
    "formats.load_model_ms": "formats.load_model",
    "formats.render_report_ms": "formats.render_report",
    "cli.maximin_ms": "cli.maximin",
}

# Work counts per op over the first block of ops: metric -> counter key.
# Solver partitions are counted by the traced run only.
LAYER_COUNTS = {
    "prefcore.closure_size": "closure_size",
    "auditor.strict_pairs": "strict_pairs",
    "auditor.strict_chains": "strict_chains",
    "auditor.scan_candidates": "scan_candidates",
    "auditor.witnesses_stored": "witnesses_stored",
    "solver.partitions": "partitions",
    "criteria.comparisons": "comparisons",
}

LAYER_OTHER = {
    "nsreal.terms_mean": "count",
    "auditor.witness_keep_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
}


def time_unit(metric: str) -> str:
    return metric.rsplit("_", 1)[1]


def per_layer_units() -> dict[str, str]:
    units = {name: time_unit(name) for name in LAYER_TIMES}
    units.update({name: "count" for name in LAYER_COUNTS})
    units.update(LAYER_OTHER)
    return units


SCALE = {"us": 1e6, "ms": 1e3, "s": 1.0}
