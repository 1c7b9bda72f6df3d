"""The audit engine against the definitional checks, and the work and memory
one audit takes: one closure, at most one weight partition per strict chain,
and nothing kept once the audit returns."""

import gc
import random
import weakref
from dataclasses import replace

import pytest

import qualutil.auditor
from oracles import AUDIT_ORACLES, random_structure
from qualutil import (
    PrefOrdering,
    Regime,
    audit,
    compare_values,
    expected_utility,
    load_model,
    mixture_closure,
)
from qualutil.fixtures import fixture_path

MODELS = ("dice", "consolation", "surgery", "maximin3")

SOLVABILITY_CHECKS = (
    "check_A3",
    "check_A3prime",
    "check_A3doubleprime",
    "check_gamma_property",
)


def bundled(name, **changes):
    return replace(load_model(fixture_path(name)), **changes).structure()


def assert_matches_oracles(structure):
    compared = 0
    for verdict in audit(structure).verdicts:
        if verdict.postulate in AUDIT_ORACLES:
            assert verdict == AUDIT_ORACLES[verdict.postulate](structure), verdict.postulate
            compared += 1
    assert compared


@pytest.mark.parametrize(
    "name, depth, grid",
    [(name, 0, None) for name in MODELS]
    + [(name, 1, 3) for name in MODELS]
    + [("maximin3", 1, 4)],
)
def test_audit_matches_oracles_on_bundled_models(name, depth, grid):
    changes = {"closure_depth": depth}
    if grid is not None:
        changes["grid_denominator"] = grid
    assert_matches_oracles(bundled(name, **changes))


@pytest.mark.parametrize(
    "regime, seed", [(Regime.STD, 501), (Regime.NS_UTIL, 502), (Regime.NS_PROB, 701)]
)
def test_audit_matches_oracles_on_random_structures(regime, seed):
    rng = random.Random(seed)
    for _ in range(20):
        assert_matches_oracles(
            random_structure(rng, regime, grid_denominator=3, closure_depth=1)
        )


def strict_chain_count(structure):
    values = [expected_utility(l, structure.utilities) for l in mixture_closure(structure)]
    better = [
        [compare_values(vi, vj, structure.regime) is PrefOrdering.BETTER for vj in values]
        for vi in values
    ]
    n = len(values)
    return sum(better[i][j] and better[j][k] for i in range(n) for j in range(n) for k in range(n))


def test_one_audit_builds_one_closure_solves_each_chain_once_and_keeps_nothing(monkeypatch):
    structure = bundled("consolation", closure_depth=1, grid_denominator=3)
    counts = {"closures": 0, "solvability_partitions": 0}
    solving = []

    def counted(name, original):
        def wrapper(*args, **kwargs):
            if name == "mixture_closure":
                counts["closures"] += 1
            elif name == "partition_affine_comparison" and solving:
                counts["solvability_partitions"] += 1
            elif name in SOLVABILITY_CHECKS:
                solving.append(name)
            try:
                return original(*args, **kwargs)
            finally:
                if name in SOLVABILITY_CHECKS:
                    solving.pop()

        return wrapper

    for name in ("mixture_closure", "partition_affine_comparison", *SOLVABILITY_CHECKS):
        monkeypatch.setattr(qualutil.auditor, name, counted(name, getattr(qualutil.auditor, name)))

    report = audit(structure)
    assert [v.postulate for v in report.verdicts] == ["A1", "A2", "A2p", "A3p", "A3pp", "gamma"]
    assert counts["closures"] == 1
    assert 0 < counts["solvability_partitions"] <= strict_chain_count(structure)

    audited = weakref.ref(structure)
    del structure, report
    gc.collect()
    assert audited() is None
