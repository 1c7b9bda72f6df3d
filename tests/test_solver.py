"""Tests for exact weight-set computation over the open unit interval."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import exponents, nonzero_coefficients, nsreals, standard_fractions
from oracles import (
    affine_coefficient_roots,
    affine_value_at,
    oracle_partition_affine_comparison,
)
from qualutil import (
    EPS,
    InfiniteValue,
    NSReal,
    ONE,
    QOrdering,
    ZERO,
    eps,
    qcompare,
    rational,
)
from qualutil.solver import (
    AffineValue,
    RationalInterval,
    RationalIntervalSet,
    partition_affine_comparison,
    partition_unit_interval,
)

F = Fraction

finite_nsreals = st.builds(
    NSReal.from_terms,
    st.lists(st.tuples(st.integers(0, 3), nonzero_coefficients), max_size=4),
)


def interval(lo, hi, lo_open=True, hi_open=True):
    return RationalInterval(F(lo), F(hi), lo_open, hi_open)


def test_interval_rejects_empty():
    with pytest.raises(ValueError):
        interval(F(1, 2), F(1, 3))
    with pytest.raises(ValueError):
        interval(F(1, 2), F(1, 2), lo_open=True, hi_open=False)


def test_interval_membership_respects_openness():
    half_open = interval(0, F(1, 2), lo_open=True, hi_open=False)
    assert half_open.contains(F(1, 2))
    assert not half_open.contains(F(0))
    assert half_open.contains(F(1, 4))
    point = interval(F(1, 3), F(1, 3), lo_open=False, hi_open=False)
    assert point.is_point()
    assert point.contains(F(1, 3))
    assert not point.contains(F(1, 4))


def test_interval_witness_is_member():
    box = interval(F(1, 4), F(3, 4))
    assert box.witness() == F(1, 2)
    assert box.contains(box.witness())
    point = interval(F(2, 7), F(2, 7), False, False)
    assert point.witness() == F(2, 7)


def test_interval_render():
    assert interval(0, F(1, 2)).render() == "(0, 1/2)"
    assert interval(F(1, 2), F(1, 2), False, False).render() == "{1/2}"
    assert interval(F(1, 4), F(3, 4), False, True).render() == "[1/4, 3/4)"


def test_interval_set_basics():
    empty = RationalIntervalSet(())
    assert empty.is_empty
    assert empty.witness() is None
    assert empty.render() == "{}"
    assert not empty.contains(F(1, 2))

    combined = RationalIntervalSet(
        (interval(0, F(1, 2)), interval(F(1, 2), F(1, 2), False, False))
    )
    assert not combined.is_empty
    assert combined.contains(F(1, 2))
    assert combined.contains(F(1, 3))
    assert not combined.contains(F(2, 3))
    assert combined.render() == "(0, 1/2) u {1/2}"


def test_entire_unit_interval_detection():
    entire = RationalIntervalSet((interval(0, 1),))
    assert entire.is_entire_unit_interval()
    assert entire.complement_witness() is None
    partial = RationalIntervalSet((interval(0, F(1, 2)),))
    assert not partial.is_entire_unit_interval()
    missing = partial.complement_witness()
    assert missing is not None
    assert not partial.contains(missing)
    assert 0 < missing < 1


def test_complement_witness_finds_removed_point():
    punctured = RationalIntervalSet(
        (
            interval(0, F(1, 2), True, True),
            interval(F(1, 2), 1, True, True),
        )
    )
    assert punctured.complement_witness() == F(1, 2)


def test_partition_merges_cells_with_equal_labels():
    threshold = F(1, 3)
    parts = partition_unit_interval([threshold], lambda a: a >= threshold)
    assert parts[False].render() == "(0, 1/3)"
    assert parts[True].render() == "[1/3, 1)"


def test_partition_single_label_spans_everything():
    parts = partition_unit_interval([F(1, 2), F(1, 4)], lambda a: "same")
    assert parts["same"].is_entire_unit_interval()


def test_partition_ignores_breakpoints_outside_open_interval():
    parts = partition_unit_interval([F(0), F(1), F(2)], lambda a: "x")
    assert parts["x"].is_entire_unit_interval()


def test_affine_value_evaluation_and_roots():
    line = AffineValue(at_one=ONE, at_zero=-ONE)
    assert affine_value_at(line, F(1, 2)) == ZERO
    assert affine_coefficient_roots(line) == {F(1, 2)}

    # The eps coefficient is a*1 + (1 - a)*(-3), vanishing at a = 3/4.
    mixed = AffineValue(at_one=ONE + EPS, at_zero=EPS * -3)
    assert affine_coefficient_roots(mixed) == {F(3, 4)}

    constant = AffineValue(at_one=EPS, at_zero=EPS)
    assert affine_coefficient_roots(constant) == set()


def test_quantitative_partition_threshold_at_half():
    # a*1 + (1 - a)*0 compared against the constant 1/2.
    ramp = AffineValue(ONE, ZERO)
    flat = AffineValue(rational(F(1, 2)), rational(F(1, 2)))
    parts = partition_affine_comparison(ramp, flat, "quantitative")
    assert parts[QOrdering.LESS].render() == "(0, 1/2)"
    assert parts[QOrdering.EQUIVALENT].render() == "{1/2}"
    assert parts[QOrdering.GREATER].render() == "(1/2, 1)"


def test_qualitative_partition_collapses_infinitesimal_gap():
    # a*eps + (1 - a)*1 against 1/2: at a = 1/2 the value is 1/2 + eps/2,
    # an infinitesimal above the target, so the verdict there is
    # equivalence rather than a strict win.
    slide = AffineValue(EPS, ONE)
    flat = AffineValue(rational(F(1, 2)), rational(F(1, 2)))
    parts = partition_affine_comparison(slide, flat, "qualitative")
    assert parts[QOrdering.GREATER].render() == "(0, 1/2)"
    assert parts[QOrdering.EQUIVALENT].render() == "{1/2}"
    assert parts[QOrdering.LESS].render() == "(1/2, 1)"


def test_qualitative_partition_standard_beats_infinitesimal_everywhere():
    ramp = AffineValue(ONE, ZERO)
    tiny = AffineValue(EPS, EPS)
    parts = partition_affine_comparison(ramp, tiny, "qualitative")
    assert parts[QOrdering.GREATER].is_entire_unit_interval()
    assert QOrdering.LESS not in parts


def test_standard_part_partition_ignores_infinitesimal_tilt():
    # Both operands share standard part a, so they are everywhere tied.
    left = AffineValue(ONE + EPS, EPS)
    right = AffineValue(ONE, ZERO)
    parts = partition_affine_comparison(left, right, "standard-part")
    assert parts[QOrdering.EQUIVALENT].is_entire_unit_interval()


def _probe_points(rng, count=25):
    points = set()
    while len(points) < count:
        denominator = rng.randint(2, 97)
        numerator = rng.randint(1, denominator - 1)
        points.add(F(numerator, denominator))
    return sorted(points)


def _direct_verdict(left, right, comparison, a):
    lhs = affine_value_at(left, a)
    rhs = affine_value_at(right, a)
    if comparison == "qualitative":
        return qcompare(lhs, rhs)
    if comparison == "quantitative":
        s = (lhs - rhs).sign()
        return (
            QOrdering.GREATER
            if s > 0
            else QOrdering.LESS
            if s < 0
            else QOrdering.EQUIVALENT
        )
    delta = lhs.standard_part() - rhs.standard_part()
    if delta > 0:
        return QOrdering.GREATER
    if delta < 0:
        return QOrdering.LESS
    return QOrdering.EQUIVALENT


def _assert_partition_exact(left, right, comparison, rng):
    parts = partition_affine_comparison(left, right, comparison)
    for a in _probe_points(rng):
        holders = [
            label for label, weight_set in parts.items() if weight_set.contains(a)
        ]
        assert len(holders) == 1
        assert holders[0] is _direct_verdict(left, right, comparison, a)


@given(nsreals, nsreals, nsreals, nsreals, st.integers(0, 2**30))
def test_partition_membership_matches_direct_comparison(x1, x0, y1, y0, seed):
    rng = random.Random(seed)
    left = AffineValue(x1, x0)
    right = AffineValue(y1, y0)
    for comparison in ("qualitative", "quantitative"):
        _assert_partition_exact(left, right, comparison, rng)


@given(
    finite_nsreals, finite_nsreals, finite_nsreals, finite_nsreals, st.integers(0, 2**30)
)
def test_standard_part_partition_membership_matches_direct_comparison(
    x1, x0, y1, y0, seed
):
    rng = random.Random(seed)
    left = AffineValue(x1, x0)
    right = AffineValue(y1, y0)
    _assert_partition_exact(left, right, "standard-part", rng)


def test_partition_labels_cover_disjointly():
    rng = random.Random(11)
    pool = [ONE, ZERO, EPS, eps(2), ONE + EPS, rational(F(1, 2)) - EPS, eps(-1)]
    for _ in range(40):
        left = AffineValue(rng.choice(pool), rng.choice(pool))
        right = AffineValue(rng.choice(pool), rng.choice(pool))
        parts = partition_affine_comparison(left, right, "qualitative")
        for a in _probe_points(rng, count=10):
            assert sum(s.contains(a) for s in parts.values()) == 1


# --- the three routes against the definitional partition --------------------

COMPARISONS = ("qualitative", "quantitative", "standard-part")

multi_term_nsreals = st.builds(
    NSReal.from_terms,
    st.lists(st.tuples(exponents, nonzero_coefficients), min_size=2, max_size=4),
)
signed_operands = st.one_of(nsreals, multi_term_nsreals)


def magnitude(value):
    return -value if value.sign() < 0 else value


nonnegative_operands = signed_operands.map(magnitude)
nonpositive_operands = nonnegative_operands.map(lambda v: -v)


def _outcome(partition, left, right, comparison):
    """The partition's labels and weight sets in key order, or the type of
    the domain error it raised (the standard-part order has none for
    infinite values)."""
    try:
        return list(partition(left, right, comparison).items())
    except InfiniteValue:
        return InfiniteValue


def assert_partition_equals_oracle(left, right):
    for comparison in COMPARISONS:
        got = _outcome(partition_affine_comparison, left, right, comparison)
        expected = _outcome(oracle_partition_affine_comparison, left, right, comparison)
        assert got == expected, comparison


@given(signed_operands, signed_operands, signed_operands, signed_operands)
def test_partition_equals_oracle_on_signed_affine_operands(x1, x0, y1, y0):
    assert_partition_equals_oracle(AffineValue(x1, x0), AffineValue(y1, y0))


@given(nonnegative_operands, nonnegative_operands, nonnegative_operands, nonnegative_operands)
def test_partition_equals_oracle_on_nonnegative_affine_operands(x1, x0, y1, y0):
    assert_partition_equals_oracle(AffineValue(x1, x0), AffineValue(y1, y0))


@given(nonpositive_operands, nonpositive_operands, nonpositive_operands, nonpositive_operands)
def test_partition_equals_oracle_on_nonpositive_affine_operands(x1, x0, y1, y0):
    assert_partition_equals_oracle(AffineValue(x1, x0), AffineValue(y1, y0))


@given(finite_nsreals, finite_nsreals, finite_nsreals, finite_nsreals)
def test_partition_equals_oracle_on_finite_affine_operands(x1, x0, y1, y0):
    # Finite values keep the standard-part order from raising.
    assert_partition_equals_oracle(AffineValue(x1, x0), AffineValue(y1, y0))


standard_operands = st.one_of(
    st.sampled_from([ZERO, ONE, -ONE]), st.builds(rational, standard_fractions)
)


@given(standard_operands, standard_operands, standard_operands, standard_operands)
def test_partition_equals_oracle_on_standard_affine_operands(x1, x0, y1, y0):
    # The threshold partition of the quantitative and standard-part orders.
    assert_partition_equals_oracle(AffineValue(x1, x0), AffineValue(y1, y0))
    assert_partition_equals_oracle(AffineValue(x1, x0), AffineValue(y1, y1))


@given(signed_operands, signed_operands, signed_operands)
def test_partition_equals_oracle_against_a_constant(x1, x0, y):
    assert_partition_equals_oracle(AffineValue(x1, x0), AffineValue(y, y))


@given(st.one_of(signed_operands, nonnegative_operands, finite_nsreals), st.data())
def test_partition_equals_oracle_in_the_audit_shape(vj, data):
    # A strict chain (p, q, r) of the audit: a*v_p + (1-a)*v_r against v_q,
    # with v_p and v_r drawn near v_q so that the mixture crosses it.
    nearby = st.builds(lambda d: vj + d, st.one_of(signed_operands, finite_nsreals))
    vi, vk = data.draw(nearby), data.draw(nearby)
    assert_partition_equals_oracle(AffineValue(vi, vk), AffineValue(vj, vj))
    # A2': a*v_p + (1-a)*v_r against a*v_q + (1-a)*v_r.
    assert_partition_equals_oracle(AffineValue(vi, vk), AffineValue(vj, vk))


@given(st.one_of(st.just(ZERO), nonnegative_operands), st.data())
def test_partition_equals_oracle_in_the_audit_shape_on_one_signed_values(vj, data):
    # The audit shape with v_p, v_q and v_r all >= 0, then all <= 0, zero
    # allowed: the qualitative partitions the leading terms decide.
    nearby = st.one_of(
        st.just(ZERO),
        st.builds(lambda d: magnitude(vj + d), st.one_of(signed_operands, finite_nsreals)),
    )
    vi, vk = data.draw(nearby), data.draw(nearby)
    for p, q, r in ((vi, vj, vk), (-vi, -vj, -vk)):
        assert_partition_equals_oracle(AffineValue(p, r), AffineValue(q, q))
        assert_partition_equals_oracle(AffineValue(p, r), AffineValue(q, r))


def test_partition_equals_oracle_on_hand_picked_crossings():
    half, third = rational(F(1, 2)), rational(F(1, 3))
    cases = [
        (AffineValue(ONE, ZERO), AffineValue(half, half)),
        (AffineValue(EPS, ONE), AffineValue(half, half)),
        (AffineValue(ONE + EPS, -ONE + eps(2)), AffineValue(third - EPS, third)),
        (AffineValue(eps(-1) - ONE, ONE - eps(-1)), AffineValue(EPS, -EPS)),
        (AffineValue(EPS * 3, -EPS), AffineValue(ZERO, ZERO)),
    ]
    for left, right in cases:
        assert_partition_equals_oracle(left, right)
