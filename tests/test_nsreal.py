"""Unit tests for the exact number type and its qualitative comparison."""

import itertools
import operator
from fractions import Fraction
from math import inf

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from conftest import nonnegative_nsreals, nsreals, operands, positive_nsreals, scalars
from oracles import (
    oracle_add,
    oracle_compare_sign,
    oracle_mul,
    oracle_qcompare,
    oracle_qcompare_nonnegative,
    oracle_sub,
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

HALF = Fraction(1, 2)


def test_from_terms_merges_and_drops_zero_coefficients():
    value = NSReal.from_terms([(1, HALF), (0, 2), (1, HALF), (2, 3), (2, -3)])
    assert value.terms == ((0, Fraction(2)), (1, Fraction(1)))


def test_from_terms_sorts_by_exponent():
    value = NSReal.from_terms([(2, 1), (-1, 5), (0, 7)])
    assert [exponent for exponent, _ in value.terms] == [-1, 0, 2]


def test_zero_has_no_terms_and_sign_zero():
    assert ZERO.terms == ()
    assert ZERO.sign() == 0
    assert ZERO.is_zero()
    assert not ONE.is_zero()


def test_rational_accepts_ints_fractions_and_strings():
    assert rational(3) == rational(Fraction(3)) == rational("3")
    assert rational("2/3").terms == ((0, Fraction(2, 3)),)
    assert rational(0) == ZERO


def test_floats_are_rejected():
    with pytest.raises(TypeError):
        rational(0.5)
    with pytest.raises(TypeError):
        NSReal.from_terms([(0, 0.5)])
    with pytest.raises(TypeError):
        ONE + 0.5  # type: ignore[operator]
    with pytest.raises(TypeError):
        ONE * 0.5  # type: ignore[operator]


def test_equality_coerces_ints_and_fractions():
    assert rational(3) == 3
    assert rational(HALF) == HALF
    assert rational(3) != Fraction(1, 3)
    assert EPS != 0
    assert hash(rational(3)) == hash(rational("3"))


def test_arithmetic_identities():
    assert (ONE + EPS) * (ONE - EPS) == ONE - EPS * EPS
    assert eps(-1) * EPS == ONE
    assert EPS - EPS == ZERO
    assert -(-EPS) == EPS
    assert EPS**3 == eps(3)
    assert (ONE + EPS) ** 2 == ONE + EPS * 2 + eps(2)
    assert ONE * HALF + ONE * HALF == ONE


def test_scalar_multiplication_both_sides():
    assert EPS * 3 == NSReal.from_terms([(1, 3)])
    assert 3 * EPS == EPS * 3
    assert HALF * EPS == EPS * HALF


def test_quantitative_order_infinitesimal_below_every_positive_rational():
    tiny = rational(Fraction(1, 10**6))
    assert EPS < tiny
    assert EPS > ZERO
    assert eps(2) < EPS
    assert eps(-1) > rational(10**6)
    assert -EPS < ZERO < EPS


def test_order_is_total_on_samples():
    sample = [ZERO, ONE, EPS, -EPS, eps(-1), ONE + EPS, ONE - EPS, rational(HALF)]
    for left in sample:
        for right in sample:
            relations = [left < right, left == right, left > right]
            assert relations.count(True) == 1


def test_standard_part_discards_infinitesimals():
    value = rational(HALF) + EPS * 3
    assert value.standard_part() == HALF
    assert EPS.standard_part() == 0
    assert ZERO.standard_part() == 0


def test_standard_part_of_infinite_value_raises():
    with pytest.raises(InfiniteValue):
        eps(-1).standard_part()
    with pytest.raises(InfiniteValue):
        (eps(-2) + ONE).standard_part()


def test_magnitude_predicates():
    assert EPS.is_infinitesimal()
    assert ZERO.is_infinitesimal()
    assert not ONE.is_infinitesimal()
    assert ONE.is_standard() and ZERO.is_standard()
    assert not (ONE + EPS).is_standard()
    assert (ONE + EPS).is_finite()
    assert not eps(-1).is_finite()
    assert eps(-1).leading() == (-1, Fraction(1))
    assert ZERO.leading() is None


def test_qcompare_large_gap_wins():
    assert qcompare(EPS, EPS * Fraction(1, 12)) is QOrdering.GREATER
    assert qcompare(EPS * Fraction(1, 12), EPS) is QOrdering.LESS
    assert qcompare(ONE, EPS) is QOrdering.GREATER
    assert qcompare(eps(-1) * Fraction(1, 100), ONE) is QOrdering.GREATER


def test_qcompare_infinitesimal_gap_is_equivalent():
    one_sixth = Fraction(1, 6)
    left = rational(one_sixth) + EPS * Fraction(5, 6)
    right = rational(one_sixth) - EPS * one_sixth
    assert qcompare(left, right) is QOrdering.EQUIVALENT
    assert qcompare(ONE + EPS, ONE) is QOrdering.EQUIVALENT
    assert qcompare(rational(HALF) + EPS * (1 - HALF), rational(HALF)) is QOrdering.EQUIVALENT


def test_qcompare_equal_values_are_equivalent():
    assert qcompare(EPS, EPS) is QOrdering.EQUIVALENT
    assert qcompare(ZERO, ZERO) is QOrdering.EQUIVALENT


def test_qcompare_mixed_signs_decided_by_sign_class():
    assert qcompare(EPS, -EPS) is QOrdering.GREATER
    assert qcompare(-EPS, EPS) is QOrdering.LESS
    assert qcompare(ZERO, -EPS) is QOrdering.GREATER
    assert qcompare(-EPS, ZERO) is QOrdering.LESS
    assert qcompare(ZERO, EPS) is QOrdering.LESS


def test_qcompare_negative_pairs_mirror_positive_pairs():
    assert qcompare(-EPS * Fraction(1, 12), -EPS) is QOrdering.GREATER
    assert qcompare(-EPS, -EPS * Fraction(1, 12)) is QOrdering.LESS
    assert qcompare(-ONE - EPS, -ONE) is QOrdering.EQUIVALENT


def test_ordering_enum_flips():
    assert QOrdering.GREATER.flipped() is QOrdering.LESS
    assert QOrdering.LESS.flipped() is QOrdering.GREATER
    assert QOrdering.EQUIVALENT.flipped() is QOrdering.EQUIVALENT


def test_values_usable_in_sets_and_dict_keys():
    seen = {EPS, eps(), ONE, rational(1)}
    assert len(seen) == 2
    table = {ONE + EPS: "a"}
    assert table[NSReal.from_terms([(0, 1), (1, 1)])] == "a"


@given(nsreals, nsreals, nsreals)
def test_ring_axioms(x, y, z):
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + ZERO == x
    assert x * ONE == x
    assert x + (-x) == ZERO


@given(nsreals, nsreals, nsreals)
def test_order_respects_addition_and_positive_scaling(x, y, z):
    if x < y:
        assert x + z < y + z
        assert x * 3 < y * 3


@given(positive_nsreals, positive_nsreals)
def test_product_of_positives_is_positive(x, y):
    assert (x * y).sign() == 1


@given(nsreals)
def test_sign_matches_comparison_with_zero(x):
    if x.sign() > 0:
        assert x > ZERO
    elif x.sign() < 0:
        assert x < ZERO
    else:
        assert x == ZERO


@given(nsreals, nsreals)
def test_qcompare_antisymmetric(x, y):
    assert qcompare(x, y) is qcompare(y, x).flipped()


@given(st.lists(nsreals, min_size=3, max_size=8))
def test_qcompare_is_a_weak_order(draws):
    # A1 holds under NS_UTIL because GREATER and EQUIVALENT compose: two
    # steps that are each at least weakly up end up, strictly so when one
    # of them is strict.  Every triple of the draws and of a walk in quarter
    # steps of them is checked, so that chains of nearby values of one order
    # come up, where a tolerance-style equivalence would fail to compose.
    values = draws + list(itertools.accumulate(v * Fraction(1, 4) for v in draws))
    for x, y, z in itertools.product(values, repeat=3):
        first, second = qcompare(x, y), qcompare(y, z)
        if QOrdering.LESS in (first, second):
            continue
        if first is second is QOrdering.EQUIVALENT:
            assert qcompare(x, z) is QOrdering.EQUIVALENT
        else:
            assert qcompare(x, z) is QOrdering.GREATER


@given(nonnegative_nsreals, nonnegative_nsreals)
def test_qcompare_greater_implies_quantitative_greater(x, y):
    if qcompare(x, y) is QOrdering.GREATER:
        assert x > y


# --- the kernel against the definitional operations in oracles.py -----------

BINARY_OPERATIONS = [
    (operator.add, oracle_add),
    (operator.sub, oracle_sub),
    (operator.mul, oracle_mul),
]

ORDER_RELATIONS = [
    (operator.lt, lambda s: s < 0),
    (operator.le, lambda s: s <= 0),
    (operator.gt, lambda s: s > 0),
    (operator.ge, lambda s: s >= 0),
    (operator.eq, lambda s: s == 0),
    (operator.ne, lambda s: s != 0),
]


def assert_canonical(value):
    assert isinstance(value, NSReal)
    exponents = [exponent for exponent, _ in value.terms]
    assert all(type(exponent) is int for exponent in exponents)
    assert all(a < b for a, b in zip(exponents, exponents[1:]))
    for _, coefficient in value.terms:
        assert type(coefficient) is Fraction
        assert coefficient != 0
    if value.is_standard():
        assert hash(value) == hash(value.standard_part())


@given(operands, operands)
def test_ring_operations_match_from_terms_oracles(x, y):
    assume(isinstance(x, NSReal) or isinstance(y, NSReal))
    for operation, oracle in BINARY_OPERATIONS:
        result = operation(x, y)
        assert_canonical(result)
        assert result.terms == oracle(x, y).terms


@given(operands, operands)
def test_order_relations_match_the_sign_of_the_from_terms_difference(x, y):
    assume(isinstance(x, NSReal) or isinstance(y, NSReal))
    s = oracle_compare_sign(x, y)
    for relation, expected in ORDER_RELATIONS:
        assert relation(x, y) is expected(s)


@given(nsreals, nsreals)
def test_results_that_cancel_match_the_oracles(x, y):
    # x + y - y walks a shared tail of y; (x + y) - x and x - x cancel
    # whole terms, and x against x + y shares a prefix before differing.
    total = x + y
    for left, right in [(total, y), (total, x), (x, x), (x, -x)]:
        assert (left - right).terms == oracle_sub(left, right).terms
        assert (left + right).terms == oracle_add(left, right).terms
        assert_canonical(left - right)
    assert (x - x) == ZERO and (x + -x).terms == ()
    assert oracle_compare_sign(x, total) == (x - total).sign()
    assert qcompare(x, total) is oracle_qcompare(x, total)


@given(nsreals, scalars)
def test_scalars_on_either_side_match_the_oracles(x, c):
    for left, right in [(x, c), (c, x)]:
        for operation, oracle in BINARY_OPERATIONS:
            assert operation(left, right).terms == oracle(left, right).terms
        s = oracle_compare_sign(left, right)
        for relation, expected in ORDER_RELATIONS:
            assert relation(left, right) is expected(s)
    assert (x * 0).terms == (0 * x).terms == ()
    assert (x + 0) == x == (0 + x)


@given(nsreals, nsreals)
def test_qcompare_matches_the_difference_based_oracle(x, y):
    assert qcompare(x, y) is oracle_qcompare(x, y)
    assert qcompare(x, ZERO) is oracle_qcompare(x, ZERO)
    assert qcompare(ZERO, y) is oracle_qcompare(ZERO, y)


@given(nonnegative_nsreals, nonnegative_nsreals)
def test_qcompare_nonnegative_matches_the_difference_based_oracle(x, y):
    assert qcompare(x, y) is oracle_qcompare_nonnegative(x, y)


def leading_term_verdict(x, y):
    """Two values of one weak sign ranked by their leading terms: order of
    magnitude first (the smaller exponent; zero is of lower order than any
    other value), the larger order being the greater among nonnegative
    values and the lesser among nonpositive ones; coefficient second."""
    (ex, cx), (ey, cy) = (v.leading() or (inf, 0) for v in (x, y))
    if ex != ey:
        nonpositive = x.sign() < 0 or y.sign() < 0
        return QOrdering.GREATER if (ex < ey) != nonpositive else QOrdering.LESS
    if cx != cy:
        return QOrdering.GREATER if cx > cy else QOrdering.LESS
    return QOrdering.EQUIVALENT


@given(nonnegative_nsreals, st.one_of(nonnegative_nsreals, nsreals), st.booleans(), st.data())
def test_qcompare_on_one_sign_compares_leading_terms(x, step, negate, data):
    # The property the closed-form qualitative partitions rest on.  The
    # second value is near the first (often of its order), apart from it,
    # or zero.
    y = data.draw(st.sampled_from([x + step, step, ZERO]))
    y = -y if y.sign() < 0 else y
    if negate:
        x, y = -x, -y
    assert oracle_qcompare(x, y) is leading_term_verdict(x, y)


@given(nsreals)
def test_negation_and_powers_stay_canonical(x):
    assert_canonical(-x)
    assert (-x).terms == oracle_sub(ZERO, x).terms
    assert_canonical(x**2)


def test_constructors_return_canonical_values():
    for value in [
        ZERO,
        ONE,
        EPS,
        eps(-2),
        rational(0),
        rational(-3),
        rational("5/6"),
        rational(Fraction(4, 2)),
        NSReal.from_terms([(2, 1), (0, Fraction(1, 2)), (2, -1), (-1, 3)]),
    ]:
        assert_canonical(value)
    assert rational(0).terms == ()
    assert hash(rational(Fraction(4, 2))) == hash(2)


def test_public_boundary_rejects_floats_bools_and_non_int_exponents():
    for bad in (0.5, True):
        with pytest.raises(TypeError):
            rational(bad)
        with pytest.raises(TypeError):
            NSReal.from_terms([(0, bad)])
        for operation in (operator.add, operator.sub, operator.mul, operator.lt, operator.ge):
            with pytest.raises(TypeError):
                operation(EPS, bad)
            with pytest.raises(TypeError):
                operation(bad, EPS)
    for exponent in (1.0, True, Fraction(1)):
        with pytest.raises(TypeError):
            NSReal.from_terms([(exponent, 1)])
        with pytest.raises(TypeError):
            eps(exponent)
    assert (EPS == 0.5) is False and (ONE == True) is False  # noqa: E712
