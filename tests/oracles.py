"""Independent reference computations used to cross-check the library.

Everything here is deliberately written from first principles rather than by
calling back into the code paths under test: the comparison oracle works on
raw coefficient dictionaries via Laurent long division, and the overriding
oracle spells out the defining quantifier over mixtures instead of using the
closed-form rule shipped in the package.  The audit oracles restate each
postulate check as the plain loop over pairs, triples and chains, solving
every weight set they need afresh with the definitional weight partition,
which rebuilds each sample value through ``NSReal`` arithmetic.
"""

from __future__ import annotations

import configparser
import itertools
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

import qualutil.criteria
from qualutil import (
    EPS,
    ONE,
    AAModel,
    Act,
    AffineValue,
    ClosureTooLarge,
    ConsistencyError,
    Counterexample,
    InfiniteValue,
    InvalidParameter,
    Lottery,
    MaximinSpec,
    MixtureWitness,
    NSReal,
    ParseError,
    PrefOrdering,
    PrefStructure,
    QOrdering,
    RationalInterval,
    RationalIntervalSet,
    Regime,
    UtilityAssignment,
    Verdict,
    ZeroDenominator,
    act_prefers,
    act_utility,
    compare_values,
    eps,
    expected_utility,
    grid_weights,
    maximin_compare_oracle,
    mix,
    mixture_closure,
    null_state_sweep,
    overrides_values,
    prefers,
    qcompare,
    rational,
    two_point_lottery,
)
from qualutil.solver import compare

# --- ratio-based comparison oracle -----------------------------------------


def _term_dict(value: NSReal) -> dict[int, Fraction]:
    return {exponent: coefficient for exponent, coefficient in value.terms}


def _lead(terms: dict[int, Fraction]) -> tuple[int, Fraction]:
    exponent = min(terms)
    return exponent, terms[exponent]


def _subtract_scaled(
    minuend: dict[int, Fraction],
    factor_exp: int,
    factor_coeff: Fraction,
    series: dict[int, Fraction],
) -> dict[int, Fraction]:
    result = dict(minuend)
    for exponent, coefficient in series.items():
        shifted = exponent + factor_exp
        updated = result.get(shifted, Fraction(0)) - factor_coeff * coefficient
        if updated:
            result[shifted] = updated
        else:
            result.pop(shifted, None)
    return result


def standard_part_of_ratio(numerator: NSReal, denominator: NSReal) -> Fraction:
    """Coefficient of the constant term in the series numerator/denominator.

    Computed by long division of Laurent polynomials, carried out until the
    remainder can no longer contribute to exponent zero.  The denominator
    must be nonzero.
    """

    num = _term_dict(numerator)
    den = _term_dict(denominator)
    if not den:
        raise ZeroDivisionError("division by zero")
    den_exp, den_coeff = _lead(den)
    constant = Fraction(0)
    while num:
        rem_exp, rem_coeff = _lead(num)
        quotient_exp = rem_exp - den_exp
        if quotient_exp > 0:
            break
        quotient_coeff = rem_coeff / den_coeff
        if quotient_exp == 0:
            constant = quotient_coeff
        num = _subtract_scaled(num, quotient_exp, quotient_coeff, den)
    return constant


def ratio_compare(left: NSReal, right: NSReal) -> QOrdering:
    """Comparison of two positive magnitudes via the ratio definition.

    ``left`` strictly exceeds ``right`` exactly when the relative shortfall
    ``(left - right) / left`` has a positive standard part, i.e. when the gap
    is a non-negligible fraction of the larger magnitude.
    """

    difference = left - right
    direction = difference.sign()
    if direction == 0:
        return QOrdering.EQUIVALENT
    if direction > 0:
        ratio = standard_part_of_ratio(difference, left)
        return QOrdering.GREATER if ratio > 0 else QOrdering.EQUIVALENT
    ratio = standard_part_of_ratio(-difference, right)
    return QOrdering.LESS if ratio > 0 else QOrdering.EQUIVALENT


# --- definitional NSReal operations ------------------------------------------
#
# The ring and order operations as the kernel first computed them: every
# result rebuilt by ``NSReal.from_terms`` from the raw terms, every order
# decided by the sign of a difference built that way.  Operands may be
# NSReal, int or Fraction.


def _value(operand: NSReal | int | Fraction) -> NSReal:
    if isinstance(operand, NSReal):
        return operand
    return NSReal.from_terms([(0, operand)])


def _negative(value: NSReal) -> NSReal:
    return NSReal.from_terms((e, -c) for e, c in value.terms)


def oracle_add(x, y) -> NSReal:
    return NSReal.from_terms(list(_value(x).terms) + list(_value(y).terms))


def oracle_sub(x, y) -> NSReal:
    return oracle_add(x, _negative(_value(y)))


def oracle_mul(x, y) -> NSReal:
    return NSReal.from_terms(
        (e1 + e2, c1 * c2) for e1, c1 in _value(x).terms for e2, c2 in _value(y).terms
    )


def oracle_compare_sign(x, y) -> int:
    """The sign of ``x - y``, read off the from_terms-built difference."""
    return oracle_sub(x, y).sign()


def oracle_qcompare_nonnegative(x: NSReal, y: NSReal) -> QOrdering:
    """Both operands >= 0: x exceeds y when the difference is positive and
    led at x's own exponent."""
    diff = oracle_sub(x, y)
    s = diff.sign()
    if s == 0:
        return QOrdering.EQUIVALENT
    if s > 0:
        if diff.leading_exponent() == x.leading_exponent():
            return QOrdering.GREATER
        return QOrdering.EQUIVALENT
    if diff.leading_exponent() == y.leading_exponent():
        return QOrdering.LESS
    return QOrdering.EQUIVALENT


def oracle_qcompare(x: NSReal, y: NSReal) -> QOrdering:
    """Ordered by sign class; negatives through ``x ~> y iff -y ~> -x``."""
    sx, sy = x.sign(), y.sign()
    if sx >= 0 and sy < 0:
        return QOrdering.GREATER
    if sx < 0 and sy >= 0:
        return QOrdering.LESS
    if sx < 0:
        return oracle_qcompare_nonnegative(_negative(y), _negative(x))
    return oracle_qcompare_nonnegative(x, y)


def oracle_standard_part(value: NSReal) -> Fraction:
    """The coefficient of ``eps**0``; a term of negative exponent leaves the
    value infinite, with no standard part."""
    terms = _term_dict(value)
    if any(exponent < 0 for exponent in terms):
        raise InfiniteValue(f"no standard part: {value!r} is infinite")
    return terms.get(0, Fraction(0))


def oracle_compare_values(x: NSReal, y: NSReal, regime: Regime) -> PrefOrdering:
    """Each regime's comparison by its definition: STD the sign of ``x - y``,
    NS_UTIL :func:`oracle_qcompare`, NS_PROB the order of the standard parts
    as ``Fraction`` values, raising InfiniteValue for an infinite operand."""
    if regime is Regime.NS_UTIL:
        ordering = oracle_qcompare(x, y)
        sign = (ordering is QOrdering.GREATER) - (ordering is QOrdering.LESS)
    elif regime is Regime.NS_PROB:
        lhs, rhs = oracle_standard_part(x), oracle_standard_part(y)
        sign = (lhs > rhs) - (lhs < rhs)
    else:
        sign = oracle_compare_sign(x, y)
    return (PrefOrdering.WORSE, PrefOrdering.INDIFFERENT, PrefOrdering.BETTER)[sign + 1]


# --- definitional weight partition -------------------------------------------
#
# The partition as first written: every sample value rebuilt by
# ``affine_value_at`` through NSReal arithmetic, the breakpoints the union of
# the ``affine_coefficient_roots`` of both operands and of their difference,
# every interval built through the checking constructor.


def affine_value_at(value: AffineValue, a: Fraction) -> NSReal:
    return a * value.at_one + (1 - a) * value.at_zero


def affine_coefficient_roots(value: AffineValue) -> set[Fraction]:
    """Weights in (0, 1) where some per-exponent coefficient vanishes.

    The coefficient at exponent e is ``a*x_e + (1 - a)*y_e``, affine in
    ``a``; it has a root only when x_e differs from y_e.
    """
    x = dict(value.at_one.terms)
    y = dict(value.at_zero.terms)
    roots: set[Fraction] = set()
    for e in x.keys() | y.keys():
        xe = x.get(e, Fraction(0))
        ye = y.get(e, Fraction(0))
        if xe != ye:
            root = ye / (ye - xe)
            if 0 < root < 1:
                roots.add(root)
    return roots


def oracle_partition_unit_interval(breakpoints, classify) -> dict:
    points = sorted({p for p in breakpoints if 0 < p < 1})
    segments = []  # (lo, hi, is_point): open cell, breakpoint, open cell, ...
    previous = Fraction(0)
    for p in points:
        segments.append((previous, p, False))
        segments.append((p, p, True))
        previous = p
    segments.append((previous, Fraction(1), False))
    labelled = [
        (lo, hi, is_point, classify(lo if is_point else (lo + hi) / 2))
        for lo, hi, is_point in segments
    ]
    result: dict = {}
    index = 0
    while index < len(labelled):
        lo, _, is_point, label = labelled[index]
        run_end = index
        while run_end + 1 < len(labelled) and labelled[run_end + 1][3] == label:
            run_end += 1
        _, last_hi, last_point, _ = labelled[run_end]
        piece = RationalInterval(lo, last_hi, not is_point, not last_point)
        result.setdefault(label, []).append(piece)
        index = run_end + 1
    return {label: RationalIntervalSet(tuple(pieces)) for label, pieces in result.items()}


def oracle_partition_affine_comparison(
    left: AffineValue, right: AffineValue, comparison: str
) -> dict[QOrdering, RationalIntervalSet]:
    difference = AffineValue(left.at_one - right.at_one, left.at_zero - right.at_zero)
    breakpoints = (
        affine_coefficient_roots(difference)
        | affine_coefficient_roots(left)
        | affine_coefficient_roots(right)
    )
    return oracle_partition_unit_interval(
        breakpoints,
        lambda a: compare(affine_value_at(left, a), affine_value_at(right, a), comparison),
    )


# --- lexicographic contrast --------------------------------------------------
#
# The lexicographic partition as first written: breakpoints at the roots of
# the two coordinate differences, each affine in the weight; every sample
# mixed coordinatewise and compared as a tuple, which Python orders
# lexicographically.


def oracle_lexicographic_mixture_partition(endpoint, other_endpoint, target) -> dict:
    breakpoints: set[Fraction] = set()
    for coordinate in (0, 1):
        at_one = endpoint[coordinate] - target[coordinate]
        at_zero = other_endpoint[coordinate] - target[coordinate]
        if at_one != at_zero:
            breakpoints.add(Fraction(at_zero) / (at_zero - at_one))

    def classify(a: Fraction) -> PrefOrdering:
        mixed = tuple(a * x + (1 - a) * y for x, y in zip(endpoint, other_endpoint))
        if mixed > tuple(target):
            return PrefOrdering.BETTER
        if mixed < tuple(target):
            return PrefOrdering.WORSE
        return PrefOrdering.INDIFFERENT

    return oracle_partition_unit_interval(breakpoints, classify)


# --- property P's threshold shape --------------------------------------------
#
# The shape that PropertyPReport.monotone claims, as a scan of the partition:
# check_property_P sets it by theorem, since a*best + (1-a)*worst increases
# with a in the ring order and every regime's key is nondecreasing in it.


def oracle_threshold_shaped(
    worse: RationalIntervalSet,
    indifferent: RationalIntervalSet,
    better: RationalIntervalSet,
) -> bool:
    """Worse weights below indifferent weights below better weights, each
    region connected."""
    regions = (worse, indifferent, better)
    if any(len(region.intervals) > 1 for region in regions):
        return False
    for low, high in itertools.combinations(regions, 2):
        if low.intervals and high.intervals and low.intervals[-1].hi > high.intervals[0].lo:
            return False
    return True


def oracle_property_P_failure(
    worse: RationalIntervalSet,
    indifferent: RationalIntervalSet,
    better: RationalIntervalSet,
) -> str | None:
    """Property P's failure label read off whole-interval tests: None when
    some weight is indifferent, "all_better" or "all_worse" when one side
    covers (0, 1), and "no_indifference" otherwise."""
    if not indifferent.is_empty:
        return None
    if better.is_entire_unit_interval():
        return "all_better"
    if worse.is_entire_unit_interval():
        return "all_worse"
    return "no_indifference"


# --- brute-force overriding oracle ------------------------------------------


def brute_force_overrides(
    top: NSReal,
    bottom: NSReal,
    pool: list[NSReal],
    denominator: int = 8,
) -> bool:
    """Overriding spelled out as its defining mixture quantifier.

    ``top`` overrides ``bottom`` when ``top`` strictly exceeds ``bottom`` and
    mixing ``top`` with anything at or below ``bottom`` is equivalent to
    mixing it with ``bottom`` itself, at every mixing weight.  The quantifier
    over "anything below" ranges over ``pool`` extended with halves and zero,
    and the weight quantifier over a grid; both are thorough enough because a
    violation at one weight persists at every weight.
    """

    if qcompare(top, bottom) is not QOrdering.GREATER:
        return False
    half = Fraction(1, 2)
    candidates = list(pool) + [value * half for value in pool] + [rational(0)]
    weights = [Fraction(k, denominator) for k in range(1, denominator)]
    for low in candidates:
        if low.sign() < 0:
            continue
        if qcompare(bottom, low) is QOrdering.LESS:
            continue
        for weight in weights:
            mixed_low = top * weight + low * (1 - weight)
            mixed_bottom = top * weight + bottom * (1 - weight)
            if qcompare(mixed_low, mixed_bottom) is not QOrdering.EQUIVALENT:
                return False
    return True


# --- definitional audit checks -----------------------------------------------

BETTER = PrefOrdering.BETTER


def negative_transitivity_scan(matrix) -> tuple[int, int, int] | None:
    """The first triple (i, j, k) in lexicographic order with i not above j
    and j not above k, yet i above k."""
    n = len(matrix)
    for i, j, k in itertools.product(range(n), repeat=3):
        if matrix[i][j] is not BETTER and matrix[j][k] is not BETTER and matrix[i][k] is BETTER:
            return (i, j, k)
    return None


def oracle_close_under_mixtures(
    lotteries, denominator: int = 8, depth: int = 2, *, limit: int | None = None
) -> tuple[Lottery, ...]:
    """The mixture closure as it was built before integer coordinates: every
    round mixes every unordered pair of ``Lottery`` objects through
    :func:`mix` at every grid weight, so each mix runs the checks of
    ``Lottery.from_mapping``.  Same order, refusals and messages as
    :func:`qualutil.close_under_mixtures`."""
    weights = grid_weights(denominator)
    if type(depth) is not int:
        raise InvalidParameter(f"depth must be an int, got {depth!r}")
    if depth < 0:
        raise InvalidParameter(f"depth must be nonnegative, got {depth}")
    current: dict[Lottery, None] = dict.fromkeys(lotteries)
    if not current:
        raise InvalidParameter("need at least one lottery to close")
    if limit is not None and len(current) > limit:
        raise ClosureTooLarge(
            f"the {len(current)} distinct generators alone exceed the limit of {limit} lotteries"
        )
    for round_number in range(1, depth + 1):
        additions: dict[Lottery, None] = {}
        items = tuple(current)
        for i, first in enumerate(items):
            for second in items[i + 1 :]:
                for w in weights:
                    mixed = mix(w, first, second)
                    if mixed not in current:
                        additions[mixed] = None
                        if limit is not None and len(current) + len(additions) > limit:
                            raise ClosureTooLarge(
                                f"the mixture closure exceeds {limit} lotteries in round "
                                f"{round_number} of {depth}"
                            )
        if not additions:
            break
        current.update(additions)
    return tuple(current)


class _Closure:
    """The closure of a structure, its expected utilities and its strict
    preference matrix, recomputed through the public API."""

    def __init__(self, structure: PrefStructure, extra: str) -> None:
        self.structure = structure
        self.lotteries = mixture_closure(structure)
        self.values = [expected_utility(l, structure.utilities) for l in self.lotteries]
        self.better = [
            [compare_values(vi, vj, structure.regime) is BETTER for vj in self.values]
            for vi in self.values
        ]
        self.domain = (
            f"mixture closure of {len(structure.generators)} generators, "
            f"size {len(self.lotteries)}, depth {structure.closure_depth}, "
            f"grid /{structure.grid_denominator}; {extra}"
        )

    def pairs(self):
        n = len(self.lotteries)
        return [(i, j) for i, j in itertools.product(range(n), repeat=2) if self.better[i][j]]

    def chains(self):
        n = len(self.lotteries)
        return [(i, j, k) for i, j in self.pairs() for k in range(n) if self.better[j][k]]

    def solve(self, chain, relation):
        i, j, k = chain
        values = self.values
        parts = oracle_partition_affine_comparison(
            AffineValue(values[i], values[k]),
            AffineValue(values[j], values[j]),
            self.structure.regime.comparison,
        )
        return parts.get(relation, RationalIntervalSet())

    def witness(self, label, chain, weight):
        i, j, k = chain
        return MixtureWitness(
            label, self.lotteries[i], self.lotteries[j], self.lotteries[k], weight
        )

    def existential(self, postulate, chain, missing, relation, empty_set):
        i, j, k = chain
        certificate = Counterexample(
            kind="existential",
            payload=(
                ("p", self.lotteries[i]),
                ("q", self.lotteries[j]),
                ("r", self.lotteries[k]),
                ("postulate", postulate),
                ("missing", missing),
                ("relation", relation.value),
                ("set", empty_set),
            ),
        )
        return Verdict(postulate, False, self.domain, certificate)

    def independence_failure(self, postulate, triple, w):
        """The failing verdict when mixing lotteries i and j of the triple
        (i, j, k) with lottery k at weight w leaves i not above j, else None."""
        i, j, k = triple
        values = self.values
        left = w * values[i] + (1 - w) * values[k]
        right = w * values[j] + (1 - w) * values[k]
        actual = compare_values(left, right, self.structure.regime)
        if actual is BETTER:
            return None
        certificate = Counterexample(
            kind="independence",
            payload=(
                ("p", self.lotteries[i]),
                ("q", self.lotteries[j]),
                ("r", self.lotteries[k]),
                ("lambda", w),
                ("left", left),
                ("right", right),
                ("actual", actual.value),
            ),
        )
        return Verdict(postulate, False, self.domain, certificate)


def oracle_A1(structure: PrefStructure) -> Verdict:
    """Asymmetry over every ordered pair, then negative transitivity over
    every triple, of the comparison matrix of the closure."""
    closure = _Closure(structure, "all pairs and triples")
    matrix = [
        [compare_values(vi, vj, structure.regime) for vj in closure.values]
        for vi in closure.values
    ]
    n = len(matrix)
    for i, j in itertools.product(range(n), repeat=2):
        if matrix[i][j] is not matrix[j][i].flipped():
            certificate = Counterexample(
                kind="asymmetry",
                payload=(
                    ("p", closure.lotteries[i]),
                    ("q", closure.lotteries[j]),
                    ("forward", matrix[i][j].value),
                    ("backward", matrix[j][i].value),
                ),
            )
            return Verdict("A1", False, closure.domain, certificate)
    violation = negative_transitivity_scan(matrix)
    if violation is not None:
        i, j, k = violation
        certificate = Counterexample(
            kind="negative-transitivity",
            payload=(
                ("p", closure.lotteries[i]),
                ("q", closure.lotteries[j]),
                ("r", closure.lotteries[k]),
            ),
        )
        return Verdict("A1", False, closure.domain, certificate)
    return Verdict("A1", True, closure.domain)


def _independence_oracle(postulate, structure, weights, extra) -> Verdict:
    closure = _Closure(structure, extra)
    for i, j in closure.pairs():
        for k in range(len(closure.values)):
            for w in weights:
                failure = closure.independence_failure(postulate, (i, j, k), w)
                if failure is not None:
                    return failure
    return Verdict(postulate, True, closure.domain)


def oracle_A2(structure: PrefStructure) -> Verdict:
    return _independence_oracle(
        "A2",
        structure,
        grid_weights(structure.grid_denominator),
        "all strict pairs x closure x grid weights",
    )


def oracle_is_negligible(weight, assignment, generators, denominator=8, depth=1) -> bool:
    """Negligibility by definition: mixing any lottery of the closed set in
    at ``weight`` leaves every lottery of the set indifferent, under NS_PROB,
    to what it was.  Every ordered pair of the closure's values is mixed."""
    w = weight if isinstance(weight, NSReal) else rational(weight)
    pool = oracle_close_under_mixtures(generators, denominator, depth)
    values = [expected_utility(lottery, assignment) for lottery in pool]
    return all(
        oracle_compare_values(w * value_p + (ONE - w) * value_q, value_q, Regime.NS_PROB)
        is PrefOrdering.INDIFFERENT
        for value_p, value_q in itertools.product(values, repeat=2)
    )


def oracle_B2(structure: PrefStructure) -> Verdict:
    weights = list(grid_weights(structure.grid_denominator))
    weights += [EPS, Fraction(1, 2) * EPS, ONE - EPS]
    relevant = []
    for w in weights:
        negligible = oracle_is_negligible(
            w,
            structure.utilities,
            structure.generators,
            denominator=structure.grid_denominator,
            depth=min(structure.closure_depth, 1),
        )
        if not negligible:
            relevant.append(w)
    return _independence_oracle(
        "B2", structure, relevant, "all strict pairs x closure x (grid + nonstandard) weights"
    )


def oracle_A2prime(structure: PrefStructure) -> Verdict:
    """Every eligible triple on its own: one weight partition per strict pair
    and third lottery that does not override the preferred one."""
    closure = _Closure(structure, "all eligible triples, every weight in (0, 1)")
    values = closure.values
    for i, j in closure.pairs():
        for k in range(len(values)):
            if overrides_values(values[k], values[i]):
                continue
            parts = oracle_partition_affine_comparison(
                AffineValue(values[i], values[k]),
                AffineValue(values[j], values[k]),
                structure.regime.comparison,
            )
            preserving = parts.get(QOrdering.GREATER, RationalIntervalSet())
            if preserving.is_entire_unit_interval():
                continue
            # A preserving set short of (0, 1) must yield a failing weight;
            # the guard holds under python -O, where an assert would not.
            bad = preserving.complement_witness()
            failure = None
            if bad is not None:
                failure = closure.independence_failure("A2p", (i, j, k), bad)
            if failure is None:
                reason = (
                    "no weight in (0, 1) lies outside it"
                    if bad is None
                    else f"the weight {bad} outside it keeps p above q"
                )
                raise ConsistencyError(
                    f"A2p: the preserving set {preserving.render()} of closure triple "
                    f"({i}, {j}, {k}) with values ({values[i]!r}, {values[j]!r}, "
                    f"{values[k]!r}) is not all of (0, 1), yet {reason}"
                )
            return failure
    return Verdict("A2p", True, closure.domain)


def oracle_A3(structure: PrefStructure) -> Verdict:
    closure = _Closure(structure, "all strict chains, exact weight solving")
    witnesses = []
    for chain in closure.chains():
        upper = closure.solve(chain, QOrdering.GREATER)
        if upper.is_empty:
            return closure.existential("A3", chain, "alpha", QOrdering.GREATER, upper)
        lower = closure.solve(chain, QOrdering.LESS)
        if lower.is_empty:
            return closure.existential("A3", chain, "beta", QOrdering.LESS, lower)
        witnesses.append(closure.witness("alpha", chain, upper.witness()))
        witnesses.append(closure.witness("beta", chain, lower.witness()))
    return Verdict("A3", True, closure.domain, witnesses=tuple(witnesses))


def oracle_A3prime(structure: PrefStructure) -> Verdict:
    closure = _Closure(structure, "all strict chains, exact weight solving")
    witnesses = []
    for chain in closure.chains():
        upper = closure.solve(chain, QOrdering.GREATER)
        if upper.is_empty:
            return closure.existential("A3p", chain, "alpha", QOrdering.GREATER, upper)
        witnesses.append(closure.witness("alpha", chain, upper.witness()))
    return Verdict("A3p", True, closure.domain, witnesses=tuple(witnesses))


def oracle_A3doubleprime(structure: PrefStructure) -> Verdict:
    closure = _Closure(
        structure, "strict chains with non-overriding top, exact weight solving"
    )
    witnesses = []
    for chain in closure.chains():
        i, j, _ = chain
        if overrides_values(closure.values[i], closure.values[j]):
            continue
        lower = closure.solve(chain, QOrdering.LESS)
        if lower.is_empty:
            return closure.existential("A3pp", chain, "beta", QOrdering.LESS, lower)
        witnesses.append(closure.witness("beta", chain, lower.witness()))
    return Verdict("A3pp", True, closure.domain, witnesses=tuple(witnesses))


def oracle_gamma(structure: PrefStructure) -> Verdict:
    closure = _Closure(structure, "strict chains with nonempty lower set")
    witnesses = []
    for chain in closure.chains():
        if closure.solve(chain, QOrdering.LESS).is_empty:
            continue
        level = closure.solve(chain, QOrdering.EQUIVALENT)
        if level.is_empty:
            return closure.existential("gamma", chain, "gamma", QOrdering.EQUIVALENT, level)
        witnesses.append(closure.witness("gamma", chain, level.witness()))
    return Verdict("gamma", True, closure.domain, witnesses=tuple(witnesses))


def oracle_A4(structure: PrefStructure) -> Verdict:
    """Every act patched at every state with every act's arm there, both
    acts' utilities recomputed for each patch through ``act_prefers``."""
    model, acts = structure.model, structure.acts
    domain = (
        f"all ordered act pairs ({len(acts)}) patched to agree off each of "
        f"{len(model.states)} states"
    )
    for base in acts:
        for other in acts:
            for state in model.states:
                patched = base.replacing(state, other.arm(state))
                if act_prefers(base, patched, model) is not BETTER:
                    continue
                arm_comparison = compare_values(
                    expected_utility(base.arm(state), model.utilities),
                    expected_utility(patched.arm(state), model.utilities),
                    model.regime,
                )
                if arm_comparison is not BETTER:
                    certificate = Counterexample(
                        kind="act-independence",
                        payload=(
                            ("a", base),
                            ("b", patched),
                            ("state", state),
                            ("arm_comparison", arm_comparison.value),
                        ),
                    )
                    return Verdict("A4", False, domain, certificate)
    return Verdict("A4", True, domain)


def oracle_A5prime(structure: PrefStructure) -> Verdict:
    """Every (state, act) on its own, each act's utility recomputed, and
    nullity decided by the definitional ``null_state_sweep``."""
    model, acts = structure.model, structure.acts
    domain = f"{len(acts)} generator acts x {len(model.states)} states"
    for state in model.states:
        for act in acts:
            arm_value = expected_utility(act.arm(state), model.utilities)
            whole_value = act_utility(act, model)
            if overrides_values(arm_value, whole_value) and not null_state_sweep(
                state, model, acts
            ):
                certificate = Counterexample(
                    kind="null-state",
                    payload=(
                        ("a", act),
                        ("state", state),
                        ("arm_value", arm_value),
                        ("act_value", whole_value),
                    ),
                )
                return Verdict("A5p", False, domain, certificate)
    return Verdict("A5p", True, domain)


# Postulate name -> its definitional check.
AUDIT_ORACLES = {
    "A1": oracle_A1,
    "A2": oracle_A2,
    "B2": oracle_B2,
    "A2p": oracle_A2prime,
    "A3": oracle_A3,
    "A3p": oracle_A3prime,
    "A3pp": oracle_A3doubleprime,
    "gamma": oracle_gamma,
}


def oracle_rank(values, regime: Regime):
    """Each value's class in the regime's weak order, 0 the lowest, and each
    class's indices: the distinct keys of the ``NSReal`` values by
    ``regime.key``, sorted once and numbered.  The ranking the audit took
    before it keyed the closure's integer vectors."""
    keys = [regime.key(value) for value in values]
    ranks = {key: r for r, key in enumerate(sorted(set(keys)))}
    rank = tuple(ranks[key] for key in keys)
    classes = [[] for _ in ranks]
    for index, r in enumerate(rank):
        classes[r].append(index)
    return rank, tuple(tuple(members) for members in classes)


def oracle_context(structure: PrefStructure):
    """The audit context as it was built before integer keys: the closure's
    lotteries from :func:`mixture_closure` (no size limit), each one's
    ``expected_utility``, leading exponents and signs read off those
    ``NSReal`` values, and :func:`oracle_rank`.  Under NS_PROB an infinite
    value raises :class:`InfiniteValue` in the ranking.  The closure shares
    the audit's kernel; :func:`oracle_close_under_mixtures` checks that
    kernel by mixing ``Lottery`` objects."""
    from qualutil.auditor import _Context

    lotteries = mixture_closure(structure)
    values = tuple(expected_utility(lottery, structure.utilities) for lottery in lotteries)
    leads = tuple(
        float("inf") if value.is_zero() else value.leading_exponent() for value in values
    )
    signs = {value.sign() for value in values} if structure.regime is Regime.NS_UTIL else set()
    rank, classes = oracle_rank(values, structure.regime)
    heads = [leads[members[0]] for members in classes]
    runs = [list(run) for _, run in itertools.groupby(range(len(heads)), heads.__getitem__)]
    return _Context(
        structure.regime,
        lotteries,
        values,
        leads,
        mixed_signs={1, -1} <= signs,
        negative=-1 in signs,
        rank=rank,
        classes=classes,
        start=tuple(run[0] for run in runs for _ in run),
        end=tuple(run[-1] + 1 for run in runs for _ in run),
    )


_ALL_RELATIONS = frozenset(QOrdering)


def relation_rule(context):
    """The relations present in the weight partition of a*p + (1-a)*r
    against q on a strict chain p > q > r, read off leading exponents; None
    when NS_UTIL values mix signs, where only the partition decides.  The
    rule reads r only through whether r and q share a leading exponent.

    STD and NS_PROB: the threshold ``(v_q - v_r)/(v_p - v_r)`` of the
    values, or of their standard parts, lies inside (0, 1), so all three
    relations occur.  NS_UTIL with every value >= 0: a*p + (1-a)*r leads at
    p's order of magnitude, so it crosses q iff p and q share one, and lies
    above q throughout otherwise.  With every value <= 0 it leads at r's,
    so it crosses q iff q and r share one, and lies below q otherwise."""
    if context.regime is not Regime.NS_UTIL:
        return lambda i, j, k: _ALL_RELATIONS
    if context.mixed_signs:
        return None
    leads = context.leads
    greater, less = frozenset((QOrdering.GREATER,)), frozenset((QOrdering.LESS,))
    if any(value.sign() < 0 for value in context.values):
        return lambda i, j, k: _ALL_RELATIONS if leads[j] == leads[k] else less
    return lambda i, j, k: _ALL_RELATIONS if leads[i] == leads[j] else greater


def strict_pairs(context):
    """Every (i, j) with i above j, in lexicographic order.  Unless NS_UTIL
    values mix signs, the rule reads a lottery only through its class, so
    only each class's first member is visited: the first failure among them
    is the first among all lotteries."""
    rank, classes = context.rank, context.classes
    units = range(context.size) if context.mixed_signs else sorted(c[0] for c in classes)
    return ((i, j) for i in units for j in units if rank[i] > rank[j])


def oracle_solvability(postulates, structure: PrefStructure, context=None) -> tuple:
    """The solvability pass as it walked pairs of classes: the oracle of the
    counts ``auditor._solvability`` takes from class sizes and of the first
    chain it finds by rank ranges.  It reads every chain's relations off
    :func:`relation_rule` and the auditor's exemption table
    (``_SOLVABILITY``), so it checks how the pass counts, finds the first
    failure and picks witnesses, not the rule; the chain-by-chain oracles
    above, and the test of the rule against the weight partition, check
    the rule.

    Per class q it tabulates the first r below of each kind (sharing q's
    leading exponent or not) and how many there are; the pass walks each
    pair of classes (:func:`strict_pairs`) with each kind, as one chain of
    its first members weighted by the product of the class and kind sizes,
    and names the first failure there.  A holding postulate then walks its
    unexempted chains in scan order from its first p until its witnesses
    are kept.  Where NS_UTIL values mix signs every chain is partitioned."""
    from qualutil.auditor import (
        _SOLVABILITY,
        _WITNESS_DISPLAY_CAP,
        _build_context,
        _domain,
        _mixture_partition,
    )

    context = context or _build_context(structure)
    values, lotteries, leads, rank = context.values, context.lotteries, context.leads, context.rank
    n, rule = context.size, relation_rule(context)
    domains = {name: _domain(structure, context, _SOLVABILITY[name][0]) for name in postulates}
    failed = {}
    live = {postulate: [] for postulate in postulates}
    counts = dict.fromkeys(postulates, 0)
    starts = {}

    def partition(i, j, k):
        return _mixture_partition(values[i], values[k], values[j], context.regime)

    def keep(postulate, i, j, k, parts):
        witnesses = live[postulate]
        for label, relation in _SOLVABILITY[postulate][2][: _WITNESS_DISPLAY_CAP - len(witnesses)]:
            weight = parts[relation].witness()
            witnesses.append(MixtureWitness(label, *(lotteries[x] for x in (i, j, k)), weight))

    if rule is None:
        chains = (
            (i, j, k, 1) for i, j in strict_pairs(context) for k in range(n) if rank[k] < rank[j]
        )
    else:
        kinds = []
        for middle, members in enumerate(context.classes):
            firsts = {}
            for lower in context.classes[:middle]:
                kind = firsts.setdefault(leads[lower[0]] == leads[members[0]], [lower[0], 0])
                kind[:] = min(kind[0], lower[0]), kind[1] + len(lower)
            kinds.append(sorted(firsts.values()))
        sizes = [len(members) for members in context.classes]
        chains = (
            (i, j, k, sizes[rank[i]] * sizes[rank[j]] * size)
            for i, j in strict_pairs(context)
            for k, size in kinds[rank[j]]
        )
    for i, j, k, size in chains:
        if not live:
            break
        parts = partition(i, j, k) if rule is None else rule(i, j, k)
        for postulate in list(live):
            _, exempt, needed = _SOLVABILITY[postulate]
            if exempt is not None and exempt(leads[i], leads[j], parts):
                continue
            missing = [(label, relation) for label, relation in needed if relation not in parts]
            if not missing:
                counts[postulate] += size * len(needed)
                starts.setdefault(postulate, i)
                if rule is None:
                    keep(postulate, i, j, k, parts)
                continue
            label, relation = missing[0]
            failed[postulate] = Counterexample(
                kind="existential",
                payload=(
                    ("p", lotteries[i]),
                    ("q", lotteries[j]),
                    ("r", lotteries[k]),
                    ("postulate", postulate),
                    ("missing", label),
                    ("relation", relation.value),
                    ("set", RationalIntervalSet()),
                ),
            )
            del live[postulate]
    if rule is not None:
        solved = {}

        def kept(exempt, i, j, k):
            return exempt is None or not exempt(leads[i], leads[j], rule(i, j, k))

        for postulate, witnesses in live.items():
            exempt = _SOLVABILITY[postulate][1]
            walk = (
                (i, j, k)
                for i in range(starts.get(postulate, n), n)
                for j in range(n)
                if rank[j] < rank[i] and any(kept(exempt, i, j, r) for r, _ in kinds[rank[j]])
                for k in range(n)
                if rank[k] < rank[j] and kept(exempt, i, j, k)
            )
            for chain in walk:
                if chain not in solved:
                    solved[chain] = partition(*chain)
                keep(postulate, *chain, solved[chain])
                if len(witnesses) == min(_WITNESS_DISPLAY_CAP, counts[postulate]):
                    break
    return tuple(
        Verdict(
            name,
            name in live,
            domains[name],
            failed.get(name),
            tuple(live.get(name, ())),
            counts[name] if name in live else 0,
        )
        for name in postulates
    )


# --- definitional maximin sweep ------------------------------------------------


def oracle_maximin_sweep(spec: MaximinSpec, denominator: int) -> tuple[int, int]:
    """``maximin_sweep`` as the plain loop: both lotteries and both expected
    utilities are rebuilt for every comparison, and every comparison goes
    through the validating ``maximin_compare_oracle``.  The assignment is
    read through ``qualutil.criteria`` so that a test patching it there
    reaches this loop and the library sweep alike."""
    assignment = qualutil.criteria.maximin_utilities(spec)
    weights = grid_weights(denominator)
    pairs = [(low, high) for low in range(spec.n) for high in range(low + 1, spec.n)]
    comparisons = disagreements = 0
    for low, high in pairs:
        for w in weights:
            left = two_point_lottery(spec, low, w, high)
            for low2, high2 in pairs:
                for w2 in weights:
                    right = two_point_lottery(spec, low2, w2, high2)
                    got = prefers(left, right, assignment, Regime.NS_UTIL)
                    expected = maximin_compare_oracle(spec, low, w, high, low2, w2, high2)
                    comparisons += 1
                    if got is not expected:
                        disagreements += 1
    return comparisons, disagreements


def oracle_bet_values(spec: MaximinSpec, assignment: UtilityAssignment, weights):
    """``(low, high, w, value)`` for every two-point bet on ``weights``, by
    ``low``, then ``high``, then ``w``: ``value`` is the two-term sum
    ``w*u(x_low) + (1-w)*u(x_high)`` that ``expected_utility`` takes of
    ``two_point_lottery(spec, low, w, high)``, each term a full ``NSReal``
    product formed once per outcome and weight.  The sweep keys each bet
    from the leading terms alone; this is the valuation that key stands
    for."""
    utilities = [assignment.utility(outcome) for outcome in spec.outcome_ids]
    low_terms = [[w * u for w in weights] for u in utilities]
    high_terms = [[(1 - w) * u for w in weights] for u in utilities]
    for low in range(spec.n):
        for high in range(low + 1, spec.n):
            for w, low_term, high_term in zip(weights, low_terms[low], high_terms[high]):
                yield low, high, w, low_term + high_term


def oracle_worst_case_rule(low: int, w: Fraction, other_low: int, other_w: Fraction) -> PrefOrdering:
    """The worst-case rule stated case by case: the worse worst outcome
    loses, between equal ones the higher chance of it loses, and otherwise
    the bets are indifferent."""
    if low < other_low:
        return PrefOrdering.WORSE
    if low > other_low:
        return PrefOrdering.BETTER
    if w > other_w:
        return PrefOrdering.WORSE
    if w < other_w:
        return PrefOrdering.BETTER
    return PrefOrdering.INDIFFERENT


def oracle_group_disagreements(groups: Mapping[tuple[object, int, Fraction], int]) -> int:
    """The disagreements among groups of bets counted pair by pair of groups:
    ``groups`` maps ``(key, low, w)`` to how many bets share it, the value
    verdict on two groups is the order of their keys and the rule's is
    :func:`oracle_worst_case_rule`, and a disagreement between groups of
    ``m`` and ``m'`` bets counts ``m * m'`` times, both ways round."""
    verdicts = (PrefOrdering.INDIFFERENT, PrefOrdering.BETTER, PrefOrdering.WORSE)
    disagreements = 0
    for (k, low, w), m in groups.items():
        for (k2, low2, w2), m2 in groups.items():
            if verdicts[(k > k2) - (k < k2)] is not oracle_worst_case_rule(low, w, low2, w2):
                disagreements += m * m2
    return disagreements


def positive_ladder_utilities(spec: MaximinSpec) -> UtilityAssignment:
    """The contrast ``u(x_i) = eps**-(n-1-i)``: positive infinite ladders,
    the worst outcome the largest.  A bet's qualitative key is then its
    worst outcome's term alone, so it ignores ``high`` as the maximin key
    does, while the order runs the other way: many bets share each key and
    the sweep disagrees with the rule."""
    return UtilityAssignment.from_mapping(
        {spec.outcome(i): eps(-(spec.n - 1 - i)) for i in range(spec.n)}
    )


# --- model document reading --------------------------------------------------
#
# The literal grammar as a token list and a recursive-descent parser, and a
# document's sections as configparser reads them with the options of the
# model format.

_ORACLE_TOKEN_RE = re.compile(r"(?P<INT>\d+)|(?P<EPS>eps)|(?P<OP>[+\-*/^])")


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    position: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    index = 0
    length = len(text)
    while index < length:
        if text[index].isspace():
            index += 1
            continue
        match = _ORACLE_TOKEN_RE.match(text, index)
        if match is None:
            raise ParseError(f"unexpected character {text[index]!r}", index)
        kind = match.lastgroup
        assert kind is not None
        tokens.append(_Token(kind, match.group(), index))
        index = match.end()
    return tokens


class _LiteralParser:
    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0

    def peek(self) -> _Token | None:
        if self.index < len(self.tokens):
            return self.tokens[self.index]
        return None

    def take(self) -> _Token:
        token = self.peek()
        if token is None:
            raise ParseError("unexpected end of literal", len(self.text))
        self.index += 1
        return token

    def at_op(self, *symbols: str) -> bool:
        token = self.peek()
        return token is not None and token.kind == "OP" and token.text in symbols

    def parse(self) -> NSReal:
        if self.peek() is None:
            raise ParseError("empty literal", 0)
        terms: list[tuple[int, Fraction]] = []
        sign = 1
        if self.at_op("+", "-"):
            sign = -1 if self.take().text == "-" else 1
        while True:
            exponent, magnitude = self.parse_term()
            terms.append((exponent, sign * magnitude))
            if not self.at_op("+", "-"):
                break
            sign = -1 if self.take().text == "-" else 1
        trailing = self.peek()
        if trailing is not None:
            raise ParseError(f"unexpected {trailing.text!r}", trailing.position)
        return NSReal.from_terms(terms)

    def parse_term(self) -> tuple[int, Fraction]:
        token = self.peek()
        if token is None:
            raise ParseError("expected a term", len(self.text))
        if token.kind == "EPS":
            self.take()
            return self.parse_exponent(), Fraction(1)
        if token.kind != "INT":
            raise ParseError(f"expected a number or eps, found {token.text!r}", token.position)
        self.take()
        numerator = int(token.text)
        if self.at_op("/"):
            self.take()
            denom_token = self.peek()
            if denom_token is None or denom_token.kind != "INT":
                position = denom_token.position if denom_token else len(self.text)
                raise ParseError("expected a denominator", position)
            self.take()
            denominator = int(denom_token.text)
            if denominator == 0:
                raise ZeroDenominator("denominator is zero", denom_token.position)
            magnitude = Fraction(numerator, denominator)
        else:
            magnitude = Fraction(numerator)
        if self.at_op("*"):
            star = self.take()
            eps_token = self.peek()
            if eps_token is None or eps_token.kind != "EPS":
                raise ParseError("expected eps after '*'", star.position + 1)
            self.take()
            return self.parse_exponent(), magnitude
        return 0, magnitude

    def parse_exponent(self) -> int:
        if not self.at_op("^"):
            return 1
        caret = self.take()
        sign = 1
        if self.at_op("+", "-"):
            sign = -1 if self.take().text == "-" else 1
        token = self.peek()
        if token is None or token.kind != "INT":
            position = token.position if token else len(self.text)
            raise ParseError("expected an integer exponent", position)
        self.take()
        return sign * int(token.text)


def oracle_parse_nsreal(text: str) -> NSReal:
    """The literal grammar by recursive descent over token objects, one
    method per rule, summing the terms through ``NSReal.from_terms``."""
    return _LiteralParser(text).parse()


def oracle_read_sections(text: str) -> dict[str, dict[str, str | None]]:
    """Each section of a model document, as ``configparser`` reads it with
    the model format's options: ``=`` only, ``#`` whole-line comments,
    case-sensitive keys, bare keys, strict, no interpolation."""
    parser = configparser.ConfigParser(
        delimiters=("=",),
        comment_prefixes=("#",),
        inline_comment_prefixes=None,
        allow_no_value=True,
        strict=True,
        interpolation=None,
    )
    parser.optionxform = str  # type: ignore[method-assign]
    parser.read_string(text)
    return {name: dict(parser[name]) for name in parser.sections()}


# Documents on which the section reader must read what configparser reads:
# headers matched anywhere they close ([a]x, [a]b]), [DEFAULT] inherited and
# repeatable, bare and empty keys, continuation lines with blank lines and
# comments inside, characters that are whitespace to str.strip but end no
# line (\r, \x0c, \u2028) or are no whitespace at all (\ufeff), and each
# error configparser raises.
READER_QUIRKS = (
    "",
    "# only a comment\n\n",
    "[a]\nk = 1",
    "[a]x\nk = 1\n",
    "[a]b]\nk = 1\n",
    "[lottery a ]\nk=1\n[ lottery b]\n",
    "[a]\n[]\n[]]\n",
    "[A]\nKey = 1\nkey = 2\n[a]\n",
    "[DEFAULT]\nk = 1\n[a]\nj = 2\n[b]\n",
    "[a]\nk = 2\nj\n[DEFAULT]\nk = 1\nm = 3\n",
    "[DEFAULT]\na = 1\n[DEFAULT]\nb\n[s]\nc = 3\n",
    "[a]\nk\nj =\nm = = 2\n  n   =   v  \n",
    "# c\n\n[a]\n  # indented comment\nk = 1\n\n# c\n",
    "[a]\nk = 1\n  + eps\n\n  - eps\n\n\nj = 2\n",
    "[a]\nk =\n  1\n\tmore\n",
    "[a]\nk = 1\n# c\n  2\n   # indented comment\n",
    "  [a]\n  k = 1\n  j = 2\n    m\n",
    "[a]\n  k = 1\nj = 2\n   m = 3\n",
    "[a]\r\nk = 1\r\n\r\n",
    "[a]\nk = 1\x0c\n\x0cj = 2\n",
    "[a]\nk = 1\u2028j = 2\n",
    "[a]\n\ufeffk = 1\n",
    "\ufeff[a]\nk = 1\n",
    "k = 1\n[a]\n",
    "  \n  k\n",
    "[a]\n[a]\n",
    "[a]\nk = 1\n[b]\n[a]\n",
    "[a]\nk = 1\nk = 2\n",
    "[DEFAULT]\na = 1\n[DEFAULT]\na = 2\n",
    "[a]\n= 1\nk = 2\n[b]\n =2\n",
    "[a]\n= 1\n  more\n= 2\n",
)


# --- random model generators -------------------------------------------------


STANDARD_POOL = [
    Fraction(0),
    Fraction(1),
    Fraction(1, 2),
    Fraction(1, 3),
    Fraction(2, 3),
    Fraction(1, 4),
    Fraction(3, 4),
    Fraction(2),
    Fraction(5, 2),
]


def _standard_utility_pool(rng: random.Random) -> list[NSReal]:
    return [rational(value) for value in rng.sample(STANDARD_POOL, 4)]


def _nonstandard_utility_pool(rng: random.Random) -> list[NSReal]:
    candidates = [
        rational(0),
        rational(1),
        rational(Fraction(1, 2)),
        rational(2),
        eps(),
        eps() * Fraction(1, 3),
        eps(2),
        rational(1) + eps(),
        rational(Fraction(1, 2)) - eps(),
        eps(-1),
    ]
    return rng.sample(candidates, 4)


def _signed_utility_pool(rng: random.Random, signs: str) -> list[NSReal]:
    """Negated nonstandard utilities: all four for "nonpositive", two drawn
    at random for "mixed"."""
    pool = _nonstandard_utility_pool(rng)
    if signs == "nonpositive":
        negated = range(len(pool))
    elif signs == "mixed":
        negated = rng.sample(range(len(pool)), 2)
    else:
        raise ValueError(f"unknown sign kind {signs!r}")
    return [-value if index in negated else value for index, value in enumerate(pool)]


def _random_simplex(rng: random.Random, size: int, denominator: int) -> list[Fraction]:
    cuts = sorted(rng.randrange(denominator + 1) for _ in range(size - 1))
    weights = []
    previous = 0
    for cut in cuts:
        weights.append(Fraction(cut - previous, denominator))
        previous = cut
    weights.append(Fraction(denominator - previous, denominator))
    return weights


def random_lottery(rng: random.Random, outcomes: list[str]) -> Lottery:
    while True:
        chosen = rng.sample(outcomes, rng.randint(1, min(3, len(outcomes))))
        weights = _random_simplex(rng, len(chosen), 6)
        mapping = {
            outcome: rational(weight)
            for outcome, weight in zip(chosen, weights)
            if weight
        }
        if mapping:
            return Lottery.from_mapping(mapping)


def random_nonstandard_lottery(rng: random.Random, outcomes: list[str]) -> Lottery:
    lottery = random_lottery(rng, outcomes)
    items = dict(lottery.probs)
    if len(items) >= 2 and rng.random() < 0.7:
        tilt = eps() * Fraction(1, rng.randint(1, 4))
        first, second = sorted(items)[:2]
        items[first] = items[first] + tilt
        items[second] = items[second] - tilt
        if all(value.sign() > 0 for value in items.values()):
            return Lottery.from_mapping(items)
    return lottery


def random_tilted_lottery(rng: random.Random, outcomes: list[str]) -> Lottery:
    """A random lottery whose probabilities carry up to three powers of
    ``eps``: each of ``eps``, ``eps**2`` and ``eps**3`` moves, with
    probability 0.7, an infinitesimal share from one outcome to another.
    Every probability keeps its positive standard part."""
    items = dict(random_lottery(rng, outcomes).probs)
    for power in (1, 2, 3):
        if len(items) >= 2 and rng.random() < 0.7:
            giver, taker = rng.sample(sorted(items), 2)
            tilt = eps(power) * Fraction(rng.choice((1, -1)), rng.randint(1, 4))
            items[giver] = items[giver] - tilt
            items[taker] = items[taker] + tilt
    return Lottery.from_mapping(items)


def three_outcome_structure() -> PrefStructure:
    """The three-outcome example: STD utilities 1, 1/2 and 0 and the three
    sure lotteries, at the default grid 8 and closure depth 2."""
    utilities = UtilityAssignment.from_mapping(
        {"best": rational(1), "middle": rational(Fraction(1, 2)), "worst": rational(0)}
    )
    return PrefStructure(
        Regime.STD, utilities, tuple(Lottery.degenerate(o) for o in ("best", "middle", "worst"))
    )


def one_magnitude_structure(closure_depth: int = 2, grid_denominator: int = 8) -> PrefStructure:
    """NS_UTIL utilities 1, 2/3, 1/7 and 0 and their four sure lotteries.
    Every nonzero value leads at one order of magnitude, so A2 holds, yet
    the qualitative order, which reads leading coefficients, tells many
    classes apart: 4,253 lotteries in 1,066 classes at depth 2, grid 8."""
    values = {"one": 1, "two-thirds": Fraction(2, 3), "seventh": Fraction(1, 7), "zero": 0}
    utilities = UtilityAssignment.from_mapping({o: rational(v) for o, v in values.items()})
    generators = tuple(Lottery.degenerate(outcome) for outcome in values)
    return PrefStructure(Regime.NS_UTIL, utilities, generators, grid_denominator, closure_depth)


def signed_A4_structure() -> PrefStructure:
    """An NS_UTIL structure on which A4 fails: act a pays eps/2 and act b
    nothing, yet their arms at state s, worth 1 and 1 - eps, are
    indifferent in the qualitative order."""
    utilities = UtilityAssignment.from_mapping(
        {"one": rational(1), "nearly": ONE - EPS, "debt": EPS - ONE}, signed=True
    )
    sure = {name: Lottery.degenerate(name) for name in ("one", "nearly", "debt")}
    half = rational(Fraction(1, 2))
    model = AAModel.from_mappings(["s", "t"], {"s": half, "t": half}, utilities, Regime.NS_UTIL)
    acts = (
        Act.from_mapping({"s": sure["one"], "t": sure["debt"]}),
        Act.from_mapping({"s": sure["nearly"], "t": sure["debt"]}),
    )
    return PrefStructure(
        Regime.NS_UTIL, utilities, tuple(sure.values()), closure_depth=0, model=model, acts=acts
    )


def random_structure(
    rng: random.Random,
    regime: Regime,
    generator_count: int = 3,
    grid_denominator: int = 4,
    closure_depth: int = 1,
    signs: str | None = None,
) -> PrefStructure:
    """A small random preference structure suitable for exhaustive audits.

    ``signs`` opts an NS_UTIL structure into signed utilities: "mixed"
    negates two of the four, "nonpositive" all of them.  Left at None, it
    draws nothing more from ``rng``."""

    outcomes = ["a", "b", "c", "d"]
    if signs is not None:
        if regime is not Regime.NS_UTIL:
            raise ValueError("signed random utilities are drawn for NS_UTIL only")
        pool = _signed_utility_pool(rng, signs)
    elif regime is Regime.NS_UTIL:
        pool = _nonstandard_utility_pool(rng)
    else:
        pool = _standard_utility_pool(rng)
    utilities = UtilityAssignment.from_mapping(
        {outcome: value for outcome, value in zip(outcomes, pool)}, signed=signs is not None
    )
    builder = (
        random_nonstandard_lottery if regime is Regime.NS_PROB else random_lottery
    )
    generators = tuple(builder(rng, outcomes) for _ in range(generator_count))
    return PrefStructure(
        regime=regime,
        utilities=utilities,
        generators=generators,
        grid_denominator=grid_denominator,
        closure_depth=closure_depth,
    )


def random_acts_structure(
    rng: random.Random,
    regime: Regime = Regime.STD,
    state_count: int = 3,
    act_count: int = 3,
) -> PrefStructure:
    """A random structure carrying a belief over states and a pool of acts."""

    base = random_structure(rng, regime, generator_count=2, closure_depth=0)
    outcomes = list(base.utilities.outcomes)
    states = [f"s{i}" for i in range(state_count)]
    weights = _random_simplex(rng, state_count, 6)
    if weights[0] == 1:
        weights = [Fraction(1, 2), Fraction(1, 2)] + [Fraction(0)] * (state_count - 2)
    belief = {state: rational(weight) for state, weight in zip(states, weights)}
    model = AAModel.from_mappings(states, belief, base.utilities, regime)
    acts = []
    arm_lotteries = []
    for _ in range(act_count):
        arms = {}
        for state in states:
            if rng.random() < 0.5:
                arms[state] = rng.choice(base.generators)
            else:
                arms[state] = random_lottery(rng, outcomes)
            arm_lotteries.append(arms[state])
        acts.append(Act.from_mapping(arms))
    return PrefStructure(
        regime=base.regime,
        utilities=base.utilities,
        generators=base.generators + tuple(arm_lotteries),
        grid_denominator=base.grid_denominator,
        closure_depth=0,
        model=model,
        acts=tuple(acts),
    )


def random_signed_acts_structure(
    rng: random.Random, state_count: int = 3, act_count: int = 3
) -> PrefStructure:
    """A random NS_UTIL structure whose acts' utilities can cancel.

    The signed variant of :func:`random_acts_structure`: outcome utilities
    ``x``, ``-x``, ``x`` plus an infinitesimal, and one more drawn value
    negated; a uniform belief; and acts paying a sure outcome at each state.
    An act paying ``x`` and ``-x`` at two states is worth 0, so patching one
    arm with an arm of ``x``'s order of magnitude can move the act strictly
    while the two arms stay indifferent, and A4 fails."""

    x = rng.choice([rational(1), rational(Fraction(1, 2)), rational(2)])
    tail = rng.choice([eps(), eps() * Fraction(1, 3), eps(2), -eps()])
    other = rng.choice(_nonstandard_utility_pool(rng))
    utilities = UtilityAssignment.from_mapping(
        {"a": x, "b": -x, "c": x + tail, "d": -other}, signed=True
    )
    states = [f"s{i}" for i in range(state_count)]
    belief = {state: rational(Fraction(1, state_count)) for state in states}
    model = AAModel.from_mappings(states, belief, utilities, Regime.NS_UTIL)
    acts = [
        Act.from_mapping({state: Lottery.degenerate(rng.choice("abcd")) for state in states})
        for _ in range(act_count)
    ]
    arms = tuple(act.arm(state) for act in acts for state in states)
    return PrefStructure(
        Regime.NS_UTIL, utilities, arms, closure_depth=0, model=model, acts=tuple(acts)
    )


def random_tilted_acts_structure(
    rng: random.Random,
    regime: Regime,
    signed: bool = False,
    state_count: int = 3,
    act_count: int = 3,
) -> PrefStructure:
    """A random structure whose belief weighs states infinitesimally.

    Every state but the first gets 0, ``eps``, ``eps/3``, ``eps**2``, 1/4 or
    ``1/4 + eps``, and the first the rest, so some states carry an
    infinitesimal belief and some a standard one.  The model is built with
    ``validate=False``, which lets STD and NS_UTIL take such a belief.  With
    ``signed``, two of the four utilities are negated.  Each arm is a random
    lottery (with infinitesimal probabilities under NS_PROB) or a sure
    outcome, so arms of one value recur and patching an arm can cancel."""
    if regime is Regime.NS_UTIL:
        pool = _signed_utility_pool(rng, "mixed") if signed else _nonstandard_utility_pool(rng)
    else:
        pool = _standard_utility_pool(rng)
        if signed:
            negated = rng.sample(range(len(pool)), 2)
            pool = [-value if index in negated else value for index, value in enumerate(pool)]
    outcomes = ["a", "b", "c", "d"]
    utilities = UtilityAssignment.from_mapping(dict(zip(outcomes, pool)), signed=signed)
    states = [f"s{i}" for i in range(state_count)]
    choices = [rational(0), eps(), eps() * Fraction(1, 3), eps(2), rational(Fraction(1, 4))]
    choices.append(choices[-1] + eps())
    belief = {state: rng.choice(choices) for state in states[1:]}
    belief[states[0]] = ONE - sum(belief.values(), rational(0))
    model = AAModel.from_mappings(states, belief, utilities, regime, validate=False)
    builder = random_nonstandard_lottery if regime is Regime.NS_PROB else random_lottery
    acts = tuple(
        Act.from_mapping(
            {
                state: builder(rng, outcomes)
                if rng.random() < 0.5
                else Lottery.degenerate(rng.choice(outcomes))
                for state in states
            }
        )
        for _ in range(act_count)
    )
    arms = tuple(act.arm(state) for act in acts for state in states)
    return PrefStructure(regime, utilities, arms, closure_depth=0, model=model, acts=acts)
