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

import itertools
import random
from fractions import Fraction

import qualutil.criteria
from qualutil import (
    EPS,
    ONE,
    AAModel,
    Act,
    AffineValue,
    ConsistencyError,
    Counterexample,
    Lottery,
    MaximinSpec,
    MixtureWitness,
    NSReal,
    PrefOrdering,
    PrefStructure,
    QOrdering,
    RationalInterval,
    RationalIntervalSet,
    Regime,
    UtilityAssignment,
    Verdict,
    act_prefers,
    act_utility,
    compare_values,
    eps,
    expected_utility,
    grid_weights,
    is_negligible,
    is_null,
    maximin_compare_oracle,
    mixture_closure,
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


def oracle_B2(structure: PrefStructure) -> Verdict:
    weights = list(grid_weights(structure.grid_denominator))
    weights += [EPS, Fraction(1, 2) * EPS, ONE - EPS]
    relevant = []
    for w in weights:
        negligible = is_negligible(
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
    nullity decided by the public ``is_null``: the analytic rule, guarded by
    the definitional sweep."""
    model, acts = structure.model, structure.acts
    domain = f"{len(acts)} generator acts x {len(model.states)} states"
    for state in model.states:
        for act in acts:
            arm_value = expected_utility(act.arm(state), model.utilities)
            whole_value = act_utility(act, model)
            if overrides_values(arm_value, whole_value) and not is_null(state, model, acts):
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
