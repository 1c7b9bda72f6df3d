"""Finite audits of the preference postulates, with replayable certificates.

A :class:`PrefStructure` bundles a regime, a utility assignment, generator
lotteries, and optionally an act-level model.  Universal statements are
discharged over the mixture closure of the generators (grid weights
``k/denominator``, ``depth`` closing rounds); existential statements are
decided exactly by partitioning the weight interval, so a "holds" verdict is
exact over its stated domain and a "fails" verdict carries a concrete
counterexample that :func:`replay` re-checks through the public preference
operations alone.

The checks:

* A1: preference is asymmetric and negatively transitive on the closure,
  as it is of the ranking that every audit builds (:func:`check_A1`).
* A2: independence, mixing a strict preference with any third lottery at any
  grid weight preserves it.  Expected to fail when stakes override.
* A3: solvability, a strict chain admits mixtures strictly inside the gap on
  both sides.
* B2: independence restricted to non-negligible weights (nonstandard
  probabilities).
* A2p, A3p, A3pp: the weakened independence and solvability forms that
  remain sound when stakes override, stated with the overriding relation.
* gamma: whenever some mixture of the endpoints falls strictly below the
  middle of a chain, some mixture is exactly indifferent to it.
* A4, A5p: act-level monotonicity and the tie between overriding at a state
  and that state being null.

:func:`audit` builds one context and passes it to every ``check_*`` as
``context``; called alone, a check builds its own.  The context is read off
the integer vectors of the closure kernel, the rounds of
:func:`~qualutil.prefcore.close_under_mixtures`: each member's expected
utility as one integer product of its vector with the utilities, at a scale
common to the closure; its leading exponent, the first nonzero coordinate;
the closure ranked into classes of indifferent lotteries by sorting the
distinct integer keys of the regime's order; and the *runs* of consecutive
classes sharing a leading exponent (:func:`_build_context`).  The lotteries
and the ``NSReal`` values are sequences that build a member when it is
first read: for a witness, a certificate or a scan of values of both
signs.  Every pair and triple a check visits comes from one walk over
ranges of ranks (:func:`_triples`).

The solvability family, A3, A3p, A3pp and gamma, reads on each strict chain
p > q > r the relations in which ``a*p + (1-a)*r`` stands to q.  Outside
NS_UTIL values of both signs, the threshold rule of :mod:`qualutil.solver`
gives them from leading exponents e, and a chain is *level* when all three
occur: always in STD and NS_PROB; on NS_UTIL values >= 0 when ``e(p) ==
e(q)``, "greater" alone otherwise; on values <= 0 when ``e(q) == e(r)``,
"less" alone otherwise.  Under nonstandard utilities
solvability thus fails only through overriding, which the primed postulates
exempt.  Each postulate holds on level chains and has one verdict on all the
others, so the first chain that is not level decides it, and its witnesses
are counted from class sizes in O(classes) (:func:`_solvability`).  Where
values mix signs, every chain's weight partition is solved.  A holding
verdict counts its witnesses and keeps the first four.  Outside mixed signs
a kept chain's weights come from that rule on the context's integer terms
(:func:`_witness_weights`), solved at most once per chain; nothing else is
kept per chain.

A2, B2 and A2p compare ``w*p + (1-w)*r`` with ``w*q + (1-w)*r``, whose
difference is ``w*(v_p - v_q)`` whatever the third lottery ``r``.
Independence fails only through overriding, and only under nonstandard
utilities, so only A2 is ever scanned, and only on NS_UTIL:

* STD and NS_PROB: independence holds.  Every weight scanned is standard,
  or, under B2, not negligible, so not infinitesimal; taking the standard
  part is additive and multiplicative on finite values, which every NS_PROB
  value and weight is, so ``w*(v_p - v_q)`` keeps every strict pair strict.
  B2 holds by this alone and reads no negligibility rule.
* NS_UTIL with every value >= 0, or every value <= 0: without cancellation
  both mixtures lead at the smaller of their two leading exponents, at every
  standard weight alike.  So a triple fails exactly when ``r`` is of larger
  order of magnitude than both ``p`` and ``q``, ``e(r) < min(e(p), e(q))``,
  and the mixtures share their leading term.  A2 names the first such triple
  in scan order, with its certificate at the first weight, mixing nothing
  else.  A2p exempts the triples whose ``r`` overrides ``p``,
  ``e(r) < e(p)``; on the values >= 0 of its unsigned utilities those are
  all of them, so it holds.
* NS_UTIL values of both signs can cancel: A2 then mixes every strict pair
  with every closure lottery at every grid weight, the one check whose work
  grows with the grid denominator.

A4, the act-level form of independence, holds by the same theorem in the
Anscombe-Aumann framework: patching an act at one state moves its utility
by the belief there times the difference of the two arms' values, and a
strict drop of the total forces a strict drop of the arm in STD (exact ring
order), in NS_PROB (standard parts of finite values) and on NS_UTIL values
of one sign (no cancellation).  Only NS_UTIL utilities of both signs are
scanned, patch by patch (:func:`check_A4`).

The weight partitions of STD, NS_PROB and one-signed NS_UTIL follow the
threshold rule of :mod:`qualutil.solver`, with no sampling.

The lexicographic contrast orders pairs ``(x, y)`` of rationals by ``x``,
then by ``y``: the plain ring order on ``x + y*EPS``.  Its comparison and
weight partition encode each pair so and use those of the STD regime.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from math import inf
from operator import mul
from typing import Callable, Iterator

from .acts import Act, AAModel, act_prefers, act_utility, is_null
from .errors import (
    ClosureTooLarge,
    ConsistencyError,
    InvalidParameter,
    MissingModel,
    MissingUtility,
    RegimeMismatch,
)
from .nsreal import EPS, NSReal, ZERO, QOrdering, _lead, _term_key, _wrap
from .prefcore import (
    _PREF_FROM_Q,
    _closure_vectors,
    _member_builder,
    _require_denominator,
    _require_int,
    Lottery,
    PrefOrdering,
    Regime,
    UtilityAssignment,
    close_under_mixtures,
    compare_values,
    expected_utility,
    grid_weights,
    is_negligible,  # not called here; perfbench/tracing.py wraps this attribute
    mix,
    overrides_values,
    prefers,
)
from .solver import (
    AffineValue,
    RationalIntervalSet,
    _threshold,
    partition_affine_comparison,
)

__all__ = [
    "AUDIT_SIZE_LIMIT",
    "PrefStructure",
    "Verdict",
    "Counterexample",
    "MixtureWitness",
    "AuditReport",
    "mixture_closure",
    "solve_mixture_relation",
    "check_A1",
    "check_A2",
    "check_A3",
    "check_B2",
    "check_A2prime",
    "check_A3prime",
    "check_A3doubleprime",
    "check_gamma_property",
    "check_A4",
    "check_A5prime",
    "audit",
    "replay",
    "LexValue",
    "lexicographic_compare",
    "lexicographic_mix",
    "lexicographic_mixture_partition",
]

# Hard bound on the closure size an audit takes on; past it the caller is
# told to shrink the closure (the shipped models set closure-depth 0).  Where
# NS_UTIL values mix signs, A2 and the solvability pass scan every strict chain.
# Elsewhere both are linear in the closure once it is ranked: each finds its
# first triple by rank ranges, and the solvability pass counts from class sizes.
AUDIT_SIZE_LIMIT = 64


@dataclass(frozen=True)
class PrefStructure:
    """A finite preference instance to audit."""

    regime: Regime
    utilities: UtilityAssignment
    generators: tuple[Lottery, ...]
    grid_denominator: int = 8
    closure_depth: int = 2
    model: AAModel | None = None
    acts: tuple[Act, ...] = ()

    def __post_init__(self) -> None:
        if not self.generators:
            raise InvalidParameter("at least one generator lottery is required")
        _require_denominator(self.grid_denominator, "grid_denominator")
        _require_int("closure_depth", self.closure_depth)
        if self.closure_depth < 0:
            raise InvalidParameter("closure depth must be nonnegative")
        covered = set(self.utilities.outcomes)
        for lottery in self.generators:
            for outcome in lottery.support:
                if outcome not in covered:
                    raise MissingUtility(f"generator uses unassigned outcome {outcome!r}")
        regime = self.regime
        if regime.standard_probabilities and not all(g.is_standard() for g in self.generators):
            raise RegimeMismatch(f"regime {regime.value} requires standard probabilities")
        if regime.standard_utilities and not self.utilities.is_standard():
            raise RegimeMismatch(f"regime {regime.value} requires standard utilities")
        if self.model is not None and self.model.regime is not regime:
            raise RegimeMismatch(
                f"the model's regime {self.model.regime.value} differs from "
                f"the structure's regime {regime.value}"
            )
        # Acts are valued with the model's utilities, lotteries with these.
        if self.model is not None and self.model.utilities != self.utilities:
            raise InvalidParameter("the model's utilities differ from the structure's")
        if self.acts:
            if self.model is None:
                raise MissingModel("acts were supplied without a model")
            for act in self.acts:
                for state in self.model.states:
                    for outcome in act.arm(state).support:
                        if outcome not in covered:
                            raise MissingUtility(
                                f"act uses unassigned outcome {outcome!r}"
                            )


@dataclass(frozen=True)
class Counterexample:
    """A concrete violation, stored structurally so it can be re-evaluated."""

    kind: str
    payload: tuple[tuple[str, object], ...]

    def get(self, key: str) -> object:
        for name, value in self.payload:
            if name == key:
                return value
        raise KeyError(key)


@dataclass(frozen=True)
class MixtureWitness:
    """An existential witness: the weight realizing a relation on a triple."""

    label: str
    first: Lottery
    middle: Lottery
    second: Lottery
    weight: Fraction


# How many witnesses a holding verdict keeps, and the human report prints.
_WITNESS_DISPLAY_CAP = 4


@dataclass(frozen=True)
class Verdict:
    """One postulate's outcome over its stated domain.

    A failing verdict carries a replayable ``counterexample``.  A holding
    existential verdict counts its witnesses, one per needed weight on each
    chain it covers, in ``witness_count``, and keeps only the first four in
    scan order in ``witnesses``; a failing one keeps none and counts 0."""

    postulate: str
    holds: bool
    domain: str
    counterexample: Counterexample | None = None
    witnesses: tuple[MixtureWitness, ...] = ()
    witness_count: int = 0


@dataclass(frozen=True)
class AuditReport:
    regime: Regime
    generator_count: int
    closure_size: int
    closure_depth: int
    grid_denominator: int
    verdicts: tuple[Verdict, ...]
    notes: tuple[str, ...] = ()

    @property
    def all_hold(self) -> bool:
        return all(verdict.holds for verdict in self.verdicts)

    def verdict(self, postulate: str) -> Verdict:
        for entry in self.verdicts:
            if entry.postulate == postulate:
                return entry
        raise KeyError(postulate)


def mixture_closure(
    structure: PrefStructure, depth: int | None = None, *, limit: int | None = None
) -> tuple[Lottery, ...]:
    """The generators closed under grid-weight mixing, deduplicated exactly.

    Grows roughly quadratically in the current size per round; keep depth
    small for large generator sets.  With ``limit``, a closure of more than
    ``limit`` lotteries is refused with :class:`ClosureTooLarge` as soon as
    it grows past it.  An audit does not build these lotteries: it reads
    the closure kernel's integer vectors (:func:`_build_context`).
    """
    return close_under_mixtures(
        structure.generators,
        denominator=structure.grid_denominator,
        depth=structure.closure_depth if depth is None else depth,
        limit=limit,
    )


class _Memo(Sequence):
    """A sequence of ``size`` items, each built by ``build(index)`` on its
    first read and kept."""

    def __init__(self, size: int, build: Callable[[int], object]) -> None:
        self._items: list = [None] * size
        self._build = build

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, index: int):
        item = self._items[index]
        if item is None:
            index %= len(self._items)
            item = self._items[index] = self._build(index)
        return item


@dataclass(frozen=True)
class _Context:
    """What the checks of one audit share: the closure's lotteries and each
    one's expected utility, as sequences that build an item on its first
    read (:func:`_build_context`), each lottery's leading exponent (``inf``
    for zero), whether NS_UTIL values mix signs and whether some is
    negative, each lottery's class in the regime's weak order, 0 the
    lowest, so that i is above j exactly when ``rank[i] > rank[j]``, each
    class's members in closure order, and each class's run: the first class
    sharing its leading exponent in ``start``, one past the last in
    ``end``.  ``heads`` holds the term each value's witness weights are
    solved from, an (exponent, integer coefficient) pair at the scale
    common to the closure: the leading term under NS_UTIL, and
    ``(0, standard part)`` under STD and NS_PROB."""

    regime: Regime
    lotteries: Sequence[Lottery]
    values: Sequence[NSReal]
    leads: tuple[float, ...]
    heads: Sequence[tuple[float, int]]
    mixed_signs: bool
    negative: bool
    rank: tuple[int, ...]
    classes: tuple[tuple[int, ...], ...]
    start: tuple[int, ...]
    end: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.lotteries)


def _build_context(structure: PrefStructure) -> _Context:
    """Rank the closure from the integer vectors of the closure kernel,
    building no lottery and no ``NSReal``.

    Expected utility is linear, so a member with coefficients ``c/S`` at
    coordinates (outcome o, exponent e) has the value whose coefficient at
    exponent x, times ``S*U``, is the integer ``sum(c * U*u)`` over the
    coordinates and the terms ``u*eps**(x - e)`` of ``u(o)``, U being the
    lcm of the utilities' denominators: one integer product of the vector
    with a column per value exponent.  Every value shares the scale S*U, so
    its lead is its first nonzero coordinate (``inf`` for zero) and each
    regime's sort key is an integer key: NS_UTIL ``_term_key`` of the leading
    term; STD and NS_PROB the exponent-0 coordinate, the standard part,
    which under STD is the row's one coordinate, and under NS_PROB comes
    after a value of negative lead raises the
    :class:`~qualutil.errors.InfiniteValue` of ``standard_part``.  The
    distinct keys are ranked with one sort.  ``lotteries`` and ``values``
    build a member, or its value, only when read: for a witness, a
    certificate or a scan of values of both signs."""
    try:
        generators, coordinates, scale, vectors = _closure_vectors(
            structure.generators,
            structure.grid_denominator,
            structure.closure_depth,
            AUDIT_SIZE_LIMIT,
        )
    except ClosureTooLarge as error:
        raise ClosureTooLarge(
            f"{error}; an audit takes at most {AUDIT_SIZE_LIMIT} lotteries, since on NS_UTIL "
            f"values of both signs it scans every strict chain. Lower closure-depth (the "
            f"shipped models use 0) or grid-denominator, or audit fewer generators."
        ) from None
    regime = structure.regime
    utilities = {o: value.terms for o, value in structure.utilities.utilities}
    unit = math.lcm(*(c.denominator for terms in utilities.values() for _, c in terms))
    columns: dict[int, list[int]] = {
        x: [0] * len(coordinates)
        for x in sorted({e + u for o, e in coordinates for u, _ in utilities[o]})
    }
    for position, (o, e) in enumerate(coordinates):
        for u, c in utilities[o]:
            columns[e + u][position] += c.numerator * (unit // c.denominator)
    exponents = tuple(columns)
    products = [
        [sum(map(mul, vector, column)) for vector in vectors] for column in columns.values()
    ]
    rows = list(zip(*products)) or [()] * len(vectors)
    heads = []
    for row in rows:
        for head in zip(exponents, row):
            if head[1]:
                break
        else:
            head = (inf, 0)
        heads.append(head)
    leads = tuple(e for e, _ in heads)

    def value(index: int) -> NSReal:
        terms = zip(exponents, rows[index])
        return _wrap(tuple([(x, Fraction(c, scale * unit)) for x, c in terms if c]))

    def lottery(index: int) -> Lottery:
        nonlocal member
        if index < len(generators):
            return generators[index]
        if member is None:
            member = _member_builder(coordinates, scale)
        return member(vectors[index])

    member = None
    values, lotteries = _Memo(len(rows), value), _Memo(len(rows), lottery)
    negative = positive = False
    if regime is Regime.NS_UTIL:
        keys = list(itertools.starmap(_term_key, heads))
        negative = any(c < 0 for _, c in heads)
        positive = any(c > 0 for _, c in heads)
    else:
        if regime is Regime.NS_PROB:
            infinite = next((i for i, e in enumerate(leads) if e < 0), None)
            if infinite is not None:
                values[infinite].standard_part()  # raises InfiniteValue
        # Every STD row has its one coordinate at exponent 0.
        zero = exponents.index(0) if 0 in exponents else None
        keys = [0 if zero is None else row[zero] for row in rows]
        heads = [(0, key) for key in keys]
    ranks = {key: r for r, key in enumerate(sorted(set(keys)))}
    rank = tuple(map(ranks.__getitem__, keys))
    classes: list[list[int]] = [[] for _ in ranks]
    for index, r in enumerate(rank):
        classes[r].append(index)
    firsts = [leads[members[0]] for members in classes]
    runs = [list(run) for _, run in itertools.groupby(range(len(firsts)), firsts.__getitem__)]
    start = tuple(run[0] for run in runs for _ in run)
    end = tuple(run[-1] + 1 for run in runs for _ in run)
    return _Context(
        regime,
        lotteries,
        values,
        leads,
        heads,
        negative and positive,
        negative,
        rank,
        tuple(map(tuple, classes)),
        start,
        end,
    )


def _triples(
    context: _Context,
    middles: Callable[[int], tuple[int, int]],
    thirds: Callable[[int, int], tuple[int, int]] = lambda a, b: (0, b),
) -> Iterator[tuple[int, int, int]]:
    """The triples (i, j, k) in scan order, lexicographic in closure indices,
    whose j lies in the class range ``middles(a)`` and k in ``thirds(a, b)``,
    for a and b the classes of i and j; by default k is below j.  An i with
    an empty range costs one read, so a walk whose open ranges all hold a
    triple finds its first in O(closure) reads."""
    rank, n = context.rank, context.size
    for i in range(n):
        a = rank[i]
        low, high = middles(a)
        for j in range(n) if low < high else ():
            b = rank[j]
            if low <= b < high:
                bottom, top = thirds(a, b)
                yield from ((i, j, k) for k in range(n) if bottom <= rank[k] < top)


def _domain(structure: PrefStructure, context: _Context, extra: str) -> str:
    return (
        f"mixture closure of {len(structure.generators)} generators, "
        f"size {context.size}, depth {structure.closure_depth}, "
        f"grid /{structure.grid_denominator}; {extra}"
    )


def _mixture_partition(
    endpoint: NSReal, other_endpoint: NSReal, target: NSReal, regime: Regime
) -> dict[QOrdering, RationalIntervalSet]:
    """Each weight a in (0, 1) by how a*endpoint + (1-a)*other_endpoint compares with target."""
    return partition_affine_comparison(
        AffineValue(endpoint, other_endpoint), AffineValue(target, target), regime.comparison
    )


_HALF = Fraction(1, 2)


def _witness_weights(
    p: tuple[float, int], q: tuple[float, int], r: tuple[float, int], negative: bool
) -> dict[QOrdering, Fraction]:
    """The weight ``RationalIntervalSet.witness()`` gives each relation in
    which ``a*p + (1-a)*r`` stands to q for some a in (0, 1), from each
    value's term in ``_Context.heads``, outside NS_UTIL values of both
    signs; ``negative`` when those values are <= 0.

    These are the threshold rule's cells (:mod:`qualutil.solver`) on those
    terms: t/2, t and (t+1)/2 about a threshold t, or 1/2 for one relation
    throughout.  Every term shares the context's scale, so t is the
    ``NSReal`` values' own."""
    below, t, above = _threshold(p, r, q, q, negative)
    if t is None:
        return {below: _HALF}
    low, total = t
    return {
        below: Fraction(low, 2 * total),
        QOrdering.EQUIVALENT: Fraction(low, total),
        above: Fraction(low + total, 2 * total),
    }


def solve_mixture_relation(
    endpoint_value: NSReal,
    other_endpoint_value: NSReal,
    target_value: NSReal,
    relation: QOrdering,
    regime: Regime,
) -> RationalIntervalSet:
    """Exactly the standard weights a in (0, 1) with
    ``a*endpoint + (1-a)*other_endpoint`` standing in ``relation`` to the
    target under the regime's comparison.  Returned as a finite union of
    disjoint rational intervals."""
    parts = _mixture_partition(endpoint_value, other_endpoint_value, target_value, regime)
    return parts.get(relation, RationalIntervalSet())


# ---------------------------------------------------------------------------
# A1


def check_A1(structure: PrefStructure, *, context: _Context | None = None) -> Verdict:
    """Asymmetry plus negative transitivity of strict preference.  Both
    hold of any ranking, and the context ranks the closure by the regime's
    sort key, so A1 holds by construction."""
    context = context or _build_context(structure)
    return Verdict("A1", True, _domain(structure, context, "all pairs and triples"))


# ---------------------------------------------------------------------------
# A2 and B2


def _independence_failure(
    postulate: str,
    context: _Context,
    domain: str,
    triple: tuple[int, int, int],
    weight: NSReal | Fraction,
) -> Verdict | None:
    """The failing verdict when mixing lotteries i and j of the triple
    (i, j, k) with lottery k at ``weight`` does not keep i strictly above j;
    None when it does."""
    i, j, k = triple
    values = context.values
    left = weight * values[i] + (1 - weight) * values[k]
    right = weight * values[j] + (1 - weight) * values[k]
    actual = compare_values(left, right, context.regime)
    if actual is PrefOrdering.BETTER:
        return None
    certificate = Counterexample(
        kind="independence",
        payload=(
            ("p", context.lotteries[i]),
            ("q", context.lotteries[j]),
            ("r", context.lotteries[k]),
            ("lambda", weight),
            ("left", left),
            ("right", right),
            ("actual", actual.value),
        ),
    )
    return Verdict(postulate, False, domain, certificate)


def check_A2(structure: PrefStructure, *, context: _Context | None = None) -> Verdict:
    """Independence over every strict pair, third lottery, and grid weight.

    Outside NS_UTIL it holds, for no grid weight is infinitesimal (module
    docstring).  Where NS_UTIL values mix signs, every triple is mixed at
    every grid weight.  On NS_UTIL values of one sign the leading-exponent
    rule decides: the first triple (i, j, k) in scan order with i above j
    and ``e(k) < min(e(i), e(j))`` fails, at the first grid weight.  As a
    range of ranks (:func:`_triples`), on values >= 0 i lies outside the top
    run and k above i's run; on values <= 0 j lies above the lowest run and
    k below j's run, the first chain that is not level of the solvability
    pass.  So the triple is found, or shown absent, in O(closure)."""
    context = context or _build_context(structure)
    domain = _domain(structure, context, "all strict pairs x closure x grid weights")
    if context.regime is not Regime.NS_UTIL:
        return Verdict("A2", True, domain)
    top, start, end = len(context.classes), context.start, context.end
    if context.mixed_signs:
        weights = grid_weights(structure.grid_denominator)
        for triple in _triples(context, lambda a: (0, a), lambda a, b: (0, top)):
            for w in weights:
                failure = _independence_failure("A2", context, domain, triple, w)
                if failure is not None:
                    return failure
        return Verdict("A2", True, domain)
    if context.negative:
        triples = _triples(context, lambda a: (end[0], a), lambda a, b: (0, start[b]))
    else:
        triples = _triples(
            context, lambda a: (0, a if end[a] < top else 0), lambda a, b: (end[a], top)
        )
    triple = next(triples, None)
    if triple is None:
        return Verdict("A2", True, domain)
    weight = Fraction(1, structure.grid_denominator)
    failure = _independence_failure("A2", context, domain, triple, weight)
    if failure is None:
        values = tuple(context.values[x] for x in triple)
        raise ConsistencyError(
            f"A2: closure triple {triple} with values {values!r} meets the leading-exponent "
            f"rule for a failure, yet mixing at {weight} keeps p above q"
        )
    return failure


def check_B2(structure: PrefStructure, *, context: _Context | None = None) -> Verdict:
    """Independence for non-negligible weights, nonstandard probabilities.

    It holds by theorem: independence fails only through overriding, which
    needs nonstandard utilities.  Every NS_PROB value is finite, and B2
    exempts the infinitesimal weights as negligible, so each weight it
    scans has a nonzero standard part; taking the standard part is additive
    and multiplicative on finite values, so ``w*(v_p - v_q)`` keeps every
    strict pair strict."""
    if structure.regime.standard_probabilities:
        raise RegimeMismatch("B2 applies to nonstandard probabilities only")
    context = context or _build_context(structure)
    domain = _domain(
        structure, context, "all strict pairs x closure x (grid + nonstandard) weights"
    )
    return Verdict("B2", True, domain)


# ---------------------------------------------------------------------------
# Solvability family


# Each solvability postulate asks which weights a put a*p + (1-a)*r above,
# level with or below q on strict chains p > q > r.  Per postulate: the
# domain it is decided over, which chains it exempts, and the (label,
# relation) pairs whose weight sets must be nonempty, in reporting order.
# An exemption reads the leading exponents of p and q and the relations
# present in the chain's weight partition: the partition itself, or, on the
# first chain that is not level, the one relation the rule gives it.  A3pp
# runs on values >= 0 only, where p overrides q exactly when p's leading
# exponent is the smaller.
_SOLVABILITY = {
    "A3": (
        "all strict chains, exact weight solving",
        None,
        (("alpha", QOrdering.GREATER), ("beta", QOrdering.LESS)),
    ),
    "A3p": ("all strict chains, exact weight solving", None, (("alpha", QOrdering.GREATER),)),
    "A3pp": (
        "strict chains with non-overriding top, exact weight solving",
        lambda top, middle, parts: top < middle,
        (("beta", QOrdering.LESS),),
    ),
    "gamma": (
        "strict chains with nonempty lower set",
        lambda top, middle, parts: QOrdering.LESS not in parts,
        (("gamma", QOrdering.EQUIVALENT),),
    ),
}


def _solvability(
    postulates: Sequence[str], structure: PrefStructure, context: _Context | None
) -> tuple[Verdict, ...]:
    """Decide ``postulates`` as a scan of the strict chains p > q > r in
    lexicographic order of closure indices would: a holding postulate counts
    a witness per needed weight on each chain it does not exempt and keeps
    the first ``_WITNESS_DISPLAY_CAP``; a failing one names the first chain
    that misses a weight.  Where NS_UTIL values mix signs, every chain is
    partitioned, while some postulate is undecided.  Elsewhere the first
    chain that is not level (module docstring) fails a postulate, or it
    holds on every chain, or on the level ones alone, which A3pp and gamma
    exempt the others from on values >= 0.  Chains are counted as
    ``sum(size(q) * above(q) * below(q))`` over classes q, with ``above``
    read within q's run where only level chains count."""
    context = context or _build_context(structure)
    lotteries, values, leads = context.lotteries, context.values, context.leads
    sizes, start, end = [len(members) for members in context.classes], context.start, context.end
    below = list(itertools.accumulate(sizes, initial=0))

    def missing(name: str, chain: tuple[int, int, int], parts) -> list | None:
        """The needed pairs absent from the chain's relations; None if exempt."""
        _, exempt, needed = _SOLVABILITY[name]
        if exempt is not None and exempt(leads[chain[0]], leads[chain[1]], parts):
            return None
        return [(label, relation) for label, relation in needed if relation not in parts]

    def keep(name: str, witnesses: list, chain: tuple[int, int, int], weights: dict) -> None:
        """Keep the chain's witnesses, ``weights`` giving each relation's weight."""
        for label, relation in _SOLVABILITY[name][2][: _WITNESS_DISPLAY_CAP - len(witnesses)]:
            weight = weights[relation]
            witnesses.append(MixtureWitness(label, *(lotteries[x] for x in chain), weight))

    def verdict(name: str, witnesses: list, count: int, chain=None, absent=()) -> Verdict:
        """Holding, or failing at ``chain`` when it misses the pairs ``absent``."""
        domain = _domain(structure, context, _SOLVABILITY[name][0])
        if not absent:
            return Verdict(name, True, domain, None, tuple(witnesses), count)
        (label, relation), (p, q, r) = absent[0], (lotteries[x] for x in chain)
        payload = (("p", p), ("q", q), ("r", r), ("postulate", name), ("missing", label))
        payload += (("relation", relation.value), ("set", RationalIntervalSet()))
        return Verdict(name, False, domain, Counterexample("existential", payload))

    def level(a: int) -> tuple[int, int]:
        """On values >= 0, a middle class level with top class ``a``: in its run."""
        return max(start[a], 1), a

    if context.mixed_signs:
        live: dict[str, list[MixtureWitness]] = {name: [] for name in postulates}
        counts = dict.fromkeys(postulates, 0)
        verdicts: dict[str, Verdict] = {}
        for chain in _triples(context, lambda a: (1, a)):
            if not live:
                break
            p, q, r = (values[x] for x in chain)
            parts = _mixture_partition(p, r, q, context.regime)
            for name in list(live):
                absent = missing(name, chain, parts)
                if absent:
                    verdicts[name] = verdict(name, [], 0, chain, absent)
                    del live[name]
                elif absent is not None:
                    counts[name] += len(_SOLVABILITY[name][2])
                    if len(live[name]) < _WITNESS_DISPLAY_CAP:
                        weights = {relation: part.witness() for relation, part in parts.items()}
                        keep(name, live[name], chain, weights)
        verdicts.update((name, verdict(name, kept, counts[name])) for name, kept in live.items())
        return tuple(verdicts[name] for name in postulates)

    # The first chain that is not level, and the one relation it has: on
    # values <= 0, r below q's run and q so above the lowest run, with
    # a*p + (1-a)*r below q; on values >= 0, q below p's run, with it above.
    first, relations = None, ()
    if context.negative:
        first = next(_triples(context, lambda a: (end[0], a), lambda a, b: (0, start[b])), None)
        relations = (QOrdering.LESS,)
    elif context.regime is Regime.NS_UTIL:
        first = next(_triples(context, lambda a: (1, start[a])), None)
        relations = (QOrdering.GREATER,)
    heads, negative = context.heads, context.negative
    solve = functools.cache(
        lambda i, j, k: _witness_weights(heads[i], heads[j], heads[k], negative)
    )

    def by_rule(name: str) -> Verdict:
        absent = [] if first is None else missing(name, first, relations)
        if absent:
            return verdict(name, [], 0, first, absent)
        # Exempting the first chain that is not level exempts them all.
        exempting, kept = absent is None, []
        for chain in _triples(context, level if exempting else lambda a: (1, a)):
            keep(name, kept, chain, solve(*chain))
            if len(kept) == _WITNESS_DISPLAY_CAP:
                break
        tops = end if exempting else [len(sizes)] * len(sizes)
        count = sum(s * (below[tops[q]] - below[q + 1]) * below[q] for q, s in enumerate(sizes))
        return verdict(name, kept, count * len(_SOLVABILITY[name][2]))

    return tuple(by_rule(name) for name in postulates)


def check_A3(structure: PrefStructure, *, context: _Context | None = None) -> Verdict:
    """Both-sided solvability on every strict chain of the closure."""
    return _solvability(("A3",), structure, context)[0]


def _require_standard_probabilities(structure: PrefStructure, subject: str) -> None:
    if not structure.regime.standard_probabilities:
        raise RegimeMismatch(f"{subject} applies to standard-probability regimes")


def _require_unsigned_qualitative(structure: PrefStructure, postulate: str) -> None:
    _require_standard_probabilities(structure, postulate)
    if structure.utilities.signed:
        raise RegimeMismatch(
            f"{postulate} relies on the overriding relation, undefined for signed utilities"
        )


def check_A2prime(structure: PrefStructure, *, context: _Context | None = None) -> Verdict:
    """Independence for every weight, provided the third lottery does not
    override the preferred one.  It holds by theorem: with standard
    probabilities independence can fail only under nonstandard utilities,
    on values of one sign when the third lottery r is of larger order of
    magnitude than both p and q (module docstring).  On the values >= 0 of
    unsigned utilities such an r overrides p, so every failing triple is
    exempt."""
    _require_unsigned_qualitative(structure, "A2p")
    context = context or _build_context(structure)
    domain = _domain(structure, context, "all eligible triples, every weight in (0, 1)")
    return Verdict("A2p", True, domain)


def check_A3prime(structure: PrefStructure, *, context: _Context | None = None) -> Verdict:
    """Upper solvability: some mixture of the endpoints beats the middle."""
    _require_standard_probabilities(structure, "A3p")
    return _solvability(("A3p",), structure, context)[0]


def check_A3doubleprime(
    structure: PrefStructure, *, context: _Context | None = None
) -> Verdict:
    """Lower solvability on chains whose top does not override the middle."""
    _require_unsigned_qualitative(structure, "A3pp")
    return _solvability(("A3pp",), structure, context)[0]


def check_gamma_property(
    structure: PrefStructure, *, context: _Context | None = None
) -> Verdict:
    """If some endpoint mixture falls strictly below the middle of a chain,
    some endpoint mixture is exactly indifferent to it."""
    _require_standard_probabilities(structure, "the gamma property")
    return _solvability(("gamma",), structure, context)[0]


# ---------------------------------------------------------------------------
# Act-level checks


def _require_acts(structure: PrefStructure) -> tuple[AAModel, tuple[Act, ...]]:
    if structure.model is None or not structure.acts:
        raise MissingModel("this check needs a model and generator acts")
    return structure.model, structure.acts


def check_A4(structure: PrefStructure, *, context: _Context | None = None) -> Verdict:
    """Acts agreeing everywhere but one state: strict preference between
    them forces the same strict preference between their lotteries there.

    It holds by theorem unless NS_UTIL utilities take both signs.  Patching
    act b at state s with act o's arm there moves b's utility ``T_b`` by
    ``belief(s) * (v_b(s) - v_o(s))``, beliefs being >= 0, so a strict drop
    of the total needs a strict drop of the arm:

    * STD: the ring order is exact, so the drop is positive and both
      factors are.
    * NS_PROB: every value is finite, so the standard part distributes over
      the product, and ``st(belief(s)) * st(v_b(s) - v_o(s)) > 0`` puts
      ``st(v_b(s))`` above ``st(v_o(s))``.
    * NS_UTIL on values of one sign: nothing cancels, so a sum's leading
      term is that of its largest order of magnitude, and a strict
      qualitative drop in the total needs the patched share to lead it.
      A positive belief, even an infinitesimal one, multiplies both shares
      by one leading term, which keeps the order of the arms.

    Where the utilities take both signs, each arm's expected utility, its
    belief-weighted share and each act's utility are computed once:
    patching ``base`` at a state with ``other``'s arm swaps one share,
    exactly."""
    model, acts = _require_acts(structure)
    domain = (
        f"all ordered act pairs ({len(acts)}) patched to agree off each of "
        f"{len(model.states)} states"
    )
    better, regime = PrefOrdering.BETTER, model.regime
    signs = {value.sign() for _, value in model.utilities.utilities}
    if regime is not Regime.NS_UTIL or not {1, -1} <= signs:
        return Verdict("A4", True, domain)
    arm_values = [
        [expected_utility(act.arm(state), model.utilities) for state in model.states]
        for act in acts
    ]
    shares = [
        [model.belief_at(state) * value for state, value in zip(model.states, row)]
        for row in arm_values
    ]
    totals = [sum(row, ZERO) for row in shares]
    for b, base in enumerate(acts):
        for o, other in enumerate(acts):
            for s, state in enumerate(model.states):
                patched_value = totals[b] - shares[b][s] + shares[o][s]
                if compare_values(totals[b], patched_value, regime) is not better:
                    continue
                arm_comparison = compare_values(arm_values[b][s], arm_values[o][s], regime)
                if arm_comparison is not better:
                    certificate = Counterexample(
                        kind="act-independence",
                        payload=(
                            ("a", base),
                            ("b", base.replacing(state, other.arm(state))),
                            ("state", state),
                            ("arm_comparison", arm_comparison.value),
                        ),
                    )
                    return Verdict("A4", False, domain, certificate)
    return Verdict("A4", True, domain)


def check_A5prime(structure: PrefStructure, *, context: _Context | None = None) -> Verdict:
    """A state where some act's own lottery overrides the whole act must be
    null.  A5p runs on unsigned utilities only.  Nullity is decided by
    :func:`~qualutil.acts.is_null`, the closed-form rule alone, asked once
    per state, at the first overriding act."""
    model, acts = _require_acts(structure)
    if model.regime.standard_utilities:
        raise RegimeMismatch("A5p applies to the nonstandard-utility regime")
    if model.utilities.signed:
        raise RegimeMismatch("A5p relies on overriding, undefined for signed utilities")
    domain = f"{len(acts)} generator acts x {len(model.states)} states"
    whole_values = [act_utility(act, model) for act in acts]
    for state in model.states:
        for act, whole_value in zip(acts, whole_values):
            arm_value = expected_utility(act.arm(state), model.utilities)
            if not overrides_values(arm_value, whole_value):
                continue
            if is_null(state, model, acts):
                break
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


# ---------------------------------------------------------------------------
# Orchestration and replay


def audit(structure: PrefStructure) -> AuditReport:
    """Run every postulate check that applies to the structure's regime."""
    notes: list[str] = []
    checks: list[Callable[..., Verdict] | str]
    if structure.regime is Regime.STD:
        checks = [check_A1, check_A2, "A3", "gamma"]
    elif structure.regime is Regime.NS_UTIL:
        checks = [check_A1, check_A2]
        if structure.utilities.signed:
            notes.append("A2p and A3pp omitted: overriding is undefined for signed utilities")
            checks += ["A3p", "gamma"]
        else:
            checks += [check_A2prime, "A3p", "A3pp", "gamma"]
    else:
        checks = [check_A1, "A3", check_B2]
    if structure.acts:
        checks.append(check_A4)
        if structure.regime is Regime.NS_UTIL:
            if structure.utilities.signed:
                notes.append("A5p omitted: overriding is undefined for signed utilities")
            else:
                checks.append(check_A5prime)
    context = _build_context(structure)
    # The solvability postulates, named by their labels, in one pass.
    postulates = [check for check in checks if isinstance(check, str)]
    solved = dict(zip(postulates, _solvability(postulates, structure, context)))
    verdicts = tuple(solved[c] if c in solved else c(structure, context=context) for c in checks)
    return AuditReport(
        regime=structure.regime,
        generator_count=len(structure.generators),
        closure_size=context.size,
        closure_depth=structure.closure_depth,
        grid_denominator=structure.grid_denominator,
        verdicts=verdicts,
        notes=tuple(notes),
    )


def replay(certificate: Counterexample, structure: PrefStructure) -> bool:
    """Re-establish a counterexample through the public operations alone.

    Returns True when the certificate still demonstrates the violation it
    claims against the given structure."""
    payload = dict(certificate.payload)
    regime = structure.regime
    assignment = structure.utilities

    if certificate.kind == "independence":
        p, q, r = payload["p"], payload["q"], payload["r"]
        weight = payload["lambda"]
        if prefers(p, q, assignment, regime) is not PrefOrdering.BETTER:
            return False
        left, right = mix(weight, p, r), mix(weight, q, r)
        return prefers(left, right, assignment, regime) is not PrefOrdering.BETTER

    if certificate.kind == "existential":
        p, q, r = payload["p"], payload["q"], payload["r"]
        postulate = payload["postulate"]
        relation = QOrdering(payload["relation"])
        if prefers(p, q, assignment, regime) is not PrefOrdering.BETTER:
            return False
        if prefers(q, r, assignment, regime) is not PrefOrdering.BETTER:
            return False
        value_p, value_q, value_r = (expected_utility(x, assignment) for x in (p, q, r))
        parts = _mixture_partition(value_p, value_r, value_q, regime)
        _, exempt, _ = _SOLVABILITY[postulate]
        if exempt is not None and exempt(_lead(value_p)[0], _lead(value_q)[0], parts):
            return False
        return relation not in parts

    if certificate.kind == "act-independence":
        model = structure.model
        if model is None:
            return False
        a, b, state = payload["a"], payload["b"], payload["state"]
        if act_prefers(a, b, model) is not PrefOrdering.BETTER:
            return False
        return (
            compare_values(
                expected_utility(a.arm(state), model.utilities),
                expected_utility(b.arm(state), model.utilities),
                model.regime,
            )
            is not PrefOrdering.BETTER
        )

    if certificate.kind == "null-state":
        model = structure.model
        if model is None:
            return False
        act, state = payload["a"], payload["state"]
        arm_value = expected_utility(act.arm(state), model.utilities)
        whole_value = act_utility(act, model)
        if not overrides_values(arm_value, whole_value):
            return False
        return not is_null(state, model, structure.acts)

    raise InvalidParameter(f"unknown certificate kind {certificate.kind!r}")


# ---------------------------------------------------------------------------
# Lexicographic contrast

LexValue = tuple[Fraction, Fraction]


def _lex_value(value: LexValue) -> NSReal:
    return value[0] + value[1] * EPS


def lexicographic_compare(first: LexValue, second: LexValue) -> PrefOrdering:
    """Two-coordinate lexicographic order: first coordinate decides, ties go
    to the second.  Indifference is exact equality, which is what breaks the
    gamma property for this ordering."""
    return compare_values(_lex_value(first), _lex_value(second), Regime.STD)


def lexicographic_mix(weight: Fraction, first: LexValue, second: LexValue) -> LexValue:
    w = Fraction(weight)
    if not 0 < w < 1:
        raise InvalidParameter("mixture weight must lie strictly between 0 and 1")
    return (
        w * first[0] + (1 - w) * second[0],
        w * first[1] + (1 - w) * second[1],
    )


def lexicographic_mixture_partition(
    endpoint: LexValue,
    other_endpoint: LexValue,
    target: LexValue,
) -> dict[PrefOrdering, RationalIntervalSet]:
    """Classify every weight by comparing the endpoint mixture with the
    target lexicographically: the weight partition of the plain order on
    the encoded values."""
    parts = _mixture_partition(
        _lex_value(endpoint), _lex_value(other_endpoint), _lex_value(target), Regime.STD
    )
    return {_PREF_FROM_Q[ordering]: weights for ordering, weights in parts.items()}
