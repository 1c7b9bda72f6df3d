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

:func:`audit` builds one context (closure, expected utilities, leading
exponents, and the closure ranked into classes of indifferent lotteries by
one sort of its distinct values) and passes it to every ``check_*`` as
``context``; called alone, a check builds its own.  The solvability family,
A3, A3p, A3pp and gamma, is decided in one ordered pass over the strict
chains p > q > r.  Every postulate still undecided reads the set of
relations in which ``a*p + (1-a)*r`` stands to q.  Outside NS_UTIL values
of both signs that set follows from leading exponents
(:func:`_relation_rule`), and it reads r only through whether r shares q's:
under nonstandard utilities solvability fails only through overriding,
which the primed postulates exempt.  So the pass walks pairs of classes,
counts their chains from class sizes, and visits a chain only to keep a
witness or to name the first failure.  Where values mix signs, each
chain's weight partition is solved.  A holding
verdict counts its witnesses and keeps the first four, each weight read off
its own chain's partition, solved at most once per chain; nothing else is
kept per chain.

A2, B2 and A2p compare ``w*p + (1-w)*r`` with ``w*q + (1-w)*r``, whose
difference is ``w*(v_p - v_q)`` whatever the third lottery ``r``.  Outside
NS_UTIL values of both signs they are decided by rule, with no weight
partition and no mixture arithmetic beyond a failing certificate's:

* STD and NS_PROB: they hold.  Every weight scanned is standard, or, under
  B2, not negligible, so not infinitesimal; taking the standard part is
  additive and multiplicative on finite values, which every NS_PROB value
  and weight is, so ``w*(v_p - v_q)`` keeps every strict pair strict.
* NS_UTIL with every value >= 0, or every value <= 0: without cancellation
  both mixtures lead at the smaller of their two leading exponents, at every
  standard weight alike.  So a triple fails exactly when ``r`` is of larger
  order of magnitude than both ``p`` and ``q``, ``e(r) < min(e(p), e(q))``,
  and the mixtures share their leading term.  A2 names the first such triple
  in scan order, with its certificate at the first weight.  A2p exempts the
  triples whose ``r`` overrides ``p``, ``e(r) < e(p)``; on the values >= 0 of
  its unsigned utilities those are all of them, so it holds.

NS_UTIL values of both signs can cancel: A2 then mixes every strict pair
with every closure lottery at every grid weight.  B2 exempts its negligible
weights by the closed-form rule of :func:`~qualutil.prefcore.is_negligible`:
the infinitesimal ones, and all of them when the closure's values share one
standard part, which mixing keeps, so the closure shares one exactly when
its generators do.  The weight partitions of STD, NS_PROB and one-signed
NS_UTIL are threshold partitions, written without sampling
(:mod:`qualutil.solver`).

The lexicographic contrast orders pairs ``(x, y)`` of rationals by ``x``,
then by ``y``: the plain ring order on ``x + y*EPS``.  Its comparison and
weight partition encode each pair so and use those of the STD regime.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Sequence

from .acts import Act, AAModel, act_prefers, act_utility, is_null, null_state_analytic
from .errors import (
    ClosureTooLarge,
    ConsistencyError,
    InvalidParameter,
    MissingModel,
    MissingUtility,
    RegimeMismatch,
)
from .nsreal import EPS, NSReal, ONE, ZERO, QOrdering, _lead
from .prefcore import (
    _PREF_FROM_Q,
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
# NS_UTIL values mix signs, A2 and the solvability pass scan every strict
# chain, so cost grows cubically; elsewhere the checks walk pairs of classes.
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
        for name in ("grid_denominator", "closure_depth"):
            _require_int(name, getattr(self, name))
        if self.grid_denominator < 2:
            raise InvalidParameter("grid denominator must be at least 2")
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
    it grows past it.
    """
    return close_under_mixtures(
        structure.generators,
        denominator=structure.grid_denominator,
        depth=structure.closure_depth if depth is None else depth,
        limit=limit,
    )


@dataclass(frozen=True)
class _Context:
    """What the checks of one audit share: the closure, each lottery's
    expected utility and leading exponent (``inf`` for zero), whether NS_UTIL
    values mix signs, each lottery's class in the regime's weak order, 0 the
    lowest, so that i is above j exactly when ``rank[i] > rank[j]``, and each
    class's members in closure order."""

    regime: Regime
    lotteries: tuple[Lottery, ...]
    values: tuple[NSReal, ...]
    leads: tuple[float, ...]
    mixed_signs: bool
    rank: tuple[int, ...]
    classes: tuple[tuple[int, ...], ...]

    @property
    def size(self) -> int:
        return len(self.lotteries)


def _rank(
    values: Sequence[NSReal], regime: Regime
) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """Each value's class in the regime's weak order, 0 the lowest, and each
    class's indices.  One sort of the distinct values, then a walk over
    neighbours: one level with the value below joins its class, one above
    opens the next, and one below proves the comparison no weak order, which
    the paper shows it is, and raises :class:`ConsistencyError`."""
    steps = {PrefOrdering.WORSE: -1, PrefOrdering.INDIFFERENT: 0, PrefOrdering.BETTER: 1}
    distinct = sorted(
        dict.fromkeys(values),
        key=functools.cmp_to_key(lambda a, b: steps[compare_values(a, b, regime)]),
    )
    ranks = dict.fromkeys(distinct[:1], 0)
    for lower, value in zip(distinct, distinct[1:]):
        ordering = compare_values(value, lower, regime)
        if ordering is PrefOrdering.WORSE:
            raise ConsistencyError(
                f"the {regime.value} comparison is no weak order: {value!r} sorts "
                f"above {lower!r}, yet compares {ordering.value}"
            )
        ranks[value] = ranks[lower] + steps[ordering]
    rank = tuple(ranks[value] for value in values)
    classes: list[list[int]] = [[] for _ in range(max(rank, default=-1) + 1)]
    for index, r in enumerate(rank):
        classes[r].append(index)
    return rank, tuple(tuple(members) for members in classes)


def _build_context(structure: PrefStructure) -> _Context:
    try:
        lotteries = mixture_closure(structure, limit=AUDIT_SIZE_LIMIT)
    except ClosureTooLarge as error:
        raise ClosureTooLarge(
            f"{error}; exhaustive postulate checks scan all pairs and triples and "
            f"are limited to {AUDIT_SIZE_LIMIT}. Lower closure-depth (the shipped "
            f"models use 0) or grid-denominator, or audit fewer generators."
        ) from None
    regime = structure.regime
    values = tuple(expected_utility(lottery, structure.utilities) for lottery in lotteries)
    leads = tuple(_lead(value)[0] for value in values)
    mixed_signs = regime is Regime.NS_UTIL and {1, -1} <= {v.sign() for v in values}
    return _Context(regime, lotteries, values, leads, mixed_signs, *_rank(values, regime))


def _strict_pairs(context: _Context) -> Iterator[tuple[int, int]]:
    """Every (i, j) with i above j, in lexicographic order.  Unless NS_UTIL
    values mix signs, the rules read a lottery only through its class, so
    only each class's first member is visited: the first failure among them
    is the first among all lotteries."""
    rank, classes = context.rank, context.classes
    units = range(context.size) if context.mixed_signs else sorted(c[0] for c in classes)
    return ((i, j) for i in units for j in units if rank[i] > rank[j])


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
    hold of any ranking, and the context ranks the closure, or raises
    :class:`ConsistencyError` where the comparison is no weak order."""
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


def _independence_scan(
    postulate: str,
    context: _Context,
    domain: str,
    weights: Sequence[NSReal | Fraction],
    *,
    exempt_overriding: bool = False,
) -> Verdict:
    """Mixing every strict pair with every closure lottery at every weight
    keeps the pair strict; otherwise the first violation in scan order.

    In STD and NS_PROB it holds, for none of ``weights`` may be
    infinitesimal there (module docstring).  Where NS_UTIL values mix signs,
    every triple and weight is mixed.  On NS_UTIL values of one sign the
    leading-exponent rule decides: the first strict pair (i, j) with
    some k of ``e(k) < min(e(i), e(j))`` fails, at its first such k and the
    first weight.  With ``exempt_overriding`` (A2p, whose values are all
    >= 0), a k with ``e(k) < e(i)`` overrides i and is exempt.  The rule
    reads i and j only through their classes, so the scan walks pairs of
    classes (:func:`_strict_pairs`)."""
    if context.regime is not Regime.NS_UTIL:
        return Verdict(postulate, True, domain)
    pairs = _strict_pairs(context)
    if context.mixed_signs:
        for i, j in pairs:
            for k in range(context.size):
                for w in weights:
                    failure = _independence_failure(postulate, context, domain, (i, j, k), w)
                    if failure is not None:
                        return failure
        return Verdict(postulate, True, domain)
    leads = context.leads
    # The first failing k of a pair depends on the pair's exponent bounds
    # alone, and the closure has few leading exponents.
    first_failing: dict[tuple[float, float], int | None] = {}
    for i, j in pairs:
        bounds = (leads[i] if exempt_overriding else -math.inf, min(leads[i], leads[j]))
        if bounds not in first_failing:
            low, high = bounds
            first_failing[bounds] = next(
                (k for k, lead in enumerate(leads) if low <= lead < high), None
            )
        k = first_failing[bounds]
        if k is None:
            continue
        failure = _independence_failure(postulate, context, domain, (i, j, k), weights[0])
        if failure is None:
            values = context.values
            raise ConsistencyError(
                f"{postulate}: closure triple ({i}, {j}, {k}) with values ({values[i]!r}, "
                f"{values[j]!r}, {values[k]!r}) meets the leading-exponent rule for a "
                f"failure, yet mixing at {weights[0]} keeps p above q"
            )
        return failure
    return Verdict(postulate, True, domain)


def check_A2(structure: PrefStructure, *, context: _Context | None = None) -> Verdict:
    """Independence over every strict pair, third lottery, and grid weight."""
    context = context or _build_context(structure)
    domain = _domain(structure, context, "all strict pairs x closure x grid weights")
    return _independence_scan("A2", context, domain, grid_weights(structure.grid_denominator))


def check_B2(structure: PrefStructure, *, context: _Context | None = None) -> Verdict:
    """Independence for non-negligible weights, nonstandard probabilities.

    The weight set is the standard grid extended with infinitesimal and
    near-one nonstandard weights; negligible weights are exempt by the
    postulate and are skipped: the infinitesimal ones, and all of them when
    the closure's values share one standard part (module docstring).  No
    remaining weight is infinitesimal, so B2 holds by the rule of
    :func:`_independence_scan`."""
    if structure.regime.standard_probabilities:
        raise RegimeMismatch("B2 applies to nonstandard probabilities only")
    context = context or _build_context(structure)
    weights = (*grid_weights(structure.grid_denominator), EPS, Fraction(1, 2) * EPS, ONE - EPS)
    separates = len({value.standard_part() for value in context.values}) > 1
    relevant = [
        w for w in weights if separates and not (isinstance(w, NSReal) and w.is_infinitesimal())
    ]
    domain = _domain(
        structure, context, "all strict pairs x closure x (grid + nonstandard) weights"
    )
    return _independence_scan("B2", context, domain, relevant)


# ---------------------------------------------------------------------------
# Solvability family


_ALL_RELATIONS = frozenset(QOrdering)


def _relation_rule(context: _Context) -> Callable[[int, int, int], frozenset[QOrdering]] | None:
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


# Each solvability postulate asks which weights a put a*p + (1-a)*r above,
# level with or below q on strict chains p > q > r.  Per postulate: the
# domain it is decided over, which chains it exempts, and the (label,
# relation) pairs whose weight sets must be nonempty, in reporting order.
# An exemption reads the leading exponents of p and q and the relations
# present in the chain's weight partition: the partition itself, or the set
# of its keys that _relation_rule gives.  A3pp runs on values >= 0 only,
# where p overrides q exactly when p's leading exponent is the smaller.
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
    """Decide ``postulates`` in one pass over the strict chains p > q > r.

    Outside NS_UTIL values of both signs, :func:`_relation_rule` reads p and
    q only through their classes and r only through whether it shares q's
    leading exponent, so the pass walks pairs of classes and the at most two
    kinds of r below, each by its first member, counting chains from class
    sizes.  Where values mix signs every chain is decided by its partition.
    Each postulate counts a witness per needed weight on every chain it does
    not exempt and keeps the first ``_WITNESS_DISPLAY_CAP`` in scan order,
    or names the first chain missing one, as a scan of its own would.  A
    kept weight comes from its chain's partition, solved at most once."""
    context = context or _build_context(structure)
    values, lotteries, leads, rank = context.values, context.lotteries, context.leads, context.rank
    n, rule = context.size, _relation_rule(context)
    domains = {name: _domain(structure, context, _SOLVABILITY[name][0]) for name in postulates}
    failed: dict[str, Counterexample] = {}
    live: dict[str, list[MixtureWitness]] = {postulate: [] for postulate in postulates}
    counts = dict.fromkeys(postulates, 0)
    # Per postulate, the first p of a chain it does not exempt.
    starts: dict[str, int] = {}

    def partition(i: int, j: int, k: int) -> dict[QOrdering, RationalIntervalSet]:
        return _mixture_partition(values[i], values[k], values[j], context.regime)

    def keep(postulate: str, i: int, j: int, k: int, parts: dict) -> None:
        witnesses = live[postulate]
        for label, relation in _SOLVABILITY[postulate][2][: _WITNESS_DISPLAY_CAP - len(witnesses)]:
            weight = parts[relation].witness()
            witnesses.append(MixtureWitness(label, *(lotteries[x] for x in (i, j, k)), weight))

    if rule is None:
        chains = (
            (i, j, k, 1) for i, j in _strict_pairs(context) for k in range(n) if rank[k] < rank[j]
        )
    else:
        # Per class q: the first r below it of each kind, and how many there are.
        kinds = []
        for middle, members in enumerate(context.classes):
            firsts: dict[bool, list[int]] = {}
            for lower in context.classes[:middle]:
                kind = firsts.setdefault(leads[lower[0]] == leads[members[0]], [lower[0], 0])
                kind[:] = min(kind[0], lower[0]), kind[1] + len(lower)
            kinds.append(sorted(firsts.values()))
        sizes = [len(members) for members in context.classes]
        chains = (
            (i, j, k, sizes[rank[i]] * sizes[rank[j]] * size)
            for i, j in _strict_pairs(context)
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
                    # Every chain is met in scan order, its partition at hand.
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
        # A holding postulate's unexempted chains in scan order from its first
        # p, each pair tried on its kinds first, up to the last witness kept.
        solved = functools.cache(partition)

        def kept(exempt: Callable[..., bool] | None, i: int, j: int, k: int) -> bool:
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
                keep(postulate, *chain, solved(*chain))
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
    override the preferred one.  Decided by the leading-exponent rule of
    A2 (module docstring), exempting every third lottery of larger order of
    magnitude than the preferred one: on the values >= 0 of unsigned
    utilities a failing triple is always one of those, so A2p holds.  The
    weight is that of (0, 1) as a whole, its midpoint."""
    _require_unsigned_qualitative(structure, "A2p")
    context = context or _build_context(structure)
    domain = _domain(structure, context, "all eligible triples, every weight in (0, 1)")
    return _independence_scan("A2p", context, domain, (Fraction(1, 2),), exempt_overriding=True)


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

    Each arm's expected utility, its belief-weighted share and each act's
    utility are computed once: patching ``base`` at a state with ``other``'s
    arm swaps one share, exactly."""
    model, acts = _require_acts(structure)
    domain = (
        f"all ordered act pairs ({len(acts)}) patched to agree off each of "
        f"{len(model.states)} states"
    )
    better, regime = PrefOrdering.BETTER, model.regime
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
    null.  A5p runs on unsigned utilities only, where the analytic rule
    :func:`~qualutil.acts.null_state_analytic` decides nullity (the public
    :func:`~qualutil.acts.is_null` also runs the definitional sweep, as a
    guard); it is asked once per state, at the first overriding act."""
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
            if null_state_analytic(state, model, acts):
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

    if certificate.kind == "asymmetry":
        p, q = payload["p"], payload["q"]
        return prefers(p, q, assignment, regime) is not prefers(q, p, assignment, regime).flipped()

    if certificate.kind == "negative-transitivity":
        p, q, r = payload["p"], payload["q"], payload["r"]
        return (
            prefers(p, q, assignment, regime) is not PrefOrdering.BETTER
            and prefers(q, r, assignment, regime) is not PrefOrdering.BETTER
            and prefers(p, r, assignment, regime) is PrefOrdering.BETTER
        )

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
