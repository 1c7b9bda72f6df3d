"""State-contingent acts over a finite state space with graded beliefs.

An act maps every state to a lottery; a belief weighs the states with exact
probabilities.  The worth of an act is the belief-weighted expected utility
of its lotteries, and acts are compared exactly like lotteries in whichever
regime the model declares.  A state is *null* when nothing an act does there
can affect preference.  :func:`is_null` decides it by one rule, in every
regime and for signed utilities alike: the state is null when its belief
times the spread of the pool's arm values there leaves every act's value
indifferent.  The definition, patching each act's arm with every other
act's, is :func:`null_state_sweep`, kept as the reference the rule is
tested against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .errors import InvalidParameter, MissingModel, UnknownState
from .nsreal import NSReal, ONE, ZERO
from .prefcore import (
    Lottery,
    PrefOrdering,
    Regime,
    UtilityAssignment,
    compare_values,
    expected_utility,
)

__all__ = [
    "Act",
    "AAModel",
    "act_utility",
    "act_prefers",
    "constant_act",
    "is_null",
    "null_state_sweep",
    "null_state_analytic",
]


@dataclass(frozen=True)
class Act:
    """A total assignment of lotteries to states, stored sorted by state id."""

    arms: tuple[tuple[str, Lottery], ...]

    @staticmethod
    def from_mapping(mapping: Mapping[str, Lottery]) -> "Act":
        return Act(tuple(sorted(mapping.items())))

    @property
    def states(self) -> tuple[str, ...]:
        return tuple(state for state, _ in self.arms)

    def arm(self, state: str) -> Lottery:
        for candidate, lottery in self.arms:
            if candidate == state:
                return lottery
        raise UnknownState(f"act does not cover state {state!r}")

    def replacing(self, state: str, lottery: Lottery) -> "Act":
        """A copy of this act with one arm substituted."""
        self.arm(state)  # raises UnknownState for foreign states
        return Act(
            tuple(
                (candidate, lottery if candidate == state else existing)
                for candidate, existing in self.arms
            )
        )


@dataclass(frozen=True)
class AAModel:
    """A finite state space, a belief over it, outcome utilities, a regime.

    The belief must be a genuine probability vector.  A regime that requires
    standard probabilities (STD, NS_UTIL) requires a standard belief; passing
    ``validate=False`` skips that regime restriction (used by the test
    suite to demonstrate audit failures, never by normal construction).
    """

    states: tuple[str, ...]
    belief: tuple[tuple[str, NSReal], ...]
    utilities: UtilityAssignment
    regime: Regime
    validate: bool = field(default=True, compare=False)

    def __post_init__(self) -> None:
        if not self.states:
            raise InvalidParameter("state space must be nonempty")
        if len(set(self.states)) != len(self.states):
            raise InvalidParameter("state ids must be unique")
        belief_states = tuple(state for state, _ in self.belief)
        if sorted(belief_states) != sorted(self.states):
            raise InvalidParameter("belief must weigh exactly the states of the space")
        total = ZERO
        for state, weight in self.belief:
            if weight.sign() < 0:
                raise InvalidParameter(f"negative belief at state {state!r}")
            total = total + weight
        if total != ONE:
            raise InvalidParameter("belief weights must sum to exactly 1")
        if self.validate and self.regime.standard_probabilities:
            for state, weight in self.belief:
                if not weight.is_standard():
                    raise InvalidParameter(
                        f"regime {self.regime.value} requires a standard belief,"
                        f" state {state!r} violates it"
                    )

    def belief_at(self, state: str) -> NSReal:
        for candidate, weight in self.belief:
            if candidate == state:
                return weight
        raise UnknownState(f"no belief at state {state!r}")

    @staticmethod
    def from_mappings(
        states: Iterable[str],
        belief: Mapping[str, NSReal],
        utilities: UtilityAssignment,
        regime: Regime,
        validate: bool = True,
    ) -> "AAModel":
        ordered = tuple(states)
        # In the order of the states, then any state outside them, for
        # __post_init__ to refuse along with any state left unweighed.
        weights = [(state, belief[state]) for state in ordered if state in belief]
        weights += [(state, weight) for state, weight in belief.items() if state not in ordered]
        return AAModel(
            states=ordered,
            belief=tuple(weights),
            utilities=utilities,
            regime=regime,
            validate=validate,
        )


def act_utility(act: Act, model: AAModel) -> NSReal:
    """Belief-weighted expected utility of the act's lotteries."""
    total = ZERO
    for state in model.states:
        total = total + model.belief_at(state) * expected_utility(act.arm(state), model.utilities)
    return total


def act_prefers(first: Act, second: Act, model: AAModel) -> PrefOrdering:
    return compare_values(act_utility(first, model), act_utility(second, model), model.regime)


def constant_act(lottery: Lottery, states: Iterable[str]) -> Act:
    """The act paying the same lottery in every state."""
    arms = {state: lottery for state in states}
    if not arms:
        raise InvalidParameter("state space must be nonempty")
    return Act.from_mapping(arms)


def null_state_sweep(state: str, model: AAModel, acts: Iterable[Act]) -> bool:
    """Definitional nullity over a finite act pool: patching any pool act's
    arm at ``state`` with any other pool act's arm never changes preference."""
    pool = tuple(acts)
    if not pool:
        raise MissingModel("need at least one act to sweep")
    for base in pool:
        for other in pool:
            patched = base.replacing(state, other.arm(state))
            if act_prefers(base, patched, model) is not PrefOrdering.INDIFFERENT:
                return False
    return True


def is_null(state: str, model: AAModel, acts: Iterable[Act]) -> bool:
    """Whether the state can never matter to preference among these acts.

    Patching an act's arm at ``state`` with another pool act's arm moves
    its value by the belief there times the difference of the arm values:
    at most ``perturbation``, the belief times the spread of the pool's arm
    values, and, by the arm farther from its own, at least half of it.
    Whether ``base + x`` is indifferent to ``base`` depends only on x being
    zero (STD), on its standard part (NS_PROB) or on its order of magnitude
    (NS_UTIL, signed or not), which x/2 shares.  So the rule agrees with
    :func:`null_state_sweep`, which patches every pair.
    """
    pool = tuple(acts)
    if not pool:
        raise MissingModel("need at least one act to inspect")
    weight = model.belief_at(state)
    if weight.is_zero():
        return True
    arm_values = [expected_utility(act.arm(state), model.utilities) for act in pool]
    perturbation = weight * (max(arm_values) - min(arm_values))
    if perturbation.is_zero():
        return True
    for act in pool:
        base = act_utility(act, model)
        if compare_values(base + perturbation, base, model.regime) is not PrefOrdering.INDIFFERENT:
            return False
    return True


# The same rule under the name that sets it beside null_state_sweep.
null_state_analytic = is_null
