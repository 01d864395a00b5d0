"""Domain types shared across the package: experience tuples, learner
hyperparameters, the tabular state-action value store, and greedy policies."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Tuple

StateId = str
ActionId = str

# A greedy policy: one action per known state.
Policy = Dict[StateId, ActionId]

# Characters that would corrupt the delimited experience-file format.
_FORBIDDEN_CHARS = (",", "\n", "\r")


def validate_label(name: str, kind: str = "label") -> str:
    """Check that a state/action label is usable as a file-format field."""
    if not isinstance(name, str) or not name:
        raise ValueError(f"{kind} must be a non-empty string, got {name!r}")
    for ch in _FORBIDDEN_CHARS:
        if ch in name:
            raise ValueError(f"{kind} {name!r} contains forbidden character {ch!r}")
    return name


@dataclass(frozen=True)
class ExperienceTuple:
    """One observed transition: taking `action` in `state` produced `reward`
    and landed in `next_state`."""

    state: StateId
    action: ActionId
    reward: float
    next_state: StateId

    def __post_init__(self) -> None:
        validate_label(self.state, "state")
        validate_label(self.action, "action")
        validate_label(self.next_state, "next_state")
        reward = float(self.reward)
        if not math.isfinite(reward):
            raise ValueError(f"reward must be finite, got {self.reward!r}")
        object.__setattr__(self, "reward", reward)


@dataclass(frozen=True)
class ControlParams:
    """Learner hyperparameters: learning rate `alpha`, discount factor
    `gamma`, and exploration rate `epsilon`, each bounded to [0, 1]."""

    alpha: float = 0.1
    gamma: float = 0.5
    epsilon: float = 0.1

    def __post_init__(self) -> None:
        for name in ("alpha", "gamma", "epsilon"):
            value = getattr(self, name)
            if not (0.0 <= value <= 1.0):
                raise ValueError(f"{name} must lie in [0, 1], got {value}")


class QTable:
    """Mapping from (state, action) to an expected-reward estimate.

    States and actions are kept as ordered lists in first-registration order;
    that order is the tie-breaking rule for greedy lookups. Reading an
    unknown pair yields 0.0 and never materializes an entry.
    """

    __slots__ = ("states", "actions", "_values", "_known_states", "_known_actions")

    def __init__(self, states: Iterable[StateId] = (), actions: Iterable[ActionId] = ()) -> None:
        self.states: List[StateId] = []
        self.actions: List[ActionId] = []
        self._values: Dict[Tuple[StateId, ActionId], float] = {}
        self._known_states: set = set()
        self._known_actions: set = set()
        for s in states:
            self.add_state(s)
        for a in actions:
            self.add_action(a)

    def add_state(self, state: StateId) -> None:
        """Register a state; later registrations of the same state are no-ops."""
        if state not in self._known_states:
            validate_label(state, "state")
            self._known_states.add(state)
            self.states.append(state)

    def add_action(self, action: ActionId) -> None:
        if action not in self._known_actions:
            validate_label(action, "action")
            self._known_actions.add(action)
            self.actions.append(action)

    def value(self, state: StateId, action: ActionId) -> float:
        return self._values.get((state, action), 0.0)

    def set(self, state: StateId, action: ActionId, value: float) -> None:
        """Store a value, registering the state and action if new."""
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"value for ({state!r}, {action!r}) must be finite, got {value!r}")
        self.add_state(state)
        self.add_action(action)
        self._values[(state, action)] = value

    def best_value(self, state: StateId) -> float:
        """Largest value over the full action set; 0.0 when no actions exist."""
        best = None
        get = self._values.get
        for a in self.actions:
            v = get((state, a), 0.0)
            if best is None or v > best:
                best = v
        return 0.0 if best is None else best

    def copy(self) -> "QTable":
        out = QTable.__new__(QTable)
        out.states = list(self.states)
        out.actions = list(self.actions)
        out._values = dict(self._values)
        out._known_states = set(self._known_states)
        out._known_actions = set(self._known_actions)
        return out

    def _nonzero_values(self) -> Dict[Tuple[StateId, ActionId], float]:
        return {k: v for k, v in self._values.items() if v != 0.0}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QTable):
            return NotImplemented
        return (
            self.states == other.states
            and self.actions == other.actions
            and self._nonzero_values() == other._nonzero_values()
        )

    def __repr__(self) -> str:
        return f"QTable(states={len(self.states)}, actions={len(self.actions)}, entries={len(self._values)})"


def q_value(q: QTable, state: StateId, action: ActionId) -> float:
    """Stored value for (state, action), or 0.0 if the pair is unknown."""
    return q.value(state, action)


def greedy_action(q: QTable, state: StateId) -> ActionId:
    """Best-valued action in `state`; ties break to the earliest action.

    An unknown state reads as an all-zero row, so it resolves to the first
    registered action.
    """
    if not q.actions:
        raise ValueError("no actions defined")
    best = q.actions[0]
    best_value = q.value(state, best)
    for a in q.actions[1:]:
        v = q.value(state, a)
        if v > best_value:
            best, best_value = a, v
    return best


def policy_from_q(q: QTable) -> Policy:
    """Greedy policy over every registered state. Pure: `q` is not modified."""
    return {s: greedy_action(q, s) for s in q.states}


def batch_state_actions(batch: Iterable[ExperienceTuple]) -> Tuple[List[StateId], List[ActionId]]:
    """Distinct states (next-states included) and actions, in first-appearance order."""
    states: List[StateId] = []
    actions: List[ActionId] = []
    seen_s: set = set()
    seen_a: set = set()
    for t in batch:
        if t.state not in seen_s:
            seen_s.add(t.state)
            states.append(t.state)
        if t.action not in seen_a:
            seen_a.add(t.action)
            actions.append(t.action)
        if t.next_state not in seen_s:
            seen_s.add(t.next_state)
            states.append(t.next_state)
    return states, actions


@dataclass
class RLModel:
    """Trained artifact: the Q-table, its greedy policy, and learning metadata."""

    q: QTable
    policy: Policy
    control: ControlParams
    iterations_completed: int = 0
    reward_history: List[float] = field(default_factory=list)
    learning_rule: str = "experienceReplay"
