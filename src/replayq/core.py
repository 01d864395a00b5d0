"""Domain types shared across the package: experience tuples and batches,
learner hyperparameters, the tabular state-action value store, greedy
policies, and the environment contract."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, fields
from itertools import chain
from operator import attrgetter
from typing import TYPE_CHECKING, Callable, ClassVar, Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

if TYPE_CHECKING:
    from .oracle import ExplicitMDP

StateId = str
ActionId = str

# A greedy policy: one action per known state.
Policy = Dict[StateId, ActionId]

# Characters that would corrupt the delimited experience-file format.
_FORBIDDEN_CHARS = (",", "\n", "\r", '"')
# The csv module's default field_size_limit: a longer field cannot be read back.
_MAX_LABEL_LENGTH = 131_072


def validate_label(name: str, kind: str = "label") -> str:
    """Check that a state/action label is usable as a file-format field."""
    if not isinstance(name, str) or not name:
        raise ValueError(f"{kind} must be a non-empty string, got {name!r}")
    if len(name) > _MAX_LABEL_LENGTH:
        raise ValueError(f"{kind} is {len(name)} characters long, more than {_MAX_LABEL_LENGTH}")
    for ch in _FORBIDDEN_CHARS:
        if ch in name:
            raise ValueError(f"{kind} {name!r} contains forbidden character {ch!r}")
    if not name.isascii():
        try:
            name.encode("utf-8")
        except UnicodeEncodeError:
            raise ValueError(f"{kind} {name!r} is not valid Unicode text") from None
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
        try:
            reward = float(self.reward)
        except (TypeError, ValueError):
            raise ValueError(f"cannot parse reward {self.reward!r}") from None
        if not math.isfinite(reward):
            raise ValueError(f"reward must be finite, got {reward!r}")
        object.__setattr__(self, "reward", reward)


class _Codes(dict):
    """Label -> code in first-appearance order: looking up a new label gives it the next code.
    It is the package's one label numbering: every batch builder codes its labels through it."""

    def __missing__(self, label: StateId) -> int:
        code = self[label] = len(self)
        return code


class ExperienceBatch:
    """A batch of transitions held as columns, like a data frame of s, a, r and s_new.

    `states` and `actions` are label tables in first-appearance order, states
    taken per row as state, then next state; `s`, `a` and `s_new` hold each
    row's codes into them and `r` its reward. Columns are never modified in
    place. Iterating yields ExperienceTuples, and a batch equals a batch or a
    list of ExperienceTuples holding the same rows in the same order.
    """

    __slots__ = ("states", "actions", "s", "a", "r", "s_new")

    def __init__(self, rows: Iterable[ExperienceTuple] = ()) -> None:
        """The batch of `rows`, labels coded as rows arrive; given a batch, one sharing its columns.

        The checks are _from_codes'. A row with an unhashable label raises
        ValueError as ExperienceTuple would, once the rows before it pass.
        """
        if not isinstance(rows, ExperienceBatch):
            states, actions = _Codes(), _Codes()
            s, a, r, s_new = [], [], [], []
            for row in map(attrgetter("state", "action", "reward", "next_state"), rows):
                try:  # state before next state, so state codes follow first appearance
                    codes = states[row[0]], actions[row[1]], states[row[3]]
                except TypeError:  # an unhashable label
                    self._from_codes(list(states), list(actions), s, a, s_new, r)
                    ExperienceTuple(*row)
                    raise
                s.append(codes[0])
                a.append(codes[1])
                r.append(row[2])
                s_new.append(codes[2])
            rows = self._from_codes(list(states), list(actions), s, a, s_new, r)
        for name in self.__slots__:
            setattr(self, name, getattr(rows, name))

    @classmethod
    def _from_codes(cls, states: List[StateId], actions: List[ActionId], s: List[int], a: List[int],
                    s_new: List[int], rewards: Sequence[float], r: Optional[List[int]] = None,
                    where: Callable[[int], str] = lambda k: "") -> ExperienceBatch:
        """The batch of label tables and the code columns into them; the lists become the batch's own.

        `r` codes each row's reward into `rewards`, a table of distinct values
        that may be numeric text; without `r`, `rewards` holds one per row.
        Each label and each entry of `rewards` is checked once, and only a
        fault walks the rows to name the first bad one, as ExperienceTuple
        would, the message prefixed by `where(k)` for its 0-based index `k`.
        Codes are not range-checked and labels not checked for repeats: the
        tables and codes must come from `_Codes`, as every builder's do.
        """
        if not len(s) == len(a) == len(s_new) == len(rewards if r is None else r):
            raise ValueError("code columns must be equally long")
        try:
            values = list(map(float, rewards))
            for label in chain(states, actions):
                validate_label(label)
            valid = all(map(math.isfinite, values))
        except (TypeError, ValueError):
            valid = False
        if not valid:
            tables = (states, actions, rewards, states)
            codes = (s, a, range(len(s)) if r is None else r, s_new)
            for k, row in enumerate(zip(*(map(t.__getitem__, c) for t, c in zip(tables, codes)))):
                try:
                    ExperienceTuple(*row)
                except ValueError as exc:
                    raise ValueError(f"{where(k)}{exc}") from None
        batch = cls.__new__(cls)
        batch.states, batch.actions, batch.s, batch.a, batch.s_new = states, actions, s, a, s_new
        batch.r = values if r is None else list(map(values.__getitem__, r))
        return batch

    def __len__(self) -> int:
        return len(self.s)

    def __iter__(self) -> Iterator[ExperienceTuple]:
        states, actions = self.states, self.actions
        for s, a, r, s2 in zip(self.s, self.a, self.r, self.s_new):
            t = object.__new__(ExperienceTuple)  # fields already checked: skip __post_init__
            t.__dict__.update(state=states[s], action=actions[a], reward=r, next_state=states[s2])
            yield t

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ExperienceBatch):
            # The label tables and codes are a function of the rows, so equal rows mean equal columns.
            return all(getattr(self, name) == getattr(other, name) for name in self.__slots__)
        return list(self) == other if isinstance(other, list) else NotImplemented


@dataclass(frozen=True)
class ControlParams:
    """Learner hyperparameters: learning rate `alpha`, discount factor
    `gamma`, and exploration rate `epsilon`, each bounded to [0, 1]."""

    alpha: float = 0.1
    gamma: float = 0.5
    epsilon: float = 0.1

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not (0.0 <= value <= 1.0):
                raise ValueError(f"{f.name} must lie in [0, 1], got {value}")


class QTable:
    """Mapping from (state, action) to an expected-reward estimate.

    `rows` holds one dense row per state, one value per action; `state_index`
    and `action_index` number the labels in first-registration order, which
    is the tie-breaking rule for greedy lookups. Reading an unknown pair
    yields 0.0 and never materializes an entry.
    """

    __slots__ = ("state_index", "action_index", "rows")

    def __init__(self, states: Iterable[StateId] = (), actions: Iterable[ActionId] = ()) -> None:
        self.state_index: Dict[StateId, int] = {}
        self.action_index: Dict[ActionId, int] = {}
        self.rows: List[List[float]] = []
        # Actions first, so rows are created at full width.
        for kind, labels, add in (("action", actions, self.add_action), ("state", states, self.add_state)):
            for k, label in enumerate(labels):
                if add(label) != k:
                    raise ValueError(f"{kind} {label!r} is listed more than once")

    @property
    def states(self) -> List[StateId]:
        return list(self.state_index)

    @property
    def actions(self) -> List[ActionId]:
        return list(self.action_index)

    def add_state(self, state: StateId) -> int:
        """Register a state and return its row; re-registering is a no-op."""
        i = self.state_index.get(state)
        if i is None:
            validate_label(state, "state")
            i = self.state_index[state] = len(self.rows)
            self.rows.append([0.0] * len(self.action_index))
        return i

    def add_action(self, action: ActionId) -> int:
        """Register an action and return its column, widening every row when new."""
        j = self.action_index.get(action)
        if j is None:
            validate_label(action, "action")
            j = self.action_index[action] = len(self.action_index)
            for row in self.rows:
                row.append(0.0)
        return j

    def value(self, state: StateId, action: ActionId) -> float:
        try:
            return self.rows[self.state_index[state]][self.action_index[action]]
        except KeyError:
            return 0.0

    def set(self, state: StateId, action: ActionId, value: float) -> None:
        """Store a value, registering the state and action if new."""
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"value for ({state!r}, {action!r}) must be finite, got {value!r}")
        i = self.add_state(state)
        j = self.add_action(action)
        self.rows[i][j] = value

    def copy(self) -> "QTable":
        out = QTable.__new__(QTable)
        out.state_index = dict(self.state_index)
        out.action_index = dict(self.action_index)
        out.rows = [row[:] for row in self.rows]
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QTable):
            return NotImplemented
        return (
            self.state_index == other.state_index
            and self.action_index == other.action_index
            and self.rows == other.rows
        )

    def __repr__(self) -> str:
        return f"QTable(states={len(self.state_index)}, actions={len(self.action_index)})"


def policy_from_q(q: QTable) -> Policy:
    """Greedy policy over every registered state: the argmax of each state's
    row, ties broken to the earliest action. Pure: `q` is not modified."""
    actions = q.actions
    if not actions and q.rows:
        raise ValueError("no actions defined")
    # max() returns the first of equal maxima, and index() finds it first.
    return {s: actions[row.index(max(row))] for s, row in zip(q.state_index, q.rows)}


def _epsilon_greedy(q: QTable, epsilon: float) -> Callable[[StateId, random.Random], ActionId]:
    """`draw(state, rng)`: with probability `epsilon` a uniform pick over the full
    action set, else the greedy action of `policy_from_q(q)`, built once here.
    An unknown state reads as an all-zero row, so it takes the first action."""
    if not (0.0 <= epsilon <= 1.0):
        raise ValueError(f"epsilon must lie in [0, 1], got {epsilon}")
    actions = q.actions
    if not actions:
        raise ValueError("no actions defined")
    policy = policy_from_q(q)

    def draw(state: StateId, rng: random.Random) -> ActionId:
        if rng.random() < epsilon:
            return rng.choice(actions)
        return policy.get(state, actions[0])

    return draw


@dataclass
class RLModel:
    """Trained artifact: the Q-table, the control it was fitted with, and the
    batch's reward total for each replay pass asked for."""

    q: QTable
    control: ControlParams
    reward_history: List[float] = field(default_factory=list)
    learning_rule: ClassVar[str] = "experienceReplay"  # the package's only rule

    @property
    def iterations_completed(self) -> int:
        """The replay passes asked for: one reward total is recorded per pass."""
        return len(self.reward_history)

    @property
    def policy(self) -> Policy:
        """The greedy policy of `q`, recomputed on every access."""
        return policy_from_q(self.q)


class EnvResponse(NamedTuple):
    next_state: StateId
    reward: float


# Takes (state, action, rng); deterministic environments ignore the rng.
StepFn = Callable[[StateId, ActionId, random.Random], EnvResponse]


@dataclass(frozen=True)
class Environment:
    """Ordered state/action sets plus a step function, closed over its states.

    `exact_mdp`, when provided, builds the environment's true dynamics for
    model-based verification.
    """

    name: str
    states: Tuple[StateId, ...]
    actions: Tuple[ActionId, ...]
    step: StepFn
    exact_mdp: Optional[Callable[[], ExplicitMDP]] = None
