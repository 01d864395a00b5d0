"""Domain types shared across the package: experience tuples and batches,
learner hyperparameters, the tabular state-action value store, greedy
policies, and the environment contract."""

from __future__ import annotations

import math
import numbers
import random
from dataclasses import dataclass, field, fields
from operator import attrgetter, index
from typing import TYPE_CHECKING, Callable, ClassVar, Dict, Iterable, Iterator, List, NamedTuple, Optional, Tuple

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
    """Check that a state/action label is usable as a file-format field and as a table key; return its text.

    The text, `str.__str__(name)`, is an exact `str`, and every table stores it, so no table holds a `str`
    subclass. A subclass stands for its text only if it hashes as its text and compares equal to it.
    """
    if not isinstance(name, str) or not name:
        raise ValueError(f"{kind} must be a non-empty string, got {name!r}")
    text = str.__str__(name)
    if type(name) is not str:
        try:
            hashed = hash(name)
        except TypeError:  # a str subclass may refuse hashing
            raise ValueError(f"{kind} {name!r} is not hashable") from None
        try:
            comparable = name == text
        except TypeError:
            comparable = False
        if not comparable:
            raise ValueError(f"{kind} {name!r} does not compare equal to its text")
        if hashed != hash(text):  # a table would hold it apart from its text
            raise ValueError(f"{kind} {name!r} does not hash as its text")
    if len(text) > _MAX_LABEL_LENGTH:
        raise ValueError(f"{kind} is {len(text)} characters long, more than {_MAX_LABEL_LENGTH}")
    for ch in _FORBIDDEN_CHARS:
        if ch in text:
            raise ValueError(f"{kind} {name!r} contains forbidden character {ch!r}")
    if not text.isascii():
        try:
            text.encode("utf-8")
        except UnicodeEncodeError:
            raise ValueError(f"{kind} {name!r} is not valid Unicode text") from None
    return text


def _validate_labels(labels: List, kind: str = "label") -> List:
    """Check a whole label list, refusing what `validate_label` refuses and a repeated label; return their texts.

    The list is checked at once, through its joined text, and returned as
    given when every label is an exact `str`. Else it is walked, to raise
    `validate_label`'s message, or QTable's for a repeat, at the first bad
    label, or to return the labels' texts.
    """
    try:
        text = "".join(labels)  # a TypeError unless every label is a string
        text.isascii() or text.encode("utf-8")  # Python pairs no surrogates, so joining mends none
        valid = (set(map(type, labels)) <= {str} and all(labels)
                 and max(map(len, labels), default=0) <= _MAX_LABEL_LENGTH
                 and not any(ch in text for ch in _FORBIDDEN_CHARS) and len(set(labels)) == len(labels))
    except (TypeError, UnicodeEncodeError):
        valid = False
    if valid:
        return labels
    texts = {}
    for label in labels:
        text = validate_label(label, kind)
        if text in texts:
            raise ValueError(f"{kind} {label!r} is listed more than once")
        texts[text] = None
    return list(texts)


@dataclass(frozen=True)
class ExperienceTuple:
    """One observed transition: taking `action` in `state` produced `reward`
    and landed in `next_state`."""

    state: StateId
    action: ActionId
    reward: float
    next_state: StateId

    def __post_init__(self) -> None:
        labels = {name: validate_label(getattr(self, name), name) for name in ("state", "action", "next_state")}
        try:
            reward = float(self.reward)
        except OverflowError:  # an int or Fraction beyond floats: the infinity it rounds to, as "1e400" is
            reward = math.inf if self.reward > 0 else -math.inf
        except (TypeError, ValueError):
            raise ValueError(f"cannot parse reward {self.reward!r}") from None
        if not math.isfinite(reward):
            raise ValueError(f"reward must be finite, got {reward!r}")
        self.__dict__.update(labels, reward=reward)  # each label held as its text


class _Codes(dict):
    """Label -> code in first-appearance order: looking up a new label gives it the next code.
    It is the package's one label numbering: every batch builder codes its labels through it.

    An exact `str` is stored as it is, to be checked with its batch. Any other
    label is checked here and stored as its text; one `validate_label` refuses
    raises TypeError, so that the builder's refusal names its row."""

    def __missing__(self, label: StateId) -> int:
        if type(label) is not str:  # coded by its text, which may hold a code already
            try:
                return self[validate_label(label)]
            except ValueError:  # the builder's refusal names the row
                raise TypeError from None
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

        The checks are _from_codes'; a label is held as its text. A row with a
        label `_Codes` refuses, an unhashable one included, raises ValueError
        as ExperienceTuple would, once the rows before it pass.
        """
        if not isinstance(rows, ExperienceBatch):
            states, actions = _Codes(), _Codes()
            codes = []
            for row in map(attrgetter("state", "action", "reward", "next_state"), rows):
                try:  # state before next state, so state codes follow first appearance
                    codes += states[row[0]], actions[row[1]], row[2], states[row[3]]
                except TypeError:  # a label _Codes refuses, or one whose hash or == failed in its lookup
                    _code_by_text(states, actions, codes, row)
            rows = self._from_codes(states, actions, codes)
        for name in self.__slots__:
            setattr(self, name, getattr(rows, name))

    @classmethod
    def _from_codes(cls, states: Iterable[StateId], actions: Iterable[ActionId], codes: List,
                    rewards: Optional[Iterable] = None, where: Callable[[int], str] = lambda k: "") -> ExperienceBatch:
        """The batch of label tables and `codes`, four per row (s, a, r, s_new), cut here into columns.

        `codes` is emptied, so no builder holds both forms; builders grow one
        list because four grown side by side fragmented the heap by ~8 MB at
        100k games. With `rewards`, a table of distinct values that may be
        numeric text, the r entries code into it; without, they are the rewards.
        Each label is checked once, and the reward values through their sum, at
        C level: an IEEE sum is finite only when every term is, as inf and NaN
        absorb. Only a fault, or a sum of finite values that overflows, walks the
        rows, to name the first bad one as ExperienceTuple would, the message
        prefixed by `where(k)` for its 0-based index `k`; a walk that finds none
        builds the batch as the sum would have. Codes are not range-checked nor
        a repeated label refused: both come from `_Codes`.
        """
        s, a, r, s_new = (codes[c::4] for c in range(4))
        codes.clear()
        states, actions = list(states), list(actions)
        table = r if rewards is None else list(rewards)
        try:
            values = list(map(float, table))
            _validate_labels(states)
            _validate_labels(actions)
            valid = math.isfinite(sum(values))
        except (TypeError, ValueError, OverflowError):
            valid = False
        if not valid:
            tables = (states, actions, table, states)
            columns = (s, a, range(len(s)) if rewards is None else r, s_new)
            for k, row in enumerate(zip(*(map(t.__getitem__, c) for t, c in zip(tables, columns)))):
                try:
                    ExperienceTuple(*row)
                except ValueError as exc:
                    raise ValueError(f"{where(k)}{exc}") from None
        batch = cls.__new__(cls)
        batch.states, batch.actions, batch.s, batch.a, batch.s_new = states, actions, s, a, s_new
        batch.r = values if rewards is None else list(map(values.__getitem__, r))
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


def _code_by_text(states: _Codes, actions: _Codes, codes: List, row: Tuple) -> None:
    """Code a (state, action, reward, next_state) row whose coding raised TypeError by its labels' texts, once
    the rows before it and the row itself pass, so that the first bad row is refused as ExperienceBatch(rows)
    refuses it. A row that passes, whose label's hash or == failed only in its lookup, is never dropped."""
    ExperienceBatch._from_codes(states, actions, codes[:])  # a copy, as this empties the list it checks
    row = ExperienceTuple(*row)
    codes += states[row.state], actions[row.action], row.reward, states[row.next_state]


def _rate(name: str, value: float) -> float:
    """`value` as a float in [0, 1]; a bool is refused, as `_count` refuses one."""
    # bool is an int subclass, but True is no rate
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
    return float(value)


@dataclass(frozen=True)
class ControlParams:
    """Learner hyperparameters: learning rate `alpha`, discount factor
    `gamma`, and exploration rate `epsilon`, each stored as a float in [0, 1]."""

    alpha: float = 0.1
    gamma: float = 0.5
    epsilon: float = 0.1

    def __post_init__(self) -> None:
        for f in fields(self):
            object.__setattr__(self, f.name, _rate(f.name, getattr(self, f.name)))


class QTable:
    """Mapping from (state, action) to an expected-reward estimate.

    `rows` holds one dense row per state, one value per action; `state_index`
    and `action_index` number the labels in first-registration order, which
    is the tie-breaking rule for greedy lookups. Reading an unknown pair,
    unhashable labels included, yields 0.0 and never materializes an entry;
    registering a bad label raises ValueError, and a good one holds its text.
    """

    __slots__ = ("state_index", "action_index", "rows")

    def __init__(self, states: Iterable[StateId] = (), actions: Iterable[ActionId] = ()) -> None:
        actions = _validate_labels(list(actions), "action")  # actions are checked first
        states = _validate_labels(list(states), "state")
        self.state_index: Dict[StateId, int] = dict(zip(states, range(len(states))))
        self.action_index: Dict[ActionId, int] = dict(zip(actions, range(len(actions))))
        self.rows: List[List[float]] = [[0.0] * len(actions) for _ in states]

    @classmethod
    def _of(cls, states: List[StateId], actions: List[ActionId], rows: List[List[float]]) -> QTable:
        """The table holding `rows`, one per state, built in one step over label
        lists that `_validate_labels` passes; nothing is checked or copied here."""
        q = cls.__new__(cls)
        q.state_index = dict(zip(states, range(len(states))))
        q.action_index = dict(zip(actions, range(len(actions))))
        q.rows = rows
        return q

    @property
    def states(self) -> List[StateId]:
        return list(self.state_index)

    @property
    def actions(self) -> List[ActionId]:
        return list(self.action_index)

    def value(self, state: StateId, action: ActionId) -> float:
        try:
            return self.rows[self.state_index[state]][self.action_index[action]]
        except (KeyError, TypeError):  # TypeError: an unhashable label, which is unknown too
            return 0.0

    def set(self, state: StateId, action: ActionId, value: float) -> None:
        """Store a value, registering the state and action if new: the table's
        one mutator. The value and both labels are checked before anything
        changes, so a refused call leaves the table as it was; a new label is
        stored as its text."""
        try:
            value = float(value)
        except OverflowError:  # refused below as the infinity it rounds to, as ExperienceTuple refuses it
            value = math.inf if value > 0 else -math.inf
        except (TypeError, ValueError):
            raise ValueError(f"cannot parse value {value!r} for ({state!r}, {action!r})") from None
        if not math.isfinite(value):
            raise ValueError(f"value for ({state!r}, {action!r}) must be finite, got {value!r}")
        state, action = validate_label(state, "state"), validate_label(action, "action")
        i, j = self.state_index.get(state), self.action_index.get(action)
        if j is None:
            j = self.action_index[action] = len(self.action_index)
            for row in self.rows:
                row.append(0.0)
        if i is None:  # after the action, so the new row is made at full width
            i = self.state_index[state] = len(self.rows)
            self.rows.append([0.0] * len(self.action_index))
        self.rows[i][j] = value

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


def _count(name: str, value: int) -> int:
    """`value` as an int of at least 1: anything with `__index__` but a bool,
    as ControlParams refuses a bool rate. Every refusal is a ValueError."""
    if isinstance(value, bool):
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
    try:
        value = index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}") from None
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")
    return value


def _shuffle(x: list, getrandbits: Callable[[int], int]) -> None:
    """Shuffle `x` in place exactly as `random.Random.shuffle` does, leaving the
    generator in the same state.

    Fisher–Yates from the end: position i swaps with a uniform pick j in
    [0, i], drawn inline as CPython draws it: `getrandbits((i + 1).bit_length())`,
    redrawn until it is at most i. Pass only the `getrandbits` of a plain
    `random.Random`: CPython draws by `getrandbits` only in a class that does not
    override `random()` alone, so a subclass that does draws differently.
    """
    for k in range(len(x).bit_length(), 1, -1):
        # Every i whose i + 1 has k bits, from the top down, draws k bits at a time.
        for i in reversed(range((1 << (k - 1)) - 1, min(len(x), (1 << k) - 1))):
            j = getrandbits(k)
            while j > i:
                j = getrandbits(k)
            x[i], x[j] = x[j], x[i]


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

    `states` and `actions`, given as any iterables, are checked as QTable
    checks its labels, actions first, and held as tuples of their texts; an
    empty list, or one holding an invalid or repeated label, is refused with
    ValueError. The step is called with those texts. `exact_mdp`, when
    provided, builds the environment's true dynamics for model-based
    verification.
    """

    name: str
    states: Tuple[StateId, ...]
    actions: Tuple[ActionId, ...]
    step: StepFn
    exact_mdp: Optional[Callable[[], ExplicitMDP]] = None

    def __post_init__(self) -> None:
        for field_name, kind in (("actions", "action"), ("states", "state")):
            labels = list(getattr(self, field_name))
            if not labels:
                raise ValueError(f"environment {self.name!r} has no {field_name}")
            object.__setattr__(self, field_name, tuple(_validate_labels(labels, kind)))
