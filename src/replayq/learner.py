"""Q-learning over batches of experience: shuffled replay passes of the
temporal-difference update, epsilon-greedy draws, and the batch /
growing-batch training entry points."""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import filterfalse, tee
from typing import Dict, Iterable, List, Optional, Tuple

from .core import (
    ActionId,
    ControlParams,
    ExperienceBatch,
    ExperienceTuple,
    QTable,
    RLModel,
    StateId,
    _count,
    _rate,
    _shuffle,
    policy_from_q,
)

# Replay shares one item among a row's repeats only in a batch of more rows than this. Sharing bounds the memory
# of a large batch, and its dict costs more than it saves below this size: 2**13 is where the two builds crossed
# in time when measured on tic-tac-toe batches (2 cores, CPython 3.11.7).
_SHARE_ABOVE = 2**13


def _backup(items: Iterable[tuple], rows: List[List[float]], v: List[float], alpha: float, gamma: float,
            states: List[StateId], actions: List[ActionId]) -> bool:
    """The TD update, applied in place to each `(s, a, r, s_new)` item in turn;
    returns whether any update changed a value.

    `s` and `s_new` index `rows` and `states`, and `a` a column and `actions`.
    `v` caches each row's maximum for the target: `v[s] == max(rows[s])` holds
    before and after every update, and a row is scanned only when its maximum
    was lowered. A value that is not finite raises ValueError before it is stored.
    """
    changed = False
    for s, a, reward, s_new in items:
        row = rows[s]
        current = row[a]
        updated = current + alpha * (reward + gamma * v[s_new] - current)
        if updated != current:
            if not math.isfinite(updated):
                raise ValueError(f"value for ({states[s]!r}, {actions[a]!r}) must be finite, got {updated!r}")
            changed = True
            row[a] = updated
            if updated > v[s]:
                v[s] = updated
            elif current == v[s]:
                v[s] = max(row)
    return changed


def _table_labels(held: List, numbering: Dict[str, int], labels: List) -> Tuple[List, bool]:
    """`held`, then those of a batch's `labels` that `numbering` (held's) lacks, in batch order, and whether
    that list numbers `labels` as the batch does."""
    merged = held + list(filterfalse(numbering.__contains__, labels))
    return merged, merged[:len(labels)] == labels


def _reward_total(rewards: List[float]) -> float:
    """The batch's reward total, rounded once as `math.fsum` rounds it."""
    try:
        return math.fsum(rewards)
    except OverflowError:  # a partial sum overflowed, but the total may not: sum exactly
        exact = sum(map(Fraction, rewards))
    try:
        return float(exact)
    except OverflowError:
        raise ValueError(f"the batch's reward total must be finite, got {'-' if exact < 0 else ''}inf") from None


def learn(
    batch: Iterable[ExperienceTuple],
    control: ControlParams,
    iterations: int = 1,
    seed: int = 0,
    prior: Optional[RLModel] = None,
) -> RLModel:
    """Train a model by replaying `batch` for `iterations` passes.

    The table is built in one step: `prior`'s labels and values, or none,
    then the batch's states (next states included) and actions it lacks, in
    the order the batch first shows them. A fresh fit thus numbers the labels
    as the batch does, and a continued one trains on from the prior's values;
    reward history and the iteration count accumulate across calls. Every
    label of the batch is registered before the first update, and `prior` is
    never modified: `learn([t], control, prior=m)` is one TD update of `m.q`.
    A batch that is not an ExperienceBatch is made into one first; its label
    tables are checked already, so the table's labels are not checked again.

    Replay stops once a pass changes no value: the table is then a fixed
    point of every item's update, so each later pass, in any order, would
    change nothing either. The reward history and the iteration count still
    cover every pass asked for.

    Replay holds a list as long as the batch of `(s, a, r, s_new)` tuples of
    codes and a reward, one per row; in a batch of more than `_SHARE_ABOVE`
    (8,192) rows, one tuple per distinct row, which its repeats refer to, so
    they cost one reference each. The batch's columns stay as given.
    Deterministic: identical (batch, control, iterations, seed, prior) inputs
    produce an identical model. Each pass replays a copy of that list, in
    batch order, shuffled as `shuffle` of one `random.Random(seed)` would.
    `iterations` is an integer of at least 1, a bool is not, and it is checked
    before the batch is read. Every refusal is a ValueError; an update whose
    value is not finite is refused before it is stored, naming the first such
    (state, action) pair in replay order.
    """
    iterations = _count("iterations", iterations)
    batch = ExperienceBatch(batch)
    if not batch:
        raise ValueError("no training data")

    # A fresh fit continues an empty model. The batch's labels new to the base
    # table follow the table's own, in batch order.
    start = prior or RLModel(QTable(), control)
    base = start.q
    actions, same_actions = _table_labels(base.actions, base.action_index, batch.actions)
    states, same_states = _table_labels(base.states, base.state_index, batch.states)
    # The base's rows widen as copies, so `prior` is never modified; a new row is all zero, its maximum 0.0.
    pad, fresh = [0.0] * (len(actions) - len(base.action_index)), states[len(base.rows):]
    widened = [row + pad for row in base.rows]
    maxima = list(map(max, widened)) + [0.0] * len(fresh)
    q = QTable._of(states, actions, widened + [[0.0] * len(actions) for _ in fresh])
    # Where the table numbers a kind of label as the batch does, as in every fresh fit, the batch's codes index it
    # as they are; else each state code maps to its table row and that row's maximum, each action code to its column.
    rows, v, a = q.rows, maxima, batch.a
    if not same_states:
        indices = list(map(q.state_index.__getitem__, batch.states))
        rows, v = list(map(rows.__getitem__, indices)), list(map(maxima.__getitem__, indices))
    if not same_actions:
        columns = list(map(q.action_index.__getitem__, batch.actions))
        a = map(columns.__getitem__, batch.a)
    history = list(start.reward_history)
    # Items of codes and a reward hold no container, so the cyclic collector untracks them.
    items = zip(batch.s, a, batch.r, batch.s_new)
    if len(batch) > _SHARE_ABOVE:
        # One item per distinct row, shared by its repeats, through a dict dropped once built. Rows that compare
        # equal make equal updates: rewards of 0.0 and -0.0 too, as a zero's sign never reaches a stored value.
        items = map({}.setdefault, *tee(items))
    items = list(items)
    history += [_reward_total(batch.r)] * iterations
    getrandbits = random.Random(seed).getrandbits
    for _ in range(iterations):
        # Shuffling a list as long as the batch draws the same permutation.
        order = items[:]
        _shuffle(order, getrandbits)
        if not _backup(order, rows, v, control.alpha, control.gamma, batch.states, q.actions):
            break

    return RLModel(q=q, control=control, reward_history=history)


def update_model(
    model: RLModel,
    new_batch: Iterable[ExperienceTuple],
    control: ControlParams,
    iterations: int = 1,
    seed: int = 0,
) -> RLModel:
    """Growing-batch step: continue training an existing model on new experience."""
    return learn(new_batch, control, iterations=iterations, seed=seed, prior=model)


def epsilon_greedy(q: QTable, state: StateId, epsilon: float, rng: random.Random) -> ActionId:
    """With probability `epsilon` a uniform draw over the full action set
    (the greedy action included), otherwise the greedy action, drawn by
    `rng.random` and `rng.choice`; a state `q` does not hold, unhashable
    states included, has the first action as its greedy one. Only the
    state's own row is read."""
    epsilon, actions = _rate("epsilon", epsilon), q.actions
    if not actions:
        raise ValueError("no actions defined")
    if rng.random() < epsilon:
        return rng.choice(actions)
    try:
        row = q.rows[q.state_index[state]]
    except (KeyError, TypeError):  # TypeError: an unhashable state, which is unknown too
        return actions[0]
    return policy_from_q(QTable._of([state], actions, [row]))[state]
