"""Q-learning over batches of experience: shuffled replay passes of the
temporal-difference update, epsilon-greedy draws, and the batch /
growing-batch training entry points."""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import tee
from typing import Iterable, List, Optional

from .core import (
    ActionId,
    ControlParams,
    ExperienceBatch,
    ExperienceTuple,
    QTable,
    RLModel,
    StateId,
    _count,
    _epsilon_greedy,
    _shuffle,
)


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

    Without `prior` the table starts fresh over the states and actions seen in
    the batch (next-states included), built in one step from the batch's
    label tables, which are checked already; its rows and columns number the
    labels as the batch does. With `prior` its table is extended with any
    newly observed states/actions and training continues from its values;
    reward history and the iteration count accumulate across calls. Every
    label of the batch is registered before the first update, and `prior` is
    never modified: `learn([t], control, prior=m)` is one TD update of `m.q`.
    A batch that is not an ExperienceBatch is made into one first.

    Replay stops once a pass changes no value: the table is then a fixed
    point of every item's update, so each later pass, in any order, would
    change nothing either. The reward history and the iteration count still
    cover every pass asked for.

    Replay holds one `(s, a, r, s_new)` tuple of codes and a reward per
    distinct row, and a list as long as the batch that refers to them, so
    repeated rows cost one reference each; the batch's columns stay as given.
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

    if prior is None:
        # The batch's label tables are checked and distinct, and number the new table as they number the batch.
        q = QTable._of(batch.states, batch.actions, [[0.0] * len(batch.actions) for _ in batch.states])
        a, rows, v, history = batch.a, q.rows, [0.0] * len(q.rows), []
    else:
        q = prior.q.copy()
        # Each batch label maps to its column or row once. Actions register first,
        # so new rows are made at full width and the row references stay valid.
        columns = [q.add_action(label) for label in batch.actions]
        known = len(q.rows)
        indices = [q.add_state(label) for label in batch.states]
        rows = list(map(q.rows.__getitem__, indices))
        # A state new to the table has an all-zero row, so its maximum is 0.0.
        v = [max(q.rows[i]) if i < known else 0.0 for i in indices]
        a, history = map(columns.__getitem__, batch.a), list(prior.reward_history)
    # One item per distinct row, shared by its repeats, through a dict dropped
    # once built. Rows that compare equal make equal updates: rewards of 0.0
    # and -0.0 too, as a zero's sign never reaches a stored value. Items of
    # codes and a reward hold no container, so the cyclic collector untracks them.
    shared = {}
    items = list(map(shared.setdefault, *tee(zip(batch.s, a, batch.r, batch.s_new))))
    del shared
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
    states included, has the first action as its greedy one. Each call
    builds the whole greedy policy; `sample_experience` builds it once."""
    epsilon, actions, policy = _epsilon_greedy(q, epsilon)
    if rng.random() < epsilon:
        return rng.choice(actions)
    try:
        return policy.get(state, actions[0])
    except TypeError:  # an unhashable state, which is unknown too
        return actions[0]
