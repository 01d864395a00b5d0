"""Q-learning over batches of experience: shuffled replay passes of the
temporal-difference update, epsilon-greedy draws, and the batch /
growing-batch training entry points."""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Iterable, List, Optional

from .core import (
    ActionId,
    ControlParams,
    ExperienceBatch,
    ExperienceTuple,
    QTable,
    RLModel,
    StateId,
    _epsilon_greedy,
)


def _backup(items: Iterable[tuple], rows: List[List[float]], v: List[float], alpha: float, gamma: float) -> bool:
    """The TD update, applied in place to each `(s, a, r, s_new)` item in turn;
    returns whether any update changed a value.

    `s` and `s_new` index `rows`, and `a` a column. `v` caches each row's
    maximum for the target: `v[s] == max(rows[s])` holds before and after
    every update, and a row is scanned only when its maximum was lowered.
    """
    changed = False
    for s, a, reward, s_new in items:
        row = rows[s]
        current = row[a]
        updated = current + alpha * (reward + gamma * v[s_new] - current)
        if updated != current:
            changed = True
            row[a] = updated
            if updated > v[s]:
                v[s] = updated
            elif current == v[s]:
                v[s] = max(row)
    return changed


def _check_finite(q: QTable, states: Iterable[StateId]) -> None:
    """Raise on a non-finite value in the rows of `states`, the rows updates write."""
    for s in states:
        for a, value in zip(q.action_index, q.rows[q.state_index[s]]):
            if not math.isfinite(value):
                raise ValueError(f"value for ({s!r}, {a!r}) must be finite, got {value!r}")


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
    the batch (next-states included). With `prior` its table is extended with
    any newly observed states/actions and training continues from its values;
    reward history and the iteration count accumulate across calls. Every
    label of the batch is registered before the first update, and `prior` is
    never modified: `learn([t], control, prior=m)` is one TD update of `m.q`.
    A batch that is not an ExperienceBatch is made into one first.

    Replay stops once a pass changes no value: the table is then a fixed
    point of every item's update, so each later pass, in any order, would
    change nothing either. The reward history and the iteration count still
    cover every pass asked for.

    Deterministic: identical (batch, control, iterations, seed, prior) inputs
    produce an identical model.
    """
    batch = ExperienceBatch(batch)
    if not batch:
        raise ValueError("no training data")
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")

    if prior is None:
        prior = RLModel(QTable(), control)
    q = prior.q.copy()
    # Each batch label maps to its column or row once. Actions register first,
    # so new rows are made at full width and the row references stay valid.
    columns = [q.add_action(label) for label in batch.actions]
    rows = [q.rows[q.add_state(label)] for label in batch.states]
    # Items of codes and a reward hold no container, so the cyclic collector untracks them.
    items = list(zip(batch.s, map(columns.__getitem__, batch.a), batch.r, batch.s_new))
    v = list(map(max, rows))
    touched = [batch.states[s] for s in dict.fromkeys(batch.s)]
    history = list(prior.reward_history) + [_reward_total(batch.r)] * iterations
    rng = random.Random(seed)
    for _ in range(iterations):
        # Shuffling a list as long as the batch draws the same permutation.
        order = items[:]
        rng.shuffle(order)
        changed = _backup(order, rows, v, control.alpha, control.gamma)
        _check_finite(q, touched)
        if not changed:
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
    (the greedy action included), otherwise the greedy action. Each call
    builds the whole greedy policy; `sample_experience` builds it once."""
    return _epsilon_greedy(q, epsilon)(state, rng)
