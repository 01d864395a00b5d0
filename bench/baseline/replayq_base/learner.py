"""Q-learning over batches of experience: single temporal-difference updates,
shuffled replay passes, epsilon-greedy draws, and the batch / growing-batch
training entry points."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Optional

from .core import (
    ActionId,
    ControlParams,
    ExperienceTuple,
    QTable,
    RLModel,
    StateId,
    batch_state_actions,
    greedy_action,
    policy_from_q,
)

LEARNING_RULE = "experienceReplay"


@dataclass(frozen=True)
class ReplayReport:
    """Outcome of one replay pass: batch reward sum and number of tuples seen."""

    total_reward: float
    tuples_processed: int


def _update_in_place(q: QTable, t: ExperienceTuple, alpha: float, gamma: float) -> None:
    # Unseen states/actions are registered so the bootstrap term is defined
    # (unknown rows read as all-zero).
    q.add_state(t.state)
    q.add_action(t.action)
    q.add_state(t.next_state)
    current = q.value(t.state, t.action)
    target = t.reward + gamma * q.best_value(t.next_state)
    updated = current + alpha * (target - current)
    if updated != current:
        q.set(t.state, t.action, updated)


def q_update(q: QTable, t: ExperienceTuple, alpha: float, gamma: float) -> QTable:
    """One backup of the learned value toward `reward + gamma * best next value`.

    Returns an updated copy; at most the (t.state, t.action) entry differs.
    The input table is never modified.
    """
    if not (0.0 <= alpha <= 1.0):
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    if not (0.0 <= gamma <= 1.0):
        raise ValueError(f"gamma must lie in [0, 1], got {gamma}")
    if not math.isfinite(t.reward):
        raise ValueError(f"reward must be finite, got {t.reward!r}")
    out = q.copy()
    _update_in_place(out, t, alpha, gamma)
    return out


def replay_pass(
    q: QTable,
    batch: List[ExperienceTuple],
    control: ControlParams,
    rng: random.Random,
) -> tuple[QTable, ReplayReport]:
    """Apply the update rule to every tuple of `batch` in a freshly shuffled order.

    Shuffling decorrelates consecutive samples; the caller owns the random
    stream, so repeated passes with one generator draw distinct orders while
    staying reproducible. The report's total reward is the plain sum of batch
    rewards and does not depend on the shuffle.
    """
    out = q.copy()
    order = list(batch)
    rng.shuffle(order)
    for t in order:
        _update_in_place(out, t, control.alpha, control.gamma)
    total = math.fsum(t.reward for t in batch)
    return out, ReplayReport(total_reward=total, tuples_processed=len(batch))


def learn(
    batch: List[ExperienceTuple],
    control: ControlParams,
    iterations: int = 1,
    seed: int = 0,
    prior: Optional[RLModel] = None,
) -> RLModel:
    """Train a model by replaying `batch` for `iterations` passes.

    Without `prior` the table starts fresh over the states and actions seen in
    the batch (next-states included). With `prior` its table is extended with
    any newly observed states/actions and training continues from its values;
    reward history and the iteration count accumulate across calls.

    Deterministic: identical (batch, control, iterations, seed, prior) inputs
    produce an identical model.
    """
    if not batch:
        raise ValueError("no training data")
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")

    if prior is None:
        q = QTable()
        history: List[float] = []
        completed = 0
    else:
        q = prior.q.copy()
        history = list(prior.reward_history)
        completed = prior.iterations_completed

    states, actions = batch_state_actions(batch)
    for s in states:
        q.add_state(s)
    for a in actions:
        q.add_action(a)

    rng = random.Random(seed)
    for _ in range(iterations):
        q, report = replay_pass(q, batch, control, rng)
        history.append(report.total_reward)

    return RLModel(
        q=q,
        policy=policy_from_q(q),
        control=control,
        iterations_completed=completed + iterations,
        reward_history=history,
        learning_rule=LEARNING_RULE,
    )


def update_model(
    model: RLModel,
    new_batch: List[ExperienceTuple],
    control: ControlParams,
    iterations: int = 1,
    seed: int = 0,
) -> RLModel:
    """Growing-batch step: continue training an existing model on new experience."""
    return learn(new_batch, control, iterations=iterations, seed=seed, prior=model)


def epsilon_greedy(q: QTable, state: StateId, epsilon: float, rng: random.Random) -> ActionId:
    """With probability `epsilon` a uniform draw over the full action set
    (the greedy action included), otherwise the greedy action."""
    if not (0.0 <= epsilon <= 1.0):
        raise ValueError(f"epsilon must lie in [0, 1], got {epsilon}")
    if not q.actions:
        raise ValueError("no actions defined")
    if rng.random() < epsilon:
        return rng.choice(q.actions)
    return greedy_action(q, state)
