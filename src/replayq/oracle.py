"""Model-based verification tools: explicit finite MDPs, value iteration to
the Bellman fixed point, and empirical MDP estimation from experience batches."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .core import ActionId, ExperienceTuple, QTable, StateId, batch_state_actions

_ROW_SUM_TOL = 1e-9


@dataclass
class ExplicitMDP:
    """A finite MDP with dense transition and reward tables.

    `transition[s, a, s2]` is the probability of moving from state index `s`
    to `s2` under action index `a`; `reward[s, a, s2]` is the reward received
    on that move. `coverage[s, a]` is False for pairs that were never
    observed when the model was estimated from data (such pairs are filled
    with a zero-reward self-loop); None means the dynamics are fully known.
    """

    states: List[StateId]
    actions: List[ActionId]
    transition: np.ndarray
    reward: np.ndarray
    coverage: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        n_states, n_actions = len(self.states), len(self.actions)
        expected = (n_states, n_actions, n_states)
        self.transition = np.asarray(self.transition, dtype=float)
        self.reward = np.asarray(self.reward, dtype=float)
        if self.transition.shape != expected:
            raise ValueError(f"transition table must have shape {expected}, got {self.transition.shape}")
        if self.reward.shape != expected:
            raise ValueError(f"reward table must have shape {expected}, got {self.reward.shape}")
        if not np.isfinite(self.reward).all():
            raise ValueError("reward table contains non-finite values")


def _check_stochastic(mdp: ExplicitMDP) -> None:
    row_sums = mdp.transition.sum(axis=2)
    bad = np.abs(row_sums - 1.0) > _ROW_SUM_TOL
    if bad.any():
        s, a = np.argwhere(bad)[0]
        raise ValueError(
            f"non-stochastic transition row for ({mdp.states[s]!r}, {mdp.actions[a]!r}): "
            f"probabilities sum to {row_sums[s, a]!r}"
        )


def value_iteration(mdp: ExplicitMDP, gamma: float, tol: float = 1e-9, max_sweeps: int = 1_000_000) -> QTable:
    """Solve for the optimal state-action values of an explicit MDP.

    Sweeps synchronous backups from a zero table until successive iterates
    differ by less than `tol` in sup norm, which bounds the Bellman residual
    of the returned table by `gamma * tol`.
    """
    if not (0.0 <= gamma < 1.0):
        raise ValueError(f"gamma must lie in [0, 1), got {gamma}")
    if not tol > 0.0:  # also refuses NaN
        raise ValueError(f"tol must be positive, got {tol}")
    _check_stochastic(mdp)

    expected_reward = (mdp.transition * mdp.reward).sum(axis=2)
    q = np.zeros((len(mdp.states), len(mdp.actions)))
    for _ in range(max_sweeps):
        v = q.max(axis=1)
        q_next = expected_reward + gamma * (mdp.transition @ v)
        delta = float(np.abs(q_next - q).max())
        q = q_next
        if delta < tol:
            break
    else:
        raise RuntimeError(f"value iteration did not converge within {max_sweeps} sweeps")

    if not np.isfinite(q).all():
        raise ValueError("state-action values must be finite")
    table = QTable(states=mdp.states, actions=mdp.actions)
    table.rows = q.tolist()
    return table


def estimate_mdp(batch: List[ExperienceTuple]) -> ExplicitMDP:
    """Empirical MDP from a batch: transition frequencies and mean rewards.

    Never-observed (state, action) pairs get a zero-reward self-loop and are
    flagged False in the coverage mask, mirroring the learner's zero default
    for untouched table entries.
    """
    if not batch:
        raise ValueError("empty batch")
    states, actions = batch_state_actions(batch)
    s_index = {s: i for i, s in enumerate(states)}
    a_index = {a: i for i, a in enumerate(actions)}
    n_s, n_a = len(states), len(actions)

    # Flat (s, a, s2) cell of each tuple; bincount adds repeats in batch order.
    flat = np.array([(s_index[t.state] * n_a + a_index[t.action]) * n_s + s_index[t.next_state] for t in batch])

    def tally(weights) -> np.ndarray:
        return np.bincount(flat, weights=weights, minlength=n_s * n_a * n_s).reshape(n_s, n_a, n_s)

    counts = tally(np.ones(len(batch)))
    reward_sums = tally([t.reward for t in batch])

    totals = counts.sum(axis=2)
    coverage = totals > 0.0

    transition = np.zeros_like(counts)
    np.divide(counts, totals[:, :, None], out=transition, where=totals[:, :, None] > 0.0)
    reward = np.zeros_like(reward_sums)
    np.divide(reward_sums, counts, out=reward, where=counts > 0.0)

    u, v = np.nonzero(~coverage)
    transition[u, v, u] = 1.0

    return ExplicitMDP(states=states, actions=actions, transition=transition, reward=reward, coverage=coverage)
