"""Model-based verification tools: explicit finite MDPs, value iteration to
the Bellman fixed point, empirical MDP estimation from experience batches,
and the comparison of a learned table against the optimal one."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

import numpy as np

from .core import ActionId, ExperienceBatch, ExperienceTuple, QTable, StateId, policy_from_q

_ROW_SUM_TOL = 1e-9
_REWARD_BLOCK = 64  # states per block when summing expected rewards

# Optimal values closer than this count as a tie: any of the tied actions is optimal.
POLICY_TIE_MARGIN = 1e-9


@dataclass
class ExplicitMDP:
    """A finite MDP with dense transition and reward tables.

    `transition[s, a, s2]` is the probability of moving from state index `s`
    to `s2` under action index `a`; `reward[s, a, s2]` is the reward received
    on that move. `coverage[s, a]` is False for pairs that were never
    observed when the model was estimated from data (such pairs are filled
    with a zero-reward self-loop); it is None for tables given directly.
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
    bad = ~(np.abs(row_sums - 1.0) <= _ROW_SUM_TOL)  # also true for a row holding NaN or inf
    # A negative entry can hide in a row summing to 1. One flat scan finds it;
    # the slower per-row scan runs only when that one fails.
    if not mdp.transition.min(initial=0.0) >= 0.0:
        bad |= ~(mdp.transition.min(axis=2) >= 0.0)
    if bad.any():
        s, a = np.argwhere(bad)[0]
        raise ValueError(
            f"non-stochastic transition row for ({mdp.states[s]!r}, {mdp.actions[a]!r}): probabilities must be "
            f"finite and >= 0 and sum to 1; got minimum {float(mdp.transition[s, a].min())!r}, "
            f"sum {float(row_sums[s, a])!r}"
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

    # Summed a block of states at a time: the whole (S, A, S) product is as large as `transition`.
    q = np.zeros((len(mdp.states), len(mdp.actions)))
    expected_reward = np.empty_like(q)
    for lo in range(0, len(q), _REWARD_BLOCK):
        block = slice(lo, lo + _REWARD_BLOCK)
        np.sum(mdp.transition[block] * mdp.reward[block], axis=2, out=expected_reward[block])
    for _ in range(max_sweeps):
        v = q.max(axis=1)
        q_next = expected_reward + gamma * (mdp.transition @ v)
        delta = float(np.abs(q_next - q).max())
        q = q_next
        if not np.isfinite(delta):  # an inf or NaN value makes every later delta NaN
            raise ValueError("state-action values must be finite")
        if delta < tol:
            break
    else:
        raise RuntimeError(f"value iteration did not converge within {max_sweeps} sweeps")

    table = QTable(states=mdp.states, actions=mdp.actions)
    table.rows = q.tolist()
    return table


def estimate_mdp(batch: Iterable[ExperienceTuple]) -> ExplicitMDP:
    """Empirical MDP from a batch: transition frequencies and mean rewards.

    States and actions are numbered as the batch's label tables number them.
    Never-observed (state, action) pairs get a zero-reward self-loop and are
    flagged False in the coverage mask, mirroring the learner's zero default
    for untouched table entries.
    """
    batch = ExperienceBatch(batch)
    if not batch:
        raise ValueError("empty batch")
    s, a, s2 = np.array(batch.s), np.array(batch.a), np.array(batch.s_new)
    n_s, n_a = len(batch.states), len(batch.actions)

    # Flat (s, a, s2) cell of each tuple; bincount adds repeats in batch order.
    flat = (s * n_a + a) * n_s + s2

    def tally(weights) -> np.ndarray:
        return np.bincount(flat, weights=weights, minlength=n_s * n_a * n_s).reshape(n_s, n_a, n_s)

    # Counts and reward sums become the tables in place: mean rewards first,
    # while the counts are still counts, then transition frequencies.
    transition = tally(np.ones(len(batch)))
    reward = tally(batch.r)
    np.divide(reward, transition, out=reward, where=transition > 0.0)
    totals = transition.sum(axis=2)
    coverage = totals > 0.0
    np.divide(transition, totals[:, :, None], out=transition, where=coverage[:, :, None])

    u, v = np.nonzero(~coverage)
    transition[u, v, u] = 1.0

    return ExplicitMDP(
        states=list(batch.states), actions=list(batch.actions), transition=transition, reward=reward,
        coverage=coverage,
    )


def compare_to_optimal(q: QTable, q_star: QTable) -> Tuple[int, float, int, int]:
    """Check a learned table against the optimal one over what both hold.

    Returns `(pairs, max_diff, compared, mismatched)`: the number of
    (state, action) pairs both tables hold, the largest |Q - Q*| over them,
    the number of shared states whose best two optimal values differ by more
    than `POLICY_TIE_MARGIN`, and how many of those states have a greedy
    action in `q` that differs from the one in `q_star`.
    """
    states = [s for s in q_star.states if s in q.state_index]
    actions = [a for a in q_star.actions if a in q.action_index]
    if not states or not actions:
        raise ValueError("model shares no states or actions with the environment")

    max_diff = max(abs(q.value(s, a) - q_star.value(s, a)) for s in states for a in actions)

    policy, optimal = policy_from_q(q), policy_from_q(q_star)
    compared = mismatched = 0
    for s in states:
        top = sorted(q_star.rows[q_star.state_index[s]], reverse=True)[:2]
        if len(top) > 1 and top[0] - top[1] <= POLICY_TIE_MARGIN:
            continue
        compared += 1
        mismatched += policy[s] != optimal[s]
    return len(states) * len(actions), max_diff, compared, mismatched
