"""Model-based verification tools: explicit finite MDPs, value iteration to
the Bellman fixed point, empirical MDP estimation from experience batches,
and the comparison of a learned table against the optimal one."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from typing import Iterable, Optional, Tuple

import numpy as np

from .core import ActionId, ExperienceBatch, ExperienceTuple, QTable, StateId, _validate_labels, policy_from_q

_ROW_SUM_TOL = 1e-9
_MAX_SWEEPS = 1_000_000

# Optimal values closer than this count as a tie: any of the tied actions is optimal.
POLICY_TIE_MARGIN = 1e-9


def _frozen(values, dtype=None) -> np.ndarray:
    """A read-only copy of `values`; a caller's own array stays writeable."""
    array = np.array(values, dtype=dtype)
    array.flags.writeable = False
    return array


@dataclass(frozen=True, eq=False)
class ExplicitMDP:
    """A finite MDP as the list of its possible transitions.

    Entry `i` moves from state index `pair[i] // len(actions)` under action
    index `pair[i] % len(actions)` to `next_state[i]` with `probability[i]`
    and reward `step_reward[i]`. Keys `(pair, next_state)` strictly increase,
    so sums over a (state, action) row add its entries in next-state order.
    `coverage`, a bool `(S, A)` array, is False at pairs never observed when
    the model was estimated from data (each holds one zero-reward self-loop);
    it is None for a model given directly. `transition` and `reward` are dense
    `(S, A, S)` views, built on each access. `states` and `actions` are held
    as tuples of their texts, checked as QTable checks its labels, actions first;
    `probability` and `step_reward` must hold real numbers, so text and bools
    are refused, not read as 1.0, and each (state, action) row must be a
    probability distribution: finite entries >= 0 that sum to 1 within 1e-9.

    Frozen, so no field can be reassigned past the constructor's checks; each
    array is a read-only copy, so none can be written in place either (numpy
    raises ValueError), and a caller's own array stays writeable.
    Two MDPs are equal when all their fields are; an MDP is not hashable.
    """

    states: Tuple[StateId, ...]
    actions: Tuple[ActionId, ...]
    pair: np.ndarray
    next_state: np.ndarray
    probability: np.ndarray
    step_reward: np.ndarray
    coverage: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        states, actions = tuple(self.states), tuple(self.actions)
        n_states, n_pairs = len(states), len(states) * len(actions)
        if not n_pairs:
            raise ValueError(f"{'actions' if n_states else 'states'} must not be empty")
        object.__setattr__(self, "actions", tuple(_validate_labels(actions, "action")))  # first, as QTable checks them
        object.__setattr__(self, "states", tuple(_validate_labels(states, "state")))
        for name, dtype, kinds, rule in (("pair", np.intp, "iu", "indices must be integers"),
                                         ("next_state", np.intp, "iu", "indices must be integers"),
                                         ("probability", float, "iuf", "must be real numbers"),
                                         ("step_reward", float, "iuf", "must be real numbers")):
            column = np.asarray(getattr(self, name))
            # A cast would truncate 0.7 to an index 0, and read '1.0' or True as 1.0.
            if column.size and column.dtype.kind not in kinds:
                raise ValueError(f"{name} {rule}, got dtype {column.dtype}")
            object.__setattr__(self, name, _frozen(column, dtype))
        shapes = [x.shape for x in (self.pair, self.next_state, self.probability, self.step_reward)]
        if len(set(shapes)) > 1 or self.pair.ndim != 1:
            raise ValueError(f"transition arrays must be 1-d and of equal length, got shapes {shapes}")
        for name, column, bound in (("pair", self.pair, n_pairs), ("next_state", self.next_state, n_states)):
            if not ((column >= 0) & (column < bound)).all():
                raise ValueError(f"{name} indices must lie in [0, {bound})")
        if not (np.diff(self.pair * n_states + self.next_state) > 0).all():
            raise ValueError("transitions must be in strictly increasing (pair, next_state) order")
        if not np.isfinite(self.step_reward).all():
            raise ValueError("rewards must be finite")
        coverage = None if self.coverage is None else _frozen(self.coverage)
        if coverage is not None and (coverage.dtype != bool or coverage.shape != (n_states, len(actions))):
            raise ValueError(f"coverage must be None or a bool array of shape {(n_states, len(actions))}")
        object.__setattr__(self, "coverage", coverage)
        row_sums = np.bincount(self.pair, weights=self.probability, minlength=n_pairs)
        bad = ~(np.abs(row_sums - 1.0) <= _ROW_SUM_TOL)  # also true for a row holding NaN or inf
        bad[self.pair[~(self.probability >= 0.0)]] = True  # a negative entry can hide in a row summing to 1
        if bad.any():
            p = int(np.flatnonzero(bad)[0])
            s, a = divmod(p, len(actions))
            row = self.probability[self.pair == p]
            raise ValueError(
                f"non-stochastic transition row for ({states[s]!r}, {actions[a]!r}): probabilities must be "
                f"finite and >= 0 and sum to 1; got {row.size} entries, minimum {float(row.min(initial=np.inf))!r}, "
                f"sum {float(row_sums[p])!r}"
            )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExplicitMDP):
            return NotImplemented
        arrays = ("pair", "next_state", "probability", "step_reward", "coverage")
        return (self.states, self.actions) == (other.states, other.actions) and all(
            np.array_equal(getattr(self, name), getattr(other, name)) for name in arrays
        )

    def _dense(self, values: np.ndarray) -> np.ndarray:
        n_states, n_actions = len(self.states), len(self.actions)
        table = np.zeros((n_states * n_actions, n_states))
        table[self.pair, self.next_state] = values
        return table.reshape(n_states, n_actions, n_states)

    transition = property(lambda self: self._dense(self.probability))
    reward = property(lambda self: self._dense(self.step_reward))


def value_iteration(mdp: ExplicitMDP, gamma: float, tol: float = 1e-9) -> QTable:
    """Solve for the optimal state-action values of an explicit MDP.

    Sweeps synchronous backups from a zero table until successive iterates
    differ by less than `tol` in sup norm, which bounds the Bellman residual
    of the returned table by `gamma * tol`. Each backup costs time linear in
    the number of transitions. Sweep `k` changes the table by at most
    `gamma**(k - 1) * max|E[r]|`; let K be the first sweep whose bound lies
    below `tol`. When K exceeds a million, or max|E[r]| overflows, the call
    is refused before the first sweep; iterates that rounding keeps cycling,
    however long the cycle, are refused after 2K sweeps, and never after more
    than a million. Every refusal is a ValueError. The MDP itself is not
    checked again: its constructor refuses an invalid one.

    The values are held action-major, one row per action, so each sweep's
    per-state maximum reduces contiguous rows. Q* is the same bit for bit as
    a state-major sweep's: the maximum is exact, and each pair's entries are
    still added in transition-list order. The table is built in one step.
    """
    # A bool is no real value here, as ControlParams refuses a bool rate.
    if isinstance(gamma, bool) or not isinstance(gamma, numbers.Real) or not 0.0 <= gamma < 1.0:
        raise ValueError(f"gamma must lie in [0, 1), got {gamma}")
    if isinstance(tol, bool) or not isinstance(tol, numbers.Real) or not tol > 0.0:  # also refuses NaN
        raise ValueError(f"tol must be positive, got {tol}")
    gamma = float(gamma)  # a Fraction would make the sweeps exact and slow

    n_states, n_actions = len(mdp.states), len(mdp.actions)
    q = np.zeros((n_actions, n_states))
    pair = mdp.pair % n_actions * n_states + mdp.pair // n_actions  # (s, a) -> a * S + s
    expected_reward = np.bincount(pair, weights=mdp.probability * mdp.step_reward, minlength=q.size)
    max_reward = float(np.abs(expected_reward).max(initial=0.0))
    if not math.isfinite(max_reward):  # a row's expected reward overflowed: no sweep count bounds it
        raise ValueError("state-action values must be finite")
    if max_reward < tol:
        sweeps = 1
    elif gamma == 0.0:
        sweeps = 2
    else:
        sweeps = 2 + int((math.log(tol) - math.log(max_reward)) / math.log(gamma))
    if sweeps > _MAX_SWEEPS:
        raise ValueError(f"value iteration at gamma {gamma} may need more than {_MAX_SWEEPS} sweeps to reach tol {tol}")
    sweeps = min(2 * sweeps, _MAX_SWEEPS)  # rounding can delay the settling sweep, so the budget allows twice K
    for _ in range(sweeps):
        v = q.max(axis=0)
        backed_up = np.bincount(pair, weights=mdp.probability * v[mdp.next_state], minlength=q.size)
        q_next = (expected_reward + gamma * backed_up).reshape(q.shape)
        delta = float(np.abs(q_next - q).max())
        if not np.isfinite(delta):  # an inf or NaN value makes every later delta NaN
            raise ValueError("state-action values must be finite")
        q = q_next
        if delta < tol:
            break
    else:
        raise ValueError(f"value iteration did not converge within {sweeps} sweeps: the last changed the table "
                         f"by {delta!r}, not below tol {tol}")

    return QTable._of(mdp.states, mdp.actions, q.T.tolist())


def estimate_mdp(batch: Iterable[ExperienceTuple]) -> ExplicitMDP:
    """Empirical MDP from a batch: transition frequencies and mean rewards.

    States and actions are numbered as the batch's label tables number them.
    Never-observed (state, action) pairs get a zero-reward self-loop and are
    flagged False in the coverage mask, mirroring the learner's zero default
    for untouched table entries. A cell's mean reward is taken exactly where
    its float sum overflows, so no batch of finite rewards is refused.
    """
    batch = ExperienceBatch(batch)
    if not batch:
        raise ValueError("empty batch")
    s, a, s2 = (np.fromiter(c, dtype=np.intp, count=len(c)) for c in (batch.s, batch.a, batch.s_new))
    n_s, n_a = len(batch.states), len(batch.actions)

    # One entry per distinct (s, a, s2) cell; bincount adds repeats in batch order.
    cells, inverse = np.unique((s * n_a + a) * n_s + s2, return_inverse=True)
    counts = np.bincount(inverse)
    totals = np.bincount(cells // n_s, weights=counts, minlength=n_s * n_a)
    coverage = totals > 0.0
    # Uncovered pairs have no cell, so their self-loops merge in under distinct keys.
    loops = np.flatnonzero(~coverage)
    keys = np.concatenate([cells, loops * n_s + loops // n_a])
    probability = np.concatenate([counts / totals[cells // n_s], np.ones(len(loops))])
    mean = np.bincount(inverse, weights=batch.r) / counts
    # A sum can overflow though every reward and the mean are finite.
    for cell in np.flatnonzero(~np.isfinite(mean)):
        mean[cell] = float(sum(map(Fraction, compress(batch.r, inverse == cell))) / int(counts[cell]))
    step_reward = np.concatenate([mean, np.zeros(len(loops))])
    order = np.argsort(keys, kind="stable")  # two sorted runs; the keys are distinct, so any sort gives this order
    return ExplicitMDP(
        states=batch.states, actions=batch.actions, pair=keys[order] // n_s,
        next_state=keys[order] % n_s, probability=probability[order], step_reward=step_reward[order],
        coverage=coverage.reshape(n_s, n_a),
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
