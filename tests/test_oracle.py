import dataclasses
import hashlib
import itertools
import json
import math
import random
import re
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from replayq import oracle
from replayq.core import ControlParams, ExperienceTuple, QTable
from replayq.envs import gridworld_mdp
from replayq.learner import learn
from replayq.oracle import POLICY_TIE_MARGIN, ExplicitMDP, compare_to_optimal, estimate_mdp, value_iteration
from replayq.tictactoe import ttt_generate_games

# Hand-solved fixed point for the gridworld at gamma = 0.5. Working backwards
# from the absorbing goal: V(s4) = -1 + 0.5 V(s4) gives -2, then
# Q(s3,up) = 10 + 0.5(-2) = 9, V(s3) = 9, Q(s2,right) = -1 + 4.5 = 3.5,
# and so on down the chain; every self-loop is -1 + 0.5 V(state).
GRIDWORLD_Q_STAR = {
    ("s1", "up"): -0.625,
    ("s1", "down"): 0.75,
    ("s1", "left"): -0.625,
    ("s1", "right"): -0.625,
    ("s2", "up"): -0.625,
    ("s2", "down"): 0.75,
    ("s2", "left"): 0.75,
    ("s2", "right"): 3.5,
    ("s3", "up"): 9.0,
    ("s3", "down"): 3.5,
    ("s3", "left"): 0.75,
    ("s3", "right"): 3.5,
    ("s4", "up"): -2.0,
    ("s4", "down"): -2.0,
    ("s4", "left"): -2.0,
    ("s4", "right"): -2.0,
}


def two_state_mdp(step_reward=1.0):
    # deterministic two-state chain: "go" moves a -> b, everything else loops
    return ExplicitMDP(
        states=["a", "b"],
        actions=["go", "stay"],
        pair=[0, 1, 2, 3],  # (a, go), (a, stay), (b, go), (b, stay)
        next_state=[1, 0, 1, 1],
        probability=[1.0, 1.0, 1.0, 1.0],
        step_reward=[step_reward, 0.0, 0.0, 0.0],
    )


def one_state_loop(probability, step_reward):
    return ExplicitMDP(states=["s"], actions=["a"], pair=[0], next_state=[0], probability=[probability],
                       step_reward=[step_reward])


def test_value_iteration_reproduces_hand_solved_gridworld():
    q = value_iteration(gridworld_mdp(), gamma=0.5, tol=1e-9)
    for (s, a), expected in GRIDWORLD_Q_STAR.items():
        assert q.value(s, a) == pytest.approx(expected, abs=1e-6)


def test_value_iteration_gamma_zero_returns_expected_reward():
    q = value_iteration(gridworld_mdp(), gamma=0.0, tol=1e-9)
    assert q.value("s3", "up") == pytest.approx(10.0)
    assert q.value("s1", "down") == pytest.approx(-1.0)
    assert q.value("s4", "left") == pytest.approx(-1.0)


def test_value_iteration_absorbing_geometric_sum():
    q = value_iteration(one_state_loop(1.0, 2.0), gamma=0.9, tol=1e-12)
    assert q.value("s", "a") == pytest.approx(2.0 / (1 - 0.9), abs=1e-9)


def test_value_iteration_validates_gamma_and_tol():
    mdp = two_state_mdp()
    with pytest.raises(ValueError):
        value_iteration(mdp, gamma=1.0)
    with pytest.raises(ValueError):
        value_iteration(mdp, gamma=-0.1)
    with pytest.raises(ValueError):
        value_iteration(mdp, gamma=0.5, tol=0.0)
    # No delta is ever below NaN, so an unchecked NaN would run every sweep.
    with pytest.raises(ValueError, match="tol must be positive"):
        value_iteration(mdp, gamma=0.5, tol=math.nan)


@pytest.mark.parametrize("gamma,tol,message", [
    pytest.param("0.5", 1e-9, "gamma must lie in [0, 1), got 0.5", id="gamma-text"),
    pytest.param(0.5, "1e-9", "tol must be positive, got 1e-9", id="tol-text"),
    pytest.param(False, 1e-9, "gamma must lie in [0, 1), got False", id="gamma-bool"),
    pytest.param(0.5, True, "tol must be positive, got True", id="tol-bool"),
])
def test_value_iteration_refuses_what_is_not_a_real_number_with_value_error(gamma, tol, message):
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        value_iteration(gridworld_mdp(), gamma, tol=tol)


def test_value_iteration_sweeps_a_fraction_gamma_as_its_float():
    assert value_iteration(gridworld_mdp(), Fraction(1, 2)) == value_iteration(gridworld_mdp(), 0.5)


def test_value_iteration_refuses_before_sweeping_when_its_bound_needs_more_sweeps_than_allowed(monkeypatch):
    # On one self-loop the bound is exact: sweep k changes Q by 2 * 0.9**k, below 1e-9 first at k = 204.
    mdp = one_state_loop(1.0, 2.0)
    monkeypatch.setattr(oracle, "_MAX_SWEEPS", 205)
    assert value_iteration(mdp, gamma=0.9).value("s", "a") == pytest.approx(20.0)
    monkeypatch.setattr(oracle, "_MAX_SWEEPS", 204)
    with pytest.raises(ValueError, match=r"^value iteration at gamma 0\.9 may need more than 204 sweeps to reach "
                                         r"tol 1e-09$"):
        value_iteration(mdp, gamma=0.9)


def test_value_iteration_refuses_iterates_that_never_settle(monkeypatch):
    # a -> b -> a with rewards +-1e8: Q* is +-2e8/3, where floats lie 7.5e-9 apart, more than tol, and from
    # the 54th sweep on the iterates alternate between two tables one unit in the last place apart.
    mdp = ExplicitMDP(states=["a", "b"], actions=["go"], pair=[0, 1], next_state=[1, 0], probability=[1.0, 1.0],
                      step_reward=[1e8, -1e8])
    monkeypatch.setattr(oracle, "_MAX_SWEEPS", 200)
    with pytest.raises(ValueError, match=r"^value iteration did not converge within 116 sweeps: the last changed the "
                                         r"table by 7\.450580596923828e-09, not below tol 1e-09$"):
        value_iteration(mdp, gamma=0.5)
    assert value_iteration(mdp, gamma=0.5, tol=1e-6).value("a", "go") == pytest.approx(2e8 / 3)


def test_value_iteration_refuses_a_two_table_cycle_within_twice_its_bound():
    # The same a -> b -> a MDP at the real cap of a million sweeps: the bound 0.5**(k - 1) * 1e8 first lies below
    # 1e-9 at sweep K = 58, so the call refuses after 2K = 116 sweeps rather than sweeping to the cap.
    mdp = ExplicitMDP(states=["a", "b"], actions=["go"], pair=[0, 1], next_state=[1, 0], probability=[1.0, 1.0],
                      step_reward=[1e8, -1e8])
    assert oracle._MAX_SWEEPS == 1_000_000
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"^value iteration did not converge within 116 sweeps: "):
        value_iteration(mdp, gamma=0.5)
    assert time.perf_counter() - start < 0.1


def test_value_iteration_never_sweeps_more_than_its_cap(monkeypatch):
    # The same a -> b -> a MDP: K = 58 lies within a cap of 100 sweeps, but 2K = 116 does not, so the call
    # refuses after the cap's 100 sweeps.
    mdp = ExplicitMDP(states=["a", "b"], actions=["go"], pair=[0, 1], next_state=[1, 0], probability=[1.0, 1.0],
                      step_reward=[1e8, -1e8])
    monkeypatch.setattr(oracle, "_MAX_SWEEPS", 100)
    with pytest.raises(ValueError, match=r"^value iteration did not converge within 100 sweeps: "):
        value_iteration(mdp, gamma=0.5)


def test_value_iteration_runs_out_of_sweeps_on_a_longer_cycle():
    # a -> b -> c -> a with rewards 1e8, -2e8 and 3e8 at gamma 0.25: the iterates settle into a cycle of three
    # tables 6e-8 apart. The bound 0.25**(k - 1) * 3e8 first lies below 1e-9 at sweep K = 31, so at the real cap
    # the call refuses after 2K = 62 sweeps.
    mdp = ExplicitMDP(states=["a", "b", "c"], actions=["go"], pair=[0, 1, 2], next_state=[1, 2, 0],
                      probability=[1.0, 1.0, 1.0], step_reward=[1e8, -2e8, 3e8])
    assert oracle._MAX_SWEEPS == 1_000_000
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"^value iteration did not converge within 62 sweeps: the last changed the "
                                         r"table by 5\.960464477539063e-08, not below tol 1e-09$"):
        value_iteration(mdp, gamma=0.25)
    assert time.perf_counter() - start < 0.1


def test_value_iteration_stops_at_the_first_overflow():
    # 1e308 + 0.9 * 1e308 is inf on the second sweep; every later delta would be NaN.
    mdp = one_state_loop(1.0, 1e308)
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="state-action values must be finite"):
        value_iteration(mdp, gamma=0.9)


@pytest.mark.parametrize("tol", [1e-9, math.inf])
def test_value_iteration_refuses_an_expected_reward_that_overflows_before_sweeping(tol):
    # Finite rewards whose probability-weighted sum overflows: no sweep count bounds an infinite max|E[r]|.
    mdp = ExplicitMDP(states=["s", "t"], actions=["a"], pair=[0, 0, 1], next_state=[0, 1, 1],
                      probability=[0.5 + 4e-10, 0.5, 1.0], step_reward=[1.7976931348623157e308] * 2 + [0.0])
    with np.errstate(over="ignore"), pytest.raises(ValueError, match=r"^state-action values must be finite$"):
        value_iteration(mdp, gamma=0.5, tol=tol)


def test_value_iteration_rejects_non_stochastic_rows():
    mdp = two_state_mdp()
    # Refused where it is built, so value_iteration never meets it.
    with pytest.raises(ValueError, match="stochastic"):
        ExplicitMDP(
            states=mdp.states,
            actions=mdp.actions,
            pair=mdp.pair,
            next_state=mdp.next_state,
            probability=mdp.probability * 0.5,
            step_reward=mdp.step_reward,
        )


@pytest.mark.parametrize(
    "n,rows,pair",
    [
        pytest.param(1, [(0, 0, math.nan)], "('s0', 'a')", id="nan"),
        # s1's row sums to 1, so only its negative entry is wrong.
        pytest.param(2, [(0, 1, 1.0), (1, 0, 1.5), (1, 1, -0.5)], "('s1', 'a')", id="negative"),
    ],
)
def test_value_iteration_rejects_nan_and_negative_probabilities(n, rows, pair):
    source, next_state, probability = zip(*rows)
    with pytest.raises(ValueError, match=re.escape(f"non-stochastic transition row for {pair}")):
        ExplicitMDP(states=[f"s{i}" for i in range(n)], actions=["a"], pair=source, next_state=next_state,
                    probability=probability, step_reward=np.zeros(len(rows)))


def test_bellman_backup_fixes_the_optimal_table():
    mdp = gridworld_mdp()
    q_star = value_iteration(mdp, gamma=0.5, tol=1e-12)
    q = np.array([[q_star.value(s, a) for a in mdp.actions] for s in mdp.states])
    # One more synchronous backup, written out independently of the library.
    backed = np.einsum("ijk,ijk->ij", mdp.transition, mdp.reward) + 0.5 * mdp.transition @ q.max(axis=1)
    np.testing.assert_allclose(backed, q, rtol=0, atol=1e-9)


def test_backup_iterates_grow_monotonically_under_nonnegative_rewards():
    base = gridworld_mdp()
    shifted = ExplicitMDP(
        states=base.states,
        actions=base.actions,
        pair=base.pair,
        next_state=base.next_state,
        probability=base.probability,
        step_reward=base.step_reward + 1.0,  # lift the -1 step cost to 0 so no value can sink
    )
    # A looser tol stops at an earlier iterate, which must lie below every later one.
    previous = {(s, a): 0.0 for s in base.states for a in base.actions}
    for tol in (12.0, 6.0, 3.0, 1.5, 1e-9):  # deltas run 11, 5.5, 2.75, 1.375, 0
        q = value_iteration(shifted, 0.5, tol=tol)
        current = {(s, a): q.value(s, a) for s in base.states for a in base.actions}
        assert all(current[k] >= previous[k] - 1e-12 for k in current)
        previous = current


def test_bellman_backup_from_zeros_is_expected_reward():
    # Every delta is below a huge tol, so value iteration stops after its first backup.
    backed = value_iteration(gridworld_mdp(), 0.5, tol=1e6)
    assert backed.value("s3", "up") == pytest.approx(10.0)
    assert backed.value("s2", "right") == pytest.approx(-1.0)


def test_value_iteration_sums_expected_rewards_as_the_full_product_does():
    mdp = estimate_mdp(ttt_generate_games(500, seed=1))
    # At gamma 0 the fixed point is the expected reward itself.
    backed = np.array(value_iteration(mdp, 0.0).rows)
    assert np.array_equal(backed, (mdp.transition * mdp.reward).sum(axis=2))


def dense_value_iteration(transition, reward, gamma, tol=1e-9, cap=100_000):
    """Value iteration over dense (S, A, S) tables, written out independently of the library: the first table
    that differs from the one before by less than `tol`, or None when none does. Sweeps are deterministic, so
    once a table repeats an earlier one, none ever will; `cap` sweeps without either also count as none."""
    expected_reward = (transition * reward).sum(axis=2)
    q, seen = np.zeros(expected_reward.shape), set()
    for _ in range(cap):
        q_next = expected_reward + gamma * (transition * q.max(axis=1)).sum(axis=2)
        delta = np.abs(q_next - q).max()
        q = q_next
        if delta < tol:
            return q
        if q.tobytes() in seen:
            return None
        seen.add(q.tobytes())
    return None


@st.composite
def flat_mdps(draw, max_states=7, max_successors=None, rewards=st.floats(-10.0, 10.0)):
    # Up to seven states: numpy sums a row that short left to right, in the
    # next-state order that bincount adds a transition list's row in.
    n_states, n_actions = draw(st.integers(1, max_states)), draw(st.integers(1, 3))
    columns = {"pair": [], "next_state": [], "probability": [], "step_reward": []}
    for pair in range(n_states * n_actions):
        successors = sorted(draw(st.sets(st.integers(0, n_states - 1), min_size=1, max_size=max_successors)))
        weights = [draw(st.sampled_from([0.0, 0.25, 1.0]) | st.floats(0.01, 1.0)) for _ in successors]
        weights[0] = weights[0] or 1.0  # a row needs some mass
        for k, w in zip(successors, weights):
            columns["pair"].append(pair)
            columns["next_state"].append(k)
            columns["probability"].append(w / math.fsum(weights))
            columns["step_reward"].append(draw(rewards))
    return ExplicitMDP(states=[f"s{i}" for i in range(n_states)], actions=[f"a{j}" for j in range(n_actions)],
                       **columns)


@settings(max_examples=200, deadline=None,
          phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.target, Phase.shrink])
@given(mdp=flat_mdps(), gamma=st.sampled_from([0.0, 0.5, 0.9]) | st.floats(0.0, 0.95))
def test_value_iteration_matches_a_dense_reference(mdp, gamma):
    transition, reward = mdp.transition, mdp.reward
    q = np.array(value_iteration(mdp, gamma).rows)
    np.testing.assert_allclose(q, dense_value_iteration(transition, reward, gamma), rtol=0, atol=1e-12)
    assert np.array_equal(np.array(value_iteration(mdp, 0.0).rows), (transition * reward).sum(axis=2))


# Rewards up to 10**k for k from -3 to 9, drawn once per MDP, so that Q* ranges from far above the float spacing
# near it to far below, at every tol. In the example, sweep 15 is the first whose bound, 99200 * 0.1**14, lies
# below tol, but rounding leaves its change at 1.004e-09, so the solve settles at sweep 16.
@settings(max_examples=100, deadline=None)
@example(mdp=one_state_loop(1.0, 99200.0), gamma=0.1, tol=1e-9)
@given(mdp=st.integers(-3, 9).flatmap(lambda k: flat_mdps(5, 3, st.floats(-(10.0 ** k), 10.0 ** k))),
       gamma=st.sampled_from([0.0, 0.1, 0.5, 0.9, 0.99]), tol=st.sampled_from([1e-3, 1e-9, 1e-12, 1e-15]))
def test_value_iteration_settles_exactly_where_sweeping_without_its_budget_does(mdp, gamma, tol):
    settled = dense_value_iteration(mdp.transition, mdp.reward, gamma, tol)
    if settled is None:
        with pytest.raises(ValueError, match="^value iteration did not converge within "):
            value_iteration(mdp, gamma, tol)
    else:
        assert np.array_equal(np.array(value_iteration(mdp, gamma, tol).rows), settled)


@st.composite
def deterministic_batches(draw):
    """Rows of a deterministic MDP: a random subset of its (state, action) pairs, each with one reward and one
    next state, and each repeated one to three times, in random order."""
    n_states, n_actions = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    pairs = draw(st.sets(st.tuples(st.integers(0, n_states - 1), st.integers(0, n_actions - 1)), min_size=1))
    rows = []
    for s, a in sorted(pairs):
        # Rewards within 1 keep Q* within 10, where floats lie far closer together than the solve's tol.
        reward = draw(st.floats(-1.0, 1.0) | st.sampled_from([-1.0, 0.0, 1.0]))
        step = ExperienceTuple(f"s{s}", f"a{a}", reward, f"s{draw(st.integers(0, n_states - 1))}")
        rows += [step] * draw(st.integers(1, 3))
    return draw(st.permutations(rows))


@settings(max_examples=100, deadline=None)
@given(batch=deterministic_batches(), gamma=st.sampled_from([0.0, 0.5, 0.9]), alpha=st.sampled_from([0.1, 0.5, 1.0]),
       seed=st.integers(0, 2**32 - 1))
def test_replay_on_deterministic_data_stops_at_the_solved_estimate(batch, gamma, alpha, seed):
    # Replay on fixed data converges to the certainty-equivalence estimate, Q* of estimate_mdp(batch). The solve
    # lies within gamma / (1 - gamma) * tol of it. Replay stops once no update alpha * (target - Q) changes a value,
    # so each covered Q lies within 1 / (2 * alpha) <= 5 units in the last place of its target, and its target is
    # rounded too: 8 units of max|Q*| bound that residual, which puts replay within it / (1 - gamma) of the estimate.
    tol = 1e-13
    q = learn(batch, ControlParams(alpha=alpha, gamma=gamma), iterations=100_000, seed=seed).q
    mdp = estimate_mdp(batch)
    q_star = value_iteration(mdp, gamma, tol=tol)
    bound = (gamma * tol + 8 * math.ulp(max(abs(x) for row in q_star.rows for x in row))) / (1 - gamma)
    for (i, s), (j, a) in itertools.product(enumerate(q_star.states), enumerate(q_star.actions)):
        if mdp.coverage[i, j]:  # an uncovered pair is a zero-reward self-loop to the solve, never updated by replay
            assert abs(q.value(s, a) - q_star.value(s, a)) <= bound


@st.composite
def perturbed_transition_lists(draw):
    """Transition lists built as flat_mdps builds them, some rows then scaled,
    given a negative, NaN or infinite entry, or left with no entries."""
    n_states, n_actions = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    columns = {"pair": [], "next_state": [], "probability": [], "step_reward": []}
    for pair in range(n_states * n_actions):
        successors = sorted(draw(st.sets(st.integers(0, n_states - 1), min_size=1)))
        weights = [draw(st.sampled_from([0.0, 0.25, 1.0]) | st.floats(0.01, 1.0)) for _ in successors]
        weights[0] = weights[0] or 1.0
        row = [w / math.fsum(weights) for w in weights]
        fault, k = draw(st.sampled_from([None, "scale", "negative", "nan", "inf", "empty"])), draw(st.integers(0, 9))
        k %= len(row)
        if fault == "scale":  # 1 + 1e-12 stays within the rule's tolerance, 1 - 1e-6 does not
            scale = draw(st.sampled_from([0.5, 1 - 1e-6, 1 + 1e-12, 2.0]) | st.floats(0.0, 2.0))
            row = [w * scale for w in row]
        elif fault == "negative":  # moved to another entry, the mass keeps the row's sum near 1
            shift = draw(st.floats(1e-12, 1.0))
            row[(k + 1) % len(row)] += row[k] + shift
            row[k] = -shift
        elif fault in ("nan", "inf"):
            row[k] = math.nan if fault == "nan" else draw(st.sampled_from([math.inf, -math.inf]))
        elif fault == "empty":
            continue
        for state, w in zip(successors, row):
            columns["pair"].append(pair)
            columns["next_state"].append(state)
            columns["probability"].append(w)
            columns["step_reward"].append(draw(st.floats(-10.0, 10.0)))
    return [f"s{i}" for i in range(n_states)], [f"a{j}" for j in range(n_actions)], columns


def first_non_distribution_row(n_pairs, pair, probability):
    """The first pair whose row is no probability distribution, by the rule written out independently of the
    library: an entry below 0 or NaN, or a sum, added in list order, more than 1e-9 from 1. None if none."""
    rows = [[] for _ in range(n_pairs)]
    for p, w in zip(pair, probability):
        rows[p].append(w)
    return next((p for p, row in enumerate(rows) if not (all(w >= 0.0 for w in row) and abs(sum(row) - 1.0) <= 1e-9)),
                None)


@settings(max_examples=300, deadline=None)
@given(transitions=perturbed_transition_lists())
def test_an_mdp_is_built_exactly_when_every_row_is_a_distribution(transitions):
    states, actions, columns = transitions
    bad = first_non_distribution_row(len(states) * len(actions), columns["pair"], columns["probability"])
    if bad is None:
        q_star = value_iteration(ExplicitMDP(states=states, actions=actions, **columns), 0.5)
        assert (q_star.states, q_star.actions) == (states, actions)
    else:
        s, a = divmod(bad, len(actions))
        with pytest.raises(ValueError, match="^" + re.escape(f"non-stochastic transition row for ({states[s]!r}, "
                                                             f"{actions[a]!r}): ")):
            ExplicitMDP(states=states, actions=actions, **columns)


def test_an_mdp_holds_its_labels_as_tuples_no_one_can_change():
    mdp = gridworld_mdp()
    q_star = value_iteration(mdp, 0.5)
    with pytest.raises(AttributeError):
        mdp.states.pop()
    with pytest.raises(AttributeError):
        mdp.actions.append("jump")
    assert value_iteration(mdp, 0.5) == q_star
    # The caller's own lists are copied, so changing them leaves the MDP as it was.
    states, actions = ["a", "b"], ["x"]
    mdp = ExplicitMDP(states=states, actions=actions, **VALID)
    states.pop()
    actions.append("y")
    assert (mdp.states, mdp.actions) == (("a", "b"), ("x",))


@pytest.fixture(scope="module")
def paper_scale_batch():
    # About 83k tuples: the batch of acceptance criterion 7.
    return ttt_generate_games(20_000, seed=0)


def test_estimate_and_solve_a_paper_scale_batch_in_under_16_mb(paper_scale_batch):
    tracemalloc.start()
    try:
        mdp = estimate_mdp(paper_scale_batch)
        value_iteration(mdp, 0.99)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(mdp.states) > 3_000
    assert peak < 16 * 2**20


def test_a_paper_scale_mdp_stores_under_64_bytes_per_transition(paper_scale_batch):
    mdp = estimate_mdp(paper_scale_batch)
    n_transitions = len(mdp.pair)
    assert n_transitions > 40_000
    stored = sum(x.nbytes for x in (mdp.pair, mdp.next_state, mdp.probability, mdp.step_reward, mdp.coverage))
    assert stored < 64 * n_transitions + mdp.coverage.nbytes


VALID = {"pair": [0, 1], "next_state": [1, 1], "probability": [1.0, 1.0], "step_reward": [0.0, 0.0]}


@pytest.mark.parametrize(
    "columns,message",
    [
        pytest.param({"next_state": [1]}, "1-d and of equal length", id="unequal-lengths"),
        pytest.param({"pair": [[0, 1]], "next_state": [[1, 1]], "probability": [[1.0, 1.0]],
                      "step_reward": [[0.0, 0.0]]}, "1-d and of equal length", id="two-dimensional"),
        pytest.param({"pair": [0, 2]}, "pair indices must lie in [0, 2)", id="pair-too-large"),
        pytest.param({"pair": [-1, 1]}, "pair indices must lie in [0, 2)", id="pair-negative"),
        pytest.param({"next_state": [1, 2]}, "next_state indices must lie in [0, 2)", id="next-state-too-large"),
        pytest.param({"next_state": [-1, 1]}, "next_state indices must lie in [0, 2)", id="next-state-negative"),
        pytest.param({"pair": [1, 0]}, "strictly increasing (pair, next_state) order", id="unsorted-pairs"),
        pytest.param({"pair": [0, 0], "next_state": [1, 0]}, "strictly increasing", id="unsorted-next-states"),
        pytest.param({"pair": [1, 1]}, "strictly increasing", id="duplicate"),
        pytest.param({"step_reward": [0.0, math.nan]}, "rewards must be finite", id="nan-reward"),
        pytest.param({"step_reward": [math.inf, 0.0]}, "rewards must be finite", id="inf-reward"),
        # A cast to int would truncate each of these to a valid index.
        pytest.param({"pair": [0.7, 1]}, "pair indices must be integers, got dtype float64", id="fractional-pair"),
        pytest.param({"next_state": [1.5, 1]}, "next_state indices must be integers", id="fractional-next-state"),
        pytest.param({"pair": [False, True]}, "pair indices must be integers, got dtype bool", id="boolean-pair"),
        # A cast to float would read each of these as a probability or reward.
        pytest.param({"probability": ["1.0", "1.0"]}, "probability must be real numbers, got dtype <U3",
                     id="text-probability"),
        pytest.param({"step_reward": [True, False]}, "step_reward must be real numbers, got dtype bool",
                     id="boolean-reward"),
        pytest.param({"step_reward": np.array([0.0, 0.0], dtype=object)}, "step_reward must be real numbers, got "
                     "dtype object", id="object-reward"),
        # Labels are checked as QTable checks them.
        pytest.param({"states": ["a", "a"]}, "state 'a' is listed more than once", id="repeated-state"),
        pytest.param({"states": ["a,b", "b"]}, "state 'a,b' contains forbidden character ','", id="forbidden-character"),
        pytest.param({"actions": ["x", "x"]}, "action 'x' is listed more than once", id="repeated-action"),
        pytest.param({"states": ["a", "a"], "actions": ["x", "x"]}, "action 'x' is listed more than once",
                     id="actions-before-states"),
        pytest.param({"coverage": np.ones((5, 5), dtype=bool)}, "coverage must be None or a bool array of shape (2, 1)",
                     id="coverage-shape"),
        pytest.param({"coverage": np.ones((2, 1))}, "coverage must be None or a bool array", id="coverage-dtype"),
    ],
)
def test_explicit_mdp_checks_its_transition_list(columns, message):
    ExplicitMDP(states=["a", "b"], actions=["x"], **VALID)
    with pytest.raises(ValueError, match=re.escape(message)):
        ExplicitMDP(**{"states": ["a", "b"], "actions": ["x"], **VALID, **columns})


def test_explicit_mdp_stores_coverage_as_a_bool_array():
    mdp = ExplicitMDP(states=["a", "b"], actions=["x"], coverage=[[True], [False]], **VALID)
    assert isinstance(mdp.coverage, np.ndarray) and mdp.coverage.dtype == bool
    assert mdp.coverage.tolist() == [[True], [False]]


@pytest.mark.parametrize("states, actions, field", [([], ["x"], "states"), (["a"], [], "actions"), ([], [], "states")],
                         ids=["no-states", "no-actions", "neither"])
def test_explicit_mdp_refuses_an_empty_state_or_action_list(states, actions, field):
    with pytest.raises(ValueError, match=f"^{field} must not be empty$"):
        ExplicitMDP(states=states, actions=actions, pair=[], next_state=[], probability=[], step_reward=[])


def test_explicit_mdps_compare_by_their_fields():
    batch = ttt_generate_games(20, seed=3)
    mdp = estimate_mdp(batch)
    assert mdp == estimate_mdp(batch)
    assert not mdp != estimate_mdp(batch)
    assert mdp != estimate_mdp(ttt_generate_games(20, seed=4))
    assert mdp != dataclasses.replace(mdp, coverage=None)
    assert dataclasses.replace(mdp, coverage=None) == dataclasses.replace(mdp, coverage=None)
    assert mdp != dataclasses.replace(mdp, step_reward=mdp.step_reward + 1.0)
    # numpy would read these two labels as one string.
    one, other = (ExplicitMDP(states=[label, "b"], actions=["x"], **VALID) for label in ("a", "a\0"))
    assert one != other
    with pytest.raises(TypeError, match="unhashable"):
        hash(mdp)


def test_explicit_mdp_fields_cannot_be_reassigned():
    mdp = estimate_mdp(ttt_generate_games(20, seed=3))
    with pytest.raises(dataclasses.FrozenInstanceError):
        mdp.probability = mdp.probability * 2
    with pytest.raises(ValueError, match="strictly increasing"):
        dataclasses.replace(mdp, pair=mdp.pair[::-1])


def test_explicit_mdp_arrays_are_read_only_copies():
    mdp = gridworld_mdp()
    with pytest.raises(ValueError, match="read-only"):
        mdp.next_state[0] = 99
    for name in ("pair", "next_state", "probability", "step_reward", "coverage"):
        assert not getattr(mdp, name).flags.writeable, name
    assert mdp == gridworld_mdp()
    value_iteration(mdp, 0.5)
    # The caller's own arrays are copied, and stay writeable.
    columns = {name: np.array(values) for name, values in VALID.items()}
    coverage = np.ones((2, 1), dtype=bool)
    mdp = ExplicitMDP(states=["a", "b"], actions=["x"], coverage=coverage, **columns)
    for name, values in [*columns.items(), ("coverage", coverage)]:
        assert values.flags.writeable, name
        assert not np.shares_memory(values, getattr(mdp, name)), name
    columns["next_state"][0] = 5
    assert mdp.next_state.tolist() == [1, 1]


def test_estimate_mdp_rejects_empty_batch():
    with pytest.raises(ValueError):
        estimate_mdp([])


def test_estimate_mdp_counts_to_probabilities():
    batch = [
        ExperienceTuple("a", "go", 1.0, "b"),
        ExperienceTuple("a", "go", 1.0, "b"),
        ExperienceTuple("a", "go", 4.0, "a"),
    ]
    mdp = estimate_mdp(batch)
    i, j = mdp.states.index("a"), mdp.actions.index("go")
    k_b, k_a = mdp.states.index("b"), mdp.states.index("a")
    assert mdp.transition[i, j, k_b] == pytest.approx(2 / 3)
    assert mdp.transition[i, j, k_a] == pytest.approx(1 / 3)
    assert mdp.reward[i, j, k_b] == pytest.approx(1.0)
    assert mdp.reward[i, j, k_a] == pytest.approx(4.0)
    assert mdp.coverage[i, j]


def test_estimate_mdp_averages_rewards_per_destination():
    batch = [
        ExperienceTuple("a", "go", 2.0, "b"),
        ExperienceTuple("a", "go", 6.0, "b"),
    ]
    mdp = estimate_mdp(batch)
    i, j = mdp.states.index("a"), mdp.actions.index("go")
    k = mdp.states.index("b")
    assert mdp.reward[i, j, k] == pytest.approx(4.0)


def test_estimate_mdp_takes_a_mean_exactly_where_its_sum_overflows():
    # The cell's float sum overflows, though every reward and the mean are finite; learn takes this batch too.
    batch = [ExperienceTuple("s", "a", r, "s") for r in (1e308, 1e308, -1e308)]
    batch += [ExperienceTuple("s", "b", r, "s") for r in (0.1, 0.2, 0.3)]
    batch += [ExperienceTuple("s", "c", r, "s") for r in (-1e308, -1e308, 1e308)]
    mdp = estimate_mdp(batch)
    third = float(Fraction(1e308) / 3)
    assert mdp.step_reward.tolist() == [third, (0.1 + 0.2 + 0.3) / 3, -third]
    assert third == 1e308 / 3
    learn(batch, ControlParams())


def test_estimate_mdp_marks_unobserved_pairs_as_self_loops():
    batch = [ExperienceTuple("a", "go", 1.0, "b")]
    mdp = estimate_mdp(batch)
    i, j = mdp.states.index("b"), mdp.actions.index("go")
    assert mdp.transition[i, j, i] == 1.0
    assert mdp.reward[i, j].sum() == 0.0
    assert not mdp.coverage[i, j]
    # the filled-in rows still form a valid model
    value_iteration(mdp, gamma=0.5)


def test_estimate_mdp_recovers_deterministic_dynamics():
    from replayq.envs import gridworld_step

    batch = []
    for s in ["s1", "s2", "s3", "s4"]:
        for a in ["up", "down", "left", "right"]:
            nxt, r = gridworld_step(s, a)
            batch.append(ExperienceTuple(s, a, r, nxt))
    est = estimate_mdp(batch)
    exact = gridworld_mdp()
    for s in exact.states:
        for a in exact.actions:
            ei, ej = exact.states.index(s), exact.actions.index(a)
            ai, aj = est.states.index(s), est.actions.index(a)
            for s2 in exact.states:
                ek, ak = exact.states.index(s2), est.states.index(s2)
                assert est.transition[ai, aj, ak] == exact.transition[ei, ej, ek]
                if exact.transition[ei, ej, ek]:
                    assert est.reward[ai, aj, ak] == exact.reward[ei, ej, ek]
    q_est = value_iteration(est, gamma=0.5, tol=1e-9)
    q_exact = value_iteration(exact, gamma=0.5, tol=1e-9)
    for s in exact.states:
        for a in exact.actions:
            assert q_est.value(s, a) == pytest.approx(q_exact.value(s, a), abs=1e-7)


def _reference_estimate(batch):
    """Per-tuple loop over dense tables, the direct reading of estimate_mdp's contract."""
    states = list(dict.fromkeys(s for t in batch for s in (t.state, t.next_state)))
    actions = list(dict.fromkeys(t.action for t in batch))
    n_s, n_a = len(states), len(actions)
    counts, sums = np.zeros((n_s, n_a, n_s)), np.zeros((n_s, n_a, n_s))
    for t in batch:
        i, j, k = states.index(t.state), actions.index(t.action), states.index(t.next_state)
        counts[i, j, k] += 1.0
        sums[i, j, k] += t.reward
    totals = counts.sum(axis=2)
    transition, reward = np.zeros_like(counts), np.zeros_like(sums)
    np.divide(counts, totals[:, :, None], out=transition, where=totals[:, :, None] > 0.0)
    np.divide(sums, counts, out=reward, where=counts > 0.0)
    for i in range(n_s):
        for j in range(n_a):
            if totals[i, j] == 0.0:
                transition[i, j, i] = 1.0
    return states, actions, transition, reward, totals > 0.0


def test_estimate_mdp_matches_a_per_tuple_loop_bit_for_bit():
    rng = random.Random(17)
    # "e" and "f" only ever appear as next states, and "z" is never taken in
    # "d", so the batch leaves pairs uncovered; the few states repeat transitions.
    batch = []
    for _ in range(400):
        state = rng.choice("abcd")
        action = rng.choice("xy" if state == "d" else "xyz")
        batch.append(ExperienceTuple(state, action, rng.uniform(-3, 3), rng.choice("abcdef")))
    mdp = estimate_mdp(batch)
    states, actions, transition, reward, coverage = _reference_estimate(batch)
    assert (mdp.states, mdp.actions) == (tuple(states), tuple(actions))
    assert not coverage.all() and (transition > 0).sum() < len(batch)
    assert np.array_equal(mdp.transition, transition)
    assert np.array_equal(mdp.reward, reward)
    assert np.array_equal(mdp.coverage, coverage)


# sha256 of estimate_mdp on a seeded tic-tac-toe batch, as built while batches
# were still lists of ExperienceTuple; "labels" is the JSON of [states, actions].
# The transition list's four arrays were pinned later, from the same estimate,
# so the dense views' entries can go without pinning the MDP again.
PINNED_TTT_MDP_SHA256 = {
    "transition": "770a4971b68f583466fcda632dd8922c5968a0b111a0660cfd89680bebfe2000",
    "reward": "bf49c711ff9dac9acc20fe393bad8a3c1daa85bbc21d7dd1e87188e8201fad99",
    "pair": "a488e0ad1566737381569cc2db01b8608701fd0bd176abd7c6fbe45d09db9962",
    "next_state": "519ddcbf1c194325bb9f7fdac1d03981d48d7cfe5ad64c37ac6413cb3a76c476",
    "probability": "d3ccff64245d86548c9c567e73335c167031060ce527aa56ba0aa920ff15be2e",
    "step_reward": "a884084a5fb9103a103cc20baf0b82af3dee7478a5e95f97d1c36481f7513ef1",
    "coverage": "db24c8527d20b6c1a0d136d8276d6c1edefff2e460114a2b205583400ac9aa92",
    "labels": "279a9bfa41a0d76bdbdef2aebfcc75a43b7d5bce325e2344bcc22d6462471d26",
}


def test_seeded_tictactoe_estimate_keeps_its_bytes():
    mdp = estimate_mdp(ttt_generate_games(500, seed=1))
    parts = {
        "transition": mdp.transition.tobytes(),
        "reward": mdp.reward.tobytes(),
        **{name: getattr(mdp, name).tobytes() for name in ("pair", "next_state", "probability", "step_reward")},
        "coverage": mdp.coverage.tobytes(),
        "labels": json.dumps([mdp.states, mdp.actions]).encode(),
    }
    assert {name: hashlib.sha256(data).hexdigest() for name, data in parts.items()} == PINNED_TTT_MDP_SHA256


# sha256 of value_iteration's Q* rows, as solved while the values were held
# state-major, one row per state: "tictactoe" is the estimate above.
PINNED_Q_STAR_SHA256 = {
    "tictactoe 0.99": "797d19a1f4ae81a2c3cc84464c32087474f8e6fac363b0bf87934c4c82bee4fd",
    "gridworld 0.5": "f856c943d1f39148383331378a5b00481b55370c5a78f141054121b694595020",
    "gridworld 0.9": "4d69923587cbd831bded36aa514a548841658ecc27f65e7cb3d1e71009f1c5be",
    "gridworld 0.999": "b75e14937a01f7d94ad5cb61b9b1393bb6670fe0b709e161388abd20ef7fe274",
}


def test_value_iteration_keeps_its_bytes():
    mdps = {"tictactoe": estimate_mdp(ttt_generate_games(500, seed=1)), "gridworld": gridworld_mdp()}
    digests = {}
    for key in PINNED_Q_STAR_SHA256:
        name, gamma = key.split()
        digests[key] = hashlib.sha256(np.array(value_iteration(mdps[name], float(gamma)).rows).tobytes()).hexdigest()
    assert digests == PINNED_Q_STAR_SHA256


def table(rows, actions=("go", "stay")):
    q = QTable(actions=actions)
    for s, values in rows.items():
        for a, v in zip(actions, values):
            q.set(s, a, v)
    return q


Q_STAR = table({"a": [1.0, 1.0 + POLICY_TIE_MARGIN / 2], "b": [2.0, 0.0], "c": [0.0, 3.0]})


def test_compare_to_optimal_skips_states_tied_within_the_margin():
    # "a" is tied, so preferring "go" there is no mismatch.
    q = table({"a": [1.0, 1.0], "b": [2.0, 0.5], "c": [0.0, 3.25]})
    assert compare_to_optimal(q, Q_STAR) == (6, 0.5, 2, 0)


def test_compare_to_optimal_counts_a_non_greedy_state():
    q = table({"a": [1.0, 1.0], "b": [0.0, 1.0], "c": [0.0, 3.0]})
    assert compare_to_optimal(q, Q_STAR) == (6, 2.0, 2, 1)


def test_compare_to_optimal_reads_only_the_shared_pairs():
    # Only ("b", "go") and ("c", "go") are in both tables; "z" and "jump" are not.
    q = table({"b": [1.5, -100.0], "c": [-0.5, -100.0], "z": [50.0, 50.0]}, actions=("go", "jump"))
    assert compare_to_optimal(q, Q_STAR) == (2, 0.5, 2, 1)


@pytest.mark.parametrize("rows,actions", [({"z": [1.0]}, ("go",)), ({"a": [1.0]}, ("jump",))])
def test_compare_to_optimal_refuses_a_model_sharing_nothing(rows, actions):
    with pytest.raises(ValueError, match="shares no states or actions"):
        compare_to_optimal(table(rows, actions), Q_STAR)
