import hashlib
import re

import pytest

from replayq.core import ControlParams, QTable, RLModel
from replayq.envs import (
    GRIDWORLD_ACTIONS,
    GRIDWORLD_STATES,
    environment_names,
    gridworld_environment,
    gridworld_mdp,
    gridworld_step,
    make_environment,
    sample_experience,
)
from replayq.learner import learn
from replayq.tictactoe import tictactoe_environment, ttt_generate_games

# Independently tabulated dynamics: the grid is s1 | s4 over s2 | s3 with a
# wall between s1 and s4, so the only open passages are s1-s2, s2-s3, s3-s4.
# Everything else stays put. Moving onto the goal pays 10, all else costs 1.
EXPECTED_STEPS = {
    ("s1", "up"): ("s1", -1.0),
    ("s1", "down"): ("s2", -1.0),
    ("s1", "left"): ("s1", -1.0),
    ("s1", "right"): ("s1", -1.0),
    ("s2", "up"): ("s1", -1.0),
    ("s2", "down"): ("s2", -1.0),
    ("s2", "left"): ("s2", -1.0),
    ("s2", "right"): ("s3", -1.0),
    ("s3", "up"): ("s4", 10.0),
    ("s3", "down"): ("s3", -1.0),
    ("s3", "left"): ("s2", -1.0),
    ("s3", "right"): ("s3", -1.0),
    ("s4", "up"): ("s4", -1.0),
    ("s4", "down"): ("s4", -1.0),
    ("s4", "left"): ("s4", -1.0),
    ("s4", "right"): ("s4", -1.0),
}


@pytest.mark.parametrize("state,action", sorted(EXPECTED_STEPS))
def test_gridworld_step_matches_tabulated_dynamics(state, action):
    assert gridworld_step(state, action) == EXPECTED_STEPS[(state, action)]


# (state, action, the ValueError's message): unhashable labels are unknown too.
UNKNOWN_LABELS = [
    ("s9", "up", "unknown state 's9'"),
    ("s1", "jump", "unknown action 'jump'"),
    ("s9", "jump", "unknown state 's9'"),
    (["s1"], "up", "unknown state ['s1']"),
    ("s1", {"up"}, "unknown action {'up'}"),
    (["s1"], {"up"}, "unknown state ['s1']"),
    (None, "up", "unknown state None"),
]


def test_gridworld_step_rejects_unknown_labels():
    env_step = gridworld_environment().step
    for step in (gridworld_step, lambda s, a: env_step(s, a, None)):
        for state, action, message in UNKNOWN_LABELS:
            with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
                step(state, action)


def test_gridworld_goal_is_absorbing_and_penalized():
    for a in GRIDWORLD_ACTIONS:
        nxt, r = gridworld_step("s4", a)
        assert nxt == "s4"
        assert r == -1.0


def test_gridworld_mdp_agrees_with_step_function():
    mdp = gridworld_mdp()
    assert mdp.states == list(GRIDWORLD_STATES)
    assert mdp.actions == list(GRIDWORLD_ACTIONS)
    assert mdp.coverage.all()
    for i, s in enumerate(mdp.states):
        for j, a in enumerate(mdp.actions):
            nxt, reward = gridworld_step(s, a)
            k = mdp.states.index(nxt)
            assert mdp.transition[i, j, k] == 1.0
            assert mdp.transition[i, j].sum() == 1.0
            assert mdp.reward[i, j, k] == reward


def test_environment_registry():
    assert environment_names() == ("gridworld-2x2", "tictactoe")
    env = make_environment("gridworld-2x2")
    assert env.name == "gridworld-2x2"
    assert env.states == GRIDWORLD_STATES
    with pytest.raises(ValueError, match="unknown environment"):
        make_environment("chess")
    # Each registered name builds the environment that carries it.
    assert tuple(make_environment(name).name for name in environment_names()) == environment_names()


def test_sample_experience_shape_and_consistency():
    env = gridworld_environment()
    batch = sample_experience(50, env, seed=11)
    assert len(batch) == 50
    for t in batch:
        assert (t.next_state, t.reward) == EXPECTED_STEPS[(t.state, t.action)]


def test_sample_experience_is_seeded():
    env = gridworld_environment()
    assert sample_experience(30, env, seed=1) == sample_experience(30, env, seed=1)
    assert sample_experience(30, env, seed=1) != sample_experience(30, env, seed=2)


def test_sample_experience_mean_reward_is_slightly_negative():
    # 15 of 16 uniform state-action pairs pay -1 and one pays +10,
    # so the long-run mean is -5/16
    env = gridworld_environment()
    batch = sample_experience(4000, env, seed=0)
    mean = sum(t.reward for t in batch) / len(batch)
    assert mean == pytest.approx(-0.3125, abs=0.2)


def test_sample_experience_validates_arguments():
    env = gridworld_environment()
    with pytest.raises(ValueError):
        sample_experience(0, env)
    with pytest.raises(ValueError, match="mode"):
        sample_experience(5, env, mode="sorted")
    with pytest.raises(ValueError, match="model"):
        sample_experience(5, env, mode="epsilon-greedy")
    model = RLModel(QTable(), ControlParams())
    with pytest.raises(ValueError, match="^control required for epsilon-greedy$"):
        sample_experience(5, env, mode="epsilon-greedy", model=model)
    with pytest.raises(ValueError, match="^no actions defined$"):
        sample_experience(5, env, mode="epsilon-greedy", model=model, control=ControlParams())


def test_epsilon_greedy_sampling_prefers_the_learned_action():
    env = gridworld_environment()
    control = ControlParams(alpha=0.1, gamma=0.5, epsilon=0.1)
    model = learn(sample_experience(1000, env, seed=3), control, iterations=200, seed=3)
    batch = sample_experience(
        2000, env, mode="epsilon-greedy", model=model, control=control, seed=4
    )
    from_s3 = [t for t in batch if t.state == "s3"]
    share_up = sum(t.action == "up" for t in from_s3) / len(from_s3)
    assert share_up > 0.8
    mean = sum(t.reward for t in batch) / len(batch)
    assert mean > 0.5


# sha256 of seeded sampler batches, as drawn while the sampler still handed
# each row to ExperienceBatch(rows) and the gridworld computed each step.
PINNED_SAMPLER_SHA256 = {
    "tictactoe-random": "a9f8a33aa35b2a5339a750a2d0d615e760a4400ca68a2770a977ac47de9db48f",
    "tictactoe-epsilon-greedy": "1db53ea8fbad0a0dc042efa6a40fa071779a7df35c4ef9c9639468e8eb1a5522",
    "gridworld-epsilon-0": "aa0a86b4215cc15f567a56035a312434cf5de53a8ee5ac63ba38291320e81679",
    "gridworld-epsilon-0.1": "04dc8d3df3290b6ae1e8cc56ce32b3027733f1a7dc04247ca11f9973f82067e4",
    "gridworld-epsilon-1": "271a2c89efb66e525cce6253f2332096e8685d6514c282fea66d774885c6a967",
}


def _batch_digest(batch):
    columns = (batch.states, batch.actions, batch.s, batch.a, batch.r, batch.s_new)
    return hashlib.sha256(repr(columns).encode()).hexdigest()


def test_seeded_sampler_batches_keep_their_columns():
    ttt = tictactoe_environment()
    control = ControlParams(alpha=0.2, gamma=0.99, epsilon=0.1)
    ttt_model = learn(ttt_generate_games(300, seed=5), control, iterations=3, seed=1)
    # A gridworld model that lacks s2 and s4 and lists its actions in another order than the environment.
    q = QTable(["s3", "s1"], ["right", "up", "down", "left"])
    q.set("s3", "up", 5.0)
    q.set("s1", "down", 1.0)
    q.set("s1", "left", 2.0)
    grid_model = RLModel(q, ControlParams())
    digests = {
        "tictactoe-random": _batch_digest(sample_experience(3000, ttt, seed=21)),
        "tictactoe-epsilon-greedy": _batch_digest(
            sample_experience(3000, ttt, mode="epsilon-greedy", model=ttt_model, control=control, seed=22)),
    }
    for epsilon in (0.0, 0.1, 1.0):
        batch = sample_experience(2000, gridworld_environment(), mode="epsilon-greedy", model=grid_model,
                                  control=ControlParams(epsilon=epsilon), seed=23)
        digests[f"gridworld-epsilon-{epsilon:g}"] = _batch_digest(batch)
    assert digests == PINNED_SAMPLER_SHA256
