import hashlib
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from replayq.core import (ControlParams, Environment, EnvResponse, ExperienceBatch, ExperienceTuple, QTable, RLModel,
                          policy_from_q)
from replayq.envs import (
    GRIDWORLD_ACTIONS,
    GRIDWORLD_STATES,
    SAMPLE_MODES,
    _StepTable,
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
    assert mdp.states == GRIDWORLD_STATES
    assert mdp.actions == GRIDWORLD_ACTIONS
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
    # Random mode reads neither, so passing one is a mistake, not a request.
    with pytest.raises(ValueError, match="^model and control are taken only in epsilon-greedy mode$"):
        sample_experience(5, env, model=model)
    with pytest.raises(ValueError, match="^model and control are taken only in epsilon-greedy mode$"):
        sample_experience(5, env, control=ControlParams(epsilon=0.0))


@pytest.mark.parametrize("n", [True, False, 2.0, "5", None, -1])
def test_sample_experience_refuses_counts_that_are_not_positive_integers(n):
    with pytest.raises(ValueError, match="^n must be"):
        sample_experience(n, gridworld_environment())


def test_sample_experience_takes_any_integer_count():
    env = gridworld_environment()
    assert sample_experience(np.int64(5), env, seed=3) == sample_experience(5, env, seed=3)


@pytest.mark.parametrize("mode", SAMPLE_MODES)
def test_sample_experience_refuses_an_environment_with_no_states_or_actions(mode):
    def step(s, a, rng):
        return EnvResponse(s, 0.0)

    q = QTable(["s"], ["a"])
    kwargs = {} if mode == "random" else {"model": RLModel(q, ControlParams()), "control": ControlParams()}
    for env, field in ((Environment("bare", (), ("a",), step), "states"),
                       (Environment("bare", ("s",), (), step), "actions")):
        with pytest.raises(ValueError, match=f"^environment 'bare' has no {field}$"):
            sample_experience(5, env, mode=mode, **kwargs)


@pytest.mark.parametrize("epsilon", [None, 0.0, 1.0])
@pytest.mark.parametrize("seed", range(4))
def test_sample_experience_refuses_an_unhashable_state_alike_in_both_modes(epsilon, seed):
    def step(s, a, rng):
        return EnvResponse("s", 0.0)

    env = Environment("lists", ("a,b", ["s"]), ("a",), step)
    kwargs = {}
    if epsilon is not None:  # at epsilon 0 the greedy branch takes the first action, then the row is coded
        kwargs = {"mode": "epsilon-greedy", "model": RLModel(QTable(["s"], ["a"]), ControlParams()),
                  "control": ControlParams(epsilon=epsilon)}
    # The first bad row is named, whichever state is drawn first.
    if random.Random(seed).choice(env.states) == "a,b":
        message = "state 'a,b' contains forbidden character ','"
    else:
        message = "state must be a non-empty string, got ['s']"
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        sample_experience(5, env, seed=seed, **kwargs)


def ref_sample(n, env, mode, model, control, seed):
    """The rows sample_experience draws, and its generator's final state, made
    with `choice` and `random` of one random.Random(seed)."""
    rng = random.Random(seed)
    rows = []
    for _ in range(n):
        state = rng.choice(env.states)
        if mode == "random":
            action = rng.choice(env.actions)
        elif rng.random() < control.epsilon:
            action = rng.choice(model.q.actions)
        else:
            action = policy_from_q(model.q).get(state, model.q.actions[0])
        next_state, reward = env.step(state, action, rng)
        rows.append(ExperienceTuple(state, action, reward, next_state))
    return rows, rng.getstate()


@st.composite
def sampler_cases(draw):
    """A small environment whose steps may draw from the generator, and a model
    that may lack some of its states and lists its actions in any order. An
    environment whose every pair steps to a fixed response may hold its step
    as a table, which the sampler reads instead of calling."""
    labels = st.text(alphabet="abxy", min_size=1, max_size=2)
    states = draw(st.lists(labels, min_size=1, max_size=5, unique=True))
    actions = draw(st.lists(labels, min_size=1, max_size=4, unique=True))
    table = draw(st.booleans())
    # Each pair steps to a fixed response, or draws its next state or its reward.
    kinds = st.just("fixed") if table else st.sampled_from(["fixed", "next", "reward"])
    dynamics = {(s, a): (draw(kinds), draw(st.sampled_from(states)), draw(st.sampled_from([-1.0, 0.0, 10.0])))
                for s in states for a in actions}
    generators = []

    def step(s, a, rng):
        generators.append(rng)
        kind, next_state, reward = dynamics[s, a]
        if kind == "next":
            next_state = rng.choice(states)
        elif kind == "reward":
            reward = rng.random()
        return EnvResponse(next_state, reward)

    if table:
        step = _StepTable({s: {a: EnvResponse(*dynamics[s, a][1:]) for a in actions} for s in states})
    q = QTable(draw(st.lists(st.sampled_from(states), unique=True)), draw(st.permutations(actions)))
    for s in q.states:
        for a in q.actions:
            q.set(s, a, draw(st.sampled_from([-1.0, 0.0, 1.0])))  # ties are common
    return Environment("drawn", tuple(states), tuple(actions), step), RLModel(q, ControlParams()), generators


def _columns(batch):
    return batch.states, batch.actions, batch.s, batch.a, batch.r, batch.s_new


@settings(max_examples=200, deadline=None)
@given(case=sampler_cases(), mode=st.sampled_from(SAMPLE_MODES), n=st.integers(1, 60),
       epsilon=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       seed=st.integers(0, 2**32 - 1))
def test_sample_experience_draws_as_choice_and_random_of_one_generator(case, mode, n, epsilon, seed):
    env, model, generators = case
    kwargs = {}
    if mode == "epsilon-greedy":
        kwargs = {"model": model, "control": ControlParams(epsilon=epsilon)}
    batch = sample_experience(n, env, mode=mode, seed=seed, **kwargs)
    state = generators[-1].getstate() if generators else None  # a table never sees the generator
    rows, ref_state = ref_sample(n, env, mode, model, kwargs.get("control"), seed)
    assert batch == rows
    assert _columns(batch) == _columns(ExperienceBatch(rows))
    if type(env.step) is not _StepTable:
        assert state == ref_state


def _called(env):
    """`env` with a plain function for its step, which the sampler calls once per tuple."""
    step = env.step
    return Environment(env.name, env.states, env.actions, lambda s, a, rng: step(s, a, rng), env.exact_mdp)


@st.composite
def gridworld_models(draw):
    """A gridworld model that may lack some states and lists a subset of the actions in any order."""
    actions = draw(st.lists(st.sampled_from(GRIDWORLD_ACTIONS), min_size=1, unique=True))
    q = QTable(draw(st.lists(st.sampled_from(GRIDWORLD_STATES), unique=True)), actions)
    for s in q.states:
        for a in q.actions:
            q.set(s, a, draw(st.sampled_from([-1.0, 0.0, 1.0])))
    return RLModel(q, ControlParams())


@settings(max_examples=200, deadline=None)
@given(mode=st.sampled_from(SAMPLE_MODES), n=st.integers(1, 1000), model=gridworld_models(),
       epsilon=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       seed=st.integers(0, 2**32 - 1))
def test_the_gridworld_table_samples_as_its_step_called_per_tuple(mode, n, model, epsilon, seed):
    env = gridworld_environment()
    kwargs = {"model": model, "control": ControlParams(epsilon=epsilon)} if mode == "epsilon-greedy" else {}
    batch = sample_experience(n, env, mode=mode, seed=seed, **kwargs)
    assert _columns(batch) == _columns(sample_experience(n, _called(env), mode=mode, seed=seed, **kwargs))


@pytest.mark.parametrize("mode", SAMPLE_MODES)
@pytest.mark.parametrize("seed", range(4))
def test_the_gridworld_table_samples_a_label_not_an_exact_str_as_its_step_called_per_tuple(mode, seed):
    env = Environment("grid", ("s1", ["s2"], np.str_("s3")), GRIDWORLD_ACTIONS, gridworld_step)
    kwargs = {}
    if mode == "epsilon-greedy":
        kwargs = {"model": RLModel(QTable(["s1"], ["up"]), ControlParams()), "control": ControlParams(epsilon=0.5)}
    outcomes = []
    for sampled in (env, _called(env)):
        try:
            outcomes.append(_columns(sample_experience(5, sampled, mode=mode, seed=seed, **kwargs)))
        except ValueError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]


def _jump_model(state):
    """A gridworld model whose greedy action at `state`, and there alone, is `jump`, which the gridworld lacks."""
    q = QTable(GRIDWORLD_STATES, ["up", "jump"])
    q.set(state, "jump", 1.0)
    return RLModel(q, ControlParams())


def test_a_pair_the_gridworld_table_lacks_is_refused_by_the_call_at_its_draw(monkeypatch):
    env, kwargs = gridworld_environment(), {"model": _jump_model("s2"), "control": ControlParams(epsilon=0.5)}
    # The generator's state at each call of the step shows the draw it steps.
    called_at = []
    table_call = _StepTable.__call__

    def record(step, s, a, rng=None):
        called_at.append(rng.getstate())
        return table_call(step, s, a, rng)

    called = Environment(env.name, env.states, env.actions, lambda s, a, rng: record(env.step, s, a, rng))
    with pytest.raises(ValueError, match="^unknown action 'jump'$"):
        sample_experience(1000, called, mode="epsilon-greedy", seed=5, **kwargs)
    refused_at, called_at[:] = called_at[-1], []
    monkeypatch.setattr(_StepTable, "__call__", record)
    with pytest.raises(ValueError, match="^unknown action 'jump'$"):
        sample_experience(1000, env, mode="epsilon-greedy", seed=5, **kwargs)
    assert called_at == [refused_at]


def test_a_greedy_pair_the_gridworld_table_lacks_is_stepped_only_when_drawn():
    env, seed = gridworld_environment(), 3
    assert random.Random(seed).choice(env.states) != "s4"  # the one draw starts elsewhere
    kwargs = {"model": _jump_model("s4"), "control": ControlParams(epsilon=0.0)}
    batch = sample_experience(1, env, mode="epsilon-greedy", seed=seed, **kwargs)
    assert _columns(batch) == _columns(sample_experience(1, _called(env), mode="epsilon-greedy", seed=seed, **kwargs))


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


def _gridworld_digests():
    # A gridworld model that lacks s2 and s4 and lists its actions in another order than the environment.
    q = QTable(["s3", "s1"], ["right", "up", "down", "left"])
    q.set("s3", "up", 5.0)
    q.set("s1", "down", 1.0)
    q.set("s1", "left", 2.0)
    grid_model = RLModel(q, ControlParams())
    digests = {}
    for epsilon in (0.0, 0.1, 1.0):
        batch = sample_experience(2000, gridworld_environment(), mode="epsilon-greedy", model=grid_model,
                                  control=ControlParams(epsilon=epsilon), seed=23)
        digests[f"gridworld-epsilon-{epsilon:g}"] = _batch_digest(batch)
    return digests


def test_seeded_sampler_batches_keep_their_columns():
    ttt = tictactoe_environment()
    control = ControlParams(alpha=0.2, gamma=0.99, epsilon=0.1)
    ttt_model = learn(ttt_generate_games(300, seed=5), control, iterations=3, seed=1)
    digests = {
        "tictactoe-random": _batch_digest(sample_experience(3000, ttt, seed=21)),
        "tictactoe-epsilon-greedy": _batch_digest(
            sample_experience(3000, ttt, mode="epsilon-greedy", model=ttt_model, control=control, seed=22)),
        **_gridworld_digests(),
    }
    assert digests == PINNED_SAMPLER_SHA256


def test_the_gridworld_sampler_reads_its_table_without_calling_its_step(monkeypatch):
    def refuse(*args):
        raise AssertionError("the gridworld's step was called")

    monkeypatch.setattr(_StepTable, "__call__", refuse)
    assert _gridworld_digests() == {k: v for k, v in PINNED_SAMPLER_SHA256.items() if k.startswith("gridworld")}
    sample_experience(1000, gridworld_environment(), seed=1)
