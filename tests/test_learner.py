import gc
import math
import random

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from replayq import learner
from replayq.core import ControlParams, ExperienceTuple, QTable, RLModel
from replayq.learner import (
    epsilon_greedy,
    learn,
    update_model,
)
from replayq.persist import model_to_json

CONTROL = ControlParams(alpha=0.1, gamma=0.5, epsilon=0.1)


def td_step(q, t, alpha, gamma):
    """One TD update of `q` toward `t`, through the only update path: `learn`."""
    control = ControlParams(alpha=alpha, gamma=gamma)
    return learn([t], control, prior=RLModel(q=q, control=control)).q


def test_q_update_from_zeros_scales_reward_by_alpha():
    q = QTable()
    t = ExperienceTuple("s1", "up", 10.0, "s2")
    out = td_step(q, t, alpha=0.1, gamma=0.5)
    # the bootstrap term is zero on a fresh table, so the step is just alpha * r
    assert out.value("s1", "up") == pytest.approx(1.0)
    assert q.value("s1", "up") == 0.0


def test_q_update_bootstraps_from_next_state_max():
    q = QTable()
    q.set("s2", "left", 4.0)
    q.set("s2", "right", 6.0)
    q.set("s1", "up", 1.0)
    out = td_step(q, ExperienceTuple("s1", "up", 2.0, "s2"), alpha=0.5, gamma=0.5)
    # target = 2 + 0.5 * 6 = 5; new value = 1 + 0.5 * (5 - 1) = 3
    assert out.value("s1", "up") == pytest.approx(3.0)


def test_q_update_full_step_hits_the_bellman_target():
    q = QTable()
    for a in ["up", "down", "left", "right"]:
        q.set("s4", a, -2.0)
    out = td_step(q, ExperienceTuple("s3", "up", 10.0, "s4"), alpha=1.0, gamma=0.5)
    assert out.value("s3", "up") == pytest.approx(9.0)


def test_q_update_alpha_zero_is_identity():
    q = QTable()
    q.set("s1", "up", 2.0)
    out = td_step(q, ExperienceTuple("s1", "up", 99.0, "s1"), alpha=0.0, gamma=0.9)
    assert out == q


def test_q_update_registers_next_state():
    out = td_step(QTable(), ExperienceTuple("s1", "up", 0.0, "s9"), alpha=0.1, gamma=0.5)
    assert "s9" in out.states


@pytest.mark.parametrize("alpha,gamma", [(-0.1, 0.5), (1.1, 0.5), (0.1, -0.1), (0.1, 1.5)])
def test_q_update_validates_rates(alpha, gamma):
    # learn takes its rates only through ControlParams, which refuses these.
    with pytest.raises(ValueError, match="must lie in"):
        td_step(QTable(), ExperienceTuple("s1", "up", 0.0, "s1"), alpha=alpha, gamma=gamma)


def test_replay_pass_total_reward_is_batch_sum():
    batch = [
        ExperienceTuple("s1", "up", 1.5, "s2"),
        ExperienceTuple("s2", "down", -2.0, "s1"),
        ExperienceTuple("s1", "up", 0.5, "s1"),
    ]
    model = learn(batch, CONTROL, iterations=1)
    assert model.reward_history == [pytest.approx(0.0)]


def test_replay_pass_single_tuple_equals_q_update():
    t = ExperienceTuple("s1", "up", 3.0, "s2")
    via_pass = learn([t], CONTROL, iterations=1).q
    via_update = td_step(QTable(), t, alpha=CONTROL.alpha, gamma=CONTROL.gamma)
    assert via_pass == via_update


def test_replayed_value_decays_geometrically_toward_target():
    t = ExperienceTuple("s1", "up", 4.0, "terminal")
    control = ControlParams(alpha=0.25, gamma=0.0, epsilon=0.1)
    model = None
    gaps = []
    for _ in range(6):
        model = learn([t], control, prior=model)
        gaps.append(abs(model.q.value("s1", "up") - 4.0))
    for before, after in zip(gaps, gaps[1:]):
        assert after == pytest.approx(before * 0.75)


def test_replay_pass_shuffle_depends_on_rng():
    batch = [ExperienceTuple(f"s{i}", "up", float(i), f"s{i + 1}") for i in range(8)]
    q1 = learn(batch, CONTROL, seed=1).q
    q1b = learn(batch, CONTROL, seed=1).q
    q2 = learn(batch, CONTROL, seed=2).q
    assert q1 == q1b
    # a different visit order bootstraps different intermediate values
    assert q1 != q2


def test_replay_pass_leaves_input_table_and_batch_alone():
    batch = [ExperienceTuple("s1", "up", 1.0, "s2"), ExperienceTuple("s2", "up", 2.0, "s1")]
    before = list(batch)
    prior = RLModel(q=QTable(), control=CONTROL)
    learn(batch, CONTROL, prior=prior)
    assert batch == before
    assert prior.q == QTable()


def test_learn_rejects_empty_batch():
    with pytest.raises(ValueError, match="no training data"):
        learn([], CONTROL)


def test_learn_rejects_non_positive_iterations():
    batch = [ExperienceTuple("s1", "up", 1.0, "s1")]
    with pytest.raises(ValueError):
        learn(batch, CONTROL, iterations=0)


def test_learn_model_shape():
    batch = [
        ExperienceTuple("s1", "up", 1.0, "s2"),
        ExperienceTuple("s2", "down", -1.0, "s1"),
    ]
    model = learn(batch, CONTROL, iterations=3, seed=5)
    assert model.learning_rule == RLModel.learning_rule == "experienceReplay"
    assert model.iterations_completed == 3
    assert len(model.reward_history) == 3
    assert all(r == pytest.approx(0.0) for r in model.reward_history)
    assert set(model.policy) == {"s1", "s2"}
    assert model.q.states == ["s1", "s2"]


def test_learn_is_deterministic_per_seed():
    rng = random.Random(99)
    batch = [
        ExperienceTuple(f"s{rng.randrange(4)}", "a", rng.uniform(-1, 1), f"s{rng.randrange(4)}")
        for _ in range(60)
    ]
    m1 = learn(batch, CONTROL, iterations=10, seed=3)
    m2 = learn(batch, CONTROL, iterations=10, seed=3)
    m3 = learn(batch, CONTROL, iterations=10, seed=4)
    assert m1.q == m2.q
    assert m1.policy == m2.policy
    assert m1.q != m3.q


def test_learn_with_prior_starts_from_its_values():
    first = learn([ExperienceTuple("s1", "up", 10.0, "s1")], CONTROL, iterations=1)
    frozen = ControlParams(alpha=0.0, gamma=0.5, epsilon=0.1)
    second = learn(
        [ExperienceTuple("s1", "down", 5.0, "s2")], frozen, iterations=4, prior=first
    )
    # alpha=0 means the new batch only registers labels; prior values survive
    assert second.q.value("s1", "up") == first.q.value("s1", "up")
    assert second.q.value("s1", "down") == 0.0
    assert "s2" in second.q.states
    assert first.q.states == ["s1"]


def test_update_model_matches_learn_with_prior():
    b1 = [ExperienceTuple("s1", "up", 1.0, "s2"), ExperienceTuple("s2", "down", 3.0, "s1")]
    b2 = [ExperienceTuple("s2", "up", -1.0, "s1"), ExperienceTuple("s1", "down", 2.0, "s2")]
    base = learn(b1, CONTROL, iterations=2, seed=0)
    via_update = update_model(base, b2, CONTROL, iterations=3, seed=7)
    via_learn = learn(b2, CONTROL, iterations=3, seed=7, prior=base)
    assert via_update.q == via_learn.q
    assert via_update.policy == via_learn.policy
    assert via_update.reward_history == via_learn.reward_history


def test_gamma_zero_converges_to_mean_reward():
    batch = [ExperienceTuple("s1", "up", 3.0, "s1")] * 4
    control = ControlParams(alpha=0.1, gamma=0.0, epsilon=0.1)
    model = learn(batch, control, iterations=200, seed=0)
    assert model.q.value("s1", "up") == pytest.approx(3.0, abs=1e-6)


def test_epsilon_greedy_zero_epsilon_is_greedy():
    q = QTable()
    q.set("s1", "up", 1.0)
    q.set("s1", "down", 5.0)
    rng = random.Random(0)
    assert all(epsilon_greedy(q, "s1", 0.0, rng) == "down" for _ in range(50))


def test_epsilon_greedy_fully_random_is_uniform():
    q = QTable()
    for a in ["up", "down", "left", "right"]:
        q.set("s1", a, 0.0)
    q.set("s1", "up", 1.0)
    rng = random.Random(0)
    draws = 10_000
    counts = {}
    for _ in range(draws):
        a = epsilon_greedy(q, "s1", 1.0, rng)
        counts[a] = counts.get(a, 0) + 1
    assert set(counts) == {"up", "down", "left", "right"}
    for n in counts.values():
        assert n / draws == pytest.approx(0.25, abs=0.02)


def test_epsilon_greedy_validates_inputs():
    q = QTable()
    q.set("s1", "up", 1.0)
    with pytest.raises(ValueError):
        epsilon_greedy(q, "s1", 1.5, random.Random(0))
    with pytest.raises(ValueError):
        epsilon_greedy(QTable(), "s1", 0.1, random.Random(0))


def test_replay_items_are_untracked_by_the_cyclic_collector(monkeypatch):
    # Relies on CPython untracking a tuple of atomic values (ints, floats) once
    # the collector has examined it. An item holding a Q row, a list, would stay
    # tracked, and every collection would traverse the whole batch again.
    captured = []
    backup = learner._backup

    def capture(items, *args):
        captured.extend(items)
        return backup(items, *args)

    monkeypatch.setattr(learner, "_backup", capture)
    batch = [ExperienceTuple(f"s{k % 5}", f"a{k % 3}", float(k), f"s{(k + 1) % 5}") for k in range(50)]
    learn(batch, CONTROL, iterations=2)
    gc.collect()
    assert len(captured) == 100
    assert not any(map(gc.is_tracked, captured))


def test_learn_rejects_values_that_overflow():
    batch = [ExperienceTuple("s1", "up", 1e308, "s1")]
    control = ControlParams(alpha=1.0, gamma=1.0)
    with pytest.raises(ValueError, match=r"\('s1', 'up'\) must be finite"):
        learn(batch, control, iterations=3)
    model = learn(batch, control)
    with pytest.raises(ValueError, match="must be finite"):
        learn(batch, control, prior=model)


def test_learn_refuses_a_batch_whose_reward_total_overflows():
    control = ControlParams(alpha=0.5, gamma=0.5)
    for sign in (1.0, -1.0):
        batch = [ExperienceTuple("s1", "up", sign * 1e308, "s2")] * 2
        got = "-inf" if sign < 0 else "inf"
        with pytest.raises(ValueError, match=f"reward total must be finite, got {got}$"):
            learn(batch, control)
        with pytest.raises(ValueError, match="reward total must be finite"):
            update_model(learn(batch[:1], control), batch, control)


def test_learn_keeps_a_finite_reward_total_whose_partial_sums_overflow():
    # math.fsum raises on the partial sum 2e308, though the total is 1e308.
    batch = [ExperienceTuple("s1", "up", r, "s2") for r in (1e308, 1e308, -1e308)]
    model = learn(batch, ControlParams(alpha=0.5, gamma=0.5), iterations=2)
    assert model.reward_history == [1e308, 1e308]


# --- property: the interned learner equals a dict-based reference -------------
#
# The reference keeps values in a (state, action)-keyed dict, registers every
# label of a batch before its first pass, and picks its own greedy policy.


def ref_register(tab, t):
    states, actions, _ = tab
    for label, known in ((t.state, states), (t.action, actions), (t.next_state, states)):
        if label not in known:
            known.append(label)


def ref_update(tab, t, alpha, gamma):
    states, actions, values = tab
    current = values.get((t.state, t.action), 0.0)
    best = max(values.get((t.next_state, a), 0.0) for a in actions)
    updated = current + alpha * (t.reward + gamma * best - current)
    if updated != current:
        values[(t.state, t.action)] = updated


def ref_pass(tab, batch, control, rng):
    order = list(batch)
    rng.shuffle(order)
    for t in order:
        ref_update(tab, t, control.alpha, control.gamma)


def ref_learn(batch, control, iterations, seed, prior=None):
    tab = ([], [], {}) if prior is None else (list(prior[0]), list(prior[1]), dict(prior[2]))
    for t in batch:
        ref_register(tab, t)
    rng = random.Random(seed)
    for _ in range(iterations):
        ref_pass(tab, batch, control, rng)
    return tab


def ref_model(tab, control, iterations, history):
    states, actions, values = tab
    q = QTable(states, actions)
    for (s, a), v in values.items():
        q.set(s, a, v)
    return RLModel(q, control, list(history))


def ref_policy(tab):
    """Greedy policy of the reference table: the first action of the row maximum."""
    states, actions, values = tab
    rows = {s: [values.get((s, a), 0.0) for a in actions] for s in states}
    return {s: actions[rows[s].index(max(rows[s]))] for s in states}


def assert_matches_reference(model, tab, control, iterations, history):
    assert model_to_json(model) == model_to_json(ref_model(tab, control, iterations, history))
    assert model.policy == ref_policy(tab)


labels = st.text(alphabet="abxy", min_size=1, max_size=2)
# The endpoints and small integer rewards make tied maxima, and updates that
# lower a row's maximum, common; small label sets make self-loops common.
rates = st.floats(0.0, 1.0) | st.sampled_from([0.0, 1.0])
controls = st.builds(ControlParams, alpha=rates, gamma=rates)
rewards = st.floats(-1e3, 1e3) | st.sampled_from([-1.0, 0.0, 1.0])


@st.composite
def batch_pairs(draw):
    """A batch, and a second one over the same labels plus a new state and a new action."""
    states = draw(st.lists(labels, min_size=1, max_size=4, unique=True))
    actions = draw(st.lists(labels, min_size=1, max_size=3, unique=True))

    def tuples(states, actions, min_size):
        one = st.builds(ExperienceTuple, st.sampled_from(states), st.sampled_from(actions),
                        rewards, st.sampled_from(states))
        return st.lists(one, min_size=min_size, max_size=40)

    more_states = states + ["z"]
    more = draw(tuples(more_states, actions, 0)) + draw(tuples(more_states, ["new"], 1))
    return draw(tuples(states, actions, 1)), more


@settings(max_examples=200, deadline=None,
          phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.target, Phase.shrink])
@given(pair=batch_pairs(), control=controls, iterations=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1), with_prior=st.booleans())
def test_interned_learner_matches_reference(pair, control, iterations, seed, with_prior):
    batch, more = pair
    # `more` brings an action the prior lacks, so training on it widens every prior row.
    first = learn(batch, control, iterations=iterations, seed=seed)
    ref = ref_learn(batch, control, iterations, seed)
    history = [math.fsum(t.reward for t in batch)] * iterations
    assert_matches_reference(first, ref, control, iterations, history)
    if not with_prior:
        return

    prior_text = model_to_json(first)
    second = update_model(first, more, control, iterations=iterations, seed=seed + 1)
    ref2 = ref_learn(more, control, iterations, seed + 1, prior=ref)
    history += [math.fsum(t.reward for t in more)] * iterations
    assert_matches_reference(second, ref2, control, 2 * iterations, history)
    assert model_to_json(learn(more, control, iterations, seed + 1, prior=first)) == model_to_json(second)
    assert model_to_json(first) == prior_text


@st.composite
def deterministic_batches(draw):
    """A batch in which each (state, action) pair has one reward and one next state,
    and a second one over the same dynamics."""
    states = draw(st.lists(labels, min_size=1, max_size=4, unique=True))
    actions = draw(st.lists(labels, min_size=1, max_size=3, unique=True))
    pairs = draw(st.lists(st.tuples(st.sampled_from(states), st.sampled_from(actions)), min_size=1, max_size=8,
                          unique=True))
    dynamics = [ExperienceTuple(s, a, draw(rewards), draw(st.sampled_from(states))) for s, a in pairs]
    tuples = st.lists(st.sampled_from(dynamics), min_size=1, max_size=30)
    return draw(tuples), draw(tuples)


@settings(max_examples=100, deadline=None,
          phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.target, Phase.shrink])
@given(pair=deterministic_batches(), control=controls, iterations=st.integers(1, 60),
       seed=st.integers(0, 2**32 - 1))
def test_replay_that_stops_at_its_fixed_point_equals_every_pass(pair, control, iterations, seed):
    # Deterministic dynamics let replay reach an exact fixed point within the
    # passes asked for; the reference runs every pass regardless.
    batch, more = pair
    first = learn(batch, control, iterations=iterations, seed=seed)
    ref = ref_learn(batch, control, iterations, seed)
    history = [math.fsum(t.reward for t in batch)] * iterations
    assert_matches_reference(first, ref, control, iterations, history)
    # Continuing from a fixed point may stop after the first pass.
    second = learn(more, control, iterations=iterations, seed=seed + 1, prior=first)
    ref2 = ref_learn(more, control, iterations, seed + 1, prior=ref)
    history += [math.fsum(t.reward for t in more)] * iterations
    assert_matches_reference(second, ref2, control, 2 * iterations, history)
