import math
import random

import pytest

from replayq.core import (
    ControlParams,
    ExperienceTuple,
    QTable,
    RLModel,
    policy_from_q,
)
from replayq.learner import epsilon_greedy


def test_experience_tuple_fields():
    t = ExperienceTuple("s1", "down", -1, "s2")
    assert t.state == "s1"
    assert t.action == "down"
    assert t.reward == -1.0
    assert isinstance(t.reward, float)
    assert t.next_state == "s2"


# 131,073 characters: one more than the csv module reads in a field by default.
@pytest.mark.parametrize("bad", ["a,b", "a\nb", "a\rb", "", '"a"', "a\ud800", pytest.param("s" * 131_073, id="too-long")])
def test_experience_tuple_rejects_bad_labels(bad):
    with pytest.raises(ValueError):
        ExperienceTuple(bad, "up", 0.0, "s1")
    with pytest.raises(ValueError):
        ExperienceTuple("s1", bad, 0.0, "s1")
    with pytest.raises(ValueError):
        ExperienceTuple("s1", "up", 0.0, bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_experience_tuple_rejects_non_finite_reward(bad):
    with pytest.raises(ValueError):
        ExperienceTuple("s1", "up", bad, "s2")


def test_control_params_defaults():
    c = ControlParams()
    assert (c.alpha, c.gamma, c.epsilon) == (0.1, 0.5, 0.1)


@pytest.mark.parametrize("field", ["alpha", "gamma", "epsilon"])
@pytest.mark.parametrize("value", [-0.01, 1.01, math.nan])
def test_control_params_bounds(field, value):
    with pytest.raises(ValueError):
        ControlParams(**{field: value})


def test_qtable_reads_zero_for_unknown_pairs():
    q = QTable()
    assert q.value("anything", "at-all") == 0.0
    q.add_state("s1")
    q.add_action("up")
    assert q.value("s1", "up") == 0.0
    assert max(q.rows[q.state_index["s1"]]) == 0.0


def test_qtable_set_and_get():
    q = QTable()
    q.set("s1", "up", 2.5)
    assert q.value("s1", "up") == 2.5
    assert q.states == ["s1"]
    assert q.actions == ["up"]
    q.set("s1", "up", -1.0)
    assert q.value("s1", "up") == -1.0


def test_qtable_preserves_first_appearance_order():
    q = QTable()
    for s, a in [("b", "y"), ("a", "x"), ("b", "x"), ("c", "y")]:
        q.set(s, a, 1.0)
    assert q.states == ["b", "a", "c"]
    assert q.actions == ["y", "x"]


@pytest.mark.parametrize("states,actions", [(["a", "b", "a"], []), ([], ["x", "x"])])
def test_qtable_rejects_repeated_labels(states, actions):
    with pytest.raises(ValueError, match="listed more than once"):
        QTable(states=states, actions=actions)


def test_qtable_rows_widen_with_new_actions():
    q = QTable(states=["s1", "s2"], actions=["up"])
    q.set("s2", "up", 2.0)
    q.add_action("down")
    assert q.rows == [[0.0, 0.0], [2.0, 0.0]]
    assert q.value("s2", "down") == 0.0
    assert max(q.rows[q.state_index["s2"]]) == 2.0


def test_qtable_rejects_non_finite_values():
    q = QTable()
    with pytest.raises(ValueError):
        q.set("s1", "up", math.inf)


def test_qtable_copy_is_independent():
    q = QTable()
    q.set("s1", "up", 1.0)
    dup = q.copy()
    dup.set("s1", "up", 9.0)
    dup.set("s2", "down", 1.0)
    assert q.value("s1", "up") == 1.0
    assert q.states == ["s1"]


def test_qtable_equality_ignores_explicit_zeros():
    a = QTable()
    a.set("s1", "up", 1.0)
    a.set("s1", "down", 0.0)
    b = QTable()
    b.add_state("s1")
    b.add_action("up")
    b.add_action("down")
    b.set("s1", "up", 1.0)
    assert a == b
    b.set("s1", "down", 0.25)
    assert a != b


def test_policy_from_q_breaks_ties_by_position():
    q = QTable()
    for a in ["up", "down", "left", "right"]:
        q.add_action(a)
    q.add_state("s1")
    assert policy_from_q(q) == {"s1": "up"}
    q.set("s1", "left", 3.0)
    q.set("s1", "right", 3.0)
    assert policy_from_q(q) == {"s1": "left"}
    # An unknown state reads as an all-zero row.
    assert epsilon_greedy(q, "s9", 0.0, random.Random(0)) == "up"


def test_greedy_rule_requires_actions():
    q = QTable()
    q.add_state("s1")
    with pytest.raises(ValueError, match="^no actions defined$"):
        epsilon_greedy(q, "s1", 0.0, random.Random(0))
    with pytest.raises(ValueError, match="^no actions defined$"):
        policy_from_q(q)
    assert policy_from_q(QTable()) == {}


def test_model_policy_follows_its_q():
    q = QTable(states=["s1", "s2"], actions=["up", "down"])
    model = RLModel(q=q, control=ControlParams())
    assert model.policy == {"s1": "up", "s2": "up"}
    model.q.set("s2", "down", 1.0)
    model.q.set("s3", "down", -1.0)
    assert model.policy == {"s1": "up", "s2": "down", "s3": "up"} == policy_from_q(model.q)


def test_policy_from_q_covers_every_state():
    q = QTable()
    q.set("s1", "up", 1.0)
    q.set("s2", "down", 2.0)
    pol = policy_from_q(q)
    assert set(pol) == {"s1", "s2"}
    assert pol["s1"] == "up"
    assert pol["s2"] == "down"


def test_policy_ignores_value_insertion_order():
    forward = QTable()
    backward = QTable()
    for t in (forward, backward):
        for a in ["up", "down", "left", "right"]:
            t.add_action(a)
    cells = [("s1", "up", 1.0), ("s1", "down", 1.0), ("s2", "left", 0.0), ("s2", "right", 0.0)]
    for s, a, v in cells:
        forward.set(s, a, v)
    for s, a, v in reversed(cells):
        backward.set(s, a, v)
    assert policy_from_q(forward) == policy_from_q(backward)


def test_policy_from_q_is_pure():
    q = QTable()
    q.set("s1", "up", 2.0)
    snapshot = q.copy()
    assert policy_from_q(q) == policy_from_q(q)
    assert q == snapshot
