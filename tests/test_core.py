import math
import random
import re
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from replayq.core import (
    ControlParams,
    Environment,
    EnvResponse,
    ExperienceBatch,
    ExperienceTuple,
    QTable,
    RLModel,
    _FORBIDDEN_CHARS,
    _shuffle,
    _validate_labels,
    policy_from_q,
    validate_label,
)
from replayq.envs import gridworld_mdp, gridworld_step, make_environment, sample_experience
from replayq.learner import epsilon_greedy, learn
from replayq.oracle import estimate_mdp
from replayq.persist import format_report
from replayq.tictactoe import EMPTY_BOARD, tictactoe_step, ttt_winner


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


@pytest.mark.parametrize("field", ["alpha", "gamma", "epsilon"])
@pytest.mark.parametrize("value", [True, "0.5", None])
def test_control_params_refuse_values_that_are_not_real_numbers(field, value):
    with pytest.raises(ValueError, match=rf"^{field} must lie in \[0, 1\], got {re.escape(repr(value))}$"):
        ControlParams(**{field: value})


def test_control_params_store_floats():
    c = ControlParams(alpha=1, gamma=0, epsilon=Fraction(1, 4))
    assert [(type(v), v) for v in vars(c).values()] == [(float, 1.0), (float, 0.0), (float, 0.25)]


def test_qtable_reads_zero_for_unknown_pairs():
    assert QTable().value("anything", "at-all") == 0.0
    q = QTable(["s1"], ["up"])
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


def _label_by_label(labels, kind):
    """The rule for a label list, one label at a time: validate_label, then QTable's refusal of a repeat."""
    seen = []
    for label in labels:
        validate_label(label, kind)
        if label in seen:
            raise ValueError(f"{kind} {label!r} is listed more than once")
        seen.append(label)


def _refusal(call):
    try:
        call()
    except ValueError as exc:
        return str(exc)
    return None


class UnhashableStr(str):
    """A str that hash() refuses, as a subclass may make it."""

    __hash__ = None


class IncomparableStr(str):
    """A str that keeps str's hash but whose == raises TypeError, as a subclass may make it."""

    __hash__ = str.__hash__

    def __eq__(self, other):
        raise TypeError("no ==")


# Labels validate_label accepts and refuses, from a pool small enough to repeat:
# each forbidden character, the empty string, non-strings, an unhashable list,
# a str hash() refuses and one == fails on, the longest readable label and one
# past it, and lone surrogates, among them a high one ending a label and a low
# one starting the next.
LIST_LABELS = st.one_of(
    st.sampled_from(["a", "b", "é", "x" * 131_072, "x" * 131_073, "", None, 7, ("a",), UnhashableStr("a"),
                     IncomparableStr("a"), IncomparableStr("c"), "\ud800", "a\ud800", "\udc00b"]
                    + [f"a{ch}b" for ch in _FORBIDDEN_CHARS]),
    st.lists(st.text(max_size=2), max_size=2),
    st.text(max_size=3),
)


@settings(max_examples=300, deadline=None)
@example(labels=["a\ud800", "\udc00b"], kind="state")  # joined, the two halves still refuse
@example(labels=["a", "b", "a"], kind="action")
@given(labels=st.lists(LIST_LABELS, max_size=6), kind=st.sampled_from(["state", "action", "label"]))
def test_the_label_list_rule_refuses_what_validate_label_refuses_label_by_label(labels, kind):
    assert _refusal(lambda: _validate_labels(labels, kind)) == _refusal(lambda: _label_by_label(labels, kind))


# Each call meets an unhashable label; the message is validate_label's.
UNHASHABLE_LABELS = [
    pytest.param(lambda: QTable(states=[["x"]]), "state must be a non-empty string, got ['x']", id="init-state"),
    pytest.param(lambda: QTable(actions=[{"a"}]), "action must be a non-empty string, got {'a'}", id="init-action"),
    pytest.param(lambda: QTable().set(["x"], "up", 1.0), "state must be a non-empty string, got ['x']", id="set-state"),
    pytest.param(lambda: QTable().set("s1", {"a"}, 1.0), "action must be a non-empty string, got {'a'}",
                 id="set-action"),
]


@pytest.mark.parametrize("call,message", UNHASHABLE_LABELS)
def test_qtable_refuses_unhashable_labels_as_it_refuses_any_non_string(call, message):
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        call()


# Keys no table holds: unhashable values, hashable non-strings, and strings
# validate_label refuses (131,073 characters is one more than a field may hold),
# among them strs that hash() refuses, spelled as labels the table holds.
UNKNOWN_KEYS = st.one_of(
    st.lists(st.text(max_size=3), max_size=3),
    st.sets(st.text(max_size=3), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=3),
    st.integers(),
    st.none(),
    st.tuples(st.text(max_size=3), st.integers()),
    st.sampled_from(["", "a,b", "\n", '"', "\ud800", "s" * 131_073]),
    # Among them, texts that some table holds as a key.
    st.sampled_from(["s", "a", "z", EMPTY_BOARD]).map(UnhashableStr),
    st.sampled_from(["s", "a", "b", "z", "s1", "up", "c1", EMPTY_BOARD, "gridworld-2x2", "table"]).map(IncomparableStr),
)


@settings(max_examples=150, deadline=None)
@given(key=UNKNOWN_KEYS)
def test_every_keyed_lookup_refuses_or_defaults_a_key_no_table_holds(key):
    q = QTable(["s"], ["a", "b"])
    q.set("s", "b", 1.0)
    model = RLModel(q, ControlParams())
    rows = [SimpleNamespace(**{**dict(state="s", action="a", reward=0.0, next_state="s"), field: key})
            for field in ("state", "action", "next_state")]
    env = Environment("key", (key,), ("a",), lambda s, a, rng: EnvResponse(s, 0.0))
    greedy = {"mode": "epsilon-greedy", "model": model, "control": ControlParams(epsilon=0.0)}
    # (lookup, call, documented default); a lookup with no default must raise ValueError.
    calls = [
        ("QTable", lambda: QTable(states=[key]), None),
        ("QTable", lambda: QTable(actions=[key]), None),
        ("set", lambda: QTable().set(key, "a", 1.0), None),
        ("set", lambda: QTable().set("s", key, 1.0), None),
        ("value", lambda: q.value(key, "b"), 0.0),
        ("value", lambda: q.value("s", key), 0.0),
        ("epsilon_greedy", lambda: epsilon_greedy(q, key, 0.0, random.Random(0)), "a"),
        ("make_environment", lambda: make_environment(key), None),
        ("format_report", lambda: format_report(model, key), None),
        ("gridworld_step", lambda: gridworld_step(key, "up"), None),
        ("gridworld_step", lambda: gridworld_step("s1", key), None),
        ("tictactoe_step", lambda: tictactoe_step(key, "c1", random.Random(0)), None),
        ("tictactoe_step", lambda: tictactoe_step(EMPTY_BOARD, key, random.Random(0)), None),
        ("ttt_winner", lambda: ttt_winner(key), None),
        ("sample_experience", lambda: sample_experience(3, env), None),
        ("sample_experience", lambda: sample_experience(3, env, **greedy), None),
    ]
    for row in rows:
        calls += [
            ("ExperienceTuple", lambda row=row: ExperienceTuple(**vars(row)), None),
            ("ExperienceBatch", lambda row=row: ExperienceBatch([row]), None),
            ("learn", lambda row=row: learn([row], ControlParams()), None),
            ("estimate_mdp", lambda row=row: estimate_mdp([row]), None),
        ]
    leaks = []
    for name, call, default in calls:
        try:
            result = call()
        except ValueError:
            continue
        except (TypeError, KeyError) as exc:
            leaks.append(f"{name} raised {exc!r}")
            continue
        if default is None or result != default:
            leaks.append(f"{name} returned {result!r}")
    assert not leaks, "\n".join(leaks)


def test_qtable_rows_widen_with_new_actions():
    q = QTable(states=["s1", "s2"], actions=["up"])
    q.set("s2", "up", 2.0)
    q.set("s1", "down", 0.0)
    assert q.rows == [[0.0, 0.0], [2.0, 0.0]]
    assert q.value("s2", "down") == 0.0
    assert max(q.rows[q.state_index["s2"]]) == 2.0


def test_qtable_rejects_non_finite_values():
    q = QTable()
    with pytest.raises(ValueError):
        q.set("s1", "up", math.inf)


def test_qtable_set_refuses_a_value_it_cannot_parse_as_experience_tuple_refuses_a_reward():
    with pytest.raises(ValueError, match=r"^cannot parse value None for \('s1', 'up'\)$"):
        QTable().set("s1", "up", None)
    with pytest.raises(ValueError, match=r"^cannot parse value 'oops' for \('s1', 'up'\)$"):
        QTable().set("s1", "up", "oops")


@pytest.mark.parametrize("state,action,value", [
    pytest.param("s9", {"a"}, 1.0, id="new-state-bad-action"),
    pytest.param("a,b", "up", 1.0, id="bad-state"),
    pytest.param("s9", "left", math.nan, id="non-finite-value-new-labels"),
    pytest.param("s9", "left", None, id="none-value-new-labels"),
    pytest.param("s2", "down", object(), id="object-value"),
])
def test_a_refused_set_leaves_the_table_as_it_was(state, action, value):
    q = QTable(["s1", "s2"], ["up", "down"])
    q.set("s2", "down", 2.0)
    with pytest.raises(ValueError):
        q.set(state, action, value)
    assert (q.states, q.actions, q.rows) == (["s1", "s2"], ["up", "down"], [[0.0, 0.0], [0.0, 2.0]])


def test_qtable_equality_ignores_explicit_zeros():
    a = QTable()
    a.set("s1", "up", 1.0)
    a.set("s1", "down", 0.0)
    b = QTable(["s1"], ["up", "down"])
    b.set("s1", "up", 1.0)
    assert a == b
    b.set("s1", "down", 0.25)
    assert a != b


def test_a_table_or_an_mdp_differs_from_any_other_type_and_a_table_reprs_its_size():
    assert QTable() != object() and not QTable() == object()
    assert gridworld_mdp() != "mdp" and not gridworld_mdp() == "mdp"
    assert repr(QTable(["s", "t"], ["a"])) == "QTable(states=2, actions=1)"


def test_policy_from_q_breaks_ties_by_position():
    q = QTable(["s1"], ["up", "down", "left", "right"])
    assert policy_from_q(q) == {"s1": "up"}
    q.set("s1", "left", 3.0)
    q.set("s1", "right", 3.0)
    assert policy_from_q(q) == {"s1": "left"}
    # An unknown state reads as an all-zero row.
    assert epsilon_greedy(q, "s9", 0.0, random.Random(0)) == "up"


def test_greedy_rule_requires_actions():
    q = QTable(["s1"])
    with pytest.raises(ValueError, match="^no actions defined$"):
        epsilon_greedy(q, "s1", 0.0, random.Random(0))
    with pytest.raises(ValueError, match="^no actions defined$"):
        policy_from_q(q)
    assert policy_from_q(QTable()) == {}


@pytest.mark.parametrize("epsilon", [True, False, "0.5", None, 1.5, math.nan])
def test_epsilon_greedy_refuses_what_control_params_refuses(epsilon):
    q = QTable(["s"], ["a", "b"])
    with pytest.raises(ValueError, match=rf"^epsilon must lie in \[0, 1\], got {re.escape(repr(epsilon))}$"):
        epsilon_greedy(q, "s", epsilon, random.Random(0))
    with pytest.raises(ValueError, match=rf"^epsilon must lie in \[0, 1\], got {re.escape(repr(epsilon))}$"):
        ControlParams(epsilon=epsilon)


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
    forward = QTable(actions=["up", "down", "left", "right"])
    backward = QTable(actions=["up", "down", "left", "right"])
    cells = [("s1", "up", 1.0), ("s1", "down", 1.0), ("s2", "left", 0.0), ("s2", "right", 0.0)]
    for s, a, v in cells:
        forward.set(s, a, v)
    for s, a, v in reversed(cells):
        backward.set(s, a, v)
    assert policy_from_q(forward) == policy_from_q(backward)


def test_policy_from_q_is_pure():
    q, snapshot = QTable(), QTable()
    for t in (q, snapshot):
        t.set("s1", "up", 2.0)
    assert policy_from_q(q) == policy_from_q(q)
    assert q == snapshot


# --- the package's own draws equal random.Random's ----------------------------
#
# Seeded batches, CSVs and models depend on these draws matching CPython's
# shuffle bit for bit; a change to CPython's _randbelow fails here. The
# simulators' inline picks are held to choice where they are drawn, in
# tests/test_envs.py and tests/test_tictactoe.py.

# 0, 1, 2, then 2**k - 1, 2**k and 2**k + 1 up to 4097: every width change.
EDGE_LENGTHS = sorted({0, 1, 2} | {2**k + d for k in range(1, 13) for d in (-1, 0, 1)})
LENGTHS = st.sampled_from(EDGE_LENGTHS) | st.integers(0, 3000)
SEEDS = st.integers(0, 2**64 - 1)


@pytest.mark.parametrize("n", EDGE_LENGTHS)
def test_shuffle_equals_random_shuffle_at_every_width_change(n):
    ours, theirs = random.Random(n), random.Random(n)
    x, y = list(range(n)), list(range(n))
    _shuffle(x, ours.getrandbits)
    theirs.shuffle(y)
    assert x == y and ours.getstate() == theirs.getstate()


@given(n=LENGTHS, seed=SEEDS, passes=st.integers(1, 3))
def test_shuffle_equals_random_shuffle(n, seed, passes):
    ours, theirs = random.Random(seed), random.Random(seed)
    x, y = list(range(n)), list(range(n))
    for _ in range(passes):
        _shuffle(x, ours.getrandbits)
        theirs.shuffle(y)
        assert x == y
    assert ours.getstate() == theirs.getstate()
