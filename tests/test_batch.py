"""ExperienceBatch: the one batch type that builders return and learners read."""

import inspect
import math
import random
import re
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, example, given, settings
from hypothesis import strategies as st

from replayq import (
    ControlParams,
    EnvResponse,
    Environment,
    ExperienceBatch,
    ExperienceTuple,
    ExplicitMDP,
    QTable,
    RLModel,
    compare_to_optimal,
    epsilon_greedy,
    estimate_mdp,
    gridworld_environment,
    learn,
    model_to_json,
    read_experience,
    sample_experience,
    ttt_generate_games,
    update_model,
    write_experience,
)
from replayq.core import validate_label

NO_EXPLAIN = [Phase.explicit, Phase.reuse, Phase.generate, Phase.target, Phase.shrink]


def _is_label(text):
    try:
        validate_label(text)
    except ValueError:
        return False
    return True


# Any valid label, drawn from a small pool often, so that labels repeat.
labels = st.sampled_from(["s1", "s2", "up", "é", "t;\x00"]) | st.text(min_size=1, max_size=4).filter(_is_label)
tuples = st.builds(ExperienceTuple, labels, labels, st.floats(-1e3, 1e3), labels)


def first_appearance(items):
    return list(dict.fromkeys(items))


# No explain phase: it reports a failure through pytest once per re-run, which took minutes and 1 GB.
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture],
          phases=NO_EXPLAIN)
@given(rows=st.lists(tuples, max_size=10), control=st.builds(ControlParams, alpha=st.floats(0.0, 1.0),
                                                              gamma=st.floats(0.0, 1.0)))
def test_a_batch_is_its_rows(tmp_path, rows, control):
    batch = ExperienceBatch(rows)
    assert list(batch) == rows and batch == rows and len(batch) == len(rows)
    assert batch.states == first_appearance(s for t in rows for s in (t.state, t.next_state))
    assert batch.actions == first_appearance(t.action for t in rows)
    assert ExperienceBatch(batch) == batch

    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    write_experience(rows, str(first))
    back = read_experience(str(first))
    assert back == batch
    write_experience(back, str(second))
    assert first.read_bytes() == second.read_bytes()
    if not rows:
        return

    from_batch, from_list = learn(batch, control, iterations=2, seed=3), learn(rows, control, iterations=2, seed=3)
    assert model_to_json(from_batch) == model_to_json(from_list)
    more = rows[::-1] + [ExperienceTuple("z", "new", 1.0, rows[0].state)]
    assert model_to_json(update_model(from_batch, ExperienceBatch(more), control, seed=4)) == model_to_json(
        update_model(from_list, more, control, seed=4))

    mdp_batch, mdp_list = estimate_mdp(batch), estimate_mdp(rows)
    labels = (tuple(batch.states), tuple(batch.actions))
    assert (mdp_batch.states, mdp_batch.actions) == (mdp_list.states, mdp_list.actions) == labels
    for name in ("transition", "reward", "coverage"):
        assert getattr(mdp_batch, name).tobytes() == getattr(mdp_list, name).tobytes()


def test_batches_compare_by_their_rows():
    rows = [ExperienceTuple("a", "x", 1.0, "b"), ExperienceTuple("b", "y", -0.5, "a")]
    assert ExperienceBatch(rows) == ExperienceBatch(list(rows))
    assert ExperienceBatch(rows) != ExperienceBatch(rows[::-1])
    assert ExperienceBatch(rows) != rows[:1] and ExperienceBatch(rows) != tuple(rows)
    assert ExperienceBatch() == [] and len(ExperienceBatch()) == 0
    with pytest.raises(TypeError):
        hash(ExperienceBatch(rows))


def test_from_codes_checks_each_row_as_experience_tuple_does():
    codes = [0, 0, 0, 1, 1, 0, 1, 0]  # four per row: s, a, r, s_new; r codes into the reward table
    batch = ExperienceBatch._from_codes(["a", "b"], ["x"], codes, ["1.5", 2])
    assert list(batch) == [ExperienceTuple("a", "x", 1.5, "b"), ExperienceTuple("b", "x", 2.0, "a")]
    assert codes == []
    with pytest.raises(ValueError, match=r"^at 1: next_state 'c,d' contains forbidden character ','$"):
        ExperienceBatch._from_codes(["a", "b", "c,d"], ["x"], [0, 0, 1.0, 1, 0, 0, 2.0, 2], where=lambda k: f"at {k}: ")
    with pytest.raises(ValueError, match=r"^reward must be finite, got inf$"):
        ExperienceBatch._from_codes(["a", "b"], ["x"], [0, 0, math.inf, 1])
    with pytest.raises(ValueError, match=r"^cannot parse reward None$"):
        ExperienceBatch._from_codes(["a", "b"], ["x"], [0, 0, None, 1])


def _faulty_environment(outcomes):
    """An environment whose k-th step returns the k-th of `outcomes`, then ("s", 1.0)."""
    steps = iter(outcomes)
    return Environment("faulty", ("s",), ("go",), lambda s, a, rng: EnvResponse(*next(steps, ("s", 1.0))))


def _sampled(outcomes):
    return sample_experience(5, _faulty_environment(outcomes), seed=0)


def _from_rows(outcomes):
    """The five rows `_sampled` draws, as duck-typed rows given to ExperienceBatch."""
    steps = outcomes + [("s", 1.0)] * (5 - len(outcomes))
    return ExperienceBatch([SimpleNamespace(state="s", action="go", reward=r, next_state=s2) for s2, r in steps])


class UnhashableStr(str):
    """A str that hash() refuses, as a subclass may make it."""

    __hash__ = None


class IncomparableStr(str):
    """A str that keeps str's hash but whose == raises TypeError, as a subclass may make it."""

    __hash__ = str.__hash__

    def __eq__(self, other):
        raise TypeError("no ==")


FAULTY_OUTCOMES = [  # (id, the environment's outcomes, the ValueError's message)
    ("unhashable", [(["x"], 1.0)], "next_state must be a non-empty string, got ['x']"),
    ("unhashable-str", [(UnhashableStr("x"), 1.0)], "next_state 'x' is not hashable"),
    ("incomparable-str", [(IncomparableStr("s"), 1.0)], "next_state 's' does not compare equal to its text"),
    ("forbidden-character", [("a,b", 1.0)], "next_state 'a,b' contains forbidden character ','"),
    ("none", [(None, 1.0)], "next_state must be a non-empty string, got None"),
    ("nan", [("s", math.nan)], "reward must be finite, got nan"),
    ("none-reward", [("s", None)], "cannot parse reward None"),
    ("inf", [("s", math.inf)], "reward must be finite, got inf"),
    # The first bad row is named, whatever is wrong with a later one.
    ("label-before-unhashable", [("s", 1.0), ("a,b", 1.0), (["x"], 1.0)],
     "next_state 'a,b' contains forbidden character ','"),
    ("reward-before-unhashable", [("s", 1.0), ("s", math.nan), ({"x"}, 1.0)], "reward must be finite, got nan"),
]


# Sampling's cases keep their plain ids; ExperienceBatch(rows)'s are prefixed "rows-".
@pytest.mark.parametrize("build, outcomes, message", [
    pytest.param(build, outcomes, message, id=prefix + case)
    for prefix, build in (("", _sampled), ("rows-", _from_rows)) for case, outcomes, message in FAULTY_OUTCOMES])
def test_sample_experience_refuses_a_faulty_environment_as_experience_tuple_does(build, outcomes, message):
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        build(outcomes)


class KindIncomparableStr(str):
    """A str whose == raises TypeError only against its own kind, so validate_label, which compares it with its
    plain text, passes it; a table holds that text, so no lookup meets the error."""

    __hash__ = str.__hash__

    def __eq__(self, other):
        if isinstance(other, KindIncomparableStr):
            raise TypeError("no == between these")
        return str.__eq__(self, other)


K = KindIncomparableStr


@pytest.mark.parametrize("build", [_sampled, _from_rows], ids=["sample-experience", "batch-rows"])
def test_a_label_whose_eq_fails_against_its_own_kind_is_coded_by_its_text(build):
    batch = build([(K("x"), 1.0), (K("x"), 1.0)])
    assert batch == build([("x", 1.0), ("x", 1.0)]) and all(type(label) is str for label in batch.states)


@pytest.mark.parametrize("build", [_sampled, _from_rows], ids=["sample-experience", "batch-rows"])
def test_a_label_whose_eq_fails_once_in_its_lookup_is_coded_by_its_text_never_dropped(build):
    class FailsOnce(str):
        """A str whose second == raises: validate_label's comparison of the first instance with its text passes,
        then the table's lookup of the second raises against the text it holds, and the row is coded anyway."""

        __hash__ = str.__hash__
        calls = 0

        def __eq__(self, other):
            FailsOnce.calls += 1
            if FailsOnce.calls == 2:
                raise TypeError("no == this once")
            return str.__eq__(self, other)

    batch = build([(FailsOnce("x"), 1.0), (FailsOnce("x"), 1.0)])
    assert FailsOnce.calls == 3  # validate_label, the failed lookup, and validate_label again before coding
    assert batch == build([("x", 1.0), ("x", 1.0)]) and all(type(label) is str for label in batch.states)


@pytest.mark.parametrize("call", [
    pytest.param(lambda q, make: q.set(make("s"), "b", 2.0), id="set-state"),
    pytest.param(lambda q, make: q.set("t", make("a"), 2.0), id="set-action"),
])
def test_a_label_whose_eq_fails_against_its_own_kind_is_set_as_its_text(call):
    def table(make):
        q = QTable()
        q.set(make("s"), make("a"), 1.0)
        call(q, make)
        return q

    held = table(K)
    assert held == table(str) and all(type(label) is str for label in held.states + held.actions)


@pytest.mark.parametrize("states, actions, message", [
    pytest.param([K("s"), K("s")], [], "state 's'", id="constructor-states"),
    pytest.param([], [K("a"), K("a")], "action 'a'", id="constructor-actions"),
])
def test_a_label_listed_twice_is_refused_whatever_its_eq(states, actions, message):
    with pytest.raises(ValueError, match="^" + re.escape(message) + " is listed more than once$"):
        QTable(states, actions)


def _holding(state, action):
    q = QTable()
    q.set(state, action, 1.0)
    return q


# A table and a batch, or two tables, each holding its own instance of one label, made by `make`.
HELD_TWICE = [
    pytest.param(lambda make: model_to_json(learn([ExperienceTuple(make("s"), "a", 1.0, "t")], ControlParams(),
                                                  prior=RLModel(_holding(make("s"), "a"), ControlParams()))),
                 id="learn-state"),
    pytest.param(lambda make: model_to_json(learn([ExperienceTuple("s", make("a"), 1.0, "s")], ControlParams(),
                                                  prior=RLModel(_holding("s", make("a")), ControlParams()))),
                 id="learn-action"),
    pytest.param(lambda make: compare_to_optimal(_holding(make("s"), "a"), _holding(make("s"), "a")),
                 id="compare-state"),
    pytest.param(lambda make: compare_to_optimal(_holding("s", make("a")), _holding("s", make("a"))),
                 id="compare-action"),
]


@pytest.mark.parametrize("call", HELD_TWICE)
def test_a_label_held_twice_whose_eq_fails_is_learned_and_compared_as_its_text(call):
    assert call(K) == call(str)


class HashlessStr(str):
    """A str that hashes apart from its text, so a table keyed by it would hold it apart from an equal label."""

    def __hash__(self):
        return 0


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: QTable(["s", HashlessStr("s")], ["a"]), "state 's'", id="qtable"),
    pytest.param(lambda: ExperienceTuple(HashlessStr("s"), "a", 1.0, "s"), "state 's'", id="experience-tuple"),
    pytest.param(lambda: _from_rows([(HashlessStr("s"), 1.0)]), "next_state 's'", id="batch-rows"),
    pytest.param(lambda: _sampled([(HashlessStr("s"), 1.0)]), "next_state 's'", id="sample-experience"),
])
def test_a_label_that_does_not_hash_as_its_text_is_refused(call, message):
    with pytest.raises(ValueError, match="^" + re.escape(message) + " does not hash as its text$"):
        call()


def test_a_state_whose_eq_fails_against_its_own_kind_is_found_by_epsilon_greedy_and_sampling():
    q = QTable([K("s")], ["a", "b"])
    q.set(K("s"), "b", 5.0)
    assert epsilon_greedy(q, K("s"), 0.0, random.Random(0)) == "b"
    control = ControlParams(epsilon=0.0)
    env = Environment("kind", (K("s"),), ("a", "b"), lambda s, a, rng: EnvResponse(K("s"), 1.0))
    assert sample_experience(3, env, "epsilon-greedy", RLModel(q, control), control).actions == ["b"]


class PlainSubStr(str):
    """A str subclass that changes nothing."""


def _exact(labels):
    return all(type(label) is str for label in labels)


# A label as its text and the kind of str that holds it.
KINDED_LABELS = st.tuples(st.sampled_from(["s", "t", "é"]), st.sampled_from([str, np.str_, PlainSubStr, K]))


@settings(max_examples=100, deadline=None, phases=NO_EXPLAIN)
@given(rows=st.lists(st.tuples(KINDED_LABELS, KINDED_LABELS, st.floats(-10.0, 10.0), KINDED_LABELS),
                     min_size=1, max_size=8))
def test_every_label_held_is_its_text_and_fits_as_the_plain_texts_do(rows):
    def fit(label):  # builds each structure from the rows' labels, each made by `label((text, kind))`
        states = [label(k) for k in {k[0]: k for s, _, _, s2 in rows for k in (s, s2)}.values()]  # one per text
        actions = [label(k) for k in {a[0]: a for _, a, _, _ in rows}.values()]
        q = QTable(states, actions)
        for s, a, r, _ in rows:
            q.set(label(s), label(a), r)
        assert _exact(q.states + q.actions)
        tuples = [ExperienceTuple(label(s), label(a), r, label(s2)) for s, a, r, s2 in rows]
        assert _exact(label for t in tuples for label in (t.state, t.action, t.next_state))
        batch = ExperienceBatch([SimpleNamespace(state=label(s), action=label(a), reward=r, next_state=label(s2))
                                 for s, a, r, s2 in rows])
        assert batch == tuples and _exact(batch.states + batch.actions)
        control = ControlParams(alpha=0.5, gamma=0.5, epsilon=0.5)
        model = learn(batch, control, iterations=3, seed=1, prior=RLModel(q, control))
        assert _exact(model.q.states + model.q.actions)
        env = Environment("kinds", tuple(states), tuple(actions), lambda s, a, rng: EnvResponse(states[-1], 1.0))
        sampled = sample_experience(5, env, "epsilon-greedy", model, control, seed=2)
        assert _exact(sampled.states + sampled.actions)
        n = len(states) * len(actions)
        given_mdp = ExplicitMDP(states, actions, np.arange(n), np.arange(n) // len(actions), np.ones(n), np.zeros(n))
        estimated = estimate_mdp(batch)
        assert _exact(given_mdp.states + given_mdp.actions + estimated.states + estimated.actions)
        return model_to_json(model), sampled, given_mdp, estimated

    assert fit(lambda k: k[1](k[0])) == fit(lambda k: k[0])


@pytest.mark.parametrize("kind", ["state", "action"])
def test_a_continued_fit_on_distinct_labels_whose_eq_fails_learns_as_on_plain_ones(kind):
    # The prior holds label "p" where the batch's first label is "n"; both are KindIncomparableStr, so only their
    # lookups, which differ in hash, never their ==, may decide that they differ.
    def fit(make):
        held, new = make("p"), make("n")
        prior = _holding(held, "a") if kind == "state" else _holding("s", held)
        rows = [ExperienceTuple(new, "a", 1.0, "s"), ExperienceTuple("s", "a", 2.0, new)] if kind == "state" else [
            ExperienceTuple("s", new, 1.0, "s"), ExperienceTuple("s", "a", 2.0, "s")]
        return learn(rows, ControlParams(alpha=0.5, gamma=0.5), iterations=3, seed=1,
                     prior=RLModel(prior, ControlParams()))

    incomparable, plain = fit(K), fit(str)
    assert model_to_json(incomparable) == model_to_json(plain)


# Each call given a number too large for a float, and the message that refuses it as the infinity it rounds to.
BEYOND_FLOATS = [
    pytest.param(lambda r: ExperienceTuple("s", "a", r, "s"), "reward must be finite, got {}", id="experience-tuple"),
    pytest.param(lambda r: _sampled([("s", 1.0), ("s", r)]), "reward must be finite, got {}", id="sample-experience"),
    pytest.param(lambda r: _from_rows([("s", 1.0), ("s", r)]), "reward must be finite, got {}", id="batch-rows"),
    pytest.param(lambda r: QTable().set("s", "a", r), "value for ('s', 'a') must be finite, got {}", id="qtable-set"),
]


@pytest.mark.parametrize("call, message", BEYOND_FLOATS)
@pytest.mark.parametrize("number, rounded", [(10**400, "inf"), (Fraction(10**400), "inf"), (-(10**400), "-inf")],
                         ids=["int", "fraction", "negative-int"])
def test_a_number_beyond_the_float_range_is_refused_with_value_error(call, message, number, rounded):
    with pytest.raises(ValueError, match="^" + re.escape(message.format(rounded)) + "$"):
        call(number)


def _field(reward):
    """A reward as a CSV field that reads back as the number it is, a whole one as its digits."""
    if isinstance(reward, Fraction) and reward.denominator != 1:
        return repr(float(reward))  # drawn within ±10, so never beyond floats
    return repr(reward) if isinstance(reward, float) else str(reward)


def _reward_builds(tmp_path, rewards):
    """(the reward column a build is given, its error prefix for row k, the build) for each batch builder: rows given
    to ExperienceBatch, a scripted environment sampled, and a CSV read."""
    fields = list(map(_field, rewards))
    path = tmp_path / "exp.csv"
    path.write_text("State,Action,Reward,NextState\n" + "".join(f"s,go,{f},s\n" for f in fields))
    rows = [SimpleNamespace(state="s", action="go", reward=r, next_state="s") for r in rewards]
    return [
        (rewards, lambda k: "", lambda: ExperienceBatch(rows)),
        (rewards, lambda k: "", lambda: sample_experience(len(rewards), _faulty_environment([("s", r) for r in rewards]),
                                                          seed=0)),
        (fields, lambda k: f"{path}: row {k + 2}: ", lambda: read_experience(str(path))),
    ]


def _is_finite(number):
    try:
        return math.isfinite(float(number))
    except OverflowError:  # an int or Fraction beyond floats
        return False


near_max = st.floats(1.6e308, 1.7976931348623157e308)
reward_values = st.one_of(
    near_max, near_max.map(lambda x: -x), st.floats(-2.0, 2.0),
    st.integers(-5, 5), st.integers(-2 * 10**308, 2 * 10**308), st.integers(10**308, 10**310).map(Fraction),
    st.fractions(-10, 10, max_denominator=7), st.sampled_from([math.inf, -math.inf, math.nan]),
)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture],
          phases=NO_EXPLAIN)
@given(rewards=st.lists(reward_values, min_size=1, max_size=6))
@example(rewards=[1e308, 1.5e308, -1.5e308])
def test_a_reward_column_is_taken_exactly_when_every_reward_is_finite(tmp_path, rewards):
    # Rewards near the float maximum make sums of finite values that overflow, which must still be taken.
    for column, where, build in _reward_builds(tmp_path, rewards):
        reference = []
        for k, r in enumerate(column):
            try:
                reference.append(ExperienceTuple("s", "go", r, "s"))
            except ValueError as exc:
                refusal = f"{where(k)}{exc}"
                break
        else:
            refusal = None
        assert (refusal is None) == all(map(_is_finite, rewards))
        if refusal is None:
            assert build() == reference
        else:
            with pytest.raises(ValueError) as info:
                build()
            assert str(info.value) == refusal


def test_rewards_whose_sum_overflows_are_taken_as_they_are(tmp_path):
    rewards = [1e308, 1.5e308, -1.5e308]
    assert sum(rewards) == math.inf  # so each build walks its rows, and must find none bad
    for _, _, build in _reward_builds(tmp_path, rewards):
        assert build().r == rewards


def test_sample_experience_takes_numeric_rewards_of_any_type():
    env = _faulty_environment([("s", 2), ("s", "1.5")])
    assert sample_experience(3, env, seed=0) == [ExperienceTuple("s", "go", r, "s") for r in (2.0, 1.5, 1.0)]


@pytest.mark.parametrize("rows, message", [
    (["s1,up,1.0,s2", "s2,\"u,p\",1.0,s1"], "row 3: action 'u,p' contains forbidden character ','"),
    (["s1,up,1.0,s2", "s2,up,nan,s1"], "row 3: reward must be finite, got nan"),
    (["s1,up,1.0,s2", "s2,up,-inf,s1"], "row 3: reward must be finite, got -inf"),
    (["s1,up,1.0,s2", "s2,up,oops,s1"], "row 3: cannot parse reward 'oops'"),
    (["s1,up,1.0,\"\"", "s2,up,oops,s1"], "row 2: next_state must be a non-empty string"),
    # The first bad row is named, whatever is wrong with a later one.
    (["s1,up,inf,s2", "s2,up,1.0,s1,extra"], "row 2: reward must be finite, got inf"),
    (["s1,up,inf,s2", "s" * 131_073 + ",up,1.0,s1"], "row 2: reward must be finite, got inf"),
    (["s1,up,1.0,s2", "s2,up,oops,s1", "s1,\"u,p\",1.0,s2", "s2,up,oops,s1"], "row 3: cannot parse reward 'oops'"),
    (["s1,up,1.0,s2", "s1,\"u,p\",1.0,s2", "s2,up,oops,s1", "s1,\"u,p\",1.0,s2"],
     "row 3: action 'u,p' contains forbidden character ','"),
    (["s1,up,1.0,s2", "s2,up,oops,\"\""], "row 3: next_state must be a non-empty string"),
], ids=["label", "nan", "inf", "unparsable", "first-of-two", "before-a-wide-row", "before-an-unreadable-row",
        "reward-before-label", "label-before-reward", "label-and-reward-in-one-row"])
def test_read_experience_names_the_file_and_the_first_bad_row(tmp_path, rows, message):
    path = tmp_path / "exp.csv"
    path.write_text("\n".join(["State,Action,Reward,NextState", *rows]) + "\n")
    with pytest.raises(ValueError, match="^" + re.escape(f"{path}: {message}")):
        read_experience(str(path))


def test_the_names_the_benchmark_tracer_binds_are_kept(tmp_path):
    # The benchmark's tracer reads these parameters by name, and takes len() of these results.
    assert "batch" in inspect.signature(learn).parameters
    assert "new_batch" in inspect.signature(update_model).parameters
    assert "batch" in inspect.signature(write_experience).parameters
    path = tmp_path / "exp.csv"
    write_experience(ttt_generate_games(3, seed=1), str(path))
    for result in (read_experience(str(path)), sample_experience(5, gridworld_environment(), seed=1),
                   ttt_generate_games(3, seed=1)):
        assert len(result) == len(list(result)) > 0


def test_a_fresh_model_numbers_labels_as_its_batch_does():
    batch = ttt_generate_games(300, seed=5)
    model = learn(batch, ControlParams(alpha=0.2, gamma=0.99), seed=1)
    assert model.q.states == batch.states and model.q.actions == batch.actions
