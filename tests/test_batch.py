"""ExperienceBatch: the one batch type that builders return and learners read."""

import inspect
import math
import re

import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from replayq import (
    ControlParams,
    EnvResponse,
    Environment,
    ExperienceBatch,
    ExperienceTuple,
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
    assert (mdp_batch.states, mdp_batch.actions) == (mdp_list.states, mdp_list.actions) == (batch.states, batch.actions)
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
    batch = ExperienceBatch._from_codes(["a", "b"], ["x"], [0, 1], [0, 0], [1, 0], ["1.5", 2], [0, 1])
    assert list(batch) == [ExperienceTuple("a", "x", 1.5, "b"), ExperienceTuple("b", "x", 2.0, "a")]
    with pytest.raises(ValueError, match=r"^at 1: next_state 'c,d' contains forbidden character ','$"):
        ExperienceBatch._from_codes(["a", "b", "c,d"], ["x"], [0, 0], [0, 0], [1, 2], [1.0, 2.0],
                                    where=lambda k: f"at {k}: ")
    with pytest.raises(ValueError, match=r"^reward must be finite, got inf$"):
        ExperienceBatch._from_codes(["a", "b"], ["x"], [0], [0], [1], [math.inf])
    with pytest.raises(ValueError, match=r"^cannot parse reward None$"):
        ExperienceBatch._from_codes(["a", "b"], ["x"], [0], [0], [1], [None])
    with pytest.raises(ValueError, match="equally long"):
        ExperienceBatch._from_codes(["a", "b"], ["x"], [0, 1], [0], [1, 0], [1.0, 2.0])


def _faulty_environment(outcomes):
    """An environment whose k-th step returns the k-th of `outcomes`, then ("s", 1.0)."""
    steps = iter(outcomes)
    return Environment("faulty", ("s",), ("go",), lambda s, a, rng: EnvResponse(*next(steps, ("s", 1.0))))


@pytest.mark.parametrize("outcomes, message", [
    ([(["x"], 1.0)], "next_state must be a non-empty string, got ['x']"),
    ([("a,b", 1.0)], "next_state 'a,b' contains forbidden character ','"),
    ([(None, 1.0)], "next_state must be a non-empty string, got None"),
    ([("s", math.nan)], "reward must be finite, got nan"),
    ([("s", None)], "cannot parse reward None"),
    ([("s", math.inf)], "reward must be finite, got inf"),
    # The first bad row is named, whatever is wrong with a later one.
    ([("s", 1.0), ("a,b", 1.0), (["x"], 1.0)], "next_state 'a,b' contains forbidden character ','"),
    ([("s", 1.0), ("s", math.nan), ({"x"}, 1.0)], "reward must be finite, got nan"),
], ids=["unhashable", "forbidden-character", "none", "nan", "none-reward", "inf", "label-before-unhashable",
        "reward-before-unhashable"])
def test_sample_experience_refuses_a_faulty_environment_as_experience_tuple_does(outcomes, message):
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        sample_experience(5, _faulty_environment(outcomes), seed=0)


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
