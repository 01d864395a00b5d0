import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from replayq import cli
from replayq.cli import main
from replayq.core import ControlParams, QTable, RLModel
from replayq.persist import load_model, read_experience, save_model


def run(*args):
    return main(list(args))


def sample_args(out, n="200", seed="11"):
    return ["sample", "--env", "gridworld-2x2", "--n", n, "--seed", seed, "--out", out]


def train_args(data, out, **overrides):
    args = {
        "--data": data,
        "--alpha": "0.1",
        "--gamma": "0.5",
        "--iter": "100",
        "--seed": "3",
        "--out": out,
    }
    args.update(overrides)
    flat = ["train"]
    for k, v in args.items():
        flat += [k, v]
    return flat


def test_sample_writes_experience_file(tmp_path, capsys):
    out = tmp_path / "exp.csv"
    assert main(sample_args(str(out))) == 0
    assert "wrote 200 tuples" in capsys.readouterr().out
    batch = read_experience(str(out))
    assert len(batch) == 200


def test_sample_is_reproducible(tmp_path):
    a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
    main(sample_args(str(a)))
    main(sample_args(str(b)))
    main(sample_args(str(c), seed="12"))
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_sample_rejects_unknown_environment(tmp_path, capsys):
    rc = run("sample", "--env", "maze", "--n", "5", "--out", str(tmp_path / "x.csv"))
    assert rc == 1
    assert "unknown environment" in capsys.readouterr().err


def test_sample_epsilon_greedy_needs_a_model(tmp_path, capsys):
    rc = main(sample_args(str(tmp_path / "x.csv")) + ["--mode", "epsilon-greedy"])
    assert rc == 1
    assert "--model" in capsys.readouterr().err


def test_sample_takes_a_model_only_in_epsilon_greedy_mode(tmp_path, capsys):
    out = tmp_path / "x.csv"
    rc = main(sample_args(str(out)) + ["--mode", "random", "--model", str(tmp_path / "missing.json")])
    assert rc == 1
    assert "--model" in capsys.readouterr().err
    assert not out.exists()


def test_sample_takes_an_epsilon_only_in_epsilon_greedy_mode(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert main(sample_args(str(out)) + ["--mode", "random", "--epsilon", "0.7"]) == 1
    assert "--epsilon" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--alpha", "--gamma"])
def test_sample_takes_no_learning_rates(tmp_path, capsys, flag):
    assert main(sample_args(str(tmp_path / "x.csv")) + [flag, "0.5"]) == 1
    assert "unrecognized arguments" in capsys.readouterr().err


def test_sample_epsilon_greedy_with_epsilon_zero_follows_the_model(tmp_path):
    model = trained(tmp_path)
    out = tmp_path / "greedy.csv"
    assert main(sample_args(str(out)) + ["--mode", "epsilon-greedy", "--model", model, "--epsilon", "0"]) == 0
    policy = load_model(model).policy
    assert all(t.action == policy[t.state] for t in read_experience(str(out)))


def test_usage_errors_from_argparse(tmp_path, capsys):
    assert run("sample", "--env", "gridworld-2x2", "--n", "0", "--out", "x.csv") == 1
    assert run("sample", "--env", "gridworld-2x2", "--out", "x.csv") == 1
    assert run("sample", "--env", "gridworld-2x2", "--n", "abc", "--out", "x.csv") == 1
    for alpha in ("abc", "2"):
        assert run("train", "--data", "x.csv", "--out", "m.json", "--alpha", alpha) == 1
    assert run("no-such-command") == 1
    assert run("--help") == 0
    capsys.readouterr()


@pytest.mark.parametrize("argv, flag, message", [
    pytest.param(["sample", "--env", "gridworld-2x2", "--n", "0", "--out", "x.csv"], "--n", "n must be >= 1, got 0",
                 id="sample-n"),
    pytest.param(["train", "--data", "x.csv", "--iter", "0", "--out", "m.json"], "--iter", "iter must be >= 1, got 0",
                 id="train-iter"),
    pytest.param(["curve", "--env", "gridworld-2x2", "--rounds", "0", "--n", "5", "--out", "c.csv"], "--rounds",
                 "rounds must be >= 1, got 0", id="curve-rounds"),
    pytest.param(["train", "--data", "x.csv", "--alpha", "2", "--out", "m.json"], "--alpha",
                 "alpha must lie in [0, 1], got 2.0", id="train-alpha"),
    pytest.param(["sample", "--env", "gridworld-2x2", "--n", "5", "--mode", "epsilon-greedy", "--epsilon", "-1",
                  "--out", "x.csv"], "--epsilon", "epsilon must lie in [0, 1], got -1.0", id="sample-epsilon"),
    pytest.param(["verify", "--model", "m.json", "--env", "gridworld-2x2", "--gamma", "1.5"], "--gamma",
                 "gamma must lie in [0, 1], got 1.5", id="verify-gamma"),
    pytest.param(["sample", "--env", "nope", "--n", "5", "--out", "x.csv"], "--env",
                 "unknown environment 'nope'; known environments: gridworld-2x2, tictactoe", id="sample-env"),
])
def test_a_bad_flag_value_exits_1_with_the_librarys_message(tmp_path, monkeypatch, capsys, argv, flag, message):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    assert capsys.readouterr().err.endswith(f"error: argument {flag}: {message}\n")
    assert list(tmp_path.iterdir()) == []


def test_the_cached_parser_calls_the_make_environment_bound_at_parse_time(tmp_path, monkeypatch, capsys):
    assert main(["--help"]) == 0  # the cached parser now exists
    seen = []
    make_environment = cli.make_environment

    def recording(name):
        seen.append(name)
        return make_environment(name)

    monkeypatch.setattr(cli, "make_environment", recording)
    assert main(sample_args(str(tmp_path / "x.csv"))) == 0
    assert seen == ["gridworld-2x2"]
    capsys.readouterr()


# One process's commands in order: help, usage errors, and flags that a later
# call of the same command leaves out, so a value carried over would show.
SHARED_PARSER_CALLS = [
    ["--help"],
    ["sample", "--env", "gridworld-2x2", "--out", "x.csv"],
    ["train", "--data", "x.csv", "--out", "m.json", "--alpha", "2"],
    ["sample", "--env", "gridworld-2x2", "--n", "300", "--seed", "4", "--out", "exp.csv"],
    ["train", "--data", "exp.csv", "--alpha", "0.3", "--gamma", "0.9", "--iter", "20", "--seed", "2",
     "--out", "m1.json"],
    ["sample", "--env", "gridworld-2x2", "--n", "200", "--mode", "epsilon-greedy", "--model", "m1.json",
     "--epsilon", "0.5", "--seed", "5", "--out", "exp2.csv"],
    ["sample", "--env", "gridworld-2x2", "--n", "200", "--seed", "6", "--out", "exp3.csv"],
    ["train", "--data", "exp2.csv", "--model", "m1.json", "--out", "m2.json"],
    ["train", "--data", "exp3.csv", "--out", "m3.json"],
    ["train", "--help"],
    ["predict", "--model", "m3.json", "--states", "s1,s9"],
]


def _run_calls(directory, monkeypatch, capsys):
    monkeypatch.chdir(directory)
    results = []
    for argv in SHARED_PARSER_CALLS:
        rc = main(argv)
        results.append((rc, *capsys.readouterr()))
    files = {p.name: p.read_bytes() for p in sorted(directory.iterdir())}
    return results, files


def test_one_shared_parser_behaves_as_a_fresh_one_on_every_call(tmp_path, monkeypatch, capsys):
    shared, fresh = tmp_path / "shared", tmp_path / "fresh"
    shared.mkdir()
    fresh.mkdir()
    assert cli._build_parser() is cli._build_parser()
    shared_out = _run_calls(shared, monkeypatch, capsys)
    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)  # a new parser per call
    fresh_out = _run_calls(fresh, monkeypatch, capsys)
    assert shared_out == fresh_out
    assert [rc for rc, _, _ in shared_out[0]] == [0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 2]
    assert sorted(shared_out[1]) == ["exp.csv", "exp2.csv", "exp3.csv", "m1.json", "m2.json", "m3.json"]


def test_train_writes_model_and_prints_summary(tmp_path, capsys):
    exp = tmp_path / "exp.csv"
    out = tmp_path / "model.json"
    main(sample_args(str(exp), n="1000"))
    assert main(train_args(str(exp), str(out))) == 0
    assert "experienceReplay" in capsys.readouterr().out
    model = load_model(str(out))
    assert model.iterations_completed == 100
    assert model.policy["s3"] == "up"


def test_train_missing_data_file(tmp_path, capsys):
    rc = main(train_args(str(tmp_path / "nope.csv"), str(tmp_path / "m.json")))
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_train_refuses_a_batch_whose_reward_total_overflows(tmp_path, capsys):
    data = tmp_path / "exp.csv"
    data.write_text("State,Action,Reward,NextState\ns1,up,1e308,s2\ns2,up,1e308,s1\n")
    assert main(train_args(str(data), str(tmp_path / "m.json"))) == 2
    assert "error: the batch's reward total must be finite, got inf" in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists()


def test_train_and_report_summarize_a_history_whose_float_sums_overflow(tmp_path, capsys):
    # The first history is [1e308, 1e308]; the second [1.7e308, -1.7e308], whose deviation is beyond the float range.
    for name, reward in (("one.csv", "1e308"), ("two.csv", "1.7e308"), ("three.csv", "-1.7e308")):
        (tmp_path / name).write_text(f"State,Action,Reward,NextState\ns1,up,{reward},s1\n")
    m, m1, m2 = (str(tmp_path / name) for name in ("m.json", "m1.json", "m2.json"))
    assert main(train_args(str(tmp_path / "one.csv"), m, **{"--iter": "2"})) == 0
    assert main(train_args(str(tmp_path / "two.csv"), m1, **{"--iter": "1"})) == 0
    assert main(train_args(str(tmp_path / "three.csv"), m2, **{"--iter": "1", "--model": m1})) == 0
    capsys.readouterr()
    for path, (mean, median, spread) in ((m, ("1e+308", "1e+308", "0")), (m2, ("0", "0", "inf"))):
        assert run("report", "--model", path) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.splitlines()[-3:] == [f"  {'Mean:':<32}{mean}", f"  {'Median:':<32}{median}",
                                                  f"  {'Std dev:':<32}{spread}"]


def test_train_refuses_a_header_that_names_a_used_column_twice(tmp_path, capsys):
    data = tmp_path / "exp.csv"
    data.write_text("State,Action,Reward,NextState,State\ns1,up,-1.0,s1,s2\n")
    assert run(*train_args(str(data), str(tmp_path / "m.json"))) == 2
    err = capsys.readouterr().err
    assert f"{data}: column State appears 2 times" in err
    assert not (tmp_path / "m.json").exists()


def test_train_with_renamed_columns(tmp_path):
    data = tmp_path / "exp.csv"
    data.write_text("From,Move,Gain,To\ns1,down,-1.0,s2\ns2,right,-1.0,s3\ns3,up,10.0,s4\n")
    out = tmp_path / "model.json"
    rc = main(
        train_args(str(data), str(out))
        + ["--s", "From", "--a", "Move", "--r", "Gain", "--s-new", "To"]
    )
    assert rc == 0
    assert load_model(str(out)).policy["s3"] == "up"


def test_train_update_keeps_known_states(tmp_path):
    exp = tmp_path / "exp.csv"
    out1 = tmp_path / "m1.json"
    out2 = tmp_path / "m2.json"
    main(sample_args(str(exp), n="500"))
    main(train_args(str(exp), str(out1)))
    more = tmp_path / "more.csv"
    more.write_text("State,Action,Reward,NextState\ns9,up,1.0,s9\n")
    rc = main(train_args(str(more), str(out2), **{"--model": str(out1)}))
    assert rc == 0
    updated = load_model(str(out2))
    assert "s9" in updated.q.states
    assert set(load_model(str(out1)).q.states) <= set(updated.q.states)


def trained(tmp_path):
    exp = tmp_path / "exp.csv"
    model = tmp_path / "model.json"
    main(sample_args(str(exp), n="1000"))
    main(train_args(str(exp), str(model), **{"--iter": "300"}))
    return str(model)


def test_predict_prints_state_action_rows(tmp_path, capsys):
    model = trained(tmp_path)
    capsys.readouterr()
    assert run("predict", "--model", model, "--states", "s1,s2,s3,s1") == 0
    assert capsys.readouterr().out.splitlines() == ["s1,down", "s2,right", "s3,up", "s1,down"]


def test_predict_flags_unknown_states(tmp_path, capsys):
    model = trained(tmp_path)
    capsys.readouterr()
    assert run("predict", "--model", model, "--states", "s1,s99") == 2
    assert "s99,unknown-state" in capsys.readouterr().out


def test_predict_empty_state_list(tmp_path, capsys):
    model = trained(tmp_path)
    for states in ("", ",", ",,"):
        capsys.readouterr()
        assert run("predict", "--model", model, "--states", states) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --states lists no state, got {states!r}\n"


def test_curve_writes_rounds_and_plot(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    svg = tmp_path / "curve.svg"
    rc = run(
        "curve", "--env", "gridworld-2x2", "--rounds", "4", "--n", "300",
        "--seed", "2", "--out", str(out), "--plot", str(svg),
    )
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "round,total_reward"
    assert len(lines) == 5
    assert [int(ln.split(",")[0]) for ln in lines[1:]] == [1, 2, 3, 4]
    assert svg.read_text().startswith("<svg")
    capsys.readouterr()


def test_curve_is_reproducible(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        run("curve", "--env", "gridworld-2x2", "--rounds", "3", "--n", "200",
            "--seed", "9", "--out", str(out))
    assert a.read_bytes() == b.read_bytes()


def test_verify_accepts_a_converged_model(tmp_path, capsys):
    model = trained(tmp_path)
    rc = run("verify", "--model", model, "--env", "gridworld-2x2",
             "--gamma", "0.5", "--tol", "0.1")
    assert rc == 0
    out = capsys.readouterr().out
    assert "verification passed" in out
    assert "max |Q - Q*|" in out


def test_verify_rejects_an_untrained_model(tmp_path, capsys):
    exp = tmp_path / "exp.csv"
    zero = tmp_path / "zero.json"
    main(sample_args(str(exp), n="300"))
    main(train_args(str(exp), str(zero), **{"--alpha": "0.0", "--iter": "1"}))
    rc = run("verify", "--model", str(zero), "--env", "gridworld-2x2",
             "--gamma", "0.5", "--tol", "0.1")
    assert rc == 3
    assert "FAILED" in capsys.readouterr().out


def test_verify_rejects_gamma_one_as_a_usage_error(tmp_path, capsys):
    model = trained(tmp_path)
    capsys.readouterr()
    rc = run("verify", "--model", model, "--env", "gridworld-2x2", "--gamma", "1")
    assert rc == 1
    assert "--gamma must be below 1" in capsys.readouterr().err


def test_verify_refuses_a_gamma_too_close_to_one_before_sweeping(tmp_path, capsys):
    # Value iteration at this gamma would run all its million sweeps and still not reach tol.
    model = trained(tmp_path)
    capsys.readouterr()
    start = time.perf_counter()
    rc = run("verify", "--model", model, "--env", "gridworld-2x2", "--gamma", "0.99999")
    assert time.perf_counter() - start < 1.0
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: --gamma 0.99999 is too close to 1 for verify: value iteration at gamma 0.99999 may need more than "
        "1000000 sweeps to reach tol 1e-09\n")


def test_verify_names_a_gamma_near_one_by_all_its_digits(tmp_path, capsys):
    # Six significant digits would round 0.9999999 to 1, which the message says it is too close to.
    model = trained(tmp_path)
    capsys.readouterr()
    rc = run("verify", "--model", model, "--env", "gridworld-2x2", "--gamma", "0.9999999")
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: --gamma 0.9999999 is too close to 1 for verify: value iteration "
                                              "at gamma 0.9999999 ")


@pytest.mark.parametrize("tol", ["nan", "inf", "-0.1"])
def test_verify_rejects_a_non_finite_or_negative_tol_as_a_usage_error(tmp_path, capsys, tol):
    model = trained(tmp_path)
    capsys.readouterr()
    rc = run("verify", "--model", model, "--env", "gridworld-2x2", "--gamma", "0.5", "--tol", tol)
    assert rc == 1
    assert "--tol must be finite and >= 0" in capsys.readouterr().err


def test_verify_needs_exact_dynamics(tmp_path, capsys):
    model = trained(tmp_path)
    rc = run("verify", "--model", model, "--env", "tictactoe",
             "--gamma", "0.5", "--tol", "0.1")
    assert rc == 2
    assert "exact dynamics" in capsys.readouterr().err


# --- a control flag left out takes the value of the model the command reads ----


def test_verify_without_gamma_solves_at_the_models_discount(tmp_path, capsys):
    exp, model = str(tmp_path / "exp.csv"), str(tmp_path / "model.json")
    assert main(sample_args(exp, n="1000")) == 0
    assert main(train_args(exp, model, **{"--gamma": "0.9", "--iter": "500"})) == 0
    capsys.readouterr()
    assert run("verify", "--model", model, "--env", "gridworld-2x2") == 0
    default = capsys.readouterr().out
    assert "verification passed" in default
    assert run("verify", "--model", model, "--env", "gridworld-2x2", "--gamma", "0.9") == 0
    assert capsys.readouterr().out == default
    assert run("verify", "--model", model, "--env", "gridworld-2x2", "--gamma", "0.5") == 3


def test_verify_refuses_a_model_gamma_of_one_naming_the_model(tmp_path, capsys):
    exp, model = str(tmp_path / "exp.csv"), str(tmp_path / "model.json")
    assert main(sample_args(exp)) == 0
    assert main(train_args(exp, model, **{"--gamma": "1", "--iter": "5"})) == 0
    capsys.readouterr()
    assert run("verify", "--model", model, "--env", "gridworld-2x2") == 1
    assert capsys.readouterr().err == f"error: {model}: gamma must be below 1 for verify, got 1; pass --gamma\n"
    assert run("verify", "--model", model, "--env", "gridworld-2x2", "--gamma", "0.5", "--tol", "1e9") == 0
    # A given --gamma of 1 is refused before the model is read.
    assert run("verify", "--model", str(tmp_path / "missing.json"), "--env", "gridworld-2x2", "--gamma", "1") == 1
    assert capsys.readouterr().err.endswith("error: --gamma must be below 1 for verify, got 1\n")


def test_sample_without_epsilon_draws_at_the_models_epsilon(tmp_path):
    exp, model = str(tmp_path / "exp.csv"), str(tmp_path / "model.json")
    assert main(sample_args(exp)) == 0
    assert main(train_args(exp, model, **{"--epsilon": "0.3"})) == 0
    default, given = tmp_path / "default.csv", tmp_path / "given.csv"
    assert main(sample_args(str(default)) + ["--mode", "epsilon-greedy", "--model", model]) == 0
    assert main(sample_args(str(given)) + ["--mode", "epsilon-greedy", "--model", model, "--epsilon", "0.3"]) == 0
    assert default.read_bytes() == given.read_bytes()


def test_train_on_a_model_keeps_its_control_but_for_the_flags_given(tmp_path):
    exp, model = str(tmp_path / "exp.csv"), str(tmp_path / "model.json")
    assert main(sample_args(exp)) == 0
    assert main(train_args(exp, model, **{"--alpha": "0.3", "--gamma": "0.9", "--epsilon": "0.2"})) == 0
    kept, changed = str(tmp_path / "kept.json"), str(tmp_path / "changed.json")
    assert run("train", "--data", exp, "--model", model, "--out", kept) == 0
    assert load_model(kept).control == ControlParams(alpha=0.3, gamma=0.9, epsilon=0.2)
    assert run("train", "--data", exp, "--model", model, "--gamma", "0.7", "--out", changed) == 0
    assert load_model(changed).control == ControlParams(alpha=0.3, gamma=0.7, epsilon=0.2)
    # Without a model the defaults fill in what is not given.
    assert run("train", "--data", exp, "--alpha", "0.4", "--out", changed) == 0
    assert load_model(changed).control == ControlParams(alpha=0.4)


@pytest.mark.parametrize("field, value, message", [
    pytest.param("iterations_completed", 7, "iterations_completed must be 300, the number of reward_history entries, "
                 "got 7", id="iterations-not-history-length"),
    pytest.param("learning_rule", "SARSA", "learning_rule must be 'experienceReplay', got 'SARSA'", id="other-rule"),
])
def test_every_command_refuses_a_model_whose_facts_contradict(tmp_path, capsys, field, value, message):
    model = trained(tmp_path)
    with open(model) as fh:
        doc = json.load(fh)
    doc[field] = value
    with open(model, "w") as fh:
        json.dump(doc, fh)
    exp, out = str(tmp_path / "exp.csv"), str(tmp_path / "out.json")
    for argv in (["report", "--model", model], ["predict", "--model", model, "--states", "s1"],
                 ["verify", "--model", model, "--env", "gridworld-2x2"],
                 ["train", "--data", exp, "--model", model, "--out", out],
                 sample_args(str(tmp_path / "x.csv")) + ["--mode", "epsilon-greedy", "--model", model]):
        capsys.readouterr()
        assert run(*argv) == 2
        assert capsys.readouterr().err == f"error: {model}: malformed model file: {message}\n"
    assert not os.path.exists(out)


def test_report_views(tmp_path, capsys):
    model = trained(tmp_path)
    assert run("report", "--model", model, "--view", "policy") == 0
    assert "s3 -> up" in capsys.readouterr().out
    assert run("report", "--model", model, "--view", "table") == 0
    assert "State-action values" in capsys.readouterr().out
    assert run("report", "--model", model) == 0
    assert "Learning rule" in capsys.readouterr().out


def test_report_rejects_corrupt_model(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"format": "rlmodel/0"}))
    assert run("report", "--model", str(bad)) == 2
    assert "rlmodel/1" in capsys.readouterr().err


def test_report_names_the_file_and_field_of_a_missing_policy_entry(tmp_path, capsys):
    model = trained(tmp_path)
    with open(model) as fh:
        doc = json.load(fh)
    del doc["policy"]["s2"]
    with open(model, "w") as fh:
        json.dump(doc, fh)
    capsys.readouterr()
    assert run("report", "--model", model, "--view", "policy") == 2
    err = capsys.readouterr().err
    assert model in err
    assert "policy has no entry for state 's2'" in err


def test_predict_names_the_file_and_field_of_a_policy_that_is_not_greedy(tmp_path, capsys):
    model = trained(tmp_path)
    with open(model) as fh:
        doc = json.load(fh)
    doc["policy"]["s3"] = "down"
    with open(model, "w") as fh:
        json.dump(doc, fh)
    capsys.readouterr()
    assert run("predict", "--model", model, "--states", "s3") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert model in captured.err
    assert "policy['s3'] is 'down', but the argmax of q['s3'] is 'up'" in captured.err


def test_report_names_the_file_and_field_of_a_boolean_control_value(tmp_path, capsys):
    model = trained(tmp_path)
    with open(model) as fh:
        doc = json.load(fh)
    doc["control"]["alpha"] = True
    with open(model, "w") as fh:
        json.dump(doc, fh)
    capsys.readouterr()
    assert run("report", "--model", model) == 2
    err = capsys.readouterr().err
    assert model in err
    assert "control.alpha must be a finite number, got True" in err


@pytest.mark.parametrize("text", [
    pytest.param("[" * 200_000, id="nesting"),
    pytest.param('{"iterations_completed": 1' + "0" * 5_000 + "}", id="long-integer",
                 marks=pytest.mark.skipif(not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 5_000,
                                          reason="this Python converts 5,000-digit integers")),
])
def test_report_names_the_file_that_json_cannot_parse(tmp_path, capsys, text):
    model = tmp_path / "model.json"
    model.write_text(text)
    assert run("report", "--model", str(model)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {model}: not a valid model file: ")
    assert captured.err.count("\n") == 1


# --- any bytes as an input file: an exit code, never a traceback ----------------

# Fragments that an edit splices into a valid file: JSON and CSV syntax, numbers
# at and past float range, a long integer, and bytes that are not UTF-8.
_FRAGMENTS = [b"[", b"]", b"{", b"}", b",", b":", b'"', b"\n", b"\r", b"null", b"true", b"NaN", b"-Infinity",
              b"1e999", b"-1", b"1e308", b"0.5", b'"s1"', b'"up"', b"\xff", b"\xed\xa0\x80", b"9" * 5_000]


@st.composite
def _edited(draw, original):
    """`original` with one to four slices replaced by random bytes or fragments."""
    data = bytearray(original)
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(data)))
        j = draw(st.integers(i, min(len(data), i + 24)))
        data[i:j] = draw(st.binary(max_size=8) | st.sampled_from(_FRAGMENTS))
    return bytes(data)


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """A small gridworld experience file and the model trained on it."""
    root = tmp_path_factory.mktemp("valid")
    data, model = str(root / "exp.csv"), str(root / "model.json")
    assert main(sample_args(data, n="20")) == 0
    assert main(train_args(data, model, **{"--iter": "2"})) == 0
    with open(data, "rb") as fh, open(model, "rb") as fm:
        return data, fh.read(), fm.read()


def _assert_fails_cleanly(rc, captured, path, unknown_states_allowed=False):
    assert rc in (0, 2, 3)
    if rc == 2 and not (unknown_states_allowed and captured.err == "" and "unknown-state" in captured.out):
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert path in captured.err


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture],
          phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.target, Phase.shrink])
@given(data=st.data())
def test_any_model_file_ends_in_an_exit_code(tmp_path, capsys, valid_files, data):
    csv_path, _, model_bytes = valid_files
    raw = data.draw(st.binary(max_size=64) | _edited(model_bytes), label="model file")
    path, out = str(tmp_path / "model.json"), str(tmp_path / "out.json")
    with open(path, "wb") as fh:
        fh.write(raw)
    for argv in (["report", "--model", path, "--view", "table"],
                 ["predict", "--model", path, "--states", "s1,s4"],
                 ["verify", "--model", path, "--env", "gridworld-2x2"],
                 train_args(csv_path, out, **{"--model": path, "--iter": "2"})):
        capsys.readouterr()
        rc = main(argv)
        _assert_fails_cleanly(rc, capsys.readouterr(), path, unknown_states_allowed=argv[0] == "predict")


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture],
          phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.target, Phase.shrink])
@given(data=st.data())
def test_any_experience_file_ends_in_an_exit_code(tmp_path, capsys, valid_files, data):
    _, csv_bytes, _ = valid_files
    raw = data.draw(st.binary(max_size=64) | _edited(csv_bytes), label="experience file")
    path, out = str(tmp_path / "exp.csv"), str(tmp_path / "out.json")
    with open(path, "wb") as fh:
        fh.write(raw)
    capsys.readouterr()
    rc = main(train_args(path, out, **{"--iter": "2"}))
    _assert_fails_cleanly(rc, capsys.readouterr(), path)


def test_a_reader_that_closes_stdout_early_gets_exit_141_and_no_error(tmp_path):
    # About 480 KB of report, far beyond a 64 KB pipe buffer, so the write
    # fails however quickly the reader closes.
    model = tmp_path / "big.json"
    q = QTable([f"state-{k:05d}" for k in range(10_000)], [f"a{k}" for k in range(1, 10)])
    save_model(RLModel(q, ControlParams()), str(model))
    src = str(Path(cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    with subprocess.Popen(
        [sys.executable, "-m", "replayq.cli", "report", "--model", str(model), "--view", "table"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    ) as proc:
        assert proc.stdout.readline() == b"State-action values\n"
        proc.stdout.close()
        assert proc.stderr.read() == b""
        assert proc.wait(timeout=60) == 141
