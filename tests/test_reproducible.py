"""Same seeds, same bytes: the whole CLI against the pinned baseline copy.

`bench/baseline/replayq_base` is a copy of the library taken at an earlier
commit, read here in place. Each case runs one argv sequence through
`replayq.cli.main` and through the copy's `cli.main`, each in a directory of
its own, and the two must agree on every exit code, every stdout (with the
directory's path normalised) and the bytes of every file written. The Q* of
the first sampled batch is compared within a stated bound.

The departures since the copy that the comparison allows, each with the
CHANGES.md line that records it:
- a continued `train --model` keeps the prior's control where the copy reset
  it to the defaults (CHANGES.md:278), so every `train` passes all three
  control flags;
- `sample --mode epsilon-greedy` draws at the model's ε where the copy drew at
  0.1 (CHANGES.md:277), so it passes `--epsilon`, and only it: the random mode
  now refuses the flag (CHANGES.md:116);
- `verify` solves at the model's γ where the copy solved at 0.5
  (CHANGES.md:276), so it passes `--gamma`;
- Q* of an estimated MDP adds each row's terms in next-state order, so it may
  move in its low bits (CHANGES.md:147): it is compared within
  `Q_STAR_ULPS` ulps of the table's largest value.
"""

import contextlib
import functools
import importlib
import importlib.util
import io
import math
import os
import sys
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

import replayq
import replayq.cli

BASELINE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench", "baseline",
                        "replayq_base")
# Q*'s summation order changed (CHANGES.md:147): at most 2 ulps were seen, at values of about 1.
Q_STAR_ULPS = 4
# Tic-tac-toe batches above this size are not estimated: the copy's dense tables grow as states squared.
Q_STAR_MAX_TTT_ROWS = 100


def _baseline():
    """The baseline package, imported under its own name without adding `bench/baseline` to sys.path."""
    if "replayq_base" not in sys.modules:
        spec = importlib.util.spec_from_file_location(
            "replayq_base", os.path.join(BASELINE, "__init__.py"), submodule_search_locations=[BASELINE])
        package = sys.modules["replayq_base"] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(package)
    return sys.modules["replayq_base"], importlib.import_module("replayq_base.cli")


def _argvs(case, out):
    """The sequence: sample, train, epsilon-greedy sample, continued train, report, curve, verify."""
    env, n, seed = case["env"], str(case["n"]), case["seed"]
    control = ["--alpha", case["alpha"], "--gamma", case["gamma"], "--epsilon", case["epsilon"]]
    path = functools.partial(os.path.join, out)
    return [
        ["sample", "--env", env, "--n", n, "--seed", str(seed), "--out", path("exp.csv")],
        ["train", "--data", path("exp.csv"), *control, "--iter", case["iter"], "--seed", str(seed),
         "--out", path("model.json")],
        ["sample", "--env", env, "--n", n, "--mode", "epsilon-greedy", "--model", path("model.json"),
         "--epsilon", case["epsilon"], "--seed", str(seed + 1), "--out", path("greedy.csv")],
        ["train", "--data", path("greedy.csv"), "--model", path("model.json"), *control, "--iter", case["iter"],
         "--seed", str(seed + 1), "--out", path("more.json")],
        ["report", "--model", path("more.json"), "--view", "table"],
        ["curve", "--env", env, "--rounds", "3", "--n", n, *control, "--seed", str(seed + 2),
         "--out", path("curve.csv"), "--plot", path("curve.svg")],
        ["verify", "--model", path("more.json"), "--env", "gridworld-2x2", "--gamma", case["gamma"]],
    ]


def _run(main, case, out):
    """Each command's (exit code, stdout with `out` normalised), then every file written as bytes."""
    results = []
    for argv in _argvs(case, out):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        results.append((argv[0], code, stdout.getvalue().replace(out, "<out>")))
    files = {}
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), "rb") as fh:
            files[name] = fh.read()
    return results, files


def _q_star(package, path, gamma):
    q = package.value_iteration(package.estimate_mdp(package.read_experience(path)), gamma=gamma)
    return {(s, a): q.value(s, a) for s in q.states for a in q.actions}


@st.composite
def cases(draw):
    case = {
        "env": draw(st.sampled_from(["gridworld-2x2", "tictactoe"])),
        "n": draw(st.sampled_from([1, 2, 7, 100, 1000])),
        "seed": draw(st.integers(0, 2**32 - 1)),
        "alpha": draw(st.sampled_from(["0", "0.1", "0.37", "0.5", "1"])),
        "gamma": draw(st.sampled_from(["0", "0.5", "0.9", "0.99"])),
        "epsilon": draw(st.sampled_from(["0", "0.2", "1"])),
    }
    # The copy replays every pass asked for: 50 passes over 1,000 tuples would take it 0.2-0.3 s a case.
    passes = ["1", "3"] if case["n"] == 1000 else ["1", "3", "50"]
    return {**case, "iter": draw(st.sampled_from(passes))}


@settings(max_examples=50, deadline=None)
@given(case=cases())
def test_the_cli_writes_what_the_baseline_copy_writes(case):
    base, base_cli = _baseline()
    with tempfile.TemporaryDirectory() as live_out, tempfile.TemporaryDirectory() as base_out:
        live, base_run = _run(replayq.cli.main, case, live_out), _run(base_cli.main, case, base_out)
        assert live == base_run
        assert [code for _, code, _ in live[0][:-1]] == [0] * 6  # only verify may fail, or refuse tic-tac-toe
        if case["env"] == "gridworld-2x2" or case["n"] <= Q_STAR_MAX_TTT_ROWS:
            gamma = float(case["gamma"])
            q_live = _q_star(replayq, os.path.join(live_out, "exp.csv"), gamma)
            q_base = _q_star(base, os.path.join(base_out, "exp.csv"), gamma)
            assert list(q_live) == list(q_base)
            bound = Q_STAR_ULPS * math.ulp(max(map(abs, q_base.values()), default=0.0) or 1.0)
            assert all(abs(q_live[pair] - q_base[pair]) <= bound for pair in q_base)
