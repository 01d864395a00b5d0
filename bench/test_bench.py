"""The benchmark's own tests. Not part of the library's test suite; run with

    python3 -m pytest bench
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import run  # noqa: E402
from spans import NullTracer, Tracer, self_times  # noqa: E402
from workloads import GridworldCli, TictactoeOracle, TictactoePipeline, WORKLOADS, load_lib  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_metric_names_are_unique_valid_and_have_units(spec):
    metrics = spec["end_to_end"] + spec["per_layer"]
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    for m in metrics:
        assert NAME.match(m["name"]), m
        assert UNIT.match(m["unit"]), m
        assert m["better"] in ("lower", "higher"), m
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25, m
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_runner_emits_exactly_the_declared_metrics(spec):
    assert set(run.END_TO_END) == {m["name"] for m in spec["end_to_end"]}
    per_layer = set(run.layer_metrics([], {}, 0.0)) | set(run.TRACE_SUMMARY)
    assert per_layer == {m["name"] for m in spec["per_layer"]}


def test_self_time_excludes_child_spans():
    tracer = Tracer()
    lib = load_lib()
    traced = tracer.wrap_namespace(lib)
    with tracer.span("core", "outer"):
        traced.ttt_winner("XXX......")
    outer, = [s for s in tracer.spans if s.name == "outer"]
    inner, = [s for s in tracer.spans if s.name == "ttt_winner"]
    assert inner.layer == "tictactoe" and inner.parent == outer.id
    own = self_times(tracer.spans)
    assert own[outer.id] == pytest.approx(outer.duration - inner.duration)


def _one_run(workload, tmp_path):
    lib = load_lib()
    state = workload.setup(lib, seed=0)
    case = state.cases[0]
    ref = workload.reference(lib, state)[0]
    out = run._finish(run._pipeline(workload, state, case, lib, NullTracer(), str(tmp_path)))
    metrics, problems, _ = workload.evaluate(state, case, ref, out, lib)
    assert problems == []
    return lib, state, case, ref, out, metrics


def test_gridworld_check_rejects_flipped_policy(tmp_path):
    workload = GridworldCli()
    lib, state, case, ref, out, _ = _one_run(workload, tmp_path)
    path = out.paths["model.json"]
    with open(path) as fh:
        doc = json.load(fh)
    doc["policy"]["s2"] = "left"
    with open(path, "w") as fh:
        json.dump(doc, fh)
    _, problems, _ = workload.evaluate(state, case, ref, out, lib)
    assert any("policy s2" in p for p in problems)


def test_pipeline_check_rejects_truncated_csv(tmp_path):
    workload = TictactoePipeline()
    lib, state, case, ref, out, metrics = _one_run(workload, tmp_path)
    assert metrics["win_rate"] >= workload.min_win_rate
    with open(out.csv_path, "rb") as fh:
        data = fh.read()
    with open(out.csv_path, "wb") as fh:
        fh.write(data[: len(data) // 2])
    _, problems, _ = workload.evaluate(state, case, ref, out, lib)
    assert any("round-trip" in p for p in problems)


def test_oracle_check_rejects_perturbed_q_star(tmp_path):
    workload = TictactoeOracle()
    workload.games = 100  # small dense tables keep the test light
    lib, state, case, ref, out, _ = _one_run(workload, tmp_path)
    s, a = next(iter(ref))
    out.q_star.set(s, a, out.q_star.value(s, a) + 1e-6)
    _, problems, _ = workload.evaluate(state, case, ref, out, lib)
    assert any("Bellman residual" in p for p in problems)


def test_paired_runs_alternate_stages_and_check_only_the_live_run():
    order, checked = [], []

    def stages(tag):
        for i in range(3):
            order.append((tag, i))
            yield
        return tag

    live_s, base_s, result = run._paired(stages("live"), stages("base"), False, lambda out: checked.append(out) or 7)
    assert order == [("base", 0), ("live", 0), ("live", 1), ("base", 1), ("base", 2), ("live", 2)]
    assert checked == ["live"] and result == 7
    assert live_s > 0 and base_s > 0


def test_baseline_is_a_separate_copy_of_the_library():
    sys.path.insert(0, run.BASELINE_DIR)
    base = load_lib(run.BASELINE_PKG)
    live = load_lib()
    assert base.learn is not live.learn
    assert base.cli.__file__.startswith(run.BASELINE_DIR + os.sep)


def test_runner_fails_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "gridworld-cli", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
