"""Benchmark driver for replayq.

    python3 bench/run.py --workload gridworld-cli --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1

One process runs one workload as a closed loop: the next pipeline run starts
when the previous one (and its output check) has finished. With --trace 0,
every run after the first is paired, stage by stage, with the same run on a
pinned copy of the library (bench/baseline), and the last stdout line is a
JSON object with the end-to-end metrics; with --trace 1
untraced and traced pipeline runs alternate and the line holds the per-layer
metrics, taken from spans recorded around every call into the library.
Metric names and units come from BENCHMARK.json at the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import inspect
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from typing import Dict, List

# One thread per process: keep numpy's BLAS pool from starting workers.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
TMP_DIR = os.path.join(ROOT, ".bench_tmp")
# A verbatim copy of src/replayq, renamed; see README.md, "Why run_rel".
BASELINE_DIR = os.path.join(BENCH_DIR, "baseline")
BASELINE_PKG = "replayq_base"

SETUP_REPS = 3  # set-ups before the first run, and again after the last
QUALITY = ("q_gap", "policy_agree", "win_rate")
END_TO_END = ("setup_s", "run_rel", "peak_rss_mb", *QUALITY)
TRACE_SUMMARY = ("trace.run_s", "trace.untraced_run_s", "trace.overhead_s")


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _purge_replayq() -> None:
    for name in [m for m in sys.modules if m == "replayq" or m.startswith("replayq.")]:
        del sys.modules[name]


def _git_commit() -> str:
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(workload: str, seed: int, trace: int) -> dict:
    import numpy

    h = hashlib.sha256()
    pkg = os.path.join(SRC, "replayq")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "commit": _git_commit(),
        "source_sha256": h.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "loadavg_at_start": list(os.getloadavg()),
        "time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


# --- per-layer metrics from spans ---------------------------------------------


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans, self_time: Dict[int, float], env_build_s: float) -> Dict[str, float]:
    """Per-layer metrics of one traced pipeline run."""
    from spans import LAYERS

    dur: Dict[tuple, float] = defaultdict(float)
    calls: Dict[tuple, int] = defaultdict(int)
    own: Dict[tuple, float] = defaultdict(float)
    counts: Dict[tuple, float] = defaultdict(float)
    layer_self: Dict[str, float] = defaultdict(float)
    peak_alloc = 0
    root = 0.0
    for s in spans:
        if s.layer == "bench":
            root += s.duration
            continue
        for key in ((s.layer, s.name, s.tag), (s.layer, s.name, None)):
            dur[key] += s.duration
            calls[key] += 1
            own[key] += self_time[s.id]
            for k, v in s.counts.items():
                counts[key + (k,)] += v
        layer_self[s.layer] += self_time[s.id]
        peak_alloc = max(peak_alloc, s.counts.get("peak_alloc_bytes", 0))

    def t(layer, name, tag=None):
        return dur[(layer, name, tag)]

    def c(layer, name, key, tag=None):
        return counts[(layer, name, tag, key)]

    m: Dict[str, float] = {}
    learn_s, update_s = t("learner", "learn"), t("learner", "update_model")
    updates = c("learner", "learn", "updates") + c("learner", "update_model", "updates")
    m["learner.learn_s"] = learn_s
    m["learner.update_model_s"] = update_s
    m["learner.updates"] = updates
    m["learner.updates_per_s"] = _ratio(updates, learn_s + update_s)
    for tag, label in (("random", "random"), ("epsilon-greedy", "egreedy")):
        sample_s = t("envs", "sample_experience", tag)
        tuples = c("envs", "sample_experience", "tuples", tag)
        m[f"envs.sample_{label}_s"] = sample_s
        m[f"envs.tuples_{label}"] = tuples
        m[f"envs.tuples_{label}_per_s"] = _ratio(tuples, sample_s)
    gen_s, games = t("tictactoe", "ttt_generate_games"), c("tictactoe", "ttt_generate_games", "games")
    m["tictactoe.env_build_s"] = env_build_s
    m["tictactoe.generate_s"] = gen_s
    m["tictactoe.games"] = games
    m["tictactoe.games_per_s"] = _ratio(games, gen_s)
    m["tictactoe.step_calls"] = calls[("tictactoe", "tictactoe_step", None)]
    m["tictactoe.step_s"] = t("tictactoe", "tictactoe_step")
    m["core.policy_s"] = t("core", "policy_from_q")
    m["core.qvalue_reads"] = c("core", "greedy_eval", "qvalue_reads")
    m["core.qtable_read_s"] = own[("core", "greedy_eval", None)]
    write_s, read_s = t("persist", "write_experience"), t("persist", "read_experience")
    rows_written, rows_read = c("persist", "write_experience", "rows"), c("persist", "read_experience", "rows")
    m["persist.write_s"] = write_s
    m["persist.read_s"] = read_s
    m["persist.rows"] = rows_written
    m["persist.read_rows_per_s"] = _ratio(rows_read, read_s)
    m["persist.write_rows_per_s"] = _ratio(rows_written, write_s)
    m["persist.csv_bytes"] = c("persist", "write_experience", "bytes")
    m["persist.save_s"] = t("persist", "save_model")
    m["persist.load_s"] = t("persist", "load_model")
    m["persist.model_bytes"] = c("persist", "save_model", "bytes")
    m["oracle.estimate_s"] = t("oracle", "estimate_mdp")
    m["oracle.vi_s"] = t("oracle", "value_iteration")
    m["oracle.states"] = c("oracle", "estimate_mdp", "states")
    m["oracle.mdp_bytes"] = c("oracle", "estimate_mdp", "mdp_bytes")
    m["oracle.coverage_ratio"] = _ratio(c("oracle", "estimate_mdp", "covered"), c("oracle", "estimate_mdp", "pairs"))
    m["oracle.peak_alloc_mb"] = peak_alloc / 2**20
    for step in ("sample", "train", "verify", "curve", "report"):
        m[f"cli.{step}_s"] = t("cli", step)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
        m[f"{layer}.self_share"] = _ratio(layer_self[layer], root)
    m["trace.spans"] = len(spans)
    return m


# --- one workload in this process ---------------------------------------------


def _pipeline(workload, *args):
    """One pipeline run as a generator over its stages; returns the run's outputs."""
    out = workload.run(*args)
    if inspect.isgenerator(out):
        out = yield from out
    return out


def _finish(run):
    """Runs every stage of a pipeline run and returns its outputs."""
    while True:
        try:
            next(run)
        except StopIteration as stop:
            return stop.value


def _paired(live, base, live_first: bool, check):
    """Runs two pipeline runs stage by stage, swapping which goes first at every stage.

    Both libraries see the shared host in nearly the same state, so its
    contention cancels in the ratio of their times. Each run's outputs are
    dropped as soon as it ends, after `check(outputs)` for the live run, so
    neither run allocates while the other's outputs are held. Returns (live
    seconds, baseline seconds, what `check` returned).
    """
    elapsed = {live: 0.0, base: 0.0}
    pending = [live, base] if live_first else [base, live]
    checked = None
    while pending:
        for run in list(pending):
            start = time.perf_counter()
            try:
                next(run)
                elapsed[run] += time.perf_counter() - start
            except StopIteration as stop:
                elapsed[run] += time.perf_counter() - start
                pending.remove(run)
                if run is live:
                    checked = check(stop.value)
        pending.reverse()
    return elapsed[live], elapsed[base], checked


def run_workload(name: str, seed: int, seconds: float, trace: int) -> int:
    if not os.path.isfile(os.path.join(SRC, "replayq", "__init__.py")):
        print(f"error: {SRC}/replayq not found; run from a replayq checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, BENCH_DIR)
    from spans import NullTracer, Tracer, self_times
    from workloads import WORKLOADS, load_lib

    spec = _spec()
    workload = WORKLOADS[name]

    setup_times, env_build_times = [], []

    def set_up():
        _purge_replayq()
        start = time.perf_counter()
        lib = load_lib()
        state = workload.setup(lib, seed)
        setup_times.append(time.perf_counter() - start)
        env_build_times.append(getattr(state, "env_build_s", 0.0))
        return lib, state

    for _ in range(SETUP_REPS):
        lib, state = set_up()
    if not os.path.abspath(lib.cli.__file__).startswith(SRC + os.sep):
        print(f"error: imported replayq from {lib.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    refs = workload.reference(lib, state)

    tracer = Tracer() if trace else None
    traced_lib = tracer.wrap_namespace(lib) if trace else None
    null = NullTracer()
    workdir = os.path.join(TMP_DIR, f"{name}-{os.getpid()}")
    live_dir, base_dir = os.path.join(workdir, "live"), os.path.join(workdir, "baseline")
    os.makedirs(live_dir, exist_ok=True)
    os.makedirs(base_dir, exist_ok=True)

    run_times: Dict[bool, List[float]] = {False: [], True: []}  # live runs, by traced
    base_times: List[float] = []  # baseline half of each paired run
    paired_times: List[float] = []  # live half of each paired run
    traced_ok: List[int] = []
    seen: Dict[int, tuple] = {}  # case -> (quality metrics, fingerprint) of its first run
    base_lib = base_state = None
    peak_rss_mb = 0.0
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    try:
        # Every case runs at least once, even when one run outlasts --seconds.
        # Without tracing, the first run is the library alone (peak_rss_mb is read
        # after it); every later run is paired with the pinned baseline.
        while attempted < len(state.cases) or time.perf_counter() < deadline:
            traced = bool(trace) and attempted % 2 == 1
            paired = not trace and attempted > 0
            k = attempted % len(state.cases)
            case = state.cases[k]
            attempted += 1
            out = None  # drop the previous run's outputs before the next run allocates
            if paired and base_lib is None:
                sys.path.insert(0, BASELINE_DIR)
                base_lib = load_lib(BASELINE_PKG)
                base_state = workload.setup(base_lib, seed)
            if traced:
                tracer.run = attempted
                run_lib, run_tracer, patch = traced_lib, tracer, tracer.patched(lib.cli, workload.cli_names)
            else:
                run_lib, run_tracer, patch = lib, null, contextlib.nullcontext()

            def check(out):
                return workload.evaluate(state, case, refs[k], out, lib)

            try:
                if paired:
                    elapsed, base_s, (metrics, problems, fingerprint) = _paired(
                        _pipeline(workload, state, case, lib, null, live_dir),
                        _pipeline(workload, base_state, base_state.cases[k], base_lib, null, base_dir),
                        attempted % 2 == 0,
                        check,
                    )
                else:
                    start = time.perf_counter()
                    with patch, run_tracer.span("bench", "run"):
                        out = _finish(_pipeline(workload, state, case, run_lib, run_tracer, live_dir))
                    elapsed = time.perf_counter() - start
                    if not trace and attempted == 1:
                        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
                    metrics, problems, fingerprint = check(out)
            except Exception:
                failed += 1
                print(f"run {attempted} raised:\n{traceback.format_exc()}", file=sys.stderr)
                continue
            if k not in seen:
                seen[k] = (metrics, fingerprint)
            elif seen[k] != (metrics, fingerprint):
                problems.append(f"outputs differ from the first run of case {k}")
            if problems:
                failed += 1
                print(f"run {attempted} failed its check: {'; '.join(problems)}", file=sys.stderr)
                continue
            run_times[traced].append(elapsed)
            if paired:
                paired_times.append(elapsed)
                base_times.append(base_s)
            if traced:
                traced_ok.append(attempted)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    # The host's speed drifts over seconds, so set-up is timed in a second
    # burst after the last run, not only before the first.
    for _ in range(SETUP_REPS):
        set_up()

    values: Dict[str, float] = {}
    pair_rel = [live / base for live, base in zip(paired_times, base_times)]
    if trace:
        selfs = self_times(tracer.spans)
        by_run = defaultdict(list)
        for s in tracer.spans:
            by_run[s.run].append(s)
        env_build_s = statistics.median(env_build_times)
        per_run = [layer_metrics(by_run[r], selfs, env_build_s) for r in traced_ok]
        for key in per_run[0] if per_run else ():
            values[key] = statistics.median(m[key] for m in per_run)
        traced_s = statistics.median(run_times[True]) if run_times[True] else 0.0
        untraced_s = statistics.median(run_times[False]) if run_times[False] else 0.0
        values.update(zip(TRACE_SUMMARY, (traced_s, untraced_s, traced_s - untraced_s)))
        metric_specs = spec["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "run_rel": statistics.median(pair_rel) if pair_rel else 0.0,
            "peak_rss_mb": peak_rss_mb,
        }
        for key in QUALITY:
            per_case = [metrics[key] for metrics, _ in seen.values()]
            values[key] = statistics.fmean(per_case) if per_case else 0.0
        metric_specs = spec["end_to_end"]

    result_metrics = {
        m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]} for m in metric_specs
    }
    prov = provenance(name, seed, trace)
    times = run_times[bool(trace)]
    summary = {
        "runs_ok": len(times),
        "run_s_quartiles": _quartiles(times),
        "failed_ratio": failed / attempted,
    }
    if not trace:
        summary.update({
            "paired_runs": len(base_times),
            "paired_run_rel": pair_rel,
            "baseline_run_s_quartiles": _quartiles(base_times),
        })
    _report(name, prov, summary, result_metrics, tracer.spans if trace else None)
    ok = failed == 0 and (bool(trace) or len(base_times) > 0)
    result = {"correct": ok, "attempted": attempted, "failed": failed, "metrics": result_metrics}
    print(json.dumps(result))
    return 0


def _quartiles(times: List[float]) -> List[float]:
    return statistics.quantiles(times, n=4) if len(times) >= 2 else list(times)


def _report(name, prov, summary, metrics, spans) -> None:
    mode = "one traced or untraced run at a time" if prov["trace"] else "library and baseline runs paired"
    print(f"workload {name}: closed loop, {mode}, seed {prov['seed']}")
    print("provenance: " + json.dumps(prov))
    q = summary["run_s_quartiles"]
    kind = "traced pipeline runs" if prov["trace"] else "pipeline runs"
    print(f"{kind} passed: {summary['runs_ok']}, their run_s quartiles: {', '.join(f'{v:.4f}' for v in q)} s")
    if "paired_runs" in summary:
        qb = summary["baseline_run_s_quartiles"]
        print(f"paired runs: {summary['paired_runs']}, the pinned baseline's run_s quartiles: "
              f"{', '.join(f'{v:.4f}' for v in qb)} s")
    print(f"failed_ratio: {summary['failed_ratio']:.4f} ratio")
    for key, m in metrics.items():
        print(f"{key}: {m['value']:.6g} {m['unit']}")
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{name}-seed{prov['seed']}-trace{prov['trace']}")
    with open(stem + ".json", "w") as fh:
        json.dump({"provenance": prov, "summary": summary, "metrics": metrics}, fh, indent=2)
    if spans is not None:
        with open(stem + "-spans.jsonl", "w") as fh:
            for s in spans:
                fh.write(json.dumps([s.id, s.parent, s.run, s.layer, s.name, s.tag, s.start, s.end, s.counts]) + "\n")


# --- all workloads, one process each ----------------------------------------------


def run_all(names, seed: int, seconds: float, trace: int) -> int:
    status = 0
    for name in names:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=300)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            status = proc.returncode
    return status


def main(argv=None) -> int:
    sys.path.insert(0, BENCH_DIR)
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=_spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(list(WORKLOADS), args.seed, args.seconds, args.trace)
    return run_workload(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
