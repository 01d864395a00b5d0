"""The benchmark's three workloads.

Each workload has:
- `setup(lib, seed)`: builds environments and makes the inputs of `cases`
  independent cases from the seed (timed as set-up);
- `reference(lib, state)`: per case, the values its outputs are checked
  against (untimed);
- `run(state, case, lib, tracer, workdir)`: one pipeline run (timed). It
  returns the run's outputs; a run with several stages is a generator that
  yields between them, so that a paired run can interleave two libraries
  stage by stage;
- `evaluate(state, case, ref, out, lib)`: returns (quality metrics, problems,
  fingerprint). An empty problem list means the outputs passed the check.

Pipeline runs cycle through the cases. Quality metrics depend on the inputs,
so each is averaged over the cases; a repeated case must reproduce its
fingerprint exactly.

`lib` is a namespace of replayq's public functions; in traced runs it holds
wrapped copies, and in paired runs it may be the pinned baseline copy of the
library. Evaluation always gets the plain functions of the library under test.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import random
import time
import types
from functools import lru_cache
from typing import Callable, Dict, Iterable, List, Tuple

import numpy as np

CASES = 4
TIE_MARGIN = 1e-9
GRID_GAMMA = 0.5
TTT_GAMMA = 0.99
VI_TOL = 1e-9
RANDOM_PLAY_WIN_RATE = 0.585  # exact X win probability when both sides play uniformly
TTT_CONTROL = dict(alpha=0.2, gamma=TTT_GAMMA)


def load_lib(package: str = "replayq") -> types.SimpleNamespace:
    """The package's exported names, the tic-tac-toe helpers and the CLI module."""
    import importlib

    pkg = importlib.import_module(package)
    ttt = importlib.import_module(package + ".tictactoe")
    names = {n: getattr(pkg, n) for n in pkg.__all__}
    for n in ("tictactoe_step", "legal_cells", "EMPTY_BOARD", "CELL_ACTIONS"):
        names[n] = getattr(ttt, n)
    names["cli"] = importlib.import_module(package + ".cli")
    return types.SimpleNamespace(**names)


def _seeds(seed: int, n: int) -> List[int]:
    rng = random.Random(seed)
    return [rng.randrange(2**32) for _ in range(n)]


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p)
    return h.hexdigest()


def _read_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def policy_agreement(states: Iterable, row: Callable, chosen: Callable) -> float:
    """Share of tie-free states whose chosen action is the argmax of Q*.

    `row(s)` lists (action, Q*) in tie-breaking order; a state is tie-free
    when its best two Q* values differ by more than TIE_MARGIN.
    """
    compared = matched = 0
    for s in states:
        pairs = row(s)
        values = sorted((v for _, v in pairs), reverse=True)
        if len(values) < 2 or values[0] - values[1] <= TIE_MARGIN:
            continue
        compared += 1
        best = max(pairs, key=lambda p: p[1])[0]
        matched += chosen(s) == best
    return matched / compared if compared else 0.0


def greedy_games(lib, q, games: int, rng: random.Random) -> Tuple[int, int]:
    """Play X greedily on `q` over legal cells against the random opponent.

    Returns (wins, Q-value reads). Ties break to the lowest cell.
    """
    cells_of, step, winner, actions = lib.legal_cells, lib.tictactoe_step, lib.ttt_winner, lib.CELL_ACTIONS
    value = q.value
    wins = reads = 0
    for _ in range(games):
        board = lib.EMPTY_BOARD
        while True:
            cells = cells_of(board)
            reads += len(cells)
            best = max(cells, key=lambda k: (value(board, actions[k]), -k))
            board, reward = step(board, actions[best], rng)
            if winner(board) != "ongoing":
                wins += reward == 1.0
                break
    return wins, reads


# --- reference: exact tic-tac-toe values ------------------------------------

_LINES = ((0, 1, 2), (3, 4, 5), (6, 7, 8), (0, 3, 6), (1, 4, 7), (2, 5, 8), (0, 4, 8), (2, 4, 6))


def _has_line(board: str, mark: str) -> bool:
    return any(board[i] == board[j] == board[k] == mark for i, j, k in _LINES)


def exact_ttt_q_star(gamma: float) -> Dict[Tuple[str, str], float]:
    """Exact Q* for every legal X move on every board reachable with X to move.

    Written independently of the library: X marks a cell, then (unless the
    game is over) the opponent replies uniformly at random; terminal moves
    pay +1/0/-1 and all other moves 0.
    """
    q: Dict[Tuple[str, str], float] = {}

    @lru_cache(maxsize=None)
    def value(board: str) -> float:
        best = -math.inf
        for k, c in enumerate(board):
            if c != ".":
                continue
            after_x = board[:k] + "X" + board[k + 1 :]
            replies = [m for m, c2 in enumerate(after_x) if c2 == "."]
            if _has_line(after_x, "X"):
                v = 1.0
            elif not replies:
                v = 0.0
            else:
                total = 0.0
                for m in replies:
                    after_b = after_x[:m] + "B" + after_x[m + 1 :]
                    total += -1.0 if _has_line(after_b, "B") else gamma * value(after_b)
                v = total / len(replies)
            q[(board, f"c{k + 1}")] = v
            best = max(best, v)
        return best

    value("." * 9)
    return q


# --- gridworld-cli -----------------------------------------------------------


class GridworldCli:
    """The paper's headline pipeline through `replayq.cli.main`, in-process."""

    name = "gridworld-cli"
    cases = CASES
    # Names replayq.cli looks up; the traced run wraps them there.
    cli_names = (
        "make_environment", "sample_experience", "learn", "update_model", "value_iteration",
        "read_experience", "write_experience", "save_model", "load_model", "format_report",
    )
    curve_seeds = 4
    expected_policy = {"s1": "down", "s2": "right", "s3": "up"}
    goal = "s4"

    def setup(self, lib, seed: int):
        env = lib.make_environment("gridworld-2x2")
        cases = []
        for case_seed in _seeds(seed, self.cases):
            sample_seed, train_seed, *curve = _seeds(case_seed, 2 + self.curve_seeds)
            cases.append(types.SimpleNamespace(sample_seed=sample_seed, train_seed=train_seed, curve=curve))
        return types.SimpleNamespace(env=env, cases=cases)

    def reference(self, lib, state):
        q_star = lib.value_iteration(state.env.exact_mdp(), gamma=GRID_GAMMA, tol=VI_TOL)
        values = {(s, a): q_star.value(s, a) for s in q_star.states for a in q_star.actions}
        return [values] * len(state.cases)

    def run(self, state, case, lib, tracer, workdir: str):
        cli = lib.cli
        paths = {k: os.path.join(workdir, k) for k in ("exp.csv", "model.json")}
        paths.update({f"curve{i}.csv": os.path.join(workdir, f"curve{i}.csv") for i in range(self.curve_seeds)})
        grid = ["--env", "gridworld-2x2"]
        control = ["--alpha", "0.1", "--gamma", str(GRID_GAMMA), "--epsilon", "0.1"]
        steps = [
            ("sample", ["sample", *grid, "--n", "1000", "--seed", str(case.sample_seed), "--out", paths["exp.csv"]]),
            ("train", ["train", "--data", paths["exp.csv"], *control, "--iter", "500",
                       "--seed", str(case.train_seed), "--out", paths["model.json"]]),
            ("verify", ["verify", "--model", paths["model.json"], *grid, "--gamma", str(GRID_GAMMA), "--tol", "0.1"]),
            ("report", ["report", "--model", paths["model.json"], "--view", "table"]),
        ]
        steps += [
            ("curve", ["curve", *grid, "--rounds", "10", "--n", "1000", *control,
                       "--seed", str(s), "--out", paths[f"curve{i}.csv"]])
            for i, s in enumerate(case.curve)
        ]
        codes: List[Tuple[str, int]] = []
        stdout: Dict[str, str] = {}
        for name, argv in steps:
            buf = io.StringIO()
            with tracer.span("cli", name), contextlib.redirect_stdout(buf):
                codes.append((name, cli.main(argv)))
            stdout[name] = buf.getvalue()
            yield
        return types.SimpleNamespace(codes=codes, stdout=stdout, paths=paths)

    def evaluate(self, state, case, ref, out, lib):
        problems = [f"{name} exited {rc}" for name, rc in out.codes if rc != 0]
        if "verification passed" not in out.stdout.get("verify", ""):
            problems.append("verify did not pass")
        with open(out.paths["model.json"]) as fh:
            doc = json.load(fh)
        policy = doc["policy"]
        for s, a in self.expected_policy.items():
            if policy.get(s) != a:
                problems.append(f"policy {s}->{policy.get(s)}, expected {a}")
        with open(out.paths["exp.csv"], newline="") as fh:
            covered = {(r["State"], r["Action"]) for r in csv.DictReader(fh)}
        values = {(s, a): v for s, row in doc["q"].items() for a, v in zip(doc["actions"], row)}
        q_gap = max(abs(values.get(p, 0.0) - ref[p]) for p in covered)
        if not q_gap < 0.5:
            problems.append(f"q_gap {q_gap} not below 0.5")
        for i in range(self.curve_seeds):
            with open(out.paths[f"curve{i}.csv"]) as fh:
                lines = fh.read().splitlines()
            if lines[:1] != ["round,total_reward"] or len(lines) != 11:
                problems.append(f"curve{i}.csv has {len(lines)} lines, expected header and 10 rounds")

        states, actions = state.env.states, state.env.actions
        agree = policy_agreement(states, lambda s: [(a, ref[(s, a)]) for a in actions], policy.get)
        metrics = {"q_gap": q_gap, "policy_agree": agree, "win_rate": self._goal_rate(state.env, policy)}
        return metrics, problems, _digest(*(_read_bytes(p) for p in out.paths.values()))

    def _goal_rate(self, env, policy) -> float:
        """Share of non-goal start states from which the greedy policy reaches the goal."""
        rng = random.Random(0)
        starts = [s for s in env.states if s != self.goal]
        reached = 0
        for s in starts:
            for _ in range(10):
                s = env.step(s, policy[s], rng).next_state
                if s == self.goal:
                    reached += 1
                    break
        return reached / len(starts)


def _build_tictactoe(lib):
    """The tic-tac-toe environment (it enumerates every reachable board) and its build time."""
    start = time.perf_counter()
    env = lib.tictactoe_environment()
    return env, time.perf_counter() - start


# --- tictactoe-pipeline ------------------------------------------------------


class TictactoePipeline:
    """Acceptance criterion 7 through the library: simulate, store, learn, play."""

    name = "tictactoe-pipeline"
    cases = CASES
    cli_names = ()
    games = 20_000
    eval_games = 5_000
    min_win_rate = RANDOM_PLAY_WIN_RATE + 0.15

    def setup(self, lib, seed: int):
        env, env_build_s = _build_tictactoe(lib)
        cases = [
            types.SimpleNamespace(games_seed=g, learn_seed=l, eval_seed=e)
            for g, l, e in (_seeds(s, 3) for s in _seeds(seed, self.cases))
        ]
        return types.SimpleNamespace(env=env, env_build_s=env_build_s, cases=cases)

    def reference(self, lib, state):
        return [exact_ttt_q_star(TTT_GAMMA)] * len(state.cases)

    def run(self, state, case, lib, tracer, workdir: str):
        csv_path = os.path.join(workdir, "games.csv")
        model_path = os.path.join(workdir, "model.json")
        games = lib.ttt_generate_games(self.games, seed=case.games_seed)
        yield
        lib.write_experience(games, csv_path)
        yield
        batch = lib.read_experience(csv_path)
        yield
        model = lib.learn(batch, lib.ControlParams(**TTT_CONTROL), iterations=1, seed=case.learn_seed)
        policy = lib.policy_from_q(model.q)
        yield
        lib.save_model(model, model_path)
        loaded = lib.load_model(model_path)
        yield
        with tracer.span("core", "greedy_eval") as counts:
            wins, reads = greedy_games(lib, loaded.q, self.eval_games, random.Random(case.eval_seed))
            counts["qvalue_reads"] = reads
        return types.SimpleNamespace(
            games=games, batch=batch, policy=policy, loaded=loaded,
            csv_path=csv_path, model_path=model_path, win_rate=wins / self.eval_games,
        )

    def evaluate(self, state, case, ref, out, lib):
        problems = []
        if out.batch != out.games:
            problems.append("experience read back differs from the games written")
        copy_path = out.csv_path + ".copy"
        lib.write_experience(out.batch, copy_path)
        with open(out.csv_path, "rb") as a, open(copy_path, "rb") as b:
            csv_bytes = a.read()
            if csv_bytes != b.read():
                problems.append("experience CSV does not round-trip byte-exact")
        with open(out.model_path) as fh:
            model_text = fh.read()
        if lib.model_to_json(out.loaded) != model_text:
            problems.append("model file does not round-trip byte-exact")
        if out.policy != out.loaded.policy:
            problems.append("policy_from_q disagrees with the stored policy")
        if not out.win_rate >= self.min_win_rate:
            problems.append(f"win rate {out.win_rate} below {self.min_win_rate}")

        q = out.loaded.q
        covered = {(t.state, t.action) for t in out.games}
        q_gap = max(abs(q.value(s, a) - ref[(s, a)]) for s, a in covered)
        boards = {s for s, _ in covered}
        actions = lib.CELL_ACTIONS

        def legal_row(s):
            return [(actions[k], ref[(s, actions[k])]) for k, c in enumerate(s) if c == "."]

        def greedy(s):
            return max(legal_row(s), key=lambda p: q.value(s, p[0]))[0]

        agree = policy_agreement(sorted(boards), legal_row, greedy)
        metrics = {"q_gap": q_gap, "policy_agree": agree, "win_rate": out.win_rate}
        return metrics, problems, _digest(csv_bytes, model_text.encode())


# --- tictactoe-oracle --------------------------------------------------------


class TictactoeOracle:
    """Dense model-based check: estimate_mdp and value_iteration on a logged batch.

    At 500 games each dense (S, A, S) table is about 112 MB; the estimate
    holds four of them, so peak RSS is about 0.5 GB.
    """

    name = "tictactoe-oracle"
    # Its quality metrics depend most on the logged batch, so average more of them.
    cases = 3 * CASES
    cli_names = ()
    games = 500
    passes = 10
    eval_games = 2_000

    def setup(self, lib, seed: int):
        env, env_build_s = _build_tictactoe(lib)
        cases = [
            types.SimpleNamespace(batch=lib.ttt_generate_games(self.games, seed=g), learn_seed=l, eval_seed=e)
            for g, l, e in (_seeds(s, 3) for s in _seeds(seed, self.cases))
        ]
        return types.SimpleNamespace(env=env, env_build_s=env_build_s, cases=cases)

    def reference(self, lib, state):
        return [{(t.state, t.action) for t in case.batch} for case in state.cases]

    def run(self, state, case, lib, tracer, workdir: str):
        # One stage, so that a paired run never holds two sets of dense tables at once.
        mdp = lib.estimate_mdp(case.batch)
        q_star = lib.value_iteration(mdp, gamma=TTT_GAMMA, tol=VI_TOL)
        model = lib.learn(case.batch, lib.ControlParams(**TTT_CONTROL), iterations=self.passes, seed=case.learn_seed)
        return types.SimpleNamespace(mdp=mdp, q_star=q_star, model=model)

    def evaluate(self, state, case, ref, out, lib):
        mdp, q_star, model = out.mdp, out.q_star, out.model
        problems = []
        row_error = float(np.abs(mdp.transition.sum(axis=2) - 1.0).max())
        if row_error > 1e-9:
            problems.append(f"transition rows miss 1 by {row_error}")
        s_index = {s: i for i, s in enumerate(mdp.states)}
        a_index = {a: j for j, a in enumerate(mdp.actions)}
        observed = np.zeros((len(mdp.states), len(mdp.actions)), dtype=bool)
        for s, a in ref:
            observed[s_index[s], a_index[a]] = True
        if mdp.coverage is None or not np.array_equal(mdp.coverage, observed):
            problems.append("coverage mask differs from the observed (s, a) pairs")
        q = np.array([[q_star.value(s, a) for a in mdp.actions] for s in mdp.states])
        expected_reward = np.einsum("ijk,ijk->ij", mdp.transition, mdp.reward)
        residual = float(np.abs(expected_reward + TTT_GAMMA * (mdp.transition @ q.max(axis=1)) - q).max())
        if residual > TTT_GAMMA * VI_TOL:
            problems.append(f"Bellman residual {residual} above gamma*tol")

        cov = np.argwhere(observed)
        learned = np.array([model.q.value(mdp.states[i], mdp.actions[j]) for i, j in cov])
        q_gap = float(np.abs(learned - q[cov[:, 0], cov[:, 1]]).max())
        agree = policy_agreement(
            mdp.states, lambda s: list(zip(mdp.actions, q[s_index[s]])), model.policy.get
        )
        wins, _ = greedy_games(lib, q_star, self.eval_games, random.Random(case.eval_seed))
        metrics = {"q_gap": q_gap, "policy_agree": agree, "win_rate": wins / self.eval_games}
        learned_all = np.array([[model.q.value(s, a) for a in mdp.actions] for s in mdp.states])
        return metrics, problems, _digest(q.tobytes(), learned_all.tobytes())


WORKLOADS = {w.name: w for w in (GridworldCli(), TictactoePipeline(), TictactoeOracle())}
