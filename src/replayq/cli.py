"""Command-line front end for sampling, training, prediction, and verification.

Exit codes: 0 success, 1 usage errors, 2 data or model errors, 3 verification
failures, 141 a reader that closed stdout early. Every command is
reproducible from its flags; anything stochastic takes --seed.
"""

from __future__ import annotations

import argparse
import functools
import math
import random
import sys
from dataclasses import fields, replace
from typing import List, Optional, Sequence, Tuple

from .core import ControlParams, Environment
from .envs import SAMPLE_MODES, make_environment, sample_experience
from .learner import learn, update_model
from .oracle import compare_to_optimal, value_iteration
from .persist import DEFAULT_COLUMNS, REPORT_VIEWS, format_report, load_model, read_experience, save_model
from .persist import write_experience, write_text

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_VERIFY = 3


class _UsageError(Exception):
    """Bad flag combinations that argparse alone cannot catch."""


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _unit_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"expected a value in [0, 1], got {value}")
    return value


def _add_control_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--alpha", type=_unit_float, help="learning rate in [0, 1]")
    parser.add_argument("--gamma", type=_unit_float, help="discount factor in [0, 1]")
    parser.add_argument("--epsilon", type=_unit_float, help="exploration rate in [0, 1]")


def _control(args: argparse.Namespace, base: Optional[ControlParams] = None) -> ControlParams:
    """The control a command runs with: `base`, the control of the model the
    command reads (the defaults without one), with each control flag given in its place."""
    given = {f.name: value for f in fields(ControlParams) if (value := getattr(args, f.name, None)) is not None}
    return replace(base or ControlParams(), **given)


def _get_env(name: str) -> Environment:
    try:
        return make_environment(name)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _cmd_sample(args: argparse.Namespace) -> int:
    env = _get_env(args.env)
    model = None
    control = None
    if args.mode == "epsilon-greedy":
        if args.model is None:
            raise _UsageError("--model is required when --mode is epsilon-greedy")
        model = load_model(args.model)
        control = _control(args, model.control)
    else:
        for flag, value in (("--model", args.model), ("--epsilon", args.epsilon)):
            if value is not None:
                raise _UsageError(f"{flag} is taken only when --mode is epsilon-greedy")
    batch = sample_experience(args.n, env, mode=args.mode, model=model, control=control, seed=args.seed)
    write_experience(batch, args.out)
    print(f"wrote {len(batch)} tuples from {env.name} to {args.out}")
    return EXIT_OK


def _cmd_train(args: argparse.Namespace) -> int:
    columns = {key: getattr(args, key) for key in DEFAULT_COLUMNS}
    batch = read_experience(args.data, columns)
    prior = load_model(args.model) if args.model else None
    control = _control(args, prior and prior.control)
    model = learn(batch, control, iterations=args.iter, seed=args.seed, prior=prior)
    save_model(model, args.out)
    print(format_report(model, "summary"))
    return EXIT_OK


def _cmd_predict(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    names = [s for s in args.states.split(",") if s]
    policy = model.policy
    missing = False
    for s in names:
        action = policy.get(s)
        if action is None:
            print(f"{s},unknown-state")
            missing = True
        else:
            print(f"{s},{action}")
    return EXIT_DATA if missing else EXIT_OK


def _curve_rows(env: Environment, control: ControlParams, rounds: int, n: int, seed: int) -> List[Tuple[int, float]]:
    """Run the batch-then-improve loop and return (round, total reward) rows.

    Round 1 samples uniformly at random; later rounds sample on-policy with
    epsilon-greedy actions from the model learned so far, then fold the new
    batch into that model.
    """
    master = random.Random(seed)
    model = None
    rows: List[Tuple[int, float]] = []
    for round_no in range(1, rounds + 1):
        sample_seed = master.randrange(2**32)
        learn_seed = master.randrange(2**32)
        if model is None:
            batch = sample_experience(n, env, mode="random", seed=sample_seed)
            model = learn(batch, control, iterations=1, seed=learn_seed)
        else:
            batch = sample_experience(
                n, env, mode="epsilon-greedy", model=model, control=control, seed=sample_seed
            )
            model = update_model(model, batch, control, iterations=1, seed=learn_seed)
        rows.append((round_no, model.reward_history[-1]))
    return rows


def _write_curve_svg(rows: Sequence[Tuple[int, float]], path: str) -> None:
    width, height, margin = 640, 400, 60
    xs = [float(r) for r, _ in rows]
    ys = [v for _, v in rows]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    def px(x: float) -> float:
        return margin + (x - x_lo) / x_span * (width - 2 * margin)

    def py(y: float) -> float:
        return height - margin - (y - y_lo) / y_span * (height - 2 * margin)

    points = " ".join(f"{px(x):.1f},{py(y):.1f}" for x, y in zip(xs, ys))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" y2="{height - margin}" '
        'stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" stroke="black"/>',
        f'<polyline points="{points}" fill="none" stroke="steelblue" stroke-width="2"/>',
        f'<text x="{width / 2:.0f}" y="20" text-anchor="middle" font-size="14">'
        "Total reward per round</text>",
        f'<text x="{margin}" y="{height - margin + 20}" font-size="12">round {x_lo:g}</text>',
        f'<text x="{width - margin}" y="{height - margin + 20}" text-anchor="end" font-size="12">'
        f"round {x_hi:g}</text>",
        f'<text x="{margin - 6}" y="{py(y_lo):.0f}" text-anchor="end" font-size="12">{y_lo:g}</text>',
        f'<text x="{margin - 6}" y="{py(y_hi):.0f}" text-anchor="end" font-size="12">{y_hi:g}</text>',
        "</svg>",
    ]
    write_text(path, "\n".join(parts) + "\n")


def _cmd_curve(args: argparse.Namespace) -> int:
    env = _get_env(args.env)
    control = _control(args)
    rows = _curve_rows(env, control, rounds=args.rounds, n=args.n, seed=args.seed)
    lines = ["round,total_reward"] + [f"{r},{v!r}" for r, v in rows]
    write_text(args.out, "\n".join(lines) + "\n")
    if args.plot:
        _write_curve_svg(rows, args.plot)
    print(f"ran {len(rows)} rounds on {env.name}; first {rows[0][1]:g}, last {rows[-1][1]:g}")
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.gamma is not None and args.gamma >= 1.0:
        raise _UsageError(f"--gamma must be below 1 for verify, got {args.gamma:g}")
    if not 0.0 <= args.tol < math.inf:  # also refuses NaN
        raise _UsageError(f"--tol must be finite and >= 0, got {args.tol:g}")
    env = _get_env(args.env)
    model = load_model(args.model)
    gamma = _control(args, model.control).gamma
    source = "--gamma" if args.gamma is not None else f"{args.model}: gamma"
    if gamma >= 1.0:  # only the model's can be: a given --gamma was refused above
        raise _UsageError(f"{source} must be below 1 for verify, got {gamma:g}; pass --gamma")
    if env.exact_mdp is None:
        raise ValueError(f"environment {env.name!r} does not expose exact dynamics; cannot verify")
    mdp = env.exact_mdp()
    try:
        q_star = value_iteration(mdp, gamma=gamma, tol=1e-9)
    except ValueError as exc:  # a built-in MDP is well formed, so the discount is too close to 1
        raise _UsageError(f"{source} {gamma:g} is too close to 1 for verify: {exc}") from None
    pairs, max_diff, compared, mismatched = compare_to_optimal(model.q, q_star)

    print(f"environment: {env.name}")
    print(f"covered pairs: {pairs}")
    print(f"max |Q - Q*|: {max_diff:.9g} (tolerance {args.tol:g})")
    print(f"policy agreement: {compared - mismatched}/{compared} tie-free states")
    if max_diff > args.tol or mismatched:
        print("verification FAILED")
        return EXIT_VERIFY
    print("verification passed")
    return EXIT_OK


def _cmd_report(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    print(format_report(model, args.view))
    return EXIT_OK


# Built on the first `main` call and reused: parsing leaves a parser unchanged,
# and handlers look up the library's functions when they run.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="replayq", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="generate experience tuples from an environment")
    p.add_argument("--env", required=True, help="environment name")
    p.add_argument("--n", type=_positive_int, required=True, help="number of tuples")
    p.add_argument("--mode", choices=SAMPLE_MODES, default="random")
    p.add_argument("--model", help="model file, required for epsilon-greedy mode")
    p.add_argument("--epsilon", type=_unit_float, help="exploration rate in [0, 1]")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output experience file")
    p.set_defaults(handler=_cmd_sample)

    p = sub.add_parser("train", help="fit or update a model from an experience file")
    p.add_argument("--data", required=True, help="experience file")
    p.add_argument("--s", default=DEFAULT_COLUMNS["s"], help="state column name")
    p.add_argument("--a", default=DEFAULT_COLUMNS["a"], help="action column name")
    p.add_argument("--r", default=DEFAULT_COLUMNS["r"], help="reward column name")
    p.add_argument("--s-new", default=DEFAULT_COLUMNS["s_new"], help="next-state column name")
    _add_control_flags(p)
    p.add_argument("--iter", type=_positive_int, default=1, help="replay passes over the batch")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--model", help="existing model to update instead of starting fresh")
    p.add_argument("--out", required=True, help="output model file")
    p.set_defaults(handler=_cmd_train)

    p = sub.add_parser("predict", help="print the learned action for each state")
    p.add_argument("--model", required=True)
    p.add_argument("--states", required=True, help="comma-separated state labels")
    p.set_defaults(handler=_cmd_predict)

    p = sub.add_parser("curve", help="alternate sampling and learning, writing reward per round")
    p.add_argument("--env", required=True)
    p.add_argument("--rounds", type=_positive_int, required=True)
    p.add_argument("--n", type=_positive_int, required=True, help="tuples sampled per round")
    _add_control_flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output file of round,total_reward rows")
    p.add_argument("--plot", help="optional SVG file of the reward curve")
    p.set_defaults(handler=_cmd_curve)

    p = sub.add_parser("verify", help="compare a model against exact environment dynamics")
    p.add_argument("--model", required=True)
    p.add_argument("--env", required=True)
    p.add_argument("--gamma", type=_unit_float, help="discount in [0, 1) for the exact solution; default: the model's")
    p.add_argument("--tol", type=float, default=0.1, help="largest acceptable |Q - Q*|")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("report", help="print a stored model as text")
    p.add_argument("--model", required=True)
    p.add_argument("--view", choices=list(REPORT_VIEWS), default="summary")
    p.set_defaults(handler=_cmd_report)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return args.handler(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:  # the reader closed stdout, as `| head -1` does
        try:
            sys.stdout.close()  # drops what no one will read; a closed stream is not flushed at exit
        except BrokenPipeError:
            pass
        return 141  # 128 + SIGPIPE, what a shell reports for a writer killed by it
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
