"""The built-in 2x2 gridworld, experience sampling, and the registry of
built-in environments. The environment contract, `Environment` and
`EnvResponse`, lives in `core`."""

from __future__ import annotations

import random
from typing import Callable, Dict, Optional, Tuple

from .core import ActionId, ControlParams, Environment, EnvResponse, ExperienceBatch, ExperienceTuple, RLModel, StateId
from .core import _Codes, _epsilon_greedy
from .oracle import ExplicitMDP, estimate_mdp
from .tictactoe import tictactoe_environment

SAMPLE_MODES = ("random", "epsilon-greedy")


# --- 2x2 gridworld -----------------------------------------------------------

GRIDWORLD_STATES = ("s1", "s2", "s3", "s4")
GRIDWORLD_ACTIONS = ("up", "down", "left", "right")
_GRIDWORLD_GOAL = "s4"

# The only open passages on the walled 2x2 grid; every other (state, action)
# pair hits a wall or the border and stays put.
_GRIDWORLD_MOVES = {
    ("s1", "down"): "s2",
    ("s2", "up"): "s1",
    ("s2", "right"): "s3",
    ("s3", "left"): "s2",
    ("s3", "up"): "s4",
}


def _gridworld_response(state: StateId, action: ActionId) -> EnvResponse:
    next_state = _GRIDWORLD_MOVES.get((state, action), state)
    return EnvResponse(next_state, 10.0 if next_state == _GRIDWORLD_GOAL != state else -1.0)


# Every (state, action) pair's response, built once, so a step is one lookup.
_GRIDWORLD_STEPS = {(s, a): _gridworld_response(s, a) for s in GRIDWORLD_STATES for a in GRIDWORLD_ACTIONS}


def gridworld_step(state: StateId, action: ActionId) -> EnvResponse:
    """Walled 2x2 maze: entering the goal cell s4 pays +10, any other move -1.

    Blocked moves self-loop, and s4 is absorbing (re-"entering" it from
    itself earns no bonus).
    """
    try:
        return _GRIDWORLD_STEPS[state, action]
    except (KeyError, TypeError):  # TypeError: an unhashable label, which is unknown too
        if state not in GRIDWORLD_STATES:
            raise ValueError(f"unknown state {state!r}") from None
        raise ValueError(f"unknown action {action!r}") from None


def gridworld_mdp() -> ExplicitMDP:
    """The gridworld's exact dynamics: it is deterministic, so one step from
    every (state, action) pair estimates them exactly."""
    steps = [(s, a, gridworld_step(s, a)) for s in GRIDWORLD_STATES for a in GRIDWORLD_ACTIONS]
    return estimate_mdp([ExperienceTuple(s, a, reward, next_state) for s, a, (next_state, reward) in steps])


def gridworld_environment() -> Environment:
    return Environment(
        name="gridworld-2x2",
        states=GRIDWORLD_STATES,
        actions=GRIDWORLD_ACTIONS,
        step=lambda s, a, rng: gridworld_step(s, a),
        exact_mdp=gridworld_mdp,
    )


# --- experience sampling -----------------------------------------------------


def sample_experience(
    n: int,
    env: Environment,
    mode: str = "random",
    model: Optional[RLModel] = None,
    control: Optional[ControlParams] = None,
    seed: int = 0,
) -> ExperienceBatch:
    """Draw `n` one-step transitions, each starting from a uniformly random state.

    Start states are drawn independently per tuple rather than chained along a
    trajectory. Mode "random" picks actions uniformly; "epsilon-greedy" picks
    them against the model's Q-table using `control.epsilon`. Fixing the seed
    fixes the output exactly. Labels are coded into the batch's columns as
    they are drawn; a bad row raises ValueError as ExperienceTuple would,
    naming the first one.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if mode not in SAMPLE_MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {SAMPLE_MODES}")
    draw = None
    if mode == "epsilon-greedy":
        if model is None:
            raise ValueError("model required for epsilon-greedy")
        if control is None:
            raise ValueError("control required for epsilon-greedy")
        draw = _epsilon_greedy(model.q, control.epsilon)

    rng = random.Random(seed)
    choice, step, env_states, env_actions = rng.choice, env.step, env.states, env.actions
    states, actions = _Codes(), _Codes()
    s, a, r, s_new = [], [], [], []
    for _ in range(n):
        state = choice(env_states)
        action = choice(env_actions) if draw is None else draw(state, rng)
        next_state, reward = step(state, action, rng)
        try:  # state before next state, so state codes follow first appearance
            codes = states[state], actions[action], states[next_state]
        except TypeError:  # an unhashable label: name the first bad row as ExperienceBatch(rows) does
            ExperienceBatch._from_codes(list(states), list(actions), s, a, s_new, r)
            ExperienceTuple(state, action, reward, next_state)
            raise
        s.append(codes[0])
        a.append(codes[1])
        r.append(reward)
        s_new.append(codes[2])
    return ExperienceBatch._from_codes(list(states), list(actions), s, a, s_new, r)


# --- registry ----------------------------------------------------------------


_ENVIRONMENTS: Dict[str, Callable[[], Environment]] = {
    "gridworld-2x2": gridworld_environment,
    "tictactoe": tictactoe_environment,
}


def environment_names() -> Tuple[str, ...]:
    return tuple(_ENVIRONMENTS)


def make_environment(name: str) -> Environment:
    """Build a built-in environment by its registered name."""
    factory = _ENVIRONMENTS.get(name)
    if factory is None:
        raise ValueError(f"unknown environment {name!r}; known environments: {', '.join(_ENVIRONMENTS)}")
    return factory()
