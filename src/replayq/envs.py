"""The built-in 2x2 gridworld, experience sampling, and the registry of
built-in environments. The environment contract, `Environment` and
`EnvResponse`, lives in `core`."""

from __future__ import annotations

import random
from typing import Callable, Dict, Iterator, Optional, Tuple

from .core import ActionId, ControlParams, Environment, EnvResponse, ExperienceBatch, ExperienceTuple, RLModel, StateId
from .core import policy_from_q
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


def gridworld_step(state: StateId, action: ActionId) -> EnvResponse:
    """Walled 2x2 maze: entering the goal cell s4 pays +10, any other move -1.

    Blocked moves self-loop, and s4 is absorbing (re-"entering" it from
    itself earns no bonus).
    """
    if state not in GRIDWORLD_STATES:
        raise ValueError(f"unknown state {state!r}")
    if action not in GRIDWORLD_ACTIONS:
        raise ValueError(f"unknown action {action!r}")
    next_state = _GRIDWORLD_MOVES.get((state, action), state)
    reward = 10.0 if next_state == _GRIDWORLD_GOAL and state != _GRIDWORLD_GOAL else -1.0
    return EnvResponse(next_state, reward)


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
    fixes the output exactly.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if mode not in SAMPLE_MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {SAMPLE_MODES}")
    if mode == "epsilon-greedy":
        if model is None:
            raise ValueError("model required for epsilon-greedy")
        if control is None:
            raise ValueError("control required for epsilon-greedy")
        # learner.epsilon_greedy's draws, with the greedy policy built once.
        actions = model.q.actions
        if not actions:
            raise ValueError("no actions defined")
        policy = policy_from_q(model.q)

    def draws() -> Iterator[tuple]:
        rng = random.Random(seed)
        for _ in range(n):
            state = rng.choice(env.states)
            if mode == "random":
                action = rng.choice(env.actions)
            elif rng.random() < control.epsilon:
                action = rng.choice(actions)
            else:
                action = policy.get(state, actions[0])
            next_state, reward = env.step(state, action, rng)
            yield state, action, reward, next_state

    return ExperienceBatch._from_rows(draws())


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
