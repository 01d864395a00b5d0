"""The built-in 2x2 gridworld, experience sampling, and the registry of
built-in environments. The environment contract, `Environment` and
`EnvResponse`, lives in `core`."""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Dict, Optional, Tuple

from .core import ActionId, ControlParams, Environment, EnvResponse, ExperienceBatch, ExperienceTuple, RLModel, StateId
from .core import _Codes, _code_by_text, _count, _rate, policy_from_q
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


@dataclass(frozen=True, eq=False)
class _StepTable:
    """A deterministic step held as its table: `responses[state][action]` is the response.

    Calling it steps as a step function does, refusing a state or an action the
    table lacks, and never reads `rng`. `sample_experience` reads the table
    instead of calling it when the table answers every pair it can draw. Every
    label it holds, next states included, is an exact str.
    """

    responses: Dict[StateId, Dict[ActionId, EnvResponse]]

    def __call__(self, state: StateId, action: ActionId, rng: Optional[random.Random] = None) -> EnvResponse:
        try:
            return self.responses[state][action]
        except (KeyError, TypeError):  # TypeError: a label that cannot be hashed or compared, which is unknown too
            try:
                known = state in self.responses
            except TypeError:
                known = False
            raise ValueError(f"unknown action {action!r}" if known else f"unknown state {state!r}") from None


# Walled 2x2 maze: entering the goal cell s4 pays +10, any other move -1. Blocked moves
# self-loop, and s4 is absorbing (re-"entering" it from itself earns no bonus). Every
# pair's response is built once, one dict per state keyed by action: a step is two
# lookups of a str, which cost less than building and hashing a (state, action) key.
gridworld_step = _StepTable({s: {a: _gridworld_response(s, a) for a in GRIDWORLD_ACTIONS} for s in GRIDWORLD_STATES})


def gridworld_mdp() -> ExplicitMDP:
    """The gridworld's exact dynamics: it is deterministic, so its table of
    one step from every (state, action) pair, read state-major, estimates them exactly."""
    return estimate_mdp([ExperienceTuple(s, a, reward, s2)
                         for s, steps in gridworld_step.responses.items() for a, (s2, reward) in steps.items()])


def gridworld_environment() -> Environment:
    return Environment(
        name="gridworld-2x2",
        states=GRIDWORLD_STATES,
        actions=GRIDWORLD_ACTIONS,
        step=gridworld_step,
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
    trajectory. Mode "random" picks actions uniformly; "epsilon-greedy", the
    only mode that takes `model` and `control`, picks them against the model's
    Q-table using `control.epsilon`. Fixing the seed fixes the output exactly:
    one `random.Random(seed)` makes every draw in turn: the state as
    `choice(env.states)`; a random-mode action as `choice(env.actions)`, an
    ε-greedy one as `random()` and, when that falls below ε, `choice` of the
    model's actions (the first for a state the table lacks, even unhashable);
    then whatever `env.step` takes from it. `n` is an integer of at least 1,
    a bool is not, and an environment with no states or no actions is refused.
    Labels are coded into the batch as they are drawn; in either mode a bad
    row raises ValueError as ExperienceTuple would, naming the first one.

    A step held as a table, the built-in gridworld's, is read, not called,
    when every state and action label is an exact str and the table answers
    every pair the call can draw: the table and each state's greedy action are
    read once per call, and the labels of each distinct pair drawn are coded
    once. The table draws nothing, so the draws and the batch are the same.
    Any other step is called once per tuple, so a pair the table lacks, such
    as a model's action the environment does not have, is refused at its draw.
    """
    n = _count("n", n)
    for field, labels in (("states", env.states), ("actions", env.actions)):
        if not labels:
            raise ValueError(f"environment {env.name!r} has no {field}")
    if mode not in SAMPLE_MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {SAMPLE_MODES}")
    picks, greedy = env.actions, None  # random mode: every action is a uniform pick
    if mode == "epsilon-greedy":
        if model is None:
            raise ValueError("model required for epsilon-greedy")
        if control is None:
            raise ValueError("control required for epsilon-greedy")
        epsilon, picks = _rate("epsilon", control.epsilon), model.q.actions
        if not picks:
            raise ValueError("no actions defined")
        greedy, first = policy_from_q(model.q).get, picks[0]
    elif model is not None or control is not None:
        raise ValueError("model and control are taken only in epsilon-greedy mode")

    rng = random.Random(seed)
    getrandbits, random_, step, env_states = rng.getrandbits, rng.random, env.step, env.states
    num_states, num_picks = len(env_states), len(picks)
    state_bits, pick_bits = num_states.bit_length(), num_picks.bit_length()
    states, actions = _Codes(), _Codes()
    codes = []
    if type(step) is _StepTable and all(type(label) is str for label in (*env_states, *picks)):
        # An exact str hashes and compares alike at every lookup, so the table is read once per
        # call, into the response of each pair k = i * num_picks + j of a state and a pick, and
        # a draw keeps its k alone. None marks a pair the table lacks: then the loop below calls
        # the step per tuple, which refuses that pair at its draw.
        pairs = [step.responses.get(state, {}).get(action) for state in env_states for action in picks]
        if None not in pairs:
            if greedy is not None:
                greedy_pairs = [i * num_picks + picks.index(greedy(state, first)) for i, state in enumerate(env_states)]
            drawn = []
            for _ in range(n):
                i = getrandbits(state_bits)
                while i >= num_states:
                    i = getrandbits(state_bits)
                if greedy is None or random_() < epsilon:
                    j = getrandbits(pick_bits)
                    while j >= num_picks:
                        j = getrandbits(pick_bits)
                    k = i * num_picks + j
                else:
                    k = greedy_pairs[i]
                drawn.append(k)
            # A label first appears in the row where that row's pair first appears, so coding each
            # distinct pair in first-appearance order numbers the labels as coding row by row does.
            pair_codes = {}
            for k in dict.fromkeys(drawn):
                next_state, reward = pairs[k]
                state, action = env_states[k // num_picks], picks[k % num_picks]
                pair_codes[k] = states[state], actions[action], reward, states[next_state]
            codes = list(chain.from_iterable(map(pair_codes.__getitem__, drawn)))
            return ExperienceBatch._from_codes(states, actions, codes)
    for _ in range(n):
        # Each uniform pick redraws getrandbits(n.bit_length()) until it is below n, as choice does.
        i = getrandbits(state_bits)
        while i >= num_states:
            i = getrandbits(state_bits)
        state = env_states[i]
        if greedy is None or random_() < epsilon:
            i = getrandbits(pick_bits)
            while i >= num_picks:
                i = getrandbits(pick_bits)
            action = picks[i]
        else:
            try:
                action = greedy(state, first)
            except TypeError:  # an unhashable state is unknown too; its row's coding refuses it
                action = first
        next_state, reward = step(state, action, rng)
        try:  # state before next state, so state codes follow first appearance
            codes += states[state], actions[action], reward, states[next_state]
        except TypeError:  # code the row by its text, or name the first bad row, as ExperienceBatch(rows) does
            _code_by_text(states, actions, codes, (state, action, reward, next_state))
    return ExperienceBatch._from_codes(states, actions, codes)


# --- registry ----------------------------------------------------------------


_ENVIRONMENTS: Dict[str, Callable[[], Environment]] = {
    "gridworld-2x2": gridworld_environment,
    "tictactoe": tictactoe_environment,
}


def environment_names() -> Tuple[str, ...]:
    return tuple(_ENVIRONMENTS)


def make_environment(name: str) -> Environment:
    """Build a built-in environment by its registered name."""
    try:
        factory = _ENVIRONMENTS[name]
    except (KeyError, TypeError):  # TypeError: an unhashable name, which is unknown too
        raise ValueError(f"unknown environment {name!r}; known environments: {', '.join(_ENVIRONMENTS)}") from None
    return factory()
