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
    instead of calling it when the table answers every pair it can draw: the
    environment's labels and a model's actions are texts, as is every label
    the table holds, next states included, so each lookup is of an exact str.
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
    model's actions (the first for a state the table lacks); then whatever
    `env.step` takes from it. `n` is an integer of at least 1, a bool is not.
    Labels are coded in first-appearance order; in either mode a bad row
    raises ValueError as ExperienceTuple would, naming the first one.

    One loop makes the draws, each kept as the index of its (state, action)
    pair; each state's greedy pair is found once per call. A step held as a
    table, the built-in gridworld's, is read, not called, when the table
    answers every pair the call can draw: each distinct pair drawn is then
    coded once, after the loop. The table draws nothing, so the draws and the
    batch are the same. Any other step is called once per tuple, so a pair
    the table lacks, such as a model's action the environment does not have,
    is refused at its draw.
    """
    n = _count("n", n)
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
        greedy = policy_from_q(model.q)
    elif model is not None or control is not None:
        raise ValueError("model and control are taken only in epsilon-greedy mode")

    rng = random.Random(seed)
    getrandbits, random_, step, env_states = rng.getrandbits, rng.random, env.step, env.states
    num_states, num_picks = len(env_states), len(picks)
    state_bits, pick_bits = num_states.bit_length(), num_picks.bit_length()
    if greedy is not None:  # pair k = i * num_picks + j of state i and pick j; picks are the table's actions in order
        greedy_pairs = [i * num_picks + model.q.action_index[greedy.get(state, picks[0])]
                        for i, state in enumerate(env_states)]
    states, actions = _Codes(), _Codes()
    codes, drawn = [], []
    # Every label here is an exact str, so the table is read once per call, into the response of each pair;
    # None marks a pair it lacks, and then the step is called per tuple, which refuses that pair at its draw.
    pairs = [step.responses.get(state, {}).get(action) for state in env_states for action in picks] \
        if type(step) is _StepTable else None
    if pairs and None not in pairs:
        take = drawn.append
    else:
        def take(k: int) -> None:
            state, action = env_states[k // num_picks], picks[k % num_picks]
            next_state, reward = step(state, action, rng)
            try:  # state before next state, so state codes follow first appearance
                codes.extend((states[state], actions[action], reward, states[next_state]))
            except TypeError:  # code the row by its text, or name the first bad row, as ExperienceBatch(rows) does
                _code_by_text(states, actions, codes, (state, action, reward, next_state))
    for _ in range(n):
        # Each uniform pick redraws getrandbits(n.bit_length()) until it is below n, as choice does.
        i = getrandbits(state_bits)
        while i >= num_states:
            i = getrandbits(state_bits)
        if greedy is None or random_() < epsilon:
            j = getrandbits(pick_bits)
            while j >= num_picks:
                j = getrandbits(pick_bits)
            take(i * num_picks + j)
        else:
            take(greedy_pairs[i])
    # A label first appears in the row where that row's pair first appears, so coding each distinct
    # pair drawn from the table in first-appearance order numbers the labels as coding row by row does.
    pair_codes = {}
    for k in dict.fromkeys(drawn):
        next_state, reward = pairs[k]
        pair_codes[k] = states[env_states[k // num_picks]], actions[picks[k % num_picks]], reward, states[next_state]
    codes += chain.from_iterable(map(pair_codes.__getitem__, drawn))
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
