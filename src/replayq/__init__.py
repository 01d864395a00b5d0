"""Tabular reinforcement learning from batches of observed experience.

Models are learned off-policy with Q-learning over replayed experience
tuples, environments simulate new experience, and a dynamic-programming
solver provides exact reference solutions for checking learned models.
"""

from .core import (
    ControlParams,
    Environment,
    EnvResponse,
    ExperienceBatch,
    ExperienceTuple,
    QTable,
    RLModel,
    greedy_action,
    policy_from_q,
)
from .envs import (
    environment_names,
    gridworld_environment,
    make_environment,
    sample_experience,
)
from .learner import epsilon_greedy, learn, update_model
from .oracle import ExplicitMDP, compare_to_optimal, estimate_mdp, value_iteration
from .persist import (
    format_report,
    load_model,
    model_from_json,
    model_to_json,
    read_experience,
    save_model,
    write_experience,
)
from .tictactoe import tictactoe_environment, ttt_generate_games, ttt_winner

__version__ = "0.1.0"

__all__ = [
    "ControlParams",
    "EnvResponse",
    "Environment",
    "ExperienceBatch",
    "ExperienceTuple",
    "ExplicitMDP",
    "QTable",
    "RLModel",
    "compare_to_optimal",
    "environment_names",
    "epsilon_greedy",
    "estimate_mdp",
    "format_report",
    "greedy_action",
    "gridworld_environment",
    "learn",
    "load_model",
    "make_environment",
    "model_from_json",
    "model_to_json",
    "policy_from_q",
    "read_experience",
    "sample_experience",
    "save_model",
    "tictactoe_environment",
    "ttt_generate_games",
    "ttt_winner",
    "update_model",
    "value_iteration",
    "write_experience",
]
