"""Tic-tac-toe from player X's point of view, X moving first.

Boards are 9-character strings, row-major, '.' for empty, 'X' for the agent
and 'B' for the opponent. Cell actions are labeled c1..c9, also row-major
(c1 is the top-left cell). The dynamics are after-states: one transition
covers X's move and, if the game continues, the opponent's uniformly random
reply. Rewards are +1/0/-1 for win/draw/loss, paid only on the transition
that ends the game.

The rules are evaluated once per board and cached: `_outcome` and `_settle`
hold each board's result, and `_moves` each ongoing board's table of X moves
with their after-states and B's replies, which generation, stepping and board
enumeration all read. The caches are bounded by the 3^9 boards and by the
reachable boards with X to move (`tictactoe_step` rejects any other board).
"""

from __future__ import annotations

import random
from functools import lru_cache
from types import MappingProxyType
from typing import List, Mapping, Tuple

from .core import Environment, EnvResponse, ExperienceBatch, _Codes

EMPTY_BOARD = "........."
CELL_ACTIONS = tuple(f"c{k}" for k in range(1, 10))

X_WINS = "X-wins"
B_WINS = "B-wins"
DRAW = "draw"
ONGOING = "ongoing"

_LINES = (
    (0, 1, 2),
    (3, 4, 5),
    (6, 7, 8),
    (0, 3, 6),
    (1, 4, 7),
    (2, 5, 8),
    (0, 4, 8),
    (2, 4, 6),
)


def _validate_board(board: str) -> None:
    if not isinstance(board, str) or len(board) != 9:
        raise ValueError(f"board must be a 9-character string, got {board!r}")
    bad = set(board) - {".", "X", "B"}
    if bad:
        raise ValueError(f"board {board!r} contains invalid symbols {sorted(bad)}")


def ttt_winner(board: str) -> str:
    """Outcome of a board: X-wins, B-wins, draw, or ongoing."""
    _validate_board(board)
    return _outcome(board)


@lru_cache(maxsize=None)
def _outcome(board: str) -> str:
    x_line = any(board[i] == board[j] == board[k] == "X" for i, j, k in _LINES)
    b_line = any(board[i] == board[j] == board[k] == "B" for i, j, k in _LINES)
    if x_line and b_line:
        raise ValueError(f"illegal board {board!r}: both players complete a line")
    if x_line:
        return X_WINS
    if b_line:
        return B_WINS
    if "." not in board:
        return DRAW
    return ONGOING


def legal_cells(board: str) -> List[int]:
    """0-based indices of the empty cells."""
    return [i for i, c in enumerate(board) if c == "."]


def _place(board: str, cell: int, mark: str) -> str:
    return board[: cell] + mark + board[cell + 1 :]


_REWARD = {X_WINS: 1.0, DRAW: 0.0, B_WINS: -1.0, ONGOING: 0.0}
_Transition = Tuple[str, float, bool]
_Move = Tuple[str, float, bool, Tuple[_Transition, ...]]


@lru_cache(maxsize=None)
def _settle(board: str) -> _Transition:
    outcome = _outcome(board)
    return board, _REWARD[outcome], outcome != ONGOING


@lru_cache(maxsize=None)
def _moves(board: str) -> Mapping[int, _Move]:
    """X's legal moves on an ongoing board: cell (ascending) -> (after-state,
    reward, game over, B's replies as (after-state, reward, game over)). B's
    reply can never fill the board, so a draw only ever follows an X move."""
    table = {}
    for cell in legal_cells(board):
        after_x, reward, game_over = _settle(_place(board, cell, "X"))
        replies = () if game_over else tuple(_settle(_place(after_x, k, "B")) for k in legal_cells(after_x))
        table[cell] = (after_x, reward, game_over, replies)
    return MappingProxyType(table)


def _after_state_step(move: _Move, rng: random.Random) -> _Transition:
    """X makes `move`, an entry of `_moves`; unless that ends the game, B
    replies uniformly at random. Returns (next board, reward for X, game over)."""
    after_x, reward, game_over, replies = move
    return (after_x, reward, True) if game_over else rng.choice(replies)


def ttt_generate_games(num_games: int, seed: int = 0) -> ExperienceBatch:
    """Simulate uniformly random games into a batch of one row per X move.

    Each row records the board X saw, the cell it marked, and the after-state
    including the opponent's reply. Fixing the seed fixes the output.
    """
    if num_games < 1:
        raise ValueError(f"num_games must be >= 1, got {num_games}")
    rng = random.Random(seed)
    options = {}  # board -> its `_moves` items, which X draws from in cell order
    states, actions = _Codes(), _Codes()
    s, a, r, s_new = [], [], [], []
    for _ in range(num_games):
        board = EMPTY_BOARD
        while True:
            moves = options.get(board)
            if moves is None:
                moves = options[board] = tuple(_moves(board).items())
            cell, move = rng.choice(moves)
            next_board, reward, game_over = _after_state_step(move, rng)
            # State before next state, so state codes follow first appearance.
            s.append(states[board])
            a.append(actions[CELL_ACTIONS[cell]])
            r.append(reward)
            s_new.append(states[next_board])
            if game_over:
                break
            board = next_board
    return ExperienceBatch._from_codes(list(states), list(actions), s, a, s_new, r)


@lru_cache(maxsize=1)
def reachable_boards() -> Tuple[str, ...]:
    """Boards reachable in legal play where X is to move, then every reachable
    terminal board, in discovery order."""
    x_to_move = [EMPTY_BOARD]
    terminals: List[str] = []
    seen = {EMPTY_BOARD}
    frontier = [EMPTY_BOARD]
    while frontier:
        for after_x, reward, game_over, replies in _moves(frontier.pop()).values():
            # A move that ends the game has no replies; its after-state is terminal.
            for board, _, over in replies or [(after_x, reward, game_over)]:
                if board not in seen:
                    seen.add(board)
                    if over:
                        terminals.append(board)
                    else:
                        x_to_move.append(board)
                        frontier.append(board)
    return tuple(x_to_move + terminals)


@lru_cache(maxsize=1)
def _reachable_set() -> frozenset:
    return frozenset(reachable_boards())


def tictactoe_step(state: str, action: str, rng: random.Random) -> EnvResponse:
    """After-state dynamics for one X move.

    Terminal boards absorb with reward 0. Marking an occupied cell is a
    self-loop with reward -1, so illegal moves score strictly worse than any
    sequence of legal play toward a draw.
    """
    if action not in CELL_ACTIONS:
        raise ValueError(f"unknown action {action!r}")
    if state not in _reachable_set():
        raise ValueError(f"unknown state {state!r}")
    if _outcome(state) != ONGOING:
        return EnvResponse(state, 0.0)
    cell = int(action[1:]) - 1
    if state[cell] != ".":
        return EnvResponse(state, -1.0)
    next_board, reward, _ = _after_state_step(_moves(state)[cell], rng)
    return EnvResponse(next_board, reward)


def tictactoe_environment() -> Environment:
    return Environment(
        name="tictactoe",
        states=reachable_boards(),
        actions=CELL_ACTIONS,
        step=tictactoe_step,
    )
