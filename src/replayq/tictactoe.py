"""Tic-tac-toe from player X's point of view, X moving first.

Boards are 9-character strings, row-major, '.' for empty, 'X' for the agent
and 'B' for the opponent. Cell actions are labeled c1..c9, also row-major
(c1 is the top-left cell). The dynamics are after-states: one transition
covers X's move and, if the game continues, the opponent's uniformly random
reply. Rewards are +1/0/-1 for win/draw/loss, paid only on the transition
that ends the game.

`_outcome` caches each board's result for `ttt_winner`, bounded by the 3^9
boards. `_table`, built once per process, maps every board reachable in legal
play to X's moves on it, with their after-states and B's replies. Its search
settles each board once, in a dict freed after the build: equal boards share
one string and one transition tuple, and each after-state's replies are listed
once. Generation, stepping and board enumeration all read the table, and
`tictactoe_step` rejects any board it does not hold.
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import Dict, List, Tuple

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


_Transition = Tuple[str, float, bool]
_Move = Tuple[int, str, float, bool, Tuple[_Transition, ...]]
# The lines through each cell. Play stops at the first line, so a mark can
# only complete one of the lines through the cell it fills.
_CELL_LINES = tuple(tuple(line for line in _LINES if cell in line) for cell in range(9))


def _completes_line(board: str, cell: int) -> bool:
    return any(board[i] == board[j] == board[k] for i, j, k in _CELL_LINES[cell])


@lru_cache(maxsize=1)
def _table() -> Dict[str, Tuple[_Move, ...]]:
    """Every board reachable in legal play -> X's moves on it, ascending by
    cell: (cell, after-state, reward, game over, B's replies as (after-state,
    reward, game over)). Boards with X to move come first, then the terminal
    boards, which have no moves; each group is in discovery order. B's reply
    can never fill the board, so a draw only ever follows an X move."""
    table = {EMPTY_BOARD: ()}  # a board with X to move holds () until searched
    terminals = {}
    frontier = [EMPTY_BOARD]
    # X after-state -> (board, reward, game over, replies), reply board ->
    # (board, reward, game over); X has one more mark than B only on the first.
    settled = {}
    while frontier:
        board = frontier.pop()
        moves = []
        for cell in legal_cells(board):
            after_x = _place(board, cell, "X")
            known = settled.get(after_x)
            if known is None:
                won = _completes_line(after_x, cell)
                replies = []
                if not won and "." in after_x:
                    for k in legal_cells(after_x):
                        after_b = _place(after_x, k, "B")
                        reply = settled.get(after_b)
                        if reply is None:
                            lost = _completes_line(after_b, k)
                            reply = settled[after_b] = (after_b, -1.0 if lost else 0.0, lost)
                        replies.append(reply)
                known = settled[after_x] = (after_x, 1.0 if won else 0.0, not replies, tuple(replies))
                # A move that ends the game has no replies; its after-state is terminal.
                for nxt, _, over in replies or [known[:3]]:
                    if nxt not in table and nxt not in terminals:
                        if over:
                            terminals[nxt] = ()
                        else:
                            table[nxt] = ()
                            frontier.append(nxt)
            moves.append((cell, *known))
        table[board] = tuple(moves)
    table.update(terminals)
    return table


def ttt_generate_games(num_games: int, seed: int = 0) -> ExperienceBatch:
    """Simulate uniformly random games into a batch of one row per X move.

    Each row records the board X saw, the cell it marked, and the after-state
    including the opponent's reply. Fixing the seed fixes the output.
    """
    if num_games < 1:
        raise ValueError(f"num_games must be >= 1, got {num_games}")
    rng = random.Random(seed)
    table = _table()
    states, actions = _Codes(), _Codes()
    s, a, r, s_new = [], [], [], []
    for _ in range(num_games):
        board = EMPTY_BOARD
        while True:
            cell, next_board, reward, game_over, replies = rng.choice(table[board])
            if not game_over:
                next_board, reward, game_over = rng.choice(replies)
            # State before next state, so state codes follow first appearance.
            s.append(states[board])
            a.append(actions[CELL_ACTIONS[cell]])
            r.append(reward)
            s_new.append(states[next_board])
            if game_over:
                break
            board = next_board
    return ExperienceBatch._from_codes(list(states), list(actions), s, a, s_new, r)


def reachable_boards() -> Tuple[str, ...]:
    """Boards reachable in legal play where X is to move, then every reachable
    terminal board, in discovery order."""
    return tuple(_table())


def tictactoe_step(state: str, action: str, rng: random.Random) -> EnvResponse:
    """After-state dynamics for one X move.

    Terminal boards absorb with reward 0. Marking an occupied cell is a
    self-loop with reward -1, so illegal moves score strictly worse than any
    sequence of legal play toward a draw.
    """
    if action not in CELL_ACTIONS:
        raise ValueError(f"unknown action {action!r}")
    try:
        moves = _table()[state]
    except (KeyError, TypeError):
        raise ValueError(f"unknown state {state!r}") from None
    if not moves:
        return EnvResponse(state, 0.0)
    cell = int(action[1:]) - 1
    if state[cell] != ".":
        return EnvResponse(state, -1.0)
    # Moves are listed by ascending cell, one per empty cell.
    _, next_board, reward, game_over, replies = moves[state.count(".", 0, cell)]
    if not game_over:
        next_board, reward, _ = rng.choice(replies)
    return EnvResponse(next_board, reward)


def tictactoe_environment() -> Environment:
    return Environment(
        name="tictactoe",
        states=reachable_boards(),
        actions=CELL_ACTIONS,
        step=tictactoe_step,
    )
