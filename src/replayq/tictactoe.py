"""Tic-tac-toe from player X's point of view, X moving first.

Boards are 9-character strings, row-major, '.' for empty, 'X' for the agent
and 'B' for the opponent. Cell actions are labeled c1..c9, also row-major
(c1 is the top-left cell). The dynamics are after-states: one transition
covers X's move and, if the game continues, the opponent's uniformly random
reply. Rewards are +1/0/-1 for win/draw/loss, paid only on the transition
that ends the game.

`_table`, built once per process, maps every board reachable in legal play
to X's moves on it, with their after-states and B's replies. Its search
settles each board once, in a dict freed after the build: equal boards share
one string and one transition tuple, and each after-state's replies are
listed once. Generation and stepping read the table, `tictactoe_step` rejects
any board it does not hold, and the environment lists its keys as its states.
`ttt_winner` and `legal_cells` answer a table board from `_facts`, a view of the
table built on first use; any other board is computed and stored nowhere.
"""

from __future__ import annotations

import random
from functools import lru_cache, partial
from typing import Dict, List, Tuple

from .core import Environment, EnvResponse, ExperienceBatch, _Codes, _count, validate_label

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
    validate_label(board, "board")  # a str subclass must hash and compare as its text does, as any label must


def ttt_winner(board: str) -> str:
    """Outcome of a board: X-wins, B-wins, draw, or ongoing."""
    try:
        return _facts()[board][0]
    except (KeyError, TypeError):  # not a table board, or unhashable and so refused
        _validate_board(board)
        return _outcome(board)


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


def _empty_cells(board: str) -> List[int]:
    return [i for i, c in enumerate(board) if c == "."]


def legal_cells(board: str) -> List[int]:
    """0-based indices of the empty cells, as a new list.

    Any sequence is read by the same rule: the indices of its '.' items.
    """
    try:
        return list(_facts()[board][1])
    except (KeyError, TypeError):  # not a table board
        return _empty_cells(board)


def _place(board: str, cell: int, mark: str) -> str:
    return board[: cell] + mark + board[cell + 1 :]


# The bits a uniform pick among n draws, for the n of 1 to 9 that moves and replies number.
_BITS = tuple(n.bit_length() for n in range(10))

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
        for cell in _empty_cells(board):
            after_x = _place(board, cell, "X")
            known = settled.get(after_x)
            if known is None:
                won = _completes_line(after_x, cell)
                replies = []
                if not won and "." in after_x:
                    for k in _empty_cells(after_x):
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


@lru_cache(maxsize=1)
def _facts() -> Dict[str, Tuple[str, Tuple[int, ...]]]:
    """Every board `_table` holds -> (outcome, empty cells), never written once built. A board with
    moves is ongoing and its moves list its empty cells; a terminal board's facts are read off it."""
    return {board: (ONGOING, tuple(move[0] for move in moves)) if moves
            else (_outcome(board), tuple(_empty_cells(board))) for board, moves in _table().items()}


def ttt_generate_games(num_games: int, seed: int = 0) -> ExperienceBatch:
    """Simulate uniformly random games into a batch of one row per X move.

    Each row records the board X saw, the cell it marked, and the after-state
    including the opponent's reply. Fixing the seed fixes the output: one
    `random.Random(seed)` draws each move as `choice` over the board's moves in
    ascending cell order, then, unless the move ends the game, B's reply as
    `choice` over the after-state's replies in ascending cell order. Both picks
    are drawn inline as `choice` draws its index, and each board is coded once,
    its code carried from the row that ends on it to the row that starts there.
    `num_games` is an integer of at least 1, a bool is not.
    """
    num_games = _count("num_games", num_games)
    getrandbits, bits = random.Random(seed).getrandbits, _BITS
    table = _table()
    states, actions = _Codes(), _Codes()
    empty = states[EMPTY_BOARD]
    codes = []
    for _ in range(num_games):
        board, code = EMPTY_BOARD, empty
        while True:
            # Each pick redraws getrandbits(n.bit_length()) until it is below n, as choice does.
            moves = table[board]
            n = len(moves)
            i = getrandbits(bits[n])
            while i >= n:
                i = getrandbits(bits[n])
            cell, board, reward, game_over, replies = moves[i]
            if not game_over:
                n = len(replies)
                i = getrandbits(bits[n])
                while i >= n:
                    i = getrandbits(bits[n])
                board, reward, game_over = replies[i]
            # State before next state, so state codes follow first appearance.
            codes += code, actions[CELL_ACTIONS[cell]], reward, (code := states[board])
            if game_over:
                break
    return ExperienceBatch._from_codes(states, actions, codes)


_ACTION_CELLS = {action: cell for cell, action in enumerate(CELL_ACTIONS)}
# EnvResponse's own constructor parses its arguments in Python; this builds the
# same tuple subclass from one (next state, reward) pair.
_response = partial(tuple.__new__, EnvResponse)


def tictactoe_step(state: str, action: str, rng: random.Random) -> EnvResponse:
    """After-state dynamics for one X move.

    Terminal boards absorb with reward 0. Marking an occupied cell is a
    self-loop with reward -1, so illegal moves score strictly worse than any
    sequence of legal play toward a draw.
    """
    try:
        cell = _ACTION_CELLS[action]
    except (KeyError, TypeError):
        raise ValueError(f"unknown action {action!r}") from None
    try:
        moves = _table()[state]
    except (KeyError, TypeError):
        raise ValueError(f"unknown state {state!r}") from None
    if not moves:
        return _response((state, 0.0))
    if state[cell] != ".":
        return _response((state, -1.0))
    # Moves are listed by ascending cell, one per empty cell.
    _, next_board, reward, game_over, replies = moves[state.count(".", 0, cell)]
    if not game_over:
        next_board, reward, _ = rng.choice(replies)
    return _response((next_board, reward))


def tictactoe_environment() -> Environment:
    return Environment(
        name="tictactoe",
        states=tuple(_table()),
        actions=CELL_ACTIONS,
        step=tictactoe_step,
    )
