import random
import re

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from replayq.envs import EnvResponse
from replayq.tictactoe import (
    CELL_ACTIONS,
    EMPTY_BOARD,
    _table,
    legal_cells,
    reachable_boards,
    tictactoe_environment,
    tictactoe_step,
    ttt_generate_games,
    ttt_winner,
)


def test_winner_cases():
    assert ttt_winner(EMPTY_BOARD) == "ongoing"
    assert ttt_winner("XXX.BB...") == "X-wins"
    assert ttt_winner("B.XB.XB..") == "B-wins"
    assert ttt_winner("X...X..BX") == "X-wins"  # main diagonal
    assert ttt_winner("XXBBBXXXB") == "draw"
    assert ttt_winner("XB.BX.X..") == "ongoing"


def test_winner_rejects_malformed_boards():
    with pytest.raises(ValueError):
        ttt_winner("XXXX")
    with pytest.raises(ValueError):
        ttt_winner("XXOXXOXXO")
    with pytest.raises(ValueError, match="both players"):
        ttt_winner("XXXBBB...")


@pytest.mark.parametrize("board", [list("XXXBB...."), ["........."], "XXXBB.....", "XXXBB...", "xxxbb....", "XXOBB...."])
def test_winner_rejects_lists_wrong_lengths_and_bad_symbols(board):
    with pytest.raises(ValueError, match="board"):
        ttt_winner(board)


def test_winner_does_not_cache_rejections():
    for _ in range(2):
        with pytest.raises(ValueError, match="both players"):
            ttt_winner("BBBXXX...")


def test_legal_cells_lists_open_positions():
    assert legal_cells(EMPTY_BOARD) == list(range(9))
    assert legal_cells("XB.BX.X..") == [2, 5, 7, 8]
    assert legal_cells("XXBBBXXXB") == []


def test_generate_games_validates_count():
    with pytest.raises(ValueError):
        ttt_generate_games(0)


def test_generate_games_is_seeded():
    assert ttt_generate_games(20, seed=5) == ttt_generate_games(20, seed=5)
    assert ttt_generate_games(20, seed=5) != ttt_generate_games(20, seed=6)


def test_generated_tuples_respect_board_invariants():
    tuples = ttt_generate_games(300, seed=9)
    for t in tuples:
        # the mover is always X, so marks are balanced before every move
        assert t.state.count("X") == t.state.count("B")
        assert ttt_winner(t.state) == "ongoing"
        cell = CELL_ACTIONS.index(t.action)
        assert t.state[cell] == "."
        assert t.next_state[cell] == "X"
        assert t.reward in (1.0, 0.0, -1.0)


def test_generated_games_chain_and_terminate():
    tuples = ttt_generate_games(200, seed=4)
    games = []
    current = []
    for t in tuples:
        if t.state == EMPTY_BOARD and current:
            games.append(current)
            current = []
        current.append(t)
    games.append(current)
    assert len(games) == 200
    for game in games:
        assert game[0].state == EMPTY_BOARD
        for prev, nxt in zip(game, game[1:]):
            assert prev.next_state == nxt.state
            assert prev.reward == 0.0
        last = game[-1]
        outcome = ttt_winner(last.next_state)
        assert outcome != "ongoing"
        assert last.reward == {"X-wins": 1.0, "draw": 0.0, "B-wins": -1.0}[outcome]


def test_next_state_mark_counts():
    for t in ttt_generate_games(100, seed=13):
        x, b = t.next_state.count("X"), t.next_state.count("B")
        if ttt_winner(t.next_state) == "ongoing" or b > t.state.count("B"):
            assert x == b  # the opponent replied
        else:
            assert x == b + 1  # game ended on X's move


def test_win_rates_are_near_the_random_play_odds():
    tuples = ttt_generate_games(3000, seed=21)
    finals = [t for t in tuples if ttt_winner(t.next_state) != "ongoing"]
    assert len(finals) == 3000
    x_share = sum(t.reward == 1.0 for t in finals) / 3000
    draw_share = sum(t.reward == 0.0 for t in finals) / 3000
    # exhaustive enumeration of random-vs-random play gives 737/1260 and 8/63
    assert x_share == pytest.approx(737 / 1260, abs=0.03)
    assert draw_share == pytest.approx(8 / 63, abs=0.03)


def test_reachable_boards_structure():
    boards = reachable_boards()
    assert boards[0] == EMPTY_BOARD
    assert len(boards) == len(set(boards))
    for b in boards:
        # every stored board has X to move, or the game is over
        if ttt_winner(b) == "ongoing":
            assert b.count("X") == b.count("B")
    seen = set(boards)
    for t in ttt_generate_games(200, seed=2):
        assert t.state in seen
        assert t.next_state in seen


def test_step_absorbs_terminal_boards():
    rng = random.Random(0)
    assert tictactoe_step("XXX.BB...", "c4", rng) == EnvResponse("XXX.BB...", 0.0)


def test_step_penalizes_occupied_cells():
    rng = random.Random(0)
    board = "XB.BX...."
    assert tictactoe_step(board, "c1", rng) == EnvResponse(board, -1.0)


def test_step_plays_legal_moves():
    rng = random.Random(3)
    nxt, reward = tictactoe_step(EMPTY_BOARD, "c5", rng)
    assert nxt[4] == "X"
    assert nxt.count("B") == 1
    assert reward == 0.0


def test_step_validates_labels():
    rng = random.Random(0)
    cases = [
        (EMPTY_BOARD, "c10", "unknown action 'c10'"),
        (EMPTY_BOARD, {"c1"}, "unknown action {'c1'}"),
        ("not-a-board", "c1", "unknown state 'not-a-board'"),
        (["."] * 9, "c1", "unknown state ['.', '.', '.', '.', '.', '.', '.', '.', '.']"),
        (None, "c1", "unknown state None"),
        ("XX.......", "c3", "unknown state 'XX.......'"),  # X moved twice
        ("B........", "c1", "unknown state 'B........'"),  # B moved first
    ]
    for state, action, message in cases:
        # pytest.raises(ValueError) lets a TypeError or KeyError fail the test.
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            tictactoe_step(state, action, rng)


def test_move_table_holds_one_object_per_distinct_board_and_reply():
    # Equal after-states and replies are shared, which keeps the table's size
    # near the number of distinct boards rather than the number of moves.
    boards, replies = list(_table()), []
    for moves in _table().values():
        for _, after_x, _, _, move_replies in moves:
            boards.append(after_x)
            replies.extend(move_replies)
            boards.extend(board for board, _, _ in move_replies)
    for values in (boards, replies):
        assert len({id(v) for v in values}) == len(set(values))


def test_environment_wiring():
    env = tictactoe_environment()
    assert env.name == "tictactoe"
    assert env.actions == CELL_ACTIONS
    assert EMPTY_BOARD in env.states
    assert env.exact_mdp is None


# Reference rules: the plain string-scanning implementation the cached move
# table must reproduce draw for draw.
_LINES = ((0, 1, 2), (3, 4, 5), (6, 7, 8), (0, 3, 6), (1, 4, 7), (2, 5, 8), (0, 4, 8), (2, 4, 6))


def ref_winner(board):
    x = any(board[i] == board[j] == board[k] == "X" for i, j, k in _LINES)
    b = any(board[i] == board[j] == board[k] == "B" for i, j, k in _LINES)
    return "X-wins" if x else "B-wins" if b else "ongoing" if "." in board else "draw"


def ref_place(board, cell, mark):
    return board[:cell] + mark + board[cell + 1 :]


def ref_after_state(board, cell, rng):
    after_x = ref_place(board, cell, "X")
    outcome = ref_winner(after_x)
    if outcome != "ongoing":
        return after_x, 1.0 if outcome == "X-wins" else 0.0, True
    after_b = ref_place(after_x, rng.choice(legal_cells(after_x)), "B")
    return (after_b, -1.0, True) if ref_winner(after_b) == "B-wins" else (after_b, 0.0, False)


def ref_games(num_games, seed):
    rng, out = random.Random(seed), []
    for _ in range(num_games):
        board, over = EMPTY_BOARD, False
        while not over:
            cell = rng.choice(legal_cells(board))
            next_board, reward, over = ref_after_state(board, cell, rng)
            out.append((board, CELL_ACTIONS[cell], reward, next_board))
            board = next_board
    return out


def ref_step(state, action, rng):
    cell = CELL_ACTIONS.index(action)
    if ref_winner(state) != "ongoing":
        return state, 0.0
    if state[cell] != ".":
        return state, -1.0
    return ref_after_state(state, cell, rng)[:2]


def ref_reachable_boards():
    x_to_move, terminals, seen, frontier = [EMPTY_BOARD], [], {EMPTY_BOARD}, [EMPTY_BOARD]
    while frontier:
        board = frontier.pop()
        for cell in legal_cells(board):
            after_x = ref_place(board, cell, "X")
            if ref_winner(after_x) != "ongoing":
                if after_x not in seen:
                    seen.add(after_x)
                    terminals.append(after_x)
                continue
            for reply in legal_cells(after_x):
                after_b = ref_place(after_x, reply, "B")
                if after_b not in seen:
                    seen.add(after_b)
                    if ref_winner(after_b) != "ongoing":
                        terminals.append(after_b)
                    else:
                        x_to_move.append(after_b)
                        frontier.append(after_b)
    return tuple(x_to_move + terminals)


@settings(max_examples=60, deadline=None,
          phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.target, Phase.shrink])
@given(num_games=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
def test_generated_games_match_the_reference_rules(num_games, seed):
    games = [(t.state, t.action, t.reward, t.next_state) for t in ttt_generate_games(num_games, seed)]
    assert games == ref_games(num_games, seed)


def test_step_matches_the_reference_rules_on_every_board_and_action():
    ours, theirs = random.Random(29), random.Random(29)
    for board in ref_reachable_boards():
        for action in CELL_ACTIONS:
            assert tuple(tictactoe_step(board, action, ours)) == ref_step(board, action, theirs)
    assert ours.random() == theirs.random()


def test_reachable_boards_match_the_reference_enumeration_in_order():
    assert reachable_boards() == ref_reachable_boards()


def test_move_table_matches_the_reference_rules_on_every_move_and_reply():
    for board, moves in _table().items():
        if ref_winner(board) != "ongoing":
            assert moves == ()
            continue
        assert [move[0] for move in moves] == legal_cells(board)
        for cell, after_x, reward, game_over, replies in moves:
            outcome = ref_winner(after_x)
            assert after_x == ref_place(board, cell, "X")
            assert (reward, game_over) == (1.0 if outcome == "X-wins" else 0.0, outcome != "ongoing")
            expected = []
            for k in [] if game_over else legal_cells(after_x):
                after_b = ref_place(after_x, k, "B")
                b_wins = ref_winner(after_b) == "B-wins"
                expected.append((after_b, -1.0 if b_wins else 0.0, b_wins or "." not in after_b))
            assert replies == tuple(expected)
