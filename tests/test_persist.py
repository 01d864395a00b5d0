import ast
import builtins
import codecs
import csv
import errno
import hashlib
import json
import math
import os
import pathlib
import re
import stat
import sys
import tracemalloc

import pytest
from hypothesis import HealthCheck, Phase, assume, example, given, settings
from hypothesis import strategies as st

import replayq
from replayq import learner, persist
from replayq.cli import main
from replayq.core import ControlParams, ExperienceBatch, ExperienceTuple, QTable, RLModel, validate_label
from replayq.envs import gridworld_environment, sample_experience
from replayq.learner import learn
from replayq.persist import (
    DEFAULT_COLUMNS,
    format_report,
    load_model,
    model_from_json,
    model_to_json,
    read_experience,
    save_model,
    write_experience,
    write_text,
)
from replayq.tictactoe import ttt_generate_games

CONTROL = ControlParams(alpha=0.1, gamma=0.5, epsilon=0.1)


def small_batch():
    return [
        ExperienceTuple("s1", "down", -1.0, "s2"),
        ExperienceTuple("s2", "right", -0.7210267, "s3"),
        ExperienceTuple("s3", "up", 10.0, "s4"),
    ]


def test_experience_round_trip_preserves_tuples(tmp_path):
    path = tmp_path / "exp.csv"
    write_experience(small_batch(), str(path))
    assert read_experience(str(path)) == small_batch()


def _peak_per_file_byte(action, path):
    """tracemalloc's peak over `action()`, per byte of the file at `path`."""
    tracemalloc.start()
    try:
        action()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / os.path.getsize(path)


def test_experience_io_memory_is_bounded_by_the_file_size(tmp_path):
    # 2,000 seeded games: 8,390 rows, 227 kB. The batch read back holds four
    # columns of 8-byte references, about 1.2 bytes per file byte; holding a
    # string per field of each row took the read to 12 and the write to 5.
    games = ttt_generate_games(2_000, seed=0)
    path = str(tmp_path / "games.csv")
    write_experience(games, path)
    assert _peak_per_file_byte(lambda: read_experience(path), path) < 5
    assert _peak_per_file_byte(lambda: write_experience(games, path), path) < 1.0


def test_experience_round_trip_is_byte_exact(tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    write_experience(small_batch(), str(first))
    write_experience(read_experience(str(first)), str(second))
    assert first.read_bytes() == second.read_bytes()


def test_experience_file_layout(tmp_path):
    path = tmp_path / "exp.csv"
    write_experience(small_batch(), str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "State,Action,Reward,NextState"
    assert lines[1] == "s1,down,-1.0,s2"
    assert lines[2] == "s2,right,-0.7210267,s3"
    assert path.read_text().endswith("\n")


def test_write_experience_empty_batch_yields_header_only(tmp_path):
    path = tmp_path / "exp.csv"
    write_experience([], str(path))
    assert path.read_text() == "State,Action,Reward,NextState\n"
    assert read_experience(str(path)) == []


def _is_label(text):
    try:
        validate_label(text)
    except ValueError:
        return False
    return True


# Any character, with those a delimited-text parser treats specially drawn often.
labels = st.text(st.characters() | st.sampled_from("\"'\\ \t\x00;|"), min_size=1, max_size=8).filter(_is_label)
# Any finite float, -0.0 and subnormals included.
rewards = st.floats(allow_nan=False, allow_infinity=False)


# No explain phase: it reports a failure through pytest once per re-run, which took minutes and 1 GB.
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture],
          phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.target, Phase.shrink])
@given(batch=st.lists(st.builds(ExperienceTuple, labels, labels, rewards, labels), max_size=8))
@example(batch=[ExperienceTuple("s'", "a b", -0.0, "\u00e9"), ExperienceTuple("s", "a", 5e-324, "t;\x00")])
def test_any_valid_batch_round_trips_byte_exactly(tmp_path, batch):
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    write_experience(batch, str(first))
    back = read_experience(str(first))
    assert back == batch
    assert back == ExperienceBatch(batch)  # the same label tables and code columns
    write_experience(back, str(second))
    assert first.read_bytes() == second.read_bytes()


def test_read_experience_with_renamed_columns(tmp_path):
    path = tmp_path / "exp.csv"
    path.write_text("From,Move,Gain,To\ns1,down,-1.0,s2\n")
    batch = read_experience(str(path), {"s": "From", "a": "Move", "r": "Gain", "s_new": "To"})
    assert batch == [ExperienceTuple("s1", "down", -1.0, "s2")]


def test_read_experience_ignores_extra_columns(tmp_path):
    path = tmp_path / "exp.csv"
    path.write_text("Episode,State,Action,Reward,NextState\n7,s1,down,-1.0,s2\n")
    assert read_experience(str(path)) == [ExperienceTuple("s1", "down", -1.0, "s2")]


def test_read_experience_missing_column(tmp_path):
    path = tmp_path / "exp.csv"
    path.write_text("State,Action,Score,NextState\n")
    with pytest.raises(ValueError, match="column Reward not found"):
        read_experience(str(path))


def test_read_experience_refuses_a_used_column_named_twice(tmp_path):
    path = tmp_path / "exp.csv"
    path.write_text("State,Action,Reward,NextState,State\ns1,down,-1.0,s2,s3\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: column State appears 2 times"):
        read_experience(str(path))
    path.write_text("From,Move,Gain,To,Move\ns1,down,-1.0,s2,up\n")
    with pytest.raises(ValueError, match="column Move appears 2 times"):
        read_experience(str(path), {"s": "From", "a": "Move", "r": "Gain", "s_new": "To"})


def test_read_experience_refuses_a_column_map_that_sends_two_elements_to_one_column(tmp_path, capsys):
    path = tmp_path / "exp.csv"
    path.write_text("State,Action,Reward,NextState\ns1,down,-1.0,s2\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: column State is mapped to both s and s_new$"):
        read_experience(str(path), {"s_new": "State"})
    with pytest.raises(ValueError, match="column Move is mapped to both s and a$"):
        read_experience(str(path), {"s": "Move", "a": "Move"})
    out = tmp_path / "model.json"
    assert main(["train", "--data", str(path), "--s-new", "State", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {path}: column State is mapped to both s and s_new\n"
    assert not out.exists()


def test_read_experience_allows_an_unused_column_named_twice(tmp_path):
    path = tmp_path / "exp.csv"
    path.write_text("Episode,State,Action,Reward,NextState,Episode\n7,s1,down,-1.0,s2,8\n")
    assert read_experience(str(path)) == [ExperienceTuple("s1", "down", -1.0, "s2")]


def test_read_experience_bad_reward_points_at_row(tmp_path):
    path = tmp_path / "exp.csv"
    path.write_text("State,Action,Reward,NextState\ns1,down,-1.0,s2\ns2,up,oops,s1\n")
    with pytest.raises(ValueError, match="row 3"):
        read_experience(str(path))


def test_read_experience_short_row(tmp_path):
    path = tmp_path / "exp.csv"
    path.write_text("State,Action,Reward,NextState\ns1,down\n")
    with pytest.raises(ValueError, match="row 2"):
        read_experience(str(path))


@pytest.mark.parametrize("header, row, message", [
    ("State,Action,Reward,NextState", "s1,down,-1.0,s2,zzz", "row 2: expected 4 fields, got 5"),
    ("State,Action,Reward,NextState,Episode", "s1,down,-1.0,s2", "row 2: expected 5 fields, got 4"),
], ids=["extra-field", "missing-field"])
def test_read_experience_refuses_a_row_whose_field_count_differs_from_the_header(tmp_path, header, row, message):
    path = tmp_path / "exp.csv"
    path.write_text(f"{header}\n{row}\n")
    with pytest.raises(ValueError, match=message):
        read_experience(str(path))


@pytest.mark.parametrize("lines, message", [
    (["S" * 131_073 + ",Action,Reward,NextState"], "row 1: field larger than field limit (131072)"),
    (["State,Action,Reward,NextState", "s1,up,1.0,s2", "s" * 131_073 + ",up,1.0,s1"],
     "row 3: field larger than field limit (131072)"),
], ids=["header", "row"])
def test_read_experience_names_the_row_the_csv_reader_refuses(tmp_path, lines, message):
    path = tmp_path / "exp.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="^" + re.escape(f"{path}: {message}") + "$"):
        read_experience(str(path))
    assert main(["train", "--data", str(path), "--out", os.devnull]) == 2


def test_a_label_as_long_as_the_csv_field_limit_round_trips(tmp_path):
    path = str(tmp_path / "exp.csv")
    batch = [ExperienceTuple("s" * 131_072, "up", 1.0, "s2")]
    write_experience(batch, path)
    assert read_experience(path) == batch


@pytest.mark.parametrize("read, text, command", [
    (read_experience, b"State,Action,Reward,NextState\ns1,caf\xe9,1.0,s2\n", ["train", "--out", os.devnull, "--data"]),
    (load_model, b'{"format": "caf\xe9"}\n', ["report", "--model"]),
], ids=["experience", "model"])
def test_a_file_that_is_not_utf8_is_named(tmp_path, capsys, read, text, command):
    path = tmp_path / "bad"
    path.write_bytes(text)
    message = f"{path}: not UTF-8 text (invalid continuation byte)"
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        read(str(path))
    assert main([*command, str(path)]) == 2
    assert message in capsys.readouterr().err


def test_read_experience_empty_file(tmp_path):
    path = tmp_path / "exp.csv"
    path.write_text("")
    with pytest.raises(ValueError, match="header"):
        read_experience(str(path))


def test_read_experience_header_only(tmp_path):
    path = tmp_path / "exp.csv"
    path.write_text("State,Action,Reward,NextState\n")
    assert read_experience(str(path)) == []


def test_read_experience_rejects_unknown_map_keys(tmp_path):
    path = tmp_path / "exp.csv"
    path.write_text("State,Action,Reward,NextState\n")
    with pytest.raises(ValueError, match="column_map"):
        read_experience(str(path), {"state": "State"})


# --- the block reader against csv.reader ----------------------------------------


def reference_read(path, column_map=None):
    """read_experience's contract on csv.reader alone: the batch, or the ValueError it raises.

    Reading stops at the first row of the wrong width or that csv.reader
    refuses, and a decode error ends it at once; the rows read before a stop
    are then checked in order, so the first bad row is the one named.
    """
    columns = {"s": "State", "a": "Action", "r": "Reward", "s_new": "NextState", **(column_map or {})}
    rows, header, fault = [], None, None
    with open(path, newline="", encoding="utf-8-sig") as fh:
        try:
            reader = csv.reader(fh)
            header = next(reader)
            i, j, k, m = (header.index(columns[key]) for key in ("s", "a", "r", "s_new"))
            for row in reader:
                if len(row) != len(header):
                    fault = f"expected {len(header)} fields, got {len(row)}"
                    break
                rows.append(row)
        except csv.Error as exc:
            fault = str(exc)
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not UTF-8 text ({exc.reason})") from None
    tuples = []
    for number, row in enumerate(rows, 2):
        try:
            tuples.append(ExperienceTuple(row[i], row[j], row[k], row[m]))
        except ValueError as exc:
            raise ValueError(f"{path}: row {number}: {exc}") from None
    if fault is not None:
        raise ValueError(f"{path}: row {len(rows) + 2 if header is not None else 1}: {fault}")
    return ExperienceBatch(tuples)


def _outcome(read, *args):
    try:
        return read(*args)
    except ValueError as exc:
        return str(exc)


# Fields the block reader splits at commas, some of them labels or rewards the
# batch refuses; and fields only csv.reader reads or refuses: quoted ones, with
# a quoted comma, quote or newline, NUL, a carriage return, a stray quote.
PLAIN = st.sampled_from(["s1", "s2", "up", "1.0", "-0.5", "3", "\u00e9", "s" * 40, "\ufeffs1", "nan", "oops", ""])
SPECIAL = st.sampled_from(['"s1"', '"u,p"', '"a""b"', '"s\n2"', "s\x00", "a\rb", 'a"b'])
ENDINGS = st.sampled_from(["\n", "\n", "\n", "\r\n", "\r"])


@st.composite
def experience_files(draw):
    """(file bytes, column_map): a header with the four used columns, renamed or
    not, among extra ones, then rows of mostly the header's width. Half the
    files hold only plain fields and newlines, which the block reader takes."""
    renamed = draw(st.booleans())
    names = ["From", "Move", "Gain", "To"] if renamed else list(DEFAULT_COLUMNS.values())
    header = names + draw(st.lists(st.sampled_from(["Episode", "Step"]), max_size=2))
    header = draw(st.permutations(header))
    width = len(header)
    plain = draw(st.booleans())
    fields = PLAIN if plain else st.one_of(PLAIN, PLAIN, SPECIAL)
    row = st.lists(fields, min_size=width, max_size=width)
    rows = draw(st.lists(st.one_of(*[row] * 7, st.lists(fields, max_size=width + 1)), max_size=12))
    lines = [",".join(header)] + [",".join(r) for r in rows]
    endings = st.just("\n") if plain or draw(st.booleans()) else ENDINGS
    endings = draw(st.lists(endings, min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, endings))
    if draw(st.booleans()):
        text = text.rstrip("\r\n")  # no final newline
    data = (codecs.BOM_UTF8 if draw(st.booleans()) else b"") + text.encode("utf-8")
    if draw(st.integers(0, 4)) == 4:  # bytes that are not UTF-8
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\xe2\x82"])) + data[at:]
    return data, dict(zip(DEFAULT_COLUMNS, names)) if renamed else None


@settings(max_examples=400, deadline=None)
@given(case=experience_files(), block=st.sampled_from([1, 7, 30, 8192]),
       limit=st.sampled_from([None, None, 12, 45]))
@example(case=(b"State,Action,Reward,NextState\n" + b"s1,up,1.0,s2\n" * 400 + b"s2,up,-0.5,s1", None),
         block=8192, limit=None)
# Rows of 5 and 3 fields, or three empty lines, hold as many fields as rows of 4 and of 5.
@example(case=(b"State,Action,Reward,NextState\ns1,up,1.0,s2,x\ns1,up,1.0\n", None), block=8192, limit=None)
@example(case=(b"State,Action,Episode,Reward,NextState\n\n\n\n", None), block=8192, limit=None)
@example(case=(b"State,Action,Reward,NextState\r\ns1,up,1.0,s2\r\n", None), block=8192, limit=None)
@example(case=(b'State,Action,Reward,NextState\ns1,"up",1.0,s2\n', None), block=8192, limit=None)
@example(case=(b"State,Action,Reward,NextState\ns1,up,1.0,s\x002\n", None), block=8192, limit=None)
@example(case=(b"State,Action,Reward,NextState\ns1,up,1.0,s2\ns1,up,1.0,sssssssssssss\n", None), block=8192, limit=12)
# The first bad row lies in the header's 8 KB of bytes, a bad byte in the next.
@example(case=(b"State,Action,Reward,NextState\ns1,up\n" + b"s1,up,1.0,s2\n" * 900 + b"\xff\n", None),
         block=8192, limit=None)
def test_read_experience_matches_a_csv_reader_reference(tmp_path_factory, case, block, limit):
    # `block` sets where blocks end, so rows straddle them; `limit` lowers the field size limit.
    data, column_map = case
    path = str(tmp_path_factory.getbasetemp() / "generated.csv")
    pathlib.Path(path).write_bytes(data)
    saved = csv.field_size_limit()
    try:
        if limit is not None:
            csv.field_size_limit(limit)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(persist, "_BLOCK_CHARS", block)
            assert _outcome(read_experience, path, column_map) == _outcome(reference_read, path, column_map)
    finally:
        csv.field_size_limit(saved)


def test_a_plain_file_hands_no_data_row_to_csv_reader(tmp_path, monkeypatch):
    games = ttt_generate_games(2_000, seed=0)
    path = tmp_path / "games.csv"
    write_experience(games, str(path))
    parsed = []
    reader = csv.reader

    def counting_reader(*args):
        for row in reader(*args):
            parsed.append(row)
            yield row

    monkeypatch.setattr(persist.csv, "reader", counting_reader)
    batch = read_experience(str(path))
    assert batch == games  # label tables and code columns alike
    assert parsed == [list(DEFAULT_COLUMNS.values())]
    # One quoted field, in the first block or in the last, sends the whole file
    # to csv.reader: the block read parsed the header, then csv.reader every row.
    lines = path.read_text().split("\n")
    for k in (1, len(lines) - 2):
        fields = lines[k].split(",")
        fields[1] = f'"{fields[1]}"'
        quoted = tmp_path / f"quoted-{k}.csv"
        quoted.write_text("\n".join([*lines[:k], ",".join(fields), *lines[k + 1:]]))
        parsed.clear()
        assert read_experience(str(quoted)) == batch
        assert len(parsed) == 1 + 1 + len(games)


def test_a_leading_byte_order_mark_is_skipped_and_any_other_is_data(tmp_path):
    path = tmp_path / "exp.csv"
    rows = [ExperienceTuple("s1", "up", 1.0, "\ufeffs1")]
    # The second file's quoted field sends it to csv.reader.
    for extra, more in (("", []), ('"s1",up,2.0,s1\n', [ExperienceTuple("s1", "up", 2.0, "s1")])):
        text = "State,Action,Reward,NextState\ns1,up,1.0,\ufeffs1\n" + extra
        path.write_bytes(codecs.BOM_UTF8 + text.encode("utf-8"))
        assert read_experience(str(path)) == rows + more
    write_experience(rows, str(path))
    assert path.read_bytes().startswith(b"State,")


def trained_model(iterations=3):
    batch = sample_experience(200, gridworld_environment(), seed=8)
    return learn(batch, CONTROL, iterations=iterations, seed=8)


def test_model_round_trip(tmp_path):
    model = trained_model()
    path = tmp_path / "model.json"
    save_model(model, str(path))
    loaded = load_model(str(path))
    assert loaded.q == model.q
    assert loaded.policy == model.policy
    assert loaded.control == model.control
    assert loaded.iterations_completed == model.iterations_completed
    assert loaded.reward_history == model.reward_history
    assert loaded.learning_rule == model.learning_rule


def test_model_round_trip_is_byte_exact(tmp_path):
    model = trained_model()
    path = tmp_path / "model.json"
    save_model(model, str(path))
    assert model_to_json(load_model(str(path))) == path.read_text()


def test_fresh_model_with_empty_history_round_trips(tmp_path):
    from replayq.core import QTable, RLModel

    q = QTable()
    q.set("s1", "up", 0.5)
    model = RLModel(q=q, control=CONTROL)
    path = tmp_path / "model.json"
    save_model(model, str(path))
    loaded = load_model(str(path))
    assert loaded.iterations_completed == 0
    assert loaded.reward_history == []
    assert loaded.q == model.q


def test_model_file_is_versioned_json(tmp_path):
    path = tmp_path / "model.json"
    save_model(trained_model(), str(path))
    doc = json.loads(path.read_text())
    assert doc["format"] == "rlmodel/1"
    assert doc["learning_rule"] == "experienceReplay"
    assert set(doc["q"]) == set(doc["states"])


def test_load_model_rejects_other_versions(tmp_path):
    path = tmp_path / "model.json"
    save_model(trained_model(), str(path))
    doc = json.loads(path.read_text())
    doc["format"] = "rlmodel/2"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="rlmodel/1"):
        load_model(str(path))


def test_load_model_rejects_non_json(tmp_path):
    path = tmp_path / "model.json"
    path.write_text("not json at all")
    with pytest.raises(ValueError, match="not a valid model"):
        load_model(str(path))


@pytest.mark.parametrize("text, message", [
    pytest.param("[" * 200_000, "maximum recursion depth exceeded", id="nesting"),
    pytest.param('{"iterations_completed": 1' + "0" * 5_000 + "}", "integer string conversion", id="long-integer",
                 marks=pytest.mark.skipif(not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 5_000,
                                          reason="this Python converts 5,000-digit integers")),
    pytest.param("[]", "expected an object", id="array"),
])
def test_model_from_json_names_the_source_of_text_json_cannot_parse(text, message):
    with pytest.raises(ValueError, match=f"^model.json: not a valid model file: .*{message}"):
        model_from_json(text, source="model.json")


def reference_model_json(model):
    """The rlmodel/1 text as json's indenting encoder writes the model's document."""
    doc = {
        "format": "rlmodel/1",
        "learning_rule": model.learning_rule,
        "control": {"alpha": model.control.alpha, "gamma": model.control.gamma, "epsilon": model.control.epsilon},
        "iterations_completed": model.iterations_completed,
        "reward_history": list(model.reward_history),
        "states": model.q.states,
        "actions": model.q.actions,
        "q": dict(zip(model.q.state_index, model.q.rows)),
        "policy": dict(model.policy),
    }
    return json.dumps(doc, indent=2) + "\n"


# Integer-valued floats drawn often: they are written as "3.0", never "3".
values = st.integers(-10**6, 10**6).map(float) | st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=150, deadline=None,
          phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.target, Phase.shrink])
@given(states=st.lists(labels, unique=True, max_size=5), actions=st.lists(labels, unique=True, max_size=4),
       data=st.data(), history=st.lists(values, max_size=3),
       control=st.builds(ControlParams, *[st.floats(0.0, 1.0)] * 3))
@example(states=[], actions=[], data=None, history=[], control=CONTROL)
def test_model_to_json_is_json_dumps_with_indent_two(states, actions, data, history, control):
    from replayq.core import QTable, RLModel

    assume(actions or not states)  # a table with states but no actions has no policy to write
    q = QTable(states, actions)
    for row in q.rows:
        row[:] = data.draw(st.lists(values, min_size=len(actions), max_size=len(actions)))
    model = RLModel(q, control, history)
    text = model_to_json(model)
    assert text == reference_model_json(model)
    assert model_to_json(model_from_json(text)) == text


def test_model_from_json_reads_integer_values_as_floats():
    from replayq.core import QTable, RLModel

    model = RLModel(QTable(["s1"], ["up", "down"]), CONTROL)
    model.q.rows[0] = [2.0, -3.0]
    doc = json.loads(model_to_json(model))
    doc["q"]["s1"] = [2, -3]
    loaded = model_from_json(json.dumps(doc))
    assert loaded.q == model.q and all(type(v) is float for v in loaded.q.rows[0])


def test_model_from_json_rejects_ragged_rows():
    text = model_to_json(trained_model())
    doc = json.loads(text)
    first = doc["states"][0]
    doc["q"][first] = doc["q"][first][:-1]
    with pytest.raises(ValueError, match="malformed"):
        model_from_json(json.dumps(doc))


def test_policy_report_lists_one_line_per_state():
    model = trained_model()
    text = format_report(model, "policy")
    lines = text.splitlines()
    assert lines[0] == "Policy"
    assert len(lines) == 1 + len(model.q.states)
    assert f"s3 -> {model.policy['s3']}" in text


def test_table_report_has_a_row_per_state():
    model = trained_model()
    text = format_report(model, "table")
    lines = text.splitlines()
    assert lines[0] == "State-action values"
    assert lines[1].split()[0] == "state"
    assert lines[1].split()[1:] == model.q.actions
    assert len(lines) == 2 + len(model.q.states)


def test_summary_report_single_iteration_has_no_spread(tmp_path):
    model = trained_model(iterations=1)
    text = format_report(model, "summary")
    assert "experienceReplay" in text
    assert "Iterations:" in text
    assert "States:" in text
    assert "NA" in text
    total = [ln for ln in text.splitlines() if "Total reward" in ln]
    assert total and total[0].split()[-1] == f"{model.reward_history[-1]:g}"


def test_summary_report_of_an_empty_history_reads_na_for_every_statistic():
    text = format_report(RLModel(QTable(), ControlParams()), "summary")
    for label in ("Total reward (last iteration):", "Min:", "Max:", "Mean:", "Median:", "Std dev:"):
        assert re.search(rf"^  {re.escape(label)} +NA$", text, re.M)


def test_summary_report_multiple_iterations_has_statistics():
    model = trained_model(iterations=4)
    text = format_report(model, "summary")
    assert "NA" not in text
    for label in ("Min:", "Max:", "Mean:", "Median:", "Std dev:"):
        assert label in text


def test_reports_are_deterministic():
    assert format_report(trained_model(), "summary") == format_report(trained_model(), "summary")


def test_format_report_rejects_unknown_view():
    with pytest.raises(ValueError, match="verbosity"):
        format_report(trained_model(), "prose")


def corrupted(change):
    doc = json.loads(model_to_json(trained_model()))
    change(doc)
    return json.dumps(doc)


@pytest.mark.parametrize(
    "change,field",
    [
        pytest.param(lambda d: d["q"]["s1"].__setitem__(0, "1.5"), "q['s1'][0] must be a finite number", id="string-value"),
        pytest.param(lambda d: d["q"]["s1"].__setitem__(0, True), "q['s1'][0] must be a finite number", id="boolean-value"),
        pytest.param(lambda d: d["q"]["s1"].__setitem__(1, math.inf), "q['s1'][1] must be a finite number, got inf",
                     id="infinite-value"),
        pytest.param(lambda d: d["states"].append("s1"), "state 's1' is listed more than once", id="duplicate-state"),
        pytest.param(lambda d: d["actions"].append("up"), "action 'up' is listed more than once", id="duplicate-action"),
        pytest.param(lambda d: d.__setitem__("iterations_completed", -1), "iterations_completed", id="negative-iterations"),
        pytest.param(lambda d: d["reward_history"].append(math.nan), "reward_history[3]", id="nan-reward-history"),
        pytest.param(lambda d: d["policy"].__setitem__("s1", "jump"), "policy['s1'] is 'jump'", id="unknown-policy-action"),
        pytest.param(lambda d: d["policy"].__setitem__("s1", "left"),
                     "policy['s1'] is 'left', but the argmax of q['s1'] is 'down'", id="policy-not-greedy"),
        pytest.param(lambda d: d["q"].__setitem__("s9", [0.0] * 4), "q has an entry for 's9', which is not in states",
                     id="unlisted-q-state"),
        pytest.param(lambda d: d.__setitem__("states", "s1"), "states and actions must be lists", id="string-states"),
        pytest.param(lambda d: d.__setitem__("reward_history", {}), "reward_history must be a list", id="object-history"),
        pytest.param(lambda d: d.__setitem__("reward_history", ""), "reward_history must be a list", id="string-history"),
        pytest.param(lambda d: d["policy"].pop("s2"), "policy has no entry for state 's2'", id="missing-policy-entry"),
        pytest.param(lambda d: d["policy"].__setitem__("s9", "up"), "entry for 's9', which is not in states", id="unlisted-policy-state"),
        pytest.param(lambda d: d["control"].__setitem__("alpha", True), "control.alpha must be a finite number", id="boolean-alpha"),
        pytest.param(lambda d: d["control"].__setitem__("gamma", "0.5"), "control.gamma must be a finite number", id="string-gamma"),
        pytest.param(lambda d: d["control"].__setitem__("epsilon", None), "control.epsilon must be a finite number", id="null-epsilon"),
        pytest.param(lambda d: d.__setitem__("control", [0.1, 0.5, 0.1]), "control must be an object", id="control-list"),
        pytest.param(lambda d: d.__setitem__("control", {}), "missing field 'control.alpha'", id="empty-control"),
        pytest.param(lambda d: d["control"].pop("epsilon"), "missing field 'control.epsilon'", id="control-without-epsilon"),
        pytest.param(lambda d: d.__setitem__("learning_rule", {"x": 1}), "learning_rule must be 'experienceReplay'",
                     id="object-rule"),
        pytest.param(lambda d: d.__setitem__("learning_rule", None), "learning_rule must be 'experienceReplay'",
                     id="null-rule"),
        pytest.param(lambda d: d.__setitem__("learning_rule", "SARSA"),
                     "learning_rule must be 'experienceReplay', got 'SARSA'", id="other-rule"),
        pytest.param(lambda d: d.__setitem__("iterations_completed", 7),
                     "iterations_completed must be 3, the number of reward_history entries, got 7",
                     id="iterations-not-history-length"),
    ],
)
def test_model_from_json_rejects_values_it_would_not_write(change, field):
    with pytest.raises(ValueError, match=r"^m\.json: malformed model file: .*" + re.escape(field)):
        model_from_json(corrupted(change), source="m.json")


@pytest.mark.parametrize("history, message", [
    ([1.0, True], "reward_history[1] must be a finite number, got True"),
    ([1.0, "1.5"], "reward_history[1] must be a finite number, got '1.5'"),
    ([None, math.nan], "reward_history[0] must be a finite number, got None"),
    ([1.0, -math.inf], "reward_history[1] must be a finite number, got -inf"),
    ([math.nan, 10**400], "reward_history[0] must be a finite number, got nan"),
    ([10**400, math.nan], "int too large to convert to float"),
])
def test_model_from_json_names_the_first_bad_reward_history_entry(history, message):
    text = corrupted(lambda d: d.update(reward_history=history, iterations_completed=len(history)))
    with pytest.raises(ValueError, match=r"^m\.json: malformed model file: " + re.escape(message) + "$"):
        model_from_json(text, source="m.json")


def test_model_from_json_reads_reward_history_entries_as_floats():
    loaded = model_from_json(corrupted(lambda d: d.update(reward_history=[1, -2, 0.5], iterations_completed=3)))
    assert loaded.reward_history == [1.0, -2.0, 0.5]
    assert all(type(r) is float for r in loaded.reward_history)


def test_cli_refuses_a_model_whose_control_lacks_a_field(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(corrupted(lambda d: d.__setitem__("control", {})))
    assert main(["report", "--model", str(path)]) == 2
    assert f"{path}: malformed model file: missing field 'control.alpha'" in capsys.readouterr().err

def test_model_from_json_keeps_control_values_as_floats():
    doc = json.loads(model_to_json(trained_model()))
    doc["control"] = {"alpha": 1, "gamma": 0, "epsilon": 0.25}
    loaded = model_from_json(json.dumps(doc))
    assert loaded.control == ControlParams(alpha=1.0, gamma=0.0, epsilon=0.25)
    assert all(type(v) is float for v in vars(loaded.control).values())


def test_a_model_trained_with_int_valued_controls_re_saves_byte_for_byte(tmp_path):
    batch = sample_experience(200, gridworld_environment(), seed=8)
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    save_model(learn(batch, ControlParams(alpha=1, gamma=0, epsilon=1), seed=8), str(first))
    save_model(load_model(str(first)), str(second))
    assert first.read_bytes() == second.read_bytes()
    assert '"alpha": 1.0,\n    "gamma": 0.0,\n    "epsilon": 1.0\n' in first.read_text()


# --- write_text: the one writer of every output file ------------------------


def test_write_text_replaces_an_existing_file(tmp_path):
    path = tmp_path / "out.csv"
    path.write_text("old contents\n")
    write_text(str(path), "new\n")
    assert path.read_bytes() == b"new\n"
    assert os.listdir(tmp_path) == ["out.csv"]


class _FailsHalfway:
    """Stands in for the writer's file: writes half its text, then fails as a full disk would."""

    def __init__(self, fh):
        self._fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def fileno(self):
        return self._fh.fileno()

    def write(self, text):
        self._fh.write(text[: len(text) // 2])
        self._fh.flush()
        raise OSError(errno.ENOSPC, "No space left on device")


@pytest.mark.parametrize("existing", [True, False], ids=["existing", "new"])
def test_write_text_failing_part_way_keeps_the_old_file_and_leaves_no_stray_file(tmp_path, monkeypatch, existing):
    path = tmp_path / "out.csv"
    if existing:
        path.write_text("old\n")
    monkeypatch.setattr(persist, "open", lambda *a, **k: _FailsHalfway(builtins.open(*a, **k)), raising=False)
    with pytest.raises(OSError, match="No space left"):
        write_text(str(path), "new\n" * 1000)
    assert os.listdir(tmp_path) == (["out.csv"] if existing else [])
    if existing:
        assert path.read_bytes() == b"old\n"


def test_write_text_failing_to_unlink_keeps_the_old_file_and_leaves_no_stray_file(tmp_path, monkeypatch):
    path = tmp_path / "out.csv"
    path.write_text("old\n")
    unlink = os.unlink

    def refuse_target(name, *args, **kwargs):
        if os.fspath(name) == str(path):
            raise OSError(errno.EIO, "Input/output error")
        return unlink(name, *args, **kwargs)

    monkeypatch.setattr(os, "unlink", refuse_target)
    with pytest.raises(OSError, match="Input/output error"):
        write_text(str(path), "new\n")
    assert path.read_bytes() == b"old\n"
    assert os.listdir(tmp_path) == ["out.csv"]


def test_write_text_failing_to_rename_leaves_no_stray_file(tmp_path, monkeypatch):
    path = tmp_path / "out.csv"
    path.write_text("old\n")

    def refuse(*args, **kwargs):
        raise OSError(errno.EIO, "Input/output error")

    monkeypatch.setattr(os, "rename", refuse)
    with pytest.raises(OSError, match="Input/output error"):
        write_text(str(path), "new\n")
    # The old file was unlinked before the rename: the target is absent, not torn.
    assert os.listdir(tmp_path) == []


def test_write_text_names_the_target_when_its_directory_is_missing(tmp_path):
    path = tmp_path / "missing" / "out.csv"
    with pytest.raises(FileNotFoundError) as caught:
        write_text(str(path), "new\n")
    assert caught.value.filename == str(path)


def test_write_text_gives_a_new_file_the_mode_open_would(tmp_path):
    umask = os.umask(0o027)
    try:
        write_text(str(tmp_path / "out.csv"), "new\n")
    finally:
        os.umask(umask)
    assert stat.S_IMODE(os.stat(tmp_path / "out.csv").st_mode) == 0o640


def test_write_text_keeps_an_existing_files_mode(tmp_path):
    path = tmp_path / "out.csv"
    path.write_text("old\n")
    path.chmod(0o604)
    write_text(str(path), "new\n")
    assert stat.S_IMODE(path.stat().st_mode) == 0o604
    assert path.read_bytes() == b"new\n"


def test_write_text_refuses_a_file_it_may_not_write(tmp_path, monkeypatch):
    path = tmp_path / "out.csv"
    path.write_text("old\n")
    monkeypatch.setattr(os, "access", lambda name, mode: False)
    with pytest.raises(PermissionError):
        write_text(str(path), "new\n")
    assert path.read_bytes() == b"old\n"
    assert os.listdir(tmp_path) == ["out.csv"]


def test_write_text_writes_through_a_symlink(tmp_path):
    real, link = tmp_path / "real.csv", tmp_path / "link.csv"
    real.write_text("old\n")
    link.symlink_to(real)
    write_text(str(link), "new\n")
    assert link.is_symlink()
    assert real.read_bytes() == b"new\n"
    assert sorted(os.listdir(tmp_path)) == ["link.csv", "real.csv"]


def test_write_text_writes_into_a_fifo_in_place(tmp_path):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        write_text(str(fifo), "new\n")
        assert os.read(reader, 64) == b"new\n"
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)


# sha256 of seeded CLI outputs as written before write_text existed.
PINNED_SHA256 = {
    "exp.csv": "50aadccf8fa9c1d4a8dc29eb28cc6fee702504e8a72b8d7b6e6abf6b31d34e2f",
    "model.json": "3e23de5d3e2c04593fd8f9e2521ae32510ffc5630af641ce9a941a108d533112",
    "curve.csv": "aa8cb370f2c5140db05ad65de090b18a9961865fd552eb000ceec3c5111ae12a",
    "curve.svg": "d580391399bdba4e002a993b5f2a9b0708ff0e008bbcb57a81d37436ae996ef1",
}


def test_seeded_cli_outputs_keep_their_bytes(tmp_path, capsys):
    out = {name: str(tmp_path / name) for name in PINNED_SHA256}
    for path in out.values():  # overwrite, the path every re-run takes
        pathlib.Path(path).write_text("stale\n")
    grid = ["--env", "gridworld-2x2"]
    assert main(["sample", *grid, "--n", "1000", "--seed", "123", "--out", out["exp.csv"]]) == 0
    assert main(["train", "--data", out["exp.csv"], "--iter", "500", "--seed", "7", "--out", out["model.json"]]) == 0
    assert main(["curve", *grid, "--rounds", "10", "--n", "1000", "--seed", "5",
                 "--out", out["curve.csv"], "--plot", out["curve.svg"]]) == 0
    capsys.readouterr()
    digests = {name: hashlib.sha256(pathlib.Path(path).read_bytes()).hexdigest() for name, path in out.items()}
    assert digests == PINNED_SHA256
    assert sorted(os.listdir(tmp_path)) == sorted(PINNED_SHA256)


def test_seeded_training_stops_replay_at_its_fixed_point_and_still_counts_every_pass(monkeypatch):
    # The library calls behind the pinned `sample` and `train` runs above.
    calls = []
    backup = learner._backup

    def count(*args):
        calls.append(None)
        return backup(*args)

    monkeypatch.setattr(learner, "_backup", count)
    batch = sample_experience(1000, gridworld_environment(), seed=123)
    model = learn(batch, ControlParams(), iterations=500, seed=7)
    assert len(calls) <= 20
    assert model.iterations_completed == 500
    assert model.reward_history == [math.fsum(batch.r)] * 500
    assert hashlib.sha256(model_to_json(model).encode()).hexdigest() == PINNED_SHA256["model.json"]


# sha256 of a seeded tic-tac-toe batch as CSV and of one replay pass over it,
# as written while batches were still lists of ExperienceTuple.
PINNED_TTT_SHA256 = {
    "games.csv": "7e732c6b6675837ad091eff0cbcc39fd097453d2a3689616881aa61ae683b5fe",
    "model.json": "3b3263c6689c349905f49b29070d72edc5b19652289d0bae35d0443d20feee1a",
}


def test_seeded_tictactoe_outputs_keep_their_bytes(tmp_path):
    games = ttt_generate_games(2_000, seed=0)
    path = tmp_path / "games.csv"
    write_experience(games, str(path))
    model = learn(games, ControlParams(alpha=0.2, gamma=0.99), iterations=1, seed=0)
    digests = {
        "games.csv": hashlib.sha256(path.read_bytes()).hexdigest(),
        "model.json": hashlib.sha256(model_to_json(model).encode()).hexdigest(),
    }
    assert digests == PINNED_TTT_SHA256


# sha256 of continued fits' models, as written while `learn` extended a copy
# of the prior's table label by label.
PINNED_CONTINUED_SHA256 = {
    "tictactoe": "895f54108218112a0fb9788fae842374d6d3f87c1e3b5072550e0b1b81a3260c",
    "gridworld": "b03a1d3506391ae8b58a092c9d543072eff207769f8526d3455f9c1e18b2e4a5",
}


def test_seeded_continued_fits_keep_their_bytes():
    # Thousands of new boards join a 500-game table.
    control = ControlParams(alpha=0.2, gamma=0.99)
    prior = learn(ttt_generate_games(500, seed=11), control, iterations=1, seed=0)
    ttt = learn(ttt_generate_games(2_000, seed=12), control, iterations=1, seed=1, prior=prior)
    # The prior saw two actions, so every one of its rows widens.
    env = gridworld_environment()
    narrow = learn([t for t in sample_experience(200, env, seed=21) if t.action in ("right", "down")],
                   ControlParams(), iterations=50, seed=3)
    assert narrow.q.actions == ["right", "down"]
    grid = learn(sample_experience(1000, env, seed=22), ControlParams(), iterations=50, seed=4, prior=narrow)
    assert grid.q.actions == ["right", "down", "up", "left"]
    digests = {name: hashlib.sha256(model_to_json(model).encode()).hexdigest()
               for name, model in (("tictactoe", ttt), ("gridworld", grid))}
    assert digests == PINNED_CONTINUED_SHA256


def _file_writes(tree):
    """(enclosing function, line) of each call that writes or renames a file by itself."""
    found, scope = [], []

    class Finder(ast.NodeVisitor):
        def visit_FunctionDef(self, node):
            scope.append(node.name)
            self.generic_visit(node)
            scope.pop()

        def visit_Call(self, node):
            name = ast.unparse(node.func)
            if name in ("open", "io.open", "os.fdopen"):
                mode = node.args[1] if len(node.args) > 1 else next(
                    (k.value for k in node.keywords if k.arg == "mode"), ast.Constant("r"))
                # A mode that is not a literal could be a write mode.
                writes = not isinstance(mode, ast.Constant) or any(c in mode.value for c in "wax+")
            else:
                writes = name in ("os.open", "os.replace", "os.rename", "shutil.move") or name.endswith(
                    (".write_text", ".write_bytes"))
            if writes:
                found.append((scope[-1] if scope else "<module>", node.lineno))
            self.generic_visit(node)

    Finder().visit(tree)
    return found


def test_every_output_file_goes_through_write_text():
    sources = sorted(pathlib.Path(replayq.__file__).parent.glob("*.py"))
    writes = {path.name: _file_writes(ast.parse(path.read_text())) for path in sources}
    outside = [(name, func, line) for name, sites in writes.items() for func, line in sites
               if (name, func) != ("persist.py", "write_text")]
    assert outside == [], "write files through persist.write_text"
    assert writes["persist.py"], "the scan no longer sees write_text's own writes"
