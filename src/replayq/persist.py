"""Experience-file I/O, model serialization, and human-readable reports.

The experience format is plain comma-delimited text with a header row; state
and action labels may not contain commas or newlines, so no quoting is needed
and round trips are byte-exact. Models are stored as versioned JSON
("rlmodel/1") with rewards and values in shortest round-trippable decimal
form.
"""

from __future__ import annotations

import csv
import errno
import json
import math
import os
import stat
import statistics
from dataclasses import fields
from itertools import islice
from typing import Callable, Dict, Iterable, Iterator, List, Optional, TextIO, Tuple, Union

from .core import (ControlParams, ExperienceBatch, ExperienceTuple, QTable, RLModel, _Codes, _validate_labels,
                   policy_from_q)

DEFAULT_COLUMNS = {"s": "State", "a": "Action", "r": "Reward", "s_new": "NextState"}
MODEL_FORMAT = "rlmodel/1"
_CONTROL_FIELDS = tuple(f.name for f in fields(ControlParams))  # in the order rlmodel/1 lists them
NOT_AVAILABLE = "NA"


def read_experience(path: str, column_map: Optional[Dict[str, str]] = None) -> ExperienceBatch:
    """Parse an experience file into a batch, preserving row order.

    `column_map` renames the tuple elements {s, a, r, s_new} to the file's
    column names; omitted keys fall back to State/Action/Reward/NextState.
    The four names must differ, and each must appear in the header exactly
    once. The file is UTF-8 text; a byte-order mark at its start is skipped.
    Rows are read in blocks of about 8 KB of text, and each block's labels
    and reward texts are coded before the next is read, so the reader holds
    integer code columns, one copy of each distinct text and the strings of
    one block at a time. A block that `csv.reader` might split otherwise than
    at its commas and newlines, or a decode error, restarts the read from the
    top on `csv.reader`, row by row. A malformed file raises ValueError naming
    the file and its first bad row.
    """
    columns = dict(DEFAULT_COLUMNS)
    if column_map:
        unknown = set(column_map) - set(DEFAULT_COLUMNS)
        if unknown:
            raise ValueError(f"unknown column_map keys {sorted(unknown)}; expected {', '.join(DEFAULT_COLUMNS)}")
        columns.update(column_map)
    for name in columns.values():
        keys = [key for key, used in columns.items() if used == name]
        if len(keys) > 1:
            raise ValueError(f"{path}: column {name} is mapped to both {' and '.join(keys)}")
    batch = _read_experience(path, columns, blocks=True)
    return batch if batch is not None else _read_experience(path, columns, blocks=False)


def _read_experience(path: str, columns: Dict[str, str], blocks: bool) -> Optional[ExperienceBatch]:
    """The batch in the file at `path`, its rows read by `_code_blocks`, or with
    `blocks` false by csv.reader row by row. None when `_code_blocks` declines
    a block or the text does not decode: the csv.reader read, which alone
    numbers a row that csv.reader or the width check refuses, then reads the
    file from the top."""
    header, fault = None, None
    states, actions, rewards = _Codes(), _Codes(), _Codes()
    codes = []
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise ValueError(f"{path}: empty file, expected a header row")
            indices = []
            for key in DEFAULT_COLUMNS:
                name = columns[key]
                if header.count(name) != 1:
                    problem = f"appears {header.count(name)} times" if name in header else "not found"
                    raise ValueError(f"{path}: column {name} {problem} (header: {header})")
                indices.append(header.index(name))
            i, j, k, m = indices
            state, action, reward = states.__getitem__, actions.__getitem__, rewards.__getitem__
            width = len(header)
            if blocks:
                if not _code_blocks(fh, width, indices, (state, action, reward), codes):
                    return None
            else:
                for row in reader:
                    if len(row) != width:
                        fault = f"expected {width} fields, got {len(row)}"
                        break
                    # State before next state, so state codes follow first appearance.
                    codes += state(row[i]), action(row[j]), reward(row[k]), state(row[m])
    except csv.Error as exc:
        fault = str(exc)
    except UnicodeDecodeError as exc:
        if blocks:  # the csv.reader read meets it at its own row
            return None
        raise ValueError(f"{path}: not UTF-8 text ({exc.reason})") from None

    # Rows before the first one the reader or the width check refused are
    # checked first, so the error names the first bad row.
    batch = ExperienceBatch._from_codes(states, actions, codes, rewards, where=lambda k: f"{path}: row {k + 2}: ")
    if fault is not None:
        raise ValueError(f"{path}: row {len(batch) + 2 if header is not None else 1}: {fault}")
    return batch


# Characters of text per read after the header: small enough that one block's
# strings stay a small share of the batch, large enough that the Python-level
# work per block is a small share of its C-level splitting and coding.
_BLOCK_CHARS = 8192


def _code_blocks(fh: TextIO, width: int, indices: List[int], coders: Tuple[Callable[[str], int], ...],
                 codes: List[int]) -> bool:
    """Code the rows left in `fh` into `codes`, one block of whole lines at a
    time; False, at the first block that csv.reader might split otherwise.

    A block is split at commas and newlines only when it holds no quote,
    carriage return or NUL, each line has `width` fields, and no line is
    longer than csv.field_size_limit(): csv.reader then gives the same
    fields, so neither an empty line nor a too-long field passes here.
    """
    i, j, k, m = indices
    state, action, reward = coders
    limit, step = csv.field_size_limit(), width + 1
    rest = ""
    while True:
        text = fh.read(_BLOCK_CHARS)
        end = text.rfind("\n")
        if end >= 0:
            block, rest = rest + text[:end], text[end + 1:]
        elif text:
            rest += text
            if len(rest) > limit:  # a line too long to take, refused before it is all read
                return False
            continue
        elif rest:  # the last line lacks its newline
            block, rest = rest, ""
        else:
            return True
        if '"' in block or "\r" in block or "\0" in block:
            return False
        if len(block) > limit and max(map(len, block.split("\n"))) > limit:
            return False
        # Each line's fields, then a "\n" of its own: when every one of the n
        # lines has `width` fields, each "\n" ends a step of `step` fields.
        n = block.count("\n") + 1
        fields = block.replace("\n", ",\n,").split(",")
        if len(fields) != n * step - 1 or fields[width::step].count("\n") != n - 1:
            return False
        # State before next state, so state codes follow first appearance.
        pairs = [None] * (2 * n)
        pairs[::2], pairs[1::2] = fields[i::step], fields[m::step]
        pairs = list(map(state, pairs))
        rows = [None] * (4 * n)
        rows[::4], rows[1::4], rows[2::4], rows[3::4] = (pairs[::2], map(action, fields[j::step]),
                                                        map(reward, fields[k::step]), pairs[1::2])
        codes += rows


# Rows per block of text handed to write_text: each block's lines die before the next is built.
_BLOCK_ROWS = 1024


def write_experience(batch: Iterable[ExperienceTuple], path: str) -> None:
    """Write a batch under the standard header; read_experience inverts this exactly.

    The text goes to write_text in blocks of rows, so the writer never holds
    more than one block of the file's text.
    """
    write_text(path, _experience_blocks(ExperienceBatch(batch)))


def _experience_blocks(batch: ExperienceBatch) -> Iterator[str]:
    yield ",".join(DEFAULT_COLUMNS.values()) + "\n"
    states, actions = batch.states, batch.actions
    rows = zip(batch.s, batch.a, batch.r, batch.s_new)
    while block := "".join([f"{states[s]},{actions[a]},{r!r},{states[s2]}\n"
                            for s, a, r, s2 in islice(rows, _BLOCK_ROWS)]):
        yield block


def write_text(path: str, text: Union[str, Iterable[str]]) -> None:
    """Write `text`, a string or an iterable of string blocks, to `path`, never
    leaving it torn; every output file goes through here.

    A regular or missing target is replaced by a file written beside it and
    renamed onto its name. Any other target (a symlink, FIFO or device) is
    written in place. docs/formats.md states the guarantee and its limits.
    """
    try:
        old = os.lstat(path)
    except FileNotFoundError:
        old = None
    blocks = (text,) if isinstance(text, str) else text
    if old is not None and not stat.S_ISREG(old.st_mode):
        with open(path, "w", newline="\n", encoding="utf-8") as fh:
            for block in blocks:
                fh.write(block)
        return
    if old is not None and not os.access(path, os.W_OK):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{os.urandom(6).hex()}.tmp")
    try:
        # 0o666 under O_EXCL gives a new file the mode open(path, "w") would.
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:  # name the target, as open(path, "w") would
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with open(fd, "w", newline="\n", encoding="utf-8") as fh:
            if old is not None:
                os.fchmod(fh.fileno(), stat.S_IMODE(old.st_mode))
            for block in blocks:
                fh.write(block)
        # Truncating a file, or renaming over one, makes ext4 flush it on
        # close (auto_da_alloc), ~70 ms; renaming onto a freed name does not.
        try:
            os.unlink(path)
        except FileNotFoundError:
            pass
        os.rename(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _json_items(values: Iterable[object]) -> List[str]:
    """The JSON text of each of `values`, from one call to json's C encoder.

    json.dumps runs the pure-Python encoder whenever `indent` is set, so
    model_to_json lays out encoded items itself. Encoded JSON never holds a
    raw newline, which makes it a safe item separator.
    """
    text = json.dumps(list(values), separators=("\n", ": "))
    return text[1:-1].split("\n") if len(text) > 2 else []


def _json_block(items: Iterable[str], depth: int, brackets: str = "[]") -> str:
    """A list (with brackets "{}", an object) of encoded items, laid out as indent=2 lays it out at `depth`."""
    items = list(items)
    if not items:
        return brackets
    pad = "\n" + "  " * (depth + 1)
    return brackets[0] + pad + ("," + pad).join(items) + "\n" + "  " * depth + brackets[1]


def model_to_json(model: RLModel) -> str:
    """Serialize a model to the versioned JSON text form: json.dumps(doc, indent=2) of its document."""
    q = model.q
    control = _json_items(getattr(model.control, name) for name in _CONTROL_FIELDS)
    states = _json_items(q.state_index)
    # Every value in one C-encoder call, with indent=2's separator between a
    # row's values; a number holds no "]", so the text splits where rows meet.
    sep = ",\n      "
    if q.action_index:
        text = json.dumps(q.rows, separators=(sep, ": "))
        rows = [f"[\n      {row}\n    ]" for row in text[2:-2].split("]" + sep + "[")]
    else:
        rows = ["[]"] * len(states)
    fields = {
        "format": json.dumps(MODEL_FORMAT),
        "learning_rule": json.dumps(model.learning_rule),
        "control": _json_block((f'"{name}": {text}' for name, text in zip(_CONTROL_FIELDS, control)), 1, "{}"),
        "iterations_completed": json.dumps(model.iterations_completed),
        "reward_history": _json_block(_json_items(model.reward_history), 1),
        "states": _json_block(states, 1),
        "actions": _json_block(_json_items(q.action_index), 1),
        "q": _json_block((f"{s}: {row}" for s, row in zip(states, rows)), 1, "{}"),
        "policy": _json_block((f"{s}: {a}" for s, a in zip(states, _json_items(model.policy.values()))), 1, "{}"),
    }
    return _json_block((f'"{key}": {text}' for key, text in fields.items()), 0, "{}") + "\n"


def save_model(model: RLModel, path: str) -> None:
    write_text(path, model_to_json(model))


# The types json.loads gives numbers; bool, an int subclass, is not one of them.
_JSON_NUMBERS = frozenset((int, float))


def _number(value: object, field: str) -> float:
    # bool is an int subclass, and json reads NaN and Infinity as floats.
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ValueError(f"{field} must be a finite number, got {value!r}")
    return float(value)


def model_from_json(text: str, source: str = "<string>") -> RLModel:
    """Parse an rlmodel/1 document; a malformed one (see docs/formats.md)
    raises ValueError naming `source` and the offending field."""
    try:
        doc = json.loads(text)
    except (RecursionError, ValueError) as exc:  # also too deep a nesting, or too long an integer
        raise ValueError(f"{source}: not a valid model file: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{source}: not a valid model file: expected an object")
    found = doc.get("format")
    if found != MODEL_FORMAT:
        raise ValueError(f"{source}: unsupported model format {found!r}, expected {MODEL_FORMAT!r}")
    try:
        states, actions, values, policy = (doc[k] for k in ("states", "actions", "q", "policy"))
        if not (isinstance(states, list) and isinstance(actions, list) and isinstance(values, dict)
                and isinstance(policy, dict)):
            raise ValueError("states and actions must be lists, q and policy objects")
        actions = _validate_labels(actions, "action")  # actions are checked first, as QTable checks them
        q = QTable._of(_validate_labels(states, "state"), actions, [])  # rows are appended as they pass
        for name, table in (("q", values), ("policy", policy)):
            for s in table:
                if s not in q.state_index:
                    raise ValueError(f"{name} has an entry for {s!r}, which is not in states")
        for s in states:
            row = values.get(s)
            if not isinstance(row, list) or len(row) != len(actions):
                raise ValueError(f"q[{s!r}] must list {len(actions)} values, one per action, got {row!r}")
            kinds = set(map(type, row))
            if not (kinds <= _JSON_NUMBERS and all(map(math.isfinite, row))):  # _number words the error
                row = [_number(v, f"q[{s!r}][{j}]") for j, v in enumerate(row)]
            elif int in kinds:  # json's list is kept when it holds only floats
                row = list(map(float, row))
            q.rows.append(row)
            if s not in policy:
                raise ValueError(f"policy has no entry for state {s!r}")
        # The policy is derived data; a stored one must be q's argmax.
        for s, best in policy_from_q(q).items():
            if policy[s] != best:
                raise ValueError(f"policy[{s!r}] is {policy[s]!r}, but the argmax of q[{s!r}] is {best!r}")
        control, rule, history = doc["control"], doc["learning_rule"], doc["reward_history"]
        if not isinstance(control, dict):
            raise ValueError(f"control must be an object, got {control!r}")
        for name in _CONTROL_FIELDS:
            if name not in control:
                raise KeyError(f"control.{name}")
        if not isinstance(history, list):
            raise ValueError(f"reward_history must be a list, got {history!r}")
        iterations = doc["iterations_completed"]
        control = ControlParams(**{k: _number(v, f"control.{k}") for k, v in control.items()})
        if not (set(map(type, history)) <= _JSON_NUMBERS and all(map(math.isfinite, history))):  # as q's rows
            history = [_number(r, f"reward_history[{k}]") for k, r in enumerate(history)]
        model = RLModel(q=q, control=control, reward_history=list(map(float, history)))
        # Both are derived: the pass count from the history, and the package has one rule.
        if type(iterations) is not int or iterations != model.iterations_completed:
            raise ValueError(f"iterations_completed must be {model.iterations_completed}, the number of "
                             f"reward_history entries, got {iterations!r}")
        if rule != model.learning_rule:
            raise ValueError(f"learning_rule must be {model.learning_rule!r}, got {rule!r}")
    except KeyError as exc:
        raise ValueError(f"{source}: malformed model file: missing field {exc}") from None
    except (OverflowError, TypeError, ValueError) as exc:
        raise ValueError(f"{source}: malformed model file: {exc}") from None
    return model


def load_model(path: str) -> RLModel:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc.reason})") from None
    return model_from_json(text, source=path)


def _fmt(value: float) -> str:
    return f"{value:g}"


def _policy_report(model: RLModel) -> str:
    policy = model.policy
    return "\n".join(["Policy"] + [f"  {s} -> {a}" for s, a in policy.items()])


def _table_report(model: RLModel) -> str:
    headers = ["state"] + model.q.actions
    rows = [[s] + [f"{v:.7g}" for v in row] for s, row in zip(model.q.state_index, model.q.rows)]
    widths = [max(len(headers[i]), *(len(r[i]) for r in rows)) if rows else len(headers[i]) for i in range(len(headers))]
    lines = ["State-action values"]
    lines.append("  ".join(h.rjust(widths[i]) for i, h in enumerate(headers)))
    for r in rows:
        lines.append("  ".join(cell.rjust(widths[i]) for i, cell in enumerate(r)))
    return "\n".join(lines)


def _summary_report(model: RLModel) -> str:
    history = model.reward_history
    if history:
        total = _fmt(history[-1])
        lo, hi = _fmt(min(history)), _fmt(max(history))
        try:  # finite entries can overflow a float sum; statistics.mean sums exactly
            mean = statistics.fmean(history)
        except OverflowError:
            mean = statistics.mean(history)
        median = statistics.median(history)
        if math.isinf(median):  # the middle pair's sum overflowed
            median = statistics.mean([statistics.median_low(history), statistics.median_high(history)])
        mean, median, spread = _fmt(mean), _fmt(median), NOT_AVAILABLE
        if len(history) >= 2:
            try:
                spread = _fmt(statistics.stdev(history))
            except OverflowError:  # beyond the float range, or before Python 3.11 its square is: scale into range
                spread = _fmt(statistics.stdev([math.ldexp(r, -600) for r in history]) * 2.0**600)
    else:
        total = lo = hi = mean = median = spread = NOT_AVAILABLE
    pairs = [
        ("Learning rule", model.learning_rule),
        ("Iterations", str(model.iterations_completed)),
        ("States", str(len(model.q.states))),
        ("Actions", str(len(model.q.actions))),
        ("Total reward (last iteration)", total),
        ("", ""),
        ("Reward per iteration", ""),
        ("Min", lo),
        ("Max", hi),
        ("Mean", mean),
        ("Median", median),
        ("Std dev", spread),
    ]
    # A pair without a value is a heading, or with no label either a blank line.
    return "\n".join(["Model summary"] + [f"  {label + ':':<32}{value}" if value else label for label, value in pairs])


_REPORTS = {"policy": _policy_report, "table": _table_report, "summary": _summary_report}
REPORT_VIEWS = tuple(_REPORTS)


def format_report(model: RLModel, verbosity: str = "summary") -> str:
    """Render a model as text: its policy, its value table, or summary statistics.

    Identical models produce identical text. The summary's standard deviation
    reads "NA" when fewer than two iterations exist.
    """
    try:
        report = _REPORTS[verbosity]
    except (KeyError, TypeError):  # TypeError: an unhashable name, which is unknown too
        raise ValueError(f"unknown verbosity {verbosity!r}; expected one of {REPORT_VIEWS}") from None
    return report(model)
