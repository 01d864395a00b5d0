"""Experience-file I/O, model serialization, and human-readable reports.

The experience format is plain comma-delimited text with a header row; state
and action labels may not contain commas or newlines, so no quoting is needed
and round trips are byte-exact. Models are stored as versioned JSON
("rlmodel/1") with rewards and values in shortest round-trippable decimal
form.
"""

from __future__ import annotations

import csv
import json
import statistics
from typing import Dict, List, Optional

from .core import ControlParams, ExperienceTuple, QTable, RLModel

DEFAULT_COLUMNS = {"s": "State", "a": "Action", "r": "Reward", "s_new": "NextState"}
MODEL_FORMAT = "rlmodel/1"
NOT_AVAILABLE = "NA"

REPORT_VIEWS = ("policy", "table", "summary")


def read_experience(path: str, column_map: Optional[Dict[str, str]] = None) -> List[ExperienceTuple]:
    """Parse an experience file into tuples, preserving row order.

    `column_map` renames the tuple elements {s, a, r, s_new} to the file's
    column names; omitted keys fall back to State/Action/Reward/NextState.
    """
    columns = dict(DEFAULT_COLUMNS)
    if column_map:
        unknown = set(column_map) - set(DEFAULT_COLUMNS)
        if unknown:
            raise ValueError(f"unknown column_map keys {sorted(unknown)}; expected s, a, r, s_new")
        columns.update(column_map)

    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty file, expected a header row")
        indices = {}
        for key in ("s", "a", "r", "s_new"):
            name = columns[key]
            try:
                indices[key] = header.index(name)
            except ValueError:
                raise ValueError(f"{path}: column {name} not found (header: {header})") from None

        out: List[ExperienceTuple] = []
        for row_no, row in enumerate(reader, start=2):
            if len(row) <= max(indices.values()):
                raise ValueError(f"{path}: row {row_no}: expected {len(header)} fields, got {len(row)}")
            raw_reward = row[indices["r"]]
            try:
                reward = float(raw_reward)
            except ValueError:
                raise ValueError(f"{path}: row {row_no}: cannot parse reward {raw_reward!r}") from None
            try:
                out.append(
                    ExperienceTuple(
                        state=row[indices["s"]],
                        action=row[indices["a"]],
                        reward=reward,
                        next_state=row[indices["s_new"]],
                    )
                )
            except ValueError as exc:
                raise ValueError(f"{path}: row {row_no}: {exc}") from None
    return out


def write_experience(batch: List[ExperienceTuple], path: str) -> None:
    """Write tuples under the standard header; read_experience inverts this exactly."""
    lines = [",".join(DEFAULT_COLUMNS[k] for k in ("s", "a", "r", "s_new"))]
    for t in batch:
        lines.append(f"{t.state},{t.action},{t.reward!r},{t.next_state}")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def model_to_json(model: RLModel) -> str:
    """Serialize a model to the versioned JSON text form."""
    doc = {
        "format": MODEL_FORMAT,
        "learning_rule": model.learning_rule,
        "control": {
            "alpha": model.control.alpha,
            "gamma": model.control.gamma,
            "epsilon": model.control.epsilon,
        },
        "iterations_completed": model.iterations_completed,
        "reward_history": list(model.reward_history),
        "states": list(model.q.states),
        "actions": list(model.q.actions),
        "q": {s: [model.q.value(s, a) for a in model.q.actions] for s in model.q.states},
        "policy": dict(model.policy),
    }
    return json.dumps(doc, indent=2) + "\n"


def save_model(model: RLModel, path: str) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(model_to_json(model))


def model_from_json(text: str, source: str = "<string>") -> RLModel:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{source}: not a valid model file: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{source}: not a valid model file: expected an object")
    found = doc.get("format")
    if found != MODEL_FORMAT:
        raise ValueError(f"{source}: unsupported model format {found!r}, expected {MODEL_FORMAT!r}")
    try:
        states = list(doc["states"])
        actions = list(doc["actions"])
        q = QTable(states=states, actions=actions)
        for s in states:
            row = doc["q"][s]
            if len(row) != len(actions):
                raise ValueError(f"state {s!r} has {len(row)} values for {len(actions)} actions")
            for a, value in zip(actions, row):
                q.set(s, a, value)
        control = ControlParams(**doc["control"])
        model = RLModel(
            q=q,
            policy={str(s): str(a) for s, a in doc["policy"].items()},
            control=control,
            iterations_completed=int(doc["iterations_completed"]),
            reward_history=[float(r) for r in doc["reward_history"]],
            learning_rule=str(doc["learning_rule"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{source}: malformed model file: {exc}") from None
    return model


def load_model(path: str) -> RLModel:
    with open(path) as fh:
        text = fh.read()
    return model_from_json(text, source=path)


def _fmt(value: float) -> str:
    return f"{value:g}"


def _policy_report(model: RLModel) -> str:
    lines = ["Policy"]
    for s in model.q.states:
        lines.append(f"  {s} -> {model.policy[s]}")
    return "\n".join(lines)


def _table_report(model: RLModel) -> str:
    headers = ["state"] + list(model.q.actions)
    rows = [[s] + [f"{model.q.value(s, a):.7g}" for a in model.q.actions] for s in model.q.states]
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
        mean = _fmt(statistics.fmean(history))
        median = _fmt(statistics.median(history))
        spread = _fmt(statistics.stdev(history)) if len(history) >= 2 else NOT_AVAILABLE
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
    lines = ["Model summary"]
    for label, value in pairs:
        if not label:
            lines.append("")
        elif not value:
            lines.append(label)
        else:
            lines.append(f"  {label + ':':<32}{value}")
    return "\n".join(lines)


def format_report(model: RLModel, verbosity: str = "summary") -> str:
    """Render a model as text: its policy, its value table, or summary statistics.

    Identical models produce identical text. The summary's standard deviation
    reads "NA" when fewer than two iterations exist.
    """
    if verbosity == "policy":
        return _policy_report(model)
    if verbosity == "table":
        return _table_report(model)
    if verbosity == "summary":
        return _summary_report(model)
    raise ValueError(f"unknown verbosity {verbosity!r}; expected one of {REPORT_VIEWS}")
