"""The README's examples run against the package as documented."""

import ast
import contextlib
import io
import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_library_tour_runs_and_learns_the_documented_policy():
    text = README.read_text(encoding="utf-8")
    tour = re.search(r"^## Library tour\n\n```python\n(.*?)^```", text, re.S | re.M).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(tour, "README.md", "exec"), {})
    policy = ast.literal_eval(out.getvalue().splitlines()[0])
    assert {s: policy[s] for s in ("s1", "s2", "s3")} == {"s1": "down", "s2": "right", "s3": "up"}
