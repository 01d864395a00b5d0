"""In-memory span recorder for the traced benchmark run.

Spans are recorded from outside the library: the benchmark wraps the public
functions it calls (and, for the CLI workload, the names `replayq.cli` looks
up), so no file under `src/` changes. A span is (id, parent, run, layer,
name, tag, start, end, counts); spans of one pipeline run share a run id.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import os
import time
import tracemalloc
import types
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional

LAYERS = ("core", "learner", "envs", "tictactoe", "oracle", "persist", "cli")


@dataclass
class Span:
    id: int
    parent: Optional[int]
    run: int
    layer: str
    name: str
    tag: str
    start: float
    end: float
    counts: Dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _mdp_counts(result) -> Dict[str, float]:
    mdp_bytes = result.transition.nbytes + result.reward.nbytes + result.coverage.nbytes
    return {
        "states": len(result.states),
        "mdp_bytes": mdp_bytes,
        "covered": int(result.coverage.sum()),
        "pairs": result.coverage.size,
    }


# Work counts taken at the layer boundary, from a call's bound arguments and
# its result. Returns (tag, counts); the tag splits one function's time by
# the mode it ran in.
_HOOKS: Dict[str, Callable] = {
    "learn": lambda a, r: ("", {"updates": len(a["batch"]) * a["iterations"]}),
    "update_model": lambda a, r: ("", {"updates": len(a["new_batch"]) * a["iterations"]}),
    "sample_experience": lambda a, r: (a["mode"], {"tuples": len(r)}),
    "ttt_generate_games": lambda a, r: ("", {"games": a["num_games"]}),
    "write_experience": lambda a, r: ("", {"rows": len(a["batch"]), "bytes": os.path.getsize(a["path"])}),
    "read_experience": lambda a, r: ("", {"rows": len(r)}),
    "save_model": lambda a, r: ("", {"bytes": os.path.getsize(a["path"])}),
    "estimate_mdp": lambda a, r: ("", _mdp_counts(r)),
}

# Layers whose calls also record their tracemalloc peak.
_ALLOC_LAYERS = ("oracle",)


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.run = 0
        self._stack: List[int] = []
        self._next_id = 0

    def _open(self) -> tuple:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid, parent, layer, name, tag, start, counts) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self.spans.append(Span(sid, parent, self.run, layer, name, tag, start, end, counts))

    @contextlib.contextmanager
    def span(self, layer: str, name: str) -> Iterator[Dict[str, float]]:
        """Span around benchmark code; the caller may fill the yielded counts."""
        counts: Dict[str, float] = {}
        sid, parent = self._open()
        start = time.perf_counter()
        try:
            yield counts
        finally:
            self._close(sid, parent, layer, name, "", start, counts)

    def wrap(self, fn: Callable) -> Callable:
        """Wrap a public library function so each call records one span."""
        layer = fn.__module__.rsplit(".", 1)[-1]
        name = fn.__name__
        hook = _HOOKS.get(name)
        signature = inspect.signature(fn) if hook else None
        track_alloc = layer in _ALLOC_LAYERS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent = self._open()
            if track_alloc:
                tracemalloc.start()
            start = time.perf_counter()
            counts: Dict[str, float] = {}
            tag = ""
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    tag, counts = hook(bound.arguments, result)
                return result
            finally:
                if track_alloc:
                    counts["peak_alloc_bytes"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                self._close(sid, parent, layer, name, tag, start, counts)

        return traced

    def wrap_namespace(self, lib: types.SimpleNamespace) -> types.SimpleNamespace:
        """Copy of `lib` with every library function wrapped; classes pass through."""
        return types.SimpleNamespace(
            **{k: self.wrap(v) if inspect.isfunction(v) else v for k, v in vars(lib).items()}
        )

    @contextlib.contextmanager
    def patched(self, module: types.ModuleType, names) -> Iterator[None]:
        """Temporarily replace `module`'s globals `names` with traced wrappers."""
        saved = {n: getattr(module, n) for n in names}
        try:
            for n, fn in saved.items():
                setattr(module, n, self.wrap(fn))
            yield
        finally:
            for n, fn in saved.items():
                setattr(module, n, fn)


class NullTracer:
    """Stand-in for untraced runs: spans cost one no-op context manager."""

    @contextlib.contextmanager
    def span(self, layer: str, name: str) -> Iterator[Dict[str, float]]:
        yield {}


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span id -> duration minus the time its direct children cover.

    Calls are sequential in a single thread, so children never overlap.
    """
    child_time: Dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration
    return {s.id: s.duration - child_time.get(s.id, 0.0) for s in spans}
