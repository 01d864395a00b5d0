import ast
import graphlib
import pathlib

import replayq

PACKAGE = pathlib.Path(replayq.__file__).parent


def _is_type_checking_block(node):
    return isinstance(node, ast.If) and ast.unparse(node.test) in ("TYPE_CHECKING", "typing.TYPE_CHECKING")


def _package_imports(body):
    """Sibling modules imported at run time by the statements in `body`;
    imports under `if TYPE_CHECKING:` never run and do not count."""
    found = set()
    for node in body:
        if _is_type_checking_block(node):
            continue
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found.update([node.module] if node.module else [alias.name for alias in node.names])
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("replayq."):
            found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names if a.name.startswith("replayq."))
        for field in ("body", "orelse", "handlers", "finalbody"):
            found |= _package_imports(getattr(node, field, []))
    return found


def _function_level_imports(tree):
    functions = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
    return [
        node.lineno
        for fn in ast.walk(tree) if isinstance(fn, functions)
        for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))
    ]


def test_the_package_import_graph_is_acyclic_and_imports_only_at_module_level():
    graph, nested = {}, {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        graph[path.stem] = _package_imports(tree.body)
        lines = _function_level_imports(tree)
        if lines:
            nested[path.name] = lines
    assert {"core", "envs", "tictactoe"} <= set(graph)
    assert nested == {}, f"imports inside functions (file: lines) can hide an import cycle: {nested}"
    order = list(graphlib.TopologicalSorter(graph).static_order())  # raises CycleError on a cycle
    assert order.index("core") < order.index("tictactoe") < order.index("envs")
