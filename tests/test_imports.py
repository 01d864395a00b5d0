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


def test_every_module_reads_every_name_it_imports():
    # __init__.py imports names to re-export them, and a __future__ import binds no name to read.
    unused = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        names = [
            (alias.asname or alias.name.split(".")[0], node.lineno)
            for node in ast.walk(tree)
            if isinstance(node, ast.Import) or isinstance(node, ast.ImportFrom) and node.module != "__future__"
            for alias in node.names
        ]
        lines = [f"{name} (line {line})" for name, line in names if name not in read]
        if lines:
            unused[path.name] = lines
    assert unused == {}, f"imported names that the module never reads: {unused}"


def test_all_lists_each_name_the_package_imports_once():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imported = {alias.asname or alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert len(replayq.__all__) == len(set(replayq.__all__))
    assert set(replayq.__all__) == imported
