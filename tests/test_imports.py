"""No module of the package imports a name it never reads. The project
has no linter, so this is its unused-import check: each module is parsed
with ast, and every name an import binds must be read somewhere in it, in
code or in a quoted annotation."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "beatstream"

# beatbench times calls through the names it finds on pipeline; no step
# calls pad_to_lanes, which stays bound there for its wrapper alone
BOUND_FOR_BEATBENCH = {("pipeline", "pad_to_lanes")}


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with the line of its import."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
    return names


def read_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, those of its quoted annotations too."""
    annotations = [node.annotation for node in ast.walk(tree)
                   if isinstance(node, (ast.arg, ast.AnnAssign))]
    annotations += [node.returns for node in ast.walk(tree)
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    trees = [tree] + [ast.parse(a.value, mode="eval") for a in annotations
                      if isinstance(a, ast.Constant) and isinstance(a.value, str)]
    return {node.id for t in trees for node in ast.walk(t)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def test_every_imported_name_is_read():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        read = read_names(tree)
        unused += [f"{path.name}:{line} {name}" for name, line in imported_names(tree).items()
                   if name not in read and (path.stem, name) not in BOUND_FOR_BEATBENCH]
    assert not unused, f"imported but never read: {unused}"
