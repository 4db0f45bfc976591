"""Import checks on the package's source, each module parsed with ast.
The project has no linter, so this is its unused-import check: every name
an import binds must be read somewhere in its module, in code or in a
quoted annotation. Its dead-code check is that every private top-level
name a module defines is read somewhere in the package, so a helper
cannot outlive its last caller. It also keeps the split between the
module that computes a step (pipeline) and the one that costs it (perf),
and keeps the rotary ROM in ops, out of numerics' arithmetic contract."""

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


def test_every_private_name_is_read():
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    read = set().union(*map(read_names, trees.values()))
    read |= {node.attr for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = [f"{name}:{private}" for name, tree in trees.items()
              for private in sorted(defined_names(tree))
              if private.startswith("_") and not private.startswith("__") and private not in read]
    assert not unread, f"private but never read: {unread}"


# the stage trace, which perf holds beside the DMA schedule and the bus model
TRACE_NAMES = {"SOFTMAX_FORWARD_LEAD", "StageSpan", "TokenTrace", "stall_free_context_bound",
               "_operand_beats", "_SCALAR_PASSES", "_stage_plan", "_stage_spans"}
COMPUTING_MODULES = {"numerics", "ops", "quant", "model_io", "pipeline"}


def defined_names(tree: ast.Module) -> set[str]:
    """Names a module binds at its top level other than by import."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return names


def imports_from(tree: ast.Module) -> dict[str, set[str]]:
    """Each package module a module imports from, with the names it binds."""
    found: dict[str, set[str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found.setdefault(node.module, set()).update(a.name for a in node.names)
    return found


def test_pipeline_computes_and_perf_costs():
    pipeline, perf = (ast.parse((PACKAGE / f"{m}.py").read_text()) for m in ("pipeline", "perf"))
    assert TRACE_NAMES <= defined_names(perf)
    assert not TRACE_NAMES & defined_names(pipeline)
    from_modules = imports_from(pipeline)
    assert from_modules["perf"] == {"TokenTrace"}
    # the weight cache reads the stream's stages off config, as the trace does
    assert not {n for n in defined_names(pipeline) if "STAGE" in n.upper()}
    assert "STREAM_STAGES" in from_modules["config"] & imports_from(perf)["config"]
    assert not any("BusGeometry" in names for names in from_modules.values())
    assert not COMPUTING_MODULES & set(imports_from(perf))


# the scalar unit's rotary names, which ops holds beside the operators that read them
ROTARY_NAMES = {"QUARTER_ENTRIES", "PHASE_STEPS", "ROPE_BASE", "QUARTER_SINE",
                "inverse_frequency_table", "sin_cos"}


def test_numerics_keeps_the_arithmetic_contract_alone():
    numerics, ops = (ast.parse((PACKAGE / f"{m}.py").read_text()) for m in ("numerics", "ops"))
    assert not ROTARY_NAMES & defined_names(numerics)
    assert ROTARY_NAMES | {"NORM_EPS"} <= defined_names(ops)
    assert "numerics" not in imports_from(ops)
