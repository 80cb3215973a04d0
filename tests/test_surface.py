"""Guards on the package surface: no dead imports or definitions, no lost tracer hooks."""

import ast
import importlib.util
from collections import Counter
from pathlib import Path

import boundstates

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "boundstates"

# bench/tracer.py counts canonical pairs by rebinding this name in cli, roots and wm
TRACED_ONLY = {("cli", "canonical_pair"), ("roots", "canonical_pair"), ("wm", "canonical_pair")}


def _exported(node):
    # the names an `__all__ = [...]` assignment lists, else none
    if (isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
        return ast.literal_eval(node.value)
    return []


def _unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        else:
            used.update(_exported(node))
    return {name for name in imported if name not in used}


def test_no_module_imports_a_name_it_never_uses():
    unused = {(path.stem, name) for path in sorted(PACKAGE.glob("*.py"))
              for name in _unused_imports(path)}
    assert unused - TRACED_ONLY == set()


def _references(node):
    # every name node reads, as a bare name, an attribute or an __all__ entry
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
        else:
            out.update(_exported(sub))
    return out


def test_every_definition_is_referenced_outside_itself():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    everywhere = sum((_references(tree) for tree in trees.values()), Counter())
    dead = {(stem, node.name) for stem, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and everywhere[node.name] == _references(node)[node.name]}
    assert dead == set()


def test_every_name_the_bench_tracer_rebinds_exists():
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    t = tracer.Tracer()
    try:
        t.install()
        assert t.missing == []
    finally:
        t.uninstall()


def test_every_exported_name_resolves():
    assert [name for name in boundstates.__all__ if not hasattr(boundstates, name)] == []
