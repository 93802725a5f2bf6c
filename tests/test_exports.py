import ast
import importlib
import pkgutil
from collections import Counter
from pathlib import Path

import rankpc


def test_every_exported_name_resolves():
    modules = [rankpc] + [
        importlib.import_module(f"rankpc.{info.name}") for info in pkgutil.iter_modules(rankpc.__path__)
    ]
    assert len(modules) > 1
    stale = [f"{mod.__name__}.{name}" for mod in modules for name in mod.__all__ if not hasattr(mod, name)]
    assert stale == []
    # the package exports every library module's names once; the CLI module stays out
    library = {name for mod in modules[1:] if mod.__name__ != "rankpc.cli" for name in mod.__all__}
    assert len(rankpc.__all__) == len(set(rankpc.__all__))
    assert set(rankpc.__all__) == library



def test_every_private_module_name_has_a_user_in_the_package():
    # a module-level _name that only its own definition (or only the tests) mentions is dead code
    defined, used = {}, set()
    for path in sorted(Path(rankpc.__file__).parent.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                own = {stmt.name}
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                own = {node.id for t in targets for node in ast.walk(t) if isinstance(node, ast.Name)}
            else:
                own = set()
            defined.update((name, path.name) for name in own if name.startswith("_") and not name.startswith("__"))
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    name = node.id
                elif isinstance(node, (ast.Attribute, ast.alias)):
                    name = node.attr if isinstance(node, ast.Attribute) else node.name
                else:
                    continue
                if name not in own:  # recursion is no use
                    used.add(name)
    assert len(defined) > 20
    assert sorted(f"{module}:{name}" for name, module in defined.items() if name not in used) == []


def test_the_integer_and_real_rules_are_written_once():
    # numbers.Integral and numbers.Real are read only inside graph._count and graph._real, and operator.index
    # (which takes True as 1) nowhere, so every count, node index and real number passes one rule
    banned = {"numbers": {"Integral", "Real"}, "operator": {"index"}}
    found = []
    for path in sorted(Path(rankpc.__file__).parent.glob("*.py")):
        home = path.name == "graph.py"
        for stmt in ast.parse(path.read_text()).body:
            if home and getattr(stmt, "name", None) in ("_count", "_real"):
                continue
            for node in ast.walk(stmt):
                if isinstance(node, ast.ImportFrom):
                    names = {alias.name for alias in node.names} & banned.get(node.module, set())
                    names -= banned["numbers"] if home else set()  # imported there for the two rules
                elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                    names = {node.attr} & banned.get(node.value.id, set())
                elif isinstance(node, ast.Name):
                    names = {node.id} & banned["numbers"]
                else:
                    continue
                found += [f"{path.name}:{node.lineno}: {name}" for name in sorted(names)]
    assert found == []
