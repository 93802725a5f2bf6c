import importlib
import pkgutil

import rankpc


def test_every_exported_name_resolves():
    modules = [rankpc] + [
        importlib.import_module(f"rankpc.{info.name}") for info in pkgutil.iter_modules(rankpc.__path__)
    ]
    assert len(modules) > 1
    stale = [f"{mod.__name__}.{name}" for mod in modules for name in mod.__all__ if not hasattr(mod, name)]
    assert stale == []
