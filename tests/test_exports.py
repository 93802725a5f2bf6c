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
    # the package exports every library module's names once; the CLI module stays out
    library = {name for mod in modules[1:] if mod.__name__ != "rankpc.cli" for name in mod.__all__}
    assert len(rankpc.__all__) == len(set(rankpc.__all__))
    assert set(rankpc.__all__) == library
