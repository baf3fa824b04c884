"""The package's public names: every module's ``__all__`` is real and
re-exported, so a deleted function cannot linger as a stale export."""

import importlib
import pkgutil

import chatquant

# Public in their module but deliberately not re-exported by the package.
MODULE_ONLY = {("simulator", "CHUNK"), ("cli", "main")}


def test_module_exports_exist_and_reach_the_package():
    modules = [m.name for m in pkgutil.iter_modules(chatquant.__path__)]
    assert "allocation" in modules and "cli" in modules
    for name in modules:
        module = importlib.import_module(f"chatquant.{name}")
        for attr in module.__all__:
            assert hasattr(module, attr), f"{name}.__all__ names missing {attr!r}"
            if (name, attr) not in MODULE_ONLY:
                assert attr in chatquant.__all__, f"{name}.{attr} not re-exported"
    for attr in chatquant.__all__:
        assert hasattr(chatquant, attr), f"chatquant.__all__ names missing {attr!r}"
