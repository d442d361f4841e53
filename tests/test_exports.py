"""Export lists: a deleted function must not linger in any ``__all__``."""

import importlib
import pkgutil

import photonstats


def test_every_exported_name_resolves():
    modules = [photonstats] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(photonstats.__path__, "photonstats.")
    ]
    assert len(modules) > 10
    missing = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert missing == []
