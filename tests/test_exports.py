"""Export lists: a deleted function must not linger in any ``__all__``, and the
README states the current source size."""

import importlib
import pkgutil
import re
from pathlib import Path

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


def test_readme_states_the_source_line_count():
    # the count of `wc -l src/photonstats/*.py src/photonstats/*/*.py`
    package = Path(photonstats.__file__).parent
    files = list(package.glob("*.py")) + list(package.glob("*/*.py"))
    lines = sum(path.read_bytes().count(b"\n") for path in files)
    readme = (package.parents[1] / "README.md").read_text(encoding="utf-8")
    stated = re.search(r"The package source is ([\d,]+) lines", readme)
    assert stated is not None
    assert int(stated.group(1).replace(",", "")) == lines
