"""Export lists: a deleted function must not linger in any ``__all__``, no
module imports a name that it never uses, and the README states the current
source size."""

import ast
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


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with the line of that import."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _exported_names(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def test_no_module_imports_a_name_it_never_uses():
    # re-exports: an __init__.py, and a module's own __all__
    package = Path(photonstats.__file__).parent
    unused = []
    for path in sorted(package.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        exempt = used | _exported_names(tree)
        unused += [
            f"{path.relative_to(package)}:{line}: {name}"
            for name, line in _imported_names(tree).items()
            if name not in exempt
        ]
    assert unused == []
