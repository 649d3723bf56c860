"""Every Sphinx cross-reference in the package source names an object that exists.

A reference ``:func:`name``` (and likewise ``:meth:``, ``:class:`` and
``:mod:``) in ``src/nefdual/<module>.py`` resolves as a dotted attribute
path in its own module, then among the members of the classes that module
defines, then as a full dotted import path. ``__main__`` is skipped:
importing it runs the CLI.
"""

import importlib
import inspect
import re
from pathlib import Path

import nefdual

SRC = Path(nefdual.__file__).parent
ROLE = re.compile(r":(?:func|meth|class|mod):`~?([\w.]+)`")
_MISSING = object()


def _attr_path(obj, dotted):
    for name in dotted.split("."):
        obj = getattr(obj, name, _MISSING)
        if obj is _MISSING:
            break
    return obj


def _import_path(dotted):
    names = dotted.split(".")
    for k in range(len(names), 0, -1):
        try:
            module = importlib.import_module(".".join(names[:k]))
        except ImportError:
            continue
        return _attr_path(module, ".".join(names[k:])) if k < len(names) else module
    return _MISSING


def resolves(module, target) -> bool:
    if _attr_path(module, target) is not _MISSING:
        return True
    own_classes = [
        cls
        for _, cls in inspect.getmembers(module, inspect.isclass)
        if cls.__module__ == module.__name__
    ]
    if any(_attr_path(cls, target) is not _MISSING for cls in own_classes):
        return True
    return _import_path(target) is not _MISSING


def test_every_cross_reference_in_the_package_resolves():
    found = 0
    unresolved = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "__main__":
            continue
        name = "nefdual" if path.stem == "__init__" else f"nefdual.{path.stem}"
        module = importlib.import_module(name)
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            for target in ROLE.findall(line):
                found += 1
                if not resolves(module, target):
                    unresolved.append(f"{path.name}:{lineno}: {target}")
    assert found > 0
    assert not unresolved, unresolved
