"""The package's exports against its own code: every name in __all__ has a
caller in some module other than the one that defines it."""

import ast
from pathlib import Path

import orbitpairs


def referenced_names(path: Path) -> set[str]:
    """Every name a module reads, as a bare name or as an attribute."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_export_has_a_production_caller():
    package = Path(orbitpairs.__file__).parent
    modules = {path.stem: referenced_names(path) for path in package.glob("*.py")
               if path.name != "__init__.py"}
    uncalled = []
    for name in orbitpairs.__all__:
        home = getattr(orbitpairs, name).__module__.rpartition(".")[2]
        assert home in modules, (name, home)
        if not any(name in names for stem, names in modules.items() if stem != home):
            uncalled.append(name)
    assert not uncalled, f"exported, but called only where defined: {uncalled}"
