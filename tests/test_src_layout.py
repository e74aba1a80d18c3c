"""Keep test-only code out of the package: every module-level function and
class in src/modem must be referenced somewhere else in src/modem."""

import ast
import collections
import pathlib

import modem

# Names the package exports for callers outside it: modembench builds its
# configs with config_from_dict.
EXPORTED = {"config_from_dict"}


def names_used(node: ast.AST) -> collections.Counter:
    """How often each identifier is read as a name or an attribute."""
    used = collections.Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            used[n.id] += 1
        elif isinstance(n, ast.Attribute):
            used[n.attr] += 1
    return used


def test_every_module_level_definition_is_used_in_src():
    package = pathlib.Path(modem.__file__).parent
    trees = {p.name: ast.parse(p.read_text())
             for p in sorted(package.glob("*.py"))}
    total = sum((names_used(t) for t in trees.values()), collections.Counter())
    unused = [
        f"{module}:{d.name}"
        for module, tree in trees.items() for d in tree.body
        if isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        # uses inside the definition itself (recursion) do not count
        and total[d.name] - names_used(d)[d.name] == 0
        and d.name not in EXPORTED
    ]
    assert not unused, f"defined in src/modem but used only outside it: {unused}"
