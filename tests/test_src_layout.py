"""Keep test-only code out of the package: every module-level function and
class in src/modem, and every method of its classes, must be referenced
somewhere else in src/modem."""

import ast
import collections
import pathlib

import pytest

import modem

# Names the package exports for callers outside it: modembench builds its
# configs with config_from_dict.
EXPORTED = {"config_from_dict"}

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def names_used(node: ast.AST, kinds=(ast.Name, ast.Attribute)):
    """How often each identifier is read as one of `kinds`: a name or an
    attribute."""
    used = collections.Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and ast.Name in kinds:
            used[n.id] += 1
        elif isinstance(n, ast.Attribute) and ast.Attribute in kinds:
            used[n.attr] += 1
    return used


@pytest.fixture(scope="module")
def trees():
    package = pathlib.Path(modem.__file__).parent
    return {p.name: ast.parse(p.read_text())
            for p in sorted(package.glob("*.py"))}


def unused(trees, definitions, kinds=(ast.Name, ast.Attribute)):
    """The (module, label, definition) triples whose name src/modem never
    reads as one of `kinds` outside the definition itself (recursion does
    not count)."""
    total = sum((names_used(t, kinds) for t in trees.values()),
                collections.Counter())
    return [f"{module}:{label}" for module, label, d in definitions
            if total[d.name] - names_used(d, kinds)[d.name] == 0
            and d.name not in EXPORTED]


def test_every_module_level_definition_is_used_in_src(trees):
    found = unused(trees, [(m, d.name, d) for m, t in trees.items()
                           for d in t.body if isinstance(d, DEFINITIONS)])
    assert not found, f"defined in src/modem but used only outside it: {found}"


def test_every_method_is_used_in_src(trees):
    """A method counts as used when some attribute of its name is read, as
    in `obj.method(...)`; a local variable of the same name does not count.
    Dunder methods are called by the interpreter, not by name."""
    found = unused(trees, [
        (m, f"{c.name}.{d.name}", d) for m, t in trees.items()
        for c in t.body if isinstance(c, ast.ClassDef)
        for d in c.body if isinstance(d, DEFINITIONS)
        and not (d.name.startswith("__") and d.name.endswith("__"))],
        kinds=(ast.Attribute,))
    assert not found, f"methods in src/modem used only outside it: {found}"


def test_every_attribute_set_on_self_is_read_in_src(trees):
    """An attribute a class assigns on `self` counts as read when src/modem
    loads some attribute of its name, as in `obj.name`; assigning it does
    not count."""
    read = collections.Counter(
        n.attr for t in trees.values() for n in ast.walk(t)
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load))
    found = sorted({
        f"{m}:{c.name}.{n.attr}" for m, t in trees.items()
        for c in ast.walk(t) if isinstance(c, ast.ClassDef)
        for n in ast.walk(c) if isinstance(n, ast.Attribute)
        and isinstance(n.ctx, ast.Store) and isinstance(n.value, ast.Name)
        and n.value.id == "self" and not read[n.attr]})
    assert not found, f"set on self in src/modem but never read: {found}"


def test_only_cli_main_reports_errors(trees):
    """`cli.main` is the one error boundary: the commands raise, and no
    other function of cli.py writes to stderr or returns USAGE_ERROR, so a
    new command cannot grow a handler of its own."""
    def reporting(node):
        for n in ast.walk(node):
            if isinstance(n, ast.Name) and n.id in ("USAGE_ERROR", "stderr"):
                yield n.id
            elif isinstance(n, ast.Attribute) and n.attr == "stderr":
                yield "sys.stderr"

    found = sorted({f"{d.name}: {name}" for d in ast.walk(trees["cli.py"])
                    if isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and d.name != "main" for name in reporting(d)})
    assert not found, f"error reporting outside cli.main: {found}"
