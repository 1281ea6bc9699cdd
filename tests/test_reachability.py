"""Every definition in `src/stimkb` is reached from somewhere else.

The scan parses `src/stimkb/*.py` and `perfbench/*.py` with `ast`.  The
checked names are the top-level functions and classes of `src/stimkb` and
the non-dunder methods of its top-level classes.  A name counts as reached
when it appears outside its own definition as a name, an attribute, an
import alias, or a string constant equal to it (the benchmark's call
tracer looks its targets up by string).

The match is by name alone, so a definition whose name something else
shares (a method called `keywords` beside a local variable `keywords`, or
a dunder such as `__contains__`) escapes the check.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "stimkb").glob("*.py"))
SCANNED = SOURCES + sorted((ROOT / "perfbench").glob("*.py"))

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
_DEFS = (*_FUNCTIONS, ast.ClassDef)


def _checked(tree):
    """(qualified name, definition node) for each checked definition."""
    for node in tree.body:
        if not isinstance(node, _DEFS):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if (isinstance(member, _FUNCTIONS)
                        and not member.name.startswith("__")):
                    yield f"{node.name}.{member.name}", member


def _names(node):
    """The names that `node` itself mentions."""
    if isinstance(node, ast.Name):
        return (node.id,)
    if isinstance(node, ast.Attribute):
        return (node.attr,)
    if isinstance(node, ast.alias):
        return (node.name.rpartition(".")[2], node.asname)
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return (node.value,)
    return ()


def _appearances(tree, definitions):
    """Names mentioned in `tree`, leaving out each mention that lies inside
    a checked definition of that same name."""
    seen = set()

    def visit(node, enclosing):
        if node in definitions:
            enclosing = enclosing | {node.name}
        for name in _names(node):
            if name and name not in enclosing:
                seen.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, frozenset())
    return seen


def unreached():
    trees = {path: ast.parse(path.read_text(), str(path)) for path in SCANNED}
    checked = [
        (qualname, node)
        for path in SOURCES
        for qualname, node in _checked(trees[path])
    ]
    definitions = {node for _, node in checked}
    seen = set()
    for tree in trees.values():
        seen |= _appearances(tree, definitions)
    return sorted(qualname for qualname, node in checked
                  if node.name not in seen)


def test_every_definition_is_reached():
    assert unreached() == []


def test_the_scan_sees_each_kind_of_use():
    tree = ast.parse(
        "def used_by_name(): pass\n"
        "def used_as_attribute(): pass\n"
        "def used_as_string(): pass\n"
        "def recursive(): return recursive()\n"
        "class Box:\n"
        "    def method(self): return self.method()\n"
        "    def __len__(self): return 0\n"
        "used_by_name()\n"
        "x.used_as_attribute\n"
        "TARGETS = ('used_as_string',)\n"
    )
    checked = dict(_checked(tree))
    assert sorted(checked) == [
        "Box", "Box.method", "recursive", "used_as_attribute",
        "used_as_string", "used_by_name",
    ]
    seen = _appearances(tree, set(checked.values()))
    assert {"used_by_name", "used_as_attribute", "used_as_string"} <= seen
    assert not {"recursive", "method", "Box"} & seen
